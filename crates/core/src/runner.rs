//! The HPO runner: drives a [`SweepSource`] over the rcompss runtime.
//!
//! This is the paper's `main()` (Listing 2): generate configs, launch one
//! `experiment(config)` task per config, `compss_wait_on` the results, and
//! hand them to the plotting/reporting layer. [`HpoRunner::execute`] is
//! that loop, once: a *source* proposes batches of configs (a
//! [`Suggester`]'s waves, a [`BracketSource`]'s rungs), an [`Evaluator`]
//! submits each batch (one task per config, or one stage tree per batch),
//! and the control gate, the sweep journal, trial metrics, the observer
//! and across-trial early stopping wrap every batch. Either way each
//! submitted trial joins one pending list and is collected from it in one
//! place, the moment it settles: rows leave in completion order, while the
//! report keeps admission order.

use std::collections::HashMap;
use std::sync::Arc;

use rcompss::{ArgSpec, DataHandle, Runtime, SubmitError, SubmitOpts, TaskDef};
use tinyml::TrainSnapshot;

use crate::algo::hyperband::Bracket;
use crate::algo::random::RandomSearch;
use crate::algo::Suggester;
use crate::ckpt::{journal_key, ResumeStats, SweepJournal, SweepRecord, SweepState};
use crate::experiment::{
    outcome_from_history, ExperimentOptions, Objective, Trainer, TrialOutcome,
};
use crate::results::{HpoReport, TrialResult};
use crate::space::{Config, SearchSpace};
use crate::stagetree::{is_cosine, stage_task_def, StagePayload, StagePlan};
use crate::wire::experiment_task_def;

/// Executes HPO runs.
#[derive(Debug, Clone)]
pub struct HpoRunner {
    /// Options applied to every experiment task.
    pub opts: ExperimentOptions,
}

/// What a staged (prefix-shared) run saved relative to retraining every
/// trial from scratch. All figures count *training epochs*, the unit the
/// paper's sweeps are billed in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Stage segments submitted (== trials when nothing is shared).
    pub segments: usize,
    /// Segments that resumed a parent fork snapshot.
    pub forks: usize,
    /// Epochs a naive run of the submitted trials would have trained.
    pub naive_epochs: u64,
    /// Epochs actually trained across all submitted segments.
    pub staged_epochs: u64,
}

impl StageStats {
    /// Epochs the dedup avoided (0 when nothing was shared).
    pub fn epochs_saved(&self) -> u64 {
        self.naive_epochs.saturating_sub(self.staged_epochs)
    }
}

/// Drain a history-independent suggester (grid, random) into its full
/// config list — what [`HpoRunner::run_staged`] and the stage planner's
/// callers hand over when they want one tree across the whole sweep.
pub fn materialize(algo: &mut dyn Suggester) -> Vec<Config> {
    let mut configs = Vec::new();
    while let Some(c) = algo.suggest(&[]) {
        configs.push(c);
    }
    configs
}

/// Cooperative control threaded through [`HpoRunner::execute`]: an
/// admission gate consulted before every trial submission, and the one way
/// to stop a sweep. The sweep server's gate decides fair share, rate
/// limits, quotas and client-requested cancels alike; a denial makes the
/// run stop *admitting* and drain the in-flight batch normally, so every
/// collected trial is a complete, journal-identical result.
#[derive(Clone, Default)]
pub struct SweepControl {
    gate: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
}

impl SweepControl {
    /// No gate: behaves exactly like an uncontrolled run.
    pub fn new() -> SweepControl {
        SweepControl::default()
    }

    /// Install the admission gate: called (and allowed to block) before
    /// every trial submission. Returning `false` ends the sweep cleanly
    /// after draining the in-flight batch. A gate that blocks must itself
    /// return on a cancel.
    pub fn with_gate(mut self, gate: impl Fn() -> bool + Send + Sync + 'static) -> SweepControl {
        self.gate = Some(Arc::new(gate));
        self
    }

    /// May the next trial be submitted? `false` ends the sweep.
    fn admit(&self) -> bool {
        self.gate.as_ref().is_none_or(|gate| gate())
    }
}

/// Where a sweep's configurations come from. Every [`Suggester`] is a
/// source (its suggestions, in waves); [`BracketSource`] is the
/// successive-halving one.
pub trait SweepSource {
    /// Algorithm name for the report.
    fn algorithm(&self) -> &str;

    /// The next batch — configs evaluated in parallel, all at one epoch
    /// budget (`None`: each config's own `num_epochs`) — given every
    /// trial reported so far, the previous batch's last. Empty when the
    /// source is exhausted. `wave` is [`ExperimentOptions::wave_size`]
    /// (`usize::MAX` when unset), for sources whose batches can be cut.
    fn next_batch(&mut self, history: &[TrialResult], wave: usize) -> (Vec<Config>, Option<u32>);
}

/// Suggestions are taken in waves of `min(parallelism, wave_size)`; the
/// results feed back before the next wave is suggested.
impl<S: Suggester + ?Sized> SweepSource for S {
    fn algorithm(&self) -> &str {
        self.name()
    }

    fn next_batch(&mut self, history: &[TrialResult], wave: usize) -> (Vec<Config>, Option<u32>) {
        let limit = wave.min(self.parallelism()).max(1);
        (std::iter::from_fn(|| self.suggest(history)).take(limit).collect(), None)
    }
}

/// One successive-halving bracket as a source: the first rung is sampled
/// randomly from the space, every rung is one batch at the rung's epoch
/// budget, and the top configurations of each rung are promoted to the
/// next (the paper's early-stopping idea taken to its scheduler-shaped
/// conclusion).
#[derive(Debug)]
pub struct BracketSource<'a> {
    bracket: &'a Bracket,
    /// The first rung's sample, until it is handed out.
    candidates: Vec<Config>,
    /// Index of the rung the next batch evaluates.
    rung: usize,
    /// Where the previous rung's results start in the history.
    mark: usize,
}

impl<'a> BracketSource<'a> {
    /// Sample `bracket`'s first rung from `space` with `seed`.
    pub fn new(space: &SearchSpace, bracket: &'a Bracket, seed: u64) -> Self {
        let n = bracket.rungs[0].n_configs;
        let candidates = materialize(&mut RandomSearch::new(space, n, seed));
        BracketSource { bracket, candidates, rung: 0, mark: 0 }
    }
}

impl SweepSource for BracketSource<'_> {
    fn algorithm(&self) -> &str {
        "successive-halving"
    }

    fn next_batch(&mut self, history: &[TrialResult], _wave: usize) -> (Vec<Config>, Option<u32>) {
        let Some(rung) = self.bracket.rungs.get(self.rung) else { return (Vec::new(), None) };
        if self.rung > 0 {
            // Promote the best survivors. The sort is stable and the rung
            // reported in candidate order, so ties keep that order.
            let mut results: Vec<&TrialResult> = history[self.mark..].iter().collect();
            results.sort_by(|a, b| b.outcome.accuracy.total_cmp(&a.outcome.accuracy));
            self.candidates = results
                .into_iter()
                .filter(|t| !t.outcome.is_failed())
                .take(rung.n_configs)
                .map(|t| t.config.clone())
                .collect();
        }
        self.rung += 1;
        self.mark = history.len();
        (std::mem::take(&mut self.candidates), Some(rung.budget))
    }
}

/// A fixed config list as a source, cut into waves.
struct Listed<'a> {
    name: &'a str,
    rest: &'a [Config],
}

impl SweepSource for Listed<'_> {
    fn algorithm(&self) -> &str {
        self.name
    }

    fn next_batch(&mut self, _history: &[TrialResult], wave: usize) -> (Vec<Config>, Option<u32>) {
        let (batch, rest) = self.rest.split_at(wave.max(1).min(self.rest.len()));
        self.rest = rest;
        (batch.to_vec(), None)
    }
}

/// What turns a batch of configs into trials.
#[derive(Clone)]
pub enum Evaluator<'a> {
    /// One `graph.experiment` task per config — the paper's
    /// "embarrassingly parallel" structure. Each trial is reported as soon
    /// as its task settles.
    Trials(Objective),
    /// One stage tree per batch ([`crate::stagetree`]): shared training
    /// prefixes run once and forks resume the parent snapshot, yet every
    /// trial is bit-identical to its [`Evaluator::Trials`] counterpart
    /// (seeds derive from the base signature, so outcomes do not depend on
    /// which siblings share the tree). Under a budgeted source a
    /// non-cosine config resumes its own snapshot from an earlier,
    /// shorter batch instead of retraining (cosine shapes depend on the
    /// budget, so those retrain). Each trial is reported as soon as the
    /// segment it ends in has settled.
    Stages(&'a Trainer),
}

impl<'a> Evaluator<'a> {
    /// The stage tree when one is on offer and trials run full length;
    /// the per-trial objective otherwise. A trial that
    /// [`ExperimentOptions::early_stop`] cuts mid-training leaves no fork
    /// snapshot for its siblings, so early stopping selects
    /// [`Evaluator::Trials`].
    pub fn pick(
        opts: &ExperimentOptions,
        objective: Objective,
        stage: Option<&'a Trainer>,
    ) -> Evaluator<'a> {
        match stage {
            Some(stage) if opts.early_stop.is_none() => Evaluator::Stages(stage),
            _ => Evaluator::Trials(objective),
        }
    }
}

/// Everything [`HpoRunner::execute`] needs besides the source: the
/// evaluator and the three optional hooks that wrap every batch.
pub struct SweepPlan<'a> {
    /// How a batch becomes trials.
    pub evaluator: Evaluator<'a>,
    /// Admission gate consulted before every trial.
    pub control: Option<&'a SweepControl>,
    /// Journal every submission and completion.
    pub journal: Option<&'a SweepJournal>,
    /// A recovered journal: trials it finished are not re-run — their
    /// journaled outcome re-enters the report verbatim, so the trial table
    /// matches an uninterrupted run byte-for-byte — and the ones that were
    /// in flight at the crash are re-enqueued.
    pub resume: Option<&'a SweepState>,
}

impl<'a> SweepPlan<'a> {
    /// Ungated, unjournaled: just evaluate.
    pub fn new(evaluator: Evaluator<'a>) -> Self {
        SweepPlan { evaluator, control: None, journal: None, resume: None }
    }
}

/// What [`HpoRunner::execute`] returns.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Every reported trial, in batch order then input order.
    pub report: HpoReport,
    /// What [`SweepPlan::resume`] skipped and re-enqueued.
    pub resume: ResumeStats,
    /// What [`Evaluator::Stages`] shared (zero under [`Evaluator::Trials`]);
    /// also fed to the `hpo_stage_epochs_saved_total` /
    /// `hpo_prefix_forks_total` counters.
    pub stages: StageStats,
}

/// Cached handles for the per-trial series in the runtime's metrics
/// registry. Fetched once per run so the per-trial cost is a handful of
/// atomic ops, and pre-registered so every series appears in exports even
/// when it stays at zero (a run with no failures still exports the
/// failure counter).
struct TrialMetrics {
    completed: runmetrics::Counter,
    failed: runmetrics::Counter,
    /// Trials whose outcome was replayed from the sweep journal instead
    /// of re-running (see [`SweepPlan::resume`]).
    resumed: runmetrics::Counter,
    best_accuracy: runmetrics::Gauge,
    trial_task_us: runmetrics::Histogram,
}

impl TrialMetrics {
    fn new(rt: &Runtime) -> Option<Self> {
        rt.metrics_enabled().then(|| {
            let reg = rt.metrics();
            TrialMetrics {
                completed: reg.counter("hpo_trials_completed_total"),
                failed: reg.counter("hpo_trials_failed_total"),
                resumed: reg.counter("hpo_trials_resumed_total"),
                best_accuracy: reg.gauge("hpo_best_accuracy"),
                trial_task_us: reg.histogram("hpo_trial_task_us"),
            }
        })
    }

    fn observe(&self, trial: &TrialResult) {
        if trial.outcome.is_failed() {
            self.failed.incr();
        } else {
            self.completed.incr();
            self.best_accuracy.set_max(trial.outcome.accuracy);
            self.trial_task_us.record(trial.task_us);
        }
    }
}

impl HpoRunner {
    /// Build with the given experiment options.
    pub fn new(opts: ExperimentOptions) -> Self {
        HpoRunner { opts }
    }

    /// Run `source` to exhaustion (or early stop, or a halt through
    /// `plan.control`) — the one sweep loop. Per batch, in input order:
    /// a trial the recovered journal already finished is replayed, every
    /// other config passes the control gate (a denial drops it and ends
    /// the sweep after this batch drains), is journaled `Submitted` and
    /// handed to the evaluator. Then each trial, in completion order, is
    /// journaled `Finished`, counted in the trial metrics and shown to
    /// `observer` — the hook behind [`crate::dashboard::Dashboard`] — the
    /// moment it settles (a replayed trial at once). Each also goes into
    /// its admission slot: the report, and the history the source sees,
    /// keep admission order. Across-trial early stopping, decided once the
    /// batch has drained, cuts the run after the first batch containing a
    /// target-reaching trial.
    pub fn execute<S: SweepSource + ?Sized>(
        &self,
        rt: &Runtime,
        source: &mut S,
        plan: SweepPlan<'_>,
        mut observer: impl FnMut(&TrialResult),
    ) -> Result<SweepOutcome, SubmitError> {
        let SweepPlan { evaluator, control, journal, resume } = plan;
        let started_us = rt.now_us();
        let mut eval = Evaluation::start(rt, &self.opts, evaluator);
        let wave = self.opts.wave_size.unwrap_or(usize::MAX);
        let early_stop = self.opts.early_stop.as_ref();
        let trial_metrics = TrialMetrics::new(rt);
        let mut stats = ResumeStats::default();

        let mut history: Vec<TrialResult> = Vec::new();
        let mut early_stopped = false;
        let mut halted = false;
        // The evaluator gives back what it holds in the runtime whichever
        // way the loop ends, so a refused submission gets there too.
        let swept = (|| -> Result<(), SubmitError> {
            while !early_stopped && !halted {
                let (configs, budget) = source.next_batch(&history, wave);
                if configs.is_empty() {
                    break;
                }
                // The batch in admission order; an evaluated trial's slot
                // stays `None` until it settles.
                let mut slots: Vec<Option<TrialResult>> = Vec::with_capacity(configs.len());
                let mut settled = |trial: &TrialResult| {
                    if let Some(tm) = &trial_metrics {
                        tm.observe(trial);
                    }
                    observer(trial);
                };
                for config in configs {
                    let key = || journal_key(&config, budget);
                    if let Some((outcome, task_us)) = resume.and_then(|s| s.complete.get(&key())) {
                        stats.skipped_complete += 1;
                        if let Some(tm) = &trial_metrics {
                            tm.resumed.incr();
                        }
                        let trial =
                            TrialResult { config, outcome: outcome.clone(), task_us: *task_us };
                        settled(&trial);
                        slots.push(Some(trial));
                        continue;
                    }
                    // The gate may block (fair-share turn, rate-limit token).
                    // The denied config and the rest of the batch are
                    // deliberately dropped — a cancelled or quota-stopped
                    // sweep reports only complete trials.
                    if control.is_some_and(|c| !c.admit()) {
                        halted = true;
                        break;
                    }
                    if resume.is_some_and(|s| s.in_flight.contains(&key())) {
                        stats.reenqueued += 1;
                    }
                    if let Some(j) = journal {
                        let _ =
                            j.record(&SweepRecord::Submitted { key: key(), label: config.label() });
                    }
                    eval.admit(rt, &self.opts, slots.len(), config, budget)?;
                    slots.push(None);
                }
                eval.launch(rt, budget)?;
                while let Some((slot, trial)) = eval.next(rt) {
                    if let Some(j) = journal {
                        let _ = j.record(&SweepRecord::Finished {
                            key: journal_key(&trial.config, budget),
                            outcome: trial.outcome.clone(),
                            task_us: trial.task_us,
                        });
                    }
                    settled(&trial);
                    slots[slot] = Some(trial);
                }
                // The batch has drained: every slot holds its trial.
                for trial in slots.into_iter().flatten() {
                    early_stopped |=
                        early_stop.is_some_and(|es| es.target_reached(trial.outcome.accuracy));
                    history.push(trial);
                }
            }
            Ok(())
        })();
        let stages = eval.finish(rt);
        swept?;
        Ok(SweepOutcome {
            report: HpoReport {
                algorithm: source.algorithm().to_string(),
                trials: history,
                wall_us: rt.now_us() - started_us,
                early_stopped,
            },
            resume: stats,
            stages,
        })
    }

    /// Run `algo` with `objective`: [`HpoRunner::execute`] with one task
    /// per suggested config and no hooks.
    pub fn run(
        &self,
        rt: &Runtime,
        algo: &mut dyn Suggester,
        objective: Objective,
    ) -> Result<HpoReport, SubmitError> {
        self.execute(rt, algo, SweepPlan::new(Evaluator::Trials(objective)), |_| {})
            .map(|o| o.report)
    }

    /// Like [`HpoRunner::run`] but invoking `observer` after every
    /// collected trial ("for immediate and interactive action, the
    /// performance measure returned can be visualised").
    pub fn run_observed(
        &self,
        rt: &Runtime,
        algo: &mut dyn Suggester,
        objective: Objective,
        observer: impl FnMut(&TrialResult),
    ) -> Result<HpoReport, SubmitError> {
        self.execute(rt, algo, SweepPlan::new(Evaluator::Trials(objective)), observer)
            .map(|o| o.report)
    }

    /// Run the fixed list `configs` through [`Evaluator::Stages`]: with
    /// no wave cap, one stage tree across the whole sweep. The report is
    /// bit-identical to [`HpoRunner::run`] over the same configs (same
    /// trials, same order, same outcomes — see [`crate::stagetree`] for
    /// the argument).
    pub fn run_staged(
        &self,
        rt: &Runtime,
        algo_name: &str,
        configs: &[Config],
        stage: &Trainer,
        control: Option<&SweepControl>,
        observer: impl FnMut(&TrialResult),
    ) -> Result<(HpoReport, StageStats), SubmitError> {
        self.execute(
            rt,
            &mut Listed { name: algo_name, rest: configs },
            SweepPlan { control, ..SweepPlan::new(Evaluator::Stages(stage)) },
            observer,
        )
        .map(|o| (o.report, o.stages))
    }
}

/// A submitted trial, pending until [`Evaluation::next`] collects it.
struct Submitted {
    /// Its place in the batch, in admission order: where the report lists it.
    slot: usize,
    config: Config,
    /// The handle whose value is the trial's outcome: an experiment's
    /// [`TrialOutcome`], or the [`StagePayload`] of the segment it ends in.
    /// Trials that collapsed into one segment share it.
    handle: DataHandle,
}

/// An [`Evaluator`]'s state over one [`HpoRunner::execute`] call. It
/// [deletes](Runtime::delete) every handle it makes as soon as the sweep has
/// no further use for it — the runtime defers the actual drop until the
/// tasks that read it have settled, so "no further use" only ever means the
/// sweep's own — and [`Evaluation::finish`] gives back the rest.
struct Evaluation {
    def: TaskDef,
    /// Submitted trials not yet collected, in admission order: the one
    /// place a trial is collected, whichever evaluator submitted it.
    pending: Vec<Submitted>,
    /// The stage tree's state, under [`Evaluator::Stages`].
    tree: Option<Tree>,
}

/// What [`Evaluator::Stages`] holds across a sweep's batches.
struct Tree {
    /// The parent of every segment that trains from scratch.
    root: DataHandle,
    /// Admitted configs, with their slots, the batch's tree is yet to be
    /// planned over.
    admitted: Vec<(usize, Config)>,
    /// The fork snapshots of the batch being launched: on a refused
    /// submission, what is still to give back.
    batch: Vec<DataHandle>,
    /// Under a budgeted source: config label → its latest fork snapshot
    /// and the epochs that snapshot has trained. Configs that collapsed
    /// into one segment share its handle.
    snaps: HashMap<String, (DataHandle, u32)>,
    stats: StageStats,
}

/// Whether a label in `snaps` still maps to `h`.
fn keeps(snaps: &HashMap<String, (DataHandle, u32)>, h: DataHandle) -> bool {
    snaps.values().any(|&(kept, _)| kept == h)
}

/// Submit `def` over `literals` followed by `parent`. The literals are
/// the task's alone, so they are deleted on the spot: they go when the task
/// settles.
fn submit_over_literals(
    rt: &Runtime,
    def: &TaskDef,
    literals: Vec<DataHandle>,
    parent: Option<DataHandle>,
    opts: SubmitOpts,
) -> Result<DataHandle, SubmitError> {
    let args = literals.iter().copied().chain(parent).map(ArgSpec::In).collect();
    let sub = rt.submit_with(def, args, opts);
    literals.into_iter().for_each(|h| rt.delete(h));
    Ok(sub?.returns[0])
}

impl Evaluation {
    /// Build the task definition (see [`crate::wire::experiment_task_def`]
    /// and [`stage_task_def`] — shared with distributed workers, which
    /// must register the identical def by name).
    fn start(rt: &Runtime, opts: &ExperimentOptions, evaluator: Evaluator<'_>) -> Evaluation {
        let (def, tree) = match evaluator {
            Evaluator::Trials(objective) => (experiment_task_def(opts, &objective), None),
            Evaluator::Stages(stage) => {
                let tree = Tree {
                    root: rt.literal(StagePayload::root()),
                    admitted: Vec::new(),
                    batch: Vec::new(),
                    snaps: HashMap::new(),
                    stats: StageStats::default(),
                };
                (stage_task_def(opts, stage), Some(tree))
            }
        };
        Evaluation { def, pending: Vec::new(), tree }
    }

    /// Take one gated, journaled config for batch slot `slot`. An
    /// experiment is submitted right away, so it trains while the gate
    /// holds the next one back; a stage tree needs the whole batch first.
    fn admit(
        &mut self,
        rt: &Runtime,
        opts: &ExperimentOptions,
        slot: usize,
        config: Config,
        budget: Option<u32>,
    ) -> Result<(), SubmitError> {
        if let Some(tree) = &mut self.tree {
            tree.admitted.push((slot, config));
            return Ok(());
        }
        let sim_duration_us = opts.sim_duration.as_ref().map(|f| f(&config));
        let literals = vec![rt.literal(config.clone()), rt.literal(budget)];
        let opts = SubmitOpts { sim_duration_us };
        let handle = submit_over_literals(rt, &self.def, literals, None, opts)?;
        self.pending.push(Submitted { slot, config, handle });
        Ok(())
    }

    /// All of the batch is admitted: plan and submit its stage tree —
    /// every segment in topological order, a parent's return handle
    /// feeding each child's fourth argument, so the runtime's dependency
    /// graph chains the segments and (distributed) ships each fork
    /// snapshot content-addressed through the block plane — and list
    /// each trial, in admission order, as pending on the segment it ends in.
    fn launch(&mut self, rt: &Runtime, budget: Option<u32>) -> Result<(), SubmitError> {
        let Evaluation { def, pending, tree: Some(tree) } = self else { return Ok(()) };
        let Tree { root, admitted, batch, snaps, stats } = tree;
        let mut segment =
            |config: &Config, parent: Option<(DataHandle, u32)>, end: u32, total: u32| {
                let (from, start) = parent.unwrap_or((*root, 0));
                let literals = vec![rt.literal(config.clone()), rt.literal(end), rt.literal(total)];
                let opts = SubmitOpts { sim_duration_us: None };
                let h = submit_over_literals(rt, def, literals, Some(from), opts)?;
                stats.segments += 1;
                stats.forks += usize::from(parent.is_some());
                stats.staged_epochs += u64::from(end - start);
                batch.push(h);
                Ok::<DataHandle, SubmitError>(h)
            };

        // A config that continues its own snapshot from a shorter batch is
        // a single segment; the rest share one tree. Each trial is listed
        // with the epoch it ends at.
        let n = admitted.len();
        let mut trials: Vec<(Submitted, u32)> = Vec::with_capacity(n);
        let (mut fresh, mut fresh_at) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (slot, config) in admitted.drain(..) {
            let own = budget.and_then(|b| {
                let &(h, trained) = snaps.get(&config.label())?;
                (trained < b && !is_cosine(&config)).then_some((h, trained, b))
            });
            match own {
                Some((h, trained, b)) => {
                    let handle = segment(&config, Some((h, trained)), b, b)?;
                    trials.push((Submitted { slot, config, handle }, b));
                }
                None => {
                    fresh_at.push(slot);
                    fresh.push(config);
                }
            }
        }
        let plan = StagePlan::build(&fresh, budget);
        let mut handles: Vec<DataHandle> = Vec::with_capacity(plan.segments.len());
        for seg in &plan.segments {
            let parent = seg.parent.map(|p| (handles[p], seg.start));
            handles.push(segment(&seg.rep, parent, seg.end, seg.total_epochs)?);
        }
        for (seg, &handle) in plan.segments.iter().zip(&handles) {
            // Every child is submitted, so an inner segment's snapshot has
            // no reader to come: it goes when the last child has loaded it.
            if seg.trials.is_empty() {
                rt.delete(handle);
            }
            for &t in &seg.trials {
                let config = std::mem::take(&mut fresh[t]);
                trials.push((Submitted { slot: fresh_at[t], config, handle }, seg.end));
            }
        }
        // Each of the batch's snapshots is deleted or pending by now.
        batch.clear();

        trials.sort_unstable_by_key(|(trial, _)| trial.slot);
        for (trial, end) in trials {
            stats.naive_epochs += u64::from(end);
            // A budgeted source may come back to continue a trial, so its
            // snapshot is kept, in place of the shorter one it replaces;
            // that one goes once nothing keeps it and no pending trial reads it.
            if let Some(b) = budget {
                let replaced = snaps.insert(trial.config.label(), (trial.handle, b));
                if let Some((old, _)) = replaced.filter(|&(old, _)| old != trial.handle) {
                    if !keeps(snaps, old) && !pending.iter().any(|p| p.handle == old) {
                        rt.delete(old);
                    }
                }
            }
            pending.push(trial);
        }
        Ok(())
    }

    /// The next trial to settle, with its batch slot; `None` once nothing
    /// is pending. Wait for any pending handle — the one place the sweep
    /// waits on a trial — then read the first that settled, which returns
    /// at once, and decode the outcome. Task failure or an undecodable
    /// value becomes a failed trial, timed 0. Of a stage payload only the
    /// history is decoded: the weights and optimiser moments are
    /// validated, never materialised. The handle goes once no pending trial
    /// holds it and [`Tree::snaps`] does not keep it. Cost: O(p) per
    /// collected trial for p pending — the wait's pass over their handles,
    /// and this list's removal and hold check.
    fn next(&mut self, rt: &Runtime) -> Option<(usize, TrialResult)> {
        if self.pending.is_empty() {
            return None;
        }
        let handles: Vec<DataHandle> = self.pending.iter().map(|p| p.handle).collect();
        // The runner deletes no pending handle, so this never errs; if it
        // did, the read below would turn the error into a failed trial.
        let first = rt.wait_any(&handles).unwrap_or(0);
        let Submitted { slot, config, handle } = self.pending.remove(first);
        let (outcome, task_us) = match rt.wait_on_timed(&handle) {
            Ok((v, exec_us)) => {
                let outcome = v.downcast_ref::<TrialOutcome>().cloned().or_else(|| {
                    let payload = v.downcast_ref::<StagePayload>()?;
                    TrainSnapshot::decode_history(&payload.snapshot).map(outcome_from_history)
                });
                match outcome {
                    Some(outcome) => (outcome, exec_us),
                    None => (TrialOutcome::failed("trial task returned an undecodable value"), 0),
                }
            }
            Err(e) => (TrialOutcome::failed(e.to_string()), 0),
        };
        let held = self.pending.iter().any(|p| p.handle == handle)
            || self.tree.as_ref().is_some_and(|tree| keeps(&tree.snaps, handle));
        if !held {
            rt.delete(handle);
        }
        Some((slot, TrialResult { config, outcome, task_us }))
    }

    /// Give back every handle still held — submissions a refused one left
    /// uncollected, the kept snapshots, the root — and report what the run
    /// shared. A staged run publishes it onto the runtime's registry even
    /// when nothing was saved, so a sweep that shared no prefixes still
    /// exports explicit zeros.
    fn finish(self, rt: &Runtime) -> StageStats {
        self.pending.iter().for_each(|trial| rt.delete(trial.handle));
        let Some(Tree { root, batch, snaps, stats, .. }) = self.tree else {
            return StageStats::default();
        };
        let kept = snaps.values().map(|&(h, _)| h);
        batch.into_iter().chain(kept).chain([root]).for_each(|h| rt.delete(h));
        if rt.metrics_enabled() {
            let reg = rt.metrics();
            reg.counter("hpo_stage_epochs_saved_total").add(stats.epochs_saved());
            reg.counter("hpo_prefix_forks_total").add(stats.forks as u64);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::grid::GridSearch;
    use crate::algo::tpe::TpeSearch;
    use crate::early_stop::EarlyStop;
    use crate::space::ParamDomain;
    use rcompss::{RuntimeConfig, TaskError};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// A fast, deterministic synthetic objective: accuracy increases with
    /// epochs, Adam beats the others, bigger batches slightly worse.
    fn synthetic_objective() -> Objective {
        Arc::new(|config: &Config, budget: Option<u32>| {
            let epochs =
                budget.map(i64::from).or_else(|| config.get_int("num_epochs")).unwrap_or(10) as f64;
            let opt_bonus = match config.get_str("optimizer") {
                Some("Adam") => 0.15,
                Some("RMSprop") => 0.08,
                _ => 0.0,
            };
            let batch_penalty = config.get_int("batch_size").unwrap_or(64) as f64 / 4000.0;
            let acc = (0.5 + 0.003 * epochs + opt_bonus - batch_penalty).min(0.99);
            let curve: Vec<f64> = (1..=epochs as usize).map(|e| acc * e as f64 / epochs).collect();
            Ok(TrialOutcome {
                accuracy: acc,
                epochs_run: epochs as u32,
                epoch_accuracy: curve,
                epoch_loss: vec![],
                error: None,
            })
        })
    }

    #[test]
    fn grid_run_covers_all_27_configs() {
        let rt = Runtime::threaded(RuntimeConfig::single_node(8));
        let space = SearchSpace::paper_grid();
        let runner = HpoRunner::new(ExperimentOptions::default());
        let report = runner.run(&rt, &mut GridSearch::new(&space), synthetic_objective()).unwrap();
        assert_eq!(report.trials.len(), 27);
        assert_eq!(report.failures(), 0);
        let best = report.best().unwrap();
        assert_eq!(best.config.get_str("optimizer"), Some("Adam"));
        assert_eq!(best.config.get_int("num_epochs"), Some(100));
        assert_eq!(best.config.get_int("batch_size"), Some(32));
        assert_eq!(report.algorithm, "grid");
    }

    #[test]
    fn simulated_backend_runs_the_same_hpo() {
        let rt = Runtime::simulated(RuntimeConfig::single_node(8));
        let space = SearchSpace::paper_grid();
        let runner = HpoRunner::new(
            ExperimentOptions::default()
                .with_sim_duration(|c| 1_000 * c.get_int("num_epochs").unwrap_or(10) as u64),
        );
        let report = runner.run(&rt, &mut GridSearch::new(&space), synthetic_objective()).unwrap();
        assert_eq!(report.trials.len(), 27);
        // 27 tasks on 8 slots with heterogeneous durations: virtual time is
        // at least total_work/slots = (9*(20+50+100)*1000)/8
        assert!(report.wall_us >= 9 * 170 * 1000 / 8, "virtual {}", report.wall_us);
    }

    #[test]
    fn simulated_trials_take_their_virtual_duration() {
        // A trial's time is the runtime's exec time of its attempt: on the
        // simulator the virtual duration, not what the body took for real.
        let rt = Runtime::simulated(RuntimeConfig::single_node(2));
        let space = SearchSpace::new()
            .with("optimizer", ParamDomain::choice_strs(&["Adam", "SGD"]))
            .with("num_epochs", ParamDomain::choice_ints(&[1, 2]));
        let runner = HpoRunner::new(ExperimentOptions::default().with_sim_duration(|_| 7_000));
        let report = runner.run(&rt, &mut GridSearch::new(&space), synthetic_objective()).unwrap();
        let task_us: Vec<u64> = report.trials.iter().map(|t| t.task_us).collect();
        assert_eq!(task_us, [7_000; 4]);
    }

    #[test]
    fn early_stop_cuts_waves() {
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        let space = SearchSpace::paper_grid();
        let runner = HpoRunner::new(
            ExperimentOptions::default()
                .with_early_stop(EarlyStop::at_accuracy(0.55))
                // small waves so the stop can take effect
                .with_wave_size_for_tests(4),
        );
        let report = runner.run(&rt, &mut GridSearch::new(&space), synthetic_objective()).unwrap();
        assert!(report.early_stopped);
        assert!(report.trials.len() < 27, "stopped after {} trials", report.trials.len());
        assert!(report.trials.iter().any(|t| t.outcome.accuracy >= 0.55));
    }

    #[test]
    fn failing_configs_are_recorded_not_fatal() {
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        let space =
            SearchSpace::new().with("optimizer", ParamDomain::choice_strs(&["Adam", "Broken"]));
        let objective: Objective = Arc::new(|config: &Config, _| {
            if config.get_str("optimizer") == Some("Broken") {
                Err(TaskError::new("unsupported optimizer"))
            } else {
                Ok(TrialOutcome::with_accuracy(0.8))
            }
        });
        let runner = HpoRunner::new(ExperimentOptions::default());
        let report = runner.run(&rt, &mut GridSearch::new(&space), objective).unwrap();
        assert_eq!(report.trials.len(), 2);
        assert_eq!(report.failures(), 1);
        assert_eq!(report.best().unwrap().config.get_str("optimizer"), Some("Adam"));
    }

    #[test]
    fn tpe_runs_in_batches_and_improves() {
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        let space = SearchSpace::paper_grid();
        let mut tpe = TpeSearch::new(&space, 24, 5);
        let runner = HpoRunner::new(ExperimentOptions::default());
        let report = runner.run(&rt, &mut tpe, synthetic_objective()).unwrap();
        assert_eq!(report.trials.len(), 24);
        // late trials should be at least as good on average as early ones
        let avg = |ts: &[TrialResult]| {
            ts.iter().map(|t| t.outcome.accuracy).sum::<f64>() / ts.len() as f64
        };
        let early = avg(&report.trials[..8]);
        let late = avg(&report.trials[16..]);
        assert!(late >= early - 0.05, "TPE regressed: early {early:.3} late {late:.3}");
    }

    #[test]
    fn successive_halving_promotes_best_configs() {
        let rt = Runtime::threaded(RuntimeConfig::single_node(8));
        let space = SearchSpace::paper_grid();
        let runner = HpoRunner::new(ExperimentOptions::default());
        let bracket = Bracket::new(9, 5, 45, 3);
        let plan = SweepPlan::new(Evaluator::Trials(synthetic_objective()));
        let source = &mut BracketSource::new(&space, &bracket, 11);
        let report = runner.execute(&rt, source, plan, |_| {}).unwrap().report;
        // 9 at budget 5, 3 at 15, 1 at 45
        assert_eq!(report.trials.len(), 9 + 3 + 1);
        assert_eq!(report.algorithm, "successive-halving");
        // the final (largest-budget) evaluation is the overall best
        let final_trial = report.trials.last().unwrap();
        assert_eq!(final_trial.outcome.epochs_run, 45);
        let best = report.best().unwrap();
        assert_eq!(best.outcome.epochs_run, 45, "deep-budget run wins");
    }

    #[test]
    fn budget_is_passed_through_to_objective() {
        let rt = Runtime::threaded(RuntimeConfig::single_node(2));
        let space = SearchSpace::new().with("x", ParamDomain::choice_ints(&[1]));
        let seen = Arc::new(parking_lot::Mutex::new(Vec::<Option<u32>>::new()));
        let s = Arc::clone(&seen);
        let objective: Objective = Arc::new(move |_, budget| {
            s.lock().push(budget);
            Ok(TrialOutcome::with_accuracy(0.5))
        });
        let runner = HpoRunner::new(ExperimentOptions::default());
        let bracket = Bracket::new(1, 7, 7, 2);
        let plan = SweepPlan::new(Evaluator::Trials(objective.clone()));
        runner.execute(&rt, &mut BracketSource::new(&space, &bracket, 0), plan, |_| {}).unwrap();
        runner.run(&rt, &mut GridSearch::new(&space), objective).unwrap();
        let seen = seen.lock();
        assert_eq!(seen.as_slice(), &[Some(7), None]);
    }

    #[test]
    fn trial_metrics_land_in_the_runtime_registry() {
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        let space =
            SearchSpace::new().with("optimizer", ParamDomain::choice_strs(&["Adam", "Broken"]));
        let objective: Objective = Arc::new(|config: &Config, _| {
            if config.get_str("optimizer") == Some("Broken") {
                Err(TaskError::new("unsupported optimizer"))
            } else {
                Ok(TrialOutcome::with_accuracy(0.8))
            }
        });
        let runner = HpoRunner::new(ExperimentOptions::default());
        runner.run(&rt, &mut GridSearch::new(&space), objective).unwrap();
        let snap = rt.metrics().snapshot();
        assert_eq!(snap.counter("hpo_trials_completed_total"), Some(1));
        assert_eq!(snap.counter("hpo_trials_failed_total"), Some(1));
        assert_eq!(snap.gauge("hpo_best_accuracy"), Some(0.8));
        assert_eq!(snap.histogram("hpo_trial_task_us").map(|h| h.count), Some(1));
        // The runtime's own instrumentation observed the same work: the
        // failing trial burns the full retry budget before giving up.
        assert_eq!(snap.counter("hpo_trials_completed_total").unwrap(), 1);
        assert!(snap.counter("rcompss_tasks_submitted_total").unwrap() >= 2);
        assert!(snap.counter("rcompss_tasks_retried_total").unwrap() >= 1);
        assert!(snap
            .histograms
            .iter()
            .any(|(name, h)| name.starts_with("rcompss_task_latency_us") && h.count >= 1));
    }

    #[test]
    fn run_observed_streams_every_trial() {
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        let space = SearchSpace::paper_grid();
        let mut dash = crate::dashboard::Dashboard::new();
        let (mut lines, mut seen) = (Vec::new(), Vec::new());
        let runner = HpoRunner::new(ExperimentOptions::default());
        let report = runner
            .run_observed(&rt, &mut GridSearch::new(&space), synthetic_objective(), |t| {
                lines.push(dash.on_trial(t));
                seen.push(t.outcome.accuracy);
            })
            .unwrap();
        assert_eq!(lines.len(), 27);
        // Rows stream in completion order: the 27th line is the last trial
        // to settle, and by then the best is the report's.
        let best = format!(
            "[  27] acc {:.4} (best {:.4}) ",
            seen[26],
            report.best().unwrap().outcome.accuracy
        );
        assert!(lines[26].starts_with(&best), "{}", lines[26]);
        let lb = crate::dashboard::leaderboard(&report, 3);
        assert_eq!(lb.lines().count(), 4);
        assert!(lb.lines().nth(1).unwrap().contains("Adam"));
    }

    #[test]
    fn wall_time_is_the_sweeps_not_the_runtimes() {
        let rt = Runtime::threaded(RuntimeConfig::single_node(2));
        std::thread::sleep(std::time::Duration::from_millis(300));
        let space = SearchSpace::new().with("x", ParamDomain::choice_ints(&[1]));
        let instant: Objective = Arc::new(|_, _| Ok(TrialOutcome::with_accuracy(0.5)));
        let runner = HpoRunner::new(ExperimentOptions::default());
        let report = runner.run(&rt, &mut GridSearch::new(&space), instant).unwrap();
        assert!(report.wall_us < 300_000, "one instant trial took {} µs", report.wall_us);
    }

    #[test]
    fn a_staged_row_leaves_when_its_segment_settles() {
        // The 1-epoch trial ends in the root segment; its 100-epoch sibling
        // trains on in the child segment while the first row is reported.
        let rt = Runtime::threaded(RuntimeConfig::single_node(2).with_tracing(false));
        let stage = Trainer::new(Arc::new(tinyml::Dataset::synthetic_mnist(96, 3)), vec![6]);
        let space = SearchSpace::new()
            .with("optimizer", ParamDomain::choice_strs(&["Adam"]))
            .with("num_epochs", ParamDomain::choice_ints(&[1, 100]));
        let configs = materialize(&mut GridSearch::new(&space));
        let mut rows: Vec<(String, u64, u64)> = Vec::new();
        let runner = HpoRunner::new(ExperimentOptions::default());
        let (report, stages) = runner
            .run_staged(&rt, "grid", &configs, &stage, None, |t| {
                let stats = rt.stats();
                rows.push((t.config.label(), stats.completed, stats.submitted));
            })
            .unwrap();
        assert_eq!(stages.segments, 2);
        let labels: Vec<String> = report.trials.iter().map(|t| t.config.label()).collect();
        let seen: Vec<String> = rows.iter().map(|(label, ..)| label.clone()).collect();
        assert_eq!(seen, labels, "each row once, in report order");
        assert_eq!(report.trials[0].outcome.epochs_run, 1);
        let (_, completed, submitted) = rows[0];
        assert!(completed < submitted, "first row after {completed} of {submitted} segments");
    }

    #[test]
    fn a_simulated_sweep_streams_rows_in_completion_order_every_time() {
        // A trial lasts its epochs in virtual ms, and "Broken" fails for
        // good: its handle settles with a poison mark.
        let space = SearchSpace::new()
            .with("optimizer", ParamDomain::choice_strs(&["Adam", "Broken"]))
            .with("num_epochs", ParamDomain::choice_ints(&[100, 20, 50]));
        let objective: Objective =
            Arc::new(|config: &Config, _| match config.get_str("optimizer") {
                Some("Broken") => Err(TaskError::new("unsupported optimizer")),
                _ => Ok(TrialOutcome::with_accuracy(0.8)),
            });
        let sweep = || {
            let rt = Runtime::simulated(RuntimeConfig::single_node(8));
            let epochs = |c: &Config| c.get_int("num_epochs").unwrap_or(0) as u64;
            let opts = ExperimentOptions::default().with_sim_duration(move |c| 1_000 * epochs(c));
            let mut seen: Vec<String> = Vec::new();
            let report = HpoRunner::new(opts)
                .run_observed(&rt, &mut GridSearch::new(&space), objective.clone(), |t| {
                    seen.push(t.config.label());
                })
                .unwrap();
            (seen, report)
        };
        let (seen, report) = sweep();
        let labels: Vec<String> = report.trials.iter().map(|t| t.config.label()).collect();
        assert_ne!(seen, labels, "rows leave as their trials settle");
        let (mut sorted_seen, mut sorted_labels) = (seen.clone(), labels.clone());
        sorted_seen.sort();
        sorted_labels.sort();
        assert_eq!(sorted_seen, sorted_labels, "each trial once");
        assert!(seen[0].contains("num_epochs=20"), "the shortest trial leaves first: {seen:?}");
        assert_eq!(report.failures(), 3);
        let failed = report.trials.iter().filter(|t| t.outcome.is_failed());
        assert!(failed.clone().all(|t| t.config.get_str("optimizer") == Some("Broken")));
        for _ in 0..3 {
            assert_eq!(sweep().0, seen, "the same simulated run, the same rows");
        }
    }

    /// Run `sweep` on a fresh two-core threaded runtime that already holds
    /// one bystander literal, and check the sweep left the runtime as it
    /// found it: no task, no data but the bystander's.
    fn assert_gives_everything_back<T>(what: &str, sweep: impl FnOnce(&Runtime) -> T) -> T {
        let rt = Runtime::threaded(RuntimeConfig::single_node(2).with_tracing(false));
        let live = |series: &str| rt.metrics().snapshot().gauge(series).unwrap();
        let bystander = rt.literal(7u8);
        rt.delete(rt.literal(8u8)); // publishes the gauges
        assert_eq!(live("rcompss_live_data_versions"), 1.0);
        let out = sweep(&rt);
        assert_eq!(live("rcompss_live_data_versions"), 1.0, "{what}: data left behind");
        assert_eq!(live("rcompss_live_tasks"), 0.0, "{what}: tasks left behind");
        assert!(rt.wait_on(&bystander).is_ok());
        out
    }

    #[test]
    fn every_sweep_gives_back_the_handles_it_made() {
        let runner = HpoRunner::new(ExperimentOptions::default());
        let stage = Trainer::new(Arc::new(tinyml::Dataset::synthetic_mnist(96, 3)), vec![6]);
        let staged_space = |optimizers: &[&str]| {
            SearchSpace::new()
                .with("optimizer", ParamDomain::choice_strs(optimizers))
                .with("num_epochs", ParamDomain::choice_ints(&[1, 2]))
                .with("lr_decay_every", ParamDomain::choice_ints(&[0, 1]))
        };
        let execute = |rt: &Runtime, source: &mut dyn Suggester, plan: SweepPlan<'_>| {
            runner.execute(rt, source, plan, |_| {}).expect("sweep submits")
        };

        // A grid, one task per trial and as one stage tree.
        let report = assert_gives_everything_back("grid, trials", |rt| {
            let space = SearchSpace::paper_grid();
            let plan = SweepPlan::new(Evaluator::Trials(synthetic_objective()));
            execute(rt, &mut GridSearch::new(&space), plan).report
        });
        assert_eq!((report.trials.len(), report.failures()), (27, 0));
        let stages = assert_gives_everything_back("grid, stages", |rt| {
            let space = staged_space(&["Adam", "SGD"]);
            let out = execute(
                rt,
                &mut GridSearch::new(&space),
                SweepPlan::new(Evaluator::Stages(&stage)),
            );
            assert_eq!((out.report.trials.len(), out.report.failures()), (8, 0));
            out.stages
        });
        assert!(stages.forks > 0, "the tree shared prefixes: {stages:?}");

        // Staged successive halving: promoted configs continue the snapshot
        // kept from their shorter rung, the others' are given back at the end.
        let stages = assert_gives_everything_back("bracket, stages", |rt| {
            let bracket = Bracket::new(4, 1, 4, 2);
            let source = &mut BracketSource::new(&staged_space(&["Adam", "SGD"]), &bracket, 5);
            let plan = SweepPlan::new(Evaluator::Stages(&stage));
            let out = runner.execute(rt, source, plan, |_| {}).expect("bracket submits");
            assert_eq!((out.report.trials.len(), out.report.failures()), (4 + 2 + 1, 0));
            out.stages
        });
        assert!(stages.forks > 0, "promotions continued their snapshots: {stages:?}");

        // Halted by the gate in the middle of a batch, on both evaluators.
        for evaluator in [Evaluator::Trials(synthetic_objective()), Evaluator::Stages(&stage)] {
            let report = assert_gives_everything_back("halted mid-batch", |rt| {
                let admitted = std::sync::atomic::AtomicUsize::new(0);
                let control = SweepControl::new()
                    .with_gate(move || admitted.fetch_add(1, Ordering::Relaxed) < 3);
                let plan = SweepPlan { control: Some(&control), ..SweepPlan::new(evaluator) };
                execute(rt, &mut GridSearch::new(&staged_space(&["Adam", "SGD"])), plan).report
            });
            assert_eq!(report.trials.len(), 3, "the admitted trials drained");
        }
        // Staged successive halving halted in its second rung: the first
        // rung's kept snapshots and the part of the rung that was admitted
        // are both live when the sweep ends.
        let stages = assert_gives_everything_back("bracket halted mid-rung", |rt| {
            let admitted = std::sync::atomic::AtomicUsize::new(0);
            let control =
                SweepControl::new().with_gate(move || admitted.fetch_add(1, Ordering::Relaxed) < 5);
            let bracket = Bracket::new(4, 1, 4, 2);
            let source = &mut BracketSource::new(&staged_space(&["Adam", "SGD"]), &bracket, 5);
            let plan =
                SweepPlan { control: Some(&control), ..SweepPlan::new(Evaluator::Stages(&stage)) };
            let out = runner.execute(rt, source, plan, |_| {}).expect("bracket submits");
            assert_eq!(out.report.trials.len(), 4 + 1, "the admitted trials drained");
            out.stages
        });
        assert_eq!(stages.forks, 1, "the admitted promotion continued its snapshot: {stages:?}");

        // Trials that fail for good — a task's outputs stay poisoned in the
        // runtime until their handles are deleted like any other.
        let failing: Objective = Arc::new(|config: &Config, _| match config.get_str("optimizer") {
            Some("Broken") => Err(TaskError::new("unsupported optimizer")),
            _ => Ok(TrialOutcome::with_accuracy(0.8)),
        });
        for evaluator in [Evaluator::Trials(failing), Evaluator::Stages(&stage)] {
            let report = assert_gives_everything_back("failed trials", |rt| {
                let space = staged_space(&["Adam", "Broken"]);
                execute(rt, &mut GridSearch::new(&space), SweepPlan::new(evaluator)).report
            });
            assert_eq!((report.trials.len(), report.failures()), (8, 4));
        }

        // A refused submission ends the sweep with an error, not with the
        // literals and the root it had already made.
        let greedy = HpoRunner::new(
            ExperimentOptions::default().with_constraint(rcompss::Constraint::cpus(64)),
        );
        for evaluator in [Evaluator::Trials(synthetic_objective()), Evaluator::Stages(&stage)] {
            let refused = assert_gives_everything_back("refused submission", |rt| {
                let space = staged_space(&["Adam"]);
                greedy.execute(rt, &mut GridSearch::new(&space), SweepPlan::new(evaluator), |_| {})
            });
            assert!(matches!(refused, Err(SubmitError::Unsatisfiable(_))));
        }
    }

    impl ExperimentOptions {
        fn with_wave_size_for_tests(mut self, n: usize) -> Self {
            self.wave_size = Some(n);
            self
        }
    }
}
