//! Stage-tree trial dedup: train shared config prefixes once, fork the
//! rest from snapshots.
//!
//! Two grid trials that differ only in *late-binding* hyperparameters —
//! total epochs, the LR-decay point — follow the **same training
//! trajectory** up to the first epoch where a differing parameter starts
//! to matter. This module exploits that: it partitions each [`Config`]
//! into an ordered *stage signature* (the params that steer training from
//! epoch 0 versus the ones that only bind later), builds a prefix tree
//! over the sweep's config set, trains each shared prefix exactly once as
//! a first-class runtime task, snapshots at every fork point via
//! [`TrainSnapshot`], and launches children that resume from the parent
//! snapshot instead of retraining.
//!
//! # The binding-epoch model
//!
//! Every recognised hyperparameter has an epoch at which it first
//! influences the trajectory:
//!
//! - `optimizer`, `batch_size`, `learning_rate`, `hidden`, `weight_decay`,
//!   `arch`, `conv*_channels` — **epoch 0**. They form the *base
//!   signature* ([`seed_label`]), which also drives the training seed.
//! - `lr_decay_every` + `lr_decay_factor` (step decay) — epoch
//!   `lr_decay_every`: [`tinyml::train::LrSchedule::lr_at`] returns the
//!   base rate for every earlier epoch, so the pair binds *jointly* at the
//!   first decay. A decay whose epoch is at or past `num_epochs` never
//!   fires and is pruned (the params are invisible).
//! - `num_epochs` — at its own value: it is the terminal event. **Except**
//!   under `lr_schedule=cosine`, where the cosine shape reads the total
//!   epoch count from epoch 0; cosine configs therefore keep `num_epochs`
//!   in their base signature and never share along the epoch axis
//!   (conservative, and exactly what bit-identity requires).
//!
//! # Bit-identity
//!
//! The headline guarantee: a deduped sweep's leaderboard is bit-identical
//! to the naive sweep's. Three facts combine to give it:
//!
//! 1. the training seed derives from the base signature (see
//!    [`crate::experiment::train_config_from`]), so every member of a
//!    shared prefix — and the naive run of each member — trains the same
//!    trajectory over the shared epochs;
//! 2. [`tinyml::train::train_segment`] chains are bit-identical to one
//!    uninterrupted run (snapshots carry weights, optimiser moments, the
//!    seed and history — the PR 5 machinery);
//! 3. non-cosine LR schedules are independent of the configured total, so
//!    a prefix trained under the representative config is exact for every
//!    member.
//!
//! Both sides train through one [`Trainer`]: a segment
//! ([`Trainer::segment`]) and the naive trial ([`Trainer::trial`]) share its
//! arch default, its config translation and its checkpoint cadence.
//!
//! Fork payloads travel through the runtime as ordinary task outputs, so
//! on the distributed backend they ride the content-addressed block plane:
//! a fork scheduled on a remote worker fetches the parent snapshot once
//! per node, by content hash, exactly like any other large value.

use std::collections::BTreeMap;
use std::sync::Arc;

use rcompss::{TaskDef, TaskError, Value};
use tinyml::TrainSnapshot;

use crate::experiment::{ExperimentOptions, Trainer};
use crate::space::Config;

/// Task name of a stage segment (both ends of a distributed run register
/// the definition under this name, like
/// [`crate::wire::EXPERIMENT_TASK_NAME`]).
pub const STAGE_TASK_NAME: &str = "graph.stage";

/// Whether `config` uses the cosine LR schedule — the one schedule whose
/// shape depends on the configured total epoch count, which forces
/// `num_epochs` into the base signature (no epoch-axis sharing).
pub fn is_cosine(config: &Config) -> bool {
    config.get_str("lr_schedule") == Some("cosine")
}

fn effective_epochs(config: &Config) -> u32 {
    config.get_int("num_epochs").unwrap_or(10).max(0) as u32
}

/// The *base signature* of a config: the `k=v` label of every parameter
/// that influences training from epoch 0, in key order. Late-binding
/// params are excluded: `num_epochs` (unless cosine — see [`is_cosine`])
/// and the step-decay pair, which either binds at its decay epoch or is
/// dead (`lr_decay_every` absent/non-positive, or at/past the trial's
/// end). Configs with equal base signatures share one training trajectory
/// over their common prefix — and one training seed.
pub fn seed_label(config: &Config) -> String {
    let cosine = is_cosine(config);
    config
        .iter()
        .filter(|(k, _)| match *k {
            "num_epochs" => cosine,
            "lr_decay_every" | "lr_decay_factor" => false,
            _ => true,
        })
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// What binds at a [`StageEvent`]'s epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A step-decay schedule starts steering the learning rate; from here
    /// on the `(every, factor)` pair shapes every later epoch. `factor`
    /// travels as raw bits so grouping is exact.
    Decay {
        /// `lr_decay_every` (== the event's epoch).
        every: u32,
        /// `lr_decay_factor` as `f32::to_bits`.
        factor_bits: u32,
    },
    /// The trial completes (its `num_epochs`, or the rung budget).
    End,
}

/// One binding event of a config's stage signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageEvent {
    /// Epoch (0-based) at which the event fires.
    pub epoch: u32,
    /// What binds there.
    pub kind: EventKind,
}

/// The epoch-ordered binding events of `config`: at most one step-decay
/// bind, then the terminal [`EventKind::End`]. `override_epochs` replaces
/// the config's own `num_epochs` (successive-halving rung budgets).
/// Events are strictly increasing and always end with `End`.
pub fn stage_events(config: &Config, override_epochs: Option<u32>) -> Vec<StageEvent> {
    let epochs = override_epochs.unwrap_or_else(|| effective_epochs(config));
    let mut events = Vec::new();
    if !is_cosine(config) {
        if let Some(every) = config.get_int("lr_decay_every") {
            if every > 0 && (every as u32) < epochs {
                let factor = config.get_float("lr_decay_factor").unwrap_or(0.5) as f32;
                events.push(StageEvent {
                    epoch: every as u32,
                    kind: EventKind::Decay { every: every as u32, factor_bits: factor.to_bits() },
                });
            }
        }
    }
    events.push(StageEvent { epoch: epochs, kind: EventKind::End });
    events
}

/// One node of the stage tree: train epochs `[start, end)` once, on
/// behalf of every member config below it. The segment resumes its
/// parent's fork snapshot (or trains from scratch at the root) and ends
/// with its own fork snapshot, which its children — and any trials that
/// terminate here — consume.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Index of this segment in [`StagePlan::segments`].
    pub id: usize,
    /// Parent segment (`None` for roots).
    pub parent: Option<usize>,
    /// Representative config the segment trains under. Any member works:
    /// all members share the base signature and every event bound so far,
    /// and non-cosine schedules ignore the configured total.
    pub rep: Config,
    /// First epoch of the segment (== parent's `end`, or 0).
    pub start: u32,
    /// One past the last epoch; the fork snapshot is taken here.
    pub end: u32,
    /// Effective total epochs for the representative (shapes the cosine
    /// schedule; inert otherwise). Always ≥ `end`.
    pub total_epochs: u32,
    /// Indices (into the planned config slice) of trials that complete at
    /// `end`, ascending — several, when duplicate trajectories collapse.
    pub trials: Vec<usize>,
}

/// A prefix tree over a sweep's config set, flattened in topological
/// order (parents before children) for submission.
#[derive(Debug, Clone, Default)]
pub struct StagePlan {
    /// Segments in submission order.
    pub segments: Vec<Segment>,
    /// Total epochs a naive sweep would train.
    pub naive_epochs: u64,
    /// Total epochs the deduped sweep trains (sum of segment lengths).
    pub staged_epochs: u64,
}

impl StagePlan {
    /// Build the stage tree over `configs`. `override_epochs` replaces
    /// every config's `num_epochs` (successive-halving rung budgets).
    pub fn build(configs: &[Config], override_epochs: Option<u32>) -> StagePlan {
        let events: Vec<Vec<StageEvent>> =
            configs.iter().map(|c| stage_events(c, override_epochs)).collect();
        let mut groups: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for (i, c) in configs.iter().enumerate() {
            groups.entry(seed_label(c)).or_default().push((i, 0));
        }
        let mut plan = StagePlan::default();
        for members in groups.into_values() {
            build_node(&mut plan.segments, configs, &events, members, 0, None);
        }
        plan.naive_epochs = events.iter().map(|e| e.last().unwrap().epoch as u64).sum();
        plan.staged_epochs = plan.segments.iter().map(|s| (s.end - s.start) as u64).sum();
        plan
    }

    /// Epochs the dedup avoids relative to the naive sweep.
    pub fn epochs_saved(&self) -> u64 {
        self.naive_epochs.saturating_sub(self.staged_epochs)
    }

    /// Number of segments that fork off a parent snapshot.
    pub fn forks(&self) -> usize {
        self.segments.iter().filter(|s| s.parent.is_some()).count()
    }
}

/// Sort key for the child groups hanging off a fork point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ForkKey {
    /// No event fires for these members at the fork epoch; they simply
    /// keep training past a sibling's divergence point.
    None,
    /// Members whose step decay binds at the fork epoch, grouped by the
    /// exact `(every, factor)` pair.
    Decay(u32, u32),
}

fn build_node(
    segments: &mut Vec<Segment>,
    configs: &[Config],
    events: &[Vec<StageEvent>],
    members: Vec<(usize, usize)>, // (config index, cursor into its events)
    start: u32,
    parent: Option<usize>,
) {
    let end = members.iter().map(|&(i, c)| events[i][c].epoch).min().expect("non-empty node");
    let rep = members[0].0;
    let id = segments.len();
    segments.push(Segment {
        id,
        parent,
        rep: configs[rep].clone(),
        start,
        end,
        total_epochs: events[rep].last().unwrap().epoch,
        trials: Vec::new(),
    });
    let mut children: BTreeMap<ForkKey, Vec<(usize, usize)>> = BTreeMap::new();
    for (i, c) in members {
        let ev = events[i][c];
        if ev.epoch > end {
            children.entry(ForkKey::None).or_default().push((i, c));
        } else {
            match ev.kind {
                EventKind::End => segments[id].trials.push(i),
                EventKind::Decay { every, factor_bits } => {
                    children
                        .entry(ForkKey::Decay(every, factor_bits))
                        .or_default()
                        .push((i, c + 1));
                }
            }
        }
    }
    for group in children.into_values() {
        build_node(segments, configs, events, group, end, Some(id));
    }
}

/// The value a stage task returns (and the root literal children of the
/// tree roots receive): an encoded [`TrainSnapshot`]. Registered on the wire as the `hpo.stage` codec, so on the
/// distributed backend fork payloads ship content-addressed through the
/// block plane like any other sizeable value.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePayload {
    /// [`TrainSnapshot::encode`] bytes; empty at the root (train from
    /// scratch).
    pub snapshot: Vec<u8>,
}

impl StagePayload {
    /// The root parent: no snapshot, children train from scratch.
    pub fn root() -> StagePayload {
        StagePayload { snapshot: Vec::new() }
    }
}

/// The stage task's name for a [`Trainer`], kept while callers outside
/// this crate still build one under it.
pub type StageObjective = Trainer;

/// The stage-segment task definition both ends of a run agree on.
///
/// Inputs: `[Config, u32 until, u32 total_epochs, StagePayload parent]`;
/// returns one [`StagePayload`] holding the fork snapshot at `until`, which
/// [`Trainer::segment`] trains. Like the experiment task, the body trains
/// under the placement's core grant.
pub fn stage_task_def(opts: &ExperimentOptions, trainer: &Trainer) -> TaskDef {
    let trainer = trainer.clone();
    TaskDef {
        name: STAGE_TASK_NAME.into(),
        constraint: opts.constraint,
        returns: 1,
        priority: false,
        body: Arc::new(move |ctx: &rcompss::TaskContext, inputs: &[Value]| {
            let config = inputs[0]
                .downcast_ref::<Config>()
                .ok_or_else(|| TaskError::new("stage input 0 must be a Config"))?;
            let until = inputs[1]
                .downcast_ref::<u32>()
                .copied()
                .ok_or_else(|| TaskError::new("stage input 1 must be u32 (until)"))?;
            let total = inputs[2]
                .downcast_ref::<u32>()
                .copied()
                .ok_or_else(|| TaskError::new("stage input 2 must be u32 (total epochs)"))?;
            let parent = inputs[3]
                .downcast_ref::<StagePayload>()
                .ok_or_else(|| TaskError::new("stage input 3 must be a StagePayload"))?;
            let parent = (!parent.snapshot.is_empty())
                .then(|| {
                    TrainSnapshot::decode(&parent.snapshot)
                        .ok_or_else(|| TaskError::new("corrupt parent stage snapshot"))
                })
                .transpose()?;
            let snap = tinyml::par::with_threads(ctx.parallelism(), || {
                trainer.segment(config, until, total, parent)
            })?;
            Ok(vec![Value::new(StagePayload { snapshot: snap.encode() })])
        }),
        alternatives: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::outcome_from_history;
    use crate::space::{ConfigValue, SearchSpace};
    use tinyml::Dataset;

    fn cfg(entries: &[(&str, ConfigValue)]) -> Config {
        let mut c = Config::new();
        for (k, v) in entries {
            c.set(k, v.clone());
        }
        c
    }

    fn int(i: i64) -> ConfigValue {
        ConfigValue::Int(i)
    }

    fn s(v: &str) -> ConfigValue {
        ConfigValue::Str(v.into())
    }

    #[test]
    fn seed_label_drops_late_binding_params() {
        let a = cfg(&[("optimizer", s("Adam")), ("num_epochs", int(20)), ("batch_size", int(32))]);
        let b = cfg(&[("optimizer", s("Adam")), ("num_epochs", int(50)), ("batch_size", int(32))]);
        assert_eq!(seed_label(&a), seed_label(&b), "epochs are late-binding");
        assert_eq!(seed_label(&a), "batch_size=32,optimizer=Adam");
        let c = cfg(&[("optimizer", s("SGD")), ("num_epochs", int(20)), ("batch_size", int(32))]);
        assert_ne!(seed_label(&a), seed_label(&c), "optimizer binds at epoch 0");
        let d = a.clone().with("lr_decay_every", int(5)).with("lr_decay_factor", int(1));
        assert_eq!(seed_label(&a), seed_label(&d), "decay pair binds at its epoch, not 0");
    }

    #[test]
    fn cosine_keeps_num_epochs_in_the_base() {
        let a = cfg(&[("lr_schedule", s("cosine")), ("num_epochs", int(20))]);
        let b = cfg(&[("lr_schedule", s("cosine")), ("num_epochs", int(50))]);
        assert!(is_cosine(&a));
        assert_ne!(seed_label(&a), seed_label(&b), "cosine shape depends on the total");
    }

    #[test]
    fn events_prune_invisible_decays() {
        let live = cfg(&[("num_epochs", int(20)), ("lr_decay_every", int(5))]);
        let ev = stage_events(&live, None);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].epoch, 5);
        assert!(matches!(ev[0].kind, EventKind::Decay { every: 5, .. }));
        assert_eq!(ev[1], StageEvent { epoch: 20, kind: EventKind::End });

        // decay at/past the end never fires
        let dead = cfg(&[("num_epochs", int(20)), ("lr_decay_every", int(20))]);
        assert_eq!(stage_events(&dead, None).len(), 1);
        // budget override can kill a decay too
        assert_eq!(stage_events(&live, Some(4)).len(), 1, "decay@5 invisible at budget 4");
        // cosine has no decay events even with the keys present
        let cos = live.clone().with("lr_schedule", s("cosine"));
        assert_eq!(stage_events(&cos, None).len(), 1);
    }

    fn grid_configs(space: &SearchSpace) -> Vec<Config> {
        let mut g = crate::algo::grid::GridSearch::new(space);
        let mut out = Vec::new();
        while let Some(c) = crate::algo::Suggester::suggest(&mut g, &[]) {
            out.push(c);
        }
        out
    }

    #[test]
    fn paper_grid_plan_shares_the_epoch_axis() {
        // 3 optimisers × 3 batch sizes = 9 chains; each chain trains 100
        // epochs instead of 20+50+100.
        let configs = grid_configs(&SearchSpace::paper_grid());
        let plan = StagePlan::build(&configs, None);
        assert_eq!(plan.segments.len(), 27, "one segment per epoch stop per chain");
        assert_eq!(plan.naive_epochs, 9 * 170);
        assert_eq!(plan.staged_epochs, 9 * 100);
        assert_eq!(plan.epochs_saved(), 9 * 70);
        assert_eq!(plan.forks(), 18, "two forks per chain");
        // every config appears exactly once as a trial
        let mut seen: Vec<usize> = plan.segments.iter().flat_map(|s| s.trials.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..27).collect::<Vec<_>>());
        // chains are well-formed: children start where parents end
        for seg in &plan.segments {
            assert!(seg.end >= seg.start);
            assert!(seg.total_epochs >= seg.end);
            if let Some(p) = seg.parent {
                assert_eq!(plan.segments[p].end, seg.start);
                assert!(p < seg.id, "topological order");
            } else {
                assert_eq!(seg.start, 0);
            }
        }
    }

    #[test]
    fn decay_factors_fork_at_the_decay_epoch() {
        let space = SearchSpace::new()
            .with("num_epochs", crate::space::ParamDomain::choice_ints(&[10]))
            .with("lr_decay_every", crate::space::ParamDomain::choice_ints(&[4]))
            .with(
                "lr_decay_factor",
                crate::space::ParamDomain::Choice(vec![
                    ConfigValue::Float(0.5),
                    ConfigValue::Float(0.25),
                ]),
            );
        let configs = grid_configs(&space);
        let plan = StagePlan::build(&configs, None);
        // shared [0,4), then one [4,10) child per factor
        assert_eq!(plan.segments.len(), 3);
        assert_eq!(plan.segments[0].end, 4);
        assert!(plan.segments[0].trials.is_empty());
        assert_eq!(plan.staged_epochs, 4 + 6 + 6);
        assert_eq!(plan.naive_epochs, 20);
    }

    #[test]
    fn cosine_configs_never_share_epochs() {
        let space = SearchSpace::new()
            .with("lr_schedule", crate::space::ParamDomain::choice_strs(&["cosine"]))
            .with("num_epochs", crate::space::ParamDomain::choice_ints(&[5, 10]));
        let plan = StagePlan::build(&grid_configs(&space), None);
        assert_eq!(plan.segments.len(), 2);
        assert!(plan.segments.iter().all(|s| s.parent.is_none()));
        assert_eq!(plan.epochs_saved(), 0);
    }

    #[test]
    fn budget_override_collapses_the_epoch_axis() {
        // A successive-halving rung evaluates everything at the same
        // budget, so configs differing only in num_epochs become duplicate
        // trajectories: one segment, two trials.
        let configs = vec![
            cfg(&[("optimizer", s("Adam")), ("num_epochs", int(20))]),
            cfg(&[("optimizer", s("Adam")), ("num_epochs", int(50))]),
        ];
        let plan = StagePlan::build(&configs, Some(3));
        assert_eq!(plan.segments.len(), 1);
        assert_eq!(plan.segments[0].trials, vec![0, 1]);
        assert_eq!(plan.naive_epochs, 6);
        assert_eq!(plan.staged_epochs, 3);
    }

    #[test]
    fn duplicate_trajectories_collapse_into_one_node() {
        // Dead decay params: invisible, so these two distinct configs
        // train identically and dedup to a single segment.
        let configs = vec![
            cfg(&[("num_epochs", int(5)), ("lr_decay_every", int(50))]),
            cfg(&[("num_epochs", int(5)), ("lr_decay_every", int(60))]),
        ];
        let plan = StagePlan::build(&configs, None);
        assert_eq!(plan.segments.len(), 1);
        assert_eq!(plan.segments[0].trials, vec![0, 1]);
        assert_eq!(plan.epochs_saved(), 5);
    }

    #[test]
    fn stage_task_def_trains_a_segment_and_forks() {
        let data = Arc::new(Dataset::synthetic_mnist(300, 5));
        let stage = Trainer::new(Arc::clone(&data), vec![16]);
        let def = stage_task_def(&ExperimentOptions::default(), &stage);
        assert_eq!(def.name.as_ref(), STAGE_TASK_NAME);
        let ctx = rcompss::TaskContext {
            task: rcompss::TaskId(1),
            attempt: 1,
            node: 0,
            cores: vec![0],
            gpus: vec![],
            peer_nodes: vec![],
        };
        let config = cfg(&[("optimizer", s("Adam")), ("num_epochs", int(4))]);
        // root segment [0,2)
        let inputs = vec![
            Value::new(config.clone()),
            Value::new(2u32),
            Value::new(4u32),
            Value::new(StagePayload::root()),
        ];
        let out = (def.body)(&ctx, &inputs).expect("segment trains");
        let fork = out[0].downcast_ref::<StagePayload>().unwrap().clone();
        let snap = TrainSnapshot::decode(&fork.snapshot).unwrap();
        assert_eq!(snap.next_epoch, 2);
        // child segment [2,4) resumes the fork; outcome equals the naive run
        let inputs =
            vec![Value::new(config.clone()), Value::new(4u32), Value::new(4u32), Value::new(fork)];
        let out = (def.body)(&ctx, &inputs).expect("child trains");
        let done = out[0].downcast_ref::<StagePayload>().unwrap();
        let staged = outcome_from_history(TrainSnapshot::decode_history(&done.snapshot).unwrap());
        let naive =
            crate::experiment::tinyml_objective(data, vec![16])(&config, None).expect("naive runs");
        assert_eq!(staged, naive, "chained segments must equal the naive trial bit-for-bit");
    }

    #[test]
    fn stage_task_rejects_bad_inputs_and_corrupt_parents() {
        let data = Arc::new(Dataset::synthetic_mnist(100, 5));
        let def = stage_task_def(&ExperimentOptions::default(), &Trainer::new(data, vec![8]));
        let ctx = rcompss::TaskContext {
            task: rcompss::TaskId(1),
            attempt: 1,
            node: 0,
            cores: vec![0],
            gpus: vec![],
            peer_nodes: vec![],
        };
        let bad = vec![Value::new(7u32), Value::new(2u32), Value::new(2u32), Value::new(0u32)];
        assert!((def.body)(&ctx, &bad).is_err());
        let corrupt = vec![
            Value::new(Config::new()),
            Value::new(2u32),
            Value::new(10u32),
            Value::new(StagePayload { snapshot: vec![1, 2, 3] }),
        ];
        let err = (def.body)(&ctx, &corrupt).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }
}
