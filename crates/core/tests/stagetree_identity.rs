//! The stage tree's headline guarantee, end to end: a deduped sweep —
//! grid or successive halving, threaded or distributed loopback — trains
//! strictly fewer epochs than the naive sweep yet produces a
//! **bit-identical** trial table (same configs, same order, same
//! accuracies and curves down to the last mantissa bit).
//!
//! Real `tinyml` training throughout: the whole point is that fork
//! snapshots carry enough optimiser/RNG state for a resumed child to be
//! indistinguishable from an uninterrupted run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hpo::algo::grid::GridSearch;
use hpo::algo::hyperband::Bracket;
use hpo::algo::tpe::TpeSearch;
use hpo::ckpt::CheckpointSpec;
use hpo::experiment::{tinyml_objective, ExperimentOptions};
use hpo::runner::{materialize, BracketSource, Evaluator, SweepControl, SweepOutcome, SweepPlan};
use hpo::space::{ConfigValue, ParamDomain, SearchSpace};
use hpo::stagetree::{stage_task_def, StageObjective};
use hpo::wire::{experiment_task_def, register_hpo_codecs};
use hpo::{HpoReport, HpoRunner};
use rcompss::{
    DistributedConfig, Runtime, RuntimeConfig, TaskRegistry, WorkerConfig, WorkerHandle,
    WorkerServer,
};
use tinyml::Dataset;

fn dataset() -> Arc<Dataset> {
    Arc::new(Dataset::synthetic_mnist(240, 11))
}

fn stage_objective() -> StageObjective {
    StageObjective::new(dataset(), vec![12])
}

/// A grid with every kind of late-binding divergence: the epoch axis and
/// a step-decay (every, factor) fork, per optimizer.
fn grid_space() -> SearchSpace {
    SearchSpace::new()
        .with("optimizer", ParamDomain::choice_strs(&["Adam", "SGD"]))
        .with("num_epochs", ParamDomain::choice_ints(&[2, 4]))
        .with("lr_decay_every", ParamDomain::choice_ints(&[1]))
        .with(
            "lr_decay_factor",
            ParamDomain::Choice(vec![ConfigValue::Float(0.5), ConfigValue::Float(0.25)]),
        )
}

fn sh_space() -> SearchSpace {
    SearchSpace::new()
        .with("optimizer", ParamDomain::choice_strs(&["Adam", "SGD", "RMSprop"]))
        .with("batch_size", ParamDomain::choice_ints(&[16, 32]))
}

/// One trial, bit-exact: label, accuracy bits, epochs run, per-epoch
/// accuracy and loss bits.
type ExactRow = (String, u64, u32, Vec<u64>, Vec<u64>);

/// Every bit of every trial, in report order.
fn exact_table(report: &HpoReport) -> Vec<ExactRow> {
    report
        .trials
        .iter()
        .map(|t| {
            (
                t.config.label(),
                t.outcome.accuracy.to_bits(),
                t.outcome.epochs_run,
                t.outcome.epoch_accuracy.iter().map(|a| a.to_bits()).collect(),
                t.outcome.epoch_loss.iter().map(|l| l.to_bits()).collect(),
            )
        })
        .collect()
}

fn spawn_stage_workers(n: usize, opts: &ExperimentOptions) -> Vec<WorkerHandle> {
    register_hpo_codecs();
    let objective = tinyml_objective(dataset(), vec![12]);
    let registry = TaskRegistry::new()
        .with(experiment_task_def(opts, &objective))
        .with(stage_task_def(opts, &stage_objective()));
    (0..n)
        .map(|i| {
            let cfg =
                WorkerConfig { name: format!("stage-w{i}"), cores: 2, ..WorkerConfig::default() };
            WorkerServer::bind("127.0.0.1:0", cfg, registry.clone())
                .expect("bind")
                .spawn()
                .expect("spawn")
        })
        .collect()
}

fn distributed_runtime(workers: &[WorkerHandle]) -> Runtime {
    let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
    Runtime::distributed(RuntimeConfig::single_node(1), &addrs, DistributedConfig::default())
        .expect("connect")
}

fn bracket_run(
    runner: &HpoRunner,
    rt: &Runtime,
    space: &SearchSpace,
    bracket: &Bracket,
    seed: u64,
    evaluator: Evaluator<'_>,
) -> SweepOutcome {
    runner
        .execute(
            rt,
            &mut BracketSource::new(space, bracket, seed),
            SweepPlan::new(evaluator),
            |_| {},
        )
        .expect("bracket run")
}

#[test]
fn staged_grid_is_bit_identical_to_naive_and_trains_fewer_epochs() {
    let opts = ExperimentOptions::default();
    let runner = HpoRunner::new(opts.clone());
    let space = grid_space();
    let configs = materialize(&mut GridSearch::new(&space));

    let naive = {
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        let objective = tinyml_objective(dataset(), vec![12]);
        runner.run(&rt, &mut GridSearch::new(&space), objective).expect("naive run")
    };
    let naive_epochs: u64 = naive.trials.iter().map(|t| u64::from(t.outcome.epochs_run)).sum();

    // Threaded staged run.
    let rt = Runtime::threaded(RuntimeConfig::single_node(4));
    let (staged, stats) = runner
        .run_staged(&rt, "grid", &configs, &stage_objective(), None, |_| {})
        .expect("staged run");

    assert_eq!(
        exact_table(&staged),
        exact_table(&naive),
        "staged grid must match naive bit-for-bit"
    );
    assert_eq!(staged.algorithm, naive.algorithm);
    assert_eq!(stats.naive_epochs, naive_epochs);
    assert!(
        stats.staged_epochs < stats.naive_epochs,
        "must train strictly fewer epochs: {} vs {}",
        stats.staged_epochs,
        stats.naive_epochs
    );
    assert!(stats.forks > 0, "sharing must actually fork");

    // Distributed loopback staged run: same table again, through real
    // workers and the block plane.
    let workers = spawn_stage_workers(2, &opts);
    let drt = distributed_runtime(&workers);
    let (dstaged, dstats) = runner
        .run_staged(&drt, "grid", &configs, &stage_objective(), None, |_| {})
        .expect("distributed staged run");
    assert_eq!(exact_table(&dstaged), exact_table(&naive), "distributed staged grid must match");
    assert_eq!(dstats.staged_epochs, stats.staged_epochs);
    drop(drt);
    for w in workers {
        w.join().ok();
    }
}

#[test]
fn staged_successive_halving_is_bit_identical_and_resumes_rung_snapshots() {
    let opts = ExperimentOptions::default();
    let runner = HpoRunner::new(opts.clone());
    let space = sh_space();
    let bracket = Bracket::new(4, 2, 8, 2); // rungs: 4@2, 2@4, 1@8
    let seed = 5;

    let naive = {
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        let objective = tinyml_objective(dataset(), vec![12]);
        bracket_run(&runner, &rt, &space, &bracket, seed, Evaluator::Trials(objective)).report
    };
    assert_eq!(naive.trials.len(), 4 + 2 + 1);

    let rt = Runtime::threaded(RuntimeConfig::single_node(4));
    let stage = stage_objective();
    let SweepOutcome { report: staged, stages: stats, .. } =
        bracket_run(&runner, &rt, &space, &bracket, seed, Evaluator::Stages(&stage));

    assert_eq!(
        exact_table(&staged),
        exact_table(&naive),
        "staged bracket must match naive bit-for-bit, promotion order included"
    );
    assert_eq!(stats.naive_epochs, bracket.total_epochs());
    // ASHA-resume: promoted rungs train only the budget delta, so total
    // work is at most the resumed schedule (less if rung 0 shared).
    assert!(stats.staged_epochs <= bracket.total_epochs_resumed());
    assert!(stats.staged_epochs < stats.naive_epochs);
    assert!(stats.forks >= 2, "both promotions must resume from rung snapshots");

    // Distributed loopback.
    let workers = spawn_stage_workers(2, &opts);
    let drt = distributed_runtime(&workers);
    let dstaged =
        bracket_run(&runner, &drt, &space, &bracket, seed, Evaluator::Stages(&stage)).report;
    assert_eq!(exact_table(&dstaged), exact_table(&naive), "distributed staged bracket must match");
    drop(drt);
    for w in workers {
        w.join().ok();
    }
}

/// The η=3 bracket over the paper's 27-config grid (rungs 27@2, 9@6, 3@18,
/// 1@50), counted by the runner itself. Under the rung budget configs that
/// differ only in `num_epochs` train alike, and rung 0's 27 draws (seed 7)
/// hold 9 (optimizer, batch size) pairs, so rung 0 trains 18 epochs, not
/// 54; each promotion resumes its rung snapshot for the budget delta alone.
/// 212 naive epochs come down to 18 + 36 + 36 + 32 = 122.
#[test]
fn paper_bracket_trains_122_of_its_212_epochs() {
    let runner = HpoRunner::new(ExperimentOptions::default());
    let rt = Runtime::threaded(RuntimeConfig::single_node(4));
    let stage = StageObjective::new(Arc::new(Dataset::synthetic_mnist(40, 11)), vec![4]);
    let bracket = Bracket::new(27, 2, 50, 3);
    let stats = bracket_run(
        &runner,
        &rt,
        &SearchSpace::paper_grid(),
        &bracket,
        7,
        Evaluator::Stages(&stage),
    )
    .stages;
    assert_eq!((stats.naive_epochs, stats.staged_epochs), (212, 122));
}

/// A history-driven suggester cannot be planned up front, but each of its
/// waves can: TPE under the stage evaluator proposes, trial for trial,
/// what it proposes naively, because every wave's outcomes are identical.
#[test]
fn staged_tpe_equals_naive_tpe_trial_for_trial() {
    let runner = HpoRunner::new(ExperimentOptions::default());
    let space = grid_space();
    let run = |evaluator: Evaluator<'_>| {
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        runner
            .execute(&rt, &mut TpeSearch::new(&space, 12, 3), SweepPlan::new(evaluator), |_| {})
            .expect("tpe run")
    };
    let naive = run(Evaluator::Trials(tinyml_objective(dataset(), vec![12])));
    let stage = stage_objective();
    let staged = run(Evaluator::Stages(&stage));
    assert_eq!(naive.report.trials.len(), 12);
    assert_eq!(exact_table(&staged.report), exact_table(&naive.report));
    assert_eq!(staged.report.algorithm, "tpe");
    assert!(staged.stages.segments > 0, "the stage evaluator really ran");
    assert_eq!(naive.stages.segments, 0);
}

/// A cancel lands between rungs: the rung in flight drains whole, nothing
/// is promoted, and the report holds only complete trials — on both
/// evaluators, with the observer seeing every one of them.
#[test]
fn cancelled_bracket_stops_after_the_current_rung() {
    let runner = HpoRunner::new(ExperimentOptions::default());
    let space = sh_space();
    let bracket = Bracket::new(4, 2, 8, 2); // rungs: 4@2, 2@4, 1@8
    let stage = stage_objective();
    let full = {
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        bracket_run(&runner, &rt, &space, &bracket, 5, Evaluator::Stages(&stage)).report
    };
    let evaluators =
        [Evaluator::Trials(tinyml_objective(dataset(), vec![12])), Evaluator::Stages(&stage)];
    for (i, evaluator) in evaluators.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("hpo-bracket-{i}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = CheckpointSpec::new(&dir);
        let journal = spec.journal().expect("journal");
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        let rung_seen = Arc::new(AtomicBool::new(false));
        let seen_by_gate = Arc::clone(&rung_seen);
        let control = SweepControl::new().with_gate(move || !seen_by_gate.load(Ordering::Relaxed));
        let mut seen = 0;
        let plan = SweepPlan {
            control: Some(&control),
            journal: Some(&journal),
            ..SweepPlan::new(evaluator.clone())
        };
        let report = runner
            .execute(&rt, &mut BracketSource::new(&space, &bracket, 5), plan, |_| {
                seen += 1;
                rung_seen.store(true, Ordering::Relaxed);
            })
            .expect("cancelled bracket")
            .report;
        assert_eq!(seen, 4, "the observer saw the whole first rung");
        assert_eq!(exact_table(&report), exact_table(&full)[..4], "rung 0, complete, unchanged");
        assert!(report.trials.iter().all(|t| t.outcome.epochs_run == 2 && !t.outcome.is_failed()));

        // Resumed from its journal the bracket replays rung 0 and goes on
        // to the table of the run nobody cancelled: a config's rung-0
        // record is not mistaken for its longer evaluations.
        let state = spec.recover().expect("recover");
        let plan = SweepPlan { resume: Some(&state), ..SweepPlan::new(evaluator) };
        let resumed = runner
            .execute(&rt, &mut BracketSource::new(&space, &bracket, 5), plan, |_| {})
            .expect("resumed bracket");
        assert_eq!(resumed.resume.skipped_complete, 4);
        assert_eq!(exact_table(&resumed.report), exact_table(&full));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
