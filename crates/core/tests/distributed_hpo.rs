//! Full-stack distributed HPO over loopback TCP: the same grid search the
//! threaded backend runs, executed by in-process `WorkerServer`s, must
//! produce identical per-trial accuracies and the identical best config —
//! and keep producing them when a worker is killed mid-run.

use std::sync::Arc;
use std::time::Duration;

use hpo::algo::grid::GridSearch;
use hpo::experiment::{ExperimentOptions, Objective, TrialOutcome};
use hpo::space::{Config, ConfigValue, ParamDomain, SearchSpace};
use hpo::wire::{experiment_task_def, register_hpo_codecs};
use hpo::HpoRunner;
use rcompss::{
    DistributedConfig, RetryPolicy, Runtime, RuntimeConfig, TaskRegistry, WorkerConfig,
    WorkerHandle, WorkerServer,
};

/// Deterministic synthetic objective: accuracy is a pure function of the
/// config, so threaded and distributed runs must agree bit-for-bit.
fn objective(delay: Duration) -> Objective {
    Arc::new(move |config: &Config, budget: Option<u32>| {
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let epochs =
            budget.map(i64::from).or_else(|| config.get_int("num_epochs")).unwrap_or(10) as f64;
        let opt_bonus = match config.get_str("optimizer") {
            Some("Adam") => 0.15,
            Some("RMSprop") => 0.08,
            _ => 0.0,
        };
        let lr = config.get_float("learning_rate").unwrap_or(1e-3);
        let acc = (0.5 + 0.004 * epochs + opt_bonus - (lr - 1e-3).abs()).clamp(0.0, 0.99);
        Ok(TrialOutcome::with_accuracy(acc))
    })
}

fn space() -> SearchSpace {
    SearchSpace::new()
        .with(
            "optimizer",
            ParamDomain::Choice(vec![
                ConfigValue::Str("Adam".into()),
                ConfigValue::Str("RMSprop".into()),
                ConfigValue::Str("SGD".into()),
            ]),
        )
        .with("num_epochs", ParamDomain::Choice(vec![ConfigValue::Int(10), ConfigValue::Int(20)]))
        .with(
            "learning_rate",
            ParamDomain::Choice(vec![ConfigValue::Float(1e-3), ConfigValue::Float(1e-2)]),
        )
}

fn spawn_workers(n: usize, opts: &ExperimentOptions, obj: &Objective) -> Vec<WorkerHandle> {
    register_hpo_codecs();
    let registry = TaskRegistry::new().with(experiment_task_def(opts, obj));
    (0..n)
        .map(|i| {
            let cfg =
                WorkerConfig { name: format!("hpo-w{i}"), cores: 2, ..WorkerConfig::default() };
            WorkerServer::bind("127.0.0.1:0", cfg, registry.clone())
                .expect("bind")
                .spawn()
                .expect("spawn")
        })
        .collect()
}

fn trial_table(report: &hpo::HpoReport) -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = report
        .trials
        .iter()
        .map(|t| (t.config.label(), format!("{:.6}", t.outcome.accuracy)))
        .collect();
    rows.sort();
    rows
}

#[test]
fn grid_search_distributed_matches_threaded_exactly() {
    let opts = ExperimentOptions::default();
    // Long enough that a second clock around the body would read otherwise.
    let obj = objective(Duration::from_millis(2));
    let runner = HpoRunner::new(opts.clone());

    let threaded_report = {
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        let mut algo = GridSearch::new(&space());
        let report = runner.run(&rt, &mut algo, Arc::clone(&obj)).expect("threaded run");
        assert_trial_time_is_exec_time(&rt, &report);
        report
    };

    let workers = spawn_workers(2, &opts, &obj);
    let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
    let rt =
        Runtime::distributed(RuntimeConfig::single_node(1), &addrs, DistributedConfig::default())
            .expect("connect");
    let mut algo = GridSearch::new(&space());
    let distributed_report = runner.run(&rt, &mut algo, obj).expect("distributed run");
    assert_trial_time_is_exec_time(&rt, &distributed_report);

    assert_eq!(distributed_report.trials.len(), 12, "3 optimizers × 2 epochs × 2 lrs");
    assert_eq!(trial_table(&distributed_report), trial_table(&threaded_report));
    let best_d = distributed_report.best().expect("has best");
    let best_t = threaded_report.best().expect("has best");
    assert_eq!(best_d.config.label(), best_t.config.label());
    assert_eq!(best_d.outcome.accuracy, best_t.outcome.accuracy);
}

/// One clock per trial: the report's `task_us` are the runtime's exec
/// phase samples of the attempts that produced them, to the microsecond.
fn assert_trial_time_is_exec_time(rt: &Runtime, report: &hpo::HpoReport) {
    let snap = rt.metrics().snapshot();
    let exec = snap.histogram("rcompss_task_phase_us{phase=\"exec\"}").expect("exec phase");
    let trials = snap.histogram("hpo_trial_task_us").expect("trial time");
    let report_sum: u64 = report.trials.iter().map(|t| t.task_us).sum();
    assert_eq!((report.trials.len(), exec.count, trials.count), (12, 12, 12));
    assert_eq!((report_sum, trials.sum), (exec.sum, exec.sum));
}

/// A snapshot-aware objective with deterministic "training": each epoch
/// sleeps, then extends an accuracy curve that is a pure function of the
/// config and epoch index. Snapshots (the epoch counter) ride the
/// runtime's ambient channel, each trial's task its own, exactly like
/// `Trainer::trial` — so a killed worker's trials
/// resume mid-curve on the survivor, and the final table must still be
/// bit-identical to an uninterrupted run.
fn snapshotting_objective(
    epoch_ms: u64,
    attempts: &'static std::sync::Mutex<Vec<(String, u32)>>,
) -> Objective {
    Arc::new(move |config: &Config, _budget: Option<u32>| {
        let epochs = config.get_int("num_epochs").unwrap_or(10) as u32;
        let base = match config.get_str("optimizer") {
            Some("Adam") => 0.6,
            _ => 0.5,
        };
        let acc_at = |e: u32| base + 0.01 * f64::from(e + 1);
        let start = rcompss::snapshot::load()
            .map(|b| u32::from_le_bytes(b[..4].try_into().unwrap()))
            .unwrap_or(0);
        attempts.lock().unwrap().push((config.label(), start));
        let mut curve: Vec<f64> = (0..start).map(acc_at).collect();
        for e in start..epochs {
            std::thread::sleep(Duration::from_millis(epoch_ms));
            curve.push(acc_at(e));
            rcompss::snapshot::save(&(e + 1).to_le_bytes());
        }
        Ok(TrialOutcome {
            accuracy: *curve.last().unwrap(),
            epochs_run: epochs,
            epoch_accuracy: curve,
            epoch_loss: vec![],
            error: None,
        })
    })
}

#[test]
fn killed_worker_resumes_trials_from_snapshots_bit_identically() {
    static ATTEMPTS: std::sync::Mutex<Vec<(String, u32)>> = std::sync::Mutex::new(Vec::new());

    let space = SearchSpace::new()
        .with(
            "optimizer",
            ParamDomain::Choice(vec![
                ConfigValue::Str("Adam".into()),
                ConfigValue::Str("SGD".into()),
            ]),
        )
        .with("num_epochs", ParamDomain::Choice(vec![ConfigValue::Int(12)]));
    let opts = ExperimentOptions::default();
    let obj = snapshotting_objective(40, &ATTEMPTS);
    let runner = HpoRunner::new(opts.clone());

    let reference = {
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        runner
            .run(&rt, &mut GridSearch::new(&space), Arc::clone(&obj))
            .expect("uninterrupted reference")
    };
    ATTEMPTS.lock().unwrap().clear();

    let workers = spawn_workers(2, &opts, &obj);
    let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
    let dcfg = DistributedConfig {
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(300),
        ..DistributedConfig::default()
    };
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1)
            .with_retry(RetryPolicy { max_attempts: 4, same_node_first: false }),
        &addrs,
        dcfg,
    )
    .expect("connect");

    // Kill one worker a few epochs in: its in-flight trials have
    // checkpointed (one snapshot per 40ms epoch) and must resume on the
    // survivor from where they stopped, not from epoch 0.
    let stopper = workers[0].stopper();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        stopper();
    });
    let report =
        runner.run(&rt, &mut GridSearch::new(&space), obj).expect("run survives worker loss");
    killer.join().unwrap();

    assert_eq!(report.trials.len(), 2);
    assert!(report.trials.iter().all(|t| !t.outcome.is_failed()));
    let table = |r: &hpo::HpoReport| {
        let mut rows: Vec<(String, u64, Vec<u64>)> = r
            .trials
            .iter()
            .map(|t| {
                (
                    t.config.label(),
                    t.outcome.accuracy.to_bits(),
                    t.outcome.epoch_accuracy.iter().map(|a| a.to_bits()).collect(),
                )
            })
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(table(&report), table(&reference), "resumed table bit-identical");

    let snap = rt.metrics().snapshot();
    assert_eq!(snap.counter("rcompss_workers_lost_total"), Some(1));
    assert!(snap.counter("rcompss_tasks_retried_total").unwrap_or(0) > 0);
    // Epoch-counter assertion: some retried attempt started mid-trial.
    let attempts = ATTEMPTS.lock().unwrap().clone();
    assert!(
        attempts.iter().any(|(_, start)| *start > 0),
        "a replacement attempt resumed from a snapshot, not epoch 0: {attempts:?}"
    );
}

#[test]
fn killed_worker_mid_hpo_run_completes_via_resubmission() {
    let opts = ExperimentOptions::default();
    let obj = objective(Duration::from_millis(60));
    let runner = HpoRunner::new(opts.clone());

    let workers = spawn_workers(3, &opts, &obj);
    let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
    let dcfg = DistributedConfig {
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(300),
        ..DistributedConfig::default()
    };
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1)
            .with_retry(RetryPolicy { max_attempts: 4, same_node_first: false }),
        &addrs,
        dcfg,
    )
    .expect("connect");

    // Kill one worker shortly after the first wave lands on it.
    let victim = workers[0].addr();
    let stopper = workers[0].stopper();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        stopper();
    });

    let mut algo = GridSearch::new(&space());
    let report = runner.run(&rt, &mut algo, obj).expect("run survives worker loss");
    killer.join().unwrap();

    assert_eq!(report.trials.len(), 12);
    assert!(report.trials.iter().all(|t| !t.outcome.is_failed()), "no failed trials");

    let snap = rt.metrics().snapshot();
    assert_eq!(snap.counter("rcompss_workers_lost_total"), Some(1), "lost {victim}");
    assert!(
        snap.counter("rcompss_tasks_retried_total").unwrap_or(0) > 0,
        "tasks in flight on the killed worker were resubmitted"
    );
}

#[test]
fn checkpointed_sweep_with_a_trial_failed_for_good_leaves_no_snapshot_behind() {
    // Every trial saves a snapshot per epoch; the SGD one then fails, on
    // every attempt, so it settles as failed with a snapshot on its record.
    // Nobody is left to resume it: it must go with the task.
    let sgd_starts = Arc::new(std::sync::Mutex::new(Vec::new()));
    let starts = Arc::clone(&sgd_starts);
    let objective: Objective = Arc::new(move |config: &Config, _| {
        let start = rcompss::snapshot::load().map_or(0, |b| b[0]);
        for epoch in start..start + 3 {
            rcompss::snapshot::save(&[epoch + 1; 64]);
        }
        if config.get_str("optimizer") == Some("SGD") {
            starts.lock().unwrap().push(start);
            return Err(rcompss::TaskError::new("diverged"));
        }
        Ok(TrialOutcome::with_accuracy(0.9))
    });
    let space = SearchSpace::new().with(
        "optimizer",
        ParamDomain::Choice(vec![ConfigValue::Str("Adam".into()), ConfigValue::Str("SGD".into())]),
    );
    let opts = ExperimentOptions::default();
    let runner = HpoRunner::new(opts.clone());
    let sweep = |rt: &Runtime| {
        let report = runner.run(rt, &mut GridSearch::new(&space), Arc::clone(&objective)).unwrap();
        let failed: Vec<_> = report.trials.iter().filter(|t| t.outcome.is_failed()).collect();
        assert_eq!((report.trials.len(), failed.len()), (2, 1));
        // Each retry resumed where the attempt before it stopped.
        assert_eq!(std::mem::take(&mut *sgd_starts.lock().unwrap()), [0, 3, 6]);
        let snap = rt.metrics().snapshot();
        assert_eq!(snap.gauge("rcompss_live_snapshot_bytes"), Some(0.0));
        assert_eq!(snap.gauge("rcompss_live_tasks"), Some(0.0));
    };

    sweep(&Runtime::threaded(RuntimeConfig::single_node(2)));
    let workers = spawn_workers(2, &opts, &objective);
    let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
    let config = RuntimeConfig::single_node(1);
    sweep(&Runtime::distributed(config, &addrs, DistributedConfig::default()).expect("connect"));
}
