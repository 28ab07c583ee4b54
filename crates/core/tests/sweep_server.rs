//! HPO-as-a-service over loopback TCP: one in-process [`SweepServer`]
//! owning a pool of real `WorkerServer`s, driven by blocking
//! [`SweepClient`]s — multi-tenant fair share, bit-identical results,
//! clean cancellation, and admission control.

use std::sync::Arc;
use std::time::Duration;

use hpo::algo::grid::GridSearch;
use hpo::algo::random::RandomSearch;
use hpo::client::{SubmitSpec, SweepClient};
use hpo::experiment::{ExperimentOptions, Objective, TrialOutcome};
use hpo::server::{
    gather_workers, is_terminal, PoolPlan, ServerConfig, SweepServer, REJECT_BAD_REQUEST,
    REJECT_QUEUE_FULL, REJECT_QUOTA, REJECT_UNKNOWN_SWEEP, SWEEP_CANCELLED, SWEEP_DONE,
};
use hpo::space::{Config, SearchSpace};
use hpo::wire::{experiment_task_def, register_hpo_codecs};
use hpo::HpoRunner;
use rcompss::{
    DistributedConfig, Runtime, RuntimeConfig, TaskRegistry, WorkerConfig, WorkerHandle,
    WorkerServer,
};
use rnet::LeaderRow;

/// Deterministic synthetic objective: accuracy is a pure function of the
/// config, so served and standalone runs must agree bit-for-bit.
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

const SPACE_JSON: &str = r#"{
    "optimizer": ["Adam", "RMSprop", "SGD"],
    "num_epochs": [10, 20],
    "learning_rate": [0.001, 0.01]
}"#;

/// The reference space must come from the *same* JSON parse the server
/// performs — construction order feeds the samplers' determinism.
fn space() -> SearchSpace {
    SearchSpace::from_json(SPACE_JSON).expect("space json")
}

fn spawn_workers(n: usize, opts: &ExperimentOptions, obj: &Objective) -> Vec<WorkerHandle> {
    register_hpo_codecs();
    let registry = TaskRegistry::new().with(experiment_task_def(opts, obj));
    (0..n)
        .map(|i| {
            let cfg =
                WorkerConfig { name: format!("pool-w{i}"), cores: 2, ..WorkerConfig::default() };
            WorkerServer::bind("127.0.0.1:0", cfg, registry.clone())
                .expect("bind")
                .spawn()
                .expect("spawn")
        })
        .collect()
}

/// Start a sweep server over `workers` real loopback worker daemons.
fn start_server(
    workers: &[WorkerHandle],
    opts: &ExperimentOptions,
    obj: &Objective,
    cfg: ServerConfig,
) -> SweepServer {
    let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind server");
    let boots = gather_workers(&listener, &PoolPlan::dial_out(&addrs, Duration::from_secs(10)))
        .expect("gather pool");
    assert_eq!(boots.len(), workers.len());
    let rt = Runtime::from_bootstraps(
        RuntimeConfig::single_node(1).with_metrics(true),
        boots,
        DistributedConfig::default(),
    )
    .expect("build runtime");
    SweepServer::start_staged(listener, rt, Arc::clone(obj), None, opts.clone(), cfg)
        .expect("start server")
}

fn connect(server: &SweepServer, tenant: &str) -> SweepClient {
    let client = SweepClient::connect(&server.addr().to_string(), tenant).expect("connect client");
    client.set_timeout(Some(Duration::from_secs(60))).expect("timeout");
    client
}

/// Sorted `(config label, accuracy bits)` rows — the bit-identity
/// currency on both the served and the standalone side.
fn row_table(rows: &[LeaderRow]) -> Vec<(String, u64)> {
    let mut table: Vec<(String, u64)> =
        rows.iter().map(|r| (r.label.clone(), r.accuracy.to_bits())).collect();
    table.sort();
    table
}

fn report_table(report: &hpo::HpoReport) -> Vec<(String, u64)> {
    let mut table: Vec<(String, u64)> =
        report.trials.iter().map(|t| (t.config.label(), t.outcome.accuracy.to_bits())).collect();
    table.sort();
    table
}

#[test]
fn two_tenants_share_the_pool_and_match_standalone_runs() {
    let opts = ExperimentOptions::default();
    let obj = objective(Duration::from_millis(2));
    let workers = spawn_workers(2, &opts, &obj);
    // A tight token bucket (1-deep, 150 admissions/s) forces both tenants
    // through the fair-share gate's wait path while staying fast.
    let server = start_server(
        &workers,
        &opts,
        &obj,
        ServerConfig { rate: 150.0, burst: 1.0, ..ServerConfig::default() },
    );

    // Both sweeps in flight on the one shared pool before either is
    // awaited: alice runs the full grid, bob samples the same space.
    let mut alice = connect(&server, "alice");
    let mut bob = connect(&server, "bob");
    let grid_spec = SubmitSpec {
        name: "alice-grid".to_string(),
        space_json: SPACE_JSON.to_string(),
        algo: "grid".to_string(),
        trials: 0,
        seed: 0,
        wave: 0,
    };
    let random_spec = SubmitSpec {
        name: "bob-random".to_string(),
        space_json: SPACE_JSON.to_string(),
        algo: "random".to_string(),
        trials: 10,
        seed: 7,
        wave: 0,
    };
    let a = alice.submit(&grid_spec).expect("io").expect("accepted");
    let b = bob.submit(&random_spec).expect("io").expect("accepted");
    assert_ne!(a.sweep_id, b.sweep_id);
    assert_eq!(a.total, 12, "3 optimizers × 2 epochs × 2 lrs");
    assert_eq!(b.total, 10);

    let mut a_rows: Vec<LeaderRow> = Vec::new();
    let a_end = alice.wait_done(a.sweep_id, |r| a_rows.push(r.clone())).expect("alice stream");
    let mut b_rows: Vec<LeaderRow> = Vec::new();
    let b_end = bob.wait_done(b.sweep_id, |r| b_rows.push(r.clone())).expect("bob stream");
    assert_eq!(a_end.state, SWEEP_DONE, "{}", a_end.message);
    assert_eq!(b_end.state, SWEEP_DONE, "{}", b_end.message);
    assert_eq!(a_rows.len(), 12);
    assert_eq!(b_rows.len(), 10);

    // Bit-identical to standalone `hpo-run` executions of the same
    // sweeps: same options, same algorithm construction, same seed.
    let runner = HpoRunner::new(opts);
    let rt = Runtime::threaded(RuntimeConfig::single_node(4));
    let grid_ref =
        runner.run(&rt, &mut GridSearch::new(&space()), Arc::clone(&obj)).expect("grid ref");
    let random_ref = runner
        .run(&rt, &mut RandomSearch::new(&space(), 10, 7), Arc::clone(&obj))
        .expect("random ref");
    assert_eq!(row_table(&a_rows), report_table(&grid_ref), "grid sweep bit-identical");
    assert_eq!(row_table(&b_rows), report_table(&random_ref), "random sweep bit-identical");

    // The tight bucket made tenants wait: the throttle counters are live
    // both on the wire (SweepStatus) and in the metrics registry.
    let a_status = alice.status(a.sweep_id, false).expect("io").expect("known sweep");
    let b_status = bob.status(b.sweep_id, false).expect("io").expect("known sweep");
    assert!(
        a_status.throttled > 0 || b_status.throttled > 0,
        "a 1-deep token bucket must have made someone wait (alice {}, bob {})",
        a_status.throttled,
        b_status.throttled
    );
    let snap = server.metrics().snapshot();
    let throttled = |tenant: &str| {
        snap.counter(&runmetrics::labeled("hposerver_tenant_throttled_total", "tenant", tenant))
            .unwrap_or(0)
    };
    assert_eq!(
        throttled("alice"),
        a_status.throttled,
        "wire status and metrics registry agree for alice"
    );
    assert_eq!(throttled("bob"), b_status.throttled, "and for bob");
    assert!(snap.counter("hposerver_sweeps_completed_total").unwrap_or(0) >= 2);
    assert!(
        snap.histogram(&runmetrics::labeled("hposerver_trial_latency_us", "sweep", "alice-grid"))
            .map(|h| h.count)
            .unwrap_or(0)
            >= 12,
        "per-sweep latency histogram recorded every trial"
    );
    server.shutdown();
}

#[test]
fn cancel_mid_sweep_drains_cleanly_and_the_pool_is_reused() {
    let opts = ExperimentOptions::default();
    // Slow trials + 2-wide waves so the cancel lands mid-run.
    let obj = objective(Duration::from_millis(60));
    let workers = spawn_workers(2, &opts, &obj);
    let server = start_server(
        &workers,
        &opts,
        &obj,
        ServerConfig { wave: Some(2), ..ServerConfig::default() },
    );

    let mut watcher = connect(&server, "carol");
    let spec = SubmitSpec {
        name: "doomed".to_string(),
        space_json: SPACE_JSON.to_string(),
        algo: "grid".to_string(),
        trials: 0,
        seed: 0,
        wave: 0,
    };
    let info = watcher.submit(&spec).expect("io").expect("accepted");

    // Second connection cancels once the sweep is demonstrably mid-run
    // (first leaderboard row seen on the watcher).
    let first = watcher.next_frame().expect("first event");
    assert!(
        matches!(first, rnet::Frame::LeaderboardChunk { .. }),
        "expected a leaderboard row first, got {first:?}"
    );
    let mut canceller = connect(&server, "carol");
    let ack = canceller.cancel(info.sweep_id).expect("io").expect("known sweep");
    assert!(!is_terminal(ack.state), "cancel acked while still draining");

    let mut rows = 1usize; // the row consumed above
    let end = watcher.wait_done(info.sweep_id, |_| rows += 1).expect("stream to end");
    assert_eq!(end.state, SWEEP_CANCELLED);
    assert!(rows < 12, "cancel must cut the grid short, got all {rows} trials");

    // The pool survived: a subsequent sweep on the same server reuses the
    // same two workers and completes the full grid, bit-identical to a
    // standalone run — no leaked runtime state, no lost workers.
    let spec2 = SubmitSpec { name: "after".to_string(), ..spec };
    let info2 = watcher.submit(&spec2).expect("io").expect("accepted");
    let mut rows2: Vec<LeaderRow> = Vec::new();
    let end2 = watcher.wait_done(info2.sweep_id, |r| rows2.push(r.clone())).expect("stream");
    assert_eq!(end2.state, SWEEP_DONE, "{}", end2.message);
    assert_eq!(rows2.len(), 12);
    let runner = HpoRunner::new(opts);
    let rt = Runtime::threaded(RuntimeConfig::single_node(4));
    let reference =
        runner.run(&rt, &mut GridSearch::new(&space()), Arc::clone(&obj)).expect("reference");
    assert_eq!(row_table(&rows2), report_table(&reference));

    let snap = server.metrics().snapshot();
    assert_eq!(
        snap.counter("rcompss_workers_lost_total").unwrap_or(0),
        0,
        "cancellation must not cost workers"
    );
    server.shutdown();
}

#[test]
fn admission_control_quotas_and_unknown_sweeps_reject() {
    // Local threaded pool: admission logic is backend-independent.
    let opts = ExperimentOptions::default();
    let obj = objective(Duration::ZERO);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let rt = Runtime::threaded(RuntimeConfig::single_node(4).with_metrics(true));
    let server = SweepServer::start_staged(
        listener,
        rt,
        Arc::clone(&obj),
        None,
        opts,
        ServerConfig { quota_trials: 5, ..ServerConfig::default() },
    )
    .expect("start");
    let mut client = connect(&server, "dave");

    // Bad requests come back typed.
    let bad_algo = SubmitSpec {
        name: "x".to_string(),
        space_json: SPACE_JSON.to_string(),
        algo: "simulated-annealing".to_string(),
        trials: 5,
        seed: 0,
        wave: 0,
    };
    let rej = client.submit(&bad_algo).expect("io").expect_err("unknown algo rejected");
    assert_eq!(rej.code, REJECT_BAD_REQUEST);
    let bad_space = SubmitSpec {
        space_json: "{not json".to_string(),
        algo: "grid".to_string(),
        ..bad_algo.clone()
    };
    let rej = client.submit(&bad_space).expect("io").expect_err("bad space rejected");
    assert_eq!(rej.code, REJECT_BAD_REQUEST);
    let rej = client.status(999, false).expect("io").expect_err("unknown sweep");
    assert_eq!(rej.code, REJECT_UNKNOWN_SWEEP);
    let rej = client.cancel(999).expect("io").expect_err("unknown sweep");
    assert_eq!(rej.code, REJECT_UNKNOWN_SWEEP);

    // A 5-trial tenant quota halts the 12-config grid cleanly after 5
    // admissions, and further submissions are rejected outright.
    let grid = SubmitSpec {
        name: "quota-grid".to_string(),
        space_json: SPACE_JSON.to_string(),
        algo: "grid".to_string(),
        trials: 0,
        seed: 0,
        wave: 1,
    };
    let info = client.submit(&grid).expect("io").expect("accepted");
    let mut rows = 0usize;
    let end = client.wait_done(info.sweep_id, |_| rows += 1).expect("stream");
    assert_eq!(end.state, SWEEP_DONE);
    assert_eq!(rows, 5, "exactly the quota's worth of trials ran");
    assert!(end.message.contains("quota"), "quota halt is explained: {:?}", end.message);
    let rej = client.submit(&grid).expect("io").expect_err("tenant is out of quota");
    assert_eq!(rej.code, REJECT_QUOTA);

    // Queue-depth rejection: a fresh tenant fills max_queued and the next
    // submission bounces. (Zero-length queue forces it immediately.)
    drop(client);
    let listener2 = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let rt2 = Runtime::threaded(RuntimeConfig::single_node(2).with_metrics(true));
    let slow_obj = objective(Duration::from_millis(40));
    let server2 = SweepServer::start_staged(
        listener2,
        rt2,
        slow_obj,
        None,
        ExperimentOptions::default(),
        ServerConfig { max_active: 1, max_queued: 0, ..ServerConfig::default() },
    )
    .expect("start");
    let mut erin = connect(&server2, "erin");
    let running = erin.submit(&grid).expect("io").expect("first sweep admitted");
    let rej = erin.submit(&grid).expect("io").expect_err("no queue slots left");
    assert_eq!(rej.code, REJECT_QUEUE_FULL);
    let end = erin.wait_done(running.sweep_id, |_| {}).expect("stream");
    assert!(is_terminal(end.state));
    server2.shutdown();
    server.shutdown();
}

#[test]
fn staged_server_shares_prefixes_and_stays_bit_identical() {
    use hpo::experiment::tinyml_objective;
    use hpo::stagetree::{stage_task_def, StageObjective};
    use tinyml::Dataset;

    // Real tinyml training this time: prefix sharing only pays (and can
    // only be proven bit-identical) on an objective with real epochs.
    let opts = ExperimentOptions::default();
    let data = Arc::new(Dataset::synthetic_mnist(240, 11));
    let obj = tinyml_objective(Arc::clone(&data), vec![12]);
    let stage = StageObjective::new(Arc::clone(&data), vec![12]);
    let space_json = r#"{"optimizer": ["Adam", "SGD"], "num_epochs": [2, 4]}"#;

    // Pool workers register *both* task defs: naive trials and stage
    // segments, so one pool serves staged and unstaged sweeps alike.
    register_hpo_codecs();
    let registry = TaskRegistry::new()
        .with(experiment_task_def(&opts, &obj))
        .with(stage_task_def(&opts, &stage));
    let workers: Vec<WorkerHandle> = (0..2)
        .map(|i| {
            let cfg =
                WorkerConfig { name: format!("stage-w{i}"), cores: 2, ..WorkerConfig::default() };
            WorkerServer::bind("127.0.0.1:0", cfg, registry.clone())
                .expect("bind")
                .spawn()
                .expect("spawn")
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind server");
    let boots = gather_workers(&listener, &PoolPlan::dial_out(&addrs, Duration::from_secs(10)))
        .expect("gather pool");
    let rt = Runtime::from_bootstraps(
        RuntimeConfig::single_node(1).with_metrics(true),
        boots,
        DistributedConfig::default(),
    )
    .expect("build runtime");
    let server = SweepServer::start_staged(
        listener,
        rt,
        Arc::clone(&obj),
        Some(stage),
        opts.clone(),
        ServerConfig::default(),
    )
    .expect("start staged server");

    let mut client = connect(&server, "frank");
    let spec = SubmitSpec {
        name: "staged-grid".to_string(),
        space_json: space_json.to_string(),
        algo: "grid".to_string(),
        trials: 0,
        seed: 0,
        wave: 0,
    };
    let info = client.submit(&spec).expect("io").expect("accepted");
    let mut rows: Vec<LeaderRow> = Vec::new();
    let end = client.wait_done(info.sweep_id, |r| rows.push(r.clone())).expect("stream");
    assert_eq!(end.state, SWEEP_DONE, "{}", end.message);
    assert_eq!(rows.len(), 4, "every grid config reports a trial");
    assert!(
        end.message.contains("epochs saved"),
        "done message carries the stage banner: {:?}",
        end.message
    );

    // Bit-identical to the naive standalone grid over the same space.
    let runner = HpoRunner::new(opts);
    let trt = Runtime::threaded(RuntimeConfig::single_node(4));
    let space = SearchSpace::from_json(space_json).expect("space json");
    let reference = runner.run(&trt, &mut GridSearch::new(&space), obj).expect("reference");
    assert_eq!(row_table(&rows), report_table(&reference), "staged sweep bit-identical to naive");

    // The savings counters landed on the server's shared registry: the
    // epoch axis shares its prefix (2+4 → 4 epochs per optimizer).
    let snap = server.metrics().snapshot();
    assert_eq!(snap.counter("hpo_stage_epochs_saved_total"), Some(4));
    assert_eq!(snap.counter("hpo_prefix_forks_total"), Some(2));
    server.shutdown();
    for w in workers {
        w.join().ok();
    }
}
