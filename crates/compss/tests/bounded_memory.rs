//! ROADMAP item 1's criterion, in a test binary of its own so that no
//! other test's allocations show in the process's resident set: the
//! benchmark's `churn_net` cell — a literal, sixteen tasks reading it, a
//! join reading all sixteen, over two loopback workers — with the one thing
//! the benchmark's loop leaves out, the main program deleting the eighteen
//! handles it made. Run four times as long, the process must not be larger.

use std::sync::Arc;

use rcompss::{
    ArgSpec, Constraint, DataHandle, DistributedConfig, Runtime, RuntimeConfig, TaskDef,
    TaskRegistry, Value, WorkerConfig, WorkerServer,
};

const FAN_OUT: usize = 16;
const ROUNDS: usize = 1_000;

fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
    line.split_whitespace().nth(1).and_then(|kib| kib.parse().ok()).expect("VmRSS in KiB")
}

fn run_cells(rt: &Runtime, task: &TaskDef, rounds: usize) {
    let submit = |args| rt.submit(task, args).expect("submit").returns[0];
    for r in 0..rounds {
        let root = rt.literal(r as u64);
        let mut handles: Vec<DataHandle> =
            (0..FAN_OUT).map(|_| submit(vec![ArgSpec::In(root)])).collect();
        handles.push(submit(handles.iter().map(|&h| ArgSpec::In(h)).collect()));
        for h in &handles {
            rt.wait_on(h).expect("churn task");
        }
        handles.push(root);
        handles.into_iter().for_each(|h| rt.delete(h));
    }
}

#[test]
fn resident_set_does_not_grow_with_rounds_run() {
    let task = TaskDef {
        name: "churn".into(),
        constraint: Constraint::cpus(1),
        returns: 1,
        priority: false,
        body: Arc::new(|_, inputs| {
            let sum = inputs.iter().map(|v| *v.downcast_ref::<u64>().expect("u64 input"));
            Ok(vec![Value::new(sum.fold(1u64, u64::wrapping_add))])
        }),
        alternatives: Vec::new(),
    };
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let cfg = WorkerConfig { name: format!("w{i}"), cores: 1, ..WorkerConfig::default() };
            let registry = TaskRegistry::new().with(task.clone());
            WorkerServer::bind("127.0.0.1:0", cfg, registry).expect("bind").spawn().expect("spawn")
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
    // A trace is a record of every task by design; the benchmark runs
    // without one too.
    let cfg = RuntimeConfig::single_node(1).with_tracing(false);
    let rt = Runtime::distributed(cfg, &addrs, DistributedConfig::default()).expect("connect");

    run_cells(&rt, &task, ROUNDS);
    let once = rss_kib();
    run_cells(&rt, &task, 3 * ROUNDS);
    let four_times = rss_kib();
    println!("VmRSS after {ROUNDS} rounds: {once} KiB, after {}: {four_times} KiB", 4 * ROUNDS);
    assert!(
        four_times as f64 <= once as f64 * 1.10,
        "resident set grew from {once} KiB to {four_times} KiB over 3x more rounds"
    );
    let snap = rt.metrics().snapshot();
    assert_eq!(snap.gauge("rcompss_live_tasks"), Some(0.0));
    assert_eq!(snap.gauge("rcompss_live_data_versions"), Some(0.0));
    assert_eq!(rt.stats().completed, (4 * ROUNDS * (FAN_OUT + 1)) as u64);
}
