//! A fast body runs on the worker's event loop, not on an executor, once
//! its function's latest runs were fast; a 2 ms body never does. So the
//! distributed workloads whose bodies take milliseconds never take the
//! loop's path. `worker_tasks_inline_total` is process-global, so this test
//! has a binary of its own.

use std::sync::Arc;
use std::time::Duration;

use rcompss::{
    Constraint, DistributedConfig, Runtime, RuntimeConfig, TaskDef, TaskRegistry, Value,
    WorkerConfig, WorkerServer,
};

/// Fast runs in a row before a function runs inline (`INLINE_STREAK`).
const STREAK: u64 = 8;

/// A one-core task that sleeps `ms` and returns `ms`.
fn task(name: &str, ms: u64) -> TaskDef {
    TaskDef {
        name: name.into(),
        constraint: Constraint::cpus(1),
        returns: 1,
        priority: false,
        body: Arc::new(move |_, _| {
            if ms > 0 {
                std::thread::sleep(Duration::from_millis(ms));
            }
            Ok(vec![Value::new(ms)])
        }),
        alternatives: Vec::new(),
    }
}

fn inline_runs() -> u64 {
    runmetrics::global().counter("worker_tasks_inline_total").value()
}

#[test]
fn a_fast_body_runs_inline_once_its_streak_is_reached_and_a_2ms_body_never() {
    runmetrics::global().set_enabled(true);
    let (noop, slow) = (task("noop", 0), task("slow", 2));
    let cfg = WorkerConfig { name: "w".into(), cores: 1, ..WorkerConfig::default() };
    let registry = TaskRegistry::new().with(noop.clone()).with(slow.clone());
    let worker = WorkerServer::bind("127.0.0.1:0", cfg, registry).expect("bind");
    // Preregistered: a scrape shows the series before any task ran.
    let scrape = runmetrics::global().snapshot();
    assert_eq!(scrape.counter("worker_tasks_inline_total"), Some(0));
    let worker = worker.spawn().expect("spawn");
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1).with_tracing(false),
        &[worker.addr()],
        DistributedConfig::default(),
    )
    .expect("connect");
    // One task at a time, so nothing else holds the core when one lands.
    let run = |def: &TaskDef, want: u64| {
        let h = rt.submit(def, Vec::new()).expect("submit").returns[0];
        assert_eq!(*rt.wait_on(&h).expect("task ran").downcast_ref::<u64>().unwrap(), want);
        rt.delete(h);
    };
    for _ in 0..3 * STREAK {
        run(&slow, 2);
    }
    assert_eq!(inline_runs(), 0, "a 2 ms body ran on the event loop");
    for _ in 0..STREAK {
        run(&noop, 0);
    }
    assert_eq!(inline_runs(), 0, "a body ran inline before its streak");
    for _ in 0..4 * STREAK {
        run(&noop, 0);
    }
    // A run may still find the executor holding the core it just freed.
    let inline = inline_runs();
    assert!(inline >= 2 * STREAK, "{inline} of {} no-op runs inline", 4 * STREAK);
    let stats = rt.stats();
    assert_eq!((stats.completed, stats.failed), (stats.submitted, 0));
}
