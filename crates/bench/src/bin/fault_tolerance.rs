//! §3/§4 — fault tolerance.
//!
//! Paper: "If a task fails for whatever reason (such as node failure), the
//! runtime tries to start the same task in the same node, if it fails
//! again, its restarted in another node … The failure of task does not
//! affect the other tasks unless there are some dependencies."
//!
//! Two scenarios:
//! 1. injected *task* failures exercising the same-node-then-move policy;
//! 2. a *node* death mid-run, with every task it hosted restarted
//!    elsewhere while unaffected tasks continue.

use cluster::{Cluster, FailureInjector, NodeSpec};
use hpo_bench::{banner, fmt_min};
use paratrace::gantt::{render, GanttOptions};
use paratrace::TraceStats;
use rcompss::{Constraint, Runtime, RuntimeConfig, SubmitOpts, Value};

fn main() {
    banner("Fault tolerance", "task retries and node-failure recovery");

    // Scenario 1: task 3 fails twice (same-node retry, then move).
    println!("--- scenario 1: flaky task, default retry policy ---");
    let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(3, NodeSpec::new("n", 8, vec![], 16)))
        .with_failures(FailureInjector::none().with_task_failure(3, 1).with_task_failure(3, 2));
    let rt = Runtime::simulated(cfg);
    let work = rt.register("experiment", Constraint::cpus(8), 1, |ctx, _| {
        Ok(vec![Value::new((ctx.node, ctx.attempt))])
    });
    let outs: Vec<_> = (0..6)
        .map(|_| {
            rt.submit_with(&work, vec![], SubmitOpts { sim_duration_us: Some(60_000_000) })
                .expect("submit")
                .returns[0]
        })
        .collect();
    rt.barrier();
    for (i, h) in outs.iter().enumerate() {
        let v = rt.wait_on(h).expect("all tasks eventually succeed");
        let (node, attempt) = *v.downcast_ref::<(u32, u32)>().unwrap();
        println!("task {}: completed on node {node}, attempt {attempt}", i + 1);
    }
    let stats = rt.stats();
    println!("failed attempts: {} | permanently failed: {}", stats.failed_attempts, stats.failed);
    assert_eq!(stats.failed_attempts, 2);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.completed, 6);

    // Scenario 2: node 1 dies mid-run.
    println!("\n--- scenario 2: node failure at t=30s ---");
    let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(4, NodeSpec::new("n", 8, vec![], 16)))
        .with_failures(FailureInjector::none().with_node_failure(30_000_000, 1));
    let rt = Runtime::simulated(cfg);
    let work =
        rt.register("experiment", Constraint::cpus(8), 1, |ctx, _| Ok(vec![Value::new(ctx.node)]));
    for _ in 0..8 {
        rt.submit_with(&work, vec![], SubmitOpts { sim_duration_us: Some(60_000_000) })
            .expect("submit");
    }
    rt.barrier();
    let records = rt.trace();
    let tstats = TraceStats::compute(&records);
    println!("makespan: {}", fmt_min(tstats.makespan));
    println!(
        "tasks completed: {} | failed attempts (node kill): {}",
        rt.stats().completed,
        rt.stats().failed_attempts
    );
    println!("\ntimeline (node rows; the truncated bar on node 1 is the killed attempt):");
    print!("{}", render(&records, &GanttOptions { width: 72, per_node: true }));
    assert_eq!(rt.stats().completed, 8, "every task recovers");
    assert!(rt.stats().failed_attempts >= 1, "the kill is recorded");
    // no task may complete on the dead node after t=30s
    for r in &records {
        if let paratrace::Record::State {
            core,
            start,
            state: paratrace::StateKind::Running(_),
            ..
        } = r
        {
            assert!(!(core.node == 1 && *start >= 30_000_000), "scheduled on dead node: {r:?}");
        }
    }
    println!("\nall tasks recovered; dead node received no work after failure");
}
