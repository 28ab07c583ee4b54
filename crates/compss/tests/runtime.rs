//! End-to-end tests of the rcompss runtime through its public API,
//! exercising both backends.

use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use cluster::{Cluster, FailureInjector, NodeSpec};
use paratrace::TraceStats;
use rcompss::{
    wait_on_all, ArgSpec, Constraint, RetryPolicy, Runtime, RuntimeConfig, SubmitError, SubmitOpts,
    TaskError, Value, WaitError,
};

fn add_task(rt: &Runtime) -> rcompss::TaskDef {
    rt.register("add", Constraint::cpus(1), 1, |_, inputs| {
        let a: i64 = *inputs[0].downcast_ref::<i64>().unwrap();
        let b: i64 = *inputs[1].downcast_ref::<i64>().unwrap();
        Ok(vec![Value::new(a + b)])
    })
}

#[test]
fn chain_of_dependent_tasks_threaded() {
    let rt = Runtime::threaded(RuntimeConfig::single_node(4));
    let add = add_task(&rt);
    let one = rt.literal(1i64);
    let mut acc = rt.literal(0i64);
    for _ in 0..10 {
        acc = rt.submit(&add, vec![ArgSpec::In(acc), ArgSpec::In(one)]).unwrap().returns[0];
    }
    let v = rt.wait_on(&acc).unwrap();
    assert_eq!(*v.downcast_ref::<i64>().unwrap(), 10);
    let stats = rt.stats();
    assert_eq!(stats.submitted, 10);
    assert_eq!(stats.completed, 10);
    assert_eq!(stats.failed, 0);
}

#[test]
fn chain_of_dependent_tasks_simulated() {
    let rt = Runtime::simulated(RuntimeConfig::single_node(4));
    let add = add_task(&rt);
    let one = rt.literal(1i64);
    let mut acc = rt.literal(0i64);
    for _ in 0..10 {
        acc = rt
            .submit_with(
                &add,
                vec![ArgSpec::In(acc), ArgSpec::In(one)],
                SubmitOpts { sim_duration_us: Some(500) },
            )
            .unwrap()
            .returns[0];
    }
    let v = rt.wait_on(&acc).unwrap();
    assert_eq!(*v.downcast_ref::<i64>().unwrap(), 10);
    // 10 dependent tasks × 500µs must serialise: virtual time ≥ 5000.
    assert!(rt.now_us() >= 5_000, "virtual clock {}", rt.now_us());
}

#[test]
fn fan_out_fan_in_matches_sequential_result() {
    let rt = Runtime::threaded(RuntimeConfig::single_node(8));
    let square = rt.register("square", Constraint::cpus(1), 1, |_, inputs| {
        let x: i64 = *inputs[0].downcast_ref::<i64>().unwrap();
        Ok(vec![Value::new(x * x)])
    });
    let sum = rt.register("sum", Constraint::cpus(1), 1, |_, inputs| {
        let total: i64 = inputs.iter().map(|v| *v.downcast_ref::<i64>().unwrap()).sum();
        Ok(vec![Value::new(total)])
    });
    let squares: Vec<_> = (1..=10i64)
        .map(|i| {
            let h = rt.literal(i);
            rt.submit(&square, vec![ArgSpec::In(h)]).unwrap().returns[0]
        })
        .collect();
    let args: Vec<ArgSpec> = squares.iter().map(|&h| ArgSpec::In(h)).collect();
    let total = rt.submit(&sum, args).unwrap().returns[0];
    let v = rt.wait_on(&total).unwrap();
    assert_eq!(*v.downcast_ref::<i64>().unwrap(), (1..=10i64).map(|i| i * i).sum::<i64>());
}

#[test]
fn inout_parameter_versions_serialise_updates() {
    // Ten INOUT increments of the same datum must execute in submission
    // order even on many cores — the runtime's sequential-equivalence
    // guarantee ("produce the same result as if executed sequentially").
    let rt = Runtime::threaded(RuntimeConfig::single_node(8));
    let append = rt.register("append", Constraint::cpus(1), 0, |_, inputs| {
        let mut v: Vec<i64> = inputs[0].downcast_ref::<Vec<i64>>().unwrap().clone();
        let next = v.len() as i64;
        v.push(next);
        Ok(vec![Value::new(v)])
    });
    let list = rt.literal(Vec::<i64>::new());
    for _ in 0..10 {
        rt.submit(&append, vec![ArgSpec::InOut(list)]).unwrap();
    }
    let v = rt.wait_on(&list).unwrap();
    assert_eq!(v.downcast_ref::<Vec<i64>>().unwrap(), &(0..10).collect::<Vec<i64>>());
}

#[test]
fn out_parameter_writes_without_reading() {
    let rt = Runtime::threaded(RuntimeConfig::single_node(2));
    let produce = rt.register("produce", Constraint::cpus(1), 0, |_, inputs| {
        assert!(inputs.is_empty(), "OUT args are not passed as inputs");
        Ok(vec![Value::new(String::from("made"))])
    });
    let slot = rt.declare();
    rt.submit(&produce, vec![ArgSpec::Out(slot)]).unwrap();
    let v = rt.wait_on(&slot).unwrap();
    assert_eq!(v.downcast_ref::<String>().unwrap(), "made");
}

#[test]
fn reading_undeclared_data_is_a_submit_error() {
    let rt = Runtime::threaded(RuntimeConfig::single_node(2));
    let add = add_task(&rt);
    let empty = rt.declare(); // never written, no producer
    let err = rt.submit(&add, vec![ArgSpec::In(empty), ArgSpec::In(empty)]).unwrap_err();
    assert!(matches!(err, SubmitError::UnwrittenData(_)));
}

#[test]
fn foreign_handle_is_rejected() {
    let rt1 = Runtime::threaded(RuntimeConfig::single_node(1));
    let rt2 = Runtime::threaded(RuntimeConfig::single_node(1));
    let h = rt2.literal(1i64);
    // handles are opaque ids; rt1 doesn't know this one (ids collide only
    // if both runtimes created them — use a fresh id beyond rt1's range)
    let _ = h;
    let foreign = {
        // create several in rt2 so the raw id exceeds anything rt1 knows
        let mut last = rt2.literal(0i64);
        for _ in 0..5 {
            last = rt2.literal(0i64);
        }
        last
    };
    let add = add_task(&rt1);
    let err = rt1.submit(&add, vec![ArgSpec::In(foreign), ArgSpec::In(foreign)]).unwrap_err();
    assert!(matches!(err, SubmitError::UnknownData(_) | SubmitError::UnwrittenData(_)));
}

#[test]
fn unsatisfiable_constraint_rejected_at_submit() {
    let rt = Runtime::threaded(RuntimeConfig::single_node(4));
    let big = rt.register("big", Constraint::cpus(5), 1, |_, _| Ok(vec![Value::new(0u8)]));
    let err = rt.submit(&big, vec![]).unwrap_err();
    assert!(matches!(err, SubmitError::Unsatisfiable(_)));

    let gpu =
        rt.register("gpu", Constraint::cpus(1).with_gpus(1), 1, |_, _| Ok(vec![Value::new(0u8)]));
    assert!(matches!(rt.submit(&gpu, vec![]), Err(SubmitError::Unsatisfiable(_))));
}

#[test]
fn tasks_run_in_parallel_on_threaded_backend() {
    // Observe real concurrency: 4 tasks that each wait until all 4 started.
    let rt = Runtime::threaded(RuntimeConfig::single_node(4));
    let started = Arc::new(AtomicUsize::new(0));
    let s = Arc::clone(&started);
    let rendezvous = rt.register("rendezvous", Constraint::cpus(1), 1, move |_, _| {
        s.fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while s.load(Ordering::SeqCst) < 4 {
            if std::time::Instant::now() > deadline {
                return Err(TaskError::new("peers never arrived — no parallelism"));
            }
            std::thread::yield_now();
        }
        Ok(vec![Value::new(true)])
    });
    let outs: Vec<_> = (0..4).map(|_| rt.submit(&rendezvous, vec![]).unwrap().returns[0]).collect();
    let vals = wait_on_all(&rt, &outs).unwrap();
    assert_eq!(vals.len(), 4);
    assert!(vals.iter().all(|v| *v.downcast_ref::<bool>().unwrap()));
}

#[test]
fn resource_slots_bound_concurrency() {
    // 2 cores, tasks of 1 core each: concurrent executions must never
    // exceed 2. Tracked with an in-task high-water mark.
    let rt = Runtime::threaded(RuntimeConfig::single_node(2));
    let current = Arc::new(AtomicI64::new(0));
    let peak = Arc::new(AtomicI64::new(0));
    let (c, p) = (Arc::clone(&current), Arc::clone(&peak));
    let work = rt.register("work", Constraint::cpus(1), 1, move |_, _| {
        let now = c.fetch_add(1, Ordering::SeqCst) + 1;
        p.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.fetch_sub(1, Ordering::SeqCst);
        Ok(vec![Value::new(())])
    });
    for _ in 0..8 {
        rt.submit(&work, vec![]).unwrap();
    }
    rt.barrier();
    assert!(peak.load(Ordering::SeqCst) <= 2, "peak {}", peak.load(Ordering::SeqCst));
    assert!(peak.load(Ordering::SeqCst) >= 2, "should have reached the slot bound");
}

#[test]
fn affinity_core_sets_are_disjoint() {
    let rt = Runtime::threaded(RuntimeConfig::single_node(8));
    let seen = Arc::new(parking_lot_for_tests::Mutex::new(Vec::<(u32, Vec<u32>)>::new()));
    let s = Arc::clone(&seen);
    let work = rt.register("work", Constraint::cpus(2), 1, move |ctx, _| {
        assert_eq!(ctx.cores.len(), 2, "constraint grants exactly 2 cores");
        s.lock().push((ctx.node, ctx.cores.clone()));
        std::thread::sleep(std::time::Duration::from_millis(10));
        Ok(vec![Value::new(())])
    });
    for _ in 0..4 {
        rt.submit(&work, vec![]).unwrap();
    }
    rt.barrier();
    let seen = seen.lock();
    assert_eq!(seen.len(), 4);
    // cores granted to simultaneously-running tasks are disjoint; here all
    // 4 run together on 8 cores, so all 8 granted ids are distinct.
    let mut all: Vec<u32> = seen.iter().flat_map(|(_, c)| c.clone()).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), 8, "granted cores overlap: {seen:?}");
}

// tiny shim so the test above can use parking_lot without a dev-dependency
// on the crate root name
mod parking_lot_for_tests {
    pub use parking_lot::Mutex;
}

#[test]
fn failed_task_is_retried_and_recovers() {
    // Fail attempts 1 and 2 of task 1: the paper's escalation retries on
    // the same node, then elsewhere; attempt 3 succeeds. Both local
    // backends, each attempt's body taking 5 ms of real time.
    for (threaded, backend) in
        [(true, Runtime::threaded as fn(_) -> _), (false, Runtime::simulated)]
    {
        let cluster = Cluster::homogeneous(2, NodeSpec::new("n", 4, vec![], 8));
        let cfg = RuntimeConfig::on_cluster(cluster)
            .with_failures(FailureInjector::none().with_task_failure(1, 1).with_task_failure(1, 2));
        let rt: Runtime = backend(cfg);
        let nodes = Arc::new(std::sync::Mutex::new(Vec::<u32>::new()));
        let n = Arc::clone(&nodes);
        let flaky = rt.register("flaky", Constraint::cpus(1), 1, move |ctx, _| {
            n.lock().unwrap().push(ctx.node);
            std::thread::sleep(std::time::Duration::from_millis(5));
            Ok(vec![Value::new(ctx.attempt)])
        });
        let out = rt.submit(&flaky, vec![]).unwrap().returns[0];
        let v = rt.wait_on(&out).unwrap();
        assert_eq!(*v.downcast_ref::<u32>().unwrap(), 3, "succeeded on 3rd attempt");
        let nodes = nodes.lock().unwrap();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[1], nodes[0], "2nd attempt: same node");
        assert_ne!(nodes[2], nodes[0], "3rd attempt moves to the other node");
        let stats = rt.stats();
        assert_eq!(stats.failed_attempts, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);

        // Every attempt that reported back, the two failed ones included,
        // has one queue and one exec sample by the time `wait_on` returns.
        let snap = rt.metrics().snapshot();
        let phase = |p| snap.histogram(&runmetrics::labeled("rcompss_task_phase_us", "phase", p));
        let (queue, exec) = (phase("queue").unwrap(), phase("exec").unwrap());
        assert_eq!((queue.count, exec.count), (3, 3), "threaded: {threaded}");
        if threaded {
            assert!(exec.p50 >= 4_000, "exec is the 5 ms body: {exec:?}");
        } else {
            // Virtual time: each attempt runs the default 1 ms.
            assert_eq!(exec.sum, 3_000);
        }
    }
}

#[test]
fn task_error_exhausts_retries_and_poisons_dependents() {
    let cfg = RuntimeConfig::single_node(2)
        .with_retry(RetryPolicy { max_attempts: 2, same_node_first: true });
    let rt = Runtime::threaded(cfg);
    let boom = rt.register("boom", Constraint::cpus(1), 1, |_, _| {
        Err::<Vec<Value>, _>(TaskError::new("always fails"))
    });
    let double = rt.register("double", Constraint::cpus(1), 1, |_, inputs| {
        let x: i64 = *inputs[0].downcast_ref::<i64>().unwrap();
        Ok(vec![Value::new(x * 2)])
    });
    let bad = rt.submit(&boom, vec![]).unwrap().returns[0];
    let dependent = rt.submit(&double, vec![ArgSpec::In(bad)]).unwrap().returns[0];
    assert!(matches!(rt.wait_on(&bad), Err(WaitError::ProducerFailed(_))));
    assert!(matches!(rt.wait_on(&dependent), Err(WaitError::ProducerFailed(_))));
    let stats = rt.stats();
    assert_eq!(stats.failed, 2, "task + dependent both permanently failed");
    assert_eq!(rt.failed_tasks().len(), 2);
}

#[test]
fn panicking_task_is_caught_and_counted_as_failure() {
    let cfg = RuntimeConfig::single_node(2).with_retry(RetryPolicy::none());
    let rt = Runtime::threaded(cfg);
    let bad = rt.register("panics", Constraint::cpus(1), 1, |_, _| panic!("deliberate"));
    let out = rt.submit(&bad, vec![]).unwrap().returns[0];
    assert!(matches!(rt.wait_on(&out), Err(WaitError::ProducerFailed(_))));
    // and the runtime is still usable
    let add = add_task(&rt);
    let a = rt.literal(20i64);
    let b = rt.literal(22i64);
    let ok = rt.submit(&add, vec![ArgSpec::In(a), ArgSpec::In(b)]).unwrap().returns[0];
    assert_eq!(*rt.wait_on(&ok).unwrap().downcast_ref::<i64>().unwrap(), 42);
}

#[test]
fn independent_tasks_unaffected_by_failures() {
    // "The failure of task does not affect the other tasks unless there
    // are some dependencies."
    let cfg = RuntimeConfig::single_node(4)
        .with_retry(RetryPolicy::none())
        .with_failures(FailureInjector::none().with_task_failure(3, 1));
    let rt = Runtime::threaded(cfg);
    let ok = rt.register("ok", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(1i64)]));
    let outs: Vec<_> = (0..6).map(|_| rt.submit(&ok, vec![]).unwrap().returns[0]).collect();
    rt.barrier();
    let mut good = 0;
    let mut bad = 0;
    for h in &outs {
        match rt.wait_on(h) {
            Ok(_) => good += 1,
            Err(WaitError::ProducerFailed(_)) => bad += 1,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert_eq!((good, bad), (5, 1));
}

#[test]
fn simulated_node_failure_moves_tasks() {
    // Two whole-node tasks; node 0 dies mid-run; its task restarts on
    // node 1 after the surviving task finishes.
    let cluster = Cluster::homogeneous(2, NodeSpec::new("n", 4, vec![], 8));
    let cfg = RuntimeConfig::on_cluster(cluster)
        .with_failures(FailureInjector::none().with_node_failure(5_000, 0));
    let rt = Runtime::simulated(cfg);
    let work = rt.register("work", Constraint::cpus(4), 1, |ctx, _| Ok(vec![Value::new(ctx.node)]));
    let outs: Vec<_> = (0..2)
        .map(|_| {
            rt.submit_with(&work, vec![], SubmitOpts { sim_duration_us: Some(10_000) })
                .unwrap()
                .returns[0]
        })
        .collect();
    rt.barrier();
    let nodes: Vec<u32> =
        outs.iter().map(|h| *rt.wait_on(h).unwrap().downcast_ref::<u32>().unwrap()).collect();
    assert_eq!(nodes, vec![1, 1], "both ultimately completed on the surviving node");
    assert!(rt.now_us() >= 20_000, "restart serialised on one node: {}", rt.now_us());
    assert_eq!(rt.stats().failed_attempts, 1);
    // The killed attempt's four run bars stop at the kill, and nothing is
    // placed on the dead node afterwards.
    let trace = rt.trace();
    let on_dead: Vec<_> =
        trace.iter().filter(|r| r.running_task().is_some() && r.core().node == 0).collect();
    assert_eq!(on_dead.len(), 4);
    assert!(on_dead.iter().all(|r| r.end_time() == 5_000), "{on_dead:?}");
}

#[test]
fn losing_the_only_node_fails_its_task_for_good() {
    // The one node dies at 5 ms under a 10 ms task: no survivor can run the
    // retry, so the task fails rather than waiting for ever.
    let cluster = Cluster::homogeneous(1, NodeSpec::new("n", 4, vec![], 8));
    let cfg = RuntimeConfig::on_cluster(cluster)
        .with_failures(FailureInjector::none().with_node_failure(5_000, 0));
    let rt = Runtime::simulated(cfg);
    let work = rt.register("work", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(())]));
    let opts = SubmitOpts { sim_duration_us: Some(10_000) };
    let submitted = rt.submit_with(&work, vec![], opts).unwrap();
    let out = submitted.returns[0];
    assert_eq!(rt.wait_on(&out).err(), Some(WaitError::ProducerFailed(out)));
    assert_eq!(rt.failed_tasks(), vec![submitted.task]);
    let snap = rt.metrics().snapshot();
    assert_eq!(snap.gauge("rcompss_live_tasks"), Some(0.0));
    assert_eq!(snap.counter("rcompss_tasks_failed_total"), Some(1));
}

#[test]
fn sim_twenty_seven_tasks_on_reserved_node_matches_figure5_shape() {
    // Figure 5: 48-core node, worker reserves 24 cores, 27 single-core
    // tasks → 24 start at t=0, 3 wait for freed cores.
    let cfg =
        RuntimeConfig::on_cluster(Cluster::homogeneous(1, NodeSpec::marenostrum4())).reserve(0, 24);
    let rt = Runtime::simulated(cfg);
    let exp = rt.register("experiment", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(())]));
    for i in 0..27u64 {
        // heterogeneous durations like the epochs axis
        let d = 1_000 + (i % 3) * 1_000;
        rt.submit_with(&exp, vec![], SubmitOpts { sim_duration_us: Some(d) }).unwrap();
    }
    rt.barrier();
    let records = rt.trace();
    let stats = TraceStats::compute(&records);
    assert_eq!(stats.tasks_run, 27);
    assert_eq!(stats.peak_parallelism, 24, "24 free cores → 24-way parallel");
    assert_eq!(TraceStats::tasks_started_within(&records, 0), 24);
    // no task may run on a reserved core (ids 0..24)
    for r in &records {
        if r.running_task().is_some() {
            assert!(r.core().core >= 24, "task on reserved core: {r:?}");
        }
    }
}

#[test]
fn multinode_28_vs_14_nodes_matches_figure6() {
    // Figure 6: node 0 is the worker's, 27 whole-node tasks with the epochs
    // axis' three durations. 28 nodes run them all at once; 14 nodes reuse
    // the nodes short tasks free, for "almost the same" makespan.
    let run = |nodes: usize| {
        let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(nodes, NodeSpec::marenostrum4()))
            .reserve(0, 48);
        let rt = Runtime::simulated(cfg);
        let exp =
            rt.register("experiment", Constraint::cpus(48), 1, |_, _| Ok(vec![Value::new(())]));
        for i in 0..27usize {
            let d = [100, 250, 500][i % 3];
            rt.submit_with(&exp, vec![], SubmitOpts { sim_duration_us: Some(d) }).unwrap();
        }
        rt.barrier();
        let stats = rt.stats();
        assert_eq!(stats.completed, 27);
        (stats.makespan_us, TraceStats::tasks_started_within(&rt.trace(), 0))
    };
    let (m28, immediate28) = run(28);
    assert_eq!(immediate28, 27);
    assert_eq!(m28, 500, "bounded by the longest task");
    let (m14, immediate14) = run(14);
    assert_eq!(immediate14, 13, "13 free nodes host the first wave");
    assert!(m28 <= m14 && m14 < 2 * m28, "14-node run within 2x: {m14} vs {m28}");
}

#[test]
fn sim_is_deterministic() {
    let run = || {
        let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(3, NodeSpec::marenostrum4()))
            .with_failures(FailureInjector::random(7, 0.1));
        let rt = Runtime::simulated(cfg);
        let t = rt.register("t", Constraint::cpus(8), 1, |_, _| Ok(vec![Value::new(())]));
        for i in 0..40u64 {
            rt.submit_with(&t, vec![], SubmitOpts { sim_duration_us: Some(100 + i * 17) }).unwrap();
        }
        rt.barrier();
        (rt.now_us(), rt.stats(), rt.trace().len())
    };
    assert_eq!(run(), run());
}

#[test]
fn trace_disabled_by_flag() {
    let cfg = RuntimeConfig::single_node(2).with_tracing(false);
    let rt = Runtime::threaded(cfg);
    assert!(!rt.tracing_enabled());
    let t = rt.register("t", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(())]));
    rt.submit(&t, vec![]).unwrap();
    rt.barrier();
    assert!(rt.trace().is_empty());
}

#[test]
fn dot_export_shows_hpo_application_structure() {
    // The paper's Figure 3 graph: experiments → per-experiment
    // visualisation → final plot, with dNvM edge labels and a sync node.
    let mut cfg = RuntimeConfig::single_node(8);
    cfg.graph = true;
    let rt = Runtime::simulated(cfg);
    let experiment = rt
        .register("graph.experiment", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(0.9f64)]));
    let visualisation = rt.register("graph.visualisation", Constraint::cpus(1), 1, |_, inputs| {
        Ok(vec![inputs[0].clone()])
    });
    let plot = rt.register("graph.plot", Constraint::cpus(1), 1, |_, inputs| {
        Ok(vec![Value::new(inputs.len())])
    });
    let mut vis_outs = Vec::new();
    for _ in 0..10 {
        let e = rt.submit(&experiment, vec![]).unwrap().returns[0];
        let v = rt.submit(&visualisation, vec![ArgSpec::In(e)]).unwrap().returns[0];
        vis_outs.push(v);
    }
    let args: Vec<ArgSpec> = vis_outs.iter().map(|&h| ArgSpec::In(h)).collect();
    let p = rt.submit(&plot, args).unwrap().returns[0];
    let n = rt.wait_on(&p).unwrap();
    assert_eq!(*n.downcast_ref::<usize>().unwrap(), 10);
    let dot = rt.dot();
    assert!(dot.contains("graph.experiment"));
    assert!(dot.contains("graph.visualisation"));
    assert!(dot.contains("graph.plot"));
    assert!(dot.contains("sync"));
    assert!(dot.contains("v1"), "versioned edge labels present: {dot}");
}

#[test]
fn barrier_on_empty_runtime_returns_immediately() {
    let rt = Runtime::threaded(RuntimeConfig::single_node(1));
    rt.barrier();
    let rt2 = Runtime::simulated(RuntimeConfig::single_node(1));
    rt2.barrier();
    assert_eq!(rt2.now_us(), 0);
}

#[test]
fn gpu_constraint_grants_gpu_ids_in_sim() {
    let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(1, NodeSpec::cte_power9()));
    let rt = Runtime::simulated(cfg);
    let train = rt.register("train", Constraint::cpus(10).with_gpus(1), 1, |ctx, _| {
        Ok(vec![Value::new(ctx.gpus.clone())])
    });
    let outs: Vec<_> = (0..6)
        .map(|_| {
            rt.submit_with(&train, vec![], SubmitOpts { sim_duration_us: Some(1_000) })
                .unwrap()
                .returns[0]
        })
        .collect();
    rt.barrier();
    for h in &outs {
        let gpus = rt.wait_on(h).unwrap();
        assert_eq!(gpus.downcast_ref::<Vec<u32>>().unwrap().len(), 1);
    }
    // only 4 GPUs → 6 tasks need two waves of ≤4
    assert!(rt.now_us() >= 2_000);
}

#[test]
fn wait_on_literal_returns_without_tasks() {
    let rt = Runtime::threaded(RuntimeConfig::single_node(1));
    let h = rt.literal(String::from("direct"));
    assert_eq!(rt.wait_on(&h).unwrap().downcast_ref::<String>().unwrap(), "direct");
}

#[test]
fn implement_decorator_picks_feasible_variant() {
    // Primary implementation wants a GPU; the @implement alternative is
    // CPU-only. On a GPU node the primary runs; once GPUs are exhausted the
    // scheduler falls back to the alternative — "the most appropriate task
    // considering the resources".
    let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(1, NodeSpec::cte_power9()));
    let rt = Runtime::simulated(cfg);
    let train = rt
        .register("train", Constraint::cpus(4).with_gpus(1), 1, |ctx, _| {
            Ok(vec![Value::new(format!("gpu:{}", ctx.gpus.len()))])
        })
        .with_implementation(Constraint::cpus(4), |ctx, _| {
            Ok(vec![Value::new(format!("cpu:{}", ctx.gpus.len()))])
        });
    let outs: Vec<_> = (0..8)
        .map(|_| {
            rt.submit_with(&train, vec![], SubmitOpts { sim_duration_us: Some(1_000) })
                .unwrap()
                .returns[0]
        })
        .collect();
    rt.barrier();
    let kinds: Vec<String> = outs
        .iter()
        .map(|h| rt.wait_on(h).unwrap().downcast_ref::<String>().unwrap().clone())
        .collect();
    let gpu_runs = kinds.iter().filter(|k| k.as_str() == "gpu:1").count();
    let cpu_runs = kinds.iter().filter(|k| k.as_str() == "cpu:0").count();
    assert_eq!(gpu_runs, 4, "4 GPUs → 4 tasks on the GPU implementation: {kinds:?}");
    assert_eq!(cpu_runs, 4, "overflow falls back to the CPU implementation");
    // everything ran in one wave: enough CPU cores for all 8
    assert!(rt.now_us() <= 1_100, "one parallel wave, took {}", rt.now_us());
}

#[test]
fn implement_makes_otherwise_unsatisfiable_task_admissible() {
    // Primary wants a GPU on a CPU-only cluster: alone it would be
    // rejected at submission; an alternative CPU implementation makes it
    // admissible and is the one that runs.
    let rt = Runtime::threaded(RuntimeConfig::single_node(4));
    let gpu_only =
        rt.register("t", Constraint::cpus(1).with_gpus(1), 1, |_, _| Ok(vec![Value::new("gpu")]));
    assert!(matches!(rt.submit(&gpu_only, vec![]), Err(SubmitError::Unsatisfiable(_))));

    let with_fallback =
        gpu_only.with_implementation(Constraint::cpus(1), |_, _| Ok(vec![Value::new("cpu")]));
    let out = rt.submit(&with_fallback, vec![]).unwrap().returns[0];
    let v = rt.wait_on(&out).unwrap();
    assert_eq!(*v.downcast_ref::<&str>().unwrap(), "cpu");
}

#[test]
fn implement_variants_retry_like_the_primary() {
    // Failures of whichever implementation ran still follow the retry
    // policy.
    let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(2, NodeSpec::new("n", 2, vec![], 8)))
        .with_failures(FailureInjector::none().with_task_failure(1, 1));
    let rt = Runtime::simulated(cfg);
    let t = rt
        .register("t", Constraint::cpus(2), 1, |ctx, _| Ok(vec![Value::new(ctx.attempt)]))
        .with_implementation(Constraint::cpus(1), |ctx, _| Ok(vec![Value::new(ctx.attempt)]));
    let out =
        rt.submit_with(&t, vec![], SubmitOpts { sim_duration_us: Some(100) }).unwrap().returns[0];
    let v = rt.wait_on(&out).unwrap();
    assert_eq!(*v.downcast_ref::<u32>().unwrap(), 2, "second attempt succeeded");
    assert_eq!(rt.stats().failed_attempts, 1);
}

#[test]
fn multinode_task_spans_nodes_and_blocks_them() {
    // @multinode: one task takes 2 whole 8-core nodes; a second such task
    // must wait on a 3-node cluster.
    let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(3, NodeSpec::new("n", 8, vec![], 16)));
    let rt = Runtime::simulated(cfg);
    let mpi = rt.register("mpi_train", Constraint::multinode(2, 8), 1, |ctx, _| {
        assert_eq!(ctx.cores.len(), 8, "8 cores on the primary node");
        assert_eq!(ctx.peer_nodes.len(), 1, "one peer node");
        Ok(vec![Value::new((ctx.node, ctx.peer_nodes.clone()))])
    });
    let outs: Vec<_> = (0..2)
        .map(|_| {
            rt.submit_with(&mpi, vec![], SubmitOpts { sim_duration_us: Some(1_000) })
                .unwrap()
                .returns[0]
        })
        .collect();
    rt.barrier();
    for h in &outs {
        let v = rt.wait_on(h).unwrap();
        let (node, peers) = v.downcast_ref::<(u32, Vec<u32>)>().unwrap();
        assert!(!peers.contains(node), "peer differs from primary");
    }
    // 3 nodes, each task needs 2 ⇒ the tasks serialise: makespan ≥ 2ms.
    assert!(rt.now_us() >= 2_000, "multinode tasks serialised: {}", rt.now_us());
    // trace shows both nodes of each allocation busy
    let stats = TraceStats::compute(&rt.trace());
    assert_eq!(stats.tasks_run, 2);
    assert_eq!(stats.peak_busy_cores, 16, "2 nodes × 8 cores");
    assert_eq!(stats.peak_parallelism, 1, "one task instance at a time");
}

#[test]
fn multinode_unsatisfiable_when_too_few_nodes() {
    let rt = Runtime::simulated(RuntimeConfig::on_cluster(Cluster::homogeneous(
        2,
        NodeSpec::new("n", 4, vec![], 8),
    )));
    let mpi = rt.register("mpi", Constraint::multinode(3, 4), 1, |_, _| Ok(vec![Value::new(())]));
    assert!(matches!(rt.submit(&mpi, vec![]), Err(SubmitError::Unsatisfiable(_))));
    // 2 nodes is fine
    let ok = rt.register("mpi2", Constraint::multinode(2, 4), 1, |_, _| Ok(vec![Value::new(())]));
    assert!(rt.submit(&ok, vec![]).is_ok());
    rt.barrier();
}

#[test]
fn multinode_coexists_with_single_node_tasks() {
    let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(3, NodeSpec::new("n", 4, vec![], 8)));
    let rt = Runtime::simulated(cfg);
    let mpi = rt.register("mpi", Constraint::multinode(2, 4), 1, |_, _| Ok(vec![Value::new(())]));
    let small =
        rt.register("small", Constraint::cpus(1), 1, |ctx, _| Ok(vec![Value::new(ctx.node)]));
    rt.submit_with(&mpi, vec![], SubmitOpts { sim_duration_us: Some(5_000) }).unwrap();
    let outs: Vec<_> = (0..4)
        .map(|_| {
            rt.submit_with(&small, vec![], SubmitOpts { sim_duration_us: Some(1_000) })
                .unwrap()
                .returns[0]
        })
        .collect();
    rt.barrier();
    // all small tasks fit on the remaining node concurrently with the MPI job
    assert!(rt.now_us() <= 5_000, "third node hosts the small tasks: {}", rt.now_us());
    for h in &outs {
        let node = *rt.wait_on(h).unwrap().downcast_ref::<u32>().unwrap();
        assert_eq!(node, 2, "small tasks landed on the free node");
    }
}

#[test]
fn node_failure_kills_multinode_task_touching_it() {
    let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(4, NodeSpec::new("n", 4, vec![], 8)))
        .with_failures(FailureInjector::none().with_node_failure(2_000, 1));
    let rt = Runtime::simulated(cfg);
    let mpi = rt.register("mpi", Constraint::multinode(2, 4), 1, |ctx, _| {
        Ok(vec![Value::new((ctx.node, ctx.peer_nodes.clone()))])
    });
    // first submission grabs nodes 0+1; the failure of node 1 at t=2ms
    // kills it mid-flight and it restarts on surviving nodes.
    let out =
        rt.submit_with(&mpi, vec![], SubmitOpts { sim_duration_us: Some(10_000) }).unwrap().returns
            [0];
    rt.barrier();
    let v = rt.wait_on(&out).unwrap();
    let (node, peers) = v.downcast_ref::<(u32, Vec<u32>)>().unwrap();
    assert_ne!(*node, 1, "dead node is not the primary");
    assert!(!peers.contains(&1), "dead node is not a peer");
    assert_eq!(rt.stats().failed_attempts, 1);
    assert_eq!(rt.stats().completed, 1);
}

/// One CPU-only node of 4 cores and 8 GiB, simulated.
fn one_small_node() -> Runtime {
    let node = NodeSpec::new("n", 4, vec![], 8);
    Runtime::simulated(RuntimeConfig::on_cluster(Cluster::homogeneous(1, node)))
}

#[test]
fn an_alternative_gives_back_the_memory_it_took() {
    // The GPU primary never fits, so every run is the alternative, which
    // takes all 8 GiB. Given back as much as the primary took (none), the
    // memory stays taken and the second run never places.
    let rt = one_small_node();
    let train = rt
        .register("train", Constraint::cpus(1).with_gpus(1), 1, |_, _| Ok(vec![Value::new("gpu")]))
        .with_implementation(Constraint::cpus(1).with_mem_gib(8), |_, _| {
            Ok(vec![Value::new("cpu")])
        });
    for run in 0..2 {
        let out = rt.submit(&train, vec![]).unwrap().returns[0];
        let v = rt.wait_on(&out).unwrap_or_else(|e| panic!("run {run}: {e}"));
        assert_eq!(*v.downcast_ref::<&str>().unwrap(), "cpu", "run {run}");
    }
}

#[test]
fn an_alternative_gives_back_no_memory_it_did_not_take() {
    // The alternative takes no memory. Given back as much as the primary
    // took (8 GiB), the node would believe it has 16, and two 8 GiB tasks
    // would overlap on it.
    let rt = one_small_node();
    let train = rt
        .register("train", Constraint::cpus(1).with_gpus(1).with_mem_gib(8), 1, |_, _| {
            Ok(vec![Value::new("gpu")])
        })
        .with_implementation(Constraint::cpus(1), |_, _| Ok(vec![Value::new("cpu")]));
    let out = rt.submit(&train, vec![]).unwrap().returns[0];
    assert_eq!(*rt.wait_on(&out).unwrap().downcast_ref::<&str>().unwrap(), "cpu");
    let big =
        rt.register("big", Constraint::cpus(1).with_mem_gib(8), 1, |_, _| Ok(vec![Value::new(())]));
    let t0 = rt.now_us();
    for _ in 0..2 {
        rt.submit_with(&big, vec![], SubmitOpts { sim_duration_us: Some(1_000) }).unwrap();
    }
    rt.barrier();
    let took = rt.now_us() - t0;
    assert!(took >= 2_000, "two 8 GiB tasks overlapped on an 8 GiB node: {took} µs");
}

#[test]
fn a_multinode_retry_gets_back_the_cores_of_the_surviving_node() {
    // The first attempt holds nodes 0 and 1, and node 1 dies under it. Node
    // 0 survives and must get its 4 cores back, or the retry, which needs
    // two whole nodes, finds only node 2.
    let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(3, NodeSpec::new("n", 4, vec![], 8)))
        .with_failures(FailureInjector::none().with_node_failure(2_000, 1));
    let rt = Runtime::simulated(cfg);
    let mpi = rt.register("mpi", Constraint::multinode(2, 4), 1, |ctx, _| {
        let mut nodes = ctx.peer_nodes.clone();
        nodes.push(ctx.node);
        nodes.sort_unstable();
        Ok(vec![Value::new(nodes)])
    });
    let opts = SubmitOpts { sim_duration_us: Some(10_000) };
    let out = rt.submit_with(&mpi, vec![], opts).unwrap().returns[0];
    let v = rt.wait_on(&out).expect("the retry runs on the survivors");
    assert_eq!(v.downcast_ref::<Vec<u32>>().unwrap(), &[0, 2]);
    assert_eq!((rt.stats().failed_attempts, rt.stats().completed), (1, 1));
}

#[test]
fn a_random_mix_of_outcomes_settles_every_task() {
    // Seeded programs of tasks reading earlier outputs, with successes,
    // retries that recover, permanent failures and the cascades they poison,
    // over plain, `@implement` and `@multinode` definitions. On the
    // simulator a node dies mid-run: what ran there fails unseen by its body
    // and retries elsewhere. Each body logs the attempt it runs and the
    // trace the attempts the runtime failed: together they number each
    // task's attempts 1, 2, … in order, and a sequential model, told which
    // attempts died with the node, predicts every value and every failure.
    // Mid-program, a wait on a handle nothing writes returns only once every
    // task has settled; after the barrier, the failure count is the failed
    // list's length.
    use rand::{Rng, SeedableRng};
    const MAX_ATTEMPTS: u32 = 3;
    let fold = |ins: &[u64]| ins.iter().fold(7u64, |a, &b| a.wrapping_mul(31).wrapping_add(b));
    for (seed, simulated) in (0..8u64).map(|s| (s, s % 2 == 0)) {
        let tag = format!("seed {seed}, simulated {simulated}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        const TASKS: usize = 160;
        // Attempts 1..=n of task id fail: 1 or 2 recover, 3 is permanent.
        let fails: Vec<u32> = (0..=TASKS)
            .map(|_| [0, 0, 0, 0, 0, 1, 2, MAX_ATTEMPTS][rng.gen_range(0..8usize)])
            .collect();
        let mut injector = FailureInjector::none();
        for (id, &n) in fails.iter().enumerate() {
            for attempt in 1..=n {
                injector = injector.with_task_failure(id as u64, attempt);
            }
        }
        if simulated {
            // While the first tasks run.
            injector = injector.with_node_failure(2_500, (seed % 3) as u32);
        }
        let cluster = Cluster::homogeneous(3, NodeSpec::new("n", 4, vec![], 8));
        let cfg = RuntimeConfig::on_cluster(cluster)
            .with_retry(RetryPolicy { max_attempts: MAX_ATTEMPTS, same_node_first: true })
            .with_failures(injector);
        let rt = if simulated { Runtime::simulated(cfg) } else { Runtime::threaded(cfg) };
        // Per task id, the attempts its body ran, in order.
        let ran = Arc::new(parking_lot_for_tests::Mutex::new(vec![Vec::<u32>::new(); TASKS + 1]));
        let body = {
            let ran = Arc::clone(&ran);
            move |ctx: &rcompss::TaskContext, ins: &[Value]| {
                ran.lock()[ctx.task.0 as usize].push(ctx.attempt);
                let ins: Vec<u64> = ins.iter().map(|v| *v.downcast_ref::<u64>().unwrap()).collect();
                Ok(vec![Value::new(fold(&ins))])
            }
        };
        let defs = [
            rt.register("plain", Constraint::cpus(1), 1, body.clone()),
            rt.register("alt", Constraint::cpus(1).with_gpus(1), 1, body.clone())
                .with_implementation(Constraint::cpus(1).with_mem_gib(4), body.clone()),
            rt.register("mpi", Constraint::multinode(2, 2), 1, body).with_priority(),
        ];
        let never = rt.declare();
        // Per task: its id, its output and the indices of the tasks it reads.
        let mut tasks: Vec<(rcompss::TaskId, rcompss::DataHandle, Vec<usize>)> = Vec::new();
        for step in 0..TASKS {
            let reads: Vec<usize> = match tasks.len() {
                0 => Vec::new(),
                n => (0..rng.gen_range(0..3usize)).map(|_| rng.gen_range(0..n)).collect(),
            };
            let args = reads.iter().map(|&i| ArgSpec::In(tasks[i].1)).collect();
            let def = &defs[rng.gen_range(0..defs.len())];
            let opts = SubmitOpts { sim_duration_us: Some(1_000) };
            let submitted = rt.submit_with(def, args, opts).unwrap();
            tasks.push((submitted.task, submitted.returns[0], reads));
            if rng.gen_range(0..40u32) == 0 {
                assert_eq!(rt.wait_on(&never).err(), Some(WaitError::NeverWritten(never)));
                let stats = rt.stats();
                assert_eq!(stats.completed + stats.failed, step as u64 + 1, "{tag} step {step}");
            }
        }
        rt.barrier();
        // Per task id, the attempts the runtime failed, in order.
        let mut failures = vec![Vec::<u32>::new(); TASKS + 1];
        for r in rt.trace() {
            if let paratrace::Record::Event {
                kind: paratrace::EventKind::TaskFailure { task, attempt },
                ..
            } = r
            {
                failures[task.id as usize].push(attempt);
            }
        }
        let ran = ran.lock();
        // Per task: the model's value (None: failed) and its depth.
        let mut model: Vec<(Option<u64>, u64)> = Vec::new();
        let mut failed = Vec::new();
        // Failed and killed attempts; tasks that failed only through a
        // producer, that gave up, and that recovered.
        let (mut attempts, mut killed) = (0, 0);
        let (mut cascaded, mut given_up, mut recovered) = (0, 0, 0);
        for (task, _, reads) in &tasks {
            let id = task.0 as usize;
            // Only a task whose producers all succeeded runs an attempt.
            let ins: Option<Vec<u64>> = reads.iter().map(|&i| model[i].0).collect();
            let depth = 1 + reads.iter().map(|&i| model[i].1).max().unwrap_or(0);
            // Attempt a died with its node if the runtime failed it and its
            // body never ran; else it ran, and failed if injected to.
            let (mut want_ran, mut want_failed, mut value) = (Vec::new(), Vec::new(), None);
            for a in (1..=MAX_ATTEMPTS).filter(|_| ins.is_some()) {
                let died = failures[id].contains(&a) && !ran[id].contains(&a);
                killed += u32::from(died);
                if !died {
                    want_ran.push(a);
                }
                if died || a <= fails[id] {
                    want_failed.push(a);
                } else {
                    value = ins.as_deref().map(fold);
                    break;
                }
            }
            assert_eq!((&ran[id], &failures[id]), (&want_ran, &want_failed), "{tag} task {id}");
            attempts += want_failed.len() as u64;
            cascaded += u32::from(ins.is_none());
            given_up += u32::from(ins.is_some() && value.is_none());
            recovered += u32::from(value.is_some() && !want_failed.is_empty());
            if value.is_none() {
                failed.push(*task);
            }
            model.push((value, depth));
        }
        for (i, ((_, h, _), (value, _))) in tasks.iter().zip(&model).enumerate() {
            let got = rt.wait_on(h).map(|v| *v.downcast_ref::<u64>().unwrap());
            assert_eq!(got, value.ok_or(WaitError::ProducerFailed(*h)), "{tag} task {i}");
        }
        let stats = rt.stats();
        assert_eq!(rt.failed_tasks(), failed, "{tag}");
        assert_eq!(stats.failed, rt.failed_tasks().len() as u64, "{tag}");
        let n = TASKS as u64;
        assert_eq!((stats.submitted, stats.completed + stats.failed), (n, n), "{tag}");
        assert_eq!(stats.failed_attempts, attempts, "{tag}");
        assert!(cascaded > 0 && given_up > 0 && recovered > 0, "{tag}: {cascaded}, {given_up}");
        assert_eq!(killed > 0, simulated, "{tag}: {killed} attempts died with a node");
        assert_eq!(rt.metrics().snapshot().gauge("rcompss_live_tasks"), Some(0.0), "{tag}");
        if simulated {
            // A task's last attempt starts once its producers are done: the
            // longest chain of successes is a floor under the makespan.
            let chain = model.iter().filter(|t| t.0.is_some()).map(|t| t.1).max().unwrap();
            assert!(stats.makespan_us >= chain * 1_000, "{tag}: chain of {chain}");
        }
    }
}

#[test]
fn priority_hint_jumps_the_resource_queue() {
    // One core; 3 ordinary tasks queue up, then a priority=True task is
    // submitted. When the core frees, the priority task runs next even
    // though it was submitted last.
    let rt = Runtime::simulated(RuntimeConfig::single_node(1));
    let order = Arc::new(parking_lot_for_tests::Mutex::new(Vec::<String>::new()));
    let mk = |name: &str, order: &Arc<parking_lot_for_tests::Mutex<Vec<String>>>| {
        let o = Arc::clone(order);
        let n = name.to_string();
        rt.register(name, Constraint::cpus(1), 1, move |_, _| {
            o.lock().push(n.clone());
            Ok(vec![Value::new(())])
        })
    };
    let normal = mk("normal", &order);
    let urgent = mk("urgent", &order).with_priority();
    for _ in 0..3 {
        rt.submit_with(&normal, vec![], SubmitOpts { sim_duration_us: Some(100) }).unwrap();
    }
    rt.submit_with(&urgent, vec![], SubmitOpts { sim_duration_us: Some(100) }).unwrap();
    rt.barrier();
    let order = order.lock();
    assert_eq!(order.len(), 4);
    // The simulated backend dispatches lazily at the first synchronisation,
    // so every entry is in the ready queue when scheduling starts and the
    // priority task wins the very first slot.
    assert_eq!(order[0], "urgent", "priority task skips ahead of earlier submissions");
    assert!(order[1..].iter().all(|n| n == "normal"));
}

#[test]
fn staged_cluster_pays_transfer_time_and_uses_locality() {
    // No PFS: a consumer reading a large producer output should (a) pay a
    // visible transfer if placed remotely, and (b) prefer the producer's
    // node when free (locality).
    let cluster = Cluster::homogeneous(2, NodeSpec::new("n", 1, vec![], 8))
        .without_pfs()
        .with_interconnect(cluster::Interconnect::ethernet());
    let rt = Runtime::simulated(RuntimeConfig::on_cluster(cluster));
    let produce =
        rt.register("produce", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(vec![0u8; 4])]));
    let consume =
        rt.register("consume", Constraint::cpus(1), 1, |ctx, _| Ok(vec![Value::new(ctx.node)]));
    let big = rt
        .submit_with(&produce, vec![], SubmitOpts { sim_duration_us: Some(100) })
        .unwrap()
        .returns[0];
    rt.wait_on(&big).unwrap();
    // declare the output as 120 MB for the transfer model
    rt.set_data_bytes(big, 120_000_000);
    let c = rt
        .submit_with(&consume, vec![ArgSpec::In(big)], SubmitOpts { sim_duration_us: Some(100) })
        .unwrap()
        .returns[0];
    let node = *rt.wait_on(&c).unwrap().downcast_ref::<u32>().unwrap();
    assert_eq!(node, 0, "locality: consumer follows the data");
    // Now force a remote consumer by occupying node 0 with a long task.
    let blocker = rt.register("block", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(())]));
    let before = rt.now_us();
    rt.submit_with(&blocker, vec![], SubmitOpts { sim_duration_us: Some(10_000_000) }).unwrap();
    let c2 = rt
        .submit_with(&consume, vec![ArgSpec::In(big)], SubmitOpts { sim_duration_us: Some(100) })
        .unwrap()
        .returns[0];
    let node2 = *rt.wait_on(&c2).unwrap().downcast_ref::<u32>().unwrap();
    assert_eq!(node2, 1, "node 0 busy ⇒ remote placement");
    // 120 MB at 1.2 GB/s = 100 ms of staging; 1000× the task itself.
    let elapsed = rt.now_us() - before;
    assert!(elapsed >= 100_000, "staging dominates: {elapsed}");
    // and the trace shows a Transferring interval
    let transferred = rt.trace().iter().any(|r| {
        matches!(
            r,
            paratrace::Record::State { state: paratrace::StateKind::Transferring { .. }, .. }
        )
    });
    assert!(transferred, "transfer recorded in the trace");
}

#[test]
fn pfs_cluster_needs_no_staging_between_nodes() {
    let cluster = Cluster::homogeneous(2, NodeSpec::new("n", 1, vec![], 8)); // pfs = true
    let rt = Runtime::simulated(RuntimeConfig::on_cluster(cluster));
    let produce = rt.register("p", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(1u8)]));
    let consume = rt.register("c", Constraint::cpus(1), 1, |_, i| Ok(vec![i[0].clone()]));
    let h = rt
        .submit_with(&produce, vec![], SubmitOpts { sim_duration_us: Some(100) })
        .unwrap()
        .returns[0];
    rt.set_data_bytes(h, 120_000_000);
    let out = rt
        .submit_with(&consume, vec![ArgSpec::In(h)], SubmitOpts { sim_duration_us: Some(100) })
        .unwrap()
        .returns[0];
    rt.wait_on(&out).unwrap();
    // PFS read of 120 MB at 8 GB/s = 15 ms ≪ the 100 s staged copy above.
    assert!(rt.now_us() < 16_000 + 200, "PFS read is cheap: {}", rt.now_us());
}

#[test]
fn worker_shutdown_is_signal_driven_and_prompt() {
    // Workers park on the pool's condvar with no poll timeout; shutdown
    // sets the flag, wakes them all and joins. With the old 50 ms polling
    // loop a 64-worker pool took up to one poll period to notice the flag — the
    // signal-driven pool must wind down in single-digit milliseconds even
    // with every worker parked idle.
    let rt = Runtime::threaded(RuntimeConfig::single_node(64));
    let noop = rt.register("noop", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(())]));
    let h = rt.submit(&noop, vec![]).unwrap().returns[0];
    rt.wait_on(&h).unwrap();
    let t0 = std::time::Instant::now();
    drop(rt);
    let took = t0.elapsed();
    assert!(took.as_millis() < 10, "shutdown of 64 idle workers took {took:?}");
}

/// A body that declares one return and yields none: its attempts fail like
/// any other error, so the wait answers `ProducerFailed` instead of hanging,
/// and the runtime still runs what is submitted next.
fn a_wrong_value_count_fails_the_task(rt: Runtime) {
    let empty = rt.register("empty", Constraint::cpus(1), 1, |_, _| Ok(vec![]));
    let add = add_task(&rt);
    let h = rt.submit(&empty, vec![]).unwrap().returns[0];
    assert_eq!(rt.wait_on(&h).err(), Some(WaitError::ProducerFailed(h)));
    let (one, two) = (rt.literal(1i64), rt.literal(2i64));
    let sum = rt.submit(&add, vec![ArgSpec::In(one), ArgSpec::In(two)]).unwrap().returns[0];
    assert_eq!(rt.wait_on(&sum).map(|v| *v.downcast_ref::<i64>().unwrap()), Ok(3));
    assert_eq!(rt.stats().failed, 1);
}

#[test]
fn a_wrong_value_count_fails_the_task_threaded() {
    a_wrong_value_count_fails_the_task(Runtime::threaded(RuntimeConfig::single_node(2)));
}

#[test]
fn a_wrong_value_count_fails_the_task_simulated() {
    a_wrong_value_count_fails_the_task(Runtime::simulated(RuntimeConfig::single_node(2)));
}

/// `wait_any`'s contract holds on these: two threaded cores and two
/// simulated ones.
fn both_backends() -> [Runtime; 2] {
    [
        Runtime::threaded(RuntimeConfig::single_node(2)),
        Runtime::simulated(RuntimeConfig::single_node(2)),
    ]
}

/// Submit a task that ends once the returned sender releases it, and then
/// one that ends at once. On the simulator they last 300 ms and 1 ms of
/// virtual time, and a body runs when its time is up.
fn held_then_quick(rt: &Runtime) -> (rcompss::DataHandle, rcompss::DataHandle, Sender<()>) {
    let (release, held) = std::sync::mpsc::channel::<()>();
    let held = std::sync::Mutex::new(held);
    let hold = rt.register("hold", Constraint::cpus(1), 1, move |_, _| {
        let released = held.lock().unwrap().recv_timeout(std::time::Duration::from_secs(10));
        released.map_err(|_| TaskError::new("never released"))?;
        Ok(vec![Value::new(300u64)])
    });
    let quick = rt.register("quick", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(1u64)]));
    let lasting = |ms: u64| SubmitOpts { sim_duration_us: Some(ms * 1_000) };
    let slow = rt.submit_with(&hold, vec![], lasting(300)).unwrap().returns[0];
    let fast = rt.submit_with(&quick, vec![], lasting(1)).unwrap().returns[0];
    (slow, fast, release)
}

#[test]
fn wait_any_returns_the_first_to_settle_and_a_tie_the_lowest_index() {
    for rt in both_backends() {
        let (slow, fast, release) = held_then_quick(&rt);
        assert_eq!(rt.wait_any(&[slow, fast]), Ok(1), "the quick task settles first");
        release.send(()).unwrap();
        rt.barrier();
        assert_eq!(rt.wait_any(&[slow, fast]), Ok(0), "both settled: the lowest index");
        assert_eq!(rt.wait_any(&[fast, slow]), Ok(0), "the index, not the handle, decides");
        // The waits held their targets and gave them back.
        assert_eq!(rt.wait_on(&slow).map(|v| *v.downcast_ref::<u64>().unwrap()), Ok(300));
        rt.delete(slow);
        rt.delete(fast);
        rt.delete(rt.literal(0u8)); // publishes the gauges
        let live = rt.metrics().snapshot().gauge("rcompss_live_data_versions");
        assert_eq!(live, Some(0.0), "the waits let go of every version");
    }
}

#[test]
fn wait_any_settles_on_a_permanently_failed_producer() {
    for rt in both_backends() {
        let boom = rt.register("boom", Constraint::cpus(1), 1, |_, _| Err(TaskError::new("no")));
        let (slow, _, release) = held_then_quick(&rt);
        let bad = rt.submit(&boom, vec![]).unwrap().returns[0];
        assert_eq!(rt.wait_any(&[slow, bad]), Ok(1), "a poison mark settles a handle");
        assert_eq!(rt.wait_on(&bad).err(), Some(WaitError::ProducerFailed(bad)));
        release.send(()).unwrap();
    }
}

#[test]
fn wait_any_rejects_an_unknown_handle_and_an_empty_slice() {
    for rt in both_backends() {
        let (kept, gone) = (rt.literal(1i64), rt.literal(2i64));
        rt.delete(gone);
        assert_eq!(rt.wait_any(&[kept, gone]), Err(WaitError::UnknownData(gone)));
        let foreign = rcompss::DataHandle::test_only(u64::MAX);
        assert_eq!(rt.wait_any(&[foreign, kept]), Err(WaitError::UnknownData(foreign)));
        assert_eq!(rt.wait_any(&[]), Err(WaitError::NoHandles));
        assert_eq!(rt.wait_any(&[kept]), Ok(0));
    }
}

#[test]
fn a_simulated_collection_order_is_the_same_every_time() {
    // Collect six tasks of three cores the way the HPO runner does: wait
    // for any pending one, take it out, again. Virtual time decides the
    // order, so it is completion order, and the same on every run.
    let collect = || {
        let rt = Runtime::simulated(RuntimeConfig::single_node(3));
        let tick = rt.register("tick", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(())]));
        let mut pending: Vec<(usize, rcompss::DataHandle)> = [50, 10, 40, 10, 30, 20]
            .into_iter()
            .enumerate()
            .map(|(i, ms)| {
                let opts = SubmitOpts { sim_duration_us: Some(ms * 1_000) };
                (i, rt.submit_with(&tick, vec![], opts).unwrap().returns[0])
            })
            .collect();
        let mut order = Vec::new();
        while !pending.is_empty() {
            let hs: Vec<_> = pending.iter().map(|&(_, h)| h).collect();
            order.push(pending.remove(rt.wait_any(&hs).unwrap()).0);
        }
        order
    };
    let order = collect();
    assert_eq!(order[..3], [1, 3, 2], "completion order, not admission order: {order:?}");
    for _ in 0..3 {
        assert_eq!(collect(), order);
    }
}
