//! Stress tests for the threaded backend's run queue: thousands of
//! tiny tasks with randomized IN/INOUT dependency chains, checked against a
//! sequential replay of the same submissions. Dataflow semantics make the
//! replay exact: whatever order the workers interleave in, each INOUT
//! serialises on its slot's version chain and each IN reads the version
//! current at submission, so the final slot values are fully determined at
//! submission time.

use rand::{Rng, SeedableRng};
use rcompss::{ArgSpec, Constraint, Runtime, RuntimeConfig, Value};

/// Submit `n` tiny tasks over `slots` INOUT accumulators with a seeded
/// random dependency pattern; return the runtime's final slot values next
/// to the sequential model's.
fn run_random_chains(workers: u32, n: u64, slots: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let rt = Runtime::threaded(
        RuntimeConfig::single_node(workers).with_tracing(false).with_metrics(true),
    );
    let step = rt.register("step", Constraint::cpus(1), 0, |_, inputs| {
        let acc: u64 = *inputs[0].downcast_ref::<u64>().unwrap();
        let mixed = inputs[1..]
            .iter()
            .map(|v| *v.downcast_ref::<u64>().unwrap())
            .fold(acc, |a, b| a.wrapping_mul(31).wrapping_add(b));
        Ok(vec![Value::new(mixed.wrapping_add(1))])
    });

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let handles: Vec<_> = (0..slots).map(|i| rt.literal(i as u64)).collect();
    let mut model: Vec<u64> = (0..slots as u64).collect();

    for _ in 0..n {
        let target = rng.gen_range(0..slots);
        // Up to two extra IN reads from *other* slots (their *current*
        // version at submission — the model mirrors that timing). Reading
        // the slot the task itself InOut-writes would alias the write
        // version and self-depend; argument aliasing is out of scope here.
        let extra: Vec<usize> = (0..rng.gen_range(0..3usize))
            .map(|_| rng.gen_range(0..slots))
            .filter(|&s| s != target)
            .collect();
        let mut args = vec![ArgSpec::InOut(handles[target])];
        args.extend(extra.iter().map(|&s| ArgSpec::In(handles[s])));
        rt.submit(&step, args).expect("submit");

        let mixed = extra
            .iter()
            .map(|&s| model[s])
            .fold(model[target], |a, b| a.wrapping_mul(31).wrapping_add(b));
        model[target] = mixed.wrapping_add(1);
    }
    rt.barrier();

    let stats = rt.stats();
    assert_eq!(stats.submitted, n, "workers={workers}");
    assert_eq!(stats.completed, n, "workers={workers}: all tasks must complete");
    assert_eq!(stats.failed, 0, "workers={workers}");
    let snap = rt.metrics().snapshot();
    assert_eq!(snap.counter("rcompss_tasks_submitted_total"), Some(n));
    assert_eq!(snap.counter("rcompss_tasks_completed_total"), Some(n));
    assert_eq!(snap.counter("rcompss_tasks_failed_total"), Some(0));
    // Every dispatched task must have been completed (no retries here).
    assert_eq!(snap.counter("rcompss_tasks_dispatched_total"), Some(n));

    let finals =
        handles.iter().map(|h| *rt.wait_on(h).unwrap().downcast_ref::<u64>().unwrap()).collect();
    (finals, model)
}

#[test]
fn ten_thousand_random_chains_match_sequential_replay() {
    // 10k tasks across pool sizes from serial to more workers than cores.
    for (workers, seed) in [(1u32, 7u64), (4, 11), (16, 13)] {
        let (got, want) = run_random_chains(workers, 10_000, 24, seed);
        assert_eq!(got, want, "workers={workers}: final slot values diverge");
    }
}

#[test]
fn deep_single_slot_chain_is_fully_serialised() {
    // Worst case for wakeup latency: every task depends on the previous
    // one, so the pool can never run two at once and every completion must
    // promptly wake a worker for the next link.
    let (got, want) = run_random_chains(16, 4_000, 1, 3);
    assert_eq!(got, want);
}
