//! What the runtime retires must never be missed. A seeded random main
//! program — literals, declared slots, tasks with IN / INOUT / OUT
//! arguments and return values, `wait_on`, `delete`, stray handles, injected
//! attempt failures — runs on the threaded backend (one worker and four) and
//! on the simulated one, next to a sequential model that never forgets
//! anything. Every task body checkpoints what it read through
//! [`rcompss::snapshot`], the ones that go on to exhaust their retries
//! included. Every value, every [`SubmitError`] and [`WaitError`] and the
//! set of failed tasks must agree, and once the program is idle the runtime
//! may hold nothing but the current version of each undeleted handle — no
//! task, and no task's snapshot.

use std::collections::BTreeSet;

use cluster::FailureInjector;
use rand::{Rng, SeedableRng};
use rcompss::{
    ArgSpec, Constraint, DataHandle, RetryPolicy, Runtime, RuntimeConfig, SubmitError, SubmitOpts,
    TaskId, Value, WaitError,
};

/// What the model knows of a handle's current version.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cell {
    Unwritten,
    Value(u64),
    Poisoned,
}

struct Slot {
    handle: DataHandle,
    cell: Cell,
    deleted: bool,
}

/// The sequential reference: it never retires anything, a deleted handle is
/// merely marked.
struct Model {
    slots: Vec<Slot>,
    /// Successful submissions so far; the next task gets this id plus one.
    tasks: u64,
    failed: BTreeSet<TaskId>,
}

impl Model {
    fn wait(&self, slot: usize) -> Result<u64, WaitError> {
        let s = &self.slots[slot];
        match s.cell {
            _ if s.deleted => Err(WaitError::UnknownData(s.handle)),
            Cell::Unwritten => Err(WaitError::NeverWritten(s.handle)),
            Cell::Poisoned => Err(WaitError::ProducerFailed(s.handle)),
            Cell::Value(v) => Ok(v),
        }
    }
}

const MAX_ATTEMPTS: u32 = 3;

/// Attempts `1..=n` of task `id` are made to fail; three exhaust the retries.
fn injected_failures(id: u64) -> u32 {
    match id % 11 {
        3 => 1,
        5 => 2,
        7 => MAX_ATTEMPTS,
        _ => 0,
    }
}

fn fold(inputs: impl Iterator<Item = u64>) -> u64 {
    inputs.fold(17, |a, b| a.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(b))
}

/// Output `j` of a task that read `inputs`: one per OUT/INOUT argument, in
/// argument order, then the return slots.
fn output(inputs: u64, j: usize) -> u64 {
    inputs.rotate_left(j as u32 + 1) ^ j as u64
}

fn wait_u64(rt: &Runtime, h: DataHandle) -> Result<u64, WaitError> {
    rt.wait_on(&h).map(|v| *v.downcast_ref::<u64>().expect("u64 value"))
}

fn gauge(rt: &Runtime, name: &str) -> f64 {
    rt.metrics().snapshot().gauge(name).unwrap_or_else(|| panic!("{name} is registered"))
}

fn run_program(rt: &Runtime, seed: u64, steps: usize) {
    let tag = format!("seed {seed}");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut m = Model { slots: Vec::new(), tasks: 0, failed: BTreeSet::new() };
    let stray = DataHandle::test_only(1 << 40);
    for step in 0..steps {
        let roll = if m.slots.len() < 4 { 0 } else { rng.gen_range(0..20u32) };
        match roll {
            0 | 1 => {
                let x = rng.gen_range(0..u64::MAX);
                m.slots.push(Slot { handle: rt.literal(x), cell: Cell::Value(x), deleted: false });
            }
            2 => m.slots.push(Slot { handle: rt.declare(), cell: Cell::Unwritten, deleted: false }),
            3..=5 => {
                let i = rng.gen_range(0..m.slots.len());
                rt.delete(m.slots[i].handle);
                m.slots[i].deleted = true;
            }
            6..=8 => {
                let i = rng.gen_range(0..m.slots.len());
                assert_eq!(wait_u64(rt, m.slots[i].handle), m.wait(i), "{tag} step {step}");
            }
            9 => {
                rt.delete(stray);
                assert_eq!(wait_u64(rt, stray), Err(WaitError::UnknownData(stray)));
            }
            _ => submit_random_task(rt, &mut m, &mut rng, &tag),
        }
    }
    rt.barrier();

    // Idle: same values, same failures, and nothing retained but what the
    // main program can still name.
    for i in 0..m.slots.len() {
        assert_eq!(wait_u64(rt, m.slots[i].handle), m.wait(i), "{tag} final slot {i}");
    }
    assert_eq!(rt.failed_tasks(), m.failed.iter().copied().collect::<Vec<_>>(), "{tag}");
    let stats = rt.stats();
    assert_eq!((stats.submitted, stats.failed), (m.tasks, m.failed.len() as u64), "{tag}");
    assert_eq!(stats.completed, m.tasks - m.failed.len() as u64, "{tag}");
    let nameable = m.slots.iter().filter(|s| !s.deleted && s.cell != Cell::Unwritten).count();
    assert_eq!(gauge(rt, "rcompss_live_tasks"), 0.0, "{tag}");
    assert_eq!(gauge(rt, "rcompss_live_snapshot_bytes"), 0.0, "{tag}");
    assert_eq!(gauge(rt, "rcompss_live_data_versions"), nameable as f64, "{tag}");
    assert!(m.failed.len() > 3 && m.tasks > 100, "{tag}: the program exercised failures");

    // Give the rest back: the runtime is empty.
    m.slots.iter().for_each(|s| rt.delete(s.handle));
    assert_eq!(gauge(rt, "rcompss_live_data_versions"), 0.0, "{tag}");
}

/// One task over up to four distinct random slots (an aliased INOUT would
/// depend on itself — out of scope, as in `stress.rs`), mirrored in the
/// model whether the runtime takes it or refuses it.
fn submit_random_task(rt: &Runtime, m: &mut Model, rng: &mut rand::rngs::StdRng, tag: &str) {
    let mut picks: Vec<usize> = Vec::new();
    for _ in 0..rng.gen_range(0..=4usize) {
        let i = rng.gen_range(0..m.slots.len());
        if !picks.contains(&i) {
            picks.push(i);
        }
    }
    // 0 = IN, 1 = INOUT, 2 = OUT; reads dominate.
    let dirs: Vec<u32> =
        picks.iter().map(|_| [0, 0, 0, 1, 1, 2][rng.gen_range(0..6usize)]).collect();
    let mut args: Vec<ArgSpec> = picks
        .iter()
        .zip(&dirs)
        .map(|(&i, &d)| {
            let h = m.slots[i].handle;
            match d {
                0 => ArgSpec::In(h),
                1 => ArgSpec::InOut(h),
                _ => ArgSpec::Out(h),
            }
        })
        .collect();
    let stray = DataHandle::test_only((1 << 40) + 1);
    if rng.gen_range(0..25u32) == 0 {
        args.push(ArgSpec::In(stray));
    }
    let returns = rng.gen_range(0..=2usize);
    let writes = dirs.iter().filter(|&&d| d != 0).count();
    let def = rt.register("step", Constraint::cpus(1), returns, move |ctx, inputs| {
        let read = fold(inputs.iter().map(|v| *v.downcast_ref::<u64>().expect("u64 input")));
        // Checkpoint, whether or not this attempt is one the injector fails.
        // A retry finds what the attempt before it saved, and nobody else's:
        // `read` differs from task to task. (The simulated backend has no
        // channel; there `save` is inert.)
        let state = [read.to_le_bytes(), ctx.task.0.to_le_bytes()].concat();
        if ctx.attempt > 1 && rcompss::snapshot::active() {
            assert_eq!(rcompss::snapshot::load(), Some(state.clone()), "a retry loads its own");
        }
        rcompss::snapshot::save(&state);
        Ok((0..returns + writes).map(|j| Value::new(output(read, j))).collect())
    });
    let got = rt.submit_with(&def, args.clone(), SubmitOpts { sim_duration_us: Some(50) });

    // The model: refused on the first bad argument, in argument order.
    let refusal = (0..args.len()).find_map(|k| {
        let Some(&i) = picks.get(k) else { return Some(SubmitError::UnknownData(stray)) };
        let s = &m.slots[i];
        if s.deleted {
            Some(SubmitError::UnknownData(s.handle))
        } else if dirs[k] != 2 && s.cell == Cell::Unwritten {
            Some(SubmitError::UnwrittenData(s.handle))
        } else {
            None
        }
    });
    if let Some(want) = refusal {
        assert_eq!(got.map(|s| s.task).unwrap_err(), want, "{tag}");
        return;
    }
    let sub = got.unwrap_or_else(|e| panic!("{tag}: refused a sound submission: {e}"));
    m.tasks += 1;
    assert_eq!(sub.task, TaskId(m.tasks), "{tag}: refused submissions take no id");
    let reads = || picks.iter().zip(&dirs).filter(|(_, &d)| d != 2).map(|(&i, _)| m.slots[i].cell);
    let fails = injected_failures(m.tasks) >= MAX_ATTEMPTS || reads().any(|c| c == Cell::Poisoned);
    let read = fold(reads().filter_map(|c| match c {
        Cell::Value(v) => Some(v),
        _ => None,
    }));
    let cell = |j: usize| if fails { Cell::Poisoned } else { Cell::Value(output(read, j)) };
    if fails {
        m.failed.insert(sub.task);
    }
    let written: Vec<usize> =
        picks.iter().zip(&dirs).filter(|(_, &d)| d != 0).map(|(&i, _)| i).collect();
    let params = written.len();
    for (j, i) in written.into_iter().enumerate() {
        m.slots[i].cell = cell(j);
    }
    for (j, &handle) in sub.returns.iter().enumerate() {
        m.slots.push(Slot { handle, cell: cell(params + j), deleted: false });
    }
}

fn config(cores: u32) -> RuntimeConfig {
    let mut failures = FailureInjector::none();
    for id in 1..5_000 {
        for attempt in 1..=injected_failures(id) {
            failures = failures.with_task_failure(id, attempt);
        }
    }
    RuntimeConfig::single_node(cores)
        .with_tracing(false)
        .with_retry(RetryPolicy { max_attempts: MAX_ATTEMPTS, same_node_first: true })
        .with_failures(failures)
}

#[test]
fn random_programs_agree_with_a_model_that_never_retires() {
    for seed in [1, 2, 3] {
        run_program(&Runtime::threaded(config(1)), seed, 1_500);
        run_program(&Runtime::threaded(config(4)), seed, 1_500);
        run_program(&Runtime::simulated(config(4)), seed, 1_500);
    }
}

#[test]
fn failing_fan_out_cascades_along_the_edges() {
    // One root that exhausts its retries under 20 000 readers. The cascade
    // used to scan every instance's reads once per failed task — 4·10⁸
    // visits here; along the graph's successor edges it is one visit each.
    const READERS: u64 = 20_000;
    let rt = Runtime::simulated(
        RuntimeConfig::single_node(8)
            .with_tracing(false)
            .with_retry(RetryPolicy { max_attempts: 2, same_node_first: true }),
    );
    let boom = rt.register("boom", Constraint::cpus(1), 1, |_, _| {
        Err::<Vec<Value>, _>(rcompss::TaskError::new("always fails"))
    });
    let read = rt.register("read", Constraint::cpus(1), 1, |_, i| Ok(vec![i[0].clone()]));
    let root = rt.submit(&boom, vec![]).unwrap().returns[0];
    let readers: Vec<DataHandle> = (0..READERS)
        .map(|_| rt.submit(&read, vec![ArgSpec::In(root)]).unwrap().returns[0])
        .collect();
    // The simulated backend runs nothing before the first synchronisation,
    // so every reader is in the graph when the root gives up.
    let t0 = std::time::Instant::now();
    rt.barrier();
    let took = t0.elapsed();
    println!("cascade over {READERS} readers: {took:?}");
    assert!(took.as_millis() < 1_000, "cascade over {READERS} readers took {took:?}");
    assert_eq!(rt.stats().failed, READERS + 1);
    assert_eq!(rt.failed_tasks(), (1..=READERS + 1).map(TaskId).collect::<Vec<_>>());
    assert_eq!(wait_u64(&rt, readers[7]), Err(WaitError::ProducerFailed(readers[7])));
    // A reader submitted after the failure meets the poison mark instead.
    let late = rt.submit(&read, vec![ArgSpec::In(root)]).unwrap();
    assert_eq!(wait_u64(&rt, late.returns[0]), Err(WaitError::ProducerFailed(late.returns[0])));
    assert_eq!(gauge(&rt, "rcompss_live_tasks"), 0.0);
}
