//! How many times a no-op task puts a thread to sleep on the distributed
//! backend: the benchmark's `churn_net` cell — a 16-wide fan-out over a
//! root literal and a join over the 16 — on two one-core loopback workers,
//! every handle waited on and then deleted, all on one CPU as the benchmark
//! runs it. `getrusage(RUSAGE_SELF)` counts the context switches, voluntary
//! and involuntary, of every thread of the process: the driver, its event
//! loop, both workers' loops and their executors. In a test binary of its
//! own so no other test switches; its two tests, one bound for the debug
//! build and a tighter one for release code, take turns.

use std::sync::Arc;

use rcompss::{
    ArgSpec, Constraint, DistributedConfig, Runtime, RuntimeConfig, TaskDef, TaskRegistry, Value,
    WorkerConfig, WorkerServer,
};

mod sys {
    pub const RUSAGE_SELF: i32 = 0;
    /// `struct rusage`: two `timeval`s, then fourteen `long`s.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub longs: [i64; 14],
    }
    /// A `cpu_set_t`: 1024 CPUs, one bit each.
    pub type CpuSet = [u64; 16];
    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
}

/// Confine the calling thread, and every thread it spawns from now on, to
/// the highest-numbered CPU it may run on.
fn pin_to_one_cpu() {
    let (mut allowed, size) = ([0; 16], std::mem::size_of::<sys::CpuSet>());
    // SAFETY: `allowed` is a writable buffer of the `size` bytes passed; pid
    // 0 is the calling thread.
    assert_eq!(unsafe { sys::sched_getaffinity(0, size, &mut allowed) }, 0);
    let word = allowed.iter().rposition(|&w| w != 0).expect("a CPU is allowed");
    let mut one = [0; 16];
    one[word] = 1 << (63 - allowed[word].leading_zeros());
    // SAFETY: `one` is a readable buffer of the `size` bytes passed.
    assert_eq!(unsafe { sys::sched_setaffinity(0, size, &one) }, 0);
}

/// Context switches of this process so far.
fn switches() -> u64 {
    let mut usage = sys::Rusage::default();
    // SAFETY: `usage` is a live `struct rusage` for the whole call.
    assert_eq!(unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut usage) }, 0);
    // `ru_nvcsw` and `ru_nivcsw` are the last two.
    (usage.longs[12] + usage.longs[13]) as u64
}

/// Tasks reading a round's root.
const FAN_OUT: usize = 16;
/// Rounds before counting: every function's streak is reached.
const WARMUP_ROUNDS: usize = 200;
const ROUNDS: usize = 400;

/// The bound per task. Four alternating runs of this binary (debug build)
/// read 2.48–2.50 while every task woke an executor, and 1.32–1.42 once a
/// fast body ran on the worker's event loop.
const BOUND_PER_TASK: f64 = 1.9;

/// What a task returns for `inputs`.
fn fold(inputs: impl Iterator<Item = u64>) -> u64 {
    let sum = inputs.fold(0u64, u64::wrapping_add);
    sum.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407)
}

/// Runs of [`switches_per_task`] one at a time: `getrusage` counts every
/// thread of the process.
static ALONE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The bound per task of the release build. Four alternating runs read
/// 1.31–1.35 while a submit wrote each of the first dispatches of a round
/// and only two tasks per worker were out, and 0.58–0.65 once a fast
/// function's tasks queued eight deep and a submit's flush waited for its
/// link's next answer; the debug build read 1.56–1.61 and 1.47–1.60, too
/// slow to tell.
const RELEASE_BOUND_PER_TASK: f64 = 0.9;

/// Context switches per no-op task over [`ROUNDS`] rounds of the cell,
/// after [`WARMUP_ROUNDS`].
fn switches_per_task() -> f64 {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    pin_to_one_cpu();
    let churn = TaskDef {
        name: "churn".into(),
        constraint: Constraint::cpus(1),
        returns: 1,
        priority: false,
        body: Arc::new(|_, inputs| {
            let inputs = inputs.iter().map(|v| *v.downcast_ref::<u64>().expect("u64 input"));
            Ok(vec![Value::new(fold(inputs))])
        }),
        alternatives: Vec::new(),
    };
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let cfg = WorkerConfig { name: format!("w{i}"), cores: 1, ..WorkerConfig::default() };
            let registry = TaskRegistry::new().with(churn.clone());
            WorkerServer::bind("127.0.0.1:0", cfg, registry).expect("bind").spawn().expect("spawn")
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1).with_tracing(false).with_metrics(false),
        &addrs,
        DistributedConfig::default(),
    )
    .expect("connect");

    let mut handles = Vec::with_capacity(FAN_OUT + 1);
    let mut round = |r: usize| {
        let root = rt.literal(r as u64);
        handles.clear();
        for _ in 0..FAN_OUT {
            handles.push(rt.submit(&churn, vec![ArgSpec::In(root)]).expect("submit").returns[0]);
        }
        let mids = handles.iter().map(|&h| ArgSpec::In(h)).collect();
        handles.push(rt.submit(&churn, mids).expect("submit join").returns[0]);
        let mid = fold(std::iter::once(r as u64));
        for (i, h) in handles.iter().enumerate() {
            let got = *rt.wait_on(h).expect("task ran").downcast_ref::<u64>().expect("u64");
            let want = if i < FAN_OUT { mid } else { fold(std::iter::repeat_n(mid, FAN_OUT)) };
            assert_eq!(got, want, "round {r} task {i}");
        }
        for &h in handles.iter().chain([&root]) {
            rt.delete(h);
        }
    };
    (0..WARMUP_ROUNDS).for_each(&mut round);
    let before = switches();
    (WARMUP_ROUNDS..WARMUP_ROUNDS + ROUNDS).for_each(&mut round);
    let per_task = (switches() - before) as f64 / (ROUNDS * (FAN_OUT + 1)) as f64;
    let stats = rt.stats();
    assert_eq!((stats.completed, stats.failed), (stats.submitted, 0));
    per_task
}

#[test]
fn a_no_op_task_switches_at_most_the_bound() {
    let per_task = switches_per_task();
    println!("context switches per no-op task: {per_task:.2} (bound {BOUND_PER_TASK})");
    assert!(
        per_task <= BOUND_PER_TASK,
        "{per_task:.2} context switches per no-op task; the bound is {BOUND_PER_TASK}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times release code")]
fn a_release_no_op_task_switches_at_most_the_release_bound() {
    let per_task = switches_per_task();
    let bound = RELEASE_BOUND_PER_TASK;
    println!("context switches per no-op task, release: {per_task:.2} (bound {bound})");
    assert!(
        per_task <= bound,
        "{per_task:.2} context switches per no-op task in release; the bound is {bound}"
    );
}
