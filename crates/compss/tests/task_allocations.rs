//! What one no-op task costs the heap on the distributed backend: the
//! benchmark's `churn_net` cell — a 16-wide fan-out over a root literal and
//! a join over the 16 — on two one-core loopback workers, every handle
//! waited on and then deleted. Every call that asks the allocator for
//! memory (`alloc`, `alloc_zeroed`, `realloc`) is counted, on every thread
//! of the process: the driver, its event loop, both workers' loops and
//! their executors. In a test binary of its own so nothing else allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rcompss::{
    ArgSpec, Constraint, DistributedConfig, Runtime, RuntimeConfig, TaskDef, TaskRegistry, Value,
    WorkerConfig, WorkerServer,
};

/// Allocator calls so far.
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Tasks reading a round's root.
const FAN_OUT: usize = 16;
/// Rounds before counting: connection buffers, maps and queues reach their
/// working size.
const WARMUP_ROUNDS: usize = 200;
const ROUNDS: usize = 400;

/// Allocator calls per task of the same cell before the per-task diet
/// (the runtime as it was at `b72912b`, this binary, debug build).
const PARENT_PER_TASK: f64 = 54.0;

/// The budget: at most 40 % of the parent's count.
const BUDGET_PER_TASK: f64 = 0.4 * PARENT_PER_TASK;

/// What a task returns for `inputs`.
fn fold(inputs: impl Iterator<Item = u64>) -> u64 {
    let sum = inputs.fold(0u64, u64::wrapping_add);
    sum.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407)
}

#[test]
fn a_no_op_task_allocates_at_most_the_budget() {
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
    let before = CALLS.load(Ordering::Relaxed);
    (WARMUP_ROUNDS..WARMUP_ROUNDS + ROUNDS).for_each(&mut round);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    let per_task = calls as f64 / (ROUNDS * (FAN_OUT + 1)) as f64;
    println!(
        "allocations per no-op task: {per_task:.1} (budget {BUDGET_PER_TASK:.1}, parent \
         {PARENT_PER_TASK})"
    );
    assert!(
        per_task <= BUDGET_PER_TASK,
        "{per_task:.1} allocations per no-op task; the budget is {BUDGET_PER_TASK:.1}"
    );
    let stats = rt.stats();
    assert_eq!((stats.completed, stats.failed), (stats.submitted, 0));
}
