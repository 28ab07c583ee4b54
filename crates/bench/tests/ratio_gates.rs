//! Overhead gates stated as ratios: each cost is measured against the work
//! it rides on, in the same process a moment apart. A slow or busy box
//! slows both sides of a ratio alike, so no gate here reads a baseline
//! recorded on another machine, writes into the repository, or retries.
//!
//! Release only (a debug build would time its own overheads):
//!
//! ```sh
//! cargo test --release -p hpo-bench --test ratio_gates
//! ```
//!
//! The tests take turns on the CPUs (`one_at_a_time`), whatever
//! `--test-threads` says.

use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use rcompss::{
    ArgSpec, Constraint, DistributedConfig, Runtime, RuntimeConfig, TaskDef, TaskRegistry, Value,
    WorkerConfig, WorkerServer,
};
use tinyml::data::SyntheticSpec;
use tinyml::train::{train_with_checkpoints, Checkpointing, EpochSignal, TrainConfig};
use tinyml::{train_segment, Dataset, OptimizerKind, TrainSnapshot};

/// Serialises the tests of this file: each ratio is only as good as the
/// CPUs its two sides had to themselves.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// CPU seconds this process (driver and in-process workers) has used.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` with the layout 64-bit
    // Linux expects, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One root, then `tasks - 1` no-op children all reading its output: every
/// child becomes ready in a single completion.
fn no_op_fan_out(rt: &Runtime, task: &TaskDef, tasks: u64) {
    let root = rt.submit(task, vec![]).expect("submit root").returns[0];
    for _ in 1..tasks {
        rt.submit(task, vec![ArgSpec::In(root)]).expect("submit child");
    }
    rt.barrier();
    let stats = rt.stats();
    assert_eq!((stats.completed, stats.failed), (stats.submitted, 0), "every task completes");
}

fn no_op() -> TaskDef {
    TaskDef {
        name: "churn".into(),
        constraint: Constraint::cpus(1),
        returns: 1,
        priority: false,
        body: std::sync::Arc::new(|_, _| Ok(vec![Value::new(1u64)])),
        alternatives: Vec::new(),
    }
}

/// The fan-out on a `workers`-wide threaded pool.
fn threaded_pool(workers: u32, tasks: u64) {
    let rt = Runtime::threaded(
        RuntimeConfig::single_node(workers).with_tracing(false).with_metrics(false),
    );
    no_op_fan_out(&rt, &no_op(), tasks);
}

/// The fan-out on a 2-core threaded pool.
fn threaded(tasks: u64) {
    threaded_pool(2, tasks);
}

/// The fan-out on two one-core loopback daemons: every task crosses a TCP
/// socket both ways.
fn loopback(tasks: u64) {
    let task = no_op();
    let registry = TaskRegistry::new().with(task.clone());
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let cfg = WorkerConfig { name: format!("gate-w{i}"), cores: 1, ..Default::default() };
            WorkerServer::bind("127.0.0.1:0", cfg, registry.clone())
                .expect("bind loopback worker")
                .spawn()
                .expect("spawn worker")
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
    // Declared after the workers, so it shuts its connections down first.
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1).with_tracing(false).with_metrics(false),
        &addrs,
        DistributedConfig::default(),
    )
    .expect("connect to loopback workers");
    no_op_fan_out(&rt, &task, tasks);
}

/// CPU µs per task of `run` over `tasks` tasks. CPU time, not wall time:
/// a box's 100k wall rates spread 2–4× between runs, its CPU-per-task
/// ratios about 1.0–1.3.
fn cpu_us_per_task(tasks: u64, run: impl FnOnce(u64)) -> f64 {
    let c0 = process_cpu_s();
    run(tasks);
    (process_cpu_s() - c0) * 1e6 / tasks as f64
}

/// The median of three readings of `ratio`.
fn median_of_three(mut ratio: impl FnMut() -> f64) -> f64 {
    let mut ratios = [ratio(), ratio(), ratio()];
    ratios.sort_by(f64::total_cmp);
    ratios[1]
}

/// Median of three CPU-per-task ratios, 100k tasks ÷ 10k.
fn cpu_growth(backend: &str, run: fn(u64)) -> f64 {
    median_of_three(|| {
        // Large first: a 10k run on a heap no 100k run has grown yet reads
        // about half the CPU per task it reads after one, which would
        // inflate the first ratio only.
        let (large, small) = (cpu_us_per_task(100_000, run), cpu_us_per_task(10_000, run));
        println!(
            "{backend:<9} 10k {small:>6.1} us/task   100k {large:>6.1} us/task   ratio {:.2}",
            large / small
        );
        large / small
    })
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times release code")]
fn cpu_per_task_does_not_grow_with_the_graph() {
    let _turn = one_at_a_time();
    // For scale: a pass over every submitted task per wake-up read 2.3–24
    // on the loopback pool.
    for (backend, run) in [("threaded", threaded as fn(u64)), ("loopback", loopback)] {
        let median = cpu_growth(backend, run);
        assert!(
            median <= 2.0,
            "{backend}: CPU per task grows with the graph, median ratio {median:.2}"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times release code")]
fn a_wide_pool_costs_what_a_narrow_one_does() {
    let _turn = one_at_a_time();
    // 64 workers park on one queue: a push must wake one of them, not all.
    // For scale: waking every parked worker per push read 23–34.
    let median = median_of_three(|| {
        // Wide first, so any warm-heap advantage goes to the narrow side.
        let wide = cpu_us_per_task(20_000, |n| threaded_pool(64, n));
        let narrow = cpu_us_per_task(20_000, |n| threaded_pool(2, n));
        println!(
            "threaded   2 workers {narrow:>6.1} us/task   64 workers {wide:>6.1} us/task   ratio {:.2}",
            wide / narrow
        );
        wide / narrow
    });
    assert!(median <= 3.0, "a 64-worker pool costs {median:.2}x a 2-worker one per task");
}

const EPOCHS: u32 = 12;

/// Epochs/s of one MLP training ([32], Adam, batch 64) through
/// `train_with_checkpoints`, saving into a `DirStore` under `dir` every
/// `every` epochs (`0` = off): the path the HPO objective takes.
fn epochs_per_s(data: &Dataset, every: u32, dir: &Path) -> f64 {
    let cfg = TrainConfig {
        epochs: EPOCHS,
        batch_size: 64,
        hidden_layers: vec![32],
        threads: 1,
        ..TrainConfig::default()
    };
    let store = ckpt::DirStore::open(dir).expect("open snapshot store");
    let mut saves = 0u32;
    let mut sink = |snap: &TrainSnapshot| {
        saves += 1;
        store.save(0x8E7C, &snap.encode()).expect("save snapshot");
    };
    let t0 = Instant::now();
    let history = train_with_checkpoints(
        &cfg,
        data,
        Checkpointing { every, resume: None, sink: if every > 0 { Some(&mut sink) } else { None } },
        &mut |_, _, _| EpochSignal::Continue,
    );
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(history.epochs_run(), EPOCHS as usize, "trains the full budget");
    // The cadence skips the final epoch: the outcome supersedes it.
    assert_eq!(saves, (EPOCHS - 1).checked_div(every).unwrap_or(0), "snapshot cadence");
    f64::from(EPOCHS) / wall
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times release code")]
fn a_snapshot_every_epoch_costs_little() {
    let _turn = one_at_a_time();
    let data = Dataset::synthetic("gate-mnist", 2_000, &SyntheticSpec::mnist_like(), 7);
    let dir = std::env::temp_dir().join(format!("ratio-gates-{}", std::process::id()));
    // Off and every-epoch alternate, so each pair shares whatever the box
    // was doing at the time.
    let mut ratios: Vec<f64> = (0..5)
        .map(|_| {
            let off = epochs_per_s(&data, 0, &dir);
            let every = epochs_per_s(&data, 1, &dir);
            println!(
                "off {off:>6.1} epochs/s   every epoch {every:>6.1}   ratio {:.3}",
                every / off
            );
            every / off
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    ratios.sort_by(f64::total_cmp);
    let median = ratios[2];
    assert!(median >= 0.8, "a snapshot every epoch costs over 20 %: median ratio {median:.3}");
}

/// Process CPU seconds per call of `f`, over `calls` calls.
fn cpu_s_per_call(calls: u32, mut f: impl FnMut()) -> f64 {
    let c0 = process_cpu_s();
    for _ in 0..calls {
        f();
    }
    (process_cpu_s() - c0) / f64::from(calls)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times release code")]
fn a_snapshot_codes_at_copy_speed() {
    let _turn = one_at_a_time();
    // A `staged_net` fork: 784→16→10 MLP, Adam, one epoch (≈ 150 KB).
    let data = Dataset::synthetic("gate-fork", 500, &SyntheticSpec::mnist_like(), 7);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 32,
        optimizer: OptimizerKind::Adam,
        hidden_layers: vec![16],
        threads: 1,
        ..TrainConfig::default()
    };
    let snap = train_segment(&cfg, &data, Checkpointing::default(), 1);
    let bytes = snap.encode();
    assert_eq!(TrainSnapshot::decode(&bytes).as_ref(), Some(&snap), "the snapshot round-trips");
    const CALLS: u32 = 2_000;
    // Copy, encode and decode take turns in each round, so all three
    // share whatever the box was doing at the time.
    let rounds: Vec<[f64; 3]> = (0..3)
        .map(|_| {
            let copy = cpu_s_per_call(CALLS, || {
                std::hint::black_box(std::hint::black_box(&bytes).to_vec());
            });
            let encode = cpu_s_per_call(CALLS, || {
                std::hint::black_box(std::hint::black_box(&snap).encode());
            });
            let decode = cpu_s_per_call(CALLS, || {
                std::hint::black_box(TrainSnapshot::decode(std::hint::black_box(&bytes)));
            });
            println!(
                "{} bytes   copy {:>6.1} us   encode {:>6.1} us ({:.1}x)   decode {:>6.1} us ({:.1}x)",
                bytes.len(),
                copy * 1e6,
                encode * 1e6,
                encode / copy,
                decode * 1e6,
                decode / copy
            );
            [copy, encode, decode]
        })
        .collect();
    let median = |i: usize| {
        let mut v: Vec<f64> = rounds.iter().map(|r| r[i]).collect();
        v.sort_by(f64::total_cmp);
        v[1]
    };
    let (copy, encode, decode) = (median(0), median(1), median(2));
    // For scale: one element at a time read 12.8–16.2x.
    assert!(encode <= 6.0 * copy, "encode costs {:.1}x a copy of its bytes", encode / copy);
    assert!(decode <= 6.0 * copy, "decode costs {:.1}x a copy of its bytes", decode / copy);
}
