//! Runtime task-churn throughput: tasks/sec through the threaded backend.
//!
//! The paper's runtime keeps hundreds of HPO trials saturating a 48-core
//! node; the analogous failure mode here is the *runtime's own* per-task
//! overhead — dispatch, completion, worker wakeup — dominating when task
//! bodies are tiny (the "Runtime vs Scheduler" decomposition of Dask's
//! overheads). This binary measures that churn directly: no-op and ~100 µs
//! spin tasks submitted as chain / fan-out / diamond graphs at several
//! worker-pool sizes, reporting tasks/sec end to end (first submission to
//! barrier return) with tracing, graph recording, and metrics all off.
//!
//! Modes:
//! * default — full scenario grid, table to stdout, JSON snapshot to
//!   `results/runtime_throughput.json`.
//! * `smoke` / `--smoke` — a fast subset, compared against the checked-in
//!   baseline (`crates/bench/baselines/runtime_throughput.json`); exits
//!   non-zero on a >20 % tasks/sec regression in any smoke scenario.
//!   Scenarios below threshold are re-measured up to four times with
//!   growing back-off before the gate fails, so transient slow windows on
//!   a shared CI box (noisy neighbours can halve effective CPU for
//!   seconds) don't flake it — only regressions that persist across
//!   re-measurement do.
//!   ci.sh runs this as a gate next to `overhead_tracing smoke`.
//! * `net` / `net_throughput` — the same churn shapes through the
//!   *distributed* backend: two in-process `WorkerServer`s on loopback
//!   TCP, so every task pays frame encode → socket → decode → execute →
//!   result frame. Gated against the same baseline file (keys prefixed
//!   `net_`); this is the wire-protocol overhead regression gate. The mode
//!   then gates *scaling* on CPU time, which a slow window of the box
//!   cannot fake: no-op fan-out on two one-core daemons at 10k and 100k
//!   tasks, process CPU per task, 100k ÷ 10k ≤ 2.0 in the median of three
//!   (a per-wake-up pass over every submitted task read 2.3–24).
//!
//! The baseline is machine-calibrated (median of three best-of-3 batches
//! on the box that recorded it — a typical fast measurement, not the
//! luckiest window); regenerate with `runtime_throughput rebaseline`
//! after intentional scheduler changes and commit the JSON alongside them.

use std::sync::Arc;
use std::time::Instant;

use hpo_bench::{banner, out_dir};
use rcompss::{
    ArgSpec, Constraint, DistributedConfig, Runtime, RuntimeConfig, TaskDef, TaskRegistry, Value,
    WorkerConfig, WorkerServer,
};

/// Task body flavour.
#[derive(Clone, Copy, PartialEq)]
enum Work {
    /// Return immediately — pure runtime overhead.
    Noop,
    /// Busy-spin ~100 µs of real work.
    Spin100,
}

/// Dependency shape of the submitted graph.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    /// One root, then `n-1` children all reading the root's output: every
    /// child becomes ready in a single completion — the dispatch storm that
    /// punishes an O(ready) scheduler scan hardest.
    FanOut,
    /// `n` strictly dependent tasks: measures per-task latency through
    /// submit → dispatch → complete → next-dispatch with no parallelism.
    Chain,
    /// Repeated fan-out/fan-in cells of width 8: alternating storms and
    /// joins, the shape of iterative HPO rounds.
    Diamond,
}

struct Scenario {
    work: Work,
    shape: Shape,
    workers: u32,
    tasks: u64,
    /// Run through the distributed backend (loopback workers) instead of
    /// the threaded one; `workers` cores are split across two daemons.
    net: bool,
    /// Key suffix distinguishing scenarios that differ only in task count
    /// (the 100k smoke entry).
    tag: &'static str,
}

impl Scenario {
    fn key(&self) -> String {
        let w = match self.work {
            Work::Noop => "noop",
            Work::Spin100 => "spin100",
        };
        let s = match self.shape {
            Shape::FanOut => "fanout",
            Shape::Chain => "chain",
            Shape::Diamond => "diamond",
        };
        let prefix = if self.net { "net_" } else { "" };
        format!("{prefix}{w}_{s}_w{}{}", self.workers, self.tag)
    }
}

fn body(work: Work) -> impl Fn() + Send + Sync + Clone {
    move || {
        if work == Work::Spin100 {
            let t0 = Instant::now();
            while t0.elapsed().as_micros() < 100 {
                std::hint::spin_loop();
            }
        }
    }
}

/// Run one scenario once; returns tasks/sec.
fn run(sc: &Scenario) -> f64 {
    if sc.net {
        return run_net(sc);
    }
    let cfg = RuntimeConfig::single_node(sc.workers).with_tracing(false).with_metrics(false);
    let rt = Runtime::threaded(cfg);
    let work = body(sc.work);
    let task = rt.register("churn", Constraint::cpus(1), 1, move |_, _| {
        work();
        Ok(vec![Value::new(1u64)])
    });
    measure(&rt, &task, sc)
}

/// Same churn, but through the distributed backend: two in-process
/// loopback workers splitting `sc.workers` cores between them, so every
/// dispatch and completion crosses a real TCP socket.
fn run_net(sc: &Scenario) -> f64 {
    let work = body(sc.work);
    let churn = TaskDef {
        name: "churn".into(),
        constraint: Constraint::cpus(1),
        returns: 1,
        priority: false,
        body: Arc::new(move |_, _| {
            work();
            Ok(vec![Value::new(1u64)])
        }),
        alternatives: Vec::new(),
    };
    let registry = TaskRegistry::new().with(churn);
    let per_worker = (sc.workers / 2).max(1);
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let cfg = WorkerConfig {
                name: format!("bench-w{i}"),
                cores: per_worker,
                ..WorkerConfig::default()
            };
            WorkerServer::bind("127.0.0.1:0", cfg, registry.clone())
                .expect("bind loopback worker")
                .spawn()
                .expect("spawn worker")
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
    let cfg = RuntimeConfig::single_node(1).with_tracing(false).with_metrics(false);
    let rt = Runtime::distributed(cfg, &addrs, DistributedConfig::default())
        .expect("connect to loopback workers");
    let task = registry.get("churn").expect("registered").clone();
    let tps = measure(&rt, &task, sc);
    drop(rt); // shut the connections down before the workers drop
    tps
}

/// Submit the scenario's graph shape, wait for the barrier, and return
/// tasks/sec (first submission to barrier return).
fn measure(rt: &Runtime, task: &TaskDef, sc: &Scenario) -> f64 {
    let n = sc.tasks;
    let t0 = Instant::now();
    match sc.shape {
        Shape::FanOut => {
            let root = rt.submit(task, vec![]).expect("submit root").returns[0];
            for _ in 1..n {
                rt.submit(task, vec![ArgSpec::In(root)]).expect("submit child");
            }
        }
        Shape::Chain => {
            let mut prev = rt.submit(task, vec![]).expect("submit head").returns[0];
            for _ in 1..n {
                prev = rt.submit(task, vec![ArgSpec::In(prev)]).expect("submit link").returns[0];
            }
        }
        Shape::Diamond => {
            const WIDTH: u64 = 8;
            let mut join = rt.submit(task, vec![]).expect("submit root").returns[0];
            let mut left = n.saturating_sub(1);
            while left > 0 {
                let fan = WIDTH.min(left);
                let mids: Vec<_> = (0..fan)
                    .map(|_| rt.submit(task, vec![ArgSpec::In(join)]).expect("mid").returns[0])
                    .collect();
                left -= fan;
                if left == 0 {
                    break;
                }
                let args: Vec<ArgSpec> = mids.iter().map(|&h| ArgSpec::In(h)).collect();
                join = rt.submit(task, args).expect("join").returns[0];
                left -= 1;
            }
        }
    }
    rt.barrier();
    let wall = t0.elapsed().as_secs_f64();
    let stats = rt.stats();
    assert_eq!(stats.completed, stats.submitted, "all tasks must complete");
    assert_eq!(stats.failed, 0);
    stats.completed as f64 / wall
}

/// Best tasks/sec over `reps` runs (scheduling noise is one-sided: take max).
fn best_of(sc: &Scenario, reps: u32) -> f64 {
    (0..reps).map(|_| run(sc)).fold(0.0f64, f64::max)
}

/// Median of three best-of-`reps` batches. Baselines are recorded with
/// this rather than a single batch: a shared box is bimodal (noisy
/// neighbours can halve effective CPU for seconds), and a baseline taken
/// in the luckiest window is a ceiling later gate runs can't reliably
/// clear. The median of three spaced batches is a *typical* fast
/// measurement instead.
fn typical_of(sc: &Scenario, reps: u32) -> f64 {
    let mut batches: Vec<f64> = (0..3)
        .map(|i| {
            if i > 0 {
                std::thread::sleep(std::time::Duration::from_secs(2));
            }
            best_of(sc, reps)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[1]
}

fn sc(work: Work, shape: Shape, workers: u32, tasks: u64) -> Scenario {
    Scenario { work, shape, workers, tasks, net: false, tag: "" }
}

fn full_grid() -> Vec<Scenario> {
    let mut grid = Vec::new();
    for &workers in &[1u32, 4, 16, 64] {
        grid.push(sc(Work::Noop, Shape::FanOut, workers, 8_000));
        grid.push(sc(Work::Noop, Shape::Chain, workers, 3_000));
        grid.push(sc(Work::Noop, Shape::Diamond, workers, 4_000));
        grid.push(sc(Work::Spin100, Shape::FanOut, workers, 2_000));
    }
    grid
}

fn smoke_grid() -> Vec<Scenario> {
    vec![
        sc(Work::Noop, Shape::FanOut, 16, 4_000),
        sc(Work::Noop, Shape::Chain, 4, 1_500),
        sc(Work::Noop, Shape::Diamond, 16, 2_000),
        sc(Work::Spin100, Shape::FanOut, 16, 800),
        // The 100k-task storm: graph build, ready-queue churn, and
        // completion fan-in at two orders of magnitude above the other
        // smoke entries — catches superlinear overhead the small
        // scenarios hide.
        Scenario { tag: "_100k", ..sc(Work::Noop, Shape::FanOut, 16, 100_000) },
    ]
}

/// Distributed-backend churn over loopback: the wire-protocol gate.
/// Kept small — every task is a full RPC round trip, so these are orders
/// of magnitude slower per task than the in-process scenarios.
fn net_grid() -> Vec<Scenario> {
    vec![
        Scenario { net: true, ..sc(Work::Noop, Shape::FanOut, 4, 600) },
        Scenario { net: true, ..sc(Work::Noop, Shape::Chain, 2, 200) },
        Scenario { net: true, ..sc(Work::Spin100, Shape::FanOut, 4, 300) },
    ]
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

/// The scaling gate of `net_throughput`: CPU per task of the no-op fan-out
/// on two one-core loopback daemons must not grow with the number of tasks
/// the graph already holds. CPU time, not wall time: this box's 100k wall
/// rates for one binary spread 2–4× between runs, its CPU-per-task ratios
/// 1.03–1.15.
fn cpu_scaling_gate() {
    let cpu_us_per_task = |tasks: u64| {
        let c0 = process_cpu_s();
        run(&Scenario { net: true, ..sc(Work::Noop, Shape::FanOut, 2, tasks) });
        (process_cpu_s() - c0) * 1e6 / tasks as f64
    };
    println!("\ngate: CPU per task at 100k tasks <= 2.0x CPU per task at 10k (median of 3)");
    let mut ratios: Vec<f64> = (0..3)
        .map(|_| {
            // Large first: a 10k run on a heap no 100k run has grown yet
            // reads 42 µs/task against 75–79 after one, which would
            // inflate the first ratio only.
            let (large, small) = (cpu_us_per_task(100_000), cpu_us_per_task(10_000));
            println!(
                "  10k {small:>7.1} us/task   100k {large:>7.1} us/task   ratio {:.2}",
                large / small
            );
            large / small
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    assert!(ratios[1] <= 2.0, "CPU per task grows with graph size: median ratio {:.2}", ratios[1]);
}

fn write_json(path: &std::path::Path, rows: &[(String, f64)]) {
    let mut s = String::from("{\n");
    for (i, (k, v)) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        s.push_str(&format!("  \"{k}\": {v:.1}{sep}\n"));
    }
    s.push_str("}\n");
    std::fs::write(path, s).expect("write json");
}

/// Parse the flat `{"key": number, ...}` JSON this binary writes.
fn read_json(path: &std::path::Path) -> Option<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else { continue };
        let Some((key, val)) = rest.split_once("\":") else { continue };
        if let Ok(v) = val.trim().parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    Some(out)
}

fn baseline_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("baselines")
        .join("runtime_throughput.json")
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let smoke = mode == "smoke" || mode == "--smoke";
    let net = mode == "net" || mode == "net_throughput";
    let rebaseline = mode == "rebaseline";
    banner(
        "Runtime throughput",
        "tasks/sec through the threaded and distributed backends (chain / fan-out / diamond)",
    );

    let grid = if net {
        net_grid()
    } else if smoke {
        smoke_grid()
    } else if rebaseline {
        let mut g = smoke_grid();
        g.extend(net_grid());
        g
    } else {
        let mut g = full_grid();
        g.extend(net_grid());
        g
    };
    let reps = if smoke || net || rebaseline { 3 } else { 2 };
    // Warm up thread-spawn and allocator paths.
    let _ = run(&sc(Work::Noop, Shape::Chain, 4, 200));

    println!(
        "{:<26} {:>8} {:>8} {:>14} {:>10}",
        "scenario", "workers", "tasks", "tasks/sec", "us/task"
    );
    let mut rows: Vec<(String, f64)> = Vec::new();
    for sc in &grid {
        // Baselines record a typical fast batch (median of three), not a
        // single lucky one — see `typical_of`.
        let tps = if rebaseline { typical_of(sc, reps) } else { best_of(sc, reps) };
        println!(
            "{:<26} {:>8} {:>8} {:>14.0} {:>10.2}",
            sc.key(),
            sc.workers,
            sc.tasks,
            tps,
            1e6 / tps
        );
        rows.push((sc.key(), tps));
    }

    if rebaseline {
        let path = baseline_path();
        std::fs::create_dir_all(path.parent().unwrap()).expect("baseline dir");
        write_json(&path, &rows);
        println!("\nbaseline written to {}", path.display());
        return;
    }

    let out = out_dir().join("runtime_throughput.json");
    write_json(&out, &rows);
    println!("\nJSON snapshot: {}", out.display());

    if net {
        cpu_scaling_gate();
    }
    if smoke || net {
        let path = baseline_path();
        let Some(baseline) = read_json(&path) else {
            println!("no baseline at {} — gate skipped (run `rebaseline`)", path.display());
            return;
        };
        let base_for =
            |key: &str| baseline.iter().find(|(k, b)| k == key && *b > 0.0).map(|(_, b)| *b);
        // A shared CI box can halve its effective CPU for seconds at a time
        // (noisy neighbours, frequency throttling). A *real* regression
        // survives re-measurement; a slow window does not — so scenarios
        // below threshold are re-measured up to `RETRIES` times with
        // growing back-off (slow windows can outlast a few seconds),
        // keeping the best observed rate, before the gate fails.
        const RETRIES: u32 = 4;
        for round in 0..RETRIES {
            let failing: Vec<usize> = rows
                .iter()
                .enumerate()
                .filter(|(_, (key, tps))| base_for(key).is_some_and(|b| tps / b < 0.8))
                .map(|(i, _)| i)
                .collect();
            if failing.is_empty() {
                break;
            }
            println!(
                "\nretry {}/{RETRIES}: re-measuring {} scenario(s) below threshold",
                round + 1,
                failing.len()
            );
            std::thread::sleep(std::time::Duration::from_secs(2u64 << round));
            for i in failing {
                let again = best_of(&grid[i], reps);
                println!("  {:<22} {:>14.0} (was {:.0})", rows[i].0, again, rows[i].1);
                rows[i].1 = rows[i].1.max(again);
            }
        }
        let mut failed = false;
        println!("\ngate: >= 80% of baseline tasks/sec (best across retries)");
        for (key, tps) in &rows {
            match base_for(key) {
                Some(base) => {
                    let ratio = tps / base;
                    let verdict = if ratio >= 0.8 { "ok" } else { "REGRESSION" };
                    println!("  {key:<22} {tps:>12.0} vs {base:>12.0}  ({ratio:>5.2}x) {verdict}");
                    if ratio < 0.8 {
                        failed = true;
                    }
                }
                None => println!("  {key:<22} {tps:>12.0} (no baseline entry)"),
            }
        }
        assert!(!failed, "tasks/sec regressed >20% vs checked-in baseline");
        println!("OK");
    }
}
