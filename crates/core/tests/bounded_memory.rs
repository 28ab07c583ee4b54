//! The benchmark's `staged_net` loop — one stage tree per sweep over two
//! loopback workers, every fork snapshot through the block plane — without
//! the benchmark's own habit of keeping each round's report: the bytes the
//! process holds after four times the sweeps must be the bytes it held
//! after one. Counted at the allocator, which sees what `VmRSS` blurs with
//! fragmentation, and in a test binary of its own so nothing else allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hpo::runner::materialize;
use hpo::stagetree::{stage_task_def, StageObjective};
use hpo::{ExperimentOptions, GridSearch, HpoRunner, SearchSpace};
use rcompss::{
    DistributedConfig, Runtime, RuntimeConfig, TaskRegistry, WorkerConfig, WorkerServer,
};

/// Bytes requested and not yet freed.
static HELD: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HELD.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HELD.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SWEEPS: usize = 8;

#[test]
fn staged_sweeps_hold_no_more_after_four_times_as_many() {
    hpo::wire::register_hpo_codecs();
    let opts = ExperimentOptions::default();
    let stage = StageObjective::new(Arc::new(tinyml::Dataset::synthetic_mnist(64, 7)), vec![8]);
    let def = stage_task_def(&opts, &stage);
    // Caches of one sweep's worth of snapshots: full, and evicting, from
    // the second sweep on.
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let cfg = WorkerConfig {
                name: format!("w{i}"),
                cores: 1,
                cache_mem_bytes: 1 << 20,
                ..WorkerConfig::default()
            };
            let registry = TaskRegistry::new().with(def.clone());
            WorkerServer::bind("127.0.0.1:0", cfg, registry).expect("bind").spawn().expect("spawn")
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1).with_tracing(false),
        &addrs,
        DistributedConfig { inline_threshold: 1024, ..DistributedConfig::default() },
    )
    .expect("connect");
    let runner = HpoRunner::new(opts);

    // A new learning rate per sweep: new trajectories, new snapshot blocks.
    let mut sweep = |round: usize| {
        let space = SearchSpace::from_json(&format!(
            "{{\"optimizer\": [\"Adam\", \"SGD\"], \"lr_decay_every\": [0, 1], \
             \"num_epochs\": [1, 2, 3], \"learning_rate\": [{}]}}",
            0.001 + round as f64 * 1e-5
        ))
        .expect("space");
        let configs = materialize(&mut GridSearch::new(&space));
        let (report, stats) =
            runner.run_staged(&rt, "grid", &configs, &stage, None, |_| {}).expect("sweep submits");
        assert_eq!((report.trials.len(), report.failures()), (12, 0));
        assert!(stats.forks > 0, "snapshots crossed the block plane: {stats:?}");
    };
    (0..SWEEPS).for_each(&mut sweep);
    let once = HELD.load(Ordering::Relaxed);
    (SWEEPS..4 * SWEEPS).for_each(&mut sweep);
    let four_times = HELD.load(Ordering::Relaxed);
    println!("held after {SWEEPS} sweeps: {once} B, after {}: {four_times} B", 4 * SWEEPS);
    assert!(
        four_times as f64 <= once as f64 * 1.10,
        "the process holds {four_times} B after {} sweeps, {once} B after {SWEEPS}",
        4 * SWEEPS
    );
    let snap = rt.metrics().snapshot();
    for series in ["rcompss_live_tasks", "rcompss_live_data_versions", "rcompss_block_store_bytes"]
    {
        assert_eq!(snap.gauge(series), Some(0.0), "{series}");
    }
}
