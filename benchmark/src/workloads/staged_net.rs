//! `staged_net` — a 24-config grid with step-decay and epoch axes through
//! `HpoRunner::run_staged` on the distributed runtime. Shared prefixes
//! train once and every fork snapshot crosses the content-addressed block
//! plane, so this is where `stagetree`, `blocks`, the snapshot codecs and
//! `rnet` with few large frames show — and where the stage tree's price,
//! rows that only appear when the whole tree is done, is measured.

use std::ops::Range;
use std::time::{Duration, Instant};

use hpo::experiment::tinyml_objective;
use hpo::runner::{materialize, StageStats};
use hpo::stagetree::{stage_task_def, StageObjective};
use hpo::{Config, ExperimentOptions, GridSearch, HpoRunner, SearchSpace, TrialResult};
use rcompss::{DistributedConfig, Runtime, TaskRegistry, WorkerHandle};

use super::{
    connect, runtime_config, spawn_workers, traced_task, unfinished, wire_bytes, Metrics, Recorder,
    Shape, Verdict, Workload, POOL_CORES,
};
use crate::gen::SweepInputs;
use crate::spans;

/// Trials of one round's grid (2 optimizers × 3 decay points × 4 epoch
/// counts).
pub const TRIALS: usize = 24;
const SAMPLES: usize = 320;
const DIM: usize = 784;
const HIDDEN: [usize; 1] = [16];

/// Task outputs are declared `default_value_bytes` (1 KiB) large; with the
/// threshold at that size every fork snapshot (≈ 150 KiB encoded) is routed
/// as a content-addressed block, which is what this workload is for.
const INLINE_THRESHOLD: u64 = 1024;
/// Per-worker block cache: about four rounds of fork snapshots, so the
/// LRU evicts steadily while the measured rounds run.
const CACHE_MEM_BYTES: u64 = 16 * 1024 * 1024;

/// ≈ 0.057 s per round at the seed commit.
pub const SHAPE: Shape =
    Shape { rounds_per_sec: 17.5, warmup_rounds: 6, one_cpu: false, chunk_rounds: 1 };

/// Generate the dataset and every round's search space. A new learning
/// rate per round means new trajectories, hence new snapshot blocks.
pub fn inputs(seed: u64, rounds: usize) -> SweepInputs {
    SweepInputs::generate(seed, "staged_net", (SAMPLES, DIM), rounds, |lr| {
        format!(
            "{{\"optimizer\": [\"Adam\", \"SGD\"], \"lr_decay_every\": [0, 2, 3], \
             \"num_epochs\": [3, 4, 5, 6], \"batch_size\": [32], \"learning_rate\": [{lr}]}}"
        )
    })
}

fn configs(space_json: &str) -> Vec<Config> {
    let space = SearchSpace::from_json(space_json).expect("generated space");
    materialize(&mut GridSearch::new(&space))
}

/// The built workload. Field order is drop order: runtime before workers.
pub struct StagedNet {
    inputs: SweepInputs,
    runner: HpoRunner,
    stage: StageObjective,
    results: Vec<Vec<TrialResult>>,
    stats: StageStats,
    baseline: Option<(runmetrics::MetricsSnapshot, runmetrics::MetricsSnapshot)>,
    rt: Runtime,
    _workers: Vec<WorkerHandle>,
}

impl StagedNet {
    /// Generate inputs, spawn the two loopback workers with the stage task
    /// registered, connect the distributed runtime.
    pub fn build(seed: u64, rounds: usize) -> StagedNet {
        let inputs = inputs(seed, rounds);
        hpo::wire::register_hpo_codecs();
        // The block-cache counters live in the process-global registry.
        runmetrics::global().set_enabled(spans::enabled());
        let opts = ExperimentOptions::default();
        let stage = StageObjective::new(inputs.data.clone(), HIDDEN.to_vec());
        // `tinyml.train` here too, so the CPU share reads the same way on
        // every workload that trains.
        let def = traced_task(stage_task_def(&opts, &stage), "tinyml.train");
        let workers = spawn_workers(&TaskRegistry::new().with(def), CACHE_MEM_BYTES);
        let dcfg = DistributedConfig { inline_threshold: INLINE_THRESHOLD, ..Default::default() };
        let rt = connect(&workers, spans::enabled(), dcfg);
        StagedNet {
            inputs,
            runner: HpoRunner::new(opts),
            stage,
            results: vec![Vec::new(); rounds],
            stats: StageStats::default(),
            baseline: None,
            rt,
            _workers: workers,
        }
    }
}

impl Workload for StagedNet {
    fn mark(&mut self) {
        self.stats = StageStats::default();
        self.baseline = Some((self.rt.metrics().snapshot(), runmetrics::global().snapshot()));
    }

    fn run_rounds(&mut self, rounds: Range<usize>, rec: &mut Recorder) -> Duration {
        let mut busy = Duration::ZERO;
        for r in rounds {
            spans::set_round(r as u32);
            let t0 = Instant::now();
            let configs = configs(&self.inputs.spaces[r]);
            let (report, stats) = {
                let _span = spans::span("hpo.runner.run_staged", r as u32);
                self.runner
                    .run_staged(&self.rt, "grid", &configs, &self.stage, None, |_| rec.op(t0))
                    .expect("staged sweep submits")
            };
            busy += rec.end_round(t0);
            self.results[r] = report.trials;
            self.stats.segments += stats.segments;
            self.stats.forks += stats.forks;
            self.stats.naive_epochs += stats.naive_epochs;
            self.stats.staged_epochs += stats.staged_epochs;
        }
        busy
    }

    fn layer_metrics(&mut self, ops: u64, out: &mut Metrics) {
        let rounds = (ops as f64 / TRIALS as f64).max(1.0);
        let s = &self.stats;
        out.insert(
            "hpo.stagetree.epochs_saved_ratio".into(),
            s.epochs_saved() as f64 / (s.naive_epochs as f64).max(1.0),
        );
        out.insert("hpo.stagetree.forks_per_round".into(), s.forks as f64 / rounds);
        let Some((rt0, global0)) = &self.baseline else { return };
        let rt1 = self.rt.metrics().snapshot();
        let wire = wire_bytes(&rt1) - wire_bytes(rt0);
        out.insert("rcompss.distributed.wire_bytes_per_op".into(), wire as f64 / ops as f64);
        let global1 = runmetrics::global().snapshot();
        let delta =
            |name: &str| global1.counter(name).unwrap_or(0) - global0.counter(name).unwrap_or(0);
        let hits = delta("rcompss_block_cache_hits_total") as f64;
        let misses = delta("rcompss_block_cache_misses_total") as f64;
        out.insert("rcompss.blocks.cache_hit_ratio".into(), hits / (hits + misses).max(1.0));
        out.insert(
            "rcompss.blocks.evictions_per_round".into(),
            delta("rcompss_block_cache_evictions_total") as f64 / rounds,
        );
        out.insert(
            "rcompss.blocks.resident_mb".into(),
            global1.gauge("rcompss_block_cache_resident_bytes").unwrap_or(0.0) / (1024.0 * 1024.0),
        );
    }

    fn verify(&mut self, measured: Range<usize>, _out: &mut Metrics) -> Verdict {
        let mut verdict = Verdict::default();
        let (first, last) = (measured.start, measured.end - 1);
        // The oracle: a naive (no prefix sharing) run of the same configs
        // on a threaded runtime, compared bit for bit.
        let oracle_rt = Runtime::threaded(runtime_config(POOL_CORES, false));
        let naive = HpoRunner::new(ExperimentOptions::default());
        let objective = tinyml_objective(self.inputs.data.clone(), HIDDEN.to_vec());
        for r in measured {
            let trials = &self.results[r];
            if trials.len() != TRIALS {
                verdict.check(Some(format!("round {r}: {} of {TRIALS} trials", trials.len())));
            }
            let oracle = (r == first || r == last).then(|| {
                let space = SearchSpace::from_json(&self.inputs.spaces[r]).expect("space");
                naive
                    .run(&oracle_rt, &mut GridSearch::new(&space), objective.clone())
                    .expect("naive sweep submits")
                    .trials
            });
            for (i, t) in trials.iter().enumerate() {
                let mut why = unfinished(t);
                if let (None, Some(oracle)) = (&why, &oracle) {
                    let same = oracle.get(i).is_some_and(|o| {
                        o.config == t.config
                            && o.outcome.accuracy.to_bits() == t.outcome.accuracy.to_bits()
                            && o.outcome.epoch_loss == t.outcome.epoch_loss
                            && o.outcome.epoch_accuracy == t.outcome.epoch_accuracy
                    });
                    if !same {
                        why = Some("differs from the naive threaded run".to_string());
                    }
                }
                verdict.check(why.map(|w| format!("round {r} {}: {w}", t.config.label())));
            }
        }
        verdict
    }
}
