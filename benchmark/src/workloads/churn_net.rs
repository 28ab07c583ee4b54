//! `churn_net` — zero-work tasks through the distributed runtime. Graph
//! insert, `pop_placeable`, the value codec, frame encode and flush,
//! worker decode, result ship and `apply_frames` are all of the work;
//! `tinyml` and `hpo` do nothing. Driver, I/O threads and both workers share
//! one CPU (see [`SHAPE`]).
//!
//! A round is one diamond cell, an iterative HPO round in miniature: the
//! driver submits 16 tasks reading the round's root and a join reading all
//! 16, `wait_on`s the 17 handles in submission order, and only then starts
//! the next round. The fan-out is throughput-bound (batching helps), the
//! wait for the join is round-trip-bound (a delayed flush hurts), so a
//! batching gain bought with latency shows in `op_latency_p50_us` and
//! `first_result_ms`. Deep-queue throughput without the driver in the loop
//! is the `rcompss.distributed.noop_fanout_task_ns` probe.

use std::ops::Range;
use std::time::{Duration, Instant};

use rcompss::{
    ArgSpec, DataHandle, DistributedConfig, Runtime, TaskDef, TaskRegistry, Value, WorkerHandle,
};

use super::{
    connect, one_core_task, spawn_workers, wire_bytes, Metrics, Recorder, Shape, Verdict, Workload,
    DEFAULT_CACHE_MEM,
};
use crate::gen;
use crate::spans;

/// Tasks reading the round's root.
const FAN_OUT: usize = 16;
/// Tasks per round: the fan-out and its join.
pub const OPS_PER_ROUND: usize = FAN_OUT + 1;

/// ≈ 0.46 ms per round (≈ 37k tasks/s) at the seed commit, on one CPU.
/// The warm-up is long so that set-up is not a few milliseconds of connect
/// and Hello, which no bound survives.
///
/// The pass is confined to one CPU. On two, every hand-over between the
/// driver, the I/O threads and the workers wakes a thread on the other
/// virtual CPU — an inter-processor interrupt through the hypervisor, to a
/// core that may have halted — and that cost, not the program's, was two
/// thirds of the CPU time per task and most of the noise (README,
/// "Noise"). A zero-work task has nothing to run in parallel anyway.
pub const SHAPE: Shape =
    Shape { rounds_per_sec: 2100.0, warmup_rounds: 750, one_cpu: true, chunk_rounds: 100 };

/// One step of the task body: cheap, and different for every input.
fn step(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407)
}

/// What a task returns for `inputs`.
fn fold(inputs: impl Iterator<Item = u64>) -> u64 {
    step(inputs.fold(0u64, u64::wrapping_add))
}

/// The values a round's tasks must return, in submission order.
fn expected(root: u64) -> Vec<u64> {
    let mid = fold(std::iter::once(root));
    let mut out = vec![mid; FAN_OUT];
    out.push(fold(std::iter::repeat_n(mid, FAN_OUT)));
    out
}

fn churn_task() -> TaskDef {
    one_core_task("churn", |inputs| {
        Ok(Value::new(fold(inputs.iter().map(|v| *v.downcast_ref::<u64>().expect("u64 input")))))
    })
}

/// What `--seed` turns into for this workload: the literal each round's
/// fan-out reads.
pub struct Inputs {
    roots: Vec<u64>,
}

impl Inputs {
    /// Generate every round's root value.
    pub fn generate(seed: u64, rounds: usize) -> Inputs {
        Inputs { roots: (0..rounds).map(|r| gen::round_seed(seed, "churn_net", r)).collect() }
    }

    /// Digest of the generated inputs.
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        let mut h = gen::Digest::new();
        self.roots.iter().for_each(|&r| h.u64(r));
        h.0
    }
}

/// The built workload. Field order is drop order: runtime before workers.
pub struct ChurnNet {
    inputs: Inputs,
    task: TaskDef,
    /// Values returned by every round run so far, in submission order;
    /// `None` where the task failed.
    values: Vec<Vec<Option<u64>>>,
    baseline: Option<runmetrics::MetricsSnapshot>,
    rt: Runtime,
    _workers: Vec<WorkerHandle>,
}

impl ChurnNet {
    /// Spawn the two loopback workers with the churn task registered and
    /// connect the distributed runtime.
    pub fn build(seed: u64, rounds: usize) -> ChurnNet {
        let inputs = Inputs::generate(seed, rounds);
        let task = churn_task();
        let workers = spawn_workers(&TaskRegistry::new().with(task.clone()), DEFAULT_CACHE_MEM);
        let rt = connect(&workers, spans::enabled(), DistributedConfig::default());
        ChurnNet {
            inputs,
            task,
            values: vec![Vec::new(); rounds],
            baseline: None,
            rt,
            _workers: workers,
        }
    }

    fn submit(&self, args: Vec<ArgSpec>, round: u32) -> DataHandle {
        let _span = spans::span("rcompss.runtime.submit", round);
        self.rt.submit(&self.task, args).expect("submit churn task").returns[0]
    }
}

impl Workload for ChurnNet {
    fn mark(&mut self) {
        self.baseline = Some(self.rt.metrics().snapshot());
    }

    fn run_rounds(&mut self, rounds: Range<usize>, rec: &mut Recorder) -> Duration {
        let mut busy = Duration::ZERO;
        let mut handles = Vec::with_capacity(OPS_PER_ROUND);
        for r in rounds {
            let round = r as u32;
            let t0 = Instant::now();
            handles.clear();
            let root = self.rt.literal(self.inputs.roots[r]);
            for _ in 0..FAN_OUT {
                handles.push(self.submit(vec![ArgSpec::In(root)], round));
            }
            let mids = handles.iter().map(|&h| ArgSpec::In(h)).collect();
            handles.push(self.submit(mids, round));
            let mut values = Vec::with_capacity(OPS_PER_ROUND);
            for h in &handles {
                let value = {
                    let _span = spans::span("rcompss.runtime.wait_on", round);
                    self.rt.wait_on(h)
                };
                rec.op(t0);
                values.push(value.ok().and_then(|v| v.downcast_ref::<u64>().copied()));
            }
            busy += rec.end_round(t0);
            self.values[r] = values;
        }
        busy
    }

    fn layer_metrics(&mut self, ops: u64, out: &mut Metrics) {
        let Some(before) = &self.baseline else { return };
        let after = self.rt.metrics().snapshot();
        let wire = wire_bytes(&after) - wire_bytes(before);
        out.insert("rcompss.distributed.wire_bytes_per_op".into(), wire as f64 / ops as f64);
        for phase in ["queue", "wire", "exec", "ship"] {
            let series = runmetrics::labeled("rcompss_task_phase_us", "phase", phase);
            let p50 = after.histogram(&series).map_or(0.0, |h| h.p50 as f64);
            out.insert(format!("rcompss.task_phase.{phase}_us_p50"), p50);
        }
    }

    fn verify(&mut self, measured: Range<usize>, _out: &mut Metrics) -> Verdict {
        let mut verdict = Verdict::default();
        for r in measured {
            let want = expected(self.inputs.roots[r]);
            let got = &self.values[r];
            for (i, w) in want.iter().enumerate() {
                let ok = got.get(i) == Some(&Some(*w));
                verdict.check((!ok).then(|| format!("round {r} task {i}: wrong value")));
            }
        }
        let stats = self.rt.stats();
        if stats.completed != stats.submitted || stats.failed != 0 {
            verdict.check(Some(format!(
                "runtime stats: {} submitted, {} completed, {} failed",
                stats.submitted, stats.completed, stats.failed
            )));
        }
        verdict
    }
}
