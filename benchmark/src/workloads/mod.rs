//! The four workloads and what they share: the round recorder, the pool
//! of two loopback workers, and the trait a pass drives them through.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpo::experiment::Objective;
use hpo::TrialResult;
use rcompss::{
    Constraint, DistributedConfig, Runtime, RuntimeConfig, TaskDef, TaskError, TaskRegistry, Value,
    WorkerConfig, WorkerHandle, WorkerServer,
};

use crate::spans;

pub mod churn_net;
pub mod grid_threaded;
pub mod served_mix;
pub mod staged_net;

/// Workload names, in the order passes interleave them.
pub const NAMES: [&str; 4] = ["grid_threaded", "staged_net", "churn_net", "served_mix"];

/// Cores every pool is fixed at: the threaded runtime gets two, the
/// distributed one two workers of one core each.
pub const POOL_CORES: u32 = 2;

/// The worker daemon's default block-cache budget (`--cache-mem`).
pub const DEFAULT_CACHE_MEM: u64 = 256 * 1024 * 1024;

/// Named values a pass hands back to the orchestrator.
pub type Metrics = BTreeMap<String, f64>;

/// Latency samples of the rounds one thread drove.
#[derive(Default)]
pub struct Recorder {
    /// Per op: result visible to the caller − `t0` of its round, ns.
    pub lat_ns: Vec<u64>,
    /// Per round: first result visible − `t0`, ns.
    pub first_ns: Vec<u64>,
    ops_at_round_start: usize,
}

impl Recorder {
    /// One op of the round that began at `t0` just became visible.
    pub fn op(&mut self, t0: Instant) {
        self.lat_ns.push(t0.elapsed().as_nanos() as u64);
    }

    /// The round that began at `t0` has delivered every result; returns
    /// how long it took.
    pub fn end_round(&mut self, t0: Instant) -> Duration {
        let took = t0.elapsed();
        if let Some(&first) = self.lat_ns.get(self.ops_at_round_start) {
            self.first_ns.push(first);
        }
        self.ops_at_round_start = self.lat_ns.len();
        took
    }

    /// Fold another thread's samples in.
    pub fn merge(&mut self, other: Recorder) {
        self.lat_ns.extend(other.lat_ns);
        self.first_ns.extend(other.first_ns);
        self.ops_at_round_start = self.lat_ns.len();
    }
}

/// Outcome of checking a pass's outputs against the oracles.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Ops whose output was checked.
    pub attempted: u64,
    /// Ops that errored or whose output differs from the oracle.
    pub failed: u64,
    /// What went wrong, for the operator.
    pub notes: Vec<String>,
}

impl Verdict {
    /// Count one checked op; a `Some` reason marks it failed.
    pub fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why);
            }
        }
    }
}

/// One workload, built inside the timed set-up of a pass.
pub trait Workload {
    /// The measured rounds start now: remember the counters' values.
    fn mark(&mut self) {}

    /// Drive rounds `rounds` back to back, recording into `rec`; when it
    /// returns, every result is in and the program is idle. A pass calls it
    /// once for the warm-up and once per chunk of measured rounds. Returns
    /// the wall time the ops took: the sum of round times for a single
    /// driver, the whole window when tenants run concurrently.
    fn run_rounds(&mut self, rounds: Range<usize>, rec: &mut Recorder) -> Duration;

    /// Counter deltas and ratios of the layers this workload loads, read
    /// after the measured rounds of a traced pass. `ops` is the number of
    /// ops those rounds completed.
    fn layer_metrics(&mut self, ops: u64, out: &mut Metrics);

    /// Check the outputs of the measured rounds, outside any timed
    /// window.
    fn verify(&mut self, measured: Range<usize>, out: &mut Metrics) -> Verdict;
}

/// Static facts of a workload the orchestrator needs before building it.
pub struct Shape {
    /// Rounds per measured second at the seed commit; fixes the round
    /// count for a given `--seconds`, so op counts repeat exactly.
    pub rounds_per_sec: f64,
    /// Rounds run (and discarded) inside the timed set-up.
    pub warmup_rounds: usize,
    /// The pass process and all its threads share one CPU.
    pub one_cpu: bool,
    /// Rounds between two slices of the reference: 50–130 ms of them.
    pub chunk_rounds: usize,
}

/// Shape of the workload called `name`.
pub fn shape(name: &str) -> Shape {
    match name {
        "grid_threaded" => grid_threaded::SHAPE,
        "staged_net" => staged_net::SHAPE,
        "churn_net" => churn_net::SHAPE,
        "served_mix" => served_mix::SHAPE,
        other => panic!("unknown workload '{other}'"),
    }
}

/// Generate the inputs of `total_rounds` rounds from `seed` and build the
/// workload around them.
pub fn build(name: &str, seed: u64, total_rounds: usize) -> Box<dyn Workload> {
    match name {
        "grid_threaded" => Box::new(grid_threaded::GridThreaded::build(seed, total_rounds)),
        "staged_net" => Box::new(staged_net::StagedNet::build(seed, total_rounds)),
        "churn_net" => Box::new(churn_net::ChurnNet::build(seed, total_rounds)),
        "served_mix" => Box::new(served_mix::ServedMix::build(seed, total_rounds)),
        other => panic!("unknown workload '{other}'"),
    }
}

/// FNV digest of everything `name` generates from `seed` for
/// `total_rounds` rounds.
#[cfg(test)]
pub fn input_digest(name: &str, seed: u64, total_rounds: usize) -> u64 {
    match name {
        "grid_threaded" => grid_threaded::inputs(seed, total_rounds).digest(),
        "staged_net" => staged_net::inputs(seed, total_rounds).digest(),
        "churn_net" => churn_net::Inputs::generate(seed, total_rounds).digest(),
        "served_mix" => served_mix::Inputs::generate(seed, total_rounds).digest(),
        other => panic!("unknown workload '{other}'"),
    }
}

/// Runtime configuration of every workload: tracing off, as `hpo-run`
/// and `rcompss-server` run without `--trace`. `metrics` is on in a traced
/// pass (phase histograms and byte counters are per-layer numbers) and
/// always under the sweep server, which the daemon runs that way.
pub fn runtime_config(cores: u32, metrics: bool) -> RuntimeConfig {
    RuntimeConfig::single_node(cores).with_tracing(false).with_metrics(metrics)
}

/// Wrap an objective so every call records a `tinyml.train` span with its
/// CPU time. In an untraced pass the objective is handed over untouched.
pub fn traced_objective(inner: Objective) -> Objective {
    if !spans::enabled() {
        return inner;
    }
    Arc::new(move |config, budget| {
        let _span = spans::span_cpu("tinyml.train", spans::current_round());
        inner(config, budget)
    })
}

/// Like [`traced_objective`] for a whole task body.
pub fn traced_task(def: TaskDef, name: &'static str) -> TaskDef {
    if !spans::enabled() {
        return def;
    }
    let inner = Arc::clone(&def.body);
    TaskDef {
        body: Arc::new(move |ctx, inputs| {
            let _span = spans::span_cpu(name, spans::current_round());
            inner(ctx, inputs)
        }),
        ..def
    }
}

/// Spawn two in-process workers of one core each on loopback. Drop the
/// runtime connected to them before the handles.
pub fn spawn_workers(registry: &TaskRegistry, cache_mem_bytes: u64) -> Vec<WorkerHandle> {
    (0..POOL_CORES)
        .map(|i| {
            let cfg = WorkerConfig {
                name: format!("bench-w{i}"),
                cores: 1,
                cache_mem_bytes,
                ..WorkerConfig::default()
            };
            WorkerServer::bind("127.0.0.1:0", cfg, registry.clone())
                .expect("bind loopback worker")
                .spawn()
                .expect("spawn loopback worker")
        })
        .collect()
}

/// Connect a distributed runtime to `workers`.
pub fn connect(workers: &[WorkerHandle], metrics: bool, dcfg: DistributedConfig) -> Runtime {
    let addrs: Vec<String> = workers.iter().map(WorkerHandle::addr).collect();
    Runtime::distributed(runtime_config(1, metrics), &addrs, dcfg)
        .expect("connect to loopback workers")
}

/// A task definition of one core and one return value.
pub fn one_core_task(
    name: &str,
    body: impl Fn(&[Value]) -> Result<Value, TaskError> + Send + Sync + 'static,
) -> TaskDef {
    TaskDef {
        name: name.into(),
        constraint: Constraint::cpus(1),
        returns: 1,
        priority: false,
        body: Arc::new(move |_, inputs| body(inputs).map(|v| vec![v])),
        alternatives: Vec::new(),
    }
}

/// Why a trial does not count as done: it errored, or stopped short of its
/// configured epochs.
pub fn unfinished(t: &TrialResult) -> Option<String> {
    let epochs = t.config.get_int("num_epochs").unwrap_or(0) as u32;
    t.outcome.error.clone().or_else(|| {
        (t.outcome.epochs_run != epochs)
            .then(|| format!("ran {} of {epochs} epochs", t.outcome.epochs_run))
    })
}

/// `rnet_bytes_sent_total + rnet_bytes_received_total` of a registry.
pub fn wire_bytes(snap: &runmetrics::MetricsSnapshot) -> u64 {
    snap.counter("rnet_bytes_sent_total").unwrap_or(0)
        + snap.counter("rnet_bytes_received_total").unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for name in NAMES {
            let a = input_digest(name, 7, 6);
            assert_eq!(a, input_digest(name, 7, 6), "{name}: same seed, different inputs");
            assert_ne!(a, input_digest(name, 8, 6), "{name}: different seed, same inputs");
        }
    }

    #[test]
    fn more_rounds_extend_the_inputs() {
        for name in NAMES {
            assert_ne!(input_digest(name, 7, 6), input_digest(name, 7, 7), "{name}");
        }
    }

    #[test]
    fn recorder_takes_first_result_per_round() {
        let mut rec = Recorder::default();
        for _ in 0..3 {
            let t0 = Instant::now();
            rec.op(t0);
            rec.op(t0);
            rec.end_round(t0);
        }
        assert_eq!(rec.lat_ns.len(), 6);
        assert_eq!(rec.first_ns, vec![rec.lat_ns[0], rec.lat_ns[2], rec.lat_ns[4]]);
        let mut other = Recorder::default();
        let t0 = Instant::now();
        other.op(t0);
        other.end_round(t0);
        rec.merge(other);
        assert_eq!((rec.lat_ns.len(), rec.first_ns.len()), (7, 4));
    }
}
