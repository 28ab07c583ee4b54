//! The runtime facade: submission, dependency resolution, synchronisation.
//!
//! This is the COMPSs runtime of the paper's Figure 1, minus the Java: the
//! main program submits tasks ([`Runtime::submit`]), the runtime resolves
//! data dependencies into a dynamic graph, schedules ready tasks onto the
//! cluster through one of two backends, and the main program synchronises
//! with [`Runtime::wait_on`] (the paper's `compss_wait_on`) or
//! [`Runtime::barrier`].

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use cluster::transfer::TransferModel;
use cluster::{Cluster, FailureInjector, NodeSpec};
use paratrace::TraceCollector;
use parking_lot::{Condvar, Mutex};

use crate::backend::distributed::{connect_workers, ConnMgr, DistributedConfig};
use crate::backend::sim::SimState;
use crate::backend::threaded::{collect_dispatch, WorkerPool};
use crate::blocks::BlockStore;
use crate::data::{DataHandle, DataRegistry, DataVersion, Producer, Value};
use crate::fault::{RetryDecision, RetryPolicy};
use crate::graph::{TaskGraph, TaskState};
use crate::metrics::RtMetrics;
use crate::scheduler::{Placement, ReadyEntry, Scheduler};
use crate::task::{ArgSpec, Constraint, TaskDef, TaskError, TaskFn, TaskId};

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The cluster to run on (real slot accounting for the threaded
    /// backend, full virtual hardware for the simulated one).
    pub cluster: Cluster,
    /// `(node, cores)` reservations for the runtime worker process.
    pub reserved_cores: Vec<(u32, u32)>,
    /// Tracing flag — the paper's launch-time switch.
    pub tracing: bool,
    /// Graph-recording flag (DOT export); also toggleable like tracing.
    pub graph: bool,
    /// Metrics flag: live counters/gauges/histograms ([`Runtime::metrics`]).
    /// Off means one relaxed atomic load per instrumentation site.
    pub metrics: bool,
    /// Fault-tolerance policy.
    pub retry: RetryPolicy,
    /// Failure injection plan.
    pub failures: FailureInjector,
    /// Assumed size of task values for the transfer model, bytes.
    pub default_value_bytes: u64,
    /// Default simulated duration of a task whose submission gives none.
    pub default_sim_duration_us: u64,
}

impl RuntimeConfig {
    /// A single node with `cores` CPU computing units — the typical
    /// threaded-backend deployment.
    pub fn single_node(cores: u32) -> Self {
        RuntimeConfig::on_cluster(Cluster::homogeneous(
            1,
            NodeSpec::new("local", cores, Vec::new(), 64),
        ))
    }

    /// Configuration over an arbitrary cluster, defaults everywhere else.
    pub fn on_cluster(cluster: Cluster) -> Self {
        RuntimeConfig {
            cluster,
            reserved_cores: Vec::new(),
            tracing: true,
            graph: true,
            metrics: true,
            retry: RetryPolicy::default(),
            failures: FailureInjector::none(),
            default_value_bytes: 1024,
            default_sim_duration_us: 1_000,
        }
    }

    /// Reserve worker cores (chainable), e.g. the paper's half-node worker.
    pub fn reserve(mut self, node: u32, cores: u32) -> Self {
        self.reserved_cores.push((node, cores));
        self
    }

    /// Set tracing (chainable).
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Set metrics collection (chainable).
    pub fn with_metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Set failure injection (chainable).
    pub fn with_failures(mut self, failures: FailureInjector) -> Self {
        self.failures = failures;
        self
    }

    /// Set the retry policy (chainable).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Per-submission options.
#[derive(Debug, Clone, Default)]
pub struct SubmitOpts {
    /// Simulated duration (virtual µs) of this task; ignored by the
    /// threaded backend, which measures real time.
    pub sim_duration_us: Option<u64>,
}

/// Result of a successful submission.
#[derive(Debug, Clone)]
pub struct SubmitResult {
    /// The task instance id.
    pub task: TaskId,
    /// Handles for the task's return values (`@task(returns=n)`).
    pub returns: Vec<DataHandle>,
}

/// Submission errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No node in the cluster can ever satisfy the constraint.
    Unsatisfiable(Constraint),
    /// An `In`/`InOut` argument references data that was never written and
    /// has no pending producer.
    UnwrittenData(DataHandle),
    /// An argument references a handle from a different runtime.
    UnknownData(DataHandle),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Unsatisfiable(c) => {
                write!(f, "no node satisfies constraint {c:?}")
            }
            SubmitError::UnwrittenData(h) => write!(f, "data {h} has no value and no producer"),
            SubmitError::UnknownData(h) => write!(f, "data {h} is not known to this runtime"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Synchronisation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitError {
    /// The producing task failed permanently (retries exhausted).
    ProducerFailed(DataHandle),
    /// The data was never written and nothing pending will write it.
    NeverWritten(DataHandle),
    /// Handle from a different runtime.
    UnknownData(DataHandle),
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitError::ProducerFailed(h) => write!(f, "producer of {h} failed permanently"),
            WaitError::NeverWritten(h) => write!(f, "data {h} will never be written"),
            WaitError::UnknownData(h) => write!(f, "data {h} is not known to this runtime"),
        }
    }
}

impl std::error::Error for WaitError {}

/// Aggregate runtime statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Tasks submitted.
    pub submitted: u64,
    /// Tasks completed successfully.
    pub completed: u64,
    /// Tasks that failed permanently.
    pub failed: u64,
    /// Failed execution attempts (each may have been retried).
    pub failed_attempts: u64,
    /// Makespan: last completion time, µs (virtual or wall).
    pub makespan_us: u64,
}

/// How a resolved argument participates in dataflow.
#[derive(Debug, Clone)]
pub(crate) enum ResolvedArg {
    Read(DataVersion),
    Write(DataVersion),
    ReadWrite { read: DataVersion, write: DataVersion },
}

/// A submitted task instance.
pub(crate) struct Instance {
    pub def: TaskDef,
    pub args: Vec<ResolvedArg>,
    pub returns: Vec<DataVersion>,
    pub attempt: u32,
    pub prefer_node: Option<u32>,
    pub exclude_node: Option<u32>,
    pub sim_duration_us: u64,
    pub seq: u64,
    /// Submission timestamp, µs (virtual for the sim backend, wall
    /// otherwise) — the start of the dependency-wait interval.
    pub submitted_us: u64,
}

impl Instance {
    /// All versions this instance reads, in argument order.
    pub fn reads(&self) -> Vec<DataVersion> {
        self.args
            .iter()
            .filter_map(|a| match a {
                ResolvedArg::Read(v) | ResolvedArg::ReadWrite { read: v, .. } => Some(*v),
                ResolvedArg::Write(_) => None,
            })
            .collect()
    }

    /// All versions this instance writes: OUT/INOUT params then returns.
    pub fn writes(&self) -> Vec<DataVersion> {
        self.args
            .iter()
            .filter_map(|a| match a {
                ResolvedArg::Write(v) | ResolvedArg::ReadWrite { write: v, .. } => Some(*v),
                ResolvedArg::Read(_) => None,
            })
            .chain(self.returns.iter().copied())
            .collect()
    }

    /// Queue this instance (of `task`) as ready, retry placement hints
    /// included.
    pub fn push_ready(&self, task: TaskId, sched: &mut Scheduler) {
        sched.push_ready(ReadyEntry {
            task,
            constraint: self.def.constraint,
            alternatives: self.def.alternatives.iter().map(|v| v.constraint).collect(),
            priority: self.def.priority,
            seq: self.seq,
            prefer_node: self.prefer_node,
            exclude_node: self.exclude_node,
        });
    }

    /// The body of the implementation the scheduler chose (`@implement`:
    /// 0 is the primary, alternatives follow).
    pub fn body(&self, variant: usize) -> Arc<TaskFn> {
        match variant {
            0 => Arc::clone(&self.def.body),
            v => Arc::clone(&self.def.alternatives[v - 1].body),
        }
    }
}

/// One in-flight execution. The placement is shared (`Arc`) with the
/// backend's in-flight message so completion-side trace emission can run
/// without the core lock.
pub(crate) struct RunningExec {
    pub task: TaskId,
    pub placement: Arc<Placement>,
    pub constraint: Constraint,
    pub attempt: u32,
    pub start_us: u64,
}

/// Mutable runtime state, shared under one lock.
pub(crate) struct Core {
    pub data: DataRegistry,
    pub blocks: BlockStore,
    pub graph: TaskGraph,
    pub sched: Scheduler,
    pub instances: HashMap<TaskId, Instance>,
    pub running: HashMap<u64, RunningExec>,
    pub poisoned: HashSet<DataVersion>,
    pub sim: Option<SimState>,
    pub next_task: u64,
    pub next_seq: u64,
    pub next_exec: u64,
    pub stats: RuntimeStats,
}

impl Core {
    /// The backend's clock, µs: virtual under the sim backend (the only one
    /// with sim state), wall time since runtime start otherwise.
    pub fn now_us(&self, shared: &Shared) -> u64 {
        self.sim.as_ref().map_or_else(|| shared.wall_us(), |sim| sim.now())
    }
}

pub(crate) struct Shared {
    pub core: Mutex<Core>,
    pub cv: Condvar,
    pub trace: Arc<TraceCollector>,
    pub metrics: RtMetrics,
    pub start: Instant,
    pub retry: RetryPolicy,
    pub failures: FailureInjector,
    pub transfer: TransferModel,
    pub graph_enabled: bool,
    /// Latest task-state snapshot per caller key (see [`crate::snapshot`]):
    /// written by running bodies through the ambient channel, read back by
    /// retried attempts so a resubmitted task resumes instead of
    /// restarting. Distributed workers mirror theirs here via `Data`
    /// frames, which is what lets a *replacement* worker pick up where a
    /// killed one stopped.
    pub snapshots: Mutex<HashMap<u64, Vec<u8>>>,
}

impl Shared {
    /// Wall-clock µs since runtime start (threaded backend timeline).
    pub fn wall_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

enum BackendHandle {
    Threaded(WorkerPool),
    Sim,
    Distributed(ConnMgr),
}

/// The runtime. Cheap to share behind `&`; internally synchronised.
pub struct Runtime {
    shared: Arc<Shared>,
    backend: BackendHandle,
    default_sim_duration_us: u64,
}

impl Runtime {
    /// Build a runtime on the threaded backend: tasks run on a real thread
    /// pool with slot-accurate resource accounting.
    pub fn threaded(cfg: RuntimeConfig) -> Runtime {
        let shared = Self::make_shared(&cfg);
        let pool = WorkerPool::start(Arc::clone(&shared), &cfg.cluster);
        Runtime {
            shared,
            backend: BackendHandle::Threaded(pool),
            default_sim_duration_us: cfg.default_sim_duration_us,
        }
    }

    /// Build a runtime on the distributed backend: connect to running
    /// [`crate::backend::distributed::WorkerServer`] daemons at `workers`
    /// (host:port strings), build the cluster from what their `Hello`s
    /// advertise, and execute every task remotely. `cfg.cluster` is
    /// ignored — the real cluster is whatever answered. Fails if any
    /// worker stays unreachable past `dcfg.connect_timeout`.
    pub fn distributed(
        cfg: RuntimeConfig,
        workers: &[String],
        dcfg: DistributedConfig,
    ) -> std::io::Result<Runtime> {
        if workers.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "distributed runtime needs at least one worker address",
            ));
        }
        let boots = connect_workers(workers, dcfg.connect_timeout)?;
        Ok(Self::from_bootstraps(cfg, boots, dcfg))
    }

    /// Build a distributed runtime over workers someone else already
    /// acquired: the worker-*acquisition* half of [`Runtime::distributed`]
    /// split out, so a long-lived server can gather its pool however it
    /// likes — dialling out with
    /// [`connect_workers`],
    /// adopting dial-ins with
    /// [`WorkerBootstrap::from_hello`](crate::backend::distributed::WorkerBootstrap::from_hello),
    /// or both — and then own the runtime it builds on top. `cfg.cluster`
    /// is ignored; the real cluster is what the bootstraps advertise.
    pub fn from_bootstraps(
        cfg: RuntimeConfig,
        boots: Vec<crate::backend::distributed::WorkerBootstrap>,
        dcfg: DistributedConfig,
    ) -> Runtime {
        let nodes: Vec<NodeSpec> = boots
            .iter()
            .map(|b| {
                let gpus = vec![cluster::GpuModel::Generic; b.gpus as usize];
                NodeSpec::new(b.name.as_str(), b.cores.max(1), gpus, b.mem_gib.max(1))
            })
            .collect();
        let mut cfg = cfg;
        cfg.cluster = Cluster::from_nodes(nodes);
        // Worker cores are remote: nothing to reserve driver-side.
        cfg.reserved_cores.clear();
        let shared = Self::make_shared(&cfg);
        let mgr = ConnMgr::start(Arc::clone(&shared), boots, dcfg);
        Runtime {
            shared,
            backend: BackendHandle::Distributed(mgr),
            default_sim_duration_us: cfg.default_sim_duration_us,
        }
    }

    /// Worker display labels by node id: `name@addr` for the distributed
    /// backend, `nodeN` otherwise. Feeds per-node trace lanes and the
    /// dashboard's per-worker counters.
    pub fn node_labels(&self) -> Vec<String> {
        match &self.backend {
            BackendHandle::Distributed(mgr) => mgr.labels(),
            _ => {
                let n = self.shared.core.lock().sched.node_count();
                (0..n).map(|i| format!("node{i}")).collect()
            }
        }
    }

    /// Build a runtime on the simulated backend: a deterministic
    /// discrete-event execution over the virtual cluster.
    pub fn simulated(cfg: RuntimeConfig) -> Runtime {
        let shared = Self::make_shared(&cfg);
        {
            let mut core = shared.core.lock();
            let mut sim = SimState::new();
            for &(t, n) in shared.failures.node_failures() {
                sim.schedule_node_failure(t, n);
            }
            core.sim = Some(sim);
        }
        Runtime {
            shared,
            backend: BackendHandle::Sim,
            default_sim_duration_us: cfg.default_sim_duration_us,
        }
    }

    fn make_shared(cfg: &RuntimeConfig) -> Arc<Shared> {
        let sched = Scheduler::new(&cfg.cluster, &cfg.reserved_cores);
        Arc::new(Shared {
            core: Mutex::new(Core {
                data: DataRegistry::new(cfg.default_value_bytes),
                blocks: BlockStore::new(),
                graph: TaskGraph::new(),
                sched,
                instances: HashMap::new(),
                running: HashMap::new(),
                poisoned: HashSet::new(),
                sim: None,
                next_task: 1,
                next_seq: 0,
                next_exec: 0,
                stats: RuntimeStats::default(),
            }),
            cv: Condvar::new(),
            trace: Arc::new(TraceCollector::with_flag(cfg.tracing)),
            metrics: RtMetrics::new(cfg.metrics),
            start: Instant::now(),
            retry: cfg.retry,
            failures: cfg.failures.clone(),
            transfer: TransferModel::for_cluster(&cfg.cluster),
            graph_enabled: cfg.graph,
            snapshots: Mutex::new(HashMap::new()),
        })
    }

    /// Register a task definition — the `@task`/`@constraint` decorators.
    /// `returns` is the number of values the body yields *for its return
    /// slots*; bodies must additionally yield one value per OUT/INOUT
    /// argument, after the return slots.
    pub fn register(
        &self,
        name: &str,
        constraint: Constraint,
        returns: usize,
        body: impl Fn(&crate::task::TaskContext, &[Value]) -> Result<Vec<Value>, TaskError>
            + Send
            + Sync
            + 'static,
    ) -> TaskDef {
        TaskDef {
            name: name.into(),
            constraint,
            returns,
            priority: false,
            body: Arc::new(body) as Arc<TaskFn>,
            alternatives: Vec::new(),
        }
    }

    /// Create main-program data (e.g. a parsed config object).
    pub fn literal<T: Send + Sync + 'static>(&self, v: T) -> DataHandle {
        self.shared.core.lock().data.literal(Value::new(v))
    }

    /// Create a data item to be produced later via an `Out` parameter.
    pub fn declare(&self) -> DataHandle {
        self.shared.core.lock().data.declare()
    }

    /// Declare the transfer-model size of a data item.
    pub fn set_data_bytes(&self, h: DataHandle, bytes: u64) {
        self.shared.core.lock().data.set_bytes(h, bytes);
    }

    /// Submit with default options.
    pub fn submit(&self, def: &TaskDef, args: Vec<ArgSpec>) -> Result<SubmitResult, SubmitError> {
        self.submit_with(def, args, SubmitOpts::default())
    }

    /// Submit a task instance. Non-blocking: returns handles immediately,
    /// execution is asynchronous.
    pub fn submit_with(
        &self,
        def: &TaskDef,
        args: Vec<ArgSpec>,
        opts: SubmitOpts,
    ) -> Result<SubmitResult, SubmitError> {
        let mut core = self.shared.core.lock();
        // With @implement alternatives a submission is admissible if ANY
        // implementation could ever run somewhere.
        if !def.variant_constraints().iter().any(|c| core.sched.satisfiable(c)) {
            return Err(SubmitError::Unsatisfiable(def.constraint));
        }
        let id = TaskId(core.next_task);
        let seq = core.next_seq;

        // Resolve arguments: compute dependencies and version bumps.
        let mut deps: Vec<(TaskId, DataVersion)> = Vec::new();
        let mut resolved: Vec<ResolvedArg> = Vec::with_capacity(args.len());
        for arg in &args {
            let h = arg.handle();
            if !core.data.knows(h) {
                return Err(SubmitError::UnknownData(h));
            }
            match arg {
                ArgSpec::In(_) | ArgSpec::InOut(_) => {
                    let read = core.data.current_version(h);
                    match core.data.producer(read) {
                        None => return Err(SubmitError::UnwrittenData(h)),
                        Some(Producer::Main) => {}
                        Some(Producer::Task(t)) => {
                            if core.graph.state(t) != Some(TaskState::Done) {
                                deps.push((t, read));
                            }
                        }
                    }
                    if matches!(arg, ArgSpec::In(_)) {
                        resolved.push(ResolvedArg::Read(read));
                    } else {
                        let write = core.data.new_version(h, Producer::Task(id));
                        resolved.push(ResolvedArg::ReadWrite { read, write });
                    }
                }
                ArgSpec::Out(_) => {
                    let write = core.data.new_version(h, Producer::Task(id));
                    resolved.push(ResolvedArg::Write(write));
                }
            }
        }
        let returns: Vec<DataVersion> = (0..def.returns)
            .map(|_| {
                let h = core.data.declare();
                core.data.new_version(h, Producer::Task(id))
            })
            .collect();
        let return_handles: Vec<DataHandle> = returns.iter().map(|v| v.handle).collect();

        core.next_task += 1;
        core.next_seq += 1;
        core.stats.submitted += 1;
        self.shared.metrics.submitted.incr();
        let submitted_us = core.now_us(&self.shared);

        let state = core.graph.add_task(id, &def.name, &deps);
        core.instances.insert(
            id,
            Instance {
                def: def.clone(),
                args: resolved,
                returns,
                attempt: 1,
                prefer_node: None,
                exclude_node: None,
                sim_duration_us: opts.sim_duration_us.unwrap_or(self.default_sim_duration_us),
                seq,
                submitted_us,
            },
        );
        // A read of an already-poisoned version (its producer failed
        // permanently before this submission) can never be satisfied:
        // propagate the failure to this task right away.
        let reads_poisoned = core.instances[&id].reads().iter().any(|v| core.poisoned.contains(v));
        if reads_poisoned {
            fail_task_cascade(&self.shared, &mut core, id);
        } else if state == TaskState::Ready {
            let core = &mut *core;
            core.instances[&id].push_ready(id, &mut core.sched);
        }

        // Nudge the backend: place under the lock, hand the placed work to
        // the worker shards after dropping it (trace emission and shard
        // locks must not nest inside the core lock).
        match &self.backend {
            BackendHandle::Threaded(pool) => {
                let msgs = collect_dispatch(&self.shared, &mut core);
                drop(core);
                pool.enqueue(&self.shared, msgs);
            }
            BackendHandle::Distributed(mgr) => {
                let work = mgr.collect_dispatch_remote(&mut core);
                drop(core);
                mgr.send(work);
            }
            BackendHandle::Sim => {}
        }
        Ok(SubmitResult { task: id, returns: return_handles })
    }

    /// The paper's `compss_wait_on`: block (or drive the simulation) until
    /// the current version of `h` is available, then return its value.
    pub fn wait_on(&self, h: &DataHandle) -> Result<Value, WaitError> {
        let mut core = self.shared.core.lock();
        if !core.data.knows(*h) {
            return Err(WaitError::UnknownData(*h));
        }
        let target = core.data.current_version(*h);
        if self.shared.graph_enabled {
            core.graph.add_sync(target);
        }
        match &self.backend {
            BackendHandle::Sim => {
                crate::backend::sim::run_until(&self.shared, &mut core, |c| {
                    c.data.is_ready(target) || c.poisoned.contains(&target)
                });
                self.finish_wait(&core, *h, target)
            }
            BackendHandle::Threaded(_) | BackendHandle::Distributed(_) => loop {
                if core.data.is_ready(target) || core.poisoned.contains(&target) {
                    return self.finish_wait(&core, *h, target);
                }
                if core.data.producer(target).is_none() && core.graph.all_settled() {
                    return Err(WaitError::NeverWritten(*h));
                }
                self.shared.cv.wait_for(&mut core, std::time::Duration::from_millis(100));
            },
        }
    }

    fn finish_wait(
        &self,
        core: &Core,
        h: DataHandle,
        target: DataVersion,
    ) -> Result<Value, WaitError> {
        if core.poisoned.contains(&target) {
            return Err(WaitError::ProducerFailed(h));
        }
        match core.data.get(target) {
            Some(v) => Ok(v),
            None => Err(WaitError::NeverWritten(h)),
        }
    }

    /// Wait for every submitted task to settle (done or permanently failed).
    pub fn barrier(&self) {
        let mut core = self.shared.core.lock();
        match &self.backend {
            BackendHandle::Sim => {
                crate::backend::sim::run_until(&self.shared, &mut core, |c| c.graph.all_settled());
            }
            BackendHandle::Threaded(_) | BackendHandle::Distributed(_) => {
                while !core.graph.all_settled() {
                    self.shared.cv.wait_for(&mut core, std::time::Duration::from_millis(100));
                }
            }
        }
    }

    /// Current runtime time, µs: virtual for the simulated backend, wall
    /// time since start for the threaded one.
    pub fn now_us(&self) -> u64 {
        self.shared.core.lock().now_us(&self.shared)
    }

    /// Tracing flag accessor.
    pub fn tracing_enabled(&self) -> bool {
        self.shared.trace.is_enabled()
    }

    /// The runtime's metrics registry: snapshot it on demand, or feed it to
    /// the `runmetrics` exporters (Prometheus text / JSON lines). The handle
    /// stays valid after the runtime is dropped.
    pub fn metrics(&self) -> Arc<runmetrics::MetricsRegistry> {
        Arc::clone(self.shared.metrics.registry())
    }

    /// Metrics flag accessor.
    pub fn metrics_enabled(&self) -> bool {
        self.shared.metrics.enabled()
    }

    /// Snapshot the trace, including synthetic `RuntimeReserved` intervals
    /// for worker-reserved cores so Gantt renders match the paper's figures.
    ///
    /// On the distributed backend this is the *merged* trace: worker-shipped
    /// execution spans are rebased onto the driver timeline with each
    /// worker's heartbeat clock-offset estimate
    /// ([`paratrace::merge::merge`]), replacing the driver's
    /// completion-time estimates wherever ground truth arrived.
    pub fn trace(&self) -> Vec<paratrace::Record> {
        let driver = {
            let _core = self.shared.core.lock();
            self.shared.trace.snapshot()
        };
        let mut records = match &self.backend {
            BackendHandle::Distributed(mgr) => {
                let (workers, bounds) = mgr.telemetry();
                paratrace::merge::merge(driver, workers, &bounds)
            }
            _ => driver,
        };
        let core = self.shared.core.lock();
        let horizon = records.iter().map(|r| r.end_time()).max().unwrap_or(0);
        if horizon > 0 {
            for &(node, c) in &core.sched.reserved {
                records.push(paratrace::Record::State {
                    core: paratrace::CoreId::new(node, c),
                    start: 0,
                    end: horizon,
                    state: paratrace::StateKind::RuntimeReserved,
                });
            }
        }
        records.sort_by_key(|r| (r.time(), r.core(), r.end_time()));
        records
    }

    /// Per-worker clock-sync estimates `(offset_us, rtt_us)` indexed by
    /// node id; empty on non-distributed backends.
    pub fn clock_stats(&self) -> Vec<(i64, u64)> {
        match &self.backend {
            BackendHandle::Distributed(mgr) => mgr.clock_stats(),
            _ => Vec::new(),
        }
    }

    /// DOT rendering of the dependency graph (paper Figure 3).
    pub fn dot(&self) -> String {
        self.shared.core.lock().graph.to_dot()
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> RuntimeStats {
        self.shared.core.lock().stats.clone()
    }

    /// Ids of permanently-failed tasks.
    pub fn failed_tasks(&self) -> Vec<TaskId> {
        self.shared.core.lock().graph.tasks_in_state(TaskState::Failed)
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        match &mut self.backend {
            BackendHandle::Threaded(pool) => pool.shutdown(),
            BackendHandle::Distributed(mgr) => mgr.shutdown(),
            BackendHandle::Sim => {}
        }
    }
}

/// A ready task the place step has just put on resources: what a backend's
/// launch step gets, next to `&mut Core`.
pub(crate) struct Placed {
    pub exec_id: u64,
    pub task: TaskId,
    pub attempt: u32,
    pub placement: Arc<Placement>,
    /// Dispatch time on the backend's clock; the `RunningExec` starts here
    /// unless the launch step moves it (sim staging).
    pub now_us: u64,
}

/// The first half of the scheduling turn, shared by every backend: place
/// each placeable ready task — timed scheduler decision, attempt and exec
/// id, `RunningExec`, graph state, dispatch metrics — and hand it to
/// `launch`, which does only what is the backend's own (build the message,
/// pay staging, choose how inputs travel). `score` ranks feasible nodes for
/// a task and sees the registry and instances the pop cannot borrow through
/// `Core`. Call with the core locked; [`complete_attempt`] is the other half.
pub(crate) fn place_ready<S: Ord>(
    shared: &Shared,
    core: &mut Core,
    score: impl Fn(&DataRegistry, &HashMap<TaskId, Instance>, TaskId, u32) -> S,
    mut launch: impl FnMut(&mut Core, Placed),
) {
    // One relaxed load up front decides whether this round pays for
    // Instant::now() at all. Decision time is real (wall) time even under
    // virtual task time: it measures the runtime's own machinery.
    let measure = shared.metrics.enabled();
    loop {
        let decision_started = measure.then(Instant::now);
        let popped = {
            let Core { sched, data, instances, .. } = &mut *core;
            sched.pop_placeable(|task, node| score(data, instances, task, node))
        };
        if let Some(t0) = decision_started {
            shared.metrics.sched_decision.record(t0.elapsed().as_micros() as u64);
        }
        let Some((entry, placement)) = popped else { break };
        let placement = Arc::new(placement);
        let task = entry.task;
        let inst = core.instances.get(&task).expect("ready task has an instance");
        let attempt = inst.attempt;
        let now_us = core.now_us(shared);
        shared.metrics.dispatched.incr();
        shared.metrics.dep_wait.record(now_us.saturating_sub(inst.submitted_us));
        let exec_id = core.next_exec;
        core.next_exec += 1;
        core.running.insert(
            exec_id,
            RunningExec {
                task,
                placement: Arc::clone(&placement),
                constraint: entry.constraint,
                attempt,
                start_us: now_us,
            },
        );
        core.graph.set_running(task);
        launch(core, Placed { exec_id, task, attempt, placement, now_us });
    }
    shared.metrics.ready_depth.set(core.sched.ready_len() as f64);
    shared.metrics.running.set(core.running.len() as f64);
}

/// The trace records of one ended attempt: a `task_run` bar on every core
/// of the placement and, unless the attempt was `killed` with its node, the
/// `TaskEnd` event. Needs no core lock.
pub(crate) fn emit_attempt_spans(
    shared: &Shared,
    placement: &Placement,
    task_ref: paratrace::TaskRef,
    start_us: u64,
    end_us: u64,
    killed: bool,
) {
    for (node, cores) in placement.node_cores() {
        for &c in cores {
            shared.trace.task_run(
                paratrace::CoreId::new(node, c),
                // A kill can land while the attempt is still staging.
                start_us.min(end_us),
                end_us.max(start_us + 1),
                task_ref.clone(),
            );
        }
    }
    if !killed {
        shared.trace.event(placement.lead_core(), end_us, paratrace::EventKind::TaskEnd(task_ref));
    }
}

/// The second half of the scheduling turn: store an ended attempt's outputs
/// and release its successors, or drive the retry policy. Called with the
/// core locked, from every backend.
pub(crate) fn complete_attempt(
    shared: &Shared,
    core: &mut Core,
    exec_id: u64,
    result: Result<Vec<Value>, TaskError>,
    now_us: u64,
    node_gone: bool,
) {
    let Some(run) = core.running.remove(&exec_id) else { return };
    let task = run.task;
    if !node_gone {
        core.sched.release(&run.placement, &run.constraint);
    }

    // Consult the failure injector (deterministic chaos for tests/benches).
    let injected = shared.failures.attempt_fails(task.0, run.attempt);
    let outcome = if injected { Err(TaskError::new("injected failure")) } else { result };

    match outcome {
        Ok(values) => {
            let inst = core.instances.get(&task).expect("instance exists");
            shared.metrics.record_task_latency(&inst.def.name, now_us.saturating_sub(run.start_us));
            let writes = inst.writes();
            assert_eq!(
                values.len(),
                writes.len(),
                "task '{}' returned {} values but declares {} outputs",
                inst.def.name,
                values.len(),
                writes.len()
            );
            let node = run.placement.node;
            for (v, value) in writes.iter().zip(values) {
                core.data.put(*v, value);
                core.data.add_location(*v, node);
            }
            core.stats.completed += 1;
            shared.metrics.completed.incr();
            core.stats.makespan_us = core.stats.makespan_us.max(now_us);
            for t in core.graph.set_done(task) {
                core.instances[&t].push_ready(t, &mut core.sched);
            }
        }
        Err(_) => {
            core.stats.failed_attempts += 1;
            shared.metrics.failed_attempts.incr();
            shared.trace.event(
                run.placement.lead_core(),
                now_us,
                paratrace::EventKind::TaskFailure {
                    task: paratrace::TaskRef::new(
                        task.0,
                        Arc::clone(&core.instances[&task].def.name),
                    ),
                    attempt: run.attempt,
                },
            );
            match shared.retry.on_failure(run.attempt, node_gone) {
                RetryDecision::GiveUp => fail_task_cascade(shared, core, task),
                decision => {
                    shared.metrics.retried.incr();
                    // "Move to another node" is only meaningful when some
                    // other node could host the task; on a single capable
                    // node the retry stays local instead of deadlocking.
                    let other_exists = {
                        let inst = &core.instances[&task];
                        inst.def
                            .variant_constraints()
                            .iter()
                            .any(|c| core.sched.satisfiable_excluding(c, run.placement.node))
                    };
                    let inst = core.instances.get_mut(&task).expect("instance exists");
                    inst.attempt = run.attempt + 1;
                    match decision {
                        RetryDecision::RetrySameNode => {
                            inst.prefer_node = Some(run.placement.node);
                            inst.exclude_node = None;
                        }
                        RetryDecision::RetryOtherNode => {
                            inst.prefer_node = None;
                            inst.exclude_node = other_exists.then_some(run.placement.node);
                        }
                        RetryDecision::GiveUp => unreachable!(),
                    }
                    core.graph.set_ready(task);
                    core.instances[&task].push_ready(task, &mut core.sched);
                }
            }
        }
    }
}

/// Permanently fail `task` and transitively fail all dependents, poisoning
/// every version they would have produced ("the failure of task does not
/// affect the other tasks unless there are some dependencies").
pub(crate) fn fail_task_cascade(shared: &Shared, core: &mut Core, task: TaskId) {
    let mut stack = vec![task];
    let mut seen: HashSet<TaskId> = HashSet::new();
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        if core.graph.state(t) == Some(TaskState::Done) {
            continue;
        }
        core.graph.set_failed(t);
        core.stats.failed += 1;
        shared.metrics.failed.incr();
        let writes: Vec<DataVersion> =
            core.instances.get(&t).map(|i| i.writes()).unwrap_or_default();
        for v in &writes {
            core.poisoned.insert(*v);
        }
        // Any instance reading a poisoned version can never run.
        let dependents: Vec<TaskId> = core
            .instances
            .iter()
            .filter(|(id, inst)| {
                !seen.contains(id)
                    && !matches!(
                        core.graph.state(**id),
                        Some(TaskState::Done) | Some(TaskState::Failed)
                    )
                    && inst.reads().iter().any(|v| writes.contains(v))
            })
            .map(|(&id, _)| id)
            .collect();
        stack.extend(dependents);
    }
}
