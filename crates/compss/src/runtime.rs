//! The runtime facade: submission, dependency resolution, synchronisation.
//!
//! This is the COMPSs runtime of the paper's Figure 1, minus the Java: the
//! main program submits tasks ([`Runtime::submit`]), the runtime resolves
//! data dependencies into a dynamic graph, schedules ready tasks onto the
//! cluster through one of two backends, and the main program synchronises
//! with [`Runtime::wait_on`] (the paper's `compss_wait_on`) or
//! [`Runtime::barrier`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster::transfer::TransferModel;
use cluster::{Cluster, FailureInjector, NodeSpec};
use paratrace::{CoreId, EventKind, TaskRef, TraceCollector};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::backend::distributed::{
    collect_dispatch_remote, connect_workers, is_fast, next_streak, ConnMgr, DistributedConfig,
};
use crate::backend::sim::SimState;
use crate::backend::threaded::{collect_dispatch, WorkerPool};
use crate::blocks::BlockStore;
use crate::data::{DataHandle, DataRegistry, DataVersion, Value};
use crate::fault::{RetryDecision, RetryPolicy};
use crate::graph::{TaskGraph, TaskState};
use crate::ids::IdMap;
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
    /// Record the graph for [`Runtime::dot`]: keep the nodes of settled
    /// tasks and the `wait_on` sync marks. Off, a task's node goes when the
    /// task settles and `dot` shows only what is still to run — a recorded
    /// graph grows with every task ever submitted.
    pub graph: bool,
    /// Metrics flag: live counters/gauges/histograms ([`Runtime::metrics`]).
    /// Off means one relaxed atomic load per instrumentation site.
    pub metrics: bool,
    /// Fault-tolerance policy.
    pub retry: RetryPolicy,
    /// Failure injection plan.
    pub failures: FailureInjector,
}

/// Assumed size, bytes, of a value whose size nobody declared
/// ([`Runtime::set_data_bytes`]): what the transfer model charges for it.
const DEFAULT_VALUE_BYTES: u64 = 1024;

/// Simulated duration of a task whose submission gives none
/// ([`SubmitOpts::sim_duration_us`]).
const DEFAULT_SIM_DURATION_US: u64 = 1_000;

/// How long [`Runtime::distributed`] keeps retrying each worker address,
/// so workers racing the driver to start are tolerated.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

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
            graph: false,
            metrics: true,
            retry: RetryPolicy::default(),
            failures: FailureInjector::none(),
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
    /// An argument references a handle from a different runtime, or one
    /// the main program [deleted](Runtime::delete).
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
    /// Handle from a different runtime, or [deleted](Runtime::delete).
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
    /// The resolved arguments in order, then one `Write` per return slot.
    pub args: Vec<ResolvedArg>,
    pub attempt: u32,
    pub prefer_node: Option<u32>,
    pub exclude_node: Option<u32>,
    pub sim_duration_us: u64,
    pub seq: u64,
    /// Submission timestamp, µs (virtual for the sim backend, wall
    /// otherwise) — the start of the dependency-wait interval.
    pub submitted_us: u64,
    /// The latest state an attempt saved through [`crate::snapshot`]: what
    /// the next attempt resumes from. Set by [`Core::save_snapshot`] only.
    pub snapshot: Option<Arc<[u8]>>,
}

impl Instance {
    /// All versions this instance reads, in argument order.
    pub fn reads(&self) -> impl Iterator<Item = DataVersion> + '_ {
        self.args.iter().filter_map(|a| match a {
            ResolvedArg::Read(v) | ResolvedArg::ReadWrite { read: v, .. } => Some(*v),
            ResolvedArg::Write(_) => None,
        })
    }

    /// All versions this instance writes: OUT/INOUT params then returns.
    pub fn writes(&self) -> impl Iterator<Item = DataVersion> + '_ {
        self.args.iter().filter_map(|a| match a {
            ResolvedArg::Write(v) | ResolvedArg::ReadWrite { write: v, .. } => Some(*v),
            ResolvedArg::Read(_) => None,
        })
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

/// Per function, its latest attempts in a row whose body ran at most
/// `INLINE_BUDGET_US`: fed only under dispatch-ahead, where a fast
/// function's tasks queue deep and its answers are worth a held flush.
#[derive(Default)]
pub(crate) struct Streaks(HashMap<Arc<str>, u8>);

impl Streaks {
    /// Whether function `name`'s last `INLINE_STREAK` bodies were all fast.
    pub fn of(&self, name: &str) -> bool {
        self.0.get(name).is_some_and(|&s| is_fast(s))
    }

    /// A body of function `name` ran `exec_us`: its streak moves on by
    /// `next_streak`, the worker's rule. Allocates only for a function's
    /// first report.
    fn ran(&mut self, name: &Arc<str>, exec_us: u64) {
        match self.0.get_mut(&**name) {
            Some(s) => *s = next_streak(*s, exec_us),
            None => {
                self.0.insert(Arc::clone(name), next_streak(0, exec_us));
            }
        }
    }
}

/// One in-flight execution.
pub(crate) struct RunningExec {
    pub task: TaskId,
    pub placement: Placement,
    pub constraint: Constraint,
    pub attempt: u32,
    /// Dispatch time on the backend's clock.
    pub dispatched_us: u64,
}

/// Mutable runtime state, shared under one lock.
pub(crate) struct Core {
    pub data: DataRegistry,
    pub blocks: BlockStore,
    pub graph: TaskGraph,
    pub sched: Scheduler,
    /// The unsettled tasks: an instance goes when its task settles.
    pub instances: IdMap<TaskId, Instance>,
    pub running: IdMap<u64, RunningExec>,
    /// Ids of the permanently failed tasks, in the order they failed.
    pub failed: Vec<TaskId>,
    pub sim: Option<SimState>,
    pub next_task: u64,
    pub next_seq: u64,
    pub next_exec: u64,
    pub stats: RuntimeStats,
    /// Bytes of snapshot held across `instances`, kept as a running total.
    pub snapshot_bytes: u64,
    pub streaks: Streaks,
}

impl Core {
    /// The backend's clock, µs: virtual under the sim backend (the only one
    /// with sim state), wall time since runtime start otherwise.
    pub fn now_us(&self, shared: &Shared) -> u64 {
        self.sim.as_ref().map_or_else(|| shared.wall_us(), |sim| sim.now())
    }

    /// Queue `task` as ready, retry placement hints included, and fast if
    /// its function is.
    fn push_ready(&mut self, task: TaskId) {
        let inst = &self.instances[&task];
        let entry = ReadyEntry {
            task,
            constraint: inst.def.constraint,
            alternatives: inst.def.alternatives.iter().map(|v| v.constraint).collect(),
            priority: inst.def.priority,
            seq: inst.seq,
            prefer_node: inst.prefer_node,
            exclude_node: inst.exclude_node,
        };
        if self.streaks.of(&inst.def.name) {
            self.sched.push_ready_fast(entry);
        } else {
            self.sched.push_ready(entry);
        }
    }

    /// Drop `v` if it is dead ([`DataRegistry::reap`]), its encoded block
    /// with it.
    fn reap(&mut self, v: DataVersion) {
        if self.data.reap(v) {
            self.blocks.retire(v);
        }
    }

    /// One user of `v` is done with it; the last one out of a version
    /// nobody can name any more takes it along.
    fn release(&mut self, v: DataVersion) {
        if self.data.release(v) {
            self.blocks.retire(v);
        }
    }

    /// An attempt of `task` saved `blob`: it replaces the task's previous
    /// snapshot. A task that has settled has no attempt left to read one, so
    /// a save that arrives late (a worker failed over mid-frame) is dropped.
    pub fn save_snapshot(&mut self, task: TaskId, blob: Arc<[u8]>) {
        let Some(inst) = self.instances.get_mut(&task) else { return };
        self.snapshot_bytes += blob.len() as u64;
        if let Some(old) = inst.snapshot.replace(blob) {
            self.snapshot_bytes -= old.len() as u64;
        }
    }

    /// `task` has settled, so it is dead: its instance goes and its snapshot
    /// with it, the versions it named lose a user, and its node leaves the
    /// graph unless the graph is being recorded. Call once its successors
    /// are released or failed.
    fn retire_task(&mut self, shared: &Shared, task: TaskId) {
        let inst = self.instances.remove(&task).expect("a task settles once");
        self.snapshot_bytes -= inst.snapshot.as_ref().map_or(0, |b| b.len() as u64);
        // One use of each version it named was held since submission.
        for v in inst.reads().chain(inst.writes()) {
            self.release(v);
        }
        if !shared.graph_enabled {
            self.graph.retire(task);
        }
    }

    /// Publish the scheduling and liveness gauges; one relaxed load when
    /// metrics are off.
    pub fn publish_gauges(&self, shared: &Shared) {
        let m = &shared.metrics;
        if !m.enabled() {
            return;
        }
        m.ready_depth.set(self.sched.ready_len() as f64);
        m.running.set(self.running.len() as f64);
        m.live_tasks.set(self.instances.len() as f64);
        m.live_versions.set(self.data.live_versions() as f64);
        m.block_store_bytes.set(self.blocks.bytes() as f64);
        m.live_snapshot_bytes.set(self.snapshot_bytes as f64);
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
    pub(crate) shared: Arc<Shared>,
    backend: BackendHandle,
}

impl Runtime {
    /// Build a runtime on the threaded backend: tasks run on a real thread
    /// pool with slot-accurate resource accounting.
    pub fn threaded(cfg: RuntimeConfig) -> Runtime {
        let shared = Self::make_shared(&cfg);
        let pool = WorkerPool::start(Arc::clone(&shared), &cfg.cluster);
        Runtime { shared, backend: BackendHandle::Threaded(pool) }
    }

    /// Build a runtime on the distributed backend: connect to running
    /// [`crate::backend::distributed::WorkerServer`] daemons at `workers`
    /// (host:port strings), build the cluster from what their `Hello`s
    /// advertise, and execute every task remotely. `cfg.cluster` is
    /// ignored — the real cluster is whatever answered. Fails if any
    /// worker stays unreachable for 5 s.
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
        let boots = connect_workers(workers, CONNECT_TIMEOUT)?;
        Self::from_bootstraps(cfg, boots, dcfg)
    }

    /// Build a distributed runtime over workers someone else already
    /// acquired: the worker-*acquisition* half of [`Runtime::distributed`]
    /// split out, so a long-lived server can gather its pool however it
    /// likes — dialling out with
    /// [`connect_workers`],
    /// adopting dial-ins with
    /// [`WorkerBootstrap::handshake`](crate::backend::distributed::WorkerBootstrap::handshake),
    /// or both — and then own the runtime it builds on top. `cfg.cluster`
    /// is ignored; the real cluster is what the bootstraps advertise. Fails
    /// if the event loop cannot be built (out of fds, say).
    pub fn from_bootstraps(
        cfg: RuntimeConfig,
        boots: Vec<crate::backend::distributed::WorkerBootstrap>,
        dcfg: DistributedConfig,
    ) -> std::io::Result<Runtime> {
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
        let mgr = ConnMgr::start(Arc::clone(&shared), boots, dcfg)?;
        Ok(Runtime { shared, backend: BackendHandle::Distributed(mgr) })
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
        Runtime { shared, backend: BackendHandle::Sim }
    }

    fn make_shared(cfg: &RuntimeConfig) -> Arc<Shared> {
        let sched = Scheduler::new(&cfg.cluster, &cfg.reserved_cores);
        Arc::new(Shared {
            core: Mutex::new(Core {
                data: DataRegistry::new(DEFAULT_VALUE_BYTES),
                blocks: BlockStore::new(),
                graph: TaskGraph::new(),
                sched,
                instances: IdMap::default(),
                running: IdMap::default(),
                failed: Vec::new(),
                sim: None,
                next_task: 1,
                next_seq: 0,
                next_exec: 0,
                stats: RuntimeStats::default(),
                snapshot_bytes: 0,
                streaks: Streaks::default(),
            }),
            cv: Condvar::new(),
            trace: Arc::new(TraceCollector::with_flag(cfg.tracing)),
            metrics: RtMetrics::new(cfg.metrics),
            start: Instant::now(),
            retry: cfg.retry,
            failures: cfg.failures.clone(),
            transfer: TransferModel::for_cluster(&cfg.cluster),
            graph_enabled: cfg.graph,
        })
    }

    /// Register a task definition — the `@task`/`@constraint` decorators.
    /// `returns` is the number of values the body yields *for its return
    /// slots*; bodies must additionally yield one value per OUT/INOUT
    /// argument, in argument order, before the return slots.
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
        if !def.variant_constraints().any(|c| core.sched.satisfiable(&c)) {
            return Err(SubmitError::Unsatisfiable(def.constraint));
        }
        // Check every argument before touching anything, so a refused
        // submission leaves no version behind.
        for arg in &args {
            let h = arg.handle();
            if !core.data.knows(h) {
                return Err(SubmitError::UnknownData(h));
            }
            if !matches!(arg, ArgSpec::Out(_)) && core.data.current_version(h).version == 0 {
                return Err(SubmitError::UnwrittenData(h));
            }
        }
        let id = TaskId(core.next_task);
        let seq = core.next_seq;

        // Resolve arguments: compute dependencies and version bumps. The
        // task becomes a user of every version it names until it settles
        // (`Core::retire_task`).
        let mut deps: Vec<(TaskId, DataVersion)> = Vec::new();
        let mut resolved: Vec<ResolvedArg> = Vec::with_capacity(args.len() + def.returns);
        let write_to = |core: &mut Core, h: DataHandle| {
            let v = core.data.new_version(h, id);
            core.data.acquire(v);
            v
        };
        for arg in &args {
            let h = arg.handle();
            let current = core.data.current_version(h);
            resolved.push(match arg {
                ArgSpec::In(_) | ArgSpec::InOut(_) => {
                    // A read waits for its writer; one that already settled
                    // left a value or a poison mark, and no edge.
                    deps.extend(core.data.pending_on(current).map(|t| (t, current)));
                    core.data.acquire(current);
                    if matches!(arg, ArgSpec::In(_)) {
                        ResolvedArg::Read(current)
                    } else {
                        ResolvedArg::ReadWrite { read: current, write: write_to(&mut core, h) }
                    }
                }
                ArgSpec::Out(_) => {
                    let write = write_to(&mut core, h);
                    // Renamed past without being read: dead unless an
                    // earlier task or a `wait_on` still uses it.
                    core.reap(current);
                    ResolvedArg::Write(write)
                }
            });
        }
        let mut return_handles = Vec::with_capacity(def.returns);
        for _ in 0..def.returns {
            let h = core.data.declare();
            resolved.push(ResolvedArg::Write(write_to(&mut core, h)));
            return_handles.push(h);
        }

        core.next_task += 1;
        core.next_seq += 1;
        core.stats.submitted += 1;
        self.shared.metrics.submitted.incr();
        let submitted_us = core.now_us(&self.shared);

        let state = core.graph.add_task(id, Arc::clone(&def.name), &deps);
        core.instances.insert(
            id,
            Instance {
                def: def.clone(),
                args: resolved,
                attempt: 1,
                prefer_node: None,
                exclude_node: None,
                sim_duration_us: opts.sim_duration_us.unwrap_or(DEFAULT_SIM_DURATION_US),
                seq,
                submitted_us,
                snapshot: None,
            },
        );
        // A read of an already-poisoned version (its producer failed
        // permanently before this submission) can never be satisfied:
        // propagate the failure to this task right away.
        let reads_poisoned = core.instances[&id].reads().any(|v| core.data.is_poisoned(v));
        if reads_poisoned {
            fail_task_cascade(&self.shared, &mut core, id);
        } else if state == TaskState::Ready {
            core.push_ready(id);
        }

        // Nudge the backend: place under the lock, hand the placed work to
        // the worker queue or the wire after dropping it (the queue lock and
        // the encoding must not nest inside the core lock).
        match &self.backend {
            BackendHandle::Threaded(pool) => {
                let msgs = collect_dispatch(&self.shared, &mut core);
                drop(core);
                pool.enqueue(msgs);
            }
            BackendHandle::Distributed(mgr) => {
                let work = collect_dispatch_remote(&self.shared, &mut core);
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
        self.wait_on_timed(h).map(|(value, _)| value)
    }

    /// [`Runtime::wait_on`], plus the exec time in µs of the attempt that
    /// wrote the value, on the runtime's clock: the body's wall time
    /// threaded, its virtual duration simulated, the worker's own stamps
    /// distributed — the time its `rcompss_task_phase_us{phase="exec"}`
    /// sample holds. 0 for main-program data.
    pub fn wait_on_timed(&self, h: &DataHandle) -> Result<(Value, u64), WaitError> {
        let mut core = self.shared.core.lock();
        if !core.data.knows(*h) {
            return Err(WaitError::UnknownData(*h));
        }
        let target = core.data.current_version(*h);
        if self.shared.graph_enabled {
            core.graph.add_sync(target);
        }
        // The wait is a user of its target: a rename or a delete from
        // another thread must not take the version from under it.
        core.data.acquire(target);
        // Version 0 has no writer: once nothing is left to run, nothing will
        // write it.
        self.wait_until(&mut core, |c| {
            c.data.is_ready(target)
                || c.data.is_poisoned(target)
                || (target.version == 0 && c.graph.all_settled())
        });
        let result = if core.data.is_poisoned(target) {
            Err(WaitError::ProducerFailed(*h))
        } else {
            core.data.get_timed(target).ok_or(WaitError::NeverWritten(*h))
        };
        core.release(target);
        core.publish_gauges(&self.shared);
        result
    }

    /// PyCOMPSs' `compss_delete_object`: the main program's promise not to
    /// use `h` again. From here on the handle is unknown
    /// ([`SubmitError::UnknownData`], [`WaitError::UnknownData`]), and the
    /// runtime drops each of its versions — value, residency marks, encoded
    /// block — as soon as no submitted task reads or writes it and no
    /// `wait_on` targets it. Never blocks, and never pulls data from under
    /// a running or retryable task: such a version goes when the task
    /// settles. Without it, the current version of every handle lives as
    /// long as the runtime. Deleting twice, or a handle of another runtime,
    /// does nothing.
    pub fn delete(&self, h: DataHandle) {
        let mut core = self.shared.core.lock();
        let Core { data, blocks, .. } = &mut *core;
        data.delete(h, |v| blocks.retire(v));
        core.publish_gauges(&self.shared);
    }

    /// Wait for every submitted task to settle (done or permanently failed).
    pub fn barrier(&self) {
        let mut core = self.shared.core.lock();
        self.wait_until(&mut core, |c| c.graph.all_settled());
        core.publish_gauges(&self.shared);
    }

    /// Return once `done` holds, or under the sim backend once nothing can
    /// change any more: drive the simulation there, park on the core condvar
    /// otherwise.
    fn wait_until(&self, core: &mut MutexGuard<'_, Core>, done: impl Fn(&Core) -> bool) {
        match &self.backend {
            BackendHandle::Sim => crate::backend::sim::run_until(&self.shared, core, done),
            BackendHandle::Threaded(_) | BackendHandle::Distributed(_) => {
                while !done(core) {
                    self.shared.cv.wait_for(core, Duration::from_millis(100));
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
    /// On the distributed backend a completed attempt's bars are the
    /// worker's own execution stamps (they ride its `Done` frame), rebased
    /// onto the driver timeline with the link's heartbeat clock-offset
    /// estimate — in the trace by the time `wait_on` returns.
    pub fn trace(&self) -> Vec<paratrace::Record> {
        let core = self.shared.core.lock();
        let mut records = self.shared.trace.snapshot();
        let horizon = records.iter().map(|r| r.end_time()).max().unwrap_or(0);
        if horizon > 0 {
            for &(node, c) in &core.sched.reserved {
                records.push(paratrace::Record::State {
                    core: CoreId::new(node, c),
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

    /// DOT rendering of the dependency graph (paper Figure 3): everything
    /// submitted so far under [`RuntimeConfig::graph`], otherwise only the
    /// tasks that have not settled.
    pub fn dot(&self) -> String {
        self.shared.core.lock().graph.to_dot()
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> RuntimeStats {
        self.shared.core.lock().stats.clone()
    }

    /// Ids of permanently-failed tasks, ascending.
    pub fn failed_tasks(&self) -> Vec<TaskId> {
        let mut failed = self.shared.core.lock().failed.clone();
        failed.sort_unstable();
        failed
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
/// launch step gets, next to `&mut Core`. Its placement is the
/// `RunningExec`'s, in `core.running` under `exec_id`.
pub(crate) struct Placed {
    pub exec_id: u64,
    pub task: TaskId,
    pub attempt: u32,
    /// Dispatch time on the backend's clock.
    pub now_us: u64,
    /// Whether its function is fast ([`Streaks::of`]) as it is placed.
    pub fast: bool,
}

/// The first half of the scheduling turn, shared by every backend: place
/// each placeable ready task — timed scheduler decision, attempt and exec
/// id, `RunningExec`, graph state, dispatch metrics — and hand it to
/// `launch`, which does only what is the backend's own (build the message,
/// pay staging, choose how inputs travel); the `TaskDispatch` event follows
/// it. `score` ranks feasible nodes for a task and sees the registry and
/// instances the pop cannot borrow through `Core`. Call with the core
/// locked; [`complete_attempt`] is the other half.
pub(crate) fn place_ready<S: Ord>(
    shared: &Shared,
    core: &mut Core,
    score: impl Fn(&DataRegistry, &IdMap<TaskId, Instance>, TaskId, u32) -> S,
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
        let task = entry.task;
        let inst = core.instances.get(&task).expect("ready task has an instance");
        let (attempt, fast) = (inst.attempt, core.streaks.of(&inst.def.name));
        let now_us = core.now_us(shared);
        shared.metrics.dispatched.incr();
        shared.metrics.dep_wait.record(now_us.saturating_sub(inst.submitted_us));
        let exec_id = core.next_exec;
        core.next_exec += 1;
        let run = RunningExec {
            task,
            placement,
            constraint: entry.constraint,
            attempt,
            dispatched_us: now_us,
        };
        core.running.insert(exec_id, run);
        core.graph.set_running(task);
        launch(core, Placed { exec_id, task, attempt, now_us, fast });
        if shared.trace.is_enabled() {
            let lead = core.running[&exec_id].placement.lead_core();
            let task_ref = TaskRef::new(task.0, Arc::clone(&core.instances[&task].def.name));
            shared.trace.event(lead, now_us, EventKind::TaskDispatch(task_ref));
        }
    }
    core.publish_gauges(shared);
}

/// A backend's whole account of an ended attempt, on the runtime's clock, as
/// it hands it to [`complete_attempt`] once: where the bars go and every
/// phase it could time. A phase it cannot time stays `None` and gets no
/// sample.
#[derive(Default)]
pub(crate) struct Report {
    /// Where the bars go: the body's own span where the backend knows it.
    /// `None` draws none (an attempt killed before its body started).
    pub span: Option<(u64, u64)>,
    /// Time the attempt waited where it runs before its body started (a
    /// task dispatched ahead, the threaded run queue): counted as queue.
    pub held_us: u64,
    pub wire_us: Option<u64>,
    /// The body's run time: the exec phase, stored with every version the
    /// attempt wrote.
    pub exec_us: Option<u64>,
    pub ship_us: Option<u64>,
}

/// The trace records of one ended attempt: a `task_run` bar over `span` on
/// every core of the placement and, unless the attempt was killed with its
/// node, the `TaskEnd` event at the span's end. Builds nothing with tracing
/// off.
fn emit_attempt_spans(
    shared: &Shared,
    task: TaskRef,
    placement: &Placement,
    (start_us, end_us): (u64, u64),
    killed: bool,
) {
    if !shared.trace.is_enabled() {
        return;
    }
    for (node, cores) in placement.node_cores() {
        for &c in cores {
            let core = CoreId::new(node, c);
            shared.trace.task_run(core, start_us, end_us.max(start_us + 1), task.clone());
        }
    }
    if !killed {
        shared.trace.event(placement.lead_core(), end_us, EventKind::TaskEnd(task));
    }
}

/// What [`complete_attempt`] made of an ended attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Settled {
    /// The exec id was no longer running (a late frame of a failed-over
    /// attempt); its values were left unread.
    Stale,
    /// The attempt failed, whatever its body returned: an injected failure
    /// or a wrong value count fails an `Ok` too.
    Failed,
    /// Its outputs are stored.
    Stored,
}

/// The second half of the scheduling turn, and the one place an ended
/// attempt is recorded: store its outputs and release its successors, or
/// drive the retry policy; then, unless it was killed, one
/// `rcompss_task_phase_us` sample per phase `report` timed — queue always,
/// as submission → dispatch plus what was held — and last its bars. All of
/// it under the core lock, so whoever sees the attempt settled sees its
/// record. Called from every backend. `node_gone`: the attempt died with
/// its node, in [`lose_node`].
pub(crate) fn complete_attempt(
    shared: &Shared,
    core: &mut Core,
    exec_id: u64,
    result: Result<impl ExactSizeIterator<Item = Value>, TaskError>,
    report: Report,
    now_us: u64,
    node_gone: bool,
) -> Settled {
    let Some(run) = core.running.remove(&exec_id) else { return Settled::Stale };
    let Report { span, held_us, wire_us, exec_us, ship_us } = report;
    let task = run.task;
    let inst = &core.instances[&task];
    let (name, submitted_us) = (Arc::clone(&inst.def.name), inst.submitted_us);
    if !node_gone {
        core.sched.release(&run.placement, &run.constraint);
    }
    if let Some(us) = exec_us.filter(|_| core.sched.dispatches_ahead()) {
        core.streaks.ran(&name, us);
    }

    // Consult the failure injector (deterministic chaos for tests/benches).
    let injected = shared.failures.attempt_fails(task.0, run.attempt);
    let writes = inst.writes().count();
    let outcome = match result {
        _ if injected => Err(TaskError::new("injected failure")),
        // A body, or a peer, that returns the wrong number of values failed.
        Ok(values) if values.len() != writes => Err(TaskError::new(format!(
            "task '{name}' returned {} values but declares {writes} outputs",
            values.len()
        ))),
        result => result,
    };

    let settled = match outcome {
        Ok(values) => {
            let Core { instances, data, .. } = &mut *core;
            let inst = instances.get(&task).expect("instance exists");
            shared.metrics.record_task_latency(&name, now_us.saturating_sub(run.dispatched_us));
            let node = run.placement.node;
            for (v, value) in inst.writes().zip(values) {
                data.put(v, value, exec_us.unwrap_or(0));
                data.add_location(v, node);
            }
            core.stats.completed += 1;
            shared.metrics.completed.incr();
            core.stats.makespan_us = core.stats.makespan_us.max(now_us);
            for t in core.graph.set_done(task) {
                core.push_ready(t);
            }
            core.retire_task(shared, task);
            Settled::Stored
        }
        Err(_) => {
            core.stats.failed_attempts += 1;
            shared.metrics.failed_attempts.incr();
            shared.trace.event(
                run.placement.lead_core(),
                now_us,
                EventKind::TaskFailure {
                    task: TaskRef::new(task.0, Arc::clone(&name)),
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
                            .any(|c| core.sched.satisfiable_excluding(&c, run.placement.node))
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
                    core.push_ready(task);
                }
            }
            Settled::Failed
        }
    };
    if !node_gone {
        let m = &shared.metrics;
        m.phase_queue.record(run.dispatched_us.saturating_sub(submitted_us) + held_us);
        for (phase, us) in
            [(&m.phase_wire, wire_us), (&m.phase_exec, exec_us), (&m.phase_ship, ship_us)]
        {
            if let Some(us) = us {
                phase.record(us);
            }
        }
    }
    if let Some(span) = span {
        emit_attempt_spans(shared, TaskRef::new(task.0, name), &run.placement, span, node_gone);
    }
    settled
}

/// Lose `node` for good: the one node-loss path of every backend, a
/// simulated node failure and a written-off worker link alike. The node is
/// killed and forgets its data and block residency; the loss is counted and
/// traced. Every attempt that touched the node fails with `node_gone`, so
/// the retry policy moves it. One that had its cores keeps a bar from its
/// dispatch to the loss with no `TaskEnd`, as nothing is known of a body
/// that never reported; one still queued behind another on its cores
/// (dispatch-ahead) never ran and draws nothing. Last, every ready task no
/// surviving node can run fails now rather than hanging a barrier. Call
/// with the core locked.
pub(crate) fn lose_node(shared: &Shared, core: &mut Core, node: u32, now_us: u64) {
    core.sched.kill_node(node);
    core.data.clear_node_locations(node);
    core.blocks.clear_node(node);
    shared.metrics.node_failures.incr();
    shared.trace.event(CoreId::new(node, 0), now_us, EventKind::NodeFailure);
    let mut victims: Vec<u64> =
        core.running.iter().filter(|(_, r)| r.placement.involves(node)).map(|(&e, _)| e).collect();
    // Dispatch order: a core's running attempt comes before those queued
    // behind it.
    victims.sort_unstable();
    let mut killed: Vec<Placement> = Vec::with_capacity(victims.len());
    for exec_id in victims {
        let run = &core.running[&exec_id];
        let queued = killed.iter().any(|k| k.shares_core(&run.placement));
        let report =
            Report { span: (!queued).then_some((run.dispatched_us, now_us)), ..Report::default() };
        killed.push(run.placement.clone());
        let lost = Err::<std::iter::Empty<Value>, _>(TaskError::new("node lost"));
        complete_attempt(shared, core, exec_id, lost, report, now_us, true);
    }
    for entry in core.sched.drain_unsatisfiable() {
        fail_task_cascade(shared, core, entry.task);
    }
}

/// Permanently fail `task` and transitively fail all dependents, poisoning
/// every version they would have produced ("the failure of task does not
/// affect the other tasks unless there are some dependencies"). The
/// dependents are the graph's successor edges: a task that reads a version
/// of a still-unsettled writer got one at submission, and a later one finds
/// the poison mark instead.
pub(crate) fn fail_task_cascade(shared: &Shared, core: &mut Core, task: TaskId) {
    let mut stack = vec![task];
    while let Some(t) = stack.pop() {
        // Reached over a second edge: it failed, and went, the first time.
        let Core { instances, data, .. } = &mut *core;
        let Some(inst) = instances.get(&t) else { continue };
        for v in inst.writes() {
            data.poison(v);
        }
        stack.extend(core.graph.set_failed(t));
        core.stats.failed += 1;
        shared.metrics.failed.incr();
        core.failed.push(t);
        core.retire_task(shared, t);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;
    use crate::{TaskRegistry, WorkerConfig, WorkerServer};

    #[test]
    fn wait_on_keeps_its_target_through_a_rename() {
        // Version 2 of `h` is being written by a task parked on a gate. A
        // waiter targets it; only then does an INOUT task rename `h` past
        // it and the gate open. However the waiter's wake-up interleaves
        // with the two completions — after both, version 2 is superseded
        // and has no task left — the wait returns the version it targeted.
        for _ in 0..40 {
            let rt = Runtime::threaded(RuntimeConfig::single_node(2).with_tracing(false));
            let (open, gate) = mpsc::channel::<()>();
            let gate = Mutex::new(gate);
            let slow = rt.register("slow", Constraint::cpus(1), 0, move |_, i| {
                gate.lock().recv().ok();
                Ok(vec![Value::new(i[0].downcast_ref::<u64>().unwrap() + 1)])
            });
            let bump = rt.register("bump", Constraint::cpus(1), 0, |_, i| {
                Ok(vec![Value::new(i[0].downcast_ref::<u64>().unwrap() + 10)])
            });
            let h = rt.literal(1u64);
            rt.submit(&slow, vec![ArgSpec::InOut(h)]).unwrap();
            let v2 = DataVersion { handle: h, version: 2 };
            let value = |v: Value| *v.downcast_ref::<u64>().unwrap();
            std::thread::scope(|s| {
                let waiter = s.spawn(|| rt.wait_on(&h).map(value));
                // The waiter is in: its target has the writer and the wait.
                while rt.shared.core.lock().data.users(v2) < 2 {
                    std::thread::yield_now();
                }
                rt.submit(&bump, vec![ArgSpec::InOut(h)]).unwrap();
                open.send(()).unwrap();
                assert_eq!(waiter.join().unwrap(), Ok(2));
            });
            assert_eq!(rt.wait_on(&h).map(value), Ok(12));
            let core = rt.shared.core.lock();
            assert!(core.data.get(v2).is_none(), "the superseded version went with the wait");
            assert_eq!((core.data.live_versions(), core.instances.len()), (1, 0));
        }
    }

    #[test]
    fn deleted_block_input_is_still_there_for_the_retry_on_the_survivor() {
        // The reader of a block-sized input is running on one of two
        // loopback workers when the main program deletes the input and the
        // worker dies. The retry needs the block again, on the other node.
        runmetrics::global().set_enabled(true);
        let (started, running_on) = mpsc::channel::<u32>();
        let started = Mutex::new(started);
        let sum = TaskDef {
            name: "sum".into(),
            constraint: Constraint::cpus(1),
            returns: 1,
            priority: false,
            body: Arc::new(move |ctx: &crate::task::TaskContext, inputs: &[Value]| {
                started.lock().send(ctx.node).ok();
                if ctx.attempt == 1 {
                    // Outlive the kill; a halted worker reports nothing.
                    std::thread::sleep(Duration::from_millis(400));
                }
                let data: &Vec<f64> = inputs[0].downcast_ref().unwrap();
                Ok(vec![Value::new(data.iter().sum::<f64>())])
            }),
            alternatives: Vec::new(),
        };
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let cfg = WorkerConfig { name: format!("w{i}"), cores: 1, ..Default::default() };
                let registry = TaskRegistry::new().with(sum.clone());
                WorkerServer::bind("127.0.0.1:0", cfg, registry).unwrap().spawn().unwrap()
            })
            .collect();
        let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
        let rt = Runtime::distributed(
            RuntimeConfig::single_node(1)
                .with_tracing(false)
                .with_retry(RetryPolicy { max_attempts: 4, same_node_first: false }),
            &addrs,
            DistributedConfig {
                heartbeat_interval: Duration::from_millis(50),
                heartbeat_timeout: Duration::from_millis(300),
                inline_threshold: 16 * 1024,
            },
        )
        .unwrap();

        let dataset: Vec<f64> = (0..4096).map(|i| (i as f64).sin()).collect();
        let block_bytes =
            crate::codec::encode_value(&Value::new(dataset.clone())).unwrap().bytes.len();
        let input = rt.literal(dataset.clone());
        rt.set_data_bytes(input, (dataset.len() * 8) as u64);
        let out = rt.submit(&sum, vec![ArgSpec::In(input)]).unwrap().returns[0];
        let node = running_on.recv().expect("first attempt started");
        rt.delete(input);
        assert!(matches!(rt.wait_on(&input), Err(WaitError::UnknownData(_))));
        assert_eq!(rt.shared.core.lock().blocks.bytes(), block_bytes as u64, "deferred");
        workers[node as usize].halt();

        let got = rt.wait_on(&out).expect("the survivor finishes the task");
        assert_eq!(
            got.downcast_ref::<f64>().unwrap().to_bits(),
            dataset.iter().sum::<f64>().to_bits()
        );
        assert_ne!(running_on.recv().expect("second attempt started"), node);
        assert_eq!(rt.metrics().snapshot().counter("rcompss_tasks_retried_total"), Some(1));
        rt.delete(out);

        // Nothing is live any more, and what the driver believes resident is
        // what the workers cache: nothing on the dead node, the one block on
        // the survivor.
        let core = rt.shared.core.lock();
        assert_eq!((core.instances.len(), core.data.live_versions()), (0, 0));
        assert_eq!((core.blocks.bytes(), core.graph.len()), (0, 0));
        assert_eq!((core.blocks.resident_on(node), core.blocks.resident_on(1 - node)), (0, 1));
        let cached = runmetrics::global().snapshot().gauge("rcompss_block_cache_resident_bytes");
        assert_eq!(cached, Some(block_bytes as f64));
    }

    /// Heartbeat every 50 ms, written off after 300 ms unanswered: the
    /// cadence of the kill drills in `tests/distributed.rs`.
    fn drill_heartbeats() -> DistributedConfig {
        DistributedConfig {
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_timeout: Duration::from_millis(300),
            ..DistributedConfig::default()
        }
    }

    #[test]
    fn a_driver_stall_loses_no_worker() {
        // Two live workers. The test thread holds the core lock for a second
        // and lets a task finish inside it, so the driver loop blocks in that
        // task's `Done` bookkeeping: for a second it sends no heartbeat and
        // reads no ack. Neither worker went quiet, so neither is lost, and
        // the pool still runs the next task.
        let (open, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let gated = TaskDef {
            name: "gated".into(),
            constraint: Constraint::cpus(1),
            returns: 1,
            priority: false,
            body: Arc::new(move |_: &crate::task::TaskContext, _: &[Value]| {
                // Bounded: where a worker is wrongly lost, its task runs a
                // second time elsewhere with no token left to take.
                gate.lock().recv_timeout(Duration::from_secs(5)).ok();
                Ok(vec![Value::new(7u64)])
            }),
            alternatives: Vec::new(),
        };
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let cfg = WorkerConfig { name: format!("w{i}"), cores: 1, ..Default::default() };
                let registry = TaskRegistry::new().with(gated.clone());
                WorkerServer::bind("127.0.0.1:0", cfg, registry).unwrap().spawn().unwrap()
            })
            .collect();
        let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
        let rt = Runtime::distributed(
            RuntimeConfig::single_node(1).with_tracing(false),
            &addrs,
            drill_heartbeats(),
        )
        .unwrap();
        let value = |v: Value| *v.downcast_ref::<u64>().unwrap();

        let first = rt.submit(&gated, vec![]).unwrap().returns[0];
        {
            let _stall = rt.shared.core.lock();
            open.send(()).unwrap();
            std::thread::sleep(Duration::from_secs(1));
        }
        assert_eq!(rt.wait_on(&first).map(value), Ok(7));
        open.send(()).unwrap();
        let second = rt.submit(&gated, vec![]).expect("the pool is whole").returns[0];
        assert_eq!(rt.wait_on(&second).map(value), Ok(7));
        let lost = rt.metrics().snapshot().counter("rcompss_workers_lost_total");
        assert_eq!(lost, Some(0), "a stalled driver wrote off live workers");
    }

    #[test]
    fn a_silent_peer_is_written_off_within_timeout_and_one_interval() {
        // A peer that says `Hello` and then nothing, its socket open: no
        // EOF, no error, only heartbeats that are never answered.
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let hello = rnet::Frame::Hello { name: "mute".into(), cores: 1, gpus: 0, mem_gib: 1 };
            sock.write_all(&hello.encode()).unwrap();
            sock
        });
        let dcfg = drill_heartbeats();
        let (timeout, interval) = (dcfg.heartbeat_timeout, dcfg.heartbeat_interval);
        let t0 = Instant::now();
        let rt = Runtime::distributed(RuntimeConfig::single_node(1), &[addr], dcfg).unwrap();
        let _open = peer.join().unwrap();
        let lost = || rt.metrics().snapshot().counter("rcompss_workers_lost_total") == Some(1);
        while !lost() && t0.elapsed() < 10 * timeout {
            std::thread::sleep(Duration::from_millis(2));
        }
        let took = t0.elapsed();
        assert!(lost(), "a silent peer was never written off");
        assert!(took >= timeout, "written off after {took:?}, before the timeout");
        assert!(took <= timeout + interval, "written off after {took:?}");
    }
}
