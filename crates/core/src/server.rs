//! The sweep server: HPO-as-a-service over a shared worker pool.
//!
//! A single long-lived [`SweepServer`] owns one `rcompss` runtime (and
//! therefore the whole worker pool) and runs **many concurrent sweeps from
//! many tenants** over it. Clients speak the same `rnet` wire protocol as
//! workers — the first frame on a fresh connection decides the role
//! ([`Frame::Hello`] ⇒ worker, [`Frame::ClientHello`] ⇒ sweep client) —
//! and drive sweeps with five client-facing frames:
//!
//! * [`Frame::SubmitSweep`] — tenant submits a named sweep (search-space
//!   JSON, algorithm, trial budget, seed). Answered with a
//!   [`Frame::SweepStatus`] ack carrying the assigned sweep id, or a
//!   [`Frame::SweepReject`] (admission control / bad request / quota).
//! * [`Frame::SweepStatus`] — point-in-time query; with `follow != 0` the
//!   connection also subscribes to the sweep's live event stream.
//! * [`Frame::LeaderboardChunk`] — streamed to subscribers after every
//!   collected trial.
//! * [`Frame::CancelSweep`] — cooperative abort: nothing further is
//!   submitted, in-flight trials drain normally, workers return to the
//!   pool.
//! * [`Frame::SweepDone`] — terminal notification with the final state.
//!
//! **Fair share.** Every trial submission passes through a fair gate:
//! a weighted round-robin over the tenants currently waiting to submit,
//! with a per-tenant token bucket (`rate`/`burst`) and an optional total
//! trial quota on top. The gate blocks inside the sweep's submission loop
//! (via [`SweepControl::with_gate`]), so a throttled tenant's sweep simply
//! pauses between waves while other tenants' trials flow — the shared
//! pool stays busy. Quota exhaustion ends the sweep cleanly after the
//! in-flight wave drains.
//!
//! **Admission control.** At most `max_active` sweeps run concurrently;
//! further submissions queue up to `max_queued` deep and are rejected
//! beyond that with [`REJECT_QUEUE_FULL`].
//!
//! **Parity.** A served sweep drives the exact same
//! [`HpoRunner::execute`] loop as the standalone `hpo-run` binary with
//! the same options, objective and seed — with an open gate the two
//! produce bit-identical trial tables, and the integration tests assert
//! it. A server started with a stage objective additionally evaluates
//! every wave as a stage tree ([`Evaluator::Stages`]): shared training
//! prefixes run once, the trial table stays bit-identical, and the
//! sweep's done message carries the "N epochs saved" banner.
//!
//! Per-tenant and per-sweep telemetry lands in the runtime's metrics
//! registry (`hposerver_sweeps_active`, `hposerver_sweeps_queued`,
//! `hposerver_sweeps_completed_total`, `hposerver_sweeps_rejected_total`,
//! `hposerver_tenant_throttled_total{tenant=…}`,
//! `hposerver_trial_latency_us{sweep=…}`) and exports through the usual
//! `/metrics` status endpoint.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rcompss::{connect_workers, Runtime, WorkerBootstrap};
use rnet::{
    read_frame, write_frame, Fill, Frame, FrameRef, Interest, LeaderRow, Poller, RecvBuf, SendBuf,
    Waker,
};

use crate::algo::bayes::BayesSearch;
use crate::algo::grid::GridSearch;
use crate::algo::random::RandomSearch;
use crate::algo::tpe::TpeSearch;
use crate::algo::Suggester;
use crate::dashboard::stage_banner;
use crate::experiment::{ExperimentOptions, Objective};
use crate::results::TrialResult;
use crate::runner::{Evaluator, HpoRunner, SweepControl, SweepPlan};
use crate::space::SearchSpace;
use crate::stagetree::StageObjective;

/// Sweep accepted, waiting for a free run slot.
pub const SWEEP_QUEUED: u32 = 0;
/// Sweep is actively submitting and collecting trials.
pub const SWEEP_RUNNING: u32 = 1;
/// Sweep finished normally (including a clean quota halt — see the
/// `message` on [`Frame::SweepDone`]).
pub const SWEEP_DONE: u32 = 2;
/// Sweep aborted on a runtime submission error.
pub const SWEEP_FAILED: u32 = 3;
/// Sweep cancelled by a client; collected trials are complete results.
pub const SWEEP_CANCELLED: u32 = 4;

/// Human-readable name for a sweep state code.
pub fn state_name(state: u32) -> &'static str {
    match state {
        SWEEP_QUEUED => "queued",
        SWEEP_RUNNING => "running",
        SWEEP_DONE => "done",
        SWEEP_FAILED => "failed",
        SWEEP_CANCELLED => "cancelled",
        _ => "unknown",
    }
}

/// Is this state terminal (no further events will follow)?
pub fn is_terminal(state: u32) -> bool {
    state >= SWEEP_DONE
}

/// Reject code: the sweep queue is at `max_queued` — retry later.
pub const REJECT_QUEUE_FULL: u32 = 1;
/// Reject code: malformed request (no `ClientHello`, bad space JSON,
/// unknown algorithm, zero trials…). The message says which.
pub const REJECT_BAD_REQUEST: u32 = 2;
/// Reject code: the tenant's total trial quota is already spent.
pub const REJECT_QUOTA: u32 = 3;
/// Reject code: the server is still gathering its worker pool.
pub const REJECT_NOT_READY: u32 = 4;
/// Reject code: no sweep with that id.
pub const REJECT_UNKNOWN_SWEEP: u32 = 5;
/// Reject code: the client left more than [`MAX_CLIENT_BACKLOG`] bytes
/// unread, and the connection is closed.
pub const REJECT_BACKLOG_FULL: u32 = 6;

/// Bytes the server queues for one client connection that does not read
/// them. Past this the connection is closed with [`REJECT_BACKLOG_FULL`]:
/// the backlog is the server's memory, and a watcher that never reads
/// would otherwise grow it without bound.
pub const MAX_CLIENT_BACKLOG: usize = 8 << 20;

/// Tuning knobs for a [`SweepServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Sweeps allowed to run concurrently; further admissions queue.
    pub max_active: usize,
    /// Queued sweeps beyond the active set before [`REJECT_QUEUE_FULL`].
    pub max_queued: usize,
    /// Per-tenant trial admissions per second (token-bucket refill rate).
    /// `0.0` disables rate limiting — the gate still round-robins.
    pub rate: f64,
    /// Token-bucket capacity: how many admissions a tenant may burst
    /// after idling. Ignored when `rate == 0.0`.
    pub burst: f64,
    /// Per-tenant total trial budget across all sweeps; `0` = unlimited.
    /// An exhausted tenant's running sweeps halt cleanly and further
    /// submissions get [`REJECT_QUOTA`].
    pub quota_trials: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_active: 4, max_queued: 16, rate: 0.0, burst: 8.0, quota_trials: 0 }
    }
}

/// Build a suggester from its wire name — the vocabulary of
/// [`Frame::SubmitSweep`]'s `algo` field (`grid`, `random`, `tpe`,
/// `bayes`).
pub fn build_algo(
    algo: &str,
    space: &SearchSpace,
    trials: usize,
    seed: u64,
) -> Result<Box<dyn Suggester>, String> {
    match algo {
        "grid" => Ok(Box::new(GridSearch::new(space))),
        "random" => Ok(Box::new(RandomSearch::new(space, trials, seed))),
        "tpe" => Ok(Box::new(TpeSearch::new(space, trials, seed))),
        "bayes" => Ok(Box::new(BayesSearch::new(space, trials, seed))),
        other => Err(format!("unknown algorithm '{other}' (grid|random|tpe|bayes)")),
    }
}

/// How a [`SweepServer`] assembles its worker pool at startup.
#[derive(Debug, Clone, Default)]
pub struct PoolPlan {
    /// Worker addresses the server dials out to (`host:port`).
    pub dial: Vec<String>,
    /// Workers expected to dial *in* (started with `--dial` pointing at
    /// this server) before the pool is sealed.
    pub expect_dial_in: usize,
    /// Deadline for the whole gathering phase.
    pub timeout: Duration,
}

impl PoolPlan {
    /// Dial out to `addrs` with a `timeout`; expect no dial-ins.
    pub fn dial_out(addrs: &[String], timeout: Duration) -> PoolPlan {
        PoolPlan { dial: addrs.to_vec(), expect_dial_in: 0, timeout }
    }
}

/// Gather the worker pool on the server's listener: dial out to
/// `plan.dial`, then accept dial-ins until `plan.expect_dial_in` workers
/// have introduced themselves with a [`Frame::Hello`]. A client that
/// connects during gathering is answered with [`REJECT_NOT_READY`] and
/// closed. Returns the bootstraps to feed
/// [`Runtime::from_bootstraps`](rcompss::Runtime::from_bootstraps).
pub fn gather_workers(listener: &TcpListener, plan: &PoolPlan) -> io::Result<Vec<WorkerBootstrap>> {
    let mut boots = connect_workers(&plan.dial, plan.timeout)?;
    if plan.expect_dial_in == 0 {
        return Ok(boots);
    }
    let want = plan.dial.len() + plan.expect_dial_in;
    let deadline = Instant::now() + plan.timeout;
    listener.set_nonblocking(true)?;
    while boots.len() < want {
        match listener.accept() {
            Ok((stream, peer)) => {
                if let Some(boot) = adopt_dial_in(stream, peer) {
                    boots.push(boot);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("gathered {} of {want} workers before the deadline", boots.len()),
                    ));
                }
                thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(boots)
}

/// Read the first frame off a fresh connection and decide its role:
/// `Hello` becomes a worker bootstrap, anything else is turned away.
fn adopt_dial_in(stream: TcpStream, peer: SocketAddr) -> Option<WorkerBootstrap> {
    stream.set_nonblocking(false).ok()?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut stream = stream;
    match read_frame(&mut stream, &mut RecvBuf::new()) {
        Ok(Some(Frame::Hello { name, cores, gpus, mem_gib })) => {
            let _ = stream.set_read_timeout(None);
            Some(WorkerBootstrap::from_hello(stream, peer.to_string(), name, cores, gpus, mem_gib))
        }
        Ok(Some(_)) => {
            let _ = write_frame(
                &mut stream,
                &Frame::SweepReject {
                    code: REJECT_NOT_READY,
                    message: "server is still gathering its worker pool".to_string(),
                },
            );
            None
        }
        _ => None,
    }
}

/// The fair-share admission gate: weighted round-robin across tenants
/// with a per-tenant token bucket and total-trial quota. One `acquire`
/// admits one trial submission; callers block until it is their turn
/// (or their sweep is cancelled, or their quota is gone).
struct FairGate {
    rate: f64,
    burst: f64,
    quota: u64,
    registry: Arc<runmetrics::MetricsRegistry>,
    state: Mutex<FairState>,
    cv: Condvar,
}

/// One tenant's lane through the gate.
struct TenantLane {
    tokens: f64,
    last_refill: Instant,
    /// Trials admitted so far, charged against the quota.
    spent: u64,
    /// Sweeps currently blocked in `acquire` for this tenant.
    waiting: usize,
    /// Times an `acquire` had to wait (one count per wait, not per
    /// retry); mirrored into `hposerver_tenant_throttled_total{tenant=…}`.
    throttled: u64,
    throttled_metric: runmetrics::Counter,
}

struct FairState {
    lanes: HashMap<String, TenantLane>,
    /// Round-robin order; the granted tenant rotates to the back.
    ring: VecDeque<String>,
}

/// Outcome of one [`FairGate::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    /// The tenant may submit one trial.
    Granted,
    /// The tenant's total trial quota is spent; the sweep should halt.
    Quota,
    /// The wait was abandoned (sweep cancelled / server stopping).
    Halted,
}

impl FairGate {
    fn new(cfg: &ServerConfig, registry: Arc<runmetrics::MetricsRegistry>) -> FairGate {
        FairGate {
            rate: cfg.rate,
            burst: cfg.burst.max(1.0),
            quota: cfg.quota_trials,
            registry,
            state: Mutex::new(FairState { lanes: HashMap::new(), ring: VecDeque::new() }),
            cv: Condvar::new(),
        }
    }

    fn ensure_lane(&self, st: &mut FairState, tenant: &str) {
        if !st.lanes.contains_key(tenant) {
            let metric = self.registry.counter(&runmetrics::labeled(
                "hposerver_tenant_throttled_total",
                "tenant",
                tenant,
            ));
            st.lanes.insert(
                tenant.to_string(),
                TenantLane {
                    tokens: self.burst,
                    last_refill: Instant::now(),
                    spent: 0,
                    waiting: 0,
                    throttled: 0,
                    throttled_metric: metric,
                },
            );
            st.ring.push_back(tenant.to_string());
        }
    }

    fn refill(&self, st: &mut FairState, now: Instant) {
        if self.rate <= 0.0 {
            return;
        }
        for lane in st.lanes.values_mut() {
            let dt = now.duration_since(lane.last_refill).as_secs_f64();
            lane.last_refill = now;
            lane.tokens = (lane.tokens + dt * self.rate).min(self.burst);
        }
    }

    /// The tenant whose turn it is: first lane in ring order that has a
    /// waiter, quota headroom and (when rate limiting) a whole token.
    /// Skipping token-less lanes keeps the gate work-conserving — one
    /// throttled tenant never stalls the others.
    fn next_grant(&self, st: &FairState) -> Option<String> {
        st.ring
            .iter()
            .find(|name| {
                let lane = &st.lanes[*name];
                lane.waiting > 0
                    && (self.quota == 0 || lane.spent < self.quota)
                    && (self.rate <= 0.0 || lane.tokens >= 1.0)
            })
            .cloned()
    }

    /// Block until this tenant wins an admission (or can never win one).
    /// `halt` is the sweep's cancel token: setting it abandons the wait.
    fn acquire(&self, tenant: &str, halt: &AtomicBool) -> Admit {
        let mut st = self.state.lock();
        self.ensure_lane(&mut st, tenant);
        st.lanes.get_mut(tenant).expect("lane just ensured").waiting += 1;
        let mut counted_wait = false;
        let verdict = loop {
            if halt.load(Ordering::Relaxed) {
                break Admit::Halted;
            }
            self.refill(&mut st, Instant::now());
            let me = &st.lanes[tenant];
            if self.quota > 0 && me.spent >= self.quota {
                break Admit::Quota;
            }
            if self.next_grant(&st).as_deref() == Some(tenant) {
                let lane = st.lanes.get_mut(tenant).expect("lane exists");
                if self.rate > 0.0 {
                    lane.tokens -= 1.0;
                }
                lane.spent += 1;
                if let Some(pos) = st.ring.iter().position(|n| n == tenant) {
                    let name = st.ring.remove(pos).expect("position in bounds");
                    st.ring.push_back(name);
                }
                break Admit::Granted;
            }
            if !counted_wait {
                counted_wait = true;
                let lane = st.lanes.get_mut(tenant).expect("lane exists");
                lane.throttled += 1;
                lane.throttled_metric.incr();
            }
            // Timed wait doubles as the token-refill clock under rate
            // limiting and keeps cancellation latency bounded.
            self.cv.wait_for(&mut st, Duration::from_millis(5));
        };
        st.lanes.get_mut(tenant).expect("lane exists").waiting -= 1;
        drop(st);
        self.cv.notify_all();
        verdict
    }

    fn throttled_total(&self, tenant: &str) -> u64 {
        self.state.lock().lanes.get(tenant).map_or(0, |l| l.throttled)
    }

    fn spent(&self, tenant: &str) -> u64 {
        self.state.lock().lanes.get(tenant).map_or(0, |l| l.spent)
    }
}

/// Everything a queued sweep needs to start running.
struct SweepSpec {
    space_json: String,
    algo: String,
    trials: u32,
    seed: u64,
    wave: u32,
}

/// Server-side record of one sweep, shared between the client plane and
/// the sweep's driver thread.
struct Sweep {
    tenant: String,
    name: String,
    state: u32,
    total: u32,
    done: u32,
    failed: u32,
    best_acc: f64,
    best_label: String,
    /// Full leaderboard in completion order — replayed to late
    /// subscribers, streamed row-by-row to live ones.
    rows: Vec<LeaderRow>,
    control: SweepControl,
    /// Why the sweep halted early, if it did (quota message).
    halt_reason: Arc<Mutex<String>>,
    spec: Option<SweepSpec>,
    started: Option<Instant>,
    wall_us: u64,
    message: String,
}

struct ServeState {
    sweeps: HashMap<u64, Sweep>,
    queue: VecDeque<u64>,
    active: usize,
    next_id: u64,
    drivers: Vec<JoinHandle<()>>,
}

/// Handles for the server-level metric series, pre-registered so they
/// export at zero.
struct ServerMetrics {
    active: runmetrics::Gauge,
    queued: runmetrics::Gauge,
    completed: runmetrics::Counter,
    rejected: runmetrics::Counter,
}

impl ServerMetrics {
    fn new(reg: &runmetrics::MetricsRegistry) -> ServerMetrics {
        ServerMetrics {
            active: reg.gauge("hposerver_sweeps_active"),
            queued: reg.gauge("hposerver_sweeps_queued"),
            completed: reg.counter("hposerver_sweeps_completed_total"),
            rejected: reg.counter("hposerver_sweeps_rejected_total"),
        }
    }
}

struct ServerInner {
    rt: Runtime,
    objective: Objective,
    /// When set, [`Evaluator::pick`] may evaluate each wave of a sweep as
    /// a stage tree — shared prefixes trained once, trial tables
    /// bit-identical to one task per trial. Workers in the pool must have
    /// registered [`crate::stagetree::stage_task_def`] for the same
    /// objective.
    stage: Option<StageObjective>,
    opts: ExperimentOptions,
    cfg: ServerConfig,
    gate: Arc<FairGate>,
    state: Mutex<ServeState>,
    /// Sweep-thread → client-plane event mailbox: frames to fan out to
    /// the sweep's subscribers, paired with a waker kick.
    events: Mutex<VecDeque<(u64, Frame)>>,
    wake: Arc<Waker>,
    stop: AtomicBool,
    metrics: ServerMetrics,
}

impl ServerInner {
    fn emit(&self, sweep_id: u64, frame: Frame) {
        self.events.lock().push_back((sweep_id, frame));
        let _ = self.wake.wake();
    }

    fn refresh_gauges(&self, st: &ServeState) {
        self.metrics.active.set(st.active as f64);
        self.metrics.queued.set(st.queue.len() as f64);
    }

    fn status_frame(&self, sweep_id: u64, s: &Sweep) -> Frame {
        Frame::SweepStatus {
            sweep_id,
            state: s.state,
            done: s.done,
            failed: s.failed,
            total: s.total,
            best_acc: s.best_acc,
            best_label: s.best_label.clone(),
            throttled: self.gate.throttled_total(&s.tenant),
            follow: 0,
        }
    }

    fn done_frame(&self, sweep_id: u64, s: &Sweep) -> Frame {
        Frame::SweepDone {
            sweep_id,
            state: s.state,
            wall_us: s.wall_us,
            message: s.message.clone(),
        }
    }
}

/// Poll token of the client plane's self-pipe waker.
const WAKE_TOKEN: u64 = u64::MAX;
/// Poll token of the listening socket.
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// One connected sweep client on the nonblocking plane.
struct ClientConn {
    stream: TcpStream,
    token: u64,
    recv: RecvBuf,
    registered_write: bool,
    session: Session,
}

/// What a client's frames act on, apart from the `recv` a decoded frame
/// borrows.
struct Session {
    out: SendBuf,
    /// Set by `ClientHello`; required before any sweep verb.
    tenant: Option<String>,
    /// Sweep ids this connection streams events for.
    watching: HashSet<u64>,
}

/// A long-lived, multi-tenant HPO sweep server over one shared runtime.
///
/// Start one with [`SweepServer::start_staged`]; it owns the runtime (and
/// so the worker pool) until dropped. The client plane runs on its own
/// thread — a readiness loop over the listener and every client
/// connection — and each admitted sweep drives [`HpoRunner::execute`] on
/// a thread of its own, all sharing the one runtime.
pub struct SweepServer {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    plane: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for SweepServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepServer").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl SweepServer {
    /// Take ownership of `rt` and serve sweeps on `listener`. The
    /// `objective` and `opts` apply to every sweep (the task definition
    /// must match what the pool's workers registered). With a `stage`
    /// objective, sweeps share training prefixes across the configs of
    /// each wave (see [`crate::stagetree`]) and report the epochs saved in
    /// the sweep's done message and the `hpo_stage_epochs_saved_total` /
    /// `hpo_prefix_forks_total` counters.
    pub fn start_staged(
        listener: TcpListener,
        rt: Runtime,
        objective: Objective,
        stage: Option<StageObjective>,
        opts: ExperimentOptions,
        cfg: ServerConfig,
    ) -> io::Result<SweepServer> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let wake = Arc::new(Waker::new(&poller, WAKE_TOKEN)?);
        poller.register(listener.as_raw_fd(), LISTEN_TOKEN, Interest::READ)?;
        let registry = rt.metrics();
        let gate = Arc::new(FairGate::new(&cfg, Arc::clone(&registry)));
        let metrics = ServerMetrics::new(&registry);
        let inner = Arc::new(ServerInner {
            rt,
            objective,
            stage,
            opts,
            cfg,
            gate,
            state: Mutex::new(ServeState {
                sweeps: HashMap::new(),
                queue: VecDeque::new(),
                active: 0,
                next_id: 1,
                drivers: Vec::new(),
            }),
            events: Mutex::new(VecDeque::new()),
            wake,
            stop: AtomicBool::new(false),
            metrics,
        });
        let loop_inner = Arc::clone(&inner);
        let plane = thread::Builder::new()
            .name("hpo-sweep-server".to_string())
            .spawn(move || serve_loop(loop_inner, poller, listener))?;
        Ok(SweepServer { inner, addr, plane: Some(plane) })
    }

    /// The address the client plane listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The owned runtime's metrics registry (feed this to a
    /// [`rnet::StatusServer`] for `/metrics`).
    pub fn metrics(&self) -> Arc<runmetrics::MetricsRegistry> {
        self.inner.rt.metrics()
    }

    /// Stop serving: cancel every live sweep, drain their in-flight
    /// trials, close all client connections and join every thread.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        {
            let st = self.inner.state.lock();
            for sweep in st.sweeps.values() {
                sweep.control.cancel();
            }
        }
        let _ = self.inner.wake.wake();
        if let Some(plane) = self.plane.take() {
            let _ = plane.join();
        }
        loop {
            let drivers: Vec<JoinHandle<()>> = {
                let mut st = self.inner.state.lock();
                st.drivers.drain(..).collect()
            };
            if drivers.is_empty() {
                break;
            }
            for d in drivers {
                let _ = d.join();
            }
        }
    }
}

impl Drop for SweepServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Start queued sweeps while run slots are free. Called from the client
/// plane on submit and from a finishing driver thread; a stopped server
/// starts nothing.
fn pump(inner: &Arc<ServerInner>) {
    let mut st = inner.state.lock();
    while st.active < inner.cfg.max_active && !inner.stop.load(Ordering::Relaxed) {
        let Some(id) = st.queue.pop_front() else { break };
        let Some(sweep) = st.sweeps.get_mut(&id) else { continue };
        if sweep.state != SWEEP_QUEUED {
            continue;
        }
        sweep.state = SWEEP_RUNNING;
        sweep.started = Some(Instant::now());
        st.active += 1;
        let driver_inner = Arc::clone(inner);
        let handle = thread::Builder::new()
            .name(format!("sweep-{id}"))
            .spawn(move || run_sweep(driver_inner, id))
            .expect("spawn sweep driver");
        st.drivers.push(handle);
    }
    inner.refresh_gauges(&st);
}

/// Drive one sweep to completion on its own thread, streaming every
/// collected trial to the client plane.
fn run_sweep(inner: Arc<ServerInner>, id: u64) {
    let (spec, control, halt_reason, sweep_name) = {
        let mut st = inner.state.lock();
        let sweep = st.sweeps.get_mut(&id).expect("sweep exists while running");
        (
            sweep.spec.take().expect("queued sweep has a spec"),
            sweep.control.clone(),
            Arc::clone(&sweep.halt_reason),
            sweep.name.clone(),
        )
    };
    // Space and algorithm were validated at admission; a failure here is
    // still reported, not unwound.
    let result =
        SearchSpace::from_json(&spec.space_json).map_err(|e| e.to_string()).and_then(|space| {
            build_algo(&spec.algo, &space, spec.trials as usize, spec.seed).map(|a| (space, a))
        });
    let (_space, mut algo) = match result {
        Ok(pair) => pair,
        Err(msg) => {
            finish_sweep(&inner, id, SWEEP_FAILED, msg);
            return;
        }
    };
    let mut opts = inner.opts.clone();
    if spec.wave > 0 {
        opts.wave_size = Some(spec.wave as usize);
    }
    let runner = HpoRunner::new(opts);
    let latency = inner.rt.metrics().histogram(&runmetrics::labeled(
        "hposerver_trial_latency_us",
        "sweep",
        &sweep_name,
    ));
    let trial_inner = Arc::clone(&inner);
    let observer = |trial: &TrialResult| {
        latency.record(trial.task_us);
        on_trial(&trial_inner, id, trial);
    };
    let plan = SweepPlan {
        control: Some(&control),
        ..SweepPlan::new(Evaluator::pick(
            &runner.opts,
            inner.objective.clone(),
            inner.stage.as_ref(),
        ))
    };
    let outcome = runner.execute(&inner.rt, algo.as_mut(), plan, observer).map(|o| o.stages);
    let (state, message) = match outcome {
        Err(e) => (SWEEP_FAILED, format!("submission failed: {e}")),
        Ok(_) if control.is_cancelled() => (SWEEP_CANCELLED, "cancelled".to_string()),
        Ok(stats) => {
            let mut message = halt_reason.lock().clone();
            // Surface the savings banner in the done message so sweep
            // clients see "N epochs saved" without scraping /metrics.
            let banner = stage_banner(&stats);
            if !banner.is_empty() {
                message =
                    if message.is_empty() { banner } else { format!("{message} · {banner}") };
            }
            (SWEEP_DONE, message)
        }
    };
    finish_sweep(&inner, id, state, message);
}

/// Fold one collected trial into the sweep record and stream it out.
fn on_trial(inner: &Arc<ServerInner>, id: u64, trial: &TrialResult) {
    // The bare config label (accuracy travels in its own field), matching
    // the `config` column of `HpoReport::to_csv` so served and standalone
    // leaderboards diff clean.
    let row = LeaderRow {
        label: trial.config.label(),
        accuracy: trial.outcome.accuracy,
        epochs: trial.outcome.epochs_run,
        task_us: trial.task_us,
    };
    {
        let mut st = inner.state.lock();
        let Some(sweep) = st.sweeps.get_mut(&id) else { return };
        if trial.outcome.is_failed() {
            sweep.failed += 1;
        } else {
            sweep.done += 1;
            if trial.outcome.accuracy > sweep.best_acc || sweep.best_label.is_empty() {
                sweep.best_acc = trial.outcome.accuracy;
                sweep.best_label = row.label.clone();
            }
        }
        sweep.rows.push(row.clone());
    }
    inner.emit(id, Frame::LeaderboardChunk { sweep_id: id, rows: vec![row] });
}

/// Move a sweep to a terminal state, free its run slot, notify
/// subscribers and start whatever was queued behind it.
fn finish_sweep(inner: &Arc<ServerInner>, id: u64, state: u32, message: String) {
    let done = {
        let mut st = inner.state.lock();
        let sweep = st.sweeps.get_mut(&id).expect("sweep exists while finishing");
        sweep.wall_us = sweep.started.map_or(0, |t| t.elapsed().as_micros() as u64);
        sweep.state = state;
        sweep.message = message;
        st.active = st.active.saturating_sub(1);
        inner.metrics.completed.incr();
        let sweep = &st.sweeps[&id];
        let frame = inner.done_frame(id, sweep);
        inner.refresh_gauges(&st);
        frame
    };
    inner.emit(id, done);
    pump(inner);
}

/// The client plane's longest wait for readiness.
const TICK: Duration = Duration::from_millis(200);

/// The client plane: accept clients, decode their frames, answer, and
/// fan sweep events out to subscribers — all on one readiness loop.
fn serve_loop(inner: Arc<ServerInner>, poller: Poller, listener: TcpListener) {
    let mut conns: HashMap<u64, ClientConn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut events: Vec<rnet::Event> = Vec::new();
    // When the listener left the poller: an accept failed (out of fds, say)
    // with the connection still queued, and a level-triggered listener
    // would end every wait at once until an fd frees.
    let mut parked: Option<Instant> = None;
    while !inner.stop.load(Ordering::Relaxed) {
        if poller.wait(&mut events, Some(TICK)).is_err() {
            break;
        }
        let mut dead: Vec<u64> = Vec::new();
        for ev in &events {
            match ev.token {
                WAKE_TOKEN => inner.wake.drain(),
                LISTEN_TOKEN => {
                    if accept_clients(&poller, &listener, &mut conns, &mut next_token).is_err() {
                        let _ = poller.deregister(listener.as_raw_fd());
                        parked = Some(Instant::now());
                    }
                }
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if ev.readable && !service_read(&inner, conn) {
                            dead.push(token);
                        }
                    }
                }
            }
        }
        // Deliver sweep-thread events to every subscribed connection.
        let pending: Vec<(u64, Frame)> = {
            let mut q = inner.events.lock();
            q.drain(..).collect()
        };
        for (sweep_id, frame) in &pending {
            for (token, conn) in conns.iter_mut() {
                if conn.session.watching.contains(sweep_id) {
                    conn.session.out.push(frame);
                    if !within_backlog(&mut conn.session) {
                        dead.push(*token);
                    }
                }
            }
        }
        for (token, conn) in conns.iter_mut() {
            if !flush_conn(&poller, conn) {
                dead.push(*token);
            }
        }
        // A closed connection frees an fd; without one, retry each tick.
        let retry = parked.is_some_and(|at| !dead.is_empty() || at.elapsed() >= TICK);
        for token in dead {
            if let Some(conn) = conns.remove(&token) {
                let _ = poller.deregister(conn.stream.as_raw_fd());
            }
        }
        if retry && poller.register(listener.as_raw_fd(), LISTEN_TOKEN, Interest::READ).is_ok() {
            parked = None;
        }
    }
    for (_, conn) in conns.drain() {
        let _ = poller.deregister(conn.stream.as_raw_fd());
    }
    let _ = poller.deregister(listener.as_raw_fd());
}

/// Accept every pending client connection and register it for reads.
/// An error leaves the rest of the queue where it is.
fn accept_clients(
    poller: &Poller,
    listener: &TcpListener,
    conns: &mut HashMap<u64, ClientConn>,
    next_token: &mut u64,
) -> io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if poller.register(stream.as_raw_fd(), token, Interest::READ).is_err() {
                    continue;
                }
                conns.insert(
                    token,
                    ClientConn {
                        stream,
                        token,
                        recv: RecvBuf::new(),
                        registered_write: false,
                        session: Session {
                            out: SendBuf::new(),
                            tenant: None,
                            watching: HashSet::new(),
                        },
                    },
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) => return Err(e),
        }
    }
}

/// Drain readable bytes and handle every complete frame, reading until a
/// read comes back short (level-triggered epoll re-raises the event for
/// later bytes). `false` means the connection is finished (EOF, protocol
/// error, or a fatal verb).
fn service_read(inner: &Arc<ServerInner>, conn: &mut ClientConn) -> bool {
    // Split the borrows: the frame borrows `recv`, its handler writes the
    // session.
    let ClientConn { stream, recv, session, .. } = conn;
    loop {
        match recv.fill_from(stream) {
            Ok(Fill::Bytes(_)) => {
                let short = recv.last_read_short();
                loop {
                    let frame = match recv.next_frame() {
                        Ok(Some(frame)) => frame,
                        Ok(None) if short => return true,
                        Ok(None) => break,
                        Err(_) => return false,
                    };
                    if !handle_frame(inner, session, frame) || !within_backlog(session) {
                        return false;
                    }
                }
            }
            Ok(Fill::WouldBlock) => return true,
            Ok(Fill::Eof) | Err(_) => return false,
        }
    }
}

/// Whether a session's unsent backlog is within [`MAX_CLIENT_BACKLOG`].
/// Past it, the reject is queued behind the backlog (a client that reads
/// again learns why it was cut off) and the connection is to be closed.
fn within_backlog(session: &mut Session) -> bool {
    if session.out.pending() <= MAX_CLIENT_BACKLOG {
        return true;
    }
    session.out.push(&Frame::SweepReject {
        code: REJECT_BACKLOG_FULL,
        message: format!("more than {MAX_CLIENT_BACKLOG} bytes left unread"),
    });
    false
}

/// Flush a connection's backlog and keep its write interest in sync.
fn flush_conn(poller: &Poller, conn: &mut ClientConn) -> bool {
    if conn.session.out.is_empty() && !conn.registered_write {
        return true;
    }
    let drained = match conn.session.out.flush(&mut conn.stream) {
        Ok((_, drained)) => drained,
        Err(_) => return false,
    };
    let want_write = !drained;
    if want_write != conn.registered_write {
        let interest = if want_write { Interest::READ_WRITE } else { Interest::READ };
        if poller.modify(conn.stream.as_raw_fd(), conn.token, interest).is_ok() {
            conn.registered_write = want_write;
        }
    }
    true
}

/// Dispatch one decoded client frame. Returns `false` to close.
fn handle_frame(inner: &Arc<ServerInner>, session: &mut Session, frame: FrameRef<'_>) -> bool {
    match frame {
        FrameRef::ClientHello { tenant, proto: _ } => {
            session.tenant = Some(tenant.to_string());
            true
        }
        FrameRef::SubmitSweep { name, space_json, algo, trials, seed, wave } => {
            handle_submit(inner, session, name, space_json, algo, trials, seed, wave);
            true
        }
        FrameRef::SweepStatus { sweep_id, follow, .. } => {
            let st = inner.state.lock();
            match st.sweeps.get(&sweep_id) {
                None => session.out.push(&Frame::SweepReject {
                    code: REJECT_UNKNOWN_SWEEP,
                    message: format!("no sweep with id {sweep_id}"),
                }),
                Some(sweep) => {
                    session.out.push(&inner.status_frame(sweep_id, sweep));
                    if follow != 0 {
                        session.watching.insert(sweep_id);
                        if !sweep.rows.is_empty() {
                            let rows = sweep.rows.iter().map(LeaderRow::as_ref).collect();
                            session.out.push(&FrameRef::LeaderboardChunk { sweep_id, rows });
                        }
                        if is_terminal(sweep.state) {
                            session.out.push(&inner.done_frame(sweep_id, sweep));
                        }
                    }
                }
            }
            true
        }
        FrameRef::CancelSweep { sweep_id } => {
            handle_cancel(inner, session, sweep_id);
            true
        }
        // A worker Hello after the pool was sealed, or any other worker
        // protocol frame on the client plane: turn it away.
        FrameRef::Hello { .. } => {
            session.out.push(&Frame::SweepReject {
                code: REJECT_NOT_READY,
                message: "worker pool is sealed; restart the server to add workers".to_string(),
            });
            false
        }
        _ => false,
    }
}

/// Admission control for one `SubmitSweep`.
#[allow(clippy::too_many_arguments)]
fn handle_submit(
    inner: &Arc<ServerInner>,
    session: &mut Session,
    name: &str,
    space_json: &str,
    algo: &str,
    trials: u32,
    seed: u64,
    wave: u32,
) {
    let reject = |session: &mut Session, code: u32, message: String| {
        inner.metrics.rejected.incr();
        session.out.push(&Frame::SweepReject { code, message });
    };
    let Some(tenant) = session.tenant.clone() else {
        reject(session, REJECT_BAD_REQUEST, "ClientHello must precede SubmitSweep".to_string());
        return;
    };
    let space = match SearchSpace::from_json(space_json) {
        Ok(s) => s,
        Err(e) => {
            reject(session, REJECT_BAD_REQUEST, format!("bad search space: {e}"));
            return;
        }
    };
    if algo != "grid" && trials == 0 {
        reject(
            session,
            REJECT_BAD_REQUEST,
            "trials must be > 0 for sampled algorithms".to_string(),
        );
        return;
    }
    if let Err(e) = build_algo(algo, &space, trials.max(1) as usize, seed) {
        reject(session, REJECT_BAD_REQUEST, e);
        return;
    }
    if inner.cfg.quota_trials > 0 && inner.gate.spent(&tenant) >= inner.cfg.quota_trials {
        reject(
            session,
            REJECT_QUOTA,
            format!("tenant '{tenant}' has spent its {}-trial quota", inner.cfg.quota_trials),
        );
        return;
    }
    let total = match algo {
        "grid" => space.grid_size().map_or(0, |n| n as u32),
        _ => trials,
    };
    let ack = {
        let mut st = inner.state.lock();
        // A submission that can start immediately never queues, so the
        // queue-depth bound only applies once the active slots are taken.
        if st.active >= inner.cfg.max_active && st.queue.len() >= inner.cfg.max_queued {
            drop(st);
            reject(
                session,
                REJECT_QUEUE_FULL,
                format!("sweep queue is full ({} deep)", inner.cfg.max_queued),
            );
            return;
        }
        let id = st.next_id;
        st.next_id += 1;
        let control = SweepControl::new();
        let token = control.cancel_token();
        let halt_reason = Arc::new(Mutex::new(String::new()));
        let gate = Arc::clone(&inner.gate);
        let gate_tenant = tenant.clone();
        let gate_reason = Arc::clone(&halt_reason);
        let quota = inner.cfg.quota_trials;
        let control = control.with_gate(move || match gate.acquire(&gate_tenant, &token) {
            Admit::Granted => true,
            Admit::Quota => {
                *gate_reason.lock() =
                    format!("tenant '{gate_tenant}' spent its {quota}-trial quota");
                false
            }
            Admit::Halted => false,
        });
        st.sweeps.insert(
            id,
            Sweep {
                tenant: tenant.clone(),
                name: name.to_string(),
                state: SWEEP_QUEUED,
                total,
                done: 0,
                failed: 0,
                best_acc: 0.0,
                best_label: String::new(),
                rows: Vec::new(),
                control,
                halt_reason,
                spec: Some(SweepSpec {
                    space_json: space_json.to_string(),
                    algo: algo.to_string(),
                    trials,
                    seed,
                    wave,
                }),
                started: None,
                wall_us: 0,
                message: String::new(),
            },
        );
        st.queue.push_back(id);
        inner.refresh_gauges(&st);
        session.watching.insert(id);
        inner.status_frame(id, &st.sweeps[&id])
    };
    session.out.push(&ack);
    pump(inner);
}

/// Cancel a sweep: a queued one dies in place, a running one gets its
/// control flag set and finishes through the normal drain path.
fn handle_cancel(inner: &Arc<ServerInner>, session: &mut Session, sweep_id: u64) {
    let mut st = inner.state.lock();
    let Some(sweep) = st.sweeps.get_mut(&sweep_id) else {
        session.out.push(&Frame::SweepReject {
            code: REJECT_UNKNOWN_SWEEP,
            message: format!("no sweep with id {sweep_id}"),
        });
        return;
    };
    session.watching.insert(sweep_id);
    match sweep.state {
        SWEEP_QUEUED => {
            sweep.state = SWEEP_CANCELLED;
            sweep.message = "cancelled while queued".to_string();
            let status = inner.status_frame(sweep_id, sweep);
            let done = inner.done_frame(sweep_id, sweep);
            st.queue.retain(|id| *id != sweep_id);
            inner.metrics.completed.incr();
            inner.refresh_gauges(&st);
            session.out.push(&status);
            drop(st);
            inner.emit(sweep_id, done);
        }
        SWEEP_RUNNING => {
            sweep.control.cancel();
            let status = inner.status_frame(sweep_id, sweep);
            session.out.push(&status);
        }
        _ => {
            let status = inner.status_frame(sweep_id, sweep);
            let done = inner.done_frame(sweep_id, sweep);
            session.out.push(&status);
            session.out.push(&done);
        }
    }
}
