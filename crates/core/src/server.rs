//! The sweep server: HPO-as-a-service over a shared worker pool.
//!
//! A single long-lived [`SweepServer`] owns one `rcompss` runtime (and
//! therefore the whole worker pool) and runs **many concurrent sweeps from
//! many tenants** over it. Clients speak the same `rnet` wire protocol as
//! workers — the first frame on a fresh connection decides the role
//! ([`Frame::Hello`] ⇒ worker, [`Frame::ClientHello`] ⇒ sweep client).
//! A client submits a sweep ([`Frame::SubmitSweep`], answered by a
//! [`Frame::SweepStatus`] ack or a [`Frame::SweepReject`]), queries or
//! follows it ([`Frame::SweepStatus`]), receives its rows
//! ([`Frame::LeaderboardChunk`]) and its end ([`Frame::SweepDone`]), and
//! may cancel it ([`Frame::CancelSweep`]): in-flight trials drain, and the
//! workers return to the pool.
//!
//! **Fair share.** The runner consults a fair gate before every trial (via
//! [`SweepControl::with_gate`]): round-robin over the tenants waiting to
//! submit, a per-tenant token bucket (`rate`/`burst`) and an optional
//! total trial quota, whose exhaustion ends the sweep cleanly. A throttled
//! sweep waits for its grant while other tenants' trials flow.
//! **Admission.** At most `max_active` sweeps run and `max_queued` more
//! wait; the rest get [`REJECT_QUEUE_FULL`].
//!
//! **Parity.** A served sweep drives the exact same
//! [`HpoRunner::execute`] loop as the standalone `hpo-run` binary with
//! the same options, objective and seed — with an open gate the two
//! produce bit-identical trial tables, and the integration tests assert
//! it. A server started with a stage trainer additionally evaluates
//! every wave as a stage tree ([`Evaluator::Stages`]): shared training
//! prefixes run once, the trial table stays bit-identical, and the
//! sweep's done message carries the "N epochs saved" banner.
//!
//! Per-tenant and per-sweep telemetry lands in the runtime's metrics
//! registry (`hposerver_sweeps_active`, `hposerver_sweeps_queued`,
//! `hposerver_sweeps_completed_total`, `hposerver_sweeps_rejected_total`,
//! `hposerver_tenant_throttled_total{tenant=…}`,
//! `hposerver_trial_latency_us{sweep=…}`) and exports through the usual
//! `/metrics` status endpoint. Despite its name, the last holds each
//! trial's `task_us`, the exec time of the attempt that produced it, not a
//! latency from submission to leaderboard row (ROADMAP item 2).
//!
//! **Shape.** Every decision above is made by one sans-IO `State`
//! (see `server/state.rs`): events in, actions out, the time passed in
//! with each event. This module is the shell around it — the sockets, the
//! threads, the clock and the one lock the state sits behind.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};
use rcompss::{connect_workers, Runtime, WorkerBootstrap};
use rnet::{
    write_frame, Acceptor, Frame, FrameRef, LeaderRow, Link, Poller, SendBuf, Waker, LISTEN_TOKEN,
    WAKE_TOKEN,
};

use crate::algo::bayes::BayesSearch;
use crate::algo::grid::GridSearch;
use crate::algo::random::RandomSearch;
use crate::algo::tpe::TpeSearch;
use crate::algo::Suggester;
use crate::client::SubmitSpec;
use crate::dashboard::stage_banner;
use crate::experiment::Trainer;
use crate::experiment::{ExperimentOptions, Objective};
use crate::results::TrialResult;
use crate::runner::{Evaluator, HpoRunner, SweepControl, SweepPlan};
use crate::space::SearchSpace;

mod state;
use state::{Action, Admit, ConnId, Event, State, SweepId};

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
/// `bayes`). Grid search needs a space with a finite grid.
pub fn build_algo(
    algo: &str,
    space: &SearchSpace,
    trials: usize,
    seed: u64,
) -> Result<Box<dyn Suggester>, String> {
    match algo {
        "grid" if space.grid_size().is_none() => {
            Err("grid search needs discrete domains; the space has a continuous one".to_string())
        }
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
    let poller = Poller::new()?;
    let mut acceptor = Acceptor::new(listener.try_clone()?, &poller, LISTEN_TOKEN)?;
    let mut events = Vec::new();
    while boots.len() < want {
        let Some(left) = deadline.checked_duration_since(Instant::now()) else {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("gathered {} of {want} workers before the deadline", boots.len()),
            ));
        };
        poller.wait(&mut events, acceptor.bound(Some(left)))?;
        // The first frame names the peer: a worker's `Hello` joins the
        // pool, anything else is turned away.
        acceptor.accept(&poller, |stream, peer| {
            match WorkerBootstrap::handshake(stream, peer.to_string()) {
                Ok(boot) => boots.push(boot),
                Err((e, mut stream)) if e.kind() == io::ErrorKind::InvalidData => {
                    let message = "server is still gathering its worker pool".to_string();
                    let reject = Frame::SweepReject { code: REJECT_NOT_READY, message };
                    let _ = write_frame(&mut stream, &reject);
                }
                Err(_) => {}
            }
        });
        acceptor.unpark(&poller, false);
    }
    Ok(boots)
}

/// What every server thread shares: the runtime and the one lock around
/// the server's decisions.
struct Server {
    rt: Runtime,
    objective: Objective,
    /// When set, [`Evaluator::pick`] may evaluate each wave as a stage
    /// tree; the pool's workers must have registered
    /// [`crate::stagetree::stage_task_def`] for the same trainer.
    stage: Option<Trainer>,
    opts: ExperimentOptions,
    /// Zero of the microsecond clock [`State`] is fed.
    epoch: Instant,
    wake: Waker,
    core: Mutex<Core>,
}

/// The decisions and the mailboxes their actions fill.
struct Core {
    state: State,
    /// Frames for the client plane, the only owner of sockets, in the
    /// order they were decided.
    outbox: Vec<(ConnId, Frame)>,
    drivers: HashMap<SweepId, Driver>,
    /// Sweeps started, for [`Server::unlock`] to spawn.
    starts: Vec<(SweepId, SubmitSpec, Arc<Condvar>)>,
    /// Sweep threads, for the client plane to join once exited.
    reap: Vec<JoinHandle<()>>,
    /// When the client plane's current wait ends, µs on the state clock.
    plane_wakes_at: u64,
}

/// The mailbox a running sweep's gate waits on.
struct Driver {
    cv: Arc<Condvar>,
    grant: Option<Admit>,
}

/// Who applies an event: the client plane (which sends the outbox before
/// it waits again), the plane handling a connection's frame (frames for it
/// go straight to its buffer), or another thread (`Some(id)`: sweep `id`'s
/// gate, which gets its own grant back inline).
enum By<'a> {
    Plane,
    Conn(ConnId, &'a mut SendBuf),
    Other(Option<SweepId>),
}

impl Server {
    /// Apply `event` and carry out its actions, all but thread spawns,
    /// with the lock held: frames go to `by`'s connection or the outbox,
    /// grants to their sweep's mailbox; a started sweep gets its mailbox
    /// here, so no grant can miss it, and an ended one's is dropped.
    /// Another thread wakes the client plane when it left frames to send
    /// or an earlier deadline.
    fn apply(&self, core: &mut Core, ev: Event, mut by: By<'_>) -> Option<Admit> {
        let sends = core.outbox.len();
        let mut mine = None;
        for action in core.state.apply(ev, self.epoch.elapsed().as_micros() as u64) {
            match action {
                Action::Send(to, frame) => match &mut by {
                    By::Conn(conn, out) if *conn == to => out.push(&frame),
                    _ => core.outbox.push((to, frame)),
                },
                Action::Grant(id, admit) if matches!(by, By::Other(Some(me)) if me == id) => {
                    mine = Some(admit)
                }
                Action::Grant(id, admit) => {
                    if let Some(driver) = core.drivers.get_mut(&id) {
                        driver.grant = Some(admit);
                        driver.cv.notify_one();
                    }
                }
                Action::Start(id, spec) => {
                    let cv = Arc::new(Condvar::new());
                    core.drivers.insert(id, Driver { cv: Arc::clone(&cv), grant: None });
                    core.starts.push((id, spec, cv));
                }
                Action::Join(id) => drop(core.drivers.remove(&id)),
            }
        }
        let sooner = core.state.next_deadline().is_some_and(|d| d < core.plane_wakes_at);
        if matches!(by, By::Other(_)) && ((sends == 0 && !core.outbox.is_empty()) || sooner) {
            let _ = self.wake.wake();
        }
        mine
    }

    /// Apply `event` under the lock, then [`Server::unlock`].
    fn event(self: &Arc<Self>, ev: Event, by: By<'_>) {
        let mut core = self.core.lock();
        self.apply(&mut core, ev, by);
        self.unlock(core);
    }

    /// Release the lock, spawning the started sweeps' threads outside it.
    /// A sweep whose thread cannot be spawned ends [`SWEEP_FAILED`].
    fn unlock<'a>(self: &'a Arc<Self>, mut core: MutexGuard<'a, Core>) {
        while let Some((id, spec, cv)) = core.starts.pop() {
            drop(core);
            let srv = Arc::clone(self);
            let run = move || run_sweep(srv, id, spec, cv);
            let spawned = thread::Builder::new().name(format!("sweep-{id}")).spawn(run);
            core = self.core.lock();
            match spawned {
                Ok(handle) => core.reap.push(handle),
                Err(e) => {
                    let message = format!("cannot start the sweep: {e}");
                    let ended = Event::SweepEnded { sweep: id, state: SWEEP_FAILED, message };
                    self.apply(&mut core, ended, By::Other(None));
                }
            }
        }
    }

    /// The fair gate, as the sweep's runner sees it: wait for the state's
    /// answer to this sweep's next trial.
    fn admit(self: &Arc<Self>, id: SweepId, cv: &Condvar) -> bool {
        let mut core = self.core.lock();
        let mut grant = self.apply(&mut core, Event::WantTrial { sweep: id }, By::Other(Some(id)));
        while grant.is_none() {
            cv.wait(&mut core);
            grant = core.drivers.get_mut(&id).and_then(|d| d.grant.take());
        }
        self.unlock(core);
        grant == Some(Admit::Granted)
    }
}

/// One connected sweep client on the nonblocking plane, keyed by its poll
/// token, which is its [`ConnId`].
struct ClientConn {
    link: Link,
    out: SendBuf,
}

/// A long-lived, multi-tenant HPO sweep server over one shared runtime.
///
/// Start one with [`SweepServer::start_staged`]; it owns the runtime (and
/// so the worker pool) until dropped. The client plane runs on its own
/// thread — a readiness loop over the listener and every client
/// connection — and each admitted sweep drives [`HpoRunner::execute`] on
/// a thread of its own, all sharing the one runtime.
pub struct SweepServer {
    srv: Arc<Server>,
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
    /// trainer, sweeps share training prefixes across the configs of
    /// each wave (see [`crate::stagetree`]) and report the epochs saved in
    /// the sweep's done message and the `hpo_stage_epochs_saved_total` /
    /// `hpo_prefix_forks_total` counters.
    pub fn start_staged(
        listener: TcpListener,
        rt: Runtime,
        objective: Objective,
        stage: Option<Trainer>,
        opts: ExperimentOptions,
        cfg: ServerConfig,
    ) -> io::Result<SweepServer> {
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let wake = Waker::new(&poller, WAKE_TOKEN)?;
        let acceptor = Acceptor::new(listener, &poller, LISTEN_TOKEN)?;
        let state = State::new(&cfg, rt.metrics());
        let srv = Arc::new(Server {
            rt,
            objective,
            stage,
            opts,
            epoch: Instant::now(),
            wake,
            core: Mutex::new(Core {
                state,
                outbox: Vec::new(),
                drivers: HashMap::new(),
                starts: Vec::new(),
                reap: Vec::new(),
                plane_wakes_at: u64::MAX,
            }),
        });
        let plane_srv = Arc::clone(&srv);
        let plane = thread::Builder::new()
            .name("hpo-sweep-server".to_string())
            .spawn(move || serve_loop(plane_srv, poller, acceptor))?;
        Ok(SweepServer { srv, addr, plane: Some(plane) })
    }

    /// The address the client plane listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The owned runtime's metrics registry (feed this to a
    /// [`rnet::StatusServer`] for `/metrics`).
    pub fn metrics(&self) -> Arc<runmetrics::MetricsRegistry> {
        self.srv.rt.metrics()
    }

    /// Stop serving: cancel every live sweep, drain their in-flight
    /// trials, close all client connections and join every thread.
    pub fn shutdown(self) {}
}

impl Drop for SweepServer {
    fn drop(&mut self) {
        let Some(plane) = self.plane.take() else { return };
        self.srv.event(Event::Stop, By::Other(None));
        let _ = self.srv.wake.wake();
        let _ = plane.join();
        // A sweep started just before the stop may still be spawning; its
        // spawner is joined first, so take threads until none is left.
        loop {
            let Some(thread) = self.srv.core.lock().reap.pop() else { break };
            let _ = thread.join();
        }
    }
}

/// Drive one sweep to completion on its own thread, streaming every
/// collected trial to the state.
fn run_sweep(srv: Arc<Server>, id: SweepId, spec: SubmitSpec, cv: Arc<Condvar>) {
    let name = runmetrics::labeled("hposerver_trial_latency_us", "sweep", &spec.name);
    let latency = srv.rt.metrics().histogram(&name);
    let observer = |trial: &TrialResult| {
        latency.record(trial.task_us);
        // The bare config label (accuracy travels in its own field),
        // matching the `config` column of `HpoReport::to_csv` so served
        // and standalone leaderboards diff clean.
        let row = LeaderRow {
            label: trial.config.label(),
            accuracy: trial.outcome.accuracy,
            epochs: trial.outcome.epochs_run,
            task_us: trial.task_us,
        };
        let failed = trial.outcome.is_failed();
        srv.event(Event::TrialDone { sweep: id, row, failed }, By::Other(Some(id)));
    };
    let gate_srv = Arc::clone(&srv);
    let control = SweepControl::new().with_gate(move || gate_srv.admit(id, &cv));
    // Space and algorithm were validated at admission; a failure here is
    // still reported, not unwound.
    let swept =
        SearchSpace::from_json(&spec.space_json).map_err(|e| e.to_string()).and_then(|space| {
            let mut algo = build_algo(&spec.algo, &space, spec.trials as usize, spec.seed)?;
            let mut opts = srv.opts.clone();
            if spec.wave > 0 {
                opts.wave_size = Some(spec.wave as usize);
            }
            let runner = HpoRunner::new(opts);
            let evaluator =
                Evaluator::pick(&runner.opts, srv.objective.clone(), srv.stage.as_ref());
            let plan = SweepPlan { control: Some(&control), ..SweepPlan::new(evaluator) };
            let outcome = runner.execute(&srv.rt, algo.as_mut(), plan, observer);
            outcome.map_err(|e| format!("submission failed: {e}"))
        });
    let (state, message) = match swept {
        Ok(outcome) => (SWEEP_DONE, stage_banner(&outcome.stages)),
        Err(message) => (SWEEP_FAILED, message),
    };
    srv.event(Event::SweepEnded { sweep: id, state, message }, By::Other(Some(id)));
}

/// The client plane's longest wait for readiness.
const TICK: Duration = Duration::from_millis(200);

/// The client plane: accept clients, decode their frames into events,
/// send what the state decided, and wake the state when its deadline is
/// due — all on one readiness loop.
fn serve_loop(srv: Arc<Server>, poller: Poller, mut acceptor: Acceptor) {
    let mut conns: HashMap<u64, ClientConn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut events: Vec<rnet::Event> = Vec::new();
    let mut outbox: Vec<(ConnId, Frame)> = Vec::new();
    let mut dead: Vec<u64> = Vec::new();
    let mut timeout = TICK;
    loop {
        if poller.wait(&mut events, Some(timeout)).is_err() {
            break;
        }
        for ev in &events {
            match ev.token {
                WAKE_TOKEN => srv.wake.drain(),
                LISTEN_TOKEN => acceptor.accept(&poller, |stream, _| {
                    if let Ok(link) = Link::adopt(stream, &poller, next_token) {
                        conns.insert(next_token, ClientConn { link, out: SendBuf::new() });
                        next_token += 1;
                    }
                }),
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if ev.readable && !service_read(&srv, token, conn) {
                            dead.push(token);
                        }
                    }
                }
            }
        }
        let mut core = srv.core.lock();
        let now = srv.epoch.elapsed().as_micros() as u64;
        if core.state.next_deadline().is_some_and(|d| d <= now) {
            srv.apply(&mut core, Event::Tick, By::Plane);
        }
        // The tick also bounds a parked listener's wait for its retry.
        timeout = core.state.next_deadline().map_or(TICK, |d| {
            TICK.min(Duration::from_millis(d.saturating_sub(now).div_ceil(1000)))
        });
        core.plane_wakes_at = now + timeout.as_micros() as u64;
        std::mem::swap(&mut core.outbox, &mut outbox);
        // Only threads that have exited, so a join never blocks the plane.
        let exited: Vec<JoinHandle<()>> = core.reap.extract_if(.., |h| h.is_finished()).collect();
        let stopping = core.state.stopping();
        srv.unlock(core);
        if stopping {
            break;
        }
        for (token, frame) in outbox.drain(..) {
            let Some(conn) = conns.get_mut(&token).filter(|_| !dead.contains(&token)) else {
                continue;
            };
            conn.out.push(&frame);
            if !within_backlog(&mut conn.out) {
                dead.push(token);
            }
        }
        for (token, conn) in conns.iter_mut() {
            if conn.link.flush(&poller, &mut conn.out).is_err() {
                dead.push(*token);
            }
        }
        for handle in exited {
            let _ = handle.join();
        }
        // A closed connection frees an fd for a parked listener.
        acceptor.unpark(&poller, !dead.is_empty());
        for token in dead.drain(..) {
            if let Some(conn) = conns.remove(&token) {
                conn.link.close(&poller);
                srv.event(Event::Closed { conn: token }, By::Plane);
            }
        }
    }
}

/// Service a readable event, turning every frame into an event. `false`
/// means the connection is finished (EOF, protocol error, a fatal verb, or
/// a backlog past [`MAX_CLIENT_BACKLOG`]).
fn service_read(srv: &Arc<Server>, token: ConnId, conn: &mut ClientConn) -> bool {
    // Split the borrows: the frame borrows the link, its handler writes `out`.
    let ClientConn { link, out } = conn;
    link.read(|frame| handle_frame(srv, token, out, frame) && within_backlog(out)).open
}

/// Past [`MAX_CLIENT_BACKLOG`], queue the reject behind the backlog (a
/// client that reads again learns why it was cut off) and return `false`
/// to close the connection.
fn within_backlog(out: &mut SendBuf) -> bool {
    if out.pending() <= MAX_CLIENT_BACKLOG {
        return true;
    }
    let message = format!("more than {MAX_CLIENT_BACKLOG} bytes left unread");
    out.push(&Frame::SweepReject { code: REJECT_BACKLOG_FULL, message });
    false
}

/// Turn one decoded client frame into an event for the state. Returns
/// `false` to close.
fn handle_frame(srv: &Arc<Server>, conn: ConnId, out: &mut SendBuf, frame: FrameRef<'_>) -> bool {
    let event = match frame {
        FrameRef::ClientHello { tenant, .. } => Event::Hello { conn, tenant: tenant.into() },
        FrameRef::SubmitSweep { name, space_json, algo, trials, seed, wave } => {
            let (name, space_json, algo) = (name.into(), space_json.into(), algo.into());
            Event::Submit { conn, spec: SubmitSpec { name, space_json, algo, trials, seed, wave } }
        }
        FrameRef::SweepStatus { sweep_id, follow, .. } => {
            Event::Status { conn, sweep: sweep_id, follow: follow != 0 }
        }
        FrameRef::CancelSweep { sweep_id } => Event::Cancel { conn, sweep: sweep_id },
        // A worker Hello after the pool was sealed, or any other worker
        // protocol frame on the client plane: turn it away.
        FrameRef::Hello { .. } => {
            let message = "worker pool is sealed; restart the server to add workers".to_string();
            out.push(&Frame::SweepReject { code: REJECT_NOT_READY, message });
            return false;
        }
        _ => return false,
    };
    srv.event(event, By::Conn(conn, out));
    true
}
