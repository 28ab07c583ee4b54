//! Worker side of the distributed backend: the daemon's event loop, its
//! per-connection executors, and argument and snapshot resolution.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use rnet::link::dial;
use rnet::{
    Acceptor, Blob, BlobRef, Frame, FrameOf, FrameRef, Link, Poller, SendBuf, Waker, LISTEN_TOKEN,
    WAKE_TOKEN,
};
use runmetrics::{Counter, Gauge, Histogram};

use self::state::{Fetch, Job, JobArg, Start, Wake, WorkerState};
use super::SNAP_TAG;
use crate::codec;
use crate::data::Value;
use crate::ids::IdMap;
use crate::registry::TaskRegistry;
use crate::task::{run_body, TaskId};

mod state;

/// Memory a worker advertises in its `Hello`, GiB. It advertises no GPUs.
const HELLO_MEM_GIB: u32 = 16;

/// How long a worker keeps retrying each [`WorkerConfig::dial`] address.
const DIAL_TIMEOUT: Duration = Duration::from_secs(10);

/// Resources a worker daemon advertises in its `Hello`.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Display name, e.g. `w0` (shows up in driver-side labels).
    pub name: String,
    /// Executor threads / schedulable cores.
    pub cores: u32,
    /// Byte budget of each driver connection's decoded-block LRU cache
    /// (`--cache-mem`): the driver's residency view is per link, so each
    /// connection keeps its own. See `blocks::BlockCache`.
    pub cache_mem_bytes: u64,
    /// Driver/server addresses to dial on startup (`--dial`), each serviced
    /// like an accepted connection — how a worker joins a long-lived
    /// `rcompss-server`. Dial failures are retried for 10 s.
    pub dial: Vec<String>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            name: "worker".to_string(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u32),
            cache_mem_bytes: 256 * 1024 * 1024,
            dial: Vec::new(),
        }
    }
}

/// A task execution daemon: accepts driver connections, executes submitted
/// tasks from a [`TaskRegistry`], and streams results back. One event-loop
/// thread ([`WorkerServer::run`]) owns the listener and every socket; each
/// connection's executor threads wait on its state and send results through
/// its send buffer and the loop's waker.
pub struct WorkerServer {
    acceptor: Acceptor,
    daemon: Daemon,
}

/// What adopting a connection needs, apart from the listener.
struct Daemon {
    cfg: WorkerConfig,
    registry: Arc<TaskRegistry>,
    stop: Arc<AtomicBool>,
    conns: Conns,
    poller: Poller,
    wake: Arc<Waker>,
}

/// Every open connection's executor side, by poll token: how a halt severs
/// the sockets from another thread. An entry leaves when its connection
/// closes.
type Conns = Arc<Mutex<IdMap<u64, Arc<ConnShared>>>>;

/// Control handle for a worker running on a background thread.
pub struct WorkerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Conns,
    wake: Arc<Waker>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl WorkerServer {
    /// Bind to `addr` (use port 0 for an OS-assigned loopback port in
    /// tests) with the given resources and task registry.
    pub fn bind(addr: &str, cfg: WorkerConfig, registry: TaskRegistry) -> io::Result<WorkerServer> {
        let listener = TcpListener::bind(addr)?;
        // Preregister the worker's series so scrapes show them from zero: a
        // cold cache reads as 0, not as a missing series.
        WorkerSeries::new();
        let poller = Poller::new()?;
        let wake = Arc::new(Waker::new(&poller, WAKE_TOKEN)?);
        let acceptor = Acceptor::new(listener, &poller, LISTEN_TOKEN)?;
        let daemon = Daemon {
            cfg,
            registry: Arc::new(registry),
            stop: Arc::new(AtomicBool::new(false)),
            conns: Arc::default(),
            poller,
            wake,
        };
        Ok(WorkerServer { acceptor, daemon })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.acceptor.local_addr()
    }

    /// Serve connections until halted: the worker's event loop. Dialling
    /// out fails it; nothing after that does.
    pub fn run(self) -> io::Result<()> {
        let WorkerServer { mut acceptor, daemon } = self;
        let Daemon { stop, poller, wake, .. } = &daemon;
        let mut table: IdMap<u64, WorkerConn> = IdMap::default();
        let mut next_token: u64 = 0;
        let mut adopt = |stream: TcpStream, table: &mut IdMap<u64, WorkerConn>| {
            if let Some(conn) = daemon.adopt(stream, next_token) {
                table.insert(next_token, conn);
                next_token += 1;
            }
        };
        // Dial-out connections first: the `Hello` goes out the moment one is
        // adopted, so the server's listener can role-negotiate on it.
        for addr in &daemon.cfg.dial {
            adopt(dial(addr, DIAL_TIMEOUT)?, &mut table);
        }
        let mut events = Vec::new();
        let mut dead: Vec<u64> = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            let timeout = acceptor.bound(Some(Duration::from_millis(500)));
            if poller.wait(&mut events, timeout).is_err() {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            if stop.load(Ordering::SeqCst) {
                break;
            }
            for ev in &events {
                match ev.token {
                    WAKE_TOKEN => wake.drain(),
                    LISTEN_TOKEN => acceptor.accept(poller, |stream, _| adopt(stream, &mut table)),
                    token => {
                        if let Some(conn) = table.get_mut(&token) {
                            if ev.readable && !conn.read() {
                                dead.push(token);
                            }
                        }
                    }
                }
            }
            // Flush pass: executor output arrives via the waker, socket
            // backpressure via writable events — either way, drain every
            // backlog and reconcile write interest.
            for (&token, conn) in table.iter_mut() {
                if !dead.contains(&token)
                    && conn.link.flush(poller, &mut conn.shared.out.lock()).is_err()
                {
                    dead.push(token);
                }
            }
            // A closed connection frees an fd for a parked listener.
            acceptor.unpark(poller, !dead.is_empty());
            for token in dead.drain(..) {
                if let Some(conn) = table.remove(&token) {
                    daemon.close(token, conn);
                }
            }
        }
        for (token, conn) in table {
            daemon.close(token, conn);
        }
        Ok(())
    }

    /// Run on a background thread, returning a control handle (the
    /// in-process form the loopback tests and benches use).
    pub fn spawn(self) -> io::Result<WorkerHandle> {
        let addr = self.local_addr()?;
        let Daemon { stop, conns, wake, .. } = &self.daemon;
        let (stop, conns, wake) = (stop.clone(), conns.clone(), wake.clone());
        let thread = std::thread::spawn(move || self.run());
        Ok(WorkerHandle { addr, stop, conns, wake, thread: Some(thread) })
    }
}

impl WorkerHandle {
    /// The worker's listen address, as a string the driver can connect to.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// SIGKILL-equivalent: stop accepting, silence every executor (no more
    /// result frames leave this worker), and sever all connections. From
    /// the driver's point of view the worker vanishes mid-task.
    pub fn halt(&self) {
        (self.stopper())()
    }

    /// A detached closure that [`Self::halt`]s this worker — hand it to a
    /// killer thread while the test's main thread is blocked in a run.
    pub fn stopper(&self) -> impl Fn() + Send + 'static {
        let (stop, conns, wake) = (self.stop.clone(), self.conns.clone(), self.wake.clone());
        move || {
            stop.store(true, Ordering::SeqCst);
            sever(&conns, &wake);
        }
    }

    /// Sever current connections but keep listening — how a test cuts a
    /// live worker off from its driver, which writes it off like a dead one.
    pub fn drop_connections(&self) {
        sever(&self.conns, &self.wake);
    }

    /// Halt and join the event loop.
    pub fn join(mut self) -> io::Result<()> {
        self.halt();
        let panicked = |_| Err(io::Error::other("worker event loop panicked"));
        self.thread.take().map_or(Ok(()), |t| t.join().unwrap_or_else(panicked))
    }
}

/// Shut every connection's socket and wake the loop to reap them.
fn sever(conns: &Conns, wake: &Waker) {
    for c in conns.lock().values() {
        let _ = c.stream.shutdown(std::net::Shutdown::Both);
    }
    let _ = wake.wake();
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.halt();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Bytes the block caches of this process's open connections hold: the gauge.
static RESIDENT_BYTES: Mutex<i64> = Mutex::new(0);

/// What one connection's event-loop side and its executor threads share.
struct ConnShared {
    /// The connection's decisions; executors wait on it for a job or a block.
    state: Mutex<WorkerState>,
    jobs_cv: Condvar,
    blocks_cv: Condvar,
    /// Outbound backlog, never taken under `state`. Pushers flush it to the socket themselves,
    /// one thread hop fewer per result; the loop drains what `WouldBlock` leaves behind.
    out: Mutex<SendBuf>,
    /// Write half of the socket (`try_clone` of the loop's fd).
    stream: TcpStream,
    /// Kicks the event loop when a push could not fully flush.
    wake: Arc<Waker>,
    stop: Arc<AtomicBool>,
    /// The clock of every worker-side stamp (heartbeat acks, `Done`), so the
    /// driver's one offset estimate rebases all of them.
    epoch: std::time::Instant,
    series: WorkerSeries,
}

/// The worker's series in [`runmetrics::global`], looked up once a connection.
struct WorkerSeries {
    tasks_executed: Counter,
    task_exec_us: Histogram,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    cache_resident_bytes: Gauge,
}

impl WorkerSeries {
    fn new() -> WorkerSeries {
        let global = runmetrics::global();
        WorkerSeries {
            tasks_executed: global.counter("worker_tasks_executed_total"),
            task_exec_us: global.histogram("worker_task_exec_us"),
            cache_hits: global.counter("rcompss_block_cache_hits_total"),
            cache_misses: global.counter("rcompss_block_cache_misses_total"),
            cache_evictions: global.counter("rcompss_block_cache_evictions_total"),
            cache_resident_bytes: global.gauge("rcompss_block_cache_resident_bytes"),
        }
    }
}

impl ConnShared {
    /// Microseconds since this connection's epoch — the worker clock on the
    /// wire.
    fn wall_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Queue outbound frames and flush what the socket takes now; only
    /// backpressure or a dead socket defers to the loop, via the waker.
    fn push_out<S: AsRef<str>, B: AsRef<[u8]>>(&self, frames: &[FrameOf<S, B>]) {
        let mut out = self.out.lock();
        frames.iter().for_each(|f| out.push(f));
        if !matches!(out.flush(&mut &self.stream), Ok((_, true))) {
            let _ = self.wake.wake();
        }
    }

    /// Push what a state call queued in `out`, and wake the waiters it named.
    fn carry_out(&self, out: &mut Vec<Frame>, wake: Wake) {
        if !out.is_empty() {
            let evicted = out.iter().filter(|f| matches!(f, Frame::BlockEvict { .. })).count();
            self.series.cache_evictions.add(evicted as u64);
            self.push_out(out);
            out.clear();
        }
        if wake.job {
            self.jobs_cv.notify_one();
        }
        if wake.blocks {
            self.blocks_cv.notify_all();
        }
    }

    /// Add `delta` bytes to the process's resident gauge.
    fn resident(&self, delta: i64) {
        let mut total = RESIDENT_BYTES.lock();
        *total += delta;
        self.series.cache_resident_bytes.set(*total as f64);
    }
}

/// Per-connection state owned by the worker's event loop.
struct WorkerConn {
    link: Link,
    /// Frames a state call queued, pushed once its lock is released.
    out: Vec<Frame>,
    shared: Arc<ConnShared>,
}

/// One executor's ambient snapshot channel. A save is mirrored to the
/// driver as a `Data` frame keyed by the task id; a load is what the running
/// job last saved, else what the driver sent with it — never a round trip.
/// So the worker that inherits a dead peer's task gets its last checkpoint.
struct WorkerSnapshotChannel {
    conn: Arc<ConnShared>,
    /// The running job's latest snapshot: the executor sets it from the job
    /// and clears it when the body returns.
    latest: Mutex<Option<Vec<u8>>>,
}

impl crate::snapshot::SnapshotChannel for WorkerSnapshotChannel {
    fn save(&self, task: TaskId, blob: &[u8]) {
        *self.latest.lock() = Some(blob.to_vec());
        // Best-effort ship to the driver; a torn connection surfaces later
        // as the job failing, and the retry resumes from what did arrive.
        self.conn.push_out(&[FrameRef::Data {
            key: task.0,
            blob: BlobRef { tag: SNAP_TAG, bytes: blob },
        }]);
    }

    fn load(&self, _task: TaskId) -> Option<Vec<u8>> {
        self.latest.lock().clone()
    }
}

impl Daemon {
    /// Set up a driver connection, accepted or dialled: adopt the socket,
    /// queue the `Hello`, spawn the executor threads.
    fn adopt(&self, stream: TcpStream, token: u64) -> Option<WorkerConn> {
        let link = Link::adopt(stream, &self.poller, token).ok()?;
        let Ok(write_half) = link.stream().try_clone() else {
            link.close(&self.poller);
            return None;
        };
        let cfg = &self.cfg;
        let shared = Arc::new(ConnShared {
            state: Mutex::new(WorkerState::new(cfg.cache_mem_bytes)),
            jobs_cv: Condvar::new(),
            blocks_cv: Condvar::new(),
            out: Mutex::new(SendBuf::new()),
            stream: write_half,
            wake: Arc::clone(&self.wake),
            stop: Arc::clone(&self.stop),
            epoch: std::time::Instant::now(),
            series: WorkerSeries::new(),
        });
        self.conns.lock().insert(token, Arc::clone(&shared));
        // Direct-flushes like every other outbound frame; leftovers drain via
        // the loop's flush pass.
        shared.push_out(&[Frame::Hello {
            name: cfg.name.clone(),
            cores: cfg.cores,
            gpus: 0,
            mem_gib: HELLO_MEM_GIB,
        }]);
        for _ in 0..cfg.cores.max(1) {
            let conn = Arc::clone(&shared);
            let registry = Arc::clone(&self.registry);
            std::thread::spawn(move || executor_loop(conn, registry));
        }
        Some(WorkerConn { link, out: Vec::new(), shared })
    }

    /// Tear down a dead connection: close its link, forget it, close its
    /// state and release its executors.
    fn close(&self, token: u64, conn: WorkerConn) {
        conn.link.close(&self.poller);
        self.conns.lock().remove(&token);
        let held = conn.shared.state.lock().close();
        conn.shared.jobs_cv.notify_all();
        conn.shared.blocks_cv.notify_all();
        conn.shared.resident(-(held as i64));
    }
}

impl WorkerConn {
    /// Service a readable event, handing each frame to the state. Returns
    /// `false` on EOF, error, or `Shutdown`.
    fn read(&mut self) -> bool {
        let WorkerConn { link, out, shared } = self;
        link.read(|frame| {
            let now = shared.wall_us();
            let mut state = shared.state.lock();
            let before = state.resident_bytes();
            let wake = state.frame(frame, now, out);
            let grown = state.resident_bytes() as i64 - before as i64;
            drop(state);
            shared.carry_out(out, wake.unwrap_or_default());
            if grown != 0 {
                shared.resident(grown);
            }
            wake.is_some()
        })
        .open
    }
}

/// Resolve a block argument: ask the state, and sleep on the block condvar
/// until it lands, fails or the state's deadline passes.
fn resolve_block(conn: &ConnShared, hash: u128, out: &mut Vec<Frame>) -> Result<Value, String> {
    let since = conn.wall_us();
    let mut first = true;
    let mut state = conn.state.lock();
    loop {
        let now = conn.wall_us();
        let fetch = state.block(hash, since, now, out);
        if std::mem::take(&mut first) {
            let hit = matches!(fetch, Fetch::Ready(_));
            if hit { &conn.series.cache_hits } else { &conn.series.cache_misses }.incr();
        }
        match fetch {
            Fetch::Ready(v) => return Ok(v),
            Fetch::Failed(e) => return Err(e),
            Fetch::Wait(until) if out.is_empty() => {
                conn.blocks_cv.wait_for(&mut state, Duration::from_micros(until - now));
            }
            // The request goes out with the lock released; the next turn
            // finds it in flight and waits.
            Fetch::Wait(_) => {
                drop(state);
                conn.carry_out(out, Wake::default());
                state = conn.state.lock();
            }
        }
    }
}

/// One executor's buffers, kept from one job to the next.
#[derive(Default)]
struct ExecScratch {
    inputs: Vec<Value>,
    outputs: Vec<Blob>,
    requests: Vec<Frame>,
}

fn executor_loop(conn: Arc<ConnShared>, registry: Arc<TaskRegistry>) {
    // Task bodies on this worker snapshot through the driver: saves are
    // mirrored over the wire, loads read what came with the job.
    let snaps =
        Arc::new(WorkerSnapshotChannel { conn: Arc::clone(&conn), latest: Mutex::new(None) });
    let mut scratch = ExecScratch::default();
    // Cores of the job this executor ran last, freed when it looks for the
    // next: with a job queued behind them it starts at once, no sleep.
    let mut finished: Vec<u32> = Vec::new();
    loop {
        let (mut job, more) = {
            let mut state = conn.state.lock();
            state.end(&finished);
            loop {
                match state.start() {
                    Start::Run(job, more) => break (job, more),
                    Start::Wait => conn.jobs_cv.wait(&mut state),
                    Start::Closed => return,
                }
            }
        };
        // Freed cores may let more than one waiting job start: pass the turn.
        if more {
            conn.jobs_cv.notify_one();
        }
        *snaps.latest.lock() = job.snapshot.take();
        let frame = crate::snapshot::with_channel(snaps.clone(), job.ctx.task, || {
            run_job(&conn, &registry, &mut job, &mut scratch)
        });
        *snaps.latest.lock() = None;
        // A halted worker goes silent — the driver must see it as a crash,
        // not a graceful completion.
        if conn.stop.load(Ordering::SeqCst) {
            return;
        }
        conn.push_out(std::slice::from_ref(&frame));
        if let Frame::Done { mut outputs, .. } = frame {
            outputs.retain(codec::worth_keeping);
            scratch.outputs = outputs;
        }
        finished = std::mem::take(&mut job.ctx.cores);
    }
}

fn run_job(conn: &ConnShared, reg: &TaskRegistry, job: &mut Job, s: &mut ExecScratch) -> Frame {
    let exec_id = job.exec_id;
    let fail = |message: String| Frame::Failed { exec_id, message };
    let Some(body) = reg.body(&job.name, job.variant) else {
        return fail(format!("worker has no task '{}' (variant {})", job.name, job.variant));
    };
    let inputs = &mut s.inputs;
    inputs.clear();
    for a in &job.args {
        match a {
            JobArg::Value(v) => inputs.push(v.clone()),
            JobArg::Block(hash) => match resolve_block(conn, *hash, &mut s.requests) {
                Ok(v) => inputs.push(v),
                Err(e) => return fail(e),
            },
        }
    }
    let start_us = conn.wall_us();
    let result = run_body(&*body, &job.ctx, inputs);
    let end_us = conn.wall_us().max(start_us + 1);
    inputs.clear();
    conn.series.tasks_executed.incr();
    conn.series.task_exec_us.record(end_us - start_us);
    match result {
        Ok(values) => {
            let outputs = &mut s.outputs;
            outputs.truncate(values.len());
            outputs.resize_with(values.len(), Blob::default);
            for (blob, v) in outputs.iter_mut().zip(&values) {
                if !codec::encode_into(v, blob) {
                    return fail(format!(
                        "no wire codec registered for an output of task '{}'",
                        job.name
                    ));
                }
            }
            let outputs = std::mem::take(outputs);
            Frame::Done { exec_id, recv_us: job.recv_us, start_us, end_us, outputs }
        }
        Err(e) => fail(e.message),
    }
}
