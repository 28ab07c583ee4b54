//! Worker side of the distributed backend: the daemon's event loop, its
//! per-connection executors, and argument and snapshot resolution.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use rnet::link::dial;
use rnet::{
    Acceptor, Blob, BlobRef, Frame, FrameOf, FrameRef, Link, Poller, SendBuf, Waker, WireArgRef,
    LISTEN_TOKEN, WAKE_TOKEN,
};
use runmetrics::{Counter, Gauge, Histogram};

use super::SNAP_TAG;
use crate::blocks::BlockCache;
use crate::codec;
use crate::data::Value;
use crate::ids::{IdMap, IdSet};
use crate::registry::TaskRegistry;
use crate::task::{run_body, TaskContext, TaskError, TaskId};

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
    /// Byte budget for the decoded-block LRU cache (`--cache-mem`).
    /// Blocks beyond it are evicted least-recently-used and re-fetched on
    /// demand; see `blocks::BlockCache`.
    pub cache_mem_bytes: u64,
    /// Driver/server addresses to dial on startup (`--dial`). Instead of
    /// waiting to be connected to, the worker opens these connections
    /// itself and sends its `Hello` — the pattern a long-lived
    /// `rcompss-server` behind one shared listener relies on. Each dialled
    /// connection is serviced exactly like an accepted one; dial failures
    /// are retried for 10 s.
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
/// tasks from a [`TaskRegistry`], and streams results back.
///
/// One event-loop thread ([`WorkerServer::run`]) owns the listener and
/// every connection socket; per-connection executor threads only block on
/// the job queue and communicate results back through the connection's
/// shared send buffer plus the loop's waker.
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
        // Preregister the block-cache series in the process-global registry
        // so worker scrapes show them from zero — a cold cache reads as 0,
        // not as a missing series.
        let global = runmetrics::global();
        global.counter("rcompss_block_cache_hits_total");
        global.counter("rcompss_block_cache_misses_total");
        global.counter("rcompss_block_cache_evictions_total");
        global.gauge("rcompss_block_cache_resident_bytes");
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
        // Dial-out connections first: each is serviced exactly like an
        // accepted one — the `Hello` goes out the moment the connection is
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
        let stop = Arc::clone(&self.daemon.stop);
        let conns = Arc::clone(&self.daemon.conns);
        let wake = Arc::clone(&self.daemon.wake);
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
        let stop = Arc::clone(&self.stop);
        let conns = Arc::clone(&self.conns);
        let wake = Arc::clone(&self.wake);
        move || {
            stop.store(true, Ordering::SeqCst);
            let _ = wake.wake();
            for c in conns.lock().values() {
                let _ = c.stream.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Sever current connections but keep listening — how a test cuts a
    /// live worker off from its driver, which writes it off like a dead one.
    pub fn drop_connections(&self) {
        for c in self.conns.lock().values() {
            let _ = c.stream.shutdown(std::net::Shutdown::Both);
        }
        let _ = self.wake.wake();
    }

    /// Halt and join the event loop.
    pub fn join(mut self) -> io::Result<()> {
        self.halt();
        match self.thread.take() {
            Some(t) => {
                t.join().unwrap_or_else(|_| Err(io::Error::other("worker event loop panicked")))
            }
            None => Ok(()),
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.halt();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// How one queued argument resolves on the worker: it travelled in the
/// `Submit`, or it is a content-addressed block.
enum JobArg {
    /// Inline: decoded by the event loop before queueing.
    Value(Value),
    /// Content-addressed: resolved from the block cache, misses
    /// `BlockRequest`.
    Block(u128),
}

/// One submitted task as queued on the worker.
struct Job {
    exec_id: u64,
    task_id: u64,
    attempt: u32,
    node: u32,
    name: Arc<str>,
    variant: u32,
    cores: Vec<u32>,
    gpus: Vec<u32>,
    args: Vec<JobArg>,
    /// Worker clock when the `Submit` frame was decoded — the first
    /// lifecycle stamp echoed back in `Done`.
    recv_us: u64,
    /// What an earlier attempt of the task last saved: the `Data` frame the
    /// driver sent just ahead of this job's `Submit`, if it did.
    snapshot: Option<Vec<u8>>,
}

/// One connection's jobs that have not started, and the cores its running
/// jobs hold: the core gate. The driver may dispatch a one-core job ahead,
/// behind a core that is still running one; the gate keeps it waiting until
/// that core is free, so two jobs never run on one core.
#[derive(Default)]
struct JobQueue {
    /// Jobs not yet started, in arrival order.
    waiting: VecDeque<Job>,
    /// Cores granted to this connection's running jobs.
    held: Vec<u32>,
}

impl JobQueue {
    /// Whether none of `job`'s cores is held by a running job.
    fn startable(&self, job: &Job) -> bool {
        job.cores.iter().all(|c| !self.held.contains(c))
    }

    /// Start the first waiting job, in arrival order, whose cores are all
    /// free: take it and hold its cores.
    fn start_next(&mut self) -> Option<Job> {
        let i = self.waiting.iter().position(|j| self.startable(j))?;
        let job = self.waiting.remove(i).expect("position is in range");
        self.held.extend(&job.cores);
        Some(job)
    }

    /// A running job ended: its cores are free again.
    fn release(&mut self, cores: &[u32]) {
        self.held.retain(|c| !cores.contains(c));
    }
}

/// Content-addressed block cache plus the in-flight request set that
/// coalesces concurrent misses: one `BlockRequest` per missing hash no
/// matter how many tasks are blocked on it.
struct BlockCacheState {
    cache: BlockCache,
    inflight: IdSet<u128>,
}

/// State shared between one connection's event-loop side and its executor
/// threads. Executors never write the socket: outbound frames go through
/// `out` and the loop's waker.
struct ConnShared {
    /// Outbound backlog. Pushers flush it straight to the socket while
    /// they hold the lock (one thread hop fewer per result — on a serial
    /// RPC chain that is the whole round trip); the event loop drains
    /// whatever `WouldBlock` leaves behind.
    out: Mutex<SendBuf>,
    /// Write half of the socket (`try_clone` of the loop's fd) for the
    /// opportunistic flush above. Non-blocking, like the original.
    stream: TcpStream,
    /// Kicks the event loop when a push could not fully flush, so it arms
    /// write interest and resumes on the writable event.
    wake: Arc<Waker>,
    /// Decoded-block LRU under the `--cache-mem` budget, plus its
    /// in-flight request set. Own condvar (`blocks_cv`): parking_lot
    /// condvars are bound to one mutex at a time.
    blocks: Mutex<BlockCacheState>,
    blocks_cv: Condvar,
    jobs: Mutex<JobQueue>,
    jobs_cv: Condvar,
    closed: AtomicBool,
    stop: Arc<AtomicBool>,
    /// The clock every worker-side stamp shares: heartbeat-ack times and the
    /// `Done` lifecycle stamps — one epoch, so the driver's single offset
    /// estimate rebases all of them.
    epoch: std::time::Instant,
    /// Process-global series this connection records into, looked up
    /// once here rather than by name on every task and block.
    series: WorkerSeries,
}

/// Handles on the worker's series in [`runmetrics::global`].
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

    /// Queue an outbound frame and flush as much of the backlog as the
    /// socket accepts right now. Only backpressure (or a dead socket,
    /// which the event loop discovers on its read side) defers to the
    /// loop via the waker.
    fn push_out<S: AsRef<str>, B: AsRef<[u8]>>(&self, frame: &FrameOf<S, B>) {
        let mut out = self.out.lock();
        out.push(frame);
        match out.flush(&mut &self.stream) {
            Ok((_, true)) => {}
            Ok((_, false)) | Err(_) => {
                let _ = self.wake.wake();
            }
        }
    }
}

/// Per-connection state owned by the worker's event loop.
struct WorkerConn {
    link: Link,
    /// Interned function names (`fn_id` → name), per connection.
    fn_names: IdMap<u64, Arc<str>>,
    /// Snapshots by task id, each held from its `Data` frame to the `Submit`
    /// right behind it, which takes it into the job.
    handed_over: IdMap<u64, Vec<u8>>,
    shared: Arc<ConnShared>,
}

/// One executor's ambient snapshot channel. A save is mirrored to the
/// driver as a `Data` frame keyed by the task id (the driver keeps the
/// latest on the task's record); a load is what the running job last saved,
/// else what the driver sent with it — never a round trip. This is the
/// vehicle for resubmit-with-snapshot: the worker that inherits a dead
/// peer's task gets the dead peer's last checkpoint along with the job.
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
        self.conn.push_out(&FrameRef::Data {
            key: task.0,
            blob: BlobRef { tag: SNAP_TAG, bytes: blob },
        });
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
            out: Mutex::new(SendBuf::new()),
            stream: write_half,
            wake: Arc::clone(&self.wake),
            blocks: Mutex::new(BlockCacheState {
                cache: BlockCache::new(cfg.cache_mem_bytes),
                inflight: IdSet::default(),
            }),
            blocks_cv: Condvar::new(),
            jobs: Mutex::new(JobQueue::default()),
            jobs_cv: Condvar::new(),
            closed: AtomicBool::new(false),
            stop: Arc::clone(&self.stop),
            epoch: std::time::Instant::now(),
            series: WorkerSeries::new(),
        });
        self.conns.lock().insert(token, Arc::clone(&shared));
        // Direct-flushes like every other outbound frame; leftovers drain via
        // the loop's flush pass.
        shared.push_out(&Frame::Hello {
            name: cfg.name.clone(),
            cores: cfg.cores,
            gpus: 0,
            mem_gib: HELLO_MEM_GIB,
        });
        for _ in 0..cfg.cores.max(1) {
            let conn = Arc::clone(&shared);
            let registry = Arc::clone(&self.registry);
            std::thread::spawn(move || executor_loop(conn, registry));
        }
        Some(WorkerConn { link, fn_names: IdMap::default(), handed_over: IdMap::default(), shared })
    }

    /// Tear down a dead connection: close its link, forget it, and release
    /// its executors (closed flag + every condvar).
    fn close(&self, token: u64, conn: WorkerConn) {
        conn.link.close(&self.poller);
        self.conns.lock().remove(&token);
        // Under the queue lock: an executor that saw the flag down is then
        // asleep in `jobs_cv.wait`, not between its check and the wait, so the
        // wake-up below reaches it. (A block fetch waits at most 50 ms a turn.)
        let jobs = conn.shared.jobs.lock();
        conn.shared.closed.store(true, Ordering::SeqCst);
        drop(jobs);
        conn.shared.jobs_cv.notify_all();
        conn.shared.blocks_cv.notify_all();
    }
}

impl WorkerConn {
    /// Service a readable event, handing each frame to
    /// [`handle_worker_frame`]. Returns `false` on EOF, error, or
    /// `Shutdown`.
    fn read(&mut self) -> bool {
        let WorkerConn { link, fn_names, handed_over, shared } = self;
        link.read(|frame| handle_worker_frame(frame, fn_names, handed_over, shared)).open
    }
}

/// Dispatch one decoded frame. The frame borrows the receive buffer —
/// everything it needs beyond this call is copied out here (and inline
/// argument blobs go straight through [`codec::decode_tagged`] without an
/// owned intermediate). Returns `false` on `Shutdown`.
fn handle_worker_frame(
    frame: FrameRef<'_>,
    fn_names: &mut IdMap<u64, Arc<str>>,
    handed_over: &mut IdMap<u64, Vec<u8>>,
    conn: &Arc<ConnShared>,
) -> bool {
    match frame {
        FrameRef::Submit {
            exec_id,
            task_id,
            attempt,
            node,
            fn_id,
            fn_name,
            variant,
            cores,
            gpus,
            args,
        } => {
            if let Some(name) = fn_name {
                fn_names.insert(fn_id, Arc::from(name));
            }
            let name = fn_names.get(&fn_id).cloned().unwrap_or_else(|| Arc::from("?"));
            let snapshot = handed_over.remove(&task_id);
            let mut job_args = Vec::with_capacity(args.len());
            let mut bad_arg = None;
            for a in args {
                match a {
                    WireArgRef::Inline { blob, .. } => {
                        match codec::decode_tagged(blob.tag, blob.bytes) {
                            Ok(v) => job_args.push(JobArg::Value(v)),
                            Err(e) => bad_arg = Some(e.to_string()),
                        }
                    }
                    // Content-addressed: either a BlockData landed earlier
                    // on this socket, or the block cache still holds it
                    // from a previous task; a miss (eviction raced the
                    // driver's residency view) re-fetches on demand.
                    WireArgRef::Block { hash, .. } => job_args.push(JobArg::Block(hash)),
                }
            }
            if let Some(msg) = bad_arg {
                conn.push_out(&Frame::Failed { exec_id, message: msg });
                return true;
            }
            let job = Job {
                exec_id,
                task_id,
                attempt,
                node,
                name,
                variant,
                cores,
                gpus,
                args: job_args,
                recv_us: conn.wall_us(),
                snapshot,
            };
            let mut jobs = conn.jobs.lock();
            // A job dispatched ahead waits for the core it names; an idle
            // executor could not start it, so none is woken for it.
            let startable = jobs.startable(&job);
            jobs.waiting.push_back(job);
            drop(jobs);
            if startable {
                conn.jobs_cv.notify_one();
            }
        }
        FrameRef::Heartbeat { seq, t_send_us, .. } => {
            let recv_us = conn.wall_us();
            conn.push_out(&Frame::HeartbeatAck {
                seq,
                t_send_us,
                recv_us,
                reply_us: conn.wall_us(),
            });
        }
        FrameRef::Data { key, blob } => {
            // The snapshot of the task whose Submit is next on this socket.
            handed_over.insert(key, blob.bytes.to_vec());
        }
        // Pushed ahead of the Submit referencing it, or the reply to a
        // fetch: decode once, admit to the LRU.
        FrameRef::BlockData { hash, blob } => {
            admit_block(conn, hash, blob.tag, blob.bytes);
        }
        FrameRef::Shutdown => return false,
        // Other frames are driver-bound; ignore.
        _ => {}
    }
    true
}

/// Decode an incoming block and admit it to the LRU cache, waking any
/// executor parked on its hash and reporting what the budget pushed out
/// (`BlockEvict`, so the driver retracts its residency claims). Runs on
/// the event loop — decode cost is bounded by the same frames that would
/// otherwise decode inline.
fn admit_block(conn: &Arc<ConnShared>, hash: u128, tag: &str, bytes: &[u8]) {
    let Ok(v) = codec::decode_tagged(tag, bytes) else {
        // No codec for the tag: clear the in-flight mark so a waiter's
        // deadline produces a timeout error instead of a silent hang.
        conn.blocks.lock().inflight.remove(&hash);
        conn.blocks_cv.notify_all();
        return;
    };
    let mut blocks = conn.blocks.lock();
    blocks.inflight.remove(&hash);
    let evicted = blocks.cache.insert(hash, v, bytes.len() as u64);
    let resident = blocks.cache.resident_bytes();
    drop(blocks);
    conn.blocks_cv.notify_all();
    conn.series.cache_resident_bytes.set(resident as f64);
    if !evicted.is_empty() {
        conn.series.cache_evictions.add(evicted.len() as u64);
    }
    for h in evicted {
        conn.push_out(&Frame::BlockEvict { hash: h });
    }
}

/// Look up a content hash in the LRU cache, requesting the block from the
/// driver on a miss. Concurrent misses on the same hash coalesce: only the
/// first requester puts a `BlockRequest` on the wire, the rest wait on the
/// same condvar.
fn resolve_block(conn: &ConnShared, hash: u128) -> Result<Value, TaskError> {
    let mut blocks = conn.blocks.lock();
    if let Some(v) = blocks.cache.get(hash) {
        drop(blocks);
        conn.series.cache_hits.incr();
        return Ok(v);
    }
    conn.series.cache_misses.incr();
    let leader = blocks.inflight.insert(hash);
    drop(blocks);
    if leader {
        conn.push_out(&Frame::BlockRequest { hash });
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut blocks = conn.blocks.lock();
    loop {
        if let Some(v) = blocks.cache.get(hash) {
            return Ok(v);
        }
        if conn.closed.load(Ordering::SeqCst) || std::time::Instant::now() >= deadline {
            // Clear the mark so a later attempt re-requests instead of
            // waiting on a reply that will never land.
            blocks.inflight.remove(&hash);
            return Err(TaskError::new("timed out fetching a task input block"));
        }
        conn.blocks_cv.wait_for(&mut blocks, Duration::from_millis(50));
    }
}

/// One executor's buffers, kept from one job to the next: the inputs it
/// hands a body and the blobs its outputs are encoded into.
#[derive(Default)]
struct ExecScratch {
    inputs: Vec<Value>,
    outputs: Vec<Blob>,
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
        let mut job = {
            let mut jobs = conn.jobs.lock();
            jobs.release(&finished);
            let job = loop {
                // A closed connection's waiting jobs are dropped, not run.
                if conn.closed.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(j) = jobs.start_next() {
                    break j;
                }
                conn.jobs_cv.wait(&mut jobs);
            };
            // Freed cores may let more than one waiting job start: pass
            // the turn on.
            if jobs.waiting.iter().any(|j| jobs.startable(j)) {
                conn.jobs_cv.notify_one();
            }
            job
        };
        *snaps.latest.lock() = job.snapshot.take();
        let frame = crate::snapshot::with_channel(snaps.clone(), TaskId(job.task_id), || {
            run_job(&conn, &registry, &mut job, &mut scratch)
        });
        *snaps.latest.lock() = None;
        // A halted worker goes silent — the driver must see it as a crash,
        // not a graceful completion.
        if conn.stop.load(Ordering::SeqCst) {
            return;
        }
        conn.push_out(&frame);
        if let Frame::Done { mut outputs, .. } = frame {
            outputs.retain(codec::worth_keeping);
            scratch.outputs = outputs;
        }
        finished = std::mem::take(&mut job.cores);
    }
}

fn run_job(
    conn: &ConnShared,
    registry: &TaskRegistry,
    job: &mut Job,
    scratch: &mut ExecScratch,
) -> Frame {
    let exec_id = job.exec_id;
    let fail = |message: String| Frame::Failed { exec_id, message };
    let Some(body) = registry.body(&job.name, job.variant) else {
        return fail(format!("worker has no task '{}' (variant {})", job.name, job.variant));
    };
    let inputs = &mut scratch.inputs;
    inputs.clear();
    for a in &job.args {
        match a {
            JobArg::Value(v) => inputs.push(v.clone()),
            JobArg::Block(hash) => match resolve_block(conn, *hash) {
                Ok(v) => inputs.push(v),
                Err(e) => return fail(e.message),
            },
        }
    }
    // The job lends the body its cores and GPUs and takes them back.
    let ctx = TaskContext {
        task: TaskId(job.task_id),
        attempt: job.attempt,
        node: job.node,
        cores: std::mem::take(&mut job.cores),
        gpus: std::mem::take(&mut job.gpus),
        peer_nodes: Vec::new(),
        simulated: false,
    };
    let start_us = conn.wall_us();
    let result = run_body(&*body, &ctx, inputs);
    let end_us = conn.wall_us().max(start_us + 1);
    inputs.clear();
    (job.cores, job.gpus) = (ctx.cores, ctx.gpus);
    conn.series.tasks_executed.incr();
    conn.series.task_exec_us.record(end_us - start_us);
    match result {
        Ok(values) => {
            let outputs = &mut scratch.outputs;
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
