//! Distributed backend: real execution on remote worker daemons over TCP,
//! built on a readiness-driven event loop.
//!
//! # Architecture
//!
//! Both sides of the wire are single-threaded event loops over
//! non-blocking sockets ([`rnet::poll::Poller`]: epoll on Linux, `poll(2)`
//! elsewhere), with per-connection reusable buffers
//! ([`rnet::nonblock::RecvBuf`] / [`rnet::nonblock::SendBuf`]) instead of
//! per-connection blocking threads:
//!
//! * **Driver.** One loop thread owns readiness for every worker link plus
//!   a self-pipe [`rnet::poll::Waker`]. A readable event drains the socket
//!   into the link's `RecvBuf` and decodes frames *zero-copy*
//!   ([`rnet::FrameRef`] borrows the buffer; `Done` outputs go straight
//!   into [`codec::decode_tagged`] without an owned `Blob`). A writable
//!   event resumes draining the link's `SendBuf`. Heartbeats are paced by
//!   the poll timeout — no separate monitor thread. Reconnect attempts
//!   (which block in `connect`) run on short-lived helper threads that
//!   hand the fresh socket back to the loop through a registration queue
//!   and the waker.
//! * **Worker.** One loop thread owns the listener and every driver
//!   connection. Executor threads never touch the socket: they push result
//!   frames into the connection's shared `SendBuf` and nudge the loop via
//!   the waker, which flushes and re-arms write interest as needed.
//!
//! # Connection state machine
//!
//! Each connection cycles through: read-buffer accumulation → in-place
//! frame decode → dispatch → write-buffer drain. Write interest is
//! registered only while the `SendBuf` holds a partially-written backlog
//! (`want_write`), so an idle connection costs one `EPOLLIN` registration
//! and zero syscalls.
//!
//! # Pipelining and windows
//!
//! Submits to one worker coalesce into the link's `SendBuf` (one `write`
//! for a burst) and are capped by a per-worker *window* of outstanding
//! tasks; submits beyond the window wait in a pending queue and drain as
//! completions stream back. The scheduler already bounds in-flight work by
//! the worker's advertised cores, so the default window (2× cores) only
//! smooths bursts — tests shrink it to exercise the queueing path.
//!
//! # Data movement
//!
//! Small task inputs travel inline ([`WireArg::Inline`]) unless the
//! driver's residency tracking says the worker already holds the version,
//! in which case only the key is sent ([`WireArg::Cached`]). The worker
//! caches every inline argument it receives; a cache miss (cold cache
//! after reconnect, or an output the worker produced under a key it was
//! never told) falls back to a `Fetch` round trip served by the driver.
//! Residency for a node is wiped whenever its connection drops.
//!
//! Values whose declared size meets
//! [`DistributedConfig::inline_threshold`] ride the content-addressed
//! block plane instead (see the `blocks` module): the driver encodes the
//! value once, hashes it, pushes the bytes ahead of the first `Submit`
//! that needs them on a node (`BlockPut`), and every later submit —
//! any trial, same content — sends only the 16-byte hash
//! ([`WireArg::Block`]). Workers hold decoded blocks in an LRU cache
//! bounded by `--cache-mem`, reporting evictions (`BlockEvict`) so the
//! driver's residency stays honest; a miss is one `BlockRequest`/
//! `BlockData` round trip, deduplicated across concurrently-starting
//! tasks. The upshot: a shared dataset crosses the wire O(workers) times
//! per sweep, not O(trials).
//!
//! # Fault tolerance
//!
//! A worker is declared dead on connection error, EOF, or heartbeat
//! timeout. Its in-flight executions are failed with `node_gone = true`, so
//! [`crate::fault::RetryPolicy`] re-routes them to surviving workers; ready
//! tasks that no surviving node could ever run are failed immediately
//! (cascade) instead of hanging the barrier. With
//! [`DistributedConfig::reconnect`] enabled the driver attempts one
//! reconnect first and revives the node on success.
//!
//! Multi-node (`@multinode`) constraints are not dispatched remotely — the
//! simulated backend remains the home for those experiments.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use paratrace::merge::TaskBounds;
use paratrace::{ClockSync, CoreId, EventKind, Record, TaskRef, TraceCollector, WorkerTrace};
use parking_lot::{Condvar, Mutex};
use rnet::{
    read_frame, Blob, Fill, Frame, FrameRef, Interest, Poller, RecvBuf, SendBuf, Waker, WireArg,
    WireArgRef,
};

use crate::blocks::{BlockCache, EncodedBlock, DEFAULT_INLINE_THRESHOLD};
use crate::codec;
use crate::data::{DataHandle, DataVersion, Value};
use crate::registry::TaskRegistry;
use crate::runtime::{complete_attempt, fail_task_cascade, Core, RunningExec, Shared};
use crate::task::{TaskContext, TaskError, TaskId};

/// Poll token of the self-pipe waker (driver and worker loops alike).
const WAKE_TOKEN: u64 = u64::MAX;
/// Poll token of the worker's listening socket.
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// Tuning knobs for the driver side of a distributed runtime.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// How often the driver loop pings each worker.
    pub heartbeat_interval: Duration,
    /// Silence longer than this declares the worker dead.
    pub heartbeat_timeout: Duration,
    /// Per-worker cap on outstanding submits; `None` sizes it to twice the
    /// worker's advertised cores.
    pub window: Option<u32>,
    /// Attempt one reconnect (and revive the node) before failing a dead
    /// worker's tasks over to the survivors.
    pub reconnect: bool,
    /// How long to keep retrying the initial connection to each worker.
    pub connect_timeout: Duration,
    /// Values whose declared size (`DataRegistry::bytes`, the same size
    /// model the transfer-aware scheduler scores with) is at least this
    /// many bytes travel as content-addressed blocks instead of inline
    /// `Submit` payloads. `u64::MAX` disables the block plane.
    pub inline_threshold: u64,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            heartbeat_interval: Duration::from_millis(200),
            heartbeat_timeout: Duration::from_millis(1500),
            window: None,
            reconnect: false,
            connect_timeout: Duration::from_secs(5),
            inline_threshold: DEFAULT_INLINE_THRESHOLD,
        }
    }
}

/// Wire key for a data version: handle id in the high 32 bits, version in
/// the low 32. Handles are dense small integers, so this never collides.
fn data_key(v: DataVersion) -> u64 {
    (v.handle.0 << 32) | u64::from(v.version)
}

/// High bit of a wire key marks snapshot traffic (see [`crate::snapshot`])
/// riding the same `Fetch`/`Data` frames as task data. Data keys never set
/// it: handle ids are dense small integers (`data_key` puts them in bits
/// 32..63), so bit 63 is free to carve out a second key namespace.
/// Snapshot blobs are raw bytes — no codec — because they are opaque to
/// the runtime; only the task that saved them knows the layout.
pub(crate) const SNAP_BIT: u64 = 1 << 63;

/// Codec tag stamped on snapshot `Data` frames. Never looked up in the
/// codec registry — snapshot bytes cross the wire verbatim.
pub(crate) const SNAP_TAG: &str = "ckpt.snap";

fn key_version(key: u64) -> DataVersion {
    DataVersion { handle: DataHandle(key >> 32), version: key as u32 }
}

/// One argument prepared under the core lock: how its bytes (if any)
/// reach the worker.
enum PreparedArg {
    /// Worker already holds the version in its key cache; send the key.
    Cached { key: u64 },
    /// Small value, not resident: encoded off-lock and shipped inline.
    Inline { key: u64, value: Value },
    /// Block-plane value already resident on the worker: hash only.
    BlockRef { key: u64, hash: u128 },
    /// Block-plane value the worker lacks: a `BlockPut` with the bytes
    /// precedes the `Submit` that references the hash.
    BlockShip { key: u64, block: Arc<EncodedBlock> },
}

/// A placed task bound for a remote worker, prepared under the core lock
/// and encoded/sent outside it.
pub(crate) struct RemoteDispatch {
    exec_id: u64,
    node: u32,
    task_id: u64,
    attempt: u32,
    variant: u32,
    cores: Vec<u32>,
    gpus: Vec<u32>,
    args: Vec<PreparedArg>,
    name: Arc<str>,
    start_us: u64,
}

/// Mutable per-connection state, all under one lock: the socket, both
/// direction buffers, the submit window, and the poll-interest shadow.
struct LinkState {
    /// `None` while the link is mid-failover (the event loop then ignores
    /// stale readiness events for this token).
    stream: Option<TcpStream>,
    /// Interned function names: first submit of a name carries it in full,
    /// later ones send only the id. Reset on reconnect.
    fn_ids: HashMap<Arc<str>, u64>,
    next_fn_id: u64,
    /// Submit frames waiting for window space, FIFO.
    pending: VecDeque<Frame>,
    /// Submits written (or at least buffered) but not yet completed.
    outstanding: u32,
    window: u32,
    /// Coalescing write backlog; heartbeats and `Data` replies bypass the
    /// window and go straight here.
    send: SendBuf,
    /// Incremental read/decode buffer.
    recv: RecvBuf,
    /// The send buffer has a backlog the socket would not accept — the
    /// loop must arm write interest and resume on writable.
    want_write: bool,
    /// What the poller currently believes (shadow of `want_write`).
    registered_write: bool,
    /// The fd is registered with the poller (cleared on failover).
    registered: bool,
    /// NTP-style clock-offset estimator fed by heartbeat acks; survives
    /// failover (the worker's clock does not reset with its socket).
    clock: ClockSync,
    /// Node-labelled mirror of `rnet_bytes_sent_total` — per-worker
    /// attribution of the transfer collapse in `/metrics`.
    sent_bytes: runmetrics::Counter,
    /// Node-labelled mirror of `rnet_bytes_received_total`.
    recv_bytes: runmetrics::Counter,
}

/// One remote worker as seen by the driver.
struct WorkerLink {
    node: u32,
    addr: String,
    name: String,
    state: Mutex<LinkState>,
    /// Wall-µs of the last bytes received (any frame kind).
    last_seen_us: AtomicU64,
    hb_seq: AtomicU64,
    /// Lock-free mirror of the best clock-sync estimate
    /// (`worker_clock − driver_clock`), for readers outside the link lock.
    clock_offset_us: AtomicI64,
    /// Lock-free mirror of the best (smallest) observed heartbeat RTT.
    clock_rtt_us: AtomicU64,
    /// Worker-side trace records shipped via `TraceChunk`, decoded and
    /// accumulated on the worker's own clock until the merge at export.
    trace_records: Mutex<Vec<Record>>,
}

struct Inner {
    shared: Arc<Shared>,
    workers: Vec<Arc<WorkerLink>>,
    cfg: DistributedConfig,
    stop: AtomicBool,
    poller: Poller,
    wake: Waker,
    /// Nodes whose fresh (reconnected) sockets await registration by the
    /// event loop; paired with a [`Waker::wake`].
    registrations: Mutex<Vec<u32>>,
    /// Failover helper threads (reconnects block in `connect`, so they
    /// must not run on the event loop).
    helpers: Mutex<Vec<JoinHandle<()>>>,
    /// Driver-observed `[dispatch, completion]` window per task id — the
    /// clamp that keeps rebased worker spans inside driver-timeline causality
    /// at merge time.
    exec_bounds: Mutex<TaskBounds>,
}

/// Driver-side connection manager: one event-loop thread owning readiness
/// for every [`WorkerLink`].
pub(crate) struct ConnMgr {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

/// A freshly connected worker before the runtime exists: the socket plus
/// what its `Hello` advertised. This is the unit of worker *acquisition*,
/// split from runtime construction so a long-lived server can gather
/// workers its own way — dialling out ([`connect_workers`]) and/or
/// accepting dial-ins on a shared listener ([`WorkerBootstrap::from_hello`])
/// — and only then build the [`crate::Runtime`] it owns (see
/// [`crate::Runtime::from_bootstraps`]).
pub struct WorkerBootstrap {
    pub(crate) stream: TcpStream,
    pub(crate) addr: String,
    pub(crate) name: String,
    pub(crate) cores: u32,
    pub(crate) gpus: u32,
    pub(crate) mem_gib: u32,
}

impl std::fmt::Debug for WorkerBootstrap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerBootstrap")
            .field("addr", &self.addr)
            .field("name", &self.name)
            .field("cores", &self.cores)
            .field("gpus", &self.gpus)
            .field("mem_gib", &self.mem_gib)
            .finish_non_exhaustive()
    }
}

impl WorkerBootstrap {
    /// Adopt a worker that dialled *us*: `stream` is an accepted
    /// connection whose first frame was a `Hello` carrying these
    /// resources. The caller has already read that frame (that is how it
    /// knew the peer was a worker and not a sweep client); nothing else
    /// may have been read from the socket.
    pub fn from_hello(
        stream: TcpStream,
        addr: String,
        name: String,
        cores: u32,
        gpus: u32,
        mem_gib: u32,
    ) -> WorkerBootstrap {
        stream.set_nodelay(true).ok();
        WorkerBootstrap { stream, addr, name, cores, gpus, mem_gib }
    }

    /// The worker's display name (from its `Hello`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// CPU cores the worker advertised.
    pub fn cores(&self) -> u32 {
        self.cores
    }
}

/// Connect to every worker and collect their `Hello`s. Retries each
/// address until `connect_timeout` so workers racing the driver to start
/// (the ci.sh smoke pattern) are tolerated.
pub fn connect_workers(addrs: &[String], timeout: Duration) -> io::Result<Vec<WorkerBootstrap>> {
    addrs
        .iter()
        .map(|addr| {
            let deadline = std::time::Instant::now() + timeout;
            let stream = loop {
                match TcpStream::connect(addr.as_str()) {
                    Ok(s) => break s,
                    Err(e) if std::time::Instant::now() < deadline => {
                        let _ = e;
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    Err(e) => {
                        return Err(io::Error::new(
                            e.kind(),
                            format!("connecting to worker {addr}: {e}"),
                        ))
                    }
                }
            };
            stream.set_nodelay(true).ok();
            hello_handshake(stream, addr.clone())
        })
        .collect()
}

/// Read the `Hello` a worker sends on connect (the one blocking read the
/// driver ever does — the socket goes non-blocking right after).
fn hello_handshake(mut stream: TcpStream, addr: String) -> io::Result<WorkerBootstrap> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let frame = read_frame(&mut stream, &mut RecvBuf::new())?;
    stream.set_read_timeout(None)?;
    match frame {
        Some(Frame::Hello { name, cores, gpus, mem_gib }) => {
            Ok(WorkerBootstrap { stream, addr, name, cores, gpus, mem_gib })
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("worker {addr} did not say Hello (got {other:?})"),
        )),
    }
}

impl ConnMgr {
    /// Wire up the links and spawn the event-loop thread. `boots` are in
    /// node-id order (the same order the cluster spec was built in).
    pub fn start(
        shared: Arc<Shared>,
        boots: Vec<WorkerBootstrap>,
        cfg: DistributedConfig,
    ) -> ConnMgr {
        shared.core.lock().blocks.set_inline_threshold(cfg.inline_threshold);
        let workers: Vec<Arc<WorkerLink>> = boots
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                let window = cfg.window.unwrap_or(b.cores.saturating_mul(2)).max(1);
                b.stream.set_nonblocking(true).ok();
                let label = format!("{}@{}", b.name, b.addr);
                let reg = shared.metrics.registry();
                let sent_bytes =
                    reg.counter(&runmetrics::labeled("rnet_bytes_sent_total", "node", &label));
                let recv_bytes =
                    reg.counter(&runmetrics::labeled("rnet_bytes_received_total", "node", &label));
                Arc::new(WorkerLink {
                    node: i as u32,
                    addr: b.addr,
                    name: b.name,
                    state: Mutex::new(LinkState {
                        stream: Some(b.stream),
                        fn_ids: HashMap::new(),
                        next_fn_id: 1,
                        pending: VecDeque::new(),
                        outstanding: 0,
                        window,
                        send: SendBuf::new(),
                        recv: RecvBuf::new(),
                        want_write: false,
                        registered_write: false,
                        registered: false,
                        clock: ClockSync::default(),
                        sent_bytes,
                        recv_bytes,
                    }),
                    last_seen_us: AtomicU64::new(shared.wall_us()),
                    hb_seq: AtomicU64::new(0),
                    clock_offset_us: AtomicI64::new(0),
                    clock_rtt_us: AtomicU64::new(0),
                    trace_records: Mutex::new(Vec::new()),
                })
            })
            .collect();
        let poller = Poller::new().unwrap_or_else(|_| Poller::fallback());
        let wake = Waker::new(&poller, WAKE_TOKEN).expect("self-pipe waker");
        let registrations = Mutex::new((0..workers.len() as u32).collect());
        let inner = Arc::new(Inner {
            shared,
            workers,
            cfg,
            stop: AtomicBool::new(false),
            poller,
            wake,
            registrations,
            helpers: Mutex::new(Vec::new()),
            exec_bounds: Mutex::new(TaskBounds::new()),
        });
        let loop_inner = Arc::clone(&inner);
        let threads = vec![std::thread::spawn(move || driver_loop(loop_inner))];
        ConnMgr { inner, threads }
    }

    /// Worker display labels, indexed by node id: `name@addr`.
    pub fn labels(&self) -> Vec<String> {
        self.inner.workers.iter().map(|w| format!("{}@{}", w.name, w.addr)).collect()
    }

    /// Everything the trace merge needs: each worker's shipped records with
    /// its current clock-offset estimate, plus the driver-observed
    /// dispatch→completion bounds. Records are cloned, not drained, so the
    /// merged trace can be exported more than once.
    pub fn telemetry(&self) -> (Vec<WorkerTrace>, TaskBounds) {
        let workers = self
            .inner
            .workers
            .iter()
            .map(|w| WorkerTrace {
                node: w.node,
                offset_us: w.clock_offset_us.load(Ordering::Relaxed),
                records: w.trace_records.lock().clone(),
            })
            .collect();
        (workers, self.inner.exec_bounds.lock().clone())
    }

    /// Per-worker clock sync estimates, indexed by node id:
    /// `(offset_us, rtt_us)`. RTT 0 means no heartbeat ack was observed yet.
    pub fn clock_stats(&self) -> Vec<(i64, u64)> {
        self.inner
            .workers
            .iter()
            .map(|w| {
                (w.clock_offset_us.load(Ordering::Relaxed), w.clock_rtt_us.load(Ordering::Relaxed))
            })
            .collect()
    }

    /// Place every placeable ready task for remote execution. Call with the
    /// core locked; pair with [`ConnMgr::send`] after unlocking.
    pub fn collect_dispatch_remote(&self, core: &mut Core) -> Vec<RemoteDispatch> {
        collect_dispatch_remote(&self.inner.shared, core)
    }

    /// Encode and transmit prepared dispatches (coalesced per worker), then
    /// emit their dispatch trace events. Call *without* the core lock.
    pub fn send(&self, work: Vec<RemoteDispatch>) {
        send_dispatches(&self.inner, work);
    }

    /// Graceful stop: join the loop and helpers, then drain each link's
    /// backlog (blocking again) and append `Shutdown` so the goodbye never
    /// splices into a partially-written frame.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        let _ = self.inner.wake.wake();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let helpers: Vec<_> = self.inner.helpers.lock().drain(..).collect();
        for h in helpers {
            let _ = h.join();
        }
        for link in &self.inner.workers {
            let mut st = link.state.lock();
            let LinkState { stream, send, .. } = &mut *st;
            if let Some(sock) = stream.as_mut() {
                let _ = sock.set_nonblocking(false);
                send.push(&Frame::Shutdown);
                while !send.is_empty() {
                    match send.flush(sock) {
                        Ok((_, true)) => break,
                        Ok((_, false)) => std::thread::yield_now(),
                        Err(_) => break,
                    }
                }
                let _ = sock.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

/// The core-locked half of dispatch, mirroring the threaded backend's
/// `collect_dispatch`: pop placeable tasks, decide inline-vs-cached per
/// input, register the `RunningExec`. Values are cloned (`Arc` bumps) here
/// and encoded later, off-lock.
pub(crate) fn collect_dispatch_remote(shared: &Shared, core: &mut Core) -> Vec<RemoteDispatch> {
    let measure = shared.metrics.enabled();
    let mut msgs = Vec::new();
    loop {
        let decision_started = measure.then(std::time::Instant::now);
        let popped = {
            // Disjoint field borrows: the locality closure reads data and
            // instances while the scheduler is borrowed mutably.
            // Transfer-aware placement: fewest bytes-to-move first
            // (declared size × missing residency), most resident inputs as
            // the tie-break — the remote analogue of `locality_score`,
            // weighted by what a wrong placement actually costs.
            let Core { sched, data, instances, .. } = core;
            sched.pop_placeable(|t, n| {
                instances
                    .get(&t)
                    .map_or((std::cmp::Reverse(0), 0), |inst| data.transfer_score(&inst.reads(), n))
            })
        };
        if let Some(t0) = decision_started {
            shared.metrics.sched_decision.record(t0.elapsed().as_micros() as u64);
        }
        let Some((entry, placement)) = popped else { break };
        let placement = Arc::new(placement);
        let task = entry.task;
        let node = placement.node;
        let inst = core.instances.get(&task).expect("ready task has an instance");
        let name = Arc::clone(&inst.def.name);
        let attempt = inst.attempt;
        let submitted_us = inst.submitted_us;
        let reads = inst.reads();
        let mut args = Vec::with_capacity(reads.len());
        for v in reads {
            let key = data_key(v);
            if core.blocks.routes_block(core.data.bytes(v.handle)) {
                let value = core.data.get(v).expect("ready task inputs are computed");
                // Content-address the value; the encode is memoised, so a
                // dataset shared by a hundred trials pays the codec once.
                if let Some(block) = core.blocks.encode(v, &value) {
                    // Optimistic residency, both granularities: versions
                    // drive scheduling scores, hashes drive ship-vs-ref.
                    // Cleared if the connection drops (or on BlockEvict).
                    core.data.add_location(v, node);
                    if core.blocks.is_resident(node, block.hash) {
                        args.push(PreparedArg::BlockRef { key, hash: block.hash });
                    } else {
                        core.blocks.add_resident(node, block.hash);
                        args.push(PreparedArg::BlockShip { key, block });
                    }
                    continue;
                }
                // No codec: fall through to the inline path, whose
                // failed-attempt reporting stands.
                core.data.add_location(v, node);
                args.push(PreparedArg::Inline { key, value });
            } else if core.data.is_on_node(v, node) {
                args.push(PreparedArg::Cached { key });
            } else {
                let value = core.data.get(v).expect("ready task inputs are computed");
                // Optimistic residency: the worker caches inline args as
                // they arrive, in submit order, so later submits on this
                // socket may rely on it. Cleared if the connection drops.
                core.data.add_location(v, node);
                args.push(PreparedArg::Inline { key, value });
            }
        }
        let now = shared.wall_us();
        shared.metrics.dispatched.incr();
        let queued = now.saturating_sub(submitted_us);
        shared.metrics.dep_wait.record(queued);
        shared.metrics.phase_queue.record(queued);
        let exec_id = core.next_exec;
        core.next_exec += 1;
        core.running.insert(
            exec_id,
            RunningExec {
                task,
                placement: Arc::clone(&placement),
                constraint: entry.constraint,
                attempt,
                start_us: now,
            },
        );
        core.graph.set_running(task);
        msgs.push(RemoteDispatch {
            exec_id,
            node,
            task_id: task.0,
            attempt,
            variant: placement.variant as u32,
            cores: placement.cores.clone(),
            gpus: placement.gpus.clone(),
            args,
            name,
            start_us: now,
        });
    }
    shared.metrics.ready_depth.set(core.sched.ready_len() as f64);
    shared.metrics.running.set(core.running.len() as f64);
    msgs
}

/// Move window-permitted pending submits into the send buffer and drain as
/// much backlog as the socket accepts right now. Sets `want_write` when a
/// backlog remains. Returns `false` when the socket died.
fn pump_link(shared: &Shared, st: &mut LinkState) -> bool {
    let LinkState { stream, pending, outstanding, window, send, want_write, sent_bytes, .. } =
        &mut *st;
    let Some(sock) = stream.as_mut() else {
        return true; // mid-failover; frames stay pending until resolution
    };
    while *outstanding < *window {
        let Some(f) = pending.pop_front() else { break };
        send.push(&f);
        *outstanding += 1;
    }
    if send.is_empty() {
        *want_write = false;
        return true;
    }
    match send.flush(sock) {
        Ok((n, drained)) => {
            if n > 0 {
                shared.metrics.net_bytes_sent.add(n as u64);
                sent_bytes.add(n as u64);
            }
            *want_write = !drained;
            true
        }
        Err(_) => false,
    }
}

/// Reconcile the poller's write interest with `want_write`. Call with the
/// link lock held, after any pump.
fn sync_interest(inner: &Inner, node: u32, st: &mut LinkState) {
    if !st.registered || st.want_write == st.registered_write {
        return;
    }
    let Some(fd) = st.stream.as_ref().map(|s| s.as_raw_fd()) else { return };
    let interest = if st.want_write { Interest::READ_WRITE } else { Interest::READ };
    if inner.poller.modify(fd, u64::from(node), interest).is_ok() {
        st.registered_write = st.want_write;
    }
}

/// Off-lock half of dispatch: encode values, intern names, coalesce frames
/// per worker under its window, flush each link's backlog once.
fn send_dispatches(inner: &Arc<Inner>, work: Vec<RemoteDispatch>) {
    if work.is_empty() {
        return;
    }
    // Dispatch trace events first (cheap, lock-free collector).
    for d in &work {
        inner.shared.trace.event(
            CoreId::new(d.node, d.cores.first().copied().unwrap_or(0)),
            d.start_us,
            EventKind::TaskDispatch(TaskRef::new(d.task_id, Arc::clone(&d.name))),
        );
    }
    let mut undeliverable: Vec<(u64, String)> = Vec::new();
    let mut dead_links: Vec<Arc<WorkerLink>> = Vec::new();
    let mut by_node: HashMap<u32, Vec<RemoteDispatch>> = HashMap::new();
    for d in work {
        by_node.entry(d.node).or_default().push(d);
    }
    for (node, batch) in by_node {
        let link = &inner.workers[node as usize];
        let mut frames = Vec::with_capacity(batch.len());
        let mut st = link.state.lock();
        for d in batch {
            let mut args = Vec::with_capacity(d.args.len());
            let mut encode_err = None;
            for a in &d.args {
                match a {
                    PreparedArg::Cached { key } => args.push(WireArg::Cached { key: *key }),
                    PreparedArg::BlockRef { key, hash } => {
                        args.push(WireArg::Block { key: *key, hash: *hash })
                    }
                    PreparedArg::BlockShip { key, block } => {
                        // The block's bytes bypass the submit window, like
                        // `Data` replies: they must precede the Submit that
                        // references them (same socket, so ordering holds)
                        // but carry no completion to retire a window slot.
                        st.send
                            .push(&Frame::BlockPut { hash: block.hash, blob: block.blob.clone() });
                        args.push(WireArg::Block { key: *key, hash: block.hash });
                    }
                    PreparedArg::Inline { key, value } => match codec::encode_value(value) {
                        Some(blob) => args.push(WireArg::Inline { key: *key, blob }),
                        None => {
                            encode_err = Some(format!(
                                "no wire codec registered for an input of task '{}'",
                                d.name
                            ));
                            break;
                        }
                    },
                }
            }
            if let Some(msg) = encode_err {
                undeliverable.push((d.exec_id, msg));
                continue;
            }
            let fn_name = if st.fn_ids.contains_key(&d.name) {
                None
            } else {
                let id = st.next_fn_id;
                st.next_fn_id += 1;
                st.fn_ids.insert(Arc::clone(&d.name), id);
                Some(d.name.to_string())
            };
            let fn_id = st.fn_ids[&d.name];
            frames.push(Frame::Submit {
                exec_id: d.exec_id,
                task_id: d.task_id,
                attempt: d.attempt,
                node: d.node,
                fn_id,
                fn_name,
                variant: d.variant,
                cores: d.cores,
                gpus: d.gpus,
                args,
            });
        }
        st.pending.extend(frames);
        if pump_link(&inner.shared, &mut st) {
            sync_interest(inner, node, &mut st);
        } else {
            dead_links.push(Arc::clone(link));
        }
    }
    // Encoding failures become failed attempts under the normal retry
    // machinery (they will exhaust retries and cascade).
    if !undeliverable.is_empty() {
        let now = inner.shared.wall_us();
        let follow = {
            let mut core = inner.shared.core.lock();
            for (exec_id, msg) in undeliverable {
                complete_attempt(
                    &inner.shared,
                    &mut core,
                    exec_id,
                    Err(TaskError::new(msg)),
                    now,
                    false,
                );
            }
            collect_dispatch_remote(&inner.shared, &mut core)
        };
        inner.shared.cv.notify_all();
        send_dispatches(inner, follow);
    }
    for link in dead_links {
        start_failover(inner, &link);
    }
}

/// The driver's event loop: readiness for every link and the waker, with
/// heartbeat pacing folded into the poll timeout.
fn driver_loop(inner: Arc<Inner>) {
    let hb = inner.cfg.heartbeat_interval;
    let mut events = Vec::new();
    // First heartbeat fires immediately: it seeds the clock-offset estimate
    // so even tasks completing before the first interval elapses get
    // rebased worker telemetry.
    let mut next_hb = std::time::Instant::now();
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        // Register freshly (re)connected sockets queued by start / helpers.
        let regs: Vec<u32> = std::mem::take(&mut *inner.registrations.lock());
        for node in regs {
            register_link(&inner, &inner.workers[node as usize]);
        }
        let now = std::time::Instant::now();
        if now >= next_hb {
            heartbeat_pass(&inner);
            next_hb = now + hb;
        }
        let timeout = next_hb.saturating_duration_since(std::time::Instant::now());
        if inner.poller.wait(&mut events, Some(timeout)).is_err() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                inner.wake.drain();
                continue;
            }
            let Some(link) = inner.workers.get(ev.token as usize) else { continue };
            service_link(&inner, link, ev.readable, ev.writable);
        }
    }
}

/// Add a link's socket to the poll set (event-loop thread only).
fn register_link(inner: &Inner, link: &WorkerLink) {
    let mut st = link.state.lock();
    let Some(fd) = st.stream.as_ref().map(|s| {
        s.set_nonblocking(true).ok();
        s.as_raw_fd()
    }) else {
        return;
    };
    let interest = if st.want_write { Interest::READ_WRITE } else { Interest::READ };
    if inner.poller.register(fd, u64::from(link.node), interest).is_ok() {
        st.registered = true;
        st.registered_write = st.want_write;
    }
}

/// Write a heartbeat to every live link and declare silent ones dead.
///
/// Each probe carries the driver's clock (for the NTP exchange the ack
/// completes) and the telemetry gate: workers flush trace chunks and stats
/// only when the driver's tracing flag is on, so a tracing-disabled run
/// sees zero telemetry bytes on the wire.
fn heartbeat_pass(inner: &Arc<Inner>) {
    let timeout_us = inner.cfg.heartbeat_timeout.as_micros() as u64;
    let now = inner.shared.wall_us();
    let telemetry = inner.shared.trace.is_enabled();
    let mut dead = Vec::new();
    for link in &inner.workers {
        {
            let mut st = link.state.lock();
            if st.stream.is_none() {
                continue;
            }
            let seq = link.hb_seq.fetch_add(1, Ordering::Relaxed);
            st.send.push(&Frame::Heartbeat { seq, t_send_us: inner.shared.wall_us(), telemetry });
            if pump_link(&inner.shared, &mut st) {
                sync_interest(inner, link.node, &mut st);
            } else {
                dead.push(Arc::clone(link));
                continue;
            }
        }
        let silent = now.saturating_sub(link.last_seen_us.load(Ordering::Relaxed));
        if silent > timeout_us {
            dead.push(Arc::clone(link));
        }
    }
    for link in dead {
        start_failover(inner, &link);
    }
}

/// Worker-clock lifecycle stamps riding a `Done` frame: submit receipt,
/// body start, body end. `None` for failures.
type ExecStamps = Option<(u64, u64, u64)>;

/// One readiness event for a link: drain writes, then drain reads frame by
/// frame (zero-copy decode), then act on what arrived.
fn service_link(inner: &Arc<Inner>, link: &Arc<WorkerLink>, readable: bool, writable: bool) {
    let mut completions: Vec<(u64, Result<Vec<Value>, TaskError>, ExecStamps)> = Vec::new();
    let mut fetches: Vec<u64> = Vec::new();
    let mut block_reqs: Vec<u128> = Vec::new();
    let mut block_evicts: Vec<u128> = Vec::new();
    let mut snap_updates: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut acks: Vec<(u64, u64, u64)> = Vec::new();
    let mut chunks: Vec<Vec<u8>> = Vec::new();
    let mut stats_seen = false;
    let mut alive = true;
    let mut saw_bytes = false;
    {
        let mut st = link.state.lock();
        if st.stream.is_none() {
            return; // stale event for a link mid-failover
        }
        if writable {
            alive = pump_link(&inner.shared, &mut st);
        }
        if readable && alive {
            let LinkState { stream, recv, recv_bytes, .. } = &mut *st;
            let sock = stream.as_mut().expect("checked above");
            'fill: loop {
                match recv.fill_from(sock) {
                    Ok(Fill::Bytes(n)) => {
                        saw_bytes = true;
                        inner.shared.metrics.net_bytes_received.add(n as u64);
                        recv_bytes.add(n as u64);
                    }
                    Ok(Fill::WouldBlock) => break,
                    Ok(Fill::Eof) | Err(_) => {
                        alive = false;
                        break;
                    }
                }
                loop {
                    match recv.next_frame() {
                        Ok(Some(frame)) => match frame {
                            FrameRef::Done { exec_id, recv_us, start_us, end_us, outputs } => {
                                let result = outputs
                                    .iter()
                                    .map(|b| {
                                        codec::decode_tagged(b.tag, b.bytes).map_err(|e| {
                                            TaskError::new(format!("undecodable task output: {e}"))
                                        })
                                    })
                                    .collect();
                                completions.push((
                                    exec_id,
                                    result,
                                    Some((recv_us, start_us, end_us)),
                                ));
                            }
                            FrameRef::Failed { exec_id, message } => {
                                completions.push((exec_id, Err(TaskError::new(message)), None));
                            }
                            FrameRef::HeartbeatAck { t_send_us, recv_us, reply_us, .. } => {
                                acks.push((t_send_us, recv_us, reply_us));
                            }
                            FrameRef::Fetch { key } => fetches.push(key),
                            FrameRef::BlockRequest { hash } => block_reqs.push(hash),
                            FrameRef::BlockEvict { hash } => block_evicts.push(hash),
                            FrameRef::Data { key, blob } if key & SNAP_BIT != 0 => {
                                snap_updates.push((key, blob.bytes.to_vec()));
                            }
                            FrameRef::TraceChunk { bytes } => chunks.push(bytes.to_vec()),
                            FrameRef::StatsSnapshot { .. } => stats_seen = true,
                            // Workers don't originate these driver-bound
                            // frames.
                            _ => {}
                        },
                        Ok(None) => continue 'fill,
                        Err(_) => {
                            alive = false;
                            break 'fill;
                        }
                    }
                }
            }
        }
        if saw_bytes {
            link.last_seen_us.store(inner.shared.wall_us(), Ordering::Relaxed);
        }
        if !acks.is_empty() {
            // Complete the NTP exchange: t3 is "now" on the driver clock.
            // One wall read serves the batch — acks decoded together arrived
            // together within the fill's granularity.
            let t3 = inner.shared.wall_us();
            for (t0, t1, t2) in acks.drain(..) {
                st.clock.observe(t0, t1, t2, t3);
            }
            link.clock_offset_us.store(st.clock.offset_us(), Ordering::Relaxed);
            link.clock_rtt_us.store(st.clock.rtt_us(), Ordering::Relaxed);
        }
        if alive {
            st.outstanding = st.outstanding.saturating_sub(completions.len() as u32);
            alive = pump_link(&inner.shared, &mut st);
            if alive {
                sync_interest(inner, link.node, &mut st);
            }
        }
    }
    ingest_telemetry(inner, link, chunks, stats_seen);
    // Snapshot saves/tombstones from the worker: keep the latest per key so
    // the retry path can ship it to whichever worker inherits the task.
    if !snap_updates.is_empty() {
        let mut snaps = inner.shared.snapshots.lock();
        for (key, bytes) in snap_updates {
            if bytes.is_empty() {
                snaps.remove(&key);
            } else {
                snaps.insert(key, bytes);
            }
        }
    }
    if !completions.is_empty()
        || !fetches.is_empty()
        || !block_reqs.is_empty()
        || !block_evicts.is_empty()
    {
        apply_frames(inner, link, completions, fetches, block_reqs, block_evicts);
    }
    if !alive {
        start_failover(inner, link);
    }
}

/// Fold one readiness event's telemetry frames into driver state: decode
/// shipped trace chunks onto the link's record store, account their payload
/// bytes, and refresh the per-worker clock/freshness gauges.
fn ingest_telemetry(
    inner: &Arc<Inner>,
    link: &Arc<WorkerLink>,
    chunks: Vec<Vec<u8>>,
    stats_seen: bool,
) {
    let label = || format!("{}@{}", link.name, link.addr);
    if !chunks.is_empty() {
        let mut records = link.trace_records.lock();
        for chunk in &chunks {
            inner.shared.metrics.telemetry_bytes.add(chunk.len() as u64);
            // A malformed chunk loses those spans but not the run: the
            // driver-side estimates still cover the trace.
            if let Ok(mut rs) = paratrace::wire::decode_records(chunk) {
                records.append(&mut rs);
            }
        }
    }
    if stats_seen {
        inner.shared.metrics.set_node_gauge(
            "rnet_last_stats_us",
            &label(),
            inner.shared.wall_us() as f64,
        );
    }
    let rtt = link.clock_rtt_us.load(Ordering::Relaxed);
    if rtt > 0 {
        inner.shared.metrics.set_node_gauge("rnet_rtt_us", &label(), rtt as f64);
        inner.shared.metrics.set_node_gauge(
            "rnet_clock_offset_us",
            &label(),
            link.clock_offset_us.load(Ordering::Relaxed) as f64,
        );
    }
}

/// Completions and fetches collected from one readiness event: one core
/// lock pass for bookkeeping + follow-on placement, replies pushed onto
/// the link's backlog, traces emitted off-lock.
fn apply_frames(
    inner: &Arc<Inner>,
    link: &Arc<WorkerLink>,
    completions: Vec<(u64, Result<Vec<Value>, TaskError>, ExecStamps)>,
    fetches: Vec<u64>,
    block_reqs: Vec<u128>,
    block_evicts: Vec<u128>,
) {
    let now = inner.shared.wall_us();
    type Info = (TaskId, Arc<crate::scheduler::Placement>, u64, Arc<str>, ExecStamps);
    let mut infos: Vec<Info> = Vec::new();
    let mut replies: Vec<Frame> = Vec::new();
    let follow = {
        let mut core = inner.shared.core.lock();
        for (exec_id, result, stamps) in completions {
            // Late frames for already-failed-over executions are ignored
            // (`running` no longer knows the exec id).
            if let Some(run) = core.running.get(&exec_id) {
                let name = core
                    .instances
                    .get(&run.task)
                    .map(|i| Arc::clone(&i.def.name))
                    .unwrap_or_else(|| Arc::from("?"));
                infos.push((run.task, Arc::clone(&run.placement), run.start_us, name, stamps));
            }
            complete_attempt(&inner.shared, &mut core, exec_id, result, now, false);
        }
        for &key in fetches.iter().filter(|&&k| k & SNAP_BIT == 0) {
            // Task-data fetch: reply only when the value exists and has a
            // codec; the worker's own deadline handles the silent case.
            if let Some(blob) =
                core.data.get(key_version(key)).and_then(|v| codec::encode_value(&v))
            {
                replies.push(Frame::Data { key, blob });
            }
        }
        for &hash in &block_evicts {
            // The worker dropped the block under memory pressure: retract
            // residency at both granularities so the next dispatch ships
            // the bytes again (and scores the node honestly).
            core.blocks.evict(link.node, hash);
            let versions: Vec<DataVersion> = core.blocks.versions_of(hash).to_vec();
            for v in versions {
                core.data.remove_location(v, link.node);
            }
        }
        for &hash in &block_reqs {
            // Cache-miss refill; silence on an unknown hash is handled by
            // the worker's own fetch deadline, like key fetches.
            if let Some(block) = core.blocks.lookup(hash) {
                core.blocks.add_resident(link.node, hash);
                replies.push(Frame::BlockData { hash, blob: block.blob.clone() });
            }
        }
        collect_dispatch_remote(&inner.shared, &mut core)
    };
    for &key in fetches.iter().filter(|&&k| k & SNAP_BIT != 0) {
        // Snapshot fetch: always reply — an empty blob means "no
        // snapshot", so a fresh trial starts immediately instead of
        // blocking out the worker's fetch deadline.
        let bytes = inner.shared.snapshots.lock().get(&key).cloned().unwrap_or_default();
        replies.push(Frame::Data { key, blob: Blob { tag: SNAP_TAG.to_string(), bytes } });
    }
    let mut alive = true;
    if !replies.is_empty() {
        let mut st = link.state.lock();
        for f in &replies {
            st.send.push(f);
        }
        alive = pump_link(&inner.shared, &mut st);
        if alive {
            sync_interest(inner, link.node, &mut st);
        }
    }
    if !infos.is_empty() {
        // Driver-observed dispatch→completion windows: the causality clamp
        // applied to this worker's rebased spans at merge time.
        let mut bounds = inner.exec_bounds.lock();
        for (task, _, start_us, _, _) in &infos {
            bounds.insert(task.0, (*start_us, now));
        }
    }
    let offset = link.clock_offset_us.load(Ordering::Relaxed);
    for (task, placement, start_us, name, stamps) in infos {
        inner.shared.metrics.rpc_latency.record(now.saturating_sub(start_us));
        inner.shared.metrics.record_node_task(&format!("{}@{}", link.name, link.addr));
        if let Some((w_recv, w_start, w_end)) = stamps {
            // Rebase the worker stamps onto the driver timeline; exec is a
            // worker-clock difference, so the offset cancels there.
            let rebase = |t: u64| (t as i64 - offset).max(0) as u64;
            let m = &inner.shared.metrics;
            m.phase_wire.record(rebase(w_recv).saturating_sub(start_us));
            m.phase_exec.record(w_end.saturating_sub(w_start));
            m.phase_ship.record(now.saturating_sub(rebase(w_end)));
        }
        let task_ref = TaskRef::new(task.0, name);
        for (node, cores) in placement.node_cores() {
            for &c in cores {
                inner.shared.trace.task_run(
                    CoreId::new(node, c),
                    start_us,
                    now.max(start_us + 1),
                    task_ref.clone(),
                );
            }
        }
        inner.shared.trace.event(
            CoreId::new(placement.node, placement.cores.first().copied().unwrap_or(0)),
            now,
            EventKind::TaskEnd(task_ref),
        );
    }
    inner.shared.cv.notify_all();
    send_dispatches(inner, follow);
    if !alive {
        start_failover(inner, link);
    }
}

/// Tear the socket out of a dead link (idempotent: `stream == None` means
/// failover is already in flight) and run the slow recovery on a helper
/// thread so reconnect's blocking `connect` never stalls the event loop.
fn start_failover(inner: &Arc<Inner>, link: &Arc<WorkerLink>) {
    let sock = {
        let mut st = link.state.lock();
        let Some(sock) = st.stream.take() else { return };
        st.send.clear();
        st.recv = RecvBuf::new();
        st.want_write = false;
        st.registered_write = false;
        st.registered = false;
        sock
    };
    // Deregister before the fd closes on drop.
    let _ = inner.poller.deregister(sock.as_raw_fd());
    let _ = sock.shutdown(std::net::Shutdown::Both);
    drop(sock);
    if inner.stop.load(Ordering::SeqCst) {
        return;
    }
    let inner2 = Arc::clone(inner);
    let link2 = Arc::clone(link);
    let h = std::thread::spawn(move || failover(&inner2, &link2));
    inner.helpers.lock().push(h);
}

/// Failover for a dead connection: fail over orphaned executions, wipe
/// stale per-link state, then either reconnect (reviving the node) or
/// cascade-fail tasks the surviving cluster can never run.
fn failover(inner: &Arc<Inner>, link: &Arc<WorkerLink>) {
    let node = link.node;
    let now = inner.shared.wall_us();
    inner.shared.metrics.workers_lost.incr();
    inner.shared.metrics.node_failures.incr();
    inner.shared.trace.event(CoreId::new(node, 0), now, EventKind::NodeFailure);
    {
        let mut core = inner.shared.core.lock();
        core.sched.kill_node(node);
        core.data.clear_node_locations(node);
        core.blocks.clear_node(node);
        let orphans: Vec<u64> = core
            .running
            .iter()
            .filter(|(_, r)| r.placement.involves(node))
            .map(|(&e, _)| e)
            .collect();
        for e in orphans {
            complete_attempt(
                &inner.shared,
                &mut core,
                e,
                Err(TaskError::new(format!("worker {} connection lost", link.addr))),
                now,
                true,
            );
        }
    }
    {
        let mut st = link.state.lock();
        st.outstanding = 0;
        st.fn_ids.clear();
        st.next_fn_id = 1;
        // Pending submits are for executions just failed over; drop them.
        st.pending.clear();
    }
    if inner.cfg.reconnect && !inner.stop.load(Ordering::SeqCst) {
        if let Ok(boot) =
            connect_workers(std::slice::from_ref(&link.addr), inner.cfg.connect_timeout)
                .map(|mut v| v.remove(0))
        {
            {
                let mut st = link.state.lock();
                boot.stream.set_nonblocking(true).ok();
                st.stream = Some(boot.stream);
            }
            link.last_seen_us.store(inner.shared.wall_us(), Ordering::Relaxed);
            inner.shared.metrics.net_reconnects.incr();
            let follow = {
                let mut core = inner.shared.core.lock();
                core.sched.revive_node(node);
                collect_dispatch_remote(&inner.shared, &mut core)
            };
            // Hand the fresh socket to the event loop for registration.
            inner.registrations.lock().push(node);
            let _ = inner.wake.wake();
            inner.shared.cv.notify_all();
            send_dispatches(inner, follow);
            return;
        }
    }
    // No way back: anything the surviving cluster can never run fails now
    // rather than hanging the barrier; the rest re-dispatches.
    let follow = {
        let mut core = inner.shared.core.lock();
        let doomed = core.sched.drain_unsatisfiable();
        for entry in doomed {
            fail_task_cascade(&inner.shared, &mut core, entry.task);
        }
        collect_dispatch_remote(&inner.shared, &mut core)
    };
    inner.shared.cv.notify_all();
    send_dispatches(inner, follow);
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Resources a worker daemon advertises in its `Hello`.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Display name, e.g. `w0` (shows up in driver-side labels).
    pub name: String,
    /// Executor threads / schedulable cores.
    pub cores: u32,
    /// GPUs to advertise.
    pub gpus: u32,
    /// Memory to advertise, GiB.
    pub mem_gib: u32,
    /// Byte budget for the decoded-block LRU cache (`--cache-mem`).
    /// Blocks beyond it are evicted least-recently-used and re-fetched on
    /// demand; see `blocks::BlockCache`.
    pub cache_mem_bytes: u64,
    /// Driver/server addresses to dial on startup (`--dial`). Instead of
    /// waiting to be connected to, the worker opens these connections
    /// itself and sends its `Hello` — the pattern a long-lived
    /// `rcompss-server` behind one shared listener relies on. Each dialled
    /// connection is serviced exactly like an accepted one; dial failures
    /// are retried until [`WorkerConfig::dial_timeout`].
    pub dial: Vec<String>,
    /// How long to keep retrying each [`WorkerConfig::dial`] address.
    pub dial_timeout: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            name: "worker".to_string(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u32),
            gpus: 0,
            mem_gib: 16,
            cache_mem_bytes: 256 * 1024 * 1024,
            dial: Vec::new(),
            dial_timeout: Duration::from_secs(10),
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
    listener: TcpListener,
    cfg: WorkerConfig,
    registry: Arc<TaskRegistry>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    poller: Poller,
    wake: Arc<Waker>,
}

/// Control handle for a worker running on a background thread.
pub struct WorkerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    wake: Arc<Waker>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl WorkerServer {
    /// Bind to `addr` (use port 0 for an OS-assigned loopback port in
    /// tests) with the given resources and task registry.
    pub fn bind(addr: &str, cfg: WorkerConfig, registry: TaskRegistry) -> io::Result<WorkerServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        // Preregister the block-cache series in the process-global registry
        // so worker scrapes and StatsSnapshots show them from zero — a
        // cold cache reads as 0, not as a missing series.
        let global = runmetrics::global();
        global.counter("rcompss_block_cache_hits_total");
        global.counter("rcompss_block_cache_misses_total");
        global.counter("rcompss_block_cache_evictions_total");
        global.gauge("rcompss_block_cache_resident_bytes");
        let poller = Poller::new().unwrap_or_else(|_| Poller::fallback());
        let wake = Arc::new(Waker::new(&poller, WAKE_TOKEN)?);
        Ok(WorkerServer {
            listener,
            cfg,
            registry: Arc::new(registry),
            stop: Arc::new(AtomicBool::new(false)),
            conns: Arc::new(Mutex::new(Vec::new())),
            poller,
            wake,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve connections until halted: the worker's event loop.
    pub fn run(self) -> io::Result<()> {
        let WorkerServer { listener, cfg, registry, stop, conns, poller, wake } = self;
        let _ = poller.register(listener.as_raw_fd(), LISTEN_TOKEN, Interest::READ);
        let mut table: HashMap<u64, WorkerConn> = HashMap::new();
        let mut next_token: u64 = 0;
        // Dial-out connections first: each is serviced exactly like an
        // accepted one — the `Hello` goes out the moment the connection is
        // adopted, so the server's listener can role-negotiate on it.
        for addr in &cfg.dial {
            let deadline = std::time::Instant::now() + cfg.dial_timeout;
            let stream = loop {
                match TcpStream::connect(addr.as_str()) {
                    Ok(s) => break s,
                    Err(_)
                        if std::time::Instant::now() < deadline && !stop.load(Ordering::SeqCst) =>
                    {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    Err(e) => {
                        return Err(io::Error::new(e.kind(), format!("dialling {addr}: {e}")));
                    }
                }
            };
            stream.set_nodelay(true).ok();
            if let Some(conn) =
                accept_conn(stream, &cfg, &registry, &stop, &conns, &poller, &wake, next_token)
            {
                table.insert(next_token, conn);
                next_token += 1;
            }
        }
        let mut events = Vec::new();
        let mut result = Ok(());
        'serve: loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            if poller.wait(&mut events, Some(Duration::from_millis(500))).is_err() {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let mut dead: Vec<u64> = Vec::new();
            for ev in &events {
                if ev.token == WAKE_TOKEN {
                    wake.drain();
                    continue;
                }
                if ev.token == LISTEN_TOKEN {
                    loop {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                if let Some(conn) = accept_conn(
                                    stream, &cfg, &registry, &stop, &conns, &poller, &wake,
                                    next_token,
                                ) {
                                    table.insert(next_token, conn);
                                    next_token += 1;
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) => {
                                result = Err(e);
                                break 'serve;
                            }
                        }
                    }
                    continue;
                }
                if let Some(conn) = table.get_mut(&ev.token) {
                    if ev.readable && !service_worker_read(conn) {
                        dead.push(ev.token);
                    }
                }
            }
            // Flush pass: executor output arrives via the waker, socket
            // backpressure via writable events — either way, drain every
            // backlog and reconcile write interest.
            for (&token, conn) in table.iter_mut() {
                if dead.contains(&token) {
                    continue;
                }
                if !flush_worker_conn(&poller, token, conn) {
                    dead.push(token);
                }
            }
            for token in dead {
                if let Some(conn) = table.remove(&token) {
                    close_worker_conn(&poller, conn);
                }
            }
        }
        for (_, conn) in table {
            close_worker_conn(&poller, conn);
        }
        let _ = poller.deregister(listener.as_raw_fd());
        result
    }

    /// Run on a background thread, returning a control handle (the
    /// in-process form the loopback tests and benches use).
    pub fn spawn(self) -> io::Result<WorkerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::clone(&self.stop);
        let conns = Arc::clone(&self.conns);
        let wake = Arc::clone(&self.wake);
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
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.wake.wake();
        for c in self.conns.lock().iter() {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
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
            for c in conns.lock().iter() {
                let _ = c.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Sever current connections but keep serving new ones — the
    /// transient-network-failure half of the reconnect story.
    pub fn drop_connections(&self) {
        for c in self.conns.lock().drain(..) {
            let _ = c.shutdown(std::net::Shutdown::Both);
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

/// How one queued argument resolves on the worker: through the
/// version-keyed value cache or the content-addressed block cache.
enum JobArg {
    /// Version-keyed: inline values were decoded and cached by the event
    /// loop before queueing (same-socket ordering), misses `Fetch`.
    Key(u64),
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
}

/// Version-keyed value cache plus the in-flight fetch set that coalesces
/// concurrent misses: N executors needing the same key put exactly one
/// `Fetch` on the wire and all wait on the connection's `cache_cv`.
struct KeyCache {
    values: HashMap<u64, Value>,
    inflight: HashSet<u64>,
}

/// Content-addressed block cache plus its in-flight request set, the
/// block-plane analogue of [`KeyCache`]: one `BlockRequest` per missing
/// hash no matter how many tasks are blocked on it.
struct BlockCacheState {
    cache: BlockCache,
    inflight: HashSet<u128>,
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
    cache: Mutex<KeyCache>,
    cache_cv: Condvar,
    /// Decoded-block LRU under the `--cache-mem` budget, plus its
    /// in-flight request set. Own condvar (`blocks_cv`): parking_lot
    /// condvars are bound to one mutex at a time.
    blocks: Mutex<BlockCacheState>,
    blocks_cv: Condvar,
    jobs: Mutex<VecDeque<Job>>,
    jobs_cv: Condvar,
    closed: AtomicBool,
    stop: Arc<AtomicBool>,
    /// Snapshot blobs by wire key (`SNAP_BIT` set). `Some` = blob in hand;
    /// `None` = the driver confirmed it has none (a cached miss, so a
    /// fresh trial asks at most once). Waiters sync on `snaps_cv` (its own
    /// condvar: parking_lot condvars are bound to one mutex at a time).
    snaps: Mutex<HashMap<u64, Option<Vec<u8>>>>,
    snaps_cv: Condvar,
    /// Worker-side span collector, always recording (executions are rare
    /// and records are tiny). Each telemetry-flagged heartbeat drains it to
    /// a `TraceChunk`; unflagged heartbeats drain-and-drop, so memory stays
    /// bounded and a tracing-disabled driver costs zero telemetry bytes.
    trace: TraceCollector,
    /// The clock every worker-side stamp shares: heartbeat-ack times, the
    /// `Done` lifecycle stamps, and trace record times — one epoch, so the
    /// driver's single offset estimate rebases all of them.
    epoch: std::time::Instant,
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
    fn push_out(&self, frame: &Frame) {
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
    stream: TcpStream,
    recv: RecvBuf,
    /// Interned function names (`fn_id` → name), per connection.
    fn_names: HashMap<u64, Arc<str>>,
    shared: Arc<ConnShared>,
    /// What the poller currently believes about write interest.
    registered_write: bool,
}

/// The distributed worker's ambient snapshot channel: saves stream to the
/// driver as `Data` frames (the driver keeps the latest per key), loads
/// check the local map first and fall back to one `Fetch` round trip.
/// This is the vehicle for resubmit-with-snapshot: the worker that
/// inherits a dead peer's task fetches the dead peer's last checkpoint
/// from the driver and resumes from it.
struct WorkerSnapshotChannel(Arc<ConnShared>);

impl crate::snapshot::SnapshotChannel for WorkerSnapshotChannel {
    fn save(&self, key: u64, blob: &[u8]) {
        let wire_key = key | SNAP_BIT;
        self.0.snaps.lock().insert(wire_key, Some(blob.to_vec()));
        // Best-effort ship to the driver; a torn connection surfaces later
        // as the job failing, at which point the retry re-saves anyway.
        self.0.push_out(&Frame::Data {
            key: wire_key,
            blob: Blob { tag: SNAP_TAG.to_string(), bytes: blob.to_vec() },
        });
    }

    fn load(&self, key: u64) -> Option<Vec<u8>> {
        let wire_key = key | SNAP_BIT;
        {
            let snaps = self.0.snaps.lock();
            if let Some(entry) = snaps.get(&wire_key) {
                return entry.clone();
            }
        }
        self.0.push_out(&Frame::Fetch { key: wire_key });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut snaps = self.0.snaps.lock();
        loop {
            if let Some(entry) = snaps.get(&wire_key) {
                return entry.clone();
            }
            if self.0.closed.load(Ordering::SeqCst) || std::time::Instant::now() >= deadline {
                // Degrade to "no snapshot": the task trains from scratch.
                return None;
            }
            self.0.snaps_cv.wait_for(&mut snaps, Duration::from_millis(50));
        }
    }

    fn discard(&self, key: u64) {
        let wire_key = key | SNAP_BIT;
        self.0.snaps.lock().remove(&wire_key);
        // Empty blob = tombstone on the driver.
        self.0.push_out(&Frame::Data {
            key: wire_key,
            blob: Blob { tag: SNAP_TAG.to_string(), bytes: Vec::new() },
        });
    }
}

/// Set up a freshly accepted driver connection: non-blocking socket, Hello
/// queued, executor threads spawned, fd registered.
#[allow(clippy::too_many_arguments)]
fn accept_conn(
    stream: TcpStream,
    cfg: &WorkerConfig,
    registry: &Arc<TaskRegistry>,
    stop: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<TcpStream>>>,
    poller: &Poller,
    wake: &Arc<Waker>,
    token: u64,
) -> Option<WorkerConn> {
    stream.set_nodelay(true).ok();
    if stream.set_nonblocking(true).is_err() {
        return None;
    }
    if let Ok(clone) = stream.try_clone() {
        conns.lock().push(clone);
    }
    let Ok(write_half) = stream.try_clone() else { return None };
    let shared = Arc::new(ConnShared {
        out: Mutex::new(SendBuf::new()),
        stream: write_half,
        wake: Arc::clone(wake),
        cache: Mutex::new(KeyCache { values: HashMap::new(), inflight: HashSet::new() }),
        cache_cv: Condvar::new(),
        blocks: Mutex::new(BlockCacheState {
            cache: BlockCache::new(cfg.cache_mem_bytes),
            inflight: HashSet::new(),
        }),
        blocks_cv: Condvar::new(),
        jobs: Mutex::new(VecDeque::new()),
        jobs_cv: Condvar::new(),
        closed: AtomicBool::new(false),
        stop: Arc::clone(stop),
        snaps: Mutex::new(HashMap::new()),
        snaps_cv: Condvar::new(),
        trace: TraceCollector::enabled(),
        epoch: std::time::Instant::now(),
    });
    if poller.register(stream.as_raw_fd(), token, Interest::READ).is_err() {
        return None;
    }
    // Direct-flushes like every other outbound frame; leftovers drain via
    // the loop's flush pass.
    shared.push_out(&Frame::Hello {
        name: cfg.name.clone(),
        cores: cfg.cores,
        gpus: cfg.gpus,
        mem_gib: cfg.mem_gib,
    });
    for _ in 0..cfg.cores.max(1) {
        let conn = Arc::clone(&shared);
        let registry = Arc::clone(registry);
        std::thread::spawn(move || executor_loop(conn, registry));
    }
    Some(WorkerConn {
        stream,
        recv: RecvBuf::new(),
        fn_names: HashMap::new(),
        shared,
        registered_write: false,
    })
}

/// Drain a readable event: fill the receive buffer until `WouldBlock`,
/// decoding and dispatching frames in place. Returns `false` on EOF,
/// error, or `Shutdown`.
fn service_worker_read(conn: &mut WorkerConn) -> bool {
    let WorkerConn { stream, recv, fn_names, shared, .. } = conn;
    'fill: loop {
        match recv.fill_from(stream) {
            Ok(Fill::Bytes(_)) => {}
            Ok(Fill::WouldBlock) => return true,
            Ok(Fill::Eof) | Err(_) => return false,
        }
        loop {
            match recv.next_frame() {
                Ok(Some(frame)) => {
                    if !handle_worker_frame(frame, fn_names, shared) {
                        return false;
                    }
                }
                Ok(None) => continue 'fill,
                Err(_) => return false,
            }
        }
    }
}

/// Dispatch one decoded frame. The frame borrows the receive buffer —
/// everything it needs beyond this call is copied out here (and inline
/// argument blobs go straight through [`codec::decode_tagged`] without an
/// owned intermediate). Returns `false` on `Shutdown`.
fn handle_worker_frame(
    frame: FrameRef<'_>,
    fn_names: &mut HashMap<u64, Arc<str>>,
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
            let mut job_args = Vec::with_capacity(args.len());
            let mut bad_arg = None;
            for a in args {
                match a {
                    WireArgRef::Inline { key, blob } => {
                        match codec::decode_tagged(blob.tag, blob.bytes) {
                            Ok(v) => {
                                // Cache *before* queueing the job so
                                // same-socket ordering guarantees hold.
                                let mut cache = conn.cache.lock();
                                cache.inflight.remove(&key);
                                cache.values.insert(key, v);
                                drop(cache);
                                conn.cache_cv.notify_all();
                                job_args.push(JobArg::Key(key));
                            }
                            Err(e) => bad_arg = Some(e.to_string()),
                        }
                    }
                    WireArgRef::Cached { key } => job_args.push(JobArg::Key(key)),
                    // Content-addressed: either a BlockPut landed earlier
                    // on this socket, or the block cache still holds it
                    // from a previous task; a miss (eviction raced the
                    // driver's residency view) re-fetches on demand.
                    WireArgRef::Block { key: _, hash } => job_args.push(JobArg::Block(hash)),
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
            };
            conn.jobs.lock().push_back(job);
            conn.jobs_cv.notify_one();
        }
        FrameRef::Heartbeat { seq, t_send_us, telemetry } => {
            // Ack first — the clock exchange must not queue behind
            // telemetry payloads — then flush or drop buffered spans.
            let recv_us = conn.wall_us();
            conn.push_out(&Frame::HeartbeatAck {
                seq,
                t_send_us,
                recv_us,
                reply_us: conn.wall_us(),
            });
            if telemetry {
                flush_telemetry_frames(conn);
            } else {
                // The driver is not tracing: drop buffered spans so the
                // collector stays bounded and the wire stays silent.
                drop(conn.trace.drain());
            }
        }
        FrameRef::Data { key, blob } if key & SNAP_BIT != 0 => {
            // Snapshot fetch reply: raw bytes, empty = confirmed miss.
            // Both cases are cached so each trial asks at most once.
            let entry = if blob.bytes.is_empty() { None } else { Some(blob.bytes.to_vec()) };
            conn.snaps.lock().insert(key, entry);
            conn.snaps_cv.notify_all();
        }
        FrameRef::Data { key, blob } => {
            if let Ok(v) = codec::decode_tagged(blob.tag, blob.bytes) {
                let mut cache = conn.cache.lock();
                cache.inflight.remove(&key);
                cache.values.insert(key, v);
                drop(cache);
                conn.cache_cv.notify_all();
            }
        }
        // Unsolicited push (rides ahead of the Submit referencing it) and
        // fetch reply land identically: decode once, admit to the LRU.
        FrameRef::BlockPut { hash, blob } | FrameRef::BlockData { hash, blob } => {
            admit_block(conn, hash, blob.tag, blob.bytes);
        }
        FrameRef::Shutdown => return false,
        // Other frames are driver-bound; ignore.
        _ => {}
    }
    true
}

/// Ship buffered telemetry to the driver: one `TraceChunk` with every span
/// recorded since the last flush, plus a `StatsSnapshot` of the worker's
/// global metrics registry. Backpressure-aware: while the outbound buffer
/// still holds a backlog (a large result mid-flight), telemetry stays in
/// the collector for the next heartbeat — it must never wedge behind (or
/// in front of) task results.
fn flush_telemetry_frames(conn: &Arc<ConnShared>) {
    if !conn.out.lock().is_empty() {
        return;
    }
    let records = conn.trace.drain();
    if !records.is_empty() {
        conn.push_out(&Frame::TraceChunk { bytes: paratrace::wire::encode_records(&records) });
    }
    let snap = runmetrics::global().snapshot();
    conn.push_out(&Frame::StatsSnapshot {
        wall_us: conn.wall_us(),
        counters: snap.counters,
        gauges: snap.gauges,
    });
}

/// Drain a connection's outbound backlog and reconcile write interest.
/// Returns `false` when the socket died.
fn flush_worker_conn(poller: &Poller, token: u64, conn: &mut WorkerConn) -> bool {
    let mut out = conn.shared.out.lock();
    let drained = if out.is_empty() {
        true
    } else {
        match out.flush(&mut conn.stream) {
            Ok((_, drained)) => drained,
            Err(_) => return false,
        }
    };
    drop(out);
    let want_write = !drained;
    if want_write != conn.registered_write {
        let interest = if want_write { Interest::READ_WRITE } else { Interest::READ };
        if poller.modify(conn.stream.as_raw_fd(), token, interest).is_ok() {
            conn.registered_write = want_write;
        }
    }
    true
}

/// Tear down a dead connection: release its executors (closed flag + every
/// condvar) and remove the fd from the poll set before it closes.
fn close_worker_conn(poller: &Poller, conn: WorkerConn) {
    let _ = poller.deregister(conn.stream.as_raw_fd());
    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    conn.shared.closed.store(true, Ordering::SeqCst);
    conn.shared.jobs_cv.notify_all();
    conn.shared.cache_cv.notify_all();
    conn.shared.blocks_cv.notify_all();
    conn.shared.snaps_cv.notify_all();
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
    let global = runmetrics::global();
    global.gauge("rcompss_block_cache_resident_bytes").set(resident as f64);
    if !evicted.is_empty() {
        global.counter("rcompss_block_cache_evictions_total").add(evicted.len() as u64);
    }
    for h in evicted {
        conn.push_out(&Frame::BlockEvict { hash: h });
    }
}

/// Wait for `key` in the connection cache, requesting it from the driver
/// if it is missing (cold cache after a reconnect). Concurrent misses on
/// the same key coalesce: only the first requester puts a `Fetch` on the
/// wire, the rest wait on the same condvar.
fn resolve_arg(conn: &ConnShared, key: u64) -> Result<Value, TaskError> {
    let mut cache = conn.cache.lock();
    if let Some(v) = cache.values.get(&key) {
        return Ok(v.clone());
    }
    let leader = cache.inflight.insert(key);
    drop(cache);
    if leader {
        conn.push_out(&Frame::Fetch { key });
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut cache = conn.cache.lock();
    loop {
        if let Some(v) = cache.values.get(&key) {
            return Ok(v.clone());
        }
        if conn.closed.load(Ordering::SeqCst) || std::time::Instant::now() >= deadline {
            // Clear the mark so a later attempt re-requests instead of
            // waiting on a fetch that will never land.
            cache.inflight.remove(&key);
            return Err(TaskError::new("timed out fetching a task input"));
        }
        conn.cache_cv.wait_for(&mut cache, Duration::from_millis(50));
    }
}

/// Block-plane analogue of [`resolve_arg`]: look up a content hash in the
/// LRU cache, requesting the block from the driver on a miss with the
/// same single-`BlockRequest` coalescing.
fn resolve_block(conn: &ConnShared, hash: u128) -> Result<Value, TaskError> {
    let global = runmetrics::global();
    let mut blocks = conn.blocks.lock();
    if let Some(v) = blocks.cache.get(hash) {
        drop(blocks);
        global.counter("rcompss_block_cache_hits_total").incr();
        return Ok(v);
    }
    global.counter("rcompss_block_cache_misses_total").incr();
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
            blocks.inflight.remove(&hash);
            return Err(TaskError::new("timed out fetching a task input block"));
        }
        conn.blocks_cv.wait_for(&mut blocks, Duration::from_millis(50));
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("task panicked: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("task panicked: {s}")
    } else {
        "task panicked".to_string()
    }
}

fn executor_loop(conn: Arc<ConnShared>, registry: Arc<TaskRegistry>) {
    // Task bodies on this worker snapshot through the driver: saves are
    // mirrored over the wire, loads fall back to a Fetch round trip.
    let snap_channel: Arc<dyn crate::snapshot::SnapshotChannel> =
        Arc::new(WorkerSnapshotChannel(Arc::clone(&conn)));
    loop {
        let job = {
            let mut jobs = conn.jobs.lock();
            loop {
                if let Some(j) = jobs.pop_front() {
                    break j;
                }
                if conn.closed.load(Ordering::SeqCst) {
                    return;
                }
                conn.jobs_cv.wait(&mut jobs);
            }
        };
        let frame = crate::snapshot::with_channel(Arc::clone(&snap_channel), || {
            run_job(&conn, &registry, &job)
        });
        // A halted worker goes silent — the driver must see it as a crash,
        // not a graceful completion.
        if conn.stop.load(Ordering::SeqCst) {
            return;
        }
        conn.push_out(&frame);
    }
}

fn run_job(conn: &ConnShared, registry: &TaskRegistry, job: &Job) -> Frame {
    let fail = |message: String| Frame::Failed { exec_id: job.exec_id, message };
    let Some(body) = registry.body(&job.name, job.variant) else {
        return fail(format!("worker has no task '{}' (variant {})", job.name, job.variant));
    };
    let mut inputs = Vec::with_capacity(job.args.len());
    for a in &job.args {
        let resolved = match *a {
            JobArg::Key(key) => resolve_arg(conn, key),
            JobArg::Block(hash) => resolve_block(conn, hash),
        };
        match resolved {
            Ok(v) => inputs.push(v),
            Err(e) => return fail(e.message),
        }
    }
    let ctx = TaskContext {
        task: TaskId(job.task_id),
        attempt: job.attempt,
        node: job.node,
        cores: job.cores.clone(),
        gpus: job.gpus.clone(),
        peer_nodes: Vec::new(),
        simulated: false,
    };
    let start_us = conn.wall_us();
    let result = catch_unwind(AssertUnwindSafe(|| body(&ctx, &inputs)))
        .unwrap_or_else(|p| Err(TaskError::new(panic_message(p))));
    let end_us = conn.wall_us().max(start_us + 1);
    // The ground-truth execution span, on the worker's clock and worker-
    // local node 0 (the merge rewrites it to the driver-side node id). The
    // worker's global registry feeds the StatsSnapshot stream.
    let core = CoreId::new(0, job.cores.first().copied().unwrap_or(0));
    conn.trace.task_run(core, start_us, end_us, TaskRef::new(job.task_id, Arc::clone(&job.name)));
    let global = runmetrics::global();
    global.counter("worker_tasks_executed_total").incr();
    global.histogram("worker_task_exec_us").record(end_us - start_us);
    match result {
        Ok(values) => {
            let mut outputs = Vec::with_capacity(values.len());
            for v in &values {
                match codec::encode_value(v) {
                    Some(blob) => outputs.push(blob),
                    None => {
                        return fail(format!(
                            "no wire codec registered for an output of task '{}'",
                            job.name
                        ))
                    }
                }
            }
            Frame::Done { exec_id: job.exec_id, recv_us: job.recv_us, start_us, end_us, outputs }
        }
        Err(e) => fail(e.message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_keys_roundtrip() {
        for (h, v) in [(0u64, 1u32), (1, 1), (7, 3), (u32::MAX as u64, u32::MAX)] {
            let dv = DataVersion { handle: DataHandle(h), version: v };
            assert_eq!(key_version(data_key(dv)), dv);
        }
    }

    #[test]
    fn default_config_is_sane() {
        let c = DistributedConfig::default();
        assert!(c.heartbeat_timeout > c.heartbeat_interval);
        assert!(c.window.is_none());
        assert!(!c.reconnect);
        let w = WorkerConfig::default();
        assert!(w.cores >= 1);
    }

    #[test]
    fn wake_and_listen_tokens_clear_node_range() {
        // Node indices are dense small integers; the reserved tokens must
        // never collide with them.
        assert_eq!(WAKE_TOKEN, u64::MAX);
        assert_eq!(LISTEN_TOKEN, u64::MAX - 1);
        assert!(LISTEN_TOKEN > u32::MAX as u64);
    }
}
