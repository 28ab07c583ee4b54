//! Driver side of the distributed backend: worker acquisition, the
//! connection manager's event loop, how a placed task's inputs travel, and
//! failover.

use std::cell::Cell;
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use paratrace::{ClockSync, CoreId, EventKind, TaskRef};
use parking_lot::Mutex;
use rnet::{
    read_frame, Blob, BlobRef, Fill, Frame, FrameRef, Interest, Poller, RecvBuf, SendBuf, Waker,
    WireArg,
};

use super::{DistributedConfig, SNAP_TAG, WAKE_TOKEN};
use crate::blocks::EncodedBlock;
use crate::codec;
use crate::data::{DataVersion, Value};
use crate::runtime::{
    complete_attempt, emit_attempt_spans, fail_attempt, fail_task_cascade, place_ready, Core,
    RunningExec, Shared,
};
use crate::scheduler::Placement;
use crate::task::{TaskError, TaskId};

/// Wire key for a data version: handle id in the high 32 bits, version in
/// the low 32. Handles are dense small integers, so this never collides.
fn data_key(v: DataVersion) -> u64 {
    (v.handle.0 << 32) | u64::from(v.version)
}

/// One argument prepared under the core lock: how its bytes (if any)
/// reach the worker.
enum PreparedArg {
    /// Small value: encoded off-lock and shipped inline.
    Inline { key: u64, value: Value },
    /// Block-plane value already resident on the worker: hash only.
    BlockRef { key: u64, hash: u128 },
    /// Block-plane value the worker lacks: a `BlockData` with the bytes
    /// precedes the `Submit` that references the hash.
    BlockShip { key: u64, block: Arc<EncodedBlock> },
}

/// A placed task bound for a remote worker, prepared under the core lock
/// and encoded/sent outside it; cores, GPUs and inputs index its batch.
struct RemoteDispatch {
    exec_id: u64,
    task: TaskId,
    attempt: u32,
    node: u32,
    variant: u32,
    lead: CoreId,
    now_us: u64,
    cores: Range<usize>,
    gpus: Range<usize>,
    args: Range<usize>,
    name: Arc<str>,
    /// What an earlier attempt of the task last saved (see
    /// [`crate::snapshot`]): travels to the worker just ahead of the `Submit`.
    snapshot: Option<Arc<[u8]>>,
}

/// The dispatches of one scheduling turn, and the `Submit` they travel in
/// with the emptied blobs of its inline inputs. Each thread keeps its batch
/// from one turn to the next, so a turn allocates nothing once it is grown.
#[derive(Default)]
pub(crate) struct Dispatches {
    msgs: Vec<RemoteDispatch>,
    /// Core and GPU ids of every dispatch.
    ids: Vec<u32>,
    args: Vec<PreparedArg>,
    submit: (Vec<u32>, Vec<u32>, Vec<WireArg>),
    blobs: Vec<Blob>,
}

thread_local! {
    static SPARE: Cell<Dispatches> = Cell::default();
}

/// Mutable per-connection state, all under one lock: the socket, both
/// direction buffers, and the poll-interest shadow.
struct LinkState {
    /// `None` once the link is lost — for good: the event loop then ignores
    /// stale readiness events for this token.
    stream: Option<TcpStream>,
    /// Interned function names: first submit of a name carries it in full,
    /// later ones send only the id.
    fn_ids: HashMap<Arc<str>, u64>,
    next_fn_id: u64,
    /// Coalescing write backlog.
    send: SendBuf,
    /// Incremental read/decode buffer.
    recv: RecvBuf,
    /// The send buffer has a backlog the socket would not accept — the
    /// loop must arm write interest and resume on writable.
    want_write: bool,
    /// What the poller currently believes (shadow of `want_write`).
    registered_write: bool,
    /// NTP-style clock-offset estimator fed by heartbeat acks. The worker's
    /// clock starts with its connection, so the estimate is this socket's.
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
    /// `name@addr`: the worker's label in metrics and the trace.
    label: String,
    state: Mutex<LinkState>,
    /// Wall-µs send time of the oldest heartbeat no received byte has
    /// followed yet, [`ANSWERED`] when there is none: the silence a loss
    /// verdict judges.
    unanswered_us: AtomicU64,
    hb_seq: AtomicU64,
    /// Lock-free mirror of the best clock-sync estimate
    /// (`worker_clock − driver_clock`), for readers outside the link lock.
    clock_offset_us: AtomicI64,
    /// Lock-free mirror of the best (smallest) observed heartbeat RTT.
    clock_rtt_us: AtomicU64,
}

/// [`WorkerLink::unanswered_us`] while no heartbeat is outstanding. As a
/// send time it lies in the future, so it reads as no silence at all.
const ANSWERED: u64 = u64::MAX;

struct Inner {
    shared: Arc<Shared>,
    workers: Vec<Arc<WorkerLink>>,
    cfg: DistributedConfig,
    stop: AtomicBool,
    poller: Poller,
    wake: Waker,
}

/// Driver-side connection manager: one event-loop thread owning readiness
/// for every [`WorkerLink`].
pub(crate) struct ConnMgr {
    inner: Arc<Inner>,
    thread: Option<JoinHandle<()>>,
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
/// address until `timeout` so workers racing the driver to start
/// (the ci.sh smoke pattern) are tolerated.
pub fn connect_workers(addrs: &[String], timeout: Duration) -> io::Result<Vec<WorkerBootstrap>> {
    addrs
        .iter()
        .map(|addr| {
            let deadline = std::time::Instant::now() + timeout;
            let stream = loop {
                match TcpStream::connect(addr.as_str()) {
                    Ok(s) => break s,
                    Err(_) if std::time::Instant::now() < deadline => {
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
    /// Wire up the links, register every socket with the poller, and spawn
    /// the event-loop thread. `boots` are in node-id order (the same order
    /// the cluster spec was built in). Fails if the poller or its waker
    /// cannot be made (out of fds, say).
    pub fn start(
        shared: Arc<Shared>,
        boots: Vec<WorkerBootstrap>,
        cfg: DistributedConfig,
    ) -> io::Result<ConnMgr> {
        {
            let mut core = shared.core.lock();
            core.blocks.set_inline_threshold(cfg.inline_threshold);
            // A worker holds the next one-core task while it runs one, so
            // it never idles for a round trip between tasks.
            core.sched.enable_dispatch_ahead();
        }
        let poller = Poller::new()?;
        let wake = Waker::new(&poller, WAKE_TOKEN)?;
        let workers: Vec<Arc<WorkerLink>> = boots
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                b.stream.set_nonblocking(true).ok();
                // A socket the poller refuses is never readable: heartbeat
                // silence loses its link like any other.
                let _ = poller.register(b.stream.as_raw_fd(), i as u64, Interest::READ);
                let label = format!("{}@{}", b.name, b.addr);
                let reg = shared.metrics.registry();
                let sent_bytes =
                    reg.counter(&runmetrics::labeled("rnet_bytes_sent_total", "node", &label));
                let recv_bytes =
                    reg.counter(&runmetrics::labeled("rnet_bytes_received_total", "node", &label));
                Arc::new(WorkerLink {
                    node: i as u32,
                    label,
                    state: Mutex::new(LinkState {
                        stream: Some(b.stream),
                        fn_ids: HashMap::new(),
                        next_fn_id: 1,
                        send: SendBuf::new(),
                        recv: RecvBuf::new(),
                        want_write: false,
                        registered_write: false,
                        clock: ClockSync::default(),
                        sent_bytes,
                        recv_bytes,
                    }),
                    unanswered_us: AtomicU64::new(ANSWERED),
                    hb_seq: AtomicU64::new(0),
                    clock_offset_us: AtomicI64::new(0),
                    clock_rtt_us: AtomicU64::new(0),
                })
            })
            .collect();
        let inner =
            Arc::new(Inner { shared, workers, cfg, stop: AtomicBool::new(false), poller, wake });
        let loop_inner = Arc::clone(&inner);
        let thread = Some(std::thread::spawn(move || driver_loop(loop_inner)));
        Ok(ConnMgr { inner, thread })
    }

    /// Worker display labels, indexed by node id: `name@addr`.
    pub fn labels(&self) -> Vec<String> {
        self.inner.workers.iter().map(|w| w.label.clone()).collect()
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
    pub fn collect_dispatch_remote(&self, core: &mut Core) -> Dispatches {
        collect_dispatch_remote(&self.inner.shared, core)
    }

    /// Encode and transmit prepared dispatches (coalesced per worker), then
    /// emit their dispatch trace events. Call *without* the core lock.
    pub fn send(&self, work: Dispatches) {
        send_dispatches(&self.inner, work);
    }

    /// Graceful stop: join the loop, then drain each link's backlog
    /// (blocking again) and append `Shutdown` so the goodbye never splices
    /// into a partially-written frame.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        let _ = self.inner.wake.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
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

/// The core-locked half of dispatch: place every placeable ready task and
/// decide inline-vs-block per input. Values are cloned (`Arc` bumps) here
/// and encoded later, off-lock.
pub(crate) fn collect_dispatch_remote(shared: &Shared, core: &mut Core) -> Dispatches {
    let mut batch = SPARE.take();
    // Transfer-aware placement: fewest bytes-to-move first (declared size ×
    // missing residency), most resident inputs as the tie-break — the
    // remote analogue of `locality_score`, weighted by what a wrong
    // placement actually costs.
    place_ready(
        shared,
        core,
        |data, instances, task, node| data.transfer_score(instances[&task].reads(), node),
        |core, placed| {
            let Core { instances, data, blocks, running, .. } = core;
            let inst = &instances[&placed.task];
            let placement = &running[&placed.exec_id].placement;
            let node = placement.node;
            let first_id = batch.ids.len();
            batch.ids.extend(&placement.cores);
            let cores = first_id..batch.ids.len();
            batch.ids.extend(&placement.gpus);
            let gpus = cores.end..batch.ids.len();
            let first_arg = batch.args.len();
            for v in inst.reads() {
                let key = data_key(v);
                let value = data.get(v).expect("ready task inputs are computed");
                if blocks.routes_block(data.bytes(v.handle)) {
                    // Content-address the value; the encode is memoised, so a
                    // dataset shared by a hundred trials pays the codec once.
                    if let Some(block) = blocks.encode(v, &value) {
                        // Optimistic residency, both granularities: versions
                        // drive scheduling scores, hashes drive ship-vs-ref.
                        // Cleared if the connection drops (or on BlockEvict).
                        data.add_location(v, node);
                        if blocks.is_resident(node, block.hash) {
                            batch.args.push(PreparedArg::BlockRef { key, hash: block.hash });
                        } else {
                            blocks.add_resident(node, block.hash);
                            batch.args.push(PreparedArg::BlockShip { key, block });
                        }
                        continue;
                    }
                    // No codec: fall through to the inline path, whose
                    // failed-attempt reporting stands.
                }
                batch.args.push(PreparedArg::Inline { key, value });
            }
            batch.msgs.push(RemoteDispatch {
                exec_id: placed.exec_id,
                task: placed.task,
                attempt: placed.attempt,
                node,
                variant: placement.variant as u32,
                lead: placement.lead_core(),
                now_us: placed.now_us,
                cores,
                gpus,
                args: first_arg..batch.args.len(),
                name: Arc::clone(&inst.def.name),
                // An `Arc` bump: the bytes are not copied under the core lock.
                snapshot: inst.snapshot.clone(),
            });
        },
    );
    batch
}

/// Drain as much of the send backlog as the socket accepts right now. Sets
/// `want_write` when a backlog remains. Returns `false` when the socket
/// died.
fn pump_link(shared: &Shared, st: &mut LinkState) -> bool {
    let LinkState { stream, send, want_write, sent_bytes, .. } = &mut *st;
    let Some(sock) = stream.as_mut() else {
        return true; // lost link: nothing buffered here is ever sent
    };
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
    if st.want_write == st.registered_write {
        return;
    }
    let Some(fd) = st.stream.as_ref().map(|s| s.as_raw_fd()) else { return };
    let interest = if st.want_write { Interest::READ_WRITE } else { Interest::READ };
    if inner.poller.modify(fd, u64::from(node), interest).is_ok() {
        st.registered_write = st.want_write;
    }
}

/// Push one dispatch's frames onto its link's backlog: the blocks it ships,
/// its snapshot, its `Submit`. Fails when an inline input has no codec.
fn push_submit(
    st: &mut LinkState,
    d: &RemoteDispatch,
    batch: &mut Dispatches,
) -> Result<(), String> {
    let LinkState { send, fn_ids, next_fn_id, .. } = st;
    let Dispatches { ids, args, submit: (cores, gpus, wire_args), blobs, .. } = batch;
    for a in &args[d.args.clone()] {
        wire_args.push(match a {
            PreparedArg::BlockRef { key, hash } => WireArg::Block { key: *key, hash: *hash },
            PreparedArg::BlockShip { key, block } => {
                // The block's bytes must precede the Submit that references
                // them (same socket, so ordering holds).
                send.push(&FrameRef::BlockData { hash: block.hash, blob: block.blob.as_ref() });
                WireArg::Block { key: *key, hash: block.hash }
            }
            PreparedArg::Inline { key, value } => {
                let mut blob = blobs.pop().unwrap_or_default();
                if !codec::encode_into(value, &mut blob) {
                    blobs.push(blob);
                    batch.recycle();
                    return Err(format!(
                        "no wire codec registered for an input of task '{}'",
                        d.name
                    ));
                }
                WireArg::Inline { key: *key, blob }
            }
        });
    }
    let fn_name = if fn_ids.contains_key(&d.name) {
        None
    } else {
        fn_ids.insert(Arc::clone(&d.name), *next_fn_id);
        *next_fn_id += 1;
        Some(d.name.to_string())
    };
    if let Some(snap) = &d.snapshot {
        // Like a block, the snapshot must be there when the Submit lands:
        // same socket, pushed under the same lock.
        let blob = BlobRef { tag: SNAP_TAG, bytes: snap };
        send.push(&FrameRef::Data { key: d.task.0, blob });
    }
    cores.extend_from_slice(&ids[d.cores.clone()]);
    gpus.extend_from_slice(&ids[d.gpus.clone()]);
    let submit = Frame::Submit {
        exec_id: d.exec_id,
        task_id: d.task.0,
        attempt: d.attempt,
        node: d.node,
        fn_id: fn_ids[&d.name],
        fn_name,
        variant: d.variant,
        cores: std::mem::take(cores),
        gpus: std::mem::take(gpus),
        args: std::mem::take(wire_args),
    };
    send.push(&submit);
    if let Frame::Submit { cores, gpus, args, .. } = submit {
        batch.submit = (cores, gpus, args);
    }
    batch.recycle();
    Ok(())
}

impl Dispatches {
    /// Empty the `Submit` for the next task, keeping its lists and blobs.
    fn recycle(&mut self) {
        let (cores, gpus, wire_args) = &mut self.submit;
        cores.clear();
        gpus.clear();
        for arg in wire_args.drain(..) {
            if let WireArg::Inline { blob, .. } = arg {
                self.blobs.extend(Some(blob).filter(codec::worth_keeping));
            }
        }
    }
}

/// Off-lock half of dispatch: encode values, intern names, coalesce frames
/// per worker, flush each link's backlog once.
fn send_dispatches(inner: &Arc<Inner>, mut batch: Dispatches) {
    let mut msgs = std::mem::take(&mut batch.msgs);
    // Dispatch trace events first (cheap, lock-free collector).
    if inner.shared.trace.is_enabled() {
        for d in msgs.iter() {
            let task = TaskRef::new(d.task.0, Arc::clone(&d.name));
            inner.shared.trace.event(d.lead, d.now_us, EventKind::TaskDispatch(task));
        }
    }
    let mut undeliverable: Vec<(u64, String)> = Vec::new();
    let mut dead_links: Vec<Arc<WorkerLink>> = Vec::new();
    // One lock and one flush per worker; exec ids keep each worker's
    // Submits in placement order.
    msgs.sort_unstable_by_key(|d| (d.node, d.exec_id));
    for same_node in msgs.chunk_by(|a, b| a.node == b.node) {
        let node = same_node[0].node;
        let link = &inner.workers[node as usize];
        let mut st = link.state.lock();
        for d in same_node {
            if let Err(msg) = push_submit(&mut st, d, &mut batch) {
                undeliverable.push((d.exec_id, msg));
            }
        }
        if pump_link(&inner.shared, &mut st) {
            sync_interest(inner, node, &mut st);
        } else {
            dead_links.push(Arc::clone(link));
        }
    }
    msgs.clear();
    batch.ids.clear();
    batch.args.clear();
    SPARE.set(Dispatches { msgs, ..batch });
    // Encoding failures become failed attempts under the normal retry
    // machinery (they will exhaust retries and cascade).
    if !undeliverable.is_empty() {
        let now = inner.shared.wall_us();
        let follow = {
            let mut core = inner.shared.core.lock();
            for (exec_id, msg) in undeliverable {
                fail_attempt(&inner.shared, &mut core, exec_id, TaskError::new(msg), now, false);
            }
            collect_dispatch_remote(&inner.shared, &mut core)
        };
        inner.shared.cv.notify_all();
        send_dispatches(inner, follow);
    }
    for link in dead_links {
        failover(inner, &link);
    }
}

/// The driver's event loop: readiness for every link and the waker, with
/// heartbeat pacing folded into the poll timeout. A turn sends the probes
/// that are due, polls, services what is ready, and only then judges
/// silence, against the moment its poll began: an answer that sat unread
/// while the loop was stalled has just been read, so the loop's own stall
/// is never charged to a live peer.
fn driver_loop(inner: Arc<Inner>) {
    let hb_us = inner.cfg.heartbeat_interval.as_micros() as u64;
    let timeout_us = inner.cfg.heartbeat_timeout.as_micros() as u64;
    let mut events = Vec::new();
    let mut inbox = Inbox::default();
    // First heartbeat fires immediately: it seeds the clock-offset estimate
    // so even tasks completing before the first interval elapses get their
    // worker stamps rebased.
    let mut next_hb = 0;
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let turn_start = inner.shared.wall_us();
        if turn_start >= next_hb {
            send_heartbeats(&inner);
            next_hb = turn_start + hb_us;
        }
        // Wake for the next probe, or as soon as an unanswered one is old
        // enough to judge.
        let wake_us = inner
            .workers
            .iter()
            .map(|l| l.unanswered_us.load(Ordering::Relaxed).saturating_add(timeout_us + 1))
            .fold(next_hb, u64::min);
        let timeout = Duration::from_micros(wake_us.saturating_sub(turn_start));
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
            service_link(&inner, link, ev.readable, ev.writable, &mut inbox);
        }
        // Whatever a live peer sent before `turn_start` has now been read:
        // a probe older than the timeout still unanswered is silence.
        for link in &inner.workers {
            let since = link.unanswered_us.load(Ordering::Relaxed);
            if turn_start.saturating_sub(since) > timeout_us {
                failover(&inner, link);
            }
        }
    }
}

/// Write a heartbeat to every live link. Each probe carries the driver's
/// clock, for the NTP exchange the ack completes; its `telemetry` field is
/// reserved: always `false`. On a link with none outstanding, the probe
/// starts the silence the loop judges.
fn send_heartbeats(inner: &Arc<Inner>) {
    let mut dead = Vec::new();
    for link in &inner.workers {
        let mut st = link.state.lock();
        if st.stream.is_none() {
            continue;
        }
        let seq = link.hb_seq.fetch_add(1, Ordering::Relaxed);
        let t_send_us = inner.shared.wall_us();
        st.send.push(&Frame::Heartbeat { seq, t_send_us, telemetry: false });
        if link.unanswered_us.load(Ordering::Relaxed) == ANSWERED {
            link.unanswered_us.store(t_send_us, Ordering::Relaxed);
        }
        if pump_link(&inner.shared, &mut st) {
            sync_interest(inner, link.node, &mut st);
        } else {
            dead.push(Arc::clone(link));
        }
    }
    for link in dead {
        failover(inner, &link);
    }
}

/// Worker-clock lifecycle stamps riding a `Done` frame: submit receipt,
/// body start, body end. `None` for failures.
type ExecStamps = Option<(u64, u64, u64)>;

/// A `Done` or `Failed` as decoded off a link, before the core sees it.
struct Completion {
    exec_id: u64,
    /// Where the outputs are in [`Inbox::outputs`], in return order.
    result: Result<Range<usize>, TaskError>,
    stamps: ExecStamps,
}

/// What one readiness event read off a link, and what acting on it needs:
/// kept by the event loop, so servicing a link allocates nothing.
#[derive(Default)]
struct Inbox {
    completions: Vec<Completion>,
    /// Every `Done`'s decoded outputs, with the encoded length of each.
    outputs: Vec<(Value, u64)>,
    saves: Vec<(TaskId, Arc<[u8]>)>,
    block_reqs: Vec<u128>,
    block_evicts: Vec<u128>,
    acks: Vec<(u64, u64, u64)>,
    ended: Vec<Ended>,
    replies: Vec<Arc<EncodedBlock>>,
}

/// One readiness event for a link: drain writes, then drain reads frame by
/// frame (zero-copy decode), then act on what arrived.
fn service_link(
    inner: &Arc<Inner>,
    link: &Arc<WorkerLink>,
    readable: bool,
    writable: bool,
    inbox: &mut Inbox,
) {
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
                // A short read emptied the socket: once its frames are
                // decoded, back to epoll, which re-raises the event for
                // later bytes.
                let short = recv.last_read_short();
                loop {
                    match recv.next_frame() {
                        Ok(Some(frame)) => match frame {
                            FrameRef::Done { exec_id, recv_us, start_us, end_us, outputs } => {
                                let first = inbox.outputs.len();
                                let mut result = Ok(first..first + outputs.len());
                                for b in &outputs {
                                    match codec::decode_tagged(b.tag, b.bytes) {
                                        Ok(v) => inbox.outputs.push((v, b.bytes.len() as u64)),
                                        Err(e) => {
                                            inbox.outputs.truncate(first);
                                            let msg = format!("undecodable task output: {e}");
                                            result = Err(TaskError::new(msg));
                                            break;
                                        }
                                    }
                                }
                                let stamps = Some((recv_us, start_us, end_us));
                                inbox.completions.push(Completion { exec_id, result, stamps });
                            }
                            FrameRef::Failed { exec_id, message } => {
                                inbox.completions.push(Completion {
                                    exec_id,
                                    result: Err(TaskError::new(message)),
                                    stamps: None,
                                });
                            }
                            FrameRef::HeartbeatAck { t_send_us, recv_us, reply_us, .. } => {
                                inbox.acks.push((t_send_us, recv_us, reply_us));
                            }
                            FrameRef::BlockRequest { hash } => inbox.block_reqs.push(hash),
                            FrameRef::BlockEvict { hash } => inbox.block_evicts.push(hash),
                            FrameRef::Data { key, blob } => {
                                inbox.saves.push((TaskId(key), Arc::from(blob.bytes)));
                            }
                            // Workers don't originate these driver-bound
                            // frames.
                            _ => {}
                        },
                        Ok(None) if short => break 'fill,
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
            link.unanswered_us.store(ANSWERED, Ordering::Relaxed);
        }
        if !inbox.acks.is_empty() {
            // Complete the NTP exchange: t3 is "now" on the driver clock.
            // One wall read serves the batch — acks decoded together arrived
            // together within the fill's granularity.
            let t3 = inner.shared.wall_us();
            for &(t0, t1, t2) in &inbox.acks {
                st.clock.observe(t0, t1, t2, t3);
            }
            link.clock_offset_us.store(st.clock.offset_us(), Ordering::Relaxed);
            link.clock_rtt_us.store(st.clock.rtt_us(), Ordering::Relaxed);
        }
        if alive {
            sync_interest(inner, link.node, &mut st);
        }
    }
    if !inbox.acks.is_empty() {
        publish_clock_gauges(inner, link);
        inbox.acks.clear();
    }
    if !inbox.completions.is_empty()
        || !inbox.saves.is_empty()
        || !inbox.block_reqs.is_empty()
        || !inbox.block_evicts.is_empty()
    {
        apply_frames(inner, link, inbox);
    }
    if !alive {
        failover(inner, link);
    }
}

/// Refresh the per-worker clock gauges from the link's best estimate.
fn publish_clock_gauges(inner: &Inner, link: &WorkerLink) {
    let rtt = link.clock_rtt_us.load(Ordering::Relaxed);
    if rtt > 0 {
        let m = &inner.shared.metrics;
        m.set_node_gauge("rnet_rtt_us", &link.label, rtt as f64);
        m.set_node_gauge(
            "rnet_clock_offset_us",
            &link.label,
            link.clock_offset_us.load(Ordering::Relaxed) as f64,
        );
    }
}

/// Map a worker-clock stamp onto the driver timeline, saturating at zero.
/// `offset_us` is the link's `worker_clock − driver_clock` estimate.
fn rebase(t: u64, offset_us: i64) -> u64 {
    (t as i64 - offset_us).max(0) as u64
}

/// Where an attempt's execution bars go on the driver timeline: the `Done`
/// frame's body-start and body-end stamps, rebased and clamped into the
/// driver-observed `[dispatch, completion]` window — residual clock error
/// (≤ RTT/2) must never draw an execution before its own dispatch or past
/// its observed completion.
fn exec_span(
    w_start: u64,
    w_end: u64,
    offset_us: i64,
    dispatch: u64,
    completion: u64,
) -> (u64, u64) {
    let start = rebase(w_start, offset_us).clamp(dispatch, completion);
    let end = rebase(w_end, offset_us).clamp(dispatch, completion);
    (start, end.max(start))
}

/// What the trace and the phase histograms need of one ended attempt: read
/// under the core lock, used after it.
struct Ended {
    task: TaskId,
    placement: Placement,
    name: Arc<str>,
    /// Dispatch time, driver clock.
    start_us: u64,
    /// Submission → dispatch, driver clock.
    dispatch_wait_us: u64,
    stamps: ExecStamps,
}

/// Completions and requests collected from one readiness event: one core
/// lock pass for bookkeeping + follow-on placement, replies pushed onto
/// the link's backlog, traces emitted off-lock.
fn apply_frames(inner: &Arc<Inner>, link: &Arc<WorkerLink>, inbox: &mut Inbox) {
    let now = inner.shared.wall_us();
    let Inbox { completions, outputs, saves, block_reqs, block_evicts, ended, replies, .. } = inbox;
    let follow = {
        let mut core = inner.shared.core.lock();
        // Saves first: a worker's snapshots precede its `Done` or `Failed`
        // on the wire, and a failed attempt's last one is what the retry
        // placed below takes along.
        for (task, blob) in saves.drain(..) {
            core.save_snapshot(task, blob);
        }
        for Completion { exec_id, result, stamps } in completions.drain(..) {
            // Late frames for already-failed-over executions are ignored
            // (`running` no longer knows the exec id).
            let Core { running, instances, data, .. } = &mut *core;
            let dispatched = running.get(&exec_id).map(|run| {
                let inst = &instances[&run.task];
                // What an output weighs on the wire is what moving it costs,
                // and what decides inline-vs-block for its readers.
                if let Ok(outs) = &result {
                    for (v, &(_, bytes)) in inst.writes().zip(&outputs[outs.clone()]) {
                        data.observe_bytes(v.handle, bytes);
                    }
                }
                (Arc::clone(&inst.def.name), run.start_us.saturating_sub(inst.submitted_us))
            });
            let values = result.map(|outs| outputs[outs].iter().map(|(v, _)| v.clone()));
            let run = complete_attempt(&inner.shared, &mut core, exec_id, values, now, false);
            if let (Some(run), Some((name, dispatch_wait_us))) = (run, dispatched) {
                let RunningExec { task, placement, start_us, .. } = run;
                ended.push(Ended { task, placement, name, start_us, dispatch_wait_us, stamps });
            }
        }
        outputs.clear();
        for hash in block_evicts.drain(..) {
            // The worker dropped the block under memory pressure: retract
            // residency at both granularities so the next dispatch ships
            // the bytes again (and scores the node honestly).
            core.blocks.evict(link.node, hash);
            let Core { blocks, data, .. } = &mut *core;
            for &v in blocks.versions_of(hash) {
                data.remove_location(v, link.node);
            }
        }
        for hash in block_reqs.drain(..) {
            // Cache-miss refill; silence on an unknown hash is handled by
            // the worker's own fetch deadline.
            if let Some(block) = core.blocks.lookup(hash) {
                core.blocks.add_resident(link.node, hash);
                replies.push(block);
            }
        }
        collect_dispatch_remote(&inner.shared, &mut core)
    };
    let mut alive = true;
    if !replies.is_empty() {
        let mut st = link.state.lock();
        for block in replies.drain(..) {
            st.send.push(&FrameRef::BlockData { hash: block.hash, blob: block.blob.as_ref() });
        }
        alive = pump_link(&inner.shared, &mut st);
        if alive {
            sync_interest(inner, link.node, &mut st);
        }
    }
    let offset = link.clock_offset_us.load(Ordering::Relaxed);
    let synced = link.clock_rtt_us.load(Ordering::Relaxed) > 0;
    let m = &inner.shared.metrics;
    for Ended { task, placement, name, start_us, dispatch_wait_us, stamps } in ended.drain(..) {
        m.rpc_latency.record(now.saturating_sub(start_us));
        m.record_node_task(&link.label);
        // What the trace shows for the attempt: the driver-observed window,
        // narrowed to the body's own span once the stamps can be placed.
        let mut span = (start_us, now);
        let mut queue_us = dispatch_wait_us;
        if let Some((w_recv, w_start, w_end)) = stamps {
            // A task dispatched ahead waits on the worker for the one before
            // it: that wait is queueing too. Both it and exec are
            // worker-clock differences, so the offset cancels there.
            queue_us += w_start.saturating_sub(w_recv);
            m.phase_wire.record(rebase(w_recv, offset).saturating_sub(start_us));
            m.phase_exec.record(w_end.saturating_sub(w_start));
            m.phase_ship.record(now.saturating_sub(rebase(w_end, offset)));
            if synced {
                span = exec_span(w_start, w_end, offset, start_us, now);
            }
        }
        m.phase_queue.record(queue_us);
        let task_ref = TaskRef::new(task.0, name);
        emit_attempt_spans(&inner.shared, &placement, task_ref, span.0, span.1, false);
    }
    inner.shared.cv.notify_all();
    send_dispatches(inner, follow);
    if !alive {
        failover(inner, link);
    }
}

/// Write off a dead link, inline on whichever thread saw it die. A lost
/// worker stays lost for the life of the runtime: its node is killed, its
/// in-flight executions fail over to the survivors (`node_gone`), and
/// ready tasks the surviving cluster can never run fail now rather than
/// hanging the barrier. Idempotent — `stream == None` means the link is
/// already written off — so the recursion through `send_dispatches` ends.
/// Call with no link lock and no core lock held.
fn failover(inner: &Arc<Inner>, link: &Arc<WorkerLink>) {
    let sock = {
        let mut st = link.state.lock();
        // A lost link is never probed or judged again.
        link.unanswered_us.store(ANSWERED, Ordering::Relaxed);
        st.stream.take()
    };
    let Some(sock) = sock else { return };
    // Deregister before the fd closes on drop.
    let _ = inner.poller.deregister(sock.as_raw_fd());
    let _ = sock.shutdown(std::net::Shutdown::Both);
    drop(sock);
    if inner.stop.load(Ordering::SeqCst) {
        return;
    }
    let node = link.node;
    let now = inner.shared.wall_us();
    inner.shared.metrics.workers_lost.incr();
    inner.shared.metrics.node_failures.incr();
    inner.shared.trace.event(CoreId::new(node, 0), now, EventKind::NodeFailure);
    let follow = {
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
            let error = TaskError::new(format!("worker {} connection lost", link.label));
            fail_attempt(&inner.shared, &mut core, e, error, now, true);
        }
        let doomed = core.sched.drain_unsatisfiable();
        for entry in doomed {
            fail_task_cascade(&inner.shared, &mut core, entry.task);
        }
        collect_dispatch_remote(&inner.shared, &mut core)
    };
    {
        // Frames buffered since the socket was torn out are for executions
        // just failed over; neither buffer is read again.
        let mut st = link.state.lock();
        st.send.clear();
        st.recv = RecvBuf::new();
    }
    inner.shared.cv.notify_all();
    send_dispatches(inner, follow);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataHandle;

    #[test]
    fn exec_spans_are_rebased_and_never_leave_the_driver_window() {
        // Worker clock 1_000 ahead: stamps [1_200, 1_300] are [200, 300] on
        // the driver timeline, inside the window, so the length is exact.
        assert_eq!(exec_span(1_200, 1_300, 1_000, 150, 400), (200, 300));
        // Offset error puts the start before the dispatch: clamped to it.
        assert_eq!(exec_span(1_100, 1_200, 1_000, 150, 400), (150, 200));
        // An offset so wrong the whole span rebases below zero collapses
        // onto the window floor, a worker behind the driver lands past the
        // ceiling; neither inverts.
        assert_eq!(exec_span(1_100, 1_200, 10_000, 150, 400), (150, 150));
        assert_eq!(exec_span(100, 200, -1_000, 150, 400), (400, 400));
        // Stamps a hostile peer inverted still give a forward span.
        assert_eq!(exec_span(1_300, 1_200, 1_000, 150, 400), (300, 300));
    }

    #[test]
    fn data_keys_roundtrip() {
        for (h, v) in [(0u64, 1u32), (1, 1), (7, 3), (u32::MAX as u64, u32::MAX)] {
            let dv = DataVersion { handle: DataHandle(h), version: v };
            let key = data_key(dv);
            assert_eq!((key >> 32, key as u32), (h, v));
        }
    }
}
