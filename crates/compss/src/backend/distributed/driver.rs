//! Driver side of the distributed backend: worker acquisition, how a
//! placed task's inputs travel, and the shell that holds the sockets, the
//! backlogs and the clock and carries out what [`state`] decides. The event
//! loop flushes every backlog each turn; a submitting thread flushes those
//! the state did not hold for the link's next answer.

mod state;

use std::cell::Cell;
use std::io;
use std::net::TcpStream;
use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};
use rnet::link::dial;
use rnet::{
    read_frame, Blob, BlobRef, Frame, FrameRef, Link, Poller, RecvBuf, SendBuf, Waker, WireArg,
    WAKE_TOKEN,
};
use runmetrics::labeled;

use self::state::{Action, DriverState, Event};
use super::{DistributedConfig, SNAP_TAG};
use crate::blocks::EncodedBlock;
use crate::codec;
use crate::data::{DataVersion, Value};
use crate::runtime::{complete_attempt, lose_node, place_ready, Core, Settled, Shared};
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
    dispatched_us: u64,
    /// Whether it was queued fast ([`crate::scheduler::Placement::fast`]).
    fast: bool,
    /// The runtime's id of its function; whether the link has not heard it
    /// yet, so the `Submit` names it, and whether a submitting thread's
    /// flush to the link may wait: the state's to set.
    fn_id: usize,
    fn_new: bool,
    hold: bool,
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

/// One worker link's socket and write backlog.
struct Wire {
    /// `None` once the state has closed the link, for good.
    conn: Option<Link>,
    send: SendBuf,
    /// The backlog waits for the link's next answer: a submitting thread
    /// leaves it to the event loop's flush.
    held: bool,
    /// Node-labelled mirrors of `rnet_bytes_sent_total` and
    /// `rnet_bytes_received_total`: per-worker transfer in `/metrics`.
    sent_bytes: runmetrics::Counter,
    recv_bytes: runmetrics::Counter,
}

/// What the driver lock guards: the decisions, and the links they act on.
struct Io {
    state: DriverState,
    wires: Vec<Wire>,
}

struct Inner {
    shared: Arc<Shared>,
    /// `name@addr` of each worker, by node id: its metrics and trace label.
    labels: Vec<String>,
    io: Mutex<Io>,
    poller: Poller,
    wake: Waker,
}

/// Driver-side connection manager: one event-loop thread owning readiness
/// for every worker link.
pub(crate) struct ConnMgr {
    inner: Arc<Inner>,
    thread: Option<JoinHandle<()>>,
}

/// A freshly connected worker before the runtime exists: the socket plus
/// what its `Hello` advertised. This is the unit of worker *acquisition*,
/// split from runtime construction so a long-lived server can gather
/// workers its own way — dialling out ([`connect_workers`]) and/or
/// accepting dial-ins on a shared listener ([`WorkerBootstrap::handshake`])
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
    /// Read the `Hello` a worker opens every connection with, whichever
    /// side dialled: the one blocking read the driver ever does, for at
    /// most 5 s (the runtime makes the socket non-blocking when it takes
    /// it over). A first frame that is not a `Hello` is `InvalidData`, and
    /// the socket comes back with the error, so a listener shared with
    /// other roles can answer the peer before it closes.
    pub fn handshake(
        mut stream: TcpStream,
        addr: String,
    ) -> Result<WorkerBootstrap, (io::Error, TcpStream)> {
        let hello = stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .and_then(|()| read_frame(&mut stream, &mut RecvBuf::new()))
            .and_then(|frame| stream.set_read_timeout(None).map(|()| frame));
        match hello {
            Ok(Some(Frame::Hello { name, cores, gpus, mem_gib })) => {
                Ok(WorkerBootstrap { stream, addr, name, cores, gpus, mem_gib })
            }
            Ok(other) => {
                let msg = format!("{addr} did not say Hello (got {other:?})");
                Err((io::Error::new(io::ErrorKind::InvalidData, msg), stream))
            }
            Err(e) => Err((e, stream)),
        }
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
        .map(|addr| WorkerBootstrap::handshake(dial(addr, timeout)?, addr.clone()).map_err(|e| e.0))
        .collect()
}

impl ConnMgr {
    /// Wire up the links, register every socket with the poller, and spawn
    /// the event-loop thread. `boots` are in node-id order (the same order
    /// the cluster spec was built in). Fails if the poller or its waker
    /// cannot be made (out of fds, say), or the poller refuses a socket.
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
        let (mut labels, mut wires) = (Vec::new(), Vec::new());
        for (i, b) in boots.into_iter().enumerate() {
            let label = format!("{}@{}", b.name, b.addr);
            let counter = |base| shared.metrics.registry().counter(&labeled(base, "node", &label));
            let (sent_bytes, recv_bytes) =
                (counter("rnet_bytes_sent_total"), counter("rnet_bytes_received_total"));
            let conn = Some(Link::adopt(b.stream, &poller, i as u64)?);
            let send = SendBuf::new();
            wires.push(Wire { conn, send, held: false, sent_bytes, recv_bytes });
            labels.push(label);
        }
        let [hb, timeout] =
            [cfg.heartbeat_interval, cfg.heartbeat_timeout].map(|d| d.as_micros() as u64);
        let io = Mutex::new(Io { state: DriverState::new(wires.len(), hb, timeout), wires });
        let inner = Arc::new(Inner { shared, labels, io, poller, wake });
        let loop_inner = Arc::clone(&inner);
        Ok(ConnMgr { inner, thread: Some(std::thread::spawn(move || driver_loop(&loop_inner))) })
    }

    /// Worker display labels, indexed by node id: `name@addr`.
    pub fn labels(&self) -> Vec<String> {
        self.inner.labels.clone()
    }

    /// Per-worker clock sync estimates, indexed by node id:
    /// `(offset_us, rtt_us)`. RTT 0 means no heartbeat ack was observed yet.
    pub fn clock_stats(&self) -> Vec<(i64, u64)> {
        let io = self.inner.io.lock();
        let clocks = (0..io.wires.len() as u32).map(|l| io.state.clock(l));
        clocks.map(|c| (c.offset_us(), c.rtt_us())).collect()
    }

    /// Encode and transmit prepared dispatches, coalesced per worker, each
    /// link's flush left to the event loop where the state holds it. Call
    /// *without* the core lock.
    pub fn send(&self, work: Dispatches) {
        // A submit reads no clock: its batch's placement time stands for now.
        let (inner, now) = (&*self.inner, work.msgs.last().map_or(0, |d| d.dispatched_us));
        let (io, acts, inbox) = (inner.io.lock(), &mut Vec::new(), &mut Inbox::default());
        pump(inner, io, acts, inbox, Some(work), now, true);
    }

    /// Graceful stop: `Stop` queues a `Shutdown` behind each link's backlog,
    /// and the loop flushes without blocking until each has drained or
    /// `heartbeat_timeout` has passed, closes them and ends.
    pub fn shutdown(&mut self) {
        let (inner, now, mut acts) = (&*self.inner, self.inner.shared.wall_us(), Vec::new());
        let mut io = inner.io.lock();
        io.state.apply(Event::Stop, now, &mut acts);
        pump(inner, io, &mut acts, &mut Inbox::default(), None, now, false);
        let _ = inner.wake.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The core-locked half of dispatch: place every placeable ready task and
/// decide inline-vs-block per input. Values are cloned (`Arc` bumps) here
/// and encoded later, off-lock, by [`ConnMgr::send`].
pub(crate) fn collect_dispatch_remote(shared: &Shared, core: &mut Core) -> Dispatches {
    let mut batch = SPARE.take();
    // Transfer-aware placement: fewest bytes-to-move first (declared size ×
    // missing residency), most resident inputs as the tie-break — the sim
    // backend's score too, here weighted by what a wrong placement costs.
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
                        if blocks.set_resident(data, node, block.hash, true) {
                            batch.args.push(PreparedArg::BlockShip { key, block });
                        } else {
                            batch.args.push(PreparedArg::BlockRef { key, hash: block.hash });
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
                attempt: inst.attempt,
                node,
                variant: placement.variant as u32,
                dispatched_us: placed.now_us,
                fast: placement.fast,
                fn_id: inst.fn_id,
                fn_new: false,
                hold: false,
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

/// Push one dispatch's frames onto its link's backlog: the blocks it ships,
/// its snapshot, its `Submit`. Fails when an inline input has no codec.
fn push_submit(
    send: &mut SendBuf,
    d: &RemoteDispatch,
    batch: &mut Dispatches,
) -> Result<(), String> {
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
    if let Some(snap) = &d.snapshot {
        // Like a block, the snapshot must be there when the Submit lands:
        // same socket, the same backlog.
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
        fn_id: d.fn_id as u64,
        fn_name: d.fn_new.then(|| d.name.to_string()),
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

impl Wire {
    /// Whether a flush pass writes this backlog: one that has bytes, unless
    /// a `submit`ting thread's pass meets it held.
    fn due(&self, submit: bool) -> bool {
        !self.send.is_empty() && (!submit || !self.held)
    }

    /// Flush the backlog as far as the socket takes it. A failed write leaves
    /// the link to its next read, which the poller raises at once for a
    /// socket in error; a closed link's backlog is dropped.
    fn flush(&mut self, poller: &Poller, shared: &Shared) {
        self.held = false;
        match &mut self.conn {
            Some(conn) => {
                let n = conn.flush(poller, &mut self.send).unwrap_or(0) as u64;
                shared.metrics.net_bytes_sent.add(n);
                self.sent_bytes.add(n);
            }
            None => self.send.clear(),
        }
    }
}

/// Put a dispatch batch on the links the state keeps: per dispatch, in
/// placement order, the blocks it ships, its snapshot and its `Submit`, and
/// whether its link's backlog is held. An input with no codec fails its
/// attempt as a `Failed` from its worker would, so the retry machinery
/// takes it from there.
fn encode(io: &mut Io, b: &mut Dispatches, acts: &mut Vec<Action>, inbox: &mut Inbox, now: u64) {
    let mut msgs = std::mem::take(&mut b.msgs);
    io.state.apply(Event::Dispatch(&mut msgs), now, acts);
    for d in &msgs {
        let wire = &mut io.wires[d.node as usize];
        wire.held = d.hold;
        if let Err(msg) = push_submit(&mut wire.send, d, b) {
            let result = Err(TaskError::new(msg));
            inbox.completions.push(Completion { exec_id: d.exec_id, result, stamps: None });
            io.state.apply(Event::Read { link: d.node, bytes: 0, inbox }, now, acts);
        }
    }
    msgs.clear();
    b.ids.clear();
    b.args.clear();
    b.msgs = msgs;
}

/// Carry out what the state decided, and what follows, until nothing is
/// left: `batch`, block replies, frames, closes and flushes under the driver
/// lock; then, with it released (the locks never nest), the core's actions
/// and the follow-on placement, whose dispatches go out on the next round.
/// A `submit`ting thread leaves held backlogs to the event loop, which
/// flushes every backlog.
fn pump<'a>(
    inner: &'a Inner,
    mut io: MutexGuard<'a, Io>,
    acts: &mut Vec<Action>,
    inbox: &mut Inbox,
    mut batch: Option<Dispatches>,
    now: u64,
    submit: bool,
) {
    loop {
        if let Some(mut b) = batch.take() {
            encode(&mut io, &mut b, acts, inbox, now);
            SPARE.set(b);
        }
        let Io { wires, .. } = &mut *io;
        for (l, block) in inbox.replies.drain(..) {
            let reply = FrameRef::BlockData { hash: block.hash, blob: block.blob.as_ref() };
            wires[l as usize].send.push(&reply);
        }
        acts.retain(|act| {
            match *act {
                Action::Push(l, ref frame) => wires[l as usize].send.push(frame),
                Action::Close(l) => {
                    wires[l as usize].conn.take().map_or((), |c| c.close(&inner.poller))
                }
                _ => return true,
            }
            false
        });
        for wire in wires.iter_mut().filter(|w| w.due(submit)) {
            wire.flush(&inner.poller, &inner.shared);
        }
        if acts.is_empty() && inbox.saves.is_empty() {
            return;
        }
        drop(io);
        let (shared, labels) = (&*inner.shared, &inner.labels);
        let follow = apply_core(shared, &mut shared.core.lock(), labels, acts, inbox, now);
        shared.cv.notify_all();
        io = inner.io.lock();
        batch = Some(follow);
    }
}

/// The core's half of the actions, under the core lock, then the follow-on
/// placement. Each attempt whose outputs were stored is counted against its
/// worker's `labels` entry; the blocks to send stay in `inbox`.
fn apply_core(
    shared: &Shared,
    core: &mut Core,
    labels: &[String],
    acts: &mut Vec<Action>,
    inbox: &mut Inbox,
    now: u64,
) -> Dispatches {
    let Inbox { outputs, saves, replies, .. } = inbox;
    // A worker's snapshots precede its `Done` or `Failed` on the wire, and
    // a failed attempt's last one is what the retry placed below takes.
    for (task, blob) in saves.drain(..) {
        core.save_snapshot(task, blob);
    }
    for act in acts.drain(..) {
        match act {
            Action::Settle(node, Completion { exec_id, result, .. }, report) => {
                let Core { running, instances, data, .. } = &mut *core;
                if let (Some(run), Ok(outs)) = (running.get(&exec_id), &result) {
                    // What an output weighs on the wire is what moving it
                    // costs, and what decides inline-vs-block for its readers.
                    for (v, (_, bytes)) in instances[&run.task].writes().zip(&outputs[outs.clone()])
                    {
                        data.observe_bytes(v.handle, *bytes);
                    }
                }
                let values = result.map(|outs| outputs[outs].iter().map(|(v, _)| v.clone()));
                if complete_attempt(shared, core, exec_id, values, report, now, false)
                    == Settled::Stored
                {
                    shared.metrics.record_node_task(&labels[node as usize]);
                }
            }
            Action::Evict(node, hash) => {
                // The worker dropped the block under memory pressure: retract
                // residency at both granularities so the next dispatch ships
                // the bytes again (and scores the node honestly).
                core.blocks.set_resident(&mut core.data, node, hash, false);
            }
            // Cache-miss refill; silence on an unknown hash is handled by the
            // worker's own fetch deadline.
            Action::Ship(node, hash) => {
                if let Some(block) = core.blocks.lookup(hash) {
                    core.blocks.set_resident(&mut core.data, node, hash, true);
                    replies.push((node, block));
                }
            }
            Action::Lose(node) => {
                shared.metrics.workers_lost.incr();
                lose_node(shared, core, node, now);
            }
            Action::Push(..) | Action::Close(_) => unreachable!("done under the driver lock"),
        }
    }
    outputs.clear();
    collect_dispatch_remote(shared, core)
}

/// The driver's event loop. A turn polls until the state's next deadline,
/// reads the clock once, flushes and reads (zero-copy) every ready link,
/// ends with a `Tick` and carries out what all of it decided in one `pump`.
/// Once stopping, a drained link is closed.
fn driver_loop(inner: &Inner) {
    let (mut events, mut acts, mut inbox) = (Vec::new(), Vec::new(), Inbox::default());
    let (mut deadline, mut now) = (Some(0u64), inner.shared.wall_us());
    while let Some(due) = deadline {
        let timeout = Duration::from_micros(due.saturating_sub(now));
        if inner.poller.wait(&mut events, Some(timeout)).is_err() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        now = inner.shared.wall_us();
        let mut io = inner.io.lock();
        for ev in &events {
            let link = ev.token as u32;
            let Some(wire) = io.wires.get_mut(link as usize).filter(|w| w.conn.is_some()) else {
                inner.wake.drain(); // the waker, or a stale event for a closed link
                continue;
            };
            if ev.writable {
                wire.flush(&inner.poller, &inner.shared);
            }
            if ev.readable {
                let got = wire.conn.as_mut().expect("open").read(|frame| inbox.take(frame));
                inner.shared.metrics.net_bytes_received.add(got.bytes as u64);
                wire.recv_bytes.add(got.bytes as u64);
                let (acked, bytes) = (!inbox.acks.is_empty(), got.bytes);
                io.state.apply(Event::Read { link, bytes, inbox: &mut inbox }, now, &mut acts);
                let clock = io.state.clock(link);
                if acked && clock.rtt_us() > 0 {
                    let (m, label) = (&inner.shared.metrics, &inner.labels[link as usize]);
                    m.set_node_gauge("rnet_rtt_us", label, clock.rtt_us() as f64);
                    m.set_node_gauge("rnet_clock_offset_us", label, clock.offset_us() as f64);
                }
                if !got.open {
                    io.state.apply(Event::Closed(link), now, &mut acts);
                }
            }
        }
        io.state.apply(Event::Tick, now, &mut acts);
        for l in 0..io.wires.len() {
            let wire = &io.wires[l];
            if io.state.stopping() && wire.conn.is_some() && wire.send.is_empty() {
                io.state.apply(Event::Closed(l as u32), now, &mut acts);
            }
        }
        deadline = io.state.next_deadline();
        pump(inner, io, &mut acts, &mut inbox, None, now, false);
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
    /// Blocks a `BlockRequest` asked for, by link.
    replies: Vec<(u32, Arc<EncodedBlock>)>,
}

impl Inbox {
    /// File one frame a worker sent; it borrows the link's receive buffer,
    /// so what outlives the read is decoded or copied out here.
    fn take(&mut self, frame: FrameRef<'_>) -> bool {
        match frame {
            FrameRef::Done { exec_id, recv_us, start_us, end_us, outputs } => {
                let first = self.outputs.len();
                let mut result = Ok(first..first + outputs.len());
                for b in &outputs {
                    match codec::decode_tagged(b.tag, b.bytes) {
                        Ok(v) => self.outputs.push((v, b.bytes.len() as u64)),
                        Err(e) => {
                            self.outputs.truncate(first);
                            let msg = format!("undecodable task output: {e}");
                            result = Err(TaskError::new(msg));
                            break;
                        }
                    }
                }
                let stamps = Some((recv_us, start_us, end_us));
                self.completions.push(Completion { exec_id, result, stamps });
            }
            FrameRef::Failed { exec_id, message } => {
                let result = Err(TaskError::new(message));
                self.completions.push(Completion { exec_id, result, stamps: None });
            }
            FrameRef::HeartbeatAck { t_send_us, recv_us, reply_us, .. } => {
                self.acks.push((t_send_us, recv_us, reply_us));
            }
            FrameRef::BlockRequest { hash } => self.block_reqs.push(hash),
            FrameRef::BlockEvict { hash } => self.block_evicts.push(hash),
            FrameRef::Data { key, blob } => {
                self.saves.push((TaskId(key), Arc::from(blob.bytes)));
            }
            // Workers don't originate these driver-bound frames.
            _ => {}
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::distributed::{INLINE_BUDGET_US, INLINE_STREAK};
    use crate::data::DataHandle;
    use crate::runtime::Report;
    use crate::scheduler::FAST_DEPTH;
    use crate::{ArgSpec, Constraint, Runtime, RuntimeConfig};

    #[test]
    fn a_block_fetched_back_after_its_eviction_is_resident_again() {
        // A block-routed input goes to node 0. Its worker evicts the block,
        // then asks for it back for a task that names it: after the refill
        // the version counts as resident there, as it did after dispatch.
        let mut cfg = RuntimeConfig::single_node(1).with_tracing(false);
        cfg.reserved_cores.clear();
        let rt = Runtime::simulated(cfg);
        let read = rt.register("read", Constraint::cpus(1), 0, |_, _| Ok(vec![]));
        let input = rt.literal(7i64);
        rt.set_data_bytes(input, 1 << 20);
        rt.submit(&read, vec![ArgSpec::In(input)]).unwrap();
        let shared = &*rt.shared;
        let mut core = shared.core.lock();
        let batch = collect_dispatch_remote(shared, &mut core);
        let d = &batch.msgs[0];
        let Some(PreparedArg::BlockShip { block, .. }) = batch.args.get(d.args.start) else {
            panic!("the input ships as a block");
        };
        let (v, hash) = (core.data.current_version(input), block.hash);
        assert_eq!(d.node, 0);
        assert!(core.data.is_on_node(v, 0), "dispatch marks the version");

        let (mut inbox, mut acts) = (Inbox::default(), Vec::new());
        inbox.take(FrameRef::BlockEvict { hash });
        inbox.take(FrameRef::BlockRequest { hash });
        let mut state = DriverState::new(1, 50_000, 300_000);
        state.apply(Event::Read { link: 0, bytes: 64, inbox: &mut inbox }, 0, &mut acts);
        apply_core(shared, &mut core, &["w0".into()], &mut acts, &mut inbox, 0);
        assert_eq!(inbox.replies.len(), 1, "the block goes back to node 0");
        assert!(core.data.is_on_node(v, 0), "the refill marks the version");
    }

    #[test]
    fn a_task_goes_out_with_the_fast_flag_it_was_queued_by() {
        // One one-core node, dispatching ahead. `f`'s first attempts each
        // report a fast body, so its tasks queue `FAST_DEPTH` deep behind
        // the running one, and one more waits ready, queued fast. The
        // running attempt then reports a slow body: the streak starts again
        // and a place behind the core frees up. The waiting task takes it,
        // and goes out with the flag it was queued by, not the streak's.
        let mut cfg = RuntimeConfig::single_node(1).with_tracing(false);
        cfg.reserved_cores.clear();
        let rt = Runtime::simulated(cfg);
        let shared = &*rt.shared;
        shared.core.lock().sched.enable_dispatch_ahead();
        let f = rt.register("f", Constraint::cpus(1), 0, |_, _| Ok(vec![]));
        let settle = |core: &mut Core, exec_id, exec_us| {
            let done = Completion { exec_id, result: Ok(0..0), stamps: None };
            let report = Report { exec_us: Some(exec_us), ..Report::default() };
            let mut acts = vec![Action::Settle(0, done, report)];
            apply_core(shared, core, &["w0".into()], &mut acts, &mut Inbox::default(), 0)
        };
        for _ in 0..INLINE_STREAK {
            rt.submit(&f, vec![]).unwrap();
            let mut core = shared.core.lock();
            let batch = collect_dispatch_remote(shared, &mut core);
            settle(&mut core, batch.msgs[0].exec_id, INLINE_BUDGET_US);
        }
        for _ in 0..2 + FAST_DEPTH {
            rt.submit(&f, vec![]).unwrap();
        }
        let mut core = shared.core.lock();
        let batch = collect_dispatch_remote(shared, &mut core);
        assert_eq!(batch.msgs.len(), 1 + FAST_DEPTH as usize, "one runs, the rest queue");
        assert!(batch.msgs.iter().all(|d| d.fast));
        assert_eq!(core.sched.ready_len(), 1, "one more waits, queued fast");
        let follow = settle(&mut core, batch.msgs[0].exec_id, INLINE_BUDGET_US + 1);
        assert_eq!(follow.msgs.len(), 1, "the slow report freed a place");
        assert!(follow.msgs[0].fast, "it went out by the streak, not by how it was queued");
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
