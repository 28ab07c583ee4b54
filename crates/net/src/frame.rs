//! The frame model: every message the driver and worker exchange.
//!
//! Wire layout of one frame:
//!
//! ```text
//! +-----+-----+---------+-----------+----------------+---------+
//! | 'R' | 'N' | version | frame type| varint payload | payload |
//! |     |     |  (1 B)  |   (1 B)   |     length     | bytes   |
//! +-----+-----+---------+-----------+----------------+---------+
//! ```
//!
//! The magic bytes catch cross-talk (something that is not a peer
//! connecting to the port), the version byte gates protocol evolution, and
//! the varint length keeps the common small frames (heartbeats, no-payload
//! shutdowns) at single-digit bytes — the "lean length-prefixed frame"
//! style of rpc-perf rather than a general-purpose serialisation stack.
//!
//! Decoding is incremental: [`Frame::decode`] returns `Ok(None)` while the
//! buffer holds only a frame prefix, so a reader can accumulate bytes from
//! the socket at arbitrary boundaries and retry.

use crate::varint;
use crate::wire::{self, Reader, WireError};

/// Protocol magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"RN";

/// Current protocol version.
pub const VERSION: u8 = 1;

/// Upper bound on a single frame payload (64 MiB). A length prefix beyond
/// this is treated as corruption rather than an allocation request.
pub const MAX_PAYLOAD: u64 = 64 * 1024 * 1024;

/// A tagged, opaque serialised value: `tag` names the application codec
/// that produced `bytes` (e.g. `"hpo.config"`). The protocol layer never
/// interprets the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blob {
    /// Codec tag.
    pub tag: String,
    /// Encoded value.
    pub bytes: Vec<u8>,
}

/// One task input as shipped in a [`Frame::Submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireArg {
    /// Value shipped inline: the worker decodes it straight into the
    /// queued job. `key` names the data version in traces and debug
    /// output; nothing is indexed by it.
    Inline {
        /// Driver-side data key (`handle << 32 | version`).
        key: u64,
        /// The serialised value.
        blob: Blob,
    },
    /// Value stored in the content-addressed block plane: the worker
    /// resolves `hash` against its local block cache and issues a
    /// [`Frame::BlockRequest`] on a miss. `key` names the data version,
    /// as in [`WireArg::Inline`].
    Block {
        /// Driver-side data key (`handle << 32 | version`).
        key: u64,
        /// Content hash of the encoded value.
        hash: u128,
    },
}

/// Borrowed view of a [`Blob`]: tag and payload point straight into the
/// receive buffer the frame was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobRef<'a> {
    /// Codec tag.
    pub tag: &'a str,
    /// Encoded value.
    pub bytes: &'a [u8],
}

impl BlobRef<'_> {
    /// Copy into an owned [`Blob`].
    pub fn to_owned(&self) -> Blob {
        Blob { tag: self.tag.to_string(), bytes: self.bytes.to_vec() }
    }
}

/// Borrowed view of a [`WireArg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireArgRef<'a> {
    /// See [`WireArg::Inline`].
    Inline {
        /// Driver-side data key (`handle << 32 | version`).
        key: u64,
        /// The serialised value, borrowed from the receive buffer.
        blob: BlobRef<'a>,
    },
    /// See [`WireArg::Block`].
    Block {
        /// Driver-side data key.
        key: u64,
        /// Content hash of the encoded value.
        hash: u128,
    },
}

impl WireArgRef<'_> {
    /// Copy into an owned [`WireArg`].
    pub fn to_owned(&self) -> WireArg {
        match *self {
            WireArgRef::Inline { key, blob } => WireArg::Inline { key, blob: blob.to_owned() },
            WireArgRef::Block { key, hash } => WireArg::Block { key, hash },
        }
    }
}

/// One leaderboard entry as streamed in a [`Frame::LeaderboardChunk`]:
/// a finished trial's config label and headline numbers. The protocol
/// layer carries the rows; what "accuracy" means is the application's
/// business.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderRow {
    /// Human-readable config label (e.g. `optimizer=Adam num_epochs=2`).
    pub label: String,
    /// Final objective value (higher is better).
    pub accuracy: f64,
    /// Epochs actually run (early-stopped trials report fewer).
    pub epochs: u32,
    /// Task wall time, µs.
    pub task_us: u64,
}

/// Borrowed view of a [`LeaderRow`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaderRowRef<'a> {
    /// Human-readable config label.
    pub label: &'a str,
    /// Final objective value (higher is better).
    pub accuracy: f64,
    /// Epochs actually run.
    pub epochs: u32,
    /// Task wall time, µs.
    pub task_us: u64,
}

impl LeaderRowRef<'_> {
    /// Copy into an owned [`LeaderRow`].
    pub fn to_owned(&self) -> LeaderRow {
        LeaderRow {
            label: self.label.to_string(),
            accuracy: self.accuracy,
            epochs: self.epochs,
            task_us: self.task_us,
        }
    }
}

/// Every message of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → driver, once per connection: resource registration.
    Hello {
        /// Worker display name (defaults to its listen address).
        name: String,
        /// CPU cores offered.
        cores: u32,
        /// GPUs offered.
        gpus: u32,
        /// Memory offered, GiB.
        mem_gib: u32,
    },
    /// Driver → worker: run one task attempt.
    Submit {
        /// Driver-side execution id, echoed in `Done`/`Failed`.
        exec_id: u64,
        /// Task instance id (for logs/traces on the worker).
        task_id: u64,
        /// 1-based attempt number.
        attempt: u32,
        /// The driver's node id for this worker (context for the body).
        node: u32,
        /// Interned function id: stable per connection.
        fn_id: u64,
        /// Function name, present only the first time `fn_id` is used on
        /// this connection — later submits send just the id.
        fn_name: Option<String>,
        /// Which task implementation to run (0 = primary).
        variant: u32,
        /// Exact core ids granted on the worker.
        cores: Vec<u32>,
        /// Exact GPU ids granted on the worker.
        gpus: Vec<u32>,
        /// Inputs, in argument order.
        args: Vec<WireArg>,
    },
    /// Worker → driver: task attempt succeeded.
    ///
    /// Besides the outputs, the worker stamps the attempt's lifecycle on its
    /// own clock: submit receipt, execution start, execution end. Combined
    /// with the heartbeat clock-offset estimate the driver turns these into
    /// per-phase latencies (wire / exec / result-ship) without a second
    /// round trip.
    Done {
        /// Echoed execution id.
        exec_id: u64,
        /// Worker clock when the `Submit` frame was decoded, µs.
        recv_us: u64,
        /// Worker clock when the task body started, µs.
        start_us: u64,
        /// Worker clock when the task body returned, µs.
        end_us: u64,
        /// Serialised outputs, in declaration order.
        outputs: Vec<Blob>,
    },
    /// Worker → driver: task attempt failed (body error or panic).
    Failed {
        /// Echoed execution id.
        exec_id: u64,
        /// Human-readable reason.
        message: String,
    },
    /// Driver → worker liveness probe, doubling as a clock-sync sample
    /// (NTP-style: the ack echoes `t_send_us` and adds the receiver's own
    /// receive/reply stamps, letting the sender estimate offset and RTT).
    Heartbeat {
        /// Monotonic per-connection sequence number.
        seq: u64,
        /// Sender's clock at transmission, µs on its own epoch.
        t_send_us: u64,
        /// Reserved: always sent `false`, ignored on receipt. It solicited
        /// the worker-shipped telemetry frames (type bytes 10 and 11) until
        /// those were retired.
        telemetry: bool,
    },
    /// Worker → driver reply to [`Frame::Heartbeat`].
    HeartbeatAck {
        /// Echoed sequence number.
        seq: u64,
        /// Echo of the probe's `t_send_us` (sender clock).
        t_send_us: u64,
        /// Receiver's clock when the probe arrived, µs on its own epoch.
        recv_us: u64,
        /// Receiver's clock when this ack was built, µs on its own epoch.
        reply_us: u64,
    },
    /// A task's mid-run snapshot, keyed by task id. Worker → driver: the
    /// running attempt saved it. Driver → worker: what an earlier attempt
    /// saved, sent right ahead of the [`Frame::Submit`] of the next one.
    /// Nothing else travels this way: task inputs ride the `Submit` or the
    /// block plane.
    Data {
        /// The id of the task the snapshot belongs to.
        key: u64,
        /// The snapshot bytes, opaque to the runtime.
        blob: Blob,
    },
    /// Worker → driver: a [`WireArg::Block`] input missed the block cache.
    BlockRequest {
        /// The missing content hash.
        hash: u128,
    },
    /// Driver → worker: one content-addressed block for the worker's block
    /// cache — pushed ahead of the first `Submit` on this connection whose
    /// args reference `hash`, or sent in answer to a [`Frame::BlockRequest`].
    /// Idempotent: a worker already holding `hash` ignores the payload.
    BlockData {
        /// The content hash.
        hash: u128,
        /// The serialised value.
        blob: Blob,
    },
    /// Worker → driver: the LRU budget evicted a block; the driver must
    /// drop its residency record so future placements re-ship it.
    BlockEvict {
        /// The evicted content hash.
        hash: u128,
    },
    /// Client → server, once per connection: role negotiation. A worker's
    /// first frame on the shared listener is a [`Frame::Hello`]; a sweep
    /// client's is a `ClientHello` naming its tenant. Everything after
    /// follows from that first frame type.
    ClientHello {
        /// Tenant identity the connection's sweeps are accounted to.
        tenant: String,
        /// Client-side protocol revision (forward-compat gate).
        proto: u32,
    },
    /// Client → server: run one hyperparameter sweep on the shared pool.
    SubmitSweep {
        /// Display name for the sweep (logs, metrics labels).
        name: String,
        /// The JSON search-space document (the paper's config file).
        space_json: String,
        /// Search algorithm (`grid` | `random` | `tpe` | `bayes`).
        algo: String,
        /// Trial budget for the sampling algorithms (grid ignores it).
        trials: u32,
        /// RNG seed — same seed + space + algo ⇒ same trial sequence.
        seed: u64,
        /// Wave size override (0 = server default).
        wave: u32,
    },
    /// Server → client: a request was refused (admission control, quota,
    /// malformed space, unknown sweep). The typed error frame of the
    /// client plane: `code` is machine-readable, `message` for humans.
    SweepReject {
        /// Machine-readable reject class (see the application's catalogue).
        code: u32,
        /// Human-readable reason.
        message: String,
    },
    /// Sweep status, in both directions. Client → server it is a query:
    /// only `sweep_id` and `follow` are meaningful (`follow != 0`
    /// subscribes the connection to the sweep's live leaderboard stream).
    /// Server → client it is the answer — and the ack of a
    /// [`Frame::SubmitSweep`], carrying the assigned `sweep_id`.
    SweepStatus {
        /// Server-assigned sweep id.
        sweep_id: u64,
        /// Lifecycle state (application-defined catalogue).
        state: u32,
        /// Trials finished successfully.
        done: u32,
        /// Trials failed.
        failed: u32,
        /// Total trial budget (0 = unknown ahead of time).
        total: u32,
        /// Best objective value so far (NaN-free: 0 until a trial lands).
        best_acc: f64,
        /// Config label of the best trial so far (empty until one lands).
        best_label: String,
        /// Times this sweep's tenant hit its rate limit so far.
        throttled: u64,
        /// Query direction only: subscribe to the live leaderboard.
        follow: u32,
    },
    /// Server → client: a batch of freshly finished trials for a sweep the
    /// connection follows. Subscribing replays the full leaderboard so
    /// far, then streams increments as trials land.
    LeaderboardChunk {
        /// The sweep the rows belong to.
        sweep_id: u64,
        /// Finished trials, in completion order.
        rows: Vec<LeaderRow>,
    },
    /// Client → server: stop a sweep. In-flight trials drain; the sweep
    /// ends in the `cancelled` state and its workers return to the pool.
    CancelSweep {
        /// The sweep to cancel.
        sweep_id: u64,
    },
    /// Server → client: terminal state of a sweep the connection follows
    /// (or just submitted). Exactly one per sweep per subscriber.
    SweepDone {
        /// The finished sweep.
        sweep_id: u64,
        /// Terminal lifecycle state (done / failed / cancelled).
        state: u32,
        /// Sweep wall time, µs.
        wall_us: u64,
        /// Empty on success; the error for failed sweeps.
        message: String,
    },
    /// Driver → worker: drain and close the connection.
    Shutdown,
}

/// Borrowed view of a [`Frame`], decoded in place from a receive buffer.
///
/// This is the zero-copy half of the decode API: strings and blob payloads
/// point straight into the buffer the bytes arrived in, so a hot loop can
/// hand a `Done` frame's outputs to the value codecs without an
/// intermediate copy. Call [`FrameRef::to_owned`] when the data must
/// outlive the buffer (which invalidates on the next compaction or fill).
///
/// ```
/// use rnet::{Frame, FrameRef};
///
/// let hb = Frame::Heartbeat { seq: 7, t_send_us: 1_000, telemetry: false };
/// let wire = hb.encode();
/// let (frame, used) = FrameRef::decode(&wire).unwrap().expect("complete");
/// assert_eq!(used, wire.len());
/// assert!(matches!(frame, FrameRef::Heartbeat { seq: 7, .. }));
/// assert_eq!(frame.to_owned(), hb);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum FrameRef<'a> {
    /// See [`Frame::Hello`].
    Hello {
        /// Worker display name.
        name: &'a str,
        /// CPU cores offered.
        cores: u32,
        /// GPUs offered.
        gpus: u32,
        /// Memory offered, GiB.
        mem_gib: u32,
    },
    /// See [`Frame::Submit`].
    Submit {
        /// Driver-side execution id.
        exec_id: u64,
        /// Task instance id.
        task_id: u64,
        /// 1-based attempt number.
        attempt: u32,
        /// The driver's node id for this worker.
        node: u32,
        /// Interned function id.
        fn_id: u64,
        /// Function name, present only on the first use of `fn_id`.
        fn_name: Option<&'a str>,
        /// Which task implementation to run.
        variant: u32,
        /// Exact core ids granted.
        cores: Vec<u32>,
        /// Exact GPU ids granted.
        gpus: Vec<u32>,
        /// Inputs, in argument order, blobs borrowed.
        args: Vec<WireArgRef<'a>>,
    },
    /// See [`Frame::Done`].
    Done {
        /// Echoed execution id.
        exec_id: u64,
        /// Worker clock when the `Submit` frame was decoded, µs.
        recv_us: u64,
        /// Worker clock when the task body started, µs.
        start_us: u64,
        /// Worker clock when the task body returned, µs.
        end_us: u64,
        /// Serialised outputs, borrowed.
        outputs: Vec<BlobRef<'a>>,
    },
    /// See [`Frame::Failed`].
    Failed {
        /// Echoed execution id.
        exec_id: u64,
        /// Human-readable reason.
        message: &'a str,
    },
    /// See [`Frame::Heartbeat`].
    Heartbeat {
        /// Monotonic per-connection sequence number.
        seq: u64,
        /// Sender's clock at transmission, µs on its own epoch.
        t_send_us: u64,
        /// Reserved; see [`Frame::Heartbeat`].
        telemetry: bool,
    },
    /// See [`Frame::HeartbeatAck`].
    HeartbeatAck {
        /// Echoed sequence number.
        seq: u64,
        /// Echo of the probe's `t_send_us` (sender clock).
        t_send_us: u64,
        /// Receiver's clock when the probe arrived.
        recv_us: u64,
        /// Receiver's clock when this ack was built.
        reply_us: u64,
    },
    /// See [`Frame::Data`].
    Data {
        /// The data key.
        key: u64,
        /// The serialised value, borrowed.
        blob: BlobRef<'a>,
    },
    /// See [`Frame::BlockRequest`].
    BlockRequest {
        /// The missing content hash.
        hash: u128,
    },
    /// See [`Frame::BlockData`].
    BlockData {
        /// The content hash.
        hash: u128,
        /// The serialised value, borrowed.
        blob: BlobRef<'a>,
    },
    /// See [`Frame::BlockEvict`].
    BlockEvict {
        /// The evicted content hash.
        hash: u128,
    },
    /// See [`Frame::ClientHello`].
    ClientHello {
        /// Tenant identity.
        tenant: &'a str,
        /// Client-side protocol revision.
        proto: u32,
    },
    /// See [`Frame::SubmitSweep`].
    SubmitSweep {
        /// Display name for the sweep.
        name: &'a str,
        /// The JSON search-space document.
        space_json: &'a str,
        /// Search algorithm.
        algo: &'a str,
        /// Trial budget for the sampling algorithms.
        trials: u32,
        /// RNG seed.
        seed: u64,
        /// Wave size override (0 = server default).
        wave: u32,
    },
    /// See [`Frame::SweepReject`].
    SweepReject {
        /// Machine-readable reject class.
        code: u32,
        /// Human-readable reason.
        message: &'a str,
    },
    /// See [`Frame::SweepStatus`].
    SweepStatus {
        /// Server-assigned sweep id.
        sweep_id: u64,
        /// Lifecycle state.
        state: u32,
        /// Trials finished successfully.
        done: u32,
        /// Trials failed.
        failed: u32,
        /// Total trial budget (0 = unknown).
        total: u32,
        /// Best objective value so far.
        best_acc: f64,
        /// Config label of the best trial so far.
        best_label: &'a str,
        /// Times this sweep's tenant hit its rate limit so far.
        throttled: u64,
        /// Query direction only: subscribe to the live leaderboard.
        follow: u32,
    },
    /// See [`Frame::LeaderboardChunk`].
    LeaderboardChunk {
        /// The sweep the rows belong to.
        sweep_id: u64,
        /// Finished trials, labels borrowed.
        rows: Vec<LeaderRowRef<'a>>,
    },
    /// See [`Frame::CancelSweep`].
    CancelSweep {
        /// The sweep to cancel.
        sweep_id: u64,
    },
    /// See [`Frame::SweepDone`].
    SweepDone {
        /// The finished sweep.
        sweep_id: u64,
        /// Terminal lifecycle state.
        state: u32,
        /// Sweep wall time, µs.
        wall_us: u64,
        /// Empty on success; the error for failed sweeps.
        message: &'a str,
    },
    /// See [`Frame::Shutdown`].
    Shutdown,
}

/// Why a buffer cannot be decoded as a frame. All variants are fatal for
/// the connection — only `Ok(None)` from [`Frame::decode`] means "wait for
/// more bytes".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The first two bytes are not [`MAGIC`].
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame-type byte.
    UnknownFrameType(u8),
    /// Payload length beyond [`MAX_PAYLOAD`].
    Oversize(u64),
    /// The payload did not parse as its frame type.
    Malformed(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad frame magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            DecodeError::Oversize(n) => write!(f, "frame payload of {n} bytes exceeds limit"),
            DecodeError::Malformed(m) => write!(f, "malformed frame payload: {m}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<WireError> for DecodeError {
    fn from(e: WireError) -> Self {
        DecodeError::Malformed(e.0)
    }
}

const T_HELLO: u8 = 1;
const T_SUBMIT: u8 = 2;
const T_DONE: u8 = 3;
const T_FAILED: u8 = 4;
const T_HEARTBEAT: u8 = 5;
const T_HEARTBEAT_ACK: u8 = 6;
const T_DATA: u8 = 8;
const T_SHUTDOWN: u8 = 9;
const T_BLOCK_REQUEST: u8 = 13;
const T_BLOCK_DATA: u8 = 14;
const T_BLOCK_EVICT: u8 = 15;
const T_CLIENT_HELLO: u8 = 16;
const T_SUBMIT_SWEEP: u8 = 17;
const T_SWEEP_REJECT: u8 = 18;
const T_SWEEP_STATUS: u8 = 19;
const T_LEADERBOARD_CHUNK: u8 = 20;
const T_CANCEL_SWEEP: u8 = 21;
const T_SWEEP_DONE: u8 = 22;
/// Type bytes that once named a frame: rejected like a byte that never did,
/// and never reused. 7 was `Fetch` (a worker asking for a snapshot by key),
/// 10 `TraceChunk` and 11 `StatsSnapshot` (worker-shipped telemetry; the
/// `Done` stamps carry the execution span), 12 `BlockPut` (a block pushed
/// ahead of its `Submit`; `BlockData` carries it).
const RETIRED_TYPES: [u8; 4] = [7, 10, 11, 12];

fn put_blob(out: &mut Vec<u8>, blob: &Blob) {
    wire::put_str(out, &blob.tag);
    wire::put_bytes(out, &blob.bytes);
}

fn read_blob_ref<'a>(r: &mut Reader<'a>) -> Result<BlobRef<'a>, WireError> {
    let tag = r.str_ref()?;
    let bytes = r.bytes()?;
    Ok(BlobRef { tag, bytes })
}

/// A 128-bit content hash crosses the wire as two varint u64 halves
/// (high, low) — `wire` only speaks u64-sized integers.
fn put_hash(out: &mut Vec<u8>, hash: u128) {
    wire::put_u64(out, (hash >> 64) as u64);
    wire::put_u64(out, hash as u64);
}

fn read_hash(r: &mut Reader<'_>) -> Result<u128, WireError> {
    let hi = r.u64()?;
    let lo = r.u64()?;
    Ok(((hi as u128) << 64) | lo as u128)
}

/// Scan the frame header at the front of `buf`.
///
/// `Ok(Some((payload_start, total_len, frame_type)))` once the buffer holds
/// a complete frame; `Ok(None)` while it holds only a valid prefix.
/// Validation is eager: corruption in the magic, version, type, or length
/// bytes surfaces before the rest of the frame arrives.
fn frame_extent(buf: &[u8]) -> Result<Option<(usize, usize, u8)>, DecodeError> {
    if !buf.is_empty() && buf[0] != MAGIC[0] {
        return Err(DecodeError::BadMagic);
    }
    if buf.len() >= 2 && buf[..2] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    if buf.len() >= 3 && buf[2] != VERSION {
        return Err(DecodeError::BadVersion(buf[2]));
    }
    if buf.len() >= 4
        && (!(T_HELLO..=T_SWEEP_DONE).contains(&buf[3]) || RETIRED_TYPES.contains(&buf[3]))
    {
        return Err(DecodeError::UnknownFrameType(buf[3]));
    }
    if buf.len() < 4 {
        return Ok(None);
    }
    let (payload_len, len_bytes) = match varint::take(&buf[4..]) {
        varint::Take::Got(v, n) => (v, n),
        varint::Take::Incomplete => return Ok(None),
        varint::Take::Overlong => {
            return Err(DecodeError::Malformed("overlong length prefix".into()))
        }
    };
    if payload_len > MAX_PAYLOAD {
        return Err(DecodeError::Oversize(payload_len));
    }
    let total = 4 + len_bytes + payload_len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((4 + len_bytes, total, buf[3])))
}

/// What precedes a block's bytes in a `BlockData` payload.
fn put_block_head(out: &mut Vec<u8>, hash: u128, blob: &Blob) {
    put_hash(out, hash);
    wire::put_str(out, &blob.tag);
    varint::put(out, blob.bytes.len() as u64);
}

impl Frame {
    fn frame_type(&self) -> u8 {
        match self {
            Frame::Hello { .. } => T_HELLO,
            Frame::Submit { .. } => T_SUBMIT,
            Frame::Done { .. } => T_DONE,
            Frame::Failed { .. } => T_FAILED,
            Frame::Heartbeat { .. } => T_HEARTBEAT,
            Frame::HeartbeatAck { .. } => T_HEARTBEAT_ACK,
            Frame::Data { .. } => T_DATA,
            Frame::BlockRequest { .. } => T_BLOCK_REQUEST,
            Frame::BlockData { .. } => T_BLOCK_DATA,
            Frame::BlockEvict { .. } => T_BLOCK_EVICT,
            Frame::ClientHello { .. } => T_CLIENT_HELLO,
            Frame::SubmitSweep { .. } => T_SUBMIT_SWEEP,
            Frame::SweepReject { .. } => T_SWEEP_REJECT,
            Frame::SweepStatus { .. } => T_SWEEP_STATUS,
            Frame::LeaderboardChunk { .. } => T_LEADERBOARD_CHUNK,
            Frame::CancelSweep { .. } => T_CANCEL_SWEEP,
            Frame::SweepDone { .. } => T_SWEEP_DONE,
            Frame::Shutdown => T_SHUTDOWN,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { name, cores, gpus, mem_gib } => {
                wire::put_str(out, name);
                wire::put_u32(out, *cores);
                wire::put_u32(out, *gpus);
                wire::put_u32(out, *mem_gib);
            }
            Frame::Submit {
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
                wire::put_u64(out, *exec_id);
                wire::put_u64(out, *task_id);
                wire::put_u32(out, *attempt);
                wire::put_u32(out, *node);
                wire::put_u64(out, *fn_id);
                match fn_name {
                    Some(name) => {
                        out.push(1);
                        wire::put_str(out, name);
                    }
                    None => out.push(0),
                }
                wire::put_u32(out, *variant);
                wire::put_u64(out, cores.len() as u64);
                for c in cores {
                    wire::put_u32(out, *c);
                }
                wire::put_u64(out, gpus.len() as u64);
                for g in gpus {
                    wire::put_u32(out, *g);
                }
                wire::put_u64(out, args.len() as u64);
                for arg in args {
                    match arg {
                        WireArg::Inline { key, blob } => {
                            out.push(0);
                            wire::put_u64(out, *key);
                            put_blob(out, blob);
                        }
                        WireArg::Block { key, hash } => {
                            out.push(2);
                            wire::put_u64(out, *key);
                            put_hash(out, *hash);
                        }
                    }
                }
            }
            Frame::Done { exec_id, recv_us, start_us, end_us, outputs } => {
                wire::put_u64(out, *exec_id);
                wire::put_u64(out, *recv_us);
                wire::put_u64(out, *start_us);
                wire::put_u64(out, *end_us);
                wire::put_u64(out, outputs.len() as u64);
                for b in outputs {
                    put_blob(out, b);
                }
            }
            Frame::Failed { exec_id, message } => {
                wire::put_u64(out, *exec_id);
                wire::put_str(out, message);
            }
            Frame::Heartbeat { seq, t_send_us, telemetry } => {
                wire::put_u64(out, *seq);
                wire::put_u64(out, *t_send_us);
                wire::put_u64(out, u64::from(*telemetry));
            }
            Frame::HeartbeatAck { seq, t_send_us, recv_us, reply_us } => {
                wire::put_u64(out, *seq);
                wire::put_u64(out, *t_send_us);
                wire::put_u64(out, *recv_us);
                wire::put_u64(out, *reply_us);
            }
            Frame::Data { key, blob } => {
                wire::put_u64(out, *key);
                put_blob(out, blob);
            }
            Frame::BlockRequest { hash } => put_hash(out, *hash),
            Frame::BlockData { hash, blob } => {
                put_block_head(out, *hash, blob);
                out.extend_from_slice(&blob.bytes);
            }
            Frame::BlockEvict { hash } => put_hash(out, *hash),
            Frame::ClientHello { tenant, proto } => {
                wire::put_str(out, tenant);
                wire::put_u32(out, *proto);
            }
            Frame::SubmitSweep { name, space_json, algo, trials, seed, wave } => {
                wire::put_str(out, name);
                wire::put_str(out, space_json);
                wire::put_str(out, algo);
                wire::put_u32(out, *trials);
                wire::put_u64(out, *seed);
                wire::put_u32(out, *wave);
            }
            Frame::SweepReject { code, message } => {
                wire::put_u32(out, *code);
                wire::put_str(out, message);
            }
            Frame::SweepStatus {
                sweep_id,
                state,
                done,
                failed,
                total,
                best_acc,
                best_label,
                throttled,
                follow,
            } => {
                wire::put_u64(out, *sweep_id);
                wire::put_u32(out, *state);
                wire::put_u32(out, *done);
                wire::put_u32(out, *failed);
                wire::put_u32(out, *total);
                wire::put_f64(out, *best_acc);
                wire::put_str(out, best_label);
                wire::put_u64(out, *throttled);
                wire::put_u32(out, *follow);
            }
            Frame::LeaderboardChunk { sweep_id, rows } => {
                wire::put_u64(out, *sweep_id);
                wire::put_u64(out, rows.len() as u64);
                for row in rows {
                    wire::put_str(out, &row.label);
                    wire::put_f64(out, row.accuracy);
                    wire::put_u32(out, row.epochs);
                    wire::put_u64(out, row.task_us);
                }
            }
            Frame::CancelSweep { sweep_id } => wire::put_u64(out, *sweep_id),
            Frame::SweepDone { sweep_id, state, wall_us, message } => {
                wire::put_u64(out, *sweep_id);
                wire::put_u32(out, *state);
                wire::put_u64(out, *wall_us);
                wire::put_str(out, message);
            }
            Frame::Shutdown => {}
        }
    }

    /// Append the complete frame (header + payload) to `out`.
    ///
    /// The payload is staged in a thread-local scratch buffer (the varint
    /// length prefix needs the payload size before the payload bytes), so
    /// steady-state encoding allocates nothing per frame — at 100k-task
    /// graph sizes the per-`Submit` `Vec` this replaces was a measurable
    /// slice of per-task overhead.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        thread_local! {
            static SCRATCH: std::cell::RefCell<Vec<u8>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        SCRATCH.with(|cell| {
            let mut payload = cell.borrow_mut();
            payload.clear();
            self.encode_payload(&mut payload);
            out.extend_from_slice(&MAGIC);
            out.push(VERSION);
            out.push(self.frame_type());
            varint::put(out, payload.len() as u64);
            out.extend_from_slice(&payload);
            // Don't let one huge Data/Block frame pin its footprint.
            if payload.capacity() > 1024 * 1024 {
                payload.clear();
                payload.shrink_to(1024 * 1024);
            }
        });
    }

    /// Append a complete [`Frame::BlockData`] for a block the caller only
    /// borrows: the bytes [`Frame::encode_into`] gives for the owned frame,
    /// without building one and without staging the block — its bytes are
    /// copied once, from `blob` into `out` (behind
    /// [`crate::SendBuf::push_block`]).
    pub(crate) fn encode_block_data_into(hash: u128, blob: &Blob, out: &mut Vec<u8>) {
        // Two hash halves, a codec tag, a length: small, next to the block.
        let mut head = Vec::with_capacity(64);
        put_block_head(&mut head, hash, blob);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(T_BLOCK_DATA);
        varint::put(out, (head.len() + blob.bytes.len()) as u64);
        out.extend_from_slice(&head);
        out.extend_from_slice(&blob.bytes);
    }

    /// The complete encoded frame as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Try to decode one frame from the front of `buf`.
    ///
    /// * `Ok(Some((frame, consumed)))` — a complete frame; the caller drops
    ///   the first `consumed` bytes and may retry for pipelined frames.
    /// * `Ok(None)` — `buf` holds a valid prefix; read more bytes.
    /// * `Err(_)` — the stream is corrupt; close the connection.
    ///
    /// This is the owning convenience over [`FrameRef::decode`]: it pays
    /// one copy per string/blob field. Hot paths decode a [`FrameRef`] and
    /// borrow instead.
    ///
    /// ```
    /// use rnet::Frame;
    ///
    /// let wire = Frame::BlockRequest { hash: 42 }.encode();
    /// // A prefix asks for more bytes; the full buffer decodes.
    /// assert_eq!(Frame::decode(&wire[..3]).unwrap(), None);
    /// let (frame, used) = Frame::decode(&wire).unwrap().expect("complete");
    /// assert_eq!(frame, Frame::BlockRequest { hash: 42 });
    /// assert_eq!(used, wire.len());
    /// ```
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, DecodeError> {
        Ok(FrameRef::decode(buf)?.map(|(f, n)| (f.to_owned(), n)))
    }
}

impl<'a> FrameRef<'a> {
    fn decode_payload(frame_type: u8, payload: &'a [u8]) -> Result<FrameRef<'a>, DecodeError> {
        let mut r = Reader::new(payload);
        let frame = match frame_type {
            T_HELLO => FrameRef::Hello {
                name: r.str_ref()?,
                cores: r.u32()?,
                gpus: r.u32()?,
                mem_gib: r.u32()?,
            },
            T_SUBMIT => {
                let exec_id = r.u64()?;
                let task_id = r.u64()?;
                let attempt = r.u32()?;
                let node = r.u32()?;
                let fn_id = r.u64()?;
                let fn_name = match r.u64()? {
                    0 => None,
                    1 => Some(r.str_ref()?),
                    other => {
                        return Err(DecodeError::Malformed(format!("bad option flag {other}")))
                    }
                };
                let variant = r.u32()?;
                let n_cores = r.u64()? as usize;
                let cores =
                    (0..n_cores).map(|_| r.u32()).collect::<Result<Vec<u32>, WireError>>()?;
                let n_gpus = r.u64()? as usize;
                let gpus = (0..n_gpus).map(|_| r.u32()).collect::<Result<Vec<u32>, WireError>>()?;
                let n_args = r.u64()? as usize;
                let mut args = Vec::with_capacity(n_args.min(1024));
                for _ in 0..n_args {
                    args.push(match r.u64()? {
                        0 => WireArgRef::Inline { key: r.u64()?, blob: read_blob_ref(&mut r)? },
                        2 => WireArgRef::Block { key: r.u64()?, hash: read_hash(&mut r)? },
                        other => {
                            return Err(DecodeError::Malformed(format!("bad arg kind {other}")))
                        }
                    });
                }
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
                }
            }
            T_DONE => {
                let exec_id = r.u64()?;
                let recv_us = r.u64()?;
                let start_us = r.u64()?;
                let end_us = r.u64()?;
                let n = r.u64()? as usize;
                let mut outputs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    outputs.push(read_blob_ref(&mut r)?);
                }
                FrameRef::Done { exec_id, recv_us, start_us, end_us, outputs }
            }
            T_FAILED => FrameRef::Failed { exec_id: r.u64()?, message: r.str_ref()? },
            T_HEARTBEAT => {
                let seq = r.u64()?;
                let t_send_us = r.u64()?;
                let telemetry = match r.u64()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(DecodeError::Malformed(format!("bad telemetry flag {other}")))
                    }
                };
                FrameRef::Heartbeat { seq, t_send_us, telemetry }
            }
            T_HEARTBEAT_ACK => FrameRef::HeartbeatAck {
                seq: r.u64()?,
                t_send_us: r.u64()?,
                recv_us: r.u64()?,
                reply_us: r.u64()?,
            },
            T_DATA => FrameRef::Data { key: r.u64()?, blob: read_blob_ref(&mut r)? },
            T_BLOCK_REQUEST => FrameRef::BlockRequest { hash: read_hash(&mut r)? },
            T_BLOCK_DATA => {
                FrameRef::BlockData { hash: read_hash(&mut r)?, blob: read_blob_ref(&mut r)? }
            }
            T_BLOCK_EVICT => FrameRef::BlockEvict { hash: read_hash(&mut r)? },
            T_CLIENT_HELLO => FrameRef::ClientHello { tenant: r.str_ref()?, proto: r.u32()? },
            T_SUBMIT_SWEEP => FrameRef::SubmitSweep {
                name: r.str_ref()?,
                space_json: r.str_ref()?,
                algo: r.str_ref()?,
                trials: r.u32()?,
                seed: r.u64()?,
                wave: r.u32()?,
            },
            T_SWEEP_REJECT => FrameRef::SweepReject { code: r.u32()?, message: r.str_ref()? },
            T_SWEEP_STATUS => FrameRef::SweepStatus {
                sweep_id: r.u64()?,
                state: r.u32()?,
                done: r.u32()?,
                failed: r.u32()?,
                total: r.u32()?,
                best_acc: r.f64()?,
                best_label: r.str_ref()?,
                throttled: r.u64()?,
                follow: r.u32()?,
            },
            T_LEADERBOARD_CHUNK => {
                let sweep_id = r.u64()?;
                let n = r.u64()? as usize;
                let mut rows = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    rows.push(LeaderRowRef {
                        label: r.str_ref()?,
                        accuracy: r.f64()?,
                        epochs: r.u32()?,
                        task_us: r.u64()?,
                    });
                }
                FrameRef::LeaderboardChunk { sweep_id, rows }
            }
            T_CANCEL_SWEEP => FrameRef::CancelSweep { sweep_id: r.u64()? },
            T_SWEEP_DONE => FrameRef::SweepDone {
                sweep_id: r.u64()?,
                state: r.u32()?,
                wall_us: r.u64()?,
                message: r.str_ref()?,
            },
            T_SHUTDOWN => FrameRef::Shutdown,
            other => return Err(DecodeError::UnknownFrameType(other)),
        };
        r.finish()?;
        Ok(frame)
    }

    /// Zero-copy decode of one frame from the front of `buf`; the same
    /// contract as [`Frame::decode`], but string and blob fields borrow
    /// from `buf` instead of copying.
    pub fn decode(buf: &'a [u8]) -> Result<Option<(FrameRef<'a>, usize)>, DecodeError> {
        let Some((payload_at, total, frame_type)) = frame_extent(buf)? else {
            return Ok(None);
        };
        let payload = &buf[payload_at..total];
        Ok(Some((Self::decode_payload(frame_type, payload)?, total)))
    }

    /// Materialise an owned [`Frame`], copying every borrowed field.
    pub fn to_owned(&self) -> Frame {
        match self {
            FrameRef::Hello { name, cores, gpus, mem_gib } => Frame::Hello {
                name: name.to_string(),
                cores: *cores,
                gpus: *gpus,
                mem_gib: *mem_gib,
            },
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
            } => Frame::Submit {
                exec_id: *exec_id,
                task_id: *task_id,
                attempt: *attempt,
                node: *node,
                fn_id: *fn_id,
                fn_name: fn_name.map(|s| s.to_string()),
                variant: *variant,
                cores: cores.clone(),
                gpus: gpus.clone(),
                args: args.iter().map(|a| a.to_owned()).collect(),
            },
            FrameRef::Done { exec_id, recv_us, start_us, end_us, outputs } => Frame::Done {
                exec_id: *exec_id,
                recv_us: *recv_us,
                start_us: *start_us,
                end_us: *end_us,
                outputs: outputs.iter().map(|b| b.to_owned()).collect(),
            },
            FrameRef::Failed { exec_id, message } => {
                Frame::Failed { exec_id: *exec_id, message: message.to_string() }
            }
            FrameRef::Heartbeat { seq, t_send_us, telemetry } => {
                Frame::Heartbeat { seq: *seq, t_send_us: *t_send_us, telemetry: *telemetry }
            }
            FrameRef::HeartbeatAck { seq, t_send_us, recv_us, reply_us } => Frame::HeartbeatAck {
                seq: *seq,
                t_send_us: *t_send_us,
                recv_us: *recv_us,
                reply_us: *reply_us,
            },
            FrameRef::Data { key, blob } => Frame::Data { key: *key, blob: blob.to_owned() },
            FrameRef::BlockRequest { hash } => Frame::BlockRequest { hash: *hash },
            FrameRef::BlockData { hash, blob } => {
                Frame::BlockData { hash: *hash, blob: blob.to_owned() }
            }
            FrameRef::BlockEvict { hash } => Frame::BlockEvict { hash: *hash },
            FrameRef::ClientHello { tenant, proto } => {
                Frame::ClientHello { tenant: tenant.to_string(), proto: *proto }
            }
            FrameRef::SubmitSweep { name, space_json, algo, trials, seed, wave } => {
                Frame::SubmitSweep {
                    name: name.to_string(),
                    space_json: space_json.to_string(),
                    algo: algo.to_string(),
                    trials: *trials,
                    seed: *seed,
                    wave: *wave,
                }
            }
            FrameRef::SweepReject { code, message } => {
                Frame::SweepReject { code: *code, message: message.to_string() }
            }
            FrameRef::SweepStatus {
                sweep_id,
                state,
                done,
                failed,
                total,
                best_acc,
                best_label,
                throttled,
                follow,
            } => Frame::SweepStatus {
                sweep_id: *sweep_id,
                state: *state,
                done: *done,
                failed: *failed,
                total: *total,
                best_acc: *best_acc,
                best_label: best_label.to_string(),
                throttled: *throttled,
                follow: *follow,
            },
            FrameRef::LeaderboardChunk { sweep_id, rows } => Frame::LeaderboardChunk {
                sweep_id: *sweep_id,
                rows: rows.iter().map(|row| row.to_owned()).collect(),
            },
            FrameRef::CancelSweep { sweep_id } => Frame::CancelSweep { sweep_id: *sweep_id },
            FrameRef::SweepDone { sweep_id, state, wall_us, message } => Frame::SweepDone {
                sweep_id: *sweep_id,
                state: *state,
                wall_us: *wall_us,
                message: message.to_string(),
            },
            FrameRef::Shutdown => Frame::Shutdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { name: "127.0.0.1:7077".into(), cores: 4, gpus: 1, mem_gib: 32 },
            Frame::Submit {
                exec_id: 42,
                task_id: 7,
                attempt: 2,
                node: 1,
                fn_id: 3,
                fn_name: Some("graph.experiment".into()),
                variant: 0,
                cores: vec![0, 1],
                gpus: vec![],
                args: vec![
                    WireArg::Inline {
                        key: (9 << 32) | 1,
                        blob: Blob { tag: "hpo.config".into(), bytes: vec![1, 2, 3] },
                    },
                    WireArg::Block { key: (11 << 32) | 2, hash: 0xdead_beef_u128 << 64 | 7 },
                ],
            },
            Frame::Submit {
                exec_id: 43,
                task_id: 8,
                attempt: 1,
                node: 0,
                fn_id: 3,
                fn_name: None,
                variant: 1,
                cores: vec![],
                gpus: vec![0],
                args: vec![],
            },
            Frame::Done {
                exec_id: 42,
                recv_us: 10_000,
                start_us: 10_050,
                end_us: 25_000,
                outputs: vec![Blob { tag: "hpo.trial".into(), bytes: vec![0xab; 100] }],
            },
            Frame::Done { exec_id: 44, recv_us: 0, start_us: 0, end_us: 0, outputs: vec![] },
            Frame::Failed { exec_id: 43, message: "task panicked: boom".into() },
            Frame::Heartbeat { seq: 9, t_send_us: 123_456, telemetry: true },
            Frame::Heartbeat { seq: 10, t_send_us: 123_789, telemetry: false },
            Frame::HeartbeatAck { seq: 9, t_send_us: 123_456, recv_us: 99_000, reply_us: 99_004 },
            Frame::Data { key: 1 << 40, blob: Blob { tag: "ckpt.snap".into(), bytes: vec![5] } },
            Frame::BlockRequest { hash: 1 },
            Frame::BlockData {
                hash: u128::MAX - 3,
                blob: Blob { tag: "tinyml.dataset".into(), bytes: vec![0x5a; 256] },
            },
            Frame::BlockData {
                hash: 1,
                blob: Blob { tag: "tinyml.dataset".into(), bytes: vec![] },
            },
            Frame::BlockEvict { hash: 0x0123_4567_89ab_cdef_u128 << 64 },
            Frame::ClientHello { tenant: "acme".into(), proto: 1 },
            Frame::SubmitSweep {
                name: "nightly".into(),
                space_json: r#"{"batch_size":[32,64]}"#.into(),
                algo: "grid".into(),
                trials: 0,
                seed: 42,
                wave: 0,
            },
            Frame::SweepReject { code: 1, message: "sweep queue full".into() },
            Frame::SweepStatus {
                sweep_id: 3,
                state: 1,
                done: 5,
                failed: 1,
                total: 8,
                best_acc: 0.91,
                best_label: "optimizer=Adam num_epochs=2".into(),
                throttled: 4,
                follow: 0,
            },
            Frame::SweepStatus {
                sweep_id: 3,
                state: 0,
                done: 0,
                failed: 0,
                total: 0,
                best_acc: 0.0,
                best_label: String::new(),
                throttled: 0,
                follow: 1,
            },
            Frame::LeaderboardChunk {
                sweep_id: 3,
                rows: vec![
                    LeaderRow {
                        label: "optimizer=Adam num_epochs=2".into(),
                        accuracy: 0.91,
                        epochs: 2,
                        task_us: 123_456,
                    },
                    LeaderRow {
                        label: "optimizer=SGD num_epochs=1".into(),
                        accuracy: 0.72,
                        epochs: 1,
                        task_us: 60_000,
                    },
                ],
            },
            Frame::LeaderboardChunk { sweep_id: 9, rows: vec![] },
            Frame::CancelSweep { sweep_id: 3 },
            Frame::SweepDone { sweep_id: 3, state: 2, wall_us: 5_000_000, message: String::new() },
            Frame::SweepDone { sweep_id: 4, state: 3, wall_us: 1, message: "space parse".into() },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn every_frame_type_roundtrips() {
        for frame in sample_frames() {
            let buf = frame.encode();
            let (decoded, used) = Frame::decode(&buf).unwrap().expect("complete frame");
            assert_eq!(decoded, frame);
            assert_eq!(used, buf.len(), "whole buffer consumed for {frame:?}");
        }
    }

    #[test]
    fn truncated_frames_wait_for_more_bytes() {
        for frame in sample_frames() {
            let buf = frame.encode();
            for cut in 0..buf.len() {
                assert_eq!(
                    Frame::decode(&buf[..cut]).unwrap(),
                    None,
                    "prefix of {cut} bytes of {frame:?} must not decode"
                );
            }
        }
    }

    #[test]
    fn pipelined_frames_decode_one_at_a_time() {
        let mut buf = Vec::new();
        for f in sample_frames() {
            f.encode_into(&mut buf);
        }
        let mut at = 0;
        let mut seen = Vec::new();
        while let Some((f, n)) = Frame::decode(&buf[at..]).unwrap() {
            seen.push(f);
            at += n;
        }
        assert_eq!(seen, sample_frames());
        assert_eq!(at, buf.len());
    }

    #[test]
    fn bad_magic_is_rejected_immediately() {
        assert_eq!(Frame::decode(b"XN\x01\x05"), Err(DecodeError::BadMagic));
        assert_eq!(Frame::decode(b"RX\x01\x05"), Err(DecodeError::BadMagic));
        // ...even from the very first byte.
        assert_eq!(Frame::decode(b"G"), Err(DecodeError::BadMagic));
    }

    #[test]
    fn wrong_version_unknown_and_retired_types_are_rejected() {
        assert_eq!(Frame::decode(b"RN\x02\x05\x00"), Err(DecodeError::BadVersion(2)));
        assert_eq!(Frame::decode(b"RN\x01\x63\x00"), Err(DecodeError::UnknownFrameType(0x63)));
        assert_eq!(Frame::decode(b"RN\x01\x00\x00"), Err(DecodeError::UnknownFrameType(0)));
        // Retired types (`Fetch`, `TraceChunk`, `StatsSnapshot`, `BlockPut`):
        // once valid, each is rejected like a type that never was, whatever
        // follows the header.
        for t in [7u8, 10, 11, 12] {
            let unknown = Err(DecodeError::UnknownFrameType(t));
            assert_eq!(Frame::decode(&[b'R', b'N', 1, t]), unknown);
            assert_eq!(Frame::decode(&[b'R', b'N', 1, t, 1, 0x2a]), unknown);
        }
    }

    #[test]
    fn oversize_payload_rejected_without_allocation() {
        let mut buf = b"RN\x01\x05".to_vec();
        varint::put(&mut buf, MAX_PAYLOAD + 1);
        assert_eq!(Frame::decode(&buf), Err(DecodeError::Oversize(MAX_PAYLOAD + 1)));
    }

    #[test]
    fn malformed_payload_rejected() {
        // A Failed frame whose payload stops mid-string.
        let good = Frame::Failed { exec_id: 1, message: "xyz".into() }.encode();
        let mut bad = b"RN\x01\x04".to_vec();
        // keep 3 payload bytes of the original 5+
        let payload = &good[5..8];
        varint::put(&mut bad, payload.len() as u64);
        bad.extend_from_slice(payload);
        assert!(matches!(Frame::decode(&bad), Err(DecodeError::Malformed(_))));
        // Trailing payload bytes are equally malformed (BlockRequest = two
        // one-byte varints here).
        let mut padded = b"RN\x01\x0d".to_vec();
        varint::put(&mut padded, 3);
        padded.extend_from_slice(&[1, 0, 0]);
        assert!(matches!(Frame::decode(&padded), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn unknown_and_retired_arg_kinds_are_malformed() {
        // All-zero block arg: the payload ends `n_args=1, kind=2, key=0,
        // hash hi=0, hash lo=0`, one varint byte each, so the kind byte sits
        // four from the end. Kind 1 was `Cached` (retired); 3 was never used.
        let good = Frame::Submit {
            exec_id: 1,
            task_id: 1,
            attempt: 1,
            node: 0,
            fn_id: 1,
            fn_name: None,
            variant: 0,
            cores: vec![],
            gpus: vec![],
            args: vec![WireArg::Block { key: 0, hash: 0 }],
        }
        .encode();
        let at = good.len() - 4;
        assert_eq!(good[at], 2);
        for kind in [1u8, 3] {
            let mut bad = good.clone();
            bad[at] = kind;
            assert_eq!(
                Frame::decode(&bad),
                Err(DecodeError::Malformed(format!("bad arg kind {kind}")))
            );
        }
    }

    #[test]
    fn ref_decode_matches_owned_decode() {
        for frame in sample_frames() {
            let buf = frame.encode();
            let (as_ref, used) = FrameRef::decode(&buf).unwrap().expect("complete frame");
            assert_eq!(as_ref.to_owned(), frame);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn ref_decode_borrows_blob_bytes_in_place() {
        let frame = Frame::Done {
            exec_id: 5,
            recv_us: 1,
            start_us: 2,
            end_us: 3,
            outputs: vec![Blob { tag: "hpo.trial".into(), bytes: vec![7; 64] }],
        };
        let buf = frame.encode();
        let (decoded, _) = FrameRef::decode(&buf).unwrap().unwrap();
        let FrameRef::Done { outputs, .. } = decoded else { panic!("wrong frame") };
        let range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
        assert!(range.contains(&(outputs[0].bytes.as_ptr() as usize)), "payload not copied");
        assert!(range.contains(&(outputs[0].tag.as_ptr() as usize)), "tag not copied");
    }

    #[test]
    fn heartbeat_is_tiny() {
        // seq + a realistic µs timestamp + flag: still well under one
        // cache line even with varint worst cases.
        let hb = Frame::Heartbeat { seq: 1, t_send_us: 3_600_000_000, telemetry: false };
        assert!(hb.encode().len() <= 16, "heartbeats stay tiny: {}", hb.encode().len());
        let ack = Frame::HeartbeatAck {
            seq: 1,
            t_send_us: 3_600_000_000,
            recv_us: 3_600_000_100,
            reply_us: 3_600_000_101,
        };
        assert!(ack.encode().len() <= 32, "acks stay tiny: {}", ack.encode().len());
        assert_eq!(Frame::Shutdown.encode().len(), 5);
    }

    #[test]
    fn bad_telemetry_flag_is_malformed() {
        let good = Frame::Heartbeat { seq: 1, t_send_us: 2, telemetry: true }.encode();
        let mut bad = good.clone();
        *bad.last_mut().unwrap() = 7; // flag byte must be 0 or 1
        assert!(matches!(Frame::decode(&bad), Err(DecodeError::Malformed(_))));
    }
}
