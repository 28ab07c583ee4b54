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
//! Every frame is defined once, in [`FrameOf`], generic over how strings
//! and byte strings are held: [`Frame`] owns them, [`FrameRef`] borrows them
//! (from the buffer it was decoded from, or from what a sender keeps), and
//! so do the parts, [`Blob`] / [`BlobRef`] and so on. One encoder serves
//! both forms, byte for byte, and one decoder is instantiated for each.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlobOf<S, B> {
    /// Codec tag.
    pub tag: S,
    /// Encoded value.
    pub bytes: B,
}

/// A [`BlobOf`] that owns its tag and bytes.
pub type Blob = BlobOf<String, Vec<u8>>;

/// A [`BlobOf`] that borrows its tag and bytes.
pub type BlobRef<'a> = BlobOf<&'a str, &'a [u8]>;

impl<S: AsRef<str>, B: AsRef<[u8]>> BlobOf<S, B> {
    /// Borrow tag and bytes, e.g. to send a kept blob in a [`FrameRef`].
    pub fn as_ref(&self) -> BlobRef<'_> {
        BlobOf { tag: self.tag.as_ref(), bytes: self.bytes.as_ref() }
    }
}

/// One task input as shipped in a [`Frame::Submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireArgOf<S, B> {
    /// Value shipped inline: the worker decodes it straight into the
    /// queued job. `key` names the data version in traces and debug
    /// output; nothing is indexed by it.
    Inline {
        /// Driver-side data key (`handle << 32 | version`).
        key: u64,
        /// The serialised value.
        blob: BlobOf<S, B>,
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

/// A [`WireArgOf`] that owns its blob.
pub type WireArg = WireArgOf<String, Vec<u8>>;

/// A [`WireArgOf`] that borrows its blob.
pub type WireArgRef<'a> = WireArgOf<&'a str, &'a [u8]>;

/// One leaderboard entry as streamed in a [`Frame::LeaderboardChunk`]:
/// a finished trial's config label and headline numbers. The protocol
/// layer carries the rows; what "accuracy" means is the application's
/// business.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaderRowOf<S> {
    /// Human-readable config label (e.g. `optimizer=Adam num_epochs=2`).
    pub label: S,
    /// Final objective value (higher is better).
    pub accuracy: f64,
    /// Epochs actually run (early-stopped trials report fewer).
    pub epochs: u32,
    /// Task wall time, µs.
    pub task_us: u64,
}

/// A [`LeaderRowOf`] that owns its label.
pub type LeaderRow = LeaderRowOf<String>;

/// A [`LeaderRowOf`] that borrows its label.
pub type LeaderRowRef<'a> = LeaderRowOf<&'a str>;

impl<S: AsRef<str>> LeaderRowOf<S> {
    /// Borrow the label, e.g. to send a kept row in a [`FrameRef`].
    pub fn as_ref(&self) -> LeaderRowRef<'_> {
        let LeaderRowOf { ref label, accuracy, epochs, task_us } = *self;
        LeaderRowOf { label: label.as_ref(), accuracy, epochs, task_us }
    }
}

/// Every message of the protocol, with strings held as `S` and byte
/// strings as `B`: see [`Frame`] and [`FrameRef`].
#[derive(Debug, Clone, PartialEq)]
pub enum FrameOf<S, B> {
    /// Worker → driver, once per connection: resource registration.
    Hello {
        /// Worker display name (defaults to its listen address).
        name: S,
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
        fn_name: Option<S>,
        /// Which task implementation to run (0 = primary).
        variant: u32,
        /// Exact core ids granted on the worker.
        cores: Vec<u32>,
        /// Exact GPU ids granted on the worker.
        gpus: Vec<u32>,
        /// Inputs, in argument order.
        args: Vec<WireArgOf<S, B>>,
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
        outputs: Vec<BlobOf<S, B>>,
    },
    /// Worker → driver: task attempt failed (body error or panic).
    Failed {
        /// Echoed execution id.
        exec_id: u64,
        /// Human-readable reason.
        message: S,
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
        blob: BlobOf<S, B>,
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
        blob: BlobOf<S, B>,
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
        tenant: S,
        /// Client-side protocol revision (forward-compat gate).
        proto: u32,
    },
    /// Client → server: run one hyperparameter sweep on the shared pool.
    SubmitSweep {
        /// Display name for the sweep (logs, metrics labels).
        name: S,
        /// The JSON search-space document (the paper's config file).
        space_json: S,
        /// Search algorithm (`grid` | `random` | `tpe` | `bayes`).
        algo: S,
        /// Trial budget for the sampling algorithms (grid ignores it).
        trials: u32,
        /// RNG seed — same seed + space + algo ⇒ same trial sequence.
        seed: u64,
        /// Wave size: at most this many trials per round (0 = no bound).
        wave: u32,
    },
    /// Server → client: a request was refused (admission control, quota,
    /// malformed space, unknown sweep). The typed error frame of the
    /// client plane: `code` is machine-readable, `message` for humans.
    SweepReject {
        /// Machine-readable reject class (see the application's catalogue).
        code: u32,
        /// Human-readable reason.
        message: S,
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
        best_label: S,
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
        rows: Vec<LeaderRowOf<S>>,
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
        message: S,
    },
    /// Driver → worker: drain and close the connection.
    Shutdown,
}

/// A [`FrameOf`] that owns its strings and bytes: what outlives the buffer
/// it came from, and what tests and the blocking [`crate::read_frame`] use.
pub type Frame = FrameOf<String, Vec<u8>>;

/// A [`FrameOf`] that borrows its strings and bytes.
///
/// Decoded, it points straight into the receive buffer, so a hot loop can
/// hand a `Done` frame's outputs to the value codecs without an
/// intermediate copy; call [`FrameRef::to_owned`] when the data must
/// outlive the buffer (which invalidates on the next compaction or fill).
/// Sent, it encodes from what the sender keeps, without an owned copy.
///
/// ```
/// use rnet::{Frame, FrameRef};
///
/// let hb = Frame::Heartbeat { seq: 7, t_send_us: 1_000, telemetry: false };
/// let wire = hb.encode();
/// let (frame, used) = FrameRef::decode(&wire).unwrap().expect("complete");
/// assert_eq!(used, wire.len());
/// assert!(matches!(frame, FrameRef::Heartbeat { seq: 7, .. }));
/// assert_eq!(frame.encode(), wire);
/// assert_eq!(frame.to_owned(), hb);
/// ```
pub type FrameRef<'a> = FrameOf<&'a str, &'a [u8]>;

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

/// Put a blob's tag and length, and return its bytes, which come next.
fn put_blob_head<'b, S: AsRef<str>, B: AsRef<[u8]>>(
    out: &mut Vec<u8>,
    blob: &'b BlobOf<S, B>,
) -> &'b [u8] {
    wire::put_str(out, blob.tag.as_ref());
    let bytes = blob.bytes.as_ref();
    varint::put(out, bytes.len() as u64);
    bytes
}

fn put_blob<S: AsRef<str>, B: AsRef<[u8]>>(out: &mut Vec<u8>, blob: &BlobOf<S, B>) {
    let bytes = put_blob_head(out, blob);
    out.extend_from_slice(bytes);
}

fn read_str<'a, S: From<&'a str>>(r: &mut Reader<'a>) -> Result<S, WireError> {
    Ok(r.str_ref()?.into())
}

fn read_blob<'a, S: From<&'a str>, B: From<&'a [u8]>>(
    r: &mut Reader<'a>,
) -> Result<BlobOf<S, B>, WireError> {
    Ok(BlobOf { tag: read_str(r)?, bytes: r.bytes()?.into() })
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

impl<S, B> FrameOf<S, B> {
    fn frame_type(&self) -> u8 {
        match self {
            FrameOf::Hello { .. } => T_HELLO,
            FrameOf::Submit { .. } => T_SUBMIT,
            FrameOf::Done { .. } => T_DONE,
            FrameOf::Failed { .. } => T_FAILED,
            FrameOf::Heartbeat { .. } => T_HEARTBEAT,
            FrameOf::HeartbeatAck { .. } => T_HEARTBEAT_ACK,
            FrameOf::Data { .. } => T_DATA,
            FrameOf::BlockRequest { .. } => T_BLOCK_REQUEST,
            FrameOf::BlockData { .. } => T_BLOCK_DATA,
            FrameOf::BlockEvict { .. } => T_BLOCK_EVICT,
            FrameOf::ClientHello { .. } => T_CLIENT_HELLO,
            FrameOf::SubmitSweep { .. } => T_SUBMIT_SWEEP,
            FrameOf::SweepReject { .. } => T_SWEEP_REJECT,
            FrameOf::SweepStatus { .. } => T_SWEEP_STATUS,
            FrameOf::LeaderboardChunk { .. } => T_LEADERBOARD_CHUNK,
            FrameOf::CancelSweep { .. } => T_CANCEL_SWEEP,
            FrameOf::SweepDone { .. } => T_SWEEP_DONE,
            FrameOf::Shutdown => T_SHUTDOWN,
        }
    }
}

impl<S: AsRef<str>, B: AsRef<[u8]>> FrameOf<S, B> {
    /// Put the payload into `out`, except for the bytes of the blob a `Data`
    /// or `BlockData` payload ends with: those come back, to be copied once.
    fn encode_payload(&self, out: &mut Vec<u8>) -> &[u8] {
        match self {
            FrameOf::Hello { name, cores, gpus, mem_gib } => {
                wire::put_str(out, name.as_ref());
                wire::put_u32(out, *cores);
                wire::put_u32(out, *gpus);
                wire::put_u32(out, *mem_gib);
            }
            FrameOf::Submit {
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
                        wire::put_str(out, name.as_ref());
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
                        WireArgOf::Inline { key, blob } => {
                            out.push(0);
                            wire::put_u64(out, *key);
                            put_blob(out, blob);
                        }
                        WireArgOf::Block { key, hash } => {
                            out.push(2);
                            wire::put_u64(out, *key);
                            put_hash(out, *hash);
                        }
                    }
                }
            }
            FrameOf::Done { exec_id, recv_us, start_us, end_us, outputs } => {
                wire::put_u64(out, *exec_id);
                wire::put_u64(out, *recv_us);
                wire::put_u64(out, *start_us);
                wire::put_u64(out, *end_us);
                wire::put_u64(out, outputs.len() as u64);
                for b in outputs {
                    put_blob(out, b);
                }
            }
            FrameOf::Failed { exec_id, message } => {
                wire::put_u64(out, *exec_id);
                wire::put_str(out, message.as_ref());
            }
            FrameOf::Heartbeat { seq, t_send_us, telemetry } => {
                wire::put_u64(out, *seq);
                wire::put_u64(out, *t_send_us);
                wire::put_u64(out, u64::from(*telemetry));
            }
            FrameOf::HeartbeatAck { seq, t_send_us, recv_us, reply_us } => {
                wire::put_u64(out, *seq);
                wire::put_u64(out, *t_send_us);
                wire::put_u64(out, *recv_us);
                wire::put_u64(out, *reply_us);
            }
            FrameOf::Data { key, blob } => {
                wire::put_u64(out, *key);
                return put_blob_head(out, blob);
            }
            FrameOf::BlockRequest { hash } => put_hash(out, *hash),
            FrameOf::BlockData { hash, blob } => {
                put_hash(out, *hash);
                return put_blob_head(out, blob);
            }
            FrameOf::BlockEvict { hash } => put_hash(out, *hash),
            FrameOf::ClientHello { tenant, proto } => {
                wire::put_str(out, tenant.as_ref());
                wire::put_u32(out, *proto);
            }
            FrameOf::SubmitSweep { name, space_json, algo, trials, seed, wave } => {
                wire::put_str(out, name.as_ref());
                wire::put_str(out, space_json.as_ref());
                wire::put_str(out, algo.as_ref());
                wire::put_u32(out, *trials);
                wire::put_u64(out, *seed);
                wire::put_u32(out, *wave);
            }
            FrameOf::SweepReject { code, message } => {
                wire::put_u32(out, *code);
                wire::put_str(out, message.as_ref());
            }
            FrameOf::SweepStatus {
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
                wire::put_str(out, best_label.as_ref());
                wire::put_u64(out, *throttled);
                wire::put_u32(out, *follow);
            }
            FrameOf::LeaderboardChunk { sweep_id, rows } => {
                wire::put_u64(out, *sweep_id);
                wire::put_u64(out, rows.len() as u64);
                for row in rows {
                    wire::put_str(out, row.label.as_ref());
                    wire::put_f64(out, row.accuracy);
                    wire::put_u32(out, row.epochs);
                    wire::put_u64(out, row.task_us);
                }
            }
            FrameOf::CancelSweep { sweep_id } => wire::put_u64(out, *sweep_id),
            FrameOf::SweepDone { sweep_id, state, wall_us, message } => {
                wire::put_u64(out, *sweep_id);
                wire::put_u32(out, *state);
                wire::put_u64(out, *wall_us);
                wire::put_str(out, message.as_ref());
            }
            FrameOf::Shutdown => {}
        }
        &[]
    }

    /// Append the complete frame (header + payload) to `out`. An owned
    /// frame and its borrowed twin append the same bytes.
    ///
    /// The payload is staged in a thread-local scratch buffer (the varint
    /// length prefix needs the payload size before the payload bytes), so
    /// steady-state encoding allocates nothing per frame — at 100k-task
    /// graph sizes the per-`Submit` `Vec` this replaces was a measurable
    /// slice of per-task overhead. A snapshot's or a block's bytes are not
    /// staged: they go from the frame's blob straight into `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        thread_local! {
            static SCRATCH: std::cell::RefCell<Vec<u8>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        SCRATCH.with(|cell| {
            let mut payload = cell.borrow_mut();
            payload.clear();
            let tail = self.encode_payload(&mut payload);
            out.extend_from_slice(&MAGIC);
            out.push(VERSION);
            out.push(self.frame_type());
            varint::put(out, (payload.len() + tail.len()) as u64);
            out.extend_from_slice(&payload);
            out.extend_from_slice(tail);
            // Don't let one huge Done or Submit pin its footprint.
            if payload.capacity() > 1024 * 1024 {
                payload.clear();
                payload.shrink_to(1024 * 1024);
            }
        });
    }

    /// The complete encoded frame as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

impl<'a, S: From<&'a str>, B: From<&'a [u8]>> FrameOf<S, B> {
    fn decode_payload(frame_type: u8, payload: &'a [u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let frame = match frame_type {
            T_HELLO => FrameOf::Hello {
                name: read_str(&mut r)?,
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
                    1 => Some(read_str(&mut r)?),
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
                        0 => WireArgOf::Inline { key: r.u64()?, blob: read_blob(&mut r)? },
                        2 => WireArgOf::Block { key: r.u64()?, hash: read_hash(&mut r)? },
                        other => {
                            return Err(DecodeError::Malformed(format!("bad arg kind {other}")))
                        }
                    });
                }
                FrameOf::Submit {
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
                    outputs.push(read_blob(&mut r)?);
                }
                FrameOf::Done { exec_id, recv_us, start_us, end_us, outputs }
            }
            T_FAILED => FrameOf::Failed { exec_id: r.u64()?, message: read_str(&mut r)? },
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
                FrameOf::Heartbeat { seq, t_send_us, telemetry }
            }
            T_HEARTBEAT_ACK => FrameOf::HeartbeatAck {
                seq: r.u64()?,
                t_send_us: r.u64()?,
                recv_us: r.u64()?,
                reply_us: r.u64()?,
            },
            T_DATA => FrameOf::Data { key: r.u64()?, blob: read_blob(&mut r)? },
            T_BLOCK_REQUEST => FrameOf::BlockRequest { hash: read_hash(&mut r)? },
            T_BLOCK_DATA => {
                FrameOf::BlockData { hash: read_hash(&mut r)?, blob: read_blob(&mut r)? }
            }
            T_BLOCK_EVICT => FrameOf::BlockEvict { hash: read_hash(&mut r)? },
            T_CLIENT_HELLO => FrameOf::ClientHello { tenant: read_str(&mut r)?, proto: r.u32()? },
            T_SUBMIT_SWEEP => FrameOf::SubmitSweep {
                name: read_str(&mut r)?,
                space_json: read_str(&mut r)?,
                algo: read_str(&mut r)?,
                trials: r.u32()?,
                seed: r.u64()?,
                wave: r.u32()?,
            },
            T_SWEEP_REJECT => FrameOf::SweepReject { code: r.u32()?, message: read_str(&mut r)? },
            T_SWEEP_STATUS => FrameOf::SweepStatus {
                sweep_id: r.u64()?,
                state: r.u32()?,
                done: r.u32()?,
                failed: r.u32()?,
                total: r.u32()?,
                best_acc: r.f64()?,
                best_label: read_str(&mut r)?,
                throttled: r.u64()?,
                follow: r.u32()?,
            },
            T_LEADERBOARD_CHUNK => {
                let sweep_id = r.u64()?;
                let n = r.u64()? as usize;
                let mut rows = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    rows.push(LeaderRowOf {
                        label: read_str(&mut r)?,
                        accuracy: r.f64()?,
                        epochs: r.u32()?,
                        task_us: r.u64()?,
                    });
                }
                FrameOf::LeaderboardChunk { sweep_id, rows }
            }
            T_CANCEL_SWEEP => FrameOf::CancelSweep { sweep_id: r.u64()? },
            T_SWEEP_DONE => FrameOf::SweepDone {
                sweep_id: r.u64()?,
                state: r.u32()?,
                wall_us: r.u64()?,
                message: read_str(&mut r)?,
            },
            T_SHUTDOWN => FrameOf::Shutdown,
            other => return Err(DecodeError::UnknownFrameType(other)),
        };
        r.finish()?;
        Ok(frame)
    }

    /// Try to decode one frame from the front of `buf`.
    ///
    /// * `Ok(Some((frame, consumed)))` — a complete frame; the caller drops
    ///   the first `consumed` bytes and may retry for pipelined frames.
    /// * `Ok(None)` — `buf` holds a valid prefix; read more bytes.
    /// * `Err(_)` — the stream is corrupt; close the connection.
    ///
    /// [`FrameRef::decode`] borrows every string and blob from `buf`;
    /// [`Frame::decode`] copies each one.
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
    pub fn decode(buf: &'a [u8]) -> Result<Option<(Self, usize)>, DecodeError> {
        let Some((payload_at, total, frame_type)) = frame_extent(buf)? else {
            return Ok(None);
        };
        Ok(Some((Self::decode_payload(frame_type, &buf[payload_at..total])?, total)))
    }
}

impl FrameRef<'_> {
    /// Materialise an owned [`Frame`], copying every borrowed field: the
    /// owned decode of this frame's own payload.
    pub fn to_owned(&self) -> Frame {
        let mut payload = Vec::new();
        let tail = self.encode_payload(&mut payload);
        payload.extend_from_slice(tail);
        Frame::decode_payload(self.frame_type(), &payload).expect("the decoder reads the encoder")
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
