//! Distributed backend: real execution on remote worker daemons over TCP,
//! built on a readiness-driven event loop.
//!
//! # Architecture
//!
//! Both sides of the wire are single-threaded event loops over
//! non-blocking sockets ([`rnet::poll::Poller`], an epoll instance), with
//! per-connection reusable buffers ([`rnet::nonblock::RecvBuf`] /
//! [`rnet::nonblock::SendBuf`]) instead of per-connection blocking threads:
//!
//! * **Driver.** One loop thread owns readiness for every worker link plus
//!   a self-pipe [`rnet::poll::Waker`]. A readable event drains the socket
//!   into the link's `RecvBuf` and decodes frames *zero-copy*
//!   ([`rnet::FrameRef`] borrows the buffer; `Done` outputs go straight
//!   into [`crate::codec::decode_tagged`] without an owned `Blob`). A
//!   writable event resumes draining the link's `SendBuf`. Heartbeats are
//!   paced by the poll timeout — no separate monitor thread. Every socket
//!   is registered before the loop starts, and the waker only interrupts a
//!   poll for shutdown. What to do with each read, tick and dispatch is
//!   decided by a sans-IO `DriverState` (`driver/state.rs`); the loop and
//!   the submitting threads carry its actions out.
//! * **Worker.** One loop thread owns the listener and every driver
//!   connection. Executor threads push result frames into the
//!   connection's shared `SendBuf` and flush it straight to the socket;
//!   only when the socket pushes back do they nudge the loop via the
//!   waker, which flushes and re-arms write interest as needed. A fast job
//!   the loop may run itself skips the executor: its `Done` waits in the
//!   `SendBuf` for the loop's flush pass, one write for the turn's answers.
//!
//! # Worker state
//!
//! | a sans-IO `WorkerState` per connection (`worker/state.rs`) decides | the shell does |
//! |---|---|
//! | function names, each `Data` snapshot held until its task's `Submit`, inline-argument decoding and the `Failed` for a bad one, the heartbeat ack, `Shutdown` and close | reads frames off the `Link`, stamps them with its clock, pushes what the state queued; `halt` and `drop_connections` |
//! | the core gate: arrival order, dispatch-ahead holds, release | one `Mutex<WorkerState>` per connection with a job and a block condvar on it; the executor threads, which time each body, report its time and encode its outputs |
//! | the inline run: a `Submit` that finds no core held and no job waiting, needs no block, and whose function's last `INLINE_STREAK` bodies each took at most `INLINE_BUDGET_US`, runs on the loop thread while the turn's inline bodies stay under that budget | runs the job as an executor does, reports the body's time, leaves its `Done` unflushed for the flush pass; `worker_tasks_inline_total` |
//! | the block cache: in-flight requests, evictions to report, the fetch deadline, undecodable bytes | pushes `BlockRequest`s with the state's lock released, sleeps until the deadline, moves the resident gauge |
//!
//! # Connection state machine
//!
//! Each connection cycles through: read-buffer accumulation → in-place
//! frame decode → dispatch → write-buffer drain. Both loops run it as an
//! [`rnet::Link`], the one implementation (the sweep server's client plane
//! is a third user), and accept through an [`rnet::Acceptor`]. Write
//! interest is registered only while the `SendBuf` holds a
//! partially-written backlog, so an idle connection costs one `EPOLLIN`
//! registration and zero syscalls. The `SendBuf` lives outside the link: on
//! the driver beside it under the driver lock, on the worker under a lock of
//! its own, which executors flush through directly while the loop reads.
//!
//! # Pipelining
//!
//! Submits to one worker coalesce into the link's `SendBuf` (one `write`
//! for a burst). The scheduler dispatches ahead: a core its `Hello`
//! advertised holds the task it runs plus, once no ready task fits an idle
//! core, one queued one-core task, or up to
//! [`FAST_DEPTH`](crate::scheduler::FAST_DEPTH) of a function
//! whose last `INLINE_STREAK` bodies each ran at most `INLINE_BUDGET_US`
//! (see "Worker state"), so in-flight work per worker is at most twice its
//! cores, `1 + FAST_DEPTH` times for fast functions, and the link needs no
//! queue of its own. The queued task's `Submit` crosses the wire while the
//! core is still busy; the worker's per-connection core gate starts it the
//! moment the task ahead of it ends, so a worker never idles for a round
//! trip between two tasks. A submitting thread leaves its flush to the
//! event loop while the link owes the answer of a fast attempt sent
//! before: the loop turn that reads it flushes every backlog, so a burst
//! of fast tasks travels in one write each way. The driver keeps a queued
//! execution in `running` like any other, so a lost worker fails it over
//! too; killed still queued, it draws no trace bar.
//!
//! # Data movement
//!
//! A worker resolves a task input in exactly two ways. A value below
//! [`DistributedConfig::inline_threshold`] travels in the `Submit`
//! ([`rnet::WireArg::Inline`]) and is decoded straight into the queued
//! job — every task that reads it gets its own copy, so declare the size
//! of anything shared with `set_data_bytes`.
//!
//! Values whose declared size meets the threshold ride the
//! content-addressed block plane (see the `blocks` module): the driver
//! encodes the value once, hashes it, pushes the bytes ahead of the first
//! `Submit` that needs them on a node (`BlockData`), and every later submit —
//! any trial, same content — sends only the 16-byte hash
//! ([`rnet::WireArg::Block`]). Workers hold decoded blocks in an LRU cache
//! per driver connection bounded by `--cache-mem`, reporting evictions (`BlockEvict`) so the
//! driver's residency stays honest; a miss is one `BlockRequest`/
//! `BlockData` round trip, deduplicated across concurrently-starting
//! tasks. The upshot: a shared dataset crosses the wire O(workers) times
//! per sweep, not O(trials).
//!
//! # Task snapshots
//!
//! `Data` frames carry nothing but mid-task snapshots (see the `snapshot`
//! module), keyed by task id. A worker mirrors every save to the driver at
//! once — the copy that survives the worker being killed — and the driver
//! keeps the latest on the task's record until the task settles. When it
//! dispatches a later attempt of that task it writes the blob right ahead
//! of the `Submit`, on the same socket under the same lock, exactly as a
//! `BlockData` precedes the `Submit` that names its hash; the worker's event
//! loop holds it from the one frame to the next and moves it into the job.
//! A load is therefore local on both ends and a first attempt puts nothing
//! on the wire before its first save. A same-node retry re-sends the
//! driver's copy rather than finding one cached on the worker: the bytes
//! cross once more, on a retry only, and the worker keeps no snapshot
//! beyond the job that uses it.
//!
//! # Fault tolerance
//!
//! A worker is declared dead on connection error, EOF, or heartbeat
//! timeout. The timeout is judged after the driver loop has read what
//! arrived: a heartbeat counts as unanswered only if it was sent more than
//! the timeout before the loop's latest poll began and no byte has come
//! back since, so a stalled driver never charges its own stall to a live
//! peer. A completion counts only on the link its attempt went out on. A
//! lost worker stays lost for the life of the runtime: the loop writes the
//! node off once. Its in-flight executions are failed with `node_gone =
//! true`, so [`crate::fault::RetryPolicy`] re-routes them to surviving
//! workers; ready tasks that no surviving node could ever run are failed
//! immediately (cascade) instead of hanging the barrier. A goodbye that has
//! not drained within the timeout is abandoned: no peer holds a shutdown.
//!
//! Multi-node (`@multinode`) constraints are not dispatched remotely — the
//! simulated backend remains the home for those experiments.

use std::time::Duration;

use crate::blocks::DEFAULT_INLINE_THRESHOLD;

mod driver;
mod worker;

pub(crate) use driver::{collect_dispatch_remote, ConnMgr};
pub use driver::{connect_workers, WorkerBootstrap};
pub use worker::{WorkerConfig, WorkerHandle, WorkerServer};

/// Tuning knobs for the driver side of a distributed runtime.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// How often the driver loop pings each worker.
    pub heartbeat_interval: Duration,
    /// A heartbeat left unanswered longer than this declares the worker
    /// dead.
    pub heartbeat_timeout: Duration,
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
            inline_threshold: DEFAULT_INLINE_THRESHOLD,
        }
    }
}

/// The longest body, µs, that counts as fast. A worker's event loop runs a
/// fast job itself, at most this long per turn: running a body on the loop
/// saves an executor wake-up, a few µs, while a body many times longer gains
/// little from that and a heartbeat ack and the turn's other answers wait
/// behind it. Bodies near the budget are left to a multi-core worker's
/// executors, which run them side by side.
pub(crate) const INLINE_BUDGET_US: u64 = 50;

/// Fast runs in a row that make a function fast: on a worker its first runs
/// always go to an executor, and on the driver its tasks queue deep and its
/// answers are worth a held flush only from then on.
pub(crate) const INLINE_STREAK: u8 = 8;

/// A function's streak after one more body that ran `body_us`: a fast run
/// lengthens it, a slower one starts it again from 0.
pub(crate) fn next_streak(streak: u8, body_us: u64) -> u8 {
    if body_us <= INLINE_BUDGET_US {
        streak.saturating_add(1)
    } else {
        0
    }
}

/// Whether a function with this streak is fast: its last `INLINE_STREAK`
/// bodies each ran at most `INLINE_BUDGET_US`.
pub(crate) fn is_fast(streak: u8) -> bool {
    streak >= INLINE_STREAK
}

/// Codec tag stamped on snapshot `Data` frames (see [`crate::snapshot`]).
/// Never looked up in the codec registry: snapshot blobs are opaque to the
/// runtime and cross the wire verbatim; only the task that saved them
/// knows the layout.
const SNAP_TAG: &str = "ckpt.snap";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = DistributedConfig::default();
        assert!(c.heartbeat_timeout > c.heartbeat_interval);
        let w = WorkerConfig::default();
        assert!(w.cores >= 1);
    }
}
