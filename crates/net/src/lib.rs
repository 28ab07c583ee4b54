//! `rnet` — the wire layer of the distributed rcompss backend.
//!
//! A deliberately small, dependency-free protocol stack:
//!
//! * [`varint`] — LEB128 integers, the length prefix and every integer
//!   field;
//! * [`wire`] — field primitives (ints, floats, strings, byte strings) and
//!   a sequential payload [`wire::Reader`]; application value codecs build
//!   on these so driver and worker agree byte for byte;
//! * [`frame`] — the versioned, magic-prefixed frame model (task submit
//!   with interned function names, done/failed, heartbeat, task snapshots,
//!   content-addressed blocks, shutdown), defined once as [`FrameOf`] with
//!   one encoder and one decoder: [`Frame`] owns its strings and blobs,
//!   [`FrameRef`] borrows them;
//! * [`poll`] + [`nonblock`] — the readiness layer: an epoll
//!   [`poll::Poller`] with a self-pipe [`poll::Waker`], and per-connection
//!   [`nonblock::RecvBuf`]/[`nonblock::SendBuf`] reusable buffers that the
//!   event-loop backend builds its connection state machines from;
//! * [`link`] — the connection state machine itself, once: a
//!   [`link::Link`] reads and flushes one registered socket, an
//!   [`link::Acceptor`] accepts (and parks its listener while accept
//!   fails), [`link::dial`] connects with retries;
//! * [`conn`] — blocking helpers ([`read_frame`], [`write_frames`]) over
//!   the same [`nonblock::RecvBuf`], used for handshakes and by the sweep
//!   client.
//!
//! The crate knows nothing about tasks, schedulers, or values — payloads
//! are opaque tagged [`frame::Blob`]s. That keeps the dependency arrow
//! pointing one way: `rcompss` (and the HPO layer above it) depend on
//! `rnet`, never the reverse.
//!
//! Encode on one side, decode on the other — the 30-second tour:
//!
//! ```
//! use rnet::{Blob, Frame, RecvBuf};
//!
//! // Task 7 checkpoints: three opaque bytes for whichever attempt is next.
//! let save = Frame::Data {
//!     key: 7,
//!     blob: Blob { tag: "ckpt.snap".into(), bytes: vec![1, 2, 3] },
//! };
//! let wire = save.encode();
//!
//! // The incremental decoder tolerates any read boundary.
//! let mut recv = RecvBuf::new();
//! let (mut a, mut b) = wire.split_at(wire.len() / 2);
//! recv.fill_from(&mut a).unwrap();
//! assert!(recv.next_frame().unwrap().is_none(), "half a frame: wait");
//! recv.fill_from(&mut b).unwrap();
//! assert_eq!(recv.next_frame().unwrap().map(|f| f.to_owned()), Some(save));
//! ```

#![deny(missing_docs)]

pub mod conn;
pub mod frame;
pub mod link;
pub mod nonblock;
pub mod poll;
pub mod status;
pub mod varint;
pub mod wire;

pub use conn::{read_frame, write_frame, write_frames};
pub use frame::{
    Blob, BlobOf, BlobRef, DecodeError, Frame, FrameOf, FrameRef, LeaderRow, LeaderRowOf,
    LeaderRowRef, WireArg, WireArgOf, WireArgRef, MAGIC, MAX_PAYLOAD, VERSION,
};
pub use link::{Acceptor, Link};
pub use nonblock::{Fill, RecvBuf, SendBuf};
pub use poll::{Event, Interest, Poller, Waker, LISTEN_TOKEN, WAKE_TOKEN};
pub use status::StatusServer;
pub use wire::{Reader, WireError};
