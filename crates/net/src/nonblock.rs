//! Per-connection reusable buffers for non-blocking sockets.
//!
//! The event-loop backend owns one [`RecvBuf`] and one [`SendBuf`] per
//! connection:
//!
//! * [`RecvBuf`] accumulates whatever byte boundaries the kernel delivers
//!   and peels complete frames off the front as zero-copy
//!   [`FrameRef`]s — the decoded strings and blobs
//!   point straight into the buffer.
//! * [`SendBuf`] coalesces any number of encoded frames, owned or
//!   borrowed, into one contiguous backlog and drains it with as few
//!   `write` calls as the socket accepts, reporting `WouldBlock` as "not
//!   drained" so the caller can re-register write interest instead of
//!   spinning.
//!
//! Both reuse their allocation across frames and shrink it back after
//! bursts, so a long-lived connection settles into zero steady-state
//! allocation for the byte path.
//!
//! ```
//! use rnet::nonblock::{Fill, RecvBuf, SendBuf};
//! use rnet::{Frame, FrameRef};
//!
//! // Coalesce two frames into one write burst…
//! let mut send = SendBuf::new();
//! send.push(&Frame::Heartbeat { seq: 1, t_send_us: 2, telemetry: false });
//! send.push(&Frame::BlockRequest { hash: 9 });
//! let mut wire = Vec::new();
//! let (n, drained) = send.flush(&mut wire).unwrap();
//! assert!(drained);
//! assert_eq!(n, wire.len());
//!
//! // …and reassemble them on the other side, wherever the reads split.
//! let mut recv = RecvBuf::new();
//! let mut src = std::io::Cursor::new(wire);
//! assert!(matches!(recv.fill_from(&mut src).unwrap(), Fill::Bytes(_)));
//! assert!(matches!(recv.next_frame().unwrap(), Some(FrameRef::Heartbeat { seq: 1, .. })));
//! assert!(matches!(recv.next_frame().unwrap(), Some(FrameRef::BlockRequest { hash: 9 })));
//! assert!(recv.next_frame().unwrap().is_none());
//! ```

use std::io::{self, Read, Write};

use crate::frame::{DecodeError, FrameOf, FrameRef};

/// Bytes of spare tail capacity guaranteed before each socket read.
const READ_CHUNK: usize = 64 * 1024;

/// Consumed-prefix size that triggers compaction of a [`RecvBuf`] /
/// [`SendBuf`], amortising the memmove over many small frames.
const COMPACT_AT: usize = 64 * 1024;

/// Capacity retained across bursts; anything larger shrinks back once the
/// buffer drains so one huge frame does not pin its footprint forever.
const RETAIN_CAP: usize = 1024 * 1024;

/// Outcome of one [`RecvBuf::fill_from`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// The read delivered this many bytes (> 0).
    Bytes(usize),
    /// The socket has no bytes right now — wait for readiness.
    WouldBlock,
    /// Clean end of stream.
    Eof,
}

/// Reusable receive buffer: accumulate socket bytes, decode frames in
/// place.
///
/// The intended loop is: on a readable event, call [`RecvBuf::fill_from`],
/// drain [`RecvBuf::next_frame`], and read again only while
/// [`RecvBuf::last_read_short`] is false — a short read means the socket
/// was empty, and level-triggered readiness re-raises the event for bytes
/// that arrive later, so no read is spent learning `WouldBlock`. Each
/// returned [`FrameRef`] borrows from the buffer and must be consumed
/// before the next `fill_from`/`next_frame` call (the borrow checker
/// enforces this).
#[derive(Debug, Default)]
pub struct RecvBuf {
    /// Initialised storage; live bytes occupy `start..end`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The last fill delivered bytes but fewer than the space it offered.
    short: bool,
}

impl RecvBuf {
    /// Empty buffer; allocates lazily on first read.
    pub fn new() -> RecvBuf {
        RecvBuf::default()
    }

    /// Bytes received but not yet decoded.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Drop the consumed prefix when it has grown large (or the buffer is
    /// empty), keeping decode offsets small and the footprint bounded.
    fn compact(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start >= COMPACT_AT {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Issue **one** read into spare capacity. To drain a level-triggered
    /// readiness event, call again while [`RecvBuf::last_read_short`] is
    /// false and the result is not [`Fill::WouldBlock`]. `Interrupted` is
    /// retried internally; other errors are fatal to the connection.
    pub fn fill_from(&mut self, src: &mut impl Read) -> io::Result<Fill> {
        self.compact();
        if self.buf.len() - self.end < READ_CHUNK {
            if self.start > 0 {
                // Force a compaction ahead of growth.
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.buf.len() - self.end < READ_CHUNK {
                self.buf.resize(self.end + READ_CHUNK, 0);
            }
        } else if self.buf.len() > RETAIN_CAP && self.end <= READ_CHUNK {
            // Drained after a burst: give the excess back.
            self.buf.truncate(RETAIN_CAP);
            self.buf.shrink_to_fit();
        }
        self.short = false;
        loop {
            match src.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(Fill::Eof),
                Ok(n) => {
                    self.short = self.end + n < self.buf.len();
                    self.end += n;
                    return Ok(Fill::Bytes(n));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Fill::WouldBlock),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether the last [`RecvBuf::fill_from`] delivered bytes but fewer
    /// than the space it offered: the source had nothing more at that
    /// moment, so an event loop goes back to its poller instead of
    /// reading again into `WouldBlock`. False after a read that filled
    /// the space (more may be waiting), `WouldBlock` or `Eof`.
    pub fn last_read_short(&self) -> bool {
        self.short
    }

    /// Decode the next complete frame in place. `Ok(None)` means the
    /// buffer holds at most a frame prefix; errors are fatal to the
    /// stream. The returned frame borrows this buffer.
    pub fn next_frame(&mut self) -> Result<Option<FrameRef<'_>>, DecodeError> {
        self.next_frame_as()
    }

    /// [`RecvBuf::next_frame`] in either form: a [`crate::Frame`] copies
    /// its strings and blobs out, and then borrows nothing.
    pub(crate) fn next_frame_as<'a, S: From<&'a str>, B: From<&'a [u8]>>(
        &'a mut self,
    ) -> Result<Option<FrameOf<S, B>>, DecodeError> {
        self.compact();
        // Split the borrows: the frame borrows `buf`, the cursor advance
        // touches only `start`.
        let RecvBuf { buf, start, end, .. } = self;
        match FrameOf::decode(&buf[*start..*end])? {
            Some((frame, used)) => {
                *start += used;
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }
}

/// Reusable, coalescing send buffer for a non-blocking socket.
///
/// Writers [`push`](SendBuf::push) any number of frames — they encode
/// back-to-back into one contiguous backlog — then [`flush`](SendBuf::flush)
/// drains with as few syscalls as the socket accepts. A partial drain
/// (`WouldBlock`) leaves the tail buffered; the caller re-registers write
/// interest and flushes again when the socket signals writable.
#[derive(Debug, Default)]
pub struct SendBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    pos: usize,
}

impl SendBuf {
    /// Empty buffer; allocates lazily on first push.
    pub fn new() -> SendBuf {
        SendBuf::default()
    }

    /// Encode `frame` onto the backlog (no I/O). A [`FrameRef`] encodes
    /// from what the caller keeps: a borrowed block is copied once, into
    /// the backlog.
    pub fn push<S: AsRef<str>, B: AsRef<[u8]>>(&mut self, frame: &FrameOf<S, B>) {
        frame.encode_into(&mut self.buf);
    }

    /// Bytes encoded but not yet written.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when there is nothing left to write.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Drop the backlog without writing it (connection teardown).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }

    /// Write as much backlog as the socket accepts right now.
    ///
    /// Returns `(bytes_written, drained)`: `drained == false` means the
    /// socket reported `WouldBlock` with bytes still pending — re-register
    /// write interest and call again on the writable event. `Interrupted`
    /// is retried internally; other errors are fatal.
    pub fn flush(&mut self, dst: &mut impl Write) -> io::Result<(usize, bool)> {
        let mut written = 0;
        while self.pos < self.buf.len() {
            match dst.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.pos += n;
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Keep offsets small across long backpressure stretches.
                    if self.pos >= COMPACT_AT {
                        self.buf.drain(..self.pos);
                        self.pos = 0;
                    }
                    return Ok((written, false));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        if self.buf.capacity() > RETAIN_CAP {
            self.buf.shrink_to(RETAIN_CAP);
        }
        Ok((written, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Blob, BlobRef, Frame, WireArg};

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Hello { name: "w9".into(), cores: 2, gpus: 0, mem_gib: 4 },
            Frame::Submit {
                exec_id: 10,
                task_id: 3,
                attempt: 1,
                node: 0,
                fn_id: 2,
                fn_name: Some("graph.experiment".into()),
                variant: 0,
                cores: vec![0, 1],
                gpus: vec![],
                args: vec![WireArg::Inline {
                    key: 77,
                    blob: Blob { tag: "t".into(), bytes: vec![3; 500] },
                }],
            },
            Frame::Done { exec_id: 10, recv_us: 1, start_us: 2, end_us: 3, outputs: vec![] },
            Frame::Shutdown,
        ]
    }

    /// A reader that yields its script one slice per call, then
    /// `WouldBlock`, to mimic a non-blocking socket.
    struct Script {
        chunks: Vec<Vec<u8>>,
        at: usize,
    }

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.at >= self.chunks.len() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let chunk = &self.chunks[self.at];
            assert!(out.len() >= chunk.len(), "test chunks fit the read window");
            out[..chunk.len()].copy_from_slice(chunk);
            self.at += 1;
            Ok(chunk.len())
        }
    }

    #[test]
    fn recv_reassembles_across_odd_chunk_boundaries() {
        let mut wire = Vec::new();
        for f in frames() {
            f.encode_into(&mut wire);
        }
        // Deliver in awkward 7-byte chunks.
        let chunks: Vec<Vec<u8>> = wire.chunks(7).map(|c| c.to_vec()).collect();
        let mut src = Script { chunks, at: 0 };
        let mut recv = RecvBuf::new();
        let mut seen = Vec::new();
        loop {
            match recv.fill_from(&mut src).unwrap() {
                Fill::Bytes(_) => {}
                Fill::WouldBlock => break,
                Fill::Eof => panic!("script never EOFs"),
            }
            while let Some(f) = recv.next_frame().unwrap() {
                seen.push(f.to_owned());
            }
        }
        assert_eq!(seen, frames());
        assert_eq!(recv.pending(), 0);
    }

    /// A [`Script`] that counts its `read` calls.
    struct Counted {
        script: Script,
        reads: usize,
    }

    impl Read for Counted {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.script.read(out)
        }
    }

    /// Service one readable event the way the event loops do: fill,
    /// drain frames, read again only after a read that filled its space.
    fn service_event(recv: &mut RecvBuf, src: &mut Counted) -> usize {
        let mut frames = 0;
        loop {
            match recv.fill_from(src).unwrap() {
                Fill::Bytes(_) => {}
                Fill::WouldBlock => return frames,
                Fill::Eof => panic!("script never EOFs"),
            }
            while recv.next_frame().unwrap().is_some() {
                frames += 1;
            }
            if recv.last_read_short() {
                return frames;
            }
        }
    }

    #[test]
    fn a_short_read_ends_the_event_without_a_wouldblock_read() {
        let mut wire = Vec::new();
        for f in frames() {
            f.encode_into(&mut wire);
        }
        let mut src = Counted { script: Script { chunks: vec![wire], at: 0 }, reads: 0 };
        let mut recv = RecvBuf::new();
        assert_eq!(service_event(&mut recv, &mut src), frames().len());
        assert!(recv.last_read_short());
        assert_eq!(src.reads, 1, "one short read is one read call");
    }

    #[test]
    fn a_read_that_fills_its_space_is_followed_by_another() {
        // A fresh buffer offers exactly READ_CHUNK bytes: a frame larger
        // than that arrives as one full read and one short one.
        let big = Frame::Done {
            exec_id: 1,
            recv_us: 0,
            start_us: 0,
            end_us: 0,
            outputs: vec![Blob { tag: "t".into(), bytes: vec![5; READ_CHUNK + 100] }],
        };
        let wire = big.encode();
        let (head, tail) = wire.split_at(READ_CHUNK);
        let chunks = vec![head.to_vec(), tail.to_vec()];
        let mut src = Counted { script: Script { chunks, at: 0 }, reads: 0 };
        let mut recv = RecvBuf::new();
        assert_eq!(service_event(&mut recv, &mut src), 1);
        assert_eq!(src.reads, 2, "the full read is followed by a second, short one");
    }

    #[test]
    fn borrowed_block_push_appends_the_owned_frames_bytes() {
        // Empty, shorter than the staged head, and large enough that the
        // payload length takes a three-byte varint.
        for len in [0usize, 5, 150_000] {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let blob = BlobRef { tag: "hpo.stage", bytes: &bytes };
            let hash = (0xfeed_u128 << 64) | len as u128;
            let owned_frame = Frame::BlockData {
                hash,
                blob: Blob { tag: blob.tag.into(), bytes: bytes.clone() },
            };
            let (mut owned, mut borrowed) = (SendBuf::new(), SendBuf::new());
            owned.push(&Frame::Shutdown);
            borrowed.push(&Frame::Shutdown);
            owned.push(&owned_frame);
            borrowed.push(&FrameRef::BlockData { hash, blob });
            assert_eq!(borrowed.buf, owned.buf, "{len}-byte block");
            let (frame, used) = Frame::decode(&borrowed.buf[5..]).unwrap().expect("complete");
            assert_eq!(frame, owned_frame);
            assert_eq!(used + 5, borrowed.buf.len());
        }
    }

    #[test]
    fn recv_eof_and_errors_pass_through() {
        let mut recv = RecvBuf::new();
        let mut empty = io::Cursor::new(Vec::new());
        assert_eq!(recv.fill_from(&mut empty).unwrap(), Fill::Eof);
        recv.buf = b"garbage line noise".to_vec();
        recv.end = recv.buf.len();
        assert!(recv.next_frame().is_err(), "corruption is fatal");
    }

    /// A writer that accepts a few bytes per call, then blocks once.
    struct Trickle {
        out: Vec<u8>,
        budget: usize,
        blocked: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !self.blocked {
                self.blocked = true;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.blocked = false;
            let n = buf.len().min(self.budget);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_coalesces_and_survives_backpressure() {
        let mut send = SendBuf::new();
        for f in frames() {
            send.push(&f);
        }
        let total = send.pending();
        let mut dst = Trickle { out: Vec::new(), budget: 11, blocked: false };
        let mut written = 0;
        let mut rounds = 0;
        loop {
            let (n, drained) = send.flush(&mut dst).unwrap();
            written += n;
            if drained {
                break;
            }
            rounds += 1;
            assert!(rounds < 10_000, "flush must make progress");
        }
        assert_eq!(written, total);
        assert!(send.is_empty());
        // The byte stream is exactly the concatenated frames.
        let mut wire = Vec::new();
        for f in frames() {
            f.encode_into(&mut wire);
        }
        assert_eq!(dst.out, wire);
    }

    #[test]
    fn send_clear_discards_backlog() {
        let mut send = SendBuf::new();
        send.push(&Frame::Shutdown);
        assert!(!send.is_empty());
        send.clear();
        assert!(send.is_empty());
        let (n, drained) = send.flush(&mut Vec::new()).unwrap();
        assert_eq!((n, drained), (0, true));
    }

    #[test]
    fn recv_buffer_footprint_stays_bounded() {
        // Feed many mid-size frames through; the buffer must not grow
        // monotonically.
        let frame = Frame::Done {
            exec_id: 1,
            recv_us: 0,
            start_us: 0,
            end_us: 0,
            outputs: vec![Blob { tag: "t".into(), bytes: vec![9; 32 * 1024] }],
        };
        let wire = frame.encode();
        let mut recv = RecvBuf::new();
        for _ in 0..128 {
            let mut src = io::Cursor::new(wire.clone());
            loop {
                match recv.fill_from(&mut src).unwrap() {
                    Fill::Eof => break,
                    Fill::Bytes(_) | Fill::WouldBlock => {}
                }
            }
            while recv.next_frame().unwrap().is_some() {}
            assert!(recv.buf.len() <= 2 * RETAIN_CAP, "buffer grew to {}", recv.buf.len());
        }
    }
}
