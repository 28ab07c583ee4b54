//! Fuzz-style tests for the event-loop decode path: every round-trip frame
//! sequence is fed through [`RecvBuf`] byte-by-byte and in random chunk
//! partitions, and must reassemble to exactly what a one-shot
//! [`FrameRef::decode`] pass produces. Random garbage and corrupted
//! streams must error cleanly, never panic.

use std::io::{self, Read};

use proptest::prelude::*;
use rnet::{Blob, Fill, Frame, FrameRef, RecvBuf, WireArg};

fn arb_blob() -> impl Strategy<Value = Blob> {
    ("[a-z.]{0,12}", proptest::collection::vec(any::<u8>(), 0..200))
        .prop_map(|(tag, bytes)| Blob { tag, bytes })
}

fn arb_arg() -> impl Strategy<Value = WireArg> {
    prop_oneof![
        (any::<u64>(), arb_blob()).prop_map(|(key, blob)| WireArg::Inline { key, blob }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(key, h)| WireArg::Block { key, hash: (h as u128) << 64 | h as u128 }),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        ("[ -~]{0,24}", any::<u32>(), 0u32..16, any::<u32>())
            .prop_map(|(name, cores, gpus, mem_gib)| Frame::Hello { name, cores, gpus, mem_gib }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            proptest::option::of("[a-z._]{1,20}"),
            0u32..4,
            proptest::collection::vec(any::<u32>(), 0..8),
            proptest::collection::vec(any::<u32>(), 0..4),
            proptest::collection::vec(arb_arg(), 0..5),
        )
            .prop_map(
                |(exec_id, task_id, attempt, node, fn_id, fn_name, variant, cores, gpus, args)| {
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
                    }
                }
            ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(arb_blob(), 0..4)
        )
            .prop_map(|(exec_id, recv_us, start_us, end_us, outputs)| Frame::Done {
                exec_id,
                recv_us,
                start_us,
                end_us,
                outputs
            }),
        (any::<u64>(), "[ -~]{0,60}")
            .prop_map(|(exec_id, message)| Frame::Failed { exec_id, message }),
        (any::<u64>(), any::<u64>(), any::<bool>())
            .prop_map(|(seq, t_send_us, telemetry)| Frame::Heartbeat { seq, t_send_us, telemetry }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(seq, t_send_us, recv_us, reply_us)| Frame::HeartbeatAck {
                seq,
                t_send_us,
                recv_us,
                reply_us
            }
        ),
        (any::<u64>(), arb_blob()).prop_map(|(key, blob)| Frame::Data { key, blob }),
        Just(Frame::Shutdown),
    ]
}

/// A socket stand-in that delivers `data` in the scripted chunk sizes,
/// interposing a `WouldBlock` between chunks (like a level-triggered
/// non-blocking socket between readiness events), then EOF.
struct Chunked<'a> {
    data: &'a [u8],
    chunks: Vec<usize>,
    next_chunk: usize,
    pos: usize,
    /// Alternate chunk / WouldBlock so the fill loop exercises both arms.
    blocked: bool,
}

impl<'a> Chunked<'a> {
    fn new(data: &'a [u8], chunks: Vec<usize>) -> Chunked<'a> {
        Chunked { data, chunks, next_chunk: 0, pos: 0, blocked: false }
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.data.len() {
            return Ok(0); // EOF
        }
        if self.blocked {
            self.blocked = false;
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "not ready"));
        }
        let want = self.chunks.get(self.next_chunk).copied().unwrap_or(usize::MAX);
        self.next_chunk += 1;
        let n = want.min(buf.len()).min(self.data.len() - self.pos).max(1);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        self.blocked = true;
        Ok(n)
    }
}

/// One-shot oracle: decode the whole contiguous byte stream with the
/// zero-copy decoder.
fn oneshot(wire: &[u8]) -> Vec<Frame> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < wire.len() {
        let (frame, used) = FrameRef::decode(&wire[at..])
            .expect("oracle decode of a valid stream")
            .expect("oracle stream holds only whole frames");
        out.push(frame.to_owned());
        at += used;
    }
    out
}

/// Run the incremental decoder over `wire` delivered in `chunks`-sized
/// reads, draining frames after every fill exactly like the event loops.
fn incremental(wire: &[u8], chunks: Vec<usize>) -> Result<Vec<Frame>, rnet::DecodeError> {
    let mut src = Chunked::new(wire, chunks);
    let mut recv = RecvBuf::new();
    let mut out = Vec::new();
    while !matches!(recv.fill_from(&mut src).expect("Chunked only errors WouldBlock"), Fill::Eof) {
        while let Some(frame) = recv.next_frame()? {
            out.push(frame.to_owned());
        }
    }
    while let Some(frame) = recv.next_frame()? {
        out.push(frame.to_owned());
    }
    Ok(out)
}

proptest! {
    /// Byte-by-byte delivery — the worst-case partition — must match the
    /// one-shot decode of the same stream exactly.
    #[test]
    fn byte_by_byte_matches_oneshot(frames in proptest::collection::vec(arb_frame(), 1..6)) {
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let got = incremental(&wire, vec![1; wire.len()]).expect("valid stream decodes");
        prop_assert_eq!(&got, &oneshot(&wire));
        prop_assert_eq!(&got, &frames);
    }

    /// Random chunk partitions must reassemble identically, regardless of
    /// where the boundaries land relative to frame headers and payloads.
    #[test]
    fn random_partitions_match_oneshot(
        frames in proptest::collection::vec(arb_frame(), 1..8),
        chunks in proptest::collection::vec(1usize..97, 1..48),
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let got = incremental(&wire, chunks).expect("valid stream decodes");
        prop_assert_eq!(&got, &oneshot(&wire));
        prop_assert_eq!(&got, &frames);
    }

    /// Pure garbage bytes must never panic the incremental decoder: it
    /// either waits for more bytes or reports a clean decode error.
    #[test]
    fn garbage_never_panics(
        junk in proptest::collection::vec(any::<u8>(), 0..512),
        chunks in proptest::collection::vec(1usize..33, 1..32),
    ) {
        let _ = incremental(&junk, chunks);
    }

    /// A single flipped byte in a valid stream must never panic: the
    /// decoder yields some prefix of frames and then errors or stalls.
    #[test]
    fn corrupted_stream_never_panics(
        frames in proptest::collection::vec(arb_frame(), 1..5),
        flip_at in any::<usize>(),
        flip_bits in 1u8..=255,
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let at = flip_at % wire.len();
        wire[at] ^= flip_bits;
        let _ = incremental(&wire, vec![7; wire.len() / 7 + 1]);
    }
}
