//! Blocking frame I/O.
//!
//! The handshakes and the sweep client talk over plain blocking sockets:
//! [`read_frame`] blocks until the connection's [`RecvBuf`] — the same
//! incremental decoder the event loops use — holds a whole frame, and
//! [`write_frames`] sends a batch in one burst.

use std::io::{self, Read, Write};

use crate::frame::Frame;
use crate::nonblock::{Fill, RecvBuf};

/// Read from a blocking transport until one frame completes.
///
/// Returns `Ok(None)` on clean EOF (peer closed), `Err` on transport or
/// protocol errors — an expired read timeout among them, as
/// [`io::ErrorKind::WouldBlock`]. Extra frames already buffered in `recv`
/// are returned by subsequent calls without touching the transport.
pub fn read_frame(stream: &mut impl Read, recv: &mut RecvBuf) -> io::Result<Option<Frame>> {
    loop {
        let next = recv
            .next_frame_as()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if let Some(frame) = next {
            return Ok(Some(frame));
        }
        match recv.fill_from(stream)? {
            Fill::Bytes(_) => {}
            Fill::Eof if recv.pending() == 0 => return Ok(None),
            Fill::Eof => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF inside a frame"))
            }
            Fill::WouldBlock => return Err(io::ErrorKind::WouldBlock.into()),
        }
    }
}

/// Encode `frames` into one buffer and write it in a single syscall burst
/// (the batching half of request pipelining). Returns the bytes written,
/// for byte-accounting metrics.
pub fn write_frames(stream: &mut impl Write, frames: &[Frame]) -> io::Result<usize> {
    let mut buf = Vec::new();
    for f in frames {
        f.encode_into(&mut buf);
    }
    stream.write_all(&buf)?;
    stream.flush()?;
    Ok(buf.len())
}

/// Write one frame and flush. Returns the bytes written.
pub fn write_frame(stream: &mut impl Write, frame: &Frame) -> io::Result<usize> {
    write_frames(stream, std::slice::from_ref(frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Blob, WireArg};

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Hello { name: "w0".into(), cores: 2, gpus: 0, mem_gib: 8 },
            Frame::Submit {
                exec_id: 1,
                task_id: 1,
                attempt: 1,
                node: 0,
                fn_id: 1,
                fn_name: Some("churn".into()),
                variant: 0,
                cores: vec![0],
                gpus: vec![],
                args: vec![WireArg::Inline {
                    key: 1,
                    blob: Blob { tag: "t".into(), bytes: vec![9; 300] },
                }],
            },
            Frame::Heartbeat { seq: 1, t_send_us: 10, telemetry: false },
            Frame::Done {
                exec_id: 1,
                recv_us: 5,
                start_us: 6,
                end_us: 7,
                outputs: vec![Blob { tag: "t".into(), bytes: vec![] }],
            },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn read_frame_loops_over_a_cursor_transport() {
        let mut wire = Vec::new();
        for f in frames() {
            f.encode_into(&mut wire);
        }
        let mut cursor = io::Cursor::new(wire);
        let mut reader = RecvBuf::new();
        let mut seen = Vec::new();
        while let Some(f) = read_frame(&mut cursor, &mut reader).unwrap() {
            seen.push(f);
        }
        assert_eq!(seen, frames());
    }

    #[test]
    fn eof_inside_a_frame_and_garbage_are_errors() {
        let wire = Frame::Heartbeat { seq: 700, t_send_us: 7, telemetry: true }.encode();
        let mut cursor = io::Cursor::new(wire[..wire.len() - 1].to_vec());
        let mut reader = RecvBuf::new();
        let err = read_frame(&mut cursor, &mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut garbage = io::Cursor::new(b"totally not a frame".to_vec());
        let err = read_frame(&mut garbage, &mut RecvBuf::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn write_frames_batches_and_counts_bytes() {
        let mut out = Vec::new();
        let n = write_frames(&mut out, &frames()).unwrap();
        assert_eq!(n, out.len());
        let single = write_frame(&mut Vec::new(), &Frame::Shutdown).unwrap();
        assert_eq!(single, Frame::Shutdown.encode().len());
    }
}
