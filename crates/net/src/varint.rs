//! LEB128 variable-length integers — the frame length prefix and every
//! integer field on the wire.
//!
//! Small values (the common case: core counts, attempt numbers, short
//! payload lengths) encode in one byte; a `u64` never needs more than ten.
//! The decoder is incremental-friendly: it distinguishes "need more bytes"
//! from "malformed", which is what lets [`crate::nonblock::RecvBuf`] resume
//! across arbitrary read boundaries.
//!
//! Both functions are `#[inline]`, like the [`crate::wire`] primitives: the
//! frame codec is generic, so it is compiled in the crates that use it, and
//! a field write there must not become a call into this crate.

/// Maximum encoded length of a `u64` (⌈64/7⌉ bytes).
pub const MAX_LEN: usize = 10;

/// Append the LEB128 encoding of `v` to `out`.
#[inline]
pub fn put(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`put`] writes for `v`, so a caller can size a buffer exactly
/// before encoding into it.
#[inline]
pub fn encoded_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Decode result of [`take`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Take {
    /// A full value and the number of bytes it consumed.
    Got(u64, usize),
    /// The buffer ends mid-varint — feed more bytes and retry.
    Incomplete,
    /// More than [`MAX_LEN`] continuation bytes: not a valid `u64`.
    Overlong,
}

/// Decode one LEB128 value from the front of `buf`.
#[inline]
pub fn take(buf: &[u8]) -> Take {
    let mut v: u64 = 0;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= MAX_LEN {
            return Take::Overlong;
        }
        // The 10th byte may only carry the top bit of a u64.
        if i == MAX_LEN - 1 && byte > 0x01 {
            return Take::Overlong;
        }
        v |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            return Take::Got(v, i + 1);
        }
    }
    Take::Incomplete
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) {
        let mut buf = Vec::new();
        put(&mut buf, v);
        assert_eq!(take(&buf), Take::Got(v, buf.len()), "value {v}");
        assert_eq!(encoded_len(v), buf.len(), "value {v}");
    }

    #[test]
    fn encodes_boundaries() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, 1 << 63, u64::MAX] {
            roundtrip(v);
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buf = Vec::new();
        put(&mut buf, 100);
        assert_eq!(buf, vec![100]);
    }

    #[test]
    fn incomplete_prefix_reports_incomplete() {
        let mut buf = Vec::new();
        put(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            assert_eq!(take(&buf[..cut]), Take::Incomplete, "cut at {cut}");
        }
    }

    #[test]
    fn overlong_encodings_rejected() {
        // 11 continuation bytes can never be a u64.
        assert_eq!(take(&[0x80; 11]), Take::Overlong);
        // 10 bytes whose last carries more than the top u64 bit.
        let mut buf = vec![0x80; 9];
        buf.push(0x02);
        assert_eq!(take(&buf), Take::Overlong);
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut buf = Vec::new();
        put(&mut buf, 300);
        let used = buf.len();
        buf.extend_from_slice(&[0xde, 0xad]);
        assert_eq!(take(&buf), Take::Got(300, used));
    }
}
