//! Field-level encoding helpers shared by the frame codec and by
//! application value codecs (the driver/worker serialise task inputs and
//! outputs with these exact primitives, so both sides agree byte for byte).
//!
//! Integers are LEB128 varints ([`crate::varint`]), floats are IEEE-754
//! little-endian, byte strings and UTF-8 strings are length-prefixed.
//!
//! The field primitives are `#[inline]`: the frame codec is generic over
//! owned and borrowed frames, so it is compiled in the crates that use it,
//! and each field it writes or reads must stay inlinable there.

use crate::varint;

/// A malformed field while decoding a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Append a varint.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    varint::put(out, v);
}

/// Append a varint (32-bit convenience).
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    varint::put(out, u64::from(v));
}

/// Append an IEEE-754 double, little-endian.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed byte string.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    varint::put(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Append a length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Sequential reader over a complete payload. Every accessor returns
/// [`WireError`] on truncation or malformed data — by the time a payload
/// reaches this reader the frame layer has already assembled it in full,
/// so "incomplete" here is a protocol violation, not a short read.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Next varint.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        match varint::take(&self.buf[self.pos..]) {
            varint::Take::Got(v, n) => {
                self.pos += n;
                Ok(v)
            }
            varint::Take::Incomplete => Err(WireError("truncated varint".into())),
            varint::Take::Overlong => Err(WireError("overlong varint".into())),
        }
    }

    /// Next varint, checked to fit `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.u64()?).map_err(|_| WireError("varint exceeds u32".into()))
    }

    /// Next IEEE-754 double.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, WireError> {
        let end = self.pos.checked_add(8).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| WireError("truncated f64".into()))?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(f64::from_le_bytes(raw))
    }

    /// Next length-prefixed byte string (borrowed).
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u64()? as usize;
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| WireError("truncated byte string".into()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Next length-prefixed UTF-8 string, borrowed from the payload —
    /// the zero-copy accessor behind [`crate::frame::FrameRef`].
    #[inline]
    pub fn str_ref(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError("invalid UTF-8 string".into()))
    }

    /// Next length-prefixed UTF-8 string (owned).
    pub fn str(&mut self) -> Result<String, WireError> {
        Ok(self.str_ref()?.to_string())
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError(format!("{} trailing bytes in payload", self.remaining())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip_in_order() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 9_000_000_000);
        put_u32(&mut buf, 7);
        put_f64(&mut buf, -0.125);
        put_str(&mut buf, "graph.experiment");
        put_bytes(&mut buf, &[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u64().unwrap(), 9_000_000_000);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.str().unwrap(), "graph.experiment");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        let mut r = Reader::new(&buf[..3]);
        assert!(r.str().is_err());
        let mut r = Reader::new(&[0x40][..]);
        assert!(r.f64().is_err());
    }

    #[test]
    fn u32_overflow_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::from(u32::MAX) + 1);
        assert!(Reader::new(&buf).u32().is_err());
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        put_u32(&mut buf, 2);
        let mut r = Reader::new(&buf);
        r.u32().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        assert!(Reader::new(&buf).str().is_err());
        assert!(Reader::new(&buf).str_ref().is_err());
    }

    #[test]
    fn str_ref_borrows_from_the_payload() {
        let mut buf = Vec::new();
        put_str(&mut buf, "borrowed");
        let mut r = Reader::new(&buf);
        let s = r.str_ref().unwrap();
        assert_eq!(s, "borrowed");
        let range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
        assert!(range.contains(&(s.as_ptr() as usize)), "points into the payload, no copy");
    }
}
