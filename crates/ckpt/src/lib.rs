//! Checkpoint & recovery primitives for long-running sweeps.
//!
//! Two building blocks, both dependency-free and byte-oriented (callers
//! bring their own record encoding):
//!
//! - [`journal`] — an append-only, CRC-framed log. Each record is framed
//!   as `[len u32-le][crc32 u32-le][payload]`; appends are flushed and
//!   fsynced so a crash can lose at most the record being written. The
//!   reader walks frames and stops cleanly at the first torn/corrupt
//!   frame, so every fully-framed record before a crash survives, and
//!   re-opening for append truncates the torn tail before continuing.
//! - [`snapshot`] — a directory store of point-in-time blobs (model
//!   weights + optimizer state, in this repo), one file per trial. Each
//!   snapshot is written to a temp file of its own then atomically renamed
//!   over the trial's file, so a reader never observes a half-written
//!   snapshot and disk use is one snapshot per in-flight trial.
//!
//! The sweep-level record types (trial submitted / epoch / finished) live
//! in the `hpo` crate; the training-level snapshot payload lives in
//! `tinyml::snapshot`. This crate only guarantees that bytes given to it
//! come back intact or not at all — never silently corrupted.

#![warn(missing_docs)]

pub mod journal;
pub mod snapshot;

pub use journal::{Journal, JournalReader, RecoveredLog};
pub use snapshot::DirStore;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) over `bytes`.
///
/// Hand-rolled table-driven implementation — the framing checksum for
/// journal records. Matches the ubiquitous zlib/`cksum -o3` CRC so frames
/// can be inspected with standard tools.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" (IEEE CRC-32).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = b"the quick brown fox".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }
}
