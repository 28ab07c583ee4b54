//! Training-state snapshots: everything needed to resume a trial at an
//! epoch boundary and reproduce the uninterrupted run bit for bit.
//!
//! A [`TrainSnapshot`] captures, after epoch `next_epoch - 1` completes:
//!
//! - the model's trainable tensors in optimiser slot order
//!   ([`crate::net::Model::params`]),
//! - the optimiser's mutable state — SGD velocity / RMSprop square
//!   averages / Adam moments plus the step clock
//!   ([`crate::optim::OptimizerState`]),
//! - the RNG seed the run was started with, so the resumed trial replays
//!   the **same** dataset split and the same per-epoch minibatch order
//!   (the seed travels with the snapshot rather than being re-derived by
//!   the resuming process — re-seeding from scratch silently changes the
//!   shuffle stream on a retried trial),
//! - the per-epoch history so far, so the resumed run's final `History`
//!   equals the uninterrupted one.
//!
//! The encoding is a versioned little-endian binary layout with floats
//! stored as their bit patterns, so decode(encode(s)) == s exactly — no
//! text round-tripping, no precision loss, NaN payloads included. The
//! codec moves whole slices into one buffer of exactly the encoded size,
//! so a snapshot costs about what copying its bytes costs; a reader that
//! needs only the history ([`TrainSnapshot::decode_history`]) validates
//! everything but materialises no tensor. Integrity (checksums, atomic
//! writes) is the `ckpt` crate's job; this module only defines the
//! payload.

use crate::optim::{OptimizerKind, OptimizerState, SlotState};
use crate::train::History;

/// Magic + layout version framing every encoded snapshot.
const MAGIC: u32 = 0x544E_5331; // "TNS1"

/// A resumable training checkpoint (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSnapshot {
    /// RNG seed of the original run (split + minibatch shuffling).
    pub seed: u64,
    /// Total epochs the original run was configured for (drives the lr
    /// schedule, which must keep its original shape on resume).
    pub epochs_total: u32,
    /// First epoch the resumed run should execute (== epochs completed).
    pub next_epoch: u32,
    /// Trainable tensors in optimiser slot order.
    pub params: Vec<Vec<f32>>,
    /// Optimiser state (momenta, moments, step clock).
    pub opt: OptimizerState,
    /// Per-epoch history up to `next_epoch`.
    pub history: History,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Length prefix, then the whole slice in one pass over a pre-grown tail
/// (a plain copy on a little-endian host), not one push per element.
fn put_f32s(out: &mut Vec<u8>, v: &[f32]) {
    put_u32(out, v.len() as u32);
    let at = out.len();
    out.resize(at + 4 * v.len(), 0);
    for (dst, x) in out[at..].chunks_exact_mut(4).zip(v) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

fn put_f64s(out: &mut Vec<u8>, v: &[f64]) {
    put_u32(out, v.len() as u32);
    let at = out.len();
    out.resize(at + 8 * v.len(), 0);
    for (dst, x) in out[at..].chunks_exact_mut(8).zip(v) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

/// Encoded size of a length-prefixed tensor of `n` elements of `width`
/// bytes.
fn tensor_len(n: usize, width: usize) -> usize {
    4 + width * n
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Validate and step over the `f32` tensors without materialising
    /// them ([`TrainSnapshot::decode_history`]): every check still runs,
    /// so both reads reject exactly the same inputs.
    skip_tensors: bool,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.bytes.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Bytes left to read: every count is checked against this before
    /// anything is allocated, so a garbage length is rejected, not
    /// attempted.
    fn left(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn f32s(&mut self) -> Option<Vec<f32>> {
        let n = self.u32()? as usize;
        let raw = self.take(n.checked_mul(4)?)?;
        if self.skip_tensors {
            return Some(Vec::new());
        }
        let mut v = vec![0f32; n];
        for (x, b) in v.iter_mut().zip(raw.chunks_exact(4)) {
            *x = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
        Some(v)
    }

    fn f64s(&mut self) -> Option<Vec<f64>> {
        let n = self.u32()? as usize;
        let raw = self.take(n.checked_mul(8)?)?;
        let mut v = vec![0f64; n];
        for (x, b) in v.iter_mut().zip(raw.chunks_exact(8)) {
            *x = f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        }
        Some(v)
    }
}

fn kind_tag(kind: OptimizerKind) -> u32 {
    match kind {
        OptimizerKind::Sgd => 0,
        OptimizerKind::RmsProp => 1,
        OptimizerKind::Adam => 2,
    }
}

fn tag_kind(tag: u32) -> Option<OptimizerKind> {
    match tag {
        0 => Some(OptimizerKind::Sgd),
        1 => Some(OptimizerKind::RmsProp),
        2 => Some(OptimizerKind::Adam),
        _ => None,
    }
}

impl TrainSnapshot {
    /// Serialize to the versioned binary layout, in one allocation of
    /// exactly [`TrainSnapshot::encoded_len`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        put_u32(&mut out, MAGIC);
        put_u64(&mut out, self.seed);
        put_u32(&mut out, self.epochs_total);
        put_u32(&mut out, self.next_epoch);
        put_u32(&mut out, self.params.len() as u32);
        for p in &self.params {
            put_f32s(&mut out, p);
        }
        put_u32(&mut out, kind_tag(self.opt.kind));
        out.extend_from_slice(&self.opt.weight_decay.to_bits().to_le_bytes());
        put_u64(&mut out, self.opt.t);
        put_u32(&mut out, self.opt.slots.len() as u32);
        for slot in &self.opt.slots {
            match slot {
                SlotState::Sgd(v) => {
                    put_u32(&mut out, 0);
                    put_f32s(&mut out, v);
                }
                SlotState::RmsProp(s) => {
                    put_u32(&mut out, 1);
                    put_f32s(&mut out, s);
                }
                SlotState::Adam(m, v) => {
                    put_u32(&mut out, 2);
                    put_f32s(&mut out, m);
                    put_f32s(&mut out, v);
                }
            }
        }
        put_f64s(&mut out, &self.history.train_loss);
        put_f64s(&mut out, &self.history.val_accuracy);
        out
    }

    /// Decode an [`TrainSnapshot::encode`]d snapshot. `None` on any
    /// truncation, bad magic, or malformed field — never panics, so a
    /// corrupt snapshot file degrades to "no checkpoint" rather than a
    /// crashed resume.
    pub fn decode(bytes: &[u8]) -> Option<TrainSnapshot> {
        Self::read(Reader { bytes, pos: 0, skip_tensors: false })
    }

    /// Only the per-epoch history of an encoded snapshot — what a
    /// finished trial's outcome is built from. Validates the whole
    /// layout exactly like [`TrainSnapshot::decode`] (`None` on the same
    /// inputs) but never materialises the weights or optimiser moments.
    pub fn decode_history(bytes: &[u8]) -> Option<History> {
        Self::read(Reader { bytes, pos: 0, skip_tensors: true }).map(|s| s.history)
    }

    fn read(mut r: Reader<'_>) -> Option<TrainSnapshot> {
        if r.u32()? != MAGIC {
            return None;
        }
        let seed = r.u64()?;
        let epochs_total = r.u32()?;
        let next_epoch = r.u32()?;
        let n_params = r.u32()? as usize;
        if r.left() < n_params * 4 {
            return None;
        }
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            params.push(r.f32s()?);
        }
        let kind = tag_kind(r.u32()?)?;
        let weight_decay = f32::from_bits(r.u32()?);
        let t = r.u64()?;
        let n_slots = r.u32()? as usize;
        if r.left() < n_slots * 4 {
            return None;
        }
        let mut slots = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            slots.push(match r.u32()? {
                0 => SlotState::Sgd(r.f32s()?),
                1 => SlotState::RmsProp(r.f32s()?),
                2 => SlotState::Adam(r.f32s()?, r.f32s()?),
                _ => return None,
            });
        }
        let train_loss = r.f64s()?;
        let val_accuracy = r.f64s()?;
        if r.left() != 0 {
            return None; // trailing garbage
        }
        Some(TrainSnapshot {
            seed,
            epochs_total,
            next_epoch,
            params,
            opt: OptimizerState { kind, weight_decay, t, slots },
            history: History { train_loss, val_accuracy },
        })
    }

    /// Serialized size in bytes (what a save will write), summed from the
    /// tensor lengths.
    pub fn encoded_len(&self) -> usize {
        let params: usize = self.params.iter().map(|p| tensor_len(p.len(), 4)).sum();
        let slots: usize = self
            .opt
            .slots
            .iter()
            .map(|slot| {
                4 + match slot {
                    SlotState::Sgd(v) | SlotState::RmsProp(v) => tensor_len(v.len(), 4),
                    SlotState::Adam(m, v) => tensor_len(m.len(), 4) + tensor_len(v.len(), 4),
                }
            })
            .sum();
        // magic, seed, epochs_total, next_epoch, params count
        24 + params
            // kind, weight_decay, t, slots count
            + 20
            + slots
            + tensor_len(self.history.train_loss.len(), 8)
            + tensor_len(self.history.val_accuracy.len(), 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainSnapshot {
        TrainSnapshot {
            seed: 0xDEAD_BEEF_CAFE,
            epochs_total: 20,
            next_epoch: 5,
            params: vec![vec![1.5, -2.25, f32::MIN_POSITIVE], vec![0.0, -0.0]],
            opt: OptimizerState {
                kind: OptimizerKind::Adam,
                weight_decay: 1e-4,
                t: 312,
                slots: vec![
                    SlotState::Adam(vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]),
                    SlotState::Adam(vec![-0.1, -0.2], vec![1e-30, 1e30]),
                ],
            },
            history: History {
                train_loss: vec![2.1, 1.4, 0.9, 0.7, 0.55],
                val_accuracy: vec![0.3, 0.5, 0.7, 0.8, 0.85],
            },
        }
    }

    #[test]
    fn encode_decode_round_trip_is_exact() {
        let s = sample();
        let bytes = s.encode();
        assert_eq!(bytes.len(), s.encoded_len());
        assert_eq!(bytes.capacity(), bytes.len(), "one exact-size buffer");
        let back = TrainSnapshot::decode(&bytes).unwrap();
        assert_eq!(back, s);
        // Bit-exactness, not just PartialEq: negative zero survives.
        assert!(back.params[1][1].to_bits() == (-0.0f32).to_bits());
    }

    #[test]
    fn sgd_and_rmsprop_slots_round_trip() {
        for (kind, slot) in [
            (OptimizerKind::Sgd, SlotState::Sgd(vec![0.25, -0.5])),
            (OptimizerKind::RmsProp, SlotState::RmsProp(vec![1.0, 2.0])),
        ] {
            let s = TrainSnapshot {
                opt: OptimizerState { kind, weight_decay: 0.0, t: 1, slots: vec![slot] },
                ..sample()
            };
            let bytes = s.encode();
            assert_eq!(bytes.len(), s.encoded_len(), "{kind:?}");
            assert_eq!(bytes.capacity(), bytes.len(), "{kind:?}: one exact-size buffer");
            assert_eq!(TrainSnapshot::decode(&bytes).unwrap(), s);
        }
    }

    /// Neither the full decode nor the history read accepts `bytes`.
    fn rejected(bytes: &[u8]) -> bool {
        TrainSnapshot::decode(bytes).is_none() && TrainSnapshot::decode_history(bytes).is_none()
    }

    #[test]
    fn truncation_and_garbage_decode_to_none() {
        let bytes = sample().encode();
        assert_eq!(TrainSnapshot::decode_history(&bytes), Some(sample().history));
        for cut in 0..bytes.len() {
            assert!(rejected(&bytes[..cut]), "cut at {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(rejected(&extended), "trailing byte accepted");
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(rejected(&bad_magic));
        // The first slot tag follows the header, both params and the
        // optimiser header.
        let tag_at = 24 + (4 + 3 * 4) + (4 + 2 * 4) + 20;
        assert_eq!(bytes[tag_at..tag_at + 4], 2u32.to_le_bytes());
        let mut bad_tag = bytes;
        bad_tag[tag_at] = 3;
        assert!(rejected(&bad_tag), "unknown slot tag accepted");
    }

    #[test]
    fn absurd_length_fields_do_not_allocate_or_panic() {
        // magic + seed + epochs + next + a params count claiming u32::MAX
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAGIC);
        put_u64(&mut bytes, 1);
        put_u32(&mut bytes, 10);
        put_u32(&mut bytes, 2);
        put_u32(&mut bytes, u32::MAX);
        assert!(rejected(&bytes));
        // …and one tensor claiming 16 GiB.
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&1u32.to_le_bytes());
        put_u32(&mut bytes, u32::MAX);
        assert!(rejected(&bytes));
    }

    /// `sample().encode()` as the element-at-a-time codec wrote it: the
    /// layout is a file format (`--ckpt-dir` snapshots), so a faster
    /// codec must reproduce it byte for byte.
    const SAMPLE_HEX: &str = concat!(
        "31534e54fecaefbeadde0000140000000500000002000000030000000000c03f",
        "000010c0000080000200000000000000000000800200000017b7d13838010000",
        "00000000020000000200000003000000cdcccc3dcdcc4c3e9a99993e03000000",
        "cdcccc3e0000003f9a99193f0200000002000000cdccccbdcdcc4cbe02000000",
        "6042a20dcaf2497105000000cdcccccccccc0040666666666666f63fcdcccccc",
        "ccccec3f666666666666e63f9a9999999999e13f05000000333333333333d33f",
        "000000000000e03f666666666666e63f9a9999999999e93f333333333333eb3f",
    );

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn encoding_matches_the_recorded_layout() {
        let golden = unhex(SAMPLE_HEX);
        assert_eq!(sample().encode(), golden);
        assert_eq!(TrainSnapshot::decode(&golden).unwrap(), sample());
    }

    #[test]
    fn nan_payloads_survive_bit_for_bit() {
        // A quiet NaN carrying payload bits and a signalling-NaN pattern.
        let f32_nans = [f32::from_bits(0x7FC0_1234), f32::from_bits(0xFF80_0001)];
        let f64_nans =
            [f64::from_bits(0x7FF8_0000_DEAD_BEEF), f64::from_bits(0xFFF0_0000_0000_0001)];
        let mut s = sample();
        s.params[0] = f32_nans.to_vec();
        s.history.train_loss = f64_nans.to_vec();
        s.history.val_accuracy = f64_nans.to_vec();
        let bytes = s.encode();
        let back = TrainSnapshot::decode(&bytes).unwrap();
        let bits32 = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let bits64 = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits32(&back.params[0]), bits32(&f32_nans));
        assert_eq!(bits64(&back.history.train_loss), bits64(&f64_nans));
        assert_eq!(bits64(&back.history.val_accuracy), bits64(&f64_nans));
        let history = TrainSnapshot::decode_history(&bytes).unwrap();
        assert_eq!(bits64(&history.train_loss), bits64(&f64_nans));
    }
}
