//! Property tests for training snapshots: encode/decode (and a real
//! `ckpt::DirStore` save/load) round-trips random MLP/CNN weights and
//! random optimiser state bit-exactly — including non-finite floats and
//! negative zero, hence the bitwise comparisons — and the history-only
//! read accepts exactly the corrupted encodings `decode` accepts.

use proptest::collection::vec;
use proptest::prelude::*;
use tinyml::cnn::Cnn;
use tinyml::net::Model;
use tinyml::optim::{OptimizerKind, OptimizerState, SlotState};
use tinyml::snapshot::TrainSnapshot;
use tinyml::train::History;
use tinyml::Mlp;

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn f64_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Bit-level equality over every float in the snapshot (PartialEq would
/// reject NaN == NaN, which this test deliberately allows).
fn bits_equal(a: &TrainSnapshot, b: &TrainSnapshot) -> bool {
    let slot_bits = |s: &SlotState| match s {
        SlotState::Sgd(v) => (0u8, f32_bits(v), vec![]),
        SlotState::RmsProp(v) => (1, f32_bits(v), vec![]),
        SlotState::Adam(m, v) => (2, f32_bits(m), f32_bits(v)),
    };
    a.seed == b.seed
        && a.epochs_total == b.epochs_total
        && a.next_epoch == b.next_epoch
        && a.params.len() == b.params.len()
        && a.params.iter().zip(&b.params).all(|(x, y)| f32_bits(x) == f32_bits(y))
        && a.opt.kind == b.opt.kind
        && a.opt.weight_decay.to_bits() == b.opt.weight_decay.to_bits()
        && a.opt.t == b.opt.t
        && a.opt.slots.len() == b.opt.slots.len()
        && a.opt.slots.iter().zip(&b.opt.slots).all(|(x, y)| slot_bits(x) == slot_bits(y))
        && f64_bits(&a.history.train_loss) == f64_bits(&b.history.train_loss)
        && f64_bits(&a.history.val_accuracy) == f64_bits(&b.history.val_accuracy)
}

/// Arbitrary f32 bit patterns: exercises subnormals, infinities, NaNs.
fn any_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

/// Random Adam state with one slot per parameter tensor (matching `lens`).
fn adam_state(lens: Vec<usize>) -> impl Strategy<Value = OptimizerState> {
    let slots: Vec<BoxedStrategy<SlotState>> = lens
        .into_iter()
        .map(|n| {
            (vec(any_f32(), n..=n), vec(any_f32(), n..=n))
                .prop_map(|(m, v)| SlotState::Adam(m, v))
                .boxed()
        })
        .collect();
    (any::<u64>(), any_f32(), slots).prop_map(|(t, wd, slots)| OptimizerState {
        kind: OptimizerKind::Adam,
        weight_decay: wd,
        t,
        slots,
    })
}

/// A full snapshot around the given (already random) model weights.
fn snapshot_around(params: Vec<Vec<f32>>) -> impl Strategy<Value = TrainSnapshot> {
    let lens: Vec<usize> = params.iter().map(Vec::len).collect();
    (any::<u64>(), 1u32..100, vec(any::<f64>(), 0..6), vec(any::<f64>(), 0..6), adam_state(lens))
        .prop_map(move |(seed, epochs_total, tl, va, opt)| TrainSnapshot {
            seed,
            epochs_total,
            next_epoch: epochs_total / 2,
            params: params.clone(),
            opt,
            history: History { train_loss: tl, val_accuracy: va },
        })
}

/// Random MLP architecture + a snapshot of its weights.
fn mlp_case() -> impl Strategy<Value = (usize, Vec<usize>, usize, u64, TrainSnapshot)> {
    (1usize..20, vec(1usize..12, 0..3), 2usize..6, any::<u64>()).prop_flat_map(
        |(dim, hidden, classes, seed)| {
            let net = Mlp::new(dim, &hidden, classes, seed);
            snapshot_around(Model::params(&net))
                .prop_map(move |s| (dim, hidden.clone(), classes, seed, s))
        },
    )
}

/// Random CNN architecture + a snapshot of its weights.
fn cnn_case() -> impl Strategy<Value = (usize, usize, usize, usize, u64, TrainSnapshot)> {
    (4usize..10, 1usize..4, 1usize..4, 2usize..5, any::<u64>()).prop_flat_map(
        |(side, c1, c2, classes, seed)| {
            let net = Cnn::new((1, side, side), classes, c1, c2, seed);
            snapshot_around(net.params()).prop_map(move |s| (side, c1, c2, classes, seed, s))
        },
    )
}

/// `decode_history` accepts `bytes` exactly when `decode` does, and then
/// returns the same history, bit for bit.
fn history_read_agrees(bytes: &[u8]) -> Result<(), TestCaseError> {
    match (TrainSnapshot::decode(bytes), TrainSnapshot::decode_history(bytes)) {
        (None, None) => Ok(()),
        (Some(full), Some(history)) => {
            prop_assert_eq!(f64_bits(&full.history.train_loss), f64_bits(&history.train_loss));
            prop_assert_eq!(f64_bits(&full.history.val_accuracy), f64_bits(&history.val_accuracy));
            Ok(())
        }
        (full, history) => Err(TestCaseError::fail(format!(
            "decode accepts: {}, history read accepts: {}",
            full.is_some(),
            history.is_some()
        ))),
    }
}

/// Every truncation, a flipped magic, an unknown slot tag, a trailing
/// byte and the given random byte flips of one encoded snapshot.
fn history_read_agrees_on_corruptions(
    snap: &TrainSnapshot,
    flips: &[(usize, u8)],
) -> Result<(), TestCaseError> {
    let bytes = snap.encode();
    history_read_agrees(&bytes)?;
    for cut in 0..bytes.len() {
        history_read_agrees(&bytes[..cut])?;
    }
    let mut trailing = bytes.clone();
    trailing.push(0);
    history_read_agrees(&trailing)?;
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0x01;
    history_read_agrees(&bad_magic)?;
    if !snap.opt.slots.is_empty() {
        // The first slot tag follows the header, the params and the
        // optimiser header.
        let params: usize = snap.params.iter().map(|p| 4 + 4 * p.len()).sum();
        let tag_at = 24 + params + 20;
        let mut bad_tag = bytes.clone();
        bad_tag[tag_at] = 7;
        history_read_agrees(&bad_tag)?;
    }
    for &(at, x) in flips {
        let mut flipped = bytes.clone();
        flipped[at % bytes.len()] ^= x.max(1);
        history_read_agrees(&flipped)?;
    }
    Ok(())
}

/// Removes its directory when dropped, however the test ends.
struct RemoveOnDrop(std::path::PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A snapshot store in `$TMPDIR/tinyml-snap-props-<pid>`, and the guard
/// that removes it. One test of this binary stores, a case at a time.
fn store() -> (ckpt::DirStore, RemoveOnDrop) {
    let dir = std::env::temp_dir().join(format!("tinyml-snap-props-{}", std::process::id()));
    (ckpt::DirStore::open(&dir).unwrap(), RemoveOnDrop(dir))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mlp_weights_and_adam_state_round_trip_exactly(
        (dim, hidden, classes, seed, snap) in mlp_case(),
        trial in any::<u64>(),
    ) {
        // In-memory encode/decode is exact…
        let decoded = TrainSnapshot::decode(&snap.encode()).expect("decodes");
        prop_assert!(bits_equal(&decoded, &snap));

        // …and so is the full save/load through the DirStore.
        let (s, _dir) = store();
        s.save(trial, &snap.encode()).unwrap();
        let blob = s.load(trial).unwrap().expect("stored");
        let loaded = TrainSnapshot::decode(&blob).expect("decodes from disk");
        prop_assert!(bits_equal(&loaded, &snap));
        s.clear(trial).unwrap();

        // Restoring into a differently-seeded model reproduces the tensors.
        let mut other = Mlp::new(dim, &hidden, classes, seed ^ 0xFFFF);
        prop_assert!(other.restore_params(&loaded.params));
        for (a, b) in Model::params(&other).iter().zip(&snap.params) {
            prop_assert_eq!(f32_bits(a), f32_bits(b));
        }
    }

    #[test]
    fn cnn_weights_and_adam_state_round_trip_exactly(
        (side, c1, c2, classes, seed, snap) in cnn_case(),
    ) {
        let decoded = TrainSnapshot::decode(&snap.encode()).expect("decodes");
        prop_assert!(bits_equal(&decoded, &snap));

        let mut other = Cnn::new((1, side, side), classes, c1, c2, seed.wrapping_add(1));
        prop_assert!(other.restore_params(&decoded.params));
        for (a, b) in other.params().iter().zip(&snap.params) {
            prop_assert_eq!(f32_bits(a), f32_bits(b));
        }

        // Shape mismatch must be rejected without touching the model.
        let mut wrong = Cnn::new((1, side, side), classes, c1 + 1, c2, seed);
        let before = wrong.params();
        prop_assert!(!wrong.restore_params(&decoded.params));
        for (a, b) in wrong.params().iter().zip(&before) {
            prop_assert_eq!(f32_bits(a), f32_bits(b));
        }
    }

    #[test]
    fn mlp_history_read_accepts_what_decode_accepts(
        (_, _, _, _, snap) in mlp_case(),
        flips in vec((any::<usize>(), any::<u8>()), 32),
    ) {
        history_read_agrees_on_corruptions(&snap, &flips)?;
    }

    #[test]
    fn cnn_history_read_accepts_what_decode_accepts(
        (_, _, _, _, _, snap) in cnn_case(),
        flips in vec((any::<usize>(), any::<u8>()), 32),
    ) {
        history_read_agrees_on_corruptions(&snap, &flips)?;
    }
}
