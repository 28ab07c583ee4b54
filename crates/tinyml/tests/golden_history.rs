//! The training curves, pinned: one FNV-1a hash over the bits of every
//! epoch's training loss and validation accuracy of a fixed set of
//! trainings, compared with a constant.
//!
//! The constant was computed on the kernels of the commit *before* the
//! GEMM micro-kernel and the skipped input gradients went in, and has not
//! been edited since: "the curves are bit-identical to before" is this test
//! passing, not a sentence in EXPERIMENTS.md. A change that is meant to
//! move the numbers (a new initialisation, another accumulation order)
//! recomputes it — the failure message prints the new value — and says so.
//!
//! The set covers what the kernels see in use: all three optimisers; no
//! hidden layer (the only layer is layer 0, `n = 10` edge tiles only), one
//! (the benchmark's 784-32-10) and two (`[48, 20]`: a middle layer whose
//! input gradient *is* consumed); batch 32 (even tiles) and 50 (the 320
//! training rows leave a ragged last batch of 20); a CNN on the spatial
//! set; and a `train_segment` chain resumed mid-way.
//!
//! The datasets come out of `ln`/`cos` and the loss out of `exp`, so the
//! constant belongs to this platform's `libm`; debug and release builds
//! agree on it.

use tinyml::data::SyntheticSpec;
use tinyml::train::{train, train_segment, Checkpointing, History, LrSchedule};
use tinyml::{Dataset, ModelArch, OptimizerKind, TrainConfig};

/// Computed at the parent of the kernel change; see the module docs.
const GOLDEN: u64 = 0xbd9b_d485_9aa1_492f;

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn absorb(hash: &mut u64, history: &History) {
    for v in history.train_loss.iter().chain(&history.val_accuracy) {
        for byte in v.to_bits().to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn training_histories_hash_to_the_pinned_constant() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut epochs = 0;

    let mnist = Dataset::synthetic("mnist-like", 400, &SyntheticSpec::mnist_like(), 20);
    for optimizer in OptimizerKind::ALL {
        for hidden in [vec![], vec![32], vec![48, 20]] {
            for batch_size in [32, 50] {
                let cfg = TrainConfig {
                    epochs: 3,
                    batch_size,
                    optimizer,
                    hidden_layers: hidden.clone(),
                    seed: 7,
                    ..TrainConfig::default()
                };
                let history = train(&cfg, &mnist);
                epochs += history.epochs_run();
                absorb(&mut hash, &history);
            }
        }
    }

    let spatial =
        Dataset::synthetic("mnist-spatial", 120, &SyntheticSpec::mnist_like_spatial(), 21);
    let cnn = TrainConfig {
        epochs: 2,
        batch_size: 32,
        arch: ModelArch::Cnn { conv1_channels: 3, conv2_channels: 4 },
        seed: 8,
        ..TrainConfig::default()
    };
    let history = train(&cnn, &spatial);
    epochs += history.epochs_run();
    absorb(&mut hash, &history);

    // A stage-tree fork: epochs [0, 2), then [2, 4) resumed from the fork.
    let staged = TrainConfig {
        epochs: 4,
        batch_size: 32,
        hidden_layers: vec![32],
        lr_schedule: LrSchedule::StepDecay { every_epochs: 2, factor: 0.5 },
        weight_decay: 1e-4,
        seed: 9,
        ..TrainConfig::default()
    };
    let fork = train_segment(&staged, &mnist, Checkpointing::default(), 2);
    let done = train_segment(
        &staged,
        &mnist,
        Checkpointing { every: 0, resume: Some(fork), sink: None },
        staged.epochs,
    );
    epochs += done.history.epochs_run();
    absorb(&mut hash, &done.history);

    assert_eq!(epochs, 18 * 3 + 2 + 4, "every training ran to its last epoch");
    assert_eq!(
        hash, GOLDEN,
        "training histories changed: hash {hash:#018x}, pinned {GOLDEN:#018x}"
    );
}
