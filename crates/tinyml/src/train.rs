//! The training loop — the body of the paper's `experiment(config)` task.
//!
//! `train` runs mini-batch gradient descent for the configured number of
//! epochs, recording per-epoch training loss and validation accuracy (the
//! curves plotted in the paper's Figures 7 and 8), and supports an epoch
//! callback so the HPO layer can implement early stopping ("the process can
//! be stopped as soon as one task achieves a specified accuracy").
//!
//! Training runs under a [`crate::par::with_threads`] scope sized by
//! [`TrainConfig::threads`], so a task the scheduler constrained to N
//! cores really trains on N worker threads — the substrate behind the
//! paper's Figure 5/9 multi-core-per-task experiments. Thread count is a
//! pure speed knob: results are bit-identical at any degree.

use crate::cnn::Cnn;
use crate::data::{epoch_order, Dataset};
use crate::metrics::evaluate;
use crate::net::{Mlp, Model};
use crate::optim::{Optimizer, OptimizerKind};
use crate::snapshot::TrainSnapshot;

/// Which model family to train — the paper's experiments are CNNs; dense
/// nets are the fast default for large sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelArch {
    /// Multi-layer perceptron over [`TrainConfig::hidden_layers`].
    Dense,
    /// Two-block CNN (see [`crate::cnn::Cnn`]); the dataset rows must be
    /// square images (1 or 3 channels).
    Cnn {
        /// Channels of the first conv block.
        conv1_channels: usize,
        /// Channels of the second conv block.
        conv2_channels: usize,
    },
}

/// Learning-rate schedule applied between epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant,
    /// Multiply the rate by `factor` every `every_epochs` epochs.
    StepDecay {
        /// Epochs between decays (≥ 1).
        every_epochs: u32,
        /// Multiplicative factor in `(0, 1]`.
        factor: f32,
    },
    /// Cosine annealing from the base rate down to `min_frac × base`.
    Cosine {
        /// Final rate as a fraction of the base rate, in `(0, 1]`.
        min_frac: f32,
    },
}

impl LrSchedule {
    /// The learning rate for `epoch` (0-based) of `total` epochs.
    pub fn lr_at(&self, base: f32, epoch: u32, total: u32) -> f32 {
        match self {
            LrSchedule::Constant => base,
            LrSchedule::StepDecay { every_epochs, factor } => {
                let steps = epoch / (*every_epochs).max(1);
                base * factor.powi(steps as i32)
            }
            LrSchedule::Cosine { min_frac } => {
                let lo = base * min_frac;
                if total <= 1 {
                    return base;
                }
                let t = epoch as f32 / (total - 1) as f32;
                lo + 0.5 * (base - lo) * (1.0 + (std::f32::consts::PI * t).cos())
            }
        }
    }
}

/// Hyperparameters of one training — the paper's `config`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of epochs (paper axis: 20 / 50 / 100).
    pub epochs: u32,
    /// Mini-batch size (paper axis: 32 / 64 / 128).
    pub batch_size: usize,
    /// Optimiser (paper axis: Adam / SGD / RMSprop).
    pub optimizer: OptimizerKind,
    /// Learning rate; `0.0` means "use the optimiser's default".
    pub learning_rate: f32,
    /// Learning-rate schedule across epochs.
    pub lr_schedule: LrSchedule,
    /// Model family.
    pub arch: ModelArch,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Hidden layer widths.
    pub hidden_layers: Vec<usize>,
    /// Validation fraction carved out of the dataset.
    pub val_fraction: f64,
    /// RNG seed (weights + shuffling).
    pub seed: u64,
    /// Intra-task worker threads for the compute kernels (GEMM, im2col
    /// convolution). `0` (the default) inherits the ambient degree — the
    /// enclosing [`crate::par::with_threads`] scope that the HPO runner
    /// opens from the task's granted core set, or 1 outside every scope.
    /// Any thread count produces bit-identical results (see
    /// [`crate::par`]); this knob only changes speed, never the trained
    /// model.
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 64,
            optimizer: OptimizerKind::Adam,
            learning_rate: 0.0,
            lr_schedule: LrSchedule::Constant,
            arch: ModelArch::Dense,
            weight_decay: 0.0,
            hidden_layers: vec![64],
            val_fraction: 0.2,
            seed: 42,
            threads: 0,
        }
    }
}

impl TrainConfig {
    /// The learning rate actually used.
    pub fn effective_lr(&self) -> f32 {
        if self.learning_rate > 0.0 {
            self.learning_rate
        } else {
            self.optimizer.default_lr()
        }
    }

    /// One-line description, used as plot legend ("Adam/e50/b64").
    pub fn label(&self) -> String {
        format!("{}/e{}/b{}", self.optimizer, self.epochs, self.batch_size)
    }
}

/// Per-epoch training history, the "training history" the paper's tasks
/// return alongside the final metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f64>,
    /// Validation accuracy per epoch.
    pub val_accuracy: Vec<f64>,
}

impl History {
    /// Last recorded validation accuracy (0.0 before the first epoch).
    pub fn final_val_accuracy(&self) -> f64 {
        self.val_accuracy.last().copied().unwrap_or(0.0)
    }

    /// Number of completed epochs.
    pub fn epochs_run(&self) -> usize {
        self.val_accuracy.len()
    }
}

/// Signal returned by the per-epoch callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochSignal {
    /// Keep training.
    Continue,
    /// Stop now (early stopping).
    Stop,
}

/// Checkpoint control for one training run (see [`train_with_checkpoints`]).
///
/// The default is inert: no resume, never save.
#[derive(Default)]
pub struct Checkpointing<'a> {
    /// Save a snapshot after every `every` completed epochs; `0` disables
    /// saving.
    pub every: u32,
    /// Resume from this snapshot instead of initialising fresh weights.
    /// The snapshot's own seed drives the dataset split and per-epoch
    /// minibatch shuffle — **not** [`TrainConfig::seed`] — so a resumed
    /// trial replays the exact batch stream of the original run even if
    /// the resuming process derived a different ambient seed.
    pub resume: Option<TrainSnapshot>,
    /// Receives each saved snapshot. The HPO trainer hands it to the
    /// runtime's per-task snapshot and, for a whole trial under
    /// `--ckpt-dir`, to the `ckpt` crate's `DirStore`, where it replaces
    /// the trial's previous one.
    pub sink: Option<&'a mut dyn FnMut(&TrainSnapshot)>,
}

/// Train with a per-epoch observer and checkpointing. The observer
/// receives `(epoch_index, train_loss, val_accuracy)` after every epoch and
/// may stop training early. Optionally resume from a snapshot, and emit a
/// snapshot to `ckpt.sink` every `ckpt.every` epochs; a resumed run
/// produces a [`History`] (and final weights) bit-identical to the
/// uninterrupted run's, because the snapshot carries the weights, the
/// optimiser momenta and step clock, and the original RNG seed.
///
/// The observer sees only the epochs actually executed here (absolute
/// epoch indices); replaying pre-snapshot history into early-stop logic is
/// the caller's choice.
pub fn train_with_checkpoints(
    cfg: &TrainConfig,
    data: &Dataset,
    mut ckpt: Checkpointing<'_>,
    observer: &mut impl FnMut(u32, f64, f64) -> EpochSignal,
) -> History {
    assert!(cfg.batch_size > 0, "batch_size must be positive");
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    // Every kernel below (forward/backward GEMMs, im2col convolutions,
    // validation inference) runs under this scope; `threads == 0` keeps
    // the degree the runtime already installed from the task's core grant.
    crate::par::with_threads(cfg.threads, move || {
        train_inner(cfg, data, &mut ckpt, cfg.epochs, None, observer)
    })
}

/// Train one *stage segment*: run epochs `[resume.next_epoch, until)` (or
/// `[0, until)` from scratch) and return the complete training state at
/// exactly `until` — weights, optimiser state, seed, accumulated history —
/// as a fork point other runs can resume from via [`Checkpointing::resume`].
///
/// Unlike [`train_with_checkpoints`], which suppresses the final-epoch
/// snapshot (a finished trial's outcome supersedes it), a segment's whole
/// purpose *is* the state at its end, so the fork snapshot is always
/// produced — even when `until == cfg.epochs`. `ckpt.resume` supplies the
/// parent fork (or a mid-segment recovery snapshot); `ckpt.every` /
/// `ckpt.sink` checkpoint *within* the segment on the usual cadence.
///
/// Because training is deterministic and a snapshot carries seed, weights,
/// optimiser moments and history, chaining segments is bit-identical to
/// one uninterrupted run over the same epochs.
///
/// # Panics
/// Panics if `until > cfg.epochs`.
pub fn train_segment(
    cfg: &TrainConfig,
    data: &Dataset,
    mut ckpt: Checkpointing<'_>,
    until: u32,
) -> TrainSnapshot {
    assert!(until <= cfg.epochs, "segment end {until} past cfg.epochs {}", cfg.epochs);
    assert!(cfg.batch_size > 0, "batch_size must be positive");
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    crate::par::with_threads(cfg.threads, move || {
        let mut fork = None;
        let _ = train_inner(cfg, data, &mut ckpt, until, Some(&mut fork), &mut |_, _, _| {
            EpochSignal::Continue
        });
        fork.expect("segment always produces its fork snapshot")
    })
}

fn train_inner(
    cfg: &TrainConfig,
    data: &Dataset,
    ckpt: &mut Checkpointing<'_>,
    stop_epoch: u32,
    fork: Option<&mut Option<TrainSnapshot>>,
    observer: &mut impl FnMut(u32, f64, f64) -> EpochSignal,
) -> History {
    // The seed governing the split and every epoch's shuffle: on resume it
    // travels with the snapshot (re-deriving it here would silently change
    // the minibatch stream of a retried trial).
    let resume = ckpt.resume.take();
    let seed = resume.as_ref().map_or(cfg.seed, |s| s.seed);
    // Split by index: a mini-batch gathers its rows straight from `data`,
    // only the validation rows are copied out.
    let (train_idx, val_idx) = data.split_indices(cfg.val_fraction, seed);
    let val_set = data.subset(&val_idx, "val");
    // A resumed run restores every parameter from its snapshot, so it draws
    // none.
    let init = resume.is_none().then_some(seed);
    let mut net: Box<dyn Model> = match cfg.arch {
        ModelArch::Dense => {
            Box::new(Mlp::build(data.dim(), &cfg.hidden_layers, data.n_classes, init))
        }
        ModelArch::Cnn { conv1_channels, conv2_channels } => {
            let shape = Cnn::infer_shape(data.dim()).unwrap_or_else(|| {
                panic!("CNN needs square 1/3-channel images; dim {} is neither", data.dim())
            });
            Box::new(Cnn::build(shape, data.n_classes, conv1_channels, conv2_channels, init))
        }
    };
    let base_lr = cfg.effective_lr();
    let mut opt = Optimizer::new(cfg.optimizer, base_lr).with_weight_decay(cfg.weight_decay);

    let mut start_epoch = 0u32;
    let mut history = History::default();
    if let Some(snap) = resume {
        assert!(
            net.restore_params(&snap.params),
            "snapshot does not match the model architecture \
             (params {} vs model {} tensors)",
            snap.params.len(),
            net.params().len(),
        );
        opt = Optimizer::from_state(snap.opt, base_lr);
        start_epoch = snap.next_epoch.min(stop_epoch);
        history = snap.history;
    }

    // Process-global observability: handles fetched once per training run,
    // and only when the registry is switched on (one relaxed load here).
    let epoch_metrics = {
        let reg = runmetrics::global();
        reg.enabled()
            .then(|| (reg.histogram("tinyml_epoch_us"), reg.gauge("tinyml_samples_per_sec")))
    };

    for epoch in start_epoch..stop_epoch {
        opt.set_lr(cfg.lr_schedule.lr_at(base_lr, epoch, cfg.epochs).max(1e-8));
        let epoch_started = epoch_metrics.as_ref().map(|_| std::time::Instant::now());
        let mut loss_sum = 0.0f64;
        let rows = epoch_rows(&train_idx, seed, epoch);
        let n_batches = rows.len().div_ceil(cfg.batch_size).max(1);
        for batch in rows.chunks(cfg.batch_size) {
            let x = data.x.gather_rows(batch);
            let y: Vec<usize> = batch.iter().map(|&i| data.y[i]).collect();
            loss_sum += net.train_batch(&mut opt, &x, &y) as f64;
        }
        let train_loss = loss_sum / n_batches as f64;
        let val_acc = evaluate(net.as_ref(), &val_set);
        if let (Some((epoch_us, samples_per_sec)), Some(t0)) = (&epoch_metrics, epoch_started) {
            let us = t0.elapsed().as_micros() as u64;
            epoch_us.record(us);
            if us > 0 {
                samples_per_sec.set(train_idx.len() as f64 / (us as f64 / 1e6));
            }
        }
        history.train_loss.push(train_loss);
        history.val_accuracy.push(val_acc);
        let stop = observer(epoch, train_loss, val_acc) == EpochSignal::Stop;
        // Snapshot on the configured cadence (and not after the final
        // epoch — a finished trial's outcome supersedes its snapshots).
        if ckpt.every > 0
            && (epoch + 1).is_multiple_of(ckpt.every)
            && !stop
            && epoch + 1 < stop_epoch
        {
            if let Some(sink) = ckpt.sink.as_mut() {
                sink(&TrainSnapshot {
                    seed,
                    epochs_total: cfg.epochs,
                    next_epoch: epoch + 1,
                    params: net.params(),
                    opt: opt.state(),
                    history: history.clone(),
                });
            }
        }
        if stop {
            break;
        }
    }
    if let Some(out) = fork {
        *out = Some(TrainSnapshot {
            seed,
            epochs_total: cfg.epochs,
            // history length is the absolute epoch count (resumed epochs
            // plus the ones run here), so this stays correct even if an
            // observer stopped the loop before `stop_epoch`.
            next_epoch: history.epochs_run() as u32,
            params: net.params(),
            opt: opt.state(),
            history: history.clone(),
        });
    }
    history
}

/// The rows of `data` one epoch trains on, in mini-batch order: the epoch's
/// shuffle of the training subset ([`Dataset::batches`] over the
/// materialised split), mapped back through the split's index.
fn epoch_rows(train_idx: &[usize], seed: u64, epoch: u32) -> Vec<usize> {
    let mut rows = epoch_order(train_idx.len(), seed, epoch);
    for r in &mut rows {
        *r = train_idx[*r];
    }
    rows
}

/// Train to completion without an observer.
pub fn train(cfg: &TrainConfig, data: &Dataset) -> History {
    train_with_checkpoints(cfg, data, Checkpointing::default(), &mut |_, _, _| {
        EpochSignal::Continue
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(optimizer: OptimizerKind) -> TrainConfig {
        TrainConfig {
            epochs: 5,
            batch_size: 32,
            optimizer,
            hidden_layers: vec![32],
            seed: 1,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn mnist_like_reaches_high_accuracy_fast() {
        // The property Figure 7 rests on: MNIST-like generalises quickly.
        let data = Dataset::synthetic_mnist(1500, 7);
        let h = train(&quick_cfg(OptimizerKind::Adam), &data);
        assert!(h.final_val_accuracy() > 0.85, "got {}", h.final_val_accuracy());
        assert_eq!(h.epochs_run(), 5);
    }

    #[test]
    fn all_three_paper_optimizers_learn() {
        let data = Dataset::synthetic_mnist(800, 3);
        for kind in OptimizerKind::ALL {
            let h = train(&quick_cfg(kind), &data);
            assert!(h.final_val_accuracy() > 0.5, "{kind} stuck at {}", h.final_val_accuracy());
        }
    }

    #[test]
    fn epoch_metrics_flow_into_global_registry() {
        // Counters in the global registry are monotonic and shared across
        // this test binary, so assert deltas rather than absolutes.
        let reg = runmetrics::global();
        let before = reg.snapshot().histogram("tinyml_epoch_us").map(|h| h.count).unwrap_or(0);
        reg.set_enabled(true);
        let data = Dataset::synthetic_mnist(200, 11);
        let h = train(&TrainConfig { epochs: 3, ..quick_cfg(OptimizerKind::Sgd) }, &data);
        reg.set_enabled(false);
        assert_eq!(h.epochs_run(), 3);
        let snap = reg.snapshot();
        let epochs = snap.histogram("tinyml_epoch_us").expect("epoch series").count;
        assert!(epochs >= before + 3, "expected ≥3 new epoch samples, got {epochs}-{before}");
        assert!(snap.gauge("tinyml_samples_per_sec").expect("throughput gauge") > 0.0);
    }

    #[test]
    fn loss_trends_downward() {
        let data = Dataset::synthetic_mnist(600, 5);
        let h = train(&quick_cfg(OptimizerKind::Adam), &data);
        let first = h.train_loss.first().copied().unwrap();
        let last = h.train_loss.last().copied().unwrap();
        assert!(last < first, "loss should fall: {first} → {last}");
    }

    #[test]
    fn thread_count_never_changes_the_model() {
        // The serial-equivalence guarantee, end to end: the whole training
        // history (losses and accuracies) is identical at any degree.
        let data = Dataset::synthetic_mnist(400, 8);
        let serial = train(&TrainConfig { threads: 1, ..quick_cfg(OptimizerKind::Adam) }, &data);
        for threads in [2usize, 4] {
            let par = train(&TrainConfig { threads, ..quick_cfg(OptimizerKind::Adam) }, &data);
            assert_eq!(par, serial, "{threads} threads");
        }
        // CNN path too (exercises the batched im2col lowering).
        let spatial = Dataset::synthetic(
            "mnist-spatial",
            120,
            &crate::data::SyntheticSpec::mnist_like_spatial(),
            4,
        );
        let cnn_cfg = TrainConfig {
            epochs: 1,
            arch: ModelArch::Cnn { conv1_channels: 3, conv2_channels: 4 },
            ..quick_cfg(OptimizerKind::Sgd)
        };
        let cnn_serial = train(&TrainConfig { threads: 1, ..cnn_cfg.clone() }, &spatial);
        let cnn_par = train(&TrainConfig { threads: 4, ..cnn_cfg }, &spatial);
        assert_eq!(cnn_par, cnn_serial);
    }

    #[test]
    fn training_is_deterministic() {
        let data = Dataset::synthetic_mnist(400, 9);
        let a = train(&quick_cfg(OptimizerKind::RmsProp), &data);
        let b = train(&quick_cfg(OptimizerKind::RmsProp), &data);
        assert_eq!(a, b);
    }

    #[test]
    fn observer_can_stop_early() {
        let data = Dataset::synthetic_mnist(400, 2);
        let mut calls = 0;
        let cfg = quick_cfg(OptimizerKind::Adam);
        let h = train_with_checkpoints(&cfg, &data, Checkpointing::default(), &mut |_, _, _| {
            calls += 1;
            if calls == 2 {
                EpochSignal::Stop
            } else {
                EpochSignal::Continue
            }
        });
        assert_eq!(h.epochs_run(), 2);
        assert_eq!(calls, 2);
    }

    #[test]
    fn cifar_like_is_harder_than_mnist_like() {
        // The property Figure 8 rests on: same budget, lower accuracy.
        let mnist = Dataset::synthetic_mnist(900, 4);
        let cfg = quick_cfg(OptimizerKind::Adam);
        let hm = train(&cfg, &mnist);
        let cifar = Dataset::synthetic_cifar10(900, 4);
        let hc = train(&cfg, &cifar);
        assert!(
            hc.final_val_accuracy() < hm.final_val_accuracy(),
            "cifar {} !< mnist {}",
            hc.final_val_accuracy(),
            hm.final_val_accuracy()
        );
    }

    #[test]
    fn history_helpers() {
        let h = History { train_loss: vec![1.0, 0.5], val_accuracy: vec![0.3, 0.8] };
        assert_eq!(h.final_val_accuracy(), 0.8);
        assert_eq!(h.epochs_run(), 2);
        assert_eq!(History::default().final_val_accuracy(), 0.0);
    }

    #[test]
    fn config_label_and_lr() {
        let cfg = quick_cfg(OptimizerKind::Sgd);
        assert_eq!(cfg.label(), "SGD/e5/b32");
        assert_eq!(cfg.effective_lr(), 0.01);
        let explicit = TrainConfig { learning_rate: 0.5, ..cfg };
        assert_eq!(explicit.effective_lr(), 0.5);
    }

    #[test]
    fn lr_schedules_produce_expected_rates() {
        let s = LrSchedule::Constant;
        assert_eq!(s.lr_at(0.1, 0, 10), 0.1);
        assert_eq!(s.lr_at(0.1, 9, 10), 0.1);

        let d = LrSchedule::StepDecay { every_epochs: 3, factor: 0.5 };
        assert_eq!(d.lr_at(0.8, 0, 10), 0.8);
        assert_eq!(d.lr_at(0.8, 2, 10), 0.8);
        assert_eq!(d.lr_at(0.8, 3, 10), 0.4);
        assert_eq!(d.lr_at(0.8, 6, 10), 0.2);

        let c = LrSchedule::Cosine { min_frac: 0.1 };
        assert!((c.lr_at(1.0, 0, 11) - 1.0).abs() < 1e-6, "starts at base");
        assert!((c.lr_at(1.0, 10, 11) - 0.1).abs() < 1e-6, "ends at min");
        let mid = c.lr_at(1.0, 5, 11);
        assert!(mid > 0.1 && mid < 1.0);
        assert_eq!(c.lr_at(1.0, 0, 1), 1.0, "single-epoch training keeps base");
    }

    #[test]
    fn scheduled_training_still_learns() {
        let data = Dataset::synthetic_mnist(800, 6);
        let cfg = TrainConfig {
            lr_schedule: LrSchedule::StepDecay { every_epochs: 2, factor: 0.5 },
            weight_decay: 1e-4,
            ..quick_cfg(OptimizerKind::Adam)
        };
        let h = train(&cfg, &data);
        assert!(h.final_val_accuracy() > 0.6, "got {}", h.final_val_accuracy());
        // deterministic as well
        assert_eq!(train(&cfg, &data), h);
    }

    #[test]
    fn weight_decay_changes_the_trajectory() {
        let data = Dataset::synthetic_mnist(400, 6);
        let plain = train(&quick_cfg(OptimizerKind::Adam), &data);
        let decayed =
            train(&TrainConfig { weight_decay: 0.05, ..quick_cfg(OptimizerKind::Adam) }, &data);
        assert_ne!(plain, decayed);
    }

    /// Capture the snapshot emitted after `every` epochs of a run.
    fn snapshot_at(cfg: &TrainConfig, data: &Dataset, every: u32) -> crate::TrainSnapshot {
        let mut captured = None;
        let mut sink = |s: &crate::TrainSnapshot| {
            if captured.is_none() {
                captured = Some(s.clone());
            }
        };
        let _ = train_with_checkpoints(
            cfg,
            data,
            Checkpointing { every, resume: None, sink: Some(&mut sink) },
            &mut |_, _, _| EpochSignal::Continue,
        );
        captured.expect("no snapshot emitted")
    }

    #[test]
    fn resumed_run_is_bit_identical_to_uninterrupted() {
        let data = Dataset::synthetic_mnist(400, 5);
        for kind in OptimizerKind::ALL {
            let cfg = TrainConfig {
                lr_schedule: LrSchedule::StepDecay { every_epochs: 2, factor: 0.5 },
                weight_decay: 1e-4,
                ..quick_cfg(kind)
            };
            let uninterrupted = train(&cfg, &data);
            let snap = snapshot_at(&cfg, &data, 2);
            assert_eq!(snap.next_epoch, 2);
            assert_eq!(snap.history.epochs_run(), 2);
            let resumed = train_with_checkpoints(
                &cfg,
                &data,
                Checkpointing { every: 0, resume: Some(snap), sink: None },
                &mut |_, _, _| EpochSignal::Continue,
            );
            assert_eq!(resumed, uninterrupted, "{kind} resumed run diverged");
        }
    }

    #[test]
    fn snapshot_survives_its_wire_encoding() {
        // The full path a distributed retry takes: snapshot → bytes →
        // snapshot → resume. Must still be bit-identical.
        let data = Dataset::synthetic_mnist(300, 8);
        let cfg = quick_cfg(OptimizerKind::Adam);
        let uninterrupted = train(&cfg, &data);
        let snap = snapshot_at(&cfg, &data, 3);
        let snap = crate::TrainSnapshot::decode(&snap.encode()).expect("decodes");
        let resumed = train_with_checkpoints(
            &cfg,
            &data,
            Checkpointing { every: 0, resume: Some(snap), sink: None },
            &mut |_, _, _| EpochSignal::Continue,
        );
        assert_eq!(resumed, uninterrupted);
    }

    #[test]
    fn resume_uses_the_snapshot_seed_not_the_ambient_one() {
        // The RNG bugfix: a resuming process that derived a different seed
        // must still replay the original run's split and shuffle stream.
        let data = Dataset::synthetic_mnist(400, 5);
        let cfg = quick_cfg(OptimizerKind::Sgd);
        let uninterrupted = train(&cfg, &data);
        let snap = snapshot_at(&cfg, &data, 2);
        let wrong_seed_cfg = TrainConfig { seed: cfg.seed ^ 0x5555, ..cfg };
        let resumed = train_with_checkpoints(
            &wrong_seed_cfg,
            &data,
            Checkpointing { every: 0, resume: Some(snap), sink: None },
            &mut |_, _, _| EpochSignal::Continue,
        );
        assert_eq!(resumed, uninterrupted, "snapshot seed must override cfg.seed");
    }

    #[test]
    fn cnn_resume_is_bit_identical_too() {
        let data = Dataset::synthetic(
            "mnist-spatial",
            120,
            &crate::data::SyntheticSpec::mnist_like_spatial(),
            4,
        );
        let cfg = TrainConfig {
            epochs: 3,
            arch: ModelArch::Cnn { conv1_channels: 3, conv2_channels: 4 },
            ..quick_cfg(OptimizerKind::Adam)
        };
        let uninterrupted = train(&cfg, &data);
        let snap = snapshot_at(&cfg, &data, 1);
        let snap = crate::TrainSnapshot::decode(&snap.encode()).unwrap();
        let resumed = train_with_checkpoints(
            &cfg,
            &data,
            Checkpointing { every: 0, resume: Some(snap), sink: None },
            &mut |_, _, _| EpochSignal::Continue,
        );
        assert_eq!(resumed, uninterrupted);
    }

    proptest::proptest! {
        /// The index split feeds `train_batch` what the materialised split
        /// did: same rows, same labels, same batch boundaries.
        #[test]
        fn index_split_feeds_the_rows_the_copied_split_did(
            n in 1usize..90,
            val_pct in 0u32..95,
            seed in proptest::prelude::any::<u64>(),
            batch_size in 1usize..40,
            epoch in 0u32..50,
        ) {
            let spec = crate::data::SyntheticSpec { dim: 6, ..crate::data::SyntheticSpec::mnist_like() };
            let data = Dataset::synthetic("p", n, &spec, seed ^ 1);
            let val_frac = f64::from(val_pct) / 100.0;
            let (train_set, val_set) = data.split(val_frac, seed);
            let (train_idx, val_idx) = data.split_indices(val_frac, seed);
            proptest::prop_assert_eq!(&data.subset(&val_idx, "v").x, &val_set.x);
            proptest::prop_assert_eq!(&data.subset(&val_idx, "v").y, &val_set.y);
            let rows = epoch_rows(&train_idx, seed, epoch);
            let old = train_set.batches(batch_size, seed, epoch);
            proptest::prop_assert_eq!(rows.chunks(batch_size).count(), old.len());
            for (batch, old) in rows.chunks(batch_size).zip(&old) {
                proptest::prop_assert_eq!(data.x.gather_rows(batch), train_set.x.gather_rows(old));
                let y: Vec<usize> = batch.iter().map(|&i| data.y[i]).collect();
                let old_y: Vec<usize> = old.iter().map(|&i| train_set.y[i]).collect();
                proptest::prop_assert_eq!(y, old_y);
            }
        }
    }

    #[test]
    fn resuming_into_a_zero_model_equals_resuming_over_drawn_weights() {
        // What `train_inner` does on resume (zero model, snapshot restored
        // into it, optimiser state taken over) against what it used to do
        // (draw `Mlp::new` / `Cnn::new`, overwrite): same parameters, and
        // the same losses and parameters after further steps.
        let data = Dataset::synthetic(
            "mnist-spatial",
            96,
            &crate::data::SyntheticSpec::mnist_like_spatial(),
            4,
        );
        let shape = Cnn::infer_shape(data.dim()).unwrap();
        for (arch, kind) in [
            (ModelArch::Dense, OptimizerKind::Adam),
            (ModelArch::Dense, OptimizerKind::Sgd),
            (ModelArch::Cnn { conv1_channels: 3, conv2_channels: 4 }, OptimizerKind::Adam),
        ] {
            let cfg = TrainConfig { epochs: 3, arch, ..quick_cfg(kind) };
            let fork = train_segment(&cfg, &data, Checkpointing::default(), 1);
            let build = |seed: Option<u64>| -> Box<dyn Model> {
                match arch {
                    ModelArch::Dense => {
                        Box::new(Mlp::build(data.dim(), &cfg.hidden_layers, data.n_classes, seed))
                    }
                    ModelArch::Cnn { conv1_channels, conv2_channels } => Box::new(Cnn::build(
                        shape,
                        data.n_classes,
                        conv1_channels,
                        conv2_channels,
                        seed,
                    )),
                }
            };
            let (mut zero, mut drawn) = (build(None), build(Some(cfg.seed)));
            assert!(zero.params().iter().flatten().all(|&w| w == 0.0));
            assert!(zero.restore_params(&fork.params) && drawn.restore_params(&fork.params));
            assert_eq!(zero.params(), drawn.params());
            let mut opt_z = Optimizer::from_state(fork.opt.clone(), cfg.effective_lr());
            let mut opt_d = Optimizer::from_state(fork.opt.clone(), cfg.effective_lr());
            for batch in data.batches(32, 9, 0) {
                let x = data.x.gather_rows(&batch);
                let y: Vec<usize> = batch.iter().map(|&i| data.y[i]).collect();
                let (lz, ld) =
                    (zero.train_batch(&mut opt_z, &x, &y), drawn.train_batch(&mut opt_d, &x, &y));
                assert_eq!(lz.to_bits(), ld.to_bits());
            }
            assert_eq!(zero.params(), drawn.params());
            assert_eq!(opt_z.state(), opt_d.state());
            // And through the loop itself: the resumed chain is the
            // uninterrupted run, history and final parameters.
            let whole = train_segment(&cfg, &data, Checkpointing::default(), 3);
            let chained = train_segment(
                &cfg,
                &data,
                Checkpointing { every: 0, resume: Some(fork), sink: None },
                3,
            );
            assert_eq!(chained, whole, "{arch:?} {kind}");
        }
    }

    #[test]
    fn snapshot_cadence_and_final_epoch_suppression() {
        let data = Dataset::synthetic_mnist(200, 3);
        let cfg = quick_cfg(OptimizerKind::Sgd); // 5 epochs
        let mut epochs_seen = Vec::new();
        let mut sink = |s: &crate::TrainSnapshot| epochs_seen.push(s.next_epoch);
        let _ = train_with_checkpoints(
            &cfg,
            &data,
            Checkpointing { every: 2, resume: None, sink: Some(&mut sink) },
            &mut |_, _, _| EpochSignal::Continue,
        );
        // every=2 over 5 epochs: snapshots after epochs 2 and 4; nothing at
        // 5 (the run is finished — the outcome supersedes snapshots).
        assert_eq!(epochs_seen, vec![2, 4]);
    }

    #[test]
    #[should_panic(expected = "architecture")]
    fn mismatched_snapshot_architecture_panics() {
        let data = Dataset::synthetic_mnist(200, 3);
        let cfg = quick_cfg(OptimizerKind::Sgd);
        let snap = snapshot_at(&cfg, &data, 2);
        let other = TrainConfig { hidden_layers: vec![8], ..cfg };
        let _ = train_with_checkpoints(
            &other,
            &data,
            Checkpointing { every: 0, resume: Some(snap), sink: None },
            &mut |_, _, _| EpochSignal::Continue,
        );
    }

    #[test]
    fn segment_chain_is_bit_identical_to_uninterrupted() {
        // The stage-tree contract: [0,2) then [2,5) equals one [0,5) run.
        let data = Dataset::synthetic_mnist(400, 5);
        for kind in OptimizerKind::ALL {
            let cfg = TrainConfig {
                lr_schedule: LrSchedule::StepDecay { every_epochs: 2, factor: 0.5 },
                ..quick_cfg(kind)
            };
            let uninterrupted = train(&cfg, &data);
            let fork = train_segment(&cfg, &data, Checkpointing::default(), 2);
            assert_eq!(fork.next_epoch, 2);
            assert_eq!(fork.history.epochs_run(), 2);
            let done = train_segment(
                &cfg,
                &data,
                Checkpointing { every: 0, resume: Some(fork), sink: None },
                cfg.epochs,
            );
            assert_eq!(done.history, uninterrupted, "{kind} segment chain diverged");
            assert_eq!(done.next_epoch, cfg.epochs);
        }
    }

    #[test]
    fn shared_prefix_fork_matches_separate_runs() {
        // Two configs that differ only in total epochs share [0,3): train
        // that prefix once under the longer config, fork, and both the
        // short trial's outcome and the long trial's continuation must be
        // bit-identical to their standalone runs.
        let data = Dataset::synthetic_mnist(400, 6);
        let short = TrainConfig { epochs: 3, ..quick_cfg(OptimizerKind::Adam) };
        let long = TrainConfig { epochs: 6, ..quick_cfg(OptimizerKind::Adam) };
        let fork = train_segment(&long, &data, Checkpointing::default(), 3);
        assert_eq!(fork.history, train(&short, &data), "short trial reads the fork");
        let cont = train_segment(
            &long,
            &data,
            Checkpointing { every: 0, resume: Some(fork), sink: None },
            6,
        );
        assert_eq!(cont.history, train(&long, &data), "long trial resumes the fork");
    }

    #[test]
    fn decay_fork_children_diverge_correctly() {
        // Same base, different step-decay factors: prefix [0,2) is shared
        // (decay binds at epoch 2), each child resumes with its own
        // schedule and must match its standalone run.
        let data = Dataset::synthetic_mnist(300, 7);
        let mk = |factor: f32| TrainConfig {
            epochs: 4,
            lr_schedule: LrSchedule::StepDecay { every_epochs: 2, factor },
            ..quick_cfg(OptimizerKind::Sgd)
        };
        let (a, b) = (mk(0.5), mk(0.25));
        let fork = train_segment(&a, &data, Checkpointing::default(), 2);
        for cfg in [&a, &b] {
            let done = train_segment(
                cfg,
                &data,
                Checkpointing { every: 0, resume: Some(fork.clone()), sink: None },
                4,
            );
            assert_eq!(done.history, train(cfg, &data));
        }
    }

    #[test]
    fn segment_emits_final_fork_even_at_cfg_epochs() {
        let data = Dataset::synthetic_mnist(200, 3);
        let cfg = quick_cfg(OptimizerKind::Sgd); // 5 epochs
        let mut cadence = Vec::new();
        let mut sink = |s: &crate::TrainSnapshot| cadence.push(s.next_epoch);
        let done = train_segment(
            &cfg,
            &data,
            Checkpointing { every: 2, resume: None, sink: Some(&mut sink) },
            5,
        );
        // cadence snapshots at 2 and 4 (segment end suppressed there), plus
        // the unconditional fork return at 5.
        assert_eq!(cadence, vec![2, 4]);
        assert_eq!(done.next_epoch, 5);
    }

    #[test]
    fn zero_length_segment_returns_initial_state() {
        let data = Dataset::synthetic_mnist(200, 3);
        let cfg = quick_cfg(OptimizerKind::Adam);
        let fork = train_segment(&cfg, &data, Checkpointing::default(), 0);
        assert_eq!(fork.next_epoch, 0);
        assert_eq!(fork.history.epochs_run(), 0);
        assert!(!fork.params.is_empty(), "initial weights captured");
    }

    #[test]
    #[should_panic(expected = "past cfg.epochs")]
    fn segment_end_past_config_epochs_panics() {
        let data = Dataset::synthetic_mnist(100, 3);
        let _ = train_segment(&quick_cfg(OptimizerKind::Adam), &data, Checkpointing::default(), 6);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let data = Dataset {
            x: crate::tensor::Matrix::zeros(0, 4),
            y: vec![],
            n_classes: 2,
            name: "empty".into(),
        };
        let _ = train(&TrainConfig::default(), &data);
    }
}
