//! Experiments: one training run under one configuration.
//!
//! "Training and observing a model is an experiment and can be defined as a
//! task in PyCOMPSs terms" (paper §4). An experiment is the pair of a
//! [`Config`] and an *objective function*; the runner turns each pair into
//! one rcompss task. [`Trainer`] is the one body that trains a config: the
//! experiment task runs it over a whole trial, the stage task
//! ([`crate::stagetree`]) over one segment of a shared prefix.

use std::sync::Arc;

use rcompss::{Constraint, TaskError};
use tinyml::data::Dataset;
use tinyml::optim::OptimizerKind;
use tinyml::train::{
    train_segment, train_with_checkpoints, Checkpointing, EpochSignal, TrainConfig,
};
use tinyml::{History, TrainSnapshot};

use crate::ckpt::{fnv1a, trial_key, FNV_OFFSET};
use crate::early_stop::EarlyStop;
use crate::space::{Config, ConfigValue};

/// The result of one experiment — what the paper's `experiment` task
/// returns ("the result which can be a performance measure such as
/// validation loss or accuracy and training history").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrialOutcome {
    /// Final validation accuracy (the comparison metric).
    pub accuracy: f64,
    /// Per-epoch training loss.
    pub epoch_loss: Vec<f64>,
    /// Per-epoch validation accuracy (the curves of Figures 7–8).
    pub epoch_accuracy: Vec<f64>,
    /// Epochs actually run (< requested if early-stopped).
    pub epochs_run: u32,
    /// Failure description when the trial errored permanently.
    pub error: Option<String>,
}

impl TrialOutcome {
    /// Outcome carrying only a final accuracy.
    pub fn with_accuracy(accuracy: f64) -> Self {
        TrialOutcome { accuracy, ..Default::default() }
    }

    /// Outcome representing a permanently-failed trial.
    pub fn failed(reason: impl Into<String>) -> Self {
        TrialOutcome { error: Some(reason.into()), ..Default::default() }
    }

    /// Whether the trial failed.
    pub fn is_failed(&self) -> bool {
        self.error.is_some()
    }
}

/// An objective: evaluate `config`, optionally overriding its epoch count
/// with `budget` (used by successive halving). Runs *inside* a task.
pub type Objective =
    Arc<dyn Fn(&Config, Option<u32>) -> Result<TrialOutcome, TaskError> + Send + Sync>;

/// Maps a config to its simulated training duration (virtual µs).
pub type SimDurationFn = Arc<dyn Fn(&Config) -> u64 + Send + Sync>;

/// Options shared by every experiment of one HPO run.
#[derive(Clone)]
pub struct ExperimentOptions {
    /// Resource constraint per experiment task (the paper's `@constraint`).
    pub constraint: Constraint,
    /// Early-stopping criteria applied inside each trial and across trials.
    pub early_stop: Option<EarlyStop>,
    /// For the simulated backend: virtual duration of a config's training.
    pub sim_duration: Option<SimDurationFn>,
    /// Cap on trials submitted per wave (default: the algorithm's own
    /// parallelism). Set to roughly the cluster's slot count when using
    /// across-trial early stopping, so remaining waves can be skipped.
    pub wave_size: Option<usize>,
}

impl std::fmt::Debug for ExperimentOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentOptions")
            .field("constraint", &self.constraint)
            .field("early_stop", &self.early_stop)
            .field("sim_duration", &self.sim_duration.is_some())
            .field("wave_size", &self.wave_size)
            .finish()
    }
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            constraint: Constraint::cpus(1),
            early_stop: None,
            sim_duration: None,
            wave_size: None,
        }
    }
}

impl ExperimentOptions {
    /// Set the per-task constraint (chainable).
    pub fn with_constraint(mut self, c: Constraint) -> Self {
        self.constraint = c;
        self
    }

    /// Set early stopping (chainable).
    pub fn with_early_stop(mut self, es: EarlyStop) -> Self {
        self.early_stop = Some(es);
        self
    }

    /// Set the simulated duration model (chainable).
    pub fn with_sim_duration(mut self, f: impl Fn(&Config) -> u64 + Send + Sync + 'static) -> Self {
        self.sim_duration = Some(Arc::new(f));
        self
    }
}

/// Translate an HPO [`Config`] into a tinyml [`TrainConfig`].
///
/// Recognised keys (all optional, with defaults): `optimizer`,
/// `num_epochs`, `batch_size`, `learning_rate`, `hidden` (single hidden
/// width). The seed is derived from the config label so distinct configs
/// train with distinct but reproducible randomness.
pub fn train_config_from(
    config: &Config,
    hidden_default: &[usize],
) -> Result<TrainConfig, TaskError> {
    let optimizer = match config.get_str("optimizer") {
        Some(s) => {
            s.parse::<OptimizerKind>().map_err(|e| TaskError::new(format!("bad optimizer: {e}")))?
        }
        None => OptimizerKind::Adam,
    };
    let epochs = config.get_int("num_epochs").unwrap_or(10);
    if epochs <= 0 {
        return Err(TaskError::new("num_epochs must be positive"));
    }
    let batch = config.get_int("batch_size").unwrap_or(64);
    if batch <= 0 {
        return Err(TaskError::new("batch_size must be positive"));
    }
    let hidden = match config.get_int("hidden") {
        Some(h) if h > 0 => vec![h as usize],
        Some(_) => return Err(TaskError::new("hidden must be positive")),
        None => hidden_default.to_vec(),
    };
    // Optional schedule keys: `lr_schedule` = "cosine", or a step decay via
    // `lr_decay_every` (+ `lr_decay_factor`, default 0.5).
    let lr_schedule = match (config.get_str("lr_schedule"), config.get_int("lr_decay_every")) {
        (Some("cosine"), _) => tinyml::train::LrSchedule::Cosine { min_frac: 0.1 },
        (Some(other), _) if other != "constant" => {
            return Err(TaskError::new(format!("unknown lr_schedule '{other}'")));
        }
        (_, Some(every)) if every > 0 => tinyml::train::LrSchedule::StepDecay {
            every_epochs: every as u32,
            factor: config.get_float("lr_decay_factor").unwrap_or(0.5) as f32,
        },
        _ => tinyml::train::LrSchedule::Constant,
    };
    let weight_decay = config.get_float("weight_decay").unwrap_or(0.0) as f32;
    if weight_decay < 0.0 {
        return Err(TaskError::new("weight_decay must be non-negative"));
    }

    // Model family: "arch" = "dense" (default) or "cnn", with optional
    // "conv1_channels"/"conv2_channels" (the paper's experiments are CNNs).
    let arch = match config.get_str("arch") {
        None | Some("dense") => tinyml::ModelArch::Dense,
        Some("cnn") => {
            let c1 = config.get_int("conv1_channels").unwrap_or(6);
            let c2 = config.get_int("conv2_channels").unwrap_or(12);
            if c1 <= 0 || c2 <= 0 {
                return Err(TaskError::new("conv channels must be positive"));
            }
            tinyml::ModelArch::Cnn { conv1_channels: c1 as usize, conv2_channels: c2 as usize }
        }
        Some(other) => return Err(TaskError::new(format!("unknown arch '{other}'"))),
    };

    // FNV-1a over the *stage-base* label ([`crate::stagetree::seed_label`]):
    // a stable per-config seed that deliberately ignores late-binding
    // params (total epochs, the LR-decay point). Configs that share a
    // training prefix therefore share a seed — which is exactly what makes
    // stage-tree prefix sharing bit-identical to naive retraining — while
    // configs that diverge from epoch 0 still get distinct seeds.
    let seed = fnv1a(FNV_OFFSET, crate::stagetree::seed_label(config).bytes());
    Ok(TrainConfig {
        epochs: epochs as u32,
        batch_size: batch as usize,
        optimizer,
        learning_rate: config.get_float("learning_rate").unwrap_or(0.0) as f32,
        lr_schedule,
        arch,
        weight_decay,
        hidden_layers: hidden,
        val_fraction: 0.2,
        seed,
        // 0 = inherit the ambient degree: the runner installs the task's
        // core grant via `tinyml::par::with_threads` around the objective,
        // so a `@constraint(computing_units=N)` trial trains on N threads.
        threads: 0,
    })
}

/// Build an objective that really trains a tinyml MLP on `data` — the Rust
/// stand-in for the paper's TensorFlow `experiment(config)` task: a
/// [`Trainer`] with early stopping and checkpointing off.
pub fn tinyml_objective(data: Arc<Dataset>, hidden: Vec<usize>) -> Objective {
    Trainer::new(data, hidden).objective()
}

/// The one trial body: what a process needs to train a config, for the
/// experiment task (a whole trial, [`Trainer::trial`]) and the stage task
/// (one segment of a shared prefix, [`Trainer::segment`]) alike. A process
/// builds one; the driver and every distributed worker build it from the
/// same dataset recipe, so both ends train the identical trajectory.
///
/// The dataset is shared behind an `Arc`, mirroring the PFS deployment
/// where "all tasks can read and write to the PFS".
#[derive(Clone)]
pub struct Trainer {
    /// The training dataset.
    pub data: Arc<Dataset>,
    /// Hidden-layer widths when a config does not set `hidden`.
    pub hidden: Vec<usize>,
    /// Train a config that pins no `arch` as a CNN (the CLI's `--cnn`).
    pub cnn: bool,
    /// Stop a whole trial once it reaches this. A segment never stops
    /// early: it would leave no fork for its children, which is why
    /// [`crate::runner::Evaluator::pick`] keeps such sweeps off the tree.
    pub early_stop: Option<EarlyStop>,
    /// Save a model snapshot every `ckpt_every` epochs (0 = off) through
    /// the runtime's snapshot channel, where it lives as long as its task:
    /// a retried attempt, possibly on a replacement worker, resumes it.
    pub ckpt_every: u32,
    /// Durable on-disk store for whole trials, keyed by [`trial_key`]: a
    /// restarted driver resumes a trial from it. Segments leave it alone;
    /// a resumed staged sweep replans its tree over the unfinished trials.
    pub store: Option<Arc<ckpt::DirStore>>,
}

impl Trainer {
    /// A dense trainer with early stopping and checkpointing off.
    pub fn new(data: Arc<Dataset>, hidden: Vec<usize>) -> Trainer {
        Trainer { data, hidden, cnn: false, early_stop: None, ckpt_every: 0, store: None }
    }

    /// [`Trainer::trial`] as the experiment task's objective.
    pub fn objective(&self) -> Objective {
        let trainer = self.clone();
        Arc::new(move |config: &Config, budget: Option<u32>| trainer.trial(config, budget))
    }

    /// Train `config` to its end — the experiment task body — over `budget`
    /// epochs when given (successive halving), else its `num_epochs`.
    ///
    /// A snapshot carries the *original* seed, optimizer moments and
    /// history, so a trial resumed from one replays the exact minibatch
    /// order and ends bit-identical to an uninterrupted run. The outcome
    /// supersedes the stored snapshot, which is dropped so the next sweep
    /// in the same directory starts clean.
    pub fn trial(&self, config: &Config, budget: Option<u32>) -> Result<TrialOutcome, TaskError> {
        let mut cfg = self.train_config(config)?;
        if let Some(b) = budget {
            cfg.epochs = b.max(1);
        }
        let key = self.store.as_ref().map(|_| trial_key(config));
        let history = self.fit(&cfg, cfg.epochs, key, None, |ckpt| {
            train_with_checkpoints(&cfg, &self.data, ckpt, &mut |_, _, val_acc| {
                if self.early_stop.is_some_and(|es| es.target_reached(val_acc)) {
                    EpochSignal::Stop
                } else {
                    EpochSignal::Continue
                }
            })
        });
        if let (Some(store), Some(key)) = (&self.store, key) {
            let _ = store.clear(key);
        }
        Ok(outcome_from_history(history))
    }

    /// Train epochs `[parent's next epoch or 0, until)` of `config` — the
    /// stage task body — and return the fork snapshot at `until`. `total`
    /// is the naive-equivalent epoch count (the config's own, or the rung
    /// budget [`Trainer::trial`] would apply), which the LR schedule reads.
    pub fn segment(
        &self,
        config: &Config,
        until: u32,
        total: u32,
        parent: Option<TrainSnapshot>,
    ) -> Result<TrainSnapshot, TaskError> {
        let mut cfg = self.train_config(config)?;
        cfg.epochs = total.max(until);
        Ok(self.fit(&cfg, until, None, parent, |ckpt| train_segment(&cfg, &self.data, ckpt, until)))
    }

    /// [`train_config_from`] under the `--cnn` arch default.
    fn train_config(&self, config: &Config) -> Result<TrainConfig, TaskError> {
        let cnn;
        let config = if self.cnn && config.get("arch").is_none() {
            cnn = config.clone().with("arch", ConfigValue::Str("cnn".into()));
            &cnn
        } else {
            config
        };
        train_config_from(config, &self.hidden)
    }

    /// Run `train` from the latest snapshot an earlier attempt of this task
    /// saved — else, for a whole trial keyed `key`, the store's — when it
    /// continues `cfg` past `from` and no further than `until`; else from
    /// `from` (a segment's parent fork, or scratch). Every snapshot goes
    /// through one sink that counts it, hands it to the channel and, for a
    /// keyed trial, to the store.
    fn fit<R>(
        &self,
        cfg: &TrainConfig,
        until: u32,
        key: Option<u64>,
        from: Option<TrainSnapshot>,
        train: impl FnOnce(Checkpointing<'_>) -> R,
    ) -> R {
        let reg = runmetrics::global();
        let start = from.as_ref().map_or(0, |s| s.next_epoch);
        let fits = |blob: Vec<u8>| {
            TrainSnapshot::decode(&blob)
                .filter(|s| s.seed == cfg.seed && s.next_epoch > start && s.next_epoch <= until)
        };
        let saved = (self.ckpt_every > 0)
            .then(|| {
                rcompss::snapshot::load()
                    .and_then(fits)
                    .or_else(|| fits(self.store.as_ref()?.load(key?).ok().flatten()?))
            })
            .flatten();
        if let Some(snap) = &saved {
            reg.counter("ckpt_restore_total").incr();
            reg.counter("ckpt_restored_epochs_total").add(u64::from(snap.next_epoch - start));
        }
        let mut sink = |snap: &TrainSnapshot| {
            let bytes = snap.encode();
            reg.counter("ckpt_bytes_written").add(bytes.len() as u64);
            reg.counter("ckpt_snapshots_saved_total").incr();
            rcompss::snapshot::save(&bytes);
            if let (Some(store), Some(key)) = (&self.store, key) {
                let _ = store.save(key, &bytes);
            }
        };
        train(Checkpointing {
            every: self.ckpt_every,
            resume: saved.or(from),
            sink: Some(&mut sink),
        })
    }
}

/// The outcome of a trial whose training history is `history`. A terminal
/// stage segment's fork snapshot holds the history of every epoch from 0
/// ([`TrainSnapshot::decode_history`]), so the outcome derived from it
/// equals what [`Trainer::trial`] returns for the same config, bit for bit.
pub fn outcome_from_history(history: History) -> TrialOutcome {
    TrialOutcome {
        accuracy: history.final_val_accuracy(),
        epochs_run: history.epochs_run() as u32,
        epoch_loss: history.train_loss,
        epoch_accuracy: history.val_accuracy,
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_config(opt: &str, epochs: i64, batch: i64) -> Config {
        Config::new()
            .with("optimizer", ConfigValue::Str(opt.into()))
            .with("num_epochs", ConfigValue::Int(epochs))
            .with("batch_size", ConfigValue::Int(batch))
    }

    #[test]
    fn train_config_translation() {
        let cfg = train_config_from(&paper_config("RMSprop", 50, 128), &[64]).unwrap();
        assert_eq!(cfg.optimizer, OptimizerKind::RmsProp);
        assert_eq!(cfg.epochs, 50);
        assert_eq!(cfg.batch_size, 128);
        assert_eq!(cfg.hidden_layers, vec![64]);
        // distinct configs get distinct seeds; same config same seed
        let a = train_config_from(&paper_config("Adam", 20, 32), &[64]).unwrap();
        let b = train_config_from(&paper_config("Adam", 20, 32), &[64]).unwrap();
        let c = train_config_from(&paper_config("Adam", 20, 64), &[64]).unwrap();
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn translation_rejects_nonsense() {
        assert!(train_config_from(&paper_config("NoSuchOpt", 10, 32), &[8]).is_err());
        assert!(train_config_from(&paper_config("Adam", 0, 32), &[8]).is_err());
        assert!(train_config_from(&paper_config("Adam", 10, -1), &[8]).is_err());
        let bad_hidden = paper_config("Adam", 5, 32).with("hidden", ConfigValue::Int(0));
        assert!(train_config_from(&bad_hidden, &[8]).is_err());
    }

    #[test]
    fn schedule_and_decay_keys_translate() {
        use tinyml::train::LrSchedule;
        let cfg = paper_config("Adam", 10, 32)
            .with("lr_decay_every", ConfigValue::Int(3))
            .with("lr_decay_factor", ConfigValue::Float(0.25))
            .with("weight_decay", ConfigValue::Float(1e-4));
        let t = train_config_from(&cfg, &[8]).unwrap();
        assert_eq!(t.lr_schedule, LrSchedule::StepDecay { every_epochs: 3, factor: 0.25 });
        assert!((t.weight_decay - 1e-4).abs() < 1e-9);

        let cosine =
            paper_config("Adam", 10, 32).with("lr_schedule", ConfigValue::Str("cosine".into()));
        assert!(matches!(
            train_config_from(&cosine, &[8]).unwrap().lr_schedule,
            LrSchedule::Cosine { .. }
        ));

        let bad =
            paper_config("Adam", 10, 32).with("lr_schedule", ConfigValue::Str("warmup".into()));
        assert!(train_config_from(&bad, &[8]).is_err());
        let neg = paper_config("Adam", 10, 32).with("weight_decay", ConfigValue::Float(-1.0));
        assert!(train_config_from(&neg, &[8]).is_err());
    }

    #[test]
    fn arch_key_selects_model_family() {
        let dense = train_config_from(&paper_config("Adam", 5, 32), &[8]).unwrap();
        assert_eq!(dense.arch, tinyml::ModelArch::Dense);

        let cnn = paper_config("Adam", 5, 32)
            .with("arch", ConfigValue::Str("cnn".into()))
            .with("conv1_channels", ConfigValue::Int(4))
            .with("conv2_channels", ConfigValue::Int(8));
        let t = train_config_from(&cnn, &[8]).unwrap();
        assert_eq!(t.arch, tinyml::ModelArch::Cnn { conv1_channels: 4, conv2_channels: 8 });

        let default_cnn = paper_config("Adam", 5, 32).with("arch", ConfigValue::Str("cnn".into()));
        assert_eq!(
            train_config_from(&default_cnn, &[8]).unwrap().arch,
            tinyml::ModelArch::Cnn { conv1_channels: 6, conv2_channels: 12 }
        );

        let bad = paper_config("Adam", 5, 32).with("arch", ConfigValue::Str("rnn".into()));
        assert!(train_config_from(&bad, &[8]).is_err());
        let bad_ch = paper_config("Adam", 5, 32)
            .with("arch", ConfigValue::Str("cnn".into()))
            .with("conv1_channels", ConfigValue::Int(0));
        assert!(train_config_from(&bad_ch, &[8]).is_err());
    }

    #[test]
    fn cnn_objective_trains_end_to_end() {
        use tinyml::data::SyntheticSpec;
        let data = Arc::new(Dataset::synthetic(
            "mnist-spatial",
            500,
            &SyntheticSpec::mnist_like_spatial(),
            3,
        ));
        let obj = tinyml_objective(data, vec![16]);
        let cfg = paper_config("Adam", 6, 32)
            .with("arch", ConfigValue::Str("cnn".into()))
            .with("learning_rate", ConfigValue::Float(0.003));
        let out = obj(&cfg, None).unwrap();
        assert_eq!(out.epochs_run, 6);
        assert!(out.accuracy > 0.15, "clearly above the 0.1 chance level: {}", out.accuracy);
    }

    #[test]
    fn defaults_fill_missing_keys() {
        let cfg = train_config_from(&Config::new(), &[16, 8]).unwrap();
        assert_eq!(cfg.epochs, 10);
        assert_eq!(cfg.batch_size, 64);
        assert_eq!(cfg.hidden_layers, vec![16, 8]);
        assert_eq!(cfg.optimizer, OptimizerKind::Adam);
    }

    #[test]
    fn objective_trains_and_reports_curves() {
        let data = Arc::new(Dataset::synthetic_mnist(1_200, 3));
        let obj = tinyml_objective(data, vec![32]);
        let out = obj(&paper_config("Adam", 5, 64), None).unwrap();
        assert_eq!(out.epochs_run, 5);
        assert_eq!(out.epoch_accuracy.len(), 5);
        assert_eq!(out.epoch_loss.len(), 5);
        assert!(out.accuracy > 0.3, "got {}", out.accuracy);
        assert!(!out.is_failed());
    }

    #[test]
    fn budget_overrides_epochs() {
        let data = Arc::new(Dataset::synthetic_mnist(200, 3));
        let obj = tinyml_objective(data, vec![8]);
        let out = obj(&paper_config("SGD", 10, 64), Some(2)).unwrap();
        assert_eq!(out.epochs_run, 2, "budget 2 overrides num_epochs 10");
    }

    #[test]
    fn within_trial_early_stop_cuts_epochs() {
        let data = Arc::new(Dataset::synthetic_mnist(800, 5));
        // very easy data: 0.5 target reached almost immediately
        let trainer = Trainer {
            early_stop: Some(EarlyStop::at_accuracy(0.5)),
            ..Trainer::new(data, vec![32])
        };
        let out = trainer.trial(&paper_config("Adam", 20, 32), None).unwrap();
        assert!(out.epochs_run < 20, "stopped early at epoch {}", out.epochs_run);
        assert!(out.accuracy >= 0.5);
    }

    #[test]
    fn checkpointed_objective_cleans_up_and_changes_no_result() {
        let data = Arc::new(Dataset::synthetic_mnist(200, 3));
        let dir = std::env::temp_dir().join(format!("hpo-exp-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = crate::ckpt::CheckpointSpec::new(&dir);
        let store = Arc::new(spec.store().unwrap());
        let trainer = Trainer {
            ckpt_every: 2,
            store: Some(Arc::clone(&store)),
            ..Trainer::new(Arc::clone(&data), vec![8])
        };
        let cfg = paper_config("Adam", 5, 32);
        let out = trainer.trial(&cfg, None).unwrap();
        assert_eq!(out.epochs_run, 5);

        let key = trial_key(&cfg);
        assert!(store.load(key).unwrap().is_none(), "completion clears the trial's snapshot");

        // With no snapshot to resume from, checkpointing changes nothing
        // about the result.
        let plain = tinyml_objective(Arc::clone(&data), vec![8])(&cfg, None).unwrap();
        assert_eq!(plain, out, "checkpointing is observationally free");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_cnn_default_is_an_arch_key_the_config_lacks() {
        use tinyml::data::SyntheticSpec;
        let data =
            Arc::new(Dataset::synthetic("spatial", 60, &SyntheticSpec::mnist_like_spatial(), 3));
        let cnn = Trainer { cnn: true, ..Trainer::new(Arc::clone(&data), vec![8]) };
        let plain = Trainer::new(data, vec![8]);
        let config = paper_config("Adam", 1, 16);
        let pinned = config.clone().with("arch", ConfigValue::Str("cnn".into()));
        assert_eq!(cnn.trial(&config, None).unwrap(), plain.trial(&pinned, None).unwrap());
        let dense = config.with("arch", ConfigValue::Str("dense".into()));
        assert_eq!(cnn.trial(&dense, None).unwrap(), plain.trial(&dense, None).unwrap());
        let cfg = |t: &Trainer, c: &Config| t.train_config(c).unwrap().arch;
        assert_eq!(cfg(&cnn, &dense), tinyml::ModelArch::Dense, "a pinned arch wins");
    }

    /// The runtime's snapshot channel for one task, as a backend keeps it.
    #[derive(Default)]
    struct OneTask(std::sync::Mutex<Option<Vec<u8>>>);

    impl rcompss::snapshot::SnapshotChannel for OneTask {
        fn save(&self, _: rcompss::TaskId, blob: &[u8]) {
            *self.0.lock().unwrap() = Some(blob.to_vec());
        }
        fn load(&self, _: rcompss::TaskId) -> Option<Vec<u8>> {
            self.0.lock().unwrap().clone()
        }
    }

    #[test]
    fn a_retried_segment_resumes_its_own_snapshot_and_counts_both_ends() {
        let data = Arc::new(Dataset::synthetic_mnist(120, 3));
        let trainer = Trainer { ckpt_every: 1, ..Trainer::new(data, vec![8]) };
        let config = paper_config("Adam", 4, 32);
        let reg = runmetrics::global();
        reg.set_enabled(true);
        let count = |name: &str| reg.counter(name).value();
        let (saved, restored) = (count("ckpt_snapshots_saved_total"), count("ckpt_restore_total"));

        let channel = Arc::new(OneTask::default());
        let task = rcompss::TaskId(7);
        let run = || {
            rcompss::snapshot::with_channel(channel.clone(), task, || {
                trainer.segment(&config, 3, 4, None).unwrap()
            })
        };
        let whole = run();
        assert!(count("ckpt_snapshots_saved_total") >= saved + 2, "epochs 1 and 2 saved");
        let mid = TrainSnapshot::decode(&channel.0.lock().unwrap().clone().unwrap()).unwrap();
        assert_eq!(mid.next_epoch, 2, "the last snapshot inside [0, 3)");

        // A second attempt of the same task picks the segment up at epoch 2
        // and forks the same state at 3.
        let retried = run();
        assert!(count("ckpt_restore_total") > restored, "the retry restored");
        assert_eq!(retried.encode(), whole.encode());

        // A snapshot past the segment's end is not this segment's: scratch.
        let other = Trainer::new(Arc::clone(&trainer.data), vec![8]);
        let ahead = other.segment(&config, 4, 4, None).unwrap();
        rcompss::snapshot::with_channel(channel.clone(), task, || {
            rcompss::snapshot::save(&ahead.encode());
            assert_eq!(trainer.segment(&config, 3, 4, None).unwrap().encode(), whole.encode());
        });
    }

    #[test]
    fn outcome_reconstruction_matches_objective_shape() {
        let out = outcome_from_history(History {
            train_loss: vec![1.0, 0.5, 0.2],
            val_accuracy: vec![0.3, 0.6, 0.9],
        });
        assert_eq!(out.accuracy, 0.9);
        assert_eq!(out.epochs_run, 3);
        assert_eq!(out.epoch_loss, vec![1.0, 0.5, 0.2]);
        assert!(!out.is_failed());
    }

    #[test]
    fn outcome_helpers() {
        let ok = TrialOutcome::with_accuracy(0.7);
        assert!(!ok.is_failed());
        assert_eq!(ok.accuracy, 0.7);
        let bad = TrialOutcome::failed("boom");
        assert!(bad.is_failed());
        assert_eq!(bad.error.as_deref(), Some("boom"));
    }

    #[test]
    fn options_builders() {
        let o = ExperimentOptions::default()
            .with_constraint(Constraint::cpus(4).with_gpus(1))
            .with_early_stop(EarlyStop::at_accuracy(0.9))
            .with_sim_duration(|_| 42);
        assert_eq!(o.constraint.cpus, 4);
        assert!(o.early_stop.is_some());
        assert_eq!((o.sim_duration.unwrap())(&Config::new()), 42);
        let dbg = format!("{:?}", ExperimentOptions::default());
        assert!(dbg.contains("sim_duration: false") && dbg.contains("wave_size: None"), "{dbg}");
    }
}
