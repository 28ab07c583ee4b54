//! Sweep checkpointing: the durable journal and recovery state that make
//! an HPO run resumable (`hpo --resume <dir>`).
//!
//! A sweep writes two kinds of append-only records through a
//! [`SweepJournal`] (backed by `ckpt::Journal`, so every record is
//! CRC-framed and a torn tail is truncated, not fatal):
//!
//! * `Submitted` when a trial is handed to the runtime,
//! * `Finished` with the full [`TrialOutcome`] when a trial completes.
//!
//! A third, `Epoch`, is no longer written: recovery decodes and skips it,
//! so a journal from a release that wrote it still resumes.
//!
//! [`SweepState::recover`] replays the journal into "which trials
//! finished (with their exact outcomes) and which were in flight". The
//! runner skips the former — re-emitting the journaled outcome into the
//! report, so a resumed sweep's trial table is byte-identical to an
//! uninterrupted one — and re-enqueues the latter, which restart from
//! their latest model snapshot instead of epoch 0.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use rnet::{Reader, WireError};

use crate::experiment::TrialOutcome;
use crate::space::Config;
use crate::wire::{put_outcome, read_outcome};

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a: fold `bytes` into `h`.
pub(crate) fn fnv1a(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Stable identity of a trial across runs: FNV-1a over the config label.
/// It names the trial in the journal and in the on-disk snapshot store, so
/// its value is pinned — the one-bit shift included, a leftover of a wire
/// format that no longer exists.
pub fn trial_key(config: &Config) -> u64 {
    fnv1a(FNV_OFFSET, config.label().bytes()) >> 1
}

/// Journal identity of one evaluation: the trial key, with the budget folded
/// in when a source evaluates the same config at several. Pinned like
/// [`trial_key`]: a journal written before a restart must resolve after it.
pub(crate) fn journal_key(config: &Config, budget: Option<u32>) -> u64 {
    let key = trial_key(config);
    budget.map_or(key, |b| fnv1a(key ^ FNV_OFFSET, u64::from(b).to_le_bytes()) >> 1)
}

/// One record of the sweep journal.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepRecord {
    /// A trial was handed to the runtime.
    Submitted {
        /// The trial's [`trial_key`].
        key: u64,
        /// Human-readable config label (lets recovery report *what* was
        /// in flight without the original search space).
        label: String,
    },
    /// A trial's model snapshot reached durable storage. No longer written:
    /// a resumed trial restarts from what the snapshot store holds, not from
    /// a mark. Still decoded, and skipped on recovery, so a journal from a
    /// release that wrote these resumes.
    Epoch {
        /// The trial's [`trial_key`].
        key: u64,
        /// First epoch the snapshot's owner still has to run.
        epoch: u32,
    },
    /// A trial completed (successfully or permanently failed).
    Finished {
        /// The trial's [`trial_key`].
        key: u64,
        /// The exact outcome, replayed verbatim on resume.
        outcome: TrialOutcome,
        /// Task-side wall time, µs (part of the trial table).
        task_us: u64,
    },
}

impl SweepRecord {
    /// Serialise for [`SweepJournal::record`].
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            SweepRecord::Submitted { key, label } => {
                rnet::wire::put_u32(&mut b, 0);
                rnet::wire::put_u64(&mut b, *key);
                rnet::wire::put_str(&mut b, label);
            }
            SweepRecord::Epoch { key, epoch } => {
                rnet::wire::put_u32(&mut b, 1);
                rnet::wire::put_u64(&mut b, *key);
                rnet::wire::put_u32(&mut b, *epoch);
            }
            SweepRecord::Finished { key, outcome, task_us } => {
                rnet::wire::put_u32(&mut b, 2);
                rnet::wire::put_u64(&mut b, *key);
                put_outcome(&mut b, outcome);
                rnet::wire::put_u64(&mut b, *task_us);
            }
        }
        b
    }

    /// Parse one journal payload.
    pub fn decode(bytes: &[u8]) -> Result<SweepRecord, WireError> {
        let mut r = Reader::new(bytes);
        let rec = match r.u32()? {
            0 => SweepRecord::Submitted { key: r.u64()?, label: r.str()? },
            1 => SweepRecord::Epoch { key: r.u64()?, epoch: r.u32()? },
            2 => {
                let key = r.u64()?;
                let outcome = read_outcome(&mut r)?;
                SweepRecord::Finished { key, outcome, task_us: r.u64()? }
            }
            t => return Err(WireError(format!("unknown sweep record tag {t}"))),
        };
        Ok(rec)
    }
}

/// Thread-safe handle on the sweep journal: the runner appends
/// `Submitted`/`Finished` through a shared reference.
pub struct SweepJournal(Mutex<ckpt::Journal>);

impl SweepJournal {
    /// Open (or create) the journal at `path`, truncating any torn tail.
    pub fn open(path: impl AsRef<Path>) -> io::Result<SweepJournal> {
        Ok(SweepJournal(Mutex::new(ckpt::Journal::open(path)?)))
    }

    /// Append one record (fsynced before returning).
    pub fn record(&self, rec: &SweepRecord) -> io::Result<()> {
        self.0.lock().append(&rec.encode()).map(|_| ())
    }
}

impl std::fmt::Debug for SweepJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SweepJournal").field(&self.0.lock().path()).finish()
    }
}

/// What replaying a sweep journal yields.
#[derive(Debug, Default, Clone)]
pub struct SweepState {
    /// Trials that finished, with their journaled outcome and task time.
    pub complete: HashMap<u64, (TrialOutcome, u64)>,
    /// Trials submitted but never finished, in submission order.
    pub in_flight: Vec<u64>,
    /// Config labels seen in `Submitted` records.
    pub labels: HashMap<u64, String>,
    /// Whether the journal ended in a torn write (now truncated).
    pub tail_truncated: bool,
    /// CRC-clean records that nevertheless failed to parse (a newer or
    /// older journal format); they are skipped, not fatal.
    pub malformed: usize,
}

impl SweepState {
    /// Replay the journal at `path`. A missing file is an empty state —
    /// resuming into a fresh directory just runs the sweep from scratch.
    pub fn recover(path: impl AsRef<Path>) -> io::Result<SweepState> {
        let log = ckpt::JournalReader::recover(path)?;
        let mut state = SweepState { tail_truncated: log.tail_truncated, ..Default::default() };
        for payload in &log.records {
            match SweepRecord::decode(payload) {
                Ok(SweepRecord::Submitted { key, label }) => {
                    state.labels.insert(key, label);
                    if !state.complete.contains_key(&key) && !state.in_flight.contains(&key) {
                        state.in_flight.push(key);
                    }
                }
                Ok(SweepRecord::Epoch { .. }) => {}
                Ok(SweepRecord::Finished { key, outcome, task_us }) => {
                    state.in_flight.retain(|&k| k != key);
                    state.complete.insert(key, (outcome, task_us));
                }
                Err(_) => state.malformed += 1,
            }
        }
        Ok(state)
    }
}

/// Where a sweep checkpoints. One directory holds both the journal and the
/// in-flight trials' model snapshots; the snapshot cadence is the trial
/// body's own (`Trainer::ckpt_every`):
///
/// ```text
/// <dir>/sweep.journal          append-only CRC-framed records
/// <dir>/snapshots/<key>.snap   the trial's newest model + optimizer state
/// ```
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Root directory of the sweep's checkpoint state.
    pub dir: PathBuf,
}

impl CheckpointSpec {
    /// Spec rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointSpec {
        CheckpointSpec { dir: dir.into() }
    }

    /// Path of the sweep journal.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("sweep.journal")
    }

    /// Open the journal (creating the directory as needed).
    pub fn journal(&self) -> io::Result<SweepJournal> {
        SweepJournal::open(self.journal_path())
    }

    /// Open the model-snapshot store.
    pub fn store(&self) -> io::Result<ckpt::DirStore> {
        ckpt::DirStore::open(self.dir.join("snapshots"))
    }

    /// Replay whatever journal exists under this spec.
    pub fn recover(&self) -> io::Result<SweepState> {
        SweepState::recover(self.journal_path())
    }
}

/// What resuming actually did — feeds the dashboard banner and the exit
/// summary ("resumed sweep: X complete, Y re-enqueued").
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResumeStats {
    /// Trials skipped because the journal already has their outcome.
    pub skipped_complete: usize,
    /// Trials re-enqueued because they were in flight at the crash.
    pub reenqueued: usize,
}

impl ResumeStats {
    /// Whether this run resumed anything at all.
    pub fn resumed_any(&self) -> bool {
        self.skipped_complete > 0 || self.reenqueued > 0
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;
    use crate::space::ConfigValue;

    fn cfg(opt: &str, epochs: i64) -> Config {
        Config::new()
            .with("optimizer", ConfigValue::Str(opt.into()))
            .with("num_epochs", ConfigValue::Int(epochs))
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hpo-ckpt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn trial_keys_are_stable_distinct_and_63_bit() {
        let a = trial_key(&cfg("Adam", 10));
        let b = trial_key(&cfg("Adam", 10));
        let c = trial_key(&cfg("SGD", 10));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a & (1 << 63), 0, "the shift is part of the pinned value");
        assert_eq!(c & (1 << 63), 0);
    }

    #[test]
    fn journal_keys_are_the_ones_existing_journals_hold() {
        // Printed by the commit before the budget salt moved here from the
        // runtime's snapshot module.
        let c = cfg("Adam", 10);
        assert_eq!(journal_key(&c, None), 0x7c69_e639_ef8e_bfb2);
        assert_eq!(journal_key(&c, None), trial_key(&c));
        assert_eq!(journal_key(&c, Some(5)), 0x786b_0d88_5368_3169);
        assert_eq!(journal_key(&c, Some(45)), 0x6402_9a3d_2e19_fbfd);
    }

    #[test]
    fn records_round_trip() {
        let outcome = TrialOutcome {
            accuracy: 0.91,
            epoch_loss: vec![1.0, 0.4],
            epoch_accuracy: vec![0.6, 0.91],
            epochs_run: 2,
            error: None,
        };
        let records = vec![
            SweepRecord::Submitted { key: 7, label: "optimizer=Adam".into() },
            SweepRecord::Epoch { key: 7, epoch: 3 },
            SweepRecord::Finished { key: 7, outcome, task_us: 1234 },
            SweepRecord::Finished { key: 9, outcome: TrialOutcome::failed("nan"), task_us: 0 },
        ];
        for rec in &records {
            assert_eq!(&SweepRecord::decode(&rec.encode()).unwrap(), rec);
        }
        assert!(SweepRecord::decode(&[9, 0, 0, 0]).is_err(), "unknown tag rejected");
        assert!(SweepRecord::decode(&[]).is_err(), "empty payload rejected");
    }

    #[test]
    fn journal_replay_reconstructs_sweep_state() {
        let dir = tmpdir("replay");
        let spec = CheckpointSpec::new(&dir);
        let j = spec.journal().unwrap();
        j.record(&SweepRecord::Submitted { key: 1, label: "a".into() }).unwrap();
        j.record(&SweepRecord::Submitted { key: 2, label: "b".into() }).unwrap();
        // What an earlier release wrote per snapshot: read past, not malformed.
        j.record(&SweepRecord::Epoch { key: 2, epoch: 4 }).unwrap();
        j.record(&SweepRecord::Finished {
            key: 1,
            outcome: TrialOutcome::with_accuracy(0.5),
            task_us: 10,
        })
        .unwrap();
        drop(j);

        let state = spec.recover().unwrap();
        assert_eq!(state.complete.len(), 1);
        assert_eq!(state.complete[&1].0.accuracy, 0.5);
        assert_eq!(state.in_flight, vec![2], "submitted-but-unfinished");
        assert_eq!(state.labels[&2], "b");
        assert!(!state.tail_truncated);
        assert_eq!(state.malformed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_survivable_and_reopen_continues() {
        let dir = tmpdir("torn");
        let spec = CheckpointSpec::new(&dir);
        let j = spec.journal().unwrap();
        j.record(&SweepRecord::Submitted { key: 5, label: "x".into() }).unwrap();
        j.record(&SweepRecord::Submitted { key: 6, label: "y".into() }).unwrap();
        drop(j);
        // Simulate a crash mid-append: chop bytes off the file tail.
        let path = spec.journal_path();
        let len = std::fs::metadata(&path).unwrap().len();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..len as usize - 3]).unwrap();

        let state = spec.recover().unwrap();
        assert!(state.tail_truncated);
        assert_eq!(state.in_flight, vec![5], "clean prefix recovered, torn record dropped");

        // Re-opening truncates the torn tail and appends cleanly after it.
        let j = spec.journal().unwrap();
        j.record(&SweepRecord::Finished {
            key: 5,
            outcome: TrialOutcome::with_accuracy(0.9),
            task_us: 3,
        })
        .unwrap();
        drop(j);
        let state = spec.recover().unwrap();
        assert!(state.in_flight.is_empty());
        assert_eq!(state.complete[&5].0.accuracy, 0.9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_stats_banner_gate() {
        assert!(!ResumeStats::default().resumed_any());
        assert!(ResumeStats { skipped_complete: 1, reenqueued: 0 }.resumed_any());
        assert!(ResumeStats { skipped_complete: 0, reenqueued: 2 }.resumed_any());
    }

    /// `trial_key` identity IS label identity — the runner resolves a
    /// config to `complete.get(&trial_key(config))` and nothing else. Two
    /// sides of that coin:
    ///
    /// * configs with the *same* label always share a key (`Config` keeps
    ///   its values in a `BTreeMap`, so insertion order is irrelevant) —
    ///   that is the designed collision the resume path depends on;
    /// * a 63-bit FNV collision between two *different* labels would
    ///   alias the trials: the journal cannot tell them apart, so the
    ///   second trial would be handed the first one's outcome and
    ///   `--resume` would silently skip retraining it. The proptest
    ///   below pins that this does not happen on realistic grids.
    #[test]
    fn key_collision_would_alias_trials() {
        let a = cfg("Adam", 3);
        let mut state = SweepState::default();
        state.complete.insert(trial_key(&a), (TrialOutcome::with_accuracy(0.9), 7));

        // Same label via a different insertion order: same key, reported
        // finished — the collision the resume path is built on.
        let a2 = Config::new()
            .with("num_epochs", ConfigValue::Int(3))
            .with("optimizer", ConfigValue::Str("Adam".into()));
        assert_eq!(trial_key(&a), trial_key(&a2));
        assert_eq!(state.complete[&trial_key(&a2)].0.accuracy, 0.9);

        // A forged cross-label collision (what an FNV collision would do):
        // journal b's outcome under c's key and c looks finished despite
        // never having run. The journal has no second discriminator.
        let c = cfg("SGD", 99);
        state.complete.insert(trial_key(&c), (TrialOutcome::with_accuracy(0.1), 1));
        assert_eq!(state.complete[&trial_key(&c)].0.accuracy, 0.1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Distinct configs from a realistic grid — optimizer × epochs ×
        /// batch size × learning rate, every axis randomly chosen — never
        /// collide on `trial_key`. Distinct value sets give distinct
        /// labels (the f64 `Display` is shortest-round-trip, so distinct
        /// floats print distinctly), so this exercises the 63-bit FNV
        /// itself on grids up to a few hundred configs.
        #[test]
        fn distinct_grid_configs_never_collide(
            opts in prop::collection::btree_set(0usize..6, 1..4),
            epochs in prop::collection::btree_set(1i64..500, 1..5),
            batches in prop::collection::btree_set(1i64..1024, 1..4),
            lrs in prop::collection::btree_set(1u32..10_000, 1..4),
        ) {
            const OPT_NAMES: [&str; 6] = ["Adam", "SGD", "RMSprop", "Adagrad", "Momentum", "Nadam"];
            let mut seen: HashMap<u64, String> = HashMap::new();
            for &o in &opts {
                for &e in &epochs {
                    for &b in &batches {
                        for &lr in &lrs {
                            let c = Config::new()
                                .with("optimizer", ConfigValue::Str(OPT_NAMES[o].into()))
                                .with("num_epochs", ConfigValue::Int(e))
                                .with("batch_size", ConfigValue::Int(b))
                                .with(
                                    "learning_rate",
                                    ConfigValue::Float(f64::from(lr) / 16384.0),
                                );
                            let key = trial_key(&c);
                            if let Some(prev) = seen.insert(key, c.label()) {
                                prop_assert!(
                                    false,
                                    "trial_key collision: '{prev}' and '{}' both hash to {key:#x}",
                                    c.label()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
