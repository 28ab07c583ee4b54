//! Crash/recovery end-to-end: a sweep interrupted mid-trial and resumed
//! from its checkpoint directory must produce a trial table bit-identical
//! to an uninterrupted run — journaled-complete trials replay their
//! recorded outcome, the in-flight trial restores its model snapshot and
//! finishes the remaining epochs on the exact training trajectory.

use std::path::PathBuf;
use std::sync::Arc;

use hpo::algo::grid::GridSearch;
use hpo::ckpt::{trial_key, CheckpointSpec, SweepJournal, SweepRecord};
use hpo::experiment::{
    tinyml_objective, train_config_from, ExperimentOptions, Trainer, TrialOutcome,
};
use hpo::runner::{Evaluator, SweepControl, SweepOutcome, SweepPlan};
use hpo::space::{ConfigValue, ParamDomain, SearchSpace};
use hpo::stagetree::StageObjective;
use hpo::{HpoReport, HpoRunner, SweepState};
use rcompss::{Runtime, RuntimeConfig};
use tinyml::data::Dataset;
use tinyml::train::{train_with_checkpoints, Checkpointing, EpochSignal};

fn space() -> SearchSpace {
    SearchSpace::new()
        .with(
            "optimizer",
            ParamDomain::Choice(vec![
                ConfigValue::Str("Adam".into()),
                ConfigValue::Str("SGD".into()),
            ]),
        )
        .with("num_epochs", ParamDomain::Choice(vec![ConfigValue::Int(6)]))
        .with("batch_size", ParamDomain::Choice(vec![ConfigValue::Int(32)]))
}

fn dataset() -> Arc<Dataset> {
    Arc::new(Dataset::synthetic_mnist(300, 2))
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hpo-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Sorted (label, accuracy-bits, accuracy-curve-bits) rows: bitwise trial
/// table, no float tolerance anywhere.
fn exact_table(report: &HpoReport) -> Vec<(String, u64, Vec<u64>)> {
    let mut rows: Vec<(String, u64, Vec<u64>)> = report
        .trials
        .iter()
        .map(|t| {
            (
                t.config.label(),
                t.outcome.accuracy.to_bits(),
                t.outcome.epoch_accuracy.iter().map(|a| a.to_bits()).collect(),
            )
        })
        .collect();
    rows.sort();
    rows
}

/// Rerun the full grid over a recovered journal.
fn resume_grid(
    runner: &HpoRunner,
    rt: &Runtime,
    evaluator: Evaluator<'_>,
    journal: &SweepJournal,
    state: &SweepState,
) -> SweepOutcome {
    let plan =
        SweepPlan { journal: Some(journal), resume: Some(state), ..SweepPlan::new(evaluator) };
    runner.execute(rt, &mut GridSearch::new(&space()), plan, |_| {}).expect("resumed run")
}

#[test]
fn interrupted_and_resumed_sweep_is_bit_identical() {
    let data = dataset();
    let runner = HpoRunner::new(ExperimentOptions::default());
    let reg = runmetrics::global();
    reg.set_enabled(true);
    let restores_before = reg.counter("ckpt_restore_total").value();
    let bytes_before = reg.counter("ckpt_bytes_written").value();

    // Reference: the same sweep, never interrupted, no checkpointing.
    let reference = {
        let rt = Runtime::threaded(RuntimeConfig::single_node(2));
        runner
            .run(&rt, &mut GridSearch::new(&space()), tinyml_objective(Arc::clone(&data), vec![16]))
            .expect("reference run")
    };
    assert_eq!(reference.trials.len(), 2);

    // Stage the crash: trial A finished (journaled), trial B killed after
    // 3 of 6 epochs with a model snapshot at epoch 2 on disk.
    let dir = tmpdir("resume");
    let spec = CheckpointSpec::new(&dir);
    let journal = spec.journal().expect("journal");
    let store = Arc::new(spec.store().expect("store"));

    let mut grid = GridSearch::new(&space());
    let done = hpo::algo::Suggester::suggest(&mut grid, &[]).expect("first config");
    let victim = hpo::algo::Suggester::suggest(&mut grid, &[]).expect("second config");

    // Trial A ran to completion before the crash: journal its real outcome.
    let obj = tinyml_objective(Arc::clone(&data), vec![16]);
    let done_outcome = obj(&done, None).expect("trial A");
    journal.record(&SweepRecord::Submitted { key: trial_key(&done), label: done.label() }).unwrap();
    journal
        .record(&SweepRecord::Finished {
            key: trial_key(&done),
            outcome: done_outcome.clone(),
            task_us: 41,
        })
        .unwrap();

    // Trial B dies mid-flight: submitted, snapshot at epoch 2, no outcome.
    journal
        .record(&SweepRecord::Submitted { key: trial_key(&victim), label: victim.label() })
        .unwrap();
    let mut cfg = train_config_from(&victim, &[16]).expect("translate");
    cfg.threads = 1;
    let key = trial_key(&victim);
    let mut sink = |snap: &tinyml::TrainSnapshot| {
        store.save(key, &snap.encode()).unwrap();
        // The crashed process was an earlier release: it also journaled an
        // `Epoch` mark per snapshot. Recovery must read past it.
        journal.record(&SweepRecord::Epoch { key, epoch: snap.next_epoch }).unwrap();
    };
    train_with_checkpoints(
        &cfg,
        &data,
        Checkpointing { every: 2, resume: None, sink: Some(&mut sink) },
        &mut |epoch, _, _| if epoch >= 2 { EpochSignal::Stop } else { EpochSignal::Continue },
    );
    let on_disk = store.load(key).unwrap().and_then(|b| tinyml::TrainSnapshot::decode(&b));
    assert_eq!(on_disk.map(|s| s.next_epoch), Some(2), "crash left the epoch-2 snapshot");

    // Resume: recover the journal, rerun the full grid.
    let state = spec.recover().expect("recover");
    assert_eq!(state.complete.len(), 1);
    assert_eq!(state.in_flight, vec![key]);
    assert_eq!(state.malformed, 0, "the old `Epoch` mark is a known record, skipped");

    let rt = Runtime::threaded(RuntimeConfig::single_node(2));
    let objective = Trainer {
        ckpt_every: 2,
        store: Some(Arc::clone(&store)),
        ..Trainer::new(Arc::clone(&data), vec![16])
    }
    .objective();
    let SweepOutcome { report: resumed, resume: stats, .. } =
        resume_grid(&runner, &rt, Evaluator::Trials(objective), &journal, &state);

    assert_eq!(stats.skipped_complete, 1);
    assert_eq!(stats.reenqueued, 1);
    assert_eq!(exact_table(&resumed), exact_table(&reference), "trial table bit-identical");
    // The skipped trial carries its journaled task time, not a re-run's.
    let done_trial =
        resumed.trials.iter().find(|t| t.config.label() == done.label()).expect("trial A");
    assert_eq!(done_trial.task_us, 41);
    assert_eq!(done_trial.outcome, done_outcome);

    // The in-flight trial really restored (metrics moved) and the
    // finished sweep cleaned its snapshots up.
    assert!(reg.counter("ckpt_restore_total").value() > restores_before, "snapshot restored");
    assert!(reg.counter("ckpt_bytes_written").value() > bytes_before, "snapshots written");
    assert!(store.load(key).unwrap().is_none(), "completion discards the trial's snapshot");

    // A second resume finds everything complete: nothing re-runs.
    let state = spec.recover().expect("recover again");
    assert_eq!(state.complete.len(), 2);
    assert!(state.in_flight.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_skips_completed_trials_without_rerunning_them() {
    let dir = tmpdir("skip");
    let spec = CheckpointSpec::new(&dir);
    let journal = spec.journal().expect("journal");
    let mut grid = GridSearch::new(&space());
    let done = hpo::algo::Suggester::suggest(&mut grid, &[]).expect("first config");
    journal.record(&SweepRecord::Submitted { key: trial_key(&done), label: done.label() }).unwrap();
    journal
        .record(&SweepRecord::Finished {
            key: trial_key(&done),
            outcome: TrialOutcome::with_accuracy(0.77),
            task_us: 5,
        })
        .unwrap();
    let state = spec.recover().expect("recover");

    // An objective that proves the skip: re-running the journaled config
    // would fail the trial, and the report would show it.
    let forbidden = done.label();
    let objective: hpo::experiment::Objective = Arc::new(move |config, _| {
        assert_ne!(config.label(), forbidden, "journaled-complete trial was re-run");
        Ok(TrialOutcome::with_accuracy(0.5))
    });
    let rt = Runtime::threaded(RuntimeConfig::single_node(2));
    let runner = HpoRunner::new(ExperimentOptions::default());
    let SweepOutcome { report, resume: stats, .. } =
        resume_grid(&runner, &rt, Evaluator::Trials(objective), &journal, &state);

    assert_eq!(stats.skipped_complete, 1);
    assert_eq!(stats.reenqueued, 0, "nothing was in flight");
    assert_eq!(report.trials.len(), 2);
    assert_eq!(report.failures(), 0);
    let replayed =
        report.trials.iter().find(|t| t.config.label() == done.label()).expect("skipped trial");
    assert_eq!(replayed.outcome.accuracy, 0.77, "journaled outcome replayed verbatim");
    assert_eq!(replayed.task_us, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Journaling and prefix sharing compose: a staged grid stopped by its
/// gate after `k` trials and resumed from the journal plans its tree over
/// the unfinished configs only, and still lands on the table of the
/// uninterrupted staged run — which is the naive run's.
#[test]
fn staged_sweep_stopped_by_its_gate_resumes_bit_identical() {
    let space = SearchSpace::new()
        .with("optimizer", ParamDomain::choice_strs(&["Adam", "SGD"]))
        .with("num_epochs", ParamDomain::choice_ints(&[2, 4, 6]));
    let data = dataset();
    let stage = StageObjective::new(Arc::clone(&data), vec![16]);
    let runner = HpoRunner::new(ExperimentOptions::default());
    let run = |plan: SweepPlan<'_>| {
        let rt = Runtime::threaded(RuntimeConfig::single_node(2));
        runner.execute(&rt, &mut GridSearch::new(&space), plan, |_| {}).expect("grid run")
    };
    let naive = run(SweepPlan::new(Evaluator::Trials(tinyml_objective(data, vec![16])))).report;
    let uninterrupted = run(SweepPlan::new(Evaluator::Stages(&stage)));
    assert_eq!(naive.trials.len(), 6);
    assert!(uninterrupted.stages.epochs_saved() > 0, "the epoch axis shares its prefix");

    let dir = tmpdir("staged");
    let spec = CheckpointSpec::new(&dir);
    let journal = spec.journal().expect("journal");
    let k = 4;
    let admitted = std::sync::atomic::AtomicUsize::new(0);
    let control = SweepControl::new()
        .with_gate(move || admitted.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < k);
    let stopped = run(SweepPlan {
        control: Some(&control),
        journal: Some(&journal),
        ..SweepPlan::new(Evaluator::Stages(&stage))
    });
    assert_eq!(stopped.report.trials.len(), k, "the gate let k trials through");

    let state = spec.recover().expect("recover");
    assert_eq!(state.complete.len(), k);
    assert!(state.in_flight.is_empty(), "a denied config is never journaled");
    let resumed = run(SweepPlan {
        journal: Some(&journal),
        resume: Some(&state),
        ..SweepPlan::new(Evaluator::Stages(&stage))
    });
    assert_eq!(resumed.resume.skipped_complete, k);
    assert_eq!(resumed.resume.reenqueued, 0);
    assert_eq!(exact_table(&resumed.report), exact_table(&uninterrupted.report));
    assert_eq!(exact_table(&resumed.report), exact_table(&naive));
    let labels = |r: &HpoReport| r.trials.iter().map(|t| t.config.label()).collect::<Vec<_>>();
    assert_eq!(labels(&resumed.report), labels(&naive), "replayed trials keep their place");
    assert_eq!(spec.recover().expect("recover again").complete.len(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}
