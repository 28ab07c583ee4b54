//! Progress visualisation.
//!
//! The paper's ideal-tool checklist (§1) includes "visualisation dashboards
//! to enable researchers make sense of the output", and §4 notes that "for
//! immediate and interactive action, the performance measure returned can
//! be visualised". This module provides that layer for terminals: a live
//! line per completed trial (fed by the observer of
//! [`crate::runner::HpoRunner::execute`]), an optional periodic
//! runtime-metrics line (queue depth, task latency, retries — the live
//! scheduler-overhead view), and a final leaderboard.

use std::sync::Arc;

use runmetrics::MetricsRegistry;

use crate::ckpt::ResumeStats;
use crate::results::{HpoReport, TrialResult};
use crate::runner::StageStats;

/// Streaming progress renderer.
#[derive(Debug, Default)]
pub struct Dashboard {
    completed: usize,
    best_accuracy: f64,
    /// Registry to sample + how many trials between metrics lines.
    metrics: Option<(Arc<MetricsRegistry>, usize)>,
}

impl Dashboard {
    /// Fresh dashboard.
    pub fn new() -> Self {
        Dashboard::default()
    }

    /// Render a runtime-metrics summary line every `every` trials,
    /// sampled from `registry` (chainable). Pass the runtime's registry
    /// ([`rcompss::Runtime::metrics`]) to watch scheduler behaviour live.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>, every: usize) -> Self {
        self.metrics = Some((registry, every.max(1)));
        self
    }

    /// Record a completed trial; returns the rendered progress line
    /// (two lines when a periodic metrics sample is due).
    pub fn on_trial(&mut self, trial: &TrialResult) -> String {
        self.completed += 1;
        let acc = trial.outcome.accuracy;
        let marker = if trial.outcome.is_failed() {
            " FAILED"
        } else if acc > self.best_accuracy {
            self.best_accuracy = acc;
            " ★ new best"
        } else {
            ""
        };
        let mut line = format!(
            "[{:>4}] acc {:.4} (best {:.4}) {}{marker}",
            self.completed,
            acc,
            self.best_accuracy,
            trial.config.label(),
        );
        if let Some(m) = self.metrics_line() {
            line.push('\n');
            line.push_str(&m);
        }
        line
    }

    /// The periodic metrics line, if one is due at the current trial count.
    fn metrics_line(&self) -> Option<String> {
        let (registry, every) = self.metrics.as_ref()?;
        if !self.completed.is_multiple_of(*every) {
            return None;
        }
        let snap = registry.snapshot();
        let counter = |n: &str| snap.counter(n).unwrap_or(0);
        // Per-function task latencies are labelled series; fold them into
        // one count + worst p99 for the one-line view.
        let (task_count, task_p99) = snap
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("rcompss_task_latency_us"))
            .fold((0u64, 0u64), |(c, p), (_, h)| (c + h.count, p.max(h.p99)));
        Some(format!(
            "       metrics: tasks {}/{} done · {} retried · ready {} · task p99 {}µs · sched p99 {}µs",
            counter("rcompss_tasks_completed_total"),
            counter("rcompss_tasks_submitted_total"),
            counter("rcompss_tasks_retried_total"),
            snap.gauge("rcompss_ready_queue_depth").unwrap_or(0.0) as u64,
            if task_count > 0 { task_p99 } else { 0 },
            snap.histogram("rcompss_sched_decision_us").map(|h| h.p99).unwrap_or(0),
        ))
    }

    /// What resuming did: `resumed sweep: X complete, Y re-enqueued`,
    /// silent on a fresh, non-resumed sweep.
    pub fn on_resume(&self, stats: &ResumeStats) -> String {
        if !stats.resumed_any() {
            return String::new();
        }
        format!(
            "resumed sweep: {} complete, {} re-enqueued",
            stats.skipped_complete, stats.reenqueued
        )
    }

    /// One-line checkpoint activity summary: trials replayed from the
    /// journal (this runtime's registry) and model snapshots restored
    /// (the process-global registry the objective records into, with the
    /// total epochs those restores skipped). Empty when nothing resumed
    /// or restored.
    pub fn ckpt_summary(&self) -> String {
        let resumed = self
            .metrics
            .as_ref()
            .and_then(|(reg, _)| reg.snapshot().counter("hpo_trials_resumed_total"))
            .unwrap_or(0);
        let snap = runmetrics::global().snapshot();
        let restores = snap.counter("ckpt_restore_total").unwrap_or(0);
        let restored_epochs = snap.counter("ckpt_restored_epochs_total").unwrap_or(0);
        if resumed == 0 && restores == 0 {
            return String::new();
        }
        format!(
            "checkpoint: {resumed} trials replayed from journal · \
             {restores} snapshot restores ({restored_epochs} epochs skipped)"
        )
    }

    /// Per-worker summary for distributed runs, one line per node lane,
    /// ordered by `labels`:
    ///
    /// ```text
    /// worker w0@host:port: 8 tasks · rtt 1.2 ms · offset +3.4 ms
    /// ```
    ///
    /// Reads the `rcompss_node_tasks_completed_total{node=...}` counters
    /// plus the gauges the heartbeat clock-sync maintains (`rnet_rtt_us`,
    /// `rnet_clock_offset_us`); those columns are omitted per-worker until
    /// the first estimate lands. Empty string when no per-node counters
    /// exist (threaded/sim runs) or metrics are off.
    pub fn node_lanes(&self, labels: &[String]) -> String {
        let Some((registry, _)) = &self.metrics else { return String::new() };
        let snap = registry.snapshot();
        let mut out = String::new();
        for label in labels {
            let series = runmetrics::labeled("rcompss_node_tasks_completed_total", "node", label);
            let Some(n) = snap.counter(&series) else { continue };
            out.push_str(&format!("worker {label}: {n} tasks"));
            let gauge = |base: &str| snap.gauge(&runmetrics::labeled(base, "node", label));
            if let Some(rtt) = gauge("rnet_rtt_us") {
                out.push_str(&format!(" · rtt {:.1} ms", rtt / 1e3));
            }
            if let Some(offset) = gauge("rnet_clock_offset_us") {
                out.push_str(&format!(" · offset {:+.1} ms", offset / 1e3));
            }
            out.push('\n');
        }
        out
    }
}

/// The stage-tree banner a deduped sweep prints under its leaderboard:
/// `stage tree: 630 epochs saved (41% of naive) · 18 prefix forks`.
/// Empty when the run shared nothing (every trial trained from scratch).
pub fn stage_banner(stats: &StageStats) -> String {
    let saved = stats.epochs_saved();
    if saved == 0 && stats.forks == 0 {
        return String::new();
    }
    let pct = (saved * 100).checked_div(stats.naive_epochs).unwrap_or(0);
    format!("stage tree: {saved} epochs saved ({pct}% of naive) · {} prefix forks", stats.forks)
}

/// Top-`k` leaderboard of a finished report.
pub fn leaderboard(report: &HpoReport, k: usize) -> String {
    let mut ranked: Vec<&TrialResult> =
        report.trials.iter().filter(|t| !t.outcome.is_failed()).collect();
    ranked.sort_by(|a, b| b.outcome.accuracy.total_cmp(&a.outcome.accuracy));
    let failed = report.trials.len() - ranked.len();
    let failed_note = if failed > 0 { format!(", {failed} failed") } else { String::new() };
    let mut out = format!(
        "top {} of {} trials ({}{failed_note}):\n",
        k.min(ranked.len()),
        report.trials.len(),
        report.algorithm
    );
    for (i, t) in ranked.iter().take(k).enumerate() {
        out.push_str(&format!(
            "{:>3}. {:.4}  {} ({} epochs)\n",
            i + 1,
            t.outcome.accuracy,
            t.config.label(),
            t.outcome.epochs_run
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::TrialOutcome;
    use crate::space::{Config, ConfigValue};

    fn trial(opt: &str, acc: f64) -> TrialResult {
        TrialResult {
            config: Config::new().with("optimizer", ConfigValue::Str(opt.into())),
            outcome: TrialOutcome::with_accuracy(acc),
            task_us: 0,
        }
    }

    #[test]
    fn dashboard_tracks_best() {
        let mut d = Dashboard::new();
        let l1 = d.on_trial(&trial("SGD", 0.6));
        assert!(l1.contains("new best"), "{l1}");
        let l2 = d.on_trial(&trial("Adam", 0.9));
        assert!(l2.contains("new best"));
        let l3 = d.on_trial(&trial("RMSprop", 0.7));
        assert!(!l3.contains("new best"));
        assert!(l3.starts_with("[   3] acc 0.7000 (best 0.9000) "), "{l3}");
        assert_eq!(l3.lines().count(), 1, "no registry: no metrics line");
    }

    #[test]
    fn failed_trials_are_marked_and_never_best() {
        let mut d = Dashboard::new();
        let t =
            TrialResult { config: Config::new(), outcome: TrialOutcome::failed("x"), task_us: 0 };
        let line = d.on_trial(&t);
        assert!(line.contains("FAILED"));
        assert!(line.contains("(best 0.0000)"), "a failure is never the best: {line}");
        let line = d.on_trial(&trial("Adam", 0.9));
        assert!(!line.contains("FAILED"), "{line}");
        assert!(line.starts_with("[   2] acc 0.9000 (best 0.9000) "), "{line}");
    }

    #[test]
    fn periodic_metrics_line_renders_from_registry() {
        let reg = std::sync::Arc::new(runmetrics::MetricsRegistry::new(true));
        reg.counter("rcompss_tasks_submitted_total").add(5);
        reg.counter("rcompss_tasks_completed_total").add(4);
        reg.counter("rcompss_tasks_retried_total").incr();
        reg.gauge("rcompss_ready_queue_depth").set(2.0);
        reg.histogram(&runmetrics::labeled("rcompss_task_latency_us", "fn", "exp")).record(900);
        reg.histogram("rcompss_sched_decision_us").record(7);
        let mut d = Dashboard::new().with_metrics(std::sync::Arc::clone(&reg), 2);
        let l1 = d.on_trial(&trial("SGD", 0.5));
        assert!(!l1.contains("metrics:"), "not due yet: {l1}");
        let l2 = d.on_trial(&trial("Adam", 0.8));
        let metrics_line = l2.lines().nth(1).expect("metrics line due every 2 trials");
        assert!(metrics_line.contains("tasks 4/5 done"), "{metrics_line}");
        assert!(metrics_line.contains("1 retried"), "{metrics_line}");
        assert!(metrics_line.contains("ready 2"), "{metrics_line}");
        assert_eq!(l2.lines().count(), 2, "the trial line + the metrics line");
    }

    #[test]
    fn node_lanes_summarises_per_worker_counters() {
        let reg = std::sync::Arc::new(runmetrics::MetricsRegistry::new(true));
        let w0 = "w0@127.0.0.1:7077".to_string();
        let w1 = "w1@127.0.0.1:7078".to_string();
        reg.counter(&runmetrics::labeled("rcompss_node_tasks_completed_total", "node", &w0)).add(8);
        reg.counter(&runmetrics::labeled("rcompss_node_tasks_completed_total", "node", &w1)).add(4);
        let d = Dashboard::new().with_metrics(std::sync::Arc::clone(&reg), 10);
        let lanes = d.node_lanes(&[w0.clone(), w1.clone()]);
        let lines: Vec<&str> = lanes.lines().collect();
        assert_eq!(lines.len(), 2, "{lanes}");
        assert_eq!(lines[0], format!("worker {w0}: 8 tasks"));
        assert_eq!(lines[1], format!("worker {w1}: 4 tasks"));
        // Threaded runs have no per-node series: silent.
        assert!(d.node_lanes(&["node0".to_string()]).is_empty());
        // No registry: silent.
        assert!(Dashboard::new().node_lanes(&[w0]).is_empty());
    }

    #[test]
    fn node_lanes_show_clock_sync() {
        let reg = std::sync::Arc::new(runmetrics::MetricsRegistry::new(true));
        let w0 = "w0@127.0.0.1:7077".to_string();
        let w1 = "w1@127.0.0.1:7078".to_string();
        reg.counter(&runmetrics::labeled("rcompss_node_tasks_completed_total", "node", &w0)).add(8);
        reg.counter(&runmetrics::labeled("rcompss_node_tasks_completed_total", "node", &w1)).add(4);
        reg.gauge(&runmetrics::labeled("rnet_rtt_us", "node", &w0)).set(1_200.0);
        reg.gauge(&runmetrics::labeled("rnet_clock_offset_us", "node", &w0)).set(-3_400.0);
        let d = Dashboard::new().with_metrics(std::sync::Arc::clone(&reg), 10);
        let lanes = d.node_lanes(&[w0.clone(), w1.clone()]);
        let lines: Vec<&str> = lanes.lines().collect();
        assert_eq!(lines[0], format!("worker {w0}: 8 tasks · rtt 1.2 ms · offset -3.4 ms"));
        // No clock estimate for w1 yet: columns omitted, not zero-filled.
        assert_eq!(lines[1], format!("worker {w1}: 4 tasks"));
    }

    #[test]
    fn resume_banner_and_ckpt_summary() {
        let d = Dashboard::new();
        assert!(d.on_resume(&ResumeStats::default()).is_empty(), "fresh sweep: no banner");
        let line = d.on_resume(&ResumeStats { skipped_complete: 3, reenqueued: 2 });
        assert_eq!(line, "resumed sweep: 3 complete, 2 re-enqueued");

        let reg = std::sync::Arc::new(runmetrics::MetricsRegistry::new(true));
        reg.counter("hpo_trials_resumed_total").add(3);
        let d = Dashboard::new().with_metrics(std::sync::Arc::clone(&reg), 10);
        let s = d.ckpt_summary();
        assert!(s.contains("3 trials replayed"), "{s}");
    }

    #[test]
    fn stage_banner_reports_savings_and_stays_silent_when_unshared() {
        let stats = StageStats { segments: 27, forks: 18, naive_epochs: 1530, staged_epochs: 900 };
        let line = stage_banner(&stats);
        assert_eq!(line, "stage tree: 630 epochs saved (41% of naive) · 18 prefix forks");
        let unshared = StageStats { segments: 4, forks: 0, naive_epochs: 40, staged_epochs: 40 };
        assert!(stage_banner(&unshared).is_empty(), "nothing shared: no banner");
    }

    #[test]
    fn leaderboard_header_reports_failures() {
        let mut trials = vec![trial("Adam", 0.9), trial("SGD", 0.6)];
        trials.push(TrialResult {
            config: Config::new(),
            outcome: TrialOutcome::failed("x"),
            task_us: 0,
        });
        let report = HpoReport { algorithm: "g".into(), trials, wall_us: 0, early_stopped: false };
        let lb = leaderboard(&report, 5);
        assert!(lb.lines().next().unwrap().contains("1 failed"), "{lb}");
        // ...and stays silent when everything succeeded.
        let clean = HpoReport {
            algorithm: "g".into(),
            trials: vec![trial("Adam", 0.9)],
            wall_us: 0,
            early_stopped: false,
        };
        assert!(!leaderboard(&clean, 5).contains("failed"));
    }

    #[test]
    fn leaderboard_ranks_and_truncates() {
        let report = HpoReport {
            algorithm: "grid".into(),
            trials: vec![trial("SGD", 0.6), trial("Adam", 0.9), trial("RMSprop", 0.7)],
            wall_us: 0,
            early_stopped: false,
        };
        let lb = leaderboard(&report, 2);
        let lines: Vec<&str> = lb.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 rows");
        assert!(lines[1].contains("Adam"));
        assert!(lines[2].contains("RMSprop"));
    }

    #[test]
    fn leaderboard_skips_failures() {
        let mut trials = vec![trial("Adam", 0.9)];
        trials.push(TrialResult {
            config: Config::new(),
            outcome: TrialOutcome::failed("x"),
            task_us: 0,
        });
        let report = HpoReport { algorithm: "r".into(), trials, wall_us: 0, early_stopped: false };
        let lb = leaderboard(&report, 10);
        assert_eq!(lb.lines().count(), 2);
    }
}
