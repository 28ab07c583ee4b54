//! Trial results, reports, and the plotting step of the paper's workflow
//! ("When all tasks are completed, we plot the graphs showing the
//! performance of each experiment", §4).

use std::fmt::Write as _;

use crate::experiment::TrialOutcome;
use crate::space::Config;

/// One completed (or failed) trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// The configuration evaluated.
    pub config: Config,
    /// What came back.
    pub outcome: TrialOutcome,
    /// Task time, µs (wall inside the task, or simulated duration).
    pub task_us: u64,
}

impl TrialResult {
    /// One-line description.
    pub fn label(&self) -> String {
        format!("{} -> {:.4}", self.config.label(), self.outcome.accuracy)
    }
}

/// The header line of a trial CSV: a standalone run's `--out` and a served
/// leaderboard's `submit --out` both start with it.
pub const CSV_HEADER: &str = "config,accuracy,epochs_run,task_us,error\n";

/// Append one trial CSV row to `out`: the config label quoted (it holds
/// commas), accuracy to six places, then `error` as it is.
pub fn csv_row(
    out: &mut String,
    label: &str,
    accuracy: f64,
    epochs: u32,
    task_us: u64,
    error: &str,
) {
    let _ = writeln!(out, "\"{label}\",{accuracy:.6},{epochs},{task_us},{error}");
}

/// The full result of one HPO run.
#[derive(Debug, Clone, Default)]
pub struct HpoReport {
    /// Algorithm name.
    pub algorithm: String,
    /// All trials in admission order: batch by batch, and within a batch
    /// in the order its configs were proposed (not the order they finished).
    pub trials: Vec<TrialResult>,
    /// End-to-end time of the whole optimisation, µs (wall or virtual),
    /// from the start of the sweep, not of the runtime it ran on.
    pub wall_us: u64,
    /// Whether the run was cut short by across-trial early stopping.
    pub early_stopped: bool,
}

impl HpoReport {
    /// The best successful trial by accuracy.
    pub fn best(&self) -> Option<&TrialResult> {
        self.trials
            .iter()
            .filter(|t| !t.outcome.is_failed())
            .max_by(|a, b| a.outcome.accuracy.total_cmp(&b.outcome.accuracy))
    }

    /// Number of successful trials.
    pub fn successes(&self) -> usize {
        self.trials.iter().filter(|t| !t.outcome.is_failed()).count()
    }

    /// Number of failed trials.
    pub fn failures(&self) -> usize {
        self.trials.len() - self.successes()
    }

    /// Trials needed to first reach `target` accuracy, if ever reached —
    /// the random-vs-grid efficiency metric of Bergstra & Bengio.
    pub fn trials_to_reach(&self, target: f64) -> Option<usize> {
        self.trials.iter().position(|t| t.outcome.accuracy >= target).map(|i| i + 1)
    }

    /// The trial CSV, one [`csv_row`] per trial under [`CSV_HEADER`].
    pub fn to_csv(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        for t in &self.trials {
            csv_row(
                &mut out,
                &t.config.label(),
                t.outcome.accuracy,
                t.outcome.epochs_run,
                t.task_us,
                t.outcome.error.as_deref().unwrap_or(""),
            );
        }
        out
    }

    /// ASCII rendering of the per-epoch validation-accuracy curves — the
    /// textual analogue of the paper's Figures 7 and 8. One row per
    /// accuracy band, epochs along the X axis; each trial draws with its
    /// own glyph, listed in the legend below the chart.
    pub fn ascii_curves(&self, width: usize, height: usize) -> String {
        const GLYPHS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
        let curves: Vec<(&TrialResult, &[f64])> = self
            .trials
            .iter()
            .filter(|t| !t.outcome.epoch_accuracy.is_empty())
            .map(|t| (t, t.outcome.epoch_accuracy.as_slice()))
            .collect();
        if curves.is_empty() {
            return String::from("(no curves)\n");
        }
        let max_epochs = curves.iter().map(|(_, c)| c.len()).max().unwrap_or(1);
        let width = width.max(10);
        let height = height.max(5);
        let mut grid = vec![vec![' '; width]; height];
        for (i, (_, curve)) in curves.iter().enumerate() {
            let glyph = GLYPHS[i % GLYPHS.len()] as char;
            for (e, &acc) in curve.iter().enumerate() {
                let x = if max_epochs <= 1 { 0 } else { e * (width - 1) / (max_epochs - 1) };
                let y = ((1.0 - acc.clamp(0.0, 1.0)) * (height - 1) as f64).round() as usize;
                grid[y.min(height - 1)][x.min(width - 1)] = glyph;
            }
        }
        let mut out = String::new();
        for (row, line) in grid.iter().enumerate() {
            let acc_label = 1.0 - row as f64 / (height - 1) as f64;
            out.push_str(&format!("{acc_label:>5.2} |"));
            out.extend(line.iter());
            out.push('\n');
        }
        out.push_str(&format!("      +{}\n", "-".repeat(width)));
        out.push_str(&format!("       epochs 1..{max_epochs}\n"));
        for (i, (t, _)) in curves.iter().enumerate() {
            out.push_str(&format!(
                "  {} = {} (final {:.3})\n",
                GLYPHS[i % GLYPHS.len()] as char,
                t.config.label(),
                t.outcome.accuracy
            ));
        }
        out
    }

    /// Cross-tabulate final accuracy over two hyperparameter axes,
    /// averaging over everything else — a compact numeric view of the
    /// grid figures (rows = values of `row_key`, columns = `col_key`).
    pub fn accuracy_table(&self, row_key: &str, col_key: &str) -> String {
        use std::collections::BTreeMap;
        let mut cells: BTreeMap<(String, String), (f64, usize)> = BTreeMap::new();
        for t in self.trials.iter().filter(|t| !t.outcome.is_failed()) {
            let (Some(r), Some(c)) = (t.config.get(row_key), t.config.get(col_key)) else {
                continue;
            };
            let e = cells.entry((r.to_string(), c.to_string())).or_insert((0.0, 0));
            e.0 += t.outcome.accuracy;
            e.1 += 1;
        }
        if cells.is_empty() {
            return format!("(no data for {row_key} × {col_key})\n");
        }
        let mut rows: Vec<String> = cells.keys().map(|(r, _)| r.clone()).collect();
        rows.dedup();
        let mut cols: Vec<String> = cells.keys().map(|(_, c)| c.clone()).collect();
        cols.sort();
        cols.dedup();
        let mut out = format!("{:>12}", format!("{row_key}\\{col_key}"));
        for c in &cols {
            out.push_str(&format!(" {c:>8}"));
        }
        out.push('\n');
        for r in &rows {
            out.push_str(&format!("{r:>12}"));
            for c in &cols {
                match cells.get(&(r.clone(), c.clone())) {
                    Some(&(sum, n)) => out.push_str(&format!(" {:>8.3}", sum / n as f64)),
                    None => out.push_str(&format!(" {:>8}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Short human summary.
    pub fn summary(&self) -> String {
        let best = self.best().map(|t| t.label()).unwrap_or_else(|| "none".to_string());
        format!(
            "{}: {} trials ({} failed), best {} in {:.1}s{}",
            self.algorithm,
            self.trials.len(),
            self.failures(),
            best,
            self.wall_us as f64 / 1e6,
            if self.early_stopped { " [early-stopped]" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ConfigValue;

    fn trial(opt: &str, acc: f64, curve: Vec<f64>) -> TrialResult {
        TrialResult {
            config: Config::new().with("optimizer", ConfigValue::Str(opt.into())),
            outcome: TrialOutcome {
                accuracy: acc,
                epoch_accuracy: curve,
                epochs_run: 3,
                ..Default::default()
            },
            task_us: 1000,
        }
    }

    fn report() -> HpoReport {
        HpoReport {
            algorithm: "grid".into(),
            trials: vec![
                trial("SGD", 0.6, vec![0.2, 0.4, 0.6]),
                trial("Adam", 0.9, vec![0.5, 0.8, 0.9]),
                TrialResult {
                    config: Config::new().with("optimizer", ConfigValue::Str("RMSprop".into())),
                    outcome: TrialOutcome::failed("crashed"),
                    task_us: 10,
                },
            ],
            wall_us: 2_000_000,
            early_stopped: false,
        }
    }

    #[test]
    fn best_ignores_failures() {
        let r = report();
        assert_eq!(r.best().unwrap().config.get_str("optimizer"), Some("Adam"));
        assert_eq!(r.successes(), 2);
        assert_eq!(r.failures(), 1);
    }

    #[test]
    fn trials_to_reach_counts_inclusive() {
        let r = report();
        assert_eq!(r.trials_to_reach(0.5), Some(1));
        assert_eq!(r.trials_to_reach(0.7), Some(2));
        assert_eq!(r.trials_to_reach(0.95), None);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("config,accuracy"));
        assert!(lines[2].contains("Adam"));
        assert!(lines[3].contains("crashed"));
    }

    #[test]
    fn ascii_curves_plot_every_trial_with_curves() {
        let s = report().ascii_curves(30, 10);
        assert!(s.contains('A'), "first curve glyph:\n{s}");
        assert!(s.contains('B'), "second curve glyph:\n{s}");
        assert!(!s.contains("C ="), "failed trial has no curve");
        assert!(s.contains("epochs 1..3"));
        assert!(s.contains("optimizer=Adam"));
        // top row is accuracy 1.00, bottom 0.00
        assert!(s.starts_with(" 1.00 |"));
    }

    #[test]
    fn ascii_curves_empty_report() {
        let r = HpoReport::default();
        assert_eq!(r.ascii_curves(40, 10), "(no curves)\n");
        assert!(r.best().is_none());
    }

    #[test]
    fn summary_mentions_algorithm_and_best() {
        let s = report().summary();
        assert!(s.contains("grid"));
        assert!(s.contains("3 trials (1 failed)"));
        assert!(s.contains("Adam"));
        let mut r = report();
        r.early_stopped = true;
        assert!(r.summary().contains("early-stopped"));
    }

    #[test]
    fn accuracy_table_cross_tabulates() {
        let mk = |opt: &str, e: i64, acc: f64| TrialResult {
            config: Config::new()
                .with("optimizer", ConfigValue::Str(opt.into()))
                .with("num_epochs", ConfigValue::Int(e)),
            outcome: TrialOutcome::with_accuracy(acc),
            task_us: 0,
        };
        let r = HpoReport {
            algorithm: "grid".into(),
            trials: vec![
                mk("Adam", 20, 0.8),
                mk("Adam", 20, 0.9), // averaged with the one above → 0.85
                mk("Adam", 50, 0.95),
                mk("SGD", 20, 0.6),
            ],
            wall_us: 0,
            early_stopped: false,
        };
        let t = r.accuracy_table("optimizer", "num_epochs");
        assert!(t.contains("0.850"), "{t}");
        assert!(t.contains("0.950"), "{t}");
        assert!(t.contains("0.600"), "{t}");
        let sgd_row = t.lines().find(|l| l.contains("SGD")).unwrap();
        assert!(sgd_row.contains('-'), "missing cell rendered as dash: {sgd_row}");
        // unknown keys degrade gracefully
        assert!(r.accuracy_table("nope", "num_epochs").contains("no data"));
    }

    #[test]
    fn label_formats() {
        let t = trial("Adam", 0.87654, vec![]);
        assert_eq!(t.label(), "optimizer=Adam -> 0.8765");
    }
}
