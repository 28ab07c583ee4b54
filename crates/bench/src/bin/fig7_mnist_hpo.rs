//! Figure 7 — MNIST hyperparameter optimisation with grid search:
//! per-epoch validation-accuracy curves for all 27 configurations, with
//! *real* training (tinyml MLPs on the synthetic MNIST-difficulty dataset).
//!
//! Paper: "MNIST is a relatively simple application that generalises well
//! after just a few epochs. Most of the combinations of hyperparameters are
//! able to attain above 90% accuracy."
//!
//! Epochs are scaled down by 10× by default so the binary finishes in
//! minutes; set `HPO_SCALE=full` for the paper's exact 20/50/100 grid.

use std::sync::Arc;

use hpo::prelude::*;
use hpo_bench::{banner, out_dir, scaled_paper_grid};
use tinyml::Dataset;

fn main() {
    banner("Figure 7", "MNIST grid-search HPO — real training, accuracy curves");
    let space = scaled_paper_grid();

    let cores = std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(4);
    let rt =
        rcompss::Runtime::threaded(rcompss::RuntimeConfig::single_node(cores).with_metrics(true));
    runmetrics::global().set_enabled(true);
    let data = Arc::new(Dataset::synthetic_mnist(2_000, 1));
    let objective = hpo::experiment::tinyml_objective(data, vec![32]);
    let runner = HpoRunner::new(ExperimentOptions::default());

    // One JSON-lines snapshot per completed trial: a time series of the
    // whole run for offline analysis (jq, pandas, Grafana via import).
    let mut jsonl = String::new();
    let report = runner
        .run_observed(&rt, &mut GridSearch::new(&space), objective, |_| {
            let mut snap = rt.metrics().snapshot();
            snap.merge(runmetrics::global().snapshot());
            jsonl.push_str(&runmetrics::to_jsonl_line(rt.now_us(), &snap));
            jsonl.push('\n');
        })
        .expect("run");

    println!("{}", report.summary());
    let above_90 = report.trials.iter().filter(|t| t.outcome.accuracy > 0.9).count();
    println!("configs above 90% accuracy: {above_90}/27 (paper: \"most of the combinations\")");
    println!("\nvalidation-accuracy curves (one glyph per config):");
    print!("{}", report.ascii_curves(72, 16));
    println!("\nmean final accuracy, optimizer × epochs (averaged over batch sizes):");
    print!("{}", report.accuracy_table("optimizer", "num_epochs"));

    let csv_path = out_dir().join("fig7_mnist_hpo.csv");
    std::fs::write(&csv_path, report.to_csv()).expect("write csv");
    println!("\nCSV written to {}", csv_path.display());

    // Final metrics exports next to the CSV.
    let mut final_snap = rt.metrics().snapshot();
    final_snap.merge(runmetrics::global().snapshot());
    let prom = runmetrics::to_prometheus(&final_snap);
    let prom_path = out_dir().join("fig7_mnist_hpo.prom");
    std::fs::write(&prom_path, &prom).expect("write prom");
    let jsonl_path = out_dir().join("fig7_mnist_hpo.metrics.jsonl");
    std::fs::write(&jsonl_path, &jsonl).expect("write jsonl");
    println!("metrics written to {} and {}", prom_path.display(), jsonl_path.display());

    assert_eq!(report.trials.len(), 27);
    assert!(above_90 >= 14, "most configs should clear 90%: got {above_90}");

    // The observability contract: every headline series is in the export.
    for series in [
        "rcompss_task_latency_us{fn=",
        "rcompss_ready_queue_depth",
        "rcompss_sched_decision_us",
        "rcompss_tasks_retried_total",
        "hpo_trials_completed_total",
        "hpo_trials_failed_total",
        "tinyml_epoch_us",
    ] {
        assert!(prom.contains(series), "missing series {series} in Prometheus export");
    }
    assert_eq!(final_snap.counter("hpo_trials_completed_total"), Some(27));
    assert_eq!(jsonl.lines().count(), 27, "one JSONL snapshot per trial");
    let (_, parsed) =
        runmetrics::from_jsonl_line(jsonl.lines().last().unwrap()).expect("valid JSONL");
    assert!(parsed.histogram("tinyml_epoch_us").map(|h| h.count).unwrap_or(0) > 0);
}
