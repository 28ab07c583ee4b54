//! Figure 8 — CIFAR-10 hyperparameter optimisation with grid search.
//!
//! Paper: "CIFAR 10 is a slightly bigger and more complex benchmark in
//! comparison with MNIST … Most of the experiments perform well on the
//! given hyperparameters. As mentioned earlier, random search would be a
//! better alternative in this case."
//!
//! We run both: the 27-point grid (the figure) and a 9-trial random search
//! demonstrating the paper's closing observation that random reaches a good
//! configuration with a fraction of the experiments.

use std::sync::Arc;

use hpo::prelude::*;
use hpo_bench::{banner, out_dir, scaled_paper_grid};
use tinyml::Dataset;

fn main() {
    banner("Figure 8", "CIFAR-10 grid-search HPO — real training, accuracy curves");
    let space = scaled_paper_grid();

    let cores = std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(4);
    let rt = rcompss::Runtime::threaded(rcompss::RuntimeConfig::single_node(cores));
    let data = Arc::new(Dataset::synthetic_cifar10(1_200, 1));
    let objective = hpo::experiment::tinyml_objective(Arc::clone(&data), vec![48]);
    let runner = HpoRunner::new(ExperimentOptions::default());

    let report =
        runner.run(&rt, &mut GridSearch::new(&space), objective.clone()).expect("grid run");
    println!("{}", report.summary());
    print!("{}", report.ascii_curves(72, 16));
    println!("\nmean final accuracy, optimizer × epochs (averaged over batch sizes):");
    print!("{}", report.accuracy_table("optimizer", "num_epochs"));

    let csv_path = out_dir().join("fig8_cifar_hpo.csv");
    std::fs::write(&csv_path, report.to_csv()).expect("write csv");
    println!("\nCSV written to {}", csv_path.display());

    // The paper's aside: random search finds a good config in a fraction of
    // the trials. Compare trials-to-reach-90%-of-grid-best.
    let grid_best = report.best().expect("grid best").outcome.accuracy;
    let rt2 = rcompss::Runtime::threaded(rcompss::RuntimeConfig::single_node(cores));
    let runner2 = HpoRunner::new(ExperimentOptions::default());
    let random_report =
        runner2.run(&rt2, &mut RandomSearch::new(&space, 9, 7), objective).expect("random run");
    let target = grid_best * 0.95;
    println!(
        "\nrandom search: best {:.3} in 9 trials (grid best {:.3} in 27); \
         reached {:.0}% of grid best after {:?} trials",
        random_report.best().map(|t| t.outcome.accuracy).unwrap_or(0.0),
        grid_best,
        95.0,
        random_report.trials_to_reach(target)
    );

    assert_eq!(report.trials.len(), 27);
    assert_eq!(report.failures(), 0);
}
