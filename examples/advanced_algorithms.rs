//! The paper's future work, delivered: random search, TPE and successive
//! halving over a mixed discrete/continuous space, with early stopping —
//! "This library will enable the user to perform HPO over any search space
//! by simply calling a function and specifying the algorithm" (§7).
//!
//! ```sh
//! cargo run --release --example advanced_algorithms
//! ```
//!
//! `ci.sh` diffs its output, wall times masked, against
//! `results/advanced_algorithms.txt`.

use std::sync::Arc;

use hpo::algo::hyperband::Bracket;
use hpo::prelude::*;
use rcompss::{Runtime, RuntimeConfig};
use tinyml::Dataset;

fn main() {
    // A richer space than the paper's Listing 1: a continuous learning
    // rate — grid search can't even enumerate this.
    let space = SearchSpace::from_json(
        r#"{
            "optimizer": ["Adam", "SGD", "RMSprop"],
            "num_epochs": [4, 8],
            "batch_size": [32, 64, 128],
            "learning_rate": {"log_uniform": [1e-4, 1e-1]}
        }"#,
    )
    .expect("valid config");

    // A fixed pool, not this machine's core count: random search launches
    // one wave per `cores` trials, so where early stopping cuts it, and the
    // output `ci.sh` diffs, would otherwise depend on the host.
    let cores = 2;
    let data = Arc::new(Dataset::synthetic_mnist(1_000, 9));

    // --- random search, with across-trial early stopping ---
    let rt = Runtime::threaded(RuntimeConfig::single_node(cores));
    let objective = hpo::experiment::tinyml_objective(Arc::clone(&data), vec![32]);
    let runner =
        HpoRunner::new(ExperimentOptions::default().with_early_stop(EarlyStop::at_accuracy(0.93)));
    let mut opts_small_waves = runner.clone();
    opts_small_waves.opts.wave_size = Some(cores as usize);
    let random = opts_small_waves
        .run(&rt, &mut RandomSearch::new(&space, 16, 7), objective.clone())
        .expect("random run");
    println!("random search : {}", random.summary());

    // --- TPE: model-based, sequential batches ---
    let rt = Runtime::threaded(RuntimeConfig::single_node(cores));
    let runner = HpoRunner::new(ExperimentOptions::default());
    let tpe =
        runner.run(&rt, &mut TpeSearch::new(&space, 16, 7), objective.clone()).expect("tpe run");
    println!("TPE           : {}", tpe.summary());

    // --- successive halving: spend epochs only on survivors ---
    let rt = Runtime::threaded(RuntimeConfig::single_node(cores));
    let runner = HpoRunner::new(ExperimentOptions::default());
    let bracket = Bracket::new(9, 2, 8, 3);
    let sh = runner
        .execute(
            &rt,
            &mut BracketSource::new(&space, &bracket, 13),
            SweepPlan::new(Evaluator::Trials(objective)),
            |_| {},
        )
        .expect("sh run")
        .report;
    println!("succ. halving : {}", sh.summary());
    println!(
        "  bracket rungs: {:?} (epoch budget grows only for survivors)",
        bracket.rungs.iter().map(|r| (r.n_configs, r.budget)).collect::<Vec<_>>()
    );

    // Compare winners.
    for (name, report) in [("random", &random), ("tpe", &tpe), ("sh", &sh)] {
        if let Some(best) = report.best() {
            println!("{name:>7} best: {}", best.label());
        }
    }
}
