//! Simulate the paper's MareNostrum 4 deployment without a supercomputer:
//! the same 27-experiment HPO application on a 28-node virtual cluster,
//! with worker reservation, Paraver trace export and an ASCII timeline.
//!
//! ```sh
//! cargo run --release --example supercomputer_sim
//! ```

use cluster::{Allocation, Cluster, NodeSpec, TrainingCost};
use hpo::prelude::*;
use paratrace::gantt::{render, GanttOptions};
use paratrace::TraceStats;
use rcompss::{Runtime, RuntimeConfig};

fn main() {
    // 28 MareNostrum-4 nodes; node 0 belongs to the COMPSs worker (the
    // paper requests "an extra node for the worker").
    let cluster = Cluster::homogeneous(28, NodeSpec::marenostrum4());
    let rt = Runtime::simulated(RuntimeConfig::on_cluster(cluster).reserve(0, 48));

    // Whole-node experiments (paper: "We assign 48 cores to each task and
    // let Tensorflow take care of internal parallelism").
    let space = SearchSpace::paper_grid();
    let runner = HpoRunner::new(
        ExperimentOptions::default()
            .with_constraint(rcompss::Constraint::cpus(48))
            .with_sim_duration(|config| {
                let epochs = config.get_int("num_epochs").unwrap_or(50) as u32;
                let batch = config.get_int("batch_size").unwrap_or(64) as u32;
                TrainingCost::cifar10(epochs, batch).duration(&Allocation::cpu(48))
            }),
    );

    // The objective itself is trivial here: in the simulation we care about
    // scheduling/time behaviour, not gradients. (See `quickstart` for real
    // training.)
    let objective: hpo::experiment::Objective = std::sync::Arc::new(|config, _| {
        let epochs = config.get_int("num_epochs").unwrap_or(0) as f64;
        Ok(hpo::experiment::TrialOutcome::with_accuracy(0.6 + epochs / 500.0))
    });

    let report = runner.run(&rt, &mut GridSearch::new(&space), objective).expect("hpo run");
    println!("{}", report.summary());
    println!("virtual HPO makespan: {:.1} min", rt.now_us() as f64 / 60e6);

    let records = rt.trace();
    let stats = TraceStats::compute(&records);
    println!(
        "27 experiments, {} started at t=0, peak parallelism {}",
        TraceStats::tasks_started_within(&records, 0),
        stats.peak_parallelism
    );
    println!("\nper-node busy-core timeline (rows = nodes):");
    print!("{}", render(&records, &GanttOptions { width: 70, per_node: true }));
    println!("\nno code changed versus the single-node run — only the cluster config.");
}
