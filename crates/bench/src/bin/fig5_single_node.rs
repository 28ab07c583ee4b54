//! Figure 5 — the full 27-experiment grid on one 48-core node whose worker
//! reserves half the cores.
//!
//! Paper: "From the configuration file, 27 different experiments are
//! created … Since the worker takes half of the cores in a node, 24 cores
//! are left for the tasks. As such, not all tasks will run in parallel.
//! However, the next task is assigned a computational unit as soon as one
//! is available … 24 tasks were started at the same time … The entire
//! application takes 207 minutes."

use cluster::{Cluster, NodeSpec};
use hpo_bench::{banner, fmt_min, mnist_sim_duration, out_dir, paper_grid_configs, simulate};
use paratrace::gantt::{render, GanttOptions};
use paratrace::TraceStats;
use rcompss::{Constraint, RuntimeConfig};

fn main() {
    banner("Figure 5", "27 grid-search tasks on one 48-core node (worker reserves 24 cores)");

    let cfg =
        RuntimeConfig::on_cluster(Cluster::homogeneous(1, NodeSpec::marenostrum4())).reserve(0, 24);
    let configs = paper_grid_configs();
    let rt = simulate(
        cfg,
        configs.iter().map(|config| (Constraint::cpus(1), mnist_sim_duration(config, 1, 0.9))),
    );

    let records = rt.trace();
    let stats = TraceStats::compute(&records);
    let immediate = TraceStats::tasks_started_within(&records, 0);
    println!("experiments created: {} (3 optimisers × 3 epochs × 3 batch sizes)", configs.len());
    println!("tasks started at t=0: {immediate} (paper: 24)");
    println!("peak parallelism: {}", stats.peak_parallelism);
    println!("makespan: {} (paper: 207 min on their TF/CNN cost profile)", fmt_min(stats.makespan));
    println!("utilisation over 24 task cores: {:.1}%", stats.utilisation(24) * 100.0);
    assert_eq!(immediate, 24);
    assert_eq!(stats.tasks_run, 27);
    assert_eq!(stats.peak_parallelism, 24);

    println!("\ntimeline ('#'=worker-reserved, letters=tasks):");
    print!("{}", render(&records, &GanttOptions { width: 72, ..Default::default() }));

    let prv = paratrace::prv::export("fig5_single_node", &records);
    let stem = out_dir().join("fig5_single_node");
    paratrace::prv::write_files(&stem, &prv).expect("write prv");
    println!("\nParaver trace written to {}.prv", stem.display());
}
