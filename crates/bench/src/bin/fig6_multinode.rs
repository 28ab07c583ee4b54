//! Figure 6 — 27 whole-node CIFAR-10 tasks on (a) 28 nodes and (b) 14
//! nodes.
//!
//! Paper: "A total of 27 experiments are created to be distributed across
//! 27 nodes. However, during job submission, we request an extra node for
//! the worker … We assign 48 cores to each task … it is possible to run the
//! same application with half the number of nodes for almost the same
//! amount of time as the nodes remain idle for the tasks that complete.
//! Clearly, this is a better utilisation of resources."

use cluster::{Cluster, NodeSpec};
use hpo_bench::{banner, cifar_sim_duration, fmt_min, out_dir, paper_grid_configs, simulate};
use paratrace::gantt::{render, GanttOptions};
use paratrace::TraceStats;
use rcompss::{Constraint, RuntimeConfig};

fn run(nodes: usize) -> (u64, f64, usize, Vec<paratrace::Record>) {
    // one extra node (node 0) is fully reserved for the COMPSs worker
    let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(nodes, NodeSpec::marenostrum4()))
        .reserve(0, 48);
    // Longest-first submission (descending epoch count): with fewer nodes
    // than tasks, short stragglers then pack under the long tasks — the
    // behaviour behind the paper's "almost the same amount of time".
    let mut durations: Vec<u64> = paper_grid_configs()
        .iter()
        .map(|config| cifar_sim_duration(config, 48, None, 0.9))
        .collect();
    durations.sort_unstable_by(|a, b| b.cmp(a));
    let rt = simulate(cfg, durations.into_iter().map(|d| (Constraint::cpus(48), d)));
    let records = rt.trace();
    let stats = TraceStats::compute(&records);
    let task_cores = (nodes - 1) * 48;
    (
        stats.makespan,
        stats.utilisation(task_cores),
        TraceStats::tasks_started_within(&records, 0),
        records,
    )
}

fn main() {
    banner("Figure 6", "27 whole-node tasks: 28 nodes (a) vs 14 nodes (b)");

    let (m28, u28, imm28, rec28) = run(28);
    let (m14, u14, imm14, rec14) = run(14);

    println!(
        "(a) 28 nodes: makespan {}, {} tasks started immediately, utilisation {:.1}%",
        fmt_min(m28),
        imm28,
        u28 * 100.0
    );
    println!(
        "(b) 14 nodes: makespan {}, {} tasks started immediately, utilisation {:.1}%",
        fmt_min(m14),
        imm14,
        u14 * 100.0
    );
    println!(
        "slowdown from halving the nodes: {:.2}× (paper: \"almost the same\")",
        m14 as f64 / m28 as f64
    );

    assert_eq!(imm28, 27, "with 27 free nodes every task starts at once");
    assert_eq!(imm14, 13, "13 free nodes host the first wave");
    assert!(m14 < 2 * m28, "halving nodes must cost < 2× (idle-tail reuse)");
    assert!(u14 > u28, "14-node run utilises its cores better");

    println!("\n(a) per-node busy-core counts, 28 nodes:");
    print!("{}", render(&rec28, &GanttOptions { width: 64, per_node: true }));
    println!("\n(b) per-node busy-core counts, 14 nodes:");
    print!("{}", render(&rec14, &GanttOptions { width: 64, per_node: true }));

    for (records, name) in [(&rec28, "fig6a_28nodes"), (&rec14, "fig6b_14nodes")] {
        let prv = paratrace::prv::export(name, records);
        let stem = out_dir().join(name);
        paratrace::prv::write_files(&stem, &prv).expect("write prv");
    }
    println!("\nParaver traces written to results/fig6a_28nodes.prv and results/fig6b_14nodes.prv");
}
