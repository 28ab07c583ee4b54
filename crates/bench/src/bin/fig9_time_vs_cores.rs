//! Figure 9 — total HPO time versus cores assigned to each task.
//!
//! Three curves, as in the paper:
//!
//! * **1 CPU node** (MNIST, MareNostrum 4, worker holds 24 of 48 cores):
//!   time falls as cores/task grow, then *rises* once requesting more cores
//!   serialises the task waves — "in the case of a single node, the time
//!   starts to increase after 4 cores".
//! * **2 CPU nodes** (MNIST): the bigger pool keeps the curve falling —
//!   "One should therefore increase the number of nodes as they increase
//!   the number of cores per task".
//! * **1 GPU node** (CIFAR-10, CTE-POWER9, 1 GPU/task ⇒ only 4 parallel
//!   tasks): with one CPU core the GPU starves on preprocessing and the
//!   total is the worst of the chart; adding cores collapses it to under an
//!   hour.

use cluster::{Cluster, GpuModel, NodeSpec};
use hpo_bench::{
    banner, cifar_sim_duration, fmt_min, mnist_sim_duration, out_dir, paper_grid_configs, simulate,
};
use rcompss::{Constraint, RuntimeConfig};

/// Makespan of the 27-task MNIST grid on `nodes` MareNostrum 4 nodes with
/// `cores` per task.
fn cpu_sweep_point(nodes: usize, cores: u32, alpha: f64) -> u64 {
    // the COMPSs worker holds half of node 0
    let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(nodes, NodeSpec::marenostrum4()))
        .reserve(0, 24);
    let jobs = paper_grid_configs()
        .into_iter()
        .map(|config| (Constraint::cpus(cores), mnist_sim_duration(&config, cores, alpha)));
    simulate(cfg, jobs).stats().makespan_us
}

/// Makespan of the 27-task CIFAR grid on one GPU node, 1 GPU + `cores`
/// CPU cores per task.
fn gpu_sweep_point_on(node: NodeSpec, model: GpuModel, cores: u32, alpha: f64) -> u64 {
    let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(1, node));
    let jobs = paper_grid_configs().into_iter().map(|config| {
        (
            Constraint::cpus(cores).with_gpus(1),
            cifar_sim_duration(&config, cores, Some(model), alpha),
        )
    });
    simulate(cfg, jobs).stats().makespan_us
}

/// POWER9 + V100 sweep point (the paper's CTE-POWER9 runs).
fn gpu_sweep_point(cores: u32, alpha: f64) -> u64 {
    gpu_sweep_point_on(NodeSpec::cte_power9(), GpuModel::V100, cores, alpha)
}

fn main() {
    banner("Figure 9", "HPO makespan vs cores per task (27-task grid)");
    // Slightly stronger scaling decay than the calibration default: Fig 9's
    // per-task speedup flattens hard beyond a few cores on shared-memory TF.
    let alpha = 0.85;

    let cpu_cores = [1u32, 2, 4, 8, 12, 24];
    let gpu_cores = [1u32, 2, 4, 8, 16, 32, 40];

    println!(
        "{:>12} {:>16} {:>16} {:>20}",
        "cores/task", "1 node (MNIST)", "2 nodes (MNIST)", "GPU node (CIFAR10)"
    );
    let mut one_node = Vec::new();
    let mut two_nodes = Vec::new();
    let mut gpu_node = Vec::new();
    let mut csv = String::from("cores,one_node_us,two_nodes_us,gpu_node_us\n");
    for (i, &c) in cpu_cores.iter().enumerate() {
        let t1 = cpu_sweep_point(1, c, alpha);
        let t2 = cpu_sweep_point(2, c, alpha);
        let tg = gpu_sweep_point(gpu_cores[i.min(gpu_cores.len() - 1)], alpha);
        one_node.push(t1);
        two_nodes.push(t2);
        gpu_node.push(tg);
        println!("{c:>12} {:>16} {:>16} {:>20}", fmt_min(t1), fmt_min(t2), fmt_min(tg));
        csv.push_str(&format!("{c},{t1},{t2},{tg}\n"));
    }
    // extend the GPU sweep to its full range
    println!("\nGPU node full sweep (1 GPU + N cores per task, 4 tasks in parallel):");
    for &c in &gpu_cores {
        let tg = gpu_sweep_point(c, alpha);
        println!("{c:>12} cores: {}", fmt_min(tg));
    }

    // The paper also ran MinoTauro (2× K80, 16 Haswell cores): older GPUs,
    // only 2 schedulable cards → fewer parallel tasks and slower compute.
    println!("\nMinoTauro comparison (2× K80, ≤2 parallel tasks):");
    for &c in &[1u32, 4, 8] {
        let mt = gpu_sweep_point_on(NodeSpec::minotauro(), GpuModel::K80, c, alpha);
        let p9 = gpu_sweep_point(c, alpha);
        println!("{c:>12} cores: MinoTauro {} vs POWER9 {}", fmt_min(mt), fmt_min(p9));
        assert!(mt > p9, "the newer testbed wins at equal cores/task");
    }

    let csv_path = out_dir().join("fig9_time_vs_cores.csv");
    std::fs::write(&csv_path, csv).expect("write csv");
    println!("\nCSV written to {}", csv_path.display());

    // Shape assertions — the paper's three claims.
    let min_idx = (0..one_node.len()).min_by_key(|&i| one_node[i]).unwrap();
    println!(
        "\n1-node minimum at {} cores/task; rises after (paper: increases after 4 cores)",
        cpu_cores[min_idx]
    );
    assert!(
        (1..=3).contains(&min_idx),
        "single-node optimum should sit at 2–8 cores, found at {} cores",
        cpu_cores[min_idx]
    );
    assert!(
        one_node.last().unwrap() > &one_node[min_idx],
        "single-node curve must rise after its minimum"
    );
    assert!(
        two_nodes[min_idx..].iter().min().unwrap() <= &two_nodes[min_idx],
        "two-node curve keeps improving past the single-node optimum"
    );
    assert!(
        two_nodes.last().unwrap() < one_node.last().unwrap(),
        "bigger pool wins at high cores/task"
    );
    // GPU claims: 1-core GPU run is preprocessing-bound and worse than the
    // best CPU point; with enough cores the whole HPO drops under an hour.
    assert!(gpu_node[0] > *one_node.iter().min().unwrap());
    let gpu_best = gpu_sweep_point(*gpu_cores.last().unwrap(), alpha);
    println!(
        "GPU node: {} at 1 core vs {} at 40 cores (paper: \"less than an hour\")",
        fmt_min(gpu_node[0]),
        fmt_min(gpu_best)
    );
    assert!(gpu_best < 60 * 60_000_000, "GPU HPO should finish in under an hour");
}
