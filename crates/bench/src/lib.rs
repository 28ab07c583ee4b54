//! Shared plumbing for the experiment binaries that regenerate the paper's
//! figures. Each binary prints its figure to stdout and writes artefacts
//! (CSV, DOT, PRV traces) under [`out_dir`].
//!
//! | binary | paper artefact |
//! |--------|----------------|
//! | `fig3_task_graph` | Fig 3 — dynamic dependency graph (DOT) |
//! | `fig4_single_task` | Fig 4 — one task pinned to one core |
//! | `fig5_single_node` | Fig 5 — 27 tasks, half-reserved 48-core node |
//! | `fig6_multinode` | Fig 6 — 27 whole-node tasks on 28 vs 14 nodes |
//! | `fig7_mnist_hpo` | Fig 7 — real MNIST-like grid-search accuracy curves |
//! | `fig8_cifar_hpo` | Fig 8 — real CIFAR-like grid-search accuracy curves |
//! | `fig9_time_vs_cores` | Fig 9 — HPO makespan vs cores-per-task |
//! | `overhead_tracing` | §5 — tracing on/off overhead |
//! | `ablation_*` | beyond the paper — transfers, retry, early stopping |
//! | `stagetree_savings` | prefix sharing — exact epochs-saved counts |
//!
//! The overhead contract is held by ratios measured in one process
//! (`tests/ratio_gates.rs`), and the runtime's absolute per-task costs by
//! the `stackbench` probes in `benchmark/`.
//!
//! The figures and ablations whose workload is N independent rigid tasks
//! (Figs 5, 6, 9, the retry ablation, the scheduler microbenchmark) all run
//! it through [`simulate`].

use std::path::PathBuf;

use cluster::{Allocation, GpuModel, TrainingCost};
use hpo::prelude::*;
use rcompss::{Constraint, Runtime, RuntimeConfig, SubmitOpts, Value};

/// Directory where experiment binaries drop artefacts.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..").join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Run the paper's workload shape on the simulated backend: one independent
/// no-op `graph.experiment` task per `(constraint, simulated duration µs)`,
/// submitted in order, then a barrier. The settled runtime comes back for
/// its `stats()` and `trace()`.
pub fn simulate(cfg: RuntimeConfig, jobs: impl IntoIterator<Item = (Constraint, u64)>) -> Runtime {
    let rt = Runtime::simulated(cfg);
    let mut experiment =
        rt.register("graph.experiment", Constraint::default(), 1, |_, _| Ok(vec![Value::new(())]));
    for (constraint, duration) in jobs {
        experiment.constraint = constraint;
        rt.submit_with(&experiment, vec![], SubmitOpts { sim_duration_us: Some(duration) })
            .expect("submit");
    }
    rt.barrier();
    rt
}

/// The paper's 27-point grid (Listing 1) in submission order.
pub fn paper_grid_configs() -> Vec<Config> {
    let space = SearchSpace::paper_grid();
    let mut grid = GridSearch::new(&space);
    std::iter::from_fn(move || grid.suggest(&[])).collect()
}

/// Simulated duration of one MNIST training under `config` on `cores`
/// reference CPU cores (µs). `alpha` is the multi-core scaling exponent.
pub fn mnist_sim_duration(config: &Config, cores: u32, alpha: f64) -> u64 {
    let epochs = config.get_int("num_epochs").unwrap_or(50) as u32;
    let batch = config.get_int("batch_size").unwrap_or(64) as u32;
    let mut cost = TrainingCost::mnist(epochs, batch);
    cost.alpha = alpha;
    cost.duration(&Allocation::cpu(cores))
}

/// Simulated duration of one CIFAR-10 training under `config` (µs) with
/// optional GPU.
pub fn cifar_sim_duration(config: &Config, cores: u32, gpu: Option<GpuModel>, alpha: f64) -> u64 {
    let epochs = config.get_int("num_epochs").unwrap_or(50) as u32;
    let batch = config.get_int("batch_size").unwrap_or(64) as u32;
    let mut cost = TrainingCost::cifar10(epochs, batch);
    cost.alpha = alpha;
    let alloc = match gpu {
        Some(model) => Allocation::with_gpu(cores, model),
        None => Allocation::cpu(cores),
    };
    cost.duration(&alloc)
}

/// The real-training figures' grid: [`SearchSpace::paper_grid`] with every
/// `num_epochs` choice divided by 10, so the binaries finish in minutes on a
/// laptop, or as is under `HPO_SCALE=full`. Prints the scale.
pub fn scaled_paper_grid() -> SearchSpace {
    let scale = match std::env::var("HPO_SCALE").as_deref() {
        Ok("full") => 1,
        _ => 10,
    };
    println!("epoch scale: 1/{scale} (HPO_SCALE=full for the paper's grid)\n");
    let mut space = SearchSpace::new();
    for (name, domain) in SearchSpace::paper_grid().params() {
        let domain = match domain {
            ParamDomain::Choice(epochs) if name == "num_epochs" => ParamDomain::Choice(
                epochs.iter().map(|e| ConfigValue::Int(e.as_int().unwrap() / scale)).collect(),
            ),
            _ => domain.clone(),
        };
        space = space.with(name, domain);
    }
    space
}

/// Print a standard figure header.
pub fn banner(fig: &str, what: &str) {
    println!("================================================================");
    println!("{fig} — {what}");
    println!("================================================================");
}

/// Format µs of virtual time like the paper reports it (minutes).
pub fn fmt_min(us: u64) -> String {
    format!("{:.1} min", us as f64 / 60e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_27_unique_configs() {
        let g = paper_grid_configs();
        assert_eq!(g.len(), 27);
        let mut labels: Vec<String> = g.iter().map(Config::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 27);
    }

    #[test]
    fn durations_scale_with_epochs_and_cores() {
        let short = Config::new()
            .with("num_epochs", ConfigValue::Int(20))
            .with("batch_size", ConfigValue::Int(64));
        let long = Config::new()
            .with("num_epochs", ConfigValue::Int(100))
            .with("batch_size", ConfigValue::Int(64));
        assert!(mnist_sim_duration(&long, 1, 0.9) > 4 * mnist_sim_duration(&short, 1, 0.9));
        assert!(mnist_sim_duration(&long, 8, 0.9) < mnist_sim_duration(&long, 1, 0.9));
        assert!(
            cifar_sim_duration(&long, 4, Some(GpuModel::V100), 0.9)
                < cifar_sim_duration(&long, 4, None, 0.9)
        );
    }

    #[test]
    fn fmt_min_rounds() {
        assert_eq!(fmt_min(90_000_000), "1.5 min");
    }
}
