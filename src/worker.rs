//! The worker daemon behind `rcompss-worker` / `hpo-run worker`.
//!
//! A distributed run needs the experiment and stage tasks to exist on both
//! sides of the wire under the same names, closed over the same training —
//! the COMPSs equivalent of every worker node importing the user's Python
//! module. [`build_trainer`] builds the one [`Trainer`] behind both task
//! bodies from a [`DatasetRecipe`]: `hpo-run`, `serve` and the worker each
//! call it once with the same recipe flags (`--dataset`, `--samples`,
//! `--seed`, `--cnn`, `--target-accuracy`), so what the worker executes is
//! bit-identical to what a threaded run would execute locally.

use std::sync::Arc;

use hpo::experiment::{ExperimentOptions, Trainer};
use hpo::stagetree::stage_task_def;
use hpo::wire::{experiment_task_def, register_hpo_codecs};
use hpo::EarlyStop;
use rcompss::{TaskRegistry, WorkerConfig, WorkerServer};
use tinyml::data::SyntheticSpec;
use tinyml::Dataset;

use crate::cli::{DatasetChoice, DatasetRecipe, WorkerArgs};

/// Build the training dataset and the trainer from the CLI dataset recipe,
/// checkpointing off: the driver adds its cadence and snapshot store, a
/// worker just a cadence (its snapshots ride the runtime's channel back to
/// the driver).
///
/// Deterministic in its arguments: the same recipe yields the same
/// synthetic data and the same training on every process that calls it.
pub fn build_trainer(recipe: &DatasetRecipe) -> Trainer {
    let DatasetRecipe { dataset, samples, seed, cnn, target_accuracy } = *recipe;
    let spec = match (dataset, cnn) {
        (DatasetChoice::Mnist, false) => SyntheticSpec::mnist_like(),
        (DatasetChoice::Mnist, true) => SyntheticSpec::mnist_like_spatial(),
        (DatasetChoice::Cifar10, false) => SyntheticSpec::cifar_like(),
        (DatasetChoice::Cifar10, true) => SyntheticSpec::cifar_like_spatial(),
    };
    let name = match dataset {
        DatasetChoice::Mnist => "mnist-like",
        DatasetChoice::Cifar10 => "cifar10-like",
    };
    let data = Arc::new(Dataset::synthetic(name, samples, &spec, seed));
    Trainer {
        cnn,
        early_stop: target_accuracy.map(EarlyStop::at_accuracy),
        ..Trainer::new(data, vec![64])
    }
}

/// Run a worker daemon until killed: register the HPO codecs and the
/// experiment task, bind the listen socket, and serve drivers — one
/// readiness-driven event loop owning every driver connection, plus one
/// executor thread per advertised core (see DESIGN.md, "The rnet wire
/// protocol and event loop").
pub fn serve(args: &WorkerArgs) -> Result<(), Box<dyn std::error::Error>> {
    register_hpo_codecs();
    // Worker-local counters (task executions, epoch timing) report to the
    // process-global registry, which the local scrape endpoint serves.
    runmetrics::global().set_enabled(true);
    // Cadence only: a worker has no journal or on-disk store. Both task
    // bodies are registered, so the same pool serves naive and
    // prefix-shared sweeps alike and the driver decides per run which one
    // to submit.
    let trainer = Trainer { ckpt_every: args.ckpt_every, ..build_trainer(&args.recipe) };
    let opts = ExperimentOptions::default();
    let registry = TaskRegistry::new()
        .with(experiment_task_def(&opts, &trainer.objective()))
        .with(stage_task_def(&opts, &trainer));

    let cores = if args.cores > 0 {
        args.cores
    } else {
        std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(1)
    };
    let cfg = WorkerConfig {
        name: args.name.clone(),
        cores,
        cache_mem_bytes: args.cache_mem_mib * 1024 * 1024,
        dial: args.dial.clone(),
    };
    let server = WorkerServer::bind(&args.listen, cfg, registry)?;
    println!(
        "rcompss-worker '{}' listening on {} ({} cores, dataset {} × {})",
        args.name,
        server.local_addr()?,
        cores,
        trainer.data.name,
        trainer.data.len(),
    );
    if !args.dial.is_empty() {
        println!("dialing into: {}", args.dial.join(", "));
    }
    if args.ckpt_every > 0 {
        println!("model snapshots every {} epoch(s), shipped to the driver", args.ckpt_every);
    }
    // Live scrape endpoint: this worker's own counters, independent of the
    // driver's aggregate view. Held until `run` returns.
    let _status = crate::serve_status(args.status_addr.as_deref(), None)?;
    server.run()?;
    Ok(())
}
