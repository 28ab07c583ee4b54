//! The worker daemon behind `rcompss-worker` / `hpo-run worker`.
//!
//! A distributed run needs the experiment task to exist on both sides of
//! the wire under the same name, closed over the same objective — the
//! COMPSs equivalent of every worker node importing the user's Python
//! module. [`build_objective`] builds it from a [`DatasetRecipe`]: the
//! driver and the worker both call it with the same recipe flags
//! (`--dataset`, `--samples`, `--seed`, `--cnn`, `--target-accuracy`), so
//! the function the worker executes is bit-identical to the one a threaded
//! run would execute locally.

use std::sync::Arc;

use hpo::experiment::{ExperimentOptions, Objective, TrialCheckpoints};
use hpo::space::ConfigValue;
use hpo::stagetree::{stage_task_def, StageObjective};
use hpo::wire::{experiment_task_def, register_hpo_codecs};
use hpo::EarlyStop;
use rcompss::{TaskRegistry, WorkerConfig, WorkerServer};
use tinyml::data::SyntheticSpec;
use tinyml::Dataset;

use crate::cli::{DatasetChoice, DatasetRecipe, WorkerArgs};

/// Build the training dataset and objective from the CLI dataset recipe.
///
/// Deterministic in its arguments: the same recipe yields the same
/// synthetic data and the same objective on every process that calls
/// it. `ckpts` layers
/// checkpointing on top without changing the training trajectory: the
/// driver passes its snapshot store and sweep journal, a worker passes
/// just a cadence (its snapshots travel over the runtime's ambient
/// channel), and `TrialCheckpoints::default()` turns it off.
pub fn build_objective(
    recipe: &DatasetRecipe,
    ckpts: TrialCheckpoints,
) -> (Arc<Dataset>, Objective) {
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
    let early = target_accuracy.map(EarlyStop::at_accuracy);
    let objective = if cnn {
        // Inject the arch key by wrapping the objective.
        let inner = hpo::experiment::tinyml_objective_checkpointed(
            Arc::clone(&data),
            vec![64],
            early,
            ckpts,
        );
        let wrapped: Objective = Arc::new(move |cfg, budget| {
            let mut cfg = cfg.clone();
            if cfg.get_str("arch").is_none() {
                cfg.set("arch", ConfigValue::Str("cnn".into()));
            }
            inner(&cfg, budget)
        });
        wrapped
    } else {
        hpo::experiment::tinyml_objective_checkpointed(Arc::clone(&data), vec![64], early, ckpts)
    };
    (data, objective)
}

/// The stage-tree counterpart of [`build_objective`]: same dataset
/// recipe, same hidden widths, same `--cnn` arch injection — so a stage
/// segment trains the identical trajectory the plain experiment task
/// would, one fork at a time. (Early stop is a driver-side concern the
/// stage tree refuses anyway: a mid-training halt would break segment
/// chaining.)
pub fn build_stage_objective(data: Arc<Dataset>, cnn: bool, ckpt_every: u32) -> StageObjective {
    StageObjective { data, hidden: vec![64], default_arch_cnn: cnn, ckpt_every }
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
    // Cadence only: a worker has no journal or on-disk store — its
    // snapshots ride the runtime's ambient channel back to the driver.
    let ckpts = TrialCheckpoints { every: args.ckpt_every, ..TrialCheckpoints::default() };
    let (data, objective) = build_objective(&args.recipe, ckpts);
    // Register the stage-segment task alongside the experiment task: the
    // same pool then serves naive and prefix-shared sweeps alike, and the
    // driver decides per run which one to submit.
    let stage = build_stage_objective(Arc::clone(&data), args.recipe.cnn, args.ckpt_every);
    let registry = TaskRegistry::new()
        .with(experiment_task_def(&ExperimentOptions::default(), &objective))
        .with(stage_task_def(&ExperimentOptions::default(), &stage));

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
        data.name,
        data.len(),
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
