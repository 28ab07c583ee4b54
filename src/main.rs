//! `hpo-run` — the application launcher, analogous to the paper's
//! `runcompss application.py json_file`: take a JSON hyperparameter file,
//! expand it with the chosen algorithm, run one experiment task per config
//! on the chosen backend, and report.

use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use cluster::{Allocation, Cluster, NodeSpec, TrainingCost};
use hpo::dashboard::{leaderboard, Dashboard};
use hpo::prelude::*;
use pycompss_hpo_repro::cli::{self, BackendChoice, CliArgs, Command, DatasetChoice};
use pycompss_hpo_repro::worker;
use rcompss::{Constraint, DistributedConfig, Runtime, RuntimeConfig};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = raw.iter().map(String::as_str).collect();
    let cmd = match cli::parse_command(&refs) {
        Ok(c) => c,
        Err(e) => return e.report(),
    };
    let result = match &cmd {
        Command::Worker(w) => worker::serve(w),
        Command::Run(args) => run(args),
        Command::Serve(s) => pycompss_hpo_repro::server_cmd::serve(s),
        Command::Client(c) => pycompss_hpo_repro::server_cmd::client(c),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The emergency-flush hook: set while a run is in flight, taken (at most
/// once) by whichever exit path fires first — clean return, panic unwind
/// via [`FlushGuard`], or the SIGINT handler.
static FLUSH_HOOK: Mutex<Option<Box<dyn FnOnce() + Send>>> = Mutex::new(None);

/// Run the armed flush hook, if any. Idempotent: the hook is `take`n.
fn flush_now() {
    let hook = FLUSH_HOOK.lock().ok().and_then(|mut g| g.take());
    if let Some(hook) = hook {
        hook();
    }
}

/// Raw signal registration — the approved dependency set has no signal
/// crate, and all we need is the one POSIX call.
mod sig {
    pub const SIGINT: i32 = 2;
    extern "C" {
        pub fn signal(signum: i32, handler: usize) -> usize;
    }
}

extern "C" fn on_sigint(_sig: i32) {
    // Best-effort: flush partial artefacts, then exit with the
    // conventional 128+SIGINT status. Formatting in a signal handler is
    // not strictly async-signal-safe, but the process is on its way out.
    flush_now();
    std::process::exit(130);
}

/// Arms the emergency flush for the duration of a run. Dropped while
/// panicking → the hook runs and partial `--metrics-out` / `--trace-out`
/// artefacts land on disk; [`FlushGuard::disarm`] on the clean path hands
/// the flush back to the normal export code.
struct FlushGuard {
    armed: bool,
}

impl FlushGuard {
    fn arm(hook: Box<dyn FnOnce() + Send>) -> FlushGuard {
        *FLUSH_HOOK.lock().unwrap() = Some(hook);
        unsafe {
            sig::signal(sig::SIGINT, on_sigint as *const () as usize);
        }
        FlushGuard { armed: true }
    }

    fn disarm(mut self) {
        self.armed = false;
        let _ = FLUSH_HOOK.lock().map(|mut g| g.take());
    }
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        if self.armed {
            flush_now();
        }
    }
}

/// Merge the runtime registry with the process-global one (training epoch
/// series) into a single exportable snapshot.
fn merged_metrics(rt: &Runtime) -> runmetrics::MetricsSnapshot {
    let mut snap = rt.metrics().snapshot();
    snap.merge(runmetrics::global().snapshot());
    snap
}

/// Write `<prefix>.prom` + `<prefix>.jsonl` from the current metrics.
fn write_metrics_export(rt: &Runtime, prefix: &str) -> std::io::Result<(String, String)> {
    let snap = merged_metrics(rt);
    let prom = format!("{prefix}.prom");
    std::fs::write(&prom, runmetrics::to_prometheus(&snap))?;
    let jsonl = format!("{prefix}.jsonl");
    std::fs::write(&jsonl, runmetrics::to_jsonl_line(rt.now_us(), &snap) + "\n")?;
    Ok((prom, jsonl))
}

/// Write the Chrome trace to `path`.
fn write_trace_export(rt: &Runtime, path: &str) -> std::io::Result<Vec<paratrace::Record>> {
    let records = rt.trace();
    let doc = paratrace::chrome::export_named("hpo-run", &records, &rt.node_labels());
    std::fs::write(path, doc)?;
    Ok(records)
}

fn run(args: &CliArgs) -> Result<(), Box<dyn std::error::Error>> {
    // 1. Search space from the JSON file (paper Listing 1).
    let text = std::fs::read_to_string(&args.config)
        .map_err(|e| format!("cannot read {}: {e}", args.config))?;
    let space = SearchSpace::from_json(&text)?;
    println!(
        "search space: {} parameters, grid size {}",
        space.len(),
        space.grid_size().map_or("∞ (continuous)".to_string(), |n| n.to_string())
    );

    // 2. Runtime. `Arc`ed so the emergency flush hook (panic/SIGINT) can
    // reach the live metrics and trace buffers.
    let metrics_on = !args.no_metrics;
    // `--graph` is the one consumer of a recorded graph: without it a
    // settled task's node is retired.
    let configure = |mut cfg: RuntimeConfig| {
        cfg.graph = args.graph_out.is_some();
        cfg.with_tracing(args.trace).with_metrics(metrics_on)
    };
    let rt = Arc::new(match args.backend {
        BackendChoice::Threaded => {
            let cores = std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(4);
            Runtime::threaded(configure(RuntimeConfig::single_node(cores.max(args.cores_per_task))))
        }
        BackendChoice::Sim => Runtime::simulated(configure(RuntimeConfig::on_cluster(
            Cluster::homogeneous(args.nodes, NodeSpec::marenostrum4()),
        ))),
        BackendChoice::Distributed => {
            // Values and results cross process boundaries: codecs first.
            hpo::wire::register_hpo_codecs();
            let rt = Runtime::distributed(
                configure(RuntimeConfig::single_node(1)),
                &args.workers,
                DistributedConfig::default(),
            )?;
            println!("distributed cluster: {}", rt.node_labels().join(", "));
            rt
        }
    });
    // Training internals (epoch timing) report to the process-global
    // registry; switch it in step with the runtime's.
    runmetrics::global().set_enabled(metrics_on);

    // Live scrape endpoint: any Prometheus scraper (or bare curl) can hit
    // GET /metrics and /healthz while the run is in flight. The handle
    // keeps the serving thread alive until the end of the run.
    let _status =
        pycompss_hpo_repro::serve_status(args.status_addr.as_deref(), Some(rt.metrics()))?;

    // 3. Checkpointing: journal + snapshot store under --ckpt-dir, and
    // the recovered sweep state when resuming.
    let mut ckpts = hpo::experiment::TrialCheckpoints::default();
    let mut journal = None;
    let mut resume_state = None;
    if let Some(dir) = &args.ckpt_dir {
        let spec = hpo::ckpt::CheckpointSpec::new(dir).with_every(args.ckpt_every);
        if args.resume {
            let state = spec.recover().map_err(|e| format!("cannot resume from {dir}: {e}"))?;
            println!(
                "recovered journal {}: {} trials complete, {} in flight",
                spec.journal_path().display(),
                state.complete.len(),
                state.in_flight.len()
            );
            resume_state = Some(state);
        }
        journal = Some(spec.journal().map_err(|e| format!("cannot open journal in {dir}: {e}"))?);
        ckpts = hpo::experiment::TrialCheckpoints {
            every: args.ckpt_every,
            store: Some(std::sync::Arc::new(
                spec.store().map_err(|e| format!("cannot open snapshot store in {dir}: {e}"))?,
            )),
        };
        println!("checkpointing to {dir}: snapshot every {} epoch(s)", args.ckpt_every);
    }

    // 4. Objective: real training for the chosen dataset. Shared with the
    // worker daemon, so a distributed worker started with the same dataset
    // flags executes the identical function (see `worker::build_objective`).
    // In a distributed run the driver's store/journal stay local; workers
    // started with --ckpt-every snapshot over the wire instead.
    let (data, objective) = worker::build_objective(&args.recipe, ckpts);
    println!("dataset: {} ({} examples, {} features)", data.name, data.len(), data.dim());

    // 5. Runner options.
    let mut opts =
        ExperimentOptions::default().with_constraint(Constraint::cpus(args.cores_per_task));
    if let Some(t) = args.recipe.target_accuracy {
        opts.early_stop = Some(EarlyStop::at_accuracy(t));
        opts.wave_size = Some((args.nodes * 4).max(4));
    }
    if args.backend == BackendChoice::Sim {
        // cost-model durations for the virtual cluster
        let cores = args.cores_per_task;
        let is_cifar = args.recipe.dataset == DatasetChoice::Cifar10;
        opts = opts.with_sim_duration(move |c: &Config| {
            let epochs = c.get_int("num_epochs").unwrap_or(10) as u32;
            let batch = c.get_int("batch_size").unwrap_or(64) as u32;
            let cost = if is_cifar {
                TrainingCost::cifar10(epochs, batch)
            } else {
                TrainingCost::mnist(epochs, batch)
            };
            cost.duration(&Allocation::cpu(cores))
        });
    }
    let runner = HpoRunner::new(opts);

    // 6. Run with a live dashboard (metrics line every 10 trials).
    let mut dash = Dashboard::new();
    if metrics_on {
        dash = dash.with_metrics(rt.metrics(), 10);
    }
    let mut algo =
        hpo::server::build_algo(args.algo.wire_name(), &space, args.trials, args.recipe.seed)?;

    // Prefix sharing plans a stage tree over every wave; trials cut short
    // by --target-accuracy leave no fork snapshot and the simulated
    // backend trains nothing, so both keep one task per trial.
    // (Distributed workers register the same stage task — see
    // `worker::serve`.)
    let stage = (args.share_prefixes && args.backend != BackendChoice::Sim)
        .then(|| worker::build_stage_objective(Arc::clone(&data), args.recipe.cnn, 0));
    let evaluator = Evaluator::pick(&runner.opts, objective, stage.as_ref());
    if args.share_prefixes && matches!(evaluator, Evaluator::Trials(_)) {
        eprintln!(
            "--share-prefixes ignored: --target-accuracy and --backend sim run one task per trial"
        );
    }
    // Telemetry must survive a crash: arm the flush hook so a panicking
    // trial or a ^C still leaves partial --metrics-out / --trace-out
    // artefacts on disk (the journal already makes the sweep resumable).
    let guard = {
        let rt = Arc::clone(&rt);
        let metrics_out = args.metrics_out.clone();
        let trace_out = args.trace_out.clone();
        FlushGuard::arm(Box::new(move || {
            if let Some(prefix) = &metrics_out {
                if let Ok((prom, jsonl)) = write_metrics_export(&rt, prefix) {
                    eprintln!("flushed partial metrics to {prom} and {jsonl}");
                }
            }
            if let Some(path) = &trace_out {
                if write_trace_export(&rt, path).is_ok() {
                    eprintln!("flushed partial trace to {path}");
                }
            }
        }))
    };
    let plan = SweepPlan {
        journal: journal.as_ref(),
        resume: resume_state.as_ref(),
        ..SweepPlan::new(evaluator)
    };
    let SweepOutcome { report, resume, stages } =
        runner.execute(&rt, algo.as_mut(), plan, |t| println!("{}", dash.on_trial(t)))?;
    for banner in [hpo::dashboard::stage_banner(&stages), dash.on_resume(&resume)] {
        if !banner.is_empty() {
            println!("{banner}");
        }
    }
    // Clean finish: the normal export path below owns the flush now.
    guard.disarm();

    // 7. Report, artefacts.
    println!("\n{}", report.summary());
    let ckpt_line = dash.ckpt_summary();
    if !ckpt_line.is_empty() {
        println!("{ckpt_line}");
    }
    print!("{}", leaderboard(&report, 5));
    if let Some(path) = &args.csv_out {
        std::fs::write(path, report.to_csv())?;
        println!("results CSV written to {path}");
    }
    if let Some(path) = &args.graph_out {
        std::fs::write(path, rt.dot())?;
        println!("task graph DOT written to {path}");
    }
    if let Some(prefix) = &args.metrics_out {
        let (prom, jsonl) = write_metrics_export(&rt, prefix)?;
        println!("metrics written to {prom} and {jsonl}");
    }
    if args.backend == BackendChoice::Distributed && metrics_on {
        print!("{}", dash.node_lanes(&rt.node_labels()));
    }
    if args.trace {
        let records = match &args.trace_out {
            Some(path) => {
                let records = write_trace_export(&rt, path)?;
                println!("Chrome trace written to {path} (open in ui.perfetto.dev)");
                records
            }
            None => rt.trace(),
        };
        let stats = paratrace::TraceStats::compute(&records);
        println!(
            "\ntrace: {} records | makespan {} | peak parallelism {}",
            records.len(),
            paratrace::fmt_duration(stats.makespan),
            stats.peak_parallelism
        );
        print!("{}", paratrace::report::profile_table(&records));
    }
    Ok(())
}
