//! The `serve` and sweep-client subcommands behind `rcompss-server` /
//! `hpo-run serve|submit|status|watch|cancel`.
//!
//! `serve` assembles the worker pool (dial-out, dial-in, or a local
//! thread pool), builds the one trainer both task bodies share from the
//! dataset recipe, and hands everything to [`hpo::server::SweepServer`] —
//! then parks until killed. The client verbs are thin wrappers over
//! [`hpo::client::SweepClient`].

use std::net::TcpListener;
use std::time::Duration;

use hpo::client::{SubmitSpec, SweepClient, SweepInfo};
use hpo::experiment::ExperimentOptions;
use hpo::server::{gather_workers, state_name, PoolPlan, ServerConfig, SweepServer};
use hpo::{EarlyStop, Evaluator};
use rcompss::{Constraint, DistributedConfig, Runtime, RuntimeConfig};
use rnet::LeaderRow;

use crate::cli::{ClientAction, ClientArgs, ServeArgs, DEFAULT_TENANT};
use crate::worker;

type AnyError = Box<dyn std::error::Error>;

/// Deadline for gathering the whole worker pool, dial-outs and dial-ins.
const POOL_TIMEOUT: Duration = Duration::from_secs(30);

/// The runtime configuration of a server's pool, local or remote. Untraced:
/// `serve` has no `--trace` and no export path, and a collector that
/// records would hold every span of every sweep for the life of the daemon.
fn pool_config(cores: u32) -> RuntimeConfig {
    RuntimeConfig::single_node(cores).with_tracing(false).with_metrics(true)
}

/// Run a sweep server until killed.
pub fn serve(args: &ServeArgs) -> Result<(), AnyError> {
    hpo::wire::register_hpo_codecs();
    runmetrics::global().set_enabled(true);
    let trainer = worker::build_trainer(&args.recipe);
    let listener = TcpListener::bind(&args.listen)
        .map_err(|e| format!("cannot listen on {}: {e}", args.listen))?;
    let addr = listener.local_addr()?;
    let data = &trainer.data;
    println!("rcompss-server on {addr} (dataset {} × {} examples)", data.name, data.len());

    let rt = if args.local_cores > 0 {
        println!("local pool: {} thread(s)", args.local_cores);
        Runtime::threaded(pool_config(args.local_cores))
    } else {
        println!(
            "gathering pool: dialing {} worker(s), expecting {} dial-in(s)",
            args.workers.len(),
            args.expect_workers
        );
        let plan = PoolPlan {
            dial: args.workers.clone(),
            expect_dial_in: args.expect_workers,
            timeout: POOL_TIMEOUT,
        };
        let boots = gather_workers(&listener, &plan)?;
        let roster: Vec<String> =
            boots.iter().map(|b| format!("{} ({} cores)", b.name(), b.cores())).collect();
        println!("pool sealed: {}", roster.join(", "));
        Runtime::from_bootstraps(pool_config(1), boots, DistributedConfig::default())?
    };

    let mut opts =
        ExperimentOptions::default().with_constraint(Constraint::cpus(args.cores_per_task));
    if let Some(t) = args.recipe.target_accuracy {
        opts.early_stop = Some(EarlyStop::at_accuracy(t));
    }
    let cfg = ServerConfig {
        max_active: args.max_active,
        max_queued: args.max_queued,
        rate: args.rate,
        burst: args.burst,
        quota_trials: args.quota_trials,
    };
    println!(
        "admission: {} active / {} queued; rate {}/s burst {}; quota {}",
        cfg.max_active,
        cfg.max_queued,
        if cfg.rate > 0.0 { cfg.rate.to_string() } else { "∞".to_string() },
        cfg.burst,
        if cfg.quota_trials > 0 { cfg.quota_trials.to_string() } else { "∞".to_string() },
    );
    // The pool's workers register the stage task either way; whether a
    // sweep may use it is `Evaluator::pick`'s call, per sweep.
    let objective = trainer.objective();
    let stage = args.share_prefixes.then(|| trainer.clone());
    if args.share_prefixes {
        match Evaluator::pick(&opts, objective.clone(), stage.as_ref()) {
            Evaluator::Stages(_) => println!("stage-tree prefix sharing enabled"),
            Evaluator::Trials(_) => {
                eprintln!("--share-prefixes ignored: --target-accuracy runs one task per trial")
            }
        }
    }
    let server = SweepServer::start_staged(listener, rt, objective, stage, opts, cfg)?;
    println!("sweep server ready on {addr}");

    // Live scrape endpoint: runtime + server series merged with the
    // process-global (training-internals) registry.
    let _status = crate::serve_status(args.status_addr.as_deref(), Some(server.metrics()))?;

    // Serve until the process is killed; `server` (and its runtime and
    // worker pool) lives exactly as long as this frame.
    loop {
        std::thread::park();
    }
}

/// Run one sweep-client verb.
pub fn client(args: &ClientArgs) -> Result<(), AnyError> {
    // A query names its sweep by id; only a submission is charged to a tenant.
    let tenant = match &args.action {
        ClientAction::Submit { tenant, .. } => tenant.as_str(),
        _ => DEFAULT_TENANT,
    };
    let mut client = SweepClient::connect(&args.server, tenant)
        .map_err(|e| format!("cannot reach sweep server {}: {e}", args.server))?;
    match &args.action {
        ClientAction::Submit { tenant, config, name, algo, trials, seed, wave, watch, csv_out } => {
            let space_json = std::fs::read_to_string(config)
                .map_err(|e| format!("cannot read {config}: {e}"))?;
            let spec = SubmitSpec {
                name: name.clone(),
                space_json,
                algo: algo.wire_name().to_string(),
                trials: *trials,
                seed: *seed,
                wave: *wave,
            };
            let info = client.submit(&spec).map_err(box_io)?.map_err(|r| r.to_string())?;
            println!(
                "sweep {} '{}' {} for tenant '{}' ({} planned trials)",
                info.sweep_id,
                name,
                state_name(info.state),
                tenant,
                info.total
            );
            if !*watch {
                println!(
                    "follow with: hpo-run watch --server {} --sweep {}",
                    args.server, info.sweep_id
                );
                return Ok(());
            }
            stream_to_end(&mut client, info.sweep_id, csv_out.as_deref())
        }
        ClientAction::Status { sweep_id } => {
            let info =
                client.status(*sweep_id, false).map_err(box_io)?.map_err(|r| r.to_string())?;
            print_status(&info);
            Ok(())
        }
        ClientAction::Watch { sweep_id } => {
            let info =
                client.status(*sweep_id, true).map_err(box_io)?.map_err(|r| r.to_string())?;
            print_status(&info);
            if hpo::server::is_terminal(info.state) {
                return Ok(());
            }
            stream_to_end(&mut client, *sweep_id, None)
        }
        ClientAction::Cancel { sweep_id } => {
            let info = client.cancel(*sweep_id).map_err(box_io)?.map_err(|r| r.to_string())?;
            if hpo::server::is_terminal(info.state) {
                println!("sweep {} already {}", info.sweep_id, state_name(info.state));
                return Ok(());
            }
            println!("cancel requested for sweep {} — draining in-flight trials", info.sweep_id);
            let end = client.wait_done(*sweep_id, |_| {}).map_err(box_io)?;
            println!(
                "sweep {} {} after {:.1}s ({})",
                end.sweep_id,
                state_name(end.state),
                end.wall_us as f64 / 1e6,
                if end.message.is_empty() { "no message" } else { &end.message }
            );
            Ok(())
        }
    }
}

fn box_io(e: std::io::Error) -> AnyError {
    Box::new(e)
}

fn print_status(info: &SweepInfo) {
    println!(
        "sweep {}: {} — {}/{} done, {} failed, best {:.4}{}{}",
        info.sweep_id,
        state_name(info.state),
        info.done,
        info.total,
        info.failed,
        info.best_acc,
        if info.best_label.is_empty() { String::new() } else { format!(" ({})", info.best_label) },
        if info.throttled > 0 {
            format!(" — throttled {}×", info.throttled)
        } else {
            String::new()
        },
    );
}

/// Stream a subscribed sweep to completion, printing each trial and
/// optionally writing the final leaderboard CSV (same `config,accuracy,
/// epochs_run,task_us` columns as a standalone run's `--out`).
fn stream_to_end(
    client: &mut SweepClient,
    sweep_id: u64,
    csv_out: Option<&str>,
) -> Result<(), AnyError> {
    let mut rows: Vec<LeaderRow> = Vec::new();
    let mut best = f64::MIN;
    let end = client
        .wait_done(sweep_id, |row| {
            let marker = if row.accuracy > best {
                best = row.accuracy;
                " *"
            } else {
                ""
            };
            println!(
                "[{:>3}] {} acc={:.4} epochs={} ({:.1} ms){marker}",
                rows.len() + 1,
                row.label,
                row.accuracy,
                row.epochs,
                row.task_us as f64 / 1e3,
            );
            rows.push(row.clone());
        })
        .map_err(box_io)?;
    println!(
        "sweep {} {}: {} trials in {:.1}s{}",
        end.sweep_id,
        state_name(end.state),
        rows.len(),
        end.wall_us as f64 / 1e6,
        if end.message.is_empty() { String::new() } else { format!(" — {}", end.message) },
    );
    if let Some(path) = csv_out {
        let mut csv = String::from("config,accuracy,epochs_run,task_us\n");
        for row in &rows {
            csv.push_str(&format!(
                "\"{}\",{:.6},{},{}\n",
                row.label, row.accuracy, row.epochs, row.task_us
            ));
        }
        std::fs::write(path, csv)?;
        println!("leaderboard CSV written to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_server_pool_runs_untraced_with_metrics_on() {
        let rt = Runtime::threaded(pool_config(2));
        assert!(!rt.tracing_enabled(), "a daemon has nowhere to export a trace to");
        assert!(rt.metrics_enabled(), "the scrape endpoint reads the runtime's registry");
    }
}
