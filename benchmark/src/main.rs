//! `stackbench` — the repository's benchmark.
//!
//! ```text
//! stackbench run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! stackbench aa    [--seed N] [--seconds S]     same code, two interleaved sets
//! stackbench check [--quick]                    BENCHMARK.json against the tables
//! stackbench ledger                             net fan-out at 600 / 1k / 10k / 100k
//! ```
//!
//! `run` measures each workload in [`PASSES`] passes, interleaved
//! round-robin across workloads, every pass a fresh child process; each
//! reported value is the median of the per-pass values, times and rates at
//! the speed of the nominal box ([`refspeed`]). With `--trace 1`
//! it instead runs one untraced and one traced pass per workload plus the
//! layer probes, and reports the per-layer metrics. The last line of
//! standard output is the result as one JSON object.

mod contract;
mod gen;
mod pass;
mod probes;
mod refspeed;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use contract::{END_TO_END, PER_LAYER};
use workloads::{Metrics, NAMES};

/// Passes per workload in one run; every reported value is their median.
const PASSES: usize = 5;

/// End-to-end values too noisy on this box to gate (README,
/// "Calibration"): `run` prints them beside the gated ones,
/// `BENCHMARK.json` lists them per layer. Name and unit.
const UNGATED: [(&str, &str); 3] =
    [("first_result_ms", "ms"), ("op_latency_p95_us", "us"), ("op_latency_p99_us", "us")];

struct Opts {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: stackbench run|aa [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20      stackbench check [--quick] | ledger"
    );
    std::process::exit(2);
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        workloads: NAMES.iter().map(|s| s.to_string()).collect(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                let w = value();
                if !NAMES.contains(&w.as_str()) {
                    eprintln!("unknown workload '{w}'; one of {NAMES:?}");
                    std::process::exit(2);
                }
                o.workloads = vec![w];
            }
            "--seed" => o.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => o.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => o.trace = matches!(value().as_str(), "1" | "true"),
            "--quick" => o.quick = true,
            _ => usage(),
        }
    }
    if !(o.seconds > 0.0 && o.seconds <= 600.0) {
        usage();
    }
    o
}

/// Measured rounds of one pass: the workload's seed-commit rate × the
/// pass's share of `--seconds`. A tenth of that under `--quick`.
fn rounds_for(workload: &str, o: &Opts, passes: usize) -> usize {
    let per_pass = workloads::shape(workload).rounds_per_sec * o.seconds / passes as f64;
    let rounds = if o.quick { per_pass / 10.0 } else { per_pass };
    (rounds.round() as usize).max(2)
}

/// Run `stackbench <args>` as a child and collect its `@ name value`
/// lines. `None` when it exits non-zero (its standard error says why).
fn child(args: &[String]) -> Option<Metrics> {
    let exe = std::env::current_exe().expect("path of this executable");
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn child pass");
    let mut metrics = Metrics::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut parts = line.split_whitespace();
        if let (Some("@"), Some(name), Some(value)) = (parts.next(), parts.next(), parts.next()) {
            if let Ok(v) = value.parse::<f64>() {
                metrics.insert(name.to_string(), v);
            }
        }
    }
    // A pass whose verification failed still reports; the caller sees
    // `ops_failed`. Anything else non-zero is a crash.
    (out.status.success() || metrics.contains_key("ops_failed")).then_some(metrics)
}

fn pass_args(workload: &str, o: &Opts, rounds: usize, trace: bool) -> Vec<String> {
    let mut a = vec![
        "pass".to_string(),
        "--workload".into(),
        workload.to_string(),
        "--seed".into(),
        o.seed.to_string(),
        "--rounds".into(),
        rounds.to_string(),
    ];
    if trace {
        a.push("--trace".into());
    }
    a
}

/// `passes` passes of every selected workload, interleaved: pass 1 of
/// each, then pass 2 … so minutes-long drift of the box spreads over all
/// workloads (and, in `aa`, over both sets) instead of landing on one.
fn interleaved(o: &Opts, passes: usize) -> Option<BTreeMap<String, Vec<Metrics>>> {
    let mut results: BTreeMap<String, Vec<Metrics>> = BTreeMap::new();
    for p in 0..passes {
        for w in &o.workloads {
            let m = child(&pass_args(w, o, rounds_for(w, o, PASSES), false))?;
            eprintln!(
                "pass {}/{passes} {w:<14} {:>10.1} ops/s  p50 {:>10.1} us  setup {:.3} s  \
                 {:.2} s measured  box speed {:.3}",
                p + 1,
                m["ops_per_s"],
                m["op_latency_p50_us"],
                m["setup_s"],
                m["measured_s"],
                m["box.speed"],
            );
            results.entry(w.clone()).or_default().push(m);
        }
    }
    Some(results)
}

fn median_of(passes: &[Metrics], name: &str) -> f64 {
    let values: Vec<f64> = passes.iter().filter_map(|m| m.get(name).copied()).collect();
    if values.is_empty() {
        0.0
    } else {
        stats::median(&values)
    }
}

fn sum_of(passes: &[Metrics], name: &str) -> u64 {
    passes.iter().filter_map(|m| m.get(name)).sum::<f64>() as u64
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The result line the contract asks for.
fn result_json(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

fn banner(o: &Opts, what: &str) {
    let cores = sys::nproc();
    eprintln!(
        "stackbench {what}: seed {} · {} s · nproc {cores} · loadavg {}",
        o.seed,
        o.seconds,
        sys::loadavg()
    );
    if cores < 2 {
        eprintln!("warning: fewer than 2 cores; the pools are sized for 2 and will time-share");
    }
}

/// `run --trace 0`: end-to-end metrics, median of passes.
fn run_end_to_end(o: &Opts) -> ExitCode {
    let passes = if o.quick { 1 } else { PASSES };
    let Some(results) = interleaved(o, passes) else { return ExitCode::FAILURE };
    let mut failed_any = false;
    let mut lines = Vec::new();
    for w in &o.workloads {
        let ps = &results[w];
        let (attempted, failed) = (sum_of(ps, "ops_attempted"), sum_of(ps, "ops_failed"));
        failed_any |= failed > 0 || attempted == 0;
        println!(
            "\n{w}: {passes} passes × {} ops, {:.1} s measured; latency percentiles over {} samples \
             per pass (p{} is the highest with ten beyond it)",
            ps[0]["ops"] as u64,
            ps.iter().map(|m| m["measured_s"]).sum::<f64>(),
            ps[0]["ops"] as u64,
            ps[0]["highest_percentile"],
        );
        let values: Vec<(&str, &str, f64)> =
            END_TO_END.iter().map(|m| (m.name, m.unit, median_of(ps, m.name))).collect();
        for (name, unit, value) in &values {
            // Times and rates are at the nominal box's speed.
            match ps[0].get(&format!("raw.{name}")) {
                Some(_) => println!(
                    "  {name:<22} {value:>14.4} {unit}  (as measured {:.4})",
                    median_of(ps, &format!("raw.{name}"))
                ),
                None => println!("  {name:<22} {value:>14.4} {unit}"),
            }
        }
        for (name, unit) in UNGATED {
            println!("  {name:<22} {:>14.4} {unit} (not gated)", median_of(ps, name));
        }
        println!("  {:<22} {:>14.4} of the nominal box", "box.speed", median_of(ps, "box.speed"));
        println!("  {:<22} {attempted:>14}", "ops_attempted");
        println!("  {:<22} {failed:>14}", "ops_failed");
        lines.push(result_json(attempted, failed, &values));
    }
    eprintln!("loadavg after: {}", sys::loadavg());
    lines.iter().for_each(|l| println!("{l}"));
    exit_code(!failed_any)
}

/// Share of a `churn_net` task's CPU the probes do not account for: each
/// task is inserted and scheduled once, its argument and its result are
/// each encoded and decoded once, and a Submit and a Done frame are each
/// encoded, flushed, filled and decoded once.
fn unattributed_ratio(layer: &Metrics, cpu_ns_per_op: f64) -> f64 {
    let p = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let attributed = p("rcompss.graph.add_task_ns")
        + p("rcompss.scheduler.push_pop_ns")
        + 2.0 * (p("rcompss.codec.encode_ns") + p("rcompss.codec.decode_ns"))
        + 2.0 * (p("rnet.frame.encode_ns") + p("rnet.frame.decode_ns"))
        + 2.0 * (p("rnet.nonblock.flush_b64_ns") + p("rnet.nonblock.fill_next_ns"));
    1.0 - attributed / cpu_ns_per_op
}

/// `run --trace 1`: one untraced pass, one traced pass, the probes.
fn run_traced(o: &Opts) -> ExitCode {
    let Some(probe_values) = child(&["probes".to_string()]) else { return ExitCode::FAILURE };
    let mut failed_any = false;
    let mut lines = Vec::new();
    for w in &o.workloads {
        let rounds = rounds_for(w, o, PASSES);
        let Some(plain) = child(&pass_args(w, o, rounds, false)) else {
            return ExitCode::FAILURE;
        };
        let Some(traced) = child(&pass_args(w, o, rounds, true)) else {
            return ExitCode::FAILURE;
        };
        let mut layer = probe_values.clone();
        layer.extend(traced.iter().map(|(k, v)| (k.clone(), *v)));
        // These are end-to-end numbers: from the untraced pass.
        for name in UNGATED.into_iter().map(|(name, _)| name).chain(["box.speed"]) {
            layer.insert(name.into(), plain[name]);
        }
        layer.insert("trace.overhead_ratio".into(), traced["ops_per_s"] / plain["ops_per_s"]);
        layer.insert(
            "rcompss.distributed.unattributed_ratio".into(),
            unattributed_ratio(&layer, plain["raw.cpu_s_per_kop"] * 1e6),
        );
        let (attempted, failed) = (traced["ops_attempted"] as u64, traced["ops_failed"] as u64);
        failed_any |= failed > 0 || attempted == 0;
        println!("\n{w}: per-layer metrics (traced pass of {} ops + probes)", traced["ops"] as u64);
        let values: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, layer.get(m.name).copied().unwrap_or(0.0)))
            .collect();
        for (name, unit, value) in &values {
            println!("  {name:<44} {value:>16.4} {unit}");
        }
        lines.push(result_json(attempted, failed, &values));
    }
    lines.iter().for_each(|l| println!("{l}"));
    exit_code(!failed_any)
}

/// `aa`: ten interleaved passes per workload, odd passes against even
/// ones. Identical code on both sides, so any difference is noise; a
/// difference beyond a metric's bound means the bound is too tight.
fn run_aa(o: &Opts) -> ExitCode {
    let Some(results) = interleaved(o, 2 * PASSES) else { return ExitCode::FAILURE };
    let mut breaches = 0;
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "set A", "set B", "diff", "bound"
    );
    for w in &o.workloads {
        let a: Vec<Metrics> = results[w].iter().step_by(2).cloned().collect();
        let b: Vec<Metrics> = results[w].iter().skip(1).step_by(2).cloned().collect();
        for m in &END_TO_END {
            let (ma, mb) = (median_of(&a, m.name), median_of(&b, m.name));
            let diff = (ma - mb).abs() / ma.min(mb);
            let breach = diff > m.bound;
            breaches += usize::from(breach);
            println!(
                "{w:<14} {:<20} {ma:>12.4} {mb:>12.4} {:>7.2}% {:>5.0}%{}",
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    if breaches > 0 {
        println!("{breaches} metric(s) differ between two sets of the same code by more than their bound");
        ExitCode::FAILURE
    } else {
        println!("OK: every metric agrees within its bound");
        ExitCode::SUCCESS
    }
}

/// `check`: `BENCHMARK.json` against the contract; with `--quick` also a
/// quick run of both kinds, checking that every listed name comes out.
fn run_check(o: &Opts) -> ExitCode {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut problems = contract::check(&text);
    if o.quick {
        // The two ratios the orchestrator derives are not pass output.
        let mut emitted: Vec<String> =
            vec!["trace.overhead_ratio".into(), "rcompss.distributed.unattributed_ratio".into()];
        emitted.extend(child(&["probes".to_string()]).unwrap_or_default().into_keys());
        for w in NAMES {
            let rounds = rounds_for(w, o, PASSES);
            let plain = child(&pass_args(w, o, rounds, false)).unwrap_or_default();
            for m in &END_TO_END {
                if !plain.get(m.name).is_some_and(|v| v.is_finite() && *v > 0.0) {
                    problems.push(format!("{w}: end-to-end metric {} not emitted", m.name));
                }
            }
            emitted.extend(child(&pass_args(w, o, rounds, true)).unwrap_or_default().into_keys());
        }
        // A layer counter comes from the workloads that load the layer;
        // some workload must emit each listed name.
        for m in PER_LAYER.iter().filter(|m| !emitted.iter().any(|e| e == m.name)) {
            problems.push(format!("per-layer metric {} is emitted by no workload", m.name));
        }
    }
    if problems.is_empty() {
        println!(
            "BENCHMARK.json OK: {} workloads, {} end-to-end, {} per-layer metrics",
            NAMES.len(),
            END_TO_END.len(),
            PER_LAYER.len()
        );
        ExitCode::SUCCESS
    } else {
        problems.iter().for_each(|p| println!("BENCHMARK.json: {p}"));
        ExitCode::FAILURE
    }
}

/// `ledger`: the first ledger entry. `results/runtime_throughput.json`
/// (best of three, 600 tasks, four worker cores) says 63.6k tasks/s for
/// the net no-op fan-out, `results/hundredk.json` (one run, 1k–100k
/// tasks) says 24–32k. Same scenario, different size and aggregation.
fn run_ledger() -> ExitCode {
    println!("{:>8} {:>14} {:>14} {:>14}", "tasks", "best of 3", "median of 3", "worst of 3");
    for n in [600usize, 1_000, 10_000, 100_000] {
        let mut tps: Vec<f64> = (0..3).map(|_| 1e9 / probes::distributed_fanout_ns(n)).collect();
        tps.sort_by(f64::total_cmp);
        println!("{n:>8} {:>12.0}/s {:>12.0}/s {:>12.0}/s", tps[2], tps[1], tps[0]);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { usage() };
    match cmd.as_str() {
        "pass" => {
            // Internal: `pass --workload W --seed N --rounds R [--trace]`.
            let get = |flag: &str| {
                rest.iter().position(|a| a == flag).and_then(|i| rest.get(i + 1)).cloned()
            };
            let args = pass::PassArgs {
                workload: get("--workload").unwrap_or_else(|| usage()),
                seed: get("--seed").and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()),
                rounds: get("--rounds").and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()),
                trace: rest.iter().any(|a| a == "--trace"),
            };
            ExitCode::from(pass::run(&args) as u8)
        }
        "probes" => {
            // One CPU, like `churn_net`: a probe times a layer's own code,
            // not how long the hypervisor takes to wake the other core.
            if sys::pin_to_one_cpu().is_none() {
                eprintln!("probes: cannot pin to one CPU");
            }
            let mut out = Metrics::new();
            probes::run_all(&mut out);
            out.iter().for_each(|(name, value)| println!("@ {name} {value:?}"));
            ExitCode::SUCCESS
        }
        "run" => {
            let o = parse_opts(rest);
            banner(&o, if o.trace { "run (traced)" } else { "run" });
            if o.trace {
                run_traced(&o)
            } else {
                run_end_to_end(&o)
            }
        }
        "aa" => {
            let o = parse_opts(rest);
            banner(&o, "aa");
            run_aa(&o)
        }
        "check" => run_check(&parse_opts(rest)),
        "ledger" => run_ledger(),
        _ => usage(),
    }
}
