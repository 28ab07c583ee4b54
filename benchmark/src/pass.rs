//! One pass of one workload, in a process of its own: timed set-up with
//! its fixed warm-up → a fixed number of measured rounds → untimed
//! verification. The orchestrator re-executes `stackbench pass` for every
//! pass, so `VmHWM` belongs to one workload and every set-up is a fresh
//! process's. The measured rounds run in chunks with a slice of the
//! reference ([`crate::refspeed`]) between them; times and rates are
//! reported at the speed of the nominal box, and as measured under `raw.`.
//!
//! The pass prints each value as a `@ name value` line on standard output;
//! everything else it says goes to standard error.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::refspeed::Reference;
use crate::spans::{self, Span};
use crate::workloads::{self, Metrics, Recorder, POOL_CORES};
use crate::{stats, sys};

/// Arguments of `stackbench pass`.
pub struct PassArgs {
    /// Workload name.
    pub workload: String,
    /// `--seed` of the run.
    pub seed: u64,
    /// Measured rounds.
    pub rounds: usize,
    /// Record spans and layer counters.
    pub trace: bool,
}

/// Where traced passes leave their Chrome traces: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Per-layer values read off the spans of the measured rounds.
fn span_metrics(spans: &[Span], rounds: usize, process_cpu_ns: f64, out: &mut Metrics) {
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let total_ns =
        |name: &'static str| named(name).map(|s| s.end_ns - s.start_ns).sum::<u64>() as f64;
    let submits = named("rcompss.runtime.submit").count();
    if submits > 0 {
        out.insert(
            "rcompss.runtime.submit_ns".into(),
            total_ns("rcompss.runtime.submit") / submits as f64,
        );
        out.insert(
            "rcompss.runtime.wait_us".into(),
            total_ns("rcompss.runtime.wait_on") / 1e3 / rounds as f64,
        );
    }
    let train_cpu: u64 = named("tinyml.train").map(|s| s.cpu_ns).sum();
    out.insert("tinyml.train.cpu_share".into(), train_cpu as f64 / process_cpu_ns);
    out.insert("trace.spans".into(), spans.len() as f64);
}

/// Run the pass; returns the process exit code.
pub fn run(args: &PassArgs) -> i32 {
    if args.trace {
        spans::enable();
    }
    let shape = workloads::shape(&args.workload);
    if shape.one_cpu && sys::pin_to_one_cpu().is_none() {
        eprintln!(
            "pass {}: cannot pin to one CPU; cross-CPU wake-ups will be in the numbers",
            args.workload
        );
    }
    let warmup = 0..shape.warmup_rounds;
    let measured = shape.warmup_rounds..shape.warmup_rounds + args.rounds;
    let started = Instant::now();
    let mut workload = workloads::build(&args.workload, args.seed, measured.end);
    workload.run_rounds(warmup, &mut Recorder::default());
    let setup_s = started.elapsed().as_secs_f64();

    workload.mark();
    drop(spans::take()); // spans of set-up and warm-up
    let mut rec = Recorder::default();
    let mut reference = Reference::new(if shape.one_cpu { 1 } else { POOL_CORES });
    let cpu0 = sys::process_cpu();
    let mut busy = Duration::ZERO;
    let mut next = measured.start;
    while next < measured.end {
        reference.slice();
        let chunk = next..(next + shape.chunk_rounds).min(measured.end);
        next = chunk.end;
        busy += workload.run_rounds(chunk, &mut rec);
    }
    reference.slice();
    let cpu = sys::process_cpu() - cpu0 - reference.cpu();
    let peak_rss = sys::peak_rss_mib();
    let speed = reference.speed();

    let ops = rec.lat_ns.len();
    if ops == 0 {
        eprintln!("pass {}: no op completed", args.workload);
        return 1;
    }
    let mut out = Metrics::new();
    rec.lat_ns.sort_unstable();
    let first_ms: Vec<f64> = rec.first_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    out.insert("setup_s".into(), setup_s);
    out.insert("peak_rss_mb".into(), peak_rss);
    out.insert("box.speed".into(), speed);
    // On a box running at `speed` of the nominal one, a time is longer by
    // 1 / speed than the nominal box would have shown, a rate lower.
    let rate = ops as f64 / busy.as_secs_f64();
    out.insert("raw.ops_per_s".into(), rate);
    out.insert("ops_per_s".into(), rate / speed);
    for (name, as_measured) in [
        ("op_latency_p50_us", us(stats::percentile(&rec.lat_ns, 50.0))),
        ("op_latency_p95_us", us(stats::percentile(&rec.lat_ns, 95.0))),
        ("op_latency_p99_us", us(stats::percentile(&rec.lat_ns, 99.0))),
        ("first_result_ms", stats::midmean(&first_ms)),
        ("cpu_s_per_kop", cpu.as_secs_f64() * 1e3 / ops as f64),
    ] {
        out.insert(format!("raw.{name}"), as_measured);
        out.insert(name.into(), as_measured * speed);
    }
    out.insert("ops".into(), ops as f64);
    out.insert("measured_s".into(), busy.as_secs_f64());
    out.insert("highest_percentile".into(), stats::highest_percentile(ops));

    if args.trace {
        workload.layer_metrics(ops as u64, &mut out);
        let spans = spans::take();
        span_metrics(&spans, args.rounds, cpu.as_nanos() as f64, &mut out);
        let path = out_dir().join(format!("trace_{}.json", args.workload));
        match spans::write_chrome(&path, &spans) {
            Ok(()) => eprintln!("trace: {} spans → {}", spans.len(), path.display()),
            Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
        }
    }

    let verdict = workload.verify(measured, &mut out);
    for note in &verdict.notes {
        eprintln!("verify {}: {note}", args.workload);
    }
    if let Some(&serial_ms) = out.get("tinyml.train.trial_serial_ms") {
        // Trials finished per second × serial seconds per trial ÷ cores:
        // 1.0 when the runner keeps every core training all the time.
        // Both as measured, moments apart.
        let eff = out["raw.ops_per_s"] * serial_ms / 1e3 / f64::from(POOL_CORES);
        out.insert("hpo.runner.efficiency".into(), eff);
    }
    out.insert("ops_attempted".into(), verdict.attempted as f64);
    out.insert("ops_failed".into(), verdict.failed as f64);
    drop(workload);

    for (name, value) in &out {
        println!("@ {name} {value:?}");
    }
    i32::from(verdict.failed > 0 || verdict.attempted == 0)
}
