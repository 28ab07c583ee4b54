//! The benchmark's contract: which metrics a run prints, and the check
//! that `BENCHMARK.json` at the repository root says the same.

use runmetrics::json::{self, JsonValue};

use crate::workloads::NAMES;

/// An end-to-end metric: name, unit, direction, regression bound.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric: name, unit, direction.
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The same five on every workload. Times and rates are at the speed of
/// the nominal box ([`crate::refspeed`]); set-up and memory are as measured.
/// A bound belongs to a metric, so the noisiest workload sets it: ten
/// invocations on ten seeds, minutes apart (README, "Calibration").
/// `first_result_ms` and `op_latency_p95_us` could not be held to the
/// largest bound there is and are per-layer metrics, beside p99.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("op_latency_p50_us", "us", "lower", 0.25),
    e2e("cpu_s_per_kop", "s/kop", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.05),
];

/// Metrics of single layers, from the probes and the traced pass. A
/// workload that does not load a layer reports 0 for it.
pub const PER_LAYER: [PerLayer; 49] = [
    layer("rcompss.graph.add_task_ns", "ns", "lower"),
    layer("rcompss.scheduler.push_pop_ns", "ns", "lower"),
    layer("rcompss.codec.encode_ns", "ns", "lower"),
    layer("rcompss.codec.decode_ns", "ns", "lower"),
    layer("rnet.frame.encode_ns", "ns", "lower"),
    layer("rnet.frame.decode_ns", "ns", "lower"),
    layer("rnet.frame.block_mb_s", "MiB/s", "higher"),
    layer("rnet.nonblock.flush_b1_ns", "ns", "lower"),
    layer("rnet.nonblock.flush_b64_ns", "ns", "lower"),
    layer("rnet.nonblock.fill_next_ns", "ns", "lower"),
    layer("rnet.loopback.rtt_us", "us", "lower"),
    layer("rcompss.threaded.noop_task_ns", "ns", "lower"),
    layer("rcompss.distributed.noop_fanout_task_ns", "ns", "lower"),
    layer("rcompss.distributed.noop_chain_rtt_us", "us", "lower"),
    layer("rcompss.runtime.submit_ns", "ns", "lower"),
    layer("rcompss.runtime.wait_us", "us", "lower"),
    layer("rcompss.distributed.wire_bytes_per_op", "count", "lower"),
    layer("rcompss.task_phase.queue_us_p50", "us", "lower"),
    layer("rcompss.task_phase.wire_us_p50", "us", "lower"),
    layer("rcompss.task_phase.exec_us_p50", "us", "lower"),
    layer("rcompss.task_phase.ship_us_p50", "us", "lower"),
    layer("rcompss.distributed.unattributed_ratio", "ratio", "lower"),
    layer("rcompss.blocks.first_use_mb_s", "MiB/s", "higher"),
    layer("rcompss.blocks.cached_use_us", "us", "lower"),
    layer("rcompss.blocks.cache_hit_ratio", "ratio", "higher"),
    layer("rcompss.blocks.evictions_per_round", "count", "lower"),
    layer("rcompss.blocks.resident_mb", "MiB", "lower"),
    layer("tinyml.tensor.matmul_gflops", "GFLOP/s", "higher"),
    layer("tinyml.train.epoch_ms", "ms", "lower"),
    layer("tinyml.train.trial_serial_ms", "ms", "lower"),
    layer("tinyml.train.cpu_share", "ratio", "higher"),
    layer("tinyml.snapshot.encode_mb_s", "MiB/s", "higher"),
    layer("tinyml.snapshot.decode_mb_s", "MiB/s", "higher"),
    layer("hpo.runner.efficiency", "ratio", "higher"),
    layer("hpo.stagetree.plan_us", "us", "lower"),
    layer("hpo.stagetree.epochs_saved_ratio", "ratio", "higher"),
    layer("hpo.stagetree.forks_per_round", "count", "lower"),
    layer("ckpt.journal.append_us", "us", "lower"),
    layer("hpo.server.submit_to_admit_ms", "ms", "lower"),
    layer("hpo.server.submit_to_done_ms_p50", "ms", "lower"),
    layer("hpo.server.fairness_jain", "ratio", "higher"),
    layer("hpo.server.throttled_total", "count", "lower"),
    layer("hpo.server.rejects_total", "count", "lower"),
    layer("box.speed", "ratio", "higher"),
    layer("first_result_ms", "ms", "lower"),
    layer("op_latency_p95_us", "us", "lower"),
    layer("op_latency_p99_us", "us", "lower"),
    layer("trace.overhead_ratio", "ratio", "higher"),
    layer("trace.spans", "count", "lower"),
];

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys_are(v: &JsonValue, want: &[&str]) -> bool {
    v.as_object().is_some_and(|fields| {
        fields.len() == want.len() && want.iter().all(|k| fields.iter().any(|(f, _)| f == k))
    })
}

/// Check `text` (the contents of `BENCHMARK.json`) against the contract's
/// limits and against the tables above. Returns every problem found.
pub fn check(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let mut bad = |msg: String| problems.push(msg);
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    if text.len() > 64 * 1024 {
        bad("file larger than 64 KiB".into());
    }
    let top = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];
    if !keys_are(&doc, &top) {
        bad(format!("top-level keys must be exactly {top:?}"));
    }
    let list = |key: &str| doc.get(key).and_then(JsonValue::as_array).unwrap_or(&[]);
    let str_of = |v: &JsonValue, key: &str| {
        v.get(key).and_then(JsonValue::as_str).unwrap_or_default().to_string()
    };

    if !(1..=32).contains(&list("command").len()) {
        bad("command needs 1 to 32 strings".into());
    }
    if !(1..=16).contains(&list("paths").len()) {
        bad("paths needs 1 to 16 directories".into());
    }
    match doc.get("run_seconds").and_then(JsonValue::as_u64) {
        Some(1..=60) => {}
        _ => bad("run_seconds must be a whole number from 1 to 60".into()),
    }

    let workloads = list("workloads");
    if !(2..=8).contains(&workloads.len()) {
        bad(format!("{} workloads; need 2 to 8", workloads.len()));
    }
    for w in workloads {
        if !keys_are(w, &["name", "why"]) {
            bad("a workload has keys other than name and why".into());
        }
        let why = str_of(w, "why");
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            bad(format!("workload {}: why must be one line of at most 200", str_of(w, "name")));
        }
    }
    let listed: Vec<String> = workloads.iter().map(|w| str_of(w, "name")).collect();
    if listed != NAMES {
        bad(format!("workloads {listed:?} differ from the benchmark's {NAMES:?}"));
    }

    let e2e = list("end_to_end");
    if !(1..=16).contains(&e2e.len()) {
        bad(format!("{} end-to-end metrics; need 1 to 16", e2e.len()));
    }
    if e2e.len() != END_TO_END.len() {
        bad(format!("{} end-to-end metrics listed, {} emitted", e2e.len(), END_TO_END.len()));
    }
    for (m, want) in e2e.iter().zip(&END_TO_END) {
        if !keys_are(m, &["name", "unit", "better", "bound"]) {
            bad(format!("end_to_end {}: wrong keys", str_of(m, "name")));
        }
        let bound = m.get("bound").and_then(JsonValue::as_f64).unwrap_or(-1.0);
        if !(0.0..=0.25).contains(&bound) {
            bad(format!("end_to_end {}: bound outside 0..0.25", want.name));
        }
        let same = str_of(m, "name") == want.name
            && str_of(m, "unit") == want.unit
            && str_of(m, "better") == want.better
            && bound == want.bound;
        if !same {
            bad(format!("end_to_end {} differs from the benchmark's table", want.name));
        }
    }
    let setup_ok = e2e.iter().any(|m| {
        str_of(m, "name") == "setup_s" && str_of(m, "unit") == "s" && str_of(m, "better") == "lower"
    });
    if !setup_ok {
        bad("no setup_s metric with unit s, better lower".into());
    }

    let per_layer = list("per_layer");
    if !(1..=128).contains(&per_layer.len()) {
        bad(format!("{} per-layer metrics; need 1 to 128", per_layer.len()));
    }
    if per_layer.len() != PER_LAYER.len() {
        bad(format!("{} per-layer metrics listed, {} emitted", per_layer.len(), PER_LAYER.len()));
    }
    for (m, want) in per_layer.iter().zip(&PER_LAYER) {
        if !keys_are(m, &["name", "unit", "better"]) {
            bad(format!("per_layer {}: wrong keys", str_of(m, "name")));
        }
        let same = str_of(m, "name") == want.name
            && str_of(m, "unit") == want.unit
            && str_of(m, "better") == want.better;
        if !same {
            bad(format!("per_layer {} differs from the benchmark's table", want.name));
        }
    }

    let mut names: Vec<String> =
        listed.into_iter().chain(e2e.iter().chain(per_layer).map(|m| str_of(m, "name"))).collect();
    for n in &names {
        if !valid_name(n) {
            bad(format!("name '{n}' is not [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"));
        }
    }
    for m in e2e.iter().chain(per_layer) {
        if !valid_unit(&str_of(m, "unit")) {
            bad(format!("{}: bad unit '{}'", str_of(m, "name"), str_of(m, "unit")));
        }
        if !["lower", "higher"].contains(&str_of(m, "better").as_str()) {
            bad(format!("{}: better must be lower or higher", str_of(m, "name")));
        }
    }
    names.sort();
    if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
        bad(format!("name '{}' is used twice", dup[0]));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHECKED_IN: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn checked_in_benchmark_json_matches_the_tables() {
        assert_eq!(check(CHECKED_IN), Vec::<String>::new());
    }

    #[test]
    fn check_catches_a_renamed_metric_and_a_wide_bound() {
        let renamed = CHECKED_IN.replace("\"ops_per_s\"", "\"ops per s\"");
        assert!(check(&renamed).iter().any(|p| p.contains("ops_per_s")));
        let wide = CHECKED_IN.replacen("\"bound\": 0.25", "\"bound\": 0.5", 1);
        assert!(check(&wide).iter().any(|p| p.contains("bound")));
        let one = r#"{"command": ["x"], "paths": ["p"], "run_seconds": 5,
            "workloads": [{"name": "a", "why": "b"}], "end_to_end": [], "per_layer": []}"#;
        assert!(check(one).iter().any(|p| p.contains("workloads")));
    }

    #[test]
    fn names_and_units() {
        assert!(valid_name("rcompss.graph.add_task_ns"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(valid_unit("1/s") && valid_unit("s/kop") && valid_unit("MiB/s"));
        assert!(!valid_unit("µs"));
    }
}
