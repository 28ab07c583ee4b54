//! The benchmark trajectory, `BENCH_stackbench.json`: one point per change
//! that recorded a `stackbench` run, holding the change side's medians of
//! the 4 workloads × 5 end-to-end metrics that `BENCHMARK.json` gates.
//!
//! The gate: points rise in PR number, every point carries all 20 metrics
//! as finite positive numbers, and every point names a commit that exists,
//! but the last, which may name none (a commit cannot name itself; the next
//! change fills it in). Run with `--nocapture` to see the last three points
//! side by side.

use std::path::Path;
use std::process::Command;

use runmetrics::json::{parse, JsonValue};

const WORKLOADS: [&str; 4] = ["grid_threaded", "staged_net", "churn_net", "served_mix"];
const METRICS: [&str; 5] =
    ["setup_s", "ops_per_s", "op_latency_p50_us", "cpu_s_per_kop", "peak_rss_mb"];

fn metric(point: &JsonValue, workload: &str, metric: &str) -> Option<f64> {
    point.get("workloads")?.get(workload)?.get(metric)?.as_f64()
}

/// Whether `git` can answer for this checkout's history: a source tree
/// without `.git`, or a shallow clone, cannot resolve old commits.
fn full_history(root: &Path) -> bool {
    let out = Command::new("git")
        .args(["rev-parse", "--is-shallow-repository"])
        .current_dir(root)
        .output();
    matches!(out, Ok(o) if o.status.success() && o.stdout.starts_with(b"false"))
}

fn commit_exists(root: &Path, commit: &str) -> bool {
    let spec = format!("{commit}^{{commit}}");
    let status = Command::new("git").args(["cat-file", "-e", &spec]).current_dir(root).status();
    status.is_ok_and(|s| s.success())
}

#[test]
fn the_trajectory_rises_by_pr_and_every_point_is_whole_and_committed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("BENCH_stackbench.json")).expect("read file");
    let doc = parse(&text).expect("BENCH_stackbench.json is JSON");
    let points = doc.as_array().expect("an array of points");
    assert!(!points.is_empty(), "no points");
    let history = full_history(root);
    if !history {
        eprintln!("no full git history here: commits are not resolved");
    }
    let mut last_pr = 0;
    for (i, point) in points.iter().enumerate() {
        let pr = point.get("pr").and_then(JsonValue::as_u64).expect("every point has a pr");
        assert!(pr > last_pr, "point {i}: PR {pr} does not follow PR {last_pr}");
        last_pr = pr;
        for w in WORKLOADS {
            for m in METRICS {
                let v = metric(point, w, m);
                assert!(
                    v.is_some_and(|v| v.is_finite() && v > 0.0),
                    "PR {pr}: {w} {m} is {v:?}, not a finite positive number"
                );
            }
        }
        match point.get("commit") {
            Some(JsonValue::Null) => {
                assert_eq!(i + 1, points.len(), "PR {pr}: only the last point may lack a commit")
            }
            Some(JsonValue::String(c)) => {
                assert!(!history || commit_exists(root, c), "PR {pr}: commit {c} is not in git")
            }
            other => panic!("PR {pr}: commit is {other:?}, not a string or null"),
        }
    }

    let last = &points[points.len().saturating_sub(3)..];
    let mut table = format!("{:<34}", "stackbench medians");
    for p in last {
        table +=
            &format!("{:>12}", format!("PR {}", p.get("pr").and_then(JsonValue::as_u64).unwrap()));
    }
    for w in WORKLOADS {
        for m in METRICS {
            table += &format!("\n{:<34}", format!("{w} {m}"));
            for p in last {
                table += &format!("{:>12}", metric(p, w, m).unwrap());
            }
        }
    }
    println!("{table}");
}
