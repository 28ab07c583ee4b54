//! Stage-tree savings: training epochs naive vs prefix-deduped, for the
//! paper grid and a successive-halving bracket.
//!
//! The stage tree's contract is *exact* dedup: the staged sweep's
//! leaderboard is bit-identical to the naive sweep (the integration tests
//! assert that), so the interesting number here is purely how much
//! training it avoids. Those counts are deterministic — the planner and
//! the bracket arithmetic are pure functions of the config set — which
//! makes this bench an exact regression gate rather than a timing gate:
//! a planner change that shares less shows up as `staged` epochs creeping
//! up against the checked-in baseline, with zero measurement noise.
//!
//! Modes:
//! * default / `full` — the planning table below **plus** a real measured
//!   run of a small grid and bracket on `tinyml` training (threaded
//!   backend), confirming the executed epoch counts match the plan and
//!   reporting wall-clock; JSON snapshot to
//!   `results/stagetree_savings.json`.
//! * `smoke` / `--smoke` — planning table only, compared exactly against
//!   `crates/bench/baselines/stagetree_savings.json`; exits non-zero if
//!   a scenario's `staged` epochs exceed the baseline (the planner got
//!   worse at sharing) or its `naive` epochs changed (the scenario
//!   itself changed — rebaseline deliberately). ci.sh runs this gate.
//! * `rebaseline` — overwrite the baseline with the current counts.

use std::sync::Arc;
use std::time::Instant;

use hpo::algo::hyperband::Bracket;
use hpo::algo::random::RandomSearch;
use hpo::experiment::{tinyml_objective, ExperimentOptions, Trainer};
use hpo::prelude::*;
use hpo::runner::materialize;
use hpo::space::{ConfigValue, ParamDomain};
use hpo::stagetree::StagePlan;
use hpo_bench::{banner, out_dir, paper_grid_configs};
use rcompss::{Runtime, RuntimeConfig};
use tinyml::Dataset;

/// The bracket the planning rows use: the paper's 27 configs pushed
/// through an eta-3 halving up to the grid's 50-epoch midpoint.
fn paper_bracket() -> Bracket {
    Bracket::new(27, 2, 50, 3)
}

/// Epochs a staged successive-halving run trains: rung 0 planned as a
/// prefix tree under the rung budget, later rungs as per-survivor
/// continuations of the budget delta — the same arithmetic
/// `HpoRunner::execute` does for a `BracketSource` under `Evaluator::Stages`.
fn staged_bracket_epochs(space: &SearchSpace, bracket: &Bracket, seed: u64) -> u64 {
    let candidates = materialize(&mut RandomSearch::new(space, bracket.rungs[0].n_configs, seed));
    let rung0 = StagePlan::build(&candidates, Some(bracket.rungs[0].budget));
    let continuations: u64 = bracket
        .rungs
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, r)| r.n_configs as u64 * u64::from(bracket.resume_epochs(i)))
        .sum();
    rung0.staged_epochs + continuations
}

/// One planning row: scenario key plus the two deterministic counts.
struct Row {
    key: &'static str,
    naive: u64,
    staged: u64,
}

fn planning_rows() -> Vec<Row> {
    let grid = paper_grid_configs();
    let plan = StagePlan::build(&grid, None);
    let bracket = paper_bracket();
    let space = SearchSpace::paper_grid();
    vec![
        Row { key: "grid", naive: plan.naive_epochs, staged: plan.staged_epochs },
        Row {
            key: "hyperband",
            naive: bracket.total_epochs(),
            staged: staged_bracket_epochs(&space, &bracket, 7),
        },
    ]
}

fn print_rows(rows: &[Row]) {
    println!("{:<12} {:>12} {:>12} {:>10} {:>8}", "scenario", "naive", "staged", "saved", "%");
    for r in rows {
        let saved = r.naive.saturating_sub(r.staged);
        println!(
            "{:<12} {:>12} {:>12} {:>10} {:>7.1}%",
            r.key,
            r.naive,
            r.staged,
            saved,
            100.0 * saved as f64 / r.naive as f64
        );
    }
}

/// Measured pass of `full` mode: actually train a small grid and bracket
/// both ways and report executed epochs and wall-clock. The epoch counts
/// must agree with the planner — they come from the same `StageStats`
/// the runner records into `hpo_stage_epochs_saved_total`.
fn measured() {
    let data = Arc::new(Dataset::synthetic_mnist(400, 11));
    let stage = Trainer::new(Arc::clone(&data), vec![16]);
    let runner = HpoRunner::new(ExperimentOptions::default());
    let rt = Runtime::threaded(RuntimeConfig::single_node(4));

    let space = SearchSpace::new()
        .with("optimizer", ParamDomain::choice_strs(&["Adam", "SGD"]))
        .with("num_epochs", ParamDomain::choice_ints(&[4, 8]))
        .with("lr_decay_every", ParamDomain::choice_ints(&[2]))
        .with(
            "lr_decay_factor",
            ParamDomain::Choice(vec![ConfigValue::Float(0.5), ConfigValue::Float(0.25)]),
        );
    let configs = materialize(&mut GridSearch::new(&space));

    println!("\nmeasured (real tinyml training, threaded backend):");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "scenario", "naive ep", "staged ep", "naive s", "staged s"
    );

    let t0 = Instant::now();
    let naive_report = runner
        .run(&rt, &mut GridSearch::new(&space), tinyml_objective(Arc::clone(&data), vec![16]))
        .expect("naive grid");
    let naive_wall = t0.elapsed().as_secs_f64();
    let naive_ep: u64 = naive_report.trials.iter().map(|t| u64::from(t.outcome.epochs_run)).sum();
    let t1 = Instant::now();
    let (_, stats) =
        runner.run_staged(&rt, "grid", &configs, &stage, None, |_| {}).expect("staged grid");
    let staged_wall = t1.elapsed().as_secs_f64();
    assert_eq!(stats.naive_epochs, naive_ep, "runner stats must match the executed naive epochs");
    println!(
        "{:<12} {:>12} {:>12} {:>12.2} {:>12.2}",
        "grid", stats.naive_epochs, stats.staged_epochs, naive_wall, staged_wall
    );

    let sh_space = SearchSpace::new()
        .with("optimizer", ParamDomain::choice_strs(&["Adam", "SGD", "RMSprop"]))
        .with("batch_size", ParamDomain::choice_ints(&[16, 32]));
    let bracket = Bracket::new(6, 2, 8, 2);
    let t2 = Instant::now();
    let objective = tinyml_objective(Arc::clone(&data), vec![16]);
    let naive_sh = runner
        .execute(
            &rt,
            &mut BracketSource::new(&sh_space, &bracket, 7),
            SweepPlan::new(Evaluator::Trials(objective)),
            |_| {},
        )
        .expect("naive bracket")
        .report;
    let sh_naive_wall = t2.elapsed().as_secs_f64();
    let sh_naive_ep: u64 = naive_sh.trials.iter().map(|t| u64::from(t.outcome.epochs_run)).sum();
    let t3 = Instant::now();
    let sh_stats = runner
        .execute(
            &rt,
            &mut BracketSource::new(&sh_space, &bracket, 7),
            SweepPlan::new(Evaluator::Stages(&stage)),
            |_| {},
        )
        .expect("staged bracket")
        .stages;
    let sh_staged_wall = t3.elapsed().as_secs_f64();
    assert_eq!(sh_stats.naive_epochs, sh_naive_ep);
    println!(
        "{:<12} {:>12} {:>12} {:>12.2} {:>12.2}",
        "hyperband", sh_stats.naive_epochs, sh_stats.staged_epochs, sh_naive_wall, sh_staged_wall
    );
}

fn write_json(path: &std::path::Path, rows: &[Row]) {
    let mut s = String::from("{\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        s.push_str(&format!("  \"{}_naive\": {},\n", r.key, r.naive));
        s.push_str(&format!("  \"{}_staged\": {}{sep}\n", r.key, r.staged));
    }
    s.push_str("}\n");
    std::fs::write(path, s).expect("write json");
}

/// Parse the flat `{"key": number, ...}` JSON this binary writes.
fn read_json(path: &std::path::Path) -> Option<Vec<(String, u64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else { continue };
        let Some((key, val)) = rest.split_once("\":") else { continue };
        if let Ok(v) = val.trim().parse::<u64>() {
            out.push((key.to_string(), v));
        }
    }
    Some(out)
}

fn baseline_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("baselines")
        .join("stagetree_savings.json")
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let smoke = mode == "smoke" || mode == "--smoke";
    let rebaseline = mode == "rebaseline";
    banner("Stage-tree savings", "training epochs naive vs prefix-deduped (exact, deterministic)");

    let rows = planning_rows();
    print_rows(&rows);

    if rebaseline {
        let path = baseline_path();
        std::fs::create_dir_all(path.parent().unwrap()).expect("baseline dir");
        write_json(&path, &rows);
        println!("\nbaseline written to {}", path.display());
        return;
    }

    if smoke {
        let path = baseline_path();
        let Some(baseline) = read_json(&path) else {
            println!("no baseline at {} — gate skipped (run `rebaseline`)", path.display());
            return;
        };
        let base = |key: String| baseline.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        let mut failed = false;
        println!("\ngate: naive unchanged, staged not above baseline (exact counts)");
        for r in &rows {
            let bn = base(format!("{}_naive", r.key));
            let bs = base(format!("{}_staged", r.key));
            let verdict = match (bn, bs) {
                (Some(bn), _) if bn != r.naive => {
                    failed = true;
                    "SCENARIO CHANGED (rebaseline deliberately)"
                }
                (_, Some(bs)) if r.staged > bs => {
                    failed = true;
                    "REGRESSION (planner shares less)"
                }
                (_, Some(bs)) if r.staged < bs => "ok (improved — consider rebaselining)",
                (Some(_), Some(_)) => "ok",
                _ => "no baseline entry",
            };
            println!(
                "  {:<12} naive {:>8} vs {:>8?}, staged {:>8} vs {:>8?}  {verdict}",
                r.key, r.naive, bn, r.staged, bs
            );
        }
        assert!(!failed, "stage-tree savings regressed vs checked-in baseline");
        println!("OK");
        return;
    }

    measured();
    let out = out_dir().join("stagetree_savings.json");
    write_json(&out, &rows);
    println!("\nJSON snapshot: {}", out.display());
}
