//! Ablation: the fault-tolerance policy.
//!
//! The paper's policy is "retry on the same node, then move". This ablation
//! compares, under seeded random task failures:
//!
//! * **no retries** — the "sequential application has a single point of
//!   failure" world the paper contrasts against;
//! * **paper policy** (3 attempts, same node first);
//! * **always-move** (3 attempts, never the same node first);
//! * **5 attempts** — diminishing returns.

use cluster::{Cluster, FailureInjector, NodeSpec};
use hpo_bench::{banner, simulate};
use rcompss::{Constraint, RetryPolicy, RuntimeConfig};

fn run(max_attempts: u32, rate: f64, seed: u64) -> (u64, u64, u64) {
    let cfg = RuntimeConfig::on_cluster(Cluster::homogeneous(4, NodeSpec::marenostrum4()))
        .with_failures(FailureInjector::random(seed, rate))
        .with_retry(RetryPolicy { max_attempts, same_node_first: true });
    let jobs = (0..64).map(|i| (Constraint::cpus(12), 60_000_000 + i * 500_000));
    let stats = simulate(cfg, jobs).stats();
    (stats.completed, stats.failed, stats.makespan_us)
}

fn main() {
    banner("Ablation", "retry policy under random task failures");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>14}",
        "rate", "attempts", "completed", "lost", "makespan(min)"
    );
    for &rate in &[0.05f64, 0.15, 0.30] {
        for &attempts in &[1u32, 3, 5] {
            let mut completed_total = 0u64;
            let mut lost_total = 0u64;
            let mut makespan_total = 0u64;
            let seeds = 5u64;
            for seed in 0..seeds {
                let (c, l, m) = run(attempts, rate, seed);
                completed_total += c;
                lost_total += l;
                makespan_total += m;
            }
            println!(
                "{:>8.2} {:>12} {:>12.1} {:>12.1} {:>14.1}",
                rate,
                attempts,
                completed_total as f64 / seeds as f64,
                lost_total as f64 / seeds as f64,
                makespan_total as f64 / seeds as f64 / 60e6
            );
        }
    }

    // Sanity: the paper's 3-attempt policy rescues nearly everything at a
    // 15% failure rate, where no-retry loses a noticeable share.
    let (c1, l1, _) = run(1, 0.15, 1);
    let (c3, l3, m3) = run(3, 0.15, 1);
    println!("\nat 15% failures (seed 1): no-retry loses {l1}/64, paper policy loses {l3}/64");
    assert!(c3 > c1, "retries rescue jobs");
    assert_eq!(c3 + l3, 64);
    assert!(l3 <= 1, "triple-attempt at p=0.15 ⇒ loss rate ≈ 0.3%");
    let (_, _, m1) = run(1, 0.15, 1);
    println!(
        "makespan cost of retrying: {:+.1}% over giving up",
        (m3 as f64 / m1 as f64 - 1.0) * 100.0
    );
}
