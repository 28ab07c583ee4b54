//! Scheduler microbenchmarks: how fast the constraint-aware placement loop
//! of `rcompss`'s simulated backend runs. The paper's scalability claims
//! rest on scheduling being cheap relative to training tasks; these benches
//! quantify "cheap".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cluster::{Cluster, NodeSpec};
use hpo_bench::simulate;
use rcompss::{Constraint, RuntimeConfig};

/// Tracing and metrics off: time the scheduling turn, not span emission.
fn quiet(cluster: Cluster) -> RuntimeConfig {
    RuntimeConfig::on_cluster(cluster).with_tracing(false).with_metrics(false)
}

fn schedule_rigid_jobs(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_backend_schedule");
    for &n_jobs in &[27usize, 270, 2_700] {
        group.bench_with_input(BenchmarkId::new("fifo_first_fit", n_jobs), &n_jobs, |b, &n| {
            let cfg = quiet(Cluster::homogeneous(28, NodeSpec::marenostrum4()));
            let jobs: Vec<(Constraint, u64)> = (0..n as u64)
                .map(|i| (Constraint::cpus((i % 48 + 1) as u32), 1_000 + i * 7))
                .collect();
            b.iter(|| black_box(simulate(cfg.clone(), jobs.iter().copied())).stats().makespan_us);
        });
    }
    group.finish();
}

fn schedule_gpu_constraints(c: &mut Criterion) {
    c.bench_function("sim_backend_gpu_tasks_256", |b| {
        let cfg = quiet(Cluster::homogeneous(8, NodeSpec::cte_power9()));
        let jobs = vec![(Constraint::cpus(10).with_gpus(1), 5_000u64); 256];
        b.iter(|| black_box(simulate(cfg.clone(), jobs.iter().copied())).stats().makespan_us);
    });
}

criterion_group!(benches, schedule_rigid_jobs, schedule_gpu_constraints);
criterion_main!(benches);
