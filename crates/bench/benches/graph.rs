//! Dependency-graph construction benchmarks — the cost of the paper's
//! "dynamic graph is created and all dependencies are established" step,
//! plus DOT export.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rcompss::{ArgSpec, Constraint, Runtime, RuntimeConfig, Value};

fn build_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    for &n in &[27usize, 270, 1_000] {
        group.bench_with_input(BenchmarkId::new("independent_tasks", n), &n, |b, &n| {
            b.iter(|| {
                let rt = Runtime::simulated(RuntimeConfig::single_node(48));
                let t = rt.register("t", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(())]));
                for _ in 0..n {
                    black_box(rt.submit(&t, vec![]).unwrap());
                }
                rt.stats().submitted
            });
        });
        group.bench_with_input(BenchmarkId::new("dependency_chain", n), &n, |b, &n| {
            b.iter(|| {
                let rt = Runtime::simulated(RuntimeConfig::single_node(48));
                let t = rt
                    .register("t", Constraint::cpus(1), 1, |_, inputs| Ok(vec![inputs[0].clone()]));
                let mut h = rt.literal(0u64);
                for _ in 0..n {
                    h = rt.submit(&t, vec![ArgSpec::In(h)]).unwrap().returns[0];
                }
                black_box(h)
            });
        });
    }
    group.finish();
}

fn dot_export(c: &mut Criterion) {
    c.bench_function("graph_dot_export_100_tasks", |b| {
        let mut cfg = RuntimeConfig::single_node(48);
        cfg.graph = true;
        let rt = Runtime::simulated(cfg);
        let exp =
            rt.register("experiment", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(())]));
        let vis = rt.register("vis", Constraint::cpus(1), 1, |_, i| Ok(vec![i[0].clone()]));
        for _ in 0..50 {
            let e = rt.submit(&exp, vec![]).unwrap().returns[0];
            rt.submit(&vis, vec![ArgSpec::In(e)]).unwrap();
        }
        b.iter(|| black_box(rt.dot()).len());
    });
}

criterion_group!(benches, build_fanout, dot_export);
criterion_main!(benches);
