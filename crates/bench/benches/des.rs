//! Discrete-event-engine benchmarks: raw event-queue throughput and
//! end-to-end simulated-runtime event rates. These bound how large a
//! virtual cluster the Figure 6/9 experiments can sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cluster::EventQueue;
use rcompss::{Constraint, Runtime, RuntimeConfig, SubmitOpts, Value};

fn event_queue_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..n as u64 {
                    q.schedule_at(i * 31 % 7_919, i);
                }
                let mut sum = 0u64;
                while let Some((_, e)) = q.pop() {
                    sum = sum.wrapping_add(e);
                }
                black_box(sum)
            });
        });
    }
    group.finish();
}

fn simulated_runtime_tasks(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_runtime");
    group.sample_size(10);
    for &n in &[100usize, 1_000] {
        group.bench_with_input(BenchmarkId::new("independent_tasks", n), &n, |b, &n| {
            b.iter(|| {
                let mut cfg = RuntimeConfig::single_node(48);
                cfg.tracing = false;
                let rt = Runtime::simulated(cfg);
                let t = rt.register("t", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(())]));
                for i in 0..n as u64 {
                    rt.submit_with(&t, vec![], SubmitOpts { sim_duration_us: Some(100 + i) })
                        .unwrap();
                }
                rt.barrier();
                black_box(rt.now_us())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, event_queue_throughput, simulated_runtime_tasks);
criterion_main!(benches);
