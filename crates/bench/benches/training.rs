//! tinyml training-throughput benchmarks: the per-batch and per-epoch cost
//! that the cluster cost models abstract. Useful to sanity-check that the
//! real substrate behaves like the calibrated `TrainingCost` (shape-wise).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use tinyml::data::SyntheticSpec;
use tinyml::optim::OptimizerKind;
use tinyml::train::{train, TrainConfig};
use tinyml::{Dataset, ModelArch};

fn one_epoch(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_one_epoch");
    group.sample_size(10);
    for &batch in &[32usize, 64, 128] {
        group.bench_with_input(BenchmarkId::new("mnist_like_bs", batch), &batch, |b, &batch| {
            let data = Dataset::synthetic_mnist(1_000, 1);
            let cfg = TrainConfig {
                epochs: 1,
                batch_size: batch,
                hidden_layers: vec![32],
                ..TrainConfig::default()
            };
            b.iter(|| black_box(train(&cfg, &data)).final_val_accuracy());
        });
    }
    // The paper's models are CNNs: a small two-block one on spatial
    // MNIST-like images, one thread.
    group.bench_function("cnn_4x8_mnist_like_spatial", |b| {
        let data =
            Dataset::synthetic("mnist-spatial", 400, &SyntheticSpec::mnist_like_spatial(), 7);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 64,
            arch: ModelArch::Cnn { conv1_channels: 4, conv2_channels: 8 },
            hidden_layers: vec![32],
            threads: 1,
            ..TrainConfig::default()
        };
        b.iter(|| black_box(train(&cfg, &data)).final_val_accuracy());
    });
    group.finish();
}

fn optimizers(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_optimizer");
    group.sample_size(10);
    for kind in OptimizerKind::ALL {
        group.bench_with_input(BenchmarkId::new("epoch", kind.name()), &kind, |b, &kind| {
            let data = Dataset::synthetic_mnist(800, 2);
            let cfg = TrainConfig {
                epochs: 1,
                batch_size: 64,
                optimizer: kind,
                hidden_layers: vec![32],
                ..TrainConfig::default()
            };
            b.iter(|| black_box(train(&cfg, &data)).final_val_accuracy());
        });
    }
    group.finish();
}

fn gemm(c: &mut Criterion) {
    use tinyml::Matrix;
    c.bench_function("gemm_64x784x64", |b| {
        let a = Matrix::from_fn(64, 784, |r, col| ((r * col) as f32).sin());
        let w = Matrix::from_fn(784, 64, |r, col| ((r + col) as f32).cos());
        let mut out = Matrix::zeros(64, 64);
        b.iter(|| {
            a.matmul_into(&w, &mut out);
            black_box(out.get(0, 0))
        });
    });
}

/// The three products of one training step of the `grid_threaded` MLP
/// (784-32-10, batch 32) at layer 0 — forward, `dW`, and the input gradient
/// a middle layer of that width would compute — and the small forward
/// product of its `n = 10` output layer, whose edge tiles must not fall off
/// a cliff. The kernel table in EXPERIMENTS.md "The training step".
fn step_products(c: &mut Criterion) {
    use tinyml::Matrix;
    let mut group = c.benchmark_group("step_products");
    let x = Matrix::from_fn(32, 784, |r, col| ((r * 31 + col * 7) as f32).sin());
    let w0 = Matrix::from_fn(784, 32, |r, col| ((r + col * 3) as f32).cos() * 0.1);
    let dz = Matrix::from_fn(32, 32, |r, col| ((r * 5 + col) as f32).sin() * 0.1);
    let h = Matrix::from_fn(32, 32, |r, col| ((r + col * 11) as f32).sin());
    let w1 = Matrix::from_fn(32, 10, |r, col| ((r * 3 + col) as f32).cos() * 0.1);
    group.bench_function("matmul_32x784_784x32", |b| {
        b.iter(|| black_box(black_box(&x).matmul(&w0)));
    });
    group.bench_function("t_matmul_32x784T_32x32", |b| {
        b.iter(|| black_box(black_box(&x).t_matmul(&dz)));
    });
    group.bench_function("matmul_t_32x32_784x32T", |b| {
        b.iter(|| black_box(black_box(&dz).matmul_t(&w0)));
    });
    group.bench_function("matmul_32x32_32x10", |b| {
        b.iter(|| black_box(black_box(&h).matmul(&w1)));
    });
    group.finish();
}

/// Intra-task scaling of the dense kernel: the same GEMM under 1/2/4/8
/// worker threads, i.e. what an experiment task gains from a
/// `@constraint(computing_units=N)` core grant (paper Figures 5/9).
fn gemm_threads(c: &mut Criterion) {
    use tinyml::{par, Matrix};
    let mut group = c.benchmark_group("gemm_threads_128x784x128");
    group.sample_size(20);
    let a = Matrix::from_fn(128, 784, |r, col| ((r * col) as f32).sin());
    let w = Matrix::from_fn(784, 128, |r, col| ((r + col) as f32).cos());
    for &t in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            let mut out = Matrix::zeros(128, 128);
            b.iter(|| {
                par::with_threads(t, || a.matmul_into(&w, &mut out));
                black_box(out.get(0, 0))
            });
        });
    }
    group.finish();
}

/// Conv2d forward + backward (im2col → GEMM) under 1/2/4/8 worker
/// threads, on an MNIST-shaped batch — the CNN trial's inner loop.
fn conv_threads(c: &mut Criterion) {
    use tinyml::conv::{Conv2d, Tensor4};
    use tinyml::par;
    let mut group = c.benchmark_group("conv_threads_32x1x28x28_8ch");
    group.sample_size(20);
    let layer = Conv2d::new(1, 8, 3, 1, 42);
    let mut x = Tensor4::zeros(32, 1, 28, 28);
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        *v = ((i * 31) as f32 * 0.01).sin();
    }
    for &t in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            b.iter(|| {
                par::with_threads(t, || {
                    let y = layer.forward(&x);
                    let (dw, _db, _dx) = layer.backward(&x, &y);
                    black_box(dw.get(0, 0))
                })
            });
        });
    }
    group.finish();
}

/// Whole-epoch serial-vs-parallel comparison: identical training run (and
/// bit-identical resulting model) under 1 vs 4 worker threads.
fn epoch_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_one_epoch_threads");
    group.sample_size(10);
    for &t in &[1usize, 4] {
        group.bench_with_input(BenchmarkId::new("mnist_like", t), &t, |b, &t| {
            let data = Dataset::synthetic_mnist(1_000, 1);
            let cfg = TrainConfig {
                epochs: 1,
                batch_size: 64,
                hidden_layers: vec![64],
                threads: t,
                ..TrainConfig::default()
            };
            b.iter(|| black_box(train(&cfg, &data)).final_val_accuracy());
        });
    }
    group.finish();
}

/// What a stage-tree child pays between its parent's last step and its own
/// first, at the `staged_net` shape (320 × 784, hidden 16, batch 32): the
/// driver's content hash of the fork snapshot, the whole resumed one-epoch
/// segment with its fixed costs, and the two ways to split. The table in
/// EXPERIMENTS.md "The fork hop".
fn fork_hop(c: &mut Criterion) {
    use tinyml::train::{train_segment, Checkpointing};
    let mut group = c.benchmark_group("fork_hop");
    let data = Dataset::synthetic_mnist(320, 1);
    let segment_cfg = |optimizer| TrainConfig {
        epochs: 6,
        batch_size: 32,
        optimizer,
        hidden_layers: vec![16],
        ..TrainConfig::default()
    };
    for kind in [OptimizerKind::Adam, OptimizerKind::Sgd] {
        let cfg = segment_cfg(kind);
        let fork = train_segment(&cfg, &data, Checkpointing::default(), 2);
        group.bench_function(format!("resumed_one_epoch_segment/{kind}").as_str(), |b| {
            b.iter(|| {
                let resume = Checkpointing { every: 0, resume: Some(fork.clone()), sink: None };
                black_box(train_segment(&cfg, &data, resume, 3))
            });
        });
        // What the segment above pays that is not its epoch, piece by piece.
        let bytes = fork.encode();
        group.bench_function(format!("snapshot_clone/{kind}").as_str(), |b| {
            b.iter(|| black_box(fork.clone()));
        });
        group.bench_function(format!("snapshot_encode/{kind}").as_str(), |b| {
            b.iter(|| black_box(fork.encode()));
        });
        group.bench_function(format!("snapshot_decode/{kind}").as_str(), |b| {
            b.iter(|| black_box(tinyml::TrainSnapshot::decode(black_box(&bytes))));
        });
        if kind == OptimizerKind::Adam {
            group.bench_function(format!("content_hash/{}B", bytes.len()).as_str(), |b| {
                b.iter(|| black_box(rcompss::content_hash("hpo.stage", black_box(&bytes))));
            });
        }
    }
    group.bench_function("split/copy_both_halves", |b| {
        b.iter(|| black_box(data.split(0.2, 7)));
    });
    group.bench_function("split/index_and_copy_validation", |b| {
        b.iter(|| {
            let (train_idx, val_idx) = data.split_indices(0.2, 7);
            black_box((train_idx, data.subset(&val_idx, "val")))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    one_epoch,
    optimizers,
    gemm,
    step_products,
    gemm_threads,
    conv_threads,
    epoch_threads,
    fork_hop
);
criterion_main!(benches);
