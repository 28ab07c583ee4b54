//! Synthetic datasets standing in for MNIST and CIFAR-10.
//!
//! The real datasets are not downloadable in this environment, so we generate
//! class-prototype mixtures whose *difficulty profile* matches what the paper
//! relies on:
//!
//! * **MNIST-like** — 784 features, 10 well-separated unimodal classes with
//!   moderate noise. The paper: "MNIST is a relatively simple application
//!   that generalises well after just a few epochs. Most of the combinations
//!   of hyperparameters are able to attain above 90 % accuracy."
//! * **CIFAR-like** — 3 072 features, 10 classes that are *multimodal*
//!   (three sub-modes each), weaker signal, more noise and 4 % label noise,
//!   so accuracy is lower, more epoch-hungry and more spread across
//!   hyperparameter configurations ("slightly bigger and more complex
//!   benchmark in comparison with MNIST").
//!
//! Everything is deterministic given the seed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::tensor::Matrix;

/// A labelled classification dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Features, one example per row.
    pub x: Matrix,
    /// Integer labels, `len == x.rows()`.
    pub y: Vec<usize>,
    /// Number of classes.
    pub n_classes: usize,
    /// Human-readable name ("mnist-like", "cifar10-like" …).
    pub name: String,
}

/// Standard-normal sample via Box–Muller (rand 0.8 has no normal dist
/// without `rand_distr`, which is outside the approved dependency set).
fn normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Knobs for the synthetic generator.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Feature dimensionality.
    pub dim: usize,
    /// Number of classes.
    pub classes: usize,
    /// Sub-modes per class (1 = unimodal).
    pub modes_per_class: usize,
    /// Prototype amplitude (signal strength).
    pub signal: f32,
    /// Additive Gaussian noise σ.
    pub noise: f32,
    /// Fraction of labels replaced with a uniformly random class.
    pub label_noise: f32,
    /// Smooth prototypes spatially (treating rows as square 1- or
    /// 3-channel images), giving them the local correlations real images
    /// have. Required for convolutional models to have an edge.
    pub spatial: bool,
}

impl SyntheticSpec {
    /// MNIST-difficulty defaults (28×28 = 784 features).
    pub fn mnist_like() -> Self {
        // noise 2.6 is calibrated so short trainings land around 90–95 %
        // and long ones a little higher — the spread of the paper's Fig. 7.
        SyntheticSpec {
            dim: 784,
            classes: 10,
            modes_per_class: 1,
            signal: 1.0,
            noise: 2.6,
            label_noise: 0.0,
            spatial: false,
        }
    }

    /// MNIST-difficulty with spatially-smooth prototypes — the variant to
    /// train CNNs on.
    pub fn mnist_like_spatial() -> Self {
        // Smoothing averages away amplitude, so the signal is boosted to
        // keep the per-example SNR comparable.
        SyntheticSpec { spatial: true, signal: 3.0, ..SyntheticSpec::mnist_like() }
    }

    /// CIFAR-10-difficulty defaults (32×32×3 = 3 072 features).
    pub fn cifar_like() -> Self {
        SyntheticSpec {
            dim: 3072,
            classes: 10,
            modes_per_class: 3,
            signal: 0.45,
            noise: 1.4,
            label_noise: 0.04,
            spatial: false,
        }
    }

    /// CIFAR-10-difficulty with spatially-smooth prototypes.
    pub fn cifar_like_spatial() -> Self {
        SyntheticSpec { spatial: true, signal: 1.5, ..SyntheticSpec::cifar_like() }
    }
}

/// 3×3 box blur over a `(c, side, side)` image stored flat; two passes.
fn smooth_spatial(proto: &mut [f32], dim: usize) {
    let Some((c, side)) = [1usize, 3].into_iter().find_map(|c| {
        let per = dim / c;
        let side = (per as f64).sqrt() as usize;
        (dim.is_multiple_of(c) && side * side == per).then_some((c, side))
    }) else {
        return; // not image-shaped: leave as-is
    };
    for _ in 0..2 {
        let src = proto.to_vec();
        for ch in 0..c {
            for y in 0..side {
                for x in 0..side {
                    let mut sum = 0.0f32;
                    let mut n = 0.0f32;
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            let yy = y as i64 + dy;
                            let xx = x as i64 + dx;
                            if yy >= 0 && xx >= 0 && (yy as usize) < side && (xx as usize) < side {
                                sum += src[(ch * side + yy as usize) * side + xx as usize];
                                n += 1.0;
                            }
                        }
                    }
                    proto[(ch * side + y) * side + x] = sum / n;
                }
            }
        }
    }
}

impl Dataset {
    /// Generate `n` examples from `spec`, deterministically from `seed`.
    pub fn synthetic(name: &str, n: usize, spec: &SyntheticSpec, seed: u64) -> Self {
        assert!(spec.classes >= 2, "need at least two classes");
        assert!(spec.modes_per_class >= 1);
        let mut rng = StdRng::seed_from_u64(seed);

        // Class/mode prototypes: sparse ±signal patterns so that different
        // prototypes overlap on some features (classes share structure, like
        // digit strokes / image statistics).
        let n_protos = spec.classes * spec.modes_per_class;
        let mut protos = Vec::with_capacity(n_protos);
        for _ in 0..n_protos {
            let mut proto: Vec<f32> = (0..spec.dim)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        if rng.gen_bool(0.5) {
                            spec.signal
                        } else {
                            -spec.signal
                        }
                    } else {
                        0.0
                    }
                })
                .collect();
            if spec.spatial {
                smooth_spatial(&mut proto, spec.dim);
            }
            protos.push(proto);
        }

        let mut x = Matrix::zeros(n, spec.dim);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % spec.classes; // balanced classes
            let mode = rng.gen_range(0..spec.modes_per_class);
            let proto = &protos[class * spec.modes_per_class + mode];
            let row = x.row_mut(i);
            for (v, &p) in row.iter_mut().zip(proto) {
                *v = p + spec.noise * normal(&mut rng);
            }
            let label = if spec.label_noise > 0.0 && rng.gen_bool(spec.label_noise as f64) {
                rng.gen_range(0..spec.classes)
            } else {
                class
            };
            y.push(label);
        }
        Dataset { x, y, n_classes: spec.classes, name: name.to_string() }
    }

    /// `n` examples of the MNIST-difficulty dataset.
    pub fn synthetic_mnist(n: usize, seed: u64) -> Self {
        Self::synthetic("mnist-like", n, &SyntheticSpec::mnist_like(), seed)
    }

    /// `n` examples of the CIFAR-10-difficulty dataset.
    pub fn synthetic_cifar10(n: usize, seed: u64) -> Self {
        Self::synthetic("cifar10-like", n, &SyntheticSpec::cifar_like(), seed)
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// The one shuffle behind a train/validation split: the row indices of
    /// the training and of the validation examples, `(train, val)`, with
    /// `val_frac` of the rows (rounded) in the second. Deterministic in
    /// `seed`. The training loop works through these and never copies the
    /// training rows; [`Dataset::split`] materialises both halves.
    pub fn split_indices(&self, val_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
        assert!((0.0..1.0).contains(&val_frac), "val_frac in [0,1)");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        let n_val = (self.len() as f64 * val_frac).round() as usize;
        let train = idx.split_off(n_val);
        (train, idx)
    }

    /// Deterministic train/validation split; `val_frac` of the examples go
    /// to validation. Examples are shuffled before splitting.
    pub fn split(&self, val_frac: f64, seed: u64) -> (Dataset, Dataset) {
        let (train_idx, val_idx) = self.split_indices(val_frac, seed);
        (
            self.subset(&train_idx, &format!("{}-train", self.name)),
            self.subset(&val_idx, &format!("{}-val", self.name)),
        )
    }

    /// Materialise a subset by example indices.
    pub fn subset(&self, idx: &[usize], name: &str) -> Dataset {
        Dataset {
            x: self.x.gather_rows(idx),
            y: idx.iter().map(|&i| self.y[i]).collect(),
            n_classes: self.n_classes,
            name: name.to_string(),
        }
    }

    /// Shuffled mini-batch index lists for one epoch. Deterministic in
    /// `(seed, epoch)`. The final batch may be smaller.
    pub fn batches(&self, batch_size: usize, seed: u64, epoch: u32) -> Vec<Vec<usize>> {
        assert!(batch_size > 0, "batch_size must be positive");
        epoch_order(self.len(), seed, epoch).chunks(batch_size).map(<[usize]>::to_vec).collect()
    }
}

/// The order one epoch visits `n` examples in: `0..n` shuffled,
/// deterministic in `(seed, epoch)`.
pub(crate) fn epoch_order(n: usize, seed: u64, epoch: u32) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9)));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let a = Dataset::synthetic_mnist(100, 5);
        let b = Dataset::synthetic_mnist(100, 5);
        assert_eq!(a.x, b.x);
        assert_eq!(a.y, b.y);
        let c = Dataset::synthetic_mnist(100, 6);
        assert_ne!(a.x, c.x);
    }

    #[test]
    fn shapes_and_balance() {
        let d = Dataset::synthetic_mnist(200, 1);
        assert_eq!(d.len(), 200);
        assert_eq!(d.dim(), 784);
        assert_eq!(d.n_classes, 10);
        // balanced: every class has 20 examples
        for class in 0..10 {
            assert_eq!(d.y.iter().filter(|&&y| y == class).count(), 20);
        }
    }

    #[test]
    fn cifar_like_is_bigger_and_noisier() {
        let m = SyntheticSpec::mnist_like();
        let c = SyntheticSpec::cifar_like();
        assert!(c.dim > m.dim);
        assert!(c.signal / c.noise < m.signal / m.noise, "worse per-dim SNR");
        assert!(c.signal < m.signal);
        assert!(c.modes_per_class > m.modes_per_class);
        assert!(c.label_noise > m.label_noise);
        let d = Dataset::synthetic_cifar10(50, 2);
        assert_eq!(d.dim(), 3072);
    }

    #[test]
    fn label_noise_perturbs_some_labels() {
        let spec = SyntheticSpec { label_noise: 0.5, ..SyntheticSpec::mnist_like() };
        let d = Dataset::synthetic("noisy", 400, &spec, 3);
        let mismatches = d.y.iter().enumerate().filter(|&(i, &y)| y != i % 10).count();
        assert!(mismatches > 50, "expected heavy label noise, saw {mismatches}");
    }

    #[test]
    fn split_partitions_without_loss() {
        let d = Dataset::synthetic_mnist(100, 9);
        let (train, val) = d.split(0.2, 1);
        assert_eq!(train.len(), 80);
        assert_eq!(val.len(), 20);
        assert_eq!(train.n_classes, 10);
        assert!(train.name.ends_with("-train"));
        // same split twice is identical
        let (train2, _) = d.split(0.2, 1);
        assert_eq!(train.y, train2.y);
        // and it is the index split, materialised
        let (train_idx, val_idx) = d.split_indices(0.2, 1);
        assert_eq!(train.x, d.x.gather_rows(&train_idx));
        assert_eq!(val.x, d.x.gather_rows(&val_idx));
        assert_eq!(val.y, val_idx.iter().map(|&i| d.y[i]).collect::<Vec<_>>());
    }

    #[test]
    fn batches_cover_every_example_once() {
        let d = Dataset::synthetic_mnist(103, 4);
        let batches = d.batches(32, 7, 0);
        assert_eq!(batches.len(), 4, "ceil(103/32)");
        assert_eq!(batches.last().unwrap().len(), 7);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn batches_reshuffle_per_epoch() {
        let d = Dataset::synthetic_mnist(64, 4);
        let e0 = d.batches(16, 7, 0);
        let e1 = d.batches(16, 7, 1);
        assert_ne!(e0, e1, "different epochs shuffle differently");
        assert_eq!(e0, d.batches(16, 7, 0), "same epoch is stable");
    }

    #[test]
    fn spatial_prototypes_are_locally_correlated() {
        // noise 0 exposes the raw prototypes
        let flat = Dataset::synthetic(
            "a",
            60,
            &SyntheticSpec { noise: 0.0, ..SyntheticSpec::mnist_like() },
            5,
        );
        let spatial = Dataset::synthetic(
            "b",
            60,
            &SyntheticSpec { noise: 0.0, ..SyntheticSpec::mnist_like_spatial() },
            5,
        );
        // neighbouring-pixel correlation of the class means: smoothing must
        // raise it far above the iid baseline.
        let corr = |d: &Dataset| {
            // average class-0 examples to approximate the prototype
            let mut mean = vec![0.0f32; d.dim()];
            let mut n = 0.0f32;
            for i in 0..d.len() {
                if d.y[i] == 0 {
                    for (m, &v) in mean.iter_mut().zip(d.x.row(i)) {
                        *m += v;
                    }
                    n += 1.0;
                }
            }
            for m in &mut mean {
                *m /= n;
            }
            let mut num = 0.0f32;
            let mut den = 0.0f32;
            for y in 0..28 {
                for x in 0..27 {
                    num += mean[y * 28 + x] * mean[y * 28 + x + 1];
                    den += mean[y * 28 + x] * mean[y * 28 + x];
                }
            }
            num / den.max(1e-9)
        };
        let c_flat = corr(&flat);
        let c_sp = corr(&spatial);
        assert!(c_sp > 0.5, "smoothed prototypes correlate: {c_sp}");
        assert!(c_sp > c_flat + 0.3, "flat {c_flat} vs spatial {c_sp}");
    }

    #[test]
    fn spatial_flag_keeps_determinism_and_shape() {
        let a = Dataset::synthetic("s", 50, &SyntheticSpec::cifar_like_spatial(), 2);
        let b = Dataset::synthetic("s", 50, &SyntheticSpec::cifar_like_spatial(), 2);
        assert_eq!(a.x, b.x);
        assert_eq!(a.dim(), 3072);
    }

    #[test]
    fn smoothing_skips_non_square_dims() {
        let spec = SyntheticSpec { dim: 10, spatial: true, ..SyntheticSpec::mnist_like() };
        let d = Dataset::synthetic("odd", 20, &spec, 1);
        assert_eq!(d.dim(), 10, "falls back gracefully");
    }

    #[test]
    fn normal_has_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
