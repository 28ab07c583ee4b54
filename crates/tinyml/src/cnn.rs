//! A small convolutional classifier — the model family the paper actually
//! trains on MNIST/CIFAR-10 with TensorFlow.
//!
//! Architecture: `conv(k3,p1) → ReLU → maxpool2 → conv(k3,p1) → ReLU →
//! maxpool2 → dense → softmax`. Sizes are parameters so the HPO layer can
//! search over channel counts too.
//!
//! Compute-wise this file is pure wiring: both conv blocks lower to the
//! sample-parallel im2col GEMMs of [`crate::conv`] and the head to the
//! row-parallel dense GEMMs of [`crate::tensor`], all driven by the
//! scoped worker pool in [`crate::par`]. The degree of parallelism arrives
//! ambiently from the training loop's `with_threads` scope (ultimately the
//! task's core grant), so a CNN trial constrained to N cores trains with
//! N-way intra-task parallelism without this model holding any thread
//! state — and produces bit-identical weights at any N.

use crate::conv::{Conv2d, MaxPool2, Tensor4};
use crate::layers::Dense;
use crate::loss::softmax_cross_entropy;
use crate::net::Model;
use crate::optim::Optimizer;
use crate::tensor::Matrix;

/// ReLU on a tensor, in place; returns the pre-activation copy.
fn relu_tensor(t: &mut Tensor4) -> Tensor4 {
    let pre = t.clone();
    for v in t.as_mut_slice() {
        *v = v.max(0.0);
    }
    pre
}

/// Zero gradient entries whose pre-activation was ≤ 0.
fn relu_tensor_backward(dy: &mut Tensor4, pre: &Tensor4) {
    for (g, &p) in dy.as_mut_slice().iter_mut().zip(pre.as_slice()) {
        if p <= 0.0 {
            *g = 0.0;
        }
    }
}

/// The convolutional network.
#[derive(Debug, Clone)]
pub struct Cnn {
    /// Input image shape `(channels, height, width)`.
    pub input: (usize, usize, usize),
    conv1: Conv2d,
    conv2: Conv2d,
    head: Dense,
    pool: MaxPool2,
}

impl Cnn {
    /// Build for `input = (c, h, w)` images, `classes` outputs, with
    /// `c1`/`c2` channels in the two conv blocks.
    ///
    /// # Panics
    /// Panics if the image is too small for two 2× poolings.
    pub fn new(
        input: (usize, usize, usize),
        classes: usize,
        c1: usize,
        c2: usize,
        seed: u64,
    ) -> Self {
        Cnn::build(input, classes, c1, c2, Some(seed))
    }

    /// [`Cnn::new`] when `seed` is given; without one every parameter is zero
    /// and nothing is drawn — what a resumed training restores its snapshot
    /// into ([`Model::restore_params`]).
    pub(crate) fn build(
        input: (usize, usize, usize),
        classes: usize,
        c1: usize,
        c2: usize,
        seed: Option<u64>,
    ) -> Self {
        let (c, h, w) = input;
        assert!(h >= 4 && w >= 4, "need at least 4×4 images for two poolings");
        let conv = |in_c, out_c, salt| match seed {
            Some(seed) => Conv2d::new(in_c, out_c, 3, 1, seed ^ salt),
            None => Conv2d::zeros(in_c, out_c, 3, 1),
        };
        let (h2, w2) = (h / 2 / 2, w / 2 / 2);
        let head = match seed {
            Some(seed) => Dense::new(c2 * h2 * w2, classes, seed ^ 0x3333),
            None => Dense::zeros(c2 * h2 * w2, classes),
        };
        Cnn { input, conv1: conv(c, c1, 0x1111), conv2: conv(c1, c2, 0x2222), head, pool: MaxPool2 }
    }

    /// Guess an image shape from a flat feature length: tries 1 then 3
    /// channels with square images. This matches the repo's synthetic
    /// datasets (784 = 1×28², 3 072 = 3×32²).
    pub fn infer_shape(dim: usize) -> Option<(usize, usize, usize)> {
        for c in [1usize, 3] {
            if dim.is_multiple_of(c) {
                let side = ((dim / c) as f64).sqrt() as usize;
                if side * side * c == dim {
                    return Some((c, side, side));
                }
            }
        }
        None
    }

    fn forward_tensor(&self, x: &Tensor4) -> Matrix {
        let mut a1 = self.conv1.forward(x);
        relu_tensor(&mut a1);
        let (p1, _) = self.pool.forward(&a1);
        let mut a2 = self.conv2.forward(&p1);
        relu_tensor(&mut a2);
        let (p2, _) = self.pool.forward(&a2);
        self.head.forward(&p2.to_matrix())
    }

    fn batch_to_tensor(&self, x: &Matrix) -> Tensor4 {
        let (c, h, w) = self.input;
        Tensor4::from_matrix(x, c, h, w)
    }
}

impl Model for Cnn {
    fn forward(&self, x: &Matrix) -> Matrix {
        self.forward_tensor(&self.batch_to_tensor(x))
    }

    fn train_batch(&mut self, opt: &mut Optimizer, x: &Matrix, labels: &[usize]) -> f32 {
        let x = self.batch_to_tensor(x);
        // forward with caches
        let mut a1 = self.conv1.forward(&x);
        let pre1 = relu_tensor(&mut a1);
        let (p1, arg1) = self.pool.forward(&a1);
        let mut a2 = self.conv2.forward(&p1);
        let pre2 = relu_tensor(&mut a2);
        let (p2, arg2) = self.pool.forward(&a2);
        let flat = p2.to_matrix();
        let logits = self.head.forward(&flat);
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels);

        // backward
        let (dw_h, db_h, dflat) = self.head.backward(&flat, &dlogits);
        let dp2 = Tensor4::from_matrix(&dflat, p2.c, p2.h, p2.w);
        let mut da2 = self.pool.backward(&dp2, &arg2, (a2.n, a2.c, a2.h, a2.w));
        relu_tensor_backward(&mut da2, &pre2);
        let (dw2, db2, dp1) = self.conv2.backward(&p1, &da2);
        let mut da1 = self.pool.backward(&dp1, &arg1, (a1.n, a1.c, a1.h, a1.w));
        relu_tensor_backward(&mut da1, &pre1);
        // nothing is upstream of conv1: parameters only
        let (dw1, db1) = self.conv1.param_grads(&x, &da1);

        // apply
        opt.begin_step();
        opt.step(0, self.conv1.w.as_mut_slice(), dw1.as_slice());
        opt.step(1, &mut self.conv1.b, &db1);
        opt.step(2, self.conv2.w.as_mut_slice(), dw2.as_slice());
        opt.step(3, &mut self.conv2.b, &db2);
        opt.step(4, self.head.w.as_mut_slice(), dw_h.as_slice());
        opt.step(5, &mut self.head.b, &db_h);
        loss
    }

    fn param_count(&self) -> usize {
        self.conv1.param_count() + self.conv2.param_count() + self.head.param_count()
    }

    fn params(&self) -> Vec<Vec<f32>> {
        // Same order as the `opt.step` calls in `train_batch`: slots 0–5.
        vec![
            self.conv1.w.as_slice().to_vec(),
            self.conv1.b.clone(),
            self.conv2.w.as_slice().to_vec(),
            self.conv2.b.clone(),
            self.head.w.as_slice().to_vec(),
            self.head.b.clone(),
        ]
    }

    fn restore_params(&mut self, params: &[Vec<f32>]) -> bool {
        let mut dst: Vec<&mut [f32]> = vec![
            self.conv1.w.as_mut_slice(),
            &mut self.conv1.b,
            self.conv2.w.as_mut_slice(),
            &mut self.conv2.b,
            self.head.w.as_mut_slice(),
            &mut self.head.b,
        ];
        crate::net::restore_into(&mut dst, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::metrics::accuracy;
    use crate::optim::OptimizerKind;

    #[test]
    fn shapes_wire_up_for_mnist_and_cifar_geometry() {
        let mnist = Cnn::new((1, 28, 28), 10, 4, 8, 1);
        assert_eq!(Cnn::infer_shape(784), Some((1, 28, 28)));
        assert_eq!(Cnn::infer_shape(3072), Some((3, 32, 32)));
        assert_eq!(Cnn::infer_shape(7), None);
        let x = Matrix::zeros(2, 784);
        let logits = mnist.forward(&x);
        assert_eq!((logits.rows(), logits.cols()), (2, 10));
        assert!(mnist.param_count() > 0);

        let cifar = Cnn::new((3, 32, 32), 10, 4, 8, 1);
        let x = Matrix::zeros(1, 3072);
        assert_eq!(cifar.forward(&x).cols(), 10);
    }

    #[test]
    fn cnn_overfits_a_tiny_batch() {
        // 12 samples, 12×12 synthetic images: loss must fall substantially.
        let mut net = Cnn::new((1, 12, 12), 3, 3, 4, 7);
        let x = Matrix::from_fn(12, 144, |r, c| (((r * 53 + c * 17) % 97) as f32 / 97.0) - 0.5);
        let labels: Vec<usize> = (0..12).map(|i| i % 3).collect();
        let mut opt = Optimizer::new(OptimizerKind::Adam, 5e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            last = net.train_batch(&mut opt, &x, &labels);
            first.get_or_insert(last);
        }
        let first = first.unwrap();
        assert!(last < first * 0.6, "loss {first} → {last}");
        let acc = accuracy(&net.predict(&x), &labels);
        assert!(acc > 0.6, "memorised most of the batch: {acc}");
    }

    #[test]
    fn cnn_learns_real_synthetic_mnist() {
        // small subset, downscaled epochs — this is the model class of the
        // paper's Figure 7 experiments. CNNs need the spatially-smooth
        // dataset variant (convolution has nothing to exploit in iid
        // prototypes).
        let data = Dataset::synthetic(
            "mnist-spatial",
            500,
            &crate::data::SyntheticSpec::mnist_like_spatial(),
            3,
        );
        let (train, val) = data.split(0.2, 1);
        let mut net = Cnn::new((1, 28, 28), 10, 6, 12, 2);
        let mut opt = Optimizer::new(OptimizerKind::Adam, 3e-3);
        for epoch in 0..6u32 {
            for batch in train.batches(32, 9, epoch) {
                let x = train.x.gather_rows(&batch);
                let y: Vec<usize> = batch.iter().map(|&i| train.y[i]).collect();
                net.train_batch(&mut opt, &x, &y);
            }
        }
        let acc = accuracy(&net.predict(&val.x), &val.y);
        assert!(acc > 0.3, "clearly better than chance (0.1): {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Cnn::new((1, 8, 8), 4, 2, 3, 11);
        let b = Cnn::new((1, 8, 8), 4, 2, 3, 11);
        let x = Matrix::from_fn(2, 64, |r, c| ((r + c) as f32).sin());
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    #[should_panic(expected = "4×4")]
    fn too_small_images_rejected() {
        let _ = Cnn::new((1, 2, 2), 2, 2, 2, 0);
    }
}
