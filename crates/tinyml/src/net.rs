//! Multi-layer perceptron with ReLU hidden activations.
//!
//! This is the `create_model(config)` of the paper's Listing 2: "New model
//! created every time with different parameters". Architecture parameters
//! (hidden layer sizes) can themselves be hyperparameters.
//!
//! The layers carry no parallelism knobs of their own: every
//! forward/backward product here lowers to the [`crate::tensor`] GEMM
//! family, which consults the ambient degree installed by
//! [`crate::par::with_threads`] (the training loop opens that scope from
//! [`crate::train::TrainConfig::threads`], which in turn is fed by the
//! task runtime's core grant). A 4-core-constrained experiment task thus
//! runs its dense layers on 4 workers with no change to this file's API.

use crate::layers::{relu_backward, relu_inplace, Dense};
use crate::loss::softmax_cross_entropy;
use crate::optim::Optimizer;
use crate::tensor::Matrix;

/// A trainable classifier over flat feature rows.
///
/// Both [`Mlp`] and [`crate::cnn::Cnn`] implement this, so the training
/// loop and the HPO objectives are architecture-agnostic — mirroring the
/// paper's "our scheme does not constrain the user to any framework".
pub trait Model {
    /// Compute logits, one row per input row.
    fn forward(&self, x: &Matrix) -> Matrix;

    /// One optimisation step on a mini-batch; returns the batch loss.
    ///
    /// The step does the work the update needs and no more: a layer's
    /// input gradient is computed only where a layer upstream consumes it,
    /// so the first layer is asked for its parameter gradients alone
    /// ([`crate::layers::Dense::param_grads`],
    /// [`crate::conv::Conv2d::param_grads`]) — at the shapes this repo
    /// trains, a third of the step's arithmetic.
    fn train_batch(&mut self, opt: &mut Optimizer, x: &Matrix, labels: &[usize]) -> f32;

    /// Number of trainable parameters.
    fn param_count(&self) -> usize;

    /// Every trainable tensor, flattened, in optimiser slot order — the
    /// weight half of a training checkpoint (see [`crate::snapshot`]).
    fn params(&self) -> Vec<Vec<f32>>;

    /// Overwrite the trainable tensors from a [`Model::params`] export.
    /// Returns `false` (leaving the model untouched) when the tensor
    /// count or any length disagrees — the snapshot came from a
    /// different architecture.
    fn restore_params(&mut self, params: &[Vec<f32>]) -> bool;

    /// Predicted class per row (argmax of [`Model::forward`]).
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        argmax_rows(&self.forward(x))
    }
}

/// Copy `src` tensors onto `dst` slices after verifying every length
/// matches (shared by the [`Model::restore_params`] impls).
pub(crate) fn restore_into(dst: &mut [&mut [f32]], src: &[Vec<f32>]) -> bool {
    if dst.len() != src.len() || dst.iter().zip(src).any(|(d, s)| d.len() != s.len()) {
        return false;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        d.copy_from_slice(s);
    }
    true
}

/// Index of the largest entry in each row (ties break low, empty rows 0).
fn argmax_rows(logits: &Matrix) -> Vec<usize> {
    (0..logits.rows())
        .map(|r| {
            logits
                .row(r)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

/// A dense feed-forward classifier.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Gradients for every layer, same order as [`Mlp::layers`].
#[derive(Debug)]
pub struct Gradients {
    /// `(dW, db)` per layer.
    pub per_layer: Vec<(Matrix, Vec<f32>)>,
}

impl Mlp {
    /// Build a network `input → hidden… → classes`, deterministically
    /// initialised from `seed`.
    ///
    /// # Panics
    /// Panics on zero input dimension or zero classes.
    pub fn new(input_dim: usize, hidden: &[usize], classes: usize, seed: u64) -> Self {
        Mlp::build(input_dim, hidden, classes, Some(seed))
    }

    /// [`Mlp::new`] when `seed` is given; without one every parameter is zero
    /// and nothing is drawn — what a resumed training restores its snapshot
    /// into ([`Model::restore_params`]).
    pub(crate) fn build(
        input_dim: usize,
        hidden: &[usize],
        classes: usize,
        seed: Option<u64>,
    ) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        assert!(classes > 0, "classes must be positive");
        let mut dims = Vec::with_capacity(hidden.len() + 2);
        dims.push(input_dim);
        dims.extend_from_slice(hidden);
        dims.push(classes);
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| match seed {
                Some(seed) => Dense::new(w[0], w[1], seed.wrapping_add(i as u64 * 0x9E37)),
                None => Dense::zeros(w[0], w[1]),
            })
            .collect();
        Mlp { layers }
    }

    /// Number of layers (hidden + output).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Forward pass producing logits.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            relu_inplace(&mut h);
            h = layer.forward(&h);
        }
        h
    }

    /// Predicted class per row.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        argmax_rows(&self.forward(x))
    }

    /// Forward + backward on one mini-batch. Returns `(loss, gradients)`.
    pub fn loss_and_gradients(&self, x: &Matrix, labels: &[usize]) -> (f32, Gradients) {
        // Forward. Layer 0 reads the caller's `x` in place; layer `i ≥ 1`
        // reads `inputs[i - 1]`, the ReLU of `pre_acts[i - 1]`.
        let depth = self.layers.len();
        let mut inputs: Vec<Matrix> = Vec::with_capacity(depth - 1);
        let mut pre_acts: Vec<Matrix> = Vec::with_capacity(depth - 1);
        let mut h = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            pre_acts.push(relu_inplace(&mut h));
            let z = layer.forward(&h);
            inputs.push(std::mem::replace(&mut h, z));
        }
        let (loss, mut dz) = softmax_cross_entropy(&h, labels);

        // Backward. Each layer above the first hands its input gradient
        // down through the ReLU before it; layer 0 has nothing upstream,
        // so it is asked for its parameters only.
        let mut per_layer: Vec<(Matrix, Vec<f32>)> = Vec::with_capacity(depth);
        for i in (1..depth).rev() {
            let (dw, db, dx) = self.layers[i].backward(&inputs[i - 1], &dz);
            per_layer.push((dw, db));
            dz = dx;
            relu_backward(&mut dz, &pre_acts[i - 1]);
        }
        per_layer.push(self.layers[0].param_grads(x, &dz));
        per_layer.reverse();
        (loss, Gradients { per_layer })
    }

    /// Apply `grads` through `opt`. Layer `i` uses optimiser slots
    /// `2i` (weights) and `2i+1` (bias).
    pub fn apply_gradients(&mut self, opt: &mut Optimizer, grads: &Gradients) {
        assert_eq!(grads.per_layer.len(), self.layers.len(), "gradient/layer count");
        opt.begin_step();
        for (i, (layer, (dw, db))) in self.layers.iter_mut().zip(&grads.per_layer).enumerate() {
            opt.step(2 * i, layer.w.as_mut_slice(), dw.as_slice());
            opt.step(2 * i + 1, &mut layer.b, db);
        }
    }

    /// Immutable access to the layers (inspection/tests).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }
}

impl Model for Mlp {
    fn forward(&self, x: &Matrix) -> Matrix {
        Mlp::forward(self, x)
    }

    fn train_batch(&mut self, opt: &mut Optimizer, x: &Matrix, labels: &[usize]) -> f32 {
        let (loss, grads) = self.loss_and_gradients(x, labels);
        self.apply_gradients(opt, &grads);
        loss
    }

    fn param_count(&self) -> usize {
        Mlp::param_count(self)
    }

    fn params(&self) -> Vec<Vec<f32>> {
        // Same order as `apply_gradients`: slots 2i (weights), 2i+1 (bias).
        let mut out = Vec::with_capacity(2 * self.layers.len());
        for layer in &self.layers {
            out.push(layer.w.as_slice().to_vec());
            out.push(layer.b.clone());
        }
        out
    }

    fn restore_params(&mut self, params: &[Vec<f32>]) -> bool {
        let mut dst: Vec<&mut [f32]> = Vec::with_capacity(2 * self.layers.len());
        for layer in &mut self.layers {
            dst.push(layer.w.as_mut_slice());
            dst.push(&mut layer.b);
        }
        restore_into(&mut dst, params)
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        Mlp::predict(self, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::OptimizerKind;

    #[test]
    fn construction_wires_dimensions() {
        let net = Mlp::new(784, &[64, 32], 10, 1);
        assert_eq!(net.depth(), 3);
        let dims: Vec<(usize, usize)> =
            net.layers().iter().map(|l| (l.in_dim(), l.out_dim())).collect();
        assert_eq!(dims, vec![(784, 64), (64, 32), (32, 10)]);
        assert_eq!(net.param_count(), 784 * 64 + 64 + 64 * 32 + 32 + 32 * 10 + 10);
    }

    #[test]
    fn no_hidden_layers_is_logistic_regression() {
        let net = Mlp::new(5, &[], 3, 1);
        assert_eq!(net.depth(), 1);
        let x = Matrix::zeros(2, 5);
        assert_eq!(net.forward(&x).cols(), 3);
    }

    #[test]
    fn predict_returns_argmax_class() {
        let net = Mlp::new(4, &[8], 3, 2);
        let x = Matrix::from_fn(6, 4, |r, c| ((r + c) as f32).cos());
        let preds = net.predict(&x);
        assert_eq!(preds.len(), 6);
        assert!(preds.iter().all(|&p| p < 3));
        let logits = net.forward(&x);
        for (r, &p) in preds.iter().enumerate() {
            let row = logits.row(r);
            assert!(row.iter().all(|&v| v <= row[p]));
        }
    }

    #[test]
    fn full_network_numerical_gradient_check() {
        // Two hidden layers: layer 0 skips its input gradient, layers 1 and
        // 2 hand theirs down, and every layer's dW must still be right.
        let net = Mlp::new(3, &[4, 5], 2, 9);
        assert_eq!(net.depth(), 3);
        let x = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f32 * 0.37).sin());
        let labels = [0usize, 1, 0, 1, 1];
        let (_, grads) = net.loss_and_gradients(&x, &labels);
        let eps = 1e-2f32;
        // check a sample of weight entries in each layer
        for li in 0..net.depth() {
            for &(r, c) in &[(0usize, 0usize), (1, 1)] {
                let mut plus = net.clone();
                let orig = plus.layers[li].w.get(r, c);
                plus.layers[li].w.set(r, c, orig + eps);
                let (lp, _) = plus.loss_and_gradients(&x, &labels);
                let mut minus = net.clone();
                minus.layers[li].w.set(r, c, orig - eps);
                let (lm, _) = minus.loss_and_gradients(&x, &labels);
                let num = (lp - lm) / (2.0 * eps);
                let ana = grads.per_layer[li].0.get(r, c);
                assert!(
                    (num - ana).abs() < 2e-2,
                    "layer {li} ({r},{c}): analytic {ana} vs numeric {num}"
                );
            }
        }
    }

    #[test]
    fn training_step_reduces_loss_on_fixed_batch() {
        let mut net = Mlp::new(6, &[32], 3, 3);
        // sin over well-spread integer arguments ≈ quasi-random features,
        // avoiding near-aliased rows that would make labels unlearnable.
        let x = Matrix::from_fn(30, 6, |r, c| ((r * 37 + c * 11) as f32).sin());
        let labels: Vec<usize> = (0..30).map(|r| r % 3).collect();
        let mut opt = Optimizer::new(OptimizerKind::Adam, 2e-2);
        let (initial, _) = net.loss_and_gradients(&x, &labels);
        for _ in 0..500 {
            let (_, g) = net.loss_and_gradients(&x, &labels);
            net.apply_gradients(&mut opt, &g);
        }
        let (final_loss, _) = net.loss_and_gradients(&x, &labels);
        assert!(
            final_loss < initial * 0.5,
            "overfitting a fixed batch must at least halve the loss: {initial} → {final_loss}"
        );
    }

    #[test]
    fn seeding_is_reproducible() {
        let a = Mlp::new(10, &[5], 2, 77);
        let b = Mlp::new(10, &[5], 2, 77);
        let x = Matrix::from_fn(3, 10, |r, c| (r as f32) - (c as f32) * 0.1);
        assert_eq!(a.forward(&x), b.forward(&x));
    }
}
