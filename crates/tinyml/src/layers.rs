//! Network layers: fully-connected (dense) with ReLU activations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tensor::Matrix;

/// A fully-connected layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weights, `in_dim × out_dim`.
    pub w: Matrix,
    /// Bias, `out_dim`.
    pub b: Vec<f32>,
}

impl Dense {
    /// He-uniform initialisation (suits the ReLU activations we use),
    /// deterministic under `seed`.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let limit = (6.0f32 / in_dim as f32).sqrt();
        let w = Matrix::from_fn(in_dim, out_dim, |_, _| rng.gen_range(-limit..limit));
        Dense { w, b: vec![0.0; out_dim] }
    }

    /// All-zero parameters: the shape a snapshot's tensors are restored
    /// into, with no weights drawn only to be overwritten.
    pub(crate) fn zeros(in_dim: usize, out_dim: usize) -> Self {
        Dense { w: Matrix::zeros(in_dim, out_dim), b: vec![0.0; out_dim] }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass: `x (batch × in) → batch × out`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        z.add_row_vector(&self.b);
        z
    }

    /// The parameter half of the backward pass: `(dw, db)` for the input
    /// `x` that produced the forward output and the gradient `dz` w.r.t.
    /// that output. All a network's first layer needs — nothing consumes
    /// its input gradient (see [`crate::net::Model::train_batch`]).
    pub fn param_grads(&self, x: &Matrix, dz: &Matrix) -> (Matrix, Vec<f32>) {
        let dw = x.t_matmul(dz); // xᵀ · dz : in × out
        (dw, dz.col_sums())
    }

    /// Backward pass: [`Dense::param_grads`] plus the gradient w.r.t. the
    /// input, as `(dw, db, dx)`.
    pub fn backward(&self, x: &Matrix, dz: &Matrix) -> (Matrix, Vec<f32>, Matrix) {
        let (dw, db) = self.param_grads(x, dz);
        let dx = dz.matmul_t(&self.w); // dz · wᵀ : batch × in
        (dw, db, dx)
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

/// ReLU forward, in place. Returns a copy of the pre-activation needed by
/// [`relu_backward`].
pub fn relu_inplace(z: &mut Matrix) -> Matrix {
    let pre = z.clone();
    z.map_inplace(|v| v.max(0.0));
    pre
}

/// ReLU backward: zero the gradient where the pre-activation was ≤ 0.
pub fn relu_backward(dz: &mut Matrix, pre_activation: &Matrix) {
    debug_assert_eq!(dz.rows(), pre_activation.rows());
    debug_assert_eq!(dz.cols(), pre_activation.cols());
    for (g, &p) in dz.as_mut_slice().iter_mut().zip(pre_activation.as_slice()) {
        if p <= 0.0 {
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_seeded_and_bounded() {
        let a = Dense::new(10, 5, 42);
        let b = Dense::new(10, 5, 42);
        let c = Dense::new(10, 5, 43);
        assert_eq!(a.w, b.w, "same seed ⇒ same weights");
        assert_ne!(a.w, c.w, "different seed ⇒ different weights");
        let limit = (6.0f32 / 10.0).sqrt();
        assert!(a.w.as_slice().iter().all(|v| v.abs() <= limit));
        assert!(a.b.iter().all(|&v| v == 0.0));
        assert_eq!(a.param_count(), 55);
        assert_eq!((a.in_dim(), a.out_dim()), (10, 5));
    }

    #[test]
    fn forward_applies_affine_map() {
        let mut layer = Dense::new(2, 2, 0);
        layer.w = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        layer.b = vec![10.0, 20.0];
        let x = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        let y = layer.forward(&x);
        assert_eq!(y.as_slice(), &[13.0, 24.0]);
    }

    #[test]
    fn backward_shapes_and_bias_grad() {
        let layer = Dense::new(3, 4, 1);
        let x = Matrix::from_fn(5, 3, |r, c| (r + c) as f32);
        let dz = Matrix::from_fn(5, 4, |_, _| 1.0);
        let (dw, db, dx) = layer.backward(&x, &dz);
        assert_eq!((dw.rows(), dw.cols()), (3, 4));
        assert_eq!(db.len(), 4);
        assert_eq!((dx.rows(), dx.cols()), (5, 3));
        assert!(db.iter().all(|&v| v == 5.0), "db = column sums of dz");
    }

    #[test]
    fn dense_numerical_gradient_check() {
        // Finite-difference check of dL/dW for L = sum(forward(x)).
        let mut layer = Dense::new(3, 2, 7);
        let x = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f32).sin());
        let dz = Matrix::from_fn(4, 2, |_, _| 1.0);
        let (dw, _, _) = layer.backward(&x, &dz);
        let eps = 1e-3f32;
        for r in 0..3 {
            for c in 0..2 {
                let orig = layer.w.get(r, c);
                layer.w.set(r, c, orig + eps);
                let lp: f32 = layer.forward(&x).as_slice().iter().sum();
                layer.w.set(r, c, orig - eps);
                let lm: f32 = layer.forward(&x).as_slice().iter().sum();
                layer.w.set(r, c, orig);
                let num = (lp - lm) / (2.0 * eps);
                assert!(
                    (num - dw.get(r, c)).abs() < 1e-2,
                    "grad mismatch at ({r},{c}): analytic {} vs numeric {num}",
                    dw.get(r, c)
                );
            }
        }
    }

    #[test]
    fn relu_roundtrip() {
        let mut z = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        let pre = relu_inplace(&mut z);
        assert_eq!(z.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let mut dz = Matrix::from_vec(1, 4, vec![1.0; 4]);
        relu_backward(&mut dz, &pre);
        assert_eq!(dz.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }
}
