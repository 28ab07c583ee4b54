//! Convolutional layers — the paper's experiments train small CNNs on
//! MNIST/CIFAR-10; this module supplies the same model class.
//!
//! # Lowering strategy: per-sample im2col → GEMM, sample-parallel
//!
//! A convolution is never computed with nested spatial loops here. Each
//! sample's padded patches are unrolled into an `(oh·ow, c·k·k)` matrix
//! (`im2col`) and the convolution lowers to the GEMM kernels of
//! [`crate::tensor`]; backward is the two transposed products
//! (`dW += dy_sᵀ·cols_s`, `dcols_s = dy_s·W`) plus a col2im scatter — the
//! second product and the scatter only when the caller wants `dx`
//! ([`Conv2d::param_grads`] is the backward pass of a first layer). The
//! unroll stays per-sample *on purpose*: for these kernel sizes the
//! `cols_s` matrix is a few tens of KiB, so the whole
//! im2col → GEMM → scatter pipeline runs out of L1/L2 — a whole-batch
//! unroll measures ~35 % slower on MNIST-shaped batches because it streams
//! megabyte intermediates through memory between every stage.
//!
//! Parallelism is over *samples* instead (see [`crate::par`]): a task
//! granted N cores by the scheduler splits the batch into N contiguous
//! sample ranges, and each scoped worker runs the cache-hot per-sample
//! pipeline over its own range, writing its disjoint `y`/`dx` chunks
//! without any locking.
//!
//! # Serial equivalence
//!
//! `y` and `dx` are computed per sample, so they are bit-identical at any
//! thread count trivially. `dW`/`db` are cross-sample *reductions*; to keep
//! them deterministic too, samples are accumulated into per-block partial
//! sums of a **fixed** block size (`SAMPLE_BLOCK`, independent of the
//! thread count) and the block partials are summed block-ascending on the
//! caller thread. Every float therefore sees the same accumulation tree no
//! matter how many workers ran — gradients are bit-identical across thread
//! counts. Pooling is 2×2 max with argmax memoisation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::par;
use crate::tensor::Matrix;

/// A dense 4-D tensor in `(n, c, h, w)` row-major layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4 {
    /// Batch size.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    data: Vec<f32>,
}

impl Tensor4 {
    /// Zero-filled tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Tensor4 { n, c, h, w, data: vec![0.0; n * c * h * w] }
    }

    /// Wrap a flat buffer.
    ///
    /// # Panics
    /// Panics if the buffer size doesn't match the shape.
    pub fn from_vec(n: usize, c: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), n * c * h * w, "shape/buffer mismatch");
        Tensor4 { n, c, h, w, data }
    }

    /// Reinterpret a batch of flat rows (e.g. dataset rows) as images.
    ///
    /// # Panics
    /// Panics if `m.cols() != c*h*w`.
    pub fn from_matrix(m: &Matrix, c: usize, h: usize, w: usize) -> Self {
        assert_eq!(m.cols(), c * h * w, "row length is not c*h*w");
        Tensor4 { n: m.rows(), c, h, w, data: m.as_slice().to_vec() }
    }

    /// Flatten to a `(n, c*h*w)` matrix (for the dense head).
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.n, self.c * self.h * self.w, self.data.clone())
    }

    #[inline]
    fn idx(&self, n: usize, c: usize, y: usize, x: usize) -> usize {
        ((n * self.c + c) * self.h + y) * self.w + x
    }

    /// Element access.
    pub fn get(&self, n: usize, c: usize, y: usize, x: usize) -> f32 {
        self.data[self.idx(n, c, y, x)]
    }

    /// Element assignment.
    pub fn set(&mut self, n: usize, c: usize, y: usize, x: usize, v: f32) {
        let i = self.idx(n, c, y, x);
        self.data[i] = v;
    }

    /// Flat view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// Sample count per `dW`/`db` partial sum. Fixed (never derived from the
/// thread count), so the gradient accumulation tree — and therefore every
/// output bit — is identical at any degree of parallelism.
const SAMPLE_BLOCK: usize = 8;

/// Unroll padded patches of sample `s` into a `(oh*ow, c*kh*kw)` matrix —
/// small enough (tens of KiB for this repo's model sizes) to stay
/// L1/L2-resident through the GEMM and scatter that follow.
fn im2col(x: &Tensor4, s: usize, k: usize, pad: usize) -> Matrix {
    let (oh, ow) = (x.h + 2 * pad - k + 1, x.w + 2 * pad - k + 1);
    let mut cols = Matrix::zeros(oh * ow, x.c * k * k);
    for oy in 0..oh {
        for ox in 0..ow {
            let row = cols.row_mut(oy * ow + ox);
            let mut i = 0;
            for c in 0..x.c {
                for ky in 0..k {
                    let y = oy + ky;
                    for kx in 0..k {
                        let xx = ox + kx;
                        // padded coordinates: subtract pad, check bounds
                        row[i] = if y >= pad && xx >= pad && y - pad < x.h && xx - pad < x.w {
                            x.get(s, c, y - pad, xx - pad)
                        } else {
                            0.0
                        };
                        i += 1;
                    }
                }
            }
        }
    }
    cols
}

/// Scatter one sample's `(oh*ow, c*kh*kw)` patch gradient onto its `dx`
/// slice (length `c*h*w`). Patches accumulate in patch-ascending order.
fn col2im_into(
    cols: &Matrix,
    (c_dim, h, w): (usize, usize, usize),
    k: usize,
    pad: usize,
    dx_s: &mut [f32],
) {
    let (oh, ow) = (h + 2 * pad - k + 1, w + 2 * pad - k + 1);
    for oy in 0..oh {
        for ox in 0..ow {
            let row = cols.row(oy * ow + ox);
            let mut i = 0;
            for c in 0..c_dim {
                for ky in 0..k {
                    let y = oy + ky;
                    for kx in 0..k {
                        let xx = ox + kx;
                        if y >= pad && xx >= pad && y - pad < h && xx - pad < w {
                            dx_s[(c * h + (y - pad)) * w + (xx - pad)] += row[i];
                        }
                        i += 1;
                    }
                }
            }
        }
    }
}

/// A 2-D convolution with square kernels, stride 1 and symmetric padding.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel size (square).
    pub k: usize,
    /// Zero padding on every side.
    pub pad: usize,
    /// Weights, `(out_c, in_c*k*k)`.
    pub w: Matrix,
    /// Bias per output channel.
    pub b: Vec<f32>,
}

impl Conv2d {
    /// He-initialised convolution.
    pub fn new(in_c: usize, out_c: usize, k: usize, pad: usize, seed: u64) -> Self {
        let fan_in = in_c * k * k;
        let limit = (6.0f32 / fan_in as f32).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Matrix::from_fn(out_c, fan_in, |_, _| rng.gen_range(-limit..limit));
        Conv2d { in_c, out_c, k, pad, w, b: vec![0.0; out_c] }
    }

    /// All-zero parameters (see [`crate::layers::Dense::zeros`]).
    pub(crate) fn zeros(in_c: usize, out_c: usize, k: usize, pad: usize) -> Self {
        Conv2d { in_c, out_c, k, pad, w: Matrix::zeros(out_c, in_c * k * k), b: vec![0.0; out_c] }
    }

    /// Output spatial size for an input of `(h, w)`.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h + 2 * self.pad - self.k + 1, w + 2 * self.pad - self.k + 1)
    }

    /// Forward pass: per-sample im2col → GEMM (`cols_s · Wᵀ`) → transpose
    /// scatter with the bias fused in, parallelised over samples (each
    /// worker writes its own disjoint output chunk).
    ///
    /// # Panics
    /// Panics if the channel count doesn't match.
    pub fn forward(&self, x: &Tensor4) -> Tensor4 {
        assert_eq!(x.c, self.in_c, "channel mismatch");
        let (oh, ow) = self.out_hw(x.h, x.w);
        let p = oh * ow;
        let out_c = self.out_c;
        let mut out = Tensor4::zeros(x.n, out_c, oh, ow);
        if x.n == 0 || p == 0 || out_c == 0 {
            return out;
        }
        let fan_in = self.in_c * self.k * self.k;
        let threads = par::degree_for(x.n * p * fan_in * out_c);
        par::par_row_chunks(out.as_mut_slice(), out_c * p, threads, |samples, chunk| {
            // The per-sample GEMMs run serially inside this worker: the
            // batch is already split across workers one level up.
            par::with_threads(1, || {
                for (si, s) in samples.clone().enumerate() {
                    let cols = im2col(x, s, self.k, self.pad); // (p, fan_in)
                    let y = cols.matmul_t(&self.w); // (p, out_c)
                    let sample = &mut chunk[si * out_c * p..(si + 1) * out_c * p];
                    for oc in 0..out_c {
                        for pp in 0..p {
                            sample[oc * p + pp] = y.get(pp, oc) + self.b[oc];
                        }
                    }
                }
            });
        });
        out
    }

    /// Backward pass: given the forward input and `dy` (same shape as the
    /// forward output), returns `(dw, db, dx)`.
    ///
    /// Per sample: the same im2col unroll as forward, then
    /// `dW += dy_sᵀ · cols_s`, `dcols_s = dy_s · W`, and a col2im scatter
    /// for `dx`. Samples are split across workers; `dW`/`db` accumulate
    /// into per-`SAMPLE_BLOCK` partials reduced block-ascending, so the
    /// result is bit-identical at any thread count (see module docs).
    pub fn backward(&self, x: &Tensor4, dy: &Tensor4) -> (Matrix, Vec<f32>, Tensor4) {
        let mut dx = Tensor4::zeros(x.n, x.c, x.h, x.w);
        let (dw, db) = self.grads(x, dy, Some(&mut dx));
        (dw, db, dx)
    }

    /// The parameter half of [`Conv2d::backward`]: the same `(dw, db)`, bit
    /// for bit, without the per-sample `dy_s · W` product and col2im
    /// scatter behind `dx`. All a network's first layer needs (see
    /// [`crate::net::Model::train_batch`]).
    pub fn param_grads(&self, x: &Tensor4, dy: &Tensor4) -> (Matrix, Vec<f32>) {
        self.grads(x, dy, None)
    }

    /// `(dw, db)`, and the input gradient accumulated into `dx` (zeroed, the
    /// shape of `x`) when the caller wants one.
    fn grads(&self, x: &Tensor4, dy: &Tensor4, dx: Option<&mut Tensor4>) -> (Matrix, Vec<f32>) {
        let (oh, ow) = self.out_hw(x.h, x.w);
        assert_eq!((dy.c, dy.h, dy.w), (self.out_c, oh, ow), "dy shape");
        let p = oh * ow;
        let out_c = self.out_c;
        let fan_in = self.in_c * self.k * self.k;
        let n = x.n;
        if n == 0 || p == 0 || out_c == 0 {
            return (Matrix::zeros(out_c, fan_in), vec![0.0; out_c]);
        }

        let want_dx = dx.is_some();
        // Floats of `dx` per sample; without one, every worker's share of
        // it is the empty slice.
        let dx_len = if want_dx { x.c * x.h * x.w } else { 0 };
        let dw_len = out_c * fan_in;
        let blocks = n.div_ceil(SAMPLE_BLOCK);
        let mut pdw = vec![0.0f32; blocks * dw_len];
        let mut pdb = vec![0.0f32; blocks * out_c];
        let dy_flat = dy.as_slice();

        // One GEMM's worth of FMAs per output element for `dW`, one for `dx`.
        let threads = par::degree_for((1 + usize::from(want_dx)) * n * p * fan_in * out_c);
        // One contiguous block range per worker; slice dx / the partial
        // buffers to match, so every write target is a disjoint `&mut`.
        let ranges = par::split_ranges(blocks, threads);
        let body = |block_range: std::ops::Range<usize>,
                    dx_chunk: &mut [f32],
                    pdw_chunk: &mut [f32],
                    pdb_chunk: &mut [f32]| {
            par::with_threads(1, || {
                let s0 = block_range.start * SAMPLE_BLOCK;
                for (bi, blk) in block_range.clone().enumerate() {
                    let dw_b = &mut pdw_chunk[bi * dw_len..(bi + 1) * dw_len];
                    let db_b = &mut pdb_chunk[bi * out_c..(bi + 1) * out_c];
                    for s in blk * SAMPLE_BLOCK..((blk + 1) * SAMPLE_BLOCK).min(n) {
                        // dy for this sample as (p, out_c), db fused in
                        let mut dy_s = Matrix::zeros(p, out_c);
                        for (oc, db_oc) in db_b.iter_mut().enumerate() {
                            for pp in 0..p {
                                let g = dy_flat[(s * out_c + oc) * p + pp];
                                dy_s.set(pp, oc, g);
                                *db_oc += g;
                            }
                        }
                        let cols = im2col(x, s, self.k, self.pad);
                        // dW_b += dy_sᵀ (out_c × p) · cols (p × fan_in)
                        let contrib = dy_s.t_matmul(&cols);
                        for (o, &v) in dw_b.iter_mut().zip(contrib.as_slice()) {
                            *o += v;
                        }
                        if want_dx {
                            // dcols = dy_s (p × out_c) · w (out_c × fan_in)
                            let dcols = dy_s.matmul(&self.w);
                            col2im_into(
                                &dcols,
                                (x.c, x.h, x.w),
                                self.k,
                                self.pad,
                                &mut dx_chunk[(s - s0) * dx_len..(s - s0 + 1) * dx_len],
                            );
                        }
                    }
                }
            });
        };

        // Carve the three output buffers into per-range disjoint chunks.
        let mut items = Vec::with_capacity(ranges.len());
        let mut dx_rest: &mut [f32] = dx.map_or(&mut [], Tensor4::as_mut_slice);
        let (mut pdw_rest, mut pdb_rest) = (pdw.as_mut_slice(), pdb.as_mut_slice());
        for r in ranges {
            let samples = (r.end * SAMPLE_BLOCK).min(n) - r.start * SAMPLE_BLOCK;
            let (dx_c, rest) = std::mem::take(&mut dx_rest).split_at_mut(samples * dx_len);
            dx_rest = rest;
            let (pdw_c, rest) = std::mem::take(&mut pdw_rest).split_at_mut(r.len() * dw_len);
            pdw_rest = rest;
            let (pdb_c, rest) = std::mem::take(&mut pdb_rest).split_at_mut(r.len() * out_c);
            pdb_rest = rest;
            items.push((r, dx_c, pdw_c, pdb_c));
        }
        let mut items = items.into_iter();
        let own = items.next().expect("blocks >= 1 yields at least one range");
        std::thread::scope(|sc| {
            let body = &body;
            for (r, dx_c, pdw_c, pdb_c) in items {
                sc.spawn(move || body(r, dx_c, pdw_c, pdb_c));
            }
            body(own.0, own.1, own.2, own.3);
        });

        // Deterministic reduction: block partials summed block-ascending.
        let mut dw = Matrix::zeros(out_c, fan_in);
        let mut db = vec![0.0f32; out_c];
        for blk in 0..blocks {
            for (o, &v) in dw.as_mut_slice().iter_mut().zip(&pdw[blk * dw_len..]) {
                *o += v;
            }
            for (o, &v) in db.iter_mut().zip(&pdb[blk * out_c..]) {
                *o += v;
            }
        }
        (dw, db)
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

/// 2×2 max pooling with stride 2.
#[derive(Debug, Clone, Default)]
pub struct MaxPool2;

impl MaxPool2 {
    /// Forward pass; returns the pooled tensor and the flat argmax indices
    /// (into the input) needed for backprop. Odd trailing rows/columns are
    /// dropped (floor semantics, like most frameworks' default).
    pub fn forward(&self, x: &Tensor4) -> (Tensor4, Vec<usize>) {
        let (oh, ow) = (x.h / 2, x.w / 2);
        let mut out = Tensor4::zeros(x.n, x.c, oh, ow);
        let mut arg = vec![0usize; x.n * x.c * oh * ow];
        let mut o = 0;
        for s in 0..x.n {
            for c in 0..x.c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_i = 0;
                        for dy in 0..2 {
                            for dxx in 0..2 {
                                let y = oy * 2 + dy;
                                let xx = ox * 2 + dxx;
                                let v = x.get(s, c, y, xx);
                                if v > best {
                                    best = v;
                                    best_i = ((s * x.c + c) * x.h + y) * x.w + xx;
                                }
                            }
                        }
                        out.set(s, c, oy, ox, best);
                        arg[o] = best_i;
                        o += 1;
                    }
                }
            }
        }
        (out, arg)
    }

    /// Backward: scatter `dy` to the argmax positions.
    pub fn backward(
        &self,
        dy: &Tensor4,
        arg: &[usize],
        input_shape: (usize, usize, usize, usize),
    ) -> Tensor4 {
        let (n, c, h, w) = input_shape;
        let mut dx = Tensor4::zeros(n, c, h, w);
        for (g, &i) in dy.as_slice().iter().zip(arg) {
            dx.as_mut_slice()[i] += g;
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor4_layout_roundtrip() {
        let mut t = Tensor4::zeros(2, 3, 4, 5);
        t.set(1, 2, 3, 4, 7.5);
        assert_eq!(t.get(1, 2, 3, 4), 7.5);
        assert_eq!(t.as_slice().len(), 120);
        let m = t.to_matrix();
        assert_eq!((m.rows(), m.cols()), (2, 60));
        let back = Tensor4::from_matrix(&m, 3, 4, 5);
        assert_eq!(back, t);
    }

    #[test]
    #[should_panic(expected = "shape/buffer mismatch")]
    fn tensor4_validates_buffer() {
        let _ = Tensor4::from_vec(1, 1, 2, 2, vec![0.0; 3]);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1-channel 3×3 kernel with centre 1 and pad 1 = identity map.
        let mut conv = Conv2d::new(1, 1, 3, 1, 0);
        conv.w = Matrix::from_vec(1, 9, vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        conv.b = vec![0.0];
        let x = Tensor4::from_vec(1, 1, 3, 3, (1..=9).map(|v| v as f32).collect());
        let y = conv.forward(&x);
        assert_eq!((y.h, y.w), (3, 3));
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn valid_convolution_hand_checked() {
        // 2×2 sum kernel, no padding, 3×3 input → 2×2 output of window sums.
        let mut conv = Conv2d::new(1, 1, 2, 0, 0);
        conv.w = Matrix::from_vec(1, 4, vec![1.0; 4]);
        conv.b = vec![0.5];
        let x = Tensor4::from_vec(1, 1, 3, 3, (1..=9).map(|v| v as f32).collect());
        let y = conv.forward(&x);
        assert_eq!((y.h, y.w), (2, 2));
        // windows: [1,2,4,5]=12, [2,3,5,6]=16, [4,5,7,8]=24, [5,6,8,9]=28 (+0.5)
        assert_eq!(y.as_slice(), &[12.5, 16.5, 24.5, 28.5]);
    }

    #[test]
    fn multi_channel_shapes() {
        let conv = Conv2d::new(3, 8, 3, 1, 1);
        let x = Tensor4::zeros(2, 3, 8, 8);
        let y = conv.forward(&x);
        assert_eq!((y.n, y.c, y.h, y.w), (2, 8, 8, 8));
        assert_eq!(conv.param_count(), 8 * 27 + 8);
    }

    #[test]
    fn conv_numerical_gradient_check() {
        let conv = Conv2d::new(2, 3, 3, 1, 5);
        let x =
            Tensor4::from_vec(2, 2, 4, 4, (0..64).map(|i| ((i * 37) as f32).sin() * 0.5).collect());
        let y = conv.forward(&x);
        let dy = Tensor4::from_vec(y.n, y.c, y.h, y.w, vec![1.0; y.as_slice().len()]);
        let (dw, db, dx) = conv.backward(&x, &dy);
        let eps = 1e-2f32;
        let loss =
            |c: &Conv2d, input: &Tensor4| -> f32 { c.forward(input).as_slice().iter().sum() };
        // weights
        for &(r, cc) in &[(0usize, 0usize), (1, 7), (2, 17)] {
            let mut plus = conv.clone();
            plus.w.set(r, cc, conv.w.get(r, cc) + eps);
            let mut minus = conv.clone();
            minus.w.set(r, cc, conv.w.get(r, cc) - eps);
            let num = (loss(&plus, &x) - loss(&minus, &x)) / (2.0 * eps);
            assert!(
                (num - dw.get(r, cc)).abs() < 0.05 * dw.get(r, cc).abs().max(1.0),
                "dw({r},{cc}): analytic {} vs numeric {num}",
                dw.get(r, cc)
            );
        }
        // bias: dL/db = number of output positions per channel × batch
        let positions = (y.h * y.w * y.n) as f32;
        assert!(db.iter().all(|&g| (g - positions).abs() < 1e-3), "{db:?}");
        // input gradient
        for &flat in &[0usize, 13, 37] {
            let mut plus = x.clone();
            plus.as_mut_slice()[flat] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[flat] -= eps;
            let num = (loss(&conv, &plus) - loss(&conv, &minus)) / (2.0 * eps);
            let ana = dx.as_slice()[flat];
            assert!((num - ana).abs() < 0.05, "dx[{flat}]: analytic {ana} vs numeric {num}");
        }
    }

    #[test]
    fn param_grads_equal_the_full_backward_bit_for_bit() {
        // 19 samples: two whole SAMPLE_BLOCKs and a ragged third, and
        // enough work that three threads really get a block each.
        let conv = Conv2d::new(2, 8, 3, 1, 13);
        let x = Tensor4::from_vec(
            19,
            2,
            12,
            12,
            (0..19 * 2 * 12 * 12).map(|i| ((i * 29) as f32 * 0.019).sin()).collect(),
        );
        let y = conv.forward(&x);
        let dy = Tensor4::from_vec(y.n, y.c, y.h, y.w, y.as_slice().to_vec());
        let (dw, db, dx) = conv.backward(&x, &dy);
        assert!(dx.as_slice().iter().any(|&v| v != 0.0), "the full pass does compute dx");
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for threads in [1usize, 3] {
            let (pdw, pdb) = crate::par::with_threads(threads, || conv.param_grads(&x, &dy));
            assert_eq!(bits(pdw.as_slice()), bits(dw.as_slice()), "dw, {threads} threads");
            assert_eq!(bits(&pdb), bits(&db), "db, {threads} threads");
        }
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let x = Tensor4::from_vec(
            1,
            1,
            4,
            4,
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        );
        let pool = MaxPool2;
        let (y, arg) = pool.forward(&x);
        assert_eq!((y.h, y.w), (2, 2));
        assert_eq!(y.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
        let dy = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let dx = pool.backward(&dy, &arg, (1, 1, 4, 4));
        assert_eq!(dx.get(0, 0, 1, 1), 1.0, "grad lands on the max position");
        assert_eq!(dx.get(0, 0, 1, 3), 2.0);
        assert_eq!(dx.get(0, 0, 3, 1), 3.0);
        assert_eq!(dx.get(0, 0, 3, 3), 4.0);
        assert_eq!(dx.as_slice().iter().sum::<f32>(), 10.0, "mass conserved");
    }

    #[test]
    fn maxpool_drops_odd_edges() {
        let x = Tensor4::zeros(1, 1, 5, 5);
        let (y, _) = MaxPool2.forward(&x);
        assert_eq!((y.h, y.w), (2, 2));
    }

    #[test]
    fn conv_parallel_matches_serial_bit_for_bit() {
        // Batch and geometry large enough that the lowered GEMMs cross the
        // par work floor, so threads > 1 really exercise the workers.
        let conv = Conv2d::new(3, 8, 3, 1, 21);
        let x = Tensor4::from_vec(
            16,
            3,
            16,
            16,
            (0..16 * 3 * 16 * 16).map(|i| ((i * 31) as f32 * 0.017).sin()).collect(),
        );
        let (serial_y, serial_grads) = crate::par::with_threads(1, || {
            let y = conv.forward(&x);
            let dy = Tensor4::from_vec(y.n, y.c, y.h, y.w, y.as_slice().to_vec());
            let grads = conv.backward(&x, &dy);
            (y, grads)
        });
        for threads in [2usize, 4, 8] {
            let (y, grads) = crate::par::with_threads(threads, || {
                let y = conv.forward(&x);
                let dy = Tensor4::from_vec(y.n, y.c, y.h, y.w, y.as_slice().to_vec());
                let grads = conv.backward(&x, &dy);
                (y, grads)
            });
            assert_eq!(y, serial_y, "forward, {threads} threads");
            assert_eq!(grads.0, serial_grads.0, "dw, {threads} threads");
            assert_eq!(grads.1, serial_grads.1, "db, {threads} threads");
            assert_eq!(grads.2, serial_grads.2, "dx, {threads} threads");
        }
    }

    #[test]
    fn conv_seeding_is_reproducible() {
        let a = Conv2d::new(1, 4, 3, 1, 9);
        let b = Conv2d::new(1, 4, 3, 1, 9);
        assert_eq!(a.w, b.w);
        let c = Conv2d::new(1, 4, 3, 1, 10);
        assert_ne!(a.w, c.w);
    }
}
