//! Dense row-major `f32` matrices and the handful of BLAS-like kernels the
//! training loop needs.
//!
//! # Kernel strategy: one register-tiled micro-kernel, three entry points
//!
//! The GEMM family ([`Matrix::matmul`], [`Matrix::matmul_into`],
//! [`Matrix::matmul_t`], [`Matrix::t_matmul`]) is one loop nest:
//!
//! * **A register tile.** The micro-kernel computes
//!   `out[i, j] += Σₖ a(i, k) · b[k, j]` for an `MR × NR` = 2 × 16 block of
//!   the output whose accumulators are a fixed-size local array — eight
//!   four-lane vector registers at the baseline x86-64 width — for a whole
//!   `KC`-deep panel of `k`: loaded from `out` when the panel starts, stored
//!   when it ends. Per step of `k` that is four loads of `b`, two broadcasts
//!   of `a` and sixteen multiply/adds, where a saxpy over an output row
//!   reloads and stores the row for every `k`. 2 × 16 was measured against
//!   its neighbours at the training step's shapes (`32×784 · 784×32`
//!   forward, `(32×784)ᵀ · 32×32` for `dW`, medians of five alternating
//!   runs, GFLOP/s): saxpy 12.1 / 10.9, **2 × 16 24.5 / 20.7**, 4 × 8
//!   21.5 / 20.1, 3 × 16 20.1 / 19.2, 4 × 16 17.2 / 19.1 (sixteen
//!   accumulators spill), 1 × 16 13.7 / 13.4, 2 × 8 11.2 / 10.9.
//! * **Strides for the left operand.** `a(i, k)` is read as
//!   `data[i * row_stride + k * k_stride]`, so `A · B` (`cols`, 1) and
//!   `Aᵀ · B` (1, `cols`) are the same code and no transpose is
//!   materialised.
//! * **Packing for the right one.** The kernel wants `b`'s rows contiguous;
//!   `A · Bᵀ` packs `Bᵀ` once per call into a transient `k × n` buffer
//!   (≤ 100 KiB at this repo's shapes) and is the same code again.
//! * **Edges through the same body.** A ragged right edge runs the kernel
//!   at widths 8, 4, 2, 1 and an odd last row at `MR` = 1 — const
//!   instantiations, not a scalar fallback — so an `n = 10` output layer or
//!   a short last batch costs in proportion.
//! * **Row parallelism** — when the ambient degree of parallelism (see
//!   [`crate::par`]) and the problem size warrant it, the *output rows*
//!   are split into contiguous chunks ([`par::par_row_chunks`]), one
//!   scoped worker per chunk. Problems under `par::degree_for`'s work
//!   floor run serially, so tiny matrices never pay a thread spawn.
//!
//! Safe Rust throughout (the crate forbids `unsafe`): no intrinsics, no
//! `target_feature`, no runtime dispatch. An AVX2 instantiation of the same
//! body was prototyped at ≈ 10 % more on the end-to-end sweep and left out:
//! not worth the crate's first `unsafe` and a second instantiation to test.
//!
//! # The identity every caller relies on
//!
//! Each output element is produced by exactly one thread, which adds its
//! products in `k`-ascending order starting from `+0.0`, one rounding per
//! multiply and one per add (no fused multiply-add, no reassociation); a
//! panel boundary stores and reloads the partial sum exactly. Tiling,
//! panel depth and the row split decide *when* a product is added, never in
//! which order, so results are **bit-identical** at every thread count — the
//! HPO layer treats the degree of parallelism as a pure performance knob —
//! and, for finite operands, bit-identical to the three separate loop nests
//! this kernel replaced (kept as the oracle of the tests below;
//! `tests/golden_history.rs` pins whole training curves).
//!
//! One difference is deliberate. Two of the old loops skipped a zero of the
//! left operand before multiplying; a multi-row tile cannot. With finite
//! operands the skip never showed — `±0 · b` is `±0`, and adding it to a sum
//! that started at `+0.0` changes nothing — but `0 · ∞` and `0 · NaN` now
//! yield the IEEE 754 `NaN` the skip used to hide.

use std::ops::Range;

use crate::par;

/// Depth of a `k` panel: a tile's accumulators stay in registers for this
/// many steps of `k` between their load from `out` and their store back.
const KC: usize = 256;
/// Rows of the full register tile.
const MR: usize = 2;
/// Columns of the full register tile; `band`'s edge widths halve down from it.
const NR: usize = 16;

/// The left operand as the micro-kernel reads it: element `(i, k)` is
/// `data[i * row_stride + k * k_stride]`, so `A` (`cols`, 1) and `Aᵀ`
/// (1, `cols`) are the same code.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    row_stride: usize,
    k_stride: usize,
}

/// The micro-kernel: `out[r, j0 + c] += Σₖ a(i0 + r, k) · b[k, j0 + c]` for
/// an `R × C` tile over one panel `ks` of `k`. `b` is row-major with `n`
/// columns, `out` the tile's `R` rows of `n` columns. The accumulators are
/// a fixed-size local — vector registers — loaded from `out` before the
/// panel and stored after it; each takes its products in `k`-ascending
/// order, one rounding per multiply and per add.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a: Lhs<'_>,
    i0: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    ks: Range<usize>,
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; C]; R];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        acc_r.copy_from_slice(&out[r * n + j0..r * n + j0 + C]);
    }
    for k in ks {
        let b_k = &b[k * n + j0..k * n + j0 + C];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let a_v = a.data[(i0 + r) * a.row_stride + k * a.k_stride];
            for c in 0..C {
                acc_r[c] += a_v * b_k[c];
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out[r * n + j0..r * n + j0 + C].copy_from_slice(acc_r);
    }
}

/// One band of `R` output rows over one `k` panel: full `NR`-wide tiles,
/// then the ragged right edge through the same body at halving widths, so
/// an `n = 10` output layer is an 8 and a 2, not a scalar loop.
fn band<const R: usize>(
    a: Lhs<'_>,
    i0: usize,
    b: &[f32],
    n: usize,
    ks: Range<usize>,
    out: &mut [f32],
) {
    let mut j = 0;
    while j + NR <= n {
        tile::<R, NR>(a, i0, b, n, j, ks.clone(), out);
        j += NR;
    }
    if j + 8 <= n {
        tile::<R, 8>(a, i0, b, n, j, ks.clone(), out);
        j += 8;
    }
    if j + 4 <= n {
        tile::<R, 4>(a, i0, b, n, j, ks.clone(), out);
        j += 4;
    }
    if j + 2 <= n {
        tile::<R, 2>(a, i0, b, n, j, ks.clone(), out);
        j += 2;
    }
    if j < n {
        tile::<R, 1>(a, i0, b, n, j, ks, out);
    }
}

/// The GEMM body for one contiguous chunk of output rows: `out += a × b`
/// for the rows of the product from `first_row` on, as many as `out` (the
/// chunk itself) holds; `b` is `k_dim × n`. Panels run `k`-ascending and a
/// tile's partial sums round-trip through `out` exactly, so neither the
/// panel size nor where a chunk starts changes a bit of the result.
fn gemm_rows(a: Lhs<'_>, b: &[f32], k_dim: usize, n: usize, first_row: usize, out: &mut [f32]) {
    for kb in (0..k_dim).step_by(KC) {
        let ks = kb..(kb + KC).min(k_dim);
        let mut bands = out.chunks_exact_mut(MR * n);
        let mut i = first_row;
        for band_out in &mut bands {
            band::<MR>(a, i, b, n, ks.clone(), band_out);
            i += MR;
        }
        for row_out in bands.into_remainder().chunks_exact_mut(n) {
            band::<1>(a, i, b, n, ks.clone(), row_out);
            i += 1;
        }
    }
}

/// `out += a × b`, where `out` is `m × n` and `b` is `k_dim × n`: the one
/// product behind every entry point, its output rows split across the
/// ambient workers when there is work enough for them.
fn gemm(a: Lhs<'_>, b: &[f32], k_dim: usize, n: usize, out: &mut [f32]) {
    if out.is_empty() || k_dim == 0 {
        return;
    }
    let threads = par::degree_for(out.len() * k_dim);
    par::par_row_chunks(out, n, threads, |rows, chunk| {
        gemm_rows(a, b, k_dim, n, rows.start, chunk);
    });
}

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Flat immutable view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Select the listed rows into a new matrix (mini-batch gather).
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (o, &r) in idx.iter().enumerate() {
            out.row_mut(o).copy_from_slice(self.row(r));
        }
        out
    }

    /// `self × other`, allocating the output.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `out = self × other` reusing `out`'s buffer (see the module docs for
    /// the kernel).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        assert_eq!(out.rows, self.rows, "output rows");
        assert_eq!(out.cols, other.cols, "output cols");
        out.data.fill(0.0);
        let a = Lhs { data: &self.data, row_stride: self.cols, k_stride: 1 };
        gemm(a, &other.data, self.cols, other.cols, &mut out.data);
    }

    /// `selfᵀ × other` without materialising the transpose: the same
    /// kernel as [`Matrix::matmul_into`], reading `self` with its strides
    /// swapped.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row counts must agree for AᵀB");
        let mut out = Matrix::zeros(self.cols, other.cols);
        let a = Lhs { data: &self.data, row_stride: 1, k_stride: self.cols };
        gemm(a, &other.data, self.rows, other.cols, &mut out.data);
        out
    }

    /// `self × otherᵀ`: `otherᵀ` is packed once into a transient `k × n`
    /// buffer (so the kernel's `b` rows are contiguous) and the product is
    /// the same kernel again.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "col counts must agree for ABᵀ");
        let (k_dim, n) = (self.cols, other.rows);
        let mut packed = vec![0.0f32; k_dim * n];
        for j in 0..n {
            for (k, &v) in other.row(j).iter().enumerate() {
                packed[k * n + j] = v;
            }
        }
        let mut out = Matrix::zeros(self.rows, n);
        let a = Lhs { data: &self.data, row_stride: k_dim, k_stride: 1 };
        gemm(a, &packed, k_dim, n, &mut out.data);
        out
    }

    /// Add `bias` (len = cols) to every row in place.
    pub fn add_row_vector(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Column-wise sums (used for bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Scale every element in place.
    pub fn scale(&mut self, s: f32) {
        self.map_inplace(|v| v * s);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);

        let f = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(f.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_products_agree_with_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + 2 * c) as f32);
        let b = Matrix::from_fn(3, 2, |r, c| (2 * r + c) as f32);
        // AᵀB via t_matmul vs manual transpose
        let at = Matrix::from_fn(4, 3, |r, c| a.get(c, r));
        assert_eq!(a.t_matmul(&b), at.matmul(&b));

        let d = Matrix::from_fn(5, 4, |r, c| (r * c) as f32);
        let dt = Matrix::from_fn(4, 5, |r, c| d.get(c, r));
        assert_eq!(a.matmul_t(&d), a.matmul(&dt));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn gather_rows_picks_batch() {
        let m = Matrix::from_fn(4, 2, |r, _| r as f32);
        let g = m.gather_rows(&[3, 1]);
        assert_eq!(g.as_slice(), &[3.0, 3.0, 1.0, 1.0]);
    }

    #[test]
    fn bias_and_colsums_roundtrip() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_vector(&[1.0, -2.0]);
        assert_eq!(m.col_sums(), vec![3.0, -6.0]);
    }

    #[test]
    fn map_scale_norm() {
        let mut m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(m.norm(), 5.0);
        m.scale(2.0);
        assert_eq!(m.as_slice(), &[6.0, 8.0]);
        m.map_inplace(|v| v.max(7.0));
        assert_eq!(m.as_slice(), &[7.0, 8.0]);
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(2, 2, |r, c| (r * c) as f32);
        let mut out = Matrix::from_vec(2, 2, vec![99.0; 4]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b), "stale buffer contents must be cleared");
    }

    /// Naive f64 triple loop, the independent reference for the blocked
    /// kernel (different summation order, hence the tolerance).
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|k| a.get(i, k) as f64 * b.get(k, j) as f64).sum::<f64>() as f32
        })
    }

    #[test]
    fn blocked_gemm_matches_naive_reference_across_k_panels() {
        // k = 700 spans multiple KC-panels; n and m exercise odd sizes.
        let a = Matrix::from_fn(5, 700, |r, c| ((r * 700 + c) as f32 * 0.37).sin());
        let b = Matrix::from_fn(700, 13, |r, c| ((r + 13 * c) as f32 * 0.21).cos());
        let got = a.matmul(&b);
        let want = naive_matmul(&a, &b);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() <= 1e-3 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    /// The three loop nests the micro-kernel replaced, kept verbatim (minus
    /// their `par_row_chunks` wrappers: one chunk, all rows) as the oracle
    /// of `kernels_equal_the_loop_nests_they_replaced`.
    mod reference {
        use super::Matrix;

        const KC: usize = 256;

        fn gemm_rows(
            a: &[f32],
            b: &[f32],
            k_dim: usize,
            n: usize,
            rows: std::ops::Range<usize>,
            out: &mut [f32],
        ) {
            for kb in (0..k_dim).step_by(KC) {
                let kend = (kb + KC).min(k_dim);
                for (ri, i) in rows.clone().enumerate() {
                    let a_row = &a[i * k_dim + kb..i * k_dim + kend];
                    let out_row = &mut out[ri * n..(ri + 1) * n];
                    for (dk, &av) in a_row.iter().enumerate() {
                        if av == 0.0 {
                            continue;
                        }
                        let b_row = &b[(kb + dk) * n..(kb + dk + 1) * n];
                        for (o, &bv) in out_row.iter_mut().zip(b_row) {
                            *o += av * bv;
                        }
                    }
                }
            }
        }

        pub fn matmul(this: &Matrix, other: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(this.rows, other.cols);
            let (k_dim, n) = (this.cols, other.cols);
            gemm_rows(&this.data, &other.data, k_dim, n, 0..this.rows, &mut out.data);
            out
        }

        pub fn t_matmul(this: &Matrix, other: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(this.cols, other.cols);
            let n = other.cols;
            let (irange, chunk) = (0..this.cols, &mut out.data);
            for r in 0..this.rows {
                let a_row = this.row(r);
                let b_row = other.row(r);
                for (ri, i) in irange.clone().enumerate() {
                    let a = a_row[i];
                    if a == 0.0 {
                        continue;
                    }
                    let out_row = &mut chunk[ri * n..(ri + 1) * n];
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
            out
        }

        pub fn matmul_t(this: &Matrix, other: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(this.rows, other.rows);
            let n = other.rows;
            let (rows, chunk) = (0..this.rows, &mut out.data);
            for (ri, i) in rows.clone().enumerate() {
                let a_row = this.row(i);
                let out_row = &mut chunk[ri * n..(ri + 1) * n];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = other.row(j);
                    let mut acc = 0.0f32;
                    for (&a, &b) in a_row.iter().zip(b_row) {
                        acc += a * b;
                    }
                    *o = acc;
                }
            }
            out
        }
    }

    /// Finite values in `[-1, 1)`, one in four an exact zero of either sign.
    fn random_matrix(rows: usize, cols: usize, rng: &mut rand::rngs::StdRng) -> Matrix {
        use rand::Rng;
        Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0f32..1.0),
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn kernels_equal_the_loop_nests_they_replaced() {
        use rand::SeedableRng;
        // Around every tile and panel boundary, plus the shapes in use
        // (n = 10 output layers, the n = 13 of the test below, an odd 33).
        let mut dims = vec![0, 1, 2, MR - 1, MR + 1, NR - 1, NR + 1, 10, 13, 33, KC, KC + 1];
        dims.sort_unstable();
        dims.dedup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        for &m in &dims {
            for &k in &dims {
                for &n in &dims {
                    // Two panel-sized dimensions with a wide third only cost
                    // time (this runs unoptimised); what is left still
                    // clears `degree_for`'s floor for two and three workers.
                    if m * k * n > 1_000_000 {
                        continue;
                    }
                    let a = random_matrix(m, k, &mut rng);
                    let b = random_matrix(k, n, &mut rng);
                    let a_t = Matrix::from_fn(k, m, |r, c| a.get(c, r));
                    let b_t = Matrix::from_fn(n, k, |r, c| b.get(c, r));
                    let want = [
                        bits(&reference::matmul(&a, &b)),
                        bits(&reference::t_matmul(&a_t, &b)),
                        bits(&reference::matmul_t(&a, &b_t)),
                    ];
                    assert_eq!(want[0], want[2], "the oracles agree among themselves");
                    for threads in 1..=3 {
                        let got = crate::par::with_threads(threads, || {
                            [a.matmul(&b), a_t.t_matmul(&b), a.matmul_t(&b_t)]
                        });
                        for (name, got, want) in [
                            ("matmul", &got[0], &want[0]),
                            ("t_matmul", &got[1], &want[1]),
                            ("matmul_t", &got[2], &want[2]),
                        ] {
                            assert_eq!((got.rows(), got.cols()), (m, n));
                            assert!(bits(got) == *want, "{name} {m}x{k}x{n}, {threads} threads");
                        }
                        // `degree_for` keeps small products on one thread;
                        // split these rows regardless, so a chunk starts
                        // on every row a tile can.
                        if n > 0 && threads > 1 {
                            let lhs = Lhs { data: &a.data, row_stride: k, k_stride: 1 };
                            let mut out = vec![0.0f32; m * n];
                            crate::par::par_row_chunks(&mut out, n, threads, |rows, chunk| {
                                gemm_rows(lhs, &b.data, k, n, rows.start, chunk);
                            });
                            let out = Matrix::from_vec(m, n, out);
                            assert!(bits(&out) == want[0], "split {m}x{k}x{n}, {threads} chunks");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_times_infinity_is_nan_where_the_old_kernels_skipped_it() {
        // The one documented difference (module docs): the replaced loops
        // skipped a zero of `A` before multiplying; a register tile cannot,
        // so a non-finite partner now propagates as IEEE 754 says.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::INFINITY, 2.0]);
        assert_eq!(reference::matmul(&a, &b).as_slice(), &[2.0]);
        assert!(a.matmul(&b).get(0, 0).is_nan());
        let a_t = Matrix::from_vec(2, 1, vec![0.0, 1.0]);
        assert_eq!(reference::t_matmul(&a_t, &b).as_slice(), &[2.0]);
        assert!(a_t.t_matmul(&b).get(0, 0).is_nan());
        // `matmul_t` never skipped: NaN before and after.
        let b_t = Matrix::from_vec(1, 2, vec![f32::INFINITY, 2.0]);
        assert!(reference::matmul_t(&a, &b_t).get(0, 0).is_nan());
        assert!(a.matmul_t(&b_t).get(0, 0).is_nan());
    }

    #[test]
    fn parallel_kernels_are_bit_identical_to_serial() {
        // Big enough to clear par::degree_for's work floor, so threads > 1
        // genuinely take the scoped-worker path.
        let a = Matrix::from_fn(96, 300, |r, c| ((r * 300 + c) as f32 * 0.13).sin());
        let b = Matrix::from_fn(300, 96, |r, c| ((r + 300 * c) as f32 * 0.29).cos());
        let bt = Matrix::from_fn(96, 300, |r, c| b.get(c, r));
        let serial = crate::par::with_threads(1, || {
            (a.matmul(&b), a.matmul_t(&bt), a.t_matmul(&a.matmul(&b)))
        });
        for threads in [2usize, 3, 8] {
            let par = crate::par::with_threads(threads, || {
                (a.matmul(&b), a.matmul_t(&bt), a.t_matmul(&a.matmul(&b)))
            });
            assert_eq!(par.0, serial.0, "matmul, {threads} threads");
            assert_eq!(par.1, serial.1, "matmul_t, {threads} threads");
            assert_eq!(par.2, serial.2, "t_matmul, {threads} threads");
        }
    }

    #[test]
    fn degenerate_shapes_survive_every_thread_count() {
        for threads in [1usize, 2, 5] {
            crate::par::with_threads(threads, || {
                // 1×N, N×1, k=1 and empty-ish extremes.
                let row = Matrix::from_fn(1, 7, |_, c| c as f32);
                let col = Matrix::from_fn(7, 1, |r, _| r as f32);
                assert_eq!(row.matmul(&col).as_slice(), &[91.0]);
                let outer = col.matmul(&row);
                assert_eq!((outer.rows(), outer.cols()), (7, 7));
                assert_eq!(outer.get(3, 2), 6.0);
                assert_eq!(row.matmul_t(&row).as_slice(), &[91.0]);
                let gram = col.t_matmul(&col);
                assert_eq!(gram.as_slice(), &[91.0]);
                let empty = Matrix::zeros(0, 4).matmul(&Matrix::zeros(4, 3));
                assert_eq!((empty.rows(), empty.cols()), (0, 3));
            });
        }
    }
}
