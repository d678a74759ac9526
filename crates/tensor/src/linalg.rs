//! Matrix products and the graph-specific matrix helpers used by Eq. (1).
//!
//! Besides the [`Tensor`] methods, this module exposes the register-tiled
//! kernels of [`crate::simd`] as slice-level GEMM entry points
//! ([`gemm_into`], [`gemm_nt_into`], [`gemm_nt_strided_into`],
//! [`gemm_tn_into`]) so callers that manage their own buffers — the
//! im2col convolution lowering with its pooled workspace — can run the
//! same deterministic kernels without materializing `Tensor` temporaries
//! or explicit transposes. Every entry point runs the instance
//! [`crate::simd::isa`] chose for this process; results are bitwise
//! the same whichever it is.

use crate::simd;
use crate::tensor::Tensor;

/// `out += a @ b` on raw row-major slices: `a` is `(m, k)`, `b` is
/// `(k, n)`, `out` is `(m, n)`.
///
/// This is the register-tiled kernel behind [`Tensor::matmul`]
/// ([`crate::simd::gemm`] on the process's [`crate::simd::isa`]): each
/// output element accumulates `(a0*b0 + a1*b1) + (a2*b2 + a3*b3)` per
/// group of four `k`, then one `a*b` per remaining `k`, a function of the
/// element's `(i, j)` position alone — no data-dependent branches, in
/// particular no zero skipping — so results are bitwise reproducible run
/// to run and across instruction sets. Because each output element's
/// accumulation chain depends only on its own row of `a` and column of
/// `b`, row-stacking or column-concatenating independent operands
/// (batched execution) leaves every element bitwise unchanged.
///
/// Note this *accumulates* into `out`, which lets callers pre-initialize
/// it with a bias term for free.
///
/// # Panics
///
/// Panics if any slice length disagrees with its `(m, k, n)` dimensions.
pub fn gemm_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    simd::gemm(simd::isa(), m, k, n, a, b, out);
}

/// `out += a @ bᵀ` on raw row-major slices: `a` is `(m, k)`, `b` is
/// `(n, k)`, `out` is `(m, n)` — the second operand is consumed
/// *transposed* without materializing the transpose.
///
/// Each output element is one [`Tensor::dot`] of an `a` row against a `b`
/// row, with its eight-lane grouping and fixed summation tree, so results
/// are bitwise reproducible. This is the `gA = gOut · Bᵀ` product of a
/// matmul's backward; [`gemm_nt_strided_into`] is the same kernel over
/// rows that sit inside wider matrices.
///
/// # Panics
///
/// Panics if any slice length disagrees with its `(m, k, n)` dimensions.
pub fn gemm_nt_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt_into: a length mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt_into: b length mismatch");
    simd::gemm_nt(simd::isa(), m, k, n, a, k, b, k, out);
}

/// [`gemm_nt_into`] over strided rows: row `i` of `a` is
/// `a[i*lda..i*lda + k]` and row `j` of `b` is `b[j*ldb..j*ldb + k]`.
///
/// This is how the convolution weight gradient `gW = gOut · colsᵀ` reads
/// one sample's column range of `gOut` and of the im2col buffer in place,
/// with the same per-element chain as copying those rows out first.
///
/// # Panics
///
/// Panics if a stride is shorter than `k`, a slice is too short for its
/// strided rows, or `out` is not `m * n` long.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_strided_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
) {
    simd::gemm_nt(simd::isa(), m, k, n, a, lda, b, ldb, out);
}

/// `out += aᵀ @ b` on raw row-major slices: `a` is `(k, m)`, `b` is
/// `(k, n)`, `out` is `(m, n)` — the first operand is consumed
/// *transposed* without materializing the transpose.
///
/// Each output element accumulates `a[p, i] * b[p, j]` one `p` at a time,
/// in `p` order, a fixed function of the shapes, so results are bitwise
/// reproducible. This is the input-gradient product of the im2col
/// lowering (`gCols = Wᵀ·gOut`).
///
/// # Panics
///
/// Panics if any slice length disagrees with its `(m, k, n)` dimensions.
pub fn gemm_tn_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    simd::gemm_tn(simd::isa(), m, k, n, a, b, out);
}

impl Tensor {
    /// Matrix product `self @ other`.
    ///
    /// This is the hot dense operation of the reproduction: every graph
    /// convolution layer computes `Z W` through it, and the MLP head is
    /// built on it. It delegates to the register-tiled [`gemm_into`]
    /// kernel, so it inherits its vectorization and its determinism
    /// contract (fixed accumulation order, no data-dependent branches —
    /// in particular no zero skipping — so results are bitwise
    /// reproducible run to run).
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are rank 2 with compatible inner
    /// dimensions.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        let mut out = Tensor::zeros([m, n]);
        gemm_into(m, k, n, self.as_slice(), other.as_slice(), out.as_mut_slice());
        out
    }

    /// Matrix–vector product, treating `v` as a column vector.
    ///
    /// Each row reduction goes through the chunked [`Tensor::dot`], so it
    /// inherits its eight-accumulator vectorization and fixed summation
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank 2 or dimensions disagree.
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        let (m, k) = (self.rows(), self.cols());
        assert_eq!(k, v.len(), "matvec dimension mismatch");
        let a = self.as_slice();
        (0..m)
            .map(|i| Tensor::dot(&a[i * k..(i + 1) * k], v))
            .collect()
    }

    /// Scales each row `i` by `factors[i]`. This implements the
    /// row-normalization `D̂⁻¹ (·)` of Eq. (1) without materializing the
    /// diagonal matrix.
    ///
    /// # Panics
    ///
    /// Panics if `factors.len()` differs from the row count.
    pub fn scale_rows(&self, factors: &[f32]) -> Tensor {
        assert_eq!(factors.len(), self.rows(), "row factor count mismatch");
        let cols = self.cols();
        let mut out = self.clone();
        for (i, &f) in factors.iter().enumerate() {
            for x in &mut out.as_mut_slice()[i * cols..(i + 1) * cols] {
                *x *= f;
            }
        }
        out
    }

    /// Outer product of two vectors: `a (m) ⊗ b (n) -> (m, n)`.
    ///
    /// Each output row is written through a slice in one pass rather than
    /// with per-element bounds-checked stores.
    pub fn outer(a: &[f32], b: &[f32]) -> Tensor {
        let n = b.len();
        let mut out = Tensor::zeros([a.len(), n]);
        if n == 0 {
            return out;
        }
        for (row, &ai) in out.as_mut_slice().chunks_exact_mut(n).zip(a) {
            for (oj, &bj) in row.iter_mut().zip(b) {
                *oj = ai * bj;
            }
        }
        out
    }

    /// Frobenius (elementwise L2) norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.as_slice().iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Dot product of two equal-length slices.
    ///
    /// Delegates to the 8-lane [`crate::simd::dot_span`]: eight
    /// independent partial sums (breaking the serial dependence so the
    /// loop autovectorizes) combined in a fixed pairwise tree with a
    /// sequential scalar tail. The order is fixed, so the result is
    /// bitwise reproducible.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        simd::dot_span(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Tensor::eye(3)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_bad_dims() {
        Tensor::zeros([2, 3]).matmul(&Tensor::zeros([2, 3]));
    }

    #[test]
    fn matmul_rectangular_shapes() {
        let a = Tensor::ones([1, 4]);
        let b = Tensor::ones([4, 5]);
        let c = a.matmul(&b);
        assert_eq!(c.shape().dims(), &[1, 5]);
        assert!(c.as_slice().iter().all(|&x| x == 4.0));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = a.matvec(&[1.0, -1.0]);
        assert_eq!(v, vec![-1.0, -1.0]);
    }

    #[test]
    fn scale_rows_normalizes() {
        let a = Tensor::from_rows(&[&[2.0, 4.0], &[3.0, 9.0]]);
        let s = a.scale_rows(&[0.5, 1.0 / 3.0]);
        assert_eq!(s.row(0), &[1.0, 2.0]);
        assert_eq!(s.row(1), &[1.0, 3.0]);
    }

    #[test]
    fn outer_product_shape_and_values() {
        let o = Tensor::outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(o.shape().dims(), &[2, 3]);
        assert_eq!(o.row(1), &[6.0, 8.0, 10.0]);
    }

    #[test]
    fn frobenius_norm_is_l2() {
        let a = Tensor::from_slice(&[3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn dot_product() {
        assert_eq!(Tensor::dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    /// Textbook ijk triple loop, kept as an independent oracle for the
    /// blocked kernel.
    fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for p in 0..k {
                    s += f64::from(a.get2(i, p)) * f64::from(b.get2(p, j));
                }
                out.set2(i, j, s as f32);
            }
        }
        out
    }

    #[test]
    fn blocked_kernel_matches_reference_on_remainder_shapes() {
        // Shapes chosen so both the k-unroll (k % 4 != 0) and the j-tile
        // (n % 4 != 0) remainder paths run.
        let mut rng = crate::Rng64::new(99);
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (4, 4, 4), (6, 9, 2), (2, 16, 13), (5, 3, 4)] {
            let a = Tensor::rand_uniform([m, k], -2.0, 2.0, &mut rng);
            let b = Tensor::rand_uniform([k, n], -2.0, 2.0, &mut rng);
            let got = a.matmul(&b);
            let want = matmul_reference(&a, &b);
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((g - w).abs() < 1e-4, "({m},{k},{n}): {g} vs {w}");
            }
        }
    }

    #[test]
    fn matmul_is_bitwise_deterministic() {
        let mut rng = crate::Rng64::new(7);
        let a = Tensor::rand_uniform([9, 17], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([17, 11], -1.0, 1.0, &mut rng);
        let first = a.matmul(&b);
        for _ in 0..3 {
            assert_eq!(first, a.matmul(&b), "accumulation order must be fixed");
        }
    }

    #[test]
    fn matmul_does_not_skip_zero_rows() {
        // Zeros in A must flow through the same accumulation path as any
        // other value (the old kernel branched on them).
        let a = Tensor::from_rows(&[&[0.0, 0.0, 2.0, 0.0, 1.0]]);
        let b = Tensor::from_rows(&[&[1.0], &[10.0], &[100.0], &[1000.0], &[10000.0]]);
        assert_eq!(a.matmul(&b).as_slice(), &[10200.0]);
    }

    #[test]
    fn dot_remainder_lengths() {
        for len in 0..9usize {
            let a: Vec<f32> = (0..len).map(|i| i as f32 + 1.0).collect();
            let want: f32 = a.iter().map(|x| x * x).sum();
            assert_eq!(Tensor::dot(&a, &a), want, "len {len}");
        }
    }

    #[test]
    fn outer_with_empty_operands() {
        assert_eq!(Tensor::outer(&[1.0, 2.0], &[]).shape().dims(), &[2, 0]);
        assert_eq!(Tensor::outer(&[], &[1.0]).shape().dims(), &[0, 1]);
    }

    #[test]
    fn gemm_into_accumulates_on_top_of_existing_values() {
        // out pre-seeded with a "bias": gemm must add, not overwrite.
        let a = [1.0, 2.0, 3.0, 4.0]; // (2, 2)
        let b = [1.0, 0.0, 0.0, 1.0]; // identity
        let mut out = [10.0, 20.0, 30.0, 40.0];
        gemm_into(2, 2, 2, &a, &b, &mut out);
        assert_eq!(out, [11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn gemm_nt_matches_matmul_with_explicit_transpose() {
        let mut rng = crate::Rng64::new(3);
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (4, 4, 4), (2, 13, 6), (5, 3, 4)] {
            let a = Tensor::rand_uniform([m, k], -2.0, 2.0, &mut rng);
            let bt = Tensor::rand_uniform([n, k], -2.0, 2.0, &mut rng);
            let mut out = vec![0.0; m * n];
            gemm_nt_into(m, k, n, a.as_slice(), bt.as_slice(), &mut out);
            let want = a.matmul(&bt.transpose());
            for (g, w) in out.iter().zip(want.as_slice()) {
                assert!((g - w).abs() < 1e-4, "nt ({m},{k},{n}): {g} vs {w}");
            }
        }
    }

    #[test]
    fn gemm_tn_matches_matmul_with_explicit_transpose() {
        let mut rng = crate::Rng64::new(5);
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (4, 4, 4), (2, 13, 6), (5, 3, 4)] {
            let at = Tensor::rand_uniform([k, m], -2.0, 2.0, &mut rng);
            let b = Tensor::rand_uniform([k, n], -2.0, 2.0, &mut rng);
            let mut out = vec![0.0; m * n];
            gemm_tn_into(m, k, n, at.as_slice(), b.as_slice(), &mut out);
            let want = at.transpose().matmul(&b);
            for (g, w) in out.iter().zip(want.as_slice()) {
                assert!((g - w).abs() < 1e-4, "tn ({m},{k},{n}): {g} vs {w}");
            }
        }
    }

    #[test]
    fn transpose_gemms_are_bitwise_deterministic() {
        let mut rng = crate::Rng64::new(11);
        let a = Tensor::rand_uniform([9, 17], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([9, 13], -1.0, 1.0, &mut rng);
        let run_nt = || {
            let mut out = vec![0.0; 17 * 13];
            // aᵀ (17,9) @ b (9,13) via tn; a (9,17) rows dotted via nt below.
            gemm_tn_into(17, 9, 13, a.as_slice(), b.as_slice(), &mut out);
            out
        };
        let first = run_nt();
        for _ in 0..3 {
            assert_eq!(first, run_nt(), "accumulation order must be fixed");
        }
        let run_tn = || {
            let mut out = vec![0.0; 9 * 9];
            gemm_nt_into(9, 17, 9, a.as_slice(), a.as_slice(), &mut out);
            out
        };
        let first = run_tn();
        for _ in 0..3 {
            assert_eq!(first, run_tn(), "accumulation order must be fixed");
        }
    }

    #[test]
    fn matmul_associativity_on_random_matrices() {
        let mut rng = crate::Rng64::new(17);
        let a = Tensor::rand_uniform([4, 5], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([5, 3], -1.0, 1.0, &mut rng);
        let c = Tensor::rand_uniform([3, 2], -1.0, 1.0, &mut rng);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(left.approx_eq(&right, 1e-4));
    }
}
