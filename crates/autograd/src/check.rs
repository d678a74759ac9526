//! Finite-difference gradient checking.
//!
//! Every layer in `magic-nn` validates its analytic gradients against the
//! central-difference approximations produced here; the same utilities are
//! exposed so downstream models can check their full pipelines.

use magic_tensor::Tensor;

/// Central-difference gradient of `f` with respect to `input`.
///
/// `f` must be a deterministic scalar function of the input tensor.
/// Complexity is two evaluations of `f` per element — use small tensors.
pub fn finite_difference_gradient(
    input: &Tensor,
    eps: f32,
    mut f: impl FnMut(&Tensor) -> f32,
) -> Tensor {
    let mut grad = Tensor::zeros(input.shape().clone());
    for i in 0..input.len() {
        let mut plus = input.clone();
        plus.as_mut_slice()[i] += eps;
        let mut minus = input.clone();
        minus.as_mut_slice()[i] -= eps;
        grad.as_mut_slice()[i] = (f(&plus) - f(&minus)) / (2.0 * eps);
    }
    grad
}

/// First element at which two tensors differ in exact bit pattern, if
/// any.
///
/// Gradient-path refactors (e.g. moving accumulation from a single store
/// onto per-worker buffers) are required to be *bitwise* no-ops, and a
/// plain float `==` cannot check that: it accepts `-0.0 == 0.0` and
/// rejects `NaN == NaN`. Comparing the `f32` bit patterns does exactly
/// what the determinism contract demands.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn first_bitwise_mismatch(a: &Tensor, b: &Tensor) -> Option<usize> {
    assert_eq!(
        a.shape(),
        b.shape(),
        "tensor shapes differ: {} vs {}",
        a.shape(),
        b.shape()
    );
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .position(|(x, y)| x.to_bits() != y.to_bits())
}

/// Largest absolute elementwise difference between an analytic gradient and
/// its finite-difference estimate, normalized by `1 + |numeric|` so the
/// tolerance is meaningful across magnitudes.
pub fn max_grad_error(analytic: &Tensor, numeric: &Tensor) -> f32 {
    assert_eq!(
        analytic.shape(),
        numeric.shape(),
        "gradient shapes differ: {} vs {}",
        analytic.shape(),
        numeric.shape()
    );
    analytic
        .as_slice()
        .iter()
        .zip(numeric.as_slice())
        .map(|(a, n)| (a - n).abs() / (1.0 + n.abs()))
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tape, Var};
    use magic_tensor::Rng64;
    use std::sync::Arc;

    /// Helper: checks the tape gradient of `build` (which must create a
    /// scalar loss from a single leaf) against finite differences.
    fn check_op(input: Tensor, build: impl Fn(&mut Tape, crate::Var) -> crate::Var) {
        let mut tape = Tape::new();
        let x = tape.leaf(input.clone(), true);
        let loss = build(&mut tape, x);
        tape.backward(loss);
        let analytic = tape.grad(x).expect("input should have a gradient").clone();

        let numeric = finite_difference_gradient(&input, 1e-2, |t| {
            let mut tape = Tape::new();
            let x = tape.leaf(t.clone(), false);
            let loss = build(&mut tape, x);
            tape.value(loss).item()
        });
        let err = max_grad_error(&analytic, &numeric);
        assert!(err < 2e-2, "gradient mismatch: {err}");
    }

    /// Per-sample 2-D map extents for a batch of one and a batch of three.
    const MAP_BATCHES: [&[(usize, usize)]; 2] = [&[(5, 4)], &[(5, 4), (3, 3), (4, 6)]];

    #[test]
    fn grad_check_matmul_chain() {
        let mut rng = Rng64::new(10);
        let input = Tensor::rand_uniform([3, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform([4, 2], -1.0, 1.0, &mut rng);
        check_op(input, move |tape, x| {
            let wv = tape.leaf(w.clone(), false);
            let y = tape.matmul(x, wv);
            let r = tape.relu(y);
            tape.sum(r)
        });
    }

    #[test]
    fn grad_check_log_softmax_nll() {
        let mut rng = Rng64::new(12);
        let input = Tensor::rand_uniform([4, 3], -1.0, 1.0, &mut rng);
        check_op(input, |tape, x| {
            let lp = tape.log_softmax_rows(x);
            let rows = tape.nll_loss_rows(lp, vec![0, 2, 1, 1]);
            tape.sum(rows)
        });
    }

    #[test]
    fn grad_check_spmm_norm() {
        use magic_tensor::CsrMatrix;

        let mut rng = Rng64::new(19);
        let (paper, paper_inv) = CsrMatrix::augmented_from_edges(
            5,
            [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 1), (4, 4)],
        );
        let (chain, chain_inv) = CsrMatrix::augmented_from_edges(3, [(0, 1), (1, 2)]);
        // A batch of one, then the block diagonal of a batch of three.
        for blocks in [vec![(&paper, &paper_inv)], vec![(&paper, &paper_inv), (&chain, &chain_inv), (&paper, &paper_inv)]] {
            let mats: Vec<&CsrMatrix> = blocks.iter().map(|&(m, _)| m).collect();
            let adj = Arc::new(CsrMatrix::block_diagonal(&mats));
            let adj_t = Arc::new(adj.transpose());
            let inv: Arc<Vec<f32>> =
                Arc::new(blocks.iter().flat_map(|&(_, d)| d.iter().copied()).collect());
            let input = Tensor::rand_uniform([adj.rows(), 3], -1.0, 1.0, &mut rng);
            check_op(input, move |tape, x| {
                let y = tape.spmm_norm(adj.clone(), adj_t.clone(), inv.clone(), x);
                let sq = tape.mul(y, y);
                tape.sum(sq)
            });
        }
    }

    #[test]
    fn grad_check_scale_rows_and_concat() {
        let mut rng = Rng64::new(13);
        let input = Tensor::rand_uniform([3, 2], -1.0, 1.0, &mut rng);
        check_op(input, |tape, x| {
            let a = tape.scale_rows(x, vec![0.5, 1.5, -1.0]);
            let b = tape.relu(x);
            let c = tape.concat_cols(&[a, b]);
            tape.sum(c)
        });
    }

    #[test]
    fn grad_check_gather_pad_pipeline() {
        let mut rng = Rng64::new(14);
        let input = Tensor::rand_uniform([4, 3], -1.0, 1.0, &mut rng);
        check_op(input, |tape, x| {
            let p = tape.gather_rows_pad(x, vec![3, 1, 1, usize::MAX, usize::MAX]);
            let sq = tape.mul(p, p);
            tape.sum(sq)
        });
    }

    /// The SortPooling head's 1-D convolution: `(c_out, c_in, k)` weights
    /// along the rows of `(rows, k)` maps, unpadded — one output per row.
    #[test]
    fn grad_check_conv1d() {
        let mut rng = Rng64::new(15);
        for batch in [1, 3] {
            let input = Tensor::rand_uniform([2, 8 * batch], -1.0, 1.0, &mut rng);
            let w = Tensor::rand_uniform([3, 2, 2], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform([3], -0.5, 0.5, &mut rng);
            let dims = Arc::new(vec![(4, 2); batch]);
            check_op(input, move |tape, x| {
                let wv = tape.leaf(w.clone(), false);
                let bv = tape.leaf(b.clone(), false);
                let y = tape.conv2d(x, wv, bv, 0, Arc::clone(&dims));
                let r = tape.relu(y);
                tape.sum(r)
            });
        }
    }

    #[test]
    fn grad_check_conv2d_input() {
        // Padded conv over maps of different extents: exercises
        // the per-sample col2im scatter.
        let mut rng = Rng64::new(21);
        let w = Tensor::rand_uniform([3, 2, 3, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([3], -0.5, 0.5, &mut rng);
        for dims in MAP_BATCHES {
            let total: usize = dims.iter().map(|&(h, w)| h * w).sum();
            let input = Tensor::rand_uniform([2, total], -1.0, 1.0, &mut rng);
            let (w, b) = (w.clone(), b.clone());
            let dims = Arc::new(dims.to_vec());
            check_op(input, move |tape, x| {
                let wv = tape.leaf(w.clone(), false);
                let bv = tape.leaf(b.clone(), false);
                let y = tape.conv2d(x, wv, bv, 1, Arc::clone(&dims));
                // Square instead of ReLU: smooth everywhere, so the
                // central difference cannot straddle an activation kink.
                let sq = tape.mul(y, y);
                tape.sum(sq)
            });
        }
    }

    /// Checks the gradient w.r.t. the `(2, 1, 3, 3)` weights of a 2-D
    /// conv op `conv(tape, x, w, b, dims)` summed to a scalar, at B = 1
    /// and B = 3. The weight gradient is unstacked per sample and chained
    /// in sample order.
    fn check_conv2d_weights(seed: u64, conv: impl Fn(&mut Tape, Var, Var, Var, Arc<Vec<(usize, usize)>>) -> Var) {
        let mut rng = Rng64::new(seed);
        let w0 = Tensor::rand_uniform([2, 1, 3, 3], -1.0, 1.0, &mut rng);
        for dims in MAP_BATCHES {
            let total: usize = dims.iter().map(|&(h, w)| h * w).sum();
            let x = Tensor::rand_uniform([1, total], -1.0, 1.0, &mut rng);
            let dims = Arc::new(dims.to_vec());
            let loss = |tape: &mut Tape, w: Tensor, requires_grad: bool| {
                let xv = tape.leaf(x.clone(), false);
                let wv = tape.leaf(w, requires_grad);
                let b = tape.leaf(Tensor::zeros([2]), false);
                let y = conv(tape, xv, wv, b, Arc::clone(&dims));
                (wv, tape.sum(y))
            };
            let mut tape = Tape::new();
            let (wv, s) = loss(&mut tape, w0.clone(), true);
            tape.backward(s);
            let analytic = tape.grad(wv).unwrap().clone();

            let numeric = finite_difference_gradient(&w0, 1e-2, |w| {
                let mut tape = Tape::new();
                let (_, s) = loss(&mut tape, w.clone(), false);
                tape.value(s).item()
            });
            assert!(max_grad_error(&analytic, &numeric) < 2e-2, "{} maps", dims.len());
        }
    }

    #[test]
    fn grad_check_conv2d_weights() {
        check_conv2d_weights(16, |tape, x, w, b, dims| tape.conv2d(x, w, b, 1, dims));
    }

    #[test]
    fn grad_check_conv2d_relu_amp_weights() {
        check_conv2d_weights(17, |tape, x, w, b, dims| tape.conv2d_relu_amp(x, w, b, 1, dims, (2, 3)));
    }

    #[test]
    fn grad_check_adaptive_max_pool() {
        // The fused conv → relu → AMP block, w.r.t. its input; the
        // gradient reaches the input only through the pool winners.
        let mut rng = Rng64::new(22);
        let w = Tensor::rand_uniform([2, 1, 3, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::from_slice(&[0.2, -0.1]);
        for dims in MAP_BATCHES {
            // Distinct values so the winners are stable under the epsilon nudge.
            let total: usize = dims.iter().map(|&(h, w)| h * w).sum();
            let mut input = Tensor::zeros([1, total]);
            for (i, v) in input.as_mut_slice().iter_mut().enumerate() {
                *v = (i as f32 * 0.731).sin() * 3.0;
            }
            let (w, b) = (w.clone(), b.clone());
            let dims = Arc::new(dims.to_vec());
            check_op(input, move |tape, x| {
                let wv = tape.leaf(w.clone(), false);
                let bv = tape.leaf(b.clone(), false);
                let p = tape.conv2d_relu_amp(x, wv, bv, 1, Arc::clone(&dims), (2, 3));
                tape.sum(p)
            });
        }
    }

    #[test]
    fn grad_check_maxpool1d() {
        for batch in [1, 3] {
            let mut input = Tensor::zeros([2, 8 * batch]);
            for (i, v) in input.as_mut_slice().iter_mut().enumerate() {
                *v = ((i * 7 + 3) % 11) as f32;
            }
            check_op(input, |tape, x| {
                let p = tape.max_pool1d(x, 2, 8);
                tape.sum(p)
            });
        }
    }

    #[test]
    fn grad_check_add_bias() {
        let mut rng = Rng64::new(18);
        let input = Tensor::rand_uniform([4, 2], -1.0, 1.0, &mut rng);
        let bias = Tensor::rand_uniform([2], -1.0, 1.0, &mut rng);
        check_op(input, move |tape, x| {
            let b = tape.leaf(bias.clone(), false);
            let y = tape.add_bias(x, b);
            let sq = tape.mul(y, y);
            tape.sum(sq)
        });
    }

    #[test]
    fn max_grad_error_is_zero_for_equal_tensors() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(max_grad_error(&t, &t), 0.0);
    }

    #[test]
    fn bitwise_mismatch_distinguishes_what_float_eq_cannot() {
        let a = Tensor::from_slice(&[1.0, 0.0, 3.0]);
        assert_eq!(first_bitwise_mismatch(&a, &a), None);
        let b = Tensor::from_slice(&[1.0, -0.0, 3.0]);
        // -0.0 == 0.0 under float comparison, but the bits differ.
        assert_eq!(first_bitwise_mismatch(&a, &b), Some(1));
        let n = Tensor::from_slice(&[f32::NAN, 0.0, 3.0]);
        // Same NaN payload compares as identical bits.
        assert_eq!(first_bitwise_mismatch(&n, &n), None);
        // One ULP apart: far below any plausible approx-eq tolerance.
        let c = Tensor::from_slice(&[1.0, 0.0, f32::from_bits(3.0f32.to_bits() + 1)]);
        assert_eq!(first_bitwise_mismatch(&a, &c), Some(2));
    }
}
