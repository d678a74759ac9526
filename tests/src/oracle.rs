//! Reference oracles for parity tests: the scalar-loop convolution
//! kernels, the dense `Â` graph convolution, and span-order scalar
//! versions of the register-tiled GEMM and SpMM kernels.
//!
//! None of these run in production. The convolution and graph oracles are
//! the straightforward definitions the production kernels (im2col + GEMM
//! convolution over a column-stacked batch, fused CSR propagation over a
//! block-diagonal batch) are checked against, to float-reassociation
//! tolerance: the loop orders differ, so agreement is close, not bitwise.
//! The `*_span_order` kernels instead spell out, one element at a time,
//! the exact accumulation chain `magic_tensor::simd` promises, so the
//! tiled kernels must match them bitwise.

// The loops index by channel on purpose: they spell out the definitions.
#![allow(clippy::needless_range_loop)]

use magic_autograd::{Tape, Var};
use magic_tensor::Tensor;

/// Naive 1-D convolution of one `(c_in, len)` signal by `(c_out, c_in, k)`
/// weights plus a `c_out` bias. Returns `(c_out, out_len)`.
pub fn conv1d_forward(x: &Tensor, w: &Tensor, b: &[f32], stride: usize) -> Tensor {
    let (c_in, len) = (x.rows(), x.cols());
    let (c_out, k) = (w.shape().dim(0), w.shape().dim(2));
    assert_eq!(w.shape().dim(1), c_in, "weight/input channel mismatch");
    let out_len = (len - k) / stride + 1;
    let mut out = Tensor::zeros([c_out, out_len]);
    let ws = w.as_slice();
    for o in 0..c_out {
        for t in 0..out_len {
            let mut acc = b[o];
            for ci in 0..c_in {
                for j in 0..k {
                    acc += ws[(o * c_in + ci) * k + j] * x.get2(ci, t * stride + j);
                }
            }
            out.set2(o, t, acc);
        }
    }
    out
}

/// Naive backward of [`conv1d_forward`] for upstream gradient `gout`.
/// Returns `(gx, gw, gb)`.
pub fn conv1d_backward(
    x: &Tensor,
    w: &Tensor,
    stride: usize,
    gout: &Tensor,
) -> (Tensor, Tensor, Vec<f32>) {
    let (c_in, len) = (x.rows(), x.cols());
    let (c_out, k) = (w.shape().dim(0), w.shape().dim(2));
    let out_len = gout.cols();
    let mut gx = Tensor::zeros([c_in, len]);
    let mut gw = Tensor::zeros(w.shape().clone());
    let mut gb = vec![0.0; c_out];
    for o in 0..c_out {
        for t in 0..out_len {
            let g = gout.get2(o, t);
            gb[o] += g;
            for ci in 0..c_in {
                for j in 0..k {
                    let xi = t * stride + j;
                    let w_off = (o * c_in + ci) * k + j;
                    gw.as_mut_slice()[w_off] += g * x.get2(ci, xi);
                    gx.as_mut_slice()[ci * len + xi] += g * w.as_slice()[w_off];
                }
            }
        }
    }
    (gx, gw, gb)
}

/// Naive zero-padded 2-D convolution of one `(c_in, h·w)` map of extent
/// `(h, w)` by `(c_out, c_in, kh, kw)` weights plus a `c_out` bias.
/// Returns `(c_out, oh·ow)` and the output extent.
pub fn conv2d_forward(
    x: &Tensor,
    (h, w): (usize, usize),
    wt: &Tensor,
    b: &[f32],
    stride: usize,
    pad: usize,
) -> (Tensor, (usize, usize)) {
    let c_in = x.rows();
    let (c_out, kh, kw) = (wt.shape().dim(0), wt.shape().dim(2), wt.shape().dim(3));
    let (oh, ow) = ((h + 2 * pad - kh) / stride + 1, (w + 2 * pad - kw) / stride + 1);
    let mut out = Tensor::zeros([c_out, oh * ow]);
    for o in 0..c_out {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = b[o];
                for_each_tap(c_in, (h, w), (kh, kw), stride, pad, (oy, ox), |ci, x_off, w_off| {
                    acc += wt.as_slice()[o * c_in * kh * kw + ci * kh * kw + w_off]
                        * x.get2(ci, x_off);
                });
                out.set2(o, oy * ow + ox, acc);
            }
        }
    }
    (out, (oh, ow))
}

/// Naive backward of [`conv2d_forward`]. Returns `(gx, gw, gb)`.
pub fn conv2d_backward(
    x: &Tensor,
    (h, w): (usize, usize),
    wt: &Tensor,
    stride: usize,
    pad: usize,
    gout: &Tensor,
    (oh, ow): (usize, usize),
) -> (Tensor, Tensor, Vec<f32>) {
    let c_in = x.rows();
    let (c_out, kh, kw) = (wt.shape().dim(0), wt.shape().dim(2), wt.shape().dim(3));
    let mut gx = Tensor::zeros([c_in, h * w]);
    let mut gw = Tensor::zeros(wt.shape().clone());
    let mut gb = vec![0.0; c_out];
    for o in 0..c_out {
        for oy in 0..oh {
            for ox in 0..ow {
                let g = gout.get2(o, oy * ow + ox);
                gb[o] += g;
                for_each_tap(c_in, (h, w), (kh, kw), stride, pad, (oy, ox), |ci, x_off, w_off| {
                    let w_off = o * c_in * kh * kw + ci * kh * kw + w_off;
                    gw.as_mut_slice()[w_off] += g * x.get2(ci, x_off);
                    gx.as_mut_slice()[ci * h * w + x_off] += g * wt.as_slice()[w_off];
                });
            }
        }
    }
    (gx, gw, gb)
}

/// Visits every in-bounds tap of output cell `(oy, ox)`: calls `f` with
/// the input channel, the flat input offset within the channel, and the
/// flat `(dy, dx)` kernel offset within the channel's kernel.
fn for_each_tap(
    c_in: usize,
    (h, w): (usize, usize),
    (kh, kw): (usize, usize),
    stride: usize,
    pad: usize,
    (oy, ox): (usize, usize),
    mut f: impl FnMut(usize, usize, usize),
) {
    for ci in 0..c_in {
        for dy in 0..kh {
            let iy = (oy * stride + dy) as isize - pad as isize;
            if iy < 0 || iy >= h as isize {
                continue;
            }
            for dx in 0..kw {
                let ix = (ox * stride + dx) as isize - pad as isize;
                if ix < 0 || ix >= w as isize {
                    continue;
                }
                f(ci, iy as usize * w + ix as usize, dy * kw + dx);
            }
        }
    }
}

/// Eq. (1) with the dense augmented adjacency: `relu(D̂⁻¹ (Â (Z W)))`,
/// recorded on `tape` from generic ops so its gradients come from the
/// tape as well. `a_hat` is a dense `(n, n)` leaf.
pub fn graph_conv_dense(tape: &mut Tape, a_hat: Var, inv_degree: &[f32], z: Var, w: Var) -> Var {
    let f = tape.matmul(z, w);
    let o = tape.matmul(a_hat, f);
    let n = tape.scale_rows(o, inv_degree.to_vec());
    tape.relu(n)
}

/// `out += a @ b` (`a` is `(m, k)`, `b` is `(k, n)`), one element at a
/// time: `(a0*b0 + a1*b1) + (a2*b2 + a3*b3)` per group of four `k`, then
/// one `a*b` per remaining `k`.
pub fn gemm_span_order(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let term = |i: usize, j: usize, p: usize| a[i * k + p] * b[p * n + j];
    for i in 0..m {
        for j in 0..n {
            let o = &mut out[i * n + j];
            let mut p = 0;
            while p + 4 <= k {
                *o += (term(i, j, p) + term(i, j, p + 1)) + (term(i, j, p + 2) + term(i, j, p + 3));
                p += 4;
            }
            for p in p..k {
                *o += term(i, j, p);
            }
        }
    }
}

/// `out += aᵀ @ b` (`a` is `(k, m)`, `b` is `(k, n)`), one element at a
/// time: one `a*b` per `p`, in `p` order.
pub fn gemm_tn_span_order(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                out[i * n + j] += a[p * m + i] * b[p * n + j];
            }
        }
    }
}

/// `out += a @ bᵀ` over strided rows (row `i` of `a` at `i*lda`, row `j`
/// of `b` at `j*ldb`), one element at a time: eight lane sums over `k` in
/// chunks of eight, a sequential tail, folded as
/// `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) + tail`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_span_order(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
) {
    for i in 0..m {
        for j in 0..n {
            let (ar, br) = (&a[i * lda..][..k], &b[j * ldb..][..k]);
            let mut s = [0.0f32; 8];
            let k8 = k / 8 * 8;
            for p in 0..k8 {
                s[p % 8] += ar[p] * br[p];
            }
            let mut tail = 0.0f32;
            for p in k8..k {
                tail += ar[p] * br[p];
            }
            out[i * n + j] +=
                ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7])) + tail;
        }
    }
}

/// CSR × dense, one element at a time: `out[i, j]` starts at `+0.0`,
/// adds `values[p] * dense[col_indices[p], j]` over row `i`'s nonzeros in
/// storage order, then is multiplied by `row_scale[i]` if given.
pub fn spmm_span_order(
    row_offsets: &[usize],
    col_indices: &[u32],
    values: &[f32],
    row_scale: Option<&[f32]>,
    dense: &[f32],
    c: usize,
    out: &mut [f32],
) {
    for i in 0..row_offsets.len() - 1 {
        for j in 0..c {
            let mut o = 0.0f32;
            for p in row_offsets[i]..row_offsets[i + 1] {
                o += values[p] * dense[col_indices[p] as usize * c + j];
            }
            if let Some(s) = row_scale {
                o *= s[i];
            }
            out[i * c + j] = o;
        }
    }
}
