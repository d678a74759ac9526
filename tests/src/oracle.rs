//! Reference oracles for parity tests: the scalar-loop convolution
//! kernels, the scan-order adaptive max pooling and the dense
//! Conv2D → ReLU → AMP chain the fused op replaces, the dense `Â` graph
//! convolution, and span-order scalar versions of the register-tiled
//! GEMM and SpMM kernels.
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

use magic_autograd::{conv2d_shape, Tape, Var};
use magic_tensor::Tensor;
use std::sync::Arc;

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

/// The half-open input window `[start, end)` of output cell `i` of an
/// adaptive pooling with `out` cells over `n` inputs — PyTorch's
/// `AdaptiveMaxPool2d` rule, `floor(i·n/out)` to `ceil((i+1)·n/out)`.
pub fn adaptive_window(i: usize, out: usize, n: usize) -> (usize, usize) {
    (i * n / out, ((i + 1) * n).div_ceil(out))
}

/// Adaptive max pooling of a column-stacked `(c, Σ hⱼ·wⱼ)` batch with
/// per-sample extents `dims` to `(c, B·oh·ow)`, by a plain scan of every
/// window in `(iy, ix)` order with a strict `>` from `−∞` (ties go to the
/// first maximum). Returns the output and, per output cell in flat
/// order, the flat index of its winner in `x`.
pub fn adaptive_max_pool2d(x: &Tensor, dims: &[(usize, usize)], oh: usize, ow: usize) -> (Tensor, Vec<usize>) {
    let (c, total_in) = (x.rows(), x.cols());
    let out_cols = dims.len() * oh * ow;
    let mut out = Tensor::zeros([c, out_cols]);
    let mut argmax = Vec::with_capacity(c * out_cols);
    for ci in 0..c {
        let mut in_off = 0;
        for (s, &(h, w)) in dims.iter().enumerate() {
            for gy in 0..oh {
                let (y0, y1) = adaptive_window(gy, oh, h);
                for gx in 0..ow {
                    let (x0, x1) = adaptive_window(gx, ow, w);
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = ci * total_in + in_off + y0 * w + x0;
                    for iy in y0..y1 {
                        for ix in x0..x1 {
                            let off = ci * total_in + in_off + iy * w + ix;
                            if x.as_slice()[off] > best {
                                best = x.as_slice()[off];
                                best_idx = off;
                            }
                        }
                    }
                    out.set2(ci, (s * oh + gy) * ow + gx, best);
                    argmax.push(best_idx);
                }
            }
            in_off += h * w;
        }
    }
    (out, argmax)
}

/// What the dense Conv2D → ReLU → AMP chain computes: the pooled output,
/// the winners, and the gradients of the input, weights and bias.
pub struct DenseAmp {
    /// Pooled `(c_out, B·gh·gw)` output.
    pub pooled: Tensor,
    /// Per pooled cell, the flat index of its winner in the conv map.
    pub winners: Vec<usize>,
    /// Input gradient.
    pub gx: Tensor,
    /// Weight gradient.
    pub gw: Tensor,
    /// Bias gradient.
    pub gb: Tensor,
}

/// The chain `Tape::conv2d_relu_amp` fuses, run unfused: the tape's
/// im2col + GEMM `conv2d` and `relu` materialise the full
/// `(c_out, Σ ohⱼ·owⱼ)` map, [`adaptive_max_pool2d`] scans it, and AMP's
/// backward — `gout` scattered into a zero map in cell order — goes back
/// through the tape's `relu` and `conv2d` backward (as the gradient of
/// `Σ relu ⊙ map`, whose factor `1.0·g` is exactly `g`).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_relu_amp_dense(
    x: &Tensor,
    wt: &Tensor,
    b: &Tensor,
    stride: usize,
    pad: usize,
    dims: &[(usize, usize)],
    (gh, gw): (usize, usize),
    gout: &Tensor,
) -> DenseAmp {
    let (kh, kw) = (wt.shape().dim(2), wt.shape().dim(3));
    let out_dims: Vec<(usize, usize)> =
        dims.iter().map(|&(h, w)| conv2d_shape(h, w, kh, kw, stride, pad)).collect();
    let mut tape = Tape::new();
    let xv = tape.leaf(x.clone(), true);
    let wv = tape.leaf(wt.clone(), true);
    let bv = tape.leaf(b.clone(), true);
    let y = tape.conv2d(xv, wv, bv, stride, pad, Arc::new(dims.to_vec()));
    let r = tape.relu(y);
    let (pooled, winners) = adaptive_max_pool2d(tape.value(r), &out_dims, gh, gw);
    let mut map = Tensor::zeros(tape.value(r).shape().clone());
    for (cell, &src) in winners.iter().enumerate() {
        map.as_mut_slice()[src] += gout.as_slice()[cell];
    }
    let mv = tape.leaf(map, false);
    let weighted = tape.mul(r, mv);
    let loss = tape.sum(weighted);
    tape.backward(loss);
    let grad = |v: Var| tape.grad(v).expect("leaf requires grad").clone();
    DenseAmp { pooled, winners, gx: grad(xv), gw: grad(wv), gb: grad(bv) }
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
