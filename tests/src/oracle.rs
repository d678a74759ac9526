//! Reference oracles for parity tests: the scalar-loop convolution
//! kernels and the dense `Â` graph convolution.
//!
//! None of these run in production. They are the straightforward
//! definitions the production kernels (im2col + GEMM convolution over a
//! column-stacked batch, fused CSR propagation over a block-diagonal
//! batch) are checked against, to float-reassociation tolerance: the
//! loop orders differ, so agreement is close, not bitwise.

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
