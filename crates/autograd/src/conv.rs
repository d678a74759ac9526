//! Convolution and pooling kernels (forward and backward) shared by the
//! tape operations.
//!
//! Layout conventions: feature maps are column-stacked `(channels,
//! Σ hⱼ·wⱼ)` matrices; conv weights are `(out_channels, in_channels, kh,
//! kw)`. A 1-D convolution is the height-1 case: a `(c, B·seg_len)`
//! signal is a batch of `(1, seg_len)` maps, and `(out_channels,
//! in_channels, k)` weights read as a `1 × k` kernel (see
//! [`kernel_extent`]), with the same memory layout.
//!
//! Every kernel runs a whole mini-batch in one call by stacking samples
//! along the width axis (heterogeneous `(h, w)` segments of a
//! column-stacked `(c, Σ hⱼ·wⱼ)` matrix); a single sample is a batch of
//! one.
//!
//! # im2col + GEMM lowering
//!
//! [`im2col_2d`] gathers input patches into a `(c_in·kh·kw, Σ out)`
//! column buffer (zero padding becomes zero column entries), then the
//! whole convolution is one register-tiled [`magic_tensor::gemm_into`]
//! against the weight matrix viewed as `(c_out, c_in·kh·kw)`, with the
//! bias pre-loaded into the output. The backward pass recomputes the
//! columns and runs two transpose-GEMMs — `gW = gOut · colsᵀ`
//! ([`magic_tensor::gemm_nt_strided_into`], reading each sample's column
//! range of both operands in place) and `gCols = Wᵀ · gOut`
//! ([`magic_tensor::gemm_tn_into`]) — followed by a col2im scatter-add
//! for `gX`. All scratch and output buffers come from the caller's
//! [`Workspace`], so steady-state training reuses them.
//!
//! The adaptive head's first convolution runs fused with its ReLU and
//! adaptive max pooling ([`conv2d_relu_amp_forward`] /
//! [`conv2d_relu_amp_backward`]): a direct stride-1 convolution
//! ([`simd::conv_band`], no patch gather and no GEMM, with the GEMM's
//! per-element chain), one band of output rows at a time, pooled by one
//! column-maximum pass ([`ColumnMax`]), with a backward through the pool
//! winners only — bitwise equal to the unfused chain.
//!
//! # Determinism
//!
//! Every tap is visited unconditionally (no data-dependent zero
//! skipping) with a loop order fixed by the shapes alone. Forward outputs
//! and input gradients are computed per output element / per sample
//! segment, and the *shared* weight/bias gradients are unstacked per
//! sample and combined in sample order with the `((0 + g₀) + g₁) + …`
//! chain the trainer's per-sample gradient buffers use — so a batch of
//! `B` is bitwise identical to `B` batches of one, not merely close. The
//! scalar-loop reference kernels these are checked against live in the
//! workspace `tests` crate.

use magic_tensor::simd::{self, ColumnMax};
use magic_tensor::{gemm_into, gemm_nt_strided_into, gemm_tn_into, Tensor, Workspace};

/// Lane sums of [`gemm_nt_strided_into`]'s dot products.
const LANES: usize = 8;

/// [`gemm_nt_strided_into`]'s fixed pairwise tree over its eight lane
/// sums (see `magic_tensor::simd`, § Determinism).
fn fold(s: &[f32]) -> f32 {
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
}

/// Output length of a 1-D convolution: `(len - k) / stride + 1`.
///
/// # Panics
///
/// Panics if the kernel is larger than the input or `stride == 0`.
pub fn conv1d_shape(len: usize, k: usize, stride: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(k <= len, "kernel {k} larger than input length {len}");
    (len - k) / stride + 1
}

/// Output height/width of a 2-D convolution with symmetric padding.
///
/// # Panics
///
/// Panics if the (padded) input is smaller than the kernel or `stride == 0`.
pub fn conv2d_shape(h: usize, w: usize, kh: usize, kw: usize, stride: usize, pad: usize) -> (usize, usize) {
    assert!(stride > 0, "stride must be positive");
    let ph = h + 2 * pad;
    let pw = w + 2 * pad;
    assert!(kh <= ph && kw <= pw, "kernel {kh}x{kw} larger than padded input {ph}x{pw}");
    ((ph - kh) / stride + 1, (pw - kw) / stride + 1)
}

/// The half-open input window `[start, end)` that output cell `i` of an
/// adaptive pooling with `out` cells over an input of size `n` covers.
/// This matches PyTorch's `AdaptiveMaxPool2d` window rule
/// (`start = floor(i*n/out)`, `end = ceil((i+1)*n/out)`), which is what the
/// paper's AMP layer (Section III-C, Fig. 6) relies on.
pub(crate) fn adaptive_window(i: usize, out: usize, n: usize) -> (usize, usize) {
    let start = i * n / out;
    let end = ((i + 1) * n).div_ceil(out);
    (start, end.max(start + 1).min(n.max(1)))
}

/// `(kh, kw)` of conv weights: `(c_out, c_in, kh, kw)`, or `(c_out, c_in,
/// k)` read as a `1 × k` kernel — the 1-D convolution of the SortPooling
/// head, which has the same memory layout.
pub(crate) fn kernel_extent(w: &Tensor) -> (usize, usize) {
    let s = w.shape();
    match s.rank() {
        3 => (1, s.dim(2)),
        _ => (s.dim(2), s.dim(3)),
    }
}

/// Per-sample output dims of a 2-D convolution over maps of `dims`, in
/// sample order. An iterator, so the per-pass kernels allocate nothing
/// for it.
pub(crate) fn conv2d_out_dims(
    dims: &[(usize, usize)],
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
    dims.iter().map(move |&(h, w)| conv2d_shape(h, w, kh, kw, stride, pad))
}

/// Gathers 2-D convolution patches of a column-stacked batch: `x` is
/// `(c_in, Σ hⱼ·wⱼ)` with sample `j`'s `(hⱼ, wⱼ)` map flattened into the
/// column range starting at `Σ_{i<j} hᵢ·wᵢ` of every row. Produces a
/// `(c_in·kh·kw, Σ ohⱼ·owⱼ)` column buffer checked out of `ws` whose
/// sample column ranges are laid out the same way; taps that fall in the
/// zero padding are zero entries, so padding costs nothing extra in the
/// GEMM.
///
/// The caller owns the returned buffer and must recycle it.
pub(crate) fn im2col_2d(
    x: &Tensor,
    dims: &[(usize, usize)],
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ws: &mut Workspace,
) -> Vec<f32> {
    debug_assert_eq!(x.cols(), dims.iter().map(|&(h, w)| h * w).sum::<usize>());
    let out_dims = conv2d_out_dims(dims, kh, kw, stride, pad);
    let out_total: usize = out_dims.clone().map(|(oh, ow)| oh * ow).sum();
    let patches = Patches { x, kh, kw, stride, pad };
    let mut cols = ws.take(x.rows() * kh * kw * out_total);
    let mut in_off = 0;
    let mut out_off = 0;
    for (&(h, w), (oh, ow)) in dims.iter().zip(out_dims) {
        patches.gather(in_off, (h, w), (oh, ow), &mut cols[out_off..], out_total);
        in_off += h * w;
        out_off += oh * ow;
    }
    cols
}

/// The patch geometry of one 2-D convolution over a column-stacked
/// `(c_in, Σ hⱼ·wⱼ)` input, at any stride: the im2col gather behind
/// [`Tape::conv2d`](crate::Tape::conv2d). The fused Conv2D → ReLU → AMP
/// forward reads its taps in place instead ([`simd::conv_band`]).
struct Patches<'a> {
    x: &'a Tensor,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
}

impl Patches<'_> {
    /// Writes the patches of the sample whose `(h, w)` map starts at
    /// column `in_off` (output extent `(oh, ow)`) into `panel`, viewed as
    /// `c_in·kh·kw` rows of stride `ld`: entry
    /// `((ci·kh + dy)·kw + dx)·ld + oy·ow + ox` is the input under tap
    /// `(ci, dy, dx)` of output cell `(oy, ox)`, or `0.0` in the padding.
    /// Every entry of the sample's columns is written, so a reused panel
    /// needs no clearing.
    fn gather(
        &self,
        in_off: usize,
        (h, w): (usize, usize),
        (oh, ow): (usize, usize),
        panel: &mut [f32],
        ld: usize,
    ) {
        let (kh, kw, stride, pad) = (self.kh, self.kw, self.stride, self.pad);
        let total_in = self.x.cols();
        let xs = self.x.as_slice();
        for ci in 0..self.x.rows() {
            for dy in 0..kh {
                for dx in 0..kw {
                    let row = &mut panel[((ci * kh + dy) * kw + dx) * ld..][..oh * ow];
                    // Output columns whose tap lands inside the map:
                    // `0 ≤ ox·stride + dx − pad < w`.
                    let lo = pad.saturating_sub(dx).div_ceil(stride).min(ow);
                    let hi = if w + pad > dx { ((w + pad - dx - 1) / stride + 1).min(ow) } else { 0 };
                    for (oy, seg) in row.chunks_exact_mut(ow).enumerate() {
                        let iy = (oy * stride + dy) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize || lo >= hi {
                            seg.fill(0.0);
                            continue;
                        }
                        let x_row = &xs[ci * total_in + in_off + iy as usize * w..][..w];
                        seg[..lo].fill(0.0);
                        seg[hi..].fill(0.0);
                        let first = lo * stride + dx - pad;
                        if stride == 1 {
                            seg[lo..hi].copy_from_slice(&x_row[first..first + hi - lo]);
                        } else {
                            for (t, c) in seg[lo..hi].iter_mut().enumerate() {
                                *c = x_row[first + t * stride];
                            }
                        }
                    }
                }
            }
        }
    }
}

/// GEMM half of the im2col 2-D convolution. `cols` comes from
/// [`im2col_2d`]; the output is the flat, pooled `(c_out, Σ ohⱼ·owⱼ)`
/// column-stacked matrix.
pub(crate) fn conv2d_forward_gemm(
    cols: &[f32],
    wt: &Tensor,
    b: &[f32],
    out_total: usize,
    ws: &mut Workspace,
) -> Tensor {
    let c_out = wt.shape().dim(0);
    let ckk = wt.len() / c_out;
    debug_assert_eq!(cols.len(), ckk * out_total);
    let mut out = ws.take_tensor([c_out, out_total]);
    let os = out.as_mut_slice();
    for (o, row) in os.chunks_exact_mut(out_total).enumerate() {
        row.fill(b[o]);
    }
    gemm_into(c_out, ckk, out_total, wt.as_slice(), cols, os);
    out
}

/// Backward of the 2-D convolution (`x` column-stacked as in
/// [`im2col_2d`]). Input gradients scatter per sample in a fixed col2im
/// order; the shared `gw`/`gb` are unstacked per sample and combined in
/// sample order (see the module docs on determinism). Returns pooled
/// `(gx, gw, gb)`.
pub(crate) fn conv2d_backward(
    x: &Tensor,
    wt: &Tensor,
    stride: usize,
    pad: usize,
    dims: &[(usize, usize)],
    gout: &Tensor,
    ws: &mut Workspace,
) -> (Tensor, Tensor, Vec<f32>) {
    let c_in = x.rows();
    let total_in = x.cols();
    let c_out = wt.shape().dim(0);
    let (kh, kw) = kernel_extent(wt);
    let ckk = c_in * kh * kw;
    let out_dims = conv2d_out_dims(dims, kh, kw, stride, pad);
    let out_total = gout.cols();
    debug_assert_eq!(out_total, out_dims.clone().map(|(oh, ow)| oh * ow).sum::<usize>());
    let cols = im2col_2d(x, dims, kh, kw, stride, pad, ws);
    let gs = gout.as_slice();

    let mut gb = ws.take(c_out);
    let mut out_off = 0;
    for (oh, ow) in out_dims.clone() {
        for (o, g) in gb.iter_mut().enumerate() {
            *g += gs[o * out_total + out_off..][..oh * ow].iter().sum::<f32>();
        }
        out_off += oh * ow;
    }

    let mut gw = ws.take_tensor(wt.shape().clone());
    let mut temp_gw = ws.take(wt.len());
    let mut out_off = 0;
    for (oh, ow) in out_dims.clone() {
        let sz = oh * ow;
        temp_gw.fill(0.0);
        gemm_nt_strided_into(
            c_out,
            sz,
            ckk,
            &gs[out_off..],
            out_total,
            &cols[out_off..],
            out_total,
            &mut temp_gw,
        );
        for (acc, &g) in gw.as_mut_slice().iter_mut().zip(temp_gw.iter()) {
            *acc += g;
        }
        out_off += sz;
    }
    ws.recycle(temp_gw);

    let mut gcols = ws.take(ckk * out_total);
    gemm_tn_into(ckk, c_out, out_total, wt.as_slice(), gout.as_slice(), &mut gcols);

    let mut gx = ws.take_tensor(x.shape().clone());
    let gxs = gx.as_mut_slice();
    let mut in_off = 0;
    let mut out_off = 0;
    for (&(h, w), (oh, ow)) in dims.iter().zip(out_dims) {
        // Per-sample col2im in the order (ci, dy, dx, oy, ox).
        for ci in 0..c_in {
            for dy in 0..kh {
                for dx in 0..kw {
                    let row = &gcols[((ci * kh + dy) * kw + dx) * out_total + out_off..][..oh * ow];
                    for oy in 0..oh {
                        let iy = (oy * stride + dy) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let x_row = ci * total_in + in_off + iy as usize * w;
                        for ox in 0..ow {
                            let ix = (ox * stride + dx) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            gxs[x_row + ix as usize] += row[oy * ow + ox];
                        }
                    }
                }
            }
        }
        in_off += h * w;
        out_off += oh * ow;
    }
    ws.recycle(cols);
    ws.recycle(gcols);
    (gx, gw, gb)
}

/// Output cells per band of the fused Conv2D → ReLU → AMP forward: a
/// band of whole output rows is convolved and pooled at a time, so its
/// zero-bordered input rows (`c_in` planes of the band's rows plus
/// `kh − 1` halo rows) and its conv outputs (`c_out` per cell) stay in
/// cache instead of a whole `(c_out, oh·ow)` map going through memory.
const BAND_CELLS: usize = 1024;

/// Copies input rows `oy0 − pad .. oy1 + kh − 1 − pad` of every channel
/// of the sample whose `(h, w)` map starts at column `in_off` of `x` into
/// `halo`, each between `pad` zeros on both sides, and rows outside the
/// map as zero rows: the zero-bordered band [`simd::conv_band`] reads
/// for output rows `rows` of a stride-1 convolution. Returns its length.
fn halo_band(
    x: &Tensor,
    in_off: usize,
    (h, w): (usize, usize),
    (kh, pad): (usize, usize),
    rows: std::ops::Range<usize>,
    halo: &mut [f32],
) -> usize {
    let (pw, total_in) = (w + 2 * pad, x.cols());
    let len = x.rows() * (rows.len() + kh - 1) * pw;
    let planes = halo[..len].chunks_exact_mut(len / x.rows());
    for (plane, xc) in planes.zip(x.as_slice().chunks_exact(total_in)) {
        for (iy, row) in (rows.start as isize - pad as isize..).zip(plane.chunks_exact_mut(pw)) {
            if iy < 0 || iy >= h as isize {
                row.fill(0.0);
                continue;
            }
            row[..pad].fill(0.0);
            row[pad + w..].fill(0.0);
            row[pad..pad + w].copy_from_slice(&xc[in_off + iy as usize * w..][..w]);
        }
    }
    len
}

/// Forward of `AMP(relu(conv2d(x)))` over a column-stacked batch: the
/// stride-1 2-D convolution of [`conv2d_forward_gemm`] (zero padding,
/// bias), a ReLU, and adaptive max pooling of each sample's
/// `(ohⱼ, owⱼ)` output map to a `gh × gw` grid (the paper's AMP layer,
/// Section III-C). Returns the pooled `(c_out, B·gh·gw)` output (sample
/// `j` in columns `[j·gh·gw, (j+1)·gh·gw)`) and, per output cell in the
/// same flat order, the flat index of its winner in the conv map
/// `(c_out, Σ ohⱼ·owⱼ)` — both checked out of `ws`.
///
/// The conv map is never materialised. Each sample is walked in bands of
/// output rows: the band's input rows are copied with their halo into a
/// small zero-bordered buffer, [`simd::conv_band`] convolves it straight
/// into a `(c_out, band)` panel (each element's chain is [`gemm_into`]'s
/// on the bias-filled panel of gathered patches, so it is bitwise the
/// im2col convolution's), and one vertical pass of [`ColumnMax::rows`]
/// applies the ReLU and updates, per channel, row window and column, a
/// running maximum and the first row that reached it. Once the sample's
/// last band is in, [`ColumnMax::fold`] gives each window the smallest
/// `(iy, ix)` among its columns' maxima: the winner, and the value, of a
/// strict-`>` scan of the ReLU'd window in `(iy, ix)` order.
pub(crate) fn conv2d_relu_amp_forward(
    x: &Tensor,
    wt: &Tensor,
    b: &[f32],
    pad: usize,
    dims: &[(usize, usize)],
    (gh, gw): (usize, usize),
    ws: &mut Workspace,
) -> (Tensor, Vec<usize>) {
    let (c_out, c_in, kh, kw) = (wt.shape().dim(0), x.rows(), wt.shape().dim(2), wt.shape().dim(3));
    debug_assert_eq!(x.cols(), dims.iter().map(|&(h, w)| h * w).sum::<usize>());
    let out_dims = conv2d_out_dims(dims, kh, kw, 1, pad);
    let out_total: usize = out_dims.clone().map(|(oh, ow)| oh * ow).sum();
    let cells = gh * gw;
    let out_cols = dims.len() * cells;
    let band_rows = |(oh, ow): (usize, usize)| (BAND_CELLS / ow).clamp(1, oh);
    let max_band = out_dims.clone().map(|d| band_rows(d) * d.1).max().unwrap_or(0);
    let max_halo = out_dims.clone().map(|d| (band_rows(d) + kh - 1) * (d.1 + kw - 1)).max().unwrap_or(0);
    let max_ow = out_dims.clone().map(|d| d.1).max().unwrap_or(0);

    let mut out = ws.take_tensor([c_out, out_cols]);
    let mut winners = ws.take_indices(c_out * out_cols);
    winners.resize(c_out * out_cols, 0);
    let mut halo = ws.take(c_in * max_halo);
    // The band's conv outputs, then the pool's column maxima and rows.
    let mut scratch = ws.take(c_out * max_band + 2 * c_out * gh * max_ow);
    let (panel, acc) = scratch.split_at_mut(c_out * max_band);
    // Per sample: the gh row windows then the gw column windows.
    let mut windows = ws.take_indices(2 * (gh + gw));
    let isa = simd::isa();
    let pooled = out.as_mut_slice();
    let mut in_off = 0;
    let mut out_off = 0;
    for (s, (&(h, w), (oh, ow))) in dims.iter().zip(out_dims).enumerate() {
        windows.clear();
        for (i, n, len) in (0..gh).map(|i| (i, gh, oh)).chain((0..gw).map(|i| (i, gw, ow))) {
            let (start, end) = adaptive_window(i, n, len);
            windows.extend([start, end]);
        }
        let (ywin, xwin) = windows.split_at(2 * gh);
        let mut pool = ColumnMax::new(c_out, ow, ywin, &mut acc[..2 * c_out * gh * ow]);
        let rows_per_band = band_rows((oh, ow));
        let mut oy0 = 0;
        while oy0 < oh {
            let oy1 = (oy0 + rows_per_band).min(oh);
            let n = halo_band(x, in_off, (h, w), (kh, pad), oy0..oy1, &mut halo);
            let maps = &mut panel[..c_out * (oy1 - oy0) * ow];
            simd::conv_band(isa, c_in, (kh, kw), ow, &halo[..n], wt.as_slice(), b, maps);
            pool.rows(isa, maps, oy0);
            oy0 = oy1;
        }
        for o in 0..c_out {
            let first = o * out_cols + s * cells;
            let (values, won) = (&mut pooled[first..][..cells], &mut winners[first..][..cells]);
            pool.fold(isa, o, xwin, o * out_total + out_off, values, won);
        }
        in_off += h * w;
        out_off += oh * ow;
    }
    ws.recycle(halo);
    ws.recycle(scratch);
    ws.recycle_indices(windows);
    (out, winners)
}

/// Backward of [`conv2d_relu_amp_forward`] for upstream gradient `gout`
/// (`(c_out, B·gh·gw)`), given the forward's pooled output and winners.
/// Returns pooled `(gx, gw, gb)`, bitwise equal to running the dense
/// chain — AMP's scatter into a zero map, ReLU's backward, then
/// [`conv2d_backward`] — for finite inputs.
///
/// Only winners whose pooled value is `> 0` carry a gradient: every other
/// conv-map cell gets AMP's `+0.0` or ReLU's `g·0.0`, and each of those
/// exact zeros would only be added to a chain that starts at `+0.0` and
/// can never become `−0.0`, where it changes nothing. So, per sample:
///
/// * a winner's gradient is its cells' `gout` summed in cell order;
/// * `gb[o]` adds the sample's winners of channel `o` in position order,
///   then joins the sample-order chain;
/// * `gW[o, tap]` is [`gemm_nt_strided_into`]'s per-sample dot — eight
///   lane sums over positions (relative to the sample's start) in chunks
///   of eight, a sequential tail, the fixed fold — added to a zeroed
///   temp, then to the sample-order chain;
/// * a winning position's column gradient is `Σ_o W[o, tap]·g[o]` in `o`
///   order ([`gemm_tn_into`]'s chain), scattered into `gx` in col2im's
///   `(ci, dy, dx)` tap order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_relu_amp_backward(
    x: &Tensor,
    wt: &Tensor,
    pad: usize,
    dims: &[(usize, usize)],
    pooled: &Tensor,
    winners: &[usize],
    gout: &Tensor,
    ws: &mut Workspace,
) -> (Tensor, Tensor, Vec<f32>) {
    let (c_out, kh, kw) = (wt.shape().dim(0), wt.shape().dim(2), wt.shape().dim(3));
    let ckk = x.rows() * kh * kw;
    let total_in = x.cols();
    let out_dims = conv2d_out_dims(dims, kh, kw, 1, pad);
    let out_total: usize = out_dims.clone().map(|(oh, ow)| oh * ow).sum();
    let out_cols = pooled.cols();
    let cells = out_cols / dims.len().max(1);
    let (xs, wts, ps, gs) = (x.as_slice(), wt.as_slice(), pooled.as_slice(), gout.as_slice());

    let mut gx = ws.take_tensor(x.shape().clone());
    let mut gw = ws.take_tensor(wt.shape().clone());
    let mut gb = ws.take(c_out);
    // Per sample: winner keys `(p·c_out + o)·cells + cell`, merged in
    // place to one `p·c_out + o` per winning (position, channel).
    let mut keys = ws.take_indices(c_out * cells);
    let mut scratch = ws.take(c_out * cells * (1 + ckk) + c_out * ckk * (LANES + 1) + c_out);
    let (gz, rest) = scratch.split_at_mut(c_out * cells);
    let (gcols, rest) = rest.split_at_mut(c_out * cells * ckk);
    let (lanes, sums) = rest.split_at_mut(c_out * ckk * (LANES + 1));
    let gxs = gx.as_mut_slice();
    let mut in_off = 0;
    let mut out_off = 0;
    for (s, (&(h, w), (oh, ow))) in dims.iter().zip(out_dims).enumerate() {
        keys.clear();
        for o in 0..c_out {
            let first = o * out_cols + s * cells;
            for cell in 0..cells {
                if ps[first + cell] > 0.0 {
                    let p = winners[first + cell] - o * out_total - out_off;
                    keys.push((p * c_out + o) * cells + cell);
                }
            }
        }
        keys.sort_unstable();
        let mut n = 0;
        let mut i = 0;
        while i < keys.len() {
            let po = keys[i] / cells;
            let o = po % c_out;
            let mut g = 0.0f32;
            while i < keys.len() && keys[i] / cells == po {
                g += gs[o * out_cols + s * cells + keys[i] % cells];
                i += 1;
            }
            keys[n] = po;
            gz[n] = g;
            n += 1;
        }
        keys.truncate(n);

        sums.fill(0.0);
        for (&po, &g) in keys.iter().zip(gz.iter()) {
            sums[po % c_out] += g;
        }
        for (acc, &sum) in gb.iter_mut().zip(sums.iter()) {
            *acc += sum;
        }

        // The flat input index under tap `(ci, dy, dx)` of position `p`,
        // if the tap lands inside the map rather than the padding.
        let input_at = |p: usize, tap: usize| -> Option<usize> {
            let (ci, dy, dx) = (tap / (kh * kw), tap / kw % kh, tap % kw);
            let iy = (p / ow + dy).checked_sub(pad)?;
            let ix = (p % ow + dx).checked_sub(pad)?;
            (iy < h && ix < w).then(|| ci * total_in + in_off + iy * w + ix)
        };

        let full = oh * ow / LANES * LANES;
        lanes.fill(0.0);
        for (&po, &g) in keys.iter().zip(gz.iter()) {
            let (p, o) = (po / c_out, po % c_out);
            let lane = if p < full { p % LANES } else { LANES };
            for tap in 0..ckk {
                if let Some(xi) = input_at(p, tap) {
                    lanes[(o * ckk + tap) * (LANES + 1) + lane] += g * xs[xi];
                }
            }
        }
        for (acc, l) in gw.as_mut_slice().iter_mut().zip(lanes.chunks_exact(LANES + 1)) {
            let mut temp = 0.0f32;
            temp += fold(&l[..LANES]) + l[LANES];
            *acc += temp;
        }

        // Column gradient of each winning position (keys are sorted by
        // position, so its channels are adjacent and in `o` order), then
        // the scatter, tap-major as col2im adds them.
        let mut npos = 0;
        let mut e = 0;
        while e < keys.len() {
            let p = keys[e] / c_out;
            let col = &mut gcols[npos * ckk..][..ckk];
            col.fill(0.0);
            while e < keys.len() && keys[e] / c_out == p {
                let o = keys[e] % c_out;
                for (c, &wv) in col.iter_mut().zip(&wts[o * ckk..][..ckk]) {
                    *c += wv * gz[e];
                }
                e += 1;
            }
            keys[npos] = p;
            npos += 1;
        }
        for tap in 0..ckk {
            for (q, &p) in keys[..npos].iter().enumerate() {
                if let Some(xi) = input_at(p, tap) {
                    gxs[xi] += gcols[q * ckk + tap];
                }
            }
        }
        in_off += h * w;
        out_off += oh * ow;
    }
    ws.recycle_indices(keys);
    ws.recycle(scratch);
    (gx, gw, gb)
}

/// Forward 1-D max pooling with window `k` and stride `k`
/// (non-overlapping, as in the original DGCNN head) over a batch of
/// equal `seg_len` segments. Windows never straddle a segment boundary
/// and each segment's tail (`seg_len % k`) is dropped. Returns the
/// output and per-cell argmax flat indices (ascending output order),
/// both checked out of `ws`; ties break to the first maximum (strict
/// `>`).
pub(crate) fn max_pool1d_forward(
    x: &Tensor,
    k: usize,
    seg_len: usize,
    ws: &mut Workspace,
) -> (Tensor, Vec<usize>) {
    let (c, total) = (x.rows(), x.cols());
    assert!(
        seg_len > 0 && total.is_multiple_of(seg_len),
        "input width {total} is not a multiple of segment length {seg_len}"
    );
    let batch = total / seg_len;
    let out_len = seg_len / k;
    assert!(out_len > 0, "pooling window {k} larger than segment {seg_len}");
    let mut out = ws.take_tensor([c, batch * out_len]);
    let mut argmax = ws.take_indices(c * batch * out_len);
    let xs = x.as_slice();
    for ci in 0..c {
        for s in 0..batch {
            for t in 0..out_len {
                let base = ci * total + s * seg_len + t * k;
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = base;
                for j in 0..k {
                    let v = xs[base + j];
                    if v > best {
                        best = v;
                        best_idx = base + j;
                    }
                }
                out.set2(ci, s * out_len + t, best);
                argmax.push(best_idx);
            }
        }
    }
    (out, argmax)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_tensor::Rng64;

    /// Per-sample `(1, seg_len)` map extents of a `(c, B·seg_len)` signal.
    fn signal_dims(x: &Tensor, seg_len: usize) -> Vec<(usize, usize)> {
        vec![(1, seg_len); x.cols() / seg_len]
    }

    /// Forward 1-D convolution of `(c_out, c_in, k)` weights: the
    /// height-1, unpadded 2-D convolution.
    fn conv1d(
        x: &Tensor,
        w: &Tensor,
        b: &[f32],
        stride: usize,
        seg_len: usize,
        ws: &mut Workspace,
    ) -> Tensor {
        conv2d(x, &signal_dims(x, seg_len), w, b, stride, 0, ws)
    }

    /// Backward of [`conv1d`]: [`conv2d_backward`] over `(1, seg_len)` maps.
    fn conv1d_backward(
        x: &Tensor,
        w: &Tensor,
        stride: usize,
        seg_len: usize,
        gout: &Tensor,
        ws: &mut Workspace,
    ) -> (Tensor, Tensor, Vec<f32>) {
        conv2d_backward(x, w, stride, 0, &signal_dims(x, seg_len), gout, ws)
    }

    /// Forward 2-D convolution of a column-stacked batch of `dims` maps.
    fn conv2d(
        x: &Tensor,
        dims: &[(usize, usize)],
        wt: &Tensor,
        b: &[f32],
        stride: usize,
        pad: usize,
        ws: &mut Workspace,
    ) -> Tensor {
        let (kh, kw) = kernel_extent(wt);
        let out_total =
            conv2d_out_dims(dims, kh, kw, stride, pad).map(|(oh, ow)| oh * ow).sum();
        let cols = im2col_2d(x, dims, kh, kw, stride, pad, ws);
        let out = conv2d_forward_gemm(&cols, wt, b, out_total, ws);
        ws.recycle(cols);
        out
    }

    #[test]
    fn conv1d_shape_basic() {
        assert_eq!(conv1d_shape(10, 3, 1), 8);
        assert_eq!(conv1d_shape(10, 5, 5), 2);
        assert_eq!(conv1d_shape(10, 10, 10), 1);
    }

    #[test]
    #[should_panic(expected = "larger than input")]
    fn conv1d_shape_rejects_big_kernel() {
        conv1d_shape(3, 5, 1);
    }

    #[test]
    fn conv2d_shape_with_padding() {
        assert_eq!(conv2d_shape(5, 7, 3, 3, 1, 1), (5, 7));
        assert_eq!(conv2d_shape(4, 4, 2, 2, 2, 0), (2, 2));
    }

    #[test]
    fn adaptive_window_partitions_input() {
        // 7 inputs into 3 windows: PyTorch gives [0,3), [2,5), [4,7).
        assert_eq!(adaptive_window(0, 3, 7), (0, 3));
        assert_eq!(adaptive_window(1, 3, 7), (2, 5));
        assert_eq!(adaptive_window(2, 3, 7), (4, 7));
    }

    #[test]
    fn adaptive_window_when_output_larger_than_input() {
        // 2 inputs into 3 windows: every window non-empty.
        for i in 0..3 {
            let (s, e) = adaptive_window(i, 3, 2);
            assert!(s < e, "window {i} empty: ({s},{e})");
            assert!(e <= 2);
        }
    }

    #[test]
    fn conv1d_identity_kernel() {
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0]]);
        let w = Tensor::from_vec(vec![1.0], [1, 1, 1]);
        let y = conv1d(&x, &w, &[0.0], 1, 3, &mut Workspace::new());
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv1d_sums_window() {
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let w = Tensor::from_vec(vec![1.0, 1.0], [1, 1, 2]);
        let y = conv1d(&x, &w, &[0.0], 2, 4, &mut Workspace::new());
        assert_eq!(y.as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn conv2d_averaging_kernel() {
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let w = Tensor::from_vec(vec![0.25; 4], [1, 1, 2, 2]);
        let y = conv2d(&x, &[(2, 2)], &w, &[0.0], 1, 0, &mut Workspace::new());
        assert_eq!(y.as_slice(), &[2.5]);
    }

    #[test]
    fn conv2d_padding_preserves_size() {
        let x = Tensor::ones([1, 9]);
        let w = Tensor::from_vec(vec![1.0; 9], [1, 1, 3, 3]);
        let y = conv2d(&x, &[(3, 3)], &w, &[0.0], 1, 1, &mut Workspace::new());
        assert_eq!(y.shape().dims(), &[1, 9]);
        // Center cell sees all nine ones; corner sees four.
        assert_eq!(y.get2(0, 4), 9.0);
        assert_eq!(y.get2(0, 0), 4.0);
    }

    /// `AMP(relu(x))` of one channel through the fused op with a 1×1
    /// identity kernel (no padding, zero bias).
    fn amp(x: &Tensor, dims: &[(usize, usize)], grid: (usize, usize), ws: &mut Workspace) -> (Tensor, Vec<usize>) {
        let identity = Tensor::from_vec(vec![1.0], [1, 1, 1, 1]);
        conv2d_relu_amp_forward(x, &identity, &[0.0], 0, dims, grid, ws)
    }

    #[test]
    fn amp_forward_picks_window_maxima() {
        // Fig. 6 style: pool a 4x7 map (1 channel) into 3x3.
        let x = Tensor::from_vec((0..28).map(|v| v as f32).collect(), [1, 28]);
        let (y, argmax) = amp(&x, &[(4, 7)], (3, 3), &mut Workspace::new());
        assert_eq!(y.shape().dims(), &[1, 9]);
        // Bottom-right window must contain the global max (27).
        assert_eq!(y.get2(0, 8), 27.0);
        assert_eq!(argmax[8], 27);
    }

    #[test]
    fn maxpool1d_nonoverlapping() {
        let x = Tensor::from_rows(&[&[1.0, 5.0, 2.0, 4.0]]);
        let (y, argmax) = max_pool1d_forward(&x, 2, 4, &mut Workspace::new());
        assert_eq!(y.as_slice(), &[5.0, 4.0]);
        assert_eq!(argmax, vec![1, 3]);
    }

    #[test]
    fn amp_tie_breaking_first_max_wins() {
        // All-equal input: every window's winner must be its first cell in
        // scan order, and pooled-buffer reuse must not change that.
        let mut ws = Workspace::new();
        let x = Tensor::ones([1, 16]);
        let (y, argmax) = amp(&x, &[(4, 4)], (2, 2), &mut ws);
        assert!(y.as_slice().iter().all(|&v| v == 1.0));
        assert_eq!(argmax, vec![0, 2, 8, 10]);
        // Recycle and pool a different tensor through the same workspace:
        // stale winners from the first call must not leak.
        ws.recycle_indices(argmax);
        ws.recycle_tensor(y);
        let x2 = Tensor::from_vec(vec![2.0; 16], [1, 16]);
        let (y2, argmax2) = amp(&x2, &[(4, 4)], (2, 2), &mut ws);
        assert!(y2.as_slice().iter().all(|&v| v == 2.0));
        assert_eq!(argmax2, vec![0, 2, 8, 10]);
        assert!(ws.stats().hits >= 2, "second call should reuse pooled buffers");
    }

    #[test]
    fn maxpool1d_tie_breaking_first_max_wins() {
        let x = Tensor::from_rows(&[&[7.0, 7.0, 7.0, 7.0]]);
        let (y, argmax) = max_pool1d_forward(&x, 2, 4, &mut Workspace::new());
        assert_eq!(y.as_slice(), &[7.0, 7.0]);
        assert_eq!(argmax, vec![0, 2]);
    }

    /// Visits every in-bounds tap of a zero-padded 2-D convolution of one
    /// `(c_in, h·w)` map by `(c_out, c_in, kh, kw)` weights: calls `f` with
    /// the output channel, the flat output cell, the flat input index and
    /// the flat weight index. A 1-D convolution is the `h = kh = 1`,
    /// `pad = 0` case, since `(c_out, c_in, k)` weights share the layout.
    fn for_each_tap(
        c_in: usize,
        (h, w): (usize, usize),
        (c_out, kh, kw): (usize, usize, usize),
        stride: usize,
        pad: usize,
        mut f: impl FnMut(usize, usize, usize, usize),
    ) {
        let (oh, ow) = conv2d_shape(h, w, kh, kw, stride, pad);
        for o in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
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
                                f(
                                    o,
                                    oy * ow + ox,
                                    ci * h * w + iy as usize * w + ix as usize,
                                    ((o * c_in + ci) * kh + dy) * kw + dx,
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Scalar-loop forward and backward from [`for_each_tap`]: returns
    /// `(out, gx, gw, gb)` for upstream gradient `gout`.
    #[allow(clippy::too_many_arguments)]
    fn naive_conv(
        x: &Tensor,
        (h, w): (usize, usize),
        wt: &[f32],
        (c_out, kh, kw): (usize, usize, usize),
        b: &[f32],
        stride: usize,
        pad: usize,
        gout: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let c_in = x.rows();
        let (oh, ow) = conv2d_shape(h, w, kh, kw, stride, pad);
        let cells = oh * ow;
        let xs = x.as_slice();
        let mut out: Vec<f32> = (0..c_out * cells).map(|i| b[i / cells]).collect();
        let mut gx = vec![0.0; xs.len()];
        let mut gw = vec![0.0; wt.len()];
        let mut gb = vec![0.0; c_out];
        for_each_tap(c_in, (h, w), (c_out, kh, kw), stride, pad, |o, cell, xi, wi| {
            let g = gout[o * cells + cell];
            out[o * cells + cell] += wt[wi] * xs[xi];
            gw[wi] += g * xs[xi];
            gx[xi] += g * wt[wi];
        });
        for (o, acc) in gb.iter_mut().enumerate() {
            *acc = gout[o * cells..(o + 1) * cells].iter().sum();
        }
        (out, gx, gw, gb)
    }

    fn assert_close(got: &[f32], want: &[f32], tol: f32, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (g, n) in got.iter().zip(want) {
            assert!((g - n).abs() < tol, "{what}: {g} vs {n}");
        }
    }

    #[test]
    fn conv1d_gemm_matches_naive_forward_and_backward() {
        let mut rng = Rng64::new(21);
        let mut ws = Workspace::new();
        for (c_in, len, c_out, k, stride) in
            [(1, 5, 1, 1, 1), (2, 8, 3, 2, 2), (3, 9, 4, 3, 1), (1, 12, 16, 4, 4), (2, 7, 2, 7, 7)]
        {
            let x = Tensor::rand_uniform([c_in, len], -1.0, 1.0, &mut rng);
            let w = Tensor::rand_uniform([c_out, c_in, k], -1.0, 1.0, &mut rng);
            let b: Vec<f32> = (0..c_out).map(|i| 0.1 * i as f32 - 0.2).collect();
            let out_len = conv1d_shape(len, k, stride);
            let gout = Tensor::rand_uniform([c_out, out_len], -1.0, 1.0, &mut rng);
            let case = format!("({c_in},{len},{c_out},{k},{stride})");

            let (nout, ngx, ngw, ngb) =
                naive_conv(&x, (1, len), w.as_slice(), (c_out, 1, k), &b, stride, 0, gout.as_slice());
            let gemm = conv1d(&x, &w, &b, stride, len, &mut ws);
            assert_eq!(gemm.shape().dims(), &[c_out, out_len]);
            assert_close(gemm.as_slice(), &nout, 1e-5, &format!("fwd {case}"));

            let (ggx, ggw, ggb) = conv1d_backward(&x, &w, stride, len, &gout, &mut ws);
            assert_close(ggx.as_slice(), &ngx, 1e-4, &format!("gx {case}"));
            assert_close(ggw.as_slice(), &ngw, 1e-4, &format!("gw {case}"));
            assert_close(&ggb, &ngb, 1e-4, &format!("gb {case}"));
            ws.recycle_tensor(ggx);
            ws.recycle_tensor(ggw);
            ws.recycle(ggb);
            ws.recycle_tensor(gemm);
        }
    }

    #[test]
    fn conv2d_gemm_matches_naive_forward_and_backward() {
        let mut rng = Rng64::new(22);
        let mut ws = Workspace::new();
        for (c_in, h, w_dim, c_out, kh, kw, stride, pad) in [
            (1, 3, 3, 1, 1, 1, 1, 0),
            (2, 5, 5, 3, 3, 3, 1, 1),
            (1, 6, 4, 2, 3, 3, 2, 1),
            (3, 4, 7, 2, 2, 4, 1, 0),
            (2, 5, 5, 4, 3, 3, 2, 2),
        ] {
            let x = Tensor::rand_uniform([c_in, h * w_dim], -1.0, 1.0, &mut rng);
            let wt = Tensor::rand_uniform([c_out, c_in, kh, kw], -1.0, 1.0, &mut rng);
            let b: Vec<f32> = (0..c_out).map(|i| 0.05 * i as f32 + 0.1).collect();
            let (oh, ow) = conv2d_shape(h, w_dim, kh, kw, stride, pad);
            let gout = Tensor::rand_uniform([c_out, oh * ow], -1.0, 1.0, &mut rng);
            let case = format!("({c_in},{h},{w_dim},{c_out},{kh},{kw},{stride},{pad})");

            let (nout, ngx, ngw, ngb) = naive_conv(
                &x,
                (h, w_dim),
                wt.as_slice(),
                (c_out, kh, kw),
                &b,
                stride,
                pad,
                gout.as_slice(),
            );
            let dims = [(h, w_dim)];
            let gemm = conv2d(&x, &dims, &wt, &b, stride, pad, &mut ws);
            assert_eq!(gemm.shape().dims(), &[c_out, oh * ow]);
            assert_close(gemm.as_slice(), &nout, 1e-5, &format!("fwd {case}"));

            let (ggx, ggw, ggb) = conv2d_backward(&x, &wt, stride, pad, &dims, &gout, &mut ws);
            assert_close(ggx.as_slice(), &ngx, 1e-4, &format!("gx {case}"));
            assert_close(ggw.as_slice(), &ngw, 1e-4, &format!("gw {case}"));
            assert_close(&ggb, &ngb, 1e-4, &format!("gb {case}"));
            ws.recycle_tensor(ggx);
            ws.recycle_tensor(ggw);
            ws.recycle(ggb);
            ws.recycle_tensor(gemm);
        }
    }

    #[test]
    fn gemm_lowering_is_bitwise_deterministic() {
        let mut rng = Rng64::new(33);
        let x = Tensor::rand_uniform([2, 36], -1.0, 1.0, &mut rng);
        let wt = Tensor::rand_uniform([3, 2, 3, 3], -1.0, 1.0, &mut rng);
        let b = vec![0.1, 0.2, 0.3];
        let run = || {
            // A fresh workspace and a warmed one must agree bitwise.
            let mut ws = Workspace::new();
            let mut last = None;
            for _ in 0..2 {
                let out = conv2d(&x, &[(6, 6)], &wt, &b, 1, 1, &mut ws);
                if let Some(prev) = last.take() {
                    assert_eq!(prev, out, "warm pool changed the numbers");
                }
                last = Some(out);
            }
            last.unwrap()
        };
        assert_eq!(run(), run(), "runs must be bitwise identical");
    }

    #[test]
    fn backward_of_zero_gradient_writes_zeros_from_a_warm_pool() {
        // A gout of exactly zero flows through the same code path as any
        // other: with the pool warmed by a nonzero backward, every
        // gradient must still come out as exact zeros, not stale values.
        let mut rng = Rng64::new(5);
        let mut ws = Workspace::new();
        let x = Tensor::rand_uniform([2, 8], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform([3, 2, 2], -1.0, 1.0, &mut rng);
        let gout = Tensor::rand_uniform([3, 4], -1.0, 1.0, &mut rng);
        let (gx, gw, gb) = conv1d_backward(&x, &w, 2, 4, &gout, &mut ws);
        ws.recycle_tensor(gx);
        ws.recycle_tensor(gw);
        ws.recycle(gb);
        let zero = Tensor::zeros([3, 4]);
        let (gx, gw, gb) = conv1d_backward(&x, &w, 2, 4, &zero, &mut ws);
        assert!(ws.stats().hits > 0, "second backward should reuse pooled buffers");
        let bits = |s: &[f32]| s.iter().all(|v| v.to_bits() == 0);
        assert!(bits(gx.as_slice()) && bits(gw.as_slice()) && bits(&gb));
    }

    #[test]
    fn conv1d_backward_grads_match_finite_difference() {
        let mut rng = Rng64::new(3);
        let mut ws = Workspace::new();
        let x = Tensor::rand_uniform([2, 6], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform([3, 2, 2], -1.0, 1.0, &mut rng);
        let b = vec![0.1, -0.2, 0.3];
        let y = conv1d(&x, &w, &b, 2, 6, &mut ws);
        let gout = Tensor::ones(y.shape().clone());
        let (gx, gw, _gb) = conv1d_backward(&x, &w, 2, 6, &gout, &mut ws);

        let eps = 1e-3;
        let mut loss = |x: &Tensor, w: &Tensor| conv1d(x, w, &b, 2, 6, &mut ws).sum();
        // Check one x element and one w element by central differences.
        let mut xp = x.clone();
        xp.as_mut_slice()[3] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[3] -= eps;
        let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
        assert!((num - gx.as_slice()[3]).abs() < 1e-2, "{num} vs {}", gx.as_slice()[3]);

        let mut wp = w.clone();
        wp.as_mut_slice()[5] += eps;
        let mut wm = w.clone();
        wm.as_mut_slice()[5] -= eps;
        let numw = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
        assert!((numw - gw.as_slice()[5]).abs() < 1e-2);
    }

    #[test]
    fn conv2d_backward_grads_match_finite_difference() {
        let mut rng = Rng64::new(4);
        let mut ws = Workspace::new();
        let dims = [(4, 4)];
        let x = Tensor::rand_uniform([2, 16], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform([2, 2, 3, 3], -1.0, 1.0, &mut rng);
        let b = vec![0.0, 0.0];
        let y = conv2d(&x, &dims, &w, &b, 1, 1, &mut ws);
        let gout = Tensor::ones(y.shape().clone());
        let (gx, gw, gb) = conv2d_backward(&x, &w, 1, 1, &dims, &gout, &mut ws);
        assert_eq!(gb, vec![16.0, 16.0]);

        let eps = 1e-2;
        let mut loss = |x: &Tensor, w: &Tensor| conv2d(x, &dims, w, &b, 1, 1, &mut ws).sum();
        for &idx in &[0usize, 7, 20] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - gx.as_slice()[idx]).abs() < 1e-2);
        }
        for &idx in &[0usize, 9, 17] {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - gw.as_slice()[idx]).abs() < 1e-1);
        }
    }

    /// Adds `parts` elementwise in order starting from zero — the exact
    /// reduction chain the trainer's per-sample gradient buffers use.
    fn chain_add(parts: &[&[f32]]) -> Vec<f32> {
        let mut acc = vec![0.0f32; parts[0].len()];
        for p in parts {
            for (a, &g) in acc.iter_mut().zip(*p) {
                *a += g;
            }
        }
        acc
    }

    /// Stacks per-sample `(c, lenⱼ)` matrices column-wise into `(c, Σ lenⱼ)`.
    fn hstack(samples: &[&Tensor]) -> Tensor {
        let c = samples[0].rows();
        let total: usize = samples.iter().map(|s| s.len() / c).sum();
        let mut data = Vec::with_capacity(c * total);
        for ci in 0..c {
            for s in samples {
                let w = s.len() / c;
                data.extend_from_slice(&s.as_slice()[ci * w..(ci + 1) * w]);
            }
        }
        Tensor::from_vec(data, [c, total])
    }

    /// A batch of three against three batches of one: outputs and input
    /// gradients match per segment, shared gradients match the chain.
    #[test]
    fn conv1d_batched_is_bitwise_equal_to_per_sample() {
        let mut rng = Rng64::new(41);
        let mut ws = Workspace::new();
        let (c_in, c_out, k, stride, seg_len, batch) = (2, 3, 3, 1, 9, 3);
        let out_len = conv1d_shape(seg_len, k, stride);
        let samples: Vec<Tensor> =
            (0..batch).map(|_| Tensor::rand_uniform([c_in, seg_len], -1.0, 1.0, &mut rng)).collect();
        let w = Tensor::rand_uniform([c_out, c_in, k], -1.0, 1.0, &mut rng);
        let b: Vec<f32> = (0..c_out).map(|i| 0.1 * i as f32 - 0.1).collect();
        let gouts: Vec<Tensor> =
            (0..batch).map(|_| Tensor::rand_uniform([c_out, out_len], -1.0, 1.0, &mut rng)).collect();

        let x = hstack(&samples.iter().collect::<Vec<_>>());
        let out = conv1d(&x, &w, &b, stride, seg_len, &mut ws);
        let gout = hstack(&gouts.iter().collect::<Vec<_>>());
        let (gx, gw, gb) = conv1d_backward(&x, &w, stride, seg_len, &gout, &mut ws);

        let mut per_gw = Vec::new();
        let mut per_gb = Vec::new();
        for s in 0..batch {
            let sout = conv1d(&samples[s], &w, &b, stride, seg_len, &mut ws);
            for o in 0..c_out {
                assert_eq!(
                    &out.row(o)[s * out_len..(s + 1) * out_len],
                    sout.row(o),
                    "fwd sample {s} channel {o}"
                );
            }
            let (sgx, sgw, sgb) =
                conv1d_backward(&samples[s], &w, stride, seg_len, &gouts[s], &mut ws);
            for ci in 0..c_in {
                assert_eq!(
                    &gx.row(ci)[s * seg_len..(s + 1) * seg_len],
                    sgx.row(ci),
                    "gx sample {s} channel {ci}"
                );
            }
            per_gw.push(sgw.as_slice().to_vec());
            per_gb.push(sgb.clone());
        }
        let chained_gw = chain_add(&per_gw.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let chained_gb = chain_add(&per_gb.iter().map(Vec::as_slice).collect::<Vec<_>>());
        assert_eq!(gw.as_slice(), chained_gw.as_slice(), "gw chain");
        assert_eq!(gb, chained_gb, "gb chain");
    }

    #[test]
    fn conv2d_batched_is_bitwise_equal_to_per_sample_with_varied_dims() {
        let mut rng = Rng64::new(42);
        let mut ws = Workspace::new();
        let (c_in, c_out, kh, kw, stride, pad) = (2, 3, 3, 3, 1, 1);
        let dims = [(4, 5), (3, 3), (5, 2)];
        let samples: Vec<Tensor> = dims
            .iter()
            .map(|&(h, w)| Tensor::rand_uniform([c_in, h * w], -1.0, 1.0, &mut rng))
            .collect();
        let wt = Tensor::rand_uniform([c_out, c_in, kh, kw], -1.0, 1.0, &mut rng);
        let b: Vec<f32> = (0..c_out).map(|i| 0.05 * i as f32).collect();
        let out_dims: Vec<_> = conv2d_out_dims(&dims, kh, kw, stride, pad).collect();
        let gouts: Vec<Tensor> = out_dims
            .iter()
            .map(|&(oh, ow)| Tensor::rand_uniform([c_out, oh * ow], -1.0, 1.0, &mut rng))
            .collect();

        let x = hstack(&samples.iter().collect::<Vec<_>>());
        let out = conv2d(&x, &dims, &wt, &b, stride, pad, &mut ws);
        let gout = hstack(&gouts.iter().collect::<Vec<_>>());
        let (gx, gw, gb) = conv2d_backward(&x, &wt, stride, pad, &dims, &gout, &mut ws);

        let mut per_gw = Vec::new();
        let mut per_gb = Vec::new();
        let mut in_off = 0;
        let mut out_off = 0;
        for s in 0..dims.len() {
            let (h, w) = dims[s];
            let (oh, ow) = out_dims[s];
            let sout = conv2d(&samples[s], &dims[s..=s], &wt, &b, stride, pad, &mut ws);
            for o in 0..c_out {
                assert_eq!(
                    &out.row(o)[out_off..out_off + oh * ow],
                    sout.row(o),
                    "fwd sample {s} channel {o}"
                );
            }
            let (sgx, sgw, sgb) =
                conv2d_backward(&samples[s], &wt, stride, pad, &dims[s..=s], &gouts[s], &mut ws);
            for ci in 0..c_in {
                assert_eq!(
                    &gx.row(ci)[in_off..in_off + h * w],
                    sgx.row(ci),
                    "gx sample {s} channel {ci}"
                );
            }
            per_gw.push(sgw.as_slice().to_vec());
            per_gb.push(sgb.clone());
            in_off += h * w;
            out_off += oh * ow;
        }
        let chained_gw = chain_add(&per_gw.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let chained_gb = chain_add(&per_gb.iter().map(Vec::as_slice).collect::<Vec<_>>());
        assert_eq!(gw.as_slice(), chained_gw.as_slice(), "gw chain");
        assert_eq!(gb, chained_gb, "gb chain");
    }

    #[test]
    fn amp_batched_matches_per_sample_outputs_and_winners() {
        // The fused conv → relu → AMP over a batch of three maps (one
        // smaller than the grid) against three batches of one: pooled
        // values, winners and all three gradients.
        let mut rng = Rng64::new(43);
        let mut ws = Workspace::new();
        let (c_in, c_out, grid) = (2, 3, (3, 3));
        let cells = 9;
        let dims = [(4, 7), (2, 2), (5, 9)];
        let total_in: usize = dims.iter().map(|&(h, w)| h * w).sum();
        let samples: Vec<Tensor> =
            dims.iter().map(|&(h, w)| Tensor::rand_uniform([c_in, h * w], -1.0, 1.0, &mut rng)).collect();
        let wt = Tensor::rand_uniform([c_out, c_in, 3, 3], -1.0, 1.0, &mut rng);
        let b = [0.1, -0.2, 0.05];
        let x = hstack(&samples.iter().collect::<Vec<_>>());
        let (out, argmax) = conv2d_relu_amp_forward(&x, &wt, &b, 1, &dims, grid, &mut ws);
        let gouts: Vec<Tensor> =
            (0..dims.len()).map(|_| Tensor::rand_uniform([c_out, cells], -1.0, 1.0, &mut rng)).collect();
        let gout = hstack(&gouts.iter().collect::<Vec<_>>());
        let (gx, gw, gb) =
            conv2d_relu_amp_backward(&x, &wt, 1, &dims, &out, &argmax, &gout, &mut ws);
        let (mut per_gw, mut per_gb) = (Vec::new(), Vec::new());
        let mut in_off = 0;
        for s in 0..dims.len() {
            let (h, w) = dims[s];
            let one = &dims[s..=s];
            let (sout, sarg) = conv2d_relu_amp_forward(&samples[s], &wt, &b, 1, one, grid, &mut ws);
            for o in 0..c_out {
                assert_eq!(&out.row(o)[s * cells..(s + 1) * cells], sout.row(o), "out sample {s} channel {o}");
                for cell in 0..cells {
                    let local = sarg[o * cells + cell] - o * h * w;
                    assert_eq!(
                        argmax[o * dims.len() * cells + s * cells + cell],
                        o * total_in + in_off + local,
                        "winner sample {s} channel {o} cell {cell}"
                    );
                }
            }
            let (sgx, sgw, sgb) =
                conv2d_relu_amp_backward(&samples[s], &wt, 1, one, &sout, &sarg, &gouts[s], &mut ws);
            for ci in 0..c_in {
                assert_eq!(&gx.row(ci)[in_off..in_off + h * w], sgx.row(ci), "gx sample {s} channel {ci}");
            }
            per_gw.push(sgw.as_slice().to_vec());
            per_gb.push(sgb);
            in_off += h * w;
        }
        let chained_gw = chain_add(&per_gw.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let chained_gb = chain_add(&per_gb.iter().map(Vec::as_slice).collect::<Vec<_>>());
        assert_eq!(gw.as_slice(), chained_gw.as_slice(), "gw chain");
        assert_eq!(gb, chained_gb, "gb chain");
    }

    #[test]
    fn maxpool1d_batched_matches_per_sample_and_drops_tails_per_segment() {
        let mut rng = Rng64::new(44);
        let mut ws = Workspace::new();
        let (c, k, seg_len, batch) = (2, 2, 7, 3); // 7 % 2 == 1: one dropped tail per segment
        let out_len = seg_len / k;
        let samples: Vec<Tensor> =
            (0..batch).map(|_| Tensor::rand_uniform([c, seg_len], -1.0, 1.0, &mut rng)).collect();
        let x = hstack(&samples.iter().collect::<Vec<_>>());
        let (out, argmax) = max_pool1d_forward(&x, k, seg_len, &mut ws);
        assert_eq!(out.shape().dims(), &[c, batch * out_len]);
        for s in 0..batch {
            let (sout, sarg) = max_pool1d_forward(&samples[s], k, seg_len, &mut ws);
            for ci in 0..c {
                assert_eq!(
                    &out.row(ci)[s * out_len..(s + 1) * out_len],
                    sout.row(ci),
                    "out sample {s} channel {ci}"
                );
                for t in 0..out_len {
                    let local = sarg[ci * out_len + t] - ci * seg_len;
                    assert_eq!(
                        argmax[ci * batch * out_len + s * out_len + t],
                        ci * (batch * seg_len) + s * seg_len + local,
                        "winner sample {s} channel {ci} cell {t}"
                    );
                }
            }
        }
    }
}
