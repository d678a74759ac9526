//! The register-tiled kernels behind every GEMM, the CSR SpMM and the
//! fused Conv2D → ReLU → AMP forward, written once and compiled twice.
//!
//! [`gemm`], [`gemm_tn`], [`gemm_nt`], [`spmm`], the direct stride-1
//! convolution [`conv_band`] and the two pooling steps
//! [`ColumnMax::rows`] and [`ColumnMax::fold`] each have one
//! `#[inline(always)]` body. That body is instantiated twice: once in a
//! plain function built for the target's baseline (SSE2 on x86-64), and
//! once inside a `#[target_feature(enable = "avx2")]` function on x86 and
//! x86-64. [`isa`] picks the best instance the CPU supports the first time
//! a kernel runs and keeps it for the life of the process; tests can run
//! either instance directly by passing an explicit [`Isa`].
//!
//! # Tiles
//!
//! The dense kernels walk the output in `MR × 8` tiles (`MR` = 4 rows,
//! eight `f32` lanes — one AVX `ymm` register or two SSE registers per
//! row). A tile is loaded once, the *whole* `k` loop runs on it in
//! registers, and it is stored once. The `b` operand is visited in column
//! panels small enough to stay in cache while every row tile sweeps
//! them. Rows, columns and `k` values that do not fill a tile run through
//! the same body instantiated at width 1.
//!
//! [`conv_band`] reads its taps in place instead of from a gathered
//! patch panel. For a chunk of 32 output columns (then 8, then 1) it
//! copies up to `TAP_BLOCK` (16) tap spans — each a contiguous load at a
//! fixed offset of the zero-bordered input — next to each other once,
//! then runs every output channel's whole chain over them in registers
//! and stores it once: one weight broadcast feeds four `ymm` multiplies.
//!
//! # Determinism
//!
//! Tiling only decides which elements share registers. Each output
//! element's accumulation chain is a fixed function of its own position
//! and of the shapes, identical in every instance, for any tile or panel
//! it lands in:
//!
//! * [`gemm`] (`out += a·b`): `o += (a0*b0 + a1*b1) + (a2*b2 + a3*b3)` for
//!   each group of four consecutive `k`, then `o += a*b` for each
//!   remaining `k`.
//! * [`gemm_tn`] (`out += aᵀ·b`) and [`spmm`]: `o += a*b`, one term per
//!   `p`, in `p` order (CSR storage order for the SpMM, starting from
//!   `+0.0`, then one multiply by the row scale).
//! * [`gemm_nt`] (`out += a·bᵀ`): [`dot_span`]'s grouping — eight lane
//!   sums over `k` in chunks of eight, a sequential tail, folded as
//!   `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) + tail` — then `o += dot`.
//! * [`conv_band`]: `o = bias`, then [`gemm`]'s chain over the taps in
//!   `(ci, dy, dx)` order, a padding tap reading `+0.0` — exactly what
//!   [`gemm`] computes on a bias-filled panel of gathered patches, where
//!   the gather writes `+0.0` for padding. So the direct convolution is
//!   the im2col one bit for bit, `−0.0` products included.
//!
//! So batching independent operands side by side, or stacking them, never
//! changes a bit of any element, and the baseline and AVX2 instances agree
//! bitwise. That agreement is why `fma` is never enabled: Rust never
//! contracts `a*b + c` into a fused multiply-add on its own, and a fused
//! lowering rounds once where these chains round twice, so an FMA build
//! would train different weights than a baseline build of the same code.
//!
//! # Pooling
//!
//! [`ColumnMax`] is the adaptive max pooling of the fused Conv2D → ReLU →
//! AMP forward, done as one vertical pass over each band of conv output
//! rows: per map, row window and column, a running maximum and the first
//! row that reached it. Its body only compares and selects — no
//! arithmetic touches a value — so its results are the same bits in
//! every instance, whatever the lowering: `v > max` picks, lane by lane,
//! between the old and the new value and row. ReLU is folded in by
//! starting every column at `+0.0`, which only a strictly positive value
//! can beat: ReLU is `if v > 0.0 { v } else { 0.0 }`, what an optimized
//! `v.max(0.0)` computes for every `v`, `−0.0` and NaN included.
//!
//! This module is deliberately **dependency-free** (it imports nothing
//! outside `std`, not even from this crate) so `scripts/ci.sh` can compile
//! it standalone with `rustc --emit asm` and check both instances: packed
//! SSE multiplies in the baseline one, packed `ymm` multiplies, adds and
//! compare/select (or max) in the AVX2 one — packed multiplies and adds
//! in the convolution body itself — and no `vfmadd` anywhere.
//! Keep it that way.

use std::sync::OnceLock;

/// Lane width of a tile row. Eight `f32` lanes fill one AVX `ymm`
/// register and two SSE/NEON registers.
const LANES: usize = 8;

/// Rows per dense register tile.
const MR: usize = 4;

/// Rows of `b` a [`gemm_nt`] tile dots against each of its `MR` rows of
/// `a`.
const NT_COLS: usize = 2;

/// Column groups of [`LANES`] a [`spmm`] row tile holds in registers.
const SPMM_GROUPS: usize = 4;

/// Column groups of [`LANES`] a [`ColumnMax::rows`] tile holds in
/// registers down a band's rows.
const POOL_GROUPS: usize = 4;

/// Rows a [`ColumnMax`] map may have: row numbers below this are exact
/// in an `f32`.
const ROWS_EXACT: usize = 1 << 24;

/// Taps of a [`conv_band`] chunk held side by side at a time: a
/// multiple of four, so no four-term group of the chain straddles two
/// blocks.
const TAP_BLOCK: usize = 16;

/// Floats of `b` per column panel: 64 KiB, small enough for the panel to
/// stay in L2 while every row tile sweeps it.
const PANEL_FLOATS: usize = 16 * 1024;

/// An instruction-set instance of the kernels. Only the instances the
/// running CPU supports can be obtained, so passing one to a kernel is
/// always sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Isa(Level);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    Baseline,
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), allow(dead_code))]
    Avx2,
}

impl Isa {
    /// The instance built for the target's baseline, available everywhere.
    pub const BASELINE: Isa = Isa(Level::Baseline);

    /// The AVX2 instance, if this CPU supports AVX2. Always `None` off
    /// x86.
    pub fn avx2() -> Option<Isa> {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if std::is_x86_feature_detected!("avx2") {
            return Some(Isa(Level::Avx2));
        }
        None
    }

    /// Stable name: `"baseline"` or `"avx2"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Level::Baseline => "baseline",
            Level::Avx2 => "avx2",
        }
    }

    /// Numeric code of the instance (0 = baseline, 1 = AVX2), for trace
    /// span fields, which carry numbers only.
    pub fn code(self) -> u8 {
        self.0 as u8
    }

    /// The name of the instance with numeric code `code`, if any.
    pub fn name_of_code(code: u8) -> Option<&'static str> {
        match code {
            0 => Some("baseline"),
            1 => Some("avx2"),
            _ => None,
        }
    }
}

/// The instance every kernel call of this process runs: the fastest one
/// the CPU supports, chosen once, on first use.
pub fn isa() -> Isa {
    static CHOSEN: OnceLock<Isa> = OnceLock::new();
    *CHOSEN.get_or_init(|| Isa::avx2().unwrap_or(Isa::BASELINE))
}

/// One kernel invocation, ready to run. `run` is the single body both
/// instances compile.
trait Kernel {
    fn run(self);
}

fn run_baseline<K: Kernel>(kernel: K) {
    kernel.run();
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Kernel>(kernel: K) {
    kernel.run();
}

fn dispatch<K: Kernel>(isa: Isa, kernel: K) {
    match isa.0 {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Level::Avx2 => {
            // SAFETY: an `Isa` holding `Level::Avx2` is only ever built by
            // `Isa::avx2`, after `is_x86_feature_detected!("avx2")`
            // returned true, so the CPU running this call supports AVX2.
            unsafe { run_avx2(kernel) }
        }
        _ => run_baseline(kernel),
    }
}

/// `out += a @ b` on row-major slices: `a` is `(m, k)`, `b` is `(k, n)`,
/// `out` is `(m, n)`, run by instance `isa`. See the module docs for the
/// per-element chain.
///
/// # Panics
///
/// Panics if any slice length disagrees with its `(m, k, n)` dimensions.
pub fn gemm(isa: Isa, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_into: a length mismatch");
    assert_eq!(b.len(), k * n, "gemm_into: b length mismatch");
    assert_eq!(out.len(), m * n, "gemm_into: out length mismatch");
    dispatch(isa, Dense::<false> { m, k, n, a, b, out });
}

/// `out += aᵀ @ b` on row-major slices: `a` is `(k, m)`, `b` is `(k, n)`,
/// `out` is `(m, n)`, run by instance `isa`.
///
/// # Panics
///
/// Panics if any slice length disagrees with its `(m, k, n)` dimensions.
pub fn gemm_tn(isa: Isa, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "gemm_tn_into: a length mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn_into: b length mismatch");
    assert_eq!(out.len(), m * n, "gemm_tn_into: out length mismatch");
    dispatch(isa, Dense::<true> { m, k, n, a, b, out });
}

/// `out += a @ bᵀ` where row `i` of `a` is `a[i*lda..i*lda + k]` and row
/// `j` of `b` is `b[j*ldb..j*ldb + k]`; `out` is `(m, n)`. The strides let
/// callers read column ranges of wider row-major matrices in place. Run by
/// instance `isa`.
///
/// # Panics
///
/// Panics if a stride is shorter than `k` or a slice is too short for its
/// strided rows.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt(
    isa: Isa,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
) {
    assert!(lda >= k && ldb >= k, "gemm_nt_into: row stride shorter than k");
    assert!(m == 0 || a.len() >= (m - 1) * lda + k, "gemm_nt_into: a length mismatch");
    assert!(n == 0 || b.len() >= (n - 1) * ldb + k, "gemm_nt_into: b length mismatch");
    assert_eq!(out.len(), m * n, "gemm_nt_into: out length mismatch");
    dispatch(isa, Nt { m, k, n, a, lda, b, ldb, out });
}

/// CSR × dense product: `out[i] = row_scale[i] · Σ_p values[p] · dense[col_indices[p]]`
/// over row `i`'s nonzeros in storage order (no scale when `row_scale` is
/// `None`). `dense` is `(·, c)` row-major and `out` is `(rows, c)`, fully
/// overwritten. Run by instance `isa`.
///
/// # Panics
///
/// Panics if the CSR arrays disagree with each other or with `out`, or a
/// column index is out of range of `dense`.
#[allow(clippy::too_many_arguments)]
pub fn spmm(
    isa: Isa,
    row_offsets: &[usize],
    col_indices: &[u32],
    values: &[f32],
    row_scale: Option<&[f32]>,
    dense: &[f32],
    c: usize,
    out: &mut [f32],
) {
    let rows = row_offsets.len().saturating_sub(1);
    assert_eq!(col_indices.len(), values.len(), "spmm: one value per column index");
    assert_eq!(out.len(), rows * c, "spmm: out length mismatch");
    if let Some(s) = row_scale {
        assert_eq!(s.len(), rows, "spmm: one scale factor per row");
    }
    dispatch(isa, Spmm { row_offsets, col_indices, values, row_scale, dense, c, out });
}

/// Direct stride-1 convolution of one band of output rows, bias
/// included: the convolution of the fused Conv2D → ReLU → AMP forward,
/// run by instance `isa`.
///
/// `x` is the band's zero-bordered input: `c_in` planes of
/// `rows + kh − 1` rows, each `ow + kw − 1` floats wide, where `rows` is
/// the band's output row count. Output cell `(r, ox)` under tap
/// `(ci, dy, dx)` reads row `r + dy`, column `ox + dx` of plane `ci`, so
/// every tap of an output row is one contiguous span. `w` is the
/// `(c_out, c_in·kh·kw)` weight matrix, `bias` the `c_out` biases, and
/// `out` the `(c_out, rows·ow)` panel, fully overwritten. Each element's
/// chain is [`gemm`]'s on a bias-filled panel, taps in `(ci, dy, dx)`
/// order (see the module docs, § Determinism).
///
/// # Panics
///
/// Panics if a dimension is zero or a slice length disagrees with them.
#[allow(clippy::too_many_arguments)]
pub fn conv_band(
    isa: Isa,
    c_in: usize,
    (kh, kw): (usize, usize),
    ow: usize,
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let c_out = bias.len();
    assert!(c_in > 0 && kh > 0 && kw > 0 && ow > 0 && c_out > 0, "conv_band: empty dimension");
    let rows = out.len() / (c_out * ow);
    assert_eq!(out.len(), c_out * rows * ow, "conv_band: out length mismatch");
    assert_eq!(w.len(), c_out * c_in * kh * kw, "conv_band: w length mismatch");
    let plane = (rows + kh - 1) * (ow + kw - 1);
    assert_eq!(x.len(), c_in * plane, "conv_band: x length mismatch");
    if rows > 0 {
        dispatch(isa, ConvBand { c_in, kh, kw, ow, rows, x, w, bias, out });
    }
}

/// One [`conv_band`] call.
struct ConvBand<'a> {
    c_in: usize,
    kh: usize,
    kw: usize,
    ow: usize,
    rows: usize,
    x: &'a [f32],
    w: &'a [f32],
    bias: &'a [f32],
    out: &'a mut [f32],
}

impl Kernel for ConvBand<'_> {
    /// Every output row in chunks of 32 columns, then of eight, then
    /// single columns.
    #[inline(always)]
    fn run(mut self) {
        // Tap spans, one block per chunk width, set up once per call.
        let mut wide = [Lanes::<{ 4 * LANES }>::splat(0.0); TAP_BLOCK];
        let mut lanes = [Lanes::<LANES>::splat(0.0); TAP_BLOCK];
        let mut single = [Lanes::<1>::splat(0.0); TAP_BLOCK];
        for r in 0..self.rows {
            let mut j = 0;
            while j + 4 * LANES <= self.ow {
                self.chunk(&mut wide, r, j);
                j += 4 * LANES;
            }
            while j + LANES <= self.ow {
                self.chunk(&mut lanes, r, j);
                j += LANES;
            }
            while j < self.ow {
                self.chunk(&mut single, r, j);
                j += 1;
            }
        }
    }
}

impl ConvBand<'_> {
    /// Columns `j .. j + W` of output row `r`, every channel. Taps go in
    /// blocks of [`TAP_BLOCK`]: a block's tap spans are copied into
    /// `taps` once, then every channel runs the block's chain on them —
    /// starting at its bias for the first block, at its partial sum in
    /// the panel for later ones.
    #[inline(always)]
    fn chunk<const W: usize>(&mut self, taps: &mut [Lanes<W>; TAP_BLOCK], r: usize, j: usize) {
        let (kh, kw, ow) = (self.kh, self.kw, self.ow);
        let (band, ckk) = (self.rows * ow, self.c_in * kh * kw);
        let pw = ow + kw - 1;
        let plane = (self.rows + kh - 1) * pw;
        let x = &self.x[r * pw + j..];
        let at = r * ow + j;
        let (w, bias) = (self.w, self.bias);
        // Taps in `(ci, dy, dx)` order, each at a fixed offset from the
        // chunk's top-left input.
        let (mut base, mut dy, mut dx) = (0, 0, 0);
        let mut p0 = 0;
        while p0 < ckk {
            let n = (ckk - p0).min(TAP_BLOCK);
            for span in &mut taps[..n] {
                *span = Lanes::load(&x[base + dy * pw + dx..]);
                dx += 1;
                if dx == kw {
                    dx = 0;
                    dy += 1;
                    if dy == kh {
                        dy = 0;
                        base += plane;
                    }
                }
            }
            let taps = &taps[..n];
            let channels = w.chunks_exact(ckk).zip(self.out.chunks_exact_mut(band)).zip(bias);
            for ((w, out), &b) in channels {
                let w = &w[p0..p0 + n];
                let mut acc = if p0 == 0 { Lanes::splat(b) } else { Lanes::load(&out[at..]) };
                let mut t = 0;
                while t + 4 <= n {
                    let s = |i: usize| Lanes::splat(w[t + i]);
                    let v = |i: usize| taps[t + i];
                    acc = acc + ((s(0) * v(0) + s(1) * v(1)) + (s(2) * v(2) + s(3) * v(3)));
                    t += 4;
                }
                // At most three leftover taps, unrolled.
                for _ in 0..3 {
                    if t < n {
                        acc = acc + Lanes::splat(w[t]) * taps[t];
                        t += 1;
                    }
                }
                acc.store(&mut out[at..]);
            }
            p0 += n;
        }
    }
}

/// Adaptive max pooling of ReLU'd maps by running column maxima: the
/// pool pass of the fused Conv2D → ReLU → AMP forward (see the module
/// docs, § Pooling).
///
/// For each of `c` maps `ow` wide and each of its `gh` row windows, it
/// keeps per column the largest ReLU'd value seen so far and the first
/// row that reached it. [`ColumnMax::rows`] feeds it the maps' rows top
/// to bottom, a band at a time; [`ColumnMax::fold`] then reduces each
/// `(row window, column window)` cell to its value and winner, exactly as
/// a strict-`>` scan of the ReLU'd window in `(iy, ix)` order would.
pub struct ColumnMax<'a> {
    c: usize,
    ow: usize,
    ywin: &'a [usize],
    /// `(c, gh, ow)` running maxima.
    best: &'a mut [f32],
    /// `(c, gh, ow)` row numbers (as `f32`, exact below 2²⁴) of the first
    /// value that reached each maximum.
    first: &'a mut [f32],
}

impl<'a> ColumnMax<'a> {
    /// Starts the maxima of `c` maps `ow` wide over the row windows
    /// `ywin` (`gh` flattened `[start, end)` pairs) in `acc`, which must
    /// hold `2·c·gh·ow` floats: every column at ReLU's floor `+0.0`, held
    /// by its window's first row.
    ///
    /// # Panics
    ///
    /// Panics if `c` or `ow` is zero, a window ends past row 2²⁴, or `acc`
    /// has the wrong length.
    pub fn new(c: usize, ow: usize, ywin: &'a [usize], acc: &'a mut [f32]) -> Self {
        assert!(c > 0 && ow > 0, "ColumnMax: empty maps");
        assert!(ywin.iter().all(|&y| y <= ROWS_EXACT), "ColumnMax: map too tall");
        let len = c * ywin.len() / 2 * ow;
        assert_eq!(acc.len(), 2 * len, "ColumnMax: accumulator length mismatch");
        let (best, first) = acc.split_at_mut(len);
        best.fill(0.0);
        for (f, y) in first.chunks_exact_mut(ow).zip(ywin.chunks_exact(2).cycle()) {
            f.fill(y[0] as f32);
        }
        ColumnMax { c, ow, ywin, best, first }
    }

    /// Takes rows `oy0 ..` of every map into the maxima, run by instance
    /// `isa`: `band` holds the `c` maps' rows, `r·ow` floats per map,
    /// row-major. A value `v` of row `oy` replaces the maximum of its
    /// column in every row window holding `oy` when `v > max`, and `oy`
    /// becomes that column's row; so a column keeps its first maximum.
    /// Bands must come top to bottom.
    ///
    /// # Panics
    ///
    /// Panics if `band` is not whole rows of `c` maps.
    pub fn rows(&mut self, isa: Isa, band: &[f32], oy0: usize) {
        let per_map = band.len() / self.c;
        assert_eq!(per_map * self.c, band.len(), "ColumnMax: band length mismatch");
        assert_eq!(per_map % self.ow, 0, "ColumnMax: band of partial rows");
        if per_map > 0 {
            dispatch(isa, ColumnRows { pool: self, band, oy0 });
        }
    }

    /// Writes map `o`'s `gh × gw` pooled cells, for the column windows
    /// `xwin` (`gw` flattened non-empty `[start, end)` pairs), run by
    /// instance `isa`: cell `gy·gw + gx` gets its window's maximum in
    /// `values` and, in `winners`, `base + iy·ow + ix` of the smallest
    /// `(iy, ix)` holding that maximum. Each column holds its first
    /// maximum, so that is the cell where a strict-`>` scan of the window
    /// in `(iy, ix)` order stops rising.
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of range, a window is empty or past `ow`, or
    /// `values`/`winners` are not `gh·gw` long.
    pub fn fold(
        &self,
        isa: Isa,
        o: usize,
        xwin: &[usize],
        base: usize,
        values: &mut [f32],
        winners: &mut [usize],
    ) {
        let cells = (self.ywin.len() / 2) * (xwin.len() / 2);
        assert!(o < self.c, "ColumnMax: map {o} out of range");
        assert_eq!(values.len(), cells, "ColumnMax: values length mismatch");
        assert_eq!(winners.len(), cells, "ColumnMax: winners length mismatch");
        let fits = |x: &[usize]| x[0] < x[1] && x[1] <= self.ow;
        assert!(xwin.chunks_exact(2).all(fits), "ColumnMax: bad column window");
        dispatch(isa, ColumnFold { pool: self, o, xwin, base, values, winners });
    }
}

/// One [`ColumnMax::rows`] call.
struct ColumnRows<'p, 'a> {
    pool: &'p mut ColumnMax<'a>,
    band: &'p [f32],
    oy0: usize,
}

impl Kernel for ColumnRows<'_, '_> {
    #[inline(always)]
    fn run(self) {
        let ColumnMax { c, ow, ywin, ref mut best, ref mut first } = *self.pool;
        let gh = ywin.len() / 2;
        let per_map = self.band.len() / c;
        let (oy0, oy1) = (self.oy0, self.oy0 + per_map / ow);
        for (o, map) in self.band.chunks_exact(per_map).enumerate() {
            for (gy, y) in ywin.chunks_exact(2).enumerate() {
                let (lo, hi) = (y[0].max(oy0), y[1].min(oy1));
                if lo < hi {
                    let at = (o * gh + gy) * ow;
                    let rows = &map[(lo - oy0) * ow..(hi - oy0) * ow];
                    column_max(rows, ow, lo, &mut best[at..][..ow], &mut first[at..][..ow]);
                }
            }
        }
    }
}

/// Whole rows `ow` wide, the first being row `oy`, into one window's
/// running column maxima: [`POOL_GROUPS`] groups of [`LANES`] columns at
/// a time, held in registers down every row (independent chains, so the
/// compares overlap), then single groups, then the remaining columns one
/// by one.
#[inline(always)]
fn column_max(rows: &[f32], ow: usize, oy: usize, best: &mut [f32], first: &mut [f32]) {
    let mut j = 0;
    while j + POOL_GROUPS * LANES <= ow {
        column_max_tile::<POOL_GROUPS, LANES>(rows, ow, oy, &mut best[j..], &mut first[j..], j);
        j += POOL_GROUPS * LANES;
    }
    while j + LANES <= ow {
        column_max_tile::<1, LANES>(rows, ow, oy, &mut best[j..], &mut first[j..], j);
        j += LANES;
    }
    while j < ow {
        column_max_tile::<1, 1>(rows, ow, oy, &mut best[j..], &mut first[j..], j);
        j += 1;
    }
}

/// Columns `j .. j + G·W` of every row: where `v > max`, the value and
/// its row replace the column's maximum and row, as branch-free
/// lane-wise selects.
#[inline(always)]
fn column_max_tile<const G: usize, const W: usize>(
    rows: &[f32],
    ow: usize,
    oy: usize,
    best: &mut [f32],
    first: &mut [f32],
    j: usize,
) {
    let mut m: [Lanes<W>; G] = std::array::from_fn(|g| Lanes::load(&best[g * W..]));
    let mut f: [Lanes<W>; G] = std::array::from_fn(|g| Lanes::load(&first[g * W..]));
    for (oy, row) in (oy..).zip(rows.chunks_exact(ow)) {
        let oy = Lanes::splat(oy as f32);
        for (g, (m, f)) in m.iter_mut().zip(f.iter_mut()).enumerate() {
            let v = Lanes::<W>::load(&row[j + g * W..]);
            *f = v.if_gt(*m, oy, *f);
            *m = v.if_gt(*m, v, *m);
        }
    }
    for (g, (m, f)) in m.into_iter().zip(f).enumerate() {
        m.store(&mut best[g * W..]);
        f.store(&mut first[g * W..]);
    }
}

/// One [`ColumnMax::fold`] call.
struct ColumnFold<'p, 'a> {
    pool: &'p ColumnMax<'a>,
    o: usize,
    xwin: &'p [usize],
    base: usize,
    values: &'p mut [f32],
    winners: &'p mut [usize],
}

impl Kernel for ColumnFold<'_, '_> {
    #[inline(always)]
    fn run(self) {
        let ow = self.pool.ow;
        let band = self.pool.ywin.len() / 2 * ow;
        let at = self.o * band;
        let (best, first) = (&self.pool.best[at..][..band], &self.pool.first[at..][..band]);
        let rows = best.chunks_exact(ow).zip(first.chunks_exact(ow));
        let windows =
            rows.flat_map(|(best, first)| self.xwin.chunks_exact(2).map(move |x| (best, first, x)));
        let cells = self.values.iter_mut().zip(self.winners.iter_mut());
        for ((value, winner), (best, first, x)) in cells.zip(windows) {
            let (m, row, ix) = window_max(&best[x[0]..x[1]], &first[x[0]..x[1]]);
            *value = m;
            *winner = self.base + row * ow + x[0] + ix;
        }
    }
}

/// A window's maximum, the smallest row holding it, and the first column
/// holding both: `(value, row, column)`. Lane `l` keeps the maximum of
/// columns `l, l + 8, …` (the last chunk padded with `−∞`) and the
/// smallest row among its ties; three rounds then merge each lane with
/// the one 4, 2 and 1 lanes over. Maximum and smallest row are the same
/// for any split of the columns, so they need no column order; the
/// column is then the first that holds both.
#[inline(always)]
fn window_max(best: &[f32], first: &[f32]) -> (f32, usize, usize) {
    let mut m = Lanes::<LANES>::splat(f32::NEG_INFINITY);
    let mut r = Lanes::<LANES>::splat(f32::INFINITY);
    let mut j = 0;
    while j < best.len() {
        let (v, f) = if j + LANES <= best.len() {
            (Lanes::load(&best[j..]), Lanes::load(&first[j..]))
        } else {
            let pad = |s: &[f32], x| Lanes(std::array::from_fn(|l| s.get(j + l).copied().unwrap_or(x)));
            (pad(best, f32::NEG_INFINITY), pad(first, f32::INFINITY))
        };
        (m, r) = max_row(m, r, v, f);
        j += LANES;
    }
    for k in [4, 2, 1] {
        (m, r) = max_row(m, r, m.rotate(k), r.rotate(k));
    }
    let (value, row) = (m.0[0], r.0[0]);
    let column = (0..best.len()).position(|ix| best[ix] == value && first[ix] == row).unwrap_or(0);
    (value, row as usize, column)
}

/// Lane-wise merge of two `(maximum, smallest row holding it)` pairs.
#[inline(always)]
fn max_row<const W: usize>(
    m: Lanes<W>,
    r: Lanes<W>,
    v: Lanes<W>,
    f: Lanes<W>,
) -> (Lanes<W>, Lanes<W>) {
    let tie = v.if_eq(m, r.if_gt(f, f, r), r);
    (v.if_gt(m, v, m), v.if_gt(m, f, tie))
}

/// Dot product of two equal-length spans through eight independent
/// accumulators, combined pairwise:
/// `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) + tail`, with the sub-8
/// remainder summed sequentially. The grouping is a fixed function of
/// the length alone, so the result is bitwise reproducible; [`gemm_nt`]
/// computes every element with exactly this grouping.
///
/// # Panics
///
/// Panics if the spans differ in length.
pub fn dot_span(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_span length mismatch");
    let mut acc = [0.0f32; LANES];
    let mut j = 0;
    let n8 = a.len() / LANES * LANES;
    while j < n8 {
        let ca: &[f32; LANES] = (&a[j..j + LANES]).try_into().unwrap();
        let cb: &[f32; LANES] = (&b[j..j + LANES]).try_into().unwrap();
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
        j += LANES;
    }
    let mut tail = 0.0f32;
    while j < a.len() {
        tail += a[j] * b[j];
        j += 1;
    }
    fold(&acc) + tail
}

/// The fixed pairwise tree over eight lane sums.
#[inline(always)]
fn fold(s: &[f32; LANES]) -> f32 {
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
}

/// `W` lanes handled by value. Lane-wise `+`, `*` and selects on whole
/// values, rather than loops over borrowed arrays, are what lets LLVM
/// keep a tile in registers and lower each operation to one packed
/// instruction per register in every instance.
#[derive(Clone, Copy)]
struct Lanes<const W: usize>([f32; W]);

impl<const W: usize> Lanes<W> {
    #[inline(always)]
    fn load(s: &[f32]) -> Self {
        Lanes(s[..W].try_into().unwrap())
    }

    #[inline(always)]
    fn splat(x: f32) -> Self {
        Lanes([x; W])
    }

    #[inline(always)]
    fn store(self, s: &mut [f32]) {
        s[..W].copy_from_slice(&self.0);
    }

    /// Lane-wise `if self > o { a } else { b }`.
    #[inline(always)]
    fn if_gt(self, o: Self, a: Self, b: Self) -> Self {
        Lanes(std::array::from_fn(|l| if self.0[l] > o.0[l] { a.0[l] } else { b.0[l] }))
    }

    /// Lane `l` takes lane `l + k` (mod `W`).
    #[inline(always)]
    fn rotate(self, k: usize) -> Self {
        Lanes(std::array::from_fn(|l| self.0[(l + k) % W]))
    }

    /// Lane-wise `if self == o { a } else { b }`.
    #[inline(always)]
    fn if_eq(self, o: Self, a: Self, b: Self) -> Self {
        Lanes(std::array::from_fn(|l| if self.0[l] == o.0[l] { a.0[l] } else { b.0[l] }))
    }
}

impl<const W: usize> std::ops::Add for Lanes<W> {
    type Output = Self;
    #[inline(always)]
    fn add(mut self, o: Self) -> Self {
        for (x, y) in self.0.iter_mut().zip(o.0) {
            *x += y;
        }
        self
    }
}

impl<const W: usize> std::ops::Mul for Lanes<W> {
    type Output = Self;
    #[inline(always)]
    fn mul(mut self, o: Self) -> Self {
        for (x, y) in self.0.iter_mut().zip(o.0) {
            *x *= y;
        }
        self
    }
}

/// A dense kernel seen as a grid of `R × W` output tiles.
trait Tiles {
    /// Output shape `(rows, cols)`.
    fn dims(&self) -> (usize, usize);
    /// Output columns per cache panel.
    fn panel(&self) -> usize;
    /// Computes the whole `k` chain of the `R × W` tile at `(i, j)`.
    fn tile<const R: usize, const W: usize>(&mut self, i: usize, j: usize);
}

/// Sweeps the output panel by panel, `MR`-row tiles first, each row tile
/// across the panel in `W`-column tiles; leftover rows and columns take
/// width-1 tiles.
#[inline(always)]
fn sweep<const W: usize, T: Tiles>(t: &mut T) {
    let (m, n) = t.dims();
    let panel = t.panel().max(W);
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + panel).min(n);
        let mut i = 0;
        while i + MR <= m {
            row_tiles::<MR, W, T>(t, i, j0, j1);
            i += MR;
        }
        while i < m {
            row_tiles::<1, W, T>(t, i, j0, j1);
            i += 1;
        }
        j0 = j1;
    }
}

#[inline(always)]
fn row_tiles<const R: usize, const W: usize, T: Tiles>(t: &mut T, i: usize, j0: usize, j1: usize) {
    let mut j = j0;
    while j + W <= j1 {
        t.tile::<R, W>(i, j);
        j += W;
    }
    while j < j1 {
        t.tile::<R, 1>(i, j);
        j += 1;
    }
}

/// `out += a·b` with `a` as `(m, k)` and the four-term `k` groups of
/// [`gemm`], or, when `TN`, `out += aᵀ·b` with `a` as `(k, m)` and the
/// one-term chain of [`gemm_tn`].
struct Dense<'a, const TN: bool> {
    m: usize,
    k: usize,
    n: usize,
    a: &'a [f32],
    b: &'a [f32],
    out: &'a mut [f32],
}

impl<const TN: bool> Kernel for Dense<'_, TN> {
    #[inline(always)]
    fn run(mut self) {
        sweep::<LANES, _>(&mut self);
    }
}

impl<const TN: bool> Tiles for Dense<'_, TN> {
    fn dims(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    fn panel(&self) -> usize {
        PANEL_FLOATS / self.k.max(1) / LANES * LANES
    }

    #[inline(always)]
    fn tile<const R: usize, const W: usize>(&mut self, i: usize, j: usize) {
        let (m, k, n, a) = (self.m, self.k, self.n, self.a);
        let b = |p: usize| Lanes::<W>::load(&self.b[p * n + j..]);
        let mut acc: [Lanes<W>; R] =
            std::array::from_fn(|r| Lanes::load(&self.out[(i + r) * n + j..]));
        let mut p = 0;
        if !TN {
            while p + 4 <= k {
                let (b0, b1, b2, b3) = (b(p), b(p + 1), b(p + 2), b(p + 3));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let ar = &a[(i + r) * k + p..][..4];
                    let s = |q: usize| Lanes::splat(ar[q]);
                    *acc_r = *acc_r + ((s(0) * b0 + s(1) * b1) + (s(2) * b2 + s(3) * b3));
                }
                p += 4;
            }
        }
        while p < k {
            let b0 = b(p);
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let a0 = if TN { a[p * m + i + r] } else { a[(i + r) * k + p] };
                *acc_r = *acc_r + Lanes::splat(a0) * b0;
            }
            p += 1;
        }
        for (r, acc_r) in acc.into_iter().enumerate() {
            acc_r.store(&mut self.out[(i + r) * n + j..]);
        }
    }
}

struct Nt<'a> {
    m: usize,
    k: usize,
    n: usize,
    a: &'a [f32],
    lda: usize,
    b: &'a [f32],
    ldb: usize,
    out: &'a mut [f32],
}

impl Kernel for Nt<'_> {
    #[inline(always)]
    fn run(mut self) {
        sweep::<NT_COLS, _>(&mut self);
    }
}

impl Tiles for Nt<'_> {
    fn dims(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    fn panel(&self) -> usize {
        self.n
    }

    /// `R` rows of `a` against `W` rows of `b`: `R·W` dot products, each
    /// with its own eight lane sums and tail.
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(&mut self, i: usize, j: usize) {
        let k = self.k;
        let a = |r: usize, p: usize| &self.a[(i + r) * self.lda + p..];
        let b = |c: usize, p: usize| &self.b[(j + c) * self.ldb + p..];
        let mut acc = [[Lanes::<LANES>::splat(0.0); W]; R];
        let mut p = 0;
        while p + LANES <= k {
            let bv: [Lanes<LANES>; W] = std::array::from_fn(|c| Lanes::load(b(c, p)));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = Lanes::load(a(r, p));
                for (acc_rc, &bc) in acc_r.iter_mut().zip(&bv) {
                    *acc_rc = *acc_rc + av * bc;
                }
            }
            p += LANES;
        }
        let mut tail = [[0.0f32; W]; R];
        while p < k {
            for (r, tail_r) in tail.iter_mut().enumerate() {
                let ar = a(r, p)[0];
                for (c, t) in tail_r.iter_mut().enumerate() {
                    *t += ar * b(c, p)[0];
                }
            }
            p += 1;
        }
        for r in 0..R {
            let orow = &mut self.out[(i + r) * self.n + j..][..W];
            for c in 0..W {
                orow[c] += fold(&acc[r][c].0) + tail[r][c];
            }
        }
    }
}

struct Spmm<'a> {
    row_offsets: &'a [usize],
    col_indices: &'a [u32],
    values: &'a [f32],
    row_scale: Option<&'a [f32]>,
    dense: &'a [f32],
    c: usize,
    out: &'a mut [f32],
}

impl Kernel for Spmm<'_> {
    #[inline(always)]
    fn run(mut self) {
        let c = self.c;
        for i in 0..self.row_offsets.len().saturating_sub(1) {
            let mut j = 0;
            while j + SPMM_GROUPS * LANES <= c {
                self.tile::<SPMM_GROUPS, LANES>(i, j);
                j += SPMM_GROUPS * LANES;
            }
            while j + LANES <= c {
                self.tile::<1, LANES>(i, j);
                j += LANES;
            }
            while j < c {
                self.tile::<1, 1>(i, j);
                j += 1;
            }
        }
    }
}

impl Spmm<'_> {
    /// Columns `j .. j + G·W` of output row `i`, held in registers across
    /// the row's nonzeros.
    #[inline(always)]
    fn tile<const G: usize, const W: usize>(&mut self, i: usize, j: usize) {
        let c = self.c;
        let mut acc = [Lanes::<W>::splat(0.0); G];
        for p in self.row_offsets[i]..self.row_offsets[i + 1] {
            let v = Lanes::splat(self.values[p]);
            let drow = &self.dense[self.col_indices[p] as usize * c + j..];
            for (g, acc_g) in acc.iter_mut().enumerate() {
                *acc_g = *acc_g + v * Lanes::load(&drow[g * W..]);
            }
        }
        if let Some(s) = self.row_scale {
            let f = Lanes::splat(s[i]);
            for acc_g in &mut acc {
                *acc_g = *acc_g * f;
            }
        }
        for (g, acc_g) in acc.into_iter().enumerate() {
            acc_g.store(&mut self.out[i * c + j + g * W..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instances() -> Vec<Isa> {
        let mut all = vec![Isa::BASELINE];
        all.extend(Isa::avx2());
        all
    }

    fn values(len: usize, seed: f32) -> Vec<f32> {
        (0..len).map(|i| ((i as f32 + seed) * 0.37).sin()).collect()
    }

    #[test]
    fn madd4_matches_scalar_expression_bitwise() {
        // gemm's four-term group chain, then one term per leftover k.
        let (m, k, n) = (5, 6, 11);
        let (a, b) = (values(m * k, 1.0), values(k * n, 2.0));
        let mut want = values(m * n, 3.0);
        for i in 0..m {
            for j in 0..n {
                let o = &mut want[i * n + j];
                let x = |p: usize| a[i * k + p] * b[p * n + j];
                *o += (x(0) + x(1)) + (x(2) + x(3));
                *o += x(4);
                *o += x(5);
            }
        }
        for isa in instances() {
            let mut out = values(m * n, 3.0);
            gemm(isa, m, k, n, &a, &b, &mut out);
            assert_eq!(out, want, "{}", isa.name());
        }
    }

    #[test]
    fn axpy_matches_scalar_expression_bitwise() {
        // gemm_tn and the SpMM: one `o += a*b` term per p, in p order.
        let (m, k, n) = (5, 3, 13);
        let (a, b) = (values(k * m, 1.0), values(k * n, 2.0));
        let mut want = values(m * n, 3.0);
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    want[i * n + j] += a[p * m + i] * b[p * n + j];
                }
            }
        }
        // Row i of a 2-row CSR holds a[.., i] at columns 0..k of `b`.
        let offsets = [0, k, 2 * k];
        let cols: Vec<u32> = (0..2 * k).map(|p| (p % k) as u32).collect();
        let vals: Vec<f32> = (0..2 * k).map(|p| a[(p % k) * m + p / k]).collect();
        for isa in instances() {
            let mut out = values(m * n, 3.0);
            gemm_tn(isa, m, k, n, &a, &b, &mut out);
            assert_eq!(out, want, "{}", isa.name());
            let mut rows = vec![f32::NAN; 2 * n];
            spmm(isa, &offsets, &cols, &vals, None, &b, n, &mut rows);
            for i in 0..2 {
                for j in 0..n {
                    let mut o = 0.0f32;
                    for p in 0..k {
                        o += a[p * m + i] * b[p * n + j];
                    }
                    assert_eq!(rows[i * n + j].to_bits(), o.to_bits(), "{}", isa.name());
                }
            }
        }
    }

    #[test]
    fn gemm_nt_folds_like_dot_span() {
        let (m, k, n) = (6, 21, 3);
        let (a, b) = (values(m * k, 4.0), values(n * k, 5.0));
        for isa in instances() {
            let mut out = vec![0.25f32; m * n];
            gemm_nt(isa, m, k, n, &a, k, &b, k, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let want = 0.25 + dot_span(&a[i * k..][..k], &b[j * k..][..k]);
                    assert_eq!(out[i * n + j].to_bits(), want.to_bits(), "{}", isa.name());
                }
            }
        }
    }

    #[test]
    fn isa_codes_round_trip_to_names() {
        for isa in instances() {
            assert_eq!(Isa::name_of_code(isa.code()), Some(isa.name()));
        }
        assert_eq!(Isa::name_of_code(9), None);
        assert!(instances().contains(&isa()));
    }

    #[test]
    fn dot_span_exact_on_small_integers() {
        for len in 0..20usize {
            let a: Vec<f32> = (0..len).map(|i| i as f32 + 1.0).collect();
            let want: f32 = a.iter().map(|x| x * x).sum();
            assert_eq!(dot_span(&a, &a), want, "len {len}");
        }
    }

    #[test]
    fn dot_span_is_bitwise_deterministic() {
        let a: Vec<f32> = (0..301).map(|i| (i as f32 * 0.11).sin()).collect();
        let b: Vec<f32> = (0..301).map(|i| (i as f32 * 0.07).cos()).collect();
        let first = dot_span(&a, &b);
        for _ in 0..3 {
            assert_eq!(first.to_bits(), dot_span(&a, &b).to_bits());
        }
    }
}
