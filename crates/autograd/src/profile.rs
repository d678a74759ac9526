//! Op-level profiling: attribute time, FLOPs, and bytes to individual
//! tape operations.
//!
//! When profiling is switched on ([`crate::Tape::set_profiling`]), every
//! forward op and every backward sweep step records one observation —
//! `(kind, phase, shape class, self nanoseconds, flops, bytes out)` —
//! into the tape-owned [`OpProfile`]. Tapes are per-worker-lane, so
//! aggregation is contention-free; the trainer drains lane profiles at
//! epoch boundaries and flushes them as `op_profile` events in the
//! `magic-trace/3` schema.
//!
//! With profiling off (the default) each op costs a single branch on a
//! plain `bool` — cheaper than the relaxed atomic load budget the
//! observability contract allows.
//!
//! Host-side work outside the tape is timed into [`PHASE_HOST`] rows by
//! one helper, [`time_host`] ([`crate::Tape::host`] on a tape).
//!
//! # FLOP accounting
//!
//! FLOP counts follow the standard dense-kernel conventions, documented
//! in `docs/OBSERVABILITY.md` and unit-tested here:
//!
//! * [`matmul_flops`]: `2·m·k·n` for `(m,k) @ (k,n)` (one multiply + one
//!   add per inner-product term).
//! * [`spmm_norm_flops`]: `2·nnz·c + rows·c` for the fused
//!   `D̂⁻¹ (Â F)` — one multiply-add per nonzero per feature column plus
//!   the row-scaling multiply. Scales with *edges*, not `rows²`. The
//!   backward step (`spmm_norm_t.batched`, the transpose-CSR product) has the
//!   same nnz and is charged exactly 1× this count, not the dense 2×
//!   heuristic.
//! * [`conv2d_flops`]: `out_elems · (2·c_in·kh·kw + 1)` — the `+1` is the
//!   bias add per output element. A 1-D convolution (the SortPooling
//!   head's, run as a `conv2d.batched` with a `1 × k` kernel)
//!   is the `kh = 1` case, `out_elems · (2·c_in·k + 1)`.
//! * The im2col-GEMM convolution (`conv2d.batched`) is charged this
//!   formula — the direct-convolution arithmetic, whatever the loop
//!   order. The patch gather is profiled separately as
//!   a forward-only `im2col` row with 0 FLOPs and `bytes_out` =
//!   column-panel size (the zero-bordered copy of each map it gathers
//!   through is not counted). The backward
//!   GEMM step *recomputes* im2col internally (cheaper than keeping the
//!   buffer alive across the tape); that recompute is charged inside the
//!   `conv2d.batched` backward row's standard 2× heuristic, not as a
//!   second `im2col` row.
//! * The batch op kinds (`gemm.batched`, `spmm_norm.batched` /
//!   `spmm_norm_t.batched`, `conv2d.batched`) apply the
//!   formulas above to the *concatenated* output — a block-diagonal
//!   propagation over `Σ nnz_j` nonzeros or a column-stacked convolution
//!   over `Σ out_j` positions performs exactly the members' FLOPs summed,
//!   so an epoch's FLOP totals do not depend on how its samples were
//!   batched. `matmul_row_blocks` (also `gemm.batched`) charges
//!   `2·B·block_rows·c` via `matmul_flops(B, block_rows, c)`. Data
//!   movement (`gather_pad.batched`, `unstack_cols.batched`,
//!   `max_pool1d.batched`) counts zero
//!   FLOPs; `nll_loss.batched` counts one FLOP per row.
//! * Cheap elementwise ops count one FLOP per output element;
//!   `log_softmax` counts five.
//! * Data movement (`reshape`, `concat_cols`, gathers, unstacking,
//!   pooling) counts zero FLOPs; `bytes_out` captures its cost instead.
//! * Backward steps are charged `2×` the forward FLOPs of their op (the
//!   usual two-gradient heuristic for dense kernels), except
//!   `spmm_norm_t.batched` (above) and the fused
//!   `conv2d_relu_amp.batched`, which runs through the pool winners only:
//!   its forward is [`conv2d_relu_amp_flops`] over every map position, its
//!   backward [`conv2d_relu_amp_backward_flops`] over the positive pooled
//!   cells.

use std::collections::HashMap;
use std::time::Instant;

/// Phase label for forward execution.
pub const PHASE_FORWARD: &str = "fwd";
/// Phase label for the backward sweep.
pub const PHASE_BACKWARD: &str = "bwd";
/// Phase label for host-side (non-tape) work attributed by the trainer:
/// parameter binding, gradient reduction, the optimizer step, evaluation.
pub const PHASE_HOST: &str = "host";

/// FLOPs of an `(m, k) @ (k, n)` matrix product.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

/// FLOPs of the fused `D̂⁻¹ (Â F)` sparse propagation producing a
/// `(rows, cols)` output from an adjacency with `nnz` stored nonzeros:
/// one multiply + one add per nonzero per feature column, plus one
/// row-normalization multiply per output element.
pub fn spmm_norm_flops(nnz: usize, rows: usize, cols: usize) -> u64 {
    2 * (nnz as u64) * (cols as u64) + (rows as u64) * (cols as u64)
}

/// FLOPs of a 2-D convolution producing `(c_out, oh, ow)` from `c_in`
/// input channels with a `kh × kw` kernel, bias included. A 1-D
/// convolution producing `(c_out, l_out)` with kernel width `k` is
/// `conv2d_flops(c_out, 1, l_out, c_in, 1, k)`.
pub fn conv2d_flops(c_out: usize, oh: usize, ow: usize, c_in: usize, kh: usize, kw: usize) -> u64 {
    (c_out as u64) * (oh as u64) * (ow as u64) * (2 * (c_in as u64) * (kh as u64) * (kw as u64) + 1)
}

/// Forward FLOPs of the fused Conv2D → ReLU → AMP block over `positions`
/// conv-map positions (`Σ ohⱼ·owⱼ`): the [`conv2d_flops`] of the
/// convolution plus one per map element for the ReLU. The pooling
/// compares count zero, as every pooling does.
pub fn conv2d_relu_amp_flops(c_out: usize, positions: usize, c_in: usize, kh: usize, kw: usize) -> u64 {
    conv2d_flops(c_out, 1, positions, c_in, kh, kw) + (c_out as u64) * (positions as u64)
}

/// Backward FLOPs of the fused Conv2D → ReLU → AMP block: one
/// multiply-add per tap into `gW` and one into the column gradient, for
/// each of the `active` pooled cells whose value is positive (only
/// those carry a gradient), with `ckk = c_in·kh·kw` taps.
pub fn conv2d_relu_amp_backward_flops(ckk: usize, active: usize) -> u64 {
    4 * (ckk as u64) * (active as u64)
}

/// Buckets an element count into a power-of-two shape class, so ops on
/// similar problem sizes aggregate together without exploding the row
/// count. Bucket `b` covers `[2^(b-1), 2^b)` elements; 0 elements is
/// bucket 0.
pub fn shape_bucket(elems: usize) -> u8 {
    (usize::BITS - elems.leading_zeros()) as u8
}

/// Human label for a [`shape_bucket`] value, e.g. `"≤4Ki"` for the
/// bucket whose upper bound is 4096 elements.
pub fn bucket_label(bucket: u8) -> String {
    if bucket == 0 {
        return "0".to_string();
    }
    let upper: u64 = 1 << bucket;
    if upper >= 1 << 20 {
        format!("≤{}Mi", upper >> 20)
    } else if upper >= 1 << 10 {
        format!("≤{}Ki", upper >> 10)
    } else {
        format!("≤{upper}")
    }
}

/// Aggregation key: one profile row per (kind, phase, shape class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpKey {
    /// Stable op kind name (see `Tape`'s op registry) or a host-side
    /// pseudo-op name like `"grad.reduce"`.
    pub kind: &'static str,
    /// One of [`PHASE_FORWARD`], [`PHASE_BACKWARD`], [`PHASE_HOST`].
    pub phase: &'static str,
    /// [`shape_bucket`] of the op's output element count.
    pub shape_bucket: u8,
}

/// Accumulated observations for one [`OpKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpStat {
    /// Number of op executions folded into this row.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed FLOPs.
    pub flops: u64,
    /// Summed output bytes.
    pub bytes_out: u64,
}

/// Per-tape (and therefore per-thread) op-level profile.
///
/// Rows accumulate across samples until drained with
/// [`OpProfile::take`]; merging profiles from several lanes is
/// commutative, so the trainer's epoch-end reduction is order-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfile {
    rows: HashMap<OpKey, OpStat>,
}

impl OpProfile {
    /// An empty profile.
    pub fn new() -> Self {
        OpProfile::default()
    }

    /// Whether any observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Folds one observation into the row for `key`.
    pub fn record(&mut self, key: OpKey, self_ns: u64, flops: u64, bytes_out: u64) {
        let stat = self.rows.entry(key).or_default();
        stat.calls += 1;
        stat.self_ns += self_ns;
        stat.flops += flops;
        stat.bytes_out += bytes_out;
    }

    /// Folds every row of `other` into `self`.
    pub fn merge(&mut self, other: &OpProfile) {
        for (key, stat) in &other.rows {
            let mine = self.rows.entry(*key).or_default();
            mine.calls += stat.calls;
            mine.self_ns += stat.self_ns;
            mine.flops += stat.flops;
            mine.bytes_out += stat.bytes_out;
        }
    }

    /// Drains the profile, returning the accumulated rows and leaving it
    /// empty (allocation retained).
    pub fn take(&mut self) -> OpProfile {
        OpProfile { rows: std::mem::take(&mut self.rows) }
    }

    /// Rows in deterministic order: self time descending, then key.
    pub fn sorted_rows(&self) -> Vec<(OpKey, OpStat)> {
        let mut rows: Vec<(OpKey, OpStat)> = self.rows.iter().map(|(k, s)| (*k, *s)).collect();
        rows.sort_by(|a, b| {
            b.1.self_ns
                .cmp(&a.1.self_ns)
                .then(a.0.kind.cmp(b.0.kind))
                .then(a.0.phase.cmp(b.0.phase))
                .then(a.0.shape_bucket.cmp(&b.0.shape_bucket))
        });
        rows
    }

    /// Total self time across all rows, nanoseconds.
    pub fn total_self_ns(&self) -> u64 {
        self.rows.values().map(|s| s.self_ns).sum()
    }

    /// Runs `f`, recording its wall-clock time as one [`PHASE_HOST`] call
    /// of `kind` when `on` (see [`time_host`]).
    pub fn time_host<R>(&mut self, on: bool, kind: &'static str, f: impl FnOnce() -> R) -> R {
        time_host(self, on, kind, |p| p, |_| f())
    }
}

/// The one host-row timer: runs `f(state)` and, when `on`, records its
/// wall-clock time as one [`PHASE_HOST`] call of `kind` (no shape class,
/// FLOPs or bytes) into the profile `profile` picks out of `state`.
/// Passing `state` through lets `f` use the profile's owner, e.g. a
/// [`crate::Tape`] binding parameters onto itself. Off, this is one
/// branch and a direct call; the clock is never read.
pub fn time_host<S: ?Sized, R>(
    state: &mut S,
    on: bool,
    kind: &'static str,
    profile: fn(&mut S) -> &mut OpProfile,
    f: impl FnOnce(&mut S) -> R,
) -> R {
    if !on {
        return f(state);
    }
    let start = Instant::now();
    let out = f(state);
    let self_ns = start.elapsed().as_nanos() as u64;
    profile(state).record(OpKey { kind, phase: PHASE_HOST, shape_bucket: 0 }, self_ns, 0, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_flops_is_two_mkn() {
        // (3,4) @ (4,5): 3·5 outputs × 4 multiply-adds each.
        assert_eq!(matmul_flops(3, 4, 5), 120);
        assert_eq!(matmul_flops(1, 1, 1), 2);
        assert_eq!(matmul_flops(0, 4, 5), 0);
    }

    #[test]
    fn spmm_norm_flops_scale_with_nonzeros() {
        // 10 nonzeros into a (4, 3) output: 2·10·3 product flops plus
        // 4·3 row-scaling multiplies.
        assert_eq!(spmm_norm_flops(10, 4, 3), 72);
        // An empty matrix still pays the row scaling.
        assert_eq!(spmm_norm_flops(0, 4, 3), 12);
        // A CFG-sparse 1024-vertex graph (nnz ≈ 2n) is ~1000× cheaper
        // than the dense n² product at the same width.
        let sparse = spmm_norm_flops(2 * 1024, 1024, 32);
        let dense = matmul_flops(1024, 1024, 32);
        assert!(dense / sparse > 250, "{dense} / {sparse}");
    }

    #[test]
    fn conv1d_flops_counts_kernel_and_bias() {
        // A 1-D conv is the `1 × k`-kernel 2-D conv: 2 out-channels × 10
        // positions, 3 in-channels, kernel 5 — each output element costs
        // 2·3·5 MACs-as-flops + 1 bias add.
        assert_eq!(conv2d_flops(2, 1, 10, 3, 1, 5), 2 * 10 * (2 * 3 * 5 + 1));
    }

    #[test]
    fn conv2d_flops_counts_kernel_and_bias() {
        // 4 out-channels on a 6×6 output, 3 in-channels, 3×3 kernel.
        assert_eq!(conv2d_flops(4, 6, 6, 3, 3, 3), 4 * 36 * (2 * 3 * 9 + 1));
        // 1×1 kernel degenerates to a per-pixel matmul plus bias.
        assert_eq!(conv2d_flops(1, 2, 2, 1, 1, 1), 4 * 3);
    }

    #[test]
    fn shape_buckets_are_powers_of_two() {
        assert_eq!(shape_bucket(0), 0);
        assert_eq!(shape_bucket(1), 1);
        assert_eq!(shape_bucket(2), 2);
        assert_eq!(shape_bucket(3), 2);
        assert_eq!(shape_bucket(4), 3);
        assert_eq!(shape_bucket(1023), 10);
        assert_eq!(shape_bucket(1024), 11);
    }

    #[test]
    fn bucket_labels_scale_units() {
        assert_eq!(bucket_label(0), "0");
        assert_eq!(bucket_label(3), "≤8");
        assert_eq!(bucket_label(12), "≤4Ki");
        assert_eq!(bucket_label(21), "≤2Mi");
    }

    #[test]
    fn record_merge_and_take_accumulate() {
        let key = OpKey { kind: "matmul", phase: PHASE_FORWARD, shape_bucket: 4 };
        let mut a = OpProfile::new();
        a.record(key, 100, 64, 40);
        a.record(key, 50, 64, 40);
        let mut b = OpProfile::new();
        b.record(key, 25, 64, 40);
        b.record(OpKey { kind: "relu", phase: PHASE_BACKWARD, shape_bucket: 4 }, 5, 16, 40);
        a.merge(&b);

        let rows = a.sorted_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, key, "largest self time first");
        assert_eq!(rows[0].1, OpStat { calls: 3, self_ns: 175, flops: 192, bytes_out: 120 });
        assert_eq!(a.total_self_ns(), 180);

        let taken = a.take();
        assert!(a.is_empty());
        assert_eq!(taken.sorted_rows().len(), 2);
    }

    #[test]
    fn time_host_records_one_host_call_only_when_on() {
        let mut p = OpProfile::new();
        assert_eq!(p.time_host(false, "optimizer.step", || 7), 7);
        assert!(p.is_empty(), "off records nothing");
        p.time_host(true, "optimizer.step", || ());
        p.time_host(true, "optimizer.step", || ());
        let rows = p.sorted_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, OpKey { kind: "optimizer.step", phase: PHASE_HOST, shape_bucket: 0 });
        assert_eq!((rows[0].1.calls, rows[0].1.flops, rows[0].1.bytes_out), (2, 0, 0));
    }
}
