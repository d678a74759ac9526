//! The recording tape: forward operations and the reverse gradient sweep.
//!
//! Every model-facing op works on a block-diagonal mini-batch: samples
//! are row-stacked (graph features) or column-stacked (conv signals and
//! feature maps), and a single graph is simply a batch of one. Forward
//! values are the per-sample values laid side by side, and gradients of
//! shared parameters are unstacked per sample and combined in sample
//! order, so a batch of `B` is bitwise identical to `B` batches of one
//! (see DESIGN.md, "Batched execution").

use crate::conv;
use crate::profile::{self, OpKey, OpProfile, PHASE_BACKWARD, PHASE_FORWARD};
use magic_tensor::{CsrMatrix, Rng64, Shape, Tensor, Workspace, WorkspaceStats};
use std::sync::Arc;
use std::time::Instant;

/// Handle to a value recorded on a [`Tape`].
///
/// `Var`s are cheap indices; they are only meaningful for the tape that
/// created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    Leaf,
    Matmul(Var, Var),
    Mul(Var, Var),
    AddBias(Var, Var),
    Relu(Var),
    ScaleRows(Var, Vec<f32>),
    /// Fused `D̂⁻¹ (Â F)` of Eq. (1) over a (block-diagonal) CSR
    /// adjacency. The matrices and scale vector are batch constants
    /// shared via `Arc`.
    SpmmNorm {
        adj: Arc<CsrMatrix>,
        adj_t: Arc<CsrMatrix>,
        inv_degree: Arc<Vec<f32>>,
        f: Var,
    },
    ConcatCols(Vec<Var>),
    Reshape(Var),
    LogSoftmaxRows(Var),
    Sum(Var),
    Dropout(Var, Vec<f32>),
    /// `a @ b` where `a` row-stacks one segment per sample (`bounds` are
    /// the `B+1` segment boundaries). The forward is a plain matmul; the
    /// backward unstacks `b`'s gradient per sample so the shared-operand
    /// reduction chain matches a batch of one per sample bitwise.
    MatmulBatched { a: Var, b: Var, bounds: Arc<Vec<usize>> },
    /// One single-row GEMM per `block_rows`-row block of `x` against the
    /// shared `(1, block_rows)` operand `w` — the batched
    /// WeightedVertices head. Output row `j` is `w @ x[j·k..(j+1)·k]`.
    MatmulRowBlocks { w: Var, x: Var, block_rows: usize },
    /// Row gather with a `usize::MAX` pad sentinel: sentinel destinations
    /// read (and backprop) a zero row. SortPooling's gather + pad for a
    /// whole batch.
    GatherRowsPad(Var, Vec<usize>),
    /// `(C, B·L)` → `(B, C·L)`: row `j` of the output is sample `j`'s
    /// per-sample row-major flatten. Pure data movement.
    UnstackColumns { a: Var, seg_len: usize },
    /// Per-row NLL: `out[j] = -lp[j, targets[j]]` as a `(B, 1)` column.
    NllLossRows(Var, Vec<usize>),
    /// Stride-1 2-D convolution over a column-stacked batch of maps; a
    /// 1-D convolution is the `1 × k`-kernel case.
    Conv2d {
        x: Var,
        w: Var,
        b: Var,
        pad: usize,
        dims: Arc<Vec<(usize, usize)>>,
    },
    /// `AMP(relu(conv2d(x)))` of the adaptive head with the conv map
    /// never materialised: the node value is the pooled output and
    /// `winners` holds, per pooled cell, the flat index of its winner in
    /// the `(c_out, Σ ohⱼ·owⱼ)` conv map.
    Conv2dReluAmp {
        x: Var,
        w: Var,
        b: Var,
        pad: usize,
        dims: Arc<Vec<(usize, usize)>>,
        winners: Vec<usize>,
    },
    MaxPool1d { x: Var, argmax: Vec<usize> },
}

impl Op {
    /// Stable kind name used by the profiler and the `magic-trace/3`
    /// `op_profile` event. These strings are part of the trace schema:
    /// renaming one is a reader-visible change and belongs in
    /// `docs/OBSERVABILITY.md`'s op-kind registry. The `.batched` suffix
    /// marks the ops that run over a whole block-diagonal batch.
    fn kind(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Matmul(..) => "matmul",
            Op::Mul(..) => "mul",
            Op::AddBias(..) => "add_bias",
            Op::Relu(..) => "relu",
            Op::ScaleRows(..) => "scale_rows",
            Op::SpmmNorm { .. } => "spmm_norm.batched",
            Op::ConcatCols(..) => "concat_cols",
            Op::Reshape(..) => "reshape",
            Op::LogSoftmaxRows(..) => "log_softmax",
            Op::Sum(..) => "sum",
            Op::Dropout(..) => "dropout",
            Op::MatmulBatched { .. } | Op::MatmulRowBlocks { .. } => "gemm.batched",
            Op::GatherRowsPad(..) => "gather_pad.batched",
            Op::UnstackColumns { .. } => "unstack_cols.batched",
            Op::NllLossRows(..) => "nll_loss.batched",
            Op::Conv2d { .. } => "conv2d.batched",
            Op::Conv2dReluAmp { .. } => "conv2d_relu_amp.batched",
            Op::MaxPool1d { .. } => "max_pool1d.batched",
        }
    }

    /// Profile kind for this op's backward step. Almost always the
    /// forward kind; `spmm_norm`'s backward is a materially different
    /// kernel (the transpose-CSR product), so it gets its own registered
    /// pseudo-op name.
    fn backward_kind(&self) -> &'static str {
        match self {
            Op::SpmmNorm { .. } => "spmm_norm_t.batched",
            other => other.kind(),
        }
    }
}

#[derive(Debug)]
struct Node {
    value: Value,
    op: Op,
    requires_grad: bool,
}

/// A node's forward value: a buffer the tape owns (and recycles on
/// [`Tape::reset`]), or a tensor shared with its owner, such as a model
/// parameter or a graph's attribute matrix, which the tape only reads.
#[derive(Debug)]
enum Value {
    Owned(Tensor),
    Shared(Arc<Tensor>),
}

impl std::ops::Deref for Value {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            Value::Owned(t) => t,
            Value::Shared(t) => t,
        }
    }
}

/// A gradient tape: records a forward computation, then differentiates it.
///
/// One tape records one forward/backward pass over a (block-diagonal)
/// batch of graphs; training lanes keep a tape each and call
/// [`Tape::reset`] between passes to reuse its buffers.
///
/// # Example
///
/// ```
/// use magic_autograd::Tape;
/// use magic_tensor::Tensor;
///
/// let mut tape = Tape::new();
/// let x = tape.leaf(Tensor::from_slice(&[1.0, -2.0]).reshape([1, 2]), true);
/// let y = tape.relu(x);
/// let s = tape.sum(y);
/// tape.backward(s);
/// assert_eq!(tape.grad(x).unwrap().as_slice(), &[1.0, 0.0]);
/// ```
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    /// When set, every forward op and backward step records into
    /// `profile`. A plain `bool` keeps the disabled path to one branch.
    profiling: bool,
    profile: OpProfile,
    /// Pooled scratch/output buffers, refilled by [`Tape::reset`]. Owned
    /// by the tape (not thread-local) because the trainer keeps one tape
    /// per worker lane across batches while the executor's threads are
    /// respawned per batch.
    workspace: Workspace,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Pool hit/miss counters of this tape's workspace. After a warm-up
    /// sample, steady-state training should add hits but no misses.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.workspace.stats()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Switches op-level profiling on or off. Off (the default), each op
    /// costs one branch on a plain bool; on, every forward op and
    /// backward step records `(kind, shape class, self_ns, flops,
    /// bytes_out)` into the tape-owned [`OpProfile`].
    ///
    /// Profiling is observational only — it never changes what the tape
    /// computes, so profiled and unprofiled runs are bitwise identical.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// Whether op-level profiling is currently on.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// The profile accumulated so far (empty unless profiling was on).
    pub fn profile(&self) -> &OpProfile {
        &self.profile
    }

    /// Drains and returns the accumulated profile, leaving it empty.
    pub fn take_profile(&mut self) -> OpProfile {
        self.profile.take()
    }

    /// Runs host-side work `f` against this tape (binding parameters onto
    /// it, reading its gradients out) and, while profiling is on, records
    /// its wall-clock time as one `host`-phase call of `kind` in the
    /// tape's profile, via [`profile::time_host`].
    pub fn host<R>(&mut self, kind: &'static str, f: impl FnOnce(&mut Tape) -> R) -> R {
        let on = self.profiling;
        profile::time_host(self, on, kind, |tape| &mut tape.profile, f)
    }

    /// Prepares the tape for the next sample, keeping allocations.
    ///
    /// This is the worker-reuse entry point: data-parallel training
    /// keeps one tape per worker lane and resets it between samples.
    /// `reset` recycles every owned node value, gradient, dropout mask
    /// and pooling index vector into the tape's [`Workspace`], so the
    /// next sample's kernels are served from the pool and steady-state
    /// training stops allocating. Shared leaves are dropped, not
    /// recycled: the buffer belongs to its owner, and a reset tape holds
    /// no reference to it. The op profile is retained: it accumulates
    /// across samples until drained with [`Tape::take_profile`].
    pub fn reset(&mut self) {
        let Tape { nodes, grads, workspace, .. } = self;
        for node in nodes.drain(..) {
            match node.op {
                Op::Dropout(_, mask) => workspace.recycle(mask),
                Op::Conv2dReluAmp { winners: argmax, .. } | Op::MaxPool1d { argmax, .. } => {
                    workspace.recycle_indices(argmax)
                }
                _ => {}
            }
            if let Value::Owned(value) = node.value {
                workspace.recycle_tensor(value);
            }
        }
        for t in grads.drain(..).flatten() {
            workspace.recycle_tensor(t);
        }
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        self.push_value(Value::Owned(value), op, requires_grad)
    }

    fn push_value(&mut self, value: Value, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node { value, op, requires_grad });
        self.grads.push(None);
        Var(self.nodes.len() - 1)
    }

    /// Start-of-op timestamp: `Some` only when profiling, so the
    /// disabled path never touches the clock.
    #[inline]
    fn prof_start(&self) -> Option<Instant> {
        self.profiling.then(Instant::now)
    }

    /// [`Tape::push`] plus a profile observation when `started` is set.
    /// `started` must have been taken *before* the forward kernel ran so
    /// the elapsed time covers the computation, not just the push.
    fn push_profiled(
        &mut self,
        value: Tensor,
        op: Op,
        requires_grad: bool,
        started: Option<Instant>,
    ) -> Var {
        if let Some(t0) = started {
            let self_ns = t0.elapsed().as_nanos() as u64;
            let flops = self.forward_flops(&op, &value);
            let key = OpKey {
                kind: op.kind(),
                phase: PHASE_FORWARD,
                shape_bucket: profile::shape_bucket(value.len()),
            };
            let bytes_out = (value.len() * std::mem::size_of::<f32>()) as u64;
            self.profile.record(key, self_ns, flops, bytes_out);
        }
        self.push(value, op, requires_grad)
    }

    /// FLOPs of one forward execution of `op` producing `out`. Formulas
    /// are documented and unit-tested in [`crate::profile`]; pure data
    /// movement counts zero.
    fn forward_flops(&self, op: &Op, out: &Tensor) -> u64 {
        match op {
            Op::Leaf
            | Op::ConcatCols(_)
            | Op::GatherRowsPad(..)
            | Op::Reshape(_)
            | Op::UnstackColumns { .. }
            | Op::MaxPool1d { .. } => 0,
            Op::Matmul(a, b) | Op::MatmulBatched { a, b, .. } => profile::matmul_flops(
                self.value(*a).rows(),
                self.value(*a).cols(),
                self.value(*b).cols(),
            ),
            Op::MatmulRowBlocks { block_rows, .. } => {
                profile::matmul_flops(out.rows(), *block_rows, out.cols())
            }
            Op::SpmmNorm { adj, .. } => {
                profile::spmm_norm_flops(adj.nnz(), out.rows(), out.cols())
            }
            Op::Mul(..) | Op::AddBias(..) | Op::Relu(_) | Op::ScaleRows(..) | Op::Dropout(..) => {
                out.len() as u64
            }
            Op::LogSoftmaxRows(_) => 5 * out.len() as u64,
            Op::Sum(a) => self.value(*a).len() as u64,
            Op::NllLossRows(_, targets) => targets.len() as u64,
            // Flat column-stacked output: same formula over oh·ow = Σ ohⱼ·owⱼ.
            Op::Conv2d { w, .. } => {
                let wv = self.value(*w);
                let (kh, kw) = conv::kernel_extent(wv);
                let (c_out, c_in) = (out.shape().dim(0), wv.shape().dim(1));
                profile::conv2d_flops(c_out, 1, out.shape().dim(1), c_in, kh, kw)
            }
            // The convolution and the ReLU over every map position; the
            // pooling compares count zero.
            Op::Conv2dReluAmp { w, pad, dims, .. } => {
                let ws = self.value(*w).shape().clone();
                let (c_out, c_in, kh, kw) = (ws.dim(0), ws.dim(1), ws.dim(2), ws.dim(3));
                let positions = conv::conv2d_out_dims(dims, kh, kw, *pad)
                    .map(|(oh, ow)| oh * ow)
                    .sum();
                profile::conv2d_relu_amp_flops(c_out, positions, c_in, kh, kw)
            }
        }
    }

    fn any_requires(&self, vars: &[Var]) -> bool {
        vars.iter().any(|v| self.nodes[v.0].requires_grad)
    }

    /// Records an input value. `requires_grad` marks trainable parameters.
    pub fn leaf(&mut self, value: Tensor, requires_grad: bool) -> Var {
        self.push(value, Op::Leaf, requires_grad)
    }

    /// Records an input value the tape shares with its owner instead of
    /// copying: one reference count, no buffer. The tape only reads it,
    /// and [`Tape::reset`] drops the reference.
    pub fn leaf_shared(&mut self, value: Arc<Tensor>, requires_grad: bool) -> Var {
        self.push_value(Value::Shared(value), Op::Leaf, requires_grad)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The gradient accumulated at `v` by [`Tape::backward`], if any.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads[v.0].as_ref()
    }

    /// Moves the gradient of `v` into `slot`, with no copy, and files the
    /// slot's previous buffer in the tape's pool in its place, so the
    /// pool keeps its size. Returns `false`, leaving `slot` as it was,
    /// when [`Tape::backward`] left no gradient at `v`.
    ///
    /// # Panics
    ///
    /// Panics if the gradient's shape differs from the slot's.
    pub fn move_grad(&mut self, v: Var, slot: &mut Tensor) -> bool {
        let Some(g) = self.grads[v.0].take() else {
            return false;
        };
        assert_eq!(g.shape(), slot.shape(), "gradient moved into a slot of another shape");
        self.workspace.recycle_tensor(std::mem::replace(slot, g));
        true
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let t = self.prof_start();
        let value = self.value(a).matmul(self.value(b));
        let rg = self.any_requires(&[a, b]);
        self.push_profiled(value, Op::Matmul(a, b), rg, t)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let t = self.prof_start();
        let value = self.value(a).mul(self.value(b));
        let rg = self.any_requires(&[a, b]);
        self.push_profiled(value, Op::Mul(a, b), rg, t)
    }

    /// Adds a length-`c` bias vector to every row of an `(n, c)` matrix.
    /// The output comes from the workspace pool.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let t = self.prof_start();
        let value = {
            let Tape { nodes, workspace, .. } = &mut *self;
            let (m, b) = (&nodes[a.0].value, nodes[bias.0].value.as_slice());
            assert_eq!(m.cols(), b.len(), "bias length must match columns");
            let mut out = workspace.take_tensor(m.shape().clone());
            for i in 0..m.rows() {
                let o_row = &mut out.as_mut_slice()[i * b.len()..][..b.len()];
                for ((o, &x), &bj) in o_row.iter_mut().zip(m.row(i)).zip(b) {
                    *o = x + bj;
                }
            }
            out
        };
        let rg = self.any_requires(&[a, bias]);
        self.push_profiled(value, Op::AddBias(a, bias), rg, t)
    }

    /// Elementwise ReLU. The output comes from the workspace pool — on
    /// batched-size activations a fresh heap buffer means page faults on
    /// every pass, which costs more than the op itself.
    pub fn relu(&mut self, a: Var) -> Var {
        let t = self.prof_start();
        let value = {
            let Tape { nodes, workspace, .. } = &mut *self;
            let x = &nodes[a.0].value;
            let mut out = workspace.take_tensor(x.shape().clone());
            for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
                *o = magic_tensor::relu(v);
            }
            out
        };
        let rg = self.any_requires(&[a]);
        self.push_profiled(value, Op::Relu(a), rg, t)
    }

    /// Scales row `i` by `factors[i]` (constant). This is the `D̂⁻¹ (·)`
    /// normalization of Eq. (1).
    pub fn scale_rows(&mut self, a: Var, factors: Vec<f32>) -> Var {
        let t = self.prof_start();
        let value = self.value(a).scale_rows(&factors);
        let rg = self.any_requires(&[a]);
        self.push_profiled(value, Op::ScaleRows(a, factors), rg, t)
    }

    /// Fused sparse graph propagation `D̂⁻¹ (Â F)` — the whole
    /// constant-matrix half of Eq. (1) in one pass over the adjacency
    /// nonzeros.
    ///
    /// * `adj` — the augmented adjacency `Â` in CSR form; for a batch,
    ///   the block diagonal of the per-graph matrices.
    /// * `adj_t` — `Âᵀ`, precomputed once per graph; the backward pass
    ///   is the transpose-CSR product `Âᵀ (D̂⁻¹ g)`.
    /// * `inv_degree` — the diagonal of `D̂⁻¹` (one entry per vertex).
    /// * `f` — the dense feature matrix `F = Z W`, `(n, c)`.
    ///
    /// Only `f` is differentiable; the graph structure is constant. A
    /// block-diagonal row holds exactly the nonzeros of the graph's own
    /// row, so every graph's output is bitwise what it gets alone.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree or `adj_t` cannot be the transpose
    /// of `adj` (shape or nnz mismatch).
    pub fn spmm_norm(
        &mut self,
        adj: Arc<CsrMatrix>,
        adj_t: Arc<CsrMatrix>,
        inv_degree: Arc<Vec<f32>>,
        f: Var,
    ) -> Var {
        let t = self.prof_start();
        assert_eq!(
            adj.cols(),
            self.value(f).rows(),
            "spmm_norm inner dimension mismatch"
        );
        assert_eq!(inv_degree.len(), adj.rows(), "one inverse degree per row");
        assert_eq!(
            (adj_t.rows(), adj_t.cols(), adj_t.nnz()),
            (adj.cols(), adj.rows(), adj.nnz()),
            "adj_t must be the transpose of adj"
        );
        let value = adj.spmm_row_scaled(&inv_degree, self.value(f));
        let rg = self.any_requires(&[f]);
        self.push_profiled(value, Op::SpmmNorm { adj, adj_t, inv_degree, f }, rg, t)
    }

    /// Horizontal concatenation, forming `Z^{1:h} = [Z_1, ..., Z_h]`.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let t = self.prof_start();
        let tensors: Vec<&Tensor> = parts.iter().map(|v| self.value(*v)).collect();
        let value = Tensor::concat_cols(&tensors);
        let rg = self.any_requires(parts);
        self.push_profiled(value, Op::ConcatCols(parts.to_vec()), rg, t)
    }

    /// Reshapes without changing data.
    pub fn reshape(&mut self, a: Var, shape: impl Into<Shape>) -> Var {
        let t = self.prof_start();
        let value = self.value(a).reshape(shape);
        let rg = self.any_requires(&[a]);
        self.push_profiled(value, Op::Reshape(a), rg, t)
    }

    /// Row-wise log-softmax of an `(n, c)` matrix.
    pub fn log_softmax_rows(&mut self, a: Var) -> Var {
        let t = self.prof_start();
        let m = self.value(a);
        let mut value = Tensor::zeros(m.shape().clone());
        for i in 0..m.rows() {
            let row = Tensor::from_slice(m.row(i)).log_softmax();
            value.set_row(i, row.as_slice());
        }
        let rg = self.any_requires(&[a]);
        self.push_profiled(value, Op::LogSoftmaxRows(a), rg, t)
    }

    /// Sum of all elements (scalar output).
    pub fn sum(&mut self, a: Var) -> Var {
        let t = self.prof_start();
        let value = Tensor::scalar(self.value(a).sum());
        let rg = self.any_requires(&[a]);
        self.push_profiled(value, Op::Sum(a), rg, t)
    }

    /// Records the patch-gather half of a GEMM-lowered convolution as its
    /// own forward profile row: `im2col` is pure data movement (0 FLOPs,
    /// `bytes_out` = column buffer size), timed separately so the
    /// `conv2d.batched` rows cover only the GEMM + bias.
    fn record_im2col(&mut self, started: Option<Instant>, elems: usize) {
        if let Some(t0) = started {
            let key = OpKey {
                kind: "im2col",
                phase: PHASE_FORWARD,
                shape_bucket: profile::shape_bucket(elems),
            };
            let bytes = (elems * std::mem::size_of::<f32>()) as u64;
            self.profile.record(key, t0.elapsed().as_nanos() as u64, 0, bytes);
        }
    }

    /// `a @ b` where `a` row-stacks one segment per sample and `b` is a
    /// shared parameter. `bounds` holds the `B+1` row boundaries
    /// (`bounds[j]..bounds[j+1]` is sample `j`). The forward is a plain
    /// matmul; the backward computes `b`'s gradient per sample segment
    /// and sums the per-sample results in order.
    ///
    /// # Panics
    ///
    /// Panics unless `bounds` starts at 0 and ends at `a`'s row count.
    pub fn matmul_batched(&mut self, a: Var, b: Var, bounds: Arc<Vec<usize>>) -> Var {
        let t = self.prof_start();
        assert_eq!(bounds.first().copied(), Some(0), "bounds must start at row 0");
        assert_eq!(
            bounds.last().copied(),
            Some(self.value(a).rows()),
            "bounds must end at the row count"
        );
        let value = self.value(a).matmul(self.value(b));
        let rg = self.any_requires(&[a, b]);
        self.push_profiled(value, Op::MatmulBatched { a, b, bounds }, rg, t)
    }

    /// One single-row GEMM per `block_rows`-row block of `x` against the
    /// shared `(1, block_rows)` row vector `w`: output row `j` is
    /// `w @ x[j·block_rows..(j+1)·block_rows]` — the WeightedVertices
    /// head over a whole batch of stacked SortPooling outputs.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not `(1, block_rows)` or `x`'s rows don't divide
    /// into whole blocks.
    pub fn matmul_row_blocks(&mut self, w: Var, x: Var, block_rows: usize) -> Var {
        let t = self.prof_start();
        let value = {
            let Tape { nodes, workspace, .. } = &mut *self;
            let wv = &nodes[w.0].value;
            let xv = &nodes[x.0].value;
            assert_eq!(
                (wv.rows(), wv.cols()),
                (1, block_rows),
                "left operand must be a (1, block_rows) row"
            );
            assert_eq!(xv.rows() % block_rows, 0, "rows must divide into whole blocks");
            let batch = xv.rows() / block_rows;
            let c = xv.cols();
            let mut out = workspace.take_tensor([batch, c]);
            let os = out.as_mut_slice();
            for j in 0..batch {
                magic_tensor::gemm_into(
                    1,
                    block_rows,
                    c,
                    wv.as_slice(),
                    &xv.as_slice()[j * block_rows * c..][..block_rows * c],
                    &mut os[j * c..(j + 1) * c],
                );
            }
            out
        };
        let rg = self.any_requires(&[w, x]);
        self.push_profiled(value, Op::MatmulRowBlocks { w, x, block_rows }, rg, t)
    }

    /// Gathers rows of `a` by (constant) indices, where an index of
    /// `usize::MAX` reads a zero row (and receives no gradient) —
    /// SortPooling's truncate-or-pad to `k` rows for every sample of a
    /// batch in one op. Gradients scatter-add back, so repeated indices
    /// accumulate.
    pub fn gather_rows_pad(&mut self, a: Var, indices: Vec<usize>) -> Var {
        let t = self.prof_start();
        let value = {
            let Tape { nodes, workspace, .. } = &mut *self;
            let av = &nodes[a.0].value;
            let mut out = workspace.take_tensor([indices.len(), av.cols()]);
            for (dst, &src) in indices.iter().enumerate() {
                if src != usize::MAX {
                    out.set_row(dst, av.row(src));
                }
            }
            out
        };
        let rg = self.any_requires(&[a]);
        self.push_profiled(value, Op::GatherRowsPad(a, indices), rg, t)
    }

    /// Reorders a `(C, B·seg_len)` column-stacked batch into `(B, C·seg_len)`
    /// where row `j` is sample `j`'s channels flattened row-major — the
    /// per-sample feature rows after a conv/pool head. Pure data
    /// movement.
    pub fn unstack_columns(&mut self, a: Var, seg_len: usize) -> Var {
        let t = self.prof_start();
        let value = {
            let Tape { nodes, workspace, .. } = &mut *self;
            let av = &nodes[a.0].value;
            let (c, total) = (av.rows(), av.cols());
            assert!(
                seg_len > 0 && total % seg_len == 0,
                "width {total} is not a multiple of segment length {seg_len}"
            );
            let batch = total / seg_len;
            let mut out = workspace.take_tensor([batch, c * seg_len]);
            let os = out.as_mut_slice();
            let is = av.as_slice();
            for j in 0..batch {
                for ci in 0..c {
                    os[j * c * seg_len + ci * seg_len..][..seg_len]
                        .copy_from_slice(&is[ci * total + j * seg_len..][..seg_len]);
                }
            }
            out
        };
        let rg = self.any_requires(&[a]);
        self.push_profiled(value, Op::UnstackColumns { a, seg_len }, rg, t)
    }

    /// Per-row negative log-likelihood: `out[j, 0] = -lp[j, targets[j]]`.
    /// Follow with [`Tape::sum`] for the batch loss; the per-sample
    /// losses stay readable from the rows for logging.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the row count or a target
    /// is out of range.
    pub fn nll_loss_rows(&mut self, log_probs: Var, targets: Vec<usize>) -> Var {
        let t = self.prof_start();
        let value = {
            let Tape { nodes, workspace, .. } = &mut *self;
            let lp = &nodes[log_probs.0].value;
            assert_eq!(lp.rows(), targets.len(), "one target per row required");
            let mut out = workspace.take_tensor([targets.len(), 1]);
            for (i, &t) in targets.iter().enumerate() {
                assert!(t < lp.cols(), "target {t} out of range");
                out.set2(i, 0, -lp.get2(i, t));
            }
            out
        };
        let rg = self.any_requires(&[log_probs]);
        self.push_profiled(value, Op::NllLossRows(log_probs, targets), rg, t)
    }

    /// Inverted dropout with one RNG stream per row: zeroes each element
    /// with probability `p` and scales survivors by `1/(1-p)`. Row `j`'s
    /// mask is drawn from `rngs[j]` in element order, so a sample's mask
    /// does not depend on which other samples share its batch.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1` and there is exactly one RNG per row.
    pub fn dropout_rows(&mut self, a: Var, p: f32, rngs: &mut [Rng64]) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        let t = self.prof_start();
        let keep = 1.0 - p;
        let (masked, mask) = {
            let Tape { nodes, workspace, .. } = &mut *self;
            let av = &nodes[a.0].value;
            assert_eq!(av.rows(), rngs.len(), "one RNG stream per row");
            let mut mask = workspace.take(av.len());
            for (row, rng) in mask.chunks_exact_mut(av.cols()).zip(rngs.iter_mut()) {
                for m in row.iter_mut() {
                    *m = if rng.next_f32() < p { 0.0 } else { 1.0 / keep };
                }
            }
            let mut masked = workspace.take_tensor(av.shape().clone());
            for ((o, &x), &m) in masked.as_mut_slice().iter_mut().zip(av.as_slice()).zip(&mask) {
                *o = x * m;
            }
            (masked, mask)
        };
        let rg = self.any_requires(&[a]);
        self.push_profiled(masked, Op::Dropout(a, mask), rg, t)
    }

    /// Stride-1 2-D convolution of `(c_out, c_in, kh, kw)` weights with
    /// zero padding `pad`, plus a `c_out` bias, over a column-stacked
    /// `x = (c_in, Σ hⱼ·wⱼ)` with per-sample map dims in `dims`. The
    /// output is the flat `(c_out, Σ ohⱼ·owⱼ)` column-stacked matrix,
    /// `ohⱼ × owⱼ = (hⱼ + 2·pad − kh + 1) × (wⱼ + 2·pad − kw + 1)`.
    /// Lowered to an im2col patch gather through a zero-bordered copy of
    /// each map and one GEMM.
    ///
    /// `(c_out, c_in, k)` weights are read as a `1 × k` kernel, so with
    /// `pad = 0` this is a 1-D convolution along each row of each map;
    /// windows never straddle a row or a sample boundary. The paper's
    /// kernel = stride = `Σcₜ` Conv1D over a `k·Σcₜ` signal is the
    /// `(k, Σcₜ)`-map case: one output per row.
    pub fn conv2d(
        &mut self,
        x: Var,
        w: Var,
        b: Var,
        pad: usize,
        dims: Arc<Vec<(usize, usize)>>,
    ) -> Var {
        let rg = self.any_requires(&[x, w, b]);
        let (kh, kw) = conv::kernel_extent(self.value(w));
        let out_total: usize = conv::conv2d_out_dims(&dims, kh, kw, pad)
            .map(|(oh, ow)| oh * ow)
            .sum();
        let panel_len = self.value(x).rows() * kh * kw * out_total;
        let t_cols = self.prof_start();
        let cols = {
            let Tape { nodes, workspace, .. } = &mut *self;
            conv::im2col_2d(&nodes[x.0].value, &dims, (kh, kw), pad, workspace)
        };
        self.record_im2col(t_cols, panel_len);
        let t = self.prof_start();
        let value = {
            let Tape { nodes, workspace, .. } = &mut *self;
            conv::conv2d_forward_gemm(
                &cols,
                &nodes[w.0].value,
                nodes[b.0].value.as_slice(),
                out_total,
                workspace,
            )
        };
        self.workspace.recycle(cols);
        self.push_profiled(value, Op::Conv2d { x, w, b, pad, dims }, rg, t)
    }

    /// The adaptive head's first block, `AMP(relu(conv2d(x)))`, as one
    /// op: the stride-1 2-D convolution of [`Tape::conv2d`] (`(c_out,
    /// c_in, kh, kw)` weights, zero padding, bias) over a column-stacked
    /// `x = (c_in, Σ hⱼ·wⱼ)` with per-sample extents `dims`, a ReLU, and
    /// adaptive max pooling — the paper's AMP layer (Section III-C) — of
    /// each sample's conv map to a `gh × gw` grid. The output is
    /// `(c_out, B·gh·gw)`, sample `j` in columns `[j·gh·gw, …)`; ties break
    /// to the first maximum in scan order.
    ///
    /// The `(c_out, Σ ohⱼ·owⱼ)` conv map is never materialised: the
    /// forward convolves (directly, reading each tap in place rather than
    /// through an im2col panel) and pools one band of rows at a time, and the
    /// backward runs only through the pool winners whose value is
    /// positive. Values and gradients are bitwise those of
    /// `conv2d` → `relu` → a scan of the full map (see DESIGN.md, "The
    /// fused Conv2D → ReLU → AMP block").
    pub fn conv2d_relu_amp(
        &mut self,
        x: Var,
        w: Var,
        b: Var,
        pad: usize,
        dims: Arc<Vec<(usize, usize)>>,
        grid: (usize, usize),
    ) -> Var {
        let t = self.prof_start();
        let (value, winners) = {
            let Tape { nodes, workspace, .. } = &mut *self;
            conv::conv2d_relu_amp_forward(
                &nodes[x.0].value,
                &nodes[w.0].value,
                nodes[b.0].value.as_slice(),
                pad,
                &dims,
                grid,
                workspace,
            )
        };
        let rg = self.any_requires(&[x, w, b]);
        self.push_profiled(value, Op::Conv2dReluAmp { x, w, b, pad, dims, winners }, rg, t)
    }

    /// Winner indices of a [`Tape::conv2d_relu_amp`] node: per pooled
    /// cell, in the output's flat order, the flat index of the winning
    /// element of the `(c_out, Σ ohⱼ·owⱼ)` conv map. `None` for any other
    /// node.
    pub fn pool_winners(&self, v: Var) -> Option<&[usize]> {
        match &self.nodes[v.0].op {
            Op::Conv2dReluAmp { winners, .. } => Some(winners),
            _ => None,
        }
    }

    /// Non-overlapping 1-D max pooling with window `k` over
    /// `(c, B·seg_len)`; windows never straddle a sample's segment
    /// boundary.
    pub fn max_pool1d(&mut self, x: Var, k: usize, seg_len: usize) -> Var {
        let t = self.prof_start();
        let (value, argmax) = {
            let Tape { nodes, workspace, .. } = &mut *self;
            conv::max_pool1d_forward(&nodes[x.0].value, k, seg_len, workspace)
        };
        let rg = self.any_requires(&[x]);
        self.push_profiled(value, Op::MaxPool1d { x, argmax }, rg, t)
    }

    fn accumulate(&mut self, v: Var, g: Tensor) {
        let Tape { grads, workspace, .. } = self;
        match &mut grads[v.0] {
            Some(existing) => {
                existing.add_assign(&g);
                workspace.recycle_tensor(g);
            }
            slot @ None => *slot = Some(g),
        }
    }

    /// Runs the reverse sweep from a scalar `loss` node, filling gradients
    /// for every node with `requires_grad`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.value(loss).len(), 1, "backward requires a scalar loss");
        {
            let Tape { grads, workspace, .. } = &mut *self;
            for g in grads.iter_mut() {
                if let Some(old) = g.take() {
                    workspace.recycle_tensor(old);
                }
            }
        }
        let seed_shape = self.value(loss).shape().clone();
        let mut seed = self.workspace.take_tensor(seed_shape);
        seed.as_mut_slice().fill(1.0);
        self.grads[loss.0] = Some(seed);

        for idx in (0..self.nodes.len()).rev() {
            if !self.nodes[idx].requires_grad {
                continue;
            }
            // Take the upstream gradient out of its slot instead of
            // cloning it: a clone is a full deep copy per node — on
            // batched-size tensors that is a DRAM sweep that dwarfs the
            // op itself. Ops only accumulate into *earlier* nodes, so
            // the slot can be repopulated right after the match.
            let Some(gout) = self.grads[idx].take() else {
                continue;
            };
            // Borrow the op by moving it out of its node for the step
            // (a `Leaf` stands in) and back after it: no per-node copy of
            // the index, mask or factor vectors an op holds. The step only
            // reads other nodes' values and this node's value.
            let op = std::mem::replace(&mut self.nodes[idx].op, Op::Leaf);
            // Time each backward step individually so the profiler can
            // attribute the sweep to op kinds. Leaf steps are no-ops and
            // would only add noise rows, so they are skipped. Backward
            // FLOPs use the standard 2× forward heuristic (one gradient
            // product per differentiable input of a dense kernel).
            let t = if matches!(op, Op::Leaf) { None } else { self.prof_start() };
            let prof_key = t.map(|_| {
                let out = &self.nodes[idx].value;
                // `spmm_norm` has exactly one differentiable input, and
                // its backward (one transpose-CSR product plus the row
                // scaling) does the same work as forward — charge 1×,
                // not the dense 2× heuristic, so the nnz-based count
                // stays exact.
                let flops = match &op {
                    Op::SpmmNorm { .. } => self.forward_flops(&op, out),
                    // Runs through the positive pool winners only.
                    Op::Conv2dReluAmp { w, .. } => {
                        let ckk = self.value(*w).len() / self.value(*w).shape().dim(0);
                        let active = out.as_slice().iter().filter(|&&v| v > 0.0).count();
                        profile::conv2d_relu_amp_backward_flops(ckk, active)
                    }
                    _ => 2 * self.forward_flops(&op, out),
                };
                (
                    OpKey {
                        kind: op.backward_kind(),
                        phase: PHASE_BACKWARD,
                        shape_bucket: profile::shape_bucket(out.len()),
                    },
                    flops,
                    (out.len() * std::mem::size_of::<f32>()) as u64,
                )
            });
            match op {
                Op::Leaf => {}
                Op::Matmul(a, b) => {
                    // gA = gOut·Bᵀ and gB = Aᵀ·gOut via the transpose-free
                    // kernels, accumulating into zero-filled pool buffers —
                    // no operand clones, no materialized transposes.
                    let (m, kk) = (self.value(a).rows(), self.value(a).cols());
                    let n = self.value(b).cols();
                    if self.needs(a) {
                        let ga = {
                            let Tape { nodes, workspace, .. } = &mut *self;
                            let mut ga = workspace.take_tensor([m, kk]);
                            magic_tensor::gemm_nt_into(
                                m,
                                n,
                                kk,
                                gout.as_slice(),
                                nodes[b.0].value.as_slice(),
                                ga.as_mut_slice(),
                            );
                            ga
                        };
                        self.accumulate(a, ga);
                    }
                    if self.needs(b) {
                        let gb = {
                            let Tape { nodes, workspace, .. } = &mut *self;
                            let mut gb = workspace.take_tensor([kk, n]);
                            magic_tensor::gemm_tn_into(
                                kk,
                                m,
                                n,
                                nodes[a.0].value.as_slice(),
                                gout.as_slice(),
                                gb.as_mut_slice(),
                            );
                            gb
                        };
                        self.accumulate(b, gb);
                    }
                }
                Op::Mul(a, b) => {
                    let av = self.value(a).clone();
                    let bv = self.value(b).clone();
                    if self.needs(a) {
                        self.accumulate(a, gout.mul(&bv));
                    }
                    if self.needs(b) {
                        self.accumulate(b, gout.mul(&av));
                    }
                }
                Op::AddBias(a, bias) => {
                    if self.needs(a) {
                        let ga = self.pooled_copy(&gout, gout.shape().clone());
                        self.accumulate(a, ga);
                    }
                    if self.needs(bias) {
                        // Column sums, rows added in order from zero: the
                        // `Tensor::sum_rows` chain into a pooled buffer.
                        let cols = gout.cols();
                        let mut gb = self.workspace.take_tensor([cols]);
                        for i in 0..gout.rows() {
                            for (o, &g) in gb.as_mut_slice().iter_mut().zip(gout.row(i)) {
                                *o += g;
                            }
                        }
                        self.accumulate(bias, gb);
                    }
                }
                Op::Relu(a) => {
                    if self.needs(a) {
                        // One fused sweep instead of mask-map + multiply:
                        // `g·1.0 = g` and the blocked lanes keep `g·0.0`'s
                        // signed zero, so this is bitwise identical to the
                        // two-pass form while reading each operand once.
                        let gx = {
                            let Tape { nodes, workspace, .. } = &mut *self;
                            let x = nodes[a.0].value.as_slice();
                            let mut gx = workspace.take_tensor(nodes[a.0].value.shape().clone());
                            for ((o, &g), &xv) in
                                gx.as_mut_slice().iter_mut().zip(gout.as_slice()).zip(x)
                            {
                                *o = if xv > 0.0 { g } else { g * 0.0 };
                            }
                            gx
                        };
                        self.accumulate(a, gx);
                    }
                }
                Op::ScaleRows(a, ref factors) => {
                    if self.needs(a) {
                        self.accumulate(a, gout.scale_rows(factors));
                    }
                }
                Op::SpmmNorm { ref adj_t, ref inv_degree, f, .. } => {
                    if self.needs(f) {
                        // d/dF of D̂⁻¹ Â F is Âᵀ D̂⁻¹: scale the incoming
                        // gradient rows, then one transpose-CSR product,
                        // both into pooled buffers.
                        let c = gout.cols();
                        let mut scaled = self.workspace.take(gout.len());
                        for (i, &d) in inv_degree.iter().enumerate() {
                            let row = &mut scaled[i * c..][..c];
                            for (o, &x) in row.iter_mut().zip(gout.row(i)) {
                                *o = x * d;
                            }
                        }
                        let mut gf = self.workspace.take_tensor([adj_t.rows(), c]);
                        adj_t.spmm_into(&scaled, c, gf.as_mut_slice());
                        self.workspace.recycle(scaled);
                        self.accumulate(f, gf);
                    }
                }
                Op::ConcatCols(ref parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let c = self.value(p).cols();
                        if self.needs(p) {
                            let rows = self.value(p).rows();
                            let mut gp = self.workspace.take_tensor([rows, c]);
                            for i in 0..rows {
                                let src = &gout.row(i)[offset..offset + c];
                                gp.set_row(i, src);
                            }
                            self.accumulate(p, gp);
                        }
                        offset += c;
                    }
                }
                Op::Reshape(a) => {
                    if self.needs(a) {
                        let shape = self.value(a).shape().clone();
                        let ga = self.pooled_copy(&gout, shape);
                        self.accumulate(a, ga);
                    }
                }
                Op::LogSoftmaxRows(a) => {
                    if self.needs(a) {
                        let ga = {
                            let Tape { nodes, workspace, .. } = &mut *self;
                            let y = &nodes[idx].value;
                            let mut ga = workspace.take_tensor(y.shape().clone());
                            let c = y.cols();
                            for i in 0..y.rows() {
                                let out = &mut ga.as_mut_slice()[i * c..][..c];
                                let grow = gout.row(i);
                                let gsum: f32 = grow.iter().sum();
                                for ((o, &ly), &g) in out.iter_mut().zip(y.row(i)).zip(grow) {
                                    *o = g - ly.exp() * gsum;
                                }
                            }
                            ga
                        };
                        self.accumulate(a, ga);
                    }
                }
                Op::Sum(a) => {
                    if self.needs(a) {
                        let g = gout.item();
                        let shape = self.value(a).shape().clone();
                        let mut ga = self.workspace.take_tensor(shape);
                        ga.as_mut_slice().fill(g);
                        self.accumulate(a, ga);
                    }
                }
                Op::Dropout(a, ref mask) => {
                    if self.needs(a) {
                        let mut gm = self.workspace.take_tensor(gout.shape().clone());
                        for ((o, &g), &m) in
                            gm.as_mut_slice().iter_mut().zip(gout.as_slice()).zip(mask)
                        {
                            *o = g * m;
                        }
                        self.accumulate(a, gm);
                    }
                }
                Op::MaxPool1d { x, ref argmax } => {
                    // Winner indices were pushed in ascending output flat
                    // order, so the backward is one enumerate-scatter.
                    if self.needs(x) {
                        let shape = self.value(x).shape().clone();
                        let mut gx = self.workspace.take_tensor(shape);
                        for (cell, &src) in argmax.iter().enumerate() {
                            gx.as_mut_slice()[src] += gout.as_slice()[cell];
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::MatmulBatched { a, b, ref bounds } => {
                    let (m, kk) = (self.value(a).rows(), self.value(a).cols());
                    let n = self.value(b).cols();
                    if self.needs(a) {
                        // Row-stacked input: gA = gOut·Bᵀ is per-row, so
                        // the full product equals each sample's product.
                        let ga = {
                            let Tape { nodes, workspace, .. } = &mut *self;
                            let mut ga = workspace.take_tensor([m, kk]);
                            magic_tensor::gemm_nt_into(
                                m,
                                n,
                                kk,
                                gout.as_slice(),
                                nodes[b.0].value.as_slice(),
                                ga.as_mut_slice(),
                            );
                            ga
                        };
                        self.accumulate(a, ga);
                    }
                    if self.needs(b) {
                        // Shared operand: per-sample row-segment products
                        // into a re-zeroed temp, summed in sample order —
                        // the trainer's gradient-buffer chain exactly.
                        let gb = {
                            let Tape { nodes, workspace, .. } = &mut *self;
                            let a_val = &nodes[a.0].value;
                            let mut gb = workspace.take_tensor([kk, n]);
                            let mut temp = workspace.take(kk * n);
                            for seg in bounds.windows(2) {
                                let (r0, r1) = (seg[0], seg[1]);
                                temp.fill(0.0);
                                magic_tensor::gemm_tn_into(
                                    kk,
                                    r1 - r0,
                                    n,
                                    &a_val.as_slice()[r0 * kk..r1 * kk],
                                    &gout.as_slice()[r0 * n..r1 * n],
                                    &mut temp,
                                );
                                for (acc, &g) in gb.as_mut_slice().iter_mut().zip(temp.iter()) {
                                    *acc += g;
                                }
                            }
                            workspace.recycle(temp);
                            gb
                        };
                        self.accumulate(b, gb);
                    }
                }
                Op::MatmulRowBlocks { w, x, block_rows } => {
                    let batch = self.value(x).rows() / block_rows;
                    let c = self.value(x).cols();
                    if self.needs(w) {
                        let gw = {
                            let Tape { nodes, workspace, .. } = &mut *self;
                            let xv = &nodes[x.0].value;
                            let mut gw = workspace.take_tensor([1, block_rows]);
                            let mut temp = workspace.take(block_rows);
                            for j in 0..batch {
                                temp.fill(0.0);
                                magic_tensor::gemm_nt_into(
                                    1,
                                    c,
                                    block_rows,
                                    &gout.as_slice()[j * c..][..c],
                                    &xv.as_slice()[j * block_rows * c..][..block_rows * c],
                                    &mut temp,
                                );
                                for (acc, &g) in gw.as_mut_slice().iter_mut().zip(temp.iter()) {
                                    *acc += g;
                                }
                            }
                            workspace.recycle(temp);
                            gw
                        };
                        self.accumulate(w, gw);
                    }
                    if self.needs(x) {
                        let gx = {
                            let Tape { nodes, workspace, .. } = &mut *self;
                            let wv = &nodes[w.0].value;
                            let shape = nodes[x.0].value.shape().clone();
                            let mut gx = workspace.take_tensor(shape);
                            let gxs = gx.as_mut_slice();
                            for j in 0..batch {
                                magic_tensor::gemm_tn_into(
                                    block_rows,
                                    1,
                                    c,
                                    wv.as_slice(),
                                    &gout.as_slice()[j * c..][..c],
                                    &mut gxs[j * block_rows * c..][..block_rows * c],
                                );
                            }
                            gx
                        };
                        self.accumulate(x, gx);
                    }
                }
                Op::GatherRowsPad(a, ref indices) => {
                    if self.needs(a) {
                        let shape = self.value(a).shape().clone();
                        let mut ga = self.workspace.take_tensor(shape);
                        let cols = ga.cols();
                        for (dst, &src) in indices.iter().enumerate() {
                            if src == usize::MAX {
                                continue;
                            }
                            let row = &mut ga.as_mut_slice()[src * cols..][..cols];
                            for (o, &g) in row.iter_mut().zip(gout.row(dst)) {
                                *o += g;
                            }
                        }
                        self.accumulate(a, ga);
                    }
                }
                Op::UnstackColumns { a, seg_len } => {
                    if self.needs(a) {
                        let ga = {
                            let Tape { nodes, workspace, .. } = &mut *self;
                            let av = &nodes[a.0].value;
                            let (c, total) = (av.rows(), av.cols());
                            let batch = total / seg_len;
                            let mut ga = workspace.take_tensor(av.shape().clone());
                            let gas = ga.as_mut_slice();
                            let gs = gout.as_slice();
                            for j in 0..batch {
                                for ci in 0..c {
                                    gas[ci * total + j * seg_len..][..seg_len].copy_from_slice(
                                        &gs[j * c * seg_len + ci * seg_len..][..seg_len],
                                    );
                                }
                            }
                            ga
                        };
                        self.accumulate(a, ga);
                    }
                }
                Op::NllLossRows(lp, ref targets) => {
                    if self.needs(lp) {
                        let shape = self.value(lp).shape().clone();
                        let mut glp = self.workspace.take_tensor(shape);
                        for (i, &t) in targets.iter().enumerate() {
                            glp.set2(i, t, -gout.get2(i, 0));
                        }
                        self.accumulate(lp, glp);
                    }
                }
                Op::Conv2d { x, w, b, pad, ref dims } => {
                    let grads = {
                        let Tape { nodes, workspace, .. } = &mut *self;
                        conv::conv2d_backward(
                            &nodes[x.0].value,
                            &nodes[w.0].value,
                            pad,
                            dims,
                            &gout,
                            workspace,
                        )
                    };
                    self.accumulate_conv_grads([x, w, b], grads);
                }
                Op::Conv2dReluAmp { x, w, b, pad, ref dims, ref winners } => {
                    let grads = {
                        let Tape { nodes, workspace, .. } = &mut *self;
                        conv::conv2d_relu_amp_backward(
                            &nodes[x.0].value,
                            &nodes[w.0].value,
                            pad,
                            dims,
                            &nodes[idx].value,
                            winners,
                            &gout,
                            workspace,
                        )
                    };
                    self.accumulate_conv_grads([x, w, b], grads);
                }
            }
            // Put the gradient back so callers can still read it after
            // the sweep (nothing writes to this slot in between: ops
            // only accumulate into their inputs, which precede `idx`).
            self.grads[idx] = Some(gout);
            self.nodes[idx].op = op;
            if let (Some(t0), Some((key, flops, bytes))) = (t, prof_key) {
                self.profile.record(key, t0.elapsed().as_nanos() as u64, flops, bytes);
            }
        }
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// A pooled copy of `src`'s elements under `shape`.
    fn pooled_copy(&mut self, src: &Tensor, shape: Shape) -> Tensor {
        let mut out = self.workspace.take_tensor(shape);
        out.as_mut_slice().copy_from_slice(src.as_slice());
        out
    }

    /// Accumulates a convolution's pooled `(gx, gw, gb)` into `x`, `w`
    /// and `b`, recycling each gradient whose input does not need it.
    fn accumulate_conv_grads(&mut self, [x, w, b]: [Var; 3], (gx, gw, gb): (Tensor, Tensor, Vec<f32>)) {
        let n = gb.len();
        for (v, g) in [(x, gx), (w, gw), (b, Tensor::from_vec(gb, [n]))] {
            if self.needs(v) {
                self.accumulate(v, g);
            } else {
                self.workspace.recycle_tensor(g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_tape() -> (Tape, Var) {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]), true);
        (tape, x)
    }

    #[test]
    fn matmul_gradients_are_transposed_products() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0]]), true);
        let b = tape.leaf(Tensor::from_rows(&[&[3.0], &[5.0]]), true);
        let y = tape.matmul(a, b);
        let s = tape.sum(y);
        tape.backward(s);
        assert_eq!(tape.grad(a).unwrap().as_slice(), &[3.0, 5.0]);
        assert_eq!(tape.grad(b).unwrap().as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn relu_blocks_negative_gradients() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_slice(&[-1.0, 2.0]).reshape([1, 2]), true);
        let y = tape.relu(x);
        let s = tape.sum(y);
        tape.backward(s);
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn relu_maps_negative_zero_and_nan_to_positive_zero_in_every_build() {
        let xs = [-0.0, f32::NAN, -2.0, 0.0, 1.5];
        let want = [0.0f32, 0.0, 0.0, 0.0, 1.5].map(f32::to_bits);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_slice(&xs).reshape([1, 5]), false);
        let y = tape.relu(x);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(tape.value(y)), want);
        assert_eq!(bits(&Tensor::from_slice(&xs).relu()), want);
    }

    #[test]
    fn gather_rows_accumulates_repeats() {
        let (mut tape, x) = scalar_tape();
        let g = tape.gather_rows_pad(x, vec![0, 0, 1]);
        let s = tape.sum(g);
        tape.backward(s);
        assert_eq!(tape.grad(x).unwrap().row(0), &[2.0, 2.0]);
        assert_eq!(tape.grad(x).unwrap().row(1), &[1.0, 1.0]);
    }

    #[test]
    fn pad_rows_drops_gradient_of_truncated_rows() {
        let (mut tape, x) = scalar_tape();
        // Keep row 0, drop row 1, and pad with one zero row.
        let p = tape.gather_rows_pad(x, vec![0, usize::MAX]);
        assert_eq!(tape.value(p).row(1), &[0.0, 0.0]);
        let s = tape.sum(p);
        tape.backward(s);
        assert_eq!(tape.grad(x).unwrap().row(0), &[1.0, 1.0]);
        assert_eq!(tape.grad(x).unwrap().row(1), &[0.0, 0.0]);
    }

    #[test]
    fn concat_cols_splits_gradient() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_rows(&[&[1.0]]), true);
        let b = tape.leaf(Tensor::from_rows(&[&[2.0, 3.0]]), true);
        let c = tape.concat_cols(&[a, b]);
        let w = tape.leaf(Tensor::from_rows(&[&[1.0], &[10.0], &[100.0]]), false);
        let y = tape.matmul(c, w);
        let s = tape.sum(y);
        tape.backward(s);
        assert_eq!(tape.grad(a).unwrap().as_slice(), &[1.0]);
        assert_eq!(tape.grad(b).unwrap().as_slice(), &[10.0, 100.0]);
    }

    #[test]
    fn nll_after_log_softmax_gives_softmax_minus_onehot() {
        let mut tape = Tape::new();
        let logits = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0, 3.0]]), true);
        let lp = tape.log_softmax_rows(logits);
        let rows = tape.nll_loss_rows(lp, vec![2]);
        let loss = tape.sum(rows);
        tape.backward(loss);
        let g = tape.grad(logits).unwrap();
        let sm = Tensor::from_slice(&[1.0, 2.0, 3.0]).softmax();
        let expected = [sm.as_slice()[0], sm.as_slice()[1], sm.as_slice()[2] - 1.0];
        for (a, b) in g.as_slice().iter().zip(&expected) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn scale_rows_backward_uses_same_factors() {
        let (mut tape, x) = scalar_tape();
        let y = tape.scale_rows(x, vec![0.5, 2.0]);
        let s = tape.sum(y);
        tape.backward(s);
        assert_eq!(tape.grad(x).unwrap().row(0), &[0.5, 0.5]);
        assert_eq!(tape.grad(x).unwrap().row(1), &[2.0, 2.0]);
    }

    #[test]
    fn dropout_zero_rate_is_identity() {
        let rng = Rng64::new(1);
        let (mut tape, x) = scalar_tape();
        let y = tape.dropout_rows(x, 0.0, &mut [rng.clone(), rng.clone()]);
        assert_eq!(tape.value(y), tape.value(x));
        let s = tape.sum(y);
        tape.backward(s);
        assert!(tape.grad(x).unwrap().as_slice().iter().all(|&g| g == 1.0));
    }

    #[test]
    fn dropout_masks_gradient_consistently() {
        let mut rng = Rng64::new(9);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([1, 100]), true);
        let y = tape.dropout_rows(x, 0.5, std::slice::from_mut(&mut rng));
        let s = tape.sum(y);
        tape.backward(s);
        let value = tape.value(y).clone();
        let grad = tape.grad(x).unwrap();
        // Wherever the output was zeroed, the gradient must be zero too.
        for (v, g) in value.as_slice().iter().zip(grad.as_slice()) {
            assert_eq!(*v == 0.0, *g == 0.0);
        }
    }

    #[test]
    fn backward_twice_resets_gradients() {
        let (mut tape, x) = scalar_tape();
        let s = tape.sum(x);
        tape.backward(s);
        tape.backward(s);
        assert!(tape.grad(x).unwrap().as_slice().iter().all(|&g| g == 1.0));
    }

    #[test]
    fn no_grad_leaf_stays_empty() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([2, 2]), false);
        let w = tape.leaf(Tensor::ones([2, 2]), true);
        let y = tape.matmul(x, w);
        let s = tape.sum(y);
        tape.backward(s);
        assert!(tape.grad(x).is_none());
        assert!(tape.grad(w).is_some());
    }

    #[test]
    fn add_bias_sums_gradient_over_rows() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros([3, 2]), true);
        let b = tape.leaf(Tensor::from_slice(&[1.0, 2.0]), true);
        let y = tape.add_bias(x, b);
        let s = tape.sum(y);
        tape.backward(s);
        assert_eq!(tape.grad(b).unwrap().as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn reset_behaves_like_clear() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([2, 2]), true);
        let s = tape.sum(x);
        tape.backward(s);
        tape.reset();
        assert!(tape.is_empty());
        // The emptied tape records and differentiates a new pass.
        let y = tape.leaf(Tensor::ones([1, 1]), true);
        let s2 = tape.sum(y);
        tape.backward(s2);
        assert_eq!(tape.grad(y).unwrap().item(), 1.0);
    }

    /// A small asymmetric sparse matrix plus its transpose, as the model
    /// layer would precompute them.
    fn paper_csr() -> (Arc<CsrMatrix>, Arc<CsrMatrix>, Arc<Vec<f32>>) {
        let (adj, inv) = CsrMatrix::augmented_from_edges(
            5,
            [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 1)],
        );
        let adj_t = adj.transpose();
        (Arc::new(adj), Arc::new(adj_t), Arc::new(inv))
    }

    #[test]
    fn spmm_norm_matches_dense_matmul_and_scale() {
        let (adj, adj_t, inv) = paper_csr();
        let x = Tensor::from_rows(&[
            &[2.0, 1.0],
            &[2.0, 0.0],
            &[1.0, 3.0],
            &[3.0, 2.0],
            &[1.0, 5.0],
        ]);

        let mut tape = Tape::new();
        let f = tape.leaf(x.clone(), false);
        let y = tape.spmm_norm(adj.clone(), adj_t, inv.clone(), f);

        let dense = adj.to_dense().matmul(&x).scale_rows(&inv);
        for (a, b) in tape.value(y).as_slice().iter().zip(dense.as_slice()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn spmm_norm_backward_is_transpose_product() {
        let (adj, adj_t, inv) = paper_csr();
        let mut tape = Tape::new();
        let f = tape.leaf(Tensor::ones([5, 3]), true);
        let y = tape.spmm_norm(adj.clone(), adj_t, inv.clone(), f);
        let s = tape.sum(y);
        tape.backward(s);

        // d(sum)/dF = Âᵀ D̂⁻¹ 1 — compare against the dense computation.
        let gout = Tensor::ones([5, 3]).scale_rows(&inv);
        let expected = adj.to_dense().transpose().matmul(&gout);
        for (a, b) in tape.grad(f).unwrap().as_slice().iter().zip(expected.as_slice()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn spmm_norm_profiles_with_nnz_flops_and_backward_pseudo_op() {
        let (adj, adj_t, inv) = paper_csr();
        let mut tape = Tape::new();
        tape.set_profiling(true);
        let f = tape.leaf(Tensor::ones([5, 3]), true);
        let y = tape.spmm_norm(adj.clone(), adj_t, inv, f);
        let s = tape.sum(y);
        tape.backward(s);

        let rows = tape.profile().sorted_rows();
        let find = |kind: &str, phase: &str| {
            rows.iter().find(|(k, _)| k.kind == kind && k.phase == phase).map(|(_, s)| *s)
        };
        let fwd = find("spmm_norm.batched", profile::PHASE_FORWARD).expect("fwd spmm_norm row");
        assert_eq!(fwd.flops, profile::spmm_norm_flops(adj.nnz(), 5, 3));
        let bwd = find("spmm_norm_t.batched", profile::PHASE_BACKWARD).expect("bwd pseudo-op row");
        assert_eq!(bwd.flops, fwd.flops, "transpose product charged exactly 1x forward");
        assert!(
            find("spmm_norm.batched", profile::PHASE_BACKWARD).is_none(),
            "backward step records only under the pseudo-op name"
        );
    }

    #[test]
    #[should_panic(expected = "adj_t must be the transpose")]
    fn spmm_norm_rejects_mismatched_transpose() {
        let (adj, _, inv) = paper_csr();
        let (other, _) = CsrMatrix::augmented_from_edges(5, [(0, 1)]);
        let mut tape = Tape::new();
        let f = tape.leaf(Tensor::ones([5, 3]), false);
        tape.spmm_norm(adj, Arc::new(other), inv, f);
    }

    #[test]
    fn profiling_records_forward_and_backward_rows() {
        let mut tape = Tape::new();
        tape.set_profiling(true);
        let a = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]), true);
        let b = tape.leaf(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]), false);
        let y = tape.matmul(a, b);
        let r = tape.relu(y);
        let s = tape.sum(r);
        tape.backward(s);

        let rows = tape.profile().sorted_rows();
        let find = |kind: &str, phase: &str| {
            rows.iter().find(|(k, _)| k.kind == kind && k.phase == phase).map(|(_, s)| *s)
        };
        let mm_fwd = find("matmul", profile::PHASE_FORWARD).expect("fwd matmul row");
        assert_eq!(mm_fwd.calls, 1);
        assert_eq!(mm_fwd.flops, profile::matmul_flops(2, 2, 2));
        assert_eq!(mm_fwd.bytes_out, 16, "2x2 f32 output");
        let mm_bwd = find("matmul", profile::PHASE_BACKWARD).expect("bwd matmul row");
        assert_eq!(mm_bwd.flops, 2 * mm_fwd.flops, "backward charged 2x forward");
        assert!(find("relu", profile::PHASE_FORWARD).is_some());
        assert!(find("sum", profile::PHASE_BACKWARD).is_some());
        assert!(find("leaf", profile::PHASE_BACKWARD).is_none(), "leaf steps not profiled");

        // Profile survives reset (accumulates across samples) and drains.
        tape.reset();
        assert!(!tape.profile().is_empty());
        let taken = tape.take_profile();
        assert!(taken.sorted_rows().len() >= 5);
        assert!(tape.profile().is_empty());
    }

    #[test]
    fn profiling_off_records_nothing() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([2, 2]), true);
        let s = tape.sum(x);
        tape.backward(s);
        assert!(tape.profile().is_empty());
        assert!(!tape.profiling());
    }

    fn conv_sample(tape: &mut Tape) -> Var {
        let x = tape.leaf(
            Tensor::from_vec((0..2 * 8).map(|i| (i as f32 * 0.37).sin()).collect(), [2, 8]),
            false,
        );
        let w = tape.leaf(
            Tensor::from_vec((0..3 * 2 * 3).map(|i| (i as f32 * 0.19).cos()).collect(), [3, 2, 3]),
            true,
        );
        let b = tape.leaf(Tensor::from_vec(vec![0.1, -0.2, 0.3], [3]), true);
        let y = tape.conv2d(x, w, b, 0, Arc::new(vec![(1, 8)]));
        let r = tape.relu(y);
        tape.sum(r)
    }

    #[test]
    fn conv_lowering_dispatch_records_gemm_kinds_and_im2col_row() {
        let mut tape = Tape::new();
        tape.set_profiling(true);
        let loss = conv_sample(&mut tape);
        tape.backward(loss);

        let rows = tape.profile().sorted_rows();
        let find = |kind: &str, phase: &str| {
            rows.iter().find(|(k, _)| k.kind == kind && k.phase == phase).map(|(_, s)| *s)
        };
        let fwd = find("conv2d.batched", profile::PHASE_FORWARD).expect("fwd conv row");
        assert_eq!(fwd.flops, profile::conv2d_flops(3, 1, 6, 2, 1, 3));
        let bwd = find("conv2d.batched", profile::PHASE_BACKWARD).expect("bwd conv row");
        assert_eq!(bwd.flops, 2 * fwd.flops);
        let cols = find("im2col", profile::PHASE_FORWARD).expect("im2col row");
        assert_eq!(cols.flops, 0, "im2col is pure data movement");
        assert_eq!(cols.bytes_out, (2 * 3 * 6 * 4) as u64);
    }

    #[test]
    fn reset_recycles_buffers_into_zero_miss_steady_state() {
        let mut tape = Tape::new();
        // Warm-up sample: every checkout is a miss on a cold pool.
        let loss = conv_sample(&mut tape);
        tape.backward(loss);
        tape.reset();
        let warm = tape.workspace_stats();
        assert!(warm.misses > 0, "cold pool must miss");

        // Steady state: identical shapes, so every checkout must hit.
        for _ in 0..3 {
            let loss = conv_sample(&mut tape);
            tape.backward(loss);
            tape.reset();
        }
        let steady = tape.workspace_stats();
        assert_eq!(steady.misses, warm.misses, "steady-state samples must not miss the pool");
        assert!(steady.hits > warm.hits);
    }

    /// The tape holds only owned tensors and plain enum data, so worker
    /// threads may own or share one. This must keep holding as ops are
    /// added — a stray `Rc` or `RefCell` in a node would silently force
    /// training back to a single thread.
    #[test]
    fn tape_and_vars_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tape>();
        assert_send_sync::<Var>();
        assert_send_sync::<Tensor>();
    }

    // ---- Batches of N: bitwise parity with N batches of one ----

    /// Elementwise `((0 + g_0) + g_1) + ...` in sample order — the exact
    /// reduction chain the trainer's per-sample GradBuffer accumulation
    /// performs for shared parameters.
    fn chain_add(parts: &[&[f32]]) -> Vec<f32> {
        let mut acc = vec![0.0f32; parts[0].len()];
        for p in parts {
            for (a, g) in acc.iter_mut().zip(*p) {
                *a += g;
            }
        }
        acc
    }

    #[test]
    fn matmul_batched_matches_per_sample_tapes_bitwise() {
        let mut rng = Rng64::new(7);
        let (kk, n) = (5usize, 4usize);
        let rows = [3usize, 1, 4];
        let samples: Vec<Tensor> =
            rows.iter().map(|&r| Tensor::rand_uniform([r, kk], -1.0, 1.0, &mut rng)).collect();
        let w = Tensor::rand_uniform([kk, n], -1.0, 1.0, &mut rng);
        // Nontrivial upstream gradient: multiply by a constant and sum, so
        // gout(y) is the constant itself in both executions.
        let gmods: Vec<Tensor> =
            rows.iter().map(|&r| Tensor::rand_uniform([r, n], -1.0, 1.0, &mut rng)).collect();

        let mut per_out = Vec::new();
        let mut per_ga = Vec::new();
        let mut per_gw = Vec::new();
        for (xs, gm) in samples.iter().zip(&gmods) {
            let mut tape = Tape::new();
            let a = tape.leaf(xs.clone(), true);
            let b = tape.leaf(w.clone(), true);
            let y = tape.matmul(a, b);
            let m = tape.leaf(gm.clone(), false);
            let p = tape.mul(y, m);
            let s = tape.sum(p);
            tape.backward(s);
            per_out.push(tape.value(y).clone());
            per_ga.push(tape.grad(a).unwrap().clone());
            per_gw.push(tape.grad(b).unwrap().as_slice().to_vec());
        }

        let stacked = Tensor::concat_rows(&samples.iter().collect::<Vec<_>>());
        let gstacked = Tensor::concat_rows(&gmods.iter().collect::<Vec<_>>());
        let mut tape = Tape::new();
        tape.set_profiling(true);
        let a = tape.leaf(stacked, true);
        let b = tape.leaf(w, true);
        let y = tape.matmul_batched(a, b, Arc::new(vec![0, 3, 4, 8]));
        let m = tape.leaf(gstacked, false);
        let p = tape.mul(y, m);
        let s = tape.sum(p);
        tape.backward(s);

        let mut r0 = 0;
        for (j, out_j) in per_out.iter().enumerate() {
            let r1 = r0 + rows[j];
            assert_eq!(&tape.value(y).as_slice()[r0 * n..r1 * n], out_j.as_slice(), "fwd {j}");
            assert_eq!(
                &tape.grad(a).unwrap().as_slice()[r0 * kk..r1 * kk],
                per_ga[j].as_slice(),
                "ga segment {j}"
            );
            r0 = r1;
        }
        let chained = chain_add(&per_gw.iter().map(Vec::as_slice).collect::<Vec<_>>());
        assert_eq!(tape.grad(b).unwrap().as_slice(), chained.as_slice(), "shared-weight chain");

        let prof = tape.profile().sorted_rows();
        let has = |kind: &str, phase: &str| {
            prof.iter().any(|(k, _)| k.kind == kind && k.phase == phase)
        };
        assert!(has("gemm.batched", profile::PHASE_FORWARD));
        assert!(has("gemm.batched", profile::PHASE_BACKWARD));
    }

    #[test]
    fn spmm_norm_batched_over_block_diagonal_matches_per_sample_blocks() {
        let (adj1, adj1_t, inv1) = paper_csr();
        let (adj2, inv2) = CsrMatrix::augmented_from_edges(3, [(0, 1), (1, 2)]);
        let adj2_t = adj2.transpose();
        let mut rng = Rng64::new(8);
        let f1 = Tensor::rand_uniform([5, 3], -1.0, 1.0, &mut rng);
        let f2 = Tensor::rand_uniform([3, 3], -1.0, 1.0, &mut rng);

        let run = |adj: Arc<CsrMatrix>, adj_t: Arc<CsrMatrix>, inv: Arc<Vec<f32>>, f: &Tensor| {
            let mut tape = Tape::new();
            let fv = tape.leaf(f.clone(), true);
            let y = tape.spmm_norm(adj, adj_t, inv, fv);
            let s = tape.sum(y);
            tape.backward(s);
            (tape.value(y).clone(), tape.grad(fv).unwrap().clone())
        };
        let (y1, g1) = run(adj1.clone(), adj1_t, inv1.clone(), &f1);
        let (y2, g2) = run(Arc::new(adj2), Arc::new(adj2_t), Arc::new(inv2.clone()), &f2);

        let (adj2b, _) = CsrMatrix::augmented_from_edges(3, [(0, 1), (1, 2)]);
        let batch = CsrMatrix::block_diagonal(&[&adj1, &adj2b]);
        let batch_t = batch.transpose();
        let mut inv = inv1.as_ref().clone();
        inv.extend_from_slice(&inv2);
        let mut tape = Tape::new();
        tape.set_profiling(true);
        let fv = tape.leaf(Tensor::concat_rows(&[&f1, &f2]), true);
        let y = tape.spmm_norm(Arc::new(batch), Arc::new(batch_t), Arc::new(inv), fv);
        let s = tape.sum(y);
        tape.backward(s);

        assert_eq!(&tape.value(y).as_slice()[..5 * 3], y1.as_slice());
        assert_eq!(&tape.value(y).as_slice()[5 * 3..], y2.as_slice());
        assert_eq!(&tape.grad(fv).unwrap().as_slice()[..5 * 3], g1.as_slice());
        assert_eq!(&tape.grad(fv).unwrap().as_slice()[5 * 3..], g2.as_slice());

        let prof = tape.profile().sorted_rows();
        let has = |kind: &str, phase: &str| {
            prof.iter().any(|(k, _)| k.kind == kind && k.phase == phase)
        };
        assert!(has("spmm_norm.batched", profile::PHASE_FORWARD));
        assert!(has("spmm_norm_t.batched", profile::PHASE_BACKWARD));
    }

    #[test]
    fn gather_rows_pad_matches_gather_then_pad() {
        let mut rng = Rng64::new(9);
        let x = Tensor::rand_uniform([4, 3], -1.0, 1.0, &mut rng);
        let mask = Tensor::rand_uniform([3, 3], -1.0, 1.0, &mut rng);

        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone(), true);
        let gp = tape.gather_rows_pad(xv, vec![2, 0, usize::MAX]);
        let m = tape.leaf(mask.clone(), false);
        let pr = tape.mul(gp, m);
        let s = tape.sum(pr);
        tape.backward(s);

        let expected = x.gather_rows(&[2, 0]).pad_or_truncate_rows(3);
        assert_eq!(tape.value(gp).as_slice(), expected.as_slice());
        // d(sum(gp * mask))/dx routes mask row 0 to x row 2 and mask row 1
        // to x row 0; the padded row and the unselected rows get nothing.
        let mut grad = Tensor::zeros([4, 3]);
        grad.set_row(2, mask.row(0));
        grad.set_row(0, mask.row(1));
        assert_eq!(tape.grad(xv).unwrap().as_slice(), grad.as_slice());
    }

    #[test]
    fn nll_loss_rows_matches_per_sample_nll_loss() {
        let mut rng = Rng64::new(10);
        let logits = Tensor::rand_uniform([3, 4], -1.0, 1.0, &mut rng);
        let targets = [1usize, 3, 0];

        let mut per_loss = Vec::new();
        let mut per_glp = Vec::new();
        for (i, &t) in targets.iter().enumerate() {
            let mut tape = Tape::new();
            let lp = tape.leaf(Tensor::from_rows(&[logits.row(i)]), true);
            let row = tape.nll_loss_rows(lp, vec![t]);
            let l = tape.sum(row);
            tape.backward(l);
            per_loss.push(tape.value(l).item());
            per_glp.push(tape.grad(lp).unwrap().as_slice().to_vec());
        }

        let mut tape = Tape::new();
        let lp = tape.leaf(logits, true);
        let l = tape.nll_loss_rows(lp, targets.to_vec());
        let s = tape.sum(l);
        tape.backward(s);

        for (i, &want) in per_loss.iter().enumerate() {
            assert_eq!(tape.value(l).get2(i, 0), want, "per-row loss {i}");
            assert_eq!(tape.grad(lp).unwrap().row(i), per_glp[i].as_slice(), "glp row {i}");
        }
    }

    #[test]
    fn unstack_columns_inverts_the_channel_major_layout() {
        // (C=2, B*L=6) with L=3: row-major per-sample segments move to
        // (B=2, C*L=6) rows.
        let mut tape = Tape::new();
        let a = tape.leaf(
            Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[
                7.0, 8.0, 9.0, 10.0, 11.0, 12.0,
            ]]),
            true,
        );
        let u = tape.unstack_columns(a, 3);
        assert_eq!(tape.value(u).row(0), &[1.0, 2.0, 3.0, 7.0, 8.0, 9.0]);
        assert_eq!(tape.value(u).row(1), &[4.0, 5.0, 6.0, 10.0, 11.0, 12.0]);

        let m = tape.leaf(
            Tensor::from_rows(&[&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], &[
                0.7, 0.8, 0.9, 1.0, 1.1, 1.2,
            ]]),
            false,
        );
        let p = tape.mul(u, m);
        let s = tape.sum(p);
        tape.backward(s);
        // The gradient routes back through the inverse copy.
        let ga = tape.grad(a).unwrap();
        assert_eq!(ga.row(0), &[0.1, 0.2, 0.3, 0.7, 0.8, 0.9]);
        assert_eq!(ga.row(1), &[0.4, 0.5, 0.6, 1.0, 1.1, 1.2]);
    }

    #[test]
    fn matmul_row_blocks_matches_per_sample_weighted_sum() {
        let mut rng = Rng64::new(11);
        let (k, c, batch) = (4usize, 3usize, 3usize);
        let w = Tensor::rand_uniform([1, k], -1.0, 1.0, &mut rng);
        let blocks: Vec<Tensor> =
            (0..batch).map(|_| Tensor::rand_uniform([k, c], -1.0, 1.0, &mut rng)).collect();
        let gmod = Tensor::rand_uniform([batch, c], -1.0, 1.0, &mut rng);

        let mut per_out = Vec::new();
        let mut per_gw = Vec::new();
        let mut per_gx = Vec::new();
        for (j, z) in blocks.iter().enumerate() {
            let mut tape = Tape::new();
            let wv = tape.leaf(w.clone(), true);
            let zv = tape.leaf(z.clone(), true);
            let y = tape.matmul(wv, zv);
            let m = tape.leaf(Tensor::from_rows(&[gmod.row(j)]), false);
            let p = tape.mul(y, m);
            let s = tape.sum(p);
            tape.backward(s);
            per_out.push(tape.value(y).as_slice().to_vec());
            per_gw.push(tape.grad(wv).unwrap().as_slice().to_vec());
            per_gx.push(tape.grad(zv).unwrap().as_slice().to_vec());
        }

        let mut tape = Tape::new();
        let wv = tape.leaf(w, true);
        let xv = tape.leaf(Tensor::concat_rows(&blocks.iter().collect::<Vec<_>>()), true);
        let y = tape.matmul_row_blocks(wv, xv, k);
        let m = tape.leaf(gmod, false);
        let p = tape.mul(y, m);
        let s = tape.sum(p);
        tape.backward(s);

        for (j, want) in per_out.iter().enumerate() {
            assert_eq!(tape.value(y).row(j), want.as_slice(), "fwd row {j}");
            assert_eq!(
                &tape.grad(xv).unwrap().as_slice()[j * k * c..(j + 1) * k * c],
                per_gx[j].as_slice(),
                "gx block {j}"
            );
        }
        let chained = chain_add(&per_gw.iter().map(Vec::as_slice).collect::<Vec<_>>());
        assert_eq!(tape.grad(wv).unwrap().as_slice(), chained.as_slice(), "gw chain");
    }

    #[test]
    fn dropout_rows_replays_per_sample_rng_streams() {
        let mut rng = Rng64::new(12);
        let x = Tensor::rand_uniform([3, 40], -1.0, 1.0, &mut rng);

        let mut per_val = Vec::new();
        let mut per_grad = Vec::new();
        for i in 0..3 {
            let mut sample_rng = Rng64::new(100 + i as u64);
            let mut tape = Tape::new();
            let xv = tape.leaf(Tensor::from_rows(&[x.row(i)]), true);
            let d = tape.dropout_rows(xv, 0.5, std::slice::from_mut(&mut sample_rng));
            let s = tape.sum(d);
            tape.backward(s);
            per_val.push(tape.value(d).as_slice().to_vec());
            per_grad.push(tape.grad(xv).unwrap().as_slice().to_vec());
        }

        let mut rngs: Vec<Rng64> = (0..3).map(|i| Rng64::new(100 + i as u64)).collect();
        let mut tape = Tape::new();
        let xv = tape.leaf(x, true);
        let d = tape.dropout_rows(xv, 0.5, &mut rngs);
        let s = tape.sum(d);
        tape.backward(s);

        for i in 0..3 {
            assert_eq!(tape.value(d).row(i), per_val[i].as_slice(), "value row {i}");
            assert_eq!(tape.grad(xv).unwrap().row(i), per_grad[i].as_slice(), "grad row {i}");
        }
    }

    #[test]
    fn batched_head_ops_record_batched_kinds_and_conv_flops() {
        let mut rng = Rng64::new(21);
        let mut tape = Tape::new();
        tape.set_profiling(true);
        // Two samples of one channel x six columns each.
        let x = tape.leaf(Tensor::rand_uniform([1, 12], -1.0, 1.0, &mut rng), true);
        let w = tape.leaf(Tensor::rand_uniform([2, 1, 3], -1.0, 1.0, &mut rng), true);
        let b = tape.leaf(Tensor::rand_uniform([2], -1.0, 1.0, &mut rng), true);
        // Kernel 3 along the rows of two 2x3 maps: kernel = stride 3 over
        // two length-6 signals.
        let y = tape.conv2d(x, w, b, 0, Arc::new(vec![(2, 3); 2])); // (2, 2*2)
        let p = tape.max_pool1d(y, 2, 2); // (2, 2*1)
        let u = tape.unstack_columns(p, 1); // (2, 2)
        let lp = tape.log_softmax_rows(u);
        let l = tape.nll_loss_rows(lp, vec![0, 1]);
        let s = tape.sum(l);
        tape.backward(s);

        let rows = tape.profile().sorted_rows();
        let find = |kind: &str, phase: &str| {
            rows.iter().find(|(k, _)| k.kind == kind && k.phase == phase).map(|(_, s)| *s)
        };
        for kind in ["conv2d.batched", "max_pool1d.batched", "unstack_cols.batched", "nll_loss.batched"]
        {
            assert!(find(kind, profile::PHASE_FORWARD).is_some(), "missing fwd {kind}");
            assert!(find(kind, profile::PHASE_BACKWARD).is_some(), "missing bwd {kind}");
        }
        // The FLOP formula charges the concatenated output width, exactly
        // like one long single-sample convolution.
        let fwd = find("conv2d.batched", profile::PHASE_FORWARD).unwrap();
        assert_eq!(fwd.flops, profile::conv2d_flops(2, 1, 4, 1, 1, 3));
    }
}
