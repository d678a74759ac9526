//! The three pooling/readout mechanisms compared in the paper:
//! SortPooling (original DGCNN), the WeightedVertices layer (Section
//! III-B) and adaptive max pooling (Section III-C).

use crate::param::{Binding, ParamId, ParamStore};
use magic_autograd::{Tape, Var};
use magic_tensor::Rng64;

/// The DGCNN SortPooling layer.
///
/// Sorts the vertices of the concatenated graph-convolution output
/// `Z^{1:h}` by their feature descriptors — primary key the last channel
/// of the last layer, descending, ties broken by progressively earlier
/// channels — then truncates or zero-pads to exactly `k` rows so every
/// graph yields a `(k, Σ c_t)` tensor.
#[derive(Debug, Clone, Copy)]
pub struct SortPooling {
    k: usize,
}

impl SortPooling {
    /// Creates a SortPooling layer retaining `k` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "SortPooling requires k > 0");
        SortPooling { k }
    }

    /// The number of retained vertices.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Applies the layer to the row-stacked concatenated output `z_concat`
    /// (`(Σ n_j, Σ c_t)`) of a batch; `bounds` marks each sample's vertex
    /// row segment. Each segment is sorted independently (global indices;
    /// ties break on the row index, which an offset shift preserves, so a
    /// sample's permutation does not depend on its batch) and truncated
    /// or padded to `k` rows with the `usize::MAX` sentinel. The sort
    /// permutation is computed from the forward values and treated as
    /// constant during backpropagation (exactly as in the reference
    /// PyTorch implementation). Returns `(batch·k, Σ c_t)` row-stacked.
    pub fn forward(&self, tape: &mut Tape, z_concat: Var, bounds: &[usize]) -> Var {
        let indices: Vec<usize> = {
            let v = tape.value(z_concat);
            let mut idx = Vec::with_capacity((bounds.len() - 1) * self.k);
            for w in bounds.windows(2) {
                let order = v.argsort_rows_desc_lastcol_range(w[0], w[1]);
                let kept = order.len().min(self.k);
                idx.extend(order.into_iter().take(self.k));
                idx.extend(std::iter::repeat_n(usize::MAX, self.k - kept));
            }
            idx
        };
        tape.gather_rows_pad(z_concat, indices)
    }
}

/// The WeightedVertices layer of Section III-B (Eq. 3–4).
///
/// A single-channel Conv1D of kernel size `k` and stride `k` over the
/// SortPooling output is algebraically a row of weights `W ∈ R^{1×k}`
/// multiplying `Z^{sp}`: `E = f(W × Z^{sp})`, producing the graph
/// embedding `E ∈ R^{1×Σc_t}` as a weighted sum of vertex embeddings.
#[derive(Debug, Clone)]
pub struct WeightedVertices {
    w: ParamId,
    k: usize,
}

impl WeightedVertices {
    /// Registers the `1×k` weight row in `store`.
    ///
    /// The row is initialized *positive* (uniform in `(0, 2/k]`): the
    /// SortPooling output is non-negative (post-ReLU), so a sign-mixed
    /// initialization can start — and then permanently stay — in the dead
    /// region of the layer's ReLU, since a single output channel offers
    /// no alternative path for gradients. A positive start keeps the
    /// weighted sum alive; training is free to move individual weights
    /// negative afterwards.
    pub fn new(store: &mut ParamStore, name: &str, k: usize, rng: &mut Rng64) -> Self {
        let init = magic_tensor::Tensor::rand_uniform([1, k], 1e-3, 2.0 / k as f32, rng);
        let w = store.add(format!("{name}.weight"), init);
        WeightedVertices { w, k }
    }

    /// Number of vertex embeddings aggregated (the SortPooling `k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Computes `E = relu(W × Z^{sp})` for each `k`-row block of a
    /// row-stacked batch of SortPooling outputs `(batch·k, Σ c_t)`,
    /// returning `(batch, Σ c_t)`. The shared weight's gradient is
    /// accumulated per block.
    pub fn forward(&self, tape: &mut Tape, binding: &Binding, z_sp: Var) -> Var {
        let e = tape.matmul_row_blocks(binding.var(self.w), z_sp, self.k);
        tape.relu(e)
    }
}

/// The adaptive max pooling layer of Section III-C.
///
/// Divides each `(h, w)` input map into an `H×W` grid of windows (sized
/// adaptively per input, as in Fig. 6) and keeps the maximum of each
/// window and channel, producing `H·W` cells per channel regardless of
/// input size. The pooling runs fused with the convolution and ReLU
/// before it, through [`crate::Conv2dLayer::forward_pooled`], so the
/// full-resolution map it reads is never materialised.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveMaxPool2d {
    out_h: usize,
    out_w: usize,
}

impl AdaptiveMaxPool2d {
    /// Creates a pooler with output grid `out_h × out_w`.
    ///
    /// # Panics
    ///
    /// Panics if either output dimension is zero.
    pub fn new(out_h: usize, out_w: usize) -> Self {
        assert!(out_h > 0 && out_w > 0, "output grid must be non-empty");
        AdaptiveMaxPool2d { out_h, out_w }
    }

    /// Output grid height.
    pub fn out_h(&self) -> usize {
        self.out_h
    }

    /// Output grid width.
    pub fn out_w(&self) -> usize {
        self.out_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_tensor::Tensor;

    #[test]
    fn sortpool_orders_by_last_channel_then_truncates() {
        // Fig. 4 style: five vertices, sort on the last channel, keep 3.
        let z = Tensor::from_rows(&[
            &[0.0, 0.1],
            &[9.0, 0.5],
            &[0.0, 0.9],
            &[0.0, 0.2],
            &[0.0, 0.7],
        ]);
        let mut tape = Tape::new();
        let zv = tape.leaf(z, false);
        let sp = SortPooling::new(3);
        let out = sp.forward(&mut tape, zv, &[0, 5]);
        let v = tape.value(out);
        assert_eq!(v.shape().dims(), &[3, 2]);
        assert_eq!(v.row(0), &[0.0, 0.9]);
        assert_eq!(v.row(1), &[0.0, 0.7]);
        assert_eq!(v.row(2), &[9.0, 0.5]);
    }

    #[test]
    fn sortpool_pads_small_graphs_with_zero_rows() {
        let z = Tensor::from_rows(&[&[1.0, 2.0]]);
        let mut tape = Tape::new();
        let zv = tape.leaf(z, false);
        let out = SortPooling::new(4).forward(&mut tape, zv, &[0, 1]);
        let v = tape.value(out);
        assert_eq!(v.shape().dims(), &[4, 2]);
        assert_eq!(v.row(0), &[1.0, 2.0]);
        assert_eq!(v.row(3), &[0.0, 0.0]);
    }

    #[test]
    fn sortpool_gradient_skips_discarded_vertices() {
        let z = Tensor::from_rows(&[&[1.0, 3.0], &[1.0, 1.0], &[1.0, 2.0]]);
        let mut tape = Tape::new();
        let zv = tape.leaf(z, true);
        let out = SortPooling::new(2).forward(&mut tape, zv, &[0, 3]);
        let loss = tape.sum(out);
        tape.backward(loss);
        let g = tape.grad(zv).unwrap();
        // Vertices 0 (key 3.0) and 2 (key 2.0) are kept; vertex 1 dropped.
        assert_eq!(g.row(0), &[1.0, 1.0]);
        assert_eq!(g.row(1), &[0.0, 0.0]);
        assert_eq!(g.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn weighted_vertices_matches_figure_5_arithmetic() {
        // Fig. 5: W = [0.4, 0.1, 0.5] applied to a 3-row Zsp.
        let z_sp = Tensor::from_rows(&[
            &[1.0, 0.0, 2.0],
            &[0.0, 1.0, 0.0],
            &[2.0, 2.0, 2.0],
        ]);
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(0);
        let wv = WeightedVertices::new(&mut store, "wv", 3, &mut rng);
        *store.value_mut(wv.w) = Tensor::from_rows(&[&[0.4, 0.1, 0.5]]);

        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        let z = tape.leaf(z_sp, false);
        let e = wv.forward(&mut tape, &binding, z);
        let v = tape.value(e);
        assert_eq!(v.shape().dims(), &[1, 3]);
        // E = relu(0.4*row0 + 0.1*row1 + 0.5*row2)
        assert!((v.get2(0, 0) - 1.4).abs() < 1e-6);
        assert!((v.get2(0, 1) - 1.1).abs() < 1e-6);
        assert!((v.get2(0, 2) - 1.8).abs() < 1e-6);
    }

    #[test]
    fn weighted_vertices_weight_is_trainable() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(1);
        let wv = WeightedVertices::new(&mut store, "wv", 2, &mut rng);

        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        let z = tape.leaf(Tensor::ones([2, 3]), false);
        let e = wv.forward(&mut tape, &binding, z);
        let loss = tape.sum(e);
        tape.backward(loss);
        store.accumulate_grads(&tape, &binding);
        assert!(store.grad(wv.w).frobenius_norm() >= 0.0);
        assert_eq!(store.grad(wv.w).shape().dims(), &[1, 2]);
    }

    #[test]
    fn amp_unifies_different_input_sizes() {
        // Fig. 6: a 5x7 and a 4x7 input both pool to 3x3.
        let mut store = ParamStore::new();
        let conv = crate::Conv2dLayer::new(&mut store, "c", 1, 2, 3, 1, &mut Rng64::new(3));
        let pool = AdaptiveMaxPool2d::new(3, 3);
        for h in [5usize, 4] {
            let x = Tensor::from_vec((0..(h * 7)).map(|v| v as f32).collect(), [1, h * 7]);
            let mut tape = Tape::new();
            let binding = store.bind(&mut tape);
            let xv = tape.leaf(x, false);
            let y = conv.forward_pooled(&mut tape, &binding, xv, std::sync::Arc::new(vec![(h, 7)]), pool);
            assert_eq!(tape.value(y).shape().dims(), &[2, 3 * 3]);
        }
    }
}
