//! The graph convolution layer of Eq. (1):
//! `Z_{t+1} = f(D̂⁻¹ Â Z_t W_t)`.

use crate::param::{Binding, ParamId, ParamStore};
use magic_autograd::{Tape, Var};
use magic_tensor::{CsrMatrix, Rng64, Tensor};
use std::sync::Arc;

/// One DGCNN graph convolution layer.
///
/// Given the (constant, per-graph) augmented adjacency matrix
/// `Â = A + I` and the inverse augmented degrees `D̂⁻¹`, the layer
/// computes `f(D̂⁻¹ Â Z W)` with `W ∈ R^{c_in × c_out}` trainable and `f`
/// an elementwise ReLU (as in Fig. 3 of the paper).
#[derive(Debug, Clone)]
pub struct GraphConv {
    w: ParamId,
    in_channels: usize,
    out_channels: usize,
}

impl GraphConv {
    /// Registers the layer's weight matrix in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        rng: &mut Rng64,
    ) -> Self {
        let w = store.add(
            format!("{name}.weight"),
            crate::init::xavier_uniform([in_channels, out_channels], in_channels, out_channels, rng),
        );
        GraphConv { w, in_channels, out_channels }
    }

    /// Number of input feature channels `c_t`.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output feature channels `c_{t+1}`.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Applies the layer over a (block-diagonal) CSR adjacency: `z` holds
    /// the row-stacked vertex features of a mini-batch and `adj` is the
    /// batch's block-diagonal `Â` — a single graph is a batch of one.
    ///
    /// `F = Z W` runs as one GEMM whose weight gradient is accumulated per
    /// sample row segment (`bounds`), and the `D̂⁻¹ (Â F)` half as one
    /// fused `spmm_norm` over the `n + e` nonzeros, so cost and memory
    /// scale with edges. `adj_t` is the precomputed transpose used by the
    /// backward pass. Returns `(Σ n_j, c_out)`.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        tape: &mut Tape,
        binding: &Binding,
        adj: &Arc<CsrMatrix>,
        adj_t: &Arc<CsrMatrix>,
        inv_degree: &Arc<Vec<f32>>,
        z: Var,
        bounds: &Arc<Vec<usize>>,
    ) -> Var {
        let f = tape.matmul_batched(z, binding.var(self.w), Arc::clone(bounds)); // F = Z W
        let o = tape.spmm_norm(Arc::clone(adj), Arc::clone(adj_t), Arc::clone(inv_degree), f); // D̂⁻¹ (Â F)
        tape.relu(o)
    }
}

/// Computes `Â = A + I` and the inverse augmented degree diagonal from a
/// raw adjacency matrix. The degree of vertex `i` is `Σ_j Â[i][j]` (out-
/// degree plus self-loop, as in Section III-A1 of the paper).
///
/// # Panics
///
/// Panics if `adj` is not square.
pub fn augment_adjacency(adj: &Tensor) -> (Tensor, Vec<f32>) {
    let n = adj.rows();
    assert_eq!(n, adj.cols(), "adjacency matrix must be square");
    let a_hat = adj.add(&Tensor::eye(n));
    let inv_degree = a_hat
        .sum_cols()
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
        .collect();
    (a_hat, inv_degree)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_EDGES: [(usize, usize); 6] = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 1)];

    /// The worked example of Figs. 2–3: the 5-vertex graph `g` with two
    /// attribute channels, convolved with the paper's `W1`.
    ///
    /// The paper's edge list (from Â in Fig. 2):
    /// 1→2, 1→3, 2→4, 3→4, 3→5, 4→2 (1-indexed), plus self loops.
    fn paper_graph() -> (Tensor, Tensor) {
        let mut a = Tensor::zeros([5, 5]);
        for (u, v) in PAPER_EDGES {
            a.set2(u, v, 1.0);
        }
        // Attribute matrix X from Fig. 2, channels F1 and F2.
        let x = Tensor::from_rows(&[
            &[2.0, 1.0],
            &[2.0, 0.0],
            &[1.0, 3.0],
            &[3.0, 2.0],
            &[1.0, 5.0],
        ]);
        (a, x)
    }

    /// Batch constants of `copies` paper graphs: block-diagonal `Â`, its
    /// transpose, the stacked `D̂⁻¹` and the sample row bounds.
    type BatchCsr = (Arc<CsrMatrix>, Arc<CsrMatrix>, Arc<Vec<f32>>, Arc<Vec<usize>>);

    fn paper_csr_batch(copies: usize) -> BatchCsr {
        let (csr, inv) = CsrMatrix::augmented_from_edges(5, PAPER_EDGES);
        let adj = CsrMatrix::block_diagonal(&vec![&csr; copies]);
        let adj_t = adj.transpose();
        let inv = inv.repeat(copies);
        let bounds = (0..=copies).map(|j| 5 * j).collect();
        (Arc::new(adj), Arc::new(adj_t), Arc::new(inv), Arc::new(bounds))
    }

    #[test]
    fn augment_adds_self_loops_and_inverts_degree() {
        let (a, _) = paper_graph();
        let (a_hat, inv_deg) = augment_adjacency(&a);
        // Vertex 0 has out-edges to 1 and 2 plus the self loop: degree 3.
        assert_eq!(a_hat.get2(0, 0), 1.0);
        assert!((inv_deg[0] - 1.0 / 3.0).abs() < 1e-6);
        // Vertex 4 has only the self loop: degree 1.
        assert!((inv_deg[4] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn forward_matches_paper_figure_3_layer_1() {
        // The paper's W1 = [[1, 0, 1], [0, 1, 0]] maps 2 channels to 3.
        let (_, x) = paper_graph();
        let (adj, adj_t, inv, bounds) = paper_csr_batch(1);

        let mut store = ParamStore::new();
        let mut rng = Rng64::new(0);
        let layer = GraphConv::new(&mut store, "gc1", 2, 3, &mut rng);
        *store.value_mut(layer.w) = Tensor::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);

        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        let z0 = tape.leaf(x, false);
        let z1 = layer.forward(&mut tape, &binding, &adj, &adj_t, &inv, z0, &bounds);

        // Hand-computed D̂⁻¹ Â X W1 for the paper graph (2-decimal
        // precision in Fig. 3). Row 0 aggregates vertices {0,1,2}:
        // sum X = [5, 4], /3 -> [1.67, 1.33], W1 -> [1.67, 1.33, 1.67].
        let z1v = tape.value(z1);
        assert!((z1v.get2(0, 0) - 5.0 / 3.0).abs() < 1e-4);
        assert!((z1v.get2(0, 1) - 4.0 / 3.0).abs() < 1e-4);
        assert!((z1v.get2(0, 2) - 5.0 / 3.0).abs() < 1e-4);
        // Vertex 4 (self loop only): X row [1, 5] -> [1, 5, 1].
        assert_eq!(z1v.row(4), &[1.0, 5.0, 1.0]);
        // All outputs are ReLU'd, hence non-negative.
        assert!(z1v.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn sparse_forward_matches_dense_on_paper_graph() {
        let (a, x) = paper_graph();
        let (a_hat, inv_deg) = augment_adjacency(&a);
        let (adj, adj_t, inv, bounds) = paper_csr_batch(1);
        assert_eq!(inv_deg, *inv, "both constructions agree on D̂⁻¹");

        let mut store = ParamStore::new();
        let mut rng = Rng64::new(21);
        let layer = GraphConv::new(&mut store, "gc", 2, 4, &mut rng);

        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        let z0 = tape.leaf(x.clone(), false);
        let sparse = layer.forward(&mut tape, &binding, &adj, &adj_t, &inv, z0, &bounds);

        // relu(D̂⁻¹ Â X W) computed densely.
        let dense = a_hat.matmul(&x.matmul(store.value(layer.w))).scale_rows(&inv_deg);
        for (d, s) in dense.as_slice().iter().zip(tape.value(sparse).as_slice()) {
            assert!((d.max(0.0) - s).abs() < 1e-5, "{d} vs {s}");
        }
    }

    #[test]
    fn sparse_gradient_reaches_weight_through_structure() {
        let (_, x) = paper_graph();
        let (adj, adj_t, inv, bounds) = paper_csr_batch(1);

        let mut store = ParamStore::new();
        let mut rng = Rng64::new(3);
        let layer = GraphConv::new(&mut store, "gc", 2, 4, &mut rng);

        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        let z0 = tape.leaf(x, false);
        let z1 = layer.forward(&mut tape, &binding, &adj, &adj_t, &inv, z0, &bounds);
        let loss = tape.sum(z1);
        tape.backward(loss);
        store.accumulate_grads(&tape, &binding);
        assert!(store.grad(layer.w).frobenius_norm() > 0.0);
    }

    #[test]
    fn gradient_reaches_weight_through_structure() {
        // Two copies of the graph in one batch: each contributes to the
        // shared weight, so the gradient doubles (exactly, in binary).
        let (_, x) = paper_graph();
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(3);
        let layer = GraphConv::new(&mut store, "gc", 2, 4, &mut rng);

        let grad_of = |store: &mut ParamStore, copies: usize, z: Tensor| {
            let (adj, adj_t, inv, bounds) = paper_csr_batch(copies);
            let mut tape = Tape::new();
            let binding = store.bind(&mut tape);
            let z0 = tape.leaf(z, false);
            let z1 = layer.forward(&mut tape, &binding, &adj, &adj_t, &inv, z0, &bounds);
            let loss = tape.sum(z1);
            tape.backward(loss);
            store.zero_grads();
            store.accumulate_grads(&tape, &binding);
            store.grad(layer.w).clone()
        };
        let one = grad_of(&mut store, 1, x.clone());
        let two = grad_of(&mut store, 2, Tensor::concat_rows(&[&x, &x]));
        assert!(one.frobenius_norm() > 0.0);
        assert_eq!(two, one.scale(2.0));
    }

    #[test]
    fn isolated_vertex_keeps_own_features() {
        // A single vertex with no edges: Â = [1], D̂⁻¹ = [1], so the
        // convolution reduces to f(x W).
        let (csr, inv) = CsrMatrix::augmented_from_edges(1, std::iter::empty());
        let adj_t = Arc::new(csr.transpose());
        let (adj, inv, bounds) = (Arc::new(csr), Arc::new(inv), Arc::new(vec![0, 1]));
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(4);
        let layer = GraphConv::new(&mut store, "gc", 2, 2, &mut rng);
        *store.value_mut(layer.w) = Tensor::eye(2);

        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        let z0 = tape.leaf(Tensor::from_rows(&[&[3.0, 4.0]]), false);
        let z1 = layer.forward(&mut tape, &binding, &adj, &adj_t, &inv, z0, &bounds);
        assert_eq!(tape.value(z1).row(0), &[3.0, 4.0]);
    }
}
