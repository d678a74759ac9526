//! Pre-processed model input: the per-graph constant matrices of Eq. (1).

use magic_graph::Acfg;
use magic_tensor::{CsrMatrix, Tensor};
use std::sync::Arc;

/// A graph prepared for DGCNN consumption: the augmented adjacency
/// `Â = A + I` in CSR form, its precomputed transpose `Âᵀ` (the backward
/// pass is the transpose-CSR product), the inverse augmented degrees
/// `D̂⁻¹` and the (log-scaled) attribute matrix `X`.
///
/// These are constants of the forward pass, computed once per sample and
/// reused across epochs. The adjacency is stored sparsely — `O(n + e)`
/// rather than `O(n²)` — and every matrix is shared via `Arc`, so a
/// [`GraphBatch::single`] of one graph and every tape that runs it
/// reference the same buffers instead of cloning them.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphInput {
    adj_hat: Arc<CsrMatrix>,
    adj_hat_t: Arc<CsrMatrix>,
    inv_degree: Arc<Vec<f32>>,
    attributes: Arc<Tensor>,
}

impl GraphInput {
    fn from_csr(adj_hat: CsrMatrix, inv_degree: Vec<f32>, attributes: Tensor) -> Self {
        assert!(adj_hat.rows() > 0, "cannot embed an empty graph");
        assert_eq!(adj_hat.rows(), attributes.rows(), "vertex count mismatch");
        let adj_hat_t = adj_hat.transpose();
        GraphInput {
            adj_hat: Arc::new(adj_hat),
            adj_hat_t: Arc::new(adj_hat_t),
            inv_degree: Arc::new(inv_degree),
            attributes: Arc::new(attributes),
        }
    }

    /// Prepares an ACFG: builds `Â` directly from the graph's edge lists
    /// (the dense `n×n` is never materialized) and log-scales the raw
    /// attribute counts (heavy-tailed counts destabilize training
    /// otherwise).
    ///
    /// # Panics
    ///
    /// Panics on an empty graph.
    pub fn from_acfg(acfg: &Acfg) -> Self {
        assert!(acfg.vertex_count() > 0, "cannot embed an empty graph");
        let (adj_hat, inv_degree) = acfg.graph().augmented_csr();
        GraphInput::from_csr(adj_hat, inv_degree, acfg.log_scaled_attributes())
    }

    /// Builds an input from raw parts (mainly for tests and tooling).
    /// The dense adjacency is augmented and immediately compressed.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree or the graph is empty.
    pub fn from_parts(adjacency: Tensor, attributes: Tensor) -> Self {
        assert_eq!(adjacency.rows(), attributes.rows(), "vertex count mismatch");
        let n = adjacency.rows();
        assert_eq!(n, adjacency.cols(), "adjacency matrix must be square");
        let a_hat = CsrMatrix::from_dense(&adjacency.add(&Tensor::eye(n)));
        let inv_degree = (0..n)
            .map(|i| {
                let (s, e) = (a_hat.row_offsets()[i], a_hat.row_offsets()[i + 1]);
                let d: f32 = a_hat.values()[s..e].iter().sum();
                if d > 0.0 { 1.0 / d } else { 0.0 }
            })
            .collect();
        GraphInput::from_csr(a_hat, inv_degree, attributes)
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.adj_hat.rows()
    }

    /// The augmented adjacency `Â` in CSR form.
    pub fn adj_hat(&self) -> &Arc<CsrMatrix> {
        &self.adj_hat
    }

    /// The precomputed transpose `Âᵀ`, consumed by the backward pass.
    pub fn adj_hat_t(&self) -> &Arc<CsrMatrix> {
        &self.adj_hat_t
    }

    /// The inverse augmented degree diagonal.
    pub fn inv_degree(&self) -> &[f32] {
        &self.inv_degree
    }

    /// The inverse degrees behind their shared handle, for tape ops that
    /// keep a reference.
    pub fn inv_degree_arc(&self) -> &Arc<Vec<f32>> {
        &self.inv_degree
    }

    /// The attribute matrix fed to the first convolution.
    pub fn attributes(&self) -> &Tensor {
        &self.attributes
    }
}

/// A mini-batch of graphs fused into one block-diagonal system — the
/// only input the model's forward pass takes. A single graph is a batch
/// of one ([`GraphBatch::single`]).
///
/// The per-sample adjacencies become one block-diagonal CSR matrix, the
/// attribute matrices are row-stacked and `bounds` records where each
/// sample's vertex rows start and end (`bounds[j]..bounds[j+1]`). One
/// fused `spmm_norm` over this matrix propagates the whole batch: a
/// block-diagonal row holds exactly the nonzeros of the corresponding
/// graph's own row, so the batched product is bitwise identical to each
/// graph's product computed alone, laid side by side.
///
/// The transpose is assembled as the block diagonal of the per-sample
/// transposes (equal to the transpose of the block diagonal), so the
/// backward pass walks each sample's `Âᵀ` rows in exactly the order a
/// batch of one walks them.
#[derive(Debug, Clone)]
pub struct GraphBatch {
    adj_hat: Arc<CsrMatrix>,
    adj_hat_t: Arc<CsrMatrix>,
    inv_degree: Arc<Vec<f32>>,
    attributes: Arc<Tensor>,
    bounds: Arc<Vec<usize>>,
}

impl GraphBatch {
    /// Fuses `inputs` into one block-diagonal batch.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn new(inputs: &[&GraphInput]) -> Self {
        assert!(!inputs.is_empty(), "cannot batch zero graphs");
        let blocks: Vec<&CsrMatrix> = inputs.iter().map(|i| &**i.adj_hat()).collect();
        let blocks_t: Vec<&CsrMatrix> = inputs.iter().map(|i| &**i.adj_hat_t()).collect();
        let adj_hat = CsrMatrix::block_diagonal(&blocks);
        let adj_hat_t = CsrMatrix::block_diagonal(&blocks_t);
        let mut inv_degree = Vec::with_capacity(adj_hat.rows());
        let mut bounds = Vec::with_capacity(inputs.len() + 1);
        bounds.push(0);
        for input in inputs {
            inv_degree.extend_from_slice(input.inv_degree());
            bounds.push(bounds.last().unwrap() + input.vertex_count());
        }
        let attrs: Vec<&Tensor> = inputs.iter().map(|i| i.attributes()).collect();
        GraphBatch {
            adj_hat: Arc::new(adj_hat),
            adj_hat_t: Arc::new(adj_hat_t),
            inv_degree: Arc::new(inv_degree),
            attributes: Arc::new(Tensor::concat_rows(&attrs)),
            bounds: Arc::new(bounds),
        }
    }

    /// A batch of one graph. Shares the input's matrices instead of
    /// copying them, so running one sample costs no batch assembly.
    pub fn single(input: &GraphInput) -> Self {
        GraphBatch {
            adj_hat: Arc::clone(&input.adj_hat),
            adj_hat_t: Arc::clone(&input.adj_hat_t),
            inv_degree: Arc::clone(&input.inv_degree),
            attributes: Arc::clone(&input.attributes),
            bounds: Arc::new(vec![0, input.vertex_count()]),
        }
    }

    /// Number of graphs in the batch.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Whether the batch is empty (never true for a constructed batch).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total vertex count across the batch.
    pub fn total_vertices(&self) -> usize {
        *self.bounds.last().unwrap()
    }

    /// Vertex count of sample `j`.
    pub fn vertex_count(&self, j: usize) -> usize {
        self.bounds[j + 1] - self.bounds[j]
    }

    /// The block-diagonal augmented adjacency.
    pub fn adj_hat(&self) -> &Arc<CsrMatrix> {
        &self.adj_hat
    }

    /// Its precomputed transpose.
    pub fn adj_hat_t(&self) -> &Arc<CsrMatrix> {
        &self.adj_hat_t
    }

    /// The concatenated inverse degree diagonal.
    pub fn inv_degree_arc(&self) -> &Arc<Vec<f32>> {
        &self.inv_degree
    }

    /// The row-stacked attribute matrix `(Σ n_j, c_in)`, shared (a tape
    /// leafs it without a copy).
    pub fn attributes(&self) -> &Arc<Tensor> {
        &self.attributes
    }

    /// Per-sample vertex row bounds: sample `j` owns rows
    /// `bounds()[j]..bounds()[j+1]`.
    pub fn bounds(&self) -> &Arc<Vec<usize>> {
        &self.bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};

    #[test]
    fn from_acfg_augments_and_scales() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1);
        let mut attrs = Tensor::zeros([2, NUM_ATTRIBUTES]);
        attrs.set2(0, 8, (std::f32::consts::E - 1.0) * 1.0); // ln(1+x) = 1
        let acfg = Acfg::new(g, attrs);
        let input = GraphInput::from_acfg(&acfg);
        assert_eq!(input.vertex_count(), 2);
        // Â has self loops, stored sparsely: 1 edge + 2 loops.
        assert_eq!(input.adj_hat().nnz(), 3);
        let dense = input.adj_hat().to_dense();
        assert_eq!(dense.get2(0, 0), 1.0);
        assert_eq!(dense.get2(0, 1), 1.0);
        assert_eq!(input.inv_degree(), &[0.5, 1.0]);
        assert!((input.attributes().get2(0, 8) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn transpose_is_precomputed_consistently() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        let acfg = Acfg::new(g, Tensor::zeros([3, NUM_ATTRIBUTES]));
        let input = GraphInput::from_acfg(&acfg);
        assert_eq!(
            input.adj_hat_t().to_dense(),
            input.adj_hat().to_dense().transpose()
        );
    }

    #[test]
    fn from_parts_matches_from_acfg() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        let attrs = Tensor::ones([3, NUM_ATTRIBUTES]);
        let via_acfg = GraphInput::from_acfg(&Acfg::new(g.clone(), attrs.clone()));

        let mut adjacency = Tensor::zeros([3, 3]);
        for (u, v) in g.edges() {
            adjacency.set2(u, v, 1.0);
        }
        let via_parts = GraphInput::from_parts(adjacency, via_acfg.attributes().clone());
        assert_eq!(via_acfg.adj_hat(), via_parts.adj_hat());
        assert_eq!(via_acfg.inv_degree(), via_parts.inv_degree());
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn rejects_empty_graph() {
        let acfg = Acfg::new(DiGraph::new(0), Tensor::zeros([0, NUM_ATTRIBUTES]));
        GraphInput::from_acfg(&acfg);
    }

    #[test]
    fn batch_stacks_blocks_and_tracks_bounds() {
        let mut g1 = DiGraph::new(2);
        g1.add_edge(0, 1);
        let mut g2 = DiGraph::new(3);
        g2.add_edge(0, 2);
        g2.add_edge(1, 2);
        let a = GraphInput::from_acfg(&Acfg::new(g1, Tensor::ones([2, NUM_ATTRIBUTES])));
        let b = GraphInput::from_acfg(&Acfg::new(g2, Tensor::zeros([3, NUM_ATTRIBUTES])));
        let batch = GraphBatch::new(&[&a, &b]);

        assert_eq!(batch.len(), 2);
        assert_eq!(batch.total_vertices(), 5);
        assert_eq!(batch.bounds().as_slice(), &[0, 2, 5]);
        assert_eq!(batch.vertex_count(1), 3);
        assert_eq!(batch.adj_hat().nnz(), a.adj_hat().nnz() + b.adj_hat().nnz());
        // The fused transpose is the transpose of the fused matrix.
        assert_eq!(batch.adj_hat_t().to_dense(), batch.adj_hat().to_dense().transpose());
        // Inverse degrees and attributes are the per-sample values stacked.
        assert_eq!(&batch.inv_degree_arc()[..2], a.inv_degree());
        assert_eq!(&batch.inv_degree_arc()[2..], b.inv_degree());
        assert_eq!(batch.attributes().row(0), a.attributes().row(0));
        assert_eq!(batch.attributes().row(4), b.attributes().row(2));
    }

    #[test]
    fn single_shares_the_input_buffers() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let input = GraphInput::from_acfg(&Acfg::new(g, Tensor::ones([3, NUM_ATTRIBUTES])));
        let one = GraphBatch::single(&input);
        assert!(Arc::ptr_eq(one.adj_hat(), input.adj_hat()));
        assert!(Arc::ptr_eq(one.adj_hat_t(), input.adj_hat_t()));
        assert!(Arc::ptr_eq(one.inv_degree_arc(), input.inv_degree_arc()));
        assert!(std::ptr::eq(&**one.attributes(), input.attributes()));
        assert_eq!(one.bounds().as_slice(), &[0, 3]);
        // Same content as assembling the batch of one the general way.
        let general = GraphBatch::new(&[&input]);
        assert_eq!(one.adj_hat(), general.adj_hat());
        assert_eq!(one.adj_hat_t(), general.adj_hat_t());
        assert_eq!(one.inv_degree_arc(), general.inv_degree_arc());
        assert_eq!(one.attributes(), general.attributes());
    }

    #[test]
    #[should_panic(expected = "zero graphs")]
    fn rejects_empty_batch() {
        GraphBatch::new(&[]);
    }
}
