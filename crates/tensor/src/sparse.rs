//! Compressed sparse row matrices for the Eq. (1) adjacency product.
//!
//! Control flow graphs are extremely sparse — basic blocks have out-degree
//! ≤ 2 plus call edges — so storing the augmented adjacency `Â = A + I` as
//! a dense `n×n` [`Tensor`] wastes `O(n²)` memory and FLOPs on zeros. A
//! [`CsrMatrix`] keeps only the `n + e` nonzeros in the classic three-array
//! layout (row offsets / column indices / values) and multiplies dense
//! matrices in `O(nnz · c)`.
//!
//! # Layout
//!
//! * `row_offsets` — `rows + 1` entries; row `i`'s nonzeros live at
//!   positions `row_offsets[i] .. row_offsets[i+1]` of the other two
//!   arrays.
//! * `col_indices` — the column of each nonzero (`u32`: graphs are far
//!   below 2³² vertices and the narrower index halves cache traffic).
//! * `values` — the nonzero values, aligned with `col_indices`.
//!
//! Within each row, columns are stored strictly ascending. That canonical
//! ordering is part of the determinism contract: [`CsrMatrix::spmm`]
//! accumulates in storage order with no atomics, so a product is bitwise
//! reproducible run to run and independent of thread count.
//!
//! Buffers are reported to [`crate::mem`] just like dense tensor buffers,
//! so the observability layer's peak-memory counters see the `O(n + e)`
//! footprint directly.

use crate::mem;
use crate::tensor::Tensor;

/// A sparse matrix in compressed sparse row form. See the module docs
/// for the layout and determinism contract.
#[derive(Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_offsets: Vec<usize>,
    col_indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Internal constructor: takes ownership of pre-validated arrays and
    /// reports their footprint to the memory accountant.
    fn tracked(
        rows: usize,
        cols: usize,
        row_offsets: Vec<usize>,
        col_indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(row_offsets.len(), rows + 1);
        debug_assert_eq!(col_indices.len(), values.len());
        debug_assert_eq!(*row_offsets.last().unwrap_or(&0), values.len());
        let m = CsrMatrix { rows, cols, row_offsets, col_indices, values };
        mem::on_alloc_bytes(m.heap_bytes());
        m
    }

    /// Builds the augmented adjacency `Â = A + I` and the inverse
    /// augmented degree diagonal `D̂⁻¹` directly from an edge list, never
    /// materializing the dense `n×n`.
    ///
    /// Each `(u, v)` edge contributes `1.0` at `(u, v)`; every vertex
    /// additionally gets a `1.0` self loop. Duplicate coordinates
    /// (including an explicit `(i, i)` self-loop edge on top of the added
    /// identity) are summed, matching the dense `A + I` semantics. The
    /// degree of vertex `i` is its row sum, as in Section III-A1 of the
    /// paper.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `>= n`.
    pub fn augmented_from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> (CsrMatrix, Vec<f32>) {
        let edges: Vec<(usize, usize)> = edges.into_iter().collect();
        let mut counts = vec![1usize; n]; // one self loop per vertex
        for &(u, v) in &edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range for {n} vertices");
            counts[u] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &c in &counts {
            total += c;
            offsets.push(total);
        }
        // Scatter columns, then sort each row and merge duplicates.
        let mut cols_scatter = vec![0u32; total];
        let mut cursor = offsets.clone();
        for (i, c) in cursor.iter_mut().take(n).enumerate() {
            cols_scatter[*c] = i as u32; // the self loop
            *c += 1;
        }
        for &(u, v) in &edges {
            cols_scatter[cursor[u]] = v as u32;
            cursor[u] += 1;
        }

        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut col_indices = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        let mut inv_degree = Vec::with_capacity(n);
        row_offsets.push(0);
        for i in 0..n {
            let seg = &mut cols_scatter[offsets[i]..offsets[i + 1]];
            seg.sort_unstable();
            let mut degree = 0.0f32;
            for &c in seg.iter() {
                if col_indices.len() > *row_offsets.last().unwrap()
                    && *col_indices.last().unwrap() == c
                {
                    *values.last_mut().unwrap() += 1.0;
                } else {
                    col_indices.push(c);
                    values.push(1.0);
                }
                degree += 1.0;
            }
            row_offsets.push(col_indices.len());
            inv_degree.push(if degree > 0.0 { 1.0 / degree } else { 0.0 });
        }
        (CsrMatrix::tracked(n, n, row_offsets, col_indices, values), inv_degree)
    }

    /// Stacks independent CSR blocks into one block-diagonal matrix:
    /// block `t` occupies rows `Σ_{s<t} rows_s ..` and columns
    /// `Σ_{s<t} cols_s ..`, with zeros everywhere else (represented, of
    /// course, by storing nothing).
    ///
    /// This is the batched-execution "batch graph": stacking a
    /// mini-batch's augmented adjacencies block-diagonally lets one
    /// [`CsrMatrix::spmm_row_scaled`] propagate every sample's
    /// concatenated node features in a single call. Because SpMM
    /// accumulates per output row in storage order and a block-diagonal
    /// row holds exactly the nonzeros of its source block's row (columns
    /// shifted into the block's span), the batched product is bitwise
    /// identical to the per-sample products stacked row-wise.
    ///
    /// Ascending column order within rows is preserved, and
    /// `block_diagonal(&blocks).transpose()` equals the block diagonal of
    /// the transposes.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty or the summed column count overflows
    /// the `u32` column index space.
    pub fn block_diagonal(blocks: &[&CsrMatrix]) -> CsrMatrix {
        assert!(!blocks.is_empty(), "block_diagonal requires at least one block");
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        let cols: usize = blocks.iter().map(|b| b.cols).sum();
        let nnz: usize = blocks.iter().map(|b| b.nnz()).sum();
        let mut row_offsets = Vec::with_capacity(rows + 1);
        let mut col_indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_offsets.push(0);
        let mut col_base = 0usize;
        for b in blocks {
            let nnz_base = *row_offsets.last().unwrap();
            row_offsets.extend(b.row_offsets[1..].iter().map(|&o| nnz_base + o));
            let shift =
                u32::try_from(col_base).expect("block_diagonal exceeds u32 column space");
            col_indices.extend(b.col_indices.iter().map(|&c| c + shift));
            values.extend_from_slice(&b.values);
            col_base += b.cols;
        }
        CsrMatrix::tracked(rows, cols, row_offsets, col_indices, values)
    }

    /// Converts a dense matrix, keeping every nonzero entry (row-major,
    /// so columns come out ascending). Mainly for parity tests and
    /// tooling — production paths build from edges instead.
    pub fn from_dense(dense: &Tensor) -> CsrMatrix {
        let (rows, cols) = (dense.rows(), dense.cols());
        let d = dense.as_slice();
        let mut row_offsets = Vec::with_capacity(rows + 1);
        let mut col_indices = Vec::new();
        let mut values = Vec::new();
        row_offsets.push(0);
        for i in 0..rows {
            for (j, &x) in d[i * cols..(i + 1) * cols].iter().enumerate() {
                if x != 0.0 {
                    col_indices.push(j as u32);
                    values.push(x);
                }
            }
            row_offsets.push(col_indices.len());
        }
        CsrMatrix::tracked(rows, cols, row_offsets, col_indices, values)
    }

    /// Materializes the dense equivalent (for tests and the dense
    /// fallback path).
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros([self.rows, self.cols]);
        let o = out.as_mut_slice();
        for i in 0..self.rows {
            for p in self.row_offsets[i]..self.row_offsets[i + 1] {
                o[i * self.cols + self.col_indices[p] as usize] += self.values[p];
            }
        }
        out
    }

    /// The transpose, also in CSR (i.e. the CSC view of `self`). Columns
    /// within each output row come out ascending, preserving the
    /// canonical ordering.
    ///
    /// The DGCNN backward pass is `Âᵀ (D̂⁻¹ g)`; the model precomputes
    /// this transpose once per graph and reuses it every epoch.
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz();
        let mut counts = vec![0usize; self.cols];
        for &c in &self.col_indices {
            counts[c as usize] += 1;
        }
        let mut row_offsets = Vec::with_capacity(self.cols + 1);
        let mut total = 0usize;
        row_offsets.push(0);
        for &c in &counts {
            total += c;
            row_offsets.push(total);
        }
        let mut col_indices = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        let mut cursor = row_offsets.clone();
        for i in 0..self.rows {
            for p in self.row_offsets[i]..self.row_offsets[i + 1] {
                let c = self.col_indices[p] as usize;
                col_indices[cursor[c]] = i as u32;
                values[cursor[c]] = self.values[p];
                cursor[c] += 1;
            }
        }
        CsrMatrix::tracked(self.cols, self.rows, row_offsets, col_indices, values)
    }

    /// Sparse × dense product `self @ dense`, `O(nnz · c)`.
    ///
    /// Accumulation order is fixed (storage order within each row), so
    /// the result is bitwise deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != dense.rows()`.
    pub fn spmm(&self, dense: &Tensor) -> Tensor {
        self.spmm_impl(None, dense)
    }

    /// Fused `diag(row_scale) · (self @ dense)` — the whole
    /// `D̂⁻¹ (Â F)` of Eq. (1) in one pass over the nonzeros.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != dense.rows()` or
    /// `row_scale.len() != self.rows()`.
    pub fn spmm_row_scaled(&self, row_scale: &[f32], dense: &Tensor) -> Tensor {
        assert_eq!(row_scale.len(), self.rows, "one scale factor per row");
        self.spmm_impl(Some(row_scale), dense)
    }

    /// [`spmm`](Self::spmm) of a row-major `(self.cols(), c)` slice into
    /// `out`, `(self.rows(), c)`, which is fully overwritten — the same
    /// kernel, so bitwise the same result, into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `dense` or `out` has the wrong length.
    pub fn spmm_into(&self, dense: &[f32], c: usize, out: &mut [f32]) {
        assert_eq!(dense.len(), self.cols * c, "spmm inner dimension mismatch");
        self.spmm_slices(None, dense, c, out);
    }

    fn spmm_impl(&self, row_scale: Option<&[f32]>, dense: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm inner dimension mismatch: {} vs {}",
            self.cols,
            dense.rows()
        );
        let c = dense.cols();
        let mut out = Tensor::zeros([self.rows, c]);
        self.spmm_slices(row_scale, dense.as_slice(), c, out.as_mut_slice());
        out
    }

    fn spmm_slices(&self, row_scale: Option<&[f32]>, dense: &[f32], c: usize, out: &mut [f32]) {
        if self.rows == 0 || c == 0 {
            return;
        }
        crate::simd::spmm(
            crate::simd::isa(),
            &self.row_offsets,
            &self.col_indices,
            &self.values,
            row_scale,
            dense,
            c,
            out,
        );
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `rows + 1` row offset array.
    pub fn row_offsets(&self) -> &[usize] {
        &self.row_offsets
    }

    /// The column index of each nonzero.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// The value of each nonzero.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Bytes held by the three backing arrays — what this matrix reports
    /// to [`crate::mem`]. `O(rows + nnz)`, versus `rows · cols · 4` for
    /// the dense equivalent.
    pub fn heap_bytes(&self) -> usize {
        self.row_offsets.len() * std::mem::size_of::<usize>()
            + self.col_indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f32>()
    }
}

impl Clone for CsrMatrix {
    fn clone(&self) -> Self {
        CsrMatrix::tracked(
            self.rows,
            self.cols,
            self.row_offsets.clone(),
            self.col_indices.clone(),
            self.values.clone(),
        )
    }
}

impl Drop for CsrMatrix {
    fn drop(&mut self) {
        mem::on_free_bytes(self.heap_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    /// The Fig. 2 worked-example edge list (0-indexed).
    const PAPER_EDGES: [(usize, usize); 6] =
        [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 1)];

    fn dense_augmented(n: usize, edges: &[(usize, usize)]) -> (Tensor, Vec<f32>) {
        let mut a = Tensor::zeros([n, n]);
        for &(u, v) in edges {
            let cur = a.get2(u, v);
            a.set2(u, v, cur + 1.0);
        }
        let a_hat = a.add(&Tensor::eye(n));
        let inv: Vec<f32> = (0..n)
            .map(|i| {
                let d: f32 = a_hat.row(i).iter().sum();
                if d > 0.0 { 1.0 / d } else { 0.0 }
            })
            .collect();
        (a_hat, inv)
    }

    #[test]
    fn augmented_from_edges_matches_dense_construction() {
        let (csr, inv) = CsrMatrix::augmented_from_edges(5, PAPER_EDGES);
        let (dense, inv_dense) = dense_augmented(5, &PAPER_EDGES);
        assert_eq!(csr.to_dense(), dense);
        assert_eq!(inv, inv_dense);
        assert_eq!(csr.nnz(), 5 + 6, "n self loops plus e edges");
    }

    #[test]
    fn explicit_self_loop_merges_with_identity() {
        let (csr, inv) = CsrMatrix::augmented_from_edges(2, [(0, 0), (0, 1)]);
        // Â[0][0] = A's self loop + I = 2.0, degree 3.
        assert_eq!(csr.to_dense().get2(0, 0), 2.0);
        assert_eq!(csr.nnz(), 3);
        assert!((inv[0] - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(inv[1], 1.0);
    }

    #[test]
    fn columns_are_sorted_within_rows_regardless_of_edge_order() {
        let (a, _) = CsrMatrix::augmented_from_edges(4, [(0, 3), (0, 1), (0, 2)]);
        let (b, _) = CsrMatrix::augmented_from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(a, b, "layout is canonical");
        for i in 0..a.rows() {
            let seg = &a.col_indices()[a.row_offsets()[i]..a.row_offsets()[i + 1]];
            assert!(seg.windows(2).all(|w| w[0] < w[1]), "row {i} sorted: {seg:?}");
        }
    }

    #[test]
    fn from_dense_roundtrips() {
        let mut rng = Rng64::new(7);
        let mut dense = Tensor::zeros([6, 4]);
        for x in dense.as_mut_slice() {
            if rng.next_bool(0.3) {
                *x = rng.next_f32() - 0.5;
            }
        }
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let (csr, _) = CsrMatrix::augmented_from_edges(5, PAPER_EDGES);
        let t = csr.transpose();
        assert_eq!(t.to_dense(), csr.to_dense().transpose());
        assert_eq!(t.nnz(), csr.nnz());
        // Transposing twice is the identity.
        assert_eq!(t.transpose(), csr);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let mut rng = Rng64::new(11);
        let (csr, _) = CsrMatrix::augmented_from_edges(5, PAPER_EDGES);
        let f = Tensor::rand_uniform([5, 3], -1.0, 1.0, &mut rng);
        let sparse = csr.spmm(&f);
        let dense = csr.to_dense().matmul(&f);
        for (a, b) in sparse.as_slice().iter().zip(dense.as_slice()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn spmm_row_scaled_fuses_the_normalization() {
        let mut rng = Rng64::new(12);
        let (csr, inv) = CsrMatrix::augmented_from_edges(5, PAPER_EDGES);
        let f = Tensor::rand_uniform([5, 3], -1.0, 1.0, &mut rng);
        let fused = csr.spmm_row_scaled(&inv, &f);
        let two_pass = csr.spmm(&f).scale_rows(&inv);
        assert_eq!(fused, two_pass, "fusion is exact, not approximate");
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn spmm_rejects_bad_dims() {
        let (csr, _) = CsrMatrix::augmented_from_edges(3, [(0, 1)]);
        csr.spmm(&Tensor::zeros([4, 2]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn augmented_rejects_out_of_range_edges() {
        CsrMatrix::augmented_from_edges(2, [(0, 2)]);
    }

    #[test]
    fn heap_bytes_scale_with_edges_not_vertices_squared() {
        // A 1024-vertex ring: 2048 nonzeros. The dense Â would be 4 MiB;
        // CSR stays under 33 KiB.
        let n = 1024;
        let edges: Vec<(usize, usize)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        let (csr, _) = CsrMatrix::augmented_from_edges(n, edges);
        assert_eq!(csr.nnz(), 2 * n);
        assert!(csr.heap_bytes() < 40 * 1024, "{} bytes", csr.heap_bytes());
        assert!(csr.heap_bytes() * 100 < n * n * 4);
    }

    #[test]
    fn memory_accounting_balances_on_clone_and_drop() {
        // mem state is process-global; serialize with the mem.rs tests.
        let _guard = mem::TEST_LOCK.lock().unwrap();
        mem::reset();
        mem::enable();
        let before = mem::stats().current_bytes;
        {
            let (csr, _) = CsrMatrix::augmented_from_edges(16, [(0, 1), (1, 2)]);
            let expected = csr.heap_bytes() as u64;
            assert_eq!(mem::stats().current_bytes, before + expected);
            let copy = csr.clone();
            assert_eq!(mem::stats().current_bytes, before + 2 * expected);
            drop(copy);
            assert_eq!(mem::stats().current_bytes, before + expected);
        }
        assert_eq!(mem::stats().current_bytes, before, "all CSR buffers freed");
        mem::disable();
        mem::reset();
    }

    #[test]
    fn block_diagonal_matches_dense_block_layout() {
        let (a, _) = CsrMatrix::augmented_from_edges(3, [(0, 1), (1, 2)]);
        let (b, _) = CsrMatrix::augmented_from_edges(2, [(1, 0)]);
        let bd = CsrMatrix::block_diagonal(&[&a, &b]);
        assert_eq!(bd.rows(), 5);
        assert_eq!(bd.cols(), 5);
        assert_eq!(bd.nnz(), a.nnz() + b.nnz());
        let dense = bd.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(dense.get2(i, j), a.to_dense().get2(i, j));
            }
            for j in 3..5 {
                assert_eq!(dense.get2(i, j), 0.0, "off-diagonal block must be zero");
                assert_eq!(dense.get2(j, i), 0.0);
            }
        }
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(dense.get2(3 + i, 3 + j), b.to_dense().get2(i, j));
            }
        }
    }

    #[test]
    fn block_diagonal_transpose_commutes() {
        let (a, _) = CsrMatrix::augmented_from_edges(4, PAPER_EDGES[..3].to_vec());
        let (b, _) = CsrMatrix::augmented_from_edges(3, [(2, 0)]);
        let t_of_bd = CsrMatrix::block_diagonal(&[&a, &b]).transpose();
        let bd_of_t = CsrMatrix::block_diagonal(&[&a.transpose(), &b.transpose()]);
        assert_eq!(t_of_bd, bd_of_t);
    }

    #[test]
    fn block_diagonal_spmm_is_bitwise_equal_to_stacked_per_block_products() {
        // The batched-execution contract: propagating concatenated node
        // features through the block-diagonal Â must reproduce each
        // sample's rows bit for bit.
        let mut rng = Rng64::new(23);
        let (a, inv_a) = CsrMatrix::augmented_from_edges(5, PAPER_EDGES);
        let (b, inv_b) = CsrMatrix::augmented_from_edges(3, [(0, 2), (2, 1)]);
        let fa = Tensor::rand_uniform([5, 4], -1.0, 1.0, &mut rng);
        let fb = Tensor::rand_uniform([3, 4], -1.0, 1.0, &mut rng);

        let bd = CsrMatrix::block_diagonal(&[&a, &b]);
        let mut inv = inv_a.clone();
        inv.extend_from_slice(&inv_b);
        let stacked_in = Tensor::concat_rows(&[&fa, &fb]);
        let batched = bd.spmm_row_scaled(&inv, &stacked_in);

        let per_sample =
            Tensor::concat_rows(&[&a.spmm_row_scaled(&inv_a, &fa), &b.spmm_row_scaled(&inv_b, &fb)]);
        assert_eq!(batched, per_sample, "block-diagonal SpMM must be bitwise exact");
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn block_diagonal_rejects_empty_input() {
        CsrMatrix::block_diagonal(&[]);
    }

    #[test]
    fn empty_graph_yields_identity_free_matrix() {
        let (csr, inv) = CsrMatrix::augmented_from_edges(0, []);
        assert_eq!(csr.rows(), 0);
        assert_eq!(csr.nnz(), 0);
        assert!(inv.is_empty());
    }
}
