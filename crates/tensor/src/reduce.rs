//! Reductions, argmax/argsort and the softmax family.

use crate::tensor::Tensor;

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(!self.is_empty(), "max() of empty tensor");
        self.as_slice().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn min(&self) -> f32 {
        assert!(!self.is_empty(), "min() of empty tensor");
        self.as_slice().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first occurrence).
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax() of empty tensor");
        self.as_slice()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap()
    }

    /// Per-column sums of a matrix, returned as a length-`cols` vector.
    pub fn sum_rows(&self) -> Vec<f32> {
        let (r, c) = (self.rows(), self.cols());
        let mut out = vec![0.0; c];
        for i in 0..r {
            for (o, &x) in out.iter_mut().zip(self.row(i)) {
                *o += x;
            }
        }
        out
    }

    /// Per-row sums of a matrix, returned as a length-`rows` vector.
    pub fn sum_cols(&self) -> Vec<f32> {
        (0..self.rows()).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Numerically stable softmax over a 1-D tensor.
    pub fn softmax(&self) -> Tensor {
        let m = self.max();
        let exps: Vec<f32> = self.as_slice().iter().map(|&x| (x - m).exp()).collect();
        let total: f32 = exps.iter().sum();
        Tensor::from_vec(exps.iter().map(|e| e / total).collect(), self.shape().clone())
    }

    /// Numerically stable log-softmax over a 1-D tensor.
    pub fn log_softmax(&self) -> Tensor {
        let m = self.max();
        let log_sum: f32 = self
            .as_slice()
            .iter()
            .map(|&x| (x - m).exp())
            .sum::<f32>()
            .ln();
        self.map(|x| x - m - log_sum)
    }

    /// Indices that sort the rows of a matrix in *descending*
    /// lexicographic order reading channels from the **last column
    /// backwards** — the exact ordering of the DGCNN SortPooling layer:
    /// "vertices are first sorted by the last channel of the last layer in
    /// a decreasing order; ties are broken using earlier channels".
    pub fn argsort_rows_desc_lastcol(&self) -> Vec<usize> {
        self.argsort_rows_desc_lastcol_range(0, self.rows())
    }

    /// [`Tensor::argsort_rows_desc_lastcol`] restricted to the row range
    /// `start..end`, returning *global* row indices. A block-diagonal
    /// batch sorts each sample's row segment independently with this;
    /// because ties break on the row index and the range shift is
    /// order-preserving, the permutation within the segment is exactly
    /// the one the per-sample sort would produce.
    ///
    /// # Panics
    ///
    /// Panics if the range is inverted or exceeds the row count.
    pub fn argsort_rows_desc_lastcol_range(&self, start: usize, end: usize) -> Vec<usize> {
        assert!(start <= end && end <= self.rows(), "row range {start}..{end} out of bounds");
        let mut idx: Vec<usize> = (start..end).collect();
        idx.sort_by(|&a, &b| {
            let ra = self.row(a);
            let rb = self.row(b);
            for (x, y) in ra.iter().rev().zip(rb.iter().rev()) {
                match y.partial_cmp(x) {
                    Some(std::cmp::Ordering::Equal) | None => continue,
                    Some(ord) => return ord,
                }
            }
            a.cmp(&b)
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_mean() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
    }

    #[test]
    fn max_min_argmax() {
        let t = Tensor::from_slice(&[1.0, 5.0, -2.0]);
        assert_eq!(t.max(), 5.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn row_and_col_sums() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.sum_rows(), vec![4.0, 6.0]);
        assert_eq!(t.sum_cols(), vec![3.0, 7.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let s = t.softmax();
        assert!((s.sum() - 1.0).abs() < 1e-6);
        let shifted = Tensor::from_slice(&[101.0, 102.0, 103.0]).softmax();
        assert!(s.approx_eq(&shifted, 1e-5));
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let t = Tensor::from_slice(&[0.5, -1.0, 2.0]);
        let ls = t.log_softmax();
        let s_log = t.softmax().ln();
        assert!(ls.approx_eq(&s_log, 1e-5));
    }

    #[test]
    fn softmax_survives_large_inputs() {
        let t = Tensor::from_slice(&[1000.0, 1000.0]);
        let s = t.softmax();
        assert!(s.all_finite());
        assert!((s.as_slice()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn argsort_orders_by_last_column_descending() {
        // Rows with last-column values 3, 1, 2 -> order 0, 2, 1.
        let t = Tensor::from_rows(&[&[0.0, 3.0], &[9.0, 1.0], &[0.0, 2.0]]);
        assert_eq!(t.argsort_rows_desc_lastcol(), vec![0, 2, 1]);
    }

    #[test]
    fn argsort_breaks_ties_with_earlier_columns() {
        // Last column tied; the second-to-last column decides (descending).
        let t = Tensor::from_rows(&[&[1.0, 5.0], &[2.0, 5.0], &[0.0, 5.0]]);
        assert_eq!(t.argsort_rows_desc_lastcol(), vec![1, 0, 2]);
    }

    #[test]
    fn argsort_is_stable_for_fully_tied_rows() {
        let t = Tensor::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]);
        assert_eq!(t.argsort_rows_desc_lastcol(), vec![0, 1, 2]);
    }

    #[test]
    fn ranged_argsort_matches_offset_sort_of_the_slab() {
        // Two stacked "samples": rows 0..2 and rows 2..5. The ranged sort
        // of each segment must equal the standalone sort of that segment
        // shifted by the segment start.
        let t = Tensor::from_rows(&[
            &[0.0, 1.0],
            &[0.0, 4.0],
            &[1.0, 2.0],
            &[2.0, 2.0],
            &[0.0, 9.0],
        ]);
        let lower = Tensor::from_rows(&[&[0.0, 1.0], &[0.0, 4.0]]);
        let upper = Tensor::from_rows(&[&[1.0, 2.0], &[2.0, 2.0], &[0.0, 9.0]]);
        let shifted: Vec<usize> =
            upper.argsort_rows_desc_lastcol().into_iter().map(|i| i + 2).collect();
        assert_eq!(t.argsort_rows_desc_lastcol_range(0, 2), lower.argsort_rows_desc_lastcol());
        assert_eq!(t.argsort_rows_desc_lastcol_range(2, 5), shifted);
        assert_eq!(t.argsort_rows_desc_lastcol_range(0, 5), t.argsort_rows_desc_lastcol());
        assert!(t.argsort_rows_desc_lastcol_range(3, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn ranged_argsort_rejects_out_of_bounds_end() {
        Tensor::from_rows(&[&[1.0]]).argsort_rows_desc_lastcol_range(0, 2);
    }
}
