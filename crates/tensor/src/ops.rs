//! Elementwise operations, broadcasting against scalars, and structural ops
//! (concatenation, row gathering, transposition).

use crate::tensor::Tensor;

/// Rectified linear unit of one value: `v` if it is greater than zero,
/// else `+0.0` (`−0.0` and NaN included). This is the select
/// [`crate::simd::ColumnMax`] folds into its pooling; unlike
/// `v.max(0.0)`, whose sign on `−0.0` Rust leaves unspecified, it gives
/// the same bits in debug and release builds.
#[inline]
pub fn relu(v: f32) -> f32 {
    if v > 0.0 {
        v
    } else {
        0.0
    }
}

impl Tensor {
    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(
            self.as_slice().iter().map(|&x| f(x)).collect(),
            self.shape().clone(),
        )
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        Tensor::from_vec(
            self.as_slice()
                .iter()
                .zip(other.as_slice())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            self.shape().clone(),
        )
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise quotient.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a / b)
    }

    /// Adds `value` to every element.
    pub fn add_scalar(&self, value: f32) -> Tensor {
        self.map(|x| x + value)
    }

    /// Multiplies every element by `value`.
    pub fn scale(&self, value: f32) -> Tensor {
        self.map(|x| x * value)
    }

    /// Elementwise rectified linear unit ([`relu`]) — the activation used
    /// throughout the paper's graph convolution layers (Fig. 3).
    pub fn relu(&self) -> Tensor {
        self.map(relu)
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// In-place elementwise add.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += *b;
        }
    }

    /// In-place scale.
    pub fn scale_assign(&mut self, value: f32) {
        for a in self.as_mut_slice() {
            *a *= value;
        }
    }

    /// Matrix transpose.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = Tensor::zeros([c, r]);
        for i in 0..r {
            for j in 0..c {
                out.set2(j, i, self.get2(i, j));
            }
        }
        out
    }

    /// Concatenates matrices horizontally (along columns).
    ///
    /// Used to form the DGCNN concatenation `Z^{1:h} = [Z_1, ..., Z_h]`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols requires at least one part");
        let rows = parts[0].rows();
        let total_cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut out = Tensor::zeros([rows, total_cols]);
        for i in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows(), rows, "row count mismatch in concat_cols");
                let c = p.cols();
                out.as_mut_slice()[i * total_cols + offset..i * total_cols + offset + c]
                    .copy_from_slice(p.row(i));
                offset += c;
            }
        }
        out
    }

    /// Concatenates matrices vertically (along rows).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts differ.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows requires at least one part");
        let cols = parts[0].cols();
        let total_rows: usize = parts.iter().map(|p| p.rows()).sum();
        let mut out = Tensor::zeros([total_rows, cols]);
        let mut r = 0;
        for p in parts {
            assert_eq!(p.cols(), cols, "column count mismatch in concat_rows");
            for i in 0..p.rows() {
                out.set_row(r, p.row(i));
                r += 1;
            }
        }
        out
    }

    /// Gathers matrix rows by index, in order. Rows may repeat; indices out
    /// of range panic. This is the primitive behind SortPooling.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let cols = self.cols();
        let mut out = Tensor::zeros([indices.len(), cols]);
        for (dst, &src) in indices.iter().enumerate() {
            out.set_row(dst, self.row(src));
        }
        out
    }

    /// Pads a matrix with zero rows at the bottom up to `rows` total rows,
    /// or truncates if it already has more. Used by SortPooling to unify
    /// graph sizes to `k`.
    pub fn pad_or_truncate_rows(&self, rows: usize) -> Tensor {
        let cols = self.cols();
        let mut out = Tensor::zeros([rows, cols]);
        for i in 0..rows.min(self.rows()) {
            out.set_row(i, self.row(i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_ops_work() {
        let a = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let b = Tensor::from_slice(&[2.0, 2.0, 2.0]);
        assert_eq!(a.add(&b).as_slice(), &[3.0, 0.0, 5.0]);
        assert_eq!(a.sub(&b).as_slice(), &[-1.0, -4.0, 1.0]);
        assert_eq!(a.mul(&b).as_slice(), &[2.0, -4.0, 6.0]);
        assert_eq!(a.div(&b).as_slice(), &[0.5, -1.0, 1.5]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_mismatched_shapes() {
        Tensor::zeros([2]).add(&Tensor::zeros([3]));
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        assert_eq!(a.relu().as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn transpose_swaps_dims() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.get2(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn concat_cols_joins_channels() {
        let a = Tensor::from_rows(&[&[1.0], &[2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape().dims(), &[2, 3]);
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_rows_stacks() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(c.shape().dims(), &[3, 2]);
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn gather_rows_selects_and_repeats() {
        let a = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[3.0, 1.0, 3.0]);
    }

    #[test]
    fn pad_or_truncate_rows_pads_with_zeros() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let p = a.pad_or_truncate_rows(3);
        assert_eq!(p.shape().dims(), &[3, 2]);
        assert_eq!(p.row(0), &[1.0, 2.0]);
        assert_eq!(p.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn pad_or_truncate_rows_truncates() {
        let a = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let p = a.pad_or_truncate_rows(2);
        assert_eq!(p.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        a.add_assign(&Tensor::from_slice(&[2.0, 3.0]));
        assert_eq!(a.as_slice(), &[3.0, 4.0]);
    }
}
