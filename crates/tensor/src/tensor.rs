//! The dense tensor type: construction, element access, reshaping.

use crate::mem;
use crate::rng::Rng64;
use crate::shape::Shape;
use std::fmt;

/// A dense, row-major, contiguous n-dimensional array of `f32`.
///
/// `Tensor` is the workhorse value type of the reproduction: adjacency
/// matrices, vertex attribute matrices, layer weights and activations are
/// all tensors. It is deliberately simple — owned `Vec<f32>` storage, no
/// views — because the DGCNN workload is dominated by small per-graph
/// matrices where copying is cheap and clarity wins.
///
/// # Example
///
/// ```
/// use magic_tensor::Tensor;
///
/// let t = Tensor::zeros([2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// The one construction choke point: every tensor buffer coming
    /// alive passes through here so [`crate::mem`] accounting sees it.
    #[inline]
    fn tracked(data: Vec<f32>, shape: Shape) -> Self {
        mem::on_alloc(data.len());
        Tensor { data, shape }
    }

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the number of elements implied
    /// by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer of {} elements cannot have shape {shape}",
            data.len()
        );
        Tensor::tracked(data, shape)
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::tracked(vec![value], Shape::scalar())
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let data = vec![value; shape.len()];
        Tensor::tracked(data, shape)
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a 2-D tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Tensor::from_vec(data, [rows.len(), cols])
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(values: &[f32]) -> Self {
        Tensor::from_vec(values.to_vec(), [values.len()])
    }

    /// Samples a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut Rng64) -> Self {
        let shape = shape.into();
        let data = (0..shape.len())
            .map(|_| lo + (hi - lo) * rng.next_f32())
            .collect();
        Tensor::tracked(data, shape)
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows; valid for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.rank(), 2, "rows() requires a matrix");
        self.shape.dim(0)
    }

    /// Number of columns; valid for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.rank(), 2, "cols() requires a matrix");
        self.shape.dim(1)
    }

    /// The backing buffer in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the backing buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        // The buffer leaves accounting's sight here; `Drop` then runs on
        // an empty vector and reports a zero-byte free.
        mem::on_free(self.data.len());
        std::mem::take(&mut self.data)
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or coordinates are invalid.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or coordinates are invalid.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Matrix element `(i, j)`; shorthand for rank-2 access.
    ///
    /// # Panics
    ///
    /// Panics on non-matrices or out-of-bounds indices.
    pub fn get2(&self, i: usize, j: usize) -> f32 {
        self.at(&[i, j])
    }

    /// Sets matrix element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics on non-matrices or out-of-bounds indices.
    pub fn set2(&mut self, i: usize, j: usize, value: f32) {
        self.set(&[i, j], value);
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() requires exactly one element");
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            self.len(),
            shape.len(),
            "cannot reshape {} elements into {shape}",
            self.len()
        );
        Tensor::tracked(self.data.clone(), shape)
    }

    /// Borrows row `i` of a matrix as a slice.
    ///
    /// # Panics
    ///
    /// Panics on non-matrices or if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        let cols = self.cols();
        assert!(i < self.rows(), "row {i} out of bounds");
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Copies `values` into row `i` of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn set_row(&mut self, i: usize, values: &[f32]) {
        let cols = self.cols();
        assert_eq!(values.len(), cols, "row length mismatch");
        assert!(i < self.rows(), "row {i} out of bounds");
        self.data[i * cols..(i + 1) * cols].copy_from_slice(values);
    }

    /// Whether all elements are finite (no NaN or infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Elementwise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.shape.rank() == 2 {
            writeln!(f, "[")?;
            for i in 0..self.rows() {
                writeln!(f, "  {:?},", self.row(i))?;
            }
            write!(f, "]")
        } else {
            write!(f, "{:?}", self.data)
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor::tracked(self.data.clone(), self.shape.clone())
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        mem::on_free(self.data.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.get2(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "cannot have shape")]
    fn from_vec_rejects_wrong_length() {
        Tensor::from_vec(vec![1.0], [2, 2]);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.get2(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_builds_matrix() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn from_rows_rejects_ragged() {
        Tensor::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut t = Tensor::zeros([2, 3]);
        t.set2(1, 2, 7.5);
        assert_eq!(t.get2(1, 2), 7.5);
        assert_eq!(t.at(&[1, 2]), 7.5);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let m = t.reshape([2, 3]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn rand_uniform_respects_range() {
        let mut rng = Rng64::new(42);
        let t = Tensor::rand_uniform([100], -0.5, 0.5, &mut rng);
        assert!(t.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn item_returns_scalar_value() {
        assert_eq!(Tensor::scalar(3.0).item(), 3.0);
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[1.0001, 1.9999]);
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-6));
    }

    #[test]
    fn set_row_overwrites() {
        let mut t = Tensor::zeros([2, 2]);
        t.set_row(0, &[9.0, 8.0]);
        assert_eq!(t.row(0), &[9.0, 8.0]);
        assert_eq!(t.row(1), &[0.0, 0.0]);
    }
}
