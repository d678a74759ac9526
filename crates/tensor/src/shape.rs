//! Tensor shapes: dimension lists with row-major stride computation.

use std::fmt;

/// The shape of a [`crate::Tensor`]: an ordered list of dimension sizes.
///
/// Shapes are stored row-major: the last dimension varies fastest in the
/// backing buffer. A zero-dimensional shape denotes a scalar with one
/// element.
///
/// # Example
///
/// ```
/// use magic_tensor::Shape;
///
/// let s = Shape::new(vec![3, 4]);
/// assert_eq!(s.len(), 12);
/// assert_eq!(s.strides(), vec![4, 1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension sizes.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// The scalar shape (zero dimensions, one element).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dimensions; 1 for a scalar).
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Row-major strides: element distance between successive indices of
    /// each axis.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flattens a multi-index into a linear offset.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.0.len(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.0.len()
        );
        // Horner's rule over the row-major dims: the same offset as
        // `Σ index·stride`, with no strides vector to allocate.
        let mut off = 0;
        for (&i, &d) in index.iter().zip(&self.0) {
            assert!(i < d, "index {i} out of bounds for dimension of size {d}");
            off = off * d + i;
        }
        off
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.len(), 24);
    }

    #[test]
    fn offset_flattens_row_major() {
        let s = Shape::new(vec![2, 3]);
        assert_eq!(s.offset(&[0, 0]), 0);
        assert_eq!(s.offset(&[0, 2]), 2);
        assert_eq!(s.offset(&[1, 0]), 3);
        assert_eq!(s.offset(&[1, 2]), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_checks_bounds() {
        Shape::new(vec![2, 3]).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape rank")]
    fn offset_checks_rank() {
        Shape::new(vec![2, 3]).offset(&[1]);
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(vec![5, 7]).to_string(), "[5x7]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn zero_sized_dimension_is_empty() {
        let s = Shape::new(vec![3, 0]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
