//! Size-class buffer pool for steady-state allocation-free training.
//!
//! A [`Workspace`] is an arena of recycled `Vec<f32>` (and `Vec<usize>`)
//! buffers bucketed by power-of-two capacity class. The autograd tape owns
//! one workspace per instance: hot kernels (im2col column buffers, conv
//! outputs, gradient buffers, dropout masks, pooling index vectors) check
//! buffers out with [`Workspace::take`], and `Tape::reset` recycles every
//! per-sample buffer back in — so after a warm-up pass, steady-state
//! training serves those checkouts entirely from the pool.
//!
//! # Determinism
//!
//! Checked-out `f32` buffers are always zero-filled (and index buffers are
//! returned empty), so pooled reuse can never leak stale values into
//! numeric code: a pooled run is bitwise identical to an unpooled one.
//!
//! # Capacity classes
//!
//! `take(len)` draws from class `ceil(log2(len))`; every buffer stored in
//! class `c` has capacity ≥ `2^c ≥ len`, so a pooled buffer never
//! reallocates on `resize`. Pool misses allocate with capacity exactly
//! `2^c` so the buffer re-enters the same class on recycle (a capacity of
//! `len` would classify one class lower and keep missing forever).
//! Recycled buffers of foreign provenance (e.g. tensors built elsewhere
//! whose capacity is not a power of two) are filed by `floor(log2(cap))`,
//! which is conservative: anything served from a class has enough room.
//!
//! # Bounds
//!
//! Each class keeps at most a fixed number of buffers (more for small
//! classes, fewer for large ones); surplus recycles simply drop. This
//! caps retained memory at ~16 MiB for the small classes plus a handful
//! of workload-sized large buffers.
//!
//! # Accounting
//!
//! Per-instance [`WorkspaceStats`] counts hits and misses
//! unconditionally. It is the one pool counter: the trainer sums it over
//! its tape lanes into `train.pool_hits` / `train.pool_misses`, `magic
//! serve` into its `pool_*` totals, and tests assert zero-miss steady
//! state on it.

use crate::{Shape, Tensor};

/// Most buffers kept per size class for classes of ≤ 2^16 elements.
const SMALL_CLASS_CAP: usize = 32;
/// Most buffers kept per size class for larger classes.
const LARGE_CLASS_CAP: usize = 8;
/// Largest class index considered "small" for the retention cap.
const SMALL_CLASS_MAX: usize = 16;

fn class_cap(class: usize) -> usize {
    if class <= SMALL_CLASS_MAX {
        SMALL_CLASS_CAP
    } else {
        LARGE_CLASS_CAP
    }
}

/// Size class a request of `len` elements draws from: smallest `c` with
/// `2^c >= len`.
fn take_class(len: usize) -> usize {
    len.next_power_of_two().trailing_zeros() as usize
}

/// Size class a buffer of capacity `cap > 0` files under: largest `c`
/// with `2^c <= cap`.
fn file_class(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

/// Hit/miss counters for one [`Workspace`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceStats {
    /// Checkouts served from a recycled buffer.
    pub hits: u64,
    /// Checkouts that fell back to a fresh heap allocation.
    pub misses: u64,
}

/// A size-class free-list arena of reusable buffers. See the module docs.
#[derive(Debug, Default)]
pub struct Workspace {
    float_classes: Vec<Vec<Vec<f32>>>,
    index_classes: Vec<Vec<Vec<usize>>>,
    hits: u64,
    misses: u64,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats { hits: self.hits, misses: self.misses }
    }

    /// Checks out a zero-filled `f32` buffer of exactly `len` elements.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let class = take_class(len);
        match self.float_classes.get_mut(class).and_then(Vec::pop) {
            Some(mut buf) => {
                self.hits += 1;
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.misses += 1;
                let mut buf = Vec::with_capacity(1usize << class);
                buf.resize(len, 0.0);
                buf
            }
        }
    }

    /// Returns an `f32` buffer to the pool. Buffers over the class cap
    /// (or with zero capacity) are dropped.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let class = file_class(buf.capacity());
        if self.float_classes.len() <= class {
            self.float_classes.resize_with(class + 1, Vec::new);
        }
        let slot = &mut self.float_classes[class];
        if slot.len() < class_cap(class) {
            slot.push(buf);
        }
    }

    /// Checks out an *empty* `usize` buffer with capacity for at least
    /// `len` elements (callers push winners in order, so no zero-fill).
    pub fn take_indices(&mut self, len: usize) -> Vec<usize> {
        let class = take_class(len);
        match self.index_classes.get_mut(class).and_then(Vec::pop) {
            Some(mut buf) => {
                self.hits += 1;
                buf.clear();
                buf
            }
            None => {
                self.misses += 1;
                Vec::with_capacity(1usize << class)
            }
        }
    }

    /// Returns a `usize` buffer to the pool.
    pub fn recycle_indices(&mut self, buf: Vec<usize>) {
        if buf.capacity() == 0 {
            return;
        }
        let class = file_class(buf.capacity());
        if self.index_classes.len() <= class {
            self.index_classes.resize_with(class + 1, Vec::new);
        }
        let slot = &mut self.index_classes[class];
        if slot.len() < class_cap(class) {
            slot.push(buf);
        }
    }

    /// Checks out a zero tensor of `shape` backed by a pooled buffer.
    ///
    /// The tensor is constructed through the normal accounting choke
    /// point, so [`crate::mem`] sees it like any other tensor; the pool
    /// counters record whether its buffer was recycled or fresh.
    pub fn take_tensor(&mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        Tensor::from_vec(self.take(shape.len()), shape)
    }

    /// Recycles a tensor's backing buffer into the pool.
    pub fn recycle_tensor(&mut self, tensor: Tensor) {
        self.recycle(tensor.into_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_on_same_class() {
        let mut ws = Workspace::new();
        let a = ws.take(100);
        assert_eq!(a.len(), 100);
        assert_eq!(ws.stats(), WorkspaceStats { hits: 0, misses: 1 });
        ws.recycle(a);
        let b = ws.take(100);
        assert_eq!(b.len(), 100);
        assert_eq!(ws.stats(), WorkspaceStats { hits: 1, misses: 1 });
    }

    #[test]
    fn pooled_buffers_come_back_zeroed() {
        let mut ws = Workspace::new();
        let mut a = ws.take(8);
        a.iter_mut().for_each(|v| *v = 7.0);
        ws.recycle(a);
        let b = ws.take(8);
        assert!(b.iter().all(|&v| v == 0.0), "recycled buffer must be zeroed");
    }

    #[test]
    fn smaller_request_reuses_larger_class_rounding_up() {
        let mut ws = Workspace::new();
        // 100 and 65 both round up to class 7 (128).
        let a = ws.take(100);
        ws.recycle(a);
        let b = ws.take(65);
        assert_eq!(b.len(), 65);
        assert_eq!(ws.stats().hits, 1);
    }

    #[test]
    fn miss_allocates_full_class_capacity_so_recycle_round_trips() {
        let mut ws = Workspace::new();
        let a = ws.take(5); // class 3, capacity 8
        assert!(a.capacity() >= 8);
        ws.recycle(a);
        let b = ws.take(5);
        assert_eq!(ws.stats(), WorkspaceStats { hits: 1, misses: 1 });
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn class_retention_is_capped() {
        let mut ws = Workspace::new();
        let class = take_class(16);
        for _ in 0..class_cap(class) + 5 {
            ws.recycle(vec![0.0; 16]);
        }
        assert_eq!(ws.float_classes[class].len(), class_cap(class));
    }

    #[test]
    fn index_buffers_recycle_and_come_back_empty() {
        let mut ws = Workspace::new();
        let mut a = ws.take_indices(10);
        a.extend([1, 2, 3]);
        ws.recycle_indices(a);
        let b = ws.take_indices(10);
        assert!(b.is_empty());
        assert!(b.capacity() >= 10);
        assert_eq!(ws.stats(), WorkspaceStats { hits: 1, misses: 1 });
    }

    #[test]
    fn tensor_round_trip_reuses_the_buffer() {
        let mut ws = Workspace::new();
        let t = ws.take_tensor([4, 8]);
        assert_eq!(t.shape().dims(), &[4, 8]);
        ws.recycle_tensor(t);
        let u = ws.take_tensor([4, 8]);
        assert!(u.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(ws.stats(), WorkspaceStats { hits: 1, misses: 1 });
    }

    #[test]
    fn zero_len_take_works() {
        let mut ws = Workspace::new();
        let a = ws.take(0);
        assert!(a.is_empty());
        ws.recycle(a); // capacity may be 1 (class 0) — fine either way
    }
}
