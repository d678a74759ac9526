//! Process-wide tensor memory accounting.
//!
//! Every [`crate::Tensor`] construction and drop reports its element
//! buffer size here, giving the observability layer allocation totals and
//! a high-water mark ("peak bytes") without a custom global allocator.
//!
//! # Cost model
//!
//! Accounting is off by default. Disabled, each construction/drop site
//! costs one relaxed atomic load — the same zero-overhead invariant as
//! `magic-obs` instrumentation. Enabled, a site adds a handful of relaxed
//! atomic read-modify-writes; accounting never feeds back into numeric
//! code, so an accounted run is bitwise identical to an unaccounted one.
//!
//! # Accuracy
//!
//! Counters track *element bytes* (`len * 4`), not allocator capacity or
//! malloc overhead, and tensors allocated while accounting was disabled
//! are invisible to the live/current counter. Enable accounting before
//! the workload of interest (the CLI does this when a trace recorder is
//! installed) and treat `current_bytes`/`peak_bytes` as tight lower
//! bounds on real usage.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Live element bytes. Signed: frees of tensors allocated before
/// `enable()` can transiently drive it below zero; readers clamp at 0.
static CURRENT: AtomicI64 = AtomicI64::new(0);
/// High-water mark of `CURRENT` since the last [`reset_peak`].
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Cumulative allocation count since the last [`reset`].
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Cumulative allocated element bytes since the last [`reset`].
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the accounting counters, all in bytes of `f32` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Element bytes currently live (allocated minus freed, clamped ≥ 0).
    pub current_bytes: u64,
    /// High-water mark of `current_bytes` since the last peak reset.
    pub peak_bytes: u64,
    /// Tensor buffers allocated since accounting was reset.
    pub allocations: u64,
    /// Cumulative element bytes allocated since accounting was reset.
    pub allocated_bytes: u64,
}

/// Turns accounting on. Counters start from their current values; call
/// [`reset`] first for a clean slate.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns accounting off. Counters keep their values for inspection.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether accounting is currently on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Reads the counters.
pub fn stats() -> MemStats {
    MemStats {
        current_bytes: CURRENT.load(Ordering::Relaxed).max(0) as u64,
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
        allocations: ALLOCS.load(Ordering::Relaxed),
        allocated_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// Restarts the high-water mark from the current live total — call at an
/// epoch boundary to measure per-epoch peaks.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed).max(0), Ordering::Relaxed);
}

/// Zeroes every counter (live total included — only meaningful before
/// the tensors of interest are allocated).
pub fn reset() {
    CURRENT.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    ALLOC_BYTES.store(0, Ordering::Relaxed);
}

/// Reports a tensor buffer of `elems` elements coming alive.
#[inline]
pub(crate) fn on_alloc(elems: usize) {
    on_alloc_bytes(elems * std::mem::size_of::<f32>());
}

/// Reports a tensor buffer of `elems` elements going away.
#[inline]
pub(crate) fn on_free(elems: usize) {
    on_free_bytes(elems * std::mem::size_of::<f32>());
}

/// Reports a raw buffer of `bytes` bytes coming alive. Sparse matrices
/// ([`crate::CsrMatrix`]) use this directly: their index arrays are not
/// 4-byte elements.
#[inline]
pub(crate) fn on_alloc_bytes(bytes: usize) {
    if !is_enabled() {
        return;
    }
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let now = CURRENT.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// Reports a raw buffer of `bytes` bytes going away.
#[inline]
pub(crate) fn on_free_bytes(bytes: usize) {
    if !is_enabled() {
        return;
    }
    CURRENT.fetch_sub(bytes as i64, Ordering::Relaxed);
}

/// Serializes tests (across this crate) that toggle the process-global
/// accounting state.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    /// Accounting state is process-global; tests must not interleave.
    use super::TEST_LOCK as GLOBAL;

    #[test]
    fn disabled_accounting_stays_at_zero() {
        let _guard = GLOBAL.lock().unwrap();
        disable();
        reset();
        let t = Tensor::zeros([16, 16]);
        drop(t);
        assert_eq!(stats(), MemStats::default());
    }

    #[test]
    fn alloc_and_drop_balance_and_peak_sticks() {
        let _guard = GLOBAL.lock().unwrap();
        reset();
        enable();
        {
            let a = Tensor::zeros([10, 10]); // 400 bytes
            let b = a.clone(); // +400
            assert_eq!(stats().current_bytes, 800);
            drop(b);
        }
        let s = stats();
        assert_eq!(s.current_bytes, 0, "all buffers freed");
        assert_eq!(s.peak_bytes, 800, "peak captured the clone");
        assert_eq!(s.allocations, 2);
        assert_eq!(s.allocated_bytes, 800);
        disable();
        reset();
    }

    #[test]
    fn into_vec_counts_as_a_free() {
        let _guard = GLOBAL.lock().unwrap();
        reset();
        enable();
        let t = Tensor::ones([8]);
        let v = t.into_vec();
        assert_eq!(stats().current_bytes, 0, "buffer handed off, no longer tracked");
        assert_eq!(v.len(), 8);
        disable();
        reset();
    }

    #[test]
    fn reset_peak_rebases_on_live_bytes() {
        let _guard = GLOBAL.lock().unwrap();
        reset();
        enable();
        let keep = Tensor::zeros([100]); // 400 live
        {
            let _spike = Tensor::zeros([1000]); // peak 4400
        }
        assert_eq!(stats().peak_bytes, 4400);
        reset_peak();
        assert_eq!(stats().peak_bytes, 400, "peak restarts from live bytes");
        drop(keep);
        disable();
        reset();
    }
}
