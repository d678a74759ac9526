//! Windowed time-series primitives for live telemetry: sliding-window
//! counters and log-linear latency histograms over a fixed-slot ring of
//! time windows.
//!
//! The cumulative-since-start `*_total` counters in `/metrics` answer
//! "how much, ever"; an operator watching a live server needs "how
//! much, *now*". These types carve time into `slots × slot_width_us`
//! windows (the serving default is 60 × 1 s) and keep one
//! atomically-updated cell per window, so readers can render current
//! rates (req/s over the last minute) and current tail latency
//! (windowed p50/p90/p99) without any locking on the record path.
//!
//! Two design points matter for testability and accuracy:
//!
//! * **Injectable time.** Nothing here calls the system clock. Every
//!   record/read takes an explicit `now_us`, and call sites obtain it
//!   from a [`Clock`] — [`MonotonicClock`] in production,
//!   [`ManualClock`] in tests — so windowed behavior (rotation, expiry,
//!   quantiles) is exactly reproducible.
//! * **Log-linear buckets with interpolation.** Latencies land in
//!   buckets whose width is 1/8 of their magnitude (each power-of-two
//!   octave is split into 8 linear sub-buckets), and quantiles linearly
//!   interpolate inside the winning bucket. Reported quantiles are
//!   therefore exact to within one bucket (≤ 12.5% relative error) —
//!   far tighter than a pure power-of-two histogram's upper bounds.
//!
//! Concurrency contract: records and reads are lock-free relaxed
//! atomics, apart from a slot's rollover. When the clock crosses a slot
//! boundary, exactly one writer claims the stale slot (a
//! `compare_exchange` of its epoch tag to a rolling sentinel), re-zeroes
//! it and then publishes the new tag; writers that meet the sentinel
//! wait for that tag, and readers skip the slot until it appears. So no
//! observation of the current window is ever erased, and totals
//! reconcile exactly whenever writers agree on the window. A writer
//! whose timestamp is a whole ring older than a slot's tag records
//! nothing: its window has already aged out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A source of monotonic microsecond timestamps.
///
/// Implementations must be cheap and thread-safe; the serving hot path
/// calls [`Clock::now_us`] several times per request.
pub trait Clock: Send + Sync {
    /// Microseconds elapsed since an arbitrary fixed origin (typically
    /// the clock's creation). Must never decrease.
    fn now_us(&self) -> u64;
}

/// The production clock: monotonic microseconds since construction.
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// Creates a clock whose origin is "now".
    pub fn new() -> Self {
        MonotonicClock { origin: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// A hand-cranked clock for deterministic tests: time only moves when
/// the test calls [`ManualClock::advance_us`] (or `set_us`).
///
/// # Examples
///
/// ```
/// use magic_obs::timeseries::{Clock, ManualClock};
///
/// let clock = ManualClock::new();
/// assert_eq!(clock.now_us(), 0);
/// clock.advance_us(1_500_000);
/// assert_eq!(clock.now_us(), 1_500_000);
/// ```
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// Creates a clock frozen at t = 0.
    pub fn new() -> Self {
        ManualClock { now: AtomicU64::new(0) }
    }

    /// Moves time forward by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.now.fetch_add(us, Ordering::SeqCst);
    }

    /// Jumps to an absolute timestamp (must not move backwards for the
    /// ring types to behave; they assume monotonic time).
    pub fn set_us(&self, us: u64) {
        self.now.store(us, Ordering::SeqCst);
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// Log-linear bucket layout (shared by WindowedHistogram and its tests).
// ---------------------------------------------------------------------

/// Sub-buckets per power-of-two octave (8 → ≤ 12.5% bucket width).
const SUB_BUCKETS: usize = 8;
const SUB_BITS: u32 = 3; // log2(SUB_BUCKETS)
/// Largest exponent covered exactly; values ≥ 2^(MAX_EXPONENT+1) clamp
/// into the last bucket. 2^32 µs ≈ 71.6 minutes — far beyond any
/// serving latency.
const MAX_EXPONENT: u32 = 31;

/// Total bucket count of the log-linear layout: the 8 exact buckets
/// for values `0..8`, then 8 sub-buckets for each octave
/// `[2^3, 2^4) .. [2^31, 2^32)`.
pub const NUM_BUCKETS: usize =
    (MAX_EXPONENT as usize - SUB_BITS as usize + 2) * SUB_BUCKETS;

/// Maps a value to its log-linear bucket index.
///
/// Values `0..8` get exact single-value buckets; beyond that each
/// power-of-two octave `[2^k, 2^(k+1))` is split into 8 equal linear
/// sub-buckets.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    if value >> (MAX_EXPONENT + 1) != 0 {
        return NUM_BUCKETS - 1; // beyond the covered range: clamp
    }
    let exp = 63 - value.leading_zeros();
    let sub = ((value >> (exp - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    // Octave `exp` starts at index 8·(exp − 2): the 8 exact buckets,
    // then 8 per octave from exp = 3 up.
    SUB_BUCKETS * (exp as usize - SUB_BITS as usize + 1) + sub
}

/// The `[lo, hi)` value range covered by bucket `index`.
///
/// Together with [`bucket_index`] this defines the "one histogram
/// bucket" accuracy contract: any interpolated quantile lies inside the
/// bounds of the bucket holding the true sample.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB_BUCKETS {
        return (index as u64, index as u64 + 1);
    }
    let exp = (index / SUB_BUCKETS) as u32 + SUB_BITS - 1;
    let sub = (index % SUB_BUCKETS) as u64;
    let step = 1u64 << (exp - SUB_BITS);
    let lo = (1u64 << exp) + sub * step;
    (lo, lo + step)
}

// ---------------------------------------------------------------------
// Slot ring plumbing.
// ---------------------------------------------------------------------

/// The epoch tag a slot carries while it holds data for absolute slot
/// index `slot_idx`; offset by one so 0 marks a never-used slot.
fn slot_tag(slot_idx: u64) -> u64 {
    slot_idx + 1
}

/// The epoch of a slot one writer is re-zeroing; no slot index maps to
/// it.
const ROLLING: u64 = u64::MAX;

/// Makes `epoch`'s slot hold window `tag`, re-zeroing it through `reset`
/// if it holds an older window: one writer claims the rollover, the
/// others wait for the new tag. Returns `false`, leaving the slot alone,
/// if it already holds a newer window.
///
/// The `Release` store of the new tag pairs with the `Acquire` loads of
/// writers and readers that see it, so they see the slot zeroed; the
/// claim's `Acquire` pairs with the previous tag's `Release`.
fn enter_window(epoch: &AtomicU64, tag: u64, reset: impl FnOnce()) -> bool {
    loop {
        match epoch.load(Ordering::Acquire) {
            e if e == tag => return true,
            ROLLING => std::thread::yield_now(),
            e if e > tag => return false,
            e => {
                if epoch.compare_exchange(e, ROLLING, Ordering::Acquire, Ordering::Relaxed).is_ok() {
                    reset();
                    epoch.store(tag, Ordering::Release);
                    return true;
                }
            }
        }
    }
}

/// A sliding-window event counter: `add` on the hot path, `sum`/`rate`
/// for rendering.
///
/// # Examples
///
/// ```
/// use magic_obs::timeseries::WindowedCounter;
///
/// let c = WindowedCounter::new(60, 1_000_000); // 60 × 1 s
/// c.add(0, 30);
/// c.add(2_500_000, 30); // 2.5 s later
/// assert_eq!(c.sum(2_500_000), 60);
/// assert!((c.rate_per_sec(2_500_000) - 1.0).abs() < 1e-9);
/// // 61 s later the first slot has aged out of the window.
/// assert_eq!(c.sum(61_000_000), 30);
/// ```
pub struct WindowedCounter {
    slot_width_us: u64,
    slots: Box<[CounterSlot]>,
}

struct CounterSlot {
    epoch: AtomicU64,
    value: AtomicU64,
}

impl WindowedCounter {
    /// Creates a ring of `slots` windows, each `slot_width_us` wide.
    /// Both are clamped to at least 1.
    pub fn new(slots: usize, slot_width_us: u64) -> Self {
        let slots = slots.max(1);
        WindowedCounter {
            slot_width_us: slot_width_us.max(1),
            slots: (0..slots)
                .map(|_| CounterSlot { epoch: AtomicU64::new(0), value: AtomicU64::new(0) })
                .collect(),
        }
    }

    /// The total time span the ring covers, in microseconds.
    pub fn window_us(&self) -> u64 {
        self.slot_width_us * self.slots.len() as u64
    }

    /// Records `delta` events at time `now_us`.
    pub fn add(&self, now_us: u64, delta: u64) {
        let slot_idx = now_us / self.slot_width_us;
        let pos = (slot_idx % self.slots.len() as u64) as usize;
        let slot = &self.slots[pos];
        if enter_window(&slot.epoch, slot_tag(slot_idx), || slot.value.store(0, Ordering::Relaxed)) {
            slot.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Sum of events recorded within the window ending at `now_us`.
    pub fn sum(&self, now_us: u64) -> u64 {
        let current = now_us / self.slot_width_us;
        let n = self.slots.len() as u64;
        let mut total = 0u64;
        for back in 0..n {
            let Some(slot_idx) = current.checked_sub(back) else { break };
            let pos = (slot_idx % n) as usize;
            let slot = &self.slots[pos];
            if slot.epoch.load(Ordering::Acquire) == slot_tag(slot_idx) {
                total += slot.value.load(Ordering::Relaxed);
            }
        }
        total
    }

    /// Average event rate per second over the full window. Early in a
    /// process's life (before one full window has elapsed) this
    /// understates the instantaneous rate, by design: it never spikes.
    pub fn rate_per_sec(&self, now_us: u64) -> f64 {
        self.sum(now_us) as f64 / (self.window_us() as f64 / 1e6)
    }
}

/// A sliding-window log-linear histogram with interpolated quantiles.
///
/// # Examples
///
/// ```
/// use magic_obs::timeseries::WindowedHistogram;
///
/// let h = WindowedHistogram::new(60, 1_000_000);
/// for v in 1..=100u64 {
///     h.record(0, v * 10); // 10, 20, ... 1000 µs
/// }
/// let snap = h.snapshot(0);
/// assert_eq!(snap.count(), 100);
/// // The true p50 is 500 µs; the interpolated estimate lands inside
/// // the bucket holding it ([480, 512) at this resolution).
/// let p50 = snap.quantile(0.50);
/// assert!(p50 >= 480.0 && p50 < 512.0, "p50 = {p50}");
/// ```
pub struct WindowedHistogram {
    slot_width_us: u64,
    slots: Box<[HistSlot]>,
}

struct HistSlot {
    epoch: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl WindowedHistogram {
    /// Creates a ring of `slots` windows, each `slot_width_us` wide.
    pub fn new(slots: usize, slot_width_us: u64) -> Self {
        let slots = slots.max(1);
        WindowedHistogram {
            slot_width_us: slot_width_us.max(1),
            slots: (0..slots)
                .map(|_| HistSlot {
                    epoch: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                    buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                })
                .collect(),
        }
    }

    /// The total time span the ring covers, in microseconds.
    pub fn window_us(&self) -> u64 {
        self.slot_width_us * self.slots.len() as u64
    }

    /// Records one observation at time `now_us`.
    pub fn record(&self, now_us: u64, value: u64) {
        let slot_idx = now_us / self.slot_width_us;
        let pos = (slot_idx % self.slots.len() as u64) as usize;
        let slot = &self.slots[pos];
        let reset = || {
            for b in slot.buckets.iter() {
                b.store(0, Ordering::Relaxed);
            }
            slot.count.store(0, Ordering::Relaxed);
            slot.sum.store(0, Ordering::Relaxed);
        };
        if enter_window(&slot.epoch, slot_tag(slot_idx), reset) {
            slot.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            slot.count.fetch_add(1, Ordering::Relaxed);
            slot.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Merges the live slots of the window ending at `now_us` into an
    /// immutable snapshot for quantile queries. One snapshot per render
    /// amortizes the merge across however many quantiles are read.
    pub fn snapshot(&self, now_us: u64) -> WindowSnapshot {
        let current = now_us / self.slot_width_us;
        let n = self.slots.len() as u64;
        let mut merged = vec![0u64; NUM_BUCKETS];
        let mut count = 0u64;
        let mut sum = 0u64;
        for back in 0..n {
            let Some(slot_idx) = current.checked_sub(back) else { break };
            let pos = (slot_idx % n) as usize;
            let slot = &self.slots[pos];
            if slot.epoch.load(Ordering::Acquire) != slot_tag(slot_idx) {
                continue;
            }
            for (m, b) in merged.iter_mut().zip(slot.buckets.iter()) {
                *m += b.load(Ordering::Relaxed);
            }
            count += slot.count.load(Ordering::Relaxed);
            sum += slot.sum.load(Ordering::Relaxed);
        }
        WindowSnapshot { buckets: merged, count, sum }
    }
}

/// A merged view of one histogram window, frozen at snapshot time.
pub struct WindowSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl WindowSnapshot {
    /// Observations in the window.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values in the window.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observed value (0 with no observations).
    pub fn mean(&self) -> f64 {
        if self.count == 0 { 0.0 } else { self.sum as f64 / self.count as f64 }
    }

    /// The interpolated `q`-quantile (`0 < q <= 1`). The estimate lies
    /// within the log-linear bucket holding the true rank-`⌈qN⌉`
    /// sample; with 8 sub-buckets per octave that bounds the relative
    /// error at 12.5%. Returns 0 with no observations.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bucket_bounds(idx);
                // Midpoint-of-rank interpolation: the j-th of c samples
                // in a bucket is placed at fraction (j - 0.5) / c of
                // the bucket span, keeping the estimate inside [lo, hi).
                let j = (rank - seen) as f64;
                let frac = (j - 0.5) / c as f64;
                return lo as f64 + (hi - lo) as f64 * frac;
            }
            seen += c;
        }
        // Unreachable while count equals the bucket total; return the
        // top of the range defensively.
        bucket_bounds(NUM_BUCKETS - 1).1 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        let mut expected_lo = 0u64;
        for idx in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expected_lo, "bucket {idx} lower bound");
            assert!(hi > lo, "bucket {idx} is non-empty");
            expected_lo = hi;
        }
        assert_eq!(expected_lo, 1u64 << (MAX_EXPONENT + 1));
    }

    #[test]
    fn every_value_lands_inside_its_bucket_bounds() {
        let probes = [0u64, 1, 7, 8, 9, 15, 16, 100, 1_000, 65_535, 1 << 20, (1 << 32) - 1];
        for &v in &probes {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v < hi, "value {v} not in bucket {idx} [{lo}, {hi})");
        }
        // Clamped values go to the last bucket.
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(1 << 32), NUM_BUCKETS - 1);
    }

    #[test]
    fn relative_bucket_width_is_at_most_one_eighth() {
        for idx in SUB_BUCKETS..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                (hi - lo) as f64 <= lo as f64 / 8.0 + 1e-9,
                "bucket {idx} [{lo}, {hi}) wider than lo/8"
            );
        }
    }

    #[test]
    fn manual_clock_is_deterministic() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_us(), 0);
        clock.advance_us(250);
        clock.advance_us(750);
        assert_eq!(clock.now_us(), 1_000);
        clock.set_us(5_000);
        assert_eq!(clock.now_us(), 5_000);
    }

    #[test]
    fn monotonic_clock_moves_forward() {
        let clock = MonotonicClock::new();
        let a = clock.now_us();
        let b = clock.now_us();
        assert!(b >= a);
    }

    #[test]
    fn counter_sums_within_the_window_and_expires_outside_it() {
        let c = WindowedCounter::new(3, 1_000_000); // 3 × 1 s
        c.add(0, 5);
        c.add(1_200_000, 7);
        c.add(2_900_000, 1);
        assert_eq!(c.sum(2_900_000), 13);
        // t = 3.5 s: the t=0 slot has rotated out.
        assert_eq!(c.sum(3_500_000), 8);
        // t = 10 s: everything expired.
        assert_eq!(c.sum(10_000_000), 0);
    }

    #[test]
    fn counter_slot_reuse_resets_stale_contents() {
        let c = WindowedCounter::new(2, 1_000_000);
        c.add(0, 100);
        // Slot 0 (ring position 0) is reused at t = 2 s; the old 100
        // must not leak into the new window.
        c.add(2_000_000, 1);
        assert_eq!(c.sum(2_000_000), 1);
    }

    #[test]
    fn rate_is_sum_over_window_span() {
        let c = WindowedCounter::new(10, 1_000_000); // 10 s window
        for s in 0..10u64 {
            c.add(s * 1_000_000, 20);
        }
        assert!((c.rate_per_sec(9_000_000) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_within_one_bucket_of_exact() {
        let h = WindowedHistogram::new(60, 1_000_000);
        let mut values: Vec<u64> = (1..=500u64).map(|i| i * 37 % 9_001 + 1).collect();
        for &v in &values {
            h.record(0, v);
        }
        values.sort_unstable();
        let snap = h.snapshot(0);
        assert_eq!(snap.count(), 500);
        for &q in &[0.50, 0.90, 0.99] {
            let exact = values[((q * 500.0_f64).ceil() as usize).clamp(1, 500) - 1];
            let est = snap.quantile(q);
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            assert!(
                est >= lo as f64 && est < hi as f64,
                "q={q}: estimate {est} outside bucket [{lo}, {hi}) of exact {exact}"
            );
        }
    }

    #[test]
    fn histogram_window_expiry_drops_old_observations() {
        let h = WindowedHistogram::new(2, 1_000_000);
        h.record(0, 100);
        h.record(1_500_000, 200);
        assert_eq!(h.snapshot(1_500_000).count(), 2);
        // t = 2.2 s: the t=0 slot rotated out; only the 200 survives.
        let snap = h.snapshot(2_200_000);
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.sum(), 200);
    }

    #[test]
    fn empty_window_renders_zeroes() {
        let h = WindowedHistogram::new(4, 1_000_000);
        let snap = h.snapshot(123_456_789);
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.quantile(0.99), 0.0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn concurrent_records_with_a_frozen_clock_reconcile_exactly() {
        let h = Arc::new(WindowedHistogram::new(60, 1_000_000));
        let c = Arc::new(WindowedCounter::new(60, 1_000_000));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        h.record(0, t * 1_000 + i);
                        c.add(0, 1);
                    }
                })
            })
            .collect();
        // Render concurrently with the writers; snapshots must never
        // overshoot the final totals and must reconcile at the end.
        for _ in 0..50 {
            let snap = h.snapshot(0);
            assert!(snap.count() <= 8_000);
            assert!(c.sum(0) <= 8_000);
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot(0).count(), 8_000);
        assert_eq!(c.sum(0), 8_000);
    }

    #[test]
    fn concurrent_writers_rolling_slots_over_lose_nothing() {
        // Four writers step through 48 windows of a 3-slot ring together,
        // so every step re-zeroes a slot that holds an older window while
        // all four race to record into it. After each step the ring must
        // hold exactly the observations of its last three windows.
        const SLOTS: u64 = 3;
        const WRITERS: u64 = 4;
        const PER_STEP: u64 = 200;
        let h = Arc::new(WindowedHistogram::new(SLOTS as usize, 1_000));
        let c = Arc::new(WindowedCounter::new(SLOTS as usize, 1_000));
        let step = Arc::new(std::sync::Barrier::new(WRITERS as usize + 1));
        let threads: Vec<_> = (0..WRITERS)
            .map(|t| {
                let (h, c, step) = (Arc::clone(&h), Arc::clone(&c), Arc::clone(&step));
                std::thread::spawn(move || {
                    for window in 0..48u64 {
                        step.wait();
                        for i in 0..PER_STEP {
                            h.record(window * 1_000 + i % 1_000, t + i);
                            c.add(window * 1_000 + i % 1_000, 1);
                        }
                        step.wait();
                    }
                })
            })
            .collect();
        for window in 0..48u64 {
            step.wait();
            step.wait();
            let now = window * 1_000 + 999;
            let want = (window + 1).min(SLOTS) * WRITERS * PER_STEP;
            assert_eq!(h.snapshot(now).count(), want, "histogram after window {window}");
            assert_eq!(c.sum(now), want, "counter after window {window}");
        }
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn a_writer_a_whole_ring_late_records_nothing() {
        let c = WindowedCounter::new(2, 1_000);
        let h = WindowedHistogram::new(2, 1_000);
        c.add(2_500, 5);
        h.record(2_500, 5);
        // Window 0 shares the slot of window 2, which is newer: the late
        // observation has aged out and must not reset window 2.
        c.add(500, 7);
        h.record(500, 7);
        assert_eq!(c.sum(2_500), 5);
        assert_eq!(h.snapshot(2_500).count(), 1);
        assert_eq!(h.snapshot(2_500).sum(), 5);
    }
}
