//! Worker lanes: MAGIC's one parallelism mechanism.
//!
//! The training loop, evaluation, ACFG extraction, the shard cache and
//! cross-validation folds all share the same shape — run one job per
//! item, collect results by item index. [`Lanes`] runs those jobs on the
//! calling thread (one lane) or on it and scoped worker threads, all
//! pulling indices from an atomic cursor, so the numeric code is written
//! once and the lane count is a runtime knob. Kernels themselves are
//! single-threaded.
//!
//! # Determinism contract
//!
//! [`Lanes::run`] runs every job for `0..n` exactly once, but makes
//! **no** promise about which lane runs which index or in what order.
//! Results come back in index order, so callers that need reproducible
//! floating-point results keep per-index state and combine it in index
//! order afterwards — see the gradient reduction in `trainer.rs`, which
//! is bitwise-identical for any lane count because float additions
//! happen in sample order regardless of scheduling.
//!
//! # Example
//!
//! ```
//! use magic::executor::Lanes;
//!
//! // `0` = auto-detect, `1` = inline on the caller, `n` = that many lanes.
//! let lanes = Lanes::new(2);
//! // Results come back in index order regardless of which lane ran
//! // which job, so reductions over them are deterministic.
//! let squares = lanes.run(5, |_lane, i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed number of worker lanes for running independent jobs.
///
/// The calling thread is lane 0; the other lanes are threads spawned per
/// [`run`](Self::run) call (`std::thread::scope`), which keeps the type
/// free of lifetime plumbing. A spawn costs tens of microseconds, well
/// under one sample's forward/backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes {
    workers: usize,
}

impl Lanes {
    /// Resolves a worker-count knob: `0` means "auto" (the machine's
    /// available parallelism), anything else is taken literally.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            workers
        };
        Lanes { workers }
    }

    /// Number of lanes (`>= 1`). Jobs receive a lane id below this
    /// bound, so callers can size per-lane scratch state.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(lane, index)` for every `index` in `0..n` and returns the
    /// results in index order.
    ///
    /// Runs inline on the calling thread, in index order, with one lane
    /// or at most one job. Otherwise each lane runs its jobs
    /// sequentially, so per-lane scratch (tapes, gradient buffers) needs
    /// no locking beyond lane ownership. Returns only after all jobs
    /// complete; a panicking job propagates.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        let threads = self.workers.min(n);
        if threads <= 1 {
            return (0..n).map(|i| f(0, i)).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let (f, slots_ref, next) = (&f, &slots, &next);
        let work = move |lane: usize| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let result = f(lane, i);
            *slots_ref[i].lock().expect("unpoisoned result slot") = Some(result);
        };
        // The calling thread is lane 0, so a run spawns one thread fewer
        // than it has lanes.
        std::thread::scope(|scope| {
            for lane in 1..threads {
                scope.spawn(move || work(lane));
            }
            work(0);
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("unpoisoned result slot")
                    .expect("a lane ran every index")
            })
            .collect()
    }
}

/// Resolves a worker-count knob for one of `concurrent` simultaneous
/// training runs (e.g. cross-validation folds): `0` ("auto") divides the
/// machine's parallelism across the runs so two layers of fan-out do not
/// oversubscribe the cores; an explicit count is honored verbatim per
/// run. Every call site that splits auto-parallelism must route through
/// this helper so the division rule stays consistent.
pub fn workers_per_concurrent_run(workers: usize, concurrent: usize) -> usize {
    if workers == 0 {
        (Lanes::new(0).workers() / concurrent.max(1)).max(1)
    } else {
        workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    fn serial_executor_runs_in_order() {
        let order = Mutex::new(Vec::new());
        Lanes::new(1).run(5, |lane, i| {
            assert_eq!(lane, 0);
            order.lock().unwrap().push(i);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn executors_cover_every_index_exactly_once() {
        let n = 97;
        for workers in [1, 2, 4, 16] {
            let seen = Lanes::new(workers).run(n, |_, i| i);
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn threaded_executor_reports_valid_worker_ids() {
        let ids = Lanes::new(3).run(50, |lane, _| lane);
        let distinct: HashSet<usize> = ids.iter().copied().collect();
        assert!(distinct.iter().all(|&w| w < 3));
        assert!(!distinct.is_empty());
    }

    #[test]
    fn two_lanes_run_two_jobs_at_once() {
        // Each job waits until both have started. Two lanes meet at once;
        // one lane would run the jobs in turn, so the first gives up at
        // the deadline and the test fails instead of hanging.
        let started = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(5);
        let met = Lanes::new(2).run(2, |_, _| {
            started.fetch_add(1, Ordering::SeqCst);
            while started.load(Ordering::SeqCst) < 2 {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        });
        assert_eq!(met, vec![true, true], "the two jobs never ran at the same time");
    }

    #[test]
    fn threaded_executor_handles_fewer_jobs_than_workers() {
        let lanes = Lanes::new(8);
        assert_eq!(lanes.run(2, |_, i| i * 10), vec![0, 10]);
        assert_eq!(lanes.run(0, |_, i| i), Vec::<usize>::new());
    }

    #[test]
    fn lanes_new_resolves_the_knob() {
        assert_eq!(Lanes::new(1).workers(), 1);
        assert_eq!(Lanes::new(4).workers(), 4);
    }

    #[test]
    fn zero_lanes_means_auto() {
        let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Lanes::new(0).workers(), auto);
        assert_eq!(Lanes::new(0).run(3, |_, i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn workers_per_concurrent_run_divides_only_auto() {
        // Explicit counts pass through untouched, per run.
        assert_eq!(workers_per_concurrent_run(3, 5), 3);
        assert_eq!(workers_per_concurrent_run(1, 8), 1);
        // Auto divides the detected parallelism but never hits zero.
        let auto = workers_per_concurrent_run(0, 4);
        assert_eq!(auto, (Lanes::new(0).workers() / 4).max(1));
        assert!(workers_per_concurrent_run(0, usize::MAX) >= 1);
        assert_eq!(workers_per_concurrent_run(0, 0), Lanes::new(0).workers());
    }

    #[test]
    fn run_indexed_sums_match_serial_regardless_of_scheduling() {
        let counter = AtomicU64::new(0);
        let values = Lanes::new(4).run(200, |_, i| {
            counter.fetch_add(1, Ordering::Relaxed);
            (i as u64) * 3 + 1
        });
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        let expected: Vec<u64> = (0..200u64).map(|i| i * 3 + 1).collect();
        assert_eq!(values, expected);
    }
}
