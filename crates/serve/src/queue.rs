//! The bounded micro-batching queue between IO threads and model
//! workers.
//!
//! IO threads [`BoundedQueue::try_push`] accepted requests; the push is
//! non-blocking so a full queue turns into an immediate HTTP 503
//! load-shed instead of unbounded buffering. Model workers call
//! [`BoundedQueue::pop_batch`], which blocks until at least one job is
//! available and then keeps accumulating until either `max_batch` jobs
//! are in hand or the batching window has elapsed since the first job
//! was taken — the adaptive part: under load, batches fill to the cap
//! instantly; when idle, a lone request only ever waits out the window.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Why a [`BoundedQueue::try_push`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; the caller should shed the request
    /// (HTTP 503 + `Retry-After`).
    Full,
    /// The queue has been [closed](BoundedQueue::close) for shutdown;
    /// no new work is accepted while in-flight jobs drain.
    Closed,
}

struct QueueState<T> {
    jobs: VecDeque<T>,
    closed: bool,
    high_water: usize,
}

/// A bounded multi-producer queue whose consumers pop *batches*.
///
/// All blocking lives on the consumer side; producers only ever take
/// the lock briefly. `T` is the job payload (the server uses one
/// pending request per entry).
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` jobs. A zero capacity
    /// is clamped to 1 (a queue that can never accept work would make
    /// every request shed).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false, high_water: 0 }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Attempts to enqueue a job without blocking. On success, returns
    /// the queue depth *including* the new job (the backlog it joined),
    /// for the `serve.queue_depth` histogram.
    pub fn try_push(&self, job: T) -> Result<usize, PushError> {
        let mut state = self.state();
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.jobs.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.jobs.push_back(job);
        let depth = state.jobs.len();
        state.high_water = state.high_water.max(depth);
        drop(state);
        self.available.notify_one();
        Ok(depth)
    }

    /// Blocks until work is available, then drains up to `max_batch`
    /// jobs, waiting at most `window` after the first job for more to
    /// arrive. Returns `None` only when the queue is closed *and*
    /// empty — the signal for a worker to exit after the drain.
    pub fn pop_batch(&self, max_batch: usize, window: Duration) -> Option<Vec<T>> {
        let max_batch = max_batch.max(1);
        let mut state = self.state();
        // Phase 1: wait (indefinitely) for the first job.
        loop {
            if !state.jobs.is_empty() {
                break;
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        let mut batch = Vec::with_capacity(max_batch.min(state.jobs.len()));
        while batch.len() < max_batch {
            if let Some(job) = state.jobs.pop_front() {
                batch.push(job);
            } else {
                break;
            }
        }
        // Phase 2: if the cap is not met, linger up to `window` for
        // stragglers so light concurrent load still fuses into one
        // forward pass.
        if batch.len() < max_batch && !window.is_zero() && !state.closed {
            let deadline = Instant::now() + window;
            loop {
                while batch.len() < max_batch {
                    if let Some(job) = state.jobs.pop_front() {
                        batch.push(job);
                    } else {
                        break;
                    }
                }
                if batch.len() >= max_batch || state.closed {
                    break;
                }
                let now = Instant::now();
                let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
                else {
                    break;
                };
                let (next, timeout) = self
                    .available
                    .wait_timeout(state, remaining)
                    .unwrap_or_else(PoisonError::into_inner);
                state = next;
                if timeout.timed_out() {
                    // One last sweep below, then give up on the window.
                    while batch.len() < max_batch {
                        if let Some(job) = state.jobs.pop_front() {
                            batch.push(job);
                        } else {
                            break;
                        }
                    }
                    break;
                }
            }
        }
        drop(state);
        // Jobs may remain (e.g. cap hit with a backlog); wake a sibling
        // worker rather than leaving them parked until the next push.
        self.available.notify_one();
        Some(batch)
    }

    /// Closes the queue: subsequent pushes fail with
    /// [`PushError::Closed`], and workers exit once the backlog is
    /// drained. Idempotent.
    pub fn close(&self) {
        let mut state = self.state();
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }

    /// The queue state, even when a thread panicked holding it: every
    /// critical section changes it by single whole steps (a push, a pop,
    /// a flag), so a poisoned lock still guards a consistent queue.
    fn state(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current number of queued jobs (diagnostic; racy by nature).
    pub fn depth(&self) -> usize {
        self.state().jobs.len()
    }

    /// Deepest the queue has ever been — how close the server came to
    /// shedding. Monotone; surfaced as `magic_serve_queue_high_water`
    /// in `/metrics`.
    pub fn high_water(&self) -> usize {
        self.state().high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_reports_depth_and_sheds_at_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn high_water_tracks_the_deepest_backlog_monotonically() {
        let q = BoundedQueue::new(8);
        assert_eq!(q.high_water(), 0);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.try_push(3).unwrap();
        assert_eq!(q.high_water(), 3);
        q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(q.depth(), 0);
        assert_eq!(q.high_water(), 3, "draining must not lower the mark");
        q.try_push(4).unwrap();
        assert_eq!(q.high_water(), 3, "a shallower backlog must not lower the mark");
    }

    #[test]
    fn pop_batch_respects_the_cap_and_leaves_the_rest() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let batch = q.pop_batch(3, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![0, 1, 2]);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop_batch(3, Duration::ZERO).unwrap(), vec![3, 4]);
    }

    #[test]
    fn window_accumulates_late_arrivals_into_one_batch() {
        let q = Arc::new(BoundedQueue::new(8));
        q.try_push(0).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                q.try_push(1).unwrap();
            })
        };
        let batch = q.pop_batch(2, Duration::from_millis(2_000)).unwrap();
        producer.join().unwrap();
        assert_eq!(batch, vec![0, 1]);
    }

    #[test]
    fn zero_window_takes_only_what_is_already_queued() {
        let q = BoundedQueue::new(8);
        q.try_push(7).unwrap();
        let start = Instant::now();
        let batch = q.pop_batch(4, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![7]);
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn close_rejects_pushes_drains_backlog_then_releases_workers() {
        let q = Arc::new(BoundedQueue::new(8));
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed));
        // The backlog is still handed out...
        assert_eq!(q.pop_batch(8, Duration::from_secs(5)).unwrap(), vec![1]);
        // ...and once empty, workers get the exit signal instead of
        // blocking forever.
        assert!(q.pop_batch(8, Duration::from_secs(5)).is_none());
    }

    #[test]
    fn close_wakes_a_parked_worker() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(8));
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(worker.join().unwrap().is_none());
    }
}
