//! Serving counters and windowed telemetry behind `GET /metrics` and
//! `GET /debug/slow`.
//!
//! Two kinds of state live here, both updated lock-free on the hot
//! path:
//!
//! * **Cumulative-since-start counters** (requests, predictions, shed,
//!   …): relaxed atomics, read as a racy-but-consistent-enough
//!   snapshot at scrape time. These answer "how much, ever".
//! * **Windowed series** ([`magic_obs::timeseries`]): sliding-window
//!   rates (req/s, shed/s, batches/s) and log-linear latency histograms
//!   per lifecycle stage, answering "how much, *now*". Quantiles are
//!   interpolated inside the winning bucket — exact to within one
//!   bucket (≤ 12.5% relative error).
//!
//! Every serve event is recorded once, through one `record_*` method:
//! it updates the state here and emits the matching `serve.*` trace
//! counter or histogram ([`magic_obs::stage`]), so the live `/metrics`
//! view and a `--trace` file can never disagree about what was counted.
//!
//! Time comes from an injectable [`Clock`] so windowed behavior is
//! deterministic under test; production uses a [`MonotonicClock`]
//! anchored at server start.
//!
//! The slowest requests are retained as exemplars in a bounded top-K
//! ring ([`SlowExemplar`]) and served at `GET /debug/slow`, so "what
//! was slow in the last minute" has concrete request ids and stage
//! breakdowns attached, not just a percentile.

use magic_json::{json, Value};
use magic_obs::stage;
use magic_obs::timeseries::{
    Clock, MonotonicClock, WindowSnapshot, WindowedCounter, WindowedHistogram,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Slots retained in the slow-request exemplar ring.
const SLOW_CAPACITY: usize = 16;

/// The five traced lifecycle stages of one predict request, in
/// pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleStage {
    /// Reading + decoding the HTTP request and body.
    Parse,
    /// ACFG extraction (listing parse → CFG → attributes).
    Extract,
    /// Waiting in the batching queue for a model worker.
    QueueWait,
    /// Inside the fused batched forward pass.
    Execute,
    /// Writing the response bytes.
    Write,
}

impl LifecycleStage {
    /// All stages in pipeline order.
    pub const ALL: [LifecycleStage; 5] = [
        LifecycleStage::Parse,
        LifecycleStage::Extract,
        LifecycleStage::QueueWait,
        LifecycleStage::Execute,
        LifecycleStage::Write,
    ];

    /// Stable short name used in `/metrics` labels, `/debug/slow`, and
    /// the access-log schema docs.
    pub fn name(self) -> &'static str {
        self.names().0
    }

    /// Trace histogram this stage's durations are emitted under
    /// (`serve.*_us`, see [`magic_obs::stage`]).
    pub fn trace_name(self) -> &'static str {
        self.names().1
    }

    fn names(self) -> (&'static str, &'static str) {
        match self {
            LifecycleStage::Parse => ("parse", stage::H_SERVE_PARSE_US),
            LifecycleStage::Extract => ("extract", stage::H_SERVE_EXTRACT_US),
            LifecycleStage::QueueWait => ("queue", stage::H_SERVE_QUEUE_WAIT_US),
            LifecycleStage::Execute => ("execute", stage::H_SERVE_EXECUTE_US),
            LifecycleStage::Write => ("write", stage::H_SERVE_WRITE_US),
        }
    }
}

/// One retained slow-request exemplar: the stage breakdown of a
/// high-latency request, kept so tail percentiles have an explainable
/// witness.
#[derive(Debug, Clone)]
pub struct SlowExemplar {
    /// Request id (correlates with the access log and the predict
    /// response body).
    pub id: u64,
    /// Clock timestamp when the response write completed, µs.
    pub ts_us: u64,
    /// HTTP status answered.
    pub status: u16,
    /// Batch size that carried the forward pass.
    pub batch: u64,
    /// Stage durations, µs, in [`LifecycleStage::ALL`] order.
    pub stages_us: [u64; 5],
    /// End-to-end accept → response-written duration, µs.
    pub total_us: u64,
    /// Predicted family for 200 responses.
    pub family: Option<String>,
}

/// Shared serving counters + windowed telemetry; one instance per
/// server, `Arc`-shared across IO threads, model workers, and the
/// telemetry endpoints.
///
/// The fields are crate-private: they are written only by the
/// `record_*` methods below and read only by the `/metrics` registry
/// in [`crate::metrics`].
pub struct ServeStats {
    /// Predict requests accepted into the queue.
    pub(crate) requests: AtomicU64,
    /// Predict responses answered 200.
    pub(crate) predictions: AtomicU64,
    /// Requests shed with 503 (queue full or draining).
    pub(crate) shed: AtomicU64,
    /// Requests expired with 504 (deadline passed before execution).
    pub(crate) timeouts: AtomicU64,
    /// Requests refused with a 4xx (bad body, bad route, oversized).
    pub(crate) client_errors: AtomicU64,
    /// Requests failed with 500 (e.g. worker reply channel lost).
    pub(crate) internal_errors: AtomicU64,
    /// Micro-batches executed.
    pub(crate) batches: AtomicU64,
    /// Requests summed over executed batches (`batched_requests /
    /// batches` is the effective batching factor).
    pub(crate) batched_requests: AtomicU64,
    /// Largest batch executed so far.
    pub(crate) max_batch: AtomicU64,
    /// Workspace-pool hits accumulated from worker tapes (per-batch
    /// deltas of `Tape::workspace_stats`).
    pub(crate) pool_hits: AtomicU64,
    /// Workspace-pool misses accumulated from worker tapes. Flat after
    /// warm-up for a steady workload — the zero-steady-state-alloc
    /// contract, asserted by the serve integration tests.
    pub(crate) pool_misses: AtomicU64,
    /// Cumulative count of 200-predict latencies.
    pub(crate) latency_count: AtomicU64,
    /// Cumulative sum of 200-predict latencies, µs.
    pub(crate) latency_sum_us: AtomicU64,
    /// Windowed event counts behind the `*_rate_per_s` gauges.
    pub(crate) requests_window: WindowedCounter,
    pub(crate) shed_window: WindowedCounter,
    pub(crate) batches_window: WindowedCounter,
    next_request_id: AtomicU64,
    clock: Arc<dyn Clock>,
    started_us: u64,
    latency_window: WindowedHistogram,
    stage_windows: [WindowedHistogram; 5],
    /// Slow-request exemplars. Every update is one push or one slot
    /// write, so a lock poisoned by a panicking holder is recovered.
    slow: Mutex<Vec<SlowExemplar>>,
}

impl Default for ServeStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeStats {
    /// Creates a zeroed stats block with the default 60 s window and a
    /// monotonic clock anchored "now".
    pub fn new() -> Self {
        Self::with_window(60, Arc::new(MonotonicClock::new()))
    }

    /// Creates a stats block whose sliding windows span `window_s`
    /// seconds (1 s slots, clamped to at least 1) reading time from
    /// `clock` — inject a
    /// [`ManualClock`](magic_obs::timeseries::ManualClock) for
    /// deterministic tests.
    pub fn with_window(window_s: u64, clock: Arc<dyn Clock>) -> Self {
        let slots = window_s.max(1) as usize;
        const SLOT_US: u64 = 1_000_000;
        let started_us = clock.now_us();
        ServeStats {
            requests: AtomicU64::new(0),
            predictions: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            internal_errors: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            pool_hits: AtomicU64::new(0),
            pool_misses: AtomicU64::new(0),
            latency_count: AtomicU64::new(0),
            latency_sum_us: AtomicU64::new(0),
            requests_window: WindowedCounter::new(slots, SLOT_US),
            shed_window: WindowedCounter::new(slots, SLOT_US),
            batches_window: WindowedCounter::new(slots, SLOT_US),
            next_request_id: AtomicU64::new(1),
            started_us,
            latency_window: WindowedHistogram::new(slots, SLOT_US),
            stage_windows: std::array::from_fn(|_| WindowedHistogram::new(slots, SLOT_US)),
            slow: Mutex::new(Vec::with_capacity(SLOW_CAPACITY)),
            clock,
        }
    }

    /// Current clock reading, µs since the clock origin. Also the
    /// timestamp written into access-log events.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Seconds this stats block (≈ the server) has been alive.
    pub fn uptime_s(&self) -> u64 {
        (self.now_us().saturating_sub(self.started_us)) / 1_000_000
    }

    /// Allocates the next process-unique request id.
    pub fn next_request_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one predict request accepted into the queue, which is
    /// `queue_depth` deep right after the enqueue. Emits the
    /// `serve.requests` counter and the `serve.queue_depth` histogram.
    pub fn record_request(&self, queue_depth: usize) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.requests_window.add(self.now_us(), 1);
        magic_obs::counter(stage::C_SERVE_REQUESTS, 1.0);
        magic_obs::histogram(stage::H_SERVE_QUEUE_DEPTH, queue_depth as f64);
    }

    /// Records one shed request. Emits the `serve.shed` counter.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.shed_window.add(self.now_us(), 1);
        magic_obs::counter(stage::C_SERVE_SHED, 1.0);
    }

    /// Counts one response by its HTTP status, before it is written:
    /// a 200 to a predict request is a prediction, any 4xx a client
    /// error, 500 an internal error, 504 a timeout. Sheds (503) are
    /// counted where they happen, by [`ServeStats::record_shed`].
    pub fn record_response(&self, status: u16, predict: bool) {
        let counter = match status {
            200 if predict => &self.predictions,
            400..=499 => &self.client_errors,
            500 => &self.internal_errors,
            504 => &self.timeouts,
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one end-to-end request latency (accept → response
    /// written) for a 200 predict response: cumulative count/sum plus
    /// the windowed histogram backing the interpolated quantiles. Emits
    /// the `serve.latency_us` histogram.
    pub fn record_latency_us(&self, us: u64) {
        self.latency_count.fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_window.record(self.now_us(), us);
        magic_obs::histogram(stage::H_SERVE_LATENCY_US, us as f64);
    }

    /// Records one lifecycle-stage duration into its windowed series.
    /// Emits the stage's [`LifecycleStage::trace_name`] histogram.
    pub fn record_stage_us(&self, stage: LifecycleStage, us: u64) {
        self.stage_windows[stage as usize].record(self.now_us(), us);
        magic_obs::histogram(stage.trace_name(), us as f64);
    }

    /// Records an executed batch of `size` requests whose forward pass
    /// made `pool_hits` and `pool_misses` workspace-pool checkouts.
    /// Emits the `serve.batch_size` histogram.
    pub fn record_batch(&self, size: usize, pool_hits: u64, pool_misses: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests.fetch_add(size as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
        self.pool_hits.fetch_add(pool_hits, Ordering::Relaxed);
        self.pool_misses.fetch_add(pool_misses, Ordering::Relaxed);
        self.batches_window.add(self.now_us(), 1);
        magic_obs::histogram(stage::H_SERVE_BATCH_SIZE, size as f64);
    }

    /// Offers a finished request to the slow-exemplar ring: kept if the
    /// ring has room or the request is slower than the current fastest
    /// retained exemplar (top-K by `total_us`, K = 16).
    pub fn offer_slow(&self, exemplar: SlowExemplar) {
        let mut slow = self.slow.lock().unwrap_or_else(PoisonError::into_inner);
        if slow.len() < SLOW_CAPACITY {
            slow.push(exemplar);
            return;
        }
        let (min_idx, min) = match slow
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.total_us)
        {
            Some((i, e)) => (i, e.total_us),
            None => return,
        };
        if exemplar.total_us > min {
            slow[min_idx] = exemplar;
        }
    }

    /// Windowed snapshot of one stage's latency histogram.
    pub fn stage_snapshot(&self, stage: LifecycleStage) -> WindowSnapshot {
        self.stage_windows[stage as usize].snapshot(self.now_us())
    }

    /// Windowed snapshot of the end-to-end latency histogram.
    pub fn latency_snapshot(&self) -> WindowSnapshot {
        self.latency_window.snapshot(self.now_us())
    }

    /// Renders the `GET /debug/slow` JSON document: retained slow
    /// exemplars, slowest first.
    pub fn render_slow(&self) -> String {
        let mut slow = self.slow.lock().unwrap_or_else(PoisonError::into_inner).clone();
        slow.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.id.cmp(&b.id)));
        let rows: Vec<Value> = slow
            .iter()
            .map(|e| {
                let mut stages = magic_json::Map::new();
                for (stage, &us) in LifecycleStage::ALL.iter().zip(e.stages_us.iter()) {
                    stages.insert(stage.name(), Value::Number(us as f64));
                }
                json!({
                    "id": e.id,
                    "ts_us": e.ts_us,
                    "status": e.status as u64,
                    "batch": e.batch,
                    "total_us": e.total_us,
                    "stages_us": Value::Object(stages),
                    "family": match &e.family {
                        Some(f) => Value::String(f.clone()),
                        None => Value::Null,
                    },
                })
            })
            .collect();
        magic_json::to_string(&json!({ "slow": Value::Array(rows) }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{render_metrics, scrape_labeled, scrape_value};
    use magic_obs::timeseries::{bucket_bounds, bucket_index, ManualClock};

    fn manual_stats() -> (ServeStats, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        (ServeStats::with_window(60, Arc::clone(&clock) as Arc<dyn Clock>), clock)
    }

    fn stage_count(body: &str, stage: &str) -> Option<f64> {
        scrape_labeled(body, "magic_serve_stage_us_count", &format!("stage=\"{stage}\""))
    }

    #[test]
    fn windowed_quantiles_interpolate_within_one_bucket() {
        let (stats, _clock) = manual_stats();
        for i in 1..=99u64 {
            stats.record_latency_us(i * 100); // 100 .. 9_900 µs
        }
        stats.record_latency_us(50_000);
        // Exact p50 = 5_000, p99 = 9_900; estimates must land in the
        // log-linear bucket holding the exact value.
        for (q, exact) in [(0.50, 5_000u64), (0.99, 9_900u64)] {
            let est = stats.latency_snapshot().quantile(q);
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            assert!(
                est >= lo as f64 && est < hi as f64,
                "q={q}: {est} outside [{lo}, {hi}) around {exact}"
            );
        }
    }

    #[test]
    fn quantiles_are_windowed_but_count_is_cumulative() {
        let (stats, clock) = manual_stats();
        stats.record_latency_us(8_000);
        clock.advance_us(120_000_000); // 2 minutes: outside the window
        stats.record_latency_us(100);
        let body = render_metrics(&stats, 0, 0, false);
        assert_eq!(scrape_value(&body, "magic_serve_latency_us_count"), Some(2.0), "cumulative");
        // The 8 ms observation has aged out; windowed p99 tracks only
        // the recent 100 µs one.
        let p99 = scrape_labeled(&body, "magic_serve_latency_us", "quantile=\"0.99\"").unwrap();
        assert!(p99 < 150.0, "p99 {p99} should reflect only the in-window sample");
        assert_eq!(scrape_value(&body, "magic_serve_uptime_seconds"), Some(120.0));
    }

    #[test]
    fn metrics_document_carries_uptime_and_rates() {
        let (stats, clock) = manual_stats();
        for _ in 0..120 {
            stats.record_request(1);
        }
        clock.advance_us(30_000_000);
        let body = render_metrics(&stats, 3, 7, false);
        assert_eq!(scrape_value(&body, "magic_serve_uptime_seconds"), Some(30.0));
        assert_eq!(scrape_value(&body, "magic_serve_queue_depth"), Some(3.0));
        assert_eq!(scrape_value(&body, "magic_serve_queue_high_water"), Some(7.0));
        // 120 requests over the 60 s window = 2/s.
        assert_eq!(scrape_value(&body, "magic_serve_request_rate_per_s"), Some(2.0));
    }

    #[test]
    fn empty_stats_render_zeroes() {
        let stats = ServeStats::new();
        let body = render_metrics(&stats, 0, 0, false);
        assert_eq!(scrape_value(&body, "magic_serve_requests_total"), Some(0.0));
        let p99 = scrape_labeled(&body, "magic_serve_latency_us", "quantile=\"0.99\"");
        assert_eq!(p99, Some(0.0));
        assert_eq!(scrape_value(&body, "magic_serve_draining"), Some(0.0));
        assert_eq!(stage_count(&body, "queue"), Some(0.0));
    }

    #[test]
    fn batch_accounting_tracks_mean_and_max() {
        let stats = ServeStats::new();
        stats.record_batch(1, 0, 0);
        stats.record_batch(3, 0, 0);
        stats.record_batch(8, 0, 0);
        let body = render_metrics(&stats, 2, 2, true);
        let batches = scrape_value(&body, "magic_serve_batches_total").unwrap();
        let fused = scrape_value(&body, "magic_serve_batched_requests_total").unwrap();
        assert_eq!(batches, 3.0);
        assert_eq!(fused / batches, 4.0, "mean batch size");
        assert_eq!(scrape_value(&body, "magic_serve_max_batch_size"), Some(8.0));
        assert_eq!(scrape_value(&body, "magic_serve_queue_depth"), Some(2.0));
        assert_eq!(scrape_value(&body, "magic_serve_draining"), Some(1.0));
    }

    #[test]
    fn responses_are_counted_by_status_class() {
        let stats = ServeStats::new();
        for (status, predict) in [
            (200, true),
            (200, true),
            (200, false), // a /metrics scrape is not a prediction
            (400, true),
            (404, false),
            (413, false),
            (500, true),
            (503, true), // sheds are counted by record_shed
            (504, true),
        ] {
            stats.record_response(status, predict);
        }
        let body = render_metrics(&stats, 0, 0, false);
        assert_eq!(scrape_value(&body, "magic_serve_predictions_total"), Some(2.0));
        assert_eq!(scrape_value(&body, "magic_serve_client_errors_total"), Some(3.0));
        assert_eq!(scrape_value(&body, "magic_serve_internal_errors_total"), Some(1.0));
        assert_eq!(scrape_value(&body, "magic_serve_timeouts_total"), Some(1.0));
        assert_eq!(scrape_value(&body, "magic_serve_shed_total"), Some(0.0));
    }

    #[test]
    fn request_ids_are_unique_and_ascending() {
        let stats = ServeStats::new();
        let a = stats.next_request_id();
        let b = stats.next_request_id();
        assert!(b > a);
    }

    #[test]
    fn slow_ring_keeps_the_top_k_by_latency() {
        let stats = ServeStats::new();
        for i in 0..40u64 {
            stats.offer_slow(SlowExemplar {
                id: i,
                ts_us: i,
                status: 200,
                batch: 1,
                stages_us: [1, 2, 3, 4, 5],
                total_us: i * 10,
                family: Some("Family0".into()),
            });
        }
        let v: Value = magic_json::from_str(&stats.render_slow()).unwrap();
        let rows = v["slow"].as_array().unwrap();
        assert_eq!(rows.len(), 16);
        // Slowest first, and only the slowest 16 of the 40 survive.
        assert_eq!(rows[0]["total_us"].as_u64(), Some(390));
        assert_eq!(rows[15]["total_us"].as_u64(), Some(240));
        assert_eq!(rows[0]["stages_us"]["execute"].as_u64(), Some(4));
    }

    #[test]
    fn concurrent_recording_reconciles_with_render() {
        let (stats, _clock) = manual_stats();
        let stats = Arc::new(stats);
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || {
                    for i in 0..2_500u64 {
                        stats.record_request(1);
                        stats.record_latency_us(t * 500 + i % 1_000 + 1);
                        stats.record_batch(((i % 7) + 1) as usize, 0, 0);
                        stats.record_stage_us(LifecycleStage::QueueWait, i % 100);
                    }
                })
            })
            .collect();
        // Hammer render concurrently with the writers: totals observed
        // mid-flight never overshoot, and every sample is present.
        for _ in 0..50 {
            let body = render_metrics(&stats, 0, 0, false);
            assert!(scrape_value(&body, "magic_serve_requests_total").unwrap() <= 10_000.0);
            assert!(scrape_value(&body, "magic_serve_latency_us_count").unwrap() <= 10_000.0);
        }
        for w in writers {
            w.join().unwrap();
        }
        let body = render_metrics(&stats, 0, 0, false);
        assert_eq!(scrape_value(&body, "magic_serve_requests_total"), Some(10_000.0));
        assert_eq!(scrape_value(&body, "magic_serve_latency_us_count"), Some(10_000.0));
        assert_eq!(scrape_value(&body, "magic_serve_batches_total"), Some(10_000.0));
        assert_eq!(stage_count(&body, "queue"), Some(10_000.0));
        // The windowed histogram agrees with the cumulative counter
        // because the manual clock never advanced: every observation is
        // still inside the window.
        assert_eq!(stats.latency_snapshot().count(), 10_000);
    }
}
