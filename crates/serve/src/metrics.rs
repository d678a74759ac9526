//! Prometheus text exposition for `GET /metrics`.
//!
//! Renders the [`ServeStats`] block in the Prometheus text format
//! (version 0.0.4): `# HELP`/`# TYPE` headers followed by one sample
//! per line. The metric-name registry below — one table of scalar
//! families plus the two summary families, listed by [`families`] — is
//! a pinned public contract (golden-tested, documented in
//! `docs/OBSERVABILITY.md`); renaming or dropping a metric is a
//! breaking change for scrape configs and dashboards.
//!
//! Conventions:
//!
//! * `*_total` counters are cumulative since server start.
//! * `magic_serve_latency_us{quantile=...}` and
//!   `magic_serve_stage_us{stage=...,quantile=...}` are **windowed**
//!   interpolated quantiles over the last `--metrics-window` seconds —
//!   summary-style labels, but deliberately not lifetime summaries,
//!   because "p99 right now" is the operable signal. The latency
//!   `_count`/`_sum` pair stays cumulative (usable for `rate()`);
//!   stage `_count`/`_sum` are window-scoped.
//! * Rates (`*_rate_per_s`) are pre-divided sliding-window gauges for
//!   dashboards without PromQL.

use crate::stats::{LifecycleStage, ServeStats};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// `Content-Type` of the exposition body.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// The windowed quantiles exported for latency and stage series.
const QUANTILES: [(f64, &str); 3] = [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")];

/// What one scrape reads: the stats block, the queue state the caller
/// samples at scrape time, and the scrape's clock reading.
struct Scrape<'a> {
    stats: &'a ServeStats,
    queue_depth: usize,
    queue_high_water: u64,
    draining: bool,
    now_us: u64,
}

/// A counter as a sample value (Prometheus values are floats; integers
/// print without a fraction and are exact below 2^53).
fn total(counter: &AtomicU64) -> f64 {
    counter.load(Ordering::Relaxed) as f64
}

/// One scalar metric family: `(name, Prometheus type, help, reader)`.
type Scalar = (&'static str, &'static str, &'static str, fn(&Scrape) -> f64);

/// The scalar metric registry, in exposition order. Adding a scalar
/// metric is one line here; the docs table in `docs/OBSERVABILITY.md`
/// and `tests/golden/metrics.prom` are checked against it by tests.
#[rustfmt::skip]
const SCALARS: [Scalar; 18] = [
    ("magic_serve_uptime_seconds", "gauge", "Seconds since server start.", |s| s.stats.uptime_s() as f64),
    ("magic_serve_requests_total", "counter", "Predict requests accepted into the queue.", |s| total(&s.stats.requests)),
    ("magic_serve_predictions_total", "counter", "Predict requests answered 200.", |s| total(&s.stats.predictions)),
    ("magic_serve_shed_total", "counter", "Requests shed with 503 (queue full or draining).", |s| total(&s.stats.shed)),
    ("magic_serve_timeouts_total", "counter", "Requests expired with 504 before execution.", |s| total(&s.stats.timeouts)),
    ("magic_serve_client_errors_total", "counter", "Requests refused with a 4xx status.", |s| total(&s.stats.client_errors)),
    ("magic_serve_internal_errors_total", "counter", "Requests failed with 500.", |s| total(&s.stats.internal_errors)),
    ("magic_serve_batches_total", "counter", "Fused micro-batches executed.", |s| total(&s.stats.batches)),
    ("magic_serve_batched_requests_total", "counter", "Requests summed over executed batches.", |s| total(&s.stats.batched_requests)),
    ("magic_serve_pool_hits_total", "counter", "Workspace-pool checkouts served from recycled buffers.", |s| total(&s.stats.pool_hits)),
    ("magic_serve_pool_misses_total", "counter", "Workspace-pool checkouts that heap-allocated (flat after warm-up).", |s| total(&s.stats.pool_misses)),
    ("magic_serve_max_batch_size", "gauge", "Largest batch executed so far.", |s| total(&s.stats.max_batch)),
    ("magic_serve_queue_depth", "gauge", "Requests waiting in the batching queue right now.", |s| s.queue_depth as f64),
    ("magic_serve_queue_high_water", "gauge", "Deepest the batching queue has ever been.", |s| s.queue_high_water as f64),
    ("magic_serve_draining", "gauge", "1 while the server drains for shutdown (stop routing to it).", |s| u8::from(s.draining) as f64),
    ("magic_serve_request_rate_per_s", "gauge", "Accepted predict requests per second over the sliding window.", |s| s.stats.requests_window.rate_per_sec(s.now_us)),
    ("magic_serve_shed_rate_per_s", "gauge", "Shed requests per second over the sliding window.", |s| s.stats.shed_window.rate_per_sec(s.now_us)),
    ("magic_serve_batch_rate_per_s", "gauge", "Executed batches per second over the sliding window.", |s| s.stats.batches_window.rate_per_sec(s.now_us)),
];

const LATENCY: (&str, &str) = (
    "magic_serve_latency_us",
    "End-to-end 200-predict latency in microseconds; quantiles are windowed \
     and interpolated, _count/_sum cumulative.",
);

const STAGE: (&str, &str) = (
    "magic_serve_stage_us",
    "Per-lifecycle-stage latency in microseconds over the sliding window; \
     quantiles interpolated, _count/_sum window-scoped.",
);

/// Every metric family `/metrics` exposes, as `(name, Prometheus
/// type)`, in exposition order.
pub fn families() -> Vec<(&'static str, &'static str)> {
    let summaries = [(LATENCY.0, "summary"), (STAGE.0, "summary")];
    SCALARS.iter().map(|m| (m.0, m.1)).chain(summaries).collect()
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders the full `/metrics` document. `queue_depth`,
/// `queue_high_water`, and `draining` are sampled by the caller at
/// scrape time (they live outside [`ServeStats`]).
pub fn render_metrics(
    stats: &ServeStats,
    queue_depth: usize,
    queue_high_water: u64,
    draining: bool,
) -> String {
    let scrape = Scrape { stats, queue_depth, queue_high_water, draining, now_us: stats.now_us() };
    let mut out = String::with_capacity(4096);
    for (name, kind, help, read) in SCALARS {
        header(&mut out, name, help, kind);
        let _ = writeln!(out, "{name} {}", read(&scrape));
    }

    let (name, help) = LATENCY;
    header(&mut out, name, help, "summary");
    let latency = stats.latency_snapshot();
    for (q, label) in QUANTILES {
        let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", latency.quantile(q));
    }
    let _ = writeln!(out, "{name}_sum {}", stats.latency_sum_us.load(Ordering::Relaxed));
    let _ = writeln!(out, "{name}_count {}", stats.latency_count.load(Ordering::Relaxed));

    let (name, help) = STAGE;
    header(&mut out, name, help, "summary");
    for stage in LifecycleStage::ALL {
        let snap = stats.stage_snapshot(stage);
        let label = stage.name();
        for (q, quantile) in QUANTILES {
            let _ = writeln!(
                out,
                "{name}{{stage=\"{label}\",quantile=\"{quantile}\"}} {}",
                snap.quantile(q)
            );
        }
        let _ = writeln!(out, "{name}_sum{{stage=\"{label}\"}} {}", snap.sum());
        let _ = writeln!(out, "{name}_count{{stage=\"{label}\"}} {}", snap.count());
    }

    out
}

/// Pulls one un-labelled numeric sample out of an exposition body —
/// the client-side helper tests and the load bench use to read a
/// scraped value back.
pub fn scrape_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find(|l| !l.starts_with('#') && l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Pulls one labelled sample (`name{labels} value`) by exact label
/// string, e.g. `scrape_labeled(body, "magic_serve_latency_us",
/// "quantile=\"0.99\"")`.
pub fn scrape_labeled(body: &str, name: &str, labels: &str) -> Option<f64> {
    let prefix = format!("{name}{{{labels}}} ");
    body.lines()
        .find(|l| l.starts_with(&prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_obs::timeseries::{Clock, ManualClock};
    use std::sync::Arc;

    fn manual_stats() -> (ServeStats, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        (ServeStats::with_window(60, Arc::clone(&clock) as Arc<dyn Clock>), clock)
    }

    #[test]
    fn every_pinned_metric_name_is_present() {
        let (stats, _clock) = manual_stats();
        let body = render_metrics(&stats, 0, 0, false);
        for name in [
            "magic_serve_uptime_seconds",
            "magic_serve_requests_total",
            "magic_serve_predictions_total",
            "magic_serve_shed_total",
            "magic_serve_timeouts_total",
            "magic_serve_client_errors_total",
            "magic_serve_internal_errors_total",
            "magic_serve_batches_total",
            "magic_serve_batched_requests_total",
            "magic_serve_pool_hits_total",
            "magic_serve_pool_misses_total",
            "magic_serve_max_batch_size",
            "magic_serve_queue_depth",
            "magic_serve_queue_high_water",
            "magic_serve_draining",
            "magic_serve_request_rate_per_s",
            "magic_serve_shed_rate_per_s",
            "magic_serve_batch_rate_per_s",
            "magic_serve_latency_us",
            "magic_serve_stage_us",
        ] {
            assert!(body.contains(&format!("# TYPE {name} ")), "missing {name}\n{body}");
        }
    }

    #[test]
    fn families_match_the_rendered_type_lines() {
        let (stats, _clock) = manual_stats();
        let body = render_metrics(&stats, 0, 0, false);
        let rendered: Vec<(&str, &str)> = body
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split_once(' '))
            .collect();
        assert_eq!(rendered, families());
    }

    #[test]
    fn samples_reflect_recorded_activity() {
        let (stats, clock) = manual_stats();
        stats.record_request(1);
        stats.record_request(2);
        stats.record_shed();
        stats.record_latency_us(1_000);
        stats.record_latency_us(3_000);
        clock.advance_us(1_000_000);
        let body = render_metrics(&stats, 5, 9, true);
        assert_eq!(scrape_value(&body, "magic_serve_requests_total"), Some(2.0));
        assert_eq!(scrape_value(&body, "magic_serve_shed_total"), Some(1.0));
        assert_eq!(scrape_value(&body, "magic_serve_queue_depth"), Some(5.0));
        assert_eq!(scrape_value(&body, "magic_serve_queue_high_water"), Some(9.0));
        assert_eq!(scrape_value(&body, "magic_serve_draining"), Some(1.0));
        assert_eq!(scrape_value(&body, "magic_serve_latency_us_count"), Some(2.0));
        assert_eq!(scrape_value(&body, "magic_serve_latency_us_sum"), Some(4_000.0));
        let p99 = scrape_labeled(&body, "magic_serve_latency_us", "quantile=\"0.99\"").unwrap();
        assert!((2_816.0..3_072.0).contains(&p99), "p99 {p99} outside the 3000 bucket");
    }

    #[test]
    fn stage_series_carry_per_stage_labels() {
        let (stats, _clock) = manual_stats();
        stats.record_stage_us(LifecycleStage::Execute, 500);
        let body = render_metrics(&stats, 0, 0, false);
        assert_eq!(
            scrape_labeled(&body, "magic_serve_stage_us_count", "stage=\"execute\""),
            Some(1.0)
        );
        assert_eq!(
            scrape_labeled(&body, "magic_serve_stage_us_count", "stage=\"parse\""),
            Some(0.0)
        );
        let p50 = scrape_labeled(&body, "magic_serve_stage_us", "stage=\"execute\",quantile=\"0.5\"")
            .unwrap();
        assert!((480.0..512.0).contains(&p50), "p50 {p50} outside the 500 bucket");
    }
}
