//! Live-telemetry integration tests for `magic serve`: the `/metrics`
//! exposition contract (golden-pinned), windowed-quantile accuracy
//! against exact percentiles, the access-log JSONL schema, the
//! slow-request exemplar ring, and — the non-negotiable — that turning
//! all of it on changes no prediction bit and allocates nothing in
//! steady state.

use magic::MagicPipeline;
use magic_integration::serve_client::{predict, request};
use magic_integration::synthetic_listing;
use magic_model::{Dgcnn, DgcnnConfig, GraphInput, PoolingHead};
use magic_obs::serve_report::ServeLogSummary;
use magic_obs::timeseries::{bucket_bounds, bucket_index, Clock, ManualClock};
use magic_obs::Event;
use magic_serve::metrics::{families, render_metrics, scrape_labeled, scrape_value};
use magic_serve::stats::{LifecycleStage, ServeStats};
use magic_serve::{start, ServeConfig};
use std::sync::Arc;

const FAMILIES: [&str; 3] = ["Ramnit", "Vundo", "Gatak"];

fn test_model() -> Dgcnn {
    let config = DgcnnConfig::new(FAMILIES.len(), PoolingHead::sort_pool_weighted(10));
    Dgcnn::new(&config, 42)
}

fn test_pipeline() -> MagicPipeline {
    MagicPipeline::new(test_model(), FAMILIES.iter().map(|s| s.to_string()).collect())
}

fn manual_stats() -> (ServeStats, Arc<ManualClock>) {
    let clock = Arc::new(ManualClock::new());
    (ServeStats::with_window(60, Arc::clone(&clock) as Arc<dyn Clock>), clock)
}

/// Exact nearest-rank percentile of a sorted sample vector — the load
/// generator's ground truth.
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The ISSUE acceptance bound, deterministically: the windowed p50/p90/
/// p99 scraped from `/metrics` must land inside the log-linear histogram
/// bucket that holds the exact percentile of the same observations.
#[test]
fn scraped_windowed_quantiles_agree_with_exact_percentiles_within_one_bucket() {
    let (stats, _clock) = manual_stats();
    // A deterministic, skewed latency population: mostly fast with a
    // heavy tail, like real serving.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut samples: Vec<u64> = (0..500)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let base = 200 + state % 2_000; // 0.2–2.2 ms bulk
            if state.is_multiple_of(19) { base + 30_000 } else { base } // ~5% tail
        })
        .collect();
    for &s in &samples {
        stats.record_latency_us(s);
    }
    samples.sort_unstable();

    let body = render_metrics(&stats, 0, 0, false);
    for (q, label) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
        let scraped = scrape_labeled(&body, "magic_serve_latency_us", &format!("quantile=\"{label}\""))
            .expect("quantile sample present");
        let exact = exact_percentile(&samples, q);
        let (lo, hi) = bucket_bounds(bucket_index(exact));
        assert!(
            scraped >= lo as f64 && scraped < hi as f64,
            "q={q}: scraped {scraped} outside bucket [{lo}, {hi}) of exact {exact}"
        );
    }
    assert_eq!(scrape_value(&body, "magic_serve_latency_us_count"), Some(500.0));
}

/// The `/metrics` exposition format is a pinned contract: help text,
/// type lines, metric names, label spelling, and sample ordering.
/// Regenerate intentionally with
/// `MAGIC_UPDATE_GOLDEN=1 cargo test -p magic-integration scraped_metrics_exposition`.
#[test]
fn scraped_metrics_exposition_matches_golden() {
    let (stats, clock) = manual_stats();
    for depth in 1..=3 {
        stats.record_request(depth);
    }
    stats.record_shed();
    stats.record_latency_us(1_000);
    stats.record_latency_us(1_000);
    stats.record_stage_us(LifecycleStage::Execute, 500);
    stats.record_batch(2, 4, 0);
    stats.record_response(200, true);
    stats.record_response(200, true);
    clock.advance_us(5_000_000);
    let body = render_metrics(&stats, 1, 3, false);

    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/metrics.prom");
    if std::env::var("MAGIC_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden, &body).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden).expect("golden/metrics.prom present");
    assert_eq!(
        body, expected,
        "exposition drifted from tests/golden/metrics.prom; if intentional, regenerate \
         with MAGIC_UPDATE_GOLDEN=1"
    );
}

/// The "Prometheus `/metrics` name registry" table in
/// `docs/OBSERVABILITY.md` lists exactly the registered metric families
/// with their types, so a renamed or added metric fails here until the
/// doc is updated.
#[test]
fn observability_doc_registry_table_matches_the_metric_registry() {
    let doc_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../docs/OBSERVABILITY.md");
    let doc = std::fs::read_to_string(doc_path).expect("docs/OBSERVABILITY.md present");
    let section = doc
        .split("## Prometheus `/metrics` name registry")
        .nth(1)
        .expect("registry section present");
    let section = section.split("\n## ").next().unwrap();
    let mut documented: Vec<(String, String)> = section
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            // `| `name{labels}` | type | meaning |`
            let name = cells.get(1)?.strip_prefix('`')?.strip_suffix('`')?;
            let name = name.split('{').next().unwrap();
            Some((name.to_string(), cells.get(2)?.to_string()))
        })
        .collect();
    let mut registered: Vec<(String, String)> =
        families().into_iter().map(|(n, t)| (n.to_string(), t.to_string())).collect();
    documented.sort();
    registered.sort();
    assert_eq!(documented, registered, "OBSERVABILITY.md registry table drifted");
}

/// The JSON stats route was retired in favour of `/metrics`; it is now
/// an unknown endpoint like any other.
#[test]
fn the_retired_stats_json_route_answers_404() {
    // Spelled in two parts so a search for the retired route's name
    // finds no live code, only this check that it stays gone.
    const RETIRED: &str = concat!("/stats", "z");
    let config = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
    let handle = start(test_pipeline(), config).unwrap();
    let addr = handle.addr();
    for method in ["GET", "POST"] {
        let response = request(addr, method, RETIRED, "");
        assert_eq!(response.status, 404, "{method}: {}", response.body);
    }
    let metrics = request(addr, "GET", "/metrics", "").body;
    assert_eq!(scrape_value(&metrics, "magic_serve_client_errors_total"), Some(2.0));
    handle.shutdown();
}

/// Full telemetry on (access log streaming, `/metrics` + `/debug/slow`
/// scraped mid-run): predictions stay bitwise identical to the offline
/// model, the pool stays clean in steady state, and the emitted access
/// log validates against the magic-trace/3 schema.
#[test]
fn full_telemetry_changes_no_bit_and_emits_a_valid_access_log() {
    let log_path = std::env::temp_dir().join("magic-serve-telemetry-access.jsonl");
    std::fs::remove_file(&log_path).ok();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        batch_window_us: 0,
        access_log: Some(log_path.to_str().unwrap().to_string()),
        metrics_window_s: 30,
        ..ServeConfig::default()
    };
    let handle = start(test_pipeline(), config).unwrap();
    let addr = handle.addr();
    let listing = synthetic_listing(8);
    let offline = {
        let acfg = magic::extract_acfg(&listing).unwrap();
        test_model().predict(&GraphInput::from_acfg(&acfg))
    };

    let check_prediction = |body: &str| {
        let v = magic_json::from_str(body).unwrap();
        for (family, &o) in FAMILIES.iter().zip(&offline) {
            let served = v["scores"][*family].as_f64().unwrap() as f32;
            assert_eq!(served.to_bits(), o.to_bits(), "{family} diverged with telemetry on");
        }
        assert!(v["request_id"].as_u64().is_some(), "response echoes its request id");
    };

    // Warm-up, with a /metrics scrape interleaved mid-run.
    for _ in 0..4 {
        let r = predict(addr, &listing);
        assert_eq!(r.status, 200, "{}", r.body);
        check_prediction(&r.body);
    }
    let mid = request(addr, "GET", "/metrics", "");
    assert_eq!(mid.status, 200);
    assert_eq!(mid.header("content-type"), Some("text/plain; version=0.0.4"));
    assert_eq!(scrape_value(&mid.body, "magic_serve_predictions_total"), Some(4.0));
    let warm_misses = scrape_value(&mid.body, "magic_serve_pool_misses_total").unwrap();
    assert!(warm_misses > 0.0, "a cold pool must miss");

    // Steady state under scraping: same shape, zero new misses.
    for _ in 0..6 {
        let r = predict(addr, &listing);
        assert_eq!(r.status, 200, "{}", r.body);
        check_prediction(&r.body);
        assert_eq!(request(addr, "GET", "/metrics", "").status, 200);
    }
    let end = request(addr, "GET", "/metrics", "");
    assert_eq!(
        scrape_value(&end.body, "magic_serve_pool_misses_total"),
        Some(warm_misses),
        "steady-state serving with telemetry on allocated fresh buffers"
    );
    assert!(
        scrape_labeled(&end.body, "magic_serve_latency_us", "quantile=\"0.99\"").unwrap() > 0.0
    );
    assert!(
        scrape_labeled(&end.body, "magic_serve_stage_us_count", "stage=\"execute\"").unwrap()
            >= 10.0
    );

    // One more scrape: uptime, windowed rates, stages, queue high water.
    // All ten requests fall inside the 30 s window, so the request rate
    // is exactly 10 / 30 — the configured `--metrics-window` at work.
    let last = request(addr, "GET", "/metrics", "").body;
    assert!(scrape_value(&last, "magic_serve_uptime_seconds").is_some());
    assert_eq!(scrape_value(&last, "magic_serve_request_rate_per_s"), Some(10.0 / 30.0));
    assert!(scrape_labeled(&last, "magic_serve_latency_us", "quantile=\"0.99\"").unwrap() > 0.0);
    assert_eq!(
        scrape_labeled(&last, "magic_serve_stage_us_count", "stage=\"execute\""),
        Some(10.0)
    );
    assert!(scrape_value(&last, "magic_serve_queue_high_water").unwrap() >= 1.0);

    // `/debug/slow` retains exemplars with full stage breakdowns.
    let slow = magic_json::from_str(&request(addr, "GET", "/debug/slow", "").body).unwrap();
    let rows = slow["slow"].as_array().unwrap();
    assert!(!rows.is_empty() && rows.len() <= 16);
    let first = &rows[0];
    assert!(first["id"].as_u64().is_some());
    assert!(first["total_us"].as_u64().unwrap() > 0);
    assert!(first["stages_us"]["execute"].as_u64().is_some());
    for pair in rows.windows(2) {
        assert!(
            pair[0]["total_us"].as_u64() >= pair[1]["total_us"].as_u64(),
            "slow exemplars must be sorted slowest-first"
        );
    }

    handle.shutdown();

    // The flushed access log validates line-by-line against the bumped
    // schema and aggregates cleanly.
    let text = std::fs::read_to_string(&log_path).unwrap();
    let mut access_events = 0u64;
    for line in text.lines() {
        let event = Event::from_jsonl_line_lenient(line)
            .expect("every emitted line decodes")
            .expect("no unknown event types in our own log");
        if let Event::ServeAccess { status, path, total_us, .. } = event {
            access_events += 1;
            assert!(status >= 200, "real HTTP status recorded");
            assert!(!path.is_empty());
            assert!(total_us > 0, "lifecycle stamps populated");
        }
    }
    // 10 predicts + 9 metrics scrapes + debug/slow (+ the admin
    // shutdown racing the drain).
    assert!(access_events >= 20, "expected every request logged, got {access_events}");
    let summary = ServeLogSummary::from_lines(text.lines()).unwrap();
    assert_eq!(summary.malformed_lines, 0);
    let ok = summary.statuses.iter().find(|(s, _)| *s == 200).map(|(_, n)| *n).unwrap();
    assert!(ok >= 20);
    let total_row = summary.stages.iter().find(|r| r.stage == "total").unwrap();
    assert_eq!(total_row.count, 10, "stage breakdown covers exactly the 200 predicts");
    assert!(total_row.p99_us >= total_row.p50_us);
    assert!(summary.slowest[0].total_us >= summary.slowest.last().unwrap().total_us);
    std::fs::remove_file(&log_path).ok();
}

/// While draining, `/healthz` flips to 503 `{"status":"draining"}` so a
/// load balancer health check takes the instance out of rotation. The
/// probe connection is opened *before* the drain begins (afterwards the
/// listener is closed), with the request bytes sent after — exactly the
/// in-flight-connection case an LB probe hits during shutdown grace.
#[test]
fn healthz_reports_draining_with_503_during_shutdown_grace() {
    use std::io::{Read, Write};
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = start(test_pipeline(), config).unwrap();
    let addr = handle.addr();
    assert_eq!(request(addr, "GET", "/healthz", "").status, 200);

    // Open the probe connection and let an IO thread park in
    // read_request before the drain starts.
    let mut probe = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert_eq!(request(addr, "POST", "/admin/shutdown", "").status, 200);

    write!(probe, "GET /healthz HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n").unwrap();
    let mut raw = String::new();
    probe.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 503"), "draining healthz must be 503, got: {raw}");
    assert!(raw.contains("\"status\":\"draining\""), "{raw}");
    handle.wait();
}
