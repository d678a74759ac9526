//! End-to-end tests for the `magic serve` daemon: wire protocol, batch
//! assembly parity, and the steady-state zero-pool-miss contract.
//!
//! Deterministic *pressure* behavior (503 load shedding, graceful-drain
//! ordering) needs the `MAGIC_SERVE_INJECT_EXECUTE_DELAY_MS` knob,
//! which is process-global — those tests live in `serve_pressure.rs`
//! so this file's servers run at full speed.

use magic::MagicPipeline;
use magic_integration::serve_client::{predict, request, request_bytes};
use magic_integration::synthetic_listing;
use magic_model::{Dgcnn, DgcnnConfig, GraphInput, PoolingHead};
use magic_serve::metrics::scrape_value;
use magic_serve::{start, ServeConfig};
use std::sync::{Arc, Barrier};

const FAMILIES: [&str; 3] = ["Ramnit", "Vundo", "Gatak"];

/// A deterministic test model: same config + seed on every call site
/// yields bitwise-identical weights, so an offline twin of the served
/// model can verify score parity.
fn test_model() -> Dgcnn {
    let config = DgcnnConfig::new(FAMILIES.len(), PoolingHead::sort_pool_weighted(10));
    Dgcnn::new(&config, 42)
}

fn test_pipeline() -> MagicPipeline {
    MagicPipeline::new(test_model(), FAMILIES.iter().map(|s| s.to_string()).collect())
}

/// Ephemeral-port config; tweak fields per test.
fn test_config() -> ServeConfig {
    ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() }
}

/// Offline reference probabilities for a listing, computed exactly the
/// way `magic predict` does.
fn offline_probs(listing: &str) -> Vec<f32> {
    let acfg = magic::extract_acfg(listing).unwrap();
    test_model().predict(&GraphInput::from_acfg(&acfg))
}

/// Parses the scores object of a 200 response back into family-order
/// `f32`s.
fn response_scores(body: &str) -> Vec<f32> {
    let v = magic_json::from_str(body).unwrap();
    FAMILIES
        .iter()
        .map(|f| v["scores"][*f].as_f64().expect("score present") as f32)
        .collect()
}

#[test]
fn concurrent_requests_fuse_into_batches_without_changing_any_bit() {
    let mut config = test_config();
    config.workers = 1; // one tape, maximal fusion
    config.max_batch = 8;
    config.batch_window_us = 200_000; // generous: all clients join one batch
    let handle = start(test_pipeline(), config).unwrap();
    let addr = handle.addr();

    // Six clients with six different graph sizes, released together.
    let sizes = [2usize, 5, 9, 3, 14, 7];
    let barrier = Arc::new(Barrier::new(sizes.len()));
    let clients: Vec<_> = sizes
        .iter()
        .map(|&blocks| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let listing = synthetic_listing(blocks);
                barrier.wait();
                let response = predict(addr, &listing);
                (blocks, listing, response)
            })
        })
        .collect();

    let mut max_batch_size = 0u64;
    for client in clients {
        let (blocks, listing, response) = client.join().unwrap();
        assert_eq!(response.status, 200, "blocks={blocks}: {}", response.body);
        let served = response_scores(&response.body);
        let offline = offline_probs(&listing);
        for (family, (s, o)) in FAMILIES.iter().zip(served.iter().zip(&offline)) {
            assert_eq!(
                s.to_bits(),
                o.to_bits(),
                "blocks={blocks} family={family}: served {s} != offline {o}"
            );
        }
        let v = magic_json::from_str(&response.body).unwrap();
        max_batch_size = max_batch_size.max(v["batch_size"].as_u64().unwrap());
        assert!(v["queue_us"].as_u64().is_some());
    }
    assert!(
        max_batch_size >= 2,
        "six synchronized clients against a 200ms window must fuse, got max batch {max_batch_size}"
    );
    handle.shutdown();
}

#[test]
fn acfg_json_input_matches_the_asm_path_bitwise() {
    let handle = start(test_pipeline(), test_config()).unwrap();
    let addr = handle.addr();
    let listing = synthetic_listing(6);

    let from_asm = predict(addr, &listing);
    assert_eq!(from_asm.status, 200, "{}", from_asm.body);

    // Ship the pre-extracted ACFG (raw attribute counts) instead.
    let acfg = magic::extract_acfg(&listing).unwrap();
    let body = magic_json::to_string(&magic_json::json!({
        "acfg": magic_serve::protocol::acfg_to_json(&acfg),
    }));
    let from_acfg = predict(addr, &body);
    assert_eq!(from_acfg.status, 200, "{}", from_acfg.body);

    let asm_scores = response_scores(&from_asm.body);
    let acfg_scores = response_scores(&from_acfg.body);
    for (s, o) in asm_scores.iter().zip(&acfg_scores) {
        assert_eq!(s.to_bits(), o.to_bits(), "acfg path diverged from asm path");
    }

    // And the compact binary form: one magic-acfg/1 shard record posted
    // with its dedicated content type (label field is ignored).
    let record = magic_data::ShardRecord { label: 0, acfg };
    let from_binary = request_bytes(
        addr,
        "POST",
        "/v1/predict",
        magic_serve::protocol::ACFG_CONTENT_TYPE,
        &magic_data::encode_record(&record),
    );
    assert_eq!(from_binary.status, 200, "{}", from_binary.body);
    let binary_scores = response_scores(&from_binary.body);
    for (s, o) in asm_scores.iter().zip(&binary_scores) {
        assert_eq!(s.to_bits(), o.to_bits(), "binary acfg path diverged from asm path");
    }

    // A damaged binary body is a 400, and the server keeps serving.
    let bytes = magic_data::encode_record(&record);
    let truncated = request_bytes(
        addr,
        "POST",
        "/v1/predict",
        magic_serve::protocol::ACFG_CONTENT_TYPE,
        &bytes[..bytes.len() / 2],
    );
    assert_eq!(truncated.status, 400, "{}", truncated.body);
    assert!(truncated.body.contains("error"), "{}", truncated.body);
    let again = predict(addr, &listing);
    assert_eq!(again.status, 200, "{}", again.body);
    handle.shutdown();
}

#[test]
fn bad_requests_get_4xx_and_the_server_keeps_serving() {
    let handle = start(test_pipeline(), test_config()).unwrap();
    let addr = handle.addr();

    // Malformed JSON body → 400 with a JSON error, not a worker crash.
    let bad_json = predict(addr, "{not json");
    assert_eq!(bad_json.status, 400);
    assert!(bad_json.body.contains("error"), "{}", bad_json.body);

    // Unparseable listing → 400 (extraction error surfaced).
    let bad_listing = predict(addr, "this is not assembly at all");
    assert_eq!(bad_listing.status, 400, "{}", bad_listing.body);

    // Empty body → 400.
    assert_eq!(predict(addr, "").status, 400);

    // Unknown route → 404; known route, wrong method → 405.
    assert_eq!(request(addr, "GET", "/nope", "").status, 404);
    assert_eq!(request(addr, "GET", "/v1/predict", "").status, 405);
    assert_eq!(request(addr, "POST", "/healthz", "").status, 405);

    // The server survived all of it.
    let ok = predict(addr, &synthetic_listing(3));
    assert_eq!(ok.status, 200, "{}", ok.body);
    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("ok"));
    handle.shutdown();
}

#[test]
fn deeply_nested_json_gets_400_and_the_server_keeps_serving() {
    let handle = start(test_pipeline(), test_config()).unwrap();
    let addr = handle.addr();

    // 200 000 open arrays would overflow an IO thread's stack in a
    // recursive parser and abort the whole daemon; the depth cap turns
    // it into one typed 400.
    let hostile = format!("{{\"acfg\": {}", "[".repeat(200_000));
    let response = predict(addr, &hostile);
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("nesting"), "{}", response.body);

    let ok = predict(addr, &synthetic_listing(3));
    assert_eq!(ok.status, 200, "{}", ok.body);
    handle.shutdown();
}

#[test]
fn a_huge_vertex_count_gets_400_and_the_server_keeps_serving() {
    let handle = start(test_pipeline(), test_config()).unwrap();
    let addr = handle.addr();

    // 60 bytes claiming 10^15 vertices: sizing the graph before
    // checking it against the attribute rows would ask for petabytes
    // and abort the whole daemon; the row-count check answers 400.
    let hostile = r#"{"acfg":{"vertices":1e15,"edges":[],"attributes":[]}}"#;
    let response = predict(addr, hostile);
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("attribute rows"), "{}", response.body);

    let ok = predict(addr, &synthetic_listing(3));
    assert_eq!(ok.status, 200, "{}", ok.body);
    handle.shutdown();
}

#[test]
fn steady_state_serving_never_misses_the_workspace_pool() {
    let mut config = test_config();
    config.workers = 1; // a single long-lived tape owns the pool
    config.batch_window_us = 0;
    let handle = start(test_pipeline(), config).unwrap();
    let addr = handle.addr();
    let listing = synthetic_listing(8);

    let metrics = |addr| {
        let response = request(addr, "GET", "/metrics", "");
        assert_eq!(response.status, 200);
        response.body
    };
    let value = |body: &str, name| scrape_value(body, name).unwrap();

    // Warm-up: the first identical requests populate the size classes.
    for _ in 0..4 {
        assert_eq!(predict(addr, &listing).status, 200);
    }
    let warm = metrics(addr);
    let warm_misses = value(&warm, "magic_serve_pool_misses_total");
    let warm_hits = value(&warm, "magic_serve_pool_hits_total");
    assert!(warm_misses > 0.0, "a cold pool must miss");
    assert!(warm_hits > 0.0, "repeated shapes must start hitting during warm-up");

    // Steady state: same request shape → zero new pool misses.
    for _ in 0..6 {
        assert_eq!(predict(addr, &listing).status, 200);
    }
    let steady = metrics(addr);
    assert_eq!(
        value(&steady, "magic_serve_pool_misses_total"),
        warm_misses,
        "steady-state serving allocated fresh buffers"
    );
    assert!(value(&steady, "magic_serve_pool_hits_total") > warm_hits);
    assert_eq!(value(&steady, "magic_serve_predictions_total"), 10.0);
    assert_eq!(value(&steady, "magic_serve_internal_errors_total"), 0.0);
    handle.shutdown();
}

#[test]
fn oversized_bodies_are_refused_with_413() {
    let mut config = test_config();
    config.max_body_bytes = 512;
    let handle = start(test_pipeline(), config).unwrap();
    let big = "x".repeat(4096);
    let response = predict(handle.addr(), &big);
    assert_eq!(response.status, 413, "{}", response.body);
    handle.shutdown();
}

#[test]
fn an_idle_connection_does_not_pin_the_only_io_thread() {
    let mut config = test_config();
    config.io_threads = 1;
    let handle = start(test_pipeline(), config).unwrap();
    let addr = handle.addr();

    // Connects first and never sends a byte: the only IO thread picks it
    // up and blocks reading it until the socket timeout drops it.
    let idle = std::net::TcpStream::connect(addr).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(predict(addr, &synthetic_listing(3)));
    });
    let response = rx
        .recv_timeout(magic_serve::IO_TIMEOUT * 4)
        .expect("the idle connection pinned the IO thread past its timeout");
    assert_eq!(response.status, 200, "{}", response.body);
    drop(idle);
    handle.shutdown();
}

#[test]
fn programmatic_shutdown_with_no_traffic_returns_promptly() {
    let handle = start(test_pipeline(), test_config()).unwrap();
    let addr = handle.addr();
    assert_eq!(request(addr, "GET", "/healthz", "").status, 200);
    let begun = std::time::Instant::now();
    handle.shutdown();
    assert!(
        begun.elapsed() < std::time::Duration::from_secs(10),
        "idle shutdown must not hang"
    );
    // The port no longer answers: connects are refused, or a racy
    // accepted socket yields no response bytes.
    match std::net::TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            use std::io::{Read, Write};
            let _ = write!(stream, "GET /healthz HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n");
            let mut leftover = String::new();
            let n = stream.read_to_string(&mut leftover).unwrap_or(0);
            assert_eq!(n, 0, "server still answered after shutdown: {leftover}");
        }
    }
}
