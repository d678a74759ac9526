//! Saturation and shutdown-drain behavior of `magic serve`, made
//! deterministic with the `MAGIC_SERVE_INJECT_EXECUTE_DELAY_MS` knob
//! (every batch execution sleeps that long before the forward pass).
//!
//! The knob is process-global, which is why these tests live in their
//! own integration binary: the fast-path tests in `serve.rs` must not
//! inherit the delay.

use magic::MagicPipeline;
use magic_integration::serve_client::{predict, request};
use magic_integration::synthetic_listing;
use magic_model::{Dgcnn, DgcnnConfig, PoolingHead};
use magic_serve::metrics::scrape_value;
use magic_serve::{start, ServeConfig};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const EXECUTE_DELAY_MS: u64 = 300;

fn slow_pipeline() -> MagicPipeline {
    // Read by each server at `start`; both tests in this process want
    // the same value, so setting it repeatedly is harmless.
    std::env::set_var("MAGIC_SERVE_INJECT_EXECUTE_DELAY_MS", EXECUTE_DELAY_MS.to_string());
    let config = DgcnnConfig::new(2, PoolingHead::sort_pool_weighted(8));
    MagicPipeline::new(Dgcnn::new(&config, 7), vec!["Benign".into(), "Malicious".into()])
}

#[test]
fn saturated_queue_sheds_with_503_and_retry_after() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        max_batch: 1,      // one request per (slow) execution
        batch_window_us: 0,
        queue_depth: 2,    // third concurrent request must shed
        ..ServeConfig::default()
    };
    let handle = start(slow_pipeline(), config).unwrap();
    let addr = handle.addr();

    // 8 synchronized clients against a queue that fits 2 while the
    // worker sleeps 300ms per request: shedding is guaranteed.
    let clients = 8;
    let barrier = Arc::new(Barrier::new(clients));
    let responses: Vec<_> = (0..clients)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let listing = synthetic_listing(3);
                barrier.wait();
                predict(addr, &listing)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();

    let served = responses.iter().filter(|r| r.status == 200).count();
    let shed: Vec<_> = responses.iter().filter(|r| r.status == 503).collect();
    assert!(served >= 1, "someone must be served");
    assert!(!shed.is_empty(), "a 2-deep queue under 8 clients must shed");
    assert_eq!(served + shed.len(), clients, "only 200s and 503s expected");
    for r in &shed {
        assert_eq!(r.header("retry-after"), Some("1"), "503 must carry Retry-After");
        assert!(r.body.contains("error"), "{}", r.body);
    }

    let metrics = request(addr, "GET", "/metrics", "").body;
    assert_eq!(scrape_value(&metrics, "magic_serve_shed_total"), Some(shed.len() as f64));
    assert_eq!(scrape_value(&metrics, "magic_serve_predictions_total"), Some(served as f64));
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_queued_work_then_refuses_new_work() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        max_batch: 1,
        batch_window_us: 0,
        queue_depth: 16, // roomy: nothing sheds before the drain starts
        ..ServeConfig::default()
    };
    let handle = start(slow_pipeline(), config).unwrap();
    let addr = handle.addr();

    // Fill the pipe: with a 300ms execution delay, client 1 is in
    // flight and the rest are queued when the shutdown lands.
    let clients: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || predict(addr, &synthetic_listing(3))))
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    let admin = request(addr, "POST", "/admin/shutdown", "");
    assert_eq!(admin.status, 200);
    assert!(admin.body.contains("draining"), "{}", admin.body);

    // New work is refused while the backlog drains: the listener closes
    // as the drain starts, so a late client sees a refused connect (or,
    // losing that race, a 503 from an IO thread that saw the closed
    // queue).
    match std::net::TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            use std::io::{Read, Write};
            let body = synthetic_listing(3);
            let _ = write!(
                stream,
                "POST /v1/predict HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            );
            let mut raw = String::new();
            let n = stream.read_to_string(&mut raw).unwrap_or(0);
            assert!(
                n == 0 || raw.starts_with("HTTP/1.1 503"),
                "draining server must refuse new work, got: {raw}"
            );
        }
    }

    // ...but every request accepted before the drain gets a real answer.
    for client in clients {
        let response = client.join().unwrap();
        assert_eq!(response.status, 200, "queued request dropped: {}", response.body);
    }
    handle.wait();
}
