//! A panic while serving costs only the requests it hits, on either kind
//! of serving thread.
//!
//! `MAGIC_SERVE_INJECT_PANIC_BATCHES=<n>` makes the first `n` batch
//! executions of a server panic just before the forward pass;
//! `MAGIC_SERVE_INJECT_PANIC_REQUESTS=<n>` makes the first `n` predict
//! requests panic on their IO thread just before extraction. The hooks
//! are read from the process environment when a server starts, which is
//! why these tests live in their own integration binary (the other serve
//! tests must not inherit them) and set each hook only while their
//! server starts.

use magic::MagicPipeline;
use magic_integration::serve_client::predict;
use magic_integration::synthetic_listing;
use magic_model::{Dgcnn, DgcnnConfig, PoolingHead};
use magic_serve::{start, ServeConfig, ServerHandle};
use std::sync::{Mutex, PoisonError};

/// Serialises the tests' use of the process environment.
static ENV: Mutex<()> = Mutex::new(());

/// Starts a server with `serve` and the hook `var` set to 1.
fn start_with_hook(var: &str, serve: ServeConfig) -> ServerHandle {
    let config = DgcnnConfig::new(2, PoolingHead::adaptive_max_pool(3));
    let pipeline =
        MagicPipeline::new(Dgcnn::new(&config, 7), vec!["Benign".into(), "Malicious".into()]);
    let _env = ENV.lock().unwrap_or_else(PoisonError::into_inner);
    std::env::set_var(var, "1");
    let handle = start(pipeline, serve);
    std::env::remove_var(var);
    handle.unwrap()
}

/// The first predict gets a 500 naming the panic; the next three a 200.
fn first_fails_then_serves(handle: ServerHandle) {
    let addr = handle.addr();
    let listing = synthetic_listing(4);
    let failed = predict(addr, &listing);
    assert_eq!(failed.status, 500, "injected panic: {}", failed.body);
    assert!(failed.body.contains("panicked"), "{}", failed.body);
    for _ in 0..3 {
        let served = predict(addr, &listing);
        assert_eq!(served.status, 200, "after the panic: {}", served.body);
    }
    handle.shutdown();
}

#[test]
fn a_panicking_batch_gets_500_and_the_worker_keeps_serving() {
    // One worker: were it lost, nothing would answer the next request.
    let serve = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        max_batch: 1,
        batch_window_us: 0,
        ..ServeConfig::default()
    };
    first_fails_then_serves(start_with_hook("MAGIC_SERVE_INJECT_PANIC_BATCHES", serve));
}

#[test]
fn a_panicking_request_gets_500_and_the_io_thread_keeps_serving() {
    // One IO thread: were it lost, nothing would answer the next request.
    let serve = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        io_threads: 1,
        batch_window_us: 0,
        ..ServeConfig::default()
    };
    first_fails_then_serves(start_with_hook("MAGIC_SERVE_INJECT_PANIC_REQUESTS", serve));
}
