//! A panic in a model worker's forward pass costs only its batch.
//!
//! `MAGIC_SERVE_INJECT_PANIC_BATCHES=<n>` makes the first `n` batch
//! executions of a server panic just before the forward pass. The hook
//! is read from the process environment when a server starts, which is
//! why this test lives in its own integration binary: the other serve
//! tests must not inherit it.

use magic::MagicPipeline;
use magic_integration::serve_client::predict;
use magic_integration::synthetic_listing;
use magic_model::{Dgcnn, DgcnnConfig, PoolingHead};
use magic_serve::{start, ServeConfig};

#[test]
fn a_panicking_batch_gets_500_and_the_worker_keeps_serving() {
    std::env::set_var("MAGIC_SERVE_INJECT_PANIC_BATCHES", "1");
    let config = DgcnnConfig::new(2, PoolingHead::adaptive_max_pool(3));
    let pipeline =
        MagicPipeline::new(Dgcnn::new(&config, 7), vec!["Benign".into(), "Malicious".into()]);
    // One worker: were it lost, nothing would answer the next request.
    let serve = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        max_batch: 1,
        batch_window_us: 0,
        ..ServeConfig::default()
    };
    let handle = start(pipeline, serve).unwrap();
    let addr = handle.addr();
    let listing = synthetic_listing(4);

    let failed = predict(addr, &listing);
    assert_eq!(failed.status, 500, "injected batch: {}", failed.body);
    assert!(failed.body.contains("panicked"), "{}", failed.body);
    for _ in 0..3 {
        let served = predict(addr, &listing);
        assert_eq!(served.status, 200, "after the panic: {}", served.body);
    }
    handle.shutdown();
}
