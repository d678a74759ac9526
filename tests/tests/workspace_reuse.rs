//! Steady-state allocation behavior of the tape workspace pool.
//!
//! The performance contract: after one warm-up pass over a fixed
//! workload, every per-sample buffer (im2col columns and band panels,
//! op outputs, gradients, dropout masks, pooling indices) is served from
//! the tape's recycled pool — zero pool-miss heap allocations per
//! steady-state epoch. This test drives a *single* reused tape through a manual
//! training-shaped loop (the trainer's work-stealing executor makes
//! per-lane warm-up nondeterministic, which is why this is not asserted
//! through `Trainer::train`).

use magic_autograd::Tape;
use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
use magic_model::{Dgcnn, DgcnnConfig, GraphBatch, GraphInput, PoolingHead};
use magic_tensor::{Rng64, Tensor};

/// Fixed-size inputs: same vertex count means identical tensor shapes
/// every epoch, which is what training on padded/pooled heads sees.
fn fixed_size_input(seed: u64) -> GraphInput {
    let n = 12;
    let mut rng = Rng64::new(seed);
    let mut g = DiGraph::new(n);
    for v in 0..n - 1 {
        g.add_edge(v, v + 1);
    }
    g.add_edge(n - 1, rng.next_below(n));
    let attrs = Tensor::rand_uniform([n, NUM_ATTRIBUTES], 0.0, 3.0, &mut rng);
    GraphInput::from_acfg(&Acfg::new(g, attrs))
}

#[test]
fn steady_state_epochs_never_miss_the_pool() {
    // The adaptive head exercises the widest buffer set: the fused
    // conv → relu → AMP block's band panels, winner indices and column
    // gradients, the post-pool conv2d's im2col columns, dropout masks and
    // dense grads.
    let config = DgcnnConfig::new(2, PoolingHead::adaptive_max_pool(3));
    let model = Dgcnn::new(&config, 3);
    let inputs: Vec<GraphInput> = (0..4).map(|i| fixed_size_input(50 + i)).collect();

    let mut tape = Tape::new();
    let epoch = |tape: &mut Tape, epoch_idx: u64| {
        for (i, input) in inputs.iter().enumerate() {
            tape.reset();
            let binding = model.store().bind(tape);
            let mut rng = Rng64::for_sample(9, epoch_idx, i as u64);
            let sample = GraphBatch::single(input);
            let lp = model.forward(tape, &binding, &sample, true, std::slice::from_mut(&mut rng));
            let rows = tape.nll_loss_rows(lp, vec![i % 2]);
            let loss = tape.sum(rows);
            tape.backward(loss);
        }
        tape.reset();
    };

    // Warm-up epoch: cold pool, so misses are expected.
    epoch(&mut tape, 0);
    let warm = tape.workspace_stats();
    assert!(warm.misses > 0, "cold pool must miss at least once");
    assert!(warm.hits > 0, "even the first epoch reuses across samples");

    // Steady state: the shapes repeat, so the pool must absorb every
    // checkout — no new misses across entire epochs.
    for e in 1..4 {
        epoch(&mut tape, e);
        let stats = tape.workspace_stats();
        assert_eq!(
            stats.misses, warm.misses,
            "epoch {e} allocated outside the pool ({} new misses)",
            stats.misses - warm.misses
        );
    }
    let steady = tape.workspace_stats();
    assert!(steady.hits > warm.hits, "steady-state epochs must be served by the pool");
}

/// Same contract on the SortPooling (conv1d + max-pool) head.
#[test]
fn steady_state_epochs_never_miss_the_pool_sortpool_head() {
    let config = DgcnnConfig::new(2, PoolingHead::sort_pool_weighted(8));
    let model = Dgcnn::new(&config, 4);
    let inputs: Vec<GraphInput> = (0..4).map(|i| fixed_size_input(80 + i)).collect();

    let mut tape = Tape::new();
    let epoch = |tape: &mut Tape, epoch_idx: u64| {
        for (i, input) in inputs.iter().enumerate() {
            tape.reset();
            let binding = model.store().bind(tape);
            let mut rng = Rng64::for_sample(9, epoch_idx, i as u64);
            let sample = GraphBatch::single(input);
            let lp = model.forward(tape, &binding, &sample, true, std::slice::from_mut(&mut rng));
            let rows = tape.nll_loss_rows(lp, vec![i % 2]);
            let loss = tape.sum(rows);
            tape.backward(loss);
        }
        tape.reset();
    };

    epoch(&mut tape, 0);
    let warm = tape.workspace_stats();
    for e in 1..3 {
        epoch(&mut tape, e);
        assert_eq!(
            tape.workspace_stats().misses,
            warm.misses,
            "epoch {e} allocated outside the pool"
        );
    }
}

/// The same contract for a batch of several graphs: one tape carries a
/// whole mini-batch per pass (block-diagonal SpMM, fused GEMM head), and
/// its much larger buffers must recycle just as cleanly — zero new pool
/// misses per steady-state epoch once the batch shapes have been seen.
#[test]
fn steady_state_batched_epochs_never_miss_the_pool() {
    for head in [PoolingHead::adaptive_max_pool(3), PoolingHead::sort_pool_weighted(8)] {
        let config = DgcnnConfig::new(2, head);
        let model = Dgcnn::new(&config, 5);
        let inputs: Vec<GraphInput> = (0..4).map(|i| fixed_size_input(60 + i)).collect();
        let refs: Vec<&GraphInput> = inputs.iter().collect();
        let batch = GraphBatch::new(&refs);
        let labels: Vec<usize> = (0..4).map(|i| i % 2).collect();

        let mut tape = Tape::new();
        let epoch = |tape: &mut Tape, epoch_idx: u64| {
            tape.reset();
            let binding = model.store().bind(tape);
            let mut rngs: Vec<Rng64> =
                (0..4).map(|i| Rng64::for_sample(9, epoch_idx, i)).collect();
            let lp = model.forward(tape, &binding, &batch, true, &mut rngs);
            let losses = tape.nll_loss_rows(lp, labels.clone());
            let total = tape.sum(losses);
            tape.backward(total);
            tape.reset();
        };

        epoch(&mut tape, 0);
        let warm = tape.workspace_stats();
        assert!(warm.misses > 0, "cold pool must miss at least once");
        for e in 1..4 {
            epoch(&mut tape, e);
            let stats = tape.workspace_stats();
            assert_eq!(
                stats.misses, warm.misses,
                "batched epoch {e} allocated outside the pool ({} new misses)",
                stats.misses - warm.misses
            );
        }
        assert!(
            tape.workspace_stats().hits > warm.hits,
            "steady-state batched epochs must be served by the pool"
        );
    }
}
