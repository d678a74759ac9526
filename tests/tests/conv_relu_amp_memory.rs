//! The adaptive head never materialises its full-resolution conv map.
//!
//! Unfused, the head's first block keeps a `(16, n·Σc_t)` conv output
//! and its ReLU alive on the tape, and its backward scatters into a map
//! of the same size: each is `16·n·Σc_t·4` bytes. The fused
//! Conv2D → ReLU → AMP op convolves and pools one band of rows at a time,
//! so the tensor high-water of a whole forward + backward stays below one
//! such map.
//!
//! `magic_tensor::mem` accounting is process-global, which is why this
//! test lives in its own integration binary: no other test may allocate
//! tensors while it measures.

use magic_autograd::Tape;
use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
use magic_model::{Dgcnn, DgcnnConfig, GraphBatch, GraphInput, PoolingHead};
use magic_tensor::{mem, Rng64, Tensor};

#[test]
fn adaptive_head_high_water_stays_below_one_conv_map() {
    let n = 240;
    let mut rng = Rng64::new(5);
    let mut g = DiGraph::new(n);
    for v in 0..n - 1 {
        g.add_edge(v, v + 1);
    }
    for _ in 0..n {
        g.add_edge(rng.next_below(n), rng.next_below(n));
    }
    let attrs = Tensor::rand_uniform([n, NUM_ATTRIBUTES], 0.0, 3.0, &mut rng);
    let input = GraphInput::from_acfg(&Acfg::new(g, attrs));

    // The paper's best configuration: Σc_t = 256, 16 channels, 6×6 grid.
    let mut config = DgcnnConfig::new(9, PoolingHead::adaptive_max_pool(6));
    config.conv_sizes = vec![128, 64, 32, 32];
    let model = Dgcnn::new(&config, 3);
    let channels = 16;
    let conv_map_bytes = (channels * n * config.concat_channels() * 4) as u64;

    mem::reset();
    mem::enable();
    let mut tape = Tape::new();
    let binding = model.store().bind(&mut tape);
    let mut rngs = [Rng64::new(1)];
    let lp = model.forward(&mut tape, &binding, &GraphBatch::single(&input), true, &mut rngs);
    let rows = tape.nll_loss_rows(lp, vec![4]);
    let loss = tape.sum(rows);
    tape.backward(loss);
    let peak = mem::stats().peak_bytes;
    mem::disable();

    assert!(tape.grad(binding.var(model.store().find("head.pre.weight").unwrap())).is_some());
    assert!(
        peak < conv_map_bytes,
        "tensor high-water {peak} B reaches one 16·n·Σc_t map ({conv_map_bytes} B)"
    );
}
