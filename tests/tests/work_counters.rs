//! Exact work counters of one profiled training epoch, per pooling head.
//!
//! A traced epoch on one lane records an `op_profile` row per op kind,
//! phase and shape class: how many times the op ran and the FLOPs it was
//! charged. Those counts depend only on the model, the graphs and the
//! batch order, never on timing, so they are pinned exactly. A change
//! that swaps the sparse `spmm_norm` propagation for a dense `Â` product,
//! or records a different op mix, moves them.
//!
//! The second counter is the number of workspace-pool checkouts of one
//! warm training sample (forward and backward on a reused tape). Every
//! buffer an op draws from the pool is one checkout; losing the im2col
//! lowering of a convolution removes its column buffers and moves the
//! count.
//!
//! Both were recorded three times before pinning; every value repeated
//! exactly. A change that moves one re-records it and says why.
//!
//! These tests install the process-global recorder, so they serialize
//! on a local mutex and live in their own integration binary.

use magic::trainer::{TrainConfig, Trainer};
use magic_autograd::Tape;
use magic_integration::random_acfg;
use magic_model::{Dgcnn, DgcnnConfig, GraphBatch, GraphInput, PoolingHead};
use magic_obs::report::TraceSummary;
use magic_obs::JsonlRecorder;
use magic_tensor::Rng64;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// The global recorder slot is shared by every test in this binary. A
/// failed test only poisons the lock; it guards no data.
static GLOBAL_RECORDER: Mutex<()> = Mutex::new(());

/// `(kind, phase, calls, flops)` of every tape-op row of one epoch,
/// summed over shape classes.
type OpCounts = Vec<(String, String, u64, u64)>;

/// Sixteen CFG-shaped graphs of 6 to 36 vertices, two classes.
fn corpus() -> (Vec<GraphInput>, Vec<usize>) {
    let inputs = (0..16).map(|i| GraphInput::from_acfg(&random_acfg(6 + 2 * i, 100 + i as u64)));
    (inputs.collect(), (0..16).map(|i| i % 2).collect())
}

/// One profiled epoch of 12 training samples in batches of 4 on one
/// lane (4 validation samples, not profiled), returning the tape-op rows.
fn profiled_epoch(head: PoolingHead, file: &str) -> OpCounts {
    let _guard = GLOBAL_RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let (inputs, labels) = corpus();
    let mut model = Dgcnn::new(&DgcnnConfig::new(2, head), 13);
    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 4,
        learning_rate: 0.02,
        seed: 5,
        train_workers: 1,
        ..TrainConfig::default()
    });
    let train_idx: Vec<usize> = (0..12).collect();
    let val_idx: Vec<usize> = (12..16).collect();

    let dir = std::env::temp_dir().join(format!("magic-work-counters-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file);
    magic_obs::install(Arc::new(JsonlRecorder::create(&path).unwrap()));
    let _ = trainer.train(&mut model, &inputs, &labels, &train_idx, &val_idx);
    magic_obs::uninstall();

    let text = std::fs::read_to_string(&path).unwrap();
    let summary = TraceSummary::from_lines(text.lines()).unwrap();
    let mut rows: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
    for op in summary.ops.iter().filter(|o| o.phase != "host") {
        let row = rows.entry((op.kind.clone(), op.phase.clone())).or_default();
        row.0 += op.calls;
        row.1 += op.flops;
    }
    rows.into_iter().map(|((kind, phase), (calls, flops))| (kind, phase, calls, flops)).collect()
}

/// Pool hits and misses of the third forward + backward of one
/// 20-vertex training sample (dropout on), on a tape reused across the
/// three passes.
fn warm_sample_pool(head: PoolingHead) -> (u64, u64) {
    let model = Dgcnn::new(&DgcnnConfig::new(2, head), 3);
    let input = GraphInput::from_acfg(&random_acfg(20, 41));
    let sample = GraphBatch::single(&input);
    let mut tape = Tape::new();
    let mut warm = (0, 0);
    for _ in 0..3 {
        let before = tape.workspace_stats();
        tape.reset();
        let binding = model.store().bind(&mut tape);
        let mut rng = Rng64::for_sample(9, 0, 0);
        let lp = model.forward(&mut tape, &binding, &sample, true, std::slice::from_mut(&mut rng));
        let rows = tape.nll_loss_rows(lp, vec![1]);
        let loss = tape.sum(rows);
        tape.backward(loss);
        let after = tape.workspace_stats();
        warm = (after.hits - before.hits, after.misses - before.misses);
    }
    warm
}

/// Compares the measured rows with the pinned ones, printing the
/// measured table in pin syntax when they differ.
fn assert_rows(head: &str, got: &OpCounts, pinned: &[(&str, &str, u64, u64)]) {
    let expected: OpCounts = pinned
        .iter()
        .map(|&(kind, phase, calls, flops)| (kind.to_string(), phase.to_string(), calls, flops))
        .collect();
    if got != &expected {
        let table: String = got
            .iter()
            .map(|(kind, phase, calls, flops)| {
                format!("    (\"{kind}\", \"{phase}\", {calls}, {flops}),\n")
            })
            .collect();
        panic!("{head}: op counts moved; measured rows:\n{table}");
    }
}

#[test]
fn adaptive_head_epoch_work_is_pinned() {
    let got = profiled_epoch(PoolingHead::adaptive_max_pool(3), "adaptive.jsonl");
    assert_rows(
        "adaptive",
        &got,
        &[
            ("add_bias", "bwd", 24, 3120),
            ("add_bias", "fwd", 24, 1560),
            ("concat_cols", "bwd", 12, 0),
            ("concat_cols", "fwd", 12, 0),
            ("conv2d.batched", "bwd", 12, 998784),
            ("conv2d.batched", "fwd", 12, 499392),
            ("conv2d_relu_amp.batched", "bwd", 12, 58320),
            ("conv2d_relu_amp.batched", "fwd", 12, 8355840),
            ("dropout", "bwd", 12, 3072),
            ("dropout", "fwd", 12, 1536),
            ("gemm.batched", "bwd", 48, 2793984),
            ("gemm.batched", "fwd", 48, 1396992),
            ("im2col", "fwd", 12, 0),
            ("log_softmax", "bwd", 12, 240),
            ("log_softmax", "fwd", 12, 120),
            ("matmul", "bwd", 24, 897024),
            ("matmul", "fwd", 24, 448512),
            ("nll_loss.batched", "bwd", 12, 24),
            ("nll_loss.batched", "fwd", 12, 12),
            ("relu", "bwd", 72, 58752),
            ("relu", "fwd", 72, 29376),
            ("reshape", "bwd", 12, 0),
            ("reshape", "fwd", 12, 0),
            ("spmm_norm.batched", "fwd", 48, 142336),
            ("spmm_norm_t.batched", "bwd", 48, 142336),
            ("sum", "bwd", 12, 24),
            ("sum", "fwd", 12, 12),
            ("unstack_cols.batched", "bwd", 12, 0),
            ("unstack_cols.batched", "fwd", 12, 0),
        ],
    );
}

#[test]
fn sortpool_conv1d_head_epoch_work_is_pinned() {
    let got = profiled_epoch(PoolingHead::sort_pool_conv1d(12), "sortpool-conv1d.jsonl");
    assert_rows(
        "sortpool-conv1d",
        &got,
        &[
            ("add_bias", "bwd", 24, 3120),
            ("add_bias", "fwd", 24, 1560),
            ("concat_cols", "bwd", 12, 0),
            ("concat_cols", "fwd", 12, 0),
            ("conv2d.batched", "bwd", 24, 1431552),
            ("conv2d.batched", "fwd", 24, 715776),
            ("dropout", "bwd", 12, 3072),
            ("dropout", "fwd", 12, 1536),
            ("gather_pad.batched", "bwd", 12, 0),
            ("gather_pad.batched", "fwd", 12, 0),
            ("gemm.batched", "bwd", 48, 2793984),
            ("gemm.batched", "fwd", 48, 1396992),
            ("im2col", "fwd", 24, 0),
            ("log_softmax", "bwd", 12, 240),
            ("log_softmax", "fwd", 12, 120),
            ("matmul", "bwd", 24, 405504),
            ("matmul", "fwd", 24, 202752),
            ("max_pool1d.batched", "bwd", 12, 0),
            ("max_pool1d.batched", "fwd", 12, 0),
            ("nll_loss.batched", "bwd", 12, 24),
            ("nll_loss.batched", "fwd", 12, 12),
            ("relu", "bwd", 84, 61440),
            ("relu", "fwd", 84, 30720),
            ("reshape", "bwd", 12, 0),
            ("reshape", "fwd", 12, 0),
            ("spmm_norm.batched", "fwd", 48, 142336),
            ("spmm_norm_t.batched", "bwd", 48, 142336),
            ("sum", "bwd", 12, 24),
            ("sum", "fwd", 12, 12),
            ("unstack_cols.batched", "bwd", 12, 0),
            ("unstack_cols.batched", "fwd", 12, 0),
        ],
    );
}

#[test]
fn sortpool_weighted_head_epoch_work_is_pinned() {
    let got = profiled_epoch(PoolingHead::sort_pool_weighted(8), "sortpool-weighted.jsonl");
    assert_rows(
        "sortpool-weighted",
        &got,
        &[
            ("add_bias", "bwd", 24, 3120),
            ("add_bias", "fwd", 24, 1560),
            ("concat_cols", "bwd", 12, 0),
            ("concat_cols", "fwd", 12, 0),
            ("dropout", "bwd", 12, 3072),
            ("dropout", "fwd", 12, 1536),
            ("gather_pad.batched", "bwd", 12, 0),
            ("gather_pad.batched", "fwd", 12, 0),
            ("gemm.batched", "bwd", 60, 2843136),
            ("gemm.batched", "fwd", 60, 1421568),
            ("log_softmax", "bwd", 12, 240),
            ("log_softmax", "fwd", 12, 120),
            ("matmul", "bwd", 24, 798720),
            ("matmul", "fwd", 24, 399360),
            ("nll_loss.batched", "bwd", 12, 24),
            ("nll_loss.batched", "fwd", 12, 12),
            ("relu", "bwd", 72, 58368),
            ("relu", "fwd", 72, 29184),
            ("spmm_norm.batched", "fwd", 48, 142336),
            ("spmm_norm_t.batched", "bwd", 48, 142336),
            ("sum", "bwd", 12, 24),
            ("sum", "fwd", 12, 12),
        ],
    );
}

#[test]
fn warm_sample_pool_checkouts_are_pinned() {
    let got = [
        PoolingHead::adaptive_max_pool(3),
        PoolingHead::sort_pool_conv1d(12),
        PoolingHead::sort_pool_weighted(8),
    ]
    .map(warm_sample_pool);
    // (hits, misses) per head: adaptive, SortPool + conv1d, SortPool +
    // weighted. A warm sample checks every buffer out of the pool.
    assert_eq!(got, [(74, 0), (79, 0), (59, 0)]);
}
