//! Golden training run of the original-DGCNN SortPooling + 1-D conv
//! head (Table II's "1D Convolution" rows).
//!
//! `tests/golden/reference-checkpoint.md5` pins only the adaptive head, so
//! this test pins the other conv head the same way: a tiny seeded model
//! trains for a few epochs at 1 and 2 worker lanes, and one FNV-1a 64
//! digest over its `save_weights` text and the bits of every epoch's
//! losses must equal the committed value. Any change to the head's
//! forward values, gradients, reduction order or checkpoint text moves
//! it. Re-record it only for a change that means to alter training.

use magic::checkpoint::{load_weights, save_weights};
use magic::trainer::{TrainConfig, Trainer};
use magic_integration::random_acfg;
use magic_model::{Dgcnn, DgcnnConfig, GraphInput, PoolingHead};

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Sixteen random CFG-shaped graphs of 6–21 vertices (some below and
/// some above `k`, so SortPooling both pads and truncates), two classes.
fn corpus() -> (Vec<GraphInput>, Vec<usize>) {
    let inputs = (0..16)
        .map(|i| GraphInput::from_acfg(&random_acfg(6 + i, 900 + i as u64)))
        .collect();
    let labels = (0..16).map(|i| i % 2).collect();
    (inputs, labels)
}

/// Digest of the checkpoint text and every epoch's loss bits after
/// training at `lanes` worker lanes; also returns the checkpoint.
fn train_digest(lanes: usize) -> (u64, String) {
    let (inputs, labels) = corpus();
    let config = DgcnnConfig::new(2, PoolingHead::sort_pool_conv1d(12));
    let mut model = Dgcnn::new(&config, 31);
    let trainer = Trainer::new(TrainConfig {
        epochs: 3,
        batch_size: 4,
        learning_rate: 0.01,
        seed: 5,
        train_workers: lanes,
        ..TrainConfig::default()
    });
    let train_idx: Vec<usize> = (0..12).collect();
    let val_idx: Vec<usize> = (12..16).collect();
    let outcome = trainer.train(&mut model, &inputs, &labels, &train_idx, &val_idx);
    let text = save_weights(&model);
    let mut digest = fnv1a(0xcbf2_9ce4_8422_2325, text.as_bytes());
    for stats in &outcome.history {
        digest = fnv1a(digest, &stats.train_loss.to_bits().to_le_bytes());
        digest = fnv1a(digest, &stats.val_loss.to_bits().to_le_bytes());
    }
    (digest, text)
}

#[test]
fn sortpool_conv1d_training_matches_golden_digest_at_1_and_2_lanes() {
    const GOLDEN: u64 = 0x0bd7_aad5_fe7a_33fb;
    for lanes in [1, 2] {
        let (digest, text) = train_digest(lanes);
        assert_eq!(digest, GOLDEN, "{lanes} lane(s): digest {digest:#018x}");

        // The checkpoint loads into a fresh model and saves back unchanged.
        let mut restored = Dgcnn::new(&DgcnnConfig::new(2, PoolingHead::sort_pool_conv1d(12)), 1);
        load_weights(&mut restored, &text).expect("checkpoint loads");
        assert_eq!(save_weights(&restored), text);
    }
}
