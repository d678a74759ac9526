//! Integration tests for the `magic-acfg/1` shard cache: damage
//! tolerance (every corruption is a typed [`CacheError`], never a
//! panic — the same contract `magic-trace` keeps via `malformed_lines`)
//! and the tentpole invariant that training streamed from shards is
//! bitwise identical to training from RAM, across worker counts and
//! both engines.

use magic::corpus_cache::{self, CacheSpec, CorpusKind};
use magic::trainer::{EpochStats, TrainConfig, Trainer};
use magic_autograd::first_bitwise_mismatch;
use magic_data::{CacheError, CacheManifest, ShardReader, StreamedCorpus};
use magic_model::{Dgcnn, DgcnnConfig, PoolingHead};
use std::path::{Path, PathBuf};

/// A fresh temp cache directory holding a small real yancfg corpus.
fn built_cache(tag: &str) -> (PathBuf, CacheSpec) {
    let dir = std::env::temp_dir()
        .join(format!("magic-cache-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CacheSpec {
        corpus: CorpusKind::Yancfg,
        seed: 9,
        scale: 0.002,
        reduce: magic_graph::ReduceStrategy::None,
        shards: 3,
    };
    corpus_cache::build(&dir, &spec, 2, false).expect("cache build");
    (dir, spec)
}

fn first_shard(dir: &Path) -> PathBuf {
    let manifest = CacheManifest::load(dir).expect("manifest loads");
    dir.join(&manifest.shards[0].file)
}

/// Applies `mutate` to the first shard's bytes and rewrites it.
fn damage_first_shard(dir: &Path, mutate: impl FnOnce(&mut Vec<u8>)) {
    let path = first_shard(dir);
    let mut bytes = std::fs::read(&path).expect("read shard");
    mutate(&mut bytes);
    std::fs::write(&path, bytes).expect("rewrite shard");
}

/// Opening the streamed corpus revalidates every shard, so it surfaces
/// whatever damage was injected.
fn open_error(dir: &Path) -> CacheError {
    match StreamedCorpus::open(dir, None) {
        Err(e) => e,
        Ok(_) => panic!("damaged cache must not open"),
    }
}

#[test]
fn truncated_shard_is_a_typed_error() {
    let (dir, _) = built_cache("truncated");
    damage_first_shard(&dir, |bytes| bytes.truncate(bytes.len() / 2));
    assert!(matches!(open_error(&dir), CacheError::Truncated { .. }));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_payload_bit_is_a_checksum_mismatch() {
    let (dir, _) = built_cache("checksum");
    damage_first_shard(&dir, |bytes| {
        // Flip one bit in the middle of the payload (well past the
        // 48-byte header and the index).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
    });
    assert!(matches!(open_error(&dir), CacheError::ChecksumMismatch { .. }));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn future_version_and_bad_magic_are_rejected() {
    let (dir, _) = built_cache("version");
    damage_first_shard(&dir, |bytes| bytes[8] = 99); // version field
    assert!(matches!(
        open_error(&dir),
        CacheError::UnsupportedVersion { found: 99 }
    ));
    damage_first_shard(&dir, |bytes| bytes[0] = b'X'); // magic field
    assert!(matches!(open_error(&dir), CacheError::BadMagic));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fingerprint_mismatch_is_detected_at_every_layer() {
    let (dir, spec) = built_cache("fingerprint");
    let wrong = spec.fingerprint() ^ 1;
    // The manifest gate.
    let manifest_err = match StreamedCorpus::open(&dir, Some(wrong)) {
        Err(e) => e,
        Ok(_) => panic!("wrong fingerprint must not open"),
    };
    assert!(matches!(manifest_err, CacheError::FingerprintMismatch { .. }));
    // The per-shard-header gate, bypassing the manifest entirely.
    let reader = ShardReader::open(&first_shard(&dir)).expect("intact shard opens");
    assert!(matches!(
        reader.expect_fingerprint(wrong).unwrap_err(),
        CacheError::FingerprintMismatch { .. }
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_record_shard_is_an_empty_shard_error() {
    let (dir, _) = built_cache("empty");
    damage_first_shard(&dir, |bytes| bytes[32..36].fill(0)); // record_count field
    assert!(matches!(open_error(&dir), CacheError::EmptyShard));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bits of every field of an epoch history: epoch, train loss,
/// validation loss, validation accuracy and learning rate.
type HistoryBits = Vec<(usize, u32, u32, u64, u32)>;

fn history_bits(history: &[EpochStats]) -> HistoryBits {
    history
        .iter()
        .map(|e| {
            (
                e.epoch,
                e.train_loss.to_bits(),
                e.val_loss.to_bits(),
                e.val_accuracy.to_bits(),
                e.learning_rate.to_bits(),
            )
        })
        .collect()
}

/// Trains one model either from RAM or streamed from shards and
/// returns the bits of its epoch history plus the trained model.
fn train_once(
    dir: &Path,
    spec: &CacheSpec,
    streamed: bool,
    workers: usize,
) -> (HistoryBits, Dgcnn) {
    let config = DgcnnConfig::new(13, PoolingHead::sort_pool_weighted(8));
    let mut model = Dgcnn::new(&config, 17);
    let trainer = Trainer::new(TrainConfig {
        epochs: 3,
        batch_size: 8,
        learning_rate: 0.01,
        seed: 23,
        train_workers: workers,
        ..TrainConfig::default()
    });
    let outcome = if streamed {
        let corpus = StreamedCorpus::open(dir, Some(spec.fingerprint())).expect("open streamed");
        let labels = corpus.labels().to_vec();
        let n = corpus.len();
        let train_idx: Vec<usize> = (0..n * 3 / 4).collect();
        let val_idx: Vec<usize> = (n * 3 / 4..n).collect();
        trainer.train_streamed(&mut model, &corpus, &labels, &train_idx, &val_idx)
    } else {
        let loaded =
            corpus_cache::load(dir, Some(spec.fingerprint()), workers).expect("load to RAM");
        let n = loaded.inputs.len();
        let train_idx: Vec<usize> = (0..n * 3 / 4).collect();
        let val_idx: Vec<usize> = (n * 3 / 4..n).collect();
        trainer.train(&mut model, &loaded.inputs, &loaded.labels, &train_idx, &val_idx)
    };
    (history_bits(&outcome.history), model)
}

#[test]
fn streamed_training_is_bitwise_identical_to_in_memory() {
    let (dir, spec) = built_cache("parity");
    let (ram_history, ram_model) = train_once(&dir, &spec, false, 1);

    for workers in [1, 2, 4] {
        let (history, model) = train_once(&dir, &spec, true, workers);
        assert_eq!(
            ram_history, history,
            "streamed epoch history diverged (workers={workers})"
        );
        for (name, value) in model.store().iter() {
            let id = ram_model.store().find(name).expect("same parameter set");
            assert_eq!(
                first_bitwise_mismatch(value, ram_model.store().value(id)),
                None,
                "weights for {name} diverged (workers={workers})"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
