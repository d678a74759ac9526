//! Integration tests for the graph-reduction stage: the invariants the
//! strategies promise (idempotence, connectivity preservation,
//! attribute-mass conservation) hold on real synthetic corpora, a cache
//! built with `--reduce` stores exactly the reduced graphs, and
//! training on a reduced corpus stays bitwise deterministic across
//! worker counts and batching modes.

use magic::corpus_cache::{self, CacheSpec, CorpusKind};
use magic::trainer::{TrainConfig, Trainer};
use magic_autograd::first_bitwise_mismatch;
use magic_data::{CacheError, StreamedCorpus};
use magic_graph::{Acfg, Attribute, ReduceStrategy, NUM_ATTRIBUTES};
use magic_model::{Dgcnn, DgcnnConfig, PoolingHead};
use magic_synth::{MskcfgGenerator, YancfgGenerator};
use std::path::{Path, PathBuf};

const STRATEGIES: [ReduceStrategy; 4] = [
    ReduceStrategy::Chain,
    ReduceStrategy::Prune,
    ReduceStrategy::Coarsen { rounds: 1 },
    ReduceStrategy::Coarsen { rounds: 2 },
];

/// A small but real mix of both corpora's graph shapes.
fn sample_acfgs() -> Vec<Acfg> {
    let mut acfgs: Vec<Acfg> = YancfgGenerator::new(3, 0.001)
        .generate()
        .into_iter()
        .map(|s| s.acfg)
        .collect();
    for sample in MskcfgGenerator::new(5, 0.002).generate() {
        acfgs.push(magic::pipeline::extract_acfg(&sample.listing).expect("listing parses"));
    }
    assert!(acfgs.len() > 50, "corpus sample too small to be meaningful");
    acfgs
}

#[test]
fn every_strategy_is_idempotent_on_real_corpora() {
    let acfgs = sample_acfgs();
    for strategy in STRATEGIES {
        for acfg in &acfgs {
            let once = strategy.apply(acfg);
            let twice = strategy.apply(&once);
            assert_eq!(
                once, twice,
                "{} is not idempotent on a {}-vertex graph",
                strategy.name(),
                acfg.vertex_count()
            );
        }
    }
}

#[test]
fn chain_collapse_preserves_entry_reachability() {
    let mut shrunk = 0usize;
    for acfg in sample_acfgs() {
        let reduced = ReduceStrategy::Chain.apply(&acfg);
        if reduced.vertex_count() < acfg.vertex_count() {
            shrunk += 1;
        }
        // A chain merge only ever fuses a vertex into its unique
        // predecessor, so entry-reachability of the survivors must not
        // change: exactly the graphs that were fully entry-reachable
        // stay fully entry-reachable.
        let fully_before = acfg.graph().reachable_from_entry() == acfg.vertex_count();
        let fully_after = reduced.graph().reachable_from_entry() == reduced.vertex_count();
        assert_eq!(
            fully_before,
            fully_after,
            "chain collapse changed entry reachability ({} -> {} vertices)",
            acfg.vertex_count(),
            reduced.vertex_count()
        );
    }
    assert!(shrunk > 0, "chain collapse reduced no graph at all");
}

#[test]
fn attribute_mass_is_conserved_on_every_channel_but_offspring() {
    let acfgs = sample_acfgs();
    for strategy in STRATEGIES {
        for acfg in &acfgs {
            let reduced = strategy.apply(acfg);
            for channel in 0..NUM_ATTRIBUTES {
                if channel == Attribute::Offspring as usize {
                    continue; // recomputed from the reduced structure
                }
                let sum = |a: &Acfg| -> f64 {
                    (0..a.vertex_count())
                        .map(|v| a.attributes().get2(v, channel) as f64)
                        .sum()
                };
                let (before, after) = (sum(acfg), sum(&reduced));
                assert!(
                    (before - after).abs() <= 1e-3 * before.abs().max(1.0),
                    "{}: channel {channel} mass {before} -> {after}",
                    strategy.name()
                );
            }
        }
    }
}

/// Builds a yancfg cache under a fresh temp dir with the given strategy.
fn built_cache(tag: &str, reduce: ReduceStrategy) -> (PathBuf, CacheSpec) {
    let dir = std::env::temp_dir()
        .join(format!("magic-reduce-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec =
        CacheSpec { corpus: CorpusKind::Yancfg, seed: 9, scale: 0.002, reduce, shards: 3 };
    corpus_cache::build(&dir, &spec, 2, false).expect("cache build");
    (dir, spec)
}

#[test]
fn cache_roundtrip_returns_exactly_the_inline_reduction() {
    let strategy = ReduceStrategy::Chain;
    let (dir, spec) = built_cache("roundtrip", strategy);
    let loaded = corpus_cache::load(&dir, Some(spec.fingerprint()), 2).expect("load");

    let fresh: Vec<Acfg> =
        YancfgGenerator::new(9, 0.002).generate().into_iter().map(|s| s.acfg).collect();
    assert_eq!(loaded.acfgs.len(), fresh.len());
    let mut shrunk = 0usize;
    for (cached, raw) in loaded.acfgs.iter().zip(&fresh) {
        assert_eq!(cached, &strategy.apply(raw), "cached graph diverges from inline reduction");
        if cached.vertex_count() < raw.vertex_count() {
            shrunk += 1;
        }
    }
    assert!(shrunk > 0, "reduction was a no-op on the whole corpus");

    // A cache built under one strategy must never open under another:
    // the fingerprint embeds the strategy name.
    let none_spec = CacheSpec { reduce: ReduceStrategy::None, ..spec };
    match StreamedCorpus::open(&dir, Some(none_spec.fingerprint())) {
        Err(CacheError::FingerprintMismatch { .. }) => {}
        other => panic!("mismatched strategy must be a typed error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Trains one model from the cache (RAM or streamed) and returns the
/// per-epoch loss bits plus the trained model.
fn train_once(
    dir: &Path,
    spec: &CacheSpec,
    streamed: bool,
    workers: usize,
) -> (Vec<u32>, Dgcnn) {
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
    let losses = outcome.history.iter().map(|e| e.train_loss.to_bits()).collect();
    (losses, model)
}

#[test]
fn reduced_training_is_bitwise_deterministic_across_engines() {
    let (dir, spec) = built_cache("determinism", ReduceStrategy::Chain);
    let (ram_losses, ram_model) = train_once(&dir, &spec, false, 1);

    for workers in [1, 2, 4] {
        let (losses, model) = train_once(&dir, &spec, true, workers);
        assert_eq!(
            ram_losses, losses,
            "reduced-corpus loss curve diverged (workers={workers})"
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
