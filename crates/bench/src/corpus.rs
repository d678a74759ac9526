//! Checks on the corpora the experiment binaries train on: what
//! [`RunArgs::corpus`] returns from [`magic::generate_corpus`], and what
//! the `magic-acfg/1` shard cache serves back for the same inputs.

use crate::RunArgs;
use magic::corpus_cache::{self, CacheSpec, CorpusKind, DEFAULT_SHARDS};
use magic_graph::ReduceStrategy;

mod tests {
    use super::*;

    fn args(seed: u64, scale: f64) -> RunArgs {
        RunArgs { seed, scale, ..RunArgs::quick() }
    }

    #[test]
    fn mskcfg_prepares_consistent_corpus() {
        let corpus = args(3, 0.002).corpus(CorpusKind::Mskcfg);
        assert!(!corpus.is_empty());
        assert_eq!(corpus.acfgs.len(), corpus.inputs.len());
        assert_eq!(corpus.acfgs.len(), corpus.labels.len());
        assert_eq!(corpus.class_names.len(), 9);
        assert!(corpus.graph_sizes().iter().all(|&n| n >= 2));
    }

    #[test]
    fn cached_prepare_matches_direct_prepare_bitwise() {
        let dir = std::env::temp_dir()
            .join(format!("magic-bench-prepare-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let direct = args(5, 0.002).corpus(CorpusKind::Yancfg);
        let spec = CacheSpec {
            corpus: CorpusKind::Yancfg,
            seed: 5,
            scale: 0.002,
            reduce: ReduceStrategy::None,
            shards: DEFAULT_SHARDS,
        };
        corpus_cache::build(&dir, &spec, 0, false).unwrap();
        let cached = corpus_cache::load(&dir, Some(spec.fingerprint()), 0).unwrap();
        assert_eq!(direct.labels, cached.labels);
        assert_eq!(direct.len(), cached.len());
        for (a, b) in direct.inputs.iter().zip(&cached.inputs) {
            assert_eq!(a.vertex_count(), b.vertex_count());
            assert_eq!(a.attributes().as_slice(), b.attributes().as_slice());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn yancfg_prepares_consistent_corpus() {
        let corpus = args(3, 0.001).corpus(CorpusKind::Yancfg);
        assert!(!corpus.is_empty());
        assert_eq!(corpus.class_names.len(), 13);
        // All 13 families represented (min-10 rule).
        let mut seen = [false; 13];
        for &l in &corpus.labels {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
