//! Corpus preparation: synthetic listings/CFGs through the real MAGIC
//! extraction pipeline, ready for training.

use magic::corpus_cache::{self, CacheSpec, CorpusKind, DEFAULT_SHARDS};
use magic::executor::Lanes;
use magic::pipeline::extract_acfgs_parallel;
use magic_graph::Acfg;
use magic_model::GraphInput;
use magic_synth::{MskcfgGenerator, YancfgGenerator, MSKCFG_FAMILIES, YANCFG_FAMILIES};
use std::path::Path;

/// Builds the `GraphInput`s for a slice of ACFGs across all cores,
/// preserving order (the CSR/feature build dominates post-extraction
/// prepare time).
fn inputs_parallel(acfgs: &[Acfg]) -> Vec<GraphInput> {
    Lanes::new(0).run(acfgs.len(), |_worker, i| GraphInput::from_acfg(&acfgs[i]))
}

/// A fully prepared corpus: raw ACFGs (for the feature baselines),
/// model-ready graph inputs, labels and family names.
#[derive(Debug)]
pub struct PreparedCorpus {
    /// Attributed CFGs, one per sample.
    pub acfgs: Vec<Acfg>,
    /// DGCNN-ready inputs, parallel to `acfgs`.
    pub inputs: Vec<GraphInput>,
    /// Family labels, parallel to `acfgs`.
    pub labels: Vec<usize>,
    /// Family names indexed by label.
    pub class_names: Vec<String>,
}

impl PreparedCorpus {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.acfgs.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.acfgs.is_empty()
    }

    /// Graph sizes, used to resolve pooling ratios.
    pub fn graph_sizes(&self) -> Vec<usize> {
        self.inputs.iter().map(GraphInput::vertex_count).collect()
    }
}

/// Generates the MSKCFG-like corpus and runs every listing through the
/// parser + Algorithm 1/2 + Table I attribution (in parallel, as in
/// Section IV-C).
pub fn prepare_mskcfg(seed: u64, scale: f64) -> PreparedCorpus {
    let mut generator = MskcfgGenerator::new(seed, scale);
    let samples = generator.generate();
    let listings: Vec<String> = samples.iter().map(|s| s.listing.clone()).collect();
    let extracted = extract_acfgs_parallel(&listings, 0);

    let mut acfgs = Vec::with_capacity(samples.len());
    let mut labels = Vec::with_capacity(samples.len());
    for (sample, result) in samples.iter().zip(extracted) {
        let acfg = result.expect("generated listings always parse");
        acfgs.push(acfg);
        labels.push(sample.label);
    }
    let inputs = inputs_parallel(&acfgs);
    PreparedCorpus {
        acfgs,
        inputs,
        labels,
        class_names: MSKCFG_FAMILIES.iter().map(|s| s.to_string()).collect(),
    }
}

/// Generates the YANCFG-like corpus (pre-extracted CFGs, as the real
/// dataset ships).
pub fn prepare_yancfg(seed: u64, scale: f64) -> PreparedCorpus {
    let mut generator = YancfgGenerator::new(seed, scale);
    let samples = generator.generate();
    let mut acfgs = Vec::with_capacity(samples.len());
    let mut labels = Vec::with_capacity(samples.len());
    for sample in samples {
        acfgs.push(sample.acfg);
        labels.push(sample.label);
    }
    let inputs = inputs_parallel(&acfgs);
    PreparedCorpus {
        acfgs,
        inputs,
        labels,
        class_names: YANCFG_FAMILIES.iter().map(|s| s.to_string()).collect(),
    }
}

/// Prepares a corpus through the `magic-acfg/1` shard cache: builds the
/// cache under `dir` on first use (a matching fingerprint is a no-op),
/// then loads it back with the streaming shard reader. The result is
/// bitwise identical to [`prepare_mskcfg`]/[`prepare_yancfg`].
///
/// # Panics
///
/// Panics if the cache cannot be built or read — in a bench, either is
/// a failed run.
pub fn prepare_cached(corpus: CorpusKind, seed: u64, scale: f64, dir: &Path) -> PreparedCorpus {
    let spec = CacheSpec {
        corpus,
        seed,
        scale,
        reduce: magic_graph::ReduceStrategy::None,
        shards: DEFAULT_SHARDS,
    };
    corpus_cache::build(dir, &spec, 0, false).expect("cache build failed");
    let loaded =
        corpus_cache::load(dir, Some(spec.fingerprint()), 0).expect("cache load failed");
    PreparedCorpus {
        acfgs: loaded.acfgs,
        inputs: loaded.inputs,
        labels: loaded.labels,
        class_names: loaded.class_names,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mskcfg_prepares_consistent_corpus() {
        let corpus = prepare_mskcfg(3, 0.002);
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
        let direct = prepare_yancfg(5, 0.002);
        let cached = prepare_cached(CorpusKind::Yancfg, 5, 0.002, &dir);
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
        let corpus = prepare_yancfg(3, 0.001);
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
