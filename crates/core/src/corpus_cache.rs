//! Sharded binary ACFG corpus cache: parallel build, no-op reruns, and
//! RAM/streaming load paths.
//!
//! The synthetic corpora are deterministic functions of `(generator,
//! seed, scale)`, but regenerating them — listing synthesis plus the
//! parse → CFG → ACFG front half — dominates short experiment loops.
//! This module materializes a corpus once into `magic-acfg/1` shards
//! (see [`magic_data::cache`]) keyed by the configuration fingerprint,
//! so every later `train`/`profile`/`bench` run starts from decoded
//! graphs instead of re-running extraction.
//!
//! Determinism contract: shards store raw (unscaled) Table I attribute
//! counts in sample order, exactly as `generate()` would have produced
//! them. [`build`] renders samples in parallel from the generator's
//! serial [`plan`](magic_synth::MskcfgGenerator::plan), so the cached
//! corpus is bitwise identical to the in-memory corpus regardless of
//! worker count, and a rerun with a matching fingerprint is a no-op.

use crate::executor::Lanes;
use crate::pipeline::extract_acfg;
use magic_data::{
    cache_fingerprint, write_shard, CacheError, CacheManifest, ShardMeta, ShardRecord,
    ShardStream, StreamedCorpus,
};
use magic_graph::{Acfg, ReduceStrategy};
use magic_model::GraphInput;
use magic_synth::{MskcfgGenerator, YancfgGenerator, MSKCFG_FAMILIES, YANCFG_FAMILIES};
use std::fmt;
use std::path::Path;

/// Default shard count for `magic cache build`.
pub const DEFAULT_SHARDS: usize = 4;

/// Which synthetic corpus a cache holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusKind {
    /// MSKCFG: synthetic IDA-style listings run through real extraction.
    Mskcfg,
    /// YANCFG: ACFGs generated directly from family profiles.
    Yancfg,
}

impl CorpusKind {
    /// Canonical generator name as used on the CLI and in manifests.
    pub fn name(self) -> &'static str {
        match self {
            CorpusKind::Mskcfg => "mskcfg",
            CorpusKind::Yancfg => "yancfg",
        }
    }

    /// Family names of the corpus, indexable by record label.
    pub fn class_names(self) -> Vec<String> {
        match self {
            CorpusKind::Mskcfg => MSKCFG_FAMILIES.iter().map(|s| s.to_string()).collect(),
            CorpusKind::Yancfg => YANCFG_FAMILIES.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Parses a CLI corpus name.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for unknown names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "mskcfg" => Ok(CorpusKind::Mskcfg),
            "yancfg" => Ok(CorpusKind::Yancfg),
            other => Err(format!("unknown corpus {other:?} (mskcfg|yancfg)")),
        }
    }
}

impl fmt::Display for CorpusKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything that identifies a cached corpus: the fingerprint inputs
/// plus the shard layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSpec {
    /// Which generator to run.
    pub corpus: CorpusKind,
    /// Generator seed.
    pub seed: u64,
    /// Generator scale (fraction of the paper's per-family counts).
    pub scale: f64,
    /// Graph-reduction strategy applied to every sample before it is
    /// written into the shards.
    pub reduce: ReduceStrategy,
    /// Number of shard files to split the corpus across.
    pub shards: usize,
}

impl CacheSpec {
    /// Configuration fingerprint (shard count excluded — shards chunk
    /// the same sample sequence contiguously, so layout never changes
    /// sample identity or order; the reduce strategy *is* included,
    /// because shards store already-reduced graphs).
    pub fn fingerprint(&self) -> u64 {
        cache_fingerprint(self.corpus.name(), self.seed, self.scale, &self.reduce.name())
    }
}

/// Result of [`build`]: the manifest plus whether work actually ran.
#[derive(Debug)]
pub struct BuildOutcome {
    /// Manifest describing the cache directory.
    pub manifest: CacheManifest,
    /// `false` when an up-to-date cache was found and left untouched.
    pub rebuilt: bool,
    /// Total shard bytes on disk.
    pub bytes: u64,
}

/// A corpus fully decoded into RAM, ready for the in-memory trainer.
#[derive(Debug)]
pub struct LoadedCorpus {
    /// Raw-attribute ACFGs in canonical sample order.
    pub acfgs: Vec<Acfg>,
    /// Model-ready inputs (log-scaled attributes, CSR adjacency).
    pub inputs: Vec<GraphInput>,
    /// Class labels, parallel to `inputs`.
    pub labels: Vec<usize>,
    /// Family names, indexable by label.
    pub class_names: Vec<String>,
}

/// Renders every sample of `spec`'s corpus in parallel (including
/// `spec.reduce` reduction — shards store reduced graphs) and returns
/// the records in canonical (`generate()`) order.
fn render_records(spec: &CacheSpec, workers: usize) -> Result<Vec<ShardRecord>, CacheError> {
    let lanes = Lanes::new(workers);
    let reduce = spec.reduce;
    match spec.corpus {
        CorpusKind::Mskcfg => {
            let mut generator = MskcfgGenerator::new(spec.seed, spec.scale);
            let plan = generator.plan();
            let profiles = generator.profiles();
            let rendered = lanes.run(plan.len(), |_worker, i| {
                let (label, mut rng) = plan[i].clone();
                let sample = MskcfgGenerator::render(profiles, label, &mut rng);
                extract_acfg(&sample.listing)
                    .map(|acfg| ShardRecord { label, acfg: reduce.apply(&acfg) })
                    .map_err(|e| format!("sample {i}: {e}"))
            });
            rendered
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(CacheError::Corrupt)
        }
        CorpusKind::Yancfg => {
            let mut generator = YancfgGenerator::new(spec.seed, spec.scale);
            let plan = generator.plan();
            let profiles = generator.profiles();
            Ok(lanes.run(plan.len(), |_worker, i| {
                let (label, mut rng) = plan[i].clone();
                let sample = YancfgGenerator::render(profiles, label, &mut rng);
                ShardRecord { label, acfg: reduce.apply(&sample.acfg) }
            }))
        }
    }
}

/// Splits `n` samples into `shards` contiguous chunks whose sizes differ
/// by at most one (earlier shards take the remainder).
fn shard_sizes(n: usize, shards: usize) -> Vec<usize> {
    let shards = shards.clamp(1, n.max(1));
    let base = n / shards;
    let extra = n % shards;
    (0..shards).map(|s| base + usize::from(s < extra)).collect()
}

/// Builds (or verifies) the cache for `spec` under `dir`.
///
/// When `dir` already holds a manifest with a matching fingerprint and
/// `force` is false, nothing is written and `rebuilt` is `false`.
/// Otherwise the corpus is rendered across `workers` threads (0 = all
/// cores), chunked contiguously into `spec.shards` files, and written
/// with a fresh manifest.
///
/// # Errors
///
/// Returns [`CacheError`] on I/O failure or if a generated listing
/// fails extraction (which would indicate a generator bug).
pub fn build(dir: &Path, spec: &CacheSpec, workers: usize, force: bool) -> Result<BuildOutcome, CacheError> {
    let fingerprint = spec.fingerprint();
    if !force {
        if let Ok(manifest) = CacheManifest::load(dir) {
            if manifest.fingerprint == fingerprint {
                let bytes = manifest.shards.iter().map(|s| s.bytes).sum();
                return Ok(BuildOutcome { manifest, rebuilt: false, bytes });
            }
        }
    }
    std::fs::create_dir_all(dir)?;

    let records = render_records(spec, workers)?;
    let sizes = shard_sizes(records.len(), spec.shards);
    let _span = magic_obs::span_fields(
        magic_obs::stage::CACHE_BUILD,
        &[("samples", records.len() as f64), ("shards", sizes.len() as f64)],
    );

    let mut shards = Vec::with_capacity(sizes.len());
    let mut total_bytes = 0u64;
    let mut offset = 0usize;
    for (s, &size) in sizes.iter().enumerate() {
        let chunk = &records[offset..offset + size];
        offset += size;
        let file = format!("shard-{s:04}.acfg");
        let bytes = write_shard(&dir.join(&file), fingerprint, s, sizes.len(), chunk)?;
        total_bytes += bytes;
        shards.push(ShardMeta { file, records: chunk.len(), bytes });
    }

    let manifest = CacheManifest {
        fingerprint,
        corpus: spec.corpus.name().to_string(),
        seed: spec.seed,
        scale: spec.scale,
        reduce: spec.reduce.name(),
        samples: records.len(),
        class_names: spec.corpus.class_names(),
        shards,
    };
    manifest.save(dir)?;
    Ok(BuildOutcome { manifest, rebuilt: true, bytes: total_bytes })
}

/// Loads a cache directory fully into RAM, building [`GraphInput`]s in
/// parallel per shard while the next shard decodes in the background.
///
/// Pass `expected_fingerprint` to reject caches built for a different
/// configuration; `None` accepts whatever the manifest describes.
///
/// # Errors
///
/// Returns [`CacheError`] for a missing, damaged, or mismatched cache.
pub fn load(
    dir: &Path,
    expected_fingerprint: Option<u64>,
    workers: usize,
) -> Result<LoadedCorpus, CacheError> {
    let (manifest, stream) = ShardStream::open(dir, expected_fingerprint)?;
    let lanes = Lanes::new(workers);
    let mut acfgs = Vec::with_capacity(manifest.samples);
    let mut inputs = Vec::with_capacity(manifest.samples);
    let mut labels = Vec::with_capacity(manifest.samples);
    for shard in stream {
        let shard = shard?;
        // The CSR/feature build is the compute-heavy part of loading;
        // run it across workers while the prefetch thread decodes the
        // next shard.
        let shard_inputs =
            lanes.run(shard.records.len(), |_worker, i| shard.records[i].to_graph_input());
        for (record, input) in shard.records.into_iter().zip(shard_inputs) {
            labels.push(record.label);
            acfgs.push(record.acfg);
            inputs.push(input);
        }
    }
    Ok(LoadedCorpus { acfgs, inputs, labels, class_names: manifest.class_names })
}

/// Opens a cache for shard-at-a-time streaming (random access by global
/// sample index, shards kept on disk). Thin wrapper over
/// [`StreamedCorpus::open`] so callers only need this module.
///
/// # Errors
///
/// Returns [`CacheError`] for a missing, damaged, or mismatched cache.
pub fn open_streaming(
    dir: &Path,
    expected_fingerprint: Option<u64>,
) -> Result<StreamedCorpus, CacheError> {
    StreamedCorpus::open(dir, expected_fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("magic-corpus-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec(corpus: CorpusKind) -> CacheSpec {
        CacheSpec { corpus, seed: 7, scale: 0.002, reduce: ReduceStrategy::None, shards: 3 }
    }

    #[test]
    fn shard_sizes_are_contiguous_and_balanced() {
        assert_eq!(shard_sizes(10, 3), vec![4, 3, 3]);
        assert_eq!(shard_sizes(3, 4), vec![1, 1, 1]);
        assert_eq!(shard_sizes(0, 4), vec![0]);
        assert_eq!(shard_sizes(8, 1), vec![8]);
    }

    #[test]
    fn build_matches_generate_and_rerun_is_noop() {
        let dir = tmp_dir("noop");
        let spec = tiny_spec(CorpusKind::Yancfg);
        let first = build(&dir, &spec, 3, false).unwrap();
        assert!(first.rebuilt);
        assert_eq!(first.manifest.samples, first.manifest.shards.iter().map(|s| s.records).sum());

        // Rerun with a matching fingerprint touches nothing.
        let again = build(&dir, &spec, 1, false).unwrap();
        assert!(!again.rebuilt);
        assert_eq!(again.manifest.fingerprint, first.manifest.fingerprint);

        // The cached corpus is bitwise what generate() produces.
        let loaded = load(&dir, Some(spec.fingerprint()), 2).unwrap();
        let samples = YancfgGenerator::new(spec.seed, spec.scale).generate();
        assert_eq!(loaded.labels.len(), samples.len());
        for (cached, fresh) in loaded.acfgs.iter().zip(&samples) {
            assert_eq!(cached.vertex_count(), fresh.acfg.vertex_count());
            assert!(cached.attributes().approx_eq(fresh.acfg.attributes(), 0.0));
        }
        let labels: Vec<usize> = samples.iter().map(|s| s.label).collect();
        assert_eq!(loaded.labels, labels);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mskcfg_cache_round_trips_through_extraction() {
        let dir = tmp_dir("msk");
        let spec = CacheSpec {
            corpus: CorpusKind::Mskcfg,
            seed: 11,
            scale: 0.001,
            reduce: ReduceStrategy::None,
            shards: 2,
        };
        let outcome = build(&dir, &spec, 2, false).unwrap();
        assert!(outcome.rebuilt);
        let loaded = load(&dir, Some(spec.fingerprint()), 2).unwrap();
        assert_eq!(loaded.inputs.len(), outcome.manifest.samples);
        assert_eq!(loaded.class_names.len(), MSKCFG_FAMILIES.len());

        // Streaming access agrees with the RAM load, input by input.
        let streamed = open_streaming(&dir, Some(spec.fingerprint())).unwrap();
        assert_eq!(streamed.len(), loaded.inputs.len());
        let idx: Vec<usize> = (0..streamed.len()).collect();
        let fetched = streamed.fetch(&idx).unwrap();
        for (a, b) in fetched.iter().zip(&loaded.inputs) {
            assert_eq!(a.vertex_count(), b.vertex_count());
            assert_eq!(a.attributes().as_slice(), b.attributes().as_slice());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reduced_cache_stores_reduced_graphs_and_gates_by_strategy() {
        let dir = tmp_dir("reduced");
        let spec = CacheSpec { reduce: ReduceStrategy::Chain, ..tiny_spec(CorpusKind::Yancfg) };
        let outcome = build(&dir, &spec, 2, false).unwrap();
        assert!(outcome.rebuilt);
        assert_eq!(outcome.manifest.reduce, "chain");

        // Shards hold graphs that chain-collapse already fixed.
        let loaded = load(&dir, Some(spec.fingerprint()), 2).unwrap();
        let unreduced = YancfgGenerator::new(spec.seed, spec.scale).generate();
        let mut shrank = false;
        for (cached, fresh) in loaded.acfgs.iter().zip(&unreduced) {
            assert_eq!(cached, &ReduceStrategy::Chain.apply(&fresh.acfg));
            shrank |= cached.vertex_count() < fresh.acfg.vertex_count();
        }
        assert!(shrank, "chain collapse must shrink at least one yancfg graph");

        // A cache built with one strategy never silently serves another.
        let other = CacheSpec { reduce: ReduceStrategy::None, ..spec };
        assert_ne!(spec.fingerprint(), other.fingerprint());
        let err = load(&dir, Some(other.fingerprint()), 1).unwrap_err();
        assert!(matches!(err, CacheError::FingerprintMismatch { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn force_rebuild_rewrites_and_fingerprint_gates_load() {
        let dir = tmp_dir("force");
        let spec = tiny_spec(CorpusKind::Yancfg);
        build(&dir, &spec, 1, false).unwrap();
        let forced = build(&dir, &spec, 1, true).unwrap();
        assert!(forced.rebuilt);

        let other = CacheSpec { seed: spec.seed + 1, ..spec };
        let err = load(&dir, Some(other.fingerprint()), 1).unwrap_err();
        assert!(matches!(err, CacheError::FingerprintMismatch { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
