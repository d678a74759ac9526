//! The one corpus recipe — `(corpus, seed, scale, reduce)` to model
//! inputs — plus the sharded binary ACFG cache that stores its output:
//! parallel build, no-op reruns, and RAM/streaming load paths.
//!
//! [`generate`] is the recipe: the generator's serial
//! [`plan`](magic_synth::MskcfgGenerator::plan), then render → parse →
//! CFG → ACFG → reduce per sample across worker lanes. Everything that
//! trains or evaluates on a synthetic corpus (the CLI, the experiment
//! binaries, the examples) calls it. Regenerating a corpus dominates
//! short experiment loops, so [`build`] runs the same render path once
//! and writes its records into `magic-acfg/1` shards (see
//! [`magic_data::cache`]) keyed by the configuration fingerprint; later
//! `train`/`profile`/`bench` runs start from decoded graphs instead.
//!
//! Determinism contract: samples come out in `generate()` order with
//! raw (unscaled) Table I attribute counts, bitwise identical to the
//! generator's own serial `generate()` → extract → reduce chain for any
//! worker count, so the cached corpus equals the in-memory one and a
//! rerun with a matching fingerprint is a no-op.

use crate::executor::Lanes;
use crate::pipeline::extract_acfg;
use magic_data::{
    cache_fingerprint, write_shard, CacheError, CacheManifest, ShardMeta, ShardRecord,
    StreamedCorpus,
};
use magic_graph::{Acfg, ReduceStrategy, SizeHistogram};
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
    /// Node/edge deciles of the graphs just rendered into the shards;
    /// `None` when the cache was up to date and nothing was rendered.
    pub sizes: Option<SizeHistogram>,
}

/// A corpus fully in RAM, ready for the in-memory trainer: what
/// [`generate`] builds and [`load`] decodes.
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

impl LoadedCorpus {
    fn with_capacity(samples: usize, class_names: Vec<String>) -> Self {
        LoadedCorpus {
            acfgs: Vec::with_capacity(samples),
            inputs: Vec::with_capacity(samples),
            labels: Vec::with_capacity(samples),
            class_names,
        }
    }

    /// Appends `records`, building their [`GraphInput`]s across `lanes`
    /// (the CSR/feature build is the compute-heavy part).
    fn extend(&mut self, records: Vec<ShardRecord>, lanes: &Lanes) {
        let inputs = lanes.run(records.len(), |_worker, i| records[i].to_graph_input());
        for (record, input) in records.into_iter().zip(inputs) {
            self.labels.push(record.label);
            self.acfgs.push(record.acfg);
            self.inputs.push(input);
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the corpus holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Vertex count of every model input, used to resolve pooling ratios.
    pub fn graph_sizes(&self) -> Vec<usize> {
        self.inputs.iter().map(GraphInput::vertex_count).collect()
    }
}

/// Renders every sample of a corpus across `lanes` — the generator's
/// serial plan, then render → extract → `reduce` per sample — and
/// returns the records in canonical (`generate()`) order.
fn render_records(
    corpus: CorpusKind,
    seed: u64,
    scale: f64,
    reduce: ReduceStrategy,
    lanes: &Lanes,
) -> Result<Vec<ShardRecord>, CacheError> {
    let _span = magic_obs::span(magic_obs::stage::CORPUS_GENERATE);
    let reduced = |acfg: Acfg| if reduce.is_none() { acfg } else { reduce.apply(&acfg) };
    let extract_span = |samples: usize| {
        magic_obs::span_fields(
            magic_obs::stage::CORPUS_EXTRACT,
            &[("samples", samples as f64), ("workers", lanes.workers() as f64)],
        )
    };
    let rendered = match corpus {
        CorpusKind::Mskcfg => {
            let mut generator = MskcfgGenerator::new(seed, scale);
            let plan = generator.plan();
            let profiles = generator.profiles();
            let _span = extract_span(plan.len());
            lanes.run(plan.len(), |_worker, i| {
                let (label, mut rng) = plan[i].clone();
                let sample = MskcfgGenerator::render(profiles, label, &mut rng);
                extract_acfg(&sample.listing)
                    .map(|acfg| ShardRecord { label, acfg: reduced(acfg) })
                    .map_err(|e| format!("sample {i}: {e}"))
            })
        }
        CorpusKind::Yancfg => {
            let mut generator = YancfgGenerator::new(seed, scale);
            let plan = generator.plan();
            let profiles = generator.profiles();
            let _span = extract_span(plan.len());
            lanes.run(plan.len(), |_worker, i| {
                let (label, mut rng) = plan[i].clone();
                let sample = YancfgGenerator::render(profiles, label, &mut rng);
                Ok(ShardRecord { label, acfg: reduced(sample.acfg) })
            })
        }
    };
    rendered.into_iter().collect::<Result<_, _>>().map_err(CacheError::Corrupt)
}

/// Builds `corpus` at `seed`/`scale` in RAM, every graph reduced by
/// `reduce`, across `workers` lanes (0 = all cores): the render path
/// [`build`] writes to shards, plus each sample's [`GraphInput`]. The
/// result is bitwise what [`load`] returns from a cache built from the
/// same inputs, and the same for any worker count.
///
/// # Errors
///
/// Returns [`CacheError::Corrupt`] if a generated listing fails
/// extraction (which would indicate a generator bug).
pub fn generate(
    corpus: CorpusKind,
    seed: u64,
    scale: f64,
    reduce: ReduceStrategy,
    workers: usize,
) -> Result<LoadedCorpus, CacheError> {
    let lanes = Lanes::new(workers);
    let records = render_records(corpus, seed, scale, reduce, &lanes)?;
    let mut loaded = LoadedCorpus::with_capacity(records.len(), corpus.class_names());
    loaded.extend(records, &lanes);
    Ok(loaded)
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
                return Ok(BuildOutcome { manifest, rebuilt: false, bytes, sizes: None });
            }
        }
    }
    std::fs::create_dir_all(dir)?;

    let lanes = Lanes::new(workers);
    let records = render_records(spec.corpus, spec.seed, spec.scale, spec.reduce, &lanes)?;
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
    let acfgs: Vec<Acfg> = records.into_iter().map(|r| r.acfg).collect();
    let sizes = Some(SizeHistogram::of(&acfgs));
    Ok(BuildOutcome { manifest, rebuilt: true, bytes: total_bytes, sizes })
}

/// Opens the cache at `dir` and decodes every record in sample order
/// on the caller's thread, under one [`magic_obs::stage::CACHE_READ`]
/// span.
fn read_records(
    dir: &Path,
    expected_fingerprint: Option<u64>,
) -> Result<(StreamedCorpus, Vec<ShardRecord>), CacheError> {
    let corpus = StreamedCorpus::open(dir, expected_fingerprint)?;
    let _span = magic_obs::span_fields(
        magic_obs::stage::CACHE_READ,
        &[("records", corpus.len() as f64), ("bytes", corpus.payload_bytes() as f64)],
    );
    let every: Vec<usize> = (0..corpus.len()).collect();
    let records = corpus.records(&every)?;
    Ok((corpus, records))
}

/// Loads a cache directory fully into RAM: one decode pass in sample
/// order, then the [`GraphInput`]s built across `workers` lanes.
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
    let (corpus, records) = read_records(dir, expected_fingerprint)?;
    let mut loaded = LoadedCorpus::with_capacity(records.len(), corpus.class_names().to_vec());
    loaded.extend(records, &Lanes::new(workers));
    Ok(loaded)
}

/// Decodes every graph of a cache directory in sample order, without
/// building any [`GraphInput`]: what a caller needs to describe a cache,
/// not to train on it.
///
/// # Errors
///
/// Returns [`CacheError`] for a missing, damaged, or mismatched cache.
pub fn read_graphs(dir: &Path, expected_fingerprint: Option<u64>) -> Result<Vec<Acfg>, CacheError> {
    let (_, records) = read_records(dir, expected_fingerprint)?;
    Ok(records.into_iter().map(|r| r.acfg).collect())
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

    /// Asserts `built` holds exactly `serial`'s `(label, acfg)` pairs,
    /// bit for bit, with matching model inputs and every family named.
    fn assert_matches(built: &LoadedCorpus, serial: &[(usize, Acfg)], families: usize) {
        assert_eq!(built.class_names.len(), families);
        assert_eq!(built.labels, serial.iter().map(|(label, _)| *label).collect::<Vec<_>>());
        assert_eq!(built.len(), built.inputs.len());
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for ((acfg, input), (_, fresh)) in built.acfgs.iter().zip(&built.inputs).zip(serial) {
            assert_eq!(acfg.graph(), fresh.graph());
            assert_eq!(bits(acfg.attributes().as_slice()), bits(fresh.attributes().as_slice()));
            let expected = GraphInput::from_acfg(fresh);
            assert_eq!(bits(input.attributes().as_slice()), bits(expected.attributes().as_slice()));
        }
    }

    #[test]
    fn generate_matches_the_serial_chain_on_any_lane_count() {
        for reduce in [ReduceStrategy::None, ReduceStrategy::Coarsen { rounds: 2 }] {
            let serial: Vec<(usize, Acfg)> = MskcfgGenerator::new(3, 0.002)
                .generate()
                .iter()
                .map(|s| (s.label, reduce.apply(&extract_acfg(&s.listing).unwrap())))
                .collect();
            for workers in [1, 3] {
                let built = generate(CorpusKind::Mskcfg, 3, 0.002, reduce, workers).unwrap();
                assert_matches(&built, &serial, MSKCFG_FAMILIES.len());
            }

            let serial: Vec<(usize, Acfg)> = YancfgGenerator::new(3, 0.001)
                .generate()
                .iter()
                .map(|s| (s.label, reduce.apply(&s.acfg)))
                .collect();
            for workers in [1, 3] {
                let built = generate(CorpusKind::Yancfg, 3, 0.001, reduce, workers).unwrap();
                assert_matches(&built, &serial, YANCFG_FAMILIES.len());
                // The min-10 rule keeps every family in even a tiny corpus.
                let mut seen = vec![false; YANCFG_FAMILIES.len()];
                built.labels.iter().for_each(|&l| seen[l] = true);
                assert!(seen.iter().all(|&s| s), "a yancfg family is missing");
            }
        }
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
