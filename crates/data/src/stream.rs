//! The one reader of a `magic-acfg/1` cache directory.
//!
//! [`StreamedCorpus`] gives random access by global sample index: shard
//! indices are held in memory (labels and graph sizes come straight
//! from them), record payloads are decoded on demand with one seek +
//! one framed read each through [`ShardReader::read_record`], so
//! resident memory stays bounded by the working set instead of the
//! corpus. The streamed trainer's lanes fetch one sample each, by
//! global index, inside their own jobs; a full RAM load is one
//! [`records`] pass over every index in sample order.
//!
//! Every shard is validated against the manifest fingerprint and the
//! full checksum pass of [`ShardReader::open`] before any record is
//! decoded.
//!
//! [`records`]: StreamedCorpus::records

use std::path::Path;
use std::sync::Mutex;

use magic_model::GraphInput;

use crate::cache::{CacheError, CacheManifest, ShardReader, ShardRecord};

/// Random-access view of a cache directory, indexed by global sample
/// position (manifest shard order, then record order within the shard —
/// the same canonical order the in-memory pipeline produces).
///
/// Labels and per-sample graph sizes are served from the shard indices
/// without decoding any record; [`records`](StreamedCorpus::records)
/// and [`fetch`](StreamedCorpus::fetch) decode exactly the requested
/// records. Shard handles sit behind per-shard mutexes, so training
/// lanes can fetch concurrently.
#[derive(Debug)]
pub struct StreamedCorpus {
    manifest: CacheManifest,
    shards: Vec<Mutex<ShardReader>>,
    /// Global index -> (shard, position in shard).
    map: Vec<(u32, u32)>,
    labels: Vec<usize>,
    vertex_counts: Vec<usize>,
}

impl StreamedCorpus {
    /// Opens and validates every shard of the cache at `dir` (full
    /// checksum pass per shard, manifest fingerprint enforced).
    ///
    /// # Errors
    ///
    /// Any [`CacheError`]; never panics on damaged input.
    pub fn open(dir: &Path, expected_fingerprint: Option<u64>) -> Result<Self, CacheError> {
        let manifest = CacheManifest::load(dir)?;
        if let Some(expected) = expected_fingerprint {
            if manifest.fingerprint != expected {
                return Err(CacheError::FingerprintMismatch {
                    expected,
                    found: manifest.fingerprint,
                });
            }
        }
        let mut shards = Vec::with_capacity(manifest.shards.len());
        let mut map = Vec::with_capacity(manifest.samples);
        let mut labels = Vec::with_capacity(manifest.samples);
        let mut vertex_counts = Vec::with_capacity(manifest.samples);
        for (s, meta) in manifest.shards.iter().enumerate() {
            let reader = ShardReader::open(&dir.join(&meta.file))?;
            reader.expect_fingerprint(manifest.fingerprint)?;
            if reader.len() != meta.records {
                return Err(CacheError::Corrupt(format!(
                    "shard {} holds {} records, manifest says {}",
                    meta.file,
                    reader.len(),
                    meta.records
                )));
            }
            for (r, (label, n)) in
                reader.labels().into_iter().zip(reader.vertex_counts()).enumerate()
            {
                map.push((s as u32, r as u32));
                labels.push(label);
                vertex_counts.push(n);
            }
            shards.push(Mutex::new(reader));
        }
        if map.len() != manifest.samples {
            return Err(CacheError::Corrupt(format!(
                "shards hold {} records, manifest says {}",
                map.len(),
                manifest.samples
            )));
        }
        Ok(StreamedCorpus { manifest, shards, map, labels, vertex_counts })
    }

    /// The cache manifest.
    pub fn manifest(&self) -> &CacheManifest {
        &self.manifest
    }

    /// Total samples.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the corpus is empty (never true after a successful
    /// [`open`](StreamedCorpus::open)).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Per-sample class labels in canonical order (from shard indices;
    /// no record decode).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Per-sample graph sizes in canonical order (from shard indices;
    /// no record decode).
    pub fn vertex_counts(&self) -> &[usize] {
        &self.vertex_counts
    }

    /// Class names, indexable by label.
    pub fn class_names(&self) -> &[String] {
        &self.manifest.class_names
    }

    /// Framed record bytes across every shard: what decoding the whole
    /// corpus adds to [`magic_obs::stage::C_CACHE_BYTES_READ`].
    pub fn payload_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().expect("shard lock poisoned").payload_len()).sum()
    }

    /// Decodes the records at the given global indices, in the order
    /// given. Each record costs one seek + one framed read and adds its
    /// framed bytes to [`magic_obs::stage::C_CACHE_BYTES_READ`].
    ///
    /// # Errors
    ///
    /// [`CacheError::Corrupt`] / [`CacheError::Io`] if a record fails
    /// to decode (shards were validated at open, so this means the file
    /// changed underneath us).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn records(&self, indices: &[usize]) -> Result<Vec<ShardRecord>, CacheError> {
        self.decode(indices).collect()
    }

    /// [`records`](StreamedCorpus::records) converted into model-ready
    /// [`GraphInput`]s, with the same errors and panics. Each record is
    /// converted as soon as it is decoded, so only one is alive at once.
    pub fn fetch(&self, indices: &[usize]) -> Result<Vec<GraphInput>, CacheError> {
        let mut out = Vec::with_capacity(indices.len());
        for record in self.decode(indices) {
            out.push(record?.to_graph_input());
        }
        Ok(out)
    }

    /// The one record-decode loop behind [`records`](StreamedCorpus::records)
    /// and [`fetch`](StreamedCorpus::fetch).
    fn decode<'a>(
        &'a self,
        indices: &'a [usize],
    ) -> impl Iterator<Item = Result<ShardRecord, CacheError>> + 'a {
        indices.iter().map(|&i| {
            let (s, r) = self.map[i];
            self.shards[s as usize].lock().expect("shard lock poisoned").read_record(r as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{cache_fingerprint, encode_record, write_shard, CacheManifest, ShardMeta};
    use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
    use magic_tensor::{Rng64, Tensor};

    fn toy_record(seed: u64, label: usize) -> ShardRecord {
        let mut rng = Rng64::new(seed);
        let n = 3 + rng.next_below(4);
        let mut graph = DiGraph::new(n);
        for v in 1..n {
            graph.add_edge(v - 1, v);
        }
        let attrs: Vec<f32> =
            (0..n * NUM_ATTRIBUTES).map(|_| rng.next_f64() as f32 * 5.0).collect();
        ShardRecord { label, acfg: Acfg::new(graph, Tensor::from_vec(attrs, [n, NUM_ATTRIBUTES])) }
    }

    fn write_toy_cache(dir: &Path, shard_sizes: &[usize]) -> Vec<ShardRecord> {
        std::fs::create_dir_all(dir).unwrap();
        let fp = cache_fingerprint("toy", 1, 1.0, "none");
        let mut all = Vec::new();
        let mut shards = Vec::new();
        let mut next = 0u64;
        for (s, &count) in shard_sizes.iter().enumerate() {
            let records: Vec<ShardRecord> = (0..count)
                .map(|_| {
                    next += 1;
                    toy_record(next, (next % 3) as usize)
                })
                .collect();
            let file = format!("shard-{s:04}.acfg");
            let bytes =
                write_shard(&dir.join(&file), fp, s, shard_sizes.len(), &records).unwrap();
            shards.push(ShardMeta { file, records: records.len(), bytes });
            all.extend(records);
        }
        CacheManifest {
            fingerprint: fp,
            corpus: "toy".into(),
            seed: 1,
            scale: 1.0,
            reduce: "none".into(),
            samples: all.len(),
            class_names: vec!["a".into(), "b".into(), "c".into()],
            shards,
        }
        .save(dir)
        .unwrap();
        all
    }

    #[test]
    fn streamed_corpus_random_access_matches_sequential() {
        let dir = std::env::temp_dir().join("magic-stream-test-random");
        std::fs::remove_dir_all(&dir).ok();
        let all = write_toy_cache(&dir, &[4, 3]);
        let corpus = StreamedCorpus::open(&dir, None).unwrap();
        assert_eq!(corpus.len(), 7);
        assert_eq!(corpus.labels(), all.iter().map(|r| r.label).collect::<Vec<_>>().as_slice());
        assert_eq!(
            corpus.vertex_counts(),
            all.iter().map(|r| r.acfg.vertex_count()).collect::<Vec<_>>().as_slice()
        );
        // Fetch out of order; inputs must match the in-memory conversion.
        let picks = [6usize, 0, 3];
        let inputs = corpus.fetch(&picks).unwrap();
        for (input, &i) in inputs.iter().zip(&picks) {
            let expected = all[i].to_graph_input();
            assert_eq!(input.vertex_count(), expected.vertex_count());
            assert_eq!(input.attributes().as_slice(), expected.attributes().as_slice());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_decode_every_shard_in_sample_order() {
        let dir = std::env::temp_dir().join("magic-stream-test-seq");
        std::fs::remove_dir_all(&dir).ok();
        let all = write_toy_cache(&dir, &[3, 4, 2]);
        let corpus = StreamedCorpus::open(&dir, None).unwrap();
        let every: Vec<usize> = (0..corpus.len()).collect();
        let records = corpus.records(&every).unwrap();
        assert_eq!(records.len(), all.len());
        for (a, b) in records.iter().zip(&all) {
            assert_eq!(encode_record(a), encode_record(b));
        }
        let framed: usize = all.iter().map(|r| 4 + encode_record(r).len()).sum();
        assert_eq!(corpus.payload_bytes(), framed as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_fingerprint_is_a_typed_error() {
        let dir = std::env::temp_dir().join("magic-stream-test-fp");
        std::fs::remove_dir_all(&dir).ok();
        write_toy_cache(&dir, &[2]);
        let err = StreamedCorpus::open(&dir, Some(0xdead_beef)).unwrap_err();
        assert!(matches!(err, CacheError::FingerprintMismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
