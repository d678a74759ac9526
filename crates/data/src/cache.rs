//! The `magic-acfg/1` sharded binary ACFG cache format.
//!
//! A cache directory holds a `manifest.json` plus a set of shard files.
//! Each shard is a self-describing little-endian binary file:
//!
//! ```text
//! header (48 bytes)
//!   [u8; 8]  magic            b"MAGCACFG"
//!   u32      version          1 (this module reads exactly version 1)
//!   u32      reserved         0
//!   u64      fingerprint      FNV-1a 64 over (format version, corpus
//!                             name, seed, f64 scale bits, NUM_ATTRIBUTES)
//!   u32      shard_index      position of this shard in the cache
//!   u32      shard_count      total shards in the cache
//!   u32      record_count     records in this shard (> 0)
//!   u32      reserved         0
//!   u64      payload_len      total bytes of the framed records
//! index (record_count × 16 bytes)
//!   u64      offset           record start, relative to payload start
//!   u32      vertex_count     graph size (readable without decoding)
//!   u32      label            class label (readable without decoding)
//! payload (payload_len bytes)
//!   per record: u32 length, then `length` record bytes
//! footer (8 bytes)
//!   u64      checksum         FNV-1a 64 over index bytes ++ payload bytes
//! ```
//!
//! A record encodes one labeled [`Acfg`] with exact `f32` attribute bits
//! (the *raw* Table I counts — log-scaling happens in
//! [`GraphInput::from_acfg`], identically for cached and freshly
//! extracted graphs, which is what makes the cached path bitwise
//! interchangeable with the in-memory path):
//!
//! ```text
//! u32 label, u32 n (vertices), u32 m (edges),
//! m × (u32 src, u32 dst),
//! n × NUM_ATTRIBUTES × f32 (row-major attribute bits)
//! ```
//!
//! Damage never panics: every way a shard can be wrong — foreign file,
//! future version, wrong fingerprint, truncation, bit rot, zero records,
//! malformed record bytes — surfaces as a typed [`CacheError`], the same
//! contract the `magic-trace` reader keeps via its `malformed_lines`
//! accounting.
//!
//! Every file is published crash-safely: written to `<name>.tmp`,
//! synced, then renamed over `<name>`, with the manifest written last.
//! A crash mid-build leaves each file either old or new, never torn; a
//! leftover `.tmp` is never opened and the next build overwrites it.

use std::fmt;
use std::fs::File;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
use magic_model::GraphInput;
use magic_obs as obs;
use magic_tensor::Tensor;

/// Schema name of the shard format, following the `magic-trace/N`
/// convention.
pub const CACHE_SCHEMA_NAME: &str = "magic-acfg/1";

/// Current (and only) shard format version.
pub const CACHE_VERSION: u32 = 1;

/// Shard file magic bytes.
pub const CACHE_MAGIC: [u8; 8] = *b"MAGCACFG";

/// Manifest file name inside a cache directory.
pub const MANIFEST_FILE: &str = "manifest.json";

const HEADER_LEN: u64 = 48;
const INDEX_ENTRY_LEN: u64 = 16;
const FOOTER_LEN: u64 = 8;

// ---- errors ------------------------------------------------------------

/// Typed failure modes of the binary cache.
#[derive(Debug)]
pub enum CacheError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file does not start with the `magic-acfg` magic bytes.
    BadMagic,
    /// The shard was written by a format version this reader does not
    /// understand.
    UnsupportedVersion {
        /// Version found in the shard header.
        found: u32,
    },
    /// The shard or manifest belongs to a different (generator, seed,
    /// scale) configuration.
    FingerprintMismatch {
        /// Fingerprint the caller expected.
        expected: u64,
        /// Fingerprint found on disk.
        found: u64,
    },
    /// The file is shorter than its header claims.
    Truncated {
        /// Byte length the header implies.
        expected: u64,
        /// Actual file length.
        found: u64,
    },
    /// The footer checksum does not match the index + payload bytes.
    ChecksumMismatch {
        /// Checksum recorded in the footer.
        expected: u64,
        /// Checksum recomputed from the bytes.
        found: u64,
    },
    /// The shard declares zero records (the builder never writes one).
    EmptyShard,
    /// Structurally invalid bytes inside an otherwise well-framed shard.
    Corrupt(String),
    /// Missing or malformed `manifest.json`.
    Manifest(String),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache io error: {e}"),
            CacheError::BadMagic => write!(f, "not a {CACHE_SCHEMA_NAME} shard (bad magic)"),
            CacheError::UnsupportedVersion { found } => {
                write!(f, "unsupported shard version {found} (reader supports {CACHE_VERSION})")
            }
            CacheError::FingerprintMismatch { expected, found } => write!(
                f,
                "cache fingerprint mismatch: expected {expected:#018x}, found {found:#018x} \
                 (different generator/seed/scale)"
            ),
            CacheError::Truncated { expected, found } => {
                write!(f, "truncated shard: header implies {expected} bytes, file has {found}")
            }
            CacheError::ChecksumMismatch { expected, found } => write!(
                f,
                "shard checksum mismatch: footer {expected:#018x}, computed {found:#018x}"
            ),
            CacheError::EmptyShard => write!(f, "shard declares zero records"),
            CacheError::Corrupt(why) => write!(f, "corrupt shard record: {why}"),
            CacheError::Manifest(why) => write!(f, "cache manifest error: {why}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<io::Error> for CacheError {
    fn from(e: io::Error) -> Self {
        CacheError::Io(e)
    }
}

// ---- fingerprint / checksum --------------------------------------------

/// Streaming FNV-1a 64-bit hash (dependency-free, stable across
/// platforms).
#[derive(Clone)]
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Content fingerprint of a cache configuration.
///
/// Two caches share a fingerprint exactly when they hold the same
/// samples in the same canonical order: the hash covers the format
/// version, the generator name, the exact seed, the exact `f64` bit
/// pattern of the scale, the attribute schema width, and the canonical
/// graph-reduction strategy name (`"none"`, `"chain"`, `"prune"`,
/// `"coarsen:<rounds>"`). Shards store *reduced* graphs, so a cache
/// built with one strategy must never silently serve another — the
/// strategy is part of the identity, not a load-time option. Shard
/// *count* is deliberately excluded — shards split the canonical sample
/// sequence into contiguous chunks, so relayouts with a different shard
/// count still decode to the identical corpus.
pub fn cache_fingerprint(corpus: &str, seed: u64, scale: f64, reduce: &str) -> u64 {
    let mut h = Fnv64::new();
    h.update(&CACHE_VERSION.to_le_bytes());
    h.update(corpus.as_bytes());
    h.update(&seed.to_le_bytes());
    h.update(&scale.to_bits().to_le_bytes());
    h.update(&(NUM_ATTRIBUTES as u32).to_le_bytes());
    h.update(reduce.as_bytes());
    h.finish()
}

// ---- records -----------------------------------------------------------

/// One cached sample: a raw-attribute [`Acfg`] plus its class label.
#[derive(Debug, Clone)]
pub struct ShardRecord {
    /// Class label (index into the manifest's `class_names`).
    pub label: usize,
    /// The attributed CFG with raw (unscaled) Table I counts.
    pub acfg: Acfg,
}

impl ShardRecord {
    /// Builds the model-ready input (applies the same `ln(1 + x)`
    /// attribute scaling as the in-memory extraction path).
    pub fn to_graph_input(&self) -> GraphInput {
        GraphInput::from_acfg(&self.acfg)
    }
}

/// Encodes one record to its binary form (no length frame).
pub fn encode_record(record: &ShardRecord) -> Vec<u8> {
    let acfg = &record.acfg;
    let n = acfg.vertex_count();
    let m = acfg.edge_count();
    let mut out = Vec::with_capacity(12 + 8 * m + 4 * NUM_ATTRIBUTES * n);
    out.extend_from_slice(&(record.label as u32).to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&(m as u32).to_le_bytes());
    for (u, v) in acfg.graph().edges() {
        out.extend_from_slice(&(u as u32).to_le_bytes());
        out.extend_from_slice(&(v as u32).to_le_bytes());
    }
    for &x in acfg.attributes().as_slice() {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u32(&mut self) -> Result<u32, CacheError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(CacheError::Corrupt("record ends mid-field".into()));
        }
        let v = u32::from_le_bytes(self.bytes[self.pos..end].try_into().unwrap());
        self.pos = end;
        Ok(v)
    }
}

/// Decodes one record from its binary form (no length frame).
///
/// Every structural invariant is checked — field framing, exact byte
/// length, edge endpoints in range, no duplicate edges — so corrupt
/// bytes return [`CacheError::Corrupt`] instead of panicking.
pub fn decode_record(bytes: &[u8]) -> Result<ShardRecord, CacheError> {
    let mut c = Cursor { bytes, pos: 0 };
    let label = c.u32()? as usize;
    let n = c.u32()? as usize;
    let m = c.u32()? as usize;
    if n == 0 {
        return Err(CacheError::Corrupt("record with zero vertices".into()));
    }
    let expected = 12 + 8 * m + 4 * NUM_ATTRIBUTES * n;
    if bytes.len() != expected {
        return Err(CacheError::Corrupt(format!(
            "record length {} does not match n={n}, m={m} (expected {expected})",
            bytes.len()
        )));
    }
    let mut graph = DiGraph::new(n);
    for _ in 0..m {
        let u = c.u32()? as usize;
        let v = c.u32()? as usize;
        if u >= n || v >= n {
            return Err(CacheError::Corrupt(format!("edge ({u},{v}) out of range for {n} vertices")));
        }
        if !graph.add_edge(u, v) {
            return Err(CacheError::Corrupt(format!("duplicate edge ({u},{v})")));
        }
    }
    let mut attrs = Vec::with_capacity(n * NUM_ATTRIBUTES);
    for _ in 0..n * NUM_ATTRIBUTES {
        attrs.push(f32::from_bits(c.u32()?));
    }
    let attributes = Tensor::from_vec(attrs, [n, NUM_ATTRIBUTES]);
    Ok(ShardRecord { label, acfg: Acfg::new(graph, attributes) })
}

// ---- shard writing -----------------------------------------------------

/// Writes `parts` to `<path>.tmp`, syncs it to disk, then renames it
/// over `path`, so `path` holds either its old bytes or all new bytes.
/// The directory is synced after the rename so the new entry is on
/// disk before the next file (the manifest last) is published.
fn publish(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = File::create(&tmp)?;
    for part in parts {
        file.write_all(part)?;
    }
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

/// Writes one shard file, crash-safely (temp file + rename); returns
/// its total byte length.
///
/// Emits a [`magic_obs::stage::CACHE_WRITE`] span with `shard`,
/// `records`, and `bytes` fields plus the
/// [`magic_obs::stage::C_CACHE_BYTES_WRITTEN`] counter.
///
/// # Errors
///
/// [`CacheError::EmptyShard`] when `records` is empty, or
/// [`CacheError::Io`] on filesystem failure.
pub fn write_shard(
    path: &Path,
    fingerprint: u64,
    shard_index: usize,
    shard_count: usize,
    records: &[ShardRecord],
) -> Result<u64, CacheError> {
    if records.is_empty() {
        return Err(CacheError::EmptyShard);
    }
    let mut index = Vec::with_capacity(records.len() * INDEX_ENTRY_LEN as usize);
    let mut payload = Vec::new();
    for record in records {
        index.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        index.extend_from_slice(&(record.acfg.vertex_count() as u32).to_le_bytes());
        index.extend_from_slice(&(record.label as u32).to_le_bytes());
        let body = encode_record(record);
        payload.extend_from_slice(&(body.len() as u32).to_le_bytes());
        payload.extend_from_slice(&body);
    }
    let mut checksum = Fnv64::new();
    checksum.update(&index);
    checksum.update(&payload);

    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(&CACHE_MAGIC);
    header.extend_from_slice(&CACHE_VERSION.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    header.extend_from_slice(&fingerprint.to_le_bytes());
    header.extend_from_slice(&(shard_index as u32).to_le_bytes());
    header.extend_from_slice(&(shard_count as u32).to_le_bytes());
    header.extend_from_slice(&(records.len() as u32).to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    debug_assert_eq!(header.len() as u64, HEADER_LEN);

    let total = HEADER_LEN + index.len() as u64 + payload.len() as u64 + FOOTER_LEN;
    let _span = obs::span_fields(
        obs::stage::CACHE_WRITE,
        &[
            ("shard", shard_index as f64),
            ("records", records.len() as f64),
            ("bytes", total as f64),
        ],
    );
    publish(path, &[&header, &index, &payload, &checksum.finish().to_le_bytes()])?;
    obs::counter(obs::stage::C_CACHE_BYTES_WRITTEN, total as f64);
    Ok(total)
}

// ---- shard reading -----------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    offset: u64,
    vertex_count: u32,
    label: u32,
}

/// Validated random-access reader over one shard file.
///
/// [`open`](ShardReader::open) performs the full integrity pass —
/// header checks, size check against the declared layout, and a
/// streaming checksum of index + payload — so every later
/// [`read_record`](ShardReader::read_record) touches only the bytes of
/// the record it decodes.
#[derive(Debug)]
pub struct ShardReader {
    file: File,
    fingerprint: u64,
    index: Vec<IndexEntry>,
    payload_start: u64,
    payload_len: u64,
}

impl ShardReader {
    /// Opens and fully validates a shard file.
    ///
    /// # Errors
    ///
    /// Any [`CacheError`] variant except `Manifest`; never panics on
    /// damaged input.
    pub fn open(path: &Path) -> Result<Self, CacheError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN {
            return Err(CacheError::Truncated { expected: HEADER_LEN, found: file_len });
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        if header[0..8] != CACHE_MAGIC {
            return Err(CacheError::BadMagic);
        }
        let u32_at = |i: usize| u32::from_le_bytes(header[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(header[i..i + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != CACHE_VERSION {
            return Err(CacheError::UnsupportedVersion { found: version });
        }
        let fingerprint = u64_at(16);
        let record_count = u32_at(32) as usize;
        let payload_len = u64_at(40);
        if record_count == 0 {
            return Err(CacheError::EmptyShard);
        }
        let index_len = record_count as u64 * INDEX_ENTRY_LEN;
        let expected_len = HEADER_LEN + index_len + payload_len + FOOTER_LEN;
        if file_len != expected_len {
            return Err(CacheError::Truncated { expected: expected_len, found: file_len });
        }

        let mut index_bytes = vec![0u8; index_len as usize];
        file.read_exact(&mut index_bytes)?;
        let mut checksum = Fnv64::new();
        checksum.update(&index_bytes);

        // Stream the payload through the hash without holding it.
        let mut remaining = payload_len;
        let mut chunk = vec![0u8; 1 << 16];
        while remaining > 0 {
            let take = remaining.min(chunk.len() as u64) as usize;
            file.read_exact(&mut chunk[..take])?;
            checksum.update(&chunk[..take]);
            remaining -= take as u64;
        }
        let mut footer = [0u8; 8];
        file.read_exact(&mut footer)?;
        let expected_sum = u64::from_le_bytes(footer);
        let found_sum = checksum.finish();
        if expected_sum != found_sum {
            return Err(CacheError::ChecksumMismatch { expected: expected_sum, found: found_sum });
        }

        let mut index = Vec::with_capacity(record_count);
        for i in 0..record_count {
            let base = i * INDEX_ENTRY_LEN as usize;
            let offset = u64::from_le_bytes(index_bytes[base..base + 8].try_into().unwrap());
            let vertex_count =
                u32::from_le_bytes(index_bytes[base + 8..base + 12].try_into().unwrap());
            let label = u32::from_le_bytes(index_bytes[base + 12..base + 16].try_into().unwrap());
            if offset.saturating_add(4) > payload_len {
                return Err(CacheError::Corrupt(format!(
                    "index entry {i} offset {offset} outside payload of {payload_len} bytes"
                )));
            }
            index.push(IndexEntry { offset, vertex_count, label });
        }

        Ok(ShardReader {
            file,
            fingerprint,
            index,
            payload_start: HEADER_LEN + index_len,
            payload_len,
        })
    }

    /// Fails unless the shard carries the expected configuration
    /// fingerprint.
    pub fn expect_fingerprint(&self, expected: u64) -> Result<(), CacheError> {
        if self.fingerprint != expected {
            return Err(CacheError::FingerprintMismatch { expected, found: self.fingerprint });
        }
        Ok(())
    }

    /// Number of records in the shard.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the shard holds no records (never true for a shard that
    /// passed [`open`](ShardReader::open)).
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Configuration fingerprint from the header.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Per-record class labels, straight from the index (no record
    /// decode).
    pub fn labels(&self) -> Vec<usize> {
        self.index.iter().map(|e| e.label as usize).collect()
    }

    /// Per-record graph sizes, straight from the index (no record
    /// decode).
    pub fn vertex_counts(&self) -> Vec<usize> {
        self.index.iter().map(|e| e.vertex_count as usize).collect()
    }

    /// Reads and decodes one record by position (seek + single framed
    /// read). Emits the [`magic_obs::stage::C_CACHE_BYTES_READ`]
    /// counter.
    ///
    /// # Errors
    ///
    /// [`CacheError::Corrupt`] on framing/consistency violations,
    /// [`CacheError::Io`] on filesystem failure.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn read_record(&mut self, i: usize) -> Result<ShardRecord, CacheError> {
        let entry = self.index[i];
        self.file.seek(SeekFrom::Start(self.payload_start + entry.offset))?;
        let mut len_bytes = [0u8; 4];
        self.file.read_exact(&mut len_bytes)?;
        let len = u32::from_le_bytes(len_bytes) as u64;
        if entry.offset + 4 + len > self.payload_len {
            return Err(CacheError::Corrupt(format!(
                "record {i} frame of {len} bytes overruns payload"
            )));
        }
        let mut body = vec![0u8; len as usize];
        self.file.read_exact(&mut body)?;
        let record = decode_record(&body)?;
        if record.label != entry.label as usize
            || record.acfg.vertex_count() != entry.vertex_count as usize
        {
            return Err(CacheError::Corrupt(format!("record {i} disagrees with its index entry")));
        }
        obs::counter(obs::stage::C_CACHE_BYTES_READ, (4 + len) as f64);
        Ok(record)
    }

    /// Framed record bytes (the payload between index and footer).
    pub(crate) fn payload_len(&self) -> u64 {
        self.payload_len
    }
}

// ---- manifest ----------------------------------------------------------

/// Per-shard entry in the cache manifest.
#[derive(Debug, Clone)]
pub struct ShardMeta {
    /// Shard file name, relative to the cache directory.
    pub file: String,
    /// Records in the shard.
    pub records: usize,
    /// Shard file size in bytes.
    pub bytes: u64,
}

/// The `manifest.json` of a cache directory: configuration identity plus
/// the shard layout.
#[derive(Debug, Clone)]
pub struct CacheManifest {
    /// Configuration fingerprint (see [`cache_fingerprint`]).
    pub fingerprint: u64,
    /// Generator name (`"mskcfg"` / `"yancfg"`).
    pub corpus: String,
    /// Generator seed.
    pub seed: u64,
    /// Generator scale.
    pub scale: f64,
    /// Canonical graph-reduction strategy name the shards were built
    /// with (`"none"` when graphs are stored unreduced).
    pub reduce: String,
    /// Total samples across all shards.
    pub samples: usize,
    /// Class names, indexable by record label.
    pub class_names: Vec<String>,
    /// Shards in canonical sample order.
    pub shards: Vec<ShardMeta>,
}

impl CacheManifest {
    /// Path of the manifest file inside `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Serializes and writes the manifest into `dir`, crash-safely
    /// (temp file + rename). Call it after writing the shards it lists,
    /// so a manifest on disk names only complete shards.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] on filesystem failure.
    pub fn save(&self, dir: &Path) -> Result<(), CacheError> {
        let shards: Vec<magic_json::Value> = self
            .shards
            .iter()
            .map(|s| {
                magic_json::json!({
                    "file": (s.file.as_str()),
                    "records": (s.records as f64),
                    "bytes": (s.bytes as f64),
                })
            })
            .collect();
        let value = magic_json::json!({
            "format": CACHE_SCHEMA_NAME,
            "version": (CACHE_VERSION as f64),
            "fingerprint": (format!("{:#018x}", self.fingerprint)),
            "corpus": (self.corpus.as_str()),
            "seed": (self.seed as f64),
            "scale": (self.scale),
            "scale_bits": (format!("{:#018x}", self.scale.to_bits())),
            "reduce": (self.reduce.as_str()),
            "samples": (self.samples as f64),
            "class_names": (self.class_names.clone()),
            "shards": shards,
        });
        publish(&Self::path(dir), &[magic_json::to_string_pretty(&value).as_bytes()])?;
        Ok(())
    }

    /// Loads and validates the manifest from `dir`.
    ///
    /// # Errors
    ///
    /// [`CacheError::Manifest`] when the file is missing or malformed.
    pub fn load(dir: &Path) -> Result<Self, CacheError> {
        let path = Self::path(dir);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            CacheError::Manifest(format!("cannot read {}: {e}", path.display()))
        })?;
        let value = magic_json::from_str(&text)
            .map_err(|e| CacheError::Manifest(format!("malformed {}: {e}", path.display())))?;
        let format = value["format"].as_str().unwrap_or_default();
        if format != CACHE_SCHEMA_NAME {
            return Err(CacheError::Manifest(format!(
                "format {format:?} is not {CACHE_SCHEMA_NAME:?}"
            )));
        }
        let hex_u64 = |key: &str| -> Result<u64, CacheError> {
            let s = value[key]
                .as_str()
                .ok_or_else(|| CacheError::Manifest(format!("missing {key}")))?;
            u64::from_str_radix(s.trim_start_matches("0x"), 16)
                .map_err(|e| CacheError::Manifest(format!("bad {key}: {e}")))
        };
        let fingerprint = hex_u64("fingerprint")?;
        let scale = f64::from_bits(hex_u64("scale_bits")?);
        let corpus = value["corpus"]
            .as_str()
            .ok_or_else(|| CacheError::Manifest("missing corpus".into()))?
            .to_string();
        let seed = value["seed"]
            .as_u64()
            .ok_or_else(|| CacheError::Manifest("missing seed".into()))?;
        // Manifests written before the reduction stage carry no
        // `reduce` key; they hold unreduced graphs by definition.
        let reduce = value["reduce"].as_str().unwrap_or("none").to_string();
        let samples = value["samples"]
            .as_u64()
            .ok_or_else(|| CacheError::Manifest("missing samples".into()))?
            as usize;
        let class_names = value["class_names"]
            .as_array()
            .ok_or_else(|| CacheError::Manifest("missing class_names".into()))?
            .iter()
            .map(|v| v.as_str().unwrap_or_default().to_string())
            .collect();
        let shards = value["shards"]
            .as_array()
            .ok_or_else(|| CacheError::Manifest("missing shards".into()))?
            .iter()
            .map(|s| -> Result<ShardMeta, CacheError> {
                Ok(ShardMeta {
                    file: s["file"]
                        .as_str()
                        .ok_or_else(|| CacheError::Manifest("shard missing file".into()))?
                        .to_string(),
                    records: s["records"]
                        .as_u64()
                        .ok_or_else(|| CacheError::Manifest("shard missing records".into()))?
                        as usize,
                    bytes: s["bytes"]
                        .as_u64()
                        .ok_or_else(|| CacheError::Manifest("shard missing bytes".into()))?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        if shards.is_empty() {
            return Err(CacheError::Manifest("manifest lists zero shards".into()));
        }
        Ok(CacheManifest { fingerprint, corpus, seed, scale, reduce, samples, class_names, shards })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_tensor::Rng64;

    fn toy_record(seed: u64, label: usize) -> ShardRecord {
        let mut rng = Rng64::new(seed);
        let n = 4 + rng.next_below(5);
        let mut graph = DiGraph::new(n);
        for v in 1..n {
            graph.add_edge(v - 1, v);
        }
        graph.add_edge(n - 1, 0);
        let attrs: Vec<f32> =
            (0..n * NUM_ATTRIBUTES).map(|_| rng.next_f64() as f32 * 7.0).collect();
        ShardRecord { label, acfg: Acfg::new(graph, Tensor::from_vec(attrs, [n, NUM_ATTRIBUTES])) }
    }

    #[test]
    fn record_roundtrip_is_bitwise() {
        let record = toy_record(3, 2);
        let bytes = encode_record(&record);
        let back = decode_record(&bytes).unwrap();
        assert_eq!(back.label, 2);
        assert_eq!(back.acfg.vertex_count(), record.acfg.vertex_count());
        assert_eq!(back.acfg.edge_count(), record.acfg.edge_count());
        assert_eq!(back.acfg.attributes().as_slice(), record.acfg.attributes().as_slice());
        // Re-encoding the decoded record reproduces identical bytes.
        assert_eq!(encode_record(&back), bytes);
    }

    #[test]
    fn shard_roundtrip_preserves_order_and_bits() {
        let dir = std::env::temp_dir().join("magic-cache-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.acfg");
        let records: Vec<ShardRecord> = (0..6).map(|i| toy_record(i as u64, i % 3)).collect();
        let fp = cache_fingerprint("toy", 1, 0.5, "none");
        write_shard(&path, fp, 0, 1, &records).unwrap();

        let mut reader = ShardReader::open(&path).unwrap();
        reader.expect_fingerprint(fp).unwrap();
        assert_eq!(reader.len(), 6);
        assert_eq!(reader.labels(), vec![0, 1, 2, 0, 1, 2]);
        // Random access, out of order, returns each record as written.
        for i in [4, 0, 5, 1, 3, 2] {
            let one = reader.read_record(i).unwrap();
            assert_eq!(one.label, records[i].label);
            assert_eq!(one.acfg.attributes().as_slice(), records[i].acfg.attributes().as_slice());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes a two-shard cache with its manifest into `dir` and
    /// returns its fingerprint.
    fn build_toy_cache(dir: &Path) -> u64 {
        let fp = cache_fingerprint("toy", 1, 0.5, "none");
        let mut shards = Vec::new();
        for s in 0..2 {
            let records: Vec<ShardRecord> =
                (0..3).map(|i| toy_record((s * 3 + i) as u64, i)).collect();
            let file = format!("shard-{s:04}.acfg");
            let bytes = write_shard(&dir.join(&file), fp, s, 2, &records).unwrap();
            shards.push(ShardMeta { file, records: records.len(), bytes });
        }
        let manifest = CacheManifest {
            fingerprint: fp,
            corpus: "toy".into(),
            seed: 1,
            scale: 0.5,
            reduce: "none".into(),
            samples: 6,
            class_names: vec!["A".into(), "B".into(), "C".into()],
            shards,
        };
        manifest.save(dir).unwrap();
        fp
    }

    fn tmp_files(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
            .collect()
    }

    fn read_cache(dir: &Path, fp: u64) -> Vec<usize> {
        let corpus = crate::StreamedCorpus::open(dir, Some(fp)).unwrap();
        let every: Vec<usize> = (0..corpus.len()).collect();
        corpus.records(&every).unwrap().into_iter().map(|r| r.label).collect()
    }

    #[test]
    fn a_build_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join("magic-cache-test-publish");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let fp = build_toy_cache(&dir);
        assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new());
        assert_eq!(read_cache(&dir, fp), vec![0, 1, 2, 0, 1, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_stale_truncated_temp_shard_is_ignored_then_overwritten() {
        let dir = std::env::temp_dir().join("magic-cache-test-stale-tmp");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let fp = build_toy_cache(&dir);
        // A crash mid-publish of shard 0: half its bytes in the temp file.
        let shard = dir.join("shard-0000.acfg");
        let stale = dir.join("shard-0000.acfg.tmp");
        let bytes = std::fs::read(&shard).unwrap();
        std::fs::write(&stale, &bytes[..bytes.len() / 2]).unwrap();
        // Readers go by the manifest and never open the temp file.
        assert_eq!(read_cache(&dir, fp), vec![0, 1, 2, 0, 1, 2]);
        // A rebuild publishes over it and leaves nothing behind.
        build_toy_cache(&dir);
        assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new());
        assert_eq!(std::fs::read(&shard).unwrap(), bytes);
        assert_eq!(read_cache(&dir, fp), vec![0, 1, 2, 0, 1, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_separates_configurations() {
        let base = cache_fingerprint("mskcfg", 7, 0.01, "none");
        assert_ne!(cache_fingerprint("yancfg", 7, 0.01, "none"), base);
        assert_ne!(cache_fingerprint("mskcfg", 8, 0.01, "none"), base);
        assert_ne!(cache_fingerprint("mskcfg", 7, 0.02, "none"), base);
        assert_eq!(cache_fingerprint("mskcfg", 7, 0.01, "none"), base);
    }

    #[test]
    fn fingerprint_separates_reduce_strategies() {
        let strategies = ["none", "chain", "prune", "coarsen:1", "coarsen:2"];
        let prints: Vec<u64> =
            strategies.iter().map(|r| cache_fingerprint("mskcfg", 7, 0.01, r)).collect();
        for i in 0..prints.len() {
            for j in (i + 1)..prints.len() {
                assert_ne!(
                    prints[i], prints[j],
                    "strategies {} and {} must not share a fingerprint",
                    strategies[i], strategies[j]
                );
            }
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let dir = std::env::temp_dir().join("magic-cache-test-manifest");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = CacheManifest {
            fingerprint: cache_fingerprint("mskcfg", 7, 0.01, "chain"),
            corpus: "mskcfg".into(),
            seed: 7,
            scale: 0.01,
            reduce: "chain".into(),
            samples: 131,
            class_names: vec!["A".into(), "B".into()],
            shards: vec![ShardMeta { file: "shard-0000.acfg".into(), records: 131, bytes: 9000 }],
        };
        manifest.save(&dir).unwrap();
        let back = CacheManifest::load(&dir).unwrap();
        assert_eq!(back.fingerprint, manifest.fingerprint);
        assert_eq!(back.corpus, "mskcfg");
        assert_eq!(back.seed, 7);
        assert_eq!(back.scale.to_bits(), manifest.scale.to_bits());
        assert_eq!(back.reduce, "chain");
        assert_eq!(back.samples, 131);
        assert_eq!(back.class_names, manifest.class_names);
        assert_eq!(back.shards.len(), 1);
        assert_eq!(back.shards[0].records, 131);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_without_reduce_key_defaults_to_none() {
        let dir = std::env::temp_dir().join("magic-cache-test-manifest-compat");
        std::fs::create_dir_all(&dir).unwrap();
        // A pre-reduction manifest: no "reduce" key at all.
        let text = format!(
            r#"{{
  "format": "{CACHE_SCHEMA_NAME}",
  "version": 1,
  "fingerprint": "0x0000000000000001",
  "corpus": "mskcfg",
  "seed": 7,
  "scale": 0.01,
  "scale_bits": "{:#018x}",
  "samples": 3,
  "class_names": ["A"],
  "shards": [{{"file": "shard-0000.acfg", "records": 3, "bytes": 100}}]
}}"#,
            0.01f64.to_bits()
        );
        std::fs::write(CacheManifest::path(&dir), text).unwrap();
        let back = CacheManifest::load(&dir).unwrap();
        assert_eq!(back.reduce, "none");
        std::fs::remove_dir_all(&dir).ok();
    }
}
