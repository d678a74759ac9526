#![warn(missing_docs)]

//! Cross-validation splitters and the shard cache for the MAGIC
//! reproduction.
//!
//! The paper evaluates with stratified five-fold cross-validation
//! (Section V-B): "the dataset is splitted into five equal-size subsets
//! ... the training process never sees the testing samples". This crate
//! provides deterministic stratified K-fold splitting over label
//! vectors — plus the `magic-acfg/1` sharded binary
//! ACFG cache ([`cache`]) and its one reader ([`StreamedCorpus`]) that
//! let training and serving start from pre-extracted graphs instead of
//! re-running listing → CFG → ACFG extraction.
//!
//! # Example
//!
//! ```
//! use magic_data::stratified_kfold;
//!
//! let labels = [0, 1, 0, 1];
//! let folds = stratified_kfold(&labels, 2, 99);
//! assert_eq!(folds.len(), 2);
//! assert_eq!(folds[0].train.len() + folds[0].validation.len(), labels.len());
//! ```

pub mod cache;
mod split;
pub mod stream;

pub use cache::{
    cache_fingerprint, decode_record, encode_record, write_shard, CacheError, CacheManifest,
    ShardMeta, ShardReader, ShardRecord, CACHE_SCHEMA_NAME, CACHE_VERSION,
};
pub use split::{stratified_kfold, Fold};
pub use stream::StreamedCorpus;
