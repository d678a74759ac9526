#![warn(missing_docs)]

//! **MAGIC** — an end-to-end malware classification pipeline over control
//! flow graphs, reproducing *"Classifying Malware Represented as Control
//! Flow Graphs using Deep Graph Convolutional Neural Network"* (Yan, Yan
//! & Jin, DSN 2019).
//!
//! The crate ties the substrates together into the system of Fig. 1:
//!
//! 1. **CFG extraction** ([`pipeline`]): IDA-style `.asm` listings are
//!    parsed and converted to basic-block graphs with the paper's two-pass
//!    algorithm, then attributed with the Table I features (ACFGs).
//!    Extraction parallelizes across worker threads, as in Section IV-C.
//! 2. **DGCNN classification** ([`magic_model`]): graph convolutions
//!    embed the ACFG; a pooling head (SortPooling + Conv1D /
//!    WeightedVertices, or AdaptiveMaxPooling + Conv2D) reduces it to a
//!    fixed-size vector; a perceptron predicts the malware family.
//! 3. **Training & evaluation** ([`trainer`], [`cv`]): Adam over the mean
//!    NLL loss of Eq. (5), the reduce-on-plateau LR schedule of Section
//!    V-B, stratified five-fold cross-validation, and the exhaustive
//!    208-configuration hyperparameter grid of Table II ([`tuning`]).
//!
//! # Quickstart
//!
//! ```
//! use magic::pipeline::extract_acfg;
//!
//! let listing = "\
//! .text:00401000    cmp     eax, 1
//! .text:00401003    jz      short loc_401008
//! .text:00401005    add     eax, 2
//! .text:00401008 loc_401008:
//! .text:00401008    retn
//! ";
//! let acfg = extract_acfg(listing)?;
//! assert_eq!(acfg.vertex_count(), 3);
//! # Ok::<(), magic::pipeline::PipelineError>(())
//! ```

pub mod checkpoint;
pub mod corpus_cache;
pub mod cv;
pub mod executor;
pub mod pipeline;
pub mod trainer;
pub mod tuning;

pub use corpus_cache::{
    build as build_cache, generate as generate_corpus, load as load_cache, open_streaming,
    BuildOutcome, CacheSpec, CorpusKind, LoadedCorpus, DEFAULT_SHARDS,
};
pub use cv::{cross_validate, CvOutcome};
pub use executor::{workers_per_concurrent_run, Lanes};
pub use pipeline::{extract_acfg, MagicPipeline, PipelineError};
pub use trainer::{evaluate_with, EpochStats, TrainConfig, Trainer, TrainOutcome};
pub use tuning::{best_params, GridSearch, HeadKind, HyperParams, SearchOutcome};
