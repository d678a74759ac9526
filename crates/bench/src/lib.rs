//! Experiment harness for the MAGIC reproduction.
//!
//! Every table and figure of the paper's evaluation (Section V) has a
//! binary in `src/bin/` that regenerates it; this library holds the
//! shared plumbing: the experiment runners and result persistence under
//! `results/`. Corpora come from [`magic::generate_corpus`], the one
//! parallel listing → ACFG → model-input recipe.
//!
//! Default corpus scales are sized for a CPU laptop; pass `--scale` /
//! `--epochs` / `--folds` to any binary to change them.

pub mod args;
#[cfg(test)]
mod corpus;
pub mod experiments;
pub mod results;

pub use args::RunArgs;
