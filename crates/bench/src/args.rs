//! Minimal command-line argument handling shared by the experiment
//! binaries (no external dependency needed for four flags).

use magic::{CorpusKind, LoadedCorpus};
use magic_graph::ReduceStrategy;

/// Common experiment knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Corpus scale relative to the paper's dataset sizes.
    pub scale: f64,
    /// Training epochs per run.
    pub epochs: usize,
    /// Cross-validation folds.
    pub folds: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Run the full 208-setting grid (tuning binary only).
    pub full: bool,
}

impl RunArgs {
    /// Parses `--scale X --epochs N --folds K --seed S --full` from
    /// `std::env::args`, starting from the given defaults.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn parse(defaults: RunArgs) -> RunArgs {
        let mut out = defaults;
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut take = |name: &str| -> &str {
                iter.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--scale" => out.scale = take("--scale").parse().expect("bad --scale"),
                "--epochs" => out.epochs = take("--epochs").parse().expect("bad --epochs"),
                "--folds" => out.folds = take("--folds").parse().expect("bad --folds"),
                "--seed" => out.seed = take("--seed").parse().expect("bad --seed"),
                "--full" => out.full = true,
                other => panic!(
                    "unknown flag {other}; supported: --scale --epochs --folds --seed --full"
                ),
            }
        }
        out
    }

    /// The `kind` corpus at this run's seed and scale, unreduced, from
    /// [`magic::generate_corpus`] across all cores.
    ///
    /// # Panics
    ///
    /// Panics if a generated listing fails extraction (a generator bug).
    pub fn corpus(&self, kind: CorpusKind) -> LoadedCorpus {
        magic::generate_corpus(kind, self.seed, self.scale, ReduceStrategy::None, 0)
            .expect("generated listings extract")
    }

    /// Defaults for quick CPU runs.
    pub fn quick() -> RunArgs {
        RunArgs { scale: 0.02, epochs: 15, folds: 5, seed: 7, full: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_defaults_are_sane() {
        let a = RunArgs::quick();
        assert!(a.scale > 0.0);
        assert!(a.epochs > 0);
        assert_eq!(a.folds, 5);
        assert!(!a.full);
    }
}
