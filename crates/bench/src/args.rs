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

/// The flags [`RunArgs::parse`] accepts, after the program name.
const USAGE: &str = "[--scale X] [--epochs N] [--folds K] [--seed S] [--full]

  --scale X    corpus scale relative to the paper's dataset sizes
  --epochs N   training epochs per run
  --folds K    cross-validation folds
  --seed S     base RNG seed
  --full       run the full 208-setting grid (tuning binary only)
  --help       print this message
";

/// Why [`RunArgs::parse_from`] returned no [`RunArgs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help` (or `-h`) was given.
    Help,
    /// An unknown flag, a flag without its value, or a value that does
    /// not parse.
    Invalid(String),
}

impl RunArgs {
    /// Parses `--scale X --epochs N --folds K --seed S --full` from
    /// `std::env::args`, starting from the given defaults. `--help`
    /// prints the usage to stdout and exits 0; a malformed command line
    /// prints the error and the usage to stderr and exits 2.
    pub fn parse(defaults: RunArgs) -> RunArgs {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        match Self::parse_from(defaults, argv) {
            Ok(args) => args,
            Err(ArgsError::Help) => {
                print!("usage: {program} {USAGE}");
                std::process::exit(0)
            }
            Err(ArgsError::Invalid(msg)) => {
                eprint!("error: {msg}\nusage: {program} {USAGE}");
                std::process::exit(2)
            }
        }
    }

    /// [`RunArgs::parse`] over `args` (without the program name),
    /// returning what it would print instead of exiting.
    pub fn parse_from(defaults: RunArgs, args: impl IntoIterator<Item = String>) -> Result<RunArgs, ArgsError> {
        fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, ArgsError> {
            let v = v.ok_or_else(|| ArgsError::Invalid(format!("missing value for {flag}")))?;
            v.parse().map_err(|_| ArgsError::Invalid(format!("bad value {v:?} for {flag}")))
        }
        let mut out = defaults;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--scale" => out.scale = value(&flag, args.next())?,
                "--epochs" => out.epochs = value(&flag, args.next())?,
                "--folds" => out.folds = value(&flag, args.next())?,
                "--seed" => out.seed = value(&flag, args.next())?,
                "--full" => out.full = true,
                "--help" | "-h" => return Err(ArgsError::Help),
                other => return Err(ArgsError::Invalid(format!("unknown flag {other}"))),
            }
        }
        Ok(out)
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

    fn parse(args: &[&str]) -> Result<RunArgs, ArgsError> {
        RunArgs::parse_from(RunArgs::quick(), args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_override_the_defaults() {
        let a = parse(&["--scale", "0.5", "--epochs", "3", "--folds", "2", "--seed", "9", "--full"]).unwrap();
        assert_eq!(a, RunArgs { scale: 0.5, epochs: 3, folds: 2, seed: 9, full: true });
        assert_eq!(parse(&[]).unwrap(), RunArgs::quick());
    }

    #[test]
    fn help_is_its_own_outcome() {
        assert_eq!(parse(&["--help"]), Err(ArgsError::Help));
        assert_eq!(parse(&["--seed", "1", "-h"]), Err(ArgsError::Help));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(parse(&["--sede", "1"]), Err(ArgsError::Invalid("unknown flag --sede".into())));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(parse(&["--epochs"]), Err(ArgsError::Invalid("missing value for --epochs".into())));
    }

    #[test]
    fn bad_number_is_an_error() {
        assert_eq!(
            parse(&["--folds", "five"]),
            Err(ArgsError::Invalid("bad value \"five\" for --folds".into()))
        );
        assert!(matches!(parse(&["--scale", "-"]), Err(ArgsError::Invalid(_))));
    }
}
