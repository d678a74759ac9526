//! `magic` — command-line front end for the MAGIC DGCNN malware
//! classifier.
//!
//! ```text
//! magic extract <listing.asm> [--dot]        print the ACFG (or DOT)
//! magic train --corpus mskcfg|yancfg [--scale S] [--epochs N] --out model.magic
//! magic predict --model model.magic <listing.asm>...
//! magic serve --model model.magic            micro-batching HTTP daemon
//! magic info --model model.magic             show checkpoint metadata
//! magic profile mskcfg|yancfg                per-op time/FLOP attribution
//! magic report --trace trace.jsonl           aggregate a telemetry trace
//! magic report --trace t.jsonl --flamegraph  collapsed stacks for flamegraphs
//! ```
//!
//! Subcommands accept `--trace <path>` (stream a `magic-trace/3`
//! JSONL telemetry trace, see `docs/OBSERVABILITY.md`; `report` and
//! `profile` handle the trace themselves) and
//! `--log-level <off|error|info|debug|trace>`.

mod checkpoint_file;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            magic_obs::log(magic_obs::Level::Error, format!("error: {e}"));
            ExitCode::FAILURE
        }
    }
}
