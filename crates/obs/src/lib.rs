#![warn(missing_docs)]

//! **magic-obs** — structured tracing and metrics for the MAGIC pipeline.
//!
//! The pipeline (asm → CFG → ACFG → DGCNN train/predict) is instrumented
//! with *spans* (named, nested timed regions), *counters* (accumulating
//! totals), and *histograms* (distributions of observations, mostly
//! timings). Events flow to a process-global [`Recorder`]:
//!
//! * [`NullRecorder`] — discards everything; with *no* recorder
//!   installed, instrumentation costs one relaxed atomic load.
//! * [`JsonlRecorder`] — streams `magic-trace/3` JSON lines (one event
//!   per line, written with `magic-json`) to a file or writer. The CLI's
//!   `--trace <path>` flag installs this, and `magic report --trace`
//!   aggregates the result via [`report::TraceSummary`] (readers accept
//!   v1 through v3 traces).
//!
//! The event schema ([`Event`]) and stage-name registry ([`stage`]) are
//! a versioned public contract, documented in `docs/OBSERVABILITY.md`.
//!
//! Live telemetry (as opposed to post-hoc trace files) is served by the
//! [`timeseries`] module: sliding-window counters and log-linear
//! histograms with interpolated quantiles, used by `magic serve` to
//! back its `/metrics` endpoint. The `magic serve --access-log` JSONL
//! stream ([`Event::ServeAccess`], schema v3) is aggregated offline by
//! [`serve_report::ServeLogSummary`] (`magic report --serve`).
//!
//! Telemetry is observational only: instrumented code takes no RNG
//! draws and makes no numeric decisions based on it, so a traced
//! training run is bitwise identical to an untraced one.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use magic_obs::{stage, JsonlRecorder, report::TraceSummary};
//!
//! // Stream a tiny trace to a file, as `magic train --trace` would.
//! let path = std::env::temp_dir().join("magic-obs-doctest.jsonl");
//! magic_obs::install(Arc::new(JsonlRecorder::create(&path)?));
//! magic_obs::meta("doctest", "baseline");
//! {
//!     let _run = magic_obs::span(stage::TRAIN);
//!     let _epoch = magic_obs::span_fields(stage::TRAIN_EPOCH, &[("epoch", 0.0)]);
//!     magic_obs::counter(stage::C_TRAIN_SAMPLES, 16.0);
//! } // guards drop here -> span_end events are written
//! magic_obs::uninstall(); // flushes
//!
//! // Aggregate it back, as `magic report --trace` would.
//! let text = std::fs::read_to_string(&path)?;
//! let summary = TraceSummary::from_lines(text.lines()).map_err(std::io::Error::other)?;
//! assert_eq!(summary.events, 6); // meta + 2 span starts + counter + 2 span ends
//! assert!(summary.stages.iter().any(|s| s.stage == stage::TRAIN_EPOCH));
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), std::io::Error>(())
//! ```

mod event;
pub mod flamegraph;
mod recorder;
pub mod report;
mod runtime;
pub mod serve_report;
pub mod stage;
pub mod timeseries;

pub use event::{read_events, Event, MIN_SCHEMA_VERSION, SCHEMA_NAME, SCHEMA_VERSION};
pub use recorder::{JsonlRecorder, NullRecorder, Recorder};
pub use runtime::{
    counter, flush, histogram, histogram_fields, install, is_enabled, log, log_enabled, log_level,
    meta, op_profile, record, set_log_level, span, span_fields, uninstall, Level, Span,
};
