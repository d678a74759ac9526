//! `magic-serve` — the online half of the paper's deployment story
//! (Section VII): an HTTP inference daemon that classifies malware
//! CFGs with a trained DGCNN, fusing concurrent requests into
//! block-diagonal micro-batches.
//!
//! The crate is std-only, like the rest of the workspace: the HTTP/1.1
//! codec ([`http`]), the bounded batching queue ([`queue`]), the
//! serving counters and windowed telemetry ([`stats`]), their one
//! Prometheus `/metrics` exposition ([`metrics`]), and the JSON wire
//! protocol ([`protocol`]) are all hand-rolled. [`server::start`] wires
//! them into a listener + IO pool + model-worker runtime; the
//! `magic serve` CLI subcommand is a thin flag-parsing shell around it.
//!
//! Batching relies on a proven invariant of the PR 6 batched forward:
//! fusing graphs into one [`magic_model::GraphBatch`] is bitwise
//! identical to running each graph alone, so the micro-batcher changes
//! throughput and latency but never a single probability bit. The wire
//! protocol preserves that exactness end to end — scores are printed
//! with shortest-roundtrip formatting, so what a client parses is
//! bit-for-bit what the model produced. Operational semantics (status
//! codes, load shedding, tuning) are documented in `docs/SERVING.md`.

#![warn(missing_docs)]

pub mod http;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod stats;

pub use server::{start, ServeConfig, ServerHandle, IO_TIMEOUT};
