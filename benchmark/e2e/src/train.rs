//! `train-ref` and `train-coarsen-stream`: one training epoch of the
//! Table II best mskcfg model, from RAM and streamed from a reduced
//! shard cache.

use crate::common::{self, describe, Ctx};
use crate::metrics::{Checks, Report};
use crate::stats;
use crate::trace::{EventSink, Spans, Table};
use magic::corpus_cache::{CacheSpec, CorpusKind, DEFAULT_SHARDS};
use magic::{build_cache, load_cache, open_streaming, EpochStats, Trainer};
use magic_bench::experiments::{best_params, Corpus};
use magic_data::{stratified_kfold, Fold, StreamedCorpus};
use magic_graph::ReduceStrategy;
use magic_model::{Dgcnn, GraphInput};
use magic_obs::Event;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Which training workload.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// mskcfg at scale 0.01, no reduction, from RAM.
    Ref,
    /// mskcfg at scale 0.05, `coarsen:2`, streamed from a shard cache.
    CoarsenStream,
}

const COARSEN: ReduceStrategy = ReduceStrategy::Coarsen { rounds: 2 };
/// RAM epochs the stall comparison takes its median from.
const RAM_EPOCHS: usize = 5;

enum Source {
    Ram(Vec<GraphInput>),
    Stream {
        corpus: Box<StreamedCorpus>,
        dir: PathBuf,
        /// The same cache loaded into RAM (traced runs only).
        ram: Option<Vec<GraphInput>>,
    },
}

impl Drop for Source {
    fn drop(&mut self) {
        if let Source::Stream { dir, .. } = self {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

struct State {
    source: Source,
    labels: Vec<usize>,
    split: Fold,
    sizes: Vec<usize>,
    seed: u64,
    trainer: Trainer,
    /// The persistent model, one warm-up epoch in, and that epoch.
    model: Option<(Dgcnn, EpochStats)>,
    /// Set-up checks (streamed vs RAM epoch).
    checks: Checks,
    /// `build_cache` seconds and bytes written, for the stream.
    build: Option<(f64, u64)>,
    counts: Option<common::CorpusCounts>,
}

impl State {
    fn fresh_model(&self) -> Dgcnn {
        common::model(&self.sizes, self.seed)
    }

    /// One epoch of the workload's source on `model`.
    fn epoch(&self, model: &mut Dgcnn) -> EpochStats {
        let (train, val) = (&self.split.train, &self.split.validation);
        let outcome = match &self.source {
            Source::Ram(inputs) => self.trainer.train(model, inputs, &self.labels, train, val),
            Source::Stream { corpus, .. } => {
                self.trainer
                    .train_streamed(model, corpus, &self.labels, train, val)
            }
        };
        outcome.history[0]
    }
}

fn setup(ctx: &Ctx, kind: Kind) -> State {
    let seed = ctx.seed;
    let (source, labels, sizes, build, counts) = match kind {
        Kind::Ref => {
            let (listings, labels) = common::generate(seed, ctx.scale(0.01));
            let (inputs, counts) = common::extract(&listings, ReduceStrategy::None);
            let sizes = inputs.iter().map(GraphInput::vertex_count).collect();
            (Source::Ram(inputs), labels, sizes, None, Some(counts))
        }
        Kind::CoarsenStream => {
            // Each set-up drops the previous one's cache before building.
            let dir = ctx.out_dir.join(format!("cache-{}", std::process::id()));
            let spec = CacheSpec {
                corpus: CorpusKind::Mskcfg,
                seed,
                scale: ctx.scale(0.05),
                reduce: COARSEN,
                shards: DEFAULT_SHARDS,
            };
            let start = Instant::now();
            let built = build_cache(&dir, &spec, 0, true).expect("build the shard cache");
            let build = (start.elapsed().as_secs_f64(), built.bytes);
            let corpus = Box::new(
                open_streaming(&dir, Some(spec.fingerprint())).expect("open the shard cache"),
            );
            let ram = load_cache(&dir, Some(spec.fingerprint()), 0)
                .expect("load the shard cache")
                .inputs;
            let labels = corpus.labels().to_vec();
            let sizes = corpus.vertex_counts().to_vec();
            let source = Source::Stream {
                corpus,
                dir,
                ram: Some(ram),
            };
            (source, labels, sizes, Some(build), None)
        }
    };
    let split = stratified_kfold(&labels, 5, seed).swap_remove(0);
    let mut state = State {
        source,
        labels,
        split,
        sizes,
        seed,
        // Execution knobs stay at `TrainConfig::default()`.
        trainer: Trainer::new(best_params(Corpus::Mskcfg).to_train_config(1, seed)),
        model: None,
        checks: Checks::default(),
        build,
        counts,
    };

    // The warm-up epoch. For the stream it doubles as the check that a
    // streamed epoch and a RAM epoch on fresh models agree bitwise.
    let mut model = state.fresh_model();
    let warmup = state.epoch(&mut model);
    let ram_copy = match &mut state.source {
        Source::Stream { ram, .. } => {
            if ctx.trace {
                ram.clone()
            } else {
                ram.take()
            }
        }
        Source::Ram(_) => None,
    };
    if let Some(inputs) = ram_copy {
        let mut ram_model = state.fresh_model();
        let (train, val) = (&state.split.train, &state.split.validation);
        let from_ram = state
            .trainer
            .train(&mut ram_model, &inputs, &state.labels, train, val)
            .history[0];
        state
            .checks
            .check(loss_bits(&from_ram) == loss_bits(&warmup), || {
                format!("streamed epoch {warmup:?} differs from RAM epoch {from_ram:?}")
            });
    }
    state.model = Some((model, warmup));
    state
}

fn loss_bits(s: &EpochStats) -> (u32, u32) {
    (s.train_loss.to_bits(), s.val_loss.to_bits())
}

/// Epochs (after the warm-up) the digest and the traced phase cover.
fn digest_epochs(ctx: &Ctx) -> usize {
    if ctx.tiny {
        1
    } else {
        5
    }
}

/// FNV hash of every epoch's train and validation loss bits.
fn digest(epochs: &[EpochStats]) -> u64 {
    stats::fnv1a_f32(epochs.iter().flat_map(|e| [e.train_loss, e.val_loss]))
}

pub fn run(ctx: &Ctx, kind: Kind) -> Report {
    let name = match kind {
        Kind::Ref => "train-ref",
        Kind::CoarsenStream => "train-coarsen-stream",
    };
    let mut report = Report::default();
    // The trainer's default executor runs one lane per core.
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut first_warmup = None;
    let (mut state, setup_times) = common::repeated_setup(ctx, lanes, || {
        let state = setup(ctx, kind);
        // Every set-up trains the same warm-up epoch: it must repeat
        // bitwise.
        let warmup = state.model.as_ref().expect("set-up trains a model").1;
        let bits = loss_bits(&warmup);
        report
            .checks
            .check(*first_warmup.get_or_insert(bits) == bits, || {
                format!("warm-up epoch {warmup:?} differs from the first set-up's")
            });
        state
    });
    report.checks.merge(std::mem::take(&mut state.checks));

    let min_epochs = digest_epochs(ctx);
    let (mut model, warmup) = state.model.take().expect("set-up trains a model");
    let mut history = vec![warmup];
    let mut epoch_s = Vec::new();
    let mut probes = ctx.probes();
    let begun = Instant::now();
    while epoch_s.len() < min_epochs || begun.elapsed().as_secs_f64() < ctx.seconds {
        probes.take(lanes);
        let start = Instant::now();
        let stats = state.epoch(&mut model);
        epoch_s.push(start.elapsed().as_secs_f64());
        report.checks.check(
            stats.train_loss.is_finite() && stats.val_loss.is_finite(),
            || format!("epoch {} has a non-finite loss: {stats:?}", history.len()),
        );
        history.push(stats);
    }
    let loss_digest = digest(&history[..=min_epochs]);
    report.note(describe("epoch", &epoch_s, "s"));
    report.note(format!(
        "check.loss_digest {loss_digest:016x} (first {} epochs)",
        min_epochs + 1
    ));
    let samples = state.split.train.len() as f64;

    if !ctx.trace {
        let throughput = samples * epoch_s.len() as f64 / epoch_s.iter().sum::<f64>();
        let latency = 1e3 * stats::median(&epoch_s);
        common::report_end_to_end(&mut report, &setup_times, latency, throughput, &probes);
        return report;
    }

    // Untraced comparisons first: tensor memory accounting, switched on
    // for the traced phase, stays on.
    if let Source::Stream { corpus, ram, .. } = &state.source {
        let inputs = ram.as_ref().expect("traced runs keep the RAM copy");
        let mut ram_model = state.fresh_model();
        let (train, val) = (&state.split.train, &state.split.validation);
        state
            .trainer
            .train(&mut ram_model, inputs, &state.labels, train, val);
        let ram_s: Vec<f64> = (0..RAM_EPOCHS)
            .map(|_| {
                let start = Instant::now();
                state
                    .trainer
                    .train(&mut ram_model, inputs, &state.labels, train, val);
                start.elapsed().as_secs_f64()
            })
            .collect();
        let stream_median = stats::median(&epoch_s);
        let stall = stream_median - stats::median(&ram_s);
        report.note(describe("RAM epoch", &ram_s, "s"));
        report.note(format!("data.stall: {:.3} ms per epoch", stall * 1e3));
        report.set("data.stall_pct", 100.0 * stall / stream_median);

        let all: Vec<usize> = train.iter().chain(val).copied().collect();
        let start = Instant::now();
        let fetched = corpus.fetch(&all).expect("decode every record").len();
        let read_s = start.elapsed().as_secs_f64();
        report.note(format!(
            "data.read: {:.3} ms to decode the {fetched} records of an epoch",
            read_s * 1e3
        ));
        report.set("data.read_pct", 100.0 * read_s / stream_median);

        let (build_s, bytes) = state.build.expect("the stream builds its cache");
        report.note(format!(
            "data.build: {:.3} ms, {bytes} bytes written",
            build_s * 1e3
        ));
        report.set("data.build_pct", 100.0 * build_s / setup_times.raw[0]);
        report.set("data.bytes_written", bytes as f64);
    }

    let traced = traced_epochs(&state, min_epochs);
    report.checks.check(traced.digest == loss_digest, || {
        format!(
            "traced loss digest {:016x} differs from untraced {loss_digest:016x}",
            traced.digest
        )
    });
    report.note(format!(
        "check.loss_digest {:016x} traced (first {} epochs)",
        traced.digest,
        min_epochs + 1
    ));
    report.note(traced.table.render());
    report.set_shares(&traced.table);
    report.set(
        "trace.overhead_ratio",
        stats::median(&traced.epoch_s) / stats::median(&epoch_s),
    );
    report.set("kernel.gflop", traced.gflop);
    report.set("tape.pool_misses_steady", traced.pool_misses);
    report.set("tape.allocs_per_epoch", traced.allocs);
    if matches!(state.source, Source::Stream { .. }) {
        report.set("data.bytes_read", traced.bytes_read);
        // The shard cache hides its listings; count them here.
        let (listings, _) = common::generate(ctx.seed, ctx.scale(0.05));
        common::extract(&listings, COARSEN).1.report(&mut report);
    } else if let Some(counts) = state.counts {
        counts.report(&mut report);
    }
    common::write_spans(ctx, name, &traced.spans, &mut report);
    report
}

/// Table rows, in order; every `op_profile` row lands in exactly one.
const ROWS: [&str; 9] = [
    "kernel.conv2d",
    "kernel.graph_conv",
    "kernel.pool",
    "kernel.elementwise",
    "host.param_bind",
    "host.sample_overhead",
    "host.grad",
    "host.optimizer_step",
    "host.evaluate",
];

/// The table row an `op_profile` row belongs to.
fn row_of(kind: &str, phase: &str) -> &'static str {
    if phase == "host" {
        return match kind {
            "param.bind" => "host.param_bind",
            "grad.accumulate" | "grad.reduce" | "grad.clip" => "host.grad",
            "optimizer.step" => "host.optimizer_step",
            "evaluate" => "host.evaluate",
            // `sample.overhead` and any host work without a row of its own.
            _ => "host.sample_overhead",
        };
    }
    if kind.starts_with("conv2d") || kind == "im2col" {
        "kernel.conv2d"
    } else if kind.starts_with("spmm_norm")
        || kind.starts_with("matmul")
        || kind.starts_with("gemm")
    {
        "kernel.graph_conv"
    } else if kind.contains("pool") || kind.starts_with("gather") || kind.starts_with("pad_rows") {
        "kernel.pool"
    } else {
        "kernel.elementwise"
    }
}

struct Traced {
    digest: u64,
    epoch_s: Vec<f64>,
    table: Table,
    gflop: f64,
    pool_misses: f64,
    allocs: f64,
    bytes_read: f64,
    spans: Spans,
}

/// A fresh model trained for the warm-up plus `epochs` epochs with the
/// library's telemetry collected in memory.
fn traced_epochs(state: &State, epochs: usize) -> Traced {
    let sink = Arc::new(EventSink::default());
    let mut model = state.fresh_model();
    let origin = Instant::now();
    let mut spans = Spans::new(origin);
    magic_obs::install(sink.clone());
    magic_tensor::mem::enable();
    let mut history = Vec::new();
    let mut epoch_s = Vec::new();
    let mut sums = [0.0f64; ROWS.len()];
    let (mut flops, mut bytes_read, mut lanes) = (0.0, 0.0, 1.0f64);
    let (mut pool_misses, mut allocs) = (f64::INFINITY, f64::INFINITY);
    for e in 0..=epochs {
        let start = Instant::now();
        history.push(state.epoch(&mut model));
        let end = Instant::now();
        let events = sink.drain();
        let root = spans.push_between(e as u64, None, "epoch", start, end);
        add_library_spans(&mut spans, e as u64, root, &events);
        if e == 0 {
            continue; // the warm-up epoch fills pools; attribute steady epochs
        }
        epoch_s.push((end - start).as_secs_f64());
        let (mut misses, mut alloc) = (0.0, 0.0);
        for event in &events {
            match event {
                Event::OpProfile {
                    kind,
                    phase,
                    self_ns,
                    flops: f,
                    ..
                } => {
                    let row = ROWS
                        .iter()
                        .position(|r| *r == row_of(kind, phase))
                        .expect("row");
                    sums[row] += *self_ns as f64 / 1e6;
                    flops += *f as f64;
                }
                Event::Histogram { name, value, .. } if name == magic_obs::stage::H_POOL_MISSES => {
                    misses += value
                }
                Event::Histogram { name, value, .. } if name == magic_obs::stage::H_ALLOC_COUNT => {
                    alloc += value
                }
                Event::Counter { name, delta, .. }
                    if name == magic_obs::stage::C_CACHE_BYTES_READ =>
                {
                    bytes_read += delta;
                }
                Event::SpanStart { stage, fields, .. } if stage == magic_obs::stage::TRAIN => {
                    if let Some((_, w)) = fields.iter().find(|(k, _)| k == "workers") {
                        lanes = *w;
                    }
                }
                _ => {}
            }
        }
        pool_misses = pool_misses.min(misses);
        allocs = allocs.min(alloc);
    }
    magic_obs::uninstall();
    let n = epochs.max(1) as f64;
    let wall_ms = 1e3 * stats::mean(&epoch_s);
    let table = Table {
        unit: format!("epoch x {lanes} lanes"),
        total: wall_ms * lanes,
        scale: "ms",
        rows: ROWS
            .iter()
            .zip(sums)
            .map(|(r, s)| (r.to_string(), s / n))
            .collect(),
        residual_name: "epoch.residual".to_string(),
    };
    Traced {
        digest: digest(&history),
        epoch_s,
        table,
        gflop: flops / n / 1e9,
        pool_misses,
        allocs,
        bytes_read: bytes_read / n,
        spans,
    }
}

/// The trainer's own spans of one epoch (`train.run`, `train.epoch`,
/// `train.evaluate`, …) under the benchmark's `epoch` span. Library
/// timestamps count from the recorder's install, which is where the
/// benchmark's clock starts too.
fn add_library_spans(spans: &mut Spans, trace: u64, root: u64, events: &[Event]) {
    let mut open: HashMap<u64, (Option<u64>, String, u64)> = HashMap::new();
    let mut done: Vec<(u64, Option<u64>, String, u64, u64)> = Vec::new();
    for event in events {
        match event {
            Event::SpanStart {
                id,
                parent,
                stage,
                ts_us,
                ..
            } => {
                open.insert(*id, (*parent, stage.clone(), *ts_us));
            }
            Event::SpanEnd { id, ts_us, .. } => {
                if let Some((parent, stage, start)) = open.remove(id) {
                    done.push((*id, parent, stage, start, *ts_us));
                }
            }
            _ => {}
        }
    }
    done.sort_by_key(|d| d.3);
    let mut ids: HashMap<u64, u64> = HashMap::new();
    for (id, parent, stage, start, end) in done {
        let parent = parent.and_then(|p| ids.get(&p).copied()).unwrap_or(root);
        let mine = spans.push(trace, Some(parent), &stage, start as f64, end as f64);
        ids.insert(id, mine);
    }
}
