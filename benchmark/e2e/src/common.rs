//! What the workloads share: the run context, corpus extraction through
//! the public front-end calls, the Table II model, offline reference
//! predictions and the repeated set-up.

use crate::metrics::Report;
use crate::probe::{Probes, REFERENCE_MS};
use crate::stats;
use crate::trace::Spans;
use magic_asm::{parse_listing, CfgBuilder};
use magic_autograd::Tape;
use magic_bench::experiments::{best_params, Corpus};
use magic_graph::{Acfg, ReduceStrategy};
use magic_model::{Dgcnn, GraphInput};
use magic_synth::{MskcfgGenerator, MSKCFG_FAMILIES};
use std::path::PathBuf;
use std::time::Instant;

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Measurement budget of the run, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny corpora and single set-ups, for the debug-build smoke test.
    pub tiny: bool,
    /// Where records, traces and scratch files go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Corpus scale: the workload's own at full size, the generator's
    /// floor (ten listings per family) when tiny.
    pub fn scale(&self, full: f64) -> f64 {
        if self.tiny {
            0.0005
        } else {
            full
        }
    }

    /// An empty set of probe samples. The smoke test's debug build runs
    /// a hundredth of the probe.
    pub fn probes(&self) -> Probes {
        Probes::new(if self.tiny { 0.01 } else { 1.0 })
    }

    /// Set-ups per run; `setup_s` is their median. A traced run reports
    /// no end-to-end metrics, so it sets up once.
    pub fn setup_repeats(&self) -> usize {
        if self.tiny || self.trace {
            1
        } else {
            5
        }
    }
}

/// Durations of a run's set-ups, as measured and scaled to the
/// reference machine speed by a probe taken just before each.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub raw: Vec<f64>,
    pub scaled: Vec<f64>,
}

/// Runs `setup` the context's number of times, dropping each state
/// before building the next, and returns the last state with every
/// set-up's duration in seconds. The probe runs on `threads` threads, as
/// it does beside the workload's timed units.
pub fn repeated_setup<S>(
    ctx: &Ctx,
    threads: usize,
    mut setup: impl FnMut() -> S,
) -> (S, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut state = None;
    for _ in 0..ctx.setup_repeats() {
        drop(state.take());
        let mut probes = ctx.probes();
        probes.take(threads);
        let start = Instant::now();
        state = Some(setup());
        let raw = start.elapsed().as_secs_f64();
        times.raw.push(raw);
        times.scaled.push(raw * probes.time_scale());
    }
    (state.expect("at least one set-up"), times)
}

/// Reports the end-to-end metrics: `setup_s`, and the median latency and
/// the throughput scaled by the probes taken beside them. The unscaled
/// values and the peak resident set go to the notes; the resident set
/// varies from run to run with the allocator's per-thread arenas
/// (125–196 MB over ten train-ref runs), too much to gate.
pub fn report_end_to_end(
    report: &mut Report,
    setup: &SetupTimes,
    latency_ms: f64,
    throughput: f64,
    probes: &Probes,
) {
    let scale = probes.time_scale();
    report.set("setup_s", stats::median(&setup.scaled));
    report.set("latency_p50_ms", latency_ms * scale);
    report.set("throughput_per_s", throughput / scale);
    let list = |v: &[f64]| {
        v.iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.note(format!(
        "set-up: {} time(s) {} s, scaled {} s",
        setup.raw.len(),
        list(&setup.raw),
        list(&setup.scaled)
    ));
    report.note(format!(
        "probe: median {:.3} ms over {} sample(s), reference {REFERENCE_MS} ms: times x {scale:.4}",
        probes.median_ms(),
        probes.len(),
    ));
    report.note(format!(
        "unscaled: latency_p50_ms {latency_ms} ms, throughput_per_s {throughput} 1/s"
    ));
    if let Some(mb) = peak_rss_mb() {
        report.note(format!("peak_rss_mb {mb:.3} MB (VmHWM, not gated)"));
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The mskcfg corpus for `seed` at `scale`: listings and labels.
pub fn generate(seed: u64, scale: f64) -> (Vec<String>, Vec<usize>) {
    MskcfgGenerator::new(seed, scale)
        .generate()
        .into_iter()
        .map(|s| (s.listing, s.label))
        .unzip()
}

/// Exact sizes of a corpus on its way through the front end.
#[derive(Debug, Default, Clone, Copy)]
pub struct CorpusCounts {
    pub asm_bytes: u64,
    pub nodes_in: u64,
    pub nodes_out: u64,
    pub edges_out: u64,
}

impl CorpusCounts {
    pub fn report(&self, report: &mut Report) {
        report.set("asm.bytes", self.asm_bytes as f64);
        report.set("graph.nodes_in", self.nodes_in as f64);
        report.set("graph.nodes_out", self.nodes_out as f64);
        report.set("graph.edges_out", self.edges_out as f64);
    }
}

/// Model inputs for every listing, one public call per layer (listing →
/// program → CFG → ACFG → reduced ACFG → input), plus the corpus counts.
/// Generated listings always parse.
pub fn extract(listings: &[String], reduce: ReduceStrategy) -> (Vec<GraphInput>, CorpusCounts) {
    let mut counts = CorpusCounts::default();
    let inputs = listings
        .iter()
        .map(|listing| {
            let program = parse_listing(listing).expect("generated listings parse");
            let acfg = Acfg::from_cfg(&CfgBuilder::new(&program).build());
            let reduced = reduce.apply(&acfg);
            counts.asm_bytes += listing.len() as u64;
            counts.nodes_in += acfg.vertex_count() as u64;
            counts.nodes_out += reduced.vertex_count() as u64;
            counts.edges_out += reduced.edge_count() as u64;
            GraphInput::from_acfg(&reduced)
        })
        .collect();
    (inputs, counts)
}

/// The Table II best mskcfg model with seeded random weights.
pub fn model(graph_sizes: &[usize], seed: u64) -> Dgcnn {
    let config = best_params(Corpus::Mskcfg).to_model_config(MSKCFG_FAMILIES.len(), graph_sizes);
    Dgcnn::new(&config, seed)
}

pub fn family_names() -> Vec<String> {
    MSKCFG_FAMILIES.iter().map(|s| s.to_string()).collect()
}

/// Offline predictions in batches of 16, the serving batch cap: the
/// reference every online or per-listing answer must equal bitwise.
pub fn reference_probs(model: &Dgcnn, inputs: &[GraphInput]) -> Vec<Vec<f32>> {
    let mut tape = Tape::new();
    inputs
        .chunks(16)
        .flat_map(|chunk| {
            let batch: Vec<&GraphInput> = chunk.iter().collect();
            model.predict_batch_sorted(&mut tape, &batch)
        })
        .collect()
}

/// Index and value of the most probable class (the last of equal
/// maxima, as `Iterator::max_by` in the pipeline picks it).
pub fn argmax(probs: &[f32]) -> (usize, f32) {
    let mut best = (0, probs[0]);
    for (i, &p) in probs.iter().enumerate().skip(1) {
        if p >= best.1 {
            best = (i, p);
        }
    }
    best
}

/// Median, tail, range and sample count of a timing, in the unit given.
pub fn describe(name: &str, samples: &[f64], unit: &str) -> String {
    let sorted = stats::sorted(samples);
    let tail = match stats::tail(&sorted) {
        Some((q, v)) if q > 50.0 => format!(", p{q} {v:.4} {unit}"),
        _ => String::new(),
    };
    format!(
        "{name}: p50 {:.4} {unit}{tail}, min {:.4}, max {:.4}, n={}",
        stats::percentile(&sorted, 50.0),
        sorted[0],
        sorted[sorted.len() - 1],
        samples.len()
    )
}

/// Writes the run's spans to `<out>/<workload>.trace.jsonl`.
pub fn write_spans(ctx: &Ctx, workload: &str, spans: &Spans, report: &mut Report) {
    let path = ctx.out_dir.join(format!("{workload}.trace.jsonl"));
    match spans.write_jsonl(&path) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            spans.all().len(),
            path.display()
        )),
        Err(e) => report.note(format!("could not write {}: {e}", path.display())),
    }
}
