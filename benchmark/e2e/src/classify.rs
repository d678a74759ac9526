//! `classify-asm`: `.asm` text → verdict through
//! `MagicPipeline::classify_listing`, on one caller thread, with
//! `coarsen:2` reduction — the path `magic predict` takes.

use crate::common::{self, describe, Ctx};
use crate::metrics::{Checks, Report};
use crate::stats;
use crate::trace::{Spans, Table};
use magic::MagicPipeline;
use magic_asm::{parse_listing, CfgBuilder};
use magic_graph::{Acfg, ReduceStrategy};
use magic_model::GraphInput;
use std::time::Instant;

const SCALE: f64 = 0.05;
const REDUCE: ReduceStrategy = ReduceStrategy::Coarsen { rounds: 2 };

struct State {
    listings: Vec<String>,
    /// Expected (family index, probability) per listing, from offline
    /// `predict_batch_sorted` over batches of 16.
    expected: Vec<(usize, f32)>,
    pipeline: MagicPipeline,
    names: Vec<String>,
    counts: common::CorpusCounts,
    /// The warm-up pass, checked against `expected`.
    first_pass: Checks,
}

fn setup(ctx: &Ctx) -> State {
    let (listings, _labels) = common::generate(ctx.seed, ctx.scale(SCALE));
    let (inputs, counts) = common::extract(&listings, REDUCE);
    let sizes: Vec<usize> = inputs.iter().map(GraphInput::vertex_count).collect();
    let model = common::model(&sizes, ctx.seed);
    let expected = common::reference_probs(&model, &inputs)
        .iter()
        .map(|p| common::argmax(p))
        .collect();
    let names = common::family_names();
    let pipeline = MagicPipeline::with_reduce(model, names.clone(), REDUCE);
    let mut state = State {
        listings,
        expected,
        pipeline,
        names,
        counts,
        first_pass: Checks::default(),
    };
    state.first_pass = pass(&state, &mut Vec::new());
    state
}

/// Classifies every listing once, timing each call (ms), and checks each
/// verdict bitwise against the offline prediction.
fn pass(state: &State, times_ms: &mut Vec<f64>) -> Checks {
    let mut checks = Checks::default();
    for (i, listing) in state.listings.iter().enumerate() {
        let start = Instant::now();
        let verdict = state.pipeline.classify_listing(listing);
        times_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let (family, p) = state.expected[i];
        let ok = matches!(verdict, Ok((name, q)) if name == state.names[family] && q.to_bits() == p.to_bits());
        checks.check(ok, || {
            format!("listing {i}: got {verdict:?}, offline predicted class {family} with {p}")
        });
    }
    checks
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (state, setup_times) = common::repeated_setup(ctx, 1, || setup(ctx));
    report.checks.merge(state.first_pass.clone());

    // Whole passes until the budget is spent: each pass sees every
    // listing once, so per-listing statistics weigh the corpus evenly. A
    // traced run follows every pass with a decomposed one, so that both
    // see the same machine and the residual is not load drift.
    let mut per_listing = Vec::new();
    let mut pass_s = Vec::new();
    let mut traced = ctx.trace.then(|| Decomposed::new(Instant::now()));
    let mut probes = ctx.probes();
    let begun = Instant::now();
    while pass_s.len() < 2 || begun.elapsed().as_secs_f64() < ctx.seconds {
        probes.take(1);
        let start = Instant::now();
        report.checks.merge(pass(&state, &mut per_listing));
        pass_s.push(start.elapsed().as_secs_f64());
        if let Some(traced) = &mut traced {
            traced.pass(&state, &mut report.checks);
        }
    }
    let n = state.listings.len() as f64;
    report.note(describe("time per listing", &per_listing, "ms"));
    report.note(describe("time per pass", &pass_s, "s"));

    let Some(traced) = traced else {
        let throughput = n * pass_s.len() as f64 / pass_s.iter().sum::<f64>();
        let latency = stats::median(&per_listing);
        common::report_end_to_end(&mut report, &setup_times, latency, throughput, &probes);
        return report;
    };
    report.note(describe("time per decomposed pass", &traced.pass_s, "s"));
    let listings_traced = n * traced.pass_s.len() as f64;
    let table = Table {
        unit: "listing, untraced mean".to_string(),
        total: 1e6 * stats::median(&pass_s) / n,
        scale: "us",
        rows: ROWS
            .iter()
            .zip(traced.rows)
            .map(|(name, sum)| (name.to_string(), sum / listings_traced))
            .collect(),
        residual_name: "classify.residual".to_string(),
    };
    report.note(table.render());
    report.set_shares(&table);
    report.set(
        "trace.overhead_ratio",
        stats::median(&traced.pass_s) / stats::median(&pass_s),
    );
    state.counts.report(&mut report);
    common::write_spans(ctx, "classify-asm", &traced.spans, &mut report);
    report
}

/// The traced passes: the same work as one public call per layer, each
/// timed from here.
struct Decomposed {
    spans: Spans,
    /// Summed time of each row, µs.
    rows: [f64; ROWS.len()],
    pass_s: Vec<f64>,
}

impl Decomposed {
    fn new(origin: Instant) -> Self {
        Decomposed {
            spans: Spans::new(origin),
            rows: [0.0; ROWS.len()],
            pass_s: Vec::new(),
        }
    }

    /// One decomposed pass over every listing, checked like `pass`.
    fn pass(&mut self, state: &State, checks: &mut Checks) {
        let start = Instant::now();
        for (i, listing) in state.listings.iter().enumerate() {
            let trace_id = (self.pass_s.len() * state.listings.len() + i) as u64;
            let (stamps, probs) = decomposed(&state.pipeline, listing);
            // Spans of the first pass only keep the trace file small.
            let root = self.pass_s.is_empty().then(|| {
                self.spans
                    .push_between(trace_id, None, "listing", stamps[0], stamps[6])
            });
            for (k, name) in ROWS.iter().enumerate() {
                if root.is_some() {
                    self.spans
                        .push_between(trace_id, root, name, stamps[k], stamps[k + 1]);
                }
                self.rows[k] += (stamps[k + 1] - stamps[k]).as_secs_f64() * 1e6;
            }
            let (family, p) = state.expected[i];
            let got = common::argmax(&probs);
            checks.check(got.0 == family && got.1.to_bits() == p.to_bits(), || {
                format!("listing {i}: decomposed call predicted {got:?}, offline {family} with {p}")
            });
        }
        self.pass_s.push(start.elapsed().as_secs_f64());
    }
}

/// The layers of one classification, in call order.
const ROWS: [&str; 6] = [
    "asm.parse",
    "asm.cfg_build",
    "graph.acfg",
    "graph.reduce",
    "model.input",
    "model.predict",
];

/// `classify_listing` as its public calls, with an instant before each
/// call and one after the last.
fn decomposed(pipeline: &MagicPipeline, listing: &str) -> ([Instant; 7], Vec<f32>) {
    let t0 = Instant::now();
    let program = parse_listing(listing).expect("generated listings parse");
    let t1 = Instant::now();
    let cfg = CfgBuilder::new(&program).build();
    let t2 = Instant::now();
    let acfg = Acfg::from_cfg(&cfg);
    let t3 = Instant::now();
    let reduced = REDUCE.apply(&acfg);
    let t4 = Instant::now();
    let input = GraphInput::from_acfg(&reduced);
    let t5 = Instant::now();
    let probs = pipeline.model().predict(&input);
    let t6 = Instant::now();
    ([t0, t1, t2, t3, t4, t5, t6], probs)
}
