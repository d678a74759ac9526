//! The telemetry non-perturbation contract: recording a trace must not
//! change anything about a training run, and a recorded trace must be a
//! well-formed, aggregatable `magic-trace/3` stream whose op-level
//! profile explains where the epoch wall-clock went.
//!
//! These tests install process-global recorders, so they serialize on a
//! local mutex and live in their own integration binary.

use std::sync::{Arc, Mutex, PoisonError};

use magic::corpus_cache::{self, CacheSpec, CorpusKind};
use magic::pipeline::extract_acfg;
use magic::trainer::{TrainConfig, TrainOutcome, Trainer};
use magic_autograd::first_bitwise_mismatch;
use magic_data::StreamedCorpus;
use magic_model::{Dgcnn, DgcnnConfig, GraphInput, PoolingHead};
use magic_obs::report::TraceSummary;
use magic_obs::{stage, Event, JsonlRecorder, NullRecorder};
use magic_synth::codegen::CodeGenerator;
use magic_synth::profile::FamilyProfile;
use magic_tensor::Rng64;

/// The global recorder slot is shared by every test in this binary. A
/// test that fails while holding it poisons it; the others recover it
/// rather than fail too.
static GLOBAL_RECORDER: Mutex<()> = Mutex::new(());

fn corpus() -> (Vec<GraphInput>, Vec<usize>) {
    let mut loopy = FamilyProfile::base("Loopy");
    loopy.loop_weight = 3.0;
    let mut packer = FamilyProfile::base("Packer");
    packer.decoder_weight = 3.0;

    let mut rng = Rng64::new(41);
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for i in 0..16 {
        let profile = if i % 2 == 0 { &loopy } else { &packer };
        let text = CodeGenerator::new(profile).generate(&mut rng);
        inputs.push(GraphInput::from_acfg(&extract_acfg(&text).unwrap()));
        labels.push(i % 2);
    }
    (inputs, labels)
}

fn train_once(inputs: &[GraphInput], labels: &[usize]) -> (TrainOutcome, Dgcnn) {
    train_clipped(inputs, labels, TrainConfig::default().grad_clip)
}

/// 3 epochs of 12 training samples in batches of 4 (3 batches) on 2
/// lanes, validated on 4 samples.
fn train_clipped(inputs: &[GraphInput], labels: &[usize], grad_clip: f32) -> (TrainOutcome, Dgcnn) {
    let config = DgcnnConfig::new(2, PoolingHead::sort_pool_weighted(8));
    let mut model = Dgcnn::new(&config, 13);
    let trainer = Trainer::new(TrainConfig {
        epochs: 3,
        batch_size: 4,
        learning_rate: 0.02,
        seed: 5,
        grad_clip,
        train_workers: 2,
        ..TrainConfig::default()
    });
    let train_idx: Vec<usize> = (0..12).collect();
    let val_idx: Vec<usize> = (12..16).collect();
    let outcome = trainer.train(&mut model, inputs, labels, &train_idx, &val_idx);
    (outcome, model)
}

fn assert_same_run(a: &(TrainOutcome, Dgcnn), b: &(TrainOutcome, Dgcnn), what: &str) {
    assert_eq!(a.0.history, b.0.history, "history diverged: {what}");
    assert_eq!(a.0.best_val_loss, b.0.best_val_loss, "best loss diverged: {what}");
    for (name, value) in a.1.store().iter() {
        let id = b.1.store().find(name).expect("same parameter set");
        assert_eq!(
            first_bitwise_mismatch(value, b.1.store().value(id)),
            None,
            "weights for {name} diverged: {what}"
        );
    }
}

/// The headline guarantee: an uninstrumented run, a NullRecorder run,
/// and a full JsonlRecorder run produce bitwise-identical outcomes —
/// telemetry observes training, it never perturbs it.
#[test]
fn tracing_does_not_perturb_training_bitwise() {
    let _guard = GLOBAL_RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let (inputs, labels) = corpus();

    magic_obs::uninstall();
    let baseline = train_once(&inputs, &labels);

    magic_obs::install(Arc::new(NullRecorder));
    let with_null = train_once(&inputs, &labels);
    magic_obs::uninstall();
    assert_same_run(&baseline, &with_null, "NullRecorder vs disabled");

    let dir = std::env::temp_dir().join("magic-obs-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("train-trace.jsonl");
    magic_obs::install(Arc::new(JsonlRecorder::create(&path).unwrap()));
    let with_jsonl = train_once(&inputs, &labels);
    magic_obs::uninstall();
    assert_same_run(&baseline, &with_jsonl, "JsonlRecorder vs disabled");
}

/// A trace of a real training run parses line-by-line through
/// `magic-json`, covers the training stages, and closes every span.
#[test]
fn training_trace_roundtrips_and_covers_the_run() {
    let _guard = GLOBAL_RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let (inputs, labels) = corpus();

    let dir = std::env::temp_dir().join("magic-obs-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("coverage-trace.jsonl");
    magic_obs::install(Arc::new(JsonlRecorder::create(&path).unwrap()));
    magic_obs::meta("magic-integration training_trace test", magic_tensor::simd::isa().name());
    let _ = train_once(&inputs, &labels);
    magic_obs::uninstall();

    let text = std::fs::read_to_string(&path).unwrap();
    // Every line is one event that survives a parse → re-encode cycle.
    for line in text.lines() {
        let event = Event::from_jsonl_line(line).expect("well-formed event line");
        assert_eq!(Event::from_jsonl_line(&event.to_jsonl_line()).unwrap(), event);
    }

    let summary = TraceSummary::from_lines(text.lines()).unwrap();
    assert_eq!(summary.unclosed_spans, 0, "every span guard closed");
    let stages: Vec<&str> = summary.stages.iter().map(|s| s.stage.as_str()).collect();
    assert!(stages.contains(&stage::TRAIN));
    assert!(stages.contains(&stage::TRAIN_EPOCH));
    assert!(stages.contains(&stage::EVALUATE));
    let epochs = summary.stages.iter().find(|s| s.stage == stage::TRAIN_EPOCH).unwrap();
    assert_eq!(epochs.count, 3, "one span per epoch");
    // Per-worker attribution for the 2-worker run is present.
    assert!(summary
        .histograms
        .iter()
        .any(|h| h.name == stage::H_WORKER_BUSY_US && h.count >= 3));
    assert!(summary.histograms.iter().any(|h| h.name == stage::H_EPOCH_FANOUT_US));
    assert!(summary.histograms.iter().any(|h| h.name == stage::H_EPOCH_UPDATE_US));
    // train.run alone explains nearly all of the traced wall-clock.
    assert!(
        summary.coverage() > 0.95,
        "top-level spans cover {:.1}% of wall-clock",
        summary.coverage() * 100.0
    );
}

/// Schema v2 op profiling: a traced run emits per-op rows whose self
/// times, together with the host pseudo-ops, attribute the bulk of each
/// epoch's wall-clock; memory accounting reports a per-epoch peak; and
/// the trace renders to well-formed collapsed-stack lines.
#[test]
fn profiled_run_attributes_epoch_wall_clock() {
    let _guard = GLOBAL_RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let (inputs, labels) = corpus();

    let dir = std::env::temp_dir().join("magic-obs-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profile-trace.jsonl");
    magic_tensor::mem::enable();
    magic_obs::install(Arc::new(JsonlRecorder::create(&path).unwrap()));
    let _ = train_once(&inputs, &labels);
    magic_obs::uninstall();

    let text = std::fs::read_to_string(&path).unwrap();
    let summary = TraceSummary::from_lines(text.lines()).unwrap();

    // Tape ops from both phases and host pseudo-ops are all present.
    assert!(summary.ops.iter().any(|o| o.kind == "matmul" && o.phase == "fwd"));
    assert!(summary.ops.iter().any(|o| o.kind == "matmul" && o.phase == "bwd"));
    assert!(summary.ops.iter().any(|o| o.kind == stage::OP_HOST_STEP && o.phase == "host"));
    assert!(summary.ops.iter().any(|o| o.kind == stage::OP_HOST_EVALUATE));
    let matmul_fwd: u64 = summary
        .ops
        .iter()
        .filter(|o| o.kind == "matmul" && o.phase == "fwd")
        .map(|o| o.flops)
        .sum();
    assert!(matmul_fwd > 0, "matmul FLOPs counted");

    // The profile explains the epochs. The corpus here is tiny (epochs
    // are a few ms), so per-epoch glue weighs more than in a real run —
    // `magic profile` on mskcfg attributes ~100%; require 90% here to
    // stay robust under CI noise.
    let epoch_us = summary
        .stages
        .iter()
        .find(|s| s.stage == stage::TRAIN_EPOCH)
        .map(|s| s.total_us)
        .unwrap();
    let attributed_us = summary.ops_total_self_ns() / 1_000;
    assert!(
        attributed_us as f64 >= 0.90 * epoch_us as f64,
        "op rows attribute {attributed_us}us of {epoch_us}us epoch wall-clock"
    );

    // Memory accounting surfaced a nonzero per-epoch peak.
    let peak = summary
        .histograms
        .iter()
        .find(|h| h.name == stage::H_MEM_PEAK_BYTES)
        .expect("peak-memory histogram present");
    assert_eq!(peak.count, 3, "one observation per epoch");
    assert!(peak.max > 0.0);

    // The same trace renders to collapsed stacks: sorted, with op
    // leaves attached under their epoch frames.
    let lines = magic_obs::flamegraph::collapsed_from_lines(text.lines()).unwrap();
    assert!(lines.iter().any(|l| l.contains("train.epoch#0;fwd.")), "{lines:?}");
    assert!(lines.iter().any(|l| l.contains("bwd.")));
    let mut sorted = lines.clone();
    sorted.sort();
    assert_eq!(lines, sorted, "collapsed output is lexicographically sorted");
}

/// The trace text of one [`train_clipped`] run recorded to `file`, with
/// tensor memory accounting on.
fn traced_run(file: &str, grad_clip: f32) -> String {
    let (inputs, labels) = corpus();
    let dir = std::env::temp_dir().join("magic-obs-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file);
    magic_tensor::mem::enable();
    magic_obs::install(Arc::new(JsonlRecorder::create(&path).unwrap()));
    let _ = train_clipped(&inputs, &labels, grad_clip);
    magic_obs::uninstall();
    std::fs::read_to_string(&path).unwrap()
}

/// The trace text of 2 epochs on 2 lanes streamed from a small shard
/// cache, and the number of training samples per epoch.
fn streamed_traced_run(file: &str) -> (String, u64) {
    let dir = std::env::temp_dir().join("magic-obs-integration");
    let cache = dir.join(format!("stream-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let spec = CacheSpec {
        corpus: CorpusKind::Yancfg,
        seed: 9,
        scale: 0.002,
        reduce: magic_graph::ReduceStrategy::None,
        shards: 3,
    };
    corpus_cache::build(&cache, &spec, 2, false).expect("cache build");
    let corpus = StreamedCorpus::open(&cache, Some(spec.fingerprint())).expect("open stream");
    let n = corpus.len();
    let train_idx: Vec<usize> = (0..n * 3 / 4).collect();
    let val_idx: Vec<usize> = (n * 3 / 4..n).collect();
    let config = DgcnnConfig::new(corpus.class_names().len(), PoolingHead::sort_pool_weighted(8));
    let mut model = Dgcnn::new(&config, 17);
    let trainer = Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 8,
        learning_rate: 0.01,
        seed: 23,
        train_workers: 2,
        ..TrainConfig::default()
    });
    let path = dir.join(file);
    magic_obs::install(Arc::new(JsonlRecorder::create(&path).unwrap()));
    trainer.train_streamed(&mut model, &corpus, corpus.labels(), &train_idx, &val_idx);
    magic_obs::uninstall();
    let _ = std::fs::remove_dir_all(&cache);
    (std::fs::read_to_string(&path).unwrap(), train_idx.len() as u64)
}

/// The host-row contract: each host `op_profile` row counts its own
/// unit of work — per sample, per mini-batch, or per epoch — and each
/// epoch histogram has one observation per epoch (per lane for busy
/// time). With clipping off, no `grad.clip` row is emitted at all; only
/// a streamed run emits `sample.decode`.
#[test]
fn host_rows_and_epoch_histograms_count_their_units_of_work() {
    let _guard = GLOBAL_RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let (samples, batches, epochs, lanes) = (12 * 3, 3 * 3, 3, 2);
    let host_calls = |text: &str| -> Vec<(String, u64)> {
        let summary = TraceSummary::from_lines(text.lines()).unwrap();
        let mut rows: Vec<(String, u64)> = summary
            .ops
            .iter()
            .filter(|o| o.phase == "host")
            .map(|o| {
                assert_eq!(o.shape_class, "-", "host rows carry no shape class");
                (o.kind.clone(), o.calls)
            })
            .collect();
        rows.sort();
        rows
    };

    let text = traced_run("host-rows-trace.jsonl", 5.0);
    let mut expected = vec![
        (stage::OP_HOST_BIND.to_string(), samples),
        (stage::OP_HOST_ACCUMULATE.to_string(), samples),
        (stage::OP_HOST_SAMPLE_OVERHEAD.to_string(), samples),
        (stage::OP_HOST_REDUCE.to_string(), batches),
        (stage::OP_HOST_CLIP.to_string(), batches),
        (stage::OP_HOST_STEP.to_string(), batches),
        (stage::OP_HOST_EVALUATE.to_string(), epochs),
    ];
    expected.sort();
    assert_eq!(host_calls(&text), expected);
    let summary = TraceSummary::from_lines(text.lines()).unwrap();
    let count = |name: &str| summary.histograms.iter().find(|h| h.name == name).map(|h| h.count);
    assert_eq!(count(stage::H_WORKER_BUSY_US), Some(lanes * epochs));
    assert_eq!(count(stage::H_EPOCH_FANOUT_US), Some(epochs));
    assert_eq!(count(stage::H_EPOCH_UPDATE_US), Some(epochs));

    let unclipped = traced_run("host-rows-unclipped-trace.jsonl", 0.0);
    expected.retain(|(kind, _)| kind != stage::OP_HOST_CLIP);
    assert_eq!(host_calls(&unclipped), expected, "no grad.clip row with clipping off");

    // Streamed, each training sample is decoded once per epoch on its
    // lane; the RAM runs above have no decode row.
    let (streamed, stream_samples) = streamed_traced_run("host-rows-stream-trace.jsonl");
    let decode = host_calls(&streamed).into_iter().find(|(kind, _)| kind == stage::OP_HOST_DECODE);
    assert_eq!(decode, Some((stage::OP_HOST_DECODE.to_string(), stream_samples * 2)));
}

/// Every span, counter and histogram name and every host `op_profile`
/// kind a traced training run emits (from RAM and streamed) is a
/// registered `pub const` in
/// `crates/obs/src/stage.rs` and is documented in a table row of
/// `docs/OBSERVABILITY.md`.
#[test]
fn names_emitted_by_training_are_registered_and_documented() {
    let _guard = GLOBAL_RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let text = traced_run("registry-trace.jsonl", 5.0);
    let (streamed, _) = streamed_traced_run("registry-stream-trace.jsonl");
    let mut emitted = std::collections::BTreeSet::new();
    for line in text.lines().chain(streamed.lines()) {
        match Event::from_jsonl_line(line).expect("well-formed event line") {
            Event::SpanStart { stage, .. } | Event::SpanEnd { stage, .. } => emitted.insert(stage),
            Event::Counter { name, .. } | Event::Histogram { name, .. } => emitted.insert(name),
            Event::OpProfile { kind, phase, .. } if phase == "host" => emitted.insert(kind),
            _ => false,
        };
    }
    assert!(emitted.contains(stage::TRAIN) && emitted.contains(stage::OP_HOST_STEP));
    assert!(emitted.contains(stage::OP_HOST_DECODE));

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // `pub const NAME: &str = "value";`
    let stage_rs = std::fs::read_to_string(root.join("crates/obs/src/stage.rs")).unwrap();
    let registered: std::collections::BTreeSet<&str> = stage_rs
        .lines()
        .filter(|line| line.starts_with("pub const ") && line.contains(": &str = "))
        .filter_map(|line| line.split('"').nth(1))
        .collect();
    // Every backticked name in the first cell of a table row.
    let doc = std::fs::read_to_string(root.join("docs/OBSERVABILITY.md")).unwrap();
    let documented: std::collections::BTreeSet<&str> = doc
        .lines()
        .filter_map(|line| line.strip_prefix('|')?.split('|').next())
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .collect();
    for name in &emitted {
        assert!(registered.contains(name.as_str()), "{name} is not a constant in stage.rs");
        assert!(documented.contains(name.as_str()), "{name} has no row in OBSERVABILITY.md");
    }
}

/// `magic report`'s rendering of the committed magic-trace/1 training
/// trace is pinned by a golden file: readers must stay backward
/// compatible with v1 streams, and the table layout must not drift
/// unnoticed. Regenerate with
/// `magic report --trace results/logs/trace-train-mskcfg.jsonl` if a
/// change is intentional.
#[test]
fn committed_v1_trace_report_matches_golden() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let trace = root.join("../results/logs/trace-train-mskcfg.jsonl");
    let golden = root.join("golden/trace-train-mskcfg.report.txt");
    let text = std::fs::read_to_string(&trace).unwrap();
    let summary = TraceSummary::from_lines(text.lines()).unwrap();
    assert_eq!(summary.malformed_lines, 0, "committed trace is fully parseable");
    assert_eq!(summary.render(), std::fs::read_to_string(&golden).unwrap());
}

/// `corpus_cache::load` decodes shards; it never falls back to
/// generating and extracting the corpus. Traced, it emits no
/// `pipeline.extract_acfg` span, counts every record's framed bytes
/// exactly once in `cache.bytes_read`, and wraps its one decode pass in
/// one `cache.read` span on the caller's thread.
#[test]
fn cache_load_decodes_in_one_caller_span_and_never_extracts() {
    use magic::corpus_cache::{self, CacheSpec, CorpusKind};
    let _guard = GLOBAL_RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = std::env::temp_dir()
        .join(format!("magic-obs-integration-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CacheSpec {
        corpus: CorpusKind::Mskcfg,
        seed: 7,
        scale: 0.002,
        reduce: magic_graph::ReduceStrategy::None,
        shards: 3,
    };
    let built = corpus_cache::build(&dir, &spec, 2, false).unwrap();
    // Each record is framed as a 4-byte length plus its encoding.
    let mut record_bytes = 0u64;
    for shard in &built.manifest.shards {
        let mut reader = magic_data::ShardReader::open(&dir.join(&shard.file)).unwrap();
        for i in 0..reader.len() {
            let record = reader.read_record(i).unwrap();
            record_bytes += 4 + magic_data::encode_record(&record).len() as u64;
        }
    }

    let path = dir.join("load-trace.jsonl");
    magic_obs::install(Arc::new(JsonlRecorder::create(&path).unwrap()));
    let loaded = {
        let _caller = magic_obs::span(stage::TRAIN);
        corpus_cache::load(&dir, Some(spec.fingerprint()), 2).unwrap()
    };
    magic_obs::uninstall();
    assert_eq!(loaded.len(), built.manifest.samples);

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let (mut caller, mut reads) = (None, 0);
    for line in text.lines() {
        match Event::from_jsonl_line(line).unwrap() {
            Event::SpanStart { id, stage: name, .. } if name == stage::TRAIN => caller = Some(id),
            Event::SpanStart { stage: name, parent, .. } if name == stage::CACHE_READ => {
                assert_eq!(parent, caller, "the decode ran off the caller's span");
                reads += 1;
            }
            Event::SpanStart { stage: name, .. } => {
                assert_ne!(name, stage::EXTRACT_ACFG, "load extracted a listing")
            }
            _ => {}
        }
    }
    assert_eq!(reads, 1, "one cache.read span per load");
    let summary = TraceSummary::from_lines(text.lines()).unwrap();
    let bytes_read = summary.counters.iter().find(|c| c.name == stage::C_CACHE_BYTES_READ);
    assert_eq!(bytes_read.map(|c| c.total), Some(record_bytes as f64));
}
