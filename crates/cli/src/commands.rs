//! Subcommand implementations.

use std::sync::Arc;

use crate::checkpoint_file::{deserialize_model, serialize_model, ModelHeader};
use magic::corpus_cache::{self, CacheSpec, CorpusKind, DEFAULT_SHARDS};
use magic::pipeline::{extract_acfg, parse_program, MagicPipeline};
use magic::trainer::{TrainConfig, TrainOutcome, Trainer};
use magic::tuning::best_params;
use magic_data::{stratified_kfold, CacheError, StreamedCorpus};
use magic_graph::{GraphStats, ReduceStrategy, SizeHistogram};
use magic_model::{Dgcnn, GraphInput};
use magic_obs::{report::TraceSummary, JsonlRecorder};

/// Parses the argument list and runs the matching subcommand.
///
/// Two global flags are stripped before subcommand dispatch:
/// `--log-level <off|error|info|debug|trace>` sets the stderr verbosity,
/// and `--trace <path>` installs a [`JsonlRecorder`] streaming telemetry
/// to `<path>` for the duration of the command. `report` *reads* a trace
/// (the flag names its input) and `profile` manages its own recorder, so
/// neither takes the global flag. A traced run also enables tensor
/// memory accounting so training epochs report peak bytes.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    if let Some(level) = take_flag(&mut args, "--log-level") {
        magic_obs::set_log_level(level.parse::<magic_obs::Level>()?);
    }
    let tracing_run =
        !matches!(args.first().map(String::as_str), Some("report") | Some("profile"));
    let trace_path = if tracing_run { take_flag(&mut args, "--trace") } else { None };
    if let Some(path) = &trace_path {
        let recorder = JsonlRecorder::create(path)
            .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
        magic_obs::install(Arc::new(recorder));
        magic_obs::meta(format!("magic {}", args.join(" ")), magic_tensor::simd::isa().name());
        magic_tensor::mem::enable();
    }

    let result = match args.first().map(String::as_str) {
        Some("extract") => cmd_extract(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };

    if let Some(path) = &trace_path {
        magic_obs::uninstall(); // flushes the trace file
        magic_obs::log(
            magic_obs::Level::Info,
            format!("trace written to {path} (aggregate with `magic report --trace {path}`)"),
        );
    }
    result
}

const USAGE: &str = "\
magic — DGCNN malware classification over control flow graphs

USAGE:
    magic extract <listing.asm> [--dot]
    magic cache build --corpus <mskcfg|yancfg> --cache-dir <dir> [--seed S]
                [--scale S] [--reduce R] [--shards N] [--workers N] [--force]
                (shard generation + extraction across workers and write
                 binary ACFG shards keyed by the (corpus, seed, scale,
                 reduce) fingerprint; a rerun with a matching fingerprint
                 is a no-op. Shards store *reduced* graphs, so a cache
                 built under one --reduce never serves another. Prints a
                 node/edge decile histogram of what was cached. Format
                 spec: DESIGN.md)
    magic cache info --cache-dir <dir> [--corpus C [--seed S] [--scale S]
                [--reduce R]]
                (validate every shard checksum and print the manifest:
                 fingerprint, samples, per-shard records/bytes. With
                 --corpus, also recompute the expected fingerprint from
                 the given identity flags and exit non-zero on mismatch
                 — e.g. a cache built under a different --reduce)
    magic train --corpus <mskcfg|yancfg> [--scale S] [--epochs N] [--seed S]
                [--reduce R] [--train-workers N]
                [--cache-dir <dir>] [--cache <ram|stream>]
                --out <model.magic>
                (--train-workers 0 = auto; results are identical for any N.
                 --reduce shrinks every graph before training (see
                 REDUCE VALUES below); the strategy is recorded in the
                 model header so predict/serve reduce identically.
                 --cache-dir trains from the shard cache, building it
                 first if missing; --cache stream keeps shards on disk
                 and each training lane decodes its own samples —
                 bitwise identical to the in-memory path in bounded
                 memory, about +7 % per epoch at 2 lanes on 2 cores,
                 docs/PERFORMANCE.md § 7)
    magic predict --model <model.magic> [--reduce R] <listing.asm>...
                (--reduce overrides the training-time strategy recorded
                 in the model header; default is to match training)
    magic serve --model <model.magic> [--reduce R] [--addr HOST:PORT] [--workers N]
                [--io-threads N] [--max-batch N] [--batch-window-us U]
                [--queue-depth N] [--deadline-ms MS]
                [--access-log <access.jsonl>] [--metrics-window S]
                (HTTP inference daemon fusing concurrent requests into
                 micro-batches; POST listings to /v1/predict, health at
                 /healthz, counters and latency quantiles as Prometheus
                 text at /metrics, slow-request exemplars at /debug/slow,
                 stop with POST /admin/shutdown. --access-log streams one
                 JSONL lifecycle event per request; --metrics-window
                 sets the sliding quantile window (default 60 s).
                 Protocol + tuning: docs/SERVING.md)
    magic info --model <model.magic>
    magic profile <mskcfg|yancfg> [--scale S] [--epochs N] [--seed S]
                [--reduce R] [--train-workers N]
                [--cache-dir <dir>] [--cache <ram|stream>]
                [--trace <out.jsonl>]
                (train under the op profiler; print per-op time/FLOP
                attribution, lane wait, unattributed remainder, and
                peak memory)
    magic report --trace <trace.jsonl> [--flamegraph]
                (aggregate a trace; --flamegraph emits collapsed-stack
                lines for flamegraph.pl / inferno / speedscope)
    magic report --serve <access.jsonl>
                (aggregate a `magic serve --access-log` file into
                per-status counts, an exact stage-latency breakdown,
                and a slowest-requests table)

REDUCE VALUES (--reduce, default none):
    none                 leave graphs untouched
    chain                collapse single-in/single-out basic-block chains
    prune                drop low-information degree-1 leaf blocks,
                         folding their attributes into the neighbour
    coarsen[:K]          Weisfeiler-Lehman supernode coarsening with K
                         refinement rounds (default 2; fewer = coarser)
    All strategies are deterministic and idempotent; reduction semantics
    and the determinism contract are specified in DESIGN.md.

GLOBAL OPTIONS:
    --trace <path>       stream a magic-trace/3 JSONL telemetry trace to
                         <path> (convention: results/logs/trace-<run>.jsonl);
                         aggregate it with `magic report --trace <path>`.
                         Not taken by `report` (names its input there) or
                         `profile` (manages its own recorder)
    --log-level <level>  stderr verbosity: off|error|info|debug|trace
                         (default info; info shows per-epoch progress)";

/// Pulls `--flag value` out of an argument list, returning the remainder.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        return None;
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

/// Pulls `--reduce <none|chain|prune|coarsen[:K]>` out of an argument
/// list, defaulting to [`ReduceStrategy::None`] when absent.
fn take_reduce(args: &mut Vec<String>) -> Result<ReduceStrategy, String> {
    take_flag(args, "--reduce")
        .map(|s| ReduceStrategy::parse(&s).map_err(|e| e.to_string()))
        .transpose()
        .map(Option::unwrap_or_default)
}

/// Fails on the first argument a command's parser left unconsumed, so a
/// mistyped flag is an error rather than a silent no-op.
fn reject_unknown(args: &[String]) -> Result<(), String> {
    match args.first() {
        Some(arg) => Err(format!("unknown argument {arg:?}\n{USAGE}")),
        None => Ok(()),
    }
}

/// Pulls a boolean `--flag` out of an argument list.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn cmd_extract(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let dot = take_switch(&mut args, "--dot");
    let path = args.first().ok_or("extract requires a listing path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    if dot {
        let program = parse_program(&text).map_err(|e| e.to_string())?;
        let cfg = magic_asm::CfgBuilder::new(&program).build();
        println!("{}", cfg.to_dot());
        return Ok(());
    }
    let acfg = extract_acfg(&text).map_err(|e| e.to_string())?;
    let stats = GraphStats::of(&acfg);
    magic_obs::log(
        magic_obs::Level::Info,
        format!(
            "{} blocks, {} edges, density {:.3}",
            stats.vertices, stats.edges, stats.density
        ),
    );
    print!("{}", acfg.to_text());
    Ok(())
}

/// `magic cache <build|info>` — manage the sharded binary ACFG cache.
fn cmd_cache(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("build") => cmd_cache_build(&args[1..]),
        Some("info") => cmd_cache_info(&args[1..]),
        _ => Err("cache requires a subcommand: build | info".into()),
    }
}

/// Parses the shared cache identity flags (`--corpus --seed --scale
/// --reduce --shards`) into a [`CacheSpec`], with the same
/// seed/scale/reduce defaults as `train`.
fn parse_cache_spec(args: &mut Vec<String>) -> Result<CacheSpec, String> {
    let corpus = take_flag(args, "--corpus").ok_or("cache build requires --corpus")?;
    Ok(CacheSpec {
        corpus: CorpusKind::parse(&corpus)?,
        seed: take_flag(args, "--seed")
            .map(|s| s.parse().map_err(|_| "bad --seed"))
            .transpose()?
            .unwrap_or(7),
        scale: take_flag(args, "--scale")
            .map(|s| s.parse().map_err(|_| "bad --scale"))
            .transpose()?
            .unwrap_or(0.01),
        reduce: take_reduce(args)?,
        shards: take_flag(args, "--shards")
            .map(|s| s.parse().map_err(|_| "bad --shards"))
            .transpose()?
            .unwrap_or(DEFAULT_SHARDS),
    })
}

fn cmd_cache_build(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let spec = parse_cache_spec(&mut args)?;
    let dir = take_flag(&mut args, "--cache-dir").ok_or("cache build requires --cache-dir")?;
    let workers: usize = take_flag(&mut args, "--workers")
        .map(|s| s.parse().map_err(|_| "bad --workers"))
        .transpose()?
        .unwrap_or(0);
    let force = take_switch(&mut args, "--force");

    let path = std::path::Path::new(&dir);
    let outcome = corpus_cache::build(path, &spec, workers, force).map_err(|e| e.to_string())?;
    let m = &outcome.manifest;
    println!(
        "{} cache {dir}: corpus {}, reduce {}, fingerprint {:016x}, \
         {} samples in {} shard(s), {:.2} MiB",
        if outcome.rebuilt { "built" } else { "up-to-date" },
        m.corpus,
        m.reduce,
        m.fingerprint,
        m.samples,
        m.shards.len(),
        outcome.bytes as f64 / (1024.0 * 1024.0),
    );
    // Per-corpus size distribution of what was cached (post-reduction):
    // node/edge deciles over every graph in the shards. A rebuild
    // measured the graphs it wrote; an up-to-date cache is decoded.
    let sizes = match outcome.sizes {
        Some(sizes) => sizes,
        None => SizeHistogram::of(
            &corpus_cache::read_graphs(path, Some(spec.fingerprint()))
                .map_err(|e| e.to_string())?,
        ),
    };
    println!("{}", sizes.render());
    Ok(())
}

fn cmd_cache_info(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let dir = take_flag(&mut args, "--cache-dir").ok_or("cache info requires --cache-dir")?;
    // Optional expectation flags: when --corpus is given, recompute the
    // fingerprint the caller *expects* (same defaults as `cache build`)
    // and fail with the typed mismatch error if the cache on disk was
    // built under a different identity — e.g. a different --reduce
    // strategy. This is how CI asserts a cache can never silently serve
    // a strategy it was not built with.
    let expected = if args.iter().any(|a| a == "--corpus") {
        Some(parse_cache_spec(&mut args)?.fingerprint())
    } else {
        None
    };
    // Opening the streamed view checksums every shard, so a clean exit
    // doubles as an integrity check.
    let corpus = StreamedCorpus::open(std::path::Path::new(&dir), None)
        .map_err(|e| format!("{dir}: {e}"))?;
    let m = corpus.manifest();
    if let Some(expected) = expected {
        if expected != m.fingerprint {
            let err = CacheError::FingerprintMismatch { expected, found: m.fingerprint };
            return Err(format!("{dir}: {err}"));
        }
    }
    println!("cache {dir} (magic-acfg/1, all shard checksums verified)");
    println!(
        "  corpus:      {} (seed {}, scale {}, reduce {})",
        m.corpus, m.seed, m.scale, m.reduce
    );
    println!("  fingerprint: {:016x}", m.fingerprint);
    println!("  samples:     {} across {} class(es)", m.samples, m.class_names.len());
    for (i, shard) in m.shards.iter().enumerate() {
        println!(
            "  shard {i:>3}:   {} — {} record(s), {} bytes",
            shard.file, shard.records, shard.bytes
        );
    }
    Ok(())
}

/// Knobs shared by `train` and `profile`, parsed with identical
/// defaults from either argument list.
struct TrainKnobs {
    scale: f64,
    epochs: usize,
    seed: u64,
    train_workers: usize,
    /// Graph-reduction strategy applied to every training graph.
    reduce: ReduceStrategy,
    /// Shard-cache directory; corpus is built there on first use.
    cache_dir: Option<String>,
    /// With a cache: stream shards from disk instead of loading to RAM.
    stream: bool,
}

impl TrainKnobs {
    fn parse(args: &mut Vec<String>, default_epochs: usize) -> Result<Self, String> {
        Ok(TrainKnobs {
            reduce: take_reduce(args)?,
            cache_dir: take_flag(args, "--cache-dir"),
            stream: match take_flag(args, "--cache").as_deref() {
                None | Some("ram") => false,
                Some("stream") => true,
                Some(other) => return Err(format!("bad --cache {other:?} (ram|stream)")),
            },
            scale: take_flag(args, "--scale")
                .map(|s| s.parse().map_err(|_| "bad --scale"))
                .transpose()?
                .unwrap_or(0.01),
            epochs: take_flag(args, "--epochs")
                .map(|s| s.parse().map_err(|_| "bad --epochs"))
                .transpose()?
                .unwrap_or(default_epochs),
            seed: take_flag(args, "--seed")
                .map(|s| s.parse().map_err(|_| "bad --seed"))
                .transpose()?
                .unwrap_or(7),
            train_workers: take_flag(args, "--train-workers")
                .map(|s| s.parse().map_err(|_| "bad --train-workers"))
                .transpose()?
                .unwrap_or(0),
        })
    }
}

/// Where training samples come from: decoded in RAM, or streamed from
/// shard files, each sample decoded on the lane that trains it.
enum CorpusSource {
    Ram(Vec<GraphInput>),
    Stream(StreamedCorpus),
}

/// Builds or loads the corpus, instantiates the Table II best
/// architecture for it, and trains on fold 0 of a stratified 5-fold
/// split — the common core of `magic train` and `magic profile`.
fn run_training(
    corpus: &str,
    knobs: &TrainKnobs,
) -> Result<(Dgcnn, ModelHeader, TrainOutcome), String> {
    let corpus = CorpusKind::parse(corpus)?;
    let (source, labels, families) = if let Some(dir) = &knobs.cache_dir {
        let spec = CacheSpec {
            corpus,
            seed: knobs.seed,
            scale: knobs.scale,
            reduce: knobs.reduce,
            shards: DEFAULT_SHARDS,
        };
        let dir = std::path::Path::new(dir);
        // Ensure the cache exists; a matching fingerprint is a no-op.
        let built = corpus_cache::build(dir, &spec, knobs.train_workers, false)
            .map_err(|e| e.to_string())?;
        magic_obs::log(
            magic_obs::Level::Info,
            format!(
                "cache {}: {} ({} samples, {} shard(s), {} mode)",
                dir.display(),
                if built.rebuilt { "built" } else { "reused" },
                built.manifest.samples,
                built.manifest.shards.len(),
                if knobs.stream { "stream" } else { "ram" },
            ),
        );
        if knobs.stream {
            let streamed = corpus_cache::open_streaming(dir, Some(spec.fingerprint()))
                .map_err(|e| e.to_string())?;
            let labels = streamed.labels().to_vec();
            let families = streamed.class_names().to_vec();
            (CorpusSource::Stream(streamed), labels, families)
        } else {
            let loaded = corpus_cache::load(dir, Some(spec.fingerprint()), knobs.train_workers)
                .map_err(|e| e.to_string())?;
            (CorpusSource::Ram(loaded.inputs), loaded.labels, loaded.class_names)
        }
    } else {
        if knobs.stream {
            return Err("--cache stream requires --cache-dir".into());
        }
        let built = corpus_cache::generate(
            corpus,
            knobs.seed,
            knobs.scale,
            knobs.reduce,
            knobs.train_workers,
        )
        .map_err(|e| e.to_string())?;
        (CorpusSource::Ram(built.inputs), built.labels, built.class_names)
    };
    magic_obs::log(
        magic_obs::Level::Info,
        format!(
            "corpus: {} samples, {} families, reduce {}",
            labels.len(),
            families.len(),
            knobs.reduce.name()
        ),
    );

    let params = best_params(corpus);
    let graph_sizes: Vec<usize> = match &source {
        CorpusSource::Ram(inputs) => inputs.iter().map(GraphInput::vertex_count).collect(),
        CorpusSource::Stream(streamed) => streamed.vertex_counts().to_vec(),
    };
    let config = params.to_model_config(families.len(), &graph_sizes);
    let mut model = Dgcnn::new(&config, knobs.seed);

    let folds = stratified_kfold(&labels, 5, knobs.seed);
    let split = &folds[0];
    let trainer = Trainer::new(TrainConfig {
        train_workers: knobs.train_workers,
        ..params.to_train_config(knobs.epochs, knobs.seed)
    });
    magic_obs::log(
        magic_obs::Level::Info,
        format!(
            "training {} weights for {} epochs ({} worker(s), isa: {})...",
            model.num_weights(),
            knobs.epochs,
            magic::Lanes::new(knobs.train_workers).workers(),
            magic_tensor::simd::isa().name(),
        ),
    );
    let outcome = match &source {
        CorpusSource::Ram(inputs) => {
            trainer.train(&mut model, inputs, &labels, &split.train, &split.validation)
        }
        CorpusSource::Stream(streamed) => {
            trainer.train_streamed(&mut model, streamed, &labels, &split.train, &split.validation)
        }
    };
    let last = outcome.history.last().ok_or("no epochs ran")?;
    magic_obs::log(
        magic_obs::Level::Info,
        format!(
            "done: val loss {:.4}, val accuracy {:.1}%",
            last.val_loss,
            last.val_accuracy * 100.0
        ),
    );
    let header = ModelHeader {
        corpus: corpus.name().to_string(),
        families,
        params,
        graph_sizes,
        reduce: knobs.reduce.name(),
    };
    Ok((model, header, outcome))
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let corpus = take_flag(&mut args, "--corpus").ok_or("train requires --corpus")?;
    let out = take_flag(&mut args, "--out").ok_or("train requires --out")?;
    let knobs = TrainKnobs::parse(&mut args, 20)?;
    reject_unknown(&args)?;

    let (model, header, _outcome) = run_training(&corpus, &knobs)?;
    std::fs::write(&out, serialize_model(&header, &model))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    magic_obs::log(magic_obs::Level::Info, format!("model written to {out}"));
    Ok(())
}

/// Trains under the op profiler and prints where the time went: a
/// per-op table (self time share, calls, FLOP/s), the unattributed
/// remainder of epoch wall-clock split into lane wait and the rest, and
/// peak tensor memory.
///
/// The command installs its own [`JsonlRecorder`] (to `--trace <path>`
/// if given, else a deleted-afterwards temp file) and enables tensor
/// memory accounting, so it must not run under the global `--trace`
/// recorder — `dispatch` excludes it.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let keep_trace = take_flag(&mut args, "--trace");
    // Profiling wants a few representative epochs, not a converged model.
    let knobs = TrainKnobs::parse(&mut args, 3)?;
    let corpus = args
        .iter()
        .position(|a| !a.starts_with('-'))
        .map(|pos| args.remove(pos))
        .ok_or("profile requires a corpus (mskcfg|yancfg)")?;
    reject_unknown(&args)?;

    let trace_path = match &keep_trace {
        Some(path) => std::path::PathBuf::from(path),
        None => std::env::temp_dir()
            .join(format!("magic-profile-{}-{}.jsonl", corpus, std::process::id())),
    };
    let recorder = JsonlRecorder::create(&trace_path)
        .map_err(|e| format!("cannot create trace file {}: {e}", trace_path.display()))?;
    magic_obs::install(Arc::new(recorder));
    magic_obs::meta(format!("magic profile {corpus}"), magic_tensor::simd::isa().name());
    magic_tensor::mem::enable();

    let outcome = run_training(&corpus, &knobs);
    magic_obs::uninstall(); // flushes the trace file
    outcome?;

    let text = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("cannot read back {}: {e}", trace_path.display()))?;
    if keep_trace.is_none() {
        std::fs::remove_file(&trace_path).ok();
    }
    let summary = TraceSummary::from_lines(text.lines())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    print!("{}", render_profile(&summary));
    if let Some(path) = keep_trace {
        magic_obs::log(
            magic_obs::Level::Info,
            format!("trace kept at {path} (see also `magic report --trace {path}`)"),
        );
    }
    Ok(())
}

/// Renders the `magic profile` attribution view from an aggregated
/// trace: the op table plus coverage against epoch wall-clock.
///
/// Op rows are self time summed over every worker lane, so coverage is
/// taken against epoch wall-clock × lanes (the `workers` field of the
/// `train.run` span), as the end-to-end benchmark does. The residual is
/// printed signed: a negative one means rows were over-counted.
fn render_profile(summary: &TraceSummary) -> String {
    let mut out = String::new();
    let field = |name: &str| {
        summary.train_fields.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    };
    let lanes = field("workers").unwrap_or(1.0).max(1.0);
    let isa = field("isa").and_then(|c| magic_tensor::simd::Isa::name_of_code(c as u8));
    let epochs = summary.stages.iter().find(|s| s.stage == magic_obs::stage::TRAIN_EPOCH);
    let (epoch_count, epoch_us) = epochs.map(|s| (s.count, s.total_us)).unwrap_or((0, 0));
    out.push_str(&format!(
        "profiled {epoch_count} epoch(s) on {lanes} lane(s), isa: {}, \
         {:.2}s wall inside epochs\n\n",
        isa.unwrap_or("unknown"),
        epoch_us as f64 / 1e6
    ));
    out.push_str(&summary.render_ops());

    let lane_us = epoch_us as f64 * lanes;
    let attributed_pct = if lane_us > 0.0 {
        100.0 * (summary.ops_total_self_ns() as f64 / 1e3) / lane_us
    } else {
        0.0
    };
    out.push_str(&format!(
        "\nattributed {attributed_pct:.1}% of epoch wall-clock x {lanes} lane(s) to {} op row(s); \
         other (unattributed): {:+.1}%\n",
        summary.ops.len(),
        100.0 - attributed_pct,
    ));
    let hist = |name: &str| summary.histograms.iter().find(|h| h.name == name);
    if let (Some(fanout), Some(busy)) =
        (hist(magic_obs::stage::H_EPOCH_FANOUT_US), hist(magic_obs::stage::H_WORKER_BUSY_US))
    {
        // Lanes that finished their share of a mini-batch wait at its
        // barrier: fan-out wall-clock × lanes, less the time they ran jobs.
        let wait_pct = if lane_us > 0.0 {
            100.0 * (fanout.total * lanes - busy.total) / lane_us
        } else {
            0.0
        };
        out.push_str(&format!(
            "  of which lane wait (fan-out x lanes - lane busy): {wait_pct:+.1}%, \
             remainder: {:+.1}%\n",
            100.0 - attributed_pct - wait_pct,
        ));
    }
    if let Some(peak) =
        summary.histograms.iter().find(|h| h.name == magic_obs::stage::H_MEM_PEAK_BYTES)
    {
        out.push_str(&format!(
            "peak tensor memory: {:.1} MiB (max over {} epoch(s))\n",
            peak.max / (1024.0 * 1024.0),
            peak.count,
        ));
    }
    if let Some(allocs) = hist(magic_obs::stage::H_ALLOC_COUNT) {
        // The first epoch pays the pool warm-up; the min over epochs is
        // what a steady-state epoch allocates.
        out.push_str(&format!(
            "tensor allocations: {:.0} total, {:.0} in the best epoch\n",
            allocs.total, allocs.min,
        ));
    }
    if let (Some(hits), Some(misses)) =
        (hist(magic_obs::stage::H_POOL_HITS), hist(magic_obs::stage::H_POOL_MISSES))
    {
        let total = hits.total + misses.total;
        let pct = if total > 0.0 { 100.0 * hits.total / total } else { 0.0 };
        out.push_str(&format!(
            "workspace pool: {:.0} hits / {:.0} misses ({pct:.1}% reuse); \
             misses in the best epoch: {:.0}\n",
            hits.total, misses.total, misses.min,
        ));
    }
    out
}

/// Aggregates a `magic-trace` JSONL file (v1 through v3) into per-stage
/// timing, counter, histogram, and op-profile tables — or, with
/// `--flamegraph`, emits collapsed-stack lines for flamegraph tooling,
/// or, with `--serve <access.jsonl>`, aggregates a serve access log
/// into status/stage-latency/slowest-request tables.
fn cmd_report(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let flamegraph = take_switch(&mut args, "--flamegraph");
    if let Some(path) = take_flag(&mut args, "--serve") {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let summary = magic_obs::serve_report::ServeLogSummary::from_lines(text.lines())
            .map_err(|e| format!("{path}: {e}"))?;
        print!("{}", summary.render());
        return Ok(());
    }
    let path = take_flag(&mut args, "--trace")
        .ok_or("report requires --trace <trace.jsonl> or --serve <access.jsonl>")?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if flamegraph {
        let lines = magic_obs::flamegraph::collapsed_from_lines(text.lines())
            .map_err(|e| format!("{path}: {e}"))?;
        for line in lines {
            println!("{line}");
        }
        return Ok(());
    }
    let summary = TraceSummary::from_lines(text.lines()).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", summary.render());
    Ok(())
}

/// The reduction strategy for inference: an explicit `--reduce` CLI
/// override if present, else whatever the model was trained with
/// (recorded in its header) — serving a model with a different
/// reduction than it trained on silently degrades accuracy.
fn inference_reduce(
    flag: Option<String>,
    header: &ModelHeader,
) -> Result<ReduceStrategy, String> {
    match flag {
        Some(s) => ReduceStrategy::parse(&s).map_err(|e| e.to_string()),
        None => ReduceStrategy::parse(&header.reduce)
            .map_err(|e| format!("model header: {e}")),
    }
}

fn cmd_predict(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let model_path = take_flag(&mut args, "--model").ok_or("predict requires --model")?;
    let reduce_flag = take_flag(&mut args, "--reduce");
    if args.is_empty() {
        return Err("predict requires at least one listing path".into());
    }
    let text = std::fs::read_to_string(&model_path)
        .map_err(|e| format!("cannot read {model_path}: {e}"))?;
    let (header, model) = deserialize_model(&text)?;
    let reduce = inference_reduce(reduce_flag, &header)?;
    let pipeline = MagicPipeline::with_reduce(model, header.families, reduce);

    for path in &args {
        let listing =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        match pipeline.classify_listing(&listing) {
            Ok((family, p)) => println!("{path}: {family} (p = {p:.3})"),
            Err(e) => println!("{path}: extraction failed ({e})"),
        }
    }
    Ok(())
}

/// `magic serve` — load a trained model and run the micro-batching
/// inference daemon until `POST /admin/shutdown` (or process kill).
/// All flags default to [`magic_serve::ServeConfig::default`]; the
/// operational semantics are documented in `docs/SERVING.md`.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let model_path = take_flag(&mut args, "--model").ok_or("serve requires --model")?;
    let mut config = magic_serve::ServeConfig::default();
    if let Some(addr) = take_flag(&mut args, "--addr") {
        config.addr = addr;
    }
    let mut numeric = |flag: &'static str, slot: &mut usize| -> Result<(), String> {
        if let Some(v) = take_flag(&mut args, flag) {
            *slot = v.parse().map_err(|_| format!("bad {flag}"))?;
        }
        Ok(())
    };
    numeric("--workers", &mut config.workers)?;
    numeric("--io-threads", &mut config.io_threads)?;
    numeric("--max-batch", &mut config.max_batch)?;
    numeric("--queue-depth", &mut config.queue_depth)?;
    if let Some(v) = take_flag(&mut args, "--batch-window-us") {
        config.batch_window_us = v.parse().map_err(|_| "bad --batch-window-us")?;
    }
    if let Some(v) = take_flag(&mut args, "--deadline-ms") {
        config.deadline_ms = v.parse().map_err(|_| "bad --deadline-ms")?;
    }
    if let Some(v) = take_flag(&mut args, "--metrics-window") {
        config.metrics_window_s = v.parse().map_err(|_| "bad --metrics-window")?;
    }
    config.access_log = take_flag(&mut args, "--access-log");
    let reduce_flag = take_flag(&mut args, "--reduce");
    if let Some(unknown) = args.first() {
        return Err(format!("serve does not take {unknown:?}"));
    }

    let text = std::fs::read_to_string(&model_path)
        .map_err(|e| format!("cannot read {model_path}: {e}"))?;
    let (header, model) = deserialize_model(&text)?;
    let reduce = inference_reduce(reduce_flag, &header)?;
    let pipeline = MagicPipeline::with_reduce(model, header.families, reduce);
    let handle = magic_serve::start(pipeline, config.clone())
        .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    magic_obs::log(
        magic_obs::Level::Info,
        format!(
            "serving {} model (reduce {}) on http://{} ({} worker(s), max batch {}, \
             window {}us; stop with POST /admin/shutdown)",
            header.corpus,
            reduce.name(),
            handle.addr(),
            config.workers,
            config.max_batch,
            config.batch_window_us,
        ),
    );
    handle.wait();
    magic_obs::log(magic_obs::Level::Info, "drained and stopped");
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let model_path = take_flag(&mut args, "--model").ok_or("info requires --model")?;
    let text = std::fs::read_to_string(&model_path)
        .map_err(|e| format!("cannot read {model_path}: {e}"))?;
    let (header, model) = deserialize_model(&text)?;
    println!("corpus:   {}", header.corpus);
    println!("families: {}", header.families.join(", "));
    println!("params:   {}", header.params);
    println!("reduce:   {}", header.reduce);
    println!("weights:  {}", model.num_weights());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that installs the process-global trace
    /// recorder through `--trace`, so their traces do not mix. A failed
    /// test only poisons it; it guards no data.
    static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// README's "`magic help` prints:" block is the help text, verbatim.
    #[test]
    fn readme_help_block_is_the_usage_text() {
        let readme = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md"),
        )
        .unwrap();
        let marker = "`magic help` prints:\n\n```text\n";
        let start = readme.find(marker).expect("README has the help block") + marker.len();
        let len = readme[start..].find("\n```\n").expect("help block is closed");
        assert_eq!(&readme[start..start + len], USAGE);
    }

    #[test]
    fn take_flag_extracts_pairs() {
        let mut args: Vec<String> =
            ["--model", "m.bin", "file.asm"].iter().map(|s| s.to_string()).collect();
        assert_eq!(take_flag(&mut args, "--model").as_deref(), Some("m.bin"));
        assert_eq!(args, vec!["file.asm"]);
        assert_eq!(take_flag(&mut args, "--model"), None);
    }

    #[test]
    fn take_flag_handles_missing_value() {
        let mut args: Vec<String> = vec!["--model".into()];
        assert_eq!(take_flag(&mut args, "--model"), None);
    }

    #[test]
    fn take_switch_removes_flag() {
        let mut args: Vec<String> = vec!["--dot".into(), "x".into()];
        assert!(take_switch(&mut args, "--dot"));
        assert!(!take_switch(&mut args, "--dot"));
        assert_eq!(args, vec!["x"]);
    }

    #[test]
    fn dispatch_rejects_unknown_subcommand() {
        let err = dispatch(&["frobnicate".to_string()]).unwrap_err();
        assert!(err.contains("unknown subcommand"));
    }

    #[test]
    fn dispatch_help_succeeds() {
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&["help".to_string()]).is_ok());
    }

    #[test]
    fn extract_roundtrip_through_tempfile() {
        let dir = std::env::temp_dir().join("magic-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.asm");
        std::fs::write(
            &path,
            ".text:00401000    xor eax, eax\n.text:00401002    retn\n",
        )
        .unwrap();
        let args = vec![path.to_string_lossy().to_string()];
        assert!(cmd_extract(&args).is_ok());
        let dot_args = vec![path.to_string_lossy().to_string(), "--dot".to_string()];
        assert!(cmd_extract(&dot_args).is_ok());
    }

    #[test]
    fn extract_rejects_a_listing_without_instructions_in_both_modes() {
        let dir = std::env::temp_dir().join("magic-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.asm");
        std::fs::write(&path, "; nothing but a comment\n.text:00401000 sub_401000 proc near\n")
            .unwrap();
        let path = path.to_string_lossy().to_string();
        let expected = magic::PipelineError::EmptyProgram.to_string();
        assert_eq!(cmd_extract(std::slice::from_ref(&path)).unwrap_err(), expected);
        assert_eq!(cmd_extract(&[path, "--dot".to_string()]).unwrap_err(), expected);
    }

    #[test]
    fn train_rejects_unknown_corpus() {
        let args: Vec<String> = ["--corpus", "windows", "--out", "/tmp/x.magic"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_train(&args).unwrap_err().contains("unknown corpus"));
    }

    #[test]
    fn dispatch_rejects_bad_log_level() {
        let args: Vec<String> =
            ["--log-level", "loud", "help"].iter().map(|s| s.to_string()).collect();
        assert!(dispatch(&args).unwrap_err().contains("unknown log level"));
    }

    #[test]
    fn report_requires_a_trace_argument() {
        assert!(dispatch(&["report".to_string()])
            .unwrap_err()
            .contains("report requires --trace"));
    }

    #[test]
    fn report_rejects_missing_and_malformed_files() {
        let missing: Vec<String> =
            ["report", "--trace", "/nonexistent/t.jsonl"].iter().map(|s| s.to_string()).collect();
        assert!(dispatch(&missing).unwrap_err().contains("cannot read"));

        let dir = std::env::temp_dir().join("magic-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.jsonl");
        // A garbage line followed by a valid one: mid-file damage is a
        // hard error with a line number. (A garbage *final* line alone
        // would be tolerated as a truncated tail.)
        std::fs::write(&path, "not json\n{\"v\":1,\"t\":\"meta\",\"command\":\"x\"}\n").unwrap();
        let args: Vec<String> = ["report", "--trace", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(dispatch(&args).unwrap_err().contains("line 1"));
    }

    #[test]
    fn report_flamegraph_emits_collapsed_stacks() {
        use magic_obs::Event;
        let dir = std::env::temp_dir().join("magic-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flame.jsonl");
        let events = [
            Event::SpanStart {
                id: 1,
                parent: None,
                stage: "train.run".into(),
                ts_us: 0,
                fields: vec![],
            },
            Event::SpanEnd { id: 1, stage: "train.run".into(), ts_us: 80, dur_us: 80 },
        ];
        let text: String = events.iter().map(|e| e.to_jsonl_line() + "\n").collect();
        std::fs::write(&path, text).unwrap();
        let args: Vec<String> = ["report", "--flamegraph", "--trace", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(dispatch(&args).is_ok());
    }

    #[test]
    fn train_rejects_unknown_arguments() {
        for extra in [["--epoch", "5"], ["--threads", "2"]] {
            let args: Vec<String> = ["train", "--corpus", "yancfg", "--out", "unused.magic"]
                .iter()
                .chain(&extra)
                .map(|s| s.to_string())
                .collect();
            let err = dispatch(&args).unwrap_err();
            assert!(err.starts_with(&format!("unknown argument {:?}", extra[0])), "{err}");
        }
    }

    #[test]
    fn profile_rejects_unknown_arguments() {
        let args: Vec<String> =
            ["profile", "yancfg", "--epoch", "5"].iter().map(|s| s.to_string()).collect();
        let err = dispatch(&args).unwrap_err();
        assert!(err.starts_with("unknown argument \"--epoch\""), "{err}");
        // The corpus positional may follow the flags.
        let args: Vec<String> = ["profile", "--threads", "2", "yancfg"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = dispatch(&args).unwrap_err();
        assert!(err.starts_with("unknown argument \"--threads\""), "{err}");
    }

    #[test]
    fn profile_requires_a_corpus() {
        assert!(dispatch(&["profile".to_string()])
            .unwrap_err()
            .contains("profile requires a corpus"));
    }

    #[test]
    fn profile_attributes_lane_time_against_wall_times_lanes() {
        use magic_obs::Event;
        let op = |kind: &str, phase: &str, self_ns: u64| Event::OpProfile {
            kind: kind.into(),
            phase: phase.into(),
            shape_class: "≤1Ki".into(),
            ts_us: 900,
            calls: 1,
            self_ns,
            flops: 0,
            bytes_out: 0,
            fields: vec![],
        };
        // Two lanes over a 1 ms epoch give 2 ms of lane time; 1.5 ms of
        // it is in op rows.
        let events = [
            Event::SpanStart {
                id: 1,
                parent: None,
                stage: "train.run".into(),
                ts_us: 0,
                fields: vec![("workers".into(), 2.0), ("isa".into(), 1.0)],
            },
            Event::SpanStart {
                id: 2,
                parent: Some(1),
                stage: "train.epoch".into(),
                ts_us: 0,
                fields: vec![("epoch".into(), 0.0)],
            },
            op("conv2d.batched", "fwd", 1_200_000),
            op("evaluate", "host", 300_000),
            Event::SpanEnd { id: 2, stage: "train.epoch".into(), ts_us: 1_000, dur_us: 1_000 },
            Event::SpanEnd { id: 1, stage: "train.run".into(), ts_us: 1_000, dur_us: 1_000 },
        ];
        let text: String = events.iter().map(|e| e.to_jsonl_line() + "\n").collect();
        let rendered = render_profile(&TraceSummary::from_lines(text.lines()).unwrap());
        assert!(rendered.starts_with("profiled 1 epoch(s) on 2 lane(s), isa: avx2,"), "{rendered}");
        assert!(
            rendered.contains("attributed 75.0% of epoch wall-clock x 2 lane(s) to 2 op row(s); \
                               other (unattributed): +25.0%"),
            "{rendered}"
        );

        // Over-counted rows show a negative residual instead of 0.0%.
        let over: String = events
            .iter()
            .map(|e| match e {
                Event::OpProfile { kind, .. } if kind == "evaluate" => {
                    op("evaluate", "host", 1_300_000)
                }
                e => e.clone(),
            })
            .map(|e| e.to_jsonl_line() + "\n")
            .collect();
        let rendered = render_profile(&TraceSummary::from_lines(over.lines()).unwrap());
        assert!(rendered.contains("other (unattributed): -25.0%"), "{rendered}");
    }

    #[test]
    fn profile_splits_the_residual_into_lane_wait_and_remainder() {
        use magic_obs::Event;
        let hist = |name: &str, value: f64| Event::Histogram {
            name: name.into(),
            ts_us: 900,
            value,
            fields: vec![],
        };
        // Two lanes over a 1 ms epoch: a 0.8 ms fan-out in which the lanes
        // ran jobs for 0.7 and 0.5 ms, so 0.4 ms of the 2 ms of lane time
        // is wait. 1.5 ms is in op rows, which leaves 0.1 ms unexplained.
        let events = [
            Event::SpanStart {
                id: 1,
                parent: None,
                stage: "train.run".into(),
                ts_us: 0,
                fields: vec![("workers".into(), 2.0)],
            },
            Event::SpanStart {
                id: 2,
                parent: Some(1),
                stage: "train.epoch".into(),
                ts_us: 0,
                fields: vec![("epoch".into(), 0.0)],
            },
            Event::OpProfile {
                kind: "conv2d.batched".into(),
                phase: "fwd".into(),
                shape_class: "≤1Ki".into(),
                ts_us: 900,
                calls: 1,
                self_ns: 1_500_000,
                flops: 0,
                bytes_out: 0,
                fields: vec![],
            },
            hist(magic_obs::stage::H_EPOCH_FANOUT_US, 800.0),
            hist(magic_obs::stage::H_WORKER_BUSY_US, 700.0),
            hist(magic_obs::stage::H_WORKER_BUSY_US, 500.0),
            Event::SpanEnd { id: 2, stage: "train.epoch".into(), ts_us: 1_000, dur_us: 1_000 },
            Event::SpanEnd { id: 1, stage: "train.run".into(), ts_us: 1_000, dur_us: 1_000 },
        ];
        let text: String = events.iter().map(|e| e.to_jsonl_line() + "\n").collect();
        let rendered = render_profile(&TraceSummary::from_lines(text.lines()).unwrap());
        assert!(rendered.contains("other (unattributed): +25.0%"), "{rendered}");
        assert!(
            rendered.contains("of which lane wait (fan-out x lanes - lane busy): +20.0%, \
                               remainder: +5.0%"),
            "{rendered}"
        );
    }

    #[test]
    fn report_aggregates_a_valid_trace() {
        use magic_obs::Event;
        let dir = std::env::temp_dir().join("magic-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("valid.jsonl");
        let events = [
            Event::Meta { command: "magic train".into(), isa: None },
            Event::SpanStart {
                id: 1,
                parent: None,
                stage: "train.run".into(),
                ts_us: 0,
                fields: vec![],
            },
            Event::SpanEnd { id: 1, stage: "train.run".into(), ts_us: 80, dur_us: 80 },
        ];
        let text: String = events.iter().map(|e| e.to_jsonl_line() + "\n").collect();
        std::fs::write(&path, text).unwrap();
        let args: Vec<String> = ["report", "--trace", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(dispatch(&args).is_ok());
    }

    #[test]
    fn extract_with_trace_writes_a_parseable_jsonl_file() {
        let _guard = TRACE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join("magic-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let listing = dir.join("traced.asm");
        std::fs::write(
            &listing,
            ".text:00401000    xor eax, eax\n.text:00401002    retn\n",
        )
        .unwrap();
        let trace = dir.join("extract-trace.jsonl");
        let args: Vec<String> = [
            "extract",
            listing.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        dispatch(&args).unwrap();

        let text = std::fs::read_to_string(&trace).unwrap();
        let summary = magic_obs::report::TraceSummary::from_lines(text.lines()).unwrap();
        assert!(summary.events >= 4, "meta + extraction spans, got {}", summary.events);
        assert!(summary.stages.iter().any(|s| s.stage == magic_obs::stage::EXTRACT_ACFG));
        assert!(summary.command.as_deref().unwrap_or("").starts_with("magic extract"));
    }

    #[test]
    fn cache_build_reads_back_only_an_up_to_date_cache() {
        let _guard = TRACE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let tmp = std::env::temp_dir().join(format!("magic-cli-cache-{}", std::process::id()));
        let (dir, trace) = (tmp.join("cache"), tmp.join("cache-build-trace.jsonl"));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).unwrap();
        // (cache.read spans, cache.bytes_read) of one traced `cache build`.
        let traced_build = || {
            let args: Vec<String> = [
                "cache",
                "build",
                "--corpus",
                "yancfg",
                "--scale",
                "0.002",
                "--cache-dir",
                dir.to_str().unwrap(),
                "--trace",
                trace.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            dispatch(&args).unwrap();
            let text = std::fs::read_to_string(&trace).unwrap();
            let summary = TraceSummary::from_lines(text.lines()).unwrap();
            let reads = summary
                .stages
                .iter()
                .find(|s| s.stage == magic_obs::stage::CACHE_READ)
                .map_or(0, |s| s.count);
            let bytes = summary
                .counters
                .iter()
                .find(|c| c.name == magic_obs::stage::C_CACHE_BYTES_READ)
                .map_or(0.0, |c| c.total);
            (reads, bytes)
        };
        // A fresh build histograms the graphs it just wrote.
        assert_eq!(traced_build(), (0, 0.0));
        // An up-to-date cache is decoded once, in one pass.
        let (reads, bytes) = traced_build();
        assert_eq!(reads, 1);
        assert!(bytes > 0.0);
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn serve_requires_a_model() {
        assert!(dispatch(&["serve".to_string()])
            .unwrap_err()
            .contains("serve requires --model"));
    }

    #[test]
    fn serve_rejects_bad_flags_before_binding() {
        let bad_window: Vec<String> =
            ["serve", "--model", "/tmp/x.magic", "--batch-window-us", "soon"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        assert_eq!(dispatch(&bad_window).unwrap_err(), "bad --batch-window-us");
        let bad_metrics: Vec<String> =
            ["serve", "--model", "/tmp/x.magic", "--metrics-window", "minute"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        assert_eq!(dispatch(&bad_metrics).unwrap_err(), "bad --metrics-window");
        let stray: Vec<String> = ["serve", "--model", "/tmp/x.magic", "extra"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(dispatch(&stray).unwrap_err().contains("does not take"));
    }

    #[test]
    fn report_serve_aggregates_an_access_log() {
        let dir = std::env::temp_dir().join("magic-cli-report-serve");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let event = magic_obs::Event::ServeAccess {
            id: 1,
            ts_us: 10,
            status: 200,
            path: "/v1/predict".into(),
            batch: 2,
            bytes_in: 64,
            bytes_out: 128,
            parse_us: 5,
            extract_us: 40,
            queue_us: 700,
            execute_us: 300,
            write_us: 3,
            total_us: 1_100,
            family: Some("Family0".into()),
        };
        std::fs::write(&path, event.to_jsonl_line() + "\n").unwrap();
        let args: Vec<String> = ["report", "--serve", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        dispatch(&args).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn train_rejects_malformed_worker_count() {
        let args: Vec<String> =
            ["--corpus", "yancfg", "--out", "/tmp/x.magic", "--train-workers", "many"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        assert_eq!(cmd_train(&args).unwrap_err(), "bad --train-workers");
    }
}
