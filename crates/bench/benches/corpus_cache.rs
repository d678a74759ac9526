//! Cold generate+extract vs warm shard-cache load: measures how much of
//! corpus preparation the `magic-acfg/1` cache removes, in samples/s
//! and MB/s, and records the speedup in
//! `results/BENCH_corpus_cache.json`.
//!
//! The cached corpus is bitwise identical to the freshly generated one
//! (asserted per run), so the bench is purely about wall-clock: the
//! cold path pays listing synthesis + parse → CFG → ACFG extraction,
//! the warm path pays shard decode + `GraphInput` construction only.
//! The acceptance bar for this PR is warm ≥ 5× cold at the mskcfg
//! default scale.
//!
//! Environment knobs (both used by `scripts/ci.sh`):
//!
//! * `MAGIC_BENCH_QUICK=1` — smaller corpus and fewer samples, written
//!   to `BENCH_corpus_cache_quick.json`; sized for a CI gate, not for
//!   quotable numbers.
//! * `MAGIC_BENCH_INJECT_SLOWDOWN_US=<µs>` — sleeps inside the warm
//!   timed region, for testing that the regression gate actually fails.

use magic::corpus_cache::{self, CacheSpec, CorpusKind, DEFAULT_SHARDS};
use magic_bench::results::{machine_info, write_result};
use magic_json::json;
use magic_microbench::{time_fn, Stats};
use std::time::Duration;

/// Measurement budget: (samples, target per sample, hard cap per sample).
struct Budget {
    samples: usize,
    target: Duration,
    cap: Duration,
}

fn stats_json(stats: &Stats) -> magic_json::Value {
    json!({
        "median_ns": stats.median_ns,
        "mean_ns": stats.mean_ns,
        "min_ns": stats.min_ns,
        "max_ns": stats.max_ns,
        "samples": stats.samples,
        "iters_per_sample": stats.iters_per_sample,
    })
}

fn main() {
    magic_obs::set_log_level(magic_obs::Level::Error);
    let quick = std::env::var("MAGIC_BENCH_QUICK").map(|v| v == "1").unwrap_or(false);
    let inject_us: u64 = std::env::var("MAGIC_BENCH_INJECT_SLOWDOWN_US")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    // mskcfg at its default scale is the acceptance configuration; the
    // quick variant shrinks the corpus to CI-gate size.
    let seed = 7u64;
    let (scale, budget) = if quick {
        (0.002, Budget { samples: 5, target: Duration::from_millis(60), cap: Duration::from_millis(400) })
    } else {
        (0.01, Budget { samples: 10, target: Duration::from_millis(300), cap: Duration::from_secs(3) })
    };
    let spec = CacheSpec {
        corpus: CorpusKind::Mskcfg,
        seed,
        scale,
        reduce: magic_graph::ReduceStrategy::None,
        shards: DEFAULT_SHARDS,
    };
    let dir = std::env::temp_dir().join(format!(
        "magic-bench-corpus-cache-{}-{}",
        if quick { "quick" } else { "full" },
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold: parallel render + extraction + GraphInput build, exactly
    // what `magic train` does without --cache-dir.
    let generate = || {
        corpus_cache::generate(spec.corpus, seed, scale, spec.reduce, 0)
            .expect("generated listings extract")
    };
    let cold = time_fn(
        || {
            let corpus = generate();
            std::hint::black_box(corpus.len());
        },
        budget.samples,
        budget.target,
        budget.cap,
    );

    // Build the cache once (untimed), then measure the warm load path.
    let built = corpus_cache::build(&dir, &spec, 0, false).expect("cache build failed");
    let samples = built.manifest.samples;
    let bytes = built.bytes;
    let warm = time_fn(
        || {
            if inject_us > 0 {
                std::thread::sleep(Duration::from_micros(inject_us));
            }
            let loaded =
                corpus_cache::load(&dir, Some(spec.fingerprint()), 0).expect("cache load failed");
            std::hint::black_box(loaded.inputs.len());
        },
        budget.samples,
        budget.target,
        budget.cap,
    );

    // The cache must reproduce the cold corpus bitwise — a fast loader
    // that loads something else is not a cache.
    let fresh = generate();
    let loaded = corpus_cache::load(&dir, Some(spec.fingerprint()), 0).expect("cache load failed");
    assert_eq!(fresh.labels, loaded.labels, "cached labels diverge from generated corpus");
    for (a, b) in fresh.inputs.iter().zip(&loaded.inputs) {
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(
            a.attributes().as_slice(),
            b.attributes().as_slice(),
            "cached attributes diverge from generated corpus"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    let per_s = |ns: f64| samples as f64 / (ns / 1e9);
    let mb_per_s = bytes as f64 / (1024.0 * 1024.0) / (warm.median_ns / 1e9);
    let speedup = cold.median_ns / warm.median_ns;
    println!(
        "cold generate+extract: {:>12.0} ns ({:.0} samples/s)",
        cold.median_ns,
        per_s(cold.median_ns)
    );
    println!(
        "warm cache load:       {:>12.0} ns ({:.0} samples/s, {:.1} MB/s)",
        warm.median_ns,
        per_s(warm.median_ns),
        mb_per_s
    );
    println!("speedup warm vs cold:  {speedup:.2}x ({samples} samples, {bytes} shard bytes)");

    let name = if quick { "BENCH_corpus_cache_quick" } else { "BENCH_corpus_cache" };
    write_result(
        name,
        &json!({
            "bench": "corpus_cache",
            "quick": quick,
            "machine_info": machine_info(),
            "corpus": {
                "name": "mskcfg",
                "seed": seed,
                "scale": scale,
                "samples": samples as u64,
                "shards": built.manifest.shards.len() as u64,
                "shard_bytes": bytes,
            },
            "cold_generate_extract": stats_json(&cold),
            "warm_cache_load": stats_json(&warm),
            "warm_samples_per_s": per_s(warm.median_ns),
            "warm_mb_per_s": mb_per_s,
            "cold_samples_per_s": per_s(cold.median_ns),
            "speedup_warm_vs_cold": speedup,
        }),
    );
}
