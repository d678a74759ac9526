//! Training epochs per pooling head: measures one epoch of the
//! mini-batch engine — every sample runs through the model's batched
//! forward as a batch of one — for each head family and records it in
//! `results/BENCH_batched_forward.json`.
//!
//! Environment knobs (both used by `scripts/ci.sh`):
//!
//! * `MAGIC_BENCH_QUICK=1` — smaller corpus and fewer samples, written
//!   to `BENCH_batched_forward_quick.json`; sized for a CI gate, not
//!   for quotable numbers.
//! * `MAGIC_BENCH_INJECT_SLOWDOWN_US=<µs>` — sleeps inside the timed
//!   region, for testing that the regression gate actually fails.

use magic::trainer::{TrainConfig, Trainer};
use magic_bench::results::{machine_info, write_result};
use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
use magic_json::json;
use magic_microbench::{time_fn, Stats};
use magic_model::{Dgcnn, DgcnnConfig, GraphInput, PoolingHead};
use magic_tensor::{Rng64, Tensor};
use std::time::Duration;

fn sample_input(n: usize, seed: u64) -> GraphInput {
    let mut rng = Rng64::new(seed);
    let mut g = DiGraph::new(n);
    for v in 0..n - 1 {
        g.add_edge(v, v + 1);
    }
    for _ in 0..n / 4 {
        let (u, v) = (rng.next_below(n), rng.next_below(n));
        if u != v {
            g.add_edge(u, v);
        }
    }
    GraphInput::from_acfg(&Acfg::new(
        g,
        Tensor::rand_uniform([n, NUM_ATTRIBUTES], 0.0, 4.0, &mut rng),
    ))
}

/// Measurement budget: (samples, target per sample, hard cap per sample).
struct Budget {
    samples: usize,
    target: Duration,
    cap: Duration,
}

fn epoch_stats(
    head: PoolingHead,
    inputs: &[GraphInput],
    labels: &[usize],
    budget: &Budget,
    inject_us: u64,
) -> Stats {
    let config = DgcnnConfig::new(4, head);
    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 10,
        learning_rate: 1e-3,
        seed: 11,
        train_workers: 1,
        ..TrainConfig::default()
    });
    let train_idx: Vec<usize> = (0..inputs.len()).collect();
    time_fn(
        || {
            if inject_us > 0 {
                std::thread::sleep(Duration::from_micros(inject_us));
            }
            let mut model = Dgcnn::new(&config, 2);
            let outcome = trainer.train(&mut model, inputs, labels, &train_idx, &[]);
            std::hint::black_box(outcome.history.len());
        },
        budget.samples,
        budget.target,
        budget.cap,
    )
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
    // The trainer logs per-epoch progress at info level; that's stderr
    // I/O inside the timed region, so keep the bench quiet.
    magic_obs::set_log_level(magic_obs::Level::Error);
    let quick = std::env::var("MAGIC_BENCH_QUICK").map(|v| v == "1").unwrap_or(false);
    let inject_us: u64 = std::env::var("MAGIC_BENCH_INJECT_SLOWDOWN_US")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    let (graphs, vertices, budget) = if quick {
        (16, 20, Budget { samples: 5, target: Duration::from_millis(60), cap: Duration::from_millis(350) })
    } else {
        (40, 30, Budget { samples: 10, target: Duration::from_millis(200), cap: Duration::from_millis(1200) })
    };
    let inputs: Vec<GraphInput> = (0..graphs).map(|i| sample_input(vertices, i as u64)).collect();
    let labels: Vec<usize> = (0..inputs.len()).map(|i| i % 4).collect();

    // One head per pooling family: the adaptive head is the Table II
    // best architecture for MSKCFG (`magic train`'s default), the
    // weighted head is the cheapest SortPooling variant.
    let heads = [
        ("adaptive", PoolingHead::adaptive_max_pool(3)),
        ("sort_pool_weighted", PoolingHead::sort_pool_weighted(10)),
    ];
    let mut rows = Vec::new();
    for (name, head) in heads {
        let epoch = epoch_stats(head, &inputs, &labels, &budget, inject_us);
        println!("{name:>20} {:>12.0} ns/epoch", epoch.median_ns);
        rows.push(json!({
            "head": name,
            "epoch": stats_json(&epoch),
        }));
    }

    let name = if quick { "BENCH_batched_forward_quick" } else { "BENCH_batched_forward" };
    write_result(
        name,
        &json!({
            "bench": "batched_forward",
            "quick": quick,
            "machine_info": machine_info(),
            "corpus": { "graphs": graphs, "vertices_per_graph": vertices, "batch_size": 10 },
            "heads": rows,
        }),
    );
}
