//! Extension experiment: accuracy-vs-speed sweep over the `--reduce`
//! graph-reduction strategies.
//!
//! For every strategy (`none`, `chain`, `prune`, `coarsen:2`) on both
//! corpora, this builds the reduced corpus, cross-validates the Table II
//! best model on it, and times a training epoch per-sample
//! on fold 0 — quantifying how much structure each strategy removes,
//! what that buys in epoch wall-clock, and what it costs in test
//! accuracy/macro-F1. Results land in `results/ext_reduce_sweep.json`
//! and as the markdown table in EXPERIMENTS.md ("Graph reduction").

use magic::trainer::Trainer;
use magic::LoadedCorpus;
use magic_bench::experiments::{best_params, run_cv, Corpus};
use magic_bench::results::write_result;
use magic_bench::RunArgs;
use magic_data::stratified_kfold;
use magic_graph::{Acfg, ReduceStrategy};
use magic_model::Dgcnn;
use magic_json::json;
use std::time::Instant;

fn totals(acfgs: &[Acfg]) -> (usize, usize) {
    acfgs.iter().fold((0, 0), |(n, e), a| (n + a.vertex_count(), e + a.edge_count()))
}

/// Seconds per training epoch of the Table II best model on fold 0,
/// per-sample mode with one worker (the configuration EXPERIMENTS.md's
/// 0.92 s/epoch mskcfg baseline was measured in).
fn epoch_seconds(corpus: &LoadedCorpus, which: Corpus, seed: u64) -> f64 {
    let params = best_params(which);
    let epochs = 2;
    let config = params.to_model_config(corpus.class_names.len(), &corpus.graph_sizes());
    let mut train_config = params.to_train_config(epochs, seed);
    train_config.train_workers = 1;
    let split = &stratified_kfold(&corpus.labels, 5, seed)[0];
    let mut model = Dgcnn::new(&config, seed);
    let start = Instant::now();
    let outcome = Trainer::new(train_config).train(
        &mut model,
        &corpus.inputs,
        &corpus.labels,
        &split.train,
        &split.validation,
    );
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(outcome.history.len());
    elapsed / epochs as f64
}

fn main() {
    magic_obs::set_log_level(magic_obs::Level::Error);
    let args = RunArgs::parse(RunArgs::quick());
    println!(
        "=== Extension: --reduce accuracy-vs-speed sweep (scale {}, {} epochs, {} folds) ===",
        args.scale, args.epochs, args.folds
    );

    let strategies = [
        ReduceStrategy::None,
        ReduceStrategy::Chain,
        ReduceStrategy::Prune,
        ReduceStrategy::Coarsen { rounds: 2 },
    ];
    let mut out_rows = Vec::new();
    for which in [Corpus::Mskcfg, Corpus::Yancfg] {
        let name = which.name();
        let (mut nodes0, mut edges0, mut base_epoch_s) = (0, 0, 0.0f64);
        for strategy in strategies {
            let reduced = magic::generate_corpus(which, args.seed, args.scale, strategy, 0)
                .expect("generated listings extract");
            let (nodes, edges) = totals(&reduced.acfgs);
            let epoch_s = epoch_seconds(&reduced, which, args.seed);
            if strategy.is_none() {
                (nodes0, edges0, base_epoch_s) = (nodes, edges, epoch_s);
                println!("\n{name}: {} samples, {nodes0} nodes, {edges0} edges", reduced.len());
                println!(
                    "| corpus | reduce | nodes removed | edges removed | epoch s | speedup | accuracy | macro-F1 |"
                );
                println!("|---|---|---|---|---|---|---|---|");
            }
            let cv = run_cv(&reduced, &best_params(which), args.epochs, args.folds, args.seed);
            let accuracy = cv.confusion.accuracy();
            let macro_f1 = cv.confusion.macro_f1();
            let speedup = base_epoch_s / epoch_s;
            println!(
                "| {name} | {} | {} ({:.1}%) | {} ({:.1}%) | {epoch_s:.3} | {speedup:.2}x | {accuracy:.4} | {macro_f1:.4} |",
                strategy.name(),
                nodes0 - nodes,
                100.0 * (nodes0 - nodes) as f64 / nodes0.max(1) as f64,
                edges0 - edges,
                100.0 * (edges0 - edges) as f64 / edges0.max(1) as f64,
            );
            out_rows.push(json!({
                "corpus": name,
                "reduce": strategy.name(),
                "nodes_before": nodes0 as u64,
                "nodes_after": nodes as u64,
                "edges_before": edges0 as u64,
                "edges_after": edges as u64,
                "epoch_seconds": epoch_s,
                "epoch_speedup_vs_none": speedup,
                "accuracy": accuracy,
                "macro_f1": macro_f1,
                "mean_val_loss": cv.mean_val_loss,
            }));
        }
    }

    write_result(
        "ext_reduce_sweep",
        &json!({
            "scale": args.scale,
            "epochs": args.epochs,
            "folds": args.folds,
            "seed": args.seed,
            "rows": out_rows,
        }),
    );
}
