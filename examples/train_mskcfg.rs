//! Train MAGIC's best Table II model on the MSKCFG-like corpus and print
//! a Table III-style per-family report.
//!
//! Run with: `cargo run --release --example train_mskcfg [-- scale epochs]`
//! (defaults: scale 0.02, 12 epochs — a few minutes on a laptop).

use magic::cv::cross_validate;
use magic::executor::Lanes;
use magic::tuning::best_params;
use magic::CorpusKind;
use magic_graph::ReduceStrategy;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let scale: f64 = argv.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.02);
    let epochs: usize = argv.get(2).and_then(|s| s.parse().ok()).unwrap_or(12);

    // Generate listings and push them through the real extraction
    // pipeline, in parallel (Section IV-C).
    println!("generating MSKCFG-like corpus at scale {scale}...");
    let start = std::time::Instant::now();
    let corpus = magic::generate_corpus(CorpusKind::Mskcfg, 11, scale, ReduceStrategy::None, 0)
        .expect("generated listings extract");
    println!(
        "extracted {} ACFGs in {:.1}s on {} lanes",
        corpus.len(),
        start.elapsed().as_secs_f64(),
        Lanes::new(0).workers()
    );

    // The Table II best model for MSKCFG.
    let params = best_params(CorpusKind::Mskcfg);
    let model_config = params.to_model_config(corpus.class_names.len(), &corpus.graph_sizes());
    let train_config = params.to_train_config(epochs, 5);

    println!("running 5-fold cross-validation ({epochs} epochs per fold)...");
    let outcome = cross_validate(&model_config, &train_config, &corpus.inputs, &corpus.labels, 5);
    println!("\n{}", outcome.report(&corpus.class_names));
}
