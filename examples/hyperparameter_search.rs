//! Hyperparameter tuning demo: sweep the reduced Table II grid on a tiny
//! MSKCFG-like corpus and report the ranking.
//!
//! Run with: `cargo run --release --example hyperparameter_search`

use magic::tuning::{GridSearch, HyperParams};
use magic::CorpusKind;
use magic_graph::ReduceStrategy;

fn main() {
    println!(
        "Table II full grid holds {} settings; sweeping the reduced {}-setting grid here.",
        HyperParams::full_grid().len(),
        HyperParams::reduced_grid().len()
    );

    let corpus = magic::generate_corpus(CorpusKind::Mskcfg, 31, 0.005, ReduceStrategy::None, 0)
        .expect("generated listings extract");
    println!("corpus: {} samples\n", corpus.len());

    let search = GridSearch {
        grid: HyperParams::reduced_grid(),
        epochs: 8,
        folds: 3,
        seed: 2,
    };
    let classes = corpus.class_names.len();
    let ranked = search.run(&corpus.inputs, &corpus.labels, classes, |i, total, outcome| {
        println!(
            "[{}/{}] mean val loss {:.4}  accuracy {:.4}  <- {}",
            i + 1,
            total,
            outcome.cv.mean_val_loss,
            outcome.cv.confusion.accuracy(),
            outcome.params
        );
    });

    println!("\nranking (best first):");
    for (rank, outcome) in ranked.iter().enumerate() {
        println!(
            "{:>2}. val loss {:.4}  {}",
            rank + 1,
            outcome.cv.mean_val_loss,
            outcome.params
        );
    }
}
