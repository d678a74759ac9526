//! Table II: hyperparameter search.
//!
//! Sweeps the Table II grid with K-fold cross-validation per setting and
//! reports the winner per dataset, mirroring the paper's model-selection
//! procedure (Section V-B). By default the CPU-sized reduced grid (6
//! settings) is swept; `--full` runs all 208 settings of the paper.

use magic::tuning::{GridSearch, HyperParams};
use magic::LoadedCorpus;
use magic_bench::experiments::{best_params, Corpus};
use magic_bench::results::write_result;
use magic_bench::RunArgs;
use magic_json::json;

fn sweep(name: &str, corpus: &LoadedCorpus, args: &RunArgs) -> Vec<magic_json::Value> {
    let grid = if args.full {
        HyperParams::full_grid()
    } else {
        HyperParams::reduced_grid()
    };
    println!(
        "\n--- {name}: sweeping {} settings x {}-fold CV x {} epochs ---",
        grid.len(),
        args.folds,
        args.epochs
    );
    let search = GridSearch { grid, epochs: args.epochs, folds: args.folds, seed: args.seed };
    let outcomes = search.run(
        &corpus.inputs,
        &corpus.labels,
        corpus.class_names.len(),
        |i, total, outcome| {
            println!(
                "[{}/{}] val-loss {:.4}  acc {:.4}  {}",
                i + 1,
                total,
                outcome.cv.mean_val_loss,
                outcome.cv.confusion.accuracy(),
                outcome.params
            );
        },
    );
    println!("\nbest model for {name}: {}", outcomes[0].params);
    println!(
        "  mean val loss {:.4}, CV accuracy {:.4}",
        outcomes[0].cv.mean_val_loss,
        outcomes[0].cv.confusion.accuracy()
    );
    outcomes
        .iter()
        .map(|o| {
            json!({
                "params": o.params.to_string(),
                "mean_val_loss": o.cv.mean_val_loss,
                "accuracy": o.cv.confusion.accuracy(),
                "log_loss": o.cv.log_loss,
            })
        })
        .collect()
}

fn main() {
    let args = RunArgs::parse(RunArgs::quick());
    println!("=== Table II: hyperparameter tuning (scale {}) ===", args.scale);
    println!(
        "full grid size: {} (64 adaptive + 96 sort/conv1d + 48 sort/weighted); sweeping {}",
        HyperParams::full_grid().len(),
        if args.full { "FULL grid" } else { "reduced grid (pass --full for all 208)" }
    );

    let msk = args.corpus(Corpus::Mskcfg);
    let msk_results = sweep("MSKCFG", &msk, &args);

    let yan = args.corpus(Corpus::Yancfg);
    let yan_results = sweep("YANCFG", &yan, &args);

    println!("\npaper best models: MSKCFG = {}", best_params(Corpus::Mskcfg));
    println!("                   YANCFG = {}", best_params(Corpus::Yancfg));

    write_result(
        "table2_hyperparams",
        &json!({
            "scale": args.scale,
            "epochs": args.epochs,
            "folds": args.folds,
            "grid": if args.full { "full-208" } else { "reduced-6" },
            "mskcfg_ranked": msk_results,
            "yancfg_ranked": yan_results,
        }),
    );
}
