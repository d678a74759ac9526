//! Table III + Fig. 9: per-family precision/recall/F1 of MAGIC's best
//! model on the MSKCFG-like corpus, under stratified 5-fold CV.
//!
//! Paper numbers to compare shape against: every family's P/R/F1 ≥ 0.96,
//! overall accuracy 99.25%, mean log loss 0.0543.

use magic_bench::experiments::{best_params, run_cv, Corpus};
use magic_bench::results::{bar, report_to_json, write_result};
use magic_bench::RunArgs;
use magic_json::json;

fn main() {
    let args = RunArgs::parse(RunArgs::quick());
    println!(
        "=== Table III / Fig. 9: MAGIC on MSKCFG (scale {}, {} epochs, {}-fold CV) ===",
        args.scale, args.epochs, args.folds
    );
    let corpus = args.corpus(Corpus::Mskcfg);
    println!("corpus: {} samples, 9 families", corpus.len());

    let params = best_params(Corpus::Mskcfg);
    println!("best model (Table II): {params}");
    let outcome = run_cv(&corpus, &params, args.epochs, args.folds, args.seed);
    let report = outcome.report(&corpus.class_names);

    println!("\n{report}\n");
    println!("Fig. 9 (cross-validation F1 per family):");
    for class in &report.classes {
        println!("{:<16} {} {:.4}", class.name, bar(class.f1, 1.0, 40), class.f1);
    }
    println!(
        "\npaper: accuracy 0.9925, log-loss 0.0543 | measured: accuracy {:.4}, log-loss {:.4}",
        report.accuracy, outcome.log_loss
    );

    write_result(
        "table3_mskcfg",
        &json!({
            "scale": args.scale,
            "epochs": args.epochs,
            "folds": args.folds,
            "paper": { "accuracy": 0.9925, "log_loss": 0.0543 },
            "measured": report_to_json(&report),
        }),
    );
}
