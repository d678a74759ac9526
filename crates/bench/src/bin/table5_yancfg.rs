//! Table V + Fig. 10: per-family precision/recall/F1 of MAGIC's best
//! model on the YANCFG-like corpus, under stratified 5-fold CV.
//!
//! Shape targets from the paper: ≥9 of 13 families with F1 > 0.9
//! (Koobface and Swizzor near-perfect); the overlapping bot families
//! degraded — Ldpinch/Sdbot recall ≈ 0.5, Rbot precision ≈ 0.64.

use magic_bench::experiments::{best_params, run_cv, Corpus};
use magic_bench::results::{bar, report_to_json, write_result};
use magic_bench::RunArgs;
use magic_json::json;

/// Table V of the paper, for side-by-side printing.
const PAPER_F1: [(&str, f64); 13] = [
    ("Bagle", 0.904762),
    ("Benign", 0.958525),
    ("Bifrose", 0.915888),
    ("Hupigon", 0.940454),
    ("Koobface", 1.0),
    ("Ldpinch", 0.590164),
    ("Lmir", 0.779220),
    ("Rbot", 0.697095),
    ("Sdbot", 0.575342),
    ("Swizzor", 0.995708),
    ("Vundo", 0.986351),
    ("Zbot", 0.939314),
    ("Zlob", 0.979592),
];

fn main() {
    let args = RunArgs::parse(RunArgs::quick());
    println!(
        "=== Table V / Fig. 10: MAGIC on YANCFG (scale {}, {} epochs, {}-fold CV) ===",
        args.scale, args.epochs, args.folds
    );
    let corpus = args.corpus(Corpus::Yancfg);
    println!("corpus: {} samples, 13 families", corpus.len());

    let params = best_params(Corpus::Yancfg);
    println!("best model (Table II): {params}");
    let outcome = run_cv(&corpus, &params, args.epochs, args.folds, args.seed);
    let report = outcome.report(&corpus.class_names);

    println!("\n{report}\n");
    println!("Fig. 10 (cross-validation F1 per family, measured vs paper):");
    println!("{:<12} {:<44} {:>8} {:>8}", "Family", "", "meas.", "paper");
    for (class, (pname, pf1)) in report.classes.iter().zip(PAPER_F1) {
        assert_eq!(class.name, pname, "family order must match Table V");
        println!(
            "{:<12} {} {:>8.4} {:>8.4}",
            class.name,
            bar(class.f1, 1.0, 40),
            class.f1,
            pf1
        );
    }

    write_result(
        "table5_yancfg",
        &json!({
            "scale": args.scale,
            "epochs": args.epochs,
            "folds": args.folds,
            "paper_f1": PAPER_F1.iter().map(|(n, f)| json!({"name": n, "f1": f})).collect::<Vec<_>>(),
            "measured": report_to_json(&report),
        }),
    );
}
