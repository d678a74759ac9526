//! Fig. 11: per-family F1 improvement of MAGIC over the ESVC SVM
//! ensemble \[8\] on the YANCFG corpus.
//!
//! Shape targets: MAGIC wins on most families with the largest absolute
//! gains (≥ 0.2 in the paper) on Bagle/Koobface/Ldpinch/Lmir; Rbot is the
//! one family where ESVC is visibly ahead; Benign is excluded from the
//! comparison (unreported in \[8\]).

use magic_bench::experiments::{best_params, run_cv, Corpus};
use magic_bench::results::write_result;
use magic_bench::RunArgs;
use magic_baselines::{Classifier, FeatureVector, LinearSvmEnsemble};
use magic_data::stratified_kfold;
use magic_metrics::{ConfusionMatrix, ScoreReport};
use magic_json::json;

fn main() {
    let args = RunArgs::parse(RunArgs::quick());
    println!(
        "=== Fig. 11: MAGIC vs ESVC on YANCFG (scale {}, {} epochs, {}-fold CV) ===",
        args.scale, args.epochs, args.folds
    );
    let corpus = args.corpus(Corpus::Yancfg);
    println!("corpus: {} samples, 13 families\n", corpus.len());

    // MAGIC.
    let outcome = run_cv(&corpus, &best_params(Corpus::Yancfg), args.epochs, args.folds, args.seed);
    let magic_report = outcome.report(&corpus.class_names);

    // ESVC-like SVM ensemble on handcrafted features, same folds.
    let features: Vec<Vec<f64>> =
        corpus.acfgs.iter().map(|a| FeatureVector::Basic.extract(a)).collect();
    let splits = stratified_kfold(&corpus.labels, args.folds, args.seed);
    let mut confusion = ConfusionMatrix::new(corpus.class_names.len());
    for split in &splits {
        let train_x: Vec<Vec<f64>> = split.train.iter().map(|&i| features[i].clone()).collect();
        let train_y: Vec<usize> = split.train.iter().map(|&i| corpus.labels[i]).collect();
        let mut svm = LinearSvmEnsemble::new(15, 1e-3, args.seed);
        svm.fit(&train_x, &train_y, corpus.class_names.len());
        for &i in &split.validation {
            confusion.record(corpus.labels[i], svm.predict(&features[i]));
        }
    }
    let esvc_report = ScoreReport::from_confusion(&confusion, &corpus.class_names);

    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "Family", "MAGIC F1", "ESVC F1", "abs diff", "rel diff"
    );
    let mut records = Vec::new();
    for (m, e) in magic_report.classes.iter().zip(&esvc_report.classes) {
        // Fig. 11 omits Benign (unreported by [8]).
        if m.name == "Benign" {
            continue;
        }
        let abs = m.f1 - e.f1;
        let rel = if e.f1 > 0.0 { abs / e.f1 } else { f64::INFINITY };
        println!(
            "{:<12} {:>10.4} {:>10.4} {:>+10.4} {:>+9.1}%",
            m.name,
            m.f1,
            e.f1,
            abs,
            rel * 100.0
        );
        records.push(json!({
            "family": m.name,
            "magic_f1": m.f1,
            "esvc_f1": e.f1,
            "absolute_improvement": abs,
            "relative_improvement": rel,
        }));
    }
    let wins = records
        .iter()
        .filter(|r| r["absolute_improvement"].as_f64().unwrap_or(0.0) > 0.0)
        .count();
    println!("\nMAGIC ahead on {wins}/{} families (paper: 10/12)", records.len());

    write_result(
        "fig11_esvc_improvement",
        &json!({
            "scale": args.scale,
            "epochs": args.epochs,
            "folds": args.folds,
            "families": records,
            "magic_wins": wins,
        }),
    );
}
