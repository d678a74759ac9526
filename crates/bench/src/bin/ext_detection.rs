//! Extension experiment: MAGIC as a *detector* (benign vs malware).
//!
//! The paper's Section V-C notes that detection-oriented works (\[39\],
//! \[12\]) report two-class metrics on a benign+malware mix and are
//! therefore not comparable with the family-classification tables — but
//! also that "benign software can be treated as a special family". The
//! YANCFG corpus contains a Benign class, so this binary evaluates
//! exactly that reading: train the multi-family model, score each sample
//! with `1 - P(Benign)` as its malware score, and report ROC-AUC plus the
//! detection confusion at the 0.5 threshold.

use magic::cv::cross_validate;
use magic_bench::experiments::{best_params, Corpus};
use magic_bench::results::write_result;
use magic_bench::RunArgs;
use magic_data::stratified_kfold;
use magic_metrics::{roc_auc, ConfusionMatrix};
use magic_model::Dgcnn;
use magic::trainer::Trainer;
use magic_json::json;

fn main() {
    let args = RunArgs::parse(RunArgs::quick());
    println!(
        "=== Extension: detection mode, benign vs malware (YANCFG, scale {}) ===",
        args.scale
    );
    let corpus = args.corpus(Corpus::Yancfg);
    let benign = corpus
        .class_names
        .iter()
        .position(|n| n == "Benign")
        .expect("YANCFG has a Benign class");
    println!(
        "corpus: {} samples, {} benign\n",
        corpus.len(),
        corpus.labels.iter().filter(|&&l| l == benign).count()
    );

    // Train per fold on the full 13-family task, score 1 - P(Benign).
    let params = best_params(Corpus::Yancfg);
    let model_config = params.to_model_config(corpus.class_names.len(), &corpus.graph_sizes());
    let train_config = params.to_train_config(args.epochs, args.seed);
    let trainer = Trainer::new(train_config.clone());
    let splits = stratified_kfold(&corpus.labels, args.folds, args.seed);

    let mut scores = Vec::with_capacity(corpus.len());
    let mut truth = Vec::with_capacity(corpus.len());
    let mut detection = ConfusionMatrix::new(2);
    for (fold, split) in splits.iter().enumerate() {
        let mut model = Dgcnn::new(&model_config, train_config.seed ^ (fold as u64).wrapping_mul(0x9E37));
        trainer.train(&mut model, &corpus.inputs, &corpus.labels, &split.train, &split.validation);
        for &i in &split.validation {
            let probs = model.predict(&corpus.inputs[i]);
            let malware_score = 1.0 - probs[benign] as f64;
            let is_malware = corpus.labels[i] != benign;
            scores.push(malware_score);
            truth.push(is_malware);
            detection.record(usize::from(is_malware), usize::from(malware_score >= 0.5));
        }
    }

    let auc = roc_auc(&scores, &truth);
    println!("detection ROC-AUC: {auc:.4}");
    println!(
        "at threshold 0.5: detection rate {:.4}, false-positive rate {:.4}, accuracy {:.4}",
        detection.recall(1),
        1.0 - detection.recall(0),
        detection.accuracy()
    );
    println!("(for scale: [12]/[39]-class detectors report two-class AUC ≈ 0.99 on their corpora)");

    // Reference point: the full 13-way task on the same data.
    let multi = cross_validate(&model_config, &train_config, &corpus.inputs, &corpus.labels, args.folds);
    println!("13-family accuracy on the same corpus: {:.4}", multi.confusion.accuracy());

    write_result(
        "ext_detection",
        &json!({
            "scale": args.scale,
            "epochs": args.epochs,
            "roc_auc": auc,
            "detection_rate": detection.recall(1),
            "false_positive_rate": 1.0 - detection.recall(0),
            "accuracy": detection.accuracy(),
            "multiclass_accuracy": multi.confusion.accuracy(),
        }),
    );
}
