//! YANCFG flow: train on pre-extracted CFGs, checkpoint the model, reload
//! it and serve predictions — the paper's envisioned cloud deployment
//! (Section VII).
//!
//! Run with: `cargo run --release --example yancfg_pipeline`

use magic::checkpoint::{load_weights, save_weights};
use magic::pipeline::MagicPipeline;
use magic::trainer::{evaluate_with, TrainConfig, Trainer};
use magic::tuning::best_params;
use magic::CorpusKind;
use magic_data::stratified_kfold;
use magic_graph::ReduceStrategy;
use magic_model::Dgcnn;

fn main() {
    // YANCFG ships CFGs directly — no assembly step.
    println!("generating YANCFG-like corpus...");
    let corpus = magic::generate_corpus(CorpusKind::Yancfg, 23, 0.01, ReduceStrategy::None, 0)
        .expect("generated corpus");
    let (inputs, labels, families) = (&corpus.inputs, &corpus.labels, &corpus.class_names);
    println!("{} samples across {} families", corpus.len(), families.len());

    // Table II best YANCFG model: adaptive pooling, ratio 0.2, dropout 0.5.
    let params = best_params(CorpusKind::Yancfg);
    let config = params.to_model_config(families.len(), &corpus.graph_sizes());

    // Single train/validation split for speed (the table5_yancfg binary
    // does the full 5-fold CV).
    let folds = stratified_kfold(labels, 5, 3);
    let split = &folds[0];
    let mut model = Dgcnn::new(&config, 17);
    let trainer = Trainer::new(TrainConfig {
        epochs: 12,
        batch_size: params.batch_size,
        weight_decay: params.weight_decay,
        seed: 3,
        ..TrainConfig::default()
    });
    println!("training on {} samples...", split.train.len());
    let outcome = trainer.train(&mut model, inputs, labels, &split.train, &split.validation);
    println!(
        "best val loss {:.4} at epoch {}",
        outcome.best_val_loss,
        outcome.best_epoch()
    );

    // Checkpoint, reload into a fresh model, verify identical behaviour.
    let checkpoint = save_weights(&model);
    println!("checkpoint size: {} bytes", checkpoint.len());
    let mut restored = Dgcnn::new(&config, 999);
    load_weights(&mut restored, &checkpoint).expect("checkpoint round-trips");
    let (loss_a, acc_a) = evaluate_with(1, &model, inputs, labels, &split.validation);
    let (loss_b, acc_b) = evaluate_with(1, &restored, inputs, labels, &split.validation);
    assert_eq!(loss_a, loss_b, "restored model must behave identically");
    println!("validation: loss {loss_a:.4}, accuracy {:.1}% (restored: {:.1}%)", acc_a * 100.0, acc_b * 100.0);

    // Serve one prediction.
    let pipeline = MagicPipeline::new(restored, families.clone());
    let probe = split.validation[0];
    let (family, confidence) = pipeline.classify_acfg(&corpus.acfgs[probe]);
    println!(
        "probe sample (true family {}): predicted {family} with p = {confidence:.3}",
        families[labels[probe]]
    );
}
