//! Extension experiment: concept drift.
//!
//! Section V-E closes with the concern that "malware development trends
//! after the collection of these two datasets introduce new challenges"
//! and defers testing "with the latest malware samples" to future work.
//! With a generative corpus we can run that experiment: train on today's
//! families, evaluate on progressively drifted versions of the same
//! families (bigger programs, heavier junk/splitting obfuscation, shifted
//! instruction mixes), and watch accuracy decay.

use magic::trainer::{evaluate_with, Trainer};
use magic_bench::experiments::{best_params, Corpus};
use magic_bench::results::{bar, write_result};
use magic_bench::RunArgs;
use magic_model::{Dgcnn, GraphInput};
use magic_synth::YancfgGenerator;
use magic_json::json;

fn corpus_inputs(generator: &mut YancfgGenerator) -> (Vec<GraphInput>, Vec<usize>) {
    let samples = generator.generate();
    let inputs = samples.iter().map(|s| GraphInput::from_acfg(&s.acfg)).collect();
    let labels = samples.iter().map(|s| s.label).collect();
    (inputs, labels)
}

fn main() {
    let args = RunArgs::parse(RunArgs::quick());
    println!(
        "=== Extension: concept drift (YANCFG, scale {}, {} epochs) ===",
        args.scale, args.epochs
    );

    // Train once on the un-drifted corpus.
    let (train_inputs, train_labels) = corpus_inputs(&mut YancfgGenerator::new(args.seed, args.scale));
    println!("training corpus: {} samples", train_inputs.len());
    let params = best_params(Corpus::Yancfg);
    let sizes: Vec<usize> = train_inputs.iter().map(GraphInput::vertex_count).collect();
    let model_config = params.to_model_config(13, &sizes);
    let train_config = params.to_train_config(args.epochs, args.seed);
    let trainer = Trainer::new(train_config);
    let mut model = Dgcnn::new(&model_config, args.seed);
    let idx: Vec<usize> = (0..train_inputs.len()).collect();
    // Hold out the last 20% as the in-distribution reference.
    let cut = train_inputs.len() * 4 / 5;
    trainer.train(&mut model, &train_inputs, &train_labels, &idx[..cut], &idx[cut..]);
    let (_, in_dist) = evaluate_with(1, &model, &train_inputs, &train_labels, &idx[cut..]);
    println!("in-distribution held-out accuracy: {in_dist:.4}\n");

    println!("{:<8} {:<44} {:>9}", "drift", "", "accuracy");
    let mut rows = Vec::new();
    for drift in [0.0, 0.25, 0.5, 1.0, 2.0] {
        // Fresh samples (different seed) at this drift level.
        let (inputs, labels) =
            corpus_inputs(&mut YancfgGenerator::with_drift(args.seed + 104_729, args.scale, drift));
        let all: Vec<usize> = (0..inputs.len()).collect();
        let (_, accuracy) = evaluate_with(1, &model, &inputs, &labels, &all);
        println!("{drift:<8} {} {accuracy:>9.4}", bar(accuracy, 1.0, 42));
        rows.push(json!({ "drift": drift, "accuracy": accuracy }));
    }
    println!("\nshape check: accuracy decays monotonically (allowing noise) as drift grows.");

    write_result(
        "ext_drift",
        &json!({
            "scale": args.scale,
            "epochs": args.epochs,
            "in_distribution_accuracy": in_dist,
            "drift_curve": rows,
        }),
    );
}
