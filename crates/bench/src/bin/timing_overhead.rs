//! Section V-E: execution overhead breakdown — ACFG build time, classifier
//! training time per instance, and prediction time per instance.
//!
//! Paper numbers (their hardware — i7-6850K for extraction, GTX 1080 Ti
//! for the model): extraction ≈ 5.8 s/sample, training ≈ 29.69 ± 4.90
//! ms/instance, prediction ≈ 11.33 ± 1.35 ms/instance. Absolute values
//! here will differ (CPU-only, synthetic corpus); the claim under test is
//! that prediction stays in the online-usable millisecond range.

use magic::pipeline::extract_acfg;
use magic::trainer::{TrainConfig, Trainer};
use magic_bench::experiments::{best_params, Corpus};
use magic_bench::results::write_result;
use magic_bench::RunArgs;
use magic_model::Dgcnn;
use magic_synth::MskcfgGenerator;
use magic_json::json;
use std::time::Instant;

fn mean_std(samples: &[f64]) -> (f64, f64) {
    let n = samples.len().max(1) as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

fn main() {
    // Per-epoch progress logging is stderr I/O inside the timed regions.
    magic_obs::set_log_level(magic_obs::Level::Error);
    let args = RunArgs::parse(RunArgs::quick());
    println!("=== Section V-E: execution overhead of MAGIC ===\n");

    // 1. ACFG extraction time.
    let mut generator = MskcfgGenerator::new(args.seed, 1.0);
    let extraction: Vec<f64> = (0..9)
        .flat_map(|family| (0..5).map(move |_| family))
        .map(|family| {
            let sample = generator.generate_one(family);
            let start = Instant::now();
            let acfg = extract_acfg(&sample.listing).expect("generated listings parse");
            let elapsed = start.elapsed().as_secs_f64() * 1000.0;
            assert!(acfg.vertex_count() > 0);
            elapsed
        })
        .collect();
    let (ext_mean, ext_std) = mean_std(&extraction);
    println!(
        "ACFG extraction: {ext_mean:.3} ± {ext_std:.3} ms/sample over {} samples",
        extraction.len()
    );
    println!("  (paper: ~5800 ms/sample on their corpus of far larger real binaries)");

    // 2. Training time per instance (forward + backward + update share).
    let corpus = RunArgs { scale: args.scale.min(0.01), ..args.clone() }.corpus(Corpus::Mskcfg);
    let params = best_params(Corpus::Mskcfg);
    let model_config = params.to_model_config(corpus.class_names.len(), &corpus.graph_sizes());
    let train_config = TrainConfig {
        epochs: 1,
        batch_size: params.batch_size,
        weight_decay: params.weight_decay,
        seed: args.seed,
        ..TrainConfig::default()
    };
    let trainer = Trainer::new(train_config);
    let idx: Vec<usize> = (0..corpus.len()).collect();
    let mut train_times = Vec::new();
    for run in 0..5 {
        let mut model = Dgcnn::new(&model_config, args.seed + run);
        let start = Instant::now();
        trainer.train(&mut model, &corpus.inputs, &corpus.labels, &idx, &idx[..1]);
        train_times.push(start.elapsed().as_secs_f64() * 1000.0 / corpus.len() as f64);
    }
    let (train_mean, train_std) = mean_std(&train_times);
    println!(
        "training: {train_mean:.2} ± {train_std:.2} ms/instance (paper: 29.69 ± 4.90 ms on GPU)"
    );

    // 3. Prediction time per instance.
    let model = Dgcnn::new(&model_config, args.seed);
    let mut predict_times = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for input in &corpus.inputs {
            std::hint::black_box(model.predict(input));
        }
        predict_times.push(start.elapsed().as_secs_f64() * 1000.0 / corpus.len() as f64);
    }
    let (pred_mean, pred_std) = mean_std(&predict_times);
    println!(
        "prediction: {pred_mean:.2} ± {pred_std:.2} ms/instance (paper: 11.33 ± 1.35 ms on GPU)"
    );
    println!(
        "\nactionable-for-online-classification check: prediction {} 100 ms/instance",
        if pred_mean < 100.0 { "<" } else { ">=" }
    );

    write_result(
        "timing_overhead",
        &json!({
            "extraction_ms_per_sample": { "mean": ext_mean, "std": ext_std },
            "training_ms_per_instance": { "mean": train_mean, "std": train_std },
            "prediction_ms_per_instance": { "mean": pred_mean, "std": pred_std },
            "paper": {
                "extraction_ms_per_sample": 5800.0,
                "training_ms_per_instance": { "mean": 29.69, "std": 4.90 },
                "prediction_ms_per_instance": { "mean": 11.33, "std": 1.35 },
            },
        }),
    );
}
