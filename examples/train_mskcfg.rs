//! Train MAGIC's best Table II model on the MSKCFG-like corpus and print
//! a Table III-style per-family report.
//!
//! Run with: `cargo run --release --example train_mskcfg [-- scale epochs]`
//! (defaults: scale 0.02, 12 epochs — a few minutes on a laptop).

use magic::cv::cross_validate;
use magic::executor::Lanes;
use magic::pipeline::extract_acfgs_parallel;
use magic::tuning::{HeadKind, HyperParams};
use magic_model::GraphInput;
use magic_synth::{MskcfgGenerator, MSKCFG_FAMILIES};

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let scale: f64 = argv.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.02);
    let epochs: usize = argv.get(2).and_then(|s| s.parse().ok()).unwrap_or(12);

    // Generate listings and push them through the real extraction
    // pipeline, in parallel (Section IV-C).
    println!("generating MSKCFG-like corpus at scale {scale}...");
    let mut generator = MskcfgGenerator::new(11, scale);
    let samples = generator.generate();
    let listings: Vec<String> = samples.iter().map(|s| s.listing.clone()).collect();
    let start = std::time::Instant::now();
    let acfgs: Vec<_> = extract_acfgs_parallel(&listings, 0)
        .into_iter()
        .map(|r| r.expect("generated listings parse"))
        .collect();
    println!(
        "extracted {} ACFGs in {:.1}s on {} lanes",
        acfgs.len(),
        start.elapsed().as_secs_f64(),
        Lanes::new(0).workers()
    );

    let inputs: Vec<GraphInput> = acfgs.iter().map(GraphInput::from_acfg).collect();
    let labels: Vec<usize> = samples.iter().map(|s| s.label).collect();
    let sizes: Vec<usize> = inputs.iter().map(GraphInput::vertex_count).collect();

    // The Table II best model for MSKCFG.
    let mut params = HyperParams::paper_default();
    params.head = HeadKind::Adaptive;
    params.pooling_ratio = 0.64;
    params.conv_sizes = vec![128, 64, 32, 32];
    let model_config = params.to_model_config(MSKCFG_FAMILIES.len(), &sizes);
    let train_config = params.to_train_config(epochs, 5);

    println!("running 5-fold cross-validation ({epochs} epochs per fold)...");
    let outcome = cross_validate(&model_config, &train_config, &inputs, &labels, 5);
    let names: Vec<String> = MSKCFG_FAMILIES.iter().map(|s| s.to_string()).collect();
    println!("\n{}", outcome.report(&names));
}
