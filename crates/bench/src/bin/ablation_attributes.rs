//! Ablation (extension beyond the paper): which half of Table I matters?
//!
//! MAGIC's pitch is that *both* the per-block code statistics and the
//! structural context contribute. This binary trains the best YANCFG
//! model three times — with all 11 attribute channels, with only the
//! code-sequence channels (structure channels zeroed), and with only the
//! vertex-structure channels (code channels zeroed) — and compares
//! cross-validated accuracy. Expected shape: full > code-only >
//! structure-only, with structure-only still clearly above chance because
//! the graph convolution propagates topology.

use magic::cv::cross_validate;
use magic_bench::experiments::{best_params, Corpus};
use magic_bench::results::write_result;
use magic_bench::RunArgs;
use magic_graph::{Acfg, Attribute};
use magic_model::GraphInput;
use magic_json::json;

/// Zeroes the given attribute channels of every vertex.
fn mask_channels(acfg: &Acfg, channels: &[usize]) -> Acfg {
    let mut attrs = acfg.attributes().clone();
    for v in 0..acfg.vertex_count() {
        for &c in channels {
            attrs.set2(v, c, 0.0);
        }
    }
    Acfg::new(acfg.graph().clone(), attrs)
}

fn main() {
    let args = RunArgs::parse(RunArgs::quick());
    println!(
        "=== Ablation: Table I attribute groups (YANCFG, scale {}, {} epochs) ===",
        args.scale, args.epochs
    );
    let corpus = args.corpus(Corpus::Yancfg);
    println!("corpus: {} samples\n", corpus.len());

    let structure_channels = [Attribute::Offspring as usize, Attribute::InstructionsInVertex as usize];
    let code_channels: Vec<usize> = (0..=8).collect();

    let variants: [(&str, Vec<usize>); 3] = [
        ("all 11 channels", vec![]),
        ("code-sequence only (structure zeroed)", structure_channels.to_vec()),
        ("structure only (code channels zeroed)", code_channels),
    ];

    let params = best_params(Corpus::Yancfg);
    let mut rows = Vec::new();
    for (name, masked) in &variants {
        let inputs: Vec<GraphInput> = corpus
            .acfgs
            .iter()
            .map(|a| GraphInput::from_acfg(&mask_channels(a, masked)))
            .collect();
        let sizes: Vec<usize> = inputs.iter().map(GraphInput::vertex_count).collect();
        let model_config = params.to_model_config(corpus.class_names.len(), &sizes);
        let train_config = params.to_train_config(args.epochs, args.seed);
        let outcome = cross_validate(&model_config, &train_config, &inputs, &corpus.labels, args.folds);
        println!(
            "{:<42} accuracy {:.4}  macro-F1 {:.4}  log-loss {:.4}",
            name,
            outcome.confusion.accuracy(),
            outcome.report(&corpus.class_names).macro_f1,
            outcome.log_loss
        );
        rows.push(json!({
            "variant": name,
            "accuracy": outcome.confusion.accuracy(),
            "log_loss": outcome.log_loss,
        }));
    }

    write_result(
        "ablation_attributes",
        &json!({ "scale": args.scale, "epochs": args.epochs, "variants": rows }),
    );
}
