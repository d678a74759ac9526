//! Extension experiment: DGCNN vs the classical WL-subtree-kernel k-NN.
//!
//! Section I motivates MAGIC against graph-similarity classification whose
//! "time needed to compute pairwise graph similarity for a malware dataset
//! scales quadratically with its size". This binary quantifies both halves
//! of that claim on the YANCFG-like corpus:
//!
//! 1. classification quality of a WL-kernel k-NN vs the DGCNN, and
//! 2. per-prediction latency of each as the training set grows — flat for
//!    the DGCNN (model size is constant), linear-in-training-size for the
//!    kernel k-NN.

use magic_baselines::WlKernelKnn;
use magic_bench::experiments::{best_params, run_cv, Corpus};
use magic_bench::results::write_result;
use magic_bench::RunArgs;
use magic_data::stratified_kfold;
use magic_metrics::ConfusionMatrix;
use magic_model::Dgcnn;
use magic_json::json;
use std::time::Instant;

fn main() {
    let args = RunArgs::parse(RunArgs::quick());
    println!(
        "=== Extension: DGCNN vs WL-kernel k-NN (YANCFG, scale {}) ===",
        args.scale
    );
    let corpus = args.corpus(Corpus::Yancfg);
    println!("corpus: {} samples\n", corpus.len());

    // --- classification quality, same folds ------------------------------
    let dgcnn = run_cv(&corpus, &best_params(Corpus::Yancfg), args.epochs, args.folds, args.seed);
    let splits = stratified_kfold(&corpus.labels, args.folds, args.seed);
    let mut wl_confusion = ConfusionMatrix::new(corpus.class_names.len());
    for split in &splits {
        let graphs: Vec<&magic_graph::Acfg> = split.train.iter().map(|&i| &corpus.acfgs[i]).collect();
        let labels: Vec<usize> = split.train.iter().map(|&i| corpus.labels[i]).collect();
        let mut knn = WlKernelKnn::new(3, 5);
        knn.fit(&graphs, &labels, corpus.class_names.len());
        for &i in &split.validation {
            wl_confusion.record(corpus.labels[i], knn.predict(&corpus.acfgs[i]));
        }
    }
    println!(
        "accuracy: DGCNN {:.4} vs WL-kernel kNN {:.4}",
        dgcnn.confusion.accuracy(),
        wl_confusion.accuracy()
    );

    // --- prediction latency vs training-set size -------------------------
    println!("\nper-prediction latency as the training set grows:");
    println!("{:>10} {:>16} {:>16}", "train size", "WL-kNN ms/query", "DGCNN ms/query");
    let params = best_params(Corpus::Yancfg);
    let config = params.to_model_config(corpus.class_names.len(), &corpus.graph_sizes());
    let model = Dgcnn::new(&config, 1);
    let probes: Vec<usize> = (0..20.min(corpus.len())).collect();
    let mut latency_rows = Vec::new();
    for frac in [0.25, 0.5, 1.0] {
        let train_size = ((corpus.len() as f64) * frac) as usize;
        let graphs: Vec<&magic_graph::Acfg> =
            corpus.acfgs.iter().take(train_size).collect();
        let labels: Vec<usize> = corpus.labels.iter().take(train_size).copied().collect();
        let mut knn = WlKernelKnn::new(3, 5);
        knn.fit(&graphs, &labels, corpus.class_names.len());

        let start = Instant::now();
        for &i in &probes {
            std::hint::black_box(knn.predict(&corpus.acfgs[i]));
        }
        let knn_ms = start.elapsed().as_secs_f64() * 1000.0 / probes.len() as f64;

        let start = Instant::now();
        for &i in &probes {
            std::hint::black_box(model.predict(&corpus.inputs[i]));
        }
        let dgcnn_ms = start.elapsed().as_secs_f64() * 1000.0 / probes.len() as f64;
        println!("{train_size:>10} {knn_ms:>16.3} {dgcnn_ms:>16.3}");
        latency_rows.push(json!({
            "train_size": train_size,
            "wl_knn_ms_per_query": knn_ms,
            "dgcnn_ms_per_query": dgcnn_ms,
        }));
    }
    println!("\nshape check: WL-kNN latency grows with training size; DGCNN stays flat.");

    write_result(
        "ext_wl_kernel",
        &json!({
            "scale": args.scale,
            "dgcnn_accuracy": dgcnn.confusion.accuracy(),
            "wl_knn_accuracy": wl_confusion.accuracy(),
            "latency": latency_rows,
        }),
    );
}
