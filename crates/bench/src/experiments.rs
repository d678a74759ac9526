//! Shared experiment runners behind the per-table binaries.

use magic::corpus_cache::LoadedCorpus;
use magic::cv::{cross_validate, CvOutcome};
use magic::tuning::HyperParams;
use magic_baselines::{
    Classifier, FeatureVector, GradientBoosting, LinearSvmEnsemble, RandomForest,
    SequenceClassifier,
};
use magic_data::stratified_kfold;
use magic_metrics::{mean_log_loss, ConfusionMatrix, ScoreReport};

/// The corpus kind under the name the experiment binaries use.
pub use magic::corpus_cache::CorpusKind as Corpus;
/// The Table II best models, defined in [`magic::tuning`].
pub use magic::tuning::best_params;

/// Cross-validates a hyperparameter setting on a corpus.
pub fn run_cv(
    corpus: &LoadedCorpus,
    params: &HyperParams,
    epochs: usize,
    folds: usize,
    seed: u64,
) -> CvOutcome {
    let model_config = params.to_model_config(corpus.class_names.len(), &corpus.graph_sizes());
    let train_config = params.to_train_config(epochs, seed);
    cross_validate(&model_config, &train_config, &corpus.inputs, &corpus.labels, folds)
}

/// One baseline's cross-validated result.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Human-readable method name (matching Table IV's row labels).
    pub name: String,
    /// Cross-validated accuracy.
    pub accuracy: f64,
    /// Mean logarithmic loss.
    pub log_loss: f64,
    /// Full per-family report.
    pub report: ScoreReport,
}

/// The feature-vector baselines compared in Table IV, cross-validated on
/// the same stratified folds the DGCNN uses.
pub fn run_feature_baselines(
    corpus: &LoadedCorpus,
    folds: usize,
    seed: u64,
) -> Vec<BaselineResult> {
    let num_classes = corpus.class_names.len();
    let rich: Vec<Vec<f64>> = corpus.acfgs.iter().map(|a| FeatureVector::Rich.extract(a)).collect();
    let basic: Vec<Vec<f64>> = corpus.acfgs.iter().map(|a| FeatureVector::Basic.extract(a)).collect();
    let splits = stratified_kfold(&corpus.labels, folds, seed);

    let mut out = Vec::new();
    let mut run = |name: &str, features: &[Vec<f64>], make: &mut dyn FnMut() -> Box<dyn Classifier>| {
        let mut confusion = ConfusionMatrix::new(num_classes);
        let mut probs = Vec::new();
        let mut targets = Vec::new();
        for split in &splits {
            let train_x: Vec<Vec<f64>> = split.train.iter().map(|&i| features[i].clone()).collect();
            let train_y: Vec<usize> = split.train.iter().map(|&i| corpus.labels[i]).collect();
            let mut model = make();
            model.fit(&train_x, &train_y, num_classes);
            for &i in &split.validation {
                let p = model.predict_proba(&features[i]);
                confusion.record(corpus.labels[i], magic_tensor::argmax(&p).unwrap_or(0));
                probs.push(p);
                targets.push(corpus.labels[i]);
            }
        }
        let log_loss = mean_log_loss(&probs, &targets);
        let report =
            ScoreReport::from_confusion(&confusion, &corpus.class_names).with_log_loss(log_loss);
        out.push(BaselineResult {
            name: name.to_string(),
            accuracy: confusion.accuracy(),
            log_loss,
            report,
        });
    };

    run(
        "Gradient boosting, rich features (XGBoost-like [13])",
        &rich,
        &mut || Box::new(GradientBoosting::new(25, 4, 0.3, seed)),
    );
    run(
        "Random forest, basic features ([11],[14]-like)",
        &basic,
        &mut || Box::new(RandomForest::new(40, 10, seed)),
    );
    run(
        "Linear SVM ensemble (ESVC-like [8])",
        &basic,
        &mut || Box::new(LinearSvmEnsemble::new(15, 1e-3, seed)),
    );
    out
}

/// The Strand-like sequence classifier, which consumes ACFGs directly.
pub fn run_sequence_baseline(corpus: &LoadedCorpus, folds: usize, seed: u64) -> BaselineResult {
    let num_classes = corpus.class_names.len();
    let splits = stratified_kfold(&corpus.labels, folds, seed);
    let mut confusion = ConfusionMatrix::new(num_classes);
    let mut probs = Vec::new();
    let mut targets = Vec::new();
    for split in &splits {
        let train_graphs: Vec<&magic_graph::Acfg> =
            split.train.iter().map(|&i| &corpus.acfgs[i]).collect();
        let train_y: Vec<usize> = split.train.iter().map(|&i| corpus.labels[i]).collect();
        let mut clf = SequenceClassifier::new(3);
        clf.fit(&train_graphs, &train_y, num_classes);
        for &i in &split.validation {
            let p = clf.predict_proba(&corpus.acfgs[i]);
            confusion.record(corpus.labels[i], magic_tensor::argmax(&p).unwrap_or(0));
            probs.push(p);
            targets.push(corpus.labels[i]);
        }
    }
    let log_loss = mean_log_loss(&probs, &targets);
    let report =
        ScoreReport::from_confusion(&confusion, &corpus.class_names).with_log_loss(log_loss);
    BaselineResult {
        name: "Sequence nearest-centroid (Strand-like [15])".to_string(),
        accuracy: confusion.accuracy(),
        log_loss,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_graph::ReduceStrategy;

    #[test]
    fn baselines_run_end_to_end_on_tiny_corpus() {
        let mut corpus =
            magic::generate_corpus(Corpus::Yancfg, 5, 0.001, ReduceStrategy::None, 0).unwrap();
        // Keep debug-mode runtime down: truncate to 4 samples per family.
        let mut keep = Vec::new();
        let mut counts = vec![0usize; corpus.class_names.len()];
        for (i, &l) in corpus.labels.iter().enumerate() {
            if counts[l] < 4 {
                counts[l] += 1;
                keep.push(i);
            }
        }
        corpus.acfgs = keep.iter().map(|&i| corpus.acfgs[i].clone()).collect();
        corpus.inputs = keep.iter().map(|&i| corpus.inputs[i].clone()).collect();
        corpus.labels = keep.iter().map(|&i| corpus.labels[i]).collect();

        let results = run_feature_baselines(&corpus, 2, 1);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.accuracy > 0.0 && r.accuracy <= 1.0, "{}: {}", r.name, r.accuracy);
            assert!(r.log_loss.is_finite());
        }
        let seq = run_sequence_baseline(&corpus, 2, 1);
        assert!(seq.accuracy > 0.0);
    }
}
