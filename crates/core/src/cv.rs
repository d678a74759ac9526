//! Stratified K-fold cross-validation of a DGCNN configuration
//! (Section V-B).

use crate::executor::{workers_per_concurrent_run, Lanes};
use crate::trainer::{Trainer, TrainConfig};
use magic_data::stratified_kfold;
use magic_metrics::{mean_log_loss, ConfusionMatrix, ScoreReport};
use magic_model::{Dgcnn, DgcnnConfig, GraphInput};

/// The aggregate of a cross-validation run: per-fold validation losses,
/// the merged confusion matrix over all held-out predictions, and the
/// mean log loss — everything Tables III–V report.
#[derive(Debug, Clone)]
pub struct CvOutcome {
    /// Best (minimum-over-epochs) validation loss of each fold.
    pub fold_val_losses: Vec<f32>,
    /// Confusion matrix merged across the five validation splits.
    pub confusion: ConfusionMatrix,
    /// Mean negative log-likelihood over all held-out predictions.
    pub log_loss: f64,
    /// Mean of `fold_val_losses` — the paper's model-selection score.
    pub mean_val_loss: f32,
}

impl CvOutcome {
    /// Formats the outcome as a per-family score table.
    pub fn report(&self, class_names: &[String]) -> ScoreReport {
        ScoreReport::from_confusion(&self.confusion, class_names).with_log_loss(self.log_loss)
    }
}

/// Runs K-fold cross-validation: for each fold, trains a freshly
/// initialized model ("a brand new model initialized randomly",
/// Section V-B) on 80% of the data and evaluates on the rest, so "the
/// training process never sees the testing samples".
///
/// Folds are independent, so they train on parallel lanes (the paper
/// likewise spreads its grid over four GPUs); results are deterministic
/// regardless of scheduling because each fold derives its own seed and
/// in-fold training is bitwise worker-count independent.
///
/// When [`TrainConfig::train_workers`] is `0` ("auto"), the machine's
/// parallelism is divided across the fold lanes so the two layers of
/// fan-out — folds here, mini-batch samples inside
/// [`Trainer::train`] — do not oversubscribe the cores. An explicit
/// worker count is honored verbatim, *per fold*.
///
/// # Panics
///
/// Panics if inputs and labels disagree or `folds < 2`.
pub fn cross_validate(
    model_config: &DgcnnConfig,
    train_config: &TrainConfig,
    inputs: &[GraphInput],
    labels: &[usize],
    folds: usize,
) -> CvOutcome {
    assert_eq!(inputs.len(), labels.len(), "one label per input");
    let mut fold_config = train_config.clone();
    fold_config.train_workers = workers_per_concurrent_run(fold_config.train_workers, folds);
    let trainer = Trainer::new(fold_config);
    let splits = stratified_kfold(labels, folds, train_config.seed);

    // One lane per fold; each returns (best val loss, per-sample
    // predictions for its validation split).
    let fold_results = Lanes::new(folds).run(splits.len(), |_, fold| {
        let split = &splits[fold];
        let mut model =
            Dgcnn::new(model_config, train_config.seed ^ (fold as u64).wrapping_mul(0x9E37));
        let outcome = trainer.train(&mut model, inputs, labels, &split.train, &split.validation);
        let predictions: Vec<(usize, Vec<f64>)> = split
            .validation
            .iter()
            .map(|&i| {
                let p: Vec<f64> = model.predict(&inputs[i]).iter().map(|&x| x as f64).collect();
                (i, p)
            })
            .collect();
        (outcome.best_val_loss, predictions)
    });

    let mut confusion = ConfusionMatrix::new(model_config.num_classes);
    let mut fold_val_losses = Vec::with_capacity(folds);
    let mut probs: Vec<Vec<f64>> = Vec::with_capacity(inputs.len());
    let mut targets: Vec<usize> = Vec::with_capacity(inputs.len());
    for (best_val_loss, predictions) in fold_results {
        fold_val_losses.push(best_val_loss);
        for (i, p) in predictions {
            confusion.record(labels[i], magic_tensor::argmax(&p).unwrap_or(0));
            probs.push(p);
            targets.push(labels[i]);
        }
    }
    let log_loss = mean_log_loss(&probs, &targets);
    let mean_val_loss = fold_val_losses.iter().sum::<f32>() / folds as f32;
    CvOutcome { fold_val_losses, confusion, log_loss, mean_val_loss }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
    use magic_model::PoolingHead;
    use magic_tensor::{Rng64, Tensor};

    fn toy_corpus() -> (Vec<GraphInput>, Vec<usize>) {
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..24 {
            let label = i % 2;
            let mut rng = Rng64::new(900 + i as u64);
            let n = 6;
            let mut g = DiGraph::new(n);
            for v in 0..n - 1 {
                g.add_edge(v, v + 1);
            }
            let hi = if label == 1 { 6.0 } else { 1.0 };
            let attrs = Tensor::rand_uniform([n, NUM_ATTRIBUTES], 0.0, hi, &mut rng);
            inputs.push(GraphInput::from_acfg(&Acfg::new(g, attrs)));
            labels.push(label);
        }
        (inputs, labels)
    }

    #[test]
    fn cv_covers_every_sample_once() {
        let (inputs, labels) = toy_corpus();
        let config = DgcnnConfig::new(2, PoolingHead::sort_pool_weighted(6));
        let tc = TrainConfig { epochs: 6, batch_size: 4, learning_rate: 0.01, ..TrainConfig::default() };
        let outcome = cross_validate(&config, &tc, &inputs, &labels, 3);
        assert_eq!(outcome.fold_val_losses.len(), 3);
        assert_eq!(outcome.confusion.total(), inputs.len());
        assert!(outcome.log_loss.is_finite());
        // A separable toy problem should score well above chance.
        assert!(outcome.confusion.accuracy() > 0.6, "{}", outcome.confusion.accuracy());
        let report = outcome.report(&["A".to_string(), "B".to_string()]);
        assert_eq!(report.classes.len(), 2);
        assert!(report.log_loss.is_some());
    }

    #[test]
    fn cv_is_bitwise_independent_of_train_workers() {
        let (inputs, labels) = toy_corpus();
        let config = DgcnnConfig::new(2, PoolingHead::sort_pool_weighted(6));
        let run = |train_workers: usize| {
            let tc = TrainConfig {
                epochs: 3,
                batch_size: 4,
                learning_rate: 0.01,
                train_workers,
                ..TrainConfig::default()
            };
            cross_validate(&config, &tc, &inputs, &labels, 3)
        };
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let serial = run(1);
        for train_workers in [2, 0] {
            let other = run(train_workers);
            assert_eq!(
                bits(&serial.fold_val_losses),
                bits(&other.fold_val_losses),
                "fold losses diverged with train_workers={train_workers}"
            );
            assert_eq!(serial.confusion, other.confusion, "train_workers={train_workers}");
            assert_eq!(
                serial.log_loss.to_bits(),
                other.log_loss.to_bits(),
                "log loss diverged with train_workers={train_workers}"
            );
        }
    }
}
