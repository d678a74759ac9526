//! Hyperparameter tuning: the exhaustive grid of Table II.
//!
//! The paper searches 208 settings — 64 with adaptive pooling, 96 with
//! SortPooling + Conv1D and 48 with SortPooling + WeightedVertices —
//! scoring each by five-fold cross-validated mean validation loss.
//! [`HyperParams::full_grid`] reproduces that grid exactly;
//! [`HyperParams::reduced_grid`] is a CPU-sized subset for the shipped
//! benches.

use crate::corpus_cache::CorpusKind;
use crate::cv::{cross_validate, CvOutcome};
use crate::trainer::TrainConfig;
use magic_model::{DgcnnConfig, GraphInput, PoolingHead};
use std::fmt;

/// The three head families of Table II's "Pooling Type" and "Remaining
/// Layer" rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeadKind {
    /// Adaptive max pooling + Conv2D (Section III-C).
    Adaptive,
    /// SortPooling + the original Conv1D column.
    SortConv1d,
    /// SortPooling + WeightedVertices (Section III-B).
    SortWeighted,
}

impl fmt::Display for HeadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HeadKind::Adaptive => "Adaptive Pooling",
            HeadKind::SortConv1d => "Sort Pooling + Conv1D",
            HeadKind::SortWeighted => "Sort Pooling + WeightedVertices",
        };
        f.write_str(s)
    }
}

/// One hyperparameter setting of the Table II grid.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperParams {
    /// Head family.
    pub head: HeadKind,
    /// Pooling ratio (0.2 or 0.64).
    pub pooling_ratio: f64,
    /// Graph convolution widths.
    pub conv_sizes: Vec<usize>,
    /// Conv2D channels (adaptive head only).
    pub conv2d_channels: usize,
    /// Conv1D channel pair (Conv1D head only).
    pub conv1d_channels: (usize, usize),
    /// Conv1D kernel size (Conv1D head only; 5 or 7).
    pub conv1d_kernel: usize,
    /// Dropout rate (0.1 or 0.5).
    pub dropout: f32,
    /// Batch size (10 or 40).
    pub batch_size: usize,
    /// L2 weight regularization factor (1e-4 or 5e-4).
    pub weight_decay: f32,
}

impl fmt::Display for HyperParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ratio={} conv={:?} drop={} batch={} l2={}",
            self.head, self.pooling_ratio, self.conv_sizes, self.dropout, self.batch_size,
            self.weight_decay
        )
    }
}

const RATIOS: [f64; 2] = [0.2, 0.64];
const DROPOUTS: [f32; 2] = [0.1, 0.5];
const BATCHES: [usize; 2] = [10, 40];
const DECAYS: [f32; 2] = [1e-4, 5e-4];
/// Conv stacks; `(32,32,32,1)` is only valid for sort pooling (its final
/// single channel is the sort key — Table II footnote 1).
const SORT_CONVS: [&[usize]; 3] = [&[32, 32, 32, 1], &[32, 32, 32, 32], &[128, 64, 32, 32]];
const ADAPTIVE_CONVS: [&[usize]; 2] = [&[32, 32, 32, 32], &[128, 64, 32, 32]];

impl HyperParams {
    /// A single sensible default (the YANCFG best model of Table II:
    /// adaptive pooling, ratio 0.2, `(32,32,32,32)`, 16 channels).
    pub fn paper_default() -> Self {
        HyperParams {
            head: HeadKind::Adaptive,
            pooling_ratio: 0.2,
            conv_sizes: vec![32, 32, 32, 32],
            conv2d_channels: 16,
            conv1d_channels: (16, 32),
            conv1d_kernel: 5,
            dropout: 0.1,
            batch_size: 10,
            weight_decay: 1e-4,
        }
    }

    /// The full 208-setting grid of Table II: 64 adaptive + 96 Conv1D +
    /// 48 WeightedVertices.
    pub fn full_grid() -> Vec<HyperParams> {
        let mut grid = Vec::with_capacity(208);
        let base = HyperParams::paper_default();
        for &ratio in &RATIOS {
            for &dropout in &DROPOUTS {
                for &batch_size in &BATCHES {
                    for &weight_decay in &DECAYS {
                        // Adaptive: 2 conv stacks x 2 channel choices.
                        for conv in ADAPTIVE_CONVS {
                            for &channels in &[16usize, 32] {
                                grid.push(HyperParams {
                                    head: HeadKind::Adaptive,
                                    pooling_ratio: ratio,
                                    conv_sizes: conv.to_vec(),
                                    conv2d_channels: channels,
                                    dropout,
                                    batch_size,
                                    weight_decay,
                                    ..base.clone()
                                });
                            }
                        }
                        // Sort + Conv1D: 3 conv stacks x 2 kernels x 1
                        // channel pair.
                        for conv in SORT_CONVS {
                            for &kernel in &[5usize, 7] {
                                grid.push(HyperParams {
                                    head: HeadKind::SortConv1d,
                                    pooling_ratio: ratio,
                                    conv_sizes: conv.to_vec(),
                                    conv1d_kernel: kernel,
                                    dropout,
                                    batch_size,
                                    weight_decay,
                                    ..base.clone()
                                });
                            }
                        }
                        // Sort + WeightedVertices: 3 conv stacks.
                        for conv in SORT_CONVS {
                            grid.push(HyperParams {
                                head: HeadKind::SortWeighted,
                                pooling_ratio: ratio,
                                conv_sizes: conv.to_vec(),
                                dropout,
                                batch_size,
                                weight_decay,
                                ..base.clone()
                            });
                        }
                    }
                }
            }
        }
        grid
    }

    /// A six-setting subset covering all three heads and both pooling
    /// ratios — what the shipped bench binaries sweep by default.
    pub fn reduced_grid() -> Vec<HyperParams> {
        let base = HyperParams::paper_default();
        let mut grid = Vec::new();
        for head in [HeadKind::Adaptive, HeadKind::SortConv1d, HeadKind::SortWeighted] {
            for &ratio in &RATIOS {
                grid.push(HyperParams { head, pooling_ratio: ratio, ..base.clone() });
            }
        }
        grid
    }

    /// Resolves the pooling ratio against the dataset's graph sizes:
    /// SortPooling keeps `k` vertices where a `ratio` fraction of graphs
    /// have at least `k` vertices (as in the reference DGCNN); the
    /// adaptive head maps the ratio to its output grid.
    fn resolve_k(&self, graph_sizes: &[usize]) -> usize {
        let mut sizes: Vec<usize> = graph_sizes.to_vec();
        sizes.sort_unstable();
        let idx = ((1.0 - self.pooling_ratio) * sizes.len() as f64) as usize;
        let k = sizes.get(idx.min(sizes.len().saturating_sub(1))).copied().unwrap_or(16);
        // The Conv1D column needs k/2 >= kernel to be well-formed.
        k.max(2 * self.conv1d_kernel).max(10)
    }

    /// Materializes the model configuration for a dataset with the given
    /// number of classes and graph-size distribution.
    pub fn to_model_config(&self, num_classes: usize, graph_sizes: &[usize]) -> DgcnnConfig {
        let head = match self.head {
            HeadKind::Adaptive => {
                let side = (self.pooling_ratio * 10.0).round().clamp(2.0, 8.0) as usize;
                PoolingHead::AdaptiveMaxPool { grid: (side, side), channels: self.conv2d_channels }
            }
            HeadKind::SortConv1d => PoolingHead::SortPoolConv1d {
                k: self.resolve_k(graph_sizes),
                channels: self.conv1d_channels,
                kernel: self.conv1d_kernel,
            },
            HeadKind::SortWeighted => PoolingHead::SortPoolWeightedVertices {
                k: self.resolve_k(graph_sizes),
            },
        };
        let mut config = DgcnnConfig::new(num_classes, head);
        config.conv_sizes = self.conv_sizes.clone();
        config.dropout = self.dropout;
        config
    }

    /// Materializes the training configuration.
    ///
    /// Two knobs deviate from the library defaults, calibrated for the
    /// reduced-scale corpora this reproduction trains on: the Adam
    /// learning rate is 5e-3 (at a few hundred samples the run sees two
    /// orders of magnitude fewer optimizer steps than the paper's
    /// 10k-sample × 100-epoch regime, so each step must move further) and
    /// the plateau patience is 5 epochs (validation loss on sub-100-sample
    /// folds is noisy enough that the paper's patience of 2 triggers the
    /// 10× decay spuriously and freezes training).
    pub fn to_train_config(&self, epochs: usize, seed: u64) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: self.batch_size,
            weight_decay: self.weight_decay,
            learning_rate: 5e-3,
            lr_patience: 5,
            seed,
            ..TrainConfig::default()
        }
    }
}

/// The best model Table II reports for each dataset: adaptive pooling
/// with 16 Conv2D channels on both.
///
/// * MSKCFG: ratio 0.64, `(128,64,32,32)`, dropout 0.1, batch 10, L2
///   1e-4.
/// * YANCFG: ratio 0.2, `(32,32,32,32)`, dropout 0.5, batch 40, L2
///   5e-4.
pub fn best_params(corpus: CorpusKind) -> HyperParams {
    let base = HyperParams { head: HeadKind::Adaptive, ..HyperParams::paper_default() };
    match corpus {
        CorpusKind::Mskcfg => HyperParams {
            pooling_ratio: 0.64,
            conv_sizes: vec![128, 64, 32, 32],
            conv2d_channels: 16,
            dropout: 0.1,
            batch_size: 10,
            weight_decay: 1e-4,
            ..base
        },
        CorpusKind::Yancfg => HyperParams {
            pooling_ratio: 0.2,
            conv_sizes: vec![32, 32, 32, 32],
            conv2d_channels: 16,
            dropout: 0.5,
            batch_size: 40,
            weight_decay: 5e-4,
            ..base
        },
    }
}

/// The result of evaluating one grid point.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The hyperparameters evaluated.
    pub params: HyperParams,
    /// Full cross-validation outcome.
    pub cv: CvOutcome,
}

/// Exhaustive grid search with K-fold cross-validation per setting
/// (Section V-B's tuning procedure).
#[derive(Debug, Clone)]
pub struct GridSearch {
    /// Settings to evaluate.
    pub grid: Vec<HyperParams>,
    /// Epochs per training run.
    pub epochs: usize,
    /// CV folds (the paper uses 5).
    pub folds: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl GridSearch {
    /// Runs the search, returning every outcome sorted by ascending mean
    /// validation loss (the winner first). `progress` is invoked after
    /// each setting with `(index, total, outcome)`.
    pub fn run(
        &self,
        inputs: &[GraphInput],
        labels: &[usize],
        num_classes: usize,
        mut progress: impl FnMut(usize, usize, &SearchOutcome),
    ) -> Vec<SearchOutcome> {
        let graph_sizes: Vec<usize> = inputs.iter().map(GraphInput::vertex_count).collect();
        let mut outcomes = Vec::with_capacity(self.grid.len());
        for (i, params) in self.grid.iter().enumerate() {
            let model_config = params.to_model_config(num_classes, &graph_sizes);
            let train_config = params.to_train_config(self.epochs, self.seed);
            let cv = cross_validate(&model_config, &train_config, inputs, labels, self.folds);
            let outcome = SearchOutcome { params: params.clone(), cv };
            progress(i, self.grid.len(), &outcome);
            outcomes.push(outcome);
        }
        outcomes.sort_by(|a, b| {
            a.cv.mean_val_loss
                .partial_cmp(&b.cv.mean_val_loss)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_has_exactly_208_settings() {
        let grid = HyperParams::full_grid();
        assert_eq!(grid.len(), 208);
        let adaptive = grid.iter().filter(|p| p.head == HeadKind::Adaptive).count();
        let conv1d = grid.iter().filter(|p| p.head == HeadKind::SortConv1d).count();
        let weighted = grid.iter().filter(|p| p.head == HeadKind::SortWeighted).count();
        // Section V-B: 64 adaptive, 96 sort+conv1d, 48 sort+WeightedVertices.
        assert_eq!(adaptive, 64);
        assert_eq!(conv1d, 96);
        assert_eq!(weighted, 48);
    }

    #[test]
    fn grid_settings_are_unique() {
        let grid = HyperParams::full_grid();
        for (i, a) in grid.iter().enumerate() {
            for b in &grid[i + 1..] {
                assert_ne!(a, b, "duplicate grid entry");
            }
        }
    }

    #[test]
    fn narrow_conv_stack_only_with_sort_pooling() {
        for p in HyperParams::full_grid() {
            if p.conv_sizes == vec![32, 32, 32, 1] {
                assert_ne!(p.head, HeadKind::Adaptive, "footnote 1 of Table II");
            }
        }
    }

    #[test]
    fn model_configs_materialize_and_validate() {
        let sizes: Vec<usize> = (10..110).collect();
        for p in HyperParams::reduced_grid() {
            let config = p.to_model_config(9, &sizes);
            config.validate();
            assert_eq!(config.num_classes, 9);
        }
    }

    #[test]
    fn resolve_k_respects_ratio_ordering() {
        let sizes: Vec<usize> = (10..210).collect();
        let mut small = HyperParams::paper_default();
        small.head = HeadKind::SortWeighted;
        small.pooling_ratio = 0.2;
        let mut big = small.clone();
        big.pooling_ratio = 0.64;
        // A higher ratio keeps more graphs "large enough", i.e. smaller k.
        assert!(small.resolve_k(&sizes) > big.resolve_k(&sizes));
    }

    #[test]
    fn grid_search_ranks_by_validation_loss() {
        use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
        use magic_model::GraphInput;
        use magic_tensor::{Rng64, Tensor};

        // Tiny separable 2-class corpus.
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..16 {
            let mut rng = Rng64::new(700 + i as u64);
            let n = 6;
            let mut g = DiGraph::new(n);
            for v in 0..n - 1 {
                g.add_edge(v, v + 1);
            }
            let hi = if i % 2 == 1 { 6.0 } else { 1.0 };
            let attrs = Tensor::rand_uniform([n, NUM_ATTRIBUTES], 0.0, hi, &mut rng);
            inputs.push(GraphInput::from_acfg(&Acfg::new(g, attrs)));
            labels.push(i % 2);
        }

        let mut cheap = HyperParams::paper_default();
        cheap.head = HeadKind::SortWeighted;
        let mut other = cheap.clone();
        other.pooling_ratio = 0.64;
        let search = GridSearch { grid: vec![cheap, other], epochs: 3, folds: 2, seed: 1 };
        let mut progress_calls = 0;
        let ranked = search.run(&inputs, &labels, 2, |_, total, _| {
            assert_eq!(total, 2);
            progress_calls += 1;
        });
        assert_eq!(progress_calls, 2);
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].cv.mean_val_loss <= ranked[1].cv.mean_val_loss);
    }

    #[test]
    fn best_params_differ_per_dataset_as_in_table2() {
        let m = best_params(CorpusKind::Mskcfg);
        let y = best_params(CorpusKind::Yancfg);
        assert_eq!(m.head, HeadKind::Adaptive);
        assert_eq!(y.head, HeadKind::Adaptive);
        assert_eq!(m.pooling_ratio, 0.64);
        assert_eq!(y.pooling_ratio, 0.2);
        assert_eq!(m.conv_sizes, vec![128, 64, 32, 32]);
        assert_eq!(y.conv_sizes, vec![32, 32, 32, 32]);
        assert_eq!(y.dropout, 0.5);
        assert_eq!(y.batch_size, 40);
    }

    #[test]
    fn train_config_carries_grid_values() {
        let mut p = HyperParams::paper_default();
        p.batch_size = 40;
        p.weight_decay = 5e-4;
        let tc = p.to_train_config(7, 3);
        assert_eq!(tc.epochs, 7);
        assert_eq!(tc.batch_size, 40);
        assert_eq!(tc.weight_decay, 5e-4);
        assert_eq!(tc.seed, 3);
    }
}
