#![warn(missing_docs)]

//! Baseline malware classifiers for the Table IV and Fig. 11 comparisons.
//!
//! The paper compares MAGIC against handcrafted-feature systems:
//! XGBoost with heavy feature engineering \[13\], random forests \[11\]\[14\],
//! an autoencoder + XGBoost hybrid \[9\], the Strand gene-sequence
//! classifier \[15\] and the ESVC chained SVM ensemble \[8\]. This crate
//! provides from-scratch members of each algorithmic class, all consuming
//! features engineered from ACFGs:
//!
//! * [`FeatureVector`] — aggregate ACFG statistics (`basic`) and a richer
//!   histogram expansion (`rich`, standing in for \[13\]'s 1800+ features).
//! * [`DecisionTree`] / [`RandomForest`] — CART with Gini splits, bagged.
//! * [`GradientBoosting`] — multiclass softmax GBM over regression trees
//!   (the XGBoost stand-in).
//! * [`LinearSvmEnsemble`] — one-vs-rest Pegasos-trained linear SVMs
//!   (the ESVC stand-in).
//! * [`SequenceClassifier`] — n-gram nearest-centroid over opcode
//!   category sequences (the Strand stand-in).
//! * [`WlKernelKnn`] — a Weisfeiler–Lehman subtree-kernel k-NN, the
//!   classical pairwise graph-similarity approach whose execution cost
//!   Section I argues against (used by the `ext_wl_kernel` experiment).
//!
//! # Example
//!
//! ```
//! use magic_baselines::{Classifier, RandomForest};
//!
//! let x = vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![5.0, 5.0], vec![5.1, 4.9]];
//! let y = vec![0, 0, 1, 1];
//! let mut rf = RandomForest::new(5, 4, 42);
//! rf.fit(&x, &y, 2);
//! assert_eq!(rf.predict(&[5.05, 5.0]), 1);
//! ```

mod features;
mod forest;
mod gbdt;
mod sequence;
mod svm;
mod tree;
mod wl_kernel;

pub use features::FeatureVector;
pub use forest::RandomForest;
pub use gbdt::GradientBoosting;
pub use sequence::SequenceClassifier;
pub use svm::LinearSvmEnsemble;
pub use tree::{DecisionTree, RegressionTree};
pub use wl_kernel::{wl_features, wl_kernel, WlKernelKnn};

/// A trainable multi-class classifier over dense feature vectors.
pub trait Classifier {
    /// Fits the model. `y` values must be `< num_classes`.
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], num_classes: usize);

    /// Class probability estimates for one sample.
    fn predict_proba(&self, x: &[f64]) -> Vec<f64>;

    /// Most probable class.
    fn predict(&self, x: &[f64]) -> usize {
        magic_tensor::argmax(&self.predict_proba(x)).unwrap_or(0)
    }
}
