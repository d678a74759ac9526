#![warn(missing_docs)]

//! The DGCNN malware classifier of the MAGIC paper (Section III).
//!
//! A [`Dgcnn`] stacks graph convolution layers (Eq. 1) over an ACFG's
//! attribute matrix, concatenates the per-layer outputs into `Z^{1:h}`,
//! reduces them to a fixed-size representation with one of three
//! [`PoolingHead`]s — SortPooling + Conv1D (the original DGCNN),
//! SortPooling + WeightedVertices (Section III-B) or adaptive max
//! pooling + Conv2D (Section III-C) — and classifies with a perceptron ending in
//! log-softmax, trained against the mean negative log-likelihood of
//! Eq. (5).
//!
//! # Example
//!
//! ```
//! use magic_model::{Dgcnn, DgcnnConfig, GraphInput, PoolingHead};
//! use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
//! use magic_tensor::Tensor;
//!
//! let mut g = DiGraph::new(3);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! let acfg = Acfg::new(g, Tensor::ones([3, NUM_ATTRIBUTES]));
//!
//! let config = DgcnnConfig::new(4, PoolingHead::sort_pool_weighted(8));
//! let model = Dgcnn::new(&config, 7);
//! let probs = model.predict(&GraphInput::from_acfg(&acfg));
//! assert_eq!(probs.len(), 4);
//! assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
//! ```

mod config;
mod dgcnn;
mod input;

pub use config::{DgcnnConfig, PoolingHead};
pub use dgcnn::Dgcnn;
pub use input::{GraphBatch, GraphInput};
