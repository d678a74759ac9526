//! Model configuration: the hyperparameters of Table II.

use magic_graph::NUM_ATTRIBUTES;

/// The readout architecture placed after the graph convolution stack.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolingHead {
    /// SortPooling followed by the original DGCNN Conv1D column: a
    /// Conv1D of kernel and stride `Σc_t` over each sample's flattened
    /// `k × Σc_t` sort output — run as a `1 × Σc_t` kernel over the
    /// `(k, Σc_t)` map, one output per retained vertex — then 2-wide max
    /// pooling and a second Conv1D of `kernel` width (Table II tunes 5 or
    /// 7) with the given channel pair (Table II: `(16, 32)`).
    SortPoolConv1d {
        /// Number of vertices retained by SortPooling.
        k: usize,
        /// `(first, second)` Conv1D channel counts.
        channels: (usize, usize),
        /// Kernel width of the second Conv1D.
        kernel: usize,
    },
    /// SortPooling followed by the WeightedVertices layer of Section
    /// III-B (the single-channel, kernel-`k` Conv1D that computes a
    /// weighted sum of vertex embeddings).
    SortPoolWeightedVertices {
        /// Number of vertices retained by SortPooling.
        k: usize,
    },
    /// The Section III-C alternative: a Conv2D over `Z^{1:h}` treated as a
    /// one-channel image, adaptive max pooling to a fixed grid, then a
    /// second Conv2D (the "multiple-Conv2D-layer network inspired by
    /// VGG").
    AdaptiveMaxPool {
        /// Output grid `(height, width)` of the AMP layer.
        grid: (usize, usize),
        /// Conv2D channel count (Table II tunes 16 or 32).
        channels: usize,
    },
}

impl PoolingHead {
    /// The original-DGCNN head with the paper's channel pair `(16, 32)`
    /// and kernel 5.
    pub fn sort_pool_conv1d(k: usize) -> Self {
        PoolingHead::SortPoolConv1d { k, channels: (16, 32), kernel: 5 }
    }

    /// The WeightedVertices head.
    pub fn sort_pool_weighted(k: usize) -> Self {
        PoolingHead::SortPoolWeightedVertices { k }
    }

    /// The adaptive-max-pooling head with a square grid and 16 channels.
    pub fn adaptive_max_pool(grid: usize) -> Self {
        PoolingHead::AdaptiveMaxPool { grid: (grid, grid), channels: 16 }
    }
}

/// Full DGCNN configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DgcnnConfig {
    /// Vertex attribute channels (11 for Table I ACFGs).
    pub input_channels: usize,
    /// Graph convolution layer widths; Table II tunes
    /// `(32,32,32,1)`, `(32,32,32,32)` and `(128,64,32,32)`.
    pub conv_sizes: Vec<usize>,
    /// The readout head.
    pub head: PoolingHead,
    /// Classifier MLP hidden width.
    pub hidden: usize,
    /// Number of malware families.
    pub num_classes: usize,
    /// Dropout rate before the final layer (Table II: 0.1 or 0.5).
    pub dropout: f32,
}

impl DgcnnConfig {
    /// A sensible default configuration for `num_classes` families: the
    /// `(32,32,32,32)` convolution stack of Table II with the given head.
    pub fn new(num_classes: usize, head: PoolingHead) -> Self {
        DgcnnConfig {
            input_channels: NUM_ATTRIBUTES,
            conv_sizes: vec![32, 32, 32, 32],
            head,
            hidden: 128,
            num_classes,
            dropout: 0.1,
        }
    }

    /// Total concatenated channel count `Σ c_t` of `Z^{1:h}`.
    pub fn concat_channels(&self) -> usize {
        self.conv_sizes.iter().sum()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot produce a well-formed model
    /// (empty conv stack, zero classes, a Conv1D head whose kernel cannot
    /// fit, or a dropout rate outside `[0, 1)`).
    pub fn validate(&self) {
        assert!(!self.conv_sizes.is_empty(), "need at least one graph conv layer");
        assert!(self.conv_sizes.iter().all(|&c| c > 0), "conv widths must be positive");
        assert!(self.num_classes >= 2, "need at least two classes");
        assert!(self.input_channels > 0, "need input channels");
        assert!((0.0..1.0).contains(&self.dropout), "dropout must be in [0, 1)");
        if let PoolingHead::SortPoolConv1d { k, kernel, channels } = &self.head {
            assert!(*kernel >= 1 && channels.0 > 0 && channels.1 > 0, "bad conv1d head");
            assert!(
                *k / 2 >= *kernel,
                "sortpool k={k} too small for conv1d kernel={kernel} after 2-pooling"
            );
        }
        if let PoolingHead::SortPoolWeightedVertices { k } = &self.head {
            assert!(*k > 0, "sortpool k must be positive");
        }
        if let PoolingHead::AdaptiveMaxPool { grid, channels } = &self.head {
            assert!(grid.0 > 0 && grid.1 > 0 && *channels > 0, "bad AMP head");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        DgcnnConfig::new(9, PoolingHead::adaptive_max_pool(4)).validate();
        DgcnnConfig::new(9, PoolingHead::sort_pool_weighted(16)).validate();
        DgcnnConfig::new(9, PoolingHead::sort_pool_conv1d(16)).validate();
    }

    #[test]
    fn concat_channels_sums_stack() {
        let mut c = DgcnnConfig::new(2, PoolingHead::adaptive_max_pool(3));
        c.conv_sizes = vec![128, 64, 32, 32];
        assert_eq!(c.concat_channels(), 256);
    }

    #[test]
    #[should_panic(expected = "too small for conv1d")]
    fn conv1d_head_requires_big_enough_k() {
        let mut c = DgcnnConfig::new(2, PoolingHead::sort_pool_conv1d(4));
        c.validate();
        c.head = PoolingHead::SortPoolConv1d { k: 4, channels: (16, 32), kernel: 5 };
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn rejects_single_class() {
        DgcnnConfig::new(1, PoolingHead::adaptive_max_pool(3)).validate();
    }
}
