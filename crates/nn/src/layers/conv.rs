//! Trainable 1-D and 2-D convolution layers.

use crate::param::{Binding, ParamId, ParamStore};
use crate::AdaptiveMaxPool2d;
use magic_autograd::{Tape, Var};
use magic_tensor::{Rng64, Tensor};
use std::sync::Arc;

/// A 1-D convolution: a `1 × k` kernel sliding along the rows of
/// `(rows, width)` maps of `c_in` channels, used by the original DGCNN
/// head that MAGIC compares against (Table II's "1D Convolution" rows).
/// The head's kernel = stride = `Σcₜ` Conv1D over a `k·Σcₜ` signal is a
/// kernel of `Σcₜ` over the `(k, Σcₜ)` map: one output per row.
#[derive(Debug, Clone)]
pub struct Conv1dLayer {
    w: ParamId,
    b: ParamId,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
}

impl Conv1dLayer {
    /// Registers `(c_out, c_in, k)` weights (He-initialized) and a zero
    /// bias in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        rng: &mut Rng64,
    ) -> Self {
        let fan_in = in_channels * kernel;
        let w = store.add(
            format!("{name}.weight"),
            crate::init::he_uniform([out_channels, in_channels, kernel], fan_in, rng),
        );
        let b = store.add(format!("{name}.bias"), Tensor::zeros([out_channels]));
        Conv1dLayer { w, b, in_channels, out_channels, kernel }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel width.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Applies the convolution followed by ReLU over a mini-batch whose
    /// samples are equal `(rows, width)` maps, column-stacked in `x` —
    /// the kernel slides along each row (windows never straddle a row or
    /// a sample boundary), giving `(c_out, B·rows·(width − k + 1))`, with
    /// weight and bias gradients unstacked per sample. It runs as
    /// [`Tape::conv2d`], which reads the `(c_out, c_in, k)` weight as a
    /// `1 × k` kernel.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s width is not a multiple of `rows·width`.
    pub fn forward(&self, tape: &mut Tape, binding: &Binding, x: Var, (rows, width): (usize, usize)) -> Var {
        let cols = tape.value(x).cols();
        let map = rows * width;
        assert!(
            map > 0 && cols.is_multiple_of(map),
            "input width {cols} is not a multiple of the {rows}x{width} map"
        );
        let dims = Arc::new(vec![(rows, width); cols / map]);
        let y = tape.conv2d(x, binding.var(self.w), binding.var(self.b), 0, dims);
        tape.relu(y)
    }
}

/// A 2-D convolution over `(h, w)` feature maps of `c_in` channels, used by the
/// VGG-inspired classification head after adaptive max pooling
/// (Section III-C).
#[derive(Debug, Clone)]
pub struct Conv2dLayer {
    w: ParamId,
    b: ParamId,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    pad: usize,
}

impl Conv2dLayer {
    /// Registers `(c_out, c_in, k, k)` weights (He-initialized) and a zero
    /// bias in `store`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        pad: usize,
        rng: &mut Rng64,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let w = store.add(
            format!("{name}.weight"),
            crate::init::he_uniform([out_channels, in_channels, kernel, kernel], fan_in, rng),
        );
        let b = store.add(format!("{name}.bias"), Tensor::zeros([out_channels]));
        Conv2dLayer { w, b, in_channels, out_channels, kernel, pad }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Applies the convolution followed by ReLU over a mini-batch of
    /// column-stacked feature maps: `x` is `(c_in, Σ h_j·w_j)` and `dims`
    /// gives each sample's spatial extent. Weight and bias gradients are
    /// unstacked per sample.
    pub fn forward(&self, tape: &mut Tape, binding: &Binding, x: Var, dims: Arc<Vec<(usize, usize)>>) -> Var {
        let y = tape.conv2d(x, binding.var(self.w), binding.var(self.b), self.pad, dims);
        tape.relu(y)
    }

    /// [`Conv2dLayer::forward`] followed by `pool`, as the one fused op
    /// [`Tape::conv2d_relu_amp`]: the `(c_out, Σ h_j·w_j)` map between
    /// them is never materialised. Returns `(c_out, batch·out_h·out_w)`.
    pub fn forward_pooled(
        &self,
        tape: &mut Tape,
        binding: &Binding,
        x: Var,
        dims: Arc<Vec<(usize, usize)>>,
        pool: AdaptiveMaxPool2d,
    ) -> Var {
        let (w, b) = (binding.var(self.w), binding.var(self.b));
        tape.conv2d_relu_amp(x, w, b, self.pad, dims, (pool.out_h(), pool.out_w()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv1d_layer_output_shape() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(0);
        let layer = Conv1dLayer::new(&mut store, "c1", 1, 16, 4, &mut rng);
        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        let x = tape.leaf(Tensor::ones([1, 12]), false);
        let y = layer.forward(&mut tape, &binding, x, (3, 4));
        assert_eq!(tape.value(y).shape().dims(), &[16, 3]);
    }

    #[test]
    fn conv2d_layer_padding_keeps_spatial_size() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(1);
        let layer = Conv2dLayer::new(&mut store, "c2", 1, 8, 3, 1, &mut rng);
        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        let x = tape.leaf(Tensor::ones([1, 5 * 6]), false);
        let y = layer.forward(&mut tape, &binding, x, Arc::new(vec![(5, 6)]));
        assert_eq!(tape.value(y).shape().dims(), &[8, 5 * 6]);
    }

    #[test]
    fn conv_layers_receive_gradients() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(2);
        let c1 = Conv1dLayer::new(&mut store, "c1", 2, 3, 2, &mut rng);
        let c2 = Conv2dLayer::new(&mut store, "c2", 1, 2, 3, 1, &mut rng);

        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        let x1 = tape.leaf(Tensor::ones([2, 8]), false);
        let y1 = c1.forward(&mut tape, &binding, x1, (4, 2));
        let y1m = tape.reshape(y1, [1, 3 * 4]);
        let y2 = c2.forward(&mut tape, &binding, y1m, Arc::new(vec![(3, 4)]));
        let loss = tape.sum(y2);
        tape.backward(loss);
        store.accumulate_grads(&tape, &binding);

        assert_eq!(store.grad(c1.w).shape().dims(), &[3, 2, 2]);
        assert_eq!(store.grad(c2.w).shape().dims(), &[2, 1, 3, 3]);
    }
}
