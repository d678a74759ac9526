//! Dropout regularization (Table II tunes its rate over {0.1, 0.5}).

use magic_autograd::{Tape, Var};
use magic_tensor::Rng64;

/// Inverted dropout: active only in training mode, identity at inference.
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    rate: f32,
}

impl Dropout {
    /// Creates a dropout layer with the given drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate < 1`.
    pub fn new(rate: f32) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        Dropout { rate }
    }

    /// The drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }

    /// Applies dropout when `training` is true; otherwise passes `x`
    /// through untouched. `x` holds one row per sample, masked from that
    /// sample's own RNG stream so the mask bits do not depend on batch
    /// composition.
    pub fn forward(
        &self,
        tape: &mut Tape,
        x: Var,
        training: bool,
        rngs: &mut [Rng64],
    ) -> Var {
        if training && self.rate > 0.0 {
            tape.dropout_rows(x, self.rate, rngs)
        } else {
            x
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_tensor::Tensor;

    #[test]
    fn inference_mode_is_identity() {
        let mut rng = Rng64::new(0);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([4, 4]), false);
        let d = Dropout::new(0.5);
        let y = d.forward(&mut tape, x, false, std::slice::from_mut(&mut rng));
        assert_eq!(y, x);
    }

    #[test]
    fn training_mode_preserves_expectation() {
        let mut rng = Rng64::new(1);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([1, 10_000]), false);
        let d = Dropout::new(0.5);
        let y = d.forward(&mut tape, x, true, std::slice::from_mut(&mut rng));
        let mean = tape.value(y).mean();
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout mean {mean}");
    }

    #[test]
    #[should_panic(expected = "dropout rate")]
    fn rejects_rate_of_one() {
        Dropout::new(1.0);
    }
}
