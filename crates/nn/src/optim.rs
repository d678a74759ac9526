//! The parameter optimizer: the Adam algorithm the paper uses (Section
//! IV-B, [33]).

use crate::param::ParamStore;
use magic_tensor::Tensor;

/// The Adam optimizer ([Kingma & Ba 2014], the paper's choice) with
/// decoupled-style L2 regularization folded into the gradient, matching
/// PyTorch's `Adam(weight_decay=...)` semantics that MAGIC's Table II
/// tunes over {1e-4, 5e-4}. It updates a [`ParamStore`] in place from
/// its accumulated gradients.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the standard `beta1=0.9, beta2=0.999, eps=1e-8`.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update. `batch_size` divides the accumulated gradients
    /// so per-example tapes can simply sum into the store.
    pub fn step(&mut self, store: &mut ParamStore, batch_size: usize) {
        self.t += 1;
        let scale = 1.0 / batch_size.max(1) as f32;
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let (lr, eps, wd) = (self.lr, self.eps, self.weight_decay);
        let (m, v) = (&mut self.m, &mut self.v);
        store.update_each(|i, value, grad| {
            if m.len() <= i {
                m.push(Tensor::zeros(value.shape().clone()));
                v.push(Tensor::zeros(value.shape().clone()));
            }
            let (mi, vi) = (&mut m[i], &mut v[i]);
            for (((w, g), mm), vv) in value
                .as_mut_slice()
                .iter_mut()
                .zip(grad.as_slice())
                .zip(mi.as_mut_slice())
                .zip(vi.as_mut_slice())
            {
                let g = g * scale + wd * *w;
                *mm = b1 * *mm + (1.0 - b1) * g;
                *vv = b2 * *vv + (1.0 - b2) * g * g;
                let m_hat = *mm / bc1;
                let v_hat = *vv / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        });
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (used by LR schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_autograd::Tape;

    /// Minimizes `(w - 3)^2` and checks convergence to 3.
    fn quadratic_descent(optimizer: &mut Adam, iterations: usize) -> f32 {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0).reshape([1, 1]));
        for _ in 0..iterations {
            store.zero_grads();
            let mut tape = Tape::new();
            let binding = store.bind(&mut tape);
            // `w + (-3)` is `w - 3` exactly.
            let target = tape.leaf(Tensor::from_slice(&[-3.0]), false);
            let diff = tape.add_bias(binding.var(w), target);
            let sq = tape.mul(diff, diff);
            let loss = tape.sum(sq);
            tape.backward(loss);
            store.accumulate_grads(&tape, &binding);
            optimizer.step(&mut store, 1);
        }
        store.value(w).as_slice()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.2, 0.0);
        let w = quadratic_descent(&mut opt, 200);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn weight_decay_shrinks_unused_parameter() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[10.0]]));
        let mut opt = Adam::new(0.1, 0.01);
        // No gradient signal at all: decay alone should shrink w.
        for _ in 0..50 {
            store.zero_grads();
            opt.step(&mut store, 1);
        }
        assert!(store.value(w).as_slice()[0].abs() < 10.0);
    }

    #[test]
    fn set_learning_rate_is_respected() {
        let mut opt = Adam::new(0.5, 0.0);
        opt.set_learning_rate(0.05);
        assert_eq!(opt.learning_rate(), 0.05);
    }

    #[test]
    fn batch_size_scales_gradient() {
        // Accumulating the same example twice with batch_size=2 must match
        // a single example with batch_size=1. Weight decay and a second
        // step make Adam's update depend on the gradient's scale.
        let run = |repeats: usize| {
            let mut store = ParamStore::new();
            let w = store.add("w", Tensor::from_rows(&[&[1.0]]));
            let mut opt = Adam::new(0.1, 0.5);
            for _ in 0..2 {
                store.zero_grads();
                for _ in 0..repeats {
                    let mut tape = Tape::new();
                    let binding = store.bind(&mut tape);
                    let loss = tape.sum(binding.var(w));
                    tape.backward(loss);
                    store.accumulate_grads(&tape, &binding);
                }
                opt.step(&mut store, repeats);
            }
            store.value(w).as_slice()[0]
        };
        assert!((run(1) - run(2)).abs() < 1e-6);
    }
}
