//! The parameter optimizer: the Adam algorithm the paper uses (Section
//! IV-B, [33]).

use crate::param::{ParamStore, PartJob};
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
        self.step_parts(store, batch_size, 1, |n, job| (0..n).for_each(job));
    }

    /// [`Adam::step`] over `parts` element ranges of the weights that
    /// `run` executes, possibly on several threads (see
    /// [`crate::PartJob`]). Every element's update reads only its own
    /// weight, gradient and moments, so the result is bitwise the same
    /// for every `parts`. Returns what `run` returns.
    pub fn step_parts<R>(
        &mut self,
        store: &mut ParamStore,
        batch_size: usize,
        parts: usize,
        run: impl FnOnce(usize, PartJob<'_>) -> R,
    ) -> R {
        self.t += 1;
        let scale = 1.0 / batch_size.max(1) as f32;
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let (lr, eps, wd) = (self.lr, self.eps, self.weight_decay);
        for (_, value) in store.iter().skip(self.m.len()) {
            self.m.push(Tensor::zeros(value.shape().clone()));
            self.v.push(Tensor::zeros(value.shape().clone()));
        }
        store.update([&mut self.m, &mut self.v], parts, run, |w, g, mm, vv| {
            let g = g * scale + wd * *w;
            *mm = b1 * *mm + (1.0 - b1) * g;
            *vv = b2 * *vv + (1.0 - b2) * g * g;
            let m_hat = *mm / bc1;
            let v_hat = *vv / bc2;
            *w -= lr * m_hat / (v_hat.sqrt() + eps);
        })
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

    /// A split step updates every element exactly as the whole step
    /// does, for even and uneven cuts, in place (no parameter copied).
    #[test]
    fn split_step_is_bitwise_equal_for_every_part_count() {
        let mut rng = magic_tensor::Rng64::new(5);
        let mut base = ParamStore::new();
        for (name, len) in [("a", 37), ("b", 3), ("c", 101)] {
            base.add(name, Tensor::rand_uniform([len], -1.0, 1.0, &mut rng));
        }
        let run = |parts: usize| {
            let mut store = base.clone();
            let mut opt = Adam::new(0.1, 1e-3);
            for step in 0..3 {
                store.zero_grads();
                for name in ["a", "b", "c"] {
                    let mut tape = Tape::new();
                    let binding = store.bind(&mut tape);
                    let v = binding.var(store.find(name).unwrap());
                    let sq = tape.mul(v, v);
                    let loss = tape.sum(sq);
                    tape.backward(loss);
                    store.accumulate_grads(&tape, &binding);
                }
                let before: Vec<_> = store.iter().map(|(_, t)| t.as_slice().as_ptr()).collect();
                opt.step_parts(&mut store, 2 + step, parts, |n, job| {
                    std::thread::scope(|scope| {
                        for p in 0..n {
                            scope.spawn(move || job(p));
                        }
                    })
                });
                let after: Vec<_> = store.iter().map(|(_, t)| t.as_slice().as_ptr()).collect();
                // The first step copies: the clone shares `base`'s values.
                // From then on the store is their only owner.
                assert_eq!(step == 0, before != after, "step {step}: copy on write broke");
            }
            let weights = store.iter().flat_map(|(_, t)| t.as_slice().to_vec());
            weights.map(f32::to_bits).collect::<Vec<_>>()
        };
        let whole = run(1);
        for parts in [2, 3, 7] {
            assert_eq!(run(parts), whole, "{parts} parts");
        }
    }
}
