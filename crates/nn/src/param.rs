//! Trainable parameter storage and tape binding.

use magic_autograd::{Tape, Var};
use magic_tensor::Tensor;

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

/// Owns all trainable tensors of a model, plus their accumulated
/// gradients.
///
/// MAGIC trains on graphs of different sizes, so a mini-batch is processed
/// as a sequence of per-graph tapes whose parameter gradients are
/// *accumulated* here and applied once per batch by an
/// [`crate::Optimizer`].
///
/// The serial lifecycle per batch is:
/// 1. [`ParamStore::zero_grads`],
/// 2. per example: [`ParamStore::bind`] onto a fresh tape, forward,
///    `tape.backward(loss)`, then [`ParamStore::accumulate_grads`],
/// 3. `optimizer.step(&mut store, batch_len)`.
///
/// Under data-parallel training the read path ([`ParamStore::bind`],
/// which takes `&self`) is shared across worker threads, while each
/// in-flight sample accumulates into its own [`GradBuffer`]; the buffers
/// are then folded back with [`ParamStore::reduce`] *in sample order*,
/// so the float-addition order — and therefore every bit of the result —
/// matches the serial lifecycle above.
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
    grads: GradBuffer,
}

/// Gradient accumulators for every parameter of a [`ParamStore`],
/// decoupled from the parameter values.
///
/// Worker threads each own one of these (sized via
/// [`GradBuffer::for_store`]) while sharing the read-only store, so
/// back-propagation never contends on the parameters. Buffers are meant
/// to be reused: [`GradBuffer::zero`] between samples,
/// [`GradBuffer::accumulate`] after each backward pass.
#[derive(Debug, Default, Clone)]
pub struct GradBuffer {
    grads: Vec<Tensor>,
}

impl GradBuffer {
    /// Creates a zeroed buffer shaped like `store`'s parameters.
    pub fn for_store(store: &ParamStore) -> Self {
        GradBuffer {
            grads: store
                .values
                .iter()
                .map(|v| Tensor::zeros(v.shape().clone()))
                .collect(),
        }
    }

    /// Number of parameter slots.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// Whether the buffer tracks no parameters.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Accumulated gradient for one parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Resets every accumulator to zero, keeping allocations.
    pub fn zero(&mut self) {
        for g in &mut self.grads {
            for x in g.as_mut_slice() {
                *x = 0.0;
            }
        }
    }

    /// Adds the gradients `tape` computed for `binding`'s variables.
    pub fn accumulate(&mut self, tape: &Tape, binding: &Binding) {
        for (i, var) in binding.vars.iter().enumerate() {
            if let Some(g) = tape.grad(*var) {
                self.grads[i].add_assign(g);
            }
        }
    }

    /// Adds another buffer's accumulators into this one, element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the buffers track different parameter sets.
    pub fn add_from(&mut self, other: &GradBuffer) {
        assert_eq!(
            self.grads.len(),
            other.grads.len(),
            "buffers track different parameter sets"
        );
        for (mine, theirs) in self.grads.iter_mut().zip(&other.grads) {
            mine.add_assign(theirs);
        }
    }

    /// Global L2 norm of all accumulators.
    pub fn norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|g| g.as_slice().iter().map(|x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all accumulators so the global norm is at most `max_norm`.
    pub fn clip_norm(&mut self, max_norm: f32) {
        let norm = self.norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in &mut self.grads {
                g.scale_assign(s);
            }
        }
    }
}

/// The tape variables produced by one [`ParamStore::bind`] call.
#[derive(Debug)]
pub struct Binding {
    vars: Vec<Var>,
}

impl Binding {
    /// The tape variable bound for `id` in this binding.
    pub fn var(&self, id: ParamId) -> Var {
        self.vars[id.0]
    }
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore::default()
    }

    /// Registers a parameter with an initial value; returns its id.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.shape().clone());
        self.names.push(name.into());
        self.values.push(value);
        self.grads.grads.push(grad);
        ParamId(self.values.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store has no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of trainable scalar weights.
    pub fn num_weights(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Parameter value by id.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable parameter value by id.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Accumulated gradient by id.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        self.grads.grad(id)
    }

    /// Parameter name by id.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over `(name, value)` pairs, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.names.iter().map(String::as_str).zip(self.values.iter())
    }

    /// Looks a parameter up by registration name.
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.names.iter().position(|n| n == name).map(ParamId)
    }

    /// Mutable access to a parameter by name (convenient for tests and
    /// checkpoint loading).
    ///
    /// # Panics
    ///
    /// Panics if no parameter has that name.
    pub fn value_mut_by_name(&mut self, name: &str) -> &mut Tensor {
        let id = self
            .find(name)
            .unwrap_or_else(|| panic!("no parameter named {name:?}"));
        self.value_mut(id)
    }

    /// Leafs every parameter onto `tape` (with gradients enabled) and
    /// returns the binding used to look the variables up during the
    /// forward pass.
    pub fn bind(&self, tape: &mut Tape) -> Binding {
        Binding {
            vars: self
                .values
                .iter()
                .map(|v| tape.leaf(v.clone(), true))
                .collect(),
        }
    }

    /// Adds the gradients `tape` computed for `binding`'s variables into
    /// the store's accumulators.
    pub fn accumulate_grads(&mut self, tape: &Tape, binding: &Binding) {
        self.grads.accumulate(tape, binding);
    }

    /// Folds a worker's [`GradBuffer`] into the store's accumulators.
    ///
    /// Data-parallel training calls this once per sample, in sample
    /// order, so the accumulated sum is bitwise identical to the serial
    /// [`ParamStore::accumulate_grads`] sequence.
    ///
    /// # Panics
    ///
    /// Panics if `buffer` was not sized for this store.
    pub fn reduce(&mut self, buffer: &GradBuffer) {
        self.grads.add_from(buffer);
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.grads.zero();
    }

    /// Applies `update(value, grad)` to every parameter. Used by
    /// optimizers.
    pub(crate) fn update_each(&mut self, mut update: impl FnMut(usize, &mut Tensor, &Tensor)) {
        for i in 0..self.values.len() {
            update(i, &mut self.values[i], &self.grads.grads[i]);
        }
    }

    /// Global L2 norm of all accumulated gradients (for diagnostics and
    /// gradient clipping).
    pub fn grad_norm(&self) -> f32 {
        self.grads.norm()
    }

    /// Scales all gradients so their global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        self.grads.clip_norm(max_norm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_autograd::Tape;

    #[test]
    fn bind_and_accumulate_roundtrip() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[2.0]]));

        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        let x = tape.leaf(Tensor::from_rows(&[&[3.0]]), false);
        let y = tape.matmul(x, binding.var(w));
        let loss = tape.sum(y);
        tape.backward(loss);
        store.accumulate_grads(&tape, &binding);

        assert_eq!(store.grad(w).as_slice(), &[3.0]);
    }

    #[test]
    fn gradients_accumulate_across_tapes() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[1.0]]));
        for _ in 0..3 {
            let mut tape = Tape::new();
            let binding = store.bind(&mut tape);
            let loss = tape.sum(binding.var(w));
            tape.backward(loss);
            store.accumulate_grads(&tape, &binding);
        }
        assert_eq!(store.grad(w).as_slice(), &[3.0]);
        store.zero_grads();
        assert_eq!(store.grad(w).as_slice(), &[0.0]);
    }

    #[test]
    fn num_weights_counts_scalars() {
        let mut store = ParamStore::new();
        store.add("a", Tensor::zeros([2, 3]));
        store.add("b", Tensor::zeros([4]));
        assert_eq!(store.num_weights(), 10);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros([2]));
        {
            let mut tape = Tape::new();
            let binding = store.bind(&mut tape);
            let t = tape.sum(binding.var(w));
            tape.backward(t);
            store.accumulate_grads(&tape, &binding);
        }
        // grad = [1, 1], norm = sqrt(2)
        store.clip_grad_norm(1.0);
        assert!((store.grad(w).frobenius_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn names_are_preserved() {
        let mut store = ParamStore::new();
        let id = store.add("conv1.weight", Tensor::zeros([1]));
        assert_eq!(store.name(id), "conv1.weight");
        let collected: Vec<&str> = store.iter().map(|(n, _)| n).collect();
        assert_eq!(collected, vec!["conv1.weight"]);
    }

    /// A small two-parameter model whose per-sample gradients are
    /// non-trivial floats (so addition order actually matters at the
    /// bit level).
    fn sample_store() -> (ParamStore, ParamId, ParamId) {
        let mut store = ParamStore::new();
        let mut rng = magic_tensor::Rng64::new(77);
        let w = store.add("w", Tensor::rand_uniform([3, 2], -1.0, 1.0, &mut rng));
        let b = store.add("b", Tensor::rand_uniform([2], -1.0, 1.0, &mut rng));
        (store, w, b)
    }

    /// Runs one forward/backward for sample `i` and accumulates into
    /// `accumulate(tape, binding)`.
    fn backprop_sample(store: &ParamStore, w: ParamId, b: ParamId, i: u64, mut sink: impl FnMut(&Tape, &Binding)) {
        let mut rng = magic_tensor::Rng64::new(1000 + i);
        let x = Tensor::rand_uniform([1, 3], -1.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        let xv = tape.leaf(x, false);
        let h = tape.matmul(xv, binding.var(w));
        let y = tape.add_bias(h, binding.var(b));
        let sq = tape.mul(y, y);
        let loss = tape.sum(sq);
        tape.backward(loss);
        sink(&tape, &binding);
    }

    /// The data-parallel reduction contract: accumulating each sample
    /// into its own GradBuffer and folding the buffers back in sample
    /// order is *bitwise* identical to serial accumulate_grads calls.
    #[test]
    fn buffer_reduction_matches_serial_accumulation_bitwise() {
        use magic_autograd::first_bitwise_mismatch;
        let (store, w, b) = sample_store();
        let samples = 7u64;

        // Serial reference: one store, accumulate_grads per sample.
        let mut serial = store.clone();
        for i in 0..samples {
            backprop_sample(&store, w, b, i, |tape, binding| {
                serial.accumulate_grads(tape, binding);
            });
        }

        // Parallel shape: per-sample buffers, reduced in sample order.
        let mut buffers: Vec<GradBuffer> =
            (0..samples).map(|_| GradBuffer::for_store(&store)).collect();
        for (i, buffer) in buffers.iter_mut().enumerate() {
            backprop_sample(&store, w, b, i as u64, |tape, binding| {
                buffer.accumulate(tape, binding);
            });
        }
        let mut reduced = store.clone();
        for buffer in &buffers {
            reduced.reduce(buffer);
        }

        for id in [w, b] {
            assert_eq!(
                first_bitwise_mismatch(serial.grad(id), reduced.grad(id)),
                None,
                "reduction differs from serial accumulation for {}",
                serial.name(id)
            );
        }
        // Sanity: the gradients are not all zero (the test would pass
        // vacuously otherwise).
        assert!(serial.grad_norm() > 0.0);
    }

    #[test]
    fn buffer_zero_and_add_from_compose() {
        let (store, w, _b) = sample_store();
        let mut a = GradBuffer::for_store(&store);
        let mut total = GradBuffer::for_store(&store);
        for i in 0..3u64 {
            a.zero();
            backprop_sample(&store, w, _b, i, |tape, binding| a.accumulate(tape, binding));
            total.add_from(&a);
        }
        assert!(total.norm() > 0.0);
        total.zero();
        assert_eq!(total.norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "different parameter sets")]
    fn mismatched_buffers_are_rejected() {
        let (store, _, _) = sample_store();
        let mut buffer = GradBuffer::for_store(&store);
        buffer.add_from(&GradBuffer::default());
    }

    /// The store's read path (`bind` takes `&self`) is shared across
    /// training workers, and buffers move to worker threads; both must
    /// stay Send + Sync.
    #[test]
    fn store_and_buffers_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParamStore>();
        assert_send_sync::<GradBuffer>();
        assert_send_sync::<Binding>();
    }
}
