//! Trainable parameter storage and tape binding.

use std::sync::{Arc, Mutex};

use magic_autograd::{Tape, Var};
use magic_tensor::{Tensor, Workspace};

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

/// Owns all trainable tensors of a model, plus their accumulated
/// gradients.
///
/// MAGIC trains on graphs of different sizes, so a mini-batch is processed
/// as a sequence of per-graph tapes whose parameter gradients are
/// *accumulated* here and applied once per batch by an
/// [`crate::Adam`].
///
/// The serial lifecycle per batch is:
/// 1. [`ParamStore::zero_grads`],
/// 2. per example: [`ParamStore::bind`] onto a fresh tape, forward,
///    `tape.backward(loss)`, then [`ParamStore::accumulate_grads`],
/// 3. `optimizer.step(&mut store, batch_len)`.
///
/// Values are shared `Arc<Tensor>`s: [`ParamStore::bind`] (which takes
/// `&self`) hands a tape a reference, not a copy, so worker threads
/// bind concurrently for free. Under data-parallel training each
/// in-flight sample moves its gradients into its own [`GradBuffer`]
/// ([`GradBuffer::take_from`]), and [`ParamStore::reduce`] folds the
/// buffers back *in sample order*, so the float-addition order — and
/// therefore every bit of the result — matches the serial lifecycle
/// above. Writes go through `Arc::make_mut`, which updates in place once
/// every tape has dropped its binding ([`Tape::reset`]).
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Arc<Tensor>>,
    grads: GradBuffer,
}

/// Gradient accumulators for every parameter of a [`ParamStore`],
/// decoupled from the parameter values.
///
/// Data-parallel training keeps one of these per batch position (sized
/// via [`GradBuffer::for_store`]) while the lanes share the read-only
/// store, so back-propagation never contends on the parameters.
#[derive(Debug, Default, Clone)]
pub struct GradBuffer {
    grads: Vec<Tensor>,
}

impl GradBuffer {
    /// Creates a zeroed buffer shaped like `store`'s parameters. Each
    /// slot is allocated as a tape's pool allocates, so the first buffer
    /// [`GradBuffer::take_from`] hands a tape serves its next gradient.
    pub fn for_store(store: &ParamStore) -> Self {
        let mut pool = Workspace::new();
        GradBuffer {
            grads: store.values.iter().map(|v| pool.take_tensor(v.shape().clone())).collect(),
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
            g.as_mut_slice().fill(0.0);
        }
    }

    /// Adds the gradients `tape` computed for `binding`'s variables.
    fn accumulate(&mut self, tape: &Tape, binding: &Binding) {
        for (i, var) in binding.vars.iter().enumerate() {
            if let Some(g) = tape.grad(*var) {
                self.grads[i].add_assign(g);
            }
        }
    }

    /// Moves the gradients `tape` computed for `binding`'s variables into
    /// this buffer, replacing what it held, without copying them: each
    /// slot's previous buffer goes back to the tape's pool
    /// ([`Tape::move_grad`]). A parameter the pass did not reach reads
    /// zero. The buffer then holds [`GradBuffer::zero`] plus one add of
    /// each gradient, up to the sign of a zero, which the reduction's
    /// leading `0 +` erases.
    pub fn take_from(&mut self, tape: &mut Tape, binding: &Binding) {
        for (slot, &var) in self.grads.iter_mut().zip(&binding.vars) {
            if !tape.move_grad(var, slot) {
                slot.as_mut_slice().fill(0.0);
            }
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

/// One part's job of a split update: `run(n, job)` must call `job(part)`
/// once for every `part` in `0..n`, in any order and on any threads,
/// and return after the last. `|n, job| (0..n).for_each(job)` runs the
/// parts in turn on the caller.
pub type PartJob<'a> = &'a (dyn Fn(usize) + Sync);

/// Consecutive elements `offset..offset + data.len()` of parameter `id`.
struct Run<'a> {
    id: usize,
    offset: usize,
    data: &'a mut [f32],
}

/// Cuts the concatenation of `tensors` at the flat `bounds` (ascending,
/// from 0 to the total length): one list of runs per part, in order.
fn split_runs<'a>(
    tensors: impl Iterator<Item = &'a mut [f32]>,
    bounds: &[usize],
) -> Vec<Vec<Run<'a>>> {
    let mut parts: Vec<Vec<Run<'a>>> = bounds[1..].iter().map(|_| Vec::new()).collect();
    let (mut base, mut part) = (0, 0);
    for (id, mut rest) in tensors.enumerate() {
        let mut offset = 0;
        while !rest.is_empty() {
            while base + offset >= bounds[part + 1] {
                part += 1;
            }
            let len = (bounds[part + 1] - (base + offset)).min(rest.len());
            let (data, tail) = std::mem::take(&mut rest).split_at_mut(len);
            parts[part].push(Run { id, offset, data });
            rest = tail;
            offset += len;
        }
        base += offset;
    }
    parts
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
        self.values.push(Arc::new(value));
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
        self.values.iter().map(|v| v.len()).sum()
    }

    /// Parameter value by id.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable parameter value by id. Copies the tensor first only if a
    /// tape still shares it (`Arc::make_mut`).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        Arc::make_mut(&mut self.values[id.0])
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
        self.names.iter().map(String::as_str).zip(self.values.iter().map(|v| &**v))
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

    /// Leafs every parameter onto `tape` (with gradients enabled) as a
    /// shared reference, not a copy, and returns the binding used to look
    /// the variables up during the forward pass. The tape holds the
    /// references until its next [`Tape::reset`].
    pub fn bind(&self, tape: &mut Tape) -> Binding {
        Binding {
            vars: self
                .values
                .iter()
                .map(|v| tape.leaf_shared(Arc::clone(v), true))
                .collect(),
        }
    }

    /// Adds the gradients `tape` computed for `binding`'s variables into
    /// the store's accumulators.
    pub fn accumulate_grads(&mut self, tape: &Tape, binding: &Binding) {
        self.grads.accumulate(tape, binding);
    }

    /// Sets every accumulated gradient to the in-order sum
    /// `0 + slots[0] + slots[1] + …`, element by element: bitwise the
    /// serial [`ParamStore::zero_grads`] then one
    /// [`ParamStore::accumulate_grads`] per sample. The weights are cut
    /// into `parts` element ranges that `run` executes (see [`PartJob`]);
    /// each element's chain stays whole in one part, so the result does
    /// not depend on `parts`. Returns what `run` returns.
    ///
    /// # Panics
    ///
    /// Panics if a buffer was not sized for this store.
    pub fn reduce<R>(
        &mut self,
        slots: &[&GradBuffer],
        parts: usize,
        run: impl FnOnce(usize, PartJob<'_>) -> R,
    ) -> R {
        for slot in slots {
            assert_eq!(slot.len(), self.len(), "buffers track different parameter sets");
        }
        let bounds = self.part_bounds(parts);
        let runs: Vec<Mutex<Vec<Run>>> =
            split_runs(self.grads.grads.iter_mut().map(Tensor::as_mut_slice), &bounds)
                .into_iter()
                .map(Mutex::new)
                .collect();
        // Summed a cache-sized chunk at a time, so the sums stay in L1
        // while every slot is added in.
        const CHUNK: usize = 1024;
        run(runs.len(), &|p| {
            for Run { id, offset, data } in runs[p].lock().expect("unpoisoned part").iter_mut() {
                for (c, sums) in data.chunks_mut(CHUNK).enumerate() {
                    sums.fill(0.0);
                    let at = *offset + c * CHUNK;
                    for slot in slots {
                        for (acc, &g) in sums.iter_mut().zip(&slot.grads[*id].as_slice()[at..]) {
                            *acc += g;
                        }
                    }
                }
            }
        })
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.grads.zero();
    }

    /// Flat element offsets that cut the weights, in registration order,
    /// into `parts` near-equal ranges (at least one). Inner cuts fall on
    /// multiples of 16 elements, so no two parts write one cache line.
    fn part_bounds(&self, parts: usize) -> Vec<usize> {
        let (total, parts) = (self.num_weights(), parts.max(1));
        let mut bounds: Vec<usize> = (0..parts).map(|p| total * p / parts / 16 * 16).collect();
        bounds.push(total);
        bounds
    }

    /// Applies `rule(value, grad, m, v)` to every weight, where `m` and
    /// `v` are optimizer state tensors shaped like the parameters, over
    /// `parts` element ranges that `run` executes (see [`PartJob`]).
    /// Values are written in place: `Arc::make_mut` copies one only if a
    /// tape still shares it. Returns what `run` returns.
    pub(crate) fn update<R>(
        &mut self,
        [m, v]: [&mut [Tensor]; 2],
        parts: usize,
        run: impl FnOnce(usize, PartJob<'_>) -> R,
        rule: impl Fn(&mut f32, f32, &mut f32, &mut f32) + Sync,
    ) -> R {
        let bounds = self.part_bounds(parts);
        let grads = &self.grads.grads;
        let values = self.values.iter_mut().map(|w| Arc::make_mut(w).as_mut_slice());
        let m = split_runs(m.iter_mut().map(Tensor::as_mut_slice), &bounds);
        let v = split_runs(v.iter_mut().map(Tensor::as_mut_slice), &bounds);
        let parts: Vec<Mutex<_>> =
            split_runs(values, &bounds).into_iter().zip(m).zip(v).map(Mutex::new).collect();
        run(parts.len(), &|p| {
            let mut part = parts[p].lock().expect("unpoisoned part");
            let ((w, m), v) = &mut *part;
            for ((w, m), v) in w.iter_mut().zip(m.iter_mut()).zip(v.iter_mut()) {
                let g = &grads[w.id].as_slice()[w.offset..];
                for (((w, &g), m), v) in
                    w.data.iter_mut().zip(g).zip(m.data.iter_mut()).zip(v.data.iter_mut())
                {
                    rule(w, g, m, v);
                }
            }
        })
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

    /// Runs one forward/backward for sample `i` and hands the tape to
    /// `sink(tape, binding)`.
    fn backprop_sample(
        store: &ParamStore,
        w: ParamId,
        b: ParamId,
        i: u64,
        mut sink: impl FnMut(&mut Tape, &Binding),
    ) {
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
        sink(&mut tape, &binding);
    }

    /// Runs the parts of a split job on one scoped thread each.
    fn on_threads(n: usize, job: PartJob<'_>) {
        std::thread::scope(|scope| {
            for p in 0..n {
                scope.spawn(move || job(p));
            }
        });
    }

    /// The data-parallel reduction contract: moving each sample's
    /// gradients into its own GradBuffer and reducing the buffers in
    /// sample order is *bitwise* identical to serial accumulate_grads
    /// calls, for any number of parts.
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
                buffer.take_from(tape, binding);
            });
        }
        let slots: Vec<&GradBuffer> = buffers.iter().collect();
        for parts in [1, 2, 3, 16] {
            let mut reduced = store.clone();
            reduced.reduce(&slots, parts, on_threads);
            for id in [w, b] {
                assert_eq!(
                    first_bitwise_mismatch(serial.grad(id), reduced.grad(id)),
                    None,
                    "reduction in {parts} parts differs from serial accumulation for {}",
                    serial.name(id)
                );
            }
        }
        // Sanity: the gradients are not all zero (the test would pass
        // vacuously otherwise).
        assert!(serial.grad_norm() > 0.0);
    }

    #[test]
    fn take_from_replaces_and_zero_clears() {
        let (store, w, b) = sample_store();
        let mut fresh = GradBuffer::for_store(&store);
        let mut reused = GradBuffer::for_store(&store);
        backprop_sample(&store, w, b, 0, |tape, binding| reused.take_from(tape, binding));
        backprop_sample(&store, w, b, 1, |tape, binding| reused.take_from(tape, binding));
        backprop_sample(&store, w, b, 1, |tape, binding| fresh.take_from(tape, binding));
        // The second move replaced the first sample's gradients.
        for id in [w, b] {
            assert_eq!(reused.grad(id), fresh.grad(id));
        }
        assert!(reused.norm() > 0.0);
        reused.zero();
        assert_eq!(reused.norm(), 0.0);
    }

    /// The move hands over the tape's buffer itself, and the slot's old
    /// buffer refills the tape's pool: no gradient is copied.
    #[test]
    fn take_from_moves_the_tape_buffer() {
        let (store, w, _) = sample_store();
        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        let loss = tape.sum(binding.var(w));
        tape.backward(loss);
        let tape_buffer = tape.grad(binding.var(w)).unwrap().as_slice().as_ptr();
        let mut slot = GradBuffer::for_store(&store);
        slot.take_from(&mut tape, &binding);
        assert_eq!(slot.grad(w).as_slice().as_ptr(), tape_buffer);
        assert!(tape.grad(binding.var(w)).is_none());
        // `b` took no part in the loss: its slot reads zero.
        assert_eq!(slot.grad(ParamId(1)).as_slice(), &[0.0, 0.0]);
    }

    /// `bind` leafs the store's own buffers: no parameter is copied onto
    /// the tape, and once the tape is reset, a write updates in place.
    #[test]
    fn bind_shares_the_parameter_buffers() {
        let (mut store, w, b) = sample_store();
        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        for id in [w, b] {
            let bound = tape.value(binding.var(id)).as_slice().as_ptr();
            assert_eq!(bound, store.value(id).as_slice().as_ptr());
        }
        let before = store.value(w).as_slice().as_ptr();
        tape.reset();
        assert_eq!(store.value_mut(w).as_slice().as_ptr(), before, "make_mut copied");
        // While a tape still holds it, a write copies instead of changing
        // the tape's value under it.
        let binding = store.bind(&mut tape);
        store.value_mut(w).as_mut_slice()[0] = 9.0;
        assert_ne!(tape.value(binding.var(w)).as_slice()[0], 9.0);
    }

    /// Every element lands in exactly one run, in order, for even and
    /// uneven cuts, including cuts inside a tensor and empty parts.
    #[test]
    fn split_runs_cover_every_element_once() {
        let mut tensors = [vec![0.0f32; 5], vec![0.0; 1], vec![0.0; 7]];
        for bounds in [vec![0, 13], vec![0, 4, 13], vec![0, 5, 6, 13], vec![0, 0, 12, 12, 13]] {
            let parts = split_runs(tensors.iter_mut().map(|t| t.as_mut_slice()), &bounds);
            assert_eq!(parts.len(), bounds.len() - 1);
            let mut flat = 0;
            for (p, runs) in parts.iter().enumerate() {
                for run in runs {
                    assert!(bounds[p] <= flat && flat + run.data.len() <= bounds[p + 1]);
                    flat += run.data.len();
                }
                assert_eq!(flat, bounds[p + 1]);
            }
        }
        let parts = split_runs(tensors.iter_mut().map(|t| t.as_mut_slice()), &[0, 4, 13]);
        let spans: Vec<Vec<(usize, usize, usize)>> = parts
            .iter()
            .map(|runs| runs.iter().map(|r| (r.id, r.offset, r.data.len())).collect())
            .collect();
        assert_eq!(spans, vec![vec![(0, 0, 4)], vec![(0, 4, 1), (1, 0, 1), (2, 0, 7)]]);
    }

    #[test]
    #[should_panic(expected = "different parameter sets")]
    fn mismatched_buffers_are_rejected() {
        let (mut store, _, _) = sample_store();
        store.reduce(&[&GradBuffer::default()], 1, |n, job| (0..n).for_each(job));
    }

    /// The store's read path (`bind` takes `&self`) is shared across
    /// training lanes, and buffers move to lane threads; both must stay
    /// Send + Sync.
    #[test]
    fn store_and_buffers_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParamStore>();
        assert_send_sync::<GradBuffer>();
        assert_send_sync::<Binding>();
    }
}
