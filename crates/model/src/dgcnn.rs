//! The assembled DGCNN model.

use crate::config::{DgcnnConfig, PoolingHead};
use crate::input::{GraphBatch, GraphInput};
use magic_autograd::{Tape, Var};
use magic_nn::{
    AdaptiveMaxPool2d, Binding, Conv1dLayer, Conv2dLayer, Dropout, GraphConv, Linear, ParamStore,
    SortPooling, WeightedVertices,
};
use magic_tensor::Rng64;
use std::sync::Arc;

/// Which head layers a model instantiated.
#[derive(Debug)]
enum HeadLayers {
    SortPoolConv1d {
        sort: SortPooling,
        conv1: Conv1dLayer,
        conv2: Conv1dLayer,
    },
    SortPoolWeighted {
        sort: SortPooling,
        weighted: WeightedVertices,
    },
    AdaptiveMaxPool {
        pre_conv: Conv2dLayer,
        pool: AdaptiveMaxPool2d,
        post_conv: Conv2dLayer,
    },
}

/// The end-to-end DGCNN malware classifier.
///
/// Owns its parameters in a [`ParamStore`]; the training loop binds the
/// store onto a reusable tape, calls [`Dgcnn::forward`] on a
/// [`GraphBatch`] (a single graph is a batch of one) and backs the
/// resulting log-probabilities through the tape. Inference uses
/// [`Dgcnn::predict`] and [`Dgcnn::predict_batch_sorted`].
#[derive(Debug)]
pub struct Dgcnn {
    config: DgcnnConfig,
    store: ParamStore,
    graph_convs: Vec<GraphConv>,
    head: HeadLayers,
    fc1: Linear,
    fc2: Linear,
    dropout: Dropout,
}

impl Dgcnn {
    /// Builds a model with freshly initialized parameters.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`DgcnnConfig::validate`].
    pub fn new(config: &DgcnnConfig, seed: u64) -> Self {
        config.validate();
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(seed);

        let mut graph_convs = Vec::with_capacity(config.conv_sizes.len());
        let mut in_ch = config.input_channels;
        for (i, &out_ch) in config.conv_sizes.iter().enumerate() {
            graph_convs.push(GraphConv::new(&mut store, &format!("gconv{i}"), in_ch, out_ch, &mut rng));
            in_ch = out_ch;
        }
        let concat = config.concat_channels();

        let (head, feature_len) = match &config.head {
            PoolingHead::SortPoolConv1d { k, channels, kernel } => {
                let conv1 = Conv1dLayer::new(&mut store, "head.conv1", 1, channels.0, concat, &mut rng);
                let conv2 = Conv1dLayer::new(&mut store, "head.conv2", channels.0, channels.1, *kernel, &mut rng);
                // conv1 over each sample's (k, concat) map gives one
                // position per row, k in all; maxpool 2 halves; conv2
                // slides kernel.
                let after_pool = k / 2;
                let after_conv2 = after_pool - kernel + 1;
                let head = HeadLayers::SortPoolConv1d { sort: SortPooling::new(*k), conv1, conv2 };
                (head, channels.1 * after_conv2)
            }
            PoolingHead::SortPoolWeightedVertices { k } => {
                let weighted = WeightedVertices::new(&mut store, "head.wv", *k, &mut rng);
                let head = HeadLayers::SortPoolWeighted { sort: SortPooling::new(*k), weighted };
                (head, concat)
            }
            PoolingHead::AdaptiveMaxPool { grid, channels } => {
                let pre_conv = Conv2dLayer::new(&mut store, "head.pre", 1, *channels, 3, 1, &mut rng);
                let post_conv = Conv2dLayer::new(&mut store, "head.post", *channels, *channels, 3, 1, &mut rng);
                let head = HeadLayers::AdaptiveMaxPool {
                    pre_conv,
                    pool: AdaptiveMaxPool2d::new(grid.0, grid.1),
                    post_conv,
                };
                (head, channels * grid.0 * grid.1)
            }
        };

        let fc1 = Linear::new(&mut store, "fc1", feature_len, config.hidden, &mut rng);
        let fc2 = Linear::new(&mut store, "fc2", config.hidden, config.num_classes, &mut rng);

        Dgcnn {
            config: config.clone(),
            store,
            graph_convs,
            head,
            fc1,
            fc2,
            dropout: Dropout::new(config.dropout),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &DgcnnConfig {
        &self.config
    }

    /// The parameter store (read access, e.g. for checkpointing).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter store (for the optimizer).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Total trainable weights.
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }

    /// Runs the forward pass for a whole mini-batch on one tape,
    /// returning `(batch, num_classes)` log-probabilities — row `j` holds
    /// sample `j`. This is the model's only forward pass: a single graph
    /// runs as a [`GraphBatch::single`].
    ///
    /// Propagates through the batch's block-diagonal CSR adjacency. Every
    /// op either operates on disjoint per-sample segments or unstacks
    /// shared-parameter gradients per sample, so losses, predictions and
    /// accumulated gradients are bitwise identical to running each sample
    /// alone as a batch of one.
    ///
    /// `binding` must come from `self.store().bind(tape)`. `training`
    /// enables dropout, which draws sample `j`'s mask from `rngs[j]`.
    /// Callers pass per-sample streams from [`Rng64::for_sample`] in
    /// training, keeping mask bits independent of batch composition and
    /// scheduling.
    ///
    /// Takes `&self`, so data-parallel training shares one model across
    /// worker threads, each with its own tape and RNG streams.
    pub fn forward(
        &self,
        tape: &mut Tape,
        binding: &Binding,
        batch: &GraphBatch,
        training: bool,
        rngs: &mut [Rng64],
    ) -> Var {
        assert_eq!(rngs.len(), batch.len(), "one dropout RNG stream per sample");
        let bounds = batch.bounds();
        let b = batch.len();
        let concat = self.config.concat_channels();

        // Graph convolution stack (Eq. 1) over the block-diagonal system,
        // with per-layer outputs kept.
        let mut z = tape.leaf(batch.attributes().clone(), false);
        let mut per_layer = Vec::with_capacity(self.graph_convs.len());
        for conv in &self.graph_convs {
            z = conv.forward(
                tape,
                binding,
                batch.adj_hat(),
                batch.adj_hat_t(),
                batch.inv_degree_arc(),
                z,
                bounds,
            );
            per_layer.push(z);
        }
        let z_concat = tape.concat_cols(&per_layer); // (Σ n_j, concat)

        // Readout head, one fused op chain for the whole batch.
        let features = match &self.head {
            HeadLayers::SortPoolConv1d { sort, conv1, conv2 } => {
                let z_sp = sort.forward(tape, z_concat, bounds); // (B·k, concat)
                let k = sort.k();
                // The row-major (B·k, concat) sort output *is* the
                // column-stacked (1, B·k·concat) batch of (k, concat) maps.
                let maps = tape.reshape(z_sp, [1, b * k * concat]);
                let c1 = conv1.forward(tape, binding, maps, (k, concat)); // (ch0, B·k)
                let pooled = tape.max_pool1d(c1, 2, k); // (ch0, B·(k/2))
                let c2 = conv2.forward(tape, binding, pooled, (1, k / 2)); // (ch1, B·L)
                let seg = tape.value(c2).cols() / b;
                tape.unstack_columns(c2, seg) // (B, ch1·L)
            }
            HeadLayers::SortPoolWeighted { sort, weighted } => {
                let z_sp = sort.forward(tape, z_concat, bounds); // (B·k, concat)
                weighted.forward(tape, binding, z_sp) // (B, concat)
            }
            HeadLayers::AdaptiveMaxPool { pre_conv, pool, post_conv } => {
                // The row-major (Σ n_j, concat) buffer *is* the
                // column-stacked (1, Σ n_j·concat) image batch.
                let dims: Arc<Vec<(usize, usize)>> =
                    Arc::new(bounds.windows(2).map(|w| (w[1] - w[0], concat)).collect());
                let image = tape.reshape(z_concat, [1, batch.total_vertices() * concat]);
                // 3×3 pad-1 preserves each sample's extent.
                let pooled = pre_conv.forward_pooled(tape, binding, image, dims, *pool); // (ch, B·gh·gw)
                let grid = Arc::new(vec![(pool.out_h(), pool.out_w()); b]);
                let c2 = post_conv.forward(tape, binding, pooled, grid);
                tape.unstack_columns(c2, pool.out_h() * pool.out_w()) // (B, ch·gh·gw)
            }
        };

        // Classifier perceptron: row-wise ops are already batch-safe.
        let h = self.fc1.forward(tape, binding, features);
        let h = tape.relu(h);
        let h = self.dropout.forward(tape, h, training, rngs);
        let logits = self.fc2.forward(tape, binding, h);
        tape.log_softmax_rows(logits)
    }

    /// Class probabilities for one graph (inference mode).
    pub fn predict(&self, input: &GraphInput) -> Vec<f32> {
        self.predict_with(&mut Tape::new(), input)
    }

    /// Class probabilities for every graph in a batch, evaluated in one
    /// fused forward pass on a caller-supplied tape. Resets the tape
    /// first, so a warm training-lane tape can serve inference from its
    /// recycled workspace buffers. Bitwise identical to calling
    /// [`Dgcnn::predict`] per sample.
    pub fn predict_batch_with(&self, tape: &mut Tape, batch: &GraphBatch) -> Vec<Vec<f32>> {
        tape.reset();
        let binding = self.store.bind(tape);
        let mut rngs = vec![Rng64::new(0); batch.len()]; // unused: dropout off
        let lp = self.forward(tape, &binding, batch, false, &mut rngs);
        let v = tape.value(lp);
        (0..batch.len()).map(|i| v.row(i).iter().map(|&x| x.exp()).collect()).collect()
    }

    /// Fused batch inference over graphs in arbitrary arrival order —
    /// the shared entry point for online batching (`magic serve`) and
    /// offline batch scoring.
    ///
    /// Sorts the inputs by vertex count (largest first, stable) before
    /// assembling the block-diagonal [`GraphBatch`], so the fused batch
    /// layout depends only on the *set* of graphs, not on the order they
    /// arrived in, and the first warm-up batch touches the pool's
    /// largest size classes early. Results come back in **input order**
    /// and are bitwise identical to calling [`Dgcnn::predict`] on each
    /// graph alone (a batch of `B` is bitwise `B` batches of one, which
    /// makes the sort order unobservable in the outputs).
    pub fn predict_batch_sorted(
        &self,
        tape: &mut Tape,
        inputs: &[&GraphInput],
    ) -> Vec<Vec<f32>> {
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(inputs[i].vertex_count()));
        let sorted: Vec<&GraphInput> = order.iter().map(|&i| inputs[i]).collect();
        let batch = GraphBatch::new(&sorted);
        let probs = self.predict_batch_with(tape, &batch);
        let mut out = vec![Vec::new(); inputs.len()];
        for (slot, row) in probs.into_iter().enumerate() {
            out[order[slot]] = row;
        }
        out
    }

    /// Class probabilities for one graph, evaluated as a batch of one on
    /// a caller-supplied tape (see [`Dgcnn::predict_batch_with`]).
    pub fn predict_with(&self, tape: &mut Tape, input: &GraphInput) -> Vec<f32> {
        let mut probs = self.predict_batch_with(tape, &GraphBatch::single(input));
        probs.pop().expect("a batch of one yields one row")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
    use magic_nn::Adam;
    use magic_tensor::Tensor;

    fn tiny_input(n: usize, seed: u64) -> GraphInput {
        let mut rng = Rng64::new(seed);
        let mut g = DiGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        if n > 2 {
            g.add_edge(n - 1, rng.next_below(n - 1));
        }
        let attrs = Tensor::rand_uniform([n, NUM_ATTRIBUTES], 0.0, 5.0, &mut rng);
        GraphInput::from_acfg(&Acfg::new(g, attrs))
    }

    fn all_heads() -> Vec<PoolingHead> {
        vec![
            PoolingHead::sort_pool_conv1d(12),
            PoolingHead::sort_pool_weighted(10),
            PoolingHead::adaptive_max_pool(3),
        ]
    }

    #[test]
    fn every_head_produces_normalized_probabilities() {
        for head in all_heads() {
            let config = DgcnnConfig::new(5, head.clone());
            let model = Dgcnn::new(&config, 1);
            for n in [2usize, 5, 30, 80] {
                let probs = model.predict(&tiny_input(n, n as u64));
                assert_eq!(probs.len(), 5);
                let total: f32 = probs.iter().sum();
                assert!((total - 1.0).abs() < 1e-3, "head {head:?}, n={n}: sum {total}");
                assert!(probs.iter().all(|p| p.is_finite() && *p >= 0.0));
            }
        }
    }

    #[test]
    fn graphs_smaller_than_k_still_classify() {
        let config = DgcnnConfig::new(3, PoolingHead::sort_pool_weighted(64));
        let model = Dgcnn::new(&config, 2);
        let probs = model.predict(&tiny_input(2, 9));
        assert_eq!(probs.len(), 3);
    }

    #[test]
    fn every_parameter_receives_gradient_via_some_input() {
        for head in all_heads() {
            let config = DgcnnConfig::new(3, head.clone());
            let mut model = Dgcnn::new(&config, 3);
            let input = tiny_input(30, 4);
            let mut rng = Rng64::new(5);

            let mut tape = Tape::new();
            let binding = model.store().bind(&mut tape);
            let batch = GraphBatch::single(&input);
            let lp = model.forward(&mut tape, &binding, &batch, true, std::slice::from_mut(&mut rng));
            let rows = tape.nll_loss_rows(lp, vec![1]);
            let loss = tape.sum(rows);
            tape.backward(loss);
            model.store_mut().accumulate_grads(&tape, &binding);

            let grad_norm = model.store().grad_norm();
            assert!(grad_norm > 0.0, "head {head:?}: zero gradient");
            assert!(grad_norm.is_finite());
        }
    }

    #[test]
    fn training_reduces_loss_on_a_separable_toy_problem() {
        // Two "families": dense high-attribute graphs vs sparse low ones.
        let config = DgcnnConfig::new(2, PoolingHead::adaptive_max_pool(3));
        let mut model = Dgcnn::new(&config, 6);
        let mut opt = Adam::new(0.01, 0.0);
        let mut rng = Rng64::new(11);

        let make = |label: usize, seed: u64| {
            let mut r = Rng64::new(seed);
            let n = 10;
            let mut g = DiGraph::new(n);
            for i in 0..n - 1 {
                g.add_edge(i, i + 1);
            }
            let hi = if label == 1 { 8.0 } else { 1.0 };
            let attrs = Tensor::rand_uniform([n, NUM_ATTRIBUTES], 0.0, hi, &mut r);
            (GraphInput::from_acfg(&Acfg::new(g, attrs)), label)
        };
        let data: Vec<_> = (0..16).map(|i| make(i % 2, 100 + i as u64)).collect();

        let epoch_loss = |model: &mut Dgcnn, opt: &mut Adam, rng: &mut Rng64, train: bool| {
            let mut total = 0.0;
            for (input, label) in &data {
                let mut tape = Tape::new();
                let binding = model.store().bind(&mut tape);
                let batch = GraphBatch::single(input);
                let lp = model.forward(&mut tape, &binding, &batch, train, std::slice::from_mut(rng));
                let rows = tape.nll_loss_rows(lp, vec![*label]);
                let loss = tape.sum(rows);
                total += tape.value(loss).item();
                if train {
                    tape.backward(loss);
                    model.store_mut().accumulate_grads(&tape, &binding);
                }
            }
            if train {
                opt.step(model.store_mut(), data.len());
                model.store_mut().zero_grads();
            }
            total / data.len() as f32
        };

        let before = epoch_loss(&mut model, &mut opt, &mut rng, false);
        for _ in 0..15 {
            epoch_loss(&mut model, &mut opt, &mut rng, true);
        }
        let after = epoch_loss(&mut model, &mut opt, &mut rng, false);
        assert!(after < before * 0.7, "loss {before} -> {after}");
        // The model actually separates the two classes.
        let correct = data
            .iter()
            .filter(|(input, label)| {
                let probs = model.predict(input);
                usize::from(probs[1] > probs[0]) == *label
            })
            .count();
        assert!(correct >= 14, "{correct}/16 correct");
    }

    #[test]
    fn prediction_is_deterministic() {
        let config = DgcnnConfig::new(4, PoolingHead::sort_pool_weighted(8));
        let model = Dgcnn::new(&config, 8);
        let input = tiny_input(20, 3);
        assert_eq!(model.predict(&input), model.predict(&input));
    }

    #[test]
    fn models_with_different_seeds_differ() {
        let config = DgcnnConfig::new(4, PoolingHead::sort_pool_weighted(8));
        let a = Dgcnn::new(&config, 1);
        let b = Dgcnn::new(&config, 2);
        let input = tiny_input(20, 3);
        assert_ne!(a.predict(&input), b.predict(&input));
    }

    #[test]
    fn num_weights_is_substantial_for_paper_config() {
        let mut config = DgcnnConfig::new(9, PoolingHead::adaptive_max_pool(4));
        config.conv_sizes = vec![128, 64, 32, 32];
        let model = Dgcnn::new(&config, 0);
        assert!(model.num_weights() > 30_000, "{} weights", model.num_weights());
    }

    /// Data-parallel training shares one model across worker threads via
    /// `&Dgcnn`, so the model must stay Send + Sync.
    #[test]
    fn model_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Dgcnn>();
        assert_send_sync::<DgcnnConfig>();
        assert_send_sync::<GraphInput>();
    }

    /// Accumulated gradients of every parameter, in registration order.
    fn grad_snapshot(store: &ParamStore) -> Vec<Vec<f32>> {
        store
            .iter()
            .map(|(name, _)| store.grad(store.find(name).unwrap()).as_slice().to_vec())
            .collect()
    }

    /// The batched forward must be bitwise identical to running each
    /// sample alone: a batch of `N` against `N` batches of one —
    /// log-probabilities, losses, and every accumulated parameter
    /// gradient — for all three heads, with dropout active.
    #[test]
    fn batched_forward_is_bitwise_identical_to_per_sample() {
        for head in all_heads() {
            let mut config = DgcnnConfig::new(4, head.clone());
            config.dropout = 0.5;
            let mut model = Dgcnn::new(&config, 13);
            let inputs: Vec<GraphInput> =
                (0..4).map(|i| tiny_input(6 + 7 * i, 40 + i as u64)).collect();
            let labels = [0usize, 3, 1, 2];

            // Batches of one: one tape per sample, gradients accumulated
            // in sample order (the trainer's reduce chain).
            let mut one_losses = Vec::new();
            let mut one_lp = Vec::new();
            for (i, input) in inputs.iter().enumerate() {
                let mut rng = Rng64::for_sample(99, 0, i as u64);
                let mut tape = Tape::new();
                let binding = model.store().bind(&mut tape);
                let batch = GraphBatch::single(input);
                let lp = model.forward(&mut tape, &binding, &batch, true, std::slice::from_mut(&mut rng));
                let rows = tape.nll_loss_rows(lp, vec![labels[i]]);
                let loss = tape.sum(rows);
                one_lp.push(tape.value(lp).as_slice().to_vec());
                one_losses.push(tape.value(loss).item());
                tape.backward(loss);
                model.store_mut().accumulate_grads(&tape, &binding);
            }
            let one_grads = grad_snapshot(model.store());
            model.store_mut().zero_grads();

            // One batch of N: one tape, one op chain, same RNG streams.
            let refs: Vec<&GraphInput> = inputs.iter().collect();
            let batch = GraphBatch::new(&refs);
            let mut rngs: Vec<Rng64> =
                (0..4).map(|i| Rng64::for_sample(99, 0, i as u64)).collect();
            let mut tape = Tape::new();
            let binding = model.store().bind(&mut tape);
            let lp = model.forward(&mut tape, &binding, &batch, true, &mut rngs);
            let losses = tape.nll_loss_rows(lp, labels.to_vec());
            let total = tape.sum(losses);
            tape.backward(total);
            model.store_mut().accumulate_grads(&tape, &binding);
            let n_grads = grad_snapshot(model.store());
            model.store_mut().zero_grads();

            for i in 0..inputs.len() {
                assert_eq!(
                    tape.value(lp).row(i),
                    one_lp[i].as_slice(),
                    "head {head:?}: log-probs of sample {i}"
                );
                assert_eq!(
                    tape.value(losses).get2(i, 0).to_bits(),
                    one_losses[i].to_bits(),
                    "head {head:?}: loss of sample {i}"
                );
            }
            let bits = |g: &[Vec<f32>]| -> Vec<Vec<u32>> {
                g.iter().map(|p| p.iter().map(|v| v.to_bits()).collect()).collect()
            };
            assert_eq!(bits(&n_grads), bits(&one_grads), "head {head:?}: gradient mismatch");
        }
    }

    /// Fused batch inference returns exactly the per-sample predictions.
    #[test]
    fn predict_batch_matches_predict() {
        for head in all_heads() {
            let config = DgcnnConfig::new(5, head.clone());
            let model = Dgcnn::new(&config, 17);
            let inputs: Vec<GraphInput> = (0..3).map(|i| tiny_input(10 + 5 * i, i as u64)).collect();
            let refs: Vec<&GraphInput> = inputs.iter().collect();
            let batch = GraphBatch::new(&refs);
            let batched = model.predict_batch_with(&mut Tape::new(), &batch);
            for (input, got) in inputs.iter().zip(&batched) {
                assert_eq!(got, &model.predict(input), "head {head:?}");
            }
        }
    }

    /// The sorted batch entry returns input-order results that are
    /// bitwise equal to per-sample prediction, for any arrival order.
    #[test]
    fn predict_batch_sorted_preserves_input_order_bitwise() {
        let config = DgcnnConfig::new(4, PoolingHead::adaptive_max_pool(3));
        let model = Dgcnn::new(&config, 21);
        // Deliberately unsorted sizes, with a duplicate size to exercise
        // the stable tie-break.
        let inputs: Vec<GraphInput> =
            [9usize, 25, 4, 25, 14].iter().enumerate().map(|(i, &n)| tiny_input(n, i as u64)).collect();
        let refs: Vec<&GraphInput> = inputs.iter().collect();
        let mut tape = Tape::new();
        let sorted = model.predict_batch_sorted(&mut tape, &refs);
        for (input, got) in inputs.iter().zip(&sorted) {
            assert_eq!(got, &model.predict(input));
        }
        // A different arrival order of the same set gives the same
        // per-input answers.
        let rev: Vec<&GraphInput> = inputs.iter().rev().collect();
        let rev_out = model.predict_batch_sorted(&mut tape, &rev);
        for (a, b) in sorted.iter().zip(rev_out.iter().rev()) {
            assert_eq!(a, b);
        }
    }

    /// Shared-model inference from multiple threads gives the same
    /// answer as single-threaded inference.
    #[test]
    fn concurrent_predictions_match_serial() {
        let config = DgcnnConfig::new(3, PoolingHead::sort_pool_weighted(8));
        let model = Dgcnn::new(&config, 6);
        let inputs: Vec<GraphInput> = (0..6).map(|i| tiny_input(12, i)).collect();
        let serial: Vec<Vec<f32>> = inputs.iter().map(|x| model.predict(x)).collect();
        let threaded: Vec<Vec<f32>> = std::thread::scope(|scope| {
            inputs
                .iter()
                .map(|x| scope.spawn(|| model.predict(x)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("prediction thread panicked"))
                .collect()
        });
        assert_eq!(serial, threaded);
    }
}
