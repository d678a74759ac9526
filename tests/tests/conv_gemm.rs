//! im2col-GEMM convolution lowering: end-to-end determinism and
//! agreement with the naive reference kernels.
//!
//! The GEMM lowering is the only convolution path of both conv heads.
//! Its contract has two halves: (1) training on it is *bitwise*
//! reproducible — run to run and for every `train_workers` count —
//! because it fixes its accumulation order and the workspace pool only
//! ever hands out zero-filled buffers; (2) against the naive reference
//! kernels in [`magic_integration::oracle`] it agrees to
//! float-reassociation tolerance, not bitwise — the loop orders differ.

use magic::trainer::{TrainConfig, Trainer};
use magic_autograd::{first_bitwise_mismatch, Tape};
use magic_integration::oracle;
use std::sync::Arc;
use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
use magic_model::{Dgcnn, DgcnnConfig, GraphInput, PoolingHead};
use magic_nn::{Conv1dLayer, ParamStore};
use magic_tensor::{Rng64, Tensor};

fn random_input(n: usize, seed: u64) -> GraphInput {
    let mut rng = Rng64::new(seed);
    let mut g = DiGraph::new(n);
    for v in 0..n - 1 {
        g.add_edge(v, v + 1);
    }
    for _ in 0..n / 2 {
        g.add_edge(rng.next_below(n), rng.next_below(n));
    }
    let attrs = Tensor::rand_uniform([n, NUM_ATTRIBUTES], 0.0, 3.0, &mut rng);
    GraphInput::from_acfg(&Acfg::new(g, attrs))
}

fn toy_corpus() -> (Vec<GraphInput>, Vec<usize>) {
    let inputs: Vec<GraphInput> =
        (0..12).map(|i| random_input(10 + (i % 3) * 4, 900 + i as u64)).collect();
    let labels: Vec<usize> = (0..12).map(|i| i % 2).collect();
    (inputs, labels)
}

/// Trains the adaptive (conv2d + AMP) head on the default GEMM lowering
/// and asserts the whole outcome — epoch history and final weights — is
/// bitwise identical across repeated runs and across worker counts.
#[test]
fn im2col_training_is_bitwise_identical_across_runs_and_workers() {
    let (inputs, labels) = toy_corpus();
    let train_idx: Vec<usize> = (0..9).collect();
    let val_idx: Vec<usize> = (9..12).collect();

    let run = |workers: usize| {
        let config = DgcnnConfig::new(2, PoolingHead::adaptive_max_pool(3));
        let mut model = Dgcnn::new(&config, 7);
        let trainer = Trainer::new(TrainConfig {
            epochs: 3,
            batch_size: 3,
            learning_rate: 0.01,
            seed: 7,
            train_workers: workers,
            ..TrainConfig::default()
        });
        let outcome = trainer.train(&mut model, &inputs, &labels, &train_idx, &val_idx);
        (outcome, model)
    };

    let (reference_outcome, reference_model) = run(1);
    // Run-to-run on the same worker count, then 2 and 4 workers.
    for workers in [1, 2, 4] {
        let (outcome, model) = run(workers);
        assert_eq!(
            outcome.history, reference_outcome.history,
            "history diverged with {workers} workers"
        );
        for (name, value) in model.store().iter() {
            let reference = reference_model.store();
            let id = reference.find(name).expect("same parameter set");
            assert_eq!(
                first_bitwise_mismatch(value, reference.value(id)),
                None,
                "weights for {name} diverged with {workers} workers"
            );
        }
    }
}

/// Stacks per-sample `(c, lenⱼ)` matrices column-wise into `(c, Σ lenⱼ)`.
fn hstack(samples: &[Tensor]) -> Tensor {
    let c = samples[0].rows();
    let parts: Vec<Tensor> = samples.iter().map(Tensor::transpose).collect();
    let stacked = Tensor::concat_rows(&parts.iter().collect::<Vec<_>>()).transpose();
    assert_eq!(stacked.rows(), c);
    stacked
}

/// Columns `start..start + width` of `t`.
fn columns(t: &Tensor, start: usize, width: usize) -> Tensor {
    let rows: Vec<&[f32]> = (0..t.rows()).map(|r| &t.row(r)[start..start + width]).collect();
    Tensor::from_rows(&rows)
}

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!((g - w).abs() < 1e-5, "{what}[{i}]: gemm {g} vs naive {w}");
    }
}

/// Runs `Tape::conv2d` over the column-stacked maps of `dims` and checks
/// its output and all three gradients against the naive 2-D oracle, per
/// sample, with the shared weight and bias gradients summed over samples.
fn check_conv2d_against_oracle(
    dims: &[(usize, usize)],
    (c_in, c_out, kh, kw): (usize, usize, usize, usize),
    pad: usize,
    rng: &mut Rng64,
) {
    let samples: Vec<Tensor> =
        dims.iter().map(|&(h, w)| Tensor::rand_uniform([c_in, h * w], -1.0, 1.0, rng)).collect();
    let wt = Tensor::rand_uniform([c_out, c_in, kh, kw], -1.0, 1.0, rng);
    let b = Tensor::rand_uniform([c_out], -0.5, 0.5, rng);
    let outs: Vec<(Tensor, (usize, usize))> = samples
        .iter()
        .zip(dims)
        .map(|(xs, &d)| oracle::conv2d_forward(xs, d, &wt, b.as_slice(), pad))
        .collect();
    let upstream: Vec<Tensor> =
        outs.iter().map(|(o, _)| Tensor::rand_uniform(o.shape().clone(), -1.0, 1.0, rng)).collect();

    let mut tape = Tape::new();
    let x = tape.leaf(hstack(&samples), true);
    let wv = tape.leaf(wt.clone(), true);
    let bv = tape.leaf(b.clone(), true);
    let y = tape.conv2d(x, wv, bv, pad, Arc::new(dims.to_vec()));
    let m = tape.leaf(hstack(&upstream), false);
    let p = tape.mul(y, m);
    let loss = tape.sum(p);
    tape.backward(loss);

    let case = format!("{kh}x{kw} pad {pad} over {dims:?}");
    let (mut in_off, mut out_off) = (0, 0);
    let mut gw_sum = Tensor::zeros(wt.shape().clone());
    let mut gb_sum = vec![0.0; c_out];
    for (s, ((xs, (want, od)), gs)) in samples.iter().zip(&outs).zip(&upstream).enumerate() {
        let (h, w) = dims[s];
        let got = columns(tape.value(y), out_off, od.0 * od.1);
        assert_close(got.as_slice(), want.as_slice(), &format!("{case}: out {s}"));
        let (gx, gw, gb) = oracle::conv2d_backward(xs, (h, w), &wt, pad, gs, *od);
        let got = columns(tape.grad(x).unwrap(), in_off, h * w);
        assert_close(got.as_slice(), gx.as_slice(), &format!("{case}: gx {s}"));
        gw_sum = gw_sum.add(&gw);
        gb_sum.iter_mut().zip(&gb).for_each(|(a, g)| *a += g);
        in_off += h * w;
        out_off += od.0 * od.1;
    }
    assert_close(tape.grad(wv).unwrap().as_slice(), gw_sum.as_slice(), &format!("{case}: gw"));
    assert_close(tape.grad(bv).unwrap().as_slice(), &gb_sum, &format!("{case}: gb"));
}

/// The im2col + GEMM convolutions on the tape agree with the naive
/// reference kernels — outputs, input gradients and the shared weight and
/// bias gradients — for a batch of one and a batch of three, to
/// float-reassociation tolerance.
#[test]
fn naive_and_gemm_lowerings_agree_end_to_end() {
    let mut rng = Rng64::new(21);

    // 1-D: every sample is one `(1, seg_len)` map under a `1 × k` kernel,
    // against the 1-D oracle at stride 1.
    let (c_in, c_out, k, seg_len) = (2, 3, 3, 9);
    let out_len = seg_len - k + 1;
    for batch in [1, 3] {
        let samples: Vec<Tensor> =
            (0..batch).map(|_| Tensor::rand_uniform([c_in, seg_len], -1.0, 1.0, &mut rng)).collect();
        let upstream: Vec<Tensor> =
            (0..batch).map(|_| Tensor::rand_uniform([c_out, out_len], -1.0, 1.0, &mut rng)).collect();
        let w = Tensor::rand_uniform([c_out, c_in, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([c_out], -0.5, 0.5, &mut rng);

        let mut tape = Tape::new();
        let x = tape.leaf(hstack(&samples), true);
        let wv = tape.leaf(w.clone(), true);
        let bv = tape.leaf(b.clone(), true);
        let y = tape.conv2d(x, wv, bv, 0, Arc::new(vec![(1, seg_len); batch]));
        let m = tape.leaf(hstack(&upstream), false);
        let p = tape.mul(y, m);
        let loss = tape.sum(p);
        tape.backward(loss);

        let mut gw_sum = Tensor::zeros(w.shape().clone());
        let mut gb_sum = vec![0.0; c_out];
        for (s, (xs, gs)) in samples.iter().zip(&upstream).enumerate() {
            let want = oracle::conv1d_forward(xs, &w, b.as_slice(), 1);
            let got = columns(tape.value(y), s * out_len, out_len);
            assert_close(got.as_slice(), want.as_slice(), &format!("conv1d B={batch} out {s}"));
            let (gx, gw, gb) = oracle::conv1d_backward(xs, &w, 1, gs);
            let got = columns(tape.grad(x).unwrap(), s * seg_len, seg_len);
            assert_close(got.as_slice(), gx.as_slice(), &format!("conv1d B={batch} gx {s}"));
            gw_sum = gw_sum.add(&gw);
            gb_sum.iter_mut().zip(&gb).for_each(|(a, g)| *a += g);
        }
        assert_close(tape.grad(wv).unwrap().as_slice(), gw_sum.as_slice(), "conv1d gw");
        assert_close(tape.grad(bv).unwrap().as_slice(), &gb_sum, "conv1d gb");
    }

    // 2-D: padded, over maps of different extents.
    for dims in [vec![(5, 4)], vec![(5, 4), (3, 3), (4, 7)]] {
        check_conv2d_against_oracle(&dims, (2, 3, 3, 3), 1, &mut rng);
    }
}

/// Maps smaller than the kernel's padded reach: every output reads some
/// padding, and some outputs read nothing else.
#[test]
fn maps_smaller_than_the_padded_kernel_agree_with_the_oracle() {
    let mut rng = Rng64::new(22);
    for dims in [vec![(1, 1)], vec![(1, 1), (2, 2), (1, 1)]] {
        check_conv2d_against_oracle(&dims, (2, 3, 3, 3), 1, &mut rng);
    }
    for dims in [vec![(2, 3)], vec![(2, 3), (1, 1), (3, 2)]] {
        check_conv2d_against_oracle(&dims, (2, 3, 2, 2), 1, &mut rng);
    }
    for dims in [vec![(3, 3)], vec![(1, 2), (3, 3), (2, 1)]] {
        check_conv2d_against_oracle(&dims, (1, 2, 3, 3), 2, &mut rng);
    }
}

/// The paper's first SortPooling-head Conv1D has kernel = stride = `Σcₜ`
/// over each sample's flattened `k × Σcₜ` sort output. `Conv1dLayer`
/// runs it at stride 1 over the `(k, Σcₜ)` map; that must be the 1-D
/// oracle at stride = kernel — outputs and all three gradients, through
/// the layer's ReLU — for a batch of one and a batch of three.
#[test]
fn conv1d_layer_over_row_maps_is_the_stride_kernel_conv1d() {
    let mut rng = Rng64::new(23);
    let (c_out, rows, width) = (4, 5, 6);
    let len = rows * width;
    for batch in [1, 3] {
        let mut store = ParamStore::new();
        let layer = Conv1dLayer::new(&mut store, "c", 1, c_out, width, &mut rng);
        store.value_mut_by_name("c.bias").as_mut_slice().copy_from_slice(&[0.1, -0.2, 0.05, 0.0]);
        let w = store.value(store.find("c.weight").unwrap()).clone();
        let b = store.value(store.find("c.bias").unwrap()).clone();
        let samples: Vec<Tensor> =
            (0..batch).map(|_| Tensor::rand_uniform([1, len], -1.0, 1.0, &mut rng)).collect();
        let upstream: Vec<Tensor> =
            (0..batch).map(|_| Tensor::rand_uniform([c_out, rows], -1.0, 1.0, &mut rng)).collect();

        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        let x = tape.leaf(hstack(&samples), true);
        let y = layer.forward(&mut tape, &binding, x, (rows, width));
        let m = tape.leaf(hstack(&upstream), false);
        let p = tape.mul(y, m);
        let loss = tape.sum(p);
        tape.backward(loss);
        store.accumulate_grads(&tape, &binding);

        let mut gw_sum = Tensor::zeros(w.shape().clone());
        let mut gb_sum = vec![0.0; c_out];
        for (s, (xs, gs)) in samples.iter().zip(&upstream).enumerate() {
            let pre = oracle::conv1d_forward(xs, &w, b.as_slice(), width);
            let want = pre.relu();
            let got = columns(tape.value(y), s * rows, rows);
            assert_close(got.as_slice(), want.as_slice(), &format!("B={batch} out {s}"));
            // ReLU's backward: the upstream gradient where the output is positive.
            let mut masked = gs.clone();
            for (g, &v) in masked.as_mut_slice().iter_mut().zip(pre.as_slice()) {
                if v <= 0.0 {
                    *g = 0.0;
                }
            }
            let (gx, gw, gb) = oracle::conv1d_backward(xs, &w, width, &masked);
            let got = columns(tape.grad(x).unwrap(), s * len, len);
            assert_close(got.as_slice(), gx.as_slice(), &format!("B={batch} gx {s}"));
            gw_sum = gw_sum.add(&gw);
            gb_sum.iter_mut().zip(&gb).for_each(|(a, g)| *a += g);
        }
        assert_close(store.grad(store.find("c.weight").unwrap()).as_slice(), gw_sum.as_slice(), "gw");
        assert_close(store.grad(store.find("c.bias").unwrap()).as_slice(), &gb_sum, "gb");
    }
}

/// The same tape, same sample, run twice under the GEMM lowering — once
/// cold, once against a warm workspace pool — must produce bitwise
/// identical probabilities: pooling is invisible to the numerics.
#[test]
fn warm_workspace_does_not_change_predictions_bitwise() {
    let config = DgcnnConfig::new(2, PoolingHead::adaptive_max_pool(3));
    let model = Dgcnn::new(&config, 5);
    let input = random_input(14, 77);

    let mut tape = Tape::new();
    let cold = model.predict_with(&mut tape, &input);
    for _ in 0..3 {
        let warm = model.predict_with(&mut tape, &input);
        assert_eq!(
            cold.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            warm.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "warm-pool prediction diverged"
        );
    }
}
