//! Sparse propagation: parity with the dense `Â` oracle, and determinism.
//!
//! The Eq. (1) path runs over (block-diagonal) CSR (`spmm_norm`); the
//! dense formulation lives on only as the reference oracle in
//! [`magic_integration::oracle`]. These tests pin the contract between
//! the two — identical mathematics up to float reassociation — and a
//! sparse path that is bitwise reproducible run to run and invariant to
//! the worker count.

use magic::trainer::{TrainConfig, Trainer};
use magic_autograd::{first_bitwise_mismatch, Tape};
use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
use magic_integration::oracle;
use magic_model::{Dgcnn, DgcnnConfig, GraphInput, PoolingHead};
use magic_nn::{GraphConv, ParamStore};
use magic_tensor::{CsrMatrix, Rng64, Tensor};
use std::sync::Arc;

/// A random digraph with `n` vertices and roughly `n * degree` edges
/// (duplicates allowed — they must collapse identically on both paths).
fn random_digraph(n: usize, degree: f64, rng: &mut Rng64) -> DiGraph {
    let mut g = DiGraph::new(n);
    let edges = (n as f64 * degree) as usize;
    for _ in 0..edges {
        g.add_edge(rng.next_below(n), rng.next_below(n));
    }
    g
}

fn random_input(n: usize, degree: f64, seed: u64) -> GraphInput {
    let mut rng = Rng64::new(seed);
    let g = random_digraph(n, degree, &mut rng);
    let attrs = Tensor::rand_uniform([n, NUM_ATTRIBUTES], 0.0, 4.0, &mut rng);
    GraphInput::from_acfg(&Acfg::new(g, attrs))
}

/// Output and weight gradient of one [`GraphConv`] over `graphs` as one
/// block-diagonal CSR batch.
fn sparse_batch(
    layer: &GraphConv,
    store: &ParamStore,
    graphs: &[(DiGraph, Tensor)],
) -> (Tensor, Tensor) {
    let csrs: Vec<(CsrMatrix, Vec<f32>)> =
        graphs.iter().map(|(g, _)| CsrMatrix::augmented_from_edges(g.vertex_count(), g.edges())).collect();
    let adj = CsrMatrix::block_diagonal(&csrs.iter().map(|(a, _)| a).collect::<Vec<_>>());
    let adj_t = Arc::new(adj.transpose());
    let inv: Vec<f32> = csrs.iter().flat_map(|(_, d)| d.iter().copied()).collect();
    let mut bounds = vec![0];
    for (g, _) in graphs {
        bounds.push(bounds.last().unwrap() + g.vertex_count());
    }
    let x = Tensor::concat_rows(&graphs.iter().map(|(_, x)| x).collect::<Vec<_>>());

    let mut tape = Tape::new();
    let binding = store.bind(&mut tape);
    let z = tape.leaf(x, false);
    let out = layer.forward(
        &mut tape,
        &binding,
        &Arc::new(adj),
        &adj_t,
        &Arc::new(inv),
        z,
        &Arc::new(bounds),
    );
    let loss = tape.sum(out);
    tape.backward(loss);
    let w = binding.var(store.find("gc.weight").expect("layer weight"));
    (tape.value(out).clone(), tape.grad(w).expect("weight gradient").clone())
}

#[test]
fn graph_conv_forward_parity_on_random_digraphs() {
    // Sweep sizes and densities, including a vertex-heavy sparse graph
    // and a dense-ish one. The production layer runs each graph as a
    // batch of one and three of them as one batch; the dense `Â`
    // oracle must agree with both to 1e-5 (outputs) and 1e-4 (the
    // shared weight's gradient).
    let mut rng = Rng64::new(1);
    let graphs: Vec<(DiGraph, Tensor)> = [(3, 0.5), (16, 1.4), (40, 2.0), (24, 8.0)]
        .iter()
        .map(|&(n, degree)| {
            let g = random_digraph(n, degree, &mut rng);
            (g, Tensor::rand_uniform([n, 6], -1.0, 1.0, &mut rng))
        })
        .collect();
    let mut store = ParamStore::new();
    let layer = GraphConv::new(&mut store, "gc", 6, 5, &mut rng);

    // Dense oracle, one tape per graph.
    let dense: Vec<(Tensor, Tensor)> = graphs
        .iter()
        .map(|(g, x)| {
            let (csr, inv_degree) = CsrMatrix::augmented_from_edges(g.vertex_count(), g.edges());
            let mut tape = Tape::new();
            let binding = store.bind(&mut tape);
            let w = binding.var(store.find("gc.weight").unwrap());
            let a_hat = tape.leaf(csr.to_dense(), false);
            let z = tape.leaf(x.clone(), false);
            let out = oracle::graph_conv_dense(&mut tape, a_hat, &inv_degree, z, w);
            let loss = tape.sum(out);
            tape.backward(loss);
            (tape.value(out).clone(), tape.grad(w).unwrap().clone())
        })
        .collect();

    let close = |got: &[f32], want: &[f32], tol: f32, what: &str| {
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!((a - b).abs() < tol, "{what} element {i}: sparse {a} vs dense {b}");
        }
    };
    for (i, graph) in graphs.iter().enumerate() {
        let (out, gw) = sparse_batch(&layer, &store, std::slice::from_ref(graph));
        close(out.as_slice(), dense[i].0.as_slice(), 1e-5, &format!("graph {i} output"));
        close(gw.as_slice(), dense[i].1.as_slice(), 1e-4, &format!("graph {i} weight grad"));
    }
    let (out, gw) = sparse_batch(&layer, &store, &graphs[1..]);
    let want_out = Tensor::concat_rows(&dense[1..].iter().map(|(o, _)| o).collect::<Vec<_>>());
    close(out.as_slice(), want_out.as_slice(), 1e-5, "batch of three output");
    let want_gw = dense[1..].iter().fold(Tensor::zeros([6, 5]), |acc, (_, g)| acc.add(g));
    close(gw.as_slice(), want_gw.as_slice(), 1e-4, "batch of three weight grad");
}

fn parity_corpus() -> (Vec<GraphInput>, Vec<usize>) {
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for i in 0..16 {
        let label = i % 2;
        let degree = if label == 0 { 1.3 } else { 3.0 };
        inputs.push(random_input(10 + i % 4, degree, 9000 + i as u64));
        labels.push(label);
    }
    (inputs, labels)
}

fn train_with(workers: usize) -> (Vec<f32>, Dgcnn) {
    let (inputs, labels) = parity_corpus();
    let train_idx: Vec<usize> = (0..12).collect();
    let val_idx: Vec<usize> = (12..16).collect();
    let config = DgcnnConfig::new(2, PoolingHead::sort_pool_weighted(6));
    let mut model = Dgcnn::new(&config, 5);
    let trainer = Trainer::new(TrainConfig {
        epochs: 4,
        batch_size: 4,
        learning_rate: 0.02,
        seed: 13,
        train_workers: workers,
        ..TrainConfig::default()
    });
    let outcome = trainer.train(&mut model, &inputs, &labels, &train_idx, &val_idx);
    let losses = outcome.history.iter().map(|e| e.train_loss).collect();
    (losses, model)
}

#[test]
fn sparse_training_is_run_to_run_deterministic() {
    let (losses_a, model_a) = train_with(1);
    let (losses_b, model_b) = train_with(1);
    assert!(
        losses_a.iter().zip(&losses_b).all(|(a, b)| a.to_bits() == b.to_bits()),
        "loss curves diverged between identical runs"
    );
    for (name, value) in model_a.store().iter() {
        let id = model_b.store().find(name).expect("same parameter set");
        assert_eq!(
            first_bitwise_mismatch(value, model_b.store().value(id)),
            None,
            "weights for {name} diverged between identical runs"
        );
    }
}

#[test]
fn sparse_training_is_worker_count_invariant() {
    let (serial_losses, serial_model) = train_with(1);
    for workers in [2, 4] {
        let (losses, model) = train_with(workers);
        assert!(
            serial_losses.iter().zip(&losses).all(|(a, b)| a.to_bits() == b.to_bits()),
            "loss curve diverged with {workers} workers"
        );
        for (name, value) in model.store().iter() {
            let id = serial_model.store().find(name).expect("same parameter set");
            assert_eq!(
                first_bitwise_mismatch(value, serial_model.store().value(id)),
                None,
                "weights for {name} diverged with {workers} workers"
            );
        }
    }
}
