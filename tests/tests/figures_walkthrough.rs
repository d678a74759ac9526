//! The worked example of Section III (Figs. 2–6), recomputed end to end.
//!
//! The paper walks a 5-vertex graph `g` with two attribute channels
//! through: two graph convolution layers with given weights `W1`, `W2`
//! (Fig. 3), SortPooling with k = 3 (Fig. 4), the WeightedVertices layer
//! with W = [0.4, 0.1, 0.5] (Fig. 5), and a 3×3 adaptive max pooling over
//! 5×7 and 4×7 inputs with the stated kernel sizes (Fig. 6). The figures'
//! raw matrices are only available as images, so this test fixes a
//! 5-vertex graph with the paper's stated parameters and verifies every
//! stage against independent hand computation.

use magic_autograd::Tape;
use magic_model::{GraphBatch, GraphInput};
use magic_nn::{augment_adjacency, GraphConv, ParamStore, SortPooling, WeightedVertices};
use magic_tensor::{Rng64, Tensor};
use std::sync::Arc;

/// A 5-vertex directed graph in the spirit of Fig. 2, with two attribute
/// channels F1, F2.
fn figure2_graph() -> (Tensor, Tensor) {
    let mut a = Tensor::zeros([5, 5]);
    for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 1)] {
        a.set2(u, v, 1.0);
    }
    let x = Tensor::from_rows(&[
        &[2.0, 1.0],
        &[2.0, 0.0],
        &[1.0, 3.0],
        &[3.0, 2.0],
        &[1.0, 5.0],
    ]);
    (a, x)
}

/// The paper's stated layer weights: W1 ∈ R^{2×3}, W2 ∈ R^{3×4}.
fn paper_weights() -> (Tensor, Tensor) {
    let w1 = Tensor::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
    let w2 = Tensor::from_rows(&[
        &[0.0, 1.0, -2.0, 2.0],
        &[1.0, 1.0, 7.0, -2.0],
        &[1.0, 0.0, -1.0, 4.0],
    ]);
    (w1, w2)
}

/// Plain-Rust reference of Eq. (1): relu(D̂⁻¹ Â Z W).
fn reference_graph_conv(a_hat: &Tensor, inv_deg: &[f32], z: &Tensor, w: &Tensor) -> Tensor {
    let zw = z.matmul(w);
    let az = a_hat.matmul(&zw);
    az.scale_rows(inv_deg).relu()
}

#[test]
fn figure3_two_layer_graph_convolution() {
    let (a, x) = figure2_graph();
    let (a_hat, inv_deg) = augment_adjacency(&a);
    let (w1, w2) = paper_weights();

    // Layer outputs via the production GraphConv on the tape, running
    // the graph as a batch of one over its CSR `Â`.
    let input = GraphInput::from_parts(a, x.clone());
    let batch = GraphBatch::single(&input);
    let mut store = ParamStore::new();
    let mut rng = Rng64::new(0);
    let gc1 = GraphConv::new(&mut store, "gc1", 2, 3, &mut rng);
    let gc2 = GraphConv::new(&mut store, "gc2", 3, 4, &mut rng);
    *store.value_mut_by_name("gc1.weight") = w1.clone();
    *store.value_mut_by_name("gc2.weight") = w2.clone();

    let mut tape = Tape::new();
    let binding = store.bind(&mut tape);
    let (adj, adj_t) = (batch.adj_hat(), batch.adj_hat_t());
    let (inv, bounds) = (batch.inv_degree_arc(), batch.bounds());
    let z0 = tape.leaf(x.clone(), false);
    let z1 = gc1.forward(&mut tape, &binding, adj, adj_t, inv, z0, bounds);
    let z2 = gc2.forward(&mut tape, &binding, adj, adj_t, inv, z1, bounds);

    // Independent reference computation.
    let r1 = reference_graph_conv(&a_hat, &inv_deg, &x, &w1);
    let r2 = reference_graph_conv(&a_hat, &inv_deg, &r1, &w2);
    assert!(tape.value(z1).approx_eq(&r1, 1e-5), "Z1 mismatch");
    assert!(tape.value(z2).approx_eq(&r2, 1e-5), "Z2 mismatch");

    // Z^{1:2} is the 5 x (3+4) concatenation of Fig. 3.
    let zcat = tape.concat_cols(&[z1, z2]);
    assert_eq!(tape.value(zcat).shape().dims(), &[5, 7]);

    // Spot-check one value by hand: vertex 4 has only its self loop, so
    // Z1[4] = relu(X[4] W1) = [1, 5, 1].
    assert_eq!(tape.value(z1).row(4), &[1.0, 5.0, 1.0]);
}

#[test]
fn figure4_sortpooling_keeps_top3_by_last_channel() {
    let (a, x) = figure2_graph();
    let (a_hat, inv_deg) = augment_adjacency(&a);
    let (w1, w2) = paper_weights();
    let z1 = reference_graph_conv(&a_hat, &inv_deg, &x, &w1);
    let z2 = reference_graph_conv(&a_hat, &inv_deg, &z1, &w2);
    let zcat = Tensor::concat_cols(&[&z1, &z2]);

    let mut tape = Tape::new();
    let zv = tape.leaf(zcat.clone(), false);
    let out = SortPooling::new(3).forward(&mut tape, zv, &[0, 5]);
    let sorted = tape.value(out);
    assert_eq!(sorted.shape().dims(), &[3, 7], "k x Σc_t as in Fig. 4");

    // The retained rows are the three largest by last channel, in
    // descending order — exactly the Fig. 4 rule.
    let mut keys: Vec<f32> = (0..5).map(|v| zcat.get2(v, 6)).collect();
    keys.sort_by(|p, q| q.partial_cmp(p).unwrap());
    for (i, expected) in keys.iter().take(3).enumerate() {
        assert!(
            (sorted.get2(i, 6) - expected).abs() < 1e-5,
            "row {i}: {} vs {}",
            sorted.get2(i, 6),
            expected
        );
    }
}

#[test]
fn figure5_weighted_vertices_embedding() {
    // Fig. 5: E = relu(W × Zsp) with W = [0.4, 0.1, 0.5].
    let z_sp = Tensor::from_rows(&[
        &[3.0, 0.0, 2.0, 1.0],
        &[0.0, 2.0, 0.0, 4.0],
        &[1.0, 1.0, 1.0, 1.0],
    ]);
    let mut store = ParamStore::new();
    let mut rng = Rng64::new(1);
    let wv = WeightedVertices::new(&mut store, "wv", 3, &mut rng);
    *store.value_mut_by_name("wv.weight") = Tensor::from_rows(&[&[0.4, 0.1, 0.5]]);

    let mut tape = Tape::new();
    let binding = store.bind(&mut tape);
    let z = tape.leaf(z_sp, false);
    let e = wv.forward(&mut tape, &binding, z);
    // Hand computation: 0.4*row0 + 0.1*row1 + 0.5*row2.
    let expected = [
        0.4 * 3.0 + 0.5,
        0.1 * 2.0 + 0.5,
        0.4 * 2.0 + 0.5,
        0.4 + 0.4 + 0.5,
    ];
    for (got, want) in tape.value(e).as_slice().iter().zip(&expected) {
        assert!((got - want).abs() < 1e-5, "{got} vs {want}");
    }
}

#[test]
fn figure6_adaptive_max_pooling_kernel_windows() {
    // Fig. 6: a 5x7 input pools to 3x3 with kernel 3x3; a 4x7 input pools
    // to 3x3 with kernel 2x3. The kernel size manifests as the maximal
    // window each output cell covers.
    for (h, expected_kernel_h) in [(5usize, 3usize), (4, 2)] {
        let x = Tensor::from_vec((0..(h * 7)).map(|v| v as f32).collect(), [1, h * 7]);
        let mut tape = Tape::new();
        let xv = tape.leaf(x, false);
        // The model pools through the fused conv → relu → AMP op; a 1×1
        // identity kernel with zero bias leaves these non-negative
        // values as they are, so the op pools the input itself.
        let identity = tape.leaf(Tensor::from_vec(vec![1.0], [1, 1, 1, 1]), false);
        let zero = tape.leaf(Tensor::zeros([1]), false);
        let out = tape.conv2d_relu_amp(xv, identity, zero, 0, Arc::new(vec![(h, 7)]), (3, 3));
        let v = tape.value(out).reshape([1, 3, 3]);
        assert_eq!(v.shape().dims(), &[1, 3, 3]);
        // With row-major increasing values, every output cell is the
        // bottom-right corner of its pooling window, so row i's value
        // reveals the window's end row. The *largest* window height is
        // the effective kernel height of Fig. 6 (3 for the 5x7 input,
        // 2 for the 4x7 input).
        let mut max_kernel_h = 0usize;
        let mut prev_end = 0usize;
        for i in 0..3 {
            let end_row = v.at(&[0, i, 0]) as usize / 7 + 1;
            let start_row = i * h / 3; // adaptive window start
            max_kernel_h = max_kernel_h.max(end_row - start_row);
            assert!(end_row >= prev_end, "windows advance monotonically");
            prev_end = end_row;
        }
        assert_eq!(max_kernel_h, expected_kernel_h, "kernel height for {h}x7 input");
        // The global maximum always lands in the last cell.
        assert_eq!(v.at(&[0, 2, 2]) as usize, h * 7 - 1);
    }
}
