//! The fused Conv2D → ReLU → AMP op of the adaptive head against the
//! dense chain it replaces.
//!
//! `Tape::conv2d_relu_amp` never materialises the `(c_out, Σ ohⱼ·owⱼ)`
//! conv map and runs its backward through the positive pool winners
//! only. Its contract is that this changes no bit: the pooled values,
//! the winners and the input, weight and bias gradients all equal those
//! of `conv2d` → `relu` → a scan of the full map
//! ([`oracle::conv2d_relu_amp_dense`]) bitwise, for finite inputs.

use magic_autograd::{first_bitwise_mismatch, Tape};
use magic_integration::oracle;
use magic_tensor::{Rng64, Tensor};
use std::sync::Arc;

/// One parity case: a column-stacked batch of `dims` maps with `c_in`
/// channels, `c_out` filters of `k × k` at stride 1 and padding `pad`,
/// pooled to `grid`.
struct Case {
    name: &'static str,
    dims: &'static [(usize, usize)],
    c_in: usize,
    c_out: usize,
    k: usize,
    pad: usize,
    grid: (usize, usize),
}

/// Runs the fused op on `x` and backs `gout` through it: returns the
/// pooled output, the winners and the `x`, `w`, `b` gradients.
fn fused(
    x: &Tensor,
    wt: &Tensor,
    b: &Tensor,
    case: &Case,
    gout: &Tensor,
) -> (Tensor, Vec<usize>, Tensor, Tensor, Tensor) {
    let mut tape = Tape::new();
    let xv = tape.leaf(x.clone(), true);
    let wv = tape.leaf(wt.clone(), true);
    let bv = tape.leaf(b.clone(), true);
    let p = tape.conv2d_relu_amp(xv, wv, bv, case.pad, Arc::new(case.dims.to_vec()), case.grid);
    let winners = tape.pool_winners(p).expect("a fused node has winners").to_vec();
    // d(Σ p ⊙ gout)/dp = 1.0·gout, which is gout bit for bit.
    let g = tape.leaf(gout.clone(), false);
    let weighted = tape.mul(p, g);
    let loss = tape.sum(weighted);
    tape.backward(loss);
    let grad = |v| tape.grad(v).expect("leaf requires grad").clone();
    (tape.value(p).clone(), winners, grad(xv), grad(wv), grad(bv))
}

fn assert_bitwise(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(first_bitwise_mismatch(got, want), None, "{what}: {got:?} vs {want:?}");
}

/// Checks one case on input `x`, weights `wt`, bias `b` and a random
/// upstream gradient.
fn check(case: &Case, x: &Tensor, wt: &Tensor, b: &Tensor, rng: &mut Rng64) {
    let cells = case.grid.0 * case.grid.1;
    let gout = Tensor::rand_uniform([case.c_out, case.dims.len() * cells], -1.0, 1.0, rng);
    let (pooled, winners, gx, gw, gb) = fused(x, wt, b, case, &gout);
    let dense = oracle::conv2d_relu_amp_dense(x, wt, b, case.pad, case.dims, case.grid, &gout);
    let name = case.name;
    assert_bitwise(&pooled, &dense.pooled, &format!("{name}: pooled"));
    assert_eq!(winners, dense.winners, "{name}: winners");
    assert_bitwise(&gx, &dense.gx, &format!("{name}: gx"));
    assert_bitwise(&gw, &dense.gw, &format!("{name}: gw"));
    assert_bitwise(&gb, &dense.gb, &format!("{name}: gb"));
}

const CASES: &[Case] = &[
    // Fewer rows and columns than grid cells: windows repeat and overlap,
    // so one position wins several cells.
    Case { name: "n < grid", dims: &[(2, 4)], c_in: 1, c_out: 3, k: 3, pad: 1, grid: (6, 6) },
    // Extents not divisible by the grid: neighbouring windows share a row.
    Case { name: "n % grid != 0", dims: &[(7, 11)], c_in: 1, c_out: 4, k: 3, pad: 1, grid: (3, 3) },
    // Several input channels, no padding, a 2×2 kernel.
    Case { name: "c_in 2, no padding", dims: &[(6, 9)], c_in: 2, c_out: 3, k: 2, pad: 0, grid: (2, 3) },
    // Taller than one band of output rows.
    Case { name: "several bands", dims: &[(70, 40)], c_in: 1, c_out: 2, k: 3, pad: 1, grid: (6, 6) },
    // B = 3 with varied extents, one smaller than the grid.
    Case {
        name: "B = 3",
        dims: &[(5, 8), (2, 3), (13, 6)],
        c_in: 1,
        c_out: 16,
        k: 3,
        pad: 1,
        grid: (6, 6),
    },
    Case {
        name: "B = 3, c_in 2",
        dims: &[(9, 7), (4, 4), (3, 10)],
        c_in: 2,
        c_out: 5,
        k: 3,
        pad: 1,
        grid: (3, 3),
    },
];

fn weights(case: &Case, rng: &mut Rng64) -> (Tensor, Tensor) {
    let wt = Tensor::rand_uniform([case.c_out, case.c_in, case.k, case.k], -1.0, 1.0, rng);
    let b = Tensor::rand_uniform([case.c_out], -0.3, 0.3, rng);
    (wt, b)
}

fn total(case: &Case) -> usize {
    case.dims.iter().map(|&(h, w)| h * w).sum()
}

#[test]
fn fused_op_matches_dense_chain_bitwise_on_random_maps() {
    let mut rng = Rng64::new(71);
    for case in CASES {
        let (wt, b) = weights(case, &mut rng);
        let x = Tensor::rand_uniform([case.c_in, total(case)], -1.0, 1.0, &mut rng);
        check(case, &x, &wt, &b, &mut rng);
    }
}

#[test]
fn fused_op_matches_dense_chain_bitwise_on_all_negative_windows() {
    // Every conv output negative: every pooled value is a ReLU zero, each
    // window's winner is its first cell, and no gradient flows.
    let mut rng = Rng64::new(72);
    for case in CASES {
        let (wt, _) = weights(case, &mut rng);
        let b = Tensor::from_vec(vec![-100.0; case.c_out], [case.c_out]);
        let x = Tensor::rand_uniform([case.c_in, total(case)], -1.0, 1.0, &mut rng);
        check(case, &x, &wt, &b, &mut rng);
    }
}

#[test]
fn fused_op_matches_dense_chain_bitwise_on_exact_ties() {
    // Inputs from a handful of small integers and weights of ±1 give
    // conv outputs that repeat exactly, so most windows hold a tie among
    // positive values and among ReLU zeros; the first in scan order wins.
    let mut rng = Rng64::new(73);
    for case in CASES {
        let n = case.c_out * case.c_in * case.k * case.k;
        let wt = Tensor::from_vec(
            (0..n).map(|_| if rng.next_below(2) == 0 { 1.0 } else { -1.0 }).collect(),
            [case.c_out, case.c_in, case.k, case.k],
        );
        let b = Tensor::from_vec((0..case.c_out).map(|o| o as f32 - 1.0).collect(), [case.c_out]);
        let x = Tensor::from_vec(
            (0..case.c_in * total(case)).map(|_| rng.next_below(3) as f32).collect(),
            [case.c_in, total(case)],
        );
        check(case, &x, &wt, &b, &mut rng);
    }
}
