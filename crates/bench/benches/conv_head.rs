//! im2col-GEMM convolution head kernels: sweeps channel count,
//! sequence/image size, and kernel width for both `conv1d` and `conv2d`
//! and records their cost in `results/BENCH_conv_head.json`. The `conv1d`
//! cells run the SortPooling head's 1-D convolution as the model does:
//! `Tape::conv2d` over one `(1, len)` map with a `1 × k` kernel.
//!
//! Each cell times one full forward+backward of a single convolution
//! over one sample (a batch of one, plus ReLU and the scalar reduction
//! that backward needs) on a *reused* tape, so the numbers include the
//! steady-state benefit of the workspace pool — exactly what a training
//! epoch sees after its warm-up sample. The im2col lowering gathers
//! patches once and hands one `(c_out, c_in·k) @ (c_in·k, out)` product
//! to the register-blocked GEMM.
//!
//! Environment knobs (both used by `scripts/ci.sh`):
//!
//! * `MAGIC_BENCH_QUICK=1` — small sizes and fewer samples, written to
//!   `BENCH_conv_head_quick.json`; sized for a CI gate, not for
//!   quotable numbers.
//! * `MAGIC_BENCH_INJECT_SLOWDOWN_US=<µs>` — sleeps inside the timed
//!   region, for testing that the regression gate actually fails.

use magic_autograd::Tape;
use magic_bench::results::{machine_info, write_result};
use magic_json::json;
use magic_microbench::{time_fn, Stats};
use magic_tensor::{Rng64, Tensor};
use std::sync::Arc;
use std::time::Duration;

fn inject(us: u64) {
    if us > 0 {
        std::thread::sleep(Duration::from_micros(us));
    }
}

/// Measurement budget: (samples, target per sample, hard cap per sample).
struct Budget {
    samples: usize,
    target: Duration,
    cap: Duration,
}

fn stats_json(stats: &Stats) -> magic_json::Value {
    json!({
        "median_ns": stats.median_ns,
        "mean_ns": stats.mean_ns,
        "min_ns": stats.min_ns,
        "max_ns": stats.max_ns,
        "samples": stats.samples,
        "iters_per_sample": stats.iters_per_sample,
    })
}

/// One 1-D head cell: `(c_in, len)` input through a `(c_out, c_in, k)`
/// kernel at stride 1, unpadded.
struct Cell1d {
    c_in: usize,
    c_out: usize,
    len: usize,
    k: usize,
    x: Tensor,
    w: Tensor,
    b: Tensor,
}

impl Cell1d {
    fn new(c_in: usize, c_out: usize, len: usize, k: usize) -> Self {
        let mut rng = Rng64::new((c_in * 31 + len * 7 + k) as u64);
        Cell1d {
            c_in,
            c_out,
            len,
            k,
            x: Tensor::rand_uniform([c_in, len], -1.0, 1.0, &mut rng),
            w: Tensor::rand_uniform([c_out, c_in, k], -1.0, 1.0, &mut rng),
            b: Tensor::rand_uniform([c_out], -0.5, 0.5, &mut rng),
        }
    }

    fn time(&self, budget: &Budget, inject_us: u64) -> Stats {
        let mut tape = Tape::new();
        let dims = Arc::new(vec![(1, self.len)]);
        time_fn(
            || {
                inject(inject_us);
                tape.reset();
                let x = tape.leaf(self.x.clone(), true);
                let w = tape.leaf(self.w.clone(), true);
                let b = tape.leaf(self.b.clone(), true);
                let y = tape.conv2d(x, w, b, 1, 0, Arc::clone(&dims));
                let r = tape.relu(y);
                let loss = tape.sum(r);
                tape.backward(loss);
                std::hint::black_box(tape.grad(w).is_some());
            },
            budget.samples,
            budget.target,
            budget.cap,
        )
    }
}

/// One 2-D head cell: `(c_in, h·w)` input maps through a
/// `(c_out, c_in, k, k)` kernel at stride 1, padding `k / 2`.
struct Cell2d {
    c_in: usize,
    c_out: usize,
    h: usize,
    w: usize,
    k: usize,
    x: Tensor,
    wt: Tensor,
    b: Tensor,
}

impl Cell2d {
    fn new(c_in: usize, c_out: usize, h: usize, w: usize, k: usize) -> Self {
        let mut rng = Rng64::new((c_in * 131 + h * 17 + w * 5 + k) as u64);
        Cell2d {
            c_in,
            c_out,
            h,
            w,
            k,
            x: Tensor::rand_uniform([c_in, h * w], -1.0, 1.0, &mut rng),
            wt: Tensor::rand_uniform([c_out, c_in, k, k], -1.0, 1.0, &mut rng),
            b: Tensor::rand_uniform([c_out], -0.5, 0.5, &mut rng),
        }
    }

    fn time(&self, budget: &Budget, inject_us: u64) -> Stats {
        let mut tape = Tape::new();
        let pad = self.k / 2;
        let dims = Arc::new(vec![(self.h, self.w)]);
        time_fn(
            || {
                inject(inject_us);
                tape.reset();
                let x = tape.leaf(self.x.clone(), true);
                let w = tape.leaf(self.wt.clone(), true);
                let b = tape.leaf(self.b.clone(), true);
                let y = tape.conv2d(x, w, b, 1, pad, Arc::clone(&dims));
                let r = tape.relu(y);
                let loss = tape.sum(r);
                tape.backward(loss);
                std::hint::black_box(tape.grad(w).is_some());
            },
            budget.samples,
            budget.target,
            budget.cap,
        )
    }
}

fn main() {
    magic_obs::set_log_level(magic_obs::Level::Error);
    let quick = std::env::var("MAGIC_BENCH_QUICK").map(|v| v == "1").unwrap_or(false);
    let inject_us: u64 = std::env::var("MAGIC_BENCH_INJECT_SLOWDOWN_US")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    // The 1-D grid brackets the paper's SortPooling head (conv over the
    // k-sorted rows); the 2-D grid brackets the mskcfg adaptive head
    // ([128, 64, 32, 32] channels over pooled feature maps).
    let (cells_1d, cells_2d, budget) = if quick {
        (
            vec![Cell1d::new(32, 32, 64, 3)],
            vec![Cell2d::new(4, 16, 16, 16, 3)],
            // Wider than the other quick gates: these sub-ms cells swing
            // ±30% run-to-run on a 1-core container, so buy steadier
            // medians with a longer sampling window.
            Budget { samples: 8, target: Duration::from_millis(120), cap: Duration::from_millis(600) },
        )
    } else {
        (
            vec![
                Cell1d::new(32, 32, 64, 3),
                Cell1d::new(64, 64, 256, 5),
                Cell1d::new(128, 128, 512, 7),
            ],
            vec![
                Cell2d::new(4, 32, 16, 16, 3),
                Cell2d::new(8, 64, 32, 32, 3),
                Cell2d::new(16, 64, 32, 32, 5),
            ],
            Budget { samples: 10, target: Duration::from_millis(150), cap: Duration::from_millis(900) },
        )
    };

    let mut rows = Vec::new();
    for cell in &cells_1d {
        let gemm = cell.time(&budget, inject_us);
        println!(
            "conv1d c={:>3} len={:>4} k={}  gemm {:>12.0} ns",
            cell.c_in, cell.len, cell.k, gemm.median_ns,
        );
        rows.push(json!({
            "family": "conv1d",
            "c_in": cell.c_in,
            "c_out": cell.c_out,
            "len": cell.len,
            "k": cell.k,
            "gemm": stats_json(&gemm),
        }));
    }
    for cell in &cells_2d {
        let gemm = cell.time(&budget, inject_us);
        println!(
            "conv2d c={:>3} hw={:>3}x{:<3} k={}  gemm {:>12.0} ns",
            cell.c_in, cell.h, cell.w, cell.k, gemm.median_ns,
        );
        rows.push(json!({
            "family": "conv2d",
            "c_in": cell.c_in,
            "c_out": cell.c_out,
            "h": cell.h,
            "w": cell.w,
            "k": cell.k,
            "gemm": stats_json(&gemm),
        }));
    }

    let name = if quick { "BENCH_conv_head_quick" } else { "BENCH_conv_head" };
    write_result(
        name,
        &json!({
            "bench": "conv_head",
            "quick": quick,
            "machine_info": machine_info(),
            "sweep": rows,
        }),
    );
}
