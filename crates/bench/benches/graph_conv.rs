//! CSR graph convolution: sweeps the Eq. (1) hot path across vertex
//! counts and edge densities and records its cost in
//! `results/BENCH_graph_conv.json`.
//!
//! Each cell times one full forward+backward of a `GraphConv` layer over
//! one graph as a batch of one (`Z W` GEMM + fused `spmm_norm`
//! propagation + ReLU, then the reverse sweep). The CSR formulation
//! costs `O((n + e) c)`, so at fixed average out-degree the time grows
//! linearly in `n`. Real CFGs sit near 1.4 out-edges per block.
//!
//! Environment knobs (both used by `scripts/ci.sh`):
//!
//! * `MAGIC_BENCH_QUICK=1` — small sizes and fewer samples, written to
//!   `BENCH_graph_conv_quick.json`; sized for a CI gate, not for
//!   quotable numbers.
//! * `MAGIC_BENCH_INJECT_SLOWDOWN_US=<µs>` — sleeps inside the timed
//!   region, for testing that the regression gate actually fails.

use magic_autograd::Tape;
use magic_bench::results::{machine_info, write_result};
use magic_graph::{DiGraph, NUM_ATTRIBUTES};
use magic_json::json;
use magic_microbench::{time_fn, Stats};
use magic_nn::{GraphConv, ParamStore};
use magic_tensor::{CsrMatrix, Rng64, Tensor};
use std::sync::Arc;
use std::time::Duration;

const OUT_CHANNELS: usize = 32;

/// A CFG-shaped random digraph: a spine of fallthrough edges plus
/// random branches until the average out-degree reaches `degree`.
fn random_graph(n: usize, degree: f64, rng: &mut Rng64) -> DiGraph {
    let mut g = DiGraph::new(n);
    for v in 0..n - 1 {
        g.add_edge(v, v + 1);
    }
    let extra = ((n as f64 * degree) as usize).saturating_sub(n - 1);
    for _ in 0..extra {
        g.add_edge(rng.next_below(n), rng.next_below(n));
    }
    g
}

struct Cell {
    vertices: usize,
    degree: f64,
    adj: Arc<CsrMatrix>,
    adj_t: Arc<CsrMatrix>,
    inv_degree: Arc<Vec<f32>>,
    bounds: Arc<Vec<usize>>,
    attributes: Tensor,
    store: ParamStore,
    conv: GraphConv,
}

impl Cell {
    fn new(vertices: usize, degree: f64) -> Self {
        let mut rng = Rng64::new(vertices as u64 * 31 + (degree * 10.0) as u64);
        let g = random_graph(vertices, degree, &mut rng);
        let (csr, inv_degree) = CsrMatrix::augmented_from_edges(vertices, g.edges());
        let adj = Arc::new(csr);
        let adj_t = Arc::new(adj.transpose());
        let attributes = Tensor::rand_uniform([vertices, NUM_ATTRIBUTES], 0.0, 2.0, &mut rng);
        let mut store = ParamStore::new();
        let conv = GraphConv::new(&mut store, "gc", NUM_ATTRIBUTES, OUT_CHANNELS, &mut rng);
        Cell {
            vertices,
            degree,
            adj,
            adj_t,
            inv_degree: Arc::new(inv_degree),
            bounds: Arc::new(vec![0, vertices]),
            attributes,
            store,
            conv,
        }
    }

    fn time_sparse(&self, budget: &Budget, inject_us: u64) -> Stats {
        time_fn(
            || {
                inject(inject_us);
                let mut tape = Tape::new();
                let binding = self.store.bind(&mut tape);
                let z = tape.leaf(self.attributes.clone(), false);
                let out = self.conv.forward(
                    &mut tape,
                    &binding,
                    &self.adj,
                    &self.adj_t,
                    &self.inv_degree,
                    z,
                    &self.bounds,
                );
                let loss = tape.sum(out);
                tape.backward(loss);
                std::hint::black_box(tape.grad(binding.var(self.weight_id())).is_some());
            },
            budget.samples,
            budget.target,
            budget.cap,
        )
    }

    fn weight_id(&self) -> magic_nn::ParamId {
        self.store.find("gc.weight").expect("layer weight")
    }
}

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

fn main() {
    magic_obs::set_log_level(magic_obs::Level::Error);
    let quick = std::env::var("MAGIC_BENCH_QUICK").map(|v| v == "1").unwrap_or(false);
    let inject_us: u64 = std::env::var("MAGIC_BENCH_INJECT_SLOWDOWN_US")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    // 1.4 is the median CFG out-degree (fallthrough + occasional
    // branch); 8.0 is an adversarially dense graph where the CSR
    // advantage narrows.
    let (sizes, degrees, budget) = if quick {
        (
            vec![32usize, 64],
            vec![1.4f64],
            Budget { samples: 5, target: Duration::from_millis(40), cap: Duration::from_millis(250) },
        )
    } else {
        (
            vec![64usize, 256, 1024],
            vec![1.4f64, 8.0],
            Budget { samples: 10, target: Duration::from_millis(150), cap: Duration::from_millis(900) },
        )
    };

    let mut rows = Vec::new();
    for &n in &sizes {
        for &degree in &degrees {
            let cell = Cell::new(n, degree);
            let sparse = cell.time_sparse(&budget, inject_us);
            println!(
                "n={n:>5} degree={degree:>3.1} nnz={:>6}  csr {:>12.0} ns",
                cell.adj.nnz(),
                sparse.median_ns,
            );
            rows.push(json!({
                "vertices": cell.vertices,
                "avg_out_degree": cell.degree,
                "nnz": cell.adj.nnz(),
                "sparse": stats_json(&sparse),
            }));
        }
    }

    let name = if quick { "BENCH_graph_conv_quick" } else { "BENCH_graph_conv" };
    write_result(
        name,
        &json!({
            "bench": "graph_conv",
            "quick": quick,
            "machine_info": machine_info(),
            "out_channels": OUT_CHANNELS,
            "in_channels": NUM_ATTRIBUTES,
            "sweep": rows,
        }),
    );
}
