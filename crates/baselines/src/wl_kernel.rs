//! Weisfeiler–Lehman subtree-kernel classifier — the graph-similarity
//! approach MAGIC is designed to outperform.
//!
//! Section I of the paper motivates DGCNN against "graph matching or
//! isomorphism [that] can be computationally prohibitive, letting alone
//! that the time needed to compute pairwise graph similarity for a
//! malware dataset scales quadratically with its size". The paper's own
//! SortPooling is grounded in WL colors [29][31]. This module implements
//! that classical alternative faithfully: WL color refinement over
//! discretized vertex attributes, an explicit subtree-feature histogram
//! per graph, and a kernel k-NN classifier whose prediction cost grows
//! linearly with the *training-set size* (the quadratic pairwise regime) —
//! the execution-performance foil for the DGCNN.

use magic_graph::Acfg;
use std::collections::HashMap;

/// Initial color of a vertex: a coarse hash of its discretized Table I
/// attribute vector (log-bucketed, so near-equal blocks share colors).
fn initial_color(acfg: &Acfg, v: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in acfg.attributes().row(v) {
        let bucket = (1.0 + x).ln().floor() as u64;
        h ^= bucket.wrapping_add(0x9E37_79B9);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The WL subtree feature map of one graph: color → multiplicity over all
/// refinement rounds (the standard WL kernel feature vector, stored
/// sparsely).
pub fn wl_features(acfg: &Acfg, rounds: usize) -> HashMap<u64, f64> {
    let n = acfg.vertex_count();
    let mut colors: Vec<u64> = (0..n).map(|v| initial_color(acfg, v)).collect();
    let mut features: HashMap<u64, f64> = HashMap::new();
    for &c in &colors {
        *features.entry(c).or_default() += 1.0;
    }
    for round in 0..rounds {
        colors = acfg.graph().wl_refine(&colors);
        for &c in &colors {
            // Salt by round so identical hashes from different depths
            // stay distinct features.
            *features.entry(c ^ (round as u64) << 56).or_default() += 1.0;
        }
    }
    features
}

/// Normalized WL kernel value between two sparse feature maps
/// (cosine of the subtree histograms).
pub fn wl_kernel(a: &HashMap<u64, f64>, b: &HashMap<u64, f64>) -> f64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let dot: f64 = small
        .iter()
        .filter_map(|(k, va)| large.get(k).map(|vb| va * vb))
        .sum();
    let na: f64 = a.values().map(|v| v * v).sum::<f64>().sqrt();
    let nb: f64 = b.values().map(|v| v * v).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// k-nearest-neighbour classifier under the WL subtree kernel.
///
/// Training memorizes feature maps (cheap); prediction computes the
/// kernel against *every* training graph — the cost profile the paper
/// argues against, reproduced here for the execution-performance
/// comparison.
#[derive(Debug, Clone)]
pub struct WlKernelKnn {
    rounds: usize,
    k: usize,
    features: Vec<HashMap<u64, f64>>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl WlKernelKnn {
    /// Creates an unfitted classifier with `rounds` WL refinements and
    /// `k` neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(rounds: usize, k: usize) -> Self {
        assert!(k > 0, "need at least one neighbour");
        WlKernelKnn { rounds, k, features: Vec::new(), labels: Vec::new(), num_classes: 0 }
    }

    /// Memorizes the training graphs' WL features.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent input.
    pub fn fit(&mut self, graphs: &[&Acfg], labels: &[usize], num_classes: usize) {
        assert_eq!(graphs.len(), labels.len(), "one label per graph");
        assert!(!graphs.is_empty(), "cannot fit on empty data");
        self.features = graphs.iter().map(|g| wl_features(g, self.rounds)).collect();
        self.labels = labels.to_vec();
        self.num_classes = num_classes;
    }

    /// Similarity-weighted class vote over the `k` nearest neighbours,
    /// normalized into pseudo-probabilities.
    pub fn predict_proba(&self, acfg: &Acfg) -> Vec<f64> {
        assert!(!self.features.is_empty(), "WL-kNN is not fitted");
        let query = wl_features(acfg, self.rounds);
        let mut sims: Vec<(f64, usize)> = self
            .features
            .iter()
            .zip(&self.labels)
            .map(|(f, &l)| (wl_kernel(&query, f), l))
            .collect();
        sims.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut votes = vec![1e-9; self.num_classes];
        for &(sim, label) in sims.iter().take(self.k) {
            votes[label] += sim.max(0.0);
        }
        let total: f64 = votes.iter().sum();
        votes.iter().map(|v| v / total).collect()
    }

    /// Most similar class.
    pub fn predict(&self, acfg: &Acfg) -> usize {
        magic_tensor::argmax(&self.predict_proba(acfg)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_graph::{DiGraph, NUM_ATTRIBUTES};
    use magic_tensor::{Rng64, Tensor};

    fn chain_acfg(n: usize, attr_scale: f32, seed: u64) -> Acfg {
        let mut rng = Rng64::new(seed);
        let mut g = DiGraph::new(n);
        for v in 0..n - 1 {
            g.add_edge(v, v + 1);
        }
        let attrs = Tensor::rand_uniform([n, NUM_ATTRIBUTES], 0.0, attr_scale, &mut rng);
        Acfg::new(g, attrs)
    }

    fn loop_acfg(n: usize, attr_scale: f32, seed: u64) -> Acfg {
        let mut rng = Rng64::new(seed);
        let mut g = DiGraph::new(n);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n);
        }
        let attrs = Tensor::rand_uniform([n, NUM_ATTRIBUTES], 0.0, attr_scale, &mut rng);
        Acfg::new(g, attrs)
    }

    #[test]
    fn kernel_of_graph_with_itself_is_one() {
        let g = chain_acfg(6, 3.0, 1);
        let f = wl_features(&g, 3);
        assert!((wl_kernel(&f, &f) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kernel_is_symmetric_and_bounded() {
        let a = wl_features(&chain_acfg(6, 3.0, 1), 3);
        let b = wl_features(&loop_acfg(6, 3.0, 2), 3);
        let kab = wl_kernel(&a, &b);
        let kba = wl_kernel(&b, &a);
        assert!((kab - kba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&kab));
    }

    #[test]
    fn isomorphic_graphs_have_identical_features() {
        // Same chain, same attributes, vertices relabeled 0..n reversed.
        let mut g1 = DiGraph::new(4);
        g1.add_edge(0, 1);
        g1.add_edge(1, 2);
        g1.add_edge(2, 3);
        let mut g2 = DiGraph::new(4);
        g2.add_edge(3, 2);
        g2.add_edge(2, 1);
        g2.add_edge(1, 0);
        let attrs1 = Tensor::from_vec(
            (0..4 * NUM_ATTRIBUTES).map(|i| (i / NUM_ATTRIBUTES) as f32).collect(),
            [4, NUM_ATTRIBUTES],
        );
        let mut attrs2 = Tensor::zeros([4, NUM_ATTRIBUTES]);
        for v in 0..4 {
            attrs2.set_row(v, attrs1.row(3 - v));
        }
        let f1 = wl_features(&Acfg::new(g1, attrs1), 3);
        let f2 = wl_features(&Acfg::new(g2, attrs2), 3);
        assert!((wl_kernel(&f1, &f2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn knn_separates_structure_families() {
        // Family 0: chains with small attributes; family 1: cycles with
        // large attributes.
        let train: Vec<Acfg> = (0..6)
            .map(|i| chain_acfg(8, 1.0, i))
            .chain((0..6).map(|i| loop_acfg(8, 6.0, 100 + i)))
            .collect();
        let refs: Vec<&Acfg> = train.iter().collect();
        let labels: Vec<usize> = (0..12).map(|i| i / 6).collect();
        let mut knn = WlKernelKnn::new(3, 3);
        knn.fit(&refs, &labels, 2);
        assert_eq!(knn.predict(&chain_acfg(8, 1.0, 999)), 0);
        assert_eq!(knn.predict(&loop_acfg(8, 6.0, 998)), 1);
        let p = knn.predict_proba(&chain_acfg(8, 1.0, 997));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn unfitted_knn_panics() {
        WlKernelKnn::new(2, 1).predict(&chain_acfg(3, 1.0, 0));
    }
}
