//! Opcode-sequence classifier — the stand-in for the Strand gene-sequence
//! system [15] of Table IV.
//!
//! Strand classifies malware by similarity over instruction-sequence
//! "genes". Here, each ACFG is linearized in BFS order into a sequence of
//! per-block dominant instruction categories; hashed category n-grams
//! form a bag-of-genes vector that is matched against per-family
//! centroids by cosine similarity.

use magic_graph::Acfg;

/// Dimensionality of the hashed n-gram space.
const BUCKETS: usize = 256;

/// Linearizes an ACFG into its per-block dominant-category sequence.
///
/// Categories are the Table I channels 1..8 (transfer, call, arithmetic,
/// compare, mov, termination, data declaration), with 7 for "none".
pub fn category_sequence(acfg: &Acfg) -> Vec<u8> {
    let order = acfg.graph().bfs_order(0);
    order
        .into_iter()
        .map(|v| {
            let row = acfg.attributes().row(v);
            // Channels 1..=7 are the category counts.
            let mut best = 7u8;
            let mut best_count = 0.0f32;
            for (i, &c) in row[1..8].iter().enumerate() {
                if c > best_count {
                    best_count = c;
                    best = i as u8;
                }
            }
            best
        })
        .collect()
}

/// Hashed n-gram profile of a category sequence.
fn ngram_profile(seq: &[u8], n: usize) -> Vec<f64> {
    let mut profile = vec![0.0; BUCKETS];
    if seq.len() < n {
        return profile;
    }
    for window in seq.windows(n) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in window {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        profile[(h % BUCKETS as u64) as usize] += 1.0;
    }
    // L2 normalize for cosine similarity.
    let norm: f64 = profile.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for p in &mut profile {
            *p /= norm;
        }
    }
    profile
}

/// Nearest-centroid classifier over hashed n-gram profiles.
#[derive(Debug, Clone)]
pub struct SequenceClassifier {
    ngram: usize,
    centroids: Vec<Vec<f64>>,
}

impl SequenceClassifier {
    /// Creates an unfitted classifier over `ngram`-grams.
    ///
    /// # Panics
    ///
    /// Panics if `ngram == 0`.
    pub fn new(ngram: usize) -> Self {
        assert!(ngram > 0, "n-gram width must be positive");
        SequenceClassifier { ngram, centroids: Vec::new() }
    }

    /// Fits family centroids from labeled ACFGs.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent input.
    pub fn fit(&mut self, acfgs: &[&Acfg], labels: &[usize], num_classes: usize) {
        assert_eq!(acfgs.len(), labels.len(), "one label per graph");
        let mut centroids = vec![vec![0.0; BUCKETS]; num_classes];
        let mut counts = vec![0usize; num_classes];
        for (acfg, &label) in acfgs.iter().zip(labels) {
            let profile = ngram_profile(&category_sequence(acfg), self.ngram);
            for (c, p) in centroids[label].iter_mut().zip(&profile) {
                *c += p;
            }
            counts[label] += 1;
        }
        for (centroid, count) in centroids.iter_mut().zip(&counts) {
            let norm: f64 = centroid.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 0.0 && *count > 0 {
                for c in centroid.iter_mut() {
                    *c /= norm;
                }
            }
        }
        self.centroids = centroids;
    }

    /// Cosine similarities to every family centroid, softmax-normalized
    /// into pseudo-probabilities.
    pub fn predict_proba(&self, acfg: &Acfg) -> Vec<f64> {
        assert!(!self.centroids.is_empty(), "sequence classifier is not fitted");
        let profile = ngram_profile(&category_sequence(acfg), self.ngram);
        let sims: Vec<f64> = self
            .centroids
            .iter()
            .map(|c| c.iter().zip(&profile).map(|(a, b)| a * b).sum::<f64>())
            .collect();
        // Sharpened softmax over similarities.
        let m = sims.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = sims.iter().map(|s| ((s - m) * 8.0).exp()).collect();
        let total: f64 = exps.iter().sum();
        exps.iter().map(|e| e / total).collect()
    }

    /// Most similar family.
    pub fn predict(&self, acfg: &Acfg) -> usize {
        magic_tensor::argmax(&self.predict_proba(acfg)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_graph::{DiGraph, NUM_ATTRIBUTES};
    use magic_tensor::{Rng64, Tensor};

    /// Builds an ACFG whose blocks are dominated by `category`.
    fn mono_acfg(category: usize, n: usize, seed: u64) -> Acfg {
        let mut rng = Rng64::new(seed);
        let mut g = DiGraph::new(n);
        for v in 0..n - 1 {
            g.add_edge(v, v + 1);
        }
        let mut attrs = Tensor::zeros([n, NUM_ATTRIBUTES]);
        for v in 0..n {
            attrs.set2(v, category, 3.0 + rng.next_below(3) as f32);
            attrs.set2(v, 8, 5.0);
            attrs.set2(v, 10, 5.0);
        }
        Acfg::new(g, attrs)
    }

    #[test]
    fn category_sequence_picks_dominant_channel() {
        let acfg = mono_acfg(3, 5, 1); // arithmetic-dominant
        let seq = category_sequence(&acfg);
        assert_eq!(seq.len(), 5);
        // Channel 3 is index 2 within the 1..8 category window.
        assert!(seq.iter().all(|&c| c == 2));
    }

    #[test]
    fn classifier_separates_category_dominated_families() {
        let class0: Vec<Acfg> = (0..8).map(|i| mono_acfg(3, 10, i)).collect();
        let class1: Vec<Acfg> = (0..8).map(|i| mono_acfg(5, 10, 100 + i)).collect();
        let refs: Vec<&Acfg> = class0.iter().chain(class1.iter()).collect();
        let labels: Vec<usize> = (0..16).map(|i| i / 8).collect();
        let mut clf = SequenceClassifier::new(3);
        clf.fit(&refs, &labels, 2);
        assert_eq!(clf.predict(&mono_acfg(3, 10, 999)), 0);
        assert_eq!(clf.predict(&mono_acfg(5, 10, 998)), 1);
    }

    #[test]
    fn proba_is_normalized() {
        let class0 = mono_acfg(1, 6, 0);
        let mut clf = SequenceClassifier::new(2);
        clf.fit(&[&class0], &[0], 2);
        let p = clf.predict_proba(&class0);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn short_sequences_do_not_panic() {
        let tiny = mono_acfg(2, 2, 4);
        let mut clf = SequenceClassifier::new(5);
        clf.fit(&[&tiny], &[0], 1);
        assert_eq!(clf.predict(&tiny), 0);
    }
}
