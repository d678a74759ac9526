//! CART decision and regression trees: the shared substrate of the
//! random forest and gradient boosting baselines.

use magic_tensor::Rng64;

/// A binary split: `feature <= threshold` goes left.
#[derive(Debug, Clone, PartialEq)]
struct Split {
    feature: usize,
    threshold: f64,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf { value: Vec<f64> },
    Internal { split: Split, left: usize, right: usize },
}

/// Shared tree storage: nodes in a flat arena.
#[derive(Debug, Clone, Default)]
struct Arena {
    nodes: Vec<Node>,
}

impl Arena {
    fn predict(&self, x: &[f64]) -> &[f64] {
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { value } => return value,
                Node::Internal { split, left, right } => {
                    cur = if x[split.feature] <= split.threshold { *left } else { *right };
                }
            }
        }
    }
}

/// Split-finding configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GrowConfig {
    pub max_depth: usize,
    pub min_samples_split: usize,
    /// Number of candidate features per split (`0` = all).
    pub feature_subsample: usize,
}

/// Finds the best split of `idx` by the supplied impurity function.
/// `impurity(indices)` must return the weighted impurity of a candidate
/// child partition. Returns `None` when no split improves.
fn best_split(
    x: &[Vec<f64>],
    idx: &[usize],
    candidates: &[usize],
    score: &mut dyn FnMut(&[usize], &[usize]) -> f64,
) -> Option<(Split, Vec<usize>, Vec<usize>)> {
    let mut best: Option<(f64, Split)> = None;
    for &feature in candidates {
        // Sort indices by the feature value; evaluate midpoints between
        // distinct consecutive values.
        let mut sorted: Vec<usize> = idx.to_vec();
        sorted.sort_by(|&a, &b| {
            x[a][feature]
                .partial_cmp(&x[b][feature])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for w in 1..sorted.len() {
            let lo = x[sorted[w - 1]][feature];
            let hi = x[sorted[w]][feature];
            if hi <= lo {
                continue;
            }
            let threshold = (lo + hi) / 2.0;
            let (left, right) = sorted.split_at(w);
            let s = score(left, right);
            if best.as_ref().is_none_or(|(b, _)| s < *b) {
                best = Some((s, Split { feature, threshold }));
            }
        }
    }
    let (_, split) = best?;
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for &i in idx {
        if x[i][split.feature] <= split.threshold {
            left.push(i);
        } else {
            right.push(i);
        }
    }
    if left.is_empty() || right.is_empty() {
        return None;
    }
    Some((split, left, right))
}

fn pick_candidates(num_features: usize, config: GrowConfig, rng: &mut Rng64) -> Vec<usize> {
    if config.feature_subsample == 0 || config.feature_subsample >= num_features {
        (0..num_features).collect()
    } else {
        let mut all: Vec<usize> = (0..num_features).collect();
        rng.shuffle(&mut all);
        all.truncate(config.feature_subsample);
        all
    }
}

/// A Gini-impurity classification tree (CART).
///
/// Leaves store class probability distributions.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    arena: Arena,
    config: GrowConfig,
    num_classes: usize,
}

impl DecisionTree {
    /// Creates an unfitted tree.
    pub fn new(max_depth: usize, min_samples_split: usize) -> Self {
        DecisionTree {
            arena: Arena::default(),
            config: GrowConfig { max_depth, min_samples_split, feature_subsample: 0 },
            num_classes: 0,
        }
    }

    pub(crate) fn with_feature_subsample(mut self, m: usize) -> Self {
        self.config.feature_subsample = m;
        self
    }

    /// Fits on `(x, y)`; `rng` drives feature subsampling (pass any seed
    /// when subsampling is off).
    ///
    /// # Panics
    ///
    /// Panics on empty input or label/feature inconsistencies.
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[usize], num_classes: usize, rng: &mut Rng64) {
        assert!(!x.is_empty(), "cannot fit on empty data");
        assert_eq!(x.len(), y.len(), "one label per row");
        self.num_classes = num_classes;
        self.arena = Arena::default();
        let idx: Vec<usize> = (0..x.len()).collect();
        self.grow(x, y, &idx, 0, rng);
    }

    fn class_distribution(&self, y: &[usize], idx: &[usize]) -> Vec<f64> {
        let mut dist = vec![0.0; self.num_classes];
        for &i in idx {
            dist[y[i]] += 1.0;
        }
        let total: f64 = dist.iter().sum();
        if total > 0.0 {
            for d in &mut dist {
                *d /= total;
            }
        }
        dist
    }

    fn gini(&self, y: &[usize], idx: &[usize]) -> f64 {
        let dist = self.class_distribution(y, idx);
        1.0 - dist.iter().map(|p| p * p).sum::<f64>()
    }

    fn grow(&mut self, x: &[Vec<f64>], y: &[usize], idx: &[usize], depth: usize, rng: &mut Rng64) -> usize {
        let make_leaf = |tree: &mut Self| {
            let value = tree.class_distribution(y, idx);
            tree.arena.nodes.push(Node::Leaf { value });
            tree.arena.nodes.len() - 1
        };
        if depth >= self.config.max_depth
            || idx.len() < self.config.min_samples_split
            || self.gini(y, idx) == 0.0
        {
            return make_leaf(self);
        }
        let candidates = pick_candidates(x[0].len(), self.config, rng);
        let mut score = |l: &[usize], r: &[usize]| {
            let n = (l.len() + r.len()) as f64;
            self.gini(y, l) * l.len() as f64 / n + self.gini(y, r) * r.len() as f64 / n
        };
        match best_split(x, idx, &candidates, &mut score) {
            None => make_leaf(self),
            Some((split, left_idx, right_idx)) => {
                // Reserve our slot before growing children.
                self.arena.nodes.push(Node::Leaf { value: Vec::new() });
                let slot = self.arena.nodes.len() - 1;
                let left = self.grow(x, y, &left_idx, depth + 1, rng);
                let right = self.grow(x, y, &right_idx, depth + 1, rng);
                self.arena.nodes[slot] = Node::Internal { split, left, right };
                slot
            }
        }
    }

    /// Class probability distribution for one sample.
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        assert!(!self.arena.nodes.is_empty(), "tree is not fitted");
        self.arena.predict(x).to_vec()
    }

    /// Most probable class for one sample.
    pub fn predict(&self, x: &[f64]) -> usize {
        magic_tensor::argmax(&self.predict_proba(x)).unwrap_or(0)
    }
}

/// A variance-reduction regression tree, used as the weak learner of
/// [`crate::GradientBoosting`].
#[derive(Debug, Clone)]
pub struct RegressionTree {
    arena: Arena,
    config: GrowConfig,
}

impl RegressionTree {
    /// Creates an unfitted tree.
    pub fn new(max_depth: usize, min_samples_split: usize) -> Self {
        RegressionTree {
            arena: Arena::default(),
            config: GrowConfig { max_depth, min_samples_split, feature_subsample: 0 },
        }
    }

    /// Fits on `(x, targets)` minimizing squared error.
    ///
    /// # Panics
    ///
    /// Panics on empty or inconsistent input.
    pub fn fit(&mut self, x: &[Vec<f64>], targets: &[f64], rng: &mut Rng64) {
        assert!(!x.is_empty(), "cannot fit on empty data");
        assert_eq!(x.len(), targets.len(), "one target per row");
        self.arena = Arena::default();
        let idx: Vec<usize> = (0..x.len()).collect();
        self.grow(x, targets, &idx, 0, rng);
    }

    fn sse(targets: &[f64], idx: &[usize]) -> f64 {
        if idx.is_empty() {
            return 0.0;
        }
        let mean: f64 = idx.iter().map(|&i| targets[i]).sum::<f64>() / idx.len() as f64;
        idx.iter().map(|&i| (targets[i] - mean).powi(2)).sum()
    }

    fn grow(&mut self, x: &[Vec<f64>], targets: &[f64], idx: &[usize], depth: usize, rng: &mut Rng64) -> usize {
        let make_leaf = |tree: &mut Self| {
            let mean: f64 = idx.iter().map(|&i| targets[i]).sum::<f64>() / idx.len().max(1) as f64;
            tree.arena.nodes.push(Node::Leaf { value: vec![mean] });
            tree.arena.nodes.len() - 1
        };
        if depth >= self.config.max_depth
            || idx.len() < self.config.min_samples_split
            || Self::sse(targets, idx) < 1e-12
        {
            return make_leaf(self);
        }
        let candidates = pick_candidates(x[0].len(), self.config, rng);
        let mut score = |l: &[usize], r: &[usize]| Self::sse(targets, l) + Self::sse(targets, r);
        match best_split(x, idx, &candidates, &mut score) {
            None => make_leaf(self),
            Some((split, left_idx, right_idx)) => {
                self.arena.nodes.push(Node::Leaf { value: Vec::new() });
                let slot = self.arena.nodes.len() - 1;
                let left = self.grow(x, targets, &left_idx, depth + 1, rng);
                let right = self.grow(x, targets, &right_idx, depth + 1, rng);
                self.arena.nodes[slot] = Node::Internal { split, left, right };
                slot
            }
        }
    }

    /// Predicted value for one sample.
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert!(!self.arena.nodes.is_empty(), "tree is not fitted");
        self.arena.predict(x)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..5 {
                    x.push(vec![a as f64, b as f64]);
                    y.push(a ^ b);
                }
            }
        }
        (x, y)
    }

    #[test]
    fn decision_tree_learns_xor() {
        let (x, y) = xor_data();
        let mut tree = DecisionTree::new(4, 2);
        tree.fit(&x, &y, 2, &mut Rng64::new(0));
        for (xi, yi) in x.iter().zip(&y) {
            assert_eq!(tree.predict(xi), *yi);
        }
    }

    #[test]
    fn decision_tree_respects_max_depth() {
        let (x, y) = xor_data();
        let mut stump = DecisionTree::new(1, 2);
        stump.fit(&x, &y, 2, &mut Rng64::new(0));
        // A depth-1 stump cannot solve XOR.
        let errors = x.iter().zip(&y).filter(|(xi, yi)| stump.predict(xi) != **yi).count();
        assert!(errors > 0);
    }

    #[test]
    fn proba_leaves_sum_to_one() {
        let (x, y) = xor_data();
        let mut tree = DecisionTree::new(4, 2);
        tree.fit(&x, &y, 2, &mut Rng64::new(0));
        let p = tree.predict_proba(&[0.0, 1.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let t: Vec<f64> = (0..20).map(|i| if i < 10 { -1.0 } else { 2.0 }).collect();
        let mut tree = RegressionTree::new(3, 2);
        tree.fit(&x, &t, &mut Rng64::new(0));
        assert!((tree.predict(&[3.0]) + 1.0).abs() < 1e-9);
        assert!((tree.predict(&[15.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn constant_targets_give_single_leaf() {
        let x: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let t = vec![7.0; 5];
        let mut tree = RegressionTree::new(5, 2);
        tree.fit(&x, &t, &mut Rng64::new(0));
        assert_eq!(tree.predict(&[100.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn unfitted_tree_panics() {
        DecisionTree::new(3, 2).predict(&[0.0]);
    }
}
