//! Stratified K-fold splitting.

use magic_tensor::Rng64;

/// One cross-validation fold: training and validation index sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// Indices used for training (80% of the data in 5-fold CV).
    pub train: Vec<usize>,
    /// Indices held out for validation.
    pub validation: Vec<usize>,
}

/// Deterministic stratified K-fold split.
///
/// Each class's indices are shuffled (seeded) and dealt round-robin into
/// `k` buckets, so every fold preserves the class proportions — required
/// because both corpora are heavily imbalanced (Figs. 7–8).
///
/// # Panics
///
/// Panics if `k < 2` or `k` exceeds the number of samples.
pub fn stratified_kfold(labels: &[usize], k: usize, seed: u64) -> Vec<Fold> {
    assert!(k >= 2, "k-fold requires k >= 2");
    assert!(k <= labels.len(), "k larger than dataset");
    let num_classes = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut rng = Rng64::new(seed);

    // Deal each class round-robin into k buckets.
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); k];
    for class in 0..num_classes {
        let mut idxs: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == class)
            .map(|(i, _)| i)
            .collect();
        rng.shuffle(&mut idxs);
        // Rotate the starting bucket per class so small classes do not
        // all pile into bucket 0.
        let offset = rng.next_below(k);
        for (j, idx) in idxs.into_iter().enumerate() {
            buckets[(j + offset) % k].push(idx);
        }
    }

    (0..k)
        .map(|fold| {
            let validation = buckets[fold].clone();
            let mut train: Vec<usize> = buckets
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != fold)
                .flat_map(|(_, b)| b.iter().copied())
                .collect();
            rng.shuffle(&mut train);
            Fold { train, validation }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> Vec<usize> {
        // 20 of class 0, 10 of class 1, 5 of class 2.
        let mut l = vec![0; 20];
        l.extend(vec![1; 10]);
        l.extend(vec![2; 5]);
        l
    }

    #[test]
    fn folds_partition_the_dataset() {
        let labels = labels();
        let folds = stratified_kfold(&labels, 5, 7);
        assert_eq!(folds.len(), 5);
        let mut seen = vec![0usize; labels.len()];
        for f in &folds {
            for &i in &f.validation {
                seen[i] += 1;
            }
            // train ∪ validation covers everything exactly once.
            assert_eq!(f.train.len() + f.validation.len(), labels.len());
            let mut all: Vec<usize> = f.train.iter().chain(&f.validation).copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..labels.len()).collect::<Vec<_>>());
        }
        // Every sample is validated exactly once across folds.
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn folds_preserve_class_proportions() {
        let labels = labels();
        let folds = stratified_kfold(&labels, 5, 7);
        for f in &folds {
            let count0 = f.validation.iter().filter(|&&i| labels[i] == 0).count();
            let count2 = f.validation.iter().filter(|&&i| labels[i] == 2).count();
            assert_eq!(count0, 4, "each fold validates 4 of the 20 class-0");
            assert!(count2 <= 2, "class 2 spread across folds");
        }
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let labels = labels();
        assert_eq!(stratified_kfold(&labels, 5, 1), stratified_kfold(&labels, 5, 1));
        assert_ne!(
            stratified_kfold(&labels, 5, 1)[0].validation,
            stratified_kfold(&labels, 5, 2)[0].validation
        );
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn rejects_k_of_one() {
        stratified_kfold(&[0, 1], 1, 0);
    }
}
