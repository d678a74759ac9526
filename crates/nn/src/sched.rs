//! Learning-rate scheduling.
//!
//! Section V-B of the paper: "Once the validation loss increases for two
//! continuous epochs, we decrease the learning rate by a factor of ten to
//! prevent the model from overfitting."

use crate::optim::Adam;

/// Reduce-on-plateau schedule: divides the learning rate by `factor`
/// whenever the monitored validation loss has risen for `patience`
/// consecutive epochs.
#[derive(Debug, Clone)]
pub struct ReduceLrOnPlateau {
    factor: f32,
    patience: usize,
    rising_epochs: usize,
    last_loss: Option<f32>,
    min_lr: f32,
}

impl ReduceLrOnPlateau {
    /// Creates the paper's schedule: factor 10, patience 2.
    pub fn paper_default() -> Self {
        Self::new(10.0, 2, 1e-7)
    }

    /// Creates a schedule dividing by `factor` after `patience` rising
    /// epochs, never going below `min_lr`.
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 1` or `patience == 0`.
    pub fn new(factor: f32, patience: usize, min_lr: f32) -> Self {
        assert!(factor > 1.0, "factor must exceed 1");
        assert!(patience > 0, "patience must be positive");
        ReduceLrOnPlateau {
            factor,
            patience,
            rising_epochs: 0,
            last_loss: None,
            min_lr,
        }
    }

    /// Records this epoch's validation loss; lowers the optimizer's
    /// learning rate if the plateau condition fires. Returns `true` when a
    /// reduction happened.
    pub fn observe(&mut self, validation_loss: f32, optimizer: &mut Adam) -> bool {
        let rising = match self.last_loss {
            Some(prev) => validation_loss > prev,
            None => false,
        };
        self.last_loss = Some(validation_loss);
        if rising {
            self.rising_epochs += 1;
        } else {
            self.rising_epochs = 0;
        }
        if self.rising_epochs >= self.patience {
            self.rising_epochs = 0;
            let new_lr = (optimizer.learning_rate() / self.factor).max(self.min_lr);
            optimizer.set_learning_rate(new_lr);
            return true;
        }
        false
    }

    /// Consecutive rising epochs seen so far.
    pub fn rising_epochs(&self) -> usize {
        self.rising_epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    #[test]
    fn two_rising_epochs_cut_lr_by_ten() {
        let mut opt = Adam::new(0.1, 0.0);
        let mut sched = ReduceLrOnPlateau::paper_default();
        assert!(!sched.observe(1.0, &mut opt));
        assert!(!sched.observe(1.1, &mut opt)); // rising once
        assert!(sched.observe(1.2, &mut opt)); // rising twice -> cut
        assert!((opt.learning_rate() - 0.01).abs() < 1e-8);
    }

    #[test]
    fn improvement_resets_the_counter() {
        let mut opt = Adam::new(0.1, 0.0);
        let mut sched = ReduceLrOnPlateau::paper_default();
        sched.observe(1.0, &mut opt);
        sched.observe(1.1, &mut opt); // rising
        sched.observe(0.9, &mut opt); // improved: reset
        sched.observe(1.0, &mut opt); // rising once
        assert_eq!(sched.rising_epochs(), 1);
        assert!((opt.learning_rate() - 0.1).abs() < 1e-8);
    }

    #[test]
    fn lr_never_drops_below_min() {
        let mut opt = Adam::new(1e-6, 0.0);
        let mut sched = ReduceLrOnPlateau::new(10.0, 1, 1e-7);
        sched.observe(1.0, &mut opt);
        sched.observe(2.0, &mut opt);
        sched.observe(3.0, &mut opt);
        assert!(opt.learning_rate() >= 1e-7);
    }

    #[test]
    fn first_observation_never_fires() {
        let mut opt = Adam::new(0.1, 0.0);
        let mut sched = ReduceLrOnPlateau::new(10.0, 1, 0.0);
        assert!(!sched.observe(f32::INFINITY, &mut opt));
    }
}
