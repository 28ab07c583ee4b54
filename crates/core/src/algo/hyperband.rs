//! Successive halving / Hyperband budget scheduling.
//!
//! An aggressive form of the early stopping the paper's intro lists among
//! the "essential features" of an ideal HPO tool: start many configurations
//! on a small epoch budget, keep the top `1/eta` fraction, multiply their
//! budget by `eta`, repeat. One such schedule is a [`Bracket`]; Hyperband
//! runs several with different aggressiveness to hedge against slow starters.
//!
//! The scheduling logic here is pure (no runtime dependency);
//! [`crate::runner::BracketSource`] feeds a bracket to
//! [`crate::runner::HpoRunner::execute`], which runs it on rcompss.

/// One rung of a bracket: evaluate `n_configs` at `budget` epochs each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// Configurations evaluated at this rung.
    pub n_configs: usize,
    /// Epoch budget per configuration.
    pub budget: u32,
}

/// A successive-halving bracket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bracket {
    /// Rungs from cheapest to most expensive.
    pub rungs: Vec<Rung>,
}

impl Bracket {
    /// Build a bracket that starts with `n_configs` at `min_budget` epochs
    /// and halves by `eta` until `max_budget` is reached (budget capped at
    /// `max_budget`).
    ///
    /// # Panics
    /// Panics if `eta < 2`, `min_budget == 0`, or `max_budget < min_budget`.
    pub fn new(n_configs: usize, min_budget: u32, max_budget: u32, eta: u32) -> Self {
        assert!(eta >= 2, "eta must be ≥ 2");
        assert!(min_budget >= 1, "min_budget must be ≥ 1");
        assert!(max_budget >= min_budget, "max_budget < min_budget");
        let mut rungs = Vec::new();
        let mut n = n_configs;
        let mut b = min_budget;
        loop {
            rungs.push(Rung { n_configs: n.max(1), budget: b.min(max_budget) });
            if b >= max_budget || n <= 1 {
                break;
            }
            n /= eta as usize;
            b = b.saturating_mul(eta);
        }
        Bracket { rungs }
    }

    /// Total training epochs spent by the bracket (work measure).
    pub fn total_epochs(&self) -> u64 {
        self.rungs.iter().map(|r| r.n_configs as u64 * r.budget as u64).sum()
    }

    /// Epochs rung `i` trains per config when promotion **resumes** the
    /// promoted trial from its previous-rung snapshot instead of
    /// retraining: the budget delta over the rung below (the full budget
    /// at rung 0). This is how [`crate::runner::Evaluator::Stages`]
    /// evaluates a bracket (ASHA-style).
    pub fn resume_epochs(&self, rung: usize) -> u32 {
        let b = self.rungs[rung].budget;
        match rung {
            0 => b,
            i => b.saturating_sub(self.rungs[i - 1].budget),
        }
    }

    /// Total training epochs of the bracket under snapshot-resume
    /// promotion — the work [`Bracket::total_epochs`] shrinks to when no
    /// promoted trial repeats its own earlier epochs.
    pub fn total_epochs_resumed(&self) -> u64 {
        self.rungs
            .iter()
            .enumerate()
            .map(|(i, r)| r.n_configs as u64 * u64::from(self.resume_epochs(i)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bracket_halves_configs_and_grows_budget() {
        let b = Bracket::new(27, 2, 50, 3);
        let shape: Vec<(usize, u32)> = b.rungs.iter().map(|r| (r.n_configs, r.budget)).collect();
        assert_eq!(shape, vec![(27, 2), (9, 6), (3, 18), (1, 50)]);
    }

    #[test]
    fn bracket_work_is_far_below_full_grid() {
        // 27 configs × 50 epochs = 1350 epoch-units for exhaustive search;
        // the bracket spends a fraction.
        let b = Bracket::new(27, 2, 50, 3);
        assert!(b.total_epochs() < 1350 / 3, "SH total {}", b.total_epochs());
    }

    #[test]
    fn resume_epochs_are_budget_deltas() {
        let b = Bracket::new(27, 2, 50, 3);
        // budgets 2, 6, 18, 50 → deltas 2, 4, 12, 32
        let deltas: Vec<u32> = (0..b.rungs.len()).map(|i| b.resume_epochs(i)).collect();
        assert_eq!(deltas, vec![2, 4, 12, 32]);
        // resumed work: every config's epochs are counted exactly once
        // along its deepest path — strictly less than retraining
        assert!(b.total_epochs_resumed() < b.total_epochs());
        assert_eq!(b.total_epochs_resumed(), 27 * 2 + 9 * 4 + 3 * 12 + 32);
        // the single winner still reaches the full max budget
        let along_winner: u64 = (0..b.rungs.len()).map(|i| u64::from(b.resume_epochs(i))).sum();
        assert_eq!(along_winner, 50);
    }

    #[test]
    fn single_config_bracket() {
        let b = Bracket::new(1, 10, 10, 2);
        assert_eq!(b.rungs, vec![Rung { n_configs: 1, budget: 10 }]);
    }

    #[test]
    fn budget_caps_at_max() {
        let b = Bracket::new(8, 30, 50, 2);
        assert!(b.rungs.iter().all(|r| r.budget <= 50));
        assert_eq!(b.rungs.last().unwrap().budget, 50);
    }

    #[test]
    #[should_panic(expected = "eta")]
    fn eta_one_rejected() {
        let _ = Bracket::new(4, 1, 8, 1);
    }
}
