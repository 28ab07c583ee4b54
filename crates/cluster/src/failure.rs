//! Seeded failure injection.
//!
//! The paper's fault-tolerance story (§3, §4): "If a task fails for whatever
//! reason (such as node failure), the runtime tries to start the same task in
//! the same node, if it fails again, its restarted in another node." To
//! exercise that path deterministically we inject failures from a seeded
//! plan rather than from real hardware.
//!
//! Two mechanisms:
//! * **per-attempt task failures** — a hash of `(seed, task, attempt)`
//!   decides whether execution attempt `attempt` of `task` fails. Purely
//!   functional, so the threaded and simulated backends agree.
//! * **scheduled node failures** — "node `n` dies at virtual time `t`",
//!   killing everything running there and removing the node from the pool.

/// Deterministic failure oracle.
#[derive(Debug, Clone)]
pub struct FailureInjector {
    seed: u64,
    /// Probability in `[0, 1]` that any given task attempt fails.
    task_failure_rate: f64,
    /// Scheduled node deaths `(virtual time µs, node id)`.
    node_failures: Vec<(u64, u32)>,
    /// Forced task failures `(task id, attempt)`, 1-based attempt.
    forced: Vec<(u64, u32)>,
}

impl FailureInjector {
    /// No failures at all (the default for every experiment that doesn't
    /// study fault tolerance).
    pub fn none() -> Self {
        FailureInjector {
            seed: 0,
            task_failure_rate: 0.0,
            node_failures: Vec::new(),
            forced: Vec::new(),
        }
    }

    /// Fail each task attempt independently with probability `rate`.
    pub fn random(seed: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        FailureInjector {
            seed,
            task_failure_rate: rate,
            node_failures: Vec::new(),
            forced: Vec::new(),
        }
    }

    /// Add a scheduled node failure (chainable).
    pub fn with_node_failure(mut self, at_us: u64, node: u32) -> Self {
        self.node_failures.push((at_us, node));
        self.node_failures.sort_unstable();
        self
    }

    /// Force attempt `attempt` (1-based) of `task` to fail (chainable).
    /// Forcing attempts 1 and 2 reproduces the paper's "retry same node,
    /// then move node" escalation.
    pub fn with_task_failure(mut self, task: u64, attempt: u32) -> Self {
        self.forced.push((task, attempt));
        self
    }

    /// Whether execution attempt `attempt` (1-based) of `task` fails.
    pub fn attempt_fails(&self, task: u64, attempt: u32) -> bool {
        if self.forced.contains(&(task, attempt)) {
            return true;
        }
        if self.task_failure_rate <= 0.0 {
            return false;
        }
        // splitmix64 over (seed, task, attempt) → uniform in [0,1).
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(task.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(attempt as u64);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x as f64 / u64::MAX as f64) < self.task_failure_rate
    }

    /// Scheduled node failures in time order.
    pub fn node_failures(&self) -> &[(u64, u32)] {
        &self.node_failures
    }
}

impl Default for FailureInjector {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fails() {
        let f = FailureInjector::none();
        for task in 0..100 {
            for attempt in 1..4 {
                assert!(!f.attempt_fails(task, attempt));
            }
        }
    }

    #[test]
    fn forced_failures_hit_exactly_the_named_attempt() {
        let f = FailureInjector::none().with_task_failure(7, 1).with_task_failure(7, 2);
        assert!(f.attempt_fails(7, 1));
        assert!(f.attempt_fails(7, 2));
        assert!(!f.attempt_fails(7, 3), "third attempt succeeds");
        assert!(!f.attempt_fails(8, 1));
    }

    #[test]
    fn random_failures_are_deterministic_and_near_rate() {
        let f = FailureInjector::random(42, 0.25);
        let g = FailureInjector::random(42, 0.25);
        let n = 10_000;
        let fails = (0..n).filter(|&t| f.attempt_fails(t, 1)).count();
        let fails2 = (0..n).filter(|&t| g.attempt_fails(t, 1)).count();
        assert_eq!(fails, fails2, "same seed ⇒ same plan");
        let rate = fails as f64 / n as f64;
        assert!((0.2..0.3).contains(&rate), "empirical rate {rate}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FailureInjector::random(1, 0.5);
        let b = FailureInjector::random(2, 0.5);
        let diverges = (0..1000u64).any(|t| a.attempt_fails(t, 1) != b.attempt_fails(t, 1));
        assert!(diverges);
    }

    #[test]
    fn node_failures_sorted_and_queryable() {
        let f = FailureInjector::none().with_node_failure(500, 2).with_node_failure(100, 0);
        assert_eq!(f.node_failures(), &[(100, 0), (500, 2)]);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_rate_rejected() {
        let _ = FailureInjector::random(0, 1.5);
    }
}
