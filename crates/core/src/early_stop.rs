//! Early stopping.
//!
//! The paper (§6.2): "For such task, early stopping is of paramount
//! significance as it makes no sense to continue with other tasks after one
//! has achieved the desired accuracy." One target serves two levels:
//!
//! * **within a trial** — stop training once the validation accuracy
//!   reaches the target;
//! * **across trials** — once any completed experiment reaches the target,
//!   the runner stops launching further waves.

/// Early-stopping criterion: a target validation accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStop {
    /// Stop when validation accuracy reaches this value.
    pub target_accuracy: f64,
}

impl EarlyStop {
    /// Stop once validation accuracy reaches `target`.
    pub fn at_accuracy(target: f64) -> Self {
        EarlyStop { target_accuracy: target }
    }

    /// Whether an accuracy satisfies the target.
    pub fn target_reached(&self, accuracy: f64) -> bool {
        accuracy >= self.target_accuracy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_stops_immediately_when_reached() {
        let es = EarlyStop::at_accuracy(0.9);
        assert!(!es.target_reached(0.5));
        assert!(!es.target_reached(0.89));
        assert!(es.target_reached(0.9));
        assert!(es.target_reached(0.95));
    }
}
