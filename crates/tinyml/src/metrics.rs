//! Evaluation metrics.

use crate::data::Dataset;
use crate::net::Model;

/// Fraction of `preds` equal to `labels`.
///
/// # Panics
/// Panics on length mismatch.
pub fn accuracy(preds: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(preds.len(), labels.len(), "prediction/label length mismatch");
    if preds.is_empty() {
        return 0.0;
    }
    let hits = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    hits as f64 / preds.len() as f64
}

/// Accuracy of `net` over a whole dataset.
pub fn evaluate(net: &(impl Model + ?Sized), data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    accuracy(&net.predict(&data.x), &data.y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Mlp;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[0], &[0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_length_mismatch_panics() {
        let _ = accuracy(&[1], &[1, 2]);
    }

    #[test]
    fn evaluate_runs_end_to_end() {
        let data = Dataset::synthetic_mnist(50, 3);
        let net = Mlp::new(data.dim(), &[8], data.n_classes, 1);
        let acc = evaluate(&net, &data);
        assert!((0.0..=1.0).contains(&acc));
    }
}
