//! Order statistics used to turn samples into reported values.

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile mean: the mean of the middle half of the values. Robust
/// to stalls like a median, but it moves smoothly where a median jumps
/// between the modes of a two-humped distribution.
pub fn midmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "midmean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile among 50, 90, 95, 99, 99.9 that still has at
/// least ten of `n` samples beyond it; 50 when even that has fewer.
pub fn highest_percentile(n: usize) -> f64 {
    // Per mille, in integers: 100 × (1 − 0.9) is not 10 in floating point.
    [999usize, 990, 950, 900]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) / 1000 >= 10)
        .map_or(50.0, |per_mille| per_mille as f64 / 10.0)
}

/// Jain's fairness index of per-tenant rates: 1.0 when all are equal,
/// 1/n when one tenant gets everything.
pub fn jain(rates: &[f64]) -> f64 {
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|r| r * r).sum();
    if sq == 0.0 {
        0.0
    } else {
        sum * sum / (rates.len() as f64 * sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_of_passes_ignores_one_slow_pass() {
        // Five per-pass throughputs, one taken in a slow window.
        assert_eq!(median(&[12.1e3, 12.4e3, 6.0e3, 12.2e3, 12.3e3]), 12.2e3);
    }

    #[test]
    fn midmean_drops_both_tails() {
        assert_eq!(midmean(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1000.0]), 4.5);
        assert_eq!(midmean(&[5.0]), 5.0);
        assert_eq!(midmean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[42], 99.0), 42);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), 50.0);
        assert_eq!(highest_percentile(100), 90.0);
        assert_eq!(highest_percentile(199), 90.0);
        assert_eq!(highest_percentile(200), 95.0);
        assert_eq!(highest_percentile(1_000), 99.0);
        assert_eq!(highest_percentile(10_000), 99.9);
    }

    #[test]
    fn jain_bounds() {
        assert!((jain(&[5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[10.0, 0.0]) - 0.5).abs() < 1e-12);
    }
}
