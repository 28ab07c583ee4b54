//! Property tests for the NTP-style clock-offset estimator: under any
//! simulated skew and any asymmetric network delay, the recovered offset is
//! within RTT/2 of the true offset (the classic NTP error bound).

use paratrace::clock::{estimate_offset, ClockSync};
use proptest::prelude::*;

/// Simulate one probe exchange: the driver clock reads `t0` at send, each
/// direction takes `d_fwd`/`d_back` µs, the worker thinks for `think` µs,
/// and the worker clock runs `offset` µs ahead of the driver's.
fn probe(t0: u64, offset: i64, d_fwd: u64, d_back: u64, think: u64) -> (u64, u64, u64, u64) {
    let t1 = ((t0 + d_fwd) as i64 + offset) as u64;
    let t2 = t1 + think;
    let t3 = (t2 as i64 - offset) as u64 + d_back;
    (t0, t1, t2, t3)
}

proptest! {
    /// |estimated − true| ≤ RTT/2 for any skew and any delay asymmetry
    /// (+1 µs slack for integer division).
    #[test]
    fn offset_recovered_within_half_rtt(
        t0 in 1_000_000_000_000u64..2_000_000_000_000,
        offset in -1_000_000_000i64..1_000_000_000,
        d_fwd in 0u64..200_000,
        d_back in 0u64..200_000,
        think in 0u64..20_000,
    ) {
        let (t0, t1, t2, t3) = probe(t0, offset, d_fwd, d_back, think);
        let s = estimate_offset(t0, t1, t2, t3);
        prop_assert_eq!(s.rtt_us, d_fwd + d_back, "RTT excludes remote think time");
        let err = (s.offset_us - offset).abs();
        prop_assert!(
            err <= (s.rtt_us / 2) as i64 + 1,
            "error {} exceeds rtt/2 = {}", err, s.rtt_us / 2
        );
    }

    /// Symmetric delay recovers the offset exactly (±1 for odd RTTs).
    #[test]
    fn symmetric_delay_is_exact(
        t0 in 1_000_000_000_000u64..2_000_000_000_000,
        offset in -1_000_000_000i64..1_000_000_000,
        d in 0u64..200_000,
        think in 0u64..20_000,
    ) {
        let (t0, t1, t2, t3) = probe(t0, offset, d, d, think);
        let s = estimate_offset(t0, t1, t2, t3);
        prop_assert!((s.offset_us - offset).abs() <= 1);
    }

    /// Feeding many noisy probes through [`ClockSync`], the retained best
    /// sample honours the error bound of the *smallest* observed RTT — a
    /// congested probe can never evict a clean one.
    #[test]
    fn clock_sync_error_bounded_by_min_rtt(
        offset in -1_000_000_000i64..1_000_000_000,
        delays in proptest::collection::vec((0u64..500_000, 0u64..500_000, 0u64..5_000), 1..20),
    ) {
        let mut cs = ClockSync::default();
        let mut clock = 1_000_000_000_000u64;
        let mut min_rtt = u64::MAX;
        for &(d_fwd, d_back, think) in &delays {
            let (t0, t1, t2, t3) = probe(clock, offset, d_fwd, d_back, think);
            cs.observe(t0, t1, t2, t3);
            min_rtt = min_rtt.min(d_fwd + d_back);
            clock += 200_000 + d_fwd + d_back + think;
        }
        prop_assert_eq!(cs.rtt_us(), min_rtt);
        prop_assert_eq!(cs.samples(), delays.len() as u64);
        let err = (cs.offset_us() - offset).abs();
        prop_assert!(err <= (min_rtt / 2) as i64 + 1);
    }
}
