//! Clock alignment across nodes.
//!
//! A worker stamps its `Done` frames on its own clock (µs since the
//! connection's epoch), so an execution span cannot be drawn next to driver
//! records until it is rebased onto the driver timeline. This module is the
//! estimator that makes the rebase possible: [`estimate_offset`] /
//! [`ClockSync`] recover offset and round trip, NTP-style, from the four
//! timestamps a `Heartbeat`/`HeartbeatAck` exchange yields. The recovered
//! offset is accurate to within half the round trip (the classic NTP bound),
//! so the driver keeps the sample with the *smallest* RTT — the probe least
//! distorted by queueing.
//!
//! ```
//! use paratrace::clock::estimate_offset;
//!
//! // Driver sends at t0=100; the worker clock runs 1_000 ahead and each
//! // direction takes 10 µs: the worker sees the probe at 1_110, replies at
//! // 1_120, and the driver hears back at t3=130.
//! let s = estimate_offset(100, 1_110, 1_120, 130);
//! assert_eq!(s.rtt_us, 20);
//! assert_eq!(s.offset_us, 1_000);
//! ```

/// One offset/RTT measurement from a single probe exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockSample {
    /// Estimated `worker_clock - driver_clock`, µs. Add the *negation* to a
    /// worker timestamp to land on the driver timeline.
    pub offset_us: i64,
    /// Estimated network round trip (send → ack, minus remote think time).
    pub rtt_us: u64,
}

/// NTP's four-timestamp offset estimator.
///
/// `t0`: local clock when the probe was sent. `t1`: remote clock when it
/// arrived. `t2`: remote clock when the ack left. `t3`: local clock when
/// the ack arrived. Offset = ((t1−t0)+(t2−t3))/2; the error is bounded by
/// RTT/2, tight when the two directions have symmetric delay.
pub fn estimate_offset(t0: u64, t1: u64, t2: u64, t3: u64) -> ClockSample {
    let fwd = t1 as i64 - t0 as i64;
    let back = t2 as i64 - t3 as i64;
    let offset_us = (fwd + back) / 2;
    let rtt = (t3 as i64 - t0 as i64) - (t2 as i64 - t1 as i64);
    ClockSample { offset_us, rtt_us: rtt.max(0) as u64 }
}

/// Running per-peer clock estimate: feeds on probe samples, keeps the one
/// with the smallest RTT (the tightest error bound).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClockSync {
    best: Option<ClockSample>,
    samples: u64,
}

impl ClockSync {
    /// Fold in one probe exchange.
    pub fn observe(&mut self, t0: u64, t1: u64, t2: u64, t3: u64) -> ClockSample {
        let sample = estimate_offset(t0, t1, t2, t3);
        self.samples += 1;
        match self.best {
            Some(best) if best.rtt_us <= sample.rtt_us => {}
            _ => self.best = Some(sample),
        }
        sample
    }

    /// The current best estimate, if any probe completed yet.
    pub fn best(&self) -> Option<ClockSample> {
        self.best
    }

    /// `worker − driver` offset of the best sample (0 before any sample).
    pub fn offset_us(&self) -> i64 {
        self.best.map_or(0, |s| s.offset_us)
    }

    /// RTT of the best sample (0 before any sample).
    pub fn rtt_us(&self) -> u64 {
        self.best.map_or(0, |s| s.rtt_us)
    }

    /// Number of probes folded in.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_recovers_symmetric_offset_exactly() {
        // Worker clock 5_000 ahead, 20 µs each way.
        let s = estimate_offset(100, 5_120, 5_130, 150);
        assert_eq!(s.offset_us, 5_000);
        assert_eq!(s.rtt_us, 40);
    }

    #[test]
    fn estimator_handles_worker_behind_driver() {
        // Worker clock 400 behind, 10 µs each way.
        let s = estimate_offset(1_000, 610, 615, 1_025);
        assert_eq!(s.offset_us, -400);
        assert_eq!(s.rtt_us, 20);
    }

    #[test]
    fn clock_sync_keeps_min_rtt_sample() {
        let mut cs = ClockSync::default();
        cs.observe(0, 1_500, 1_510, 1_000); // rtt 990: congested probe
        cs.observe(2_000, 3_010, 3_012, 2_020); // rtt 18: clean probe
        cs.observe(4_000, 5_400, 5_410, 4_800); // rtt 790: congested again
        assert_eq!(cs.rtt_us(), 18);
        assert_eq!(cs.offset_us(), 1_001);
        assert_eq!(cs.samples(), 3);
    }
}
