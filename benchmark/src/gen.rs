//! Seeded input generation. Everything a workload feeds the program comes
//! from `--seed` through this module, so one seed means one set of inputs.
//!
//! A seed changes *content* (dataset values, learning rates, sweep seeds,
//! task payloads) and never *cost*: grids keep their shape, epoch and
//! batch axes are constants, so runs with different seeds measure the same
//! amount of work.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use tinyml::data::{Dataset, SyntheticSpec};

/// The seed of one round of one workload.
pub fn round_seed(seed: u64, workload: &str, round: usize) -> u64 {
    let mut h = Digest::new();
    h.u64(seed);
    h.bytes(workload.as_bytes());
    h.u64(round as u64);
    // One SplitMix step spreads the FNV state over all 64 bits.
    StdRng::seed_from_u64(h.0).next_u64()
}

/// A learning rate in [1e-3, 2e-3) with four significant digits, so it
/// prints and parses back to the same `f64` in a search-space JSON.
pub fn learning_rate(round_seed: u64) -> f64 {
    (1000 + round_seed % 1000) as f64 / 1e6
}

/// A classification dataset of `n` examples with `dim` features.
pub fn dataset(n: usize, dim: usize, seed: u64) -> Arc<Dataset> {
    let spec = SyntheticSpec { dim, ..SyntheticSpec::mnist_like() };
    Arc::new(Dataset::synthetic("stackbench", n, &spec, seed))
}

/// What `--seed` turns into for a workload that sweeps a grid per round: a
/// dataset, and one search-space JSON per round in which only the learning
/// rate differs — so every round trains new trajectories of the same cost.
pub struct SweepInputs {
    /// The training set.
    pub data: Arc<Dataset>,
    /// One search-space JSON per round.
    pub spaces: Vec<String>,
}

impl SweepInputs {
    /// Generate `n × dim` data and `rounds` spaces; `space` writes the JSON
    /// around a round's learning rate.
    pub fn generate(
        seed: u64,
        workload: &str,
        (n, dim): (usize, usize),
        rounds: usize,
        space: impl Fn(f64) -> String,
    ) -> SweepInputs {
        let data = dataset(n, dim, round_seed(seed, workload, usize::MAX));
        let spaces =
            (0..rounds).map(|r| space(learning_rate(round_seed(seed, workload, r)))).collect();
        SweepInputs { data, spaces }
    }

    /// Digest of the generated inputs.
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        let mut h = Digest::new();
        h.dataset(&self.data);
        self.spaces.iter().for_each(|s| h.bytes(s.as_bytes()));
        h.0
    }
}

/// FNV-1a over everything a workload generated; equal digests mean equal
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    /// The FNV-1a offset basis.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold raw bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold one integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a dataset's features and labels in.
    #[cfg(test)]
    pub fn dataset(&mut self, d: &Dataset) {
        for v in d.x.as_slice() {
            self.bytes(&v.to_le_bytes());
        }
        for &y in &d.y {
            self.u64(y as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_seeds_depend_on_every_part() {
        let base = round_seed(7, "churn_net", 3);
        assert_eq!(base, round_seed(7, "churn_net", 3));
        assert_ne!(base, round_seed(8, "churn_net", 3));
        assert_ne!(base, round_seed(7, "grid_threaded", 3));
        assert_ne!(base, round_seed(7, "churn_net", 4));
    }

    #[test]
    fn learning_rate_survives_json() {
        for s in [0u64, 1, 999, 123_456_789] {
            let lr = learning_rate(s);
            assert!((1e-3..2e-3).contains(&lr));
            assert_eq!(format!("{lr}").parse::<f64>().unwrap(), lr);
        }
    }
}
