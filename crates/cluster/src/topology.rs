//! Cluster assembly: a set of nodes, an interconnect, and a file-system mode.

use crate::node::NodeSpec;

/// Interconnect parameters for staged data transfers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// One-way message latency, µs.
    pub latency_us: u64,
    /// Bandwidth in bytes per µs (= MB/s).
    pub bytes_per_us: f64,
}

impl Interconnect {
    /// MareNostrum-class 100 Gb/s-ish fabric: 1 µs latency, ~12 GB/s.
    pub fn hpc() -> Self {
        Interconnect { latency_us: 1, bytes_per_us: 12_000.0 }
    }

    /// Commodity 10 GbE: 50 µs latency, ~1.2 GB/s.
    pub fn ethernet() -> Self {
        Interconnect { latency_us: 50, bytes_per_us: 1_200.0 }
    }
}

/// A cluster: nodes plus shared infrastructure.
///
/// The paper distinguishes two deployment modes (§4): with a Parallel File
/// System "all tasks can read and write to the PFS"; without one "the data
/// required by the task is copied to the specific node". [`Cluster::pfs`]
/// selects between them and feeds [`crate::transfer::TransferModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Node inventory, indexed by node id (0-based).
    pub nodes: Vec<NodeSpec>,
    /// Whether a parallel file system (e.g. IBM GPFS) is mounted everywhere.
    pub pfs: bool,
    /// Interconnect used for staged copies when `pfs` is false.
    pub interconnect: Interconnect,
}

impl Cluster {
    /// A cluster of `n` identical nodes with a PFS (the common HPC case the
    /// paper highlights: "most HPC clusters are equipped with PFS").
    pub fn homogeneous(n: usize, spec: NodeSpec) -> Self {
        Cluster { nodes: vec![spec; n], pfs: true, interconnect: Interconnect::hpc() }
    }

    /// Build from an explicit node list.
    pub fn from_nodes(nodes: Vec<NodeSpec>) -> Self {
        Cluster { nodes, pfs: true, interconnect: Interconnect::hpc() }
    }

    /// Disable the PFS, forcing staged copies (chainable).
    pub fn without_pfs(mut self) -> Self {
        self.pfs = false;
        self
    }

    /// Replace the interconnect (chainable).
    pub fn with_interconnect(mut self, ic: Interconnect) -> Self {
        self.interconnect = ic;
        self
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total CPU computing units in the cluster.
    pub fn total_cores(&self) -> u32 {
        self.nodes.iter().map(|n| n.cores).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_builder_replicates_spec() {
        let c = Cluster::homogeneous(28, NodeSpec::marenostrum4());
        assert_eq!(c.node_count(), 28);
        assert_eq!(c.total_cores(), 28 * 48);
        assert!(c.pfs);
    }

    #[test]
    fn heterogeneous_cluster_counts() {
        let c = Cluster::from_nodes(vec![NodeSpec::marenostrum4(), NodeSpec::cte_power9()]);
        assert_eq!(c.total_cores(), 48 + 160);
    }

    #[test]
    fn chainable_configuration() {
        let c = Cluster::homogeneous(1, NodeSpec::minotauro())
            .without_pfs()
            .with_interconnect(Interconnect::ethernet());
        assert!(!c.pfs);
        assert_eq!(c.interconnect.latency_us, 50);
    }
}
