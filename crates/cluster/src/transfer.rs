//! Data-transfer cost model.
//!
//! Paper §4: "When not using a Parallel File System (PFS) such as IBM's
//! General Parallel File System then the data required by the task is copied
//! to the specific node that the task will be executed. Otherwise all tasks
//! can read and write to the PFS."
//!
//! The model therefore has two modes:
//! * **PFS** — every node reads shared storage; a read costs
//!   `bytes / pfs_bandwidth` regardless of placement (no staging step).
//! * **staged** — data living on another node must be copied over the
//!   interconnect before the task starts: `latency + bytes / bandwidth`.

use crate::topology::{Cluster, Interconnect};

/// Where a piece of data currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataLocation {
    /// On the shared parallel file system.
    Pfs,
    /// In the memory/local disk of one node.
    Node(u32),
}

/// Transfer-time calculator for a given cluster configuration.
#[derive(Debug, Clone)]
pub struct TransferModel {
    pfs: bool,
    interconnect: Interconnect,
    /// PFS streaming read bandwidth, bytes per µs. GPFS-class: ~8 GB/s.
    pub pfs_bytes_per_us: f64,
}

impl TransferModel {
    /// Build from a cluster description.
    pub fn for_cluster(cluster: &Cluster) -> Self {
        TransferModel {
            pfs: cluster.pfs,
            interconnect: cluster.interconnect,
            pfs_bytes_per_us: 8_000.0,
        }
    }

    /// Whether the cluster mounts a PFS.
    pub fn has_pfs(&self) -> bool {
        self.pfs
    }

    /// Time (µs) to make `bytes` of data at `from` available on node `to`.
    ///
    /// Returns `0` when the data is already local. Under PFS, data is never
    /// "local" in the staging sense but reads are uniform and cheap.
    pub fn time_to_node(&self, bytes: u64, from: DataLocation, to: u32) -> u64 {
        match (self.pfs, from) {
            // PFS read: uniform cost from any node.
            (true, _) => (bytes as f64 / self.pfs_bytes_per_us) as u64,
            (false, DataLocation::Node(n)) if n == to => 0,
            (false, DataLocation::Node(_)) | (false, DataLocation::Pfs) => {
                self.interconnect.latency_us
                    + (bytes as f64 / self.interconnect.bytes_per_us) as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;

    fn staged_cluster() -> Cluster {
        Cluster::homogeneous(4, NodeSpec::marenostrum4()).without_pfs()
    }

    #[test]
    fn pfs_reads_are_uniform_across_nodes() {
        let c = Cluster::homogeneous(4, NodeSpec::marenostrum4());
        let m = TransferModel::for_cluster(&c);
        assert!(m.has_pfs());
        let t0 = m.time_to_node(1_000_000, DataLocation::Pfs, 0);
        let t3 = m.time_to_node(1_000_000, DataLocation::Node(1), 3);
        assert_eq!(t0, t3, "PFS cost ignores placement");
        assert_eq!(t0, 125, "1 MB at 8 GB/s = 125 µs");
    }

    #[test]
    fn local_data_is_free_without_pfs() {
        let m = TransferModel::for_cluster(&staged_cluster());
        assert!(!m.has_pfs());
        assert_eq!(m.time_to_node(u64::MAX / 2, DataLocation::Node(2), 2), 0);
    }

    #[test]
    fn remote_data_pays_latency_plus_bandwidth() {
        let m = TransferModel::for_cluster(&staged_cluster());
        // hpc(): 1 µs latency, 12 000 bytes/µs
        assert_eq!(m.time_to_node(12_000_000, DataLocation::Node(0), 1), 1 + 1000);
        assert_eq!(m.time_to_node(0, DataLocation::Node(0), 1), 1, "latency floor");
    }

    #[test]
    fn staging_from_pfs_location_without_pfs_mounted_copies() {
        // Data initially "on storage" still needs a copy when nodes can't
        // mount it directly.
        let m = TransferModel::for_cluster(&staged_cluster());
        assert!(m.time_to_node(1_000, DataLocation::Pfs, 0) > 0);
    }
}
