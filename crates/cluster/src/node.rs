//! Node hardware specifications, with presets for the paper's testbeds.

/// GPU model installed in a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuModel {
    /// NVIDIA Tesla K80 (MinoTauro).
    K80,
    /// NVIDIA V100 16 GB HBM2 (CTE-POWER9).
    V100,
    /// Generic GPU for synthetic topologies.
    Generic,
}

impl GpuModel {
    /// Relative training-compute speedup of this GPU versus one reference
    /// CPU core, used by [`crate::cost::TrainingCost`]. These are coarse,
    /// order-of-magnitude calibrations: the paper only needs "GPU ≫ CPU for
    /// the compute phase" to reproduce the Figure 9 shape.
    pub fn compute_speedup(&self) -> f64 {
        match self {
            GpuModel::K80 => 12.0,
            GpuModel::V100 => 40.0,
            GpuModel::Generic => 20.0,
        }
    }
}

/// Hardware description of one cluster node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable name of the node class.
    pub name: String,
    /// Number of CPU computing units exposed to the runtime. The paper
    /// counts hardware threads on POWER9 (160) and physical cores on
    /// MareNostrum 4 (48).
    pub cores: u32,
    /// GPUs installed.
    pub gpus: Vec<GpuModel>,
    /// Memory in GiB (only used for constraint matching).
    pub mem_gib: u32,
}

impl NodeSpec {
    /// Custom node.
    pub fn new(name: impl Into<String>, cores: u32, gpus: Vec<GpuModel>, mem_gib: u32) -> Self {
        NodeSpec { name: name.into(), cores, gpus, mem_gib }
    }

    /// MareNostrum 4 compute node: "two Intel Xeon Platinum chips, each with
    /// 24 processors, a total of 48 per node" (paper §5).
    pub fn marenostrum4() -> Self {
        NodeSpec::new("MareNostrum4", 48, Vec::new(), 96)
    }

    /// MinoTauro GPU node: "2 K80 NVIDIA GPU Cards and 2 Intel Xeon E5-2630
    /// v3 (Haswell) 8-core processors" (paper §5). Each K80 card exposes two
    /// logical GPUs; we model the two cards as 2 schedulable GPUs, matching
    /// how the paper assigns "a single GPU" per task.
    pub fn minotauro() -> Self {
        NodeSpec::new("MinoTauro", 16, vec![GpuModel::K80, GpuModel::K80], 128)
    }

    /// CTE-POWER9 node: "2 x IBM Power9 ... total 160 threads per node and
    /// 4 x GPU NVIDIA V100 (Volta) with 16GB HBM2" (paper §5).
    pub fn cte_power9() -> Self {
        NodeSpec::new("CTE-POWER9", 160, vec![GpuModel::V100; 4], 512)
    }

    /// Number of GPUs in the node.
    pub fn gpu_count(&self) -> u32 {
        self.gpus.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_hardware() {
        let mn4 = NodeSpec::marenostrum4();
        assert_eq!(mn4.cores, 48);
        assert_eq!(mn4.gpu_count(), 0);

        let mt = NodeSpec::minotauro();
        assert_eq!(mt.cores, 16);
        assert_eq!(mt.gpu_count(), 2);
        assert!(mt.gpus.iter().all(|g| *g == GpuModel::K80));

        let p9 = NodeSpec::cte_power9();
        assert_eq!(p9.cores, 160);
        assert_eq!(p9.gpu_count(), 4);
        assert!(p9.gpus.iter().all(|g| *g == GpuModel::V100));
    }

    #[test]
    fn gpu_speedups_ordered_by_generation() {
        assert!(GpuModel::V100.compute_speedup() > GpuModel::K80.compute_speedup());
        assert!(GpuModel::K80.compute_speedup() > 1.0);
    }
}
