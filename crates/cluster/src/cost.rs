//! Cost models mapping (work, resource allocation) → simulated duration.
//!
//! Absolute constants are calibrated so the paper's headline numbers land in
//! the right range (~29 min for one single-core MNIST training, ~207 min for
//! the 27-task single-node run), but the models exist to reproduce *shapes*:
//!
//! * multi-core scaling is sublinear (`α < 1`), so per-task speedup flattens;
//! * training has a fixed serial setup, so over-decomposition hurts — this
//!   plus wave effects produces Figure 9's single-node minimum at ~4 cores;
//! * GPU tasks split per-batch work into CPU preprocessing (scales with
//!   cores, never on GPU) and compute (GPU-accelerated). With one CPU core
//!   the GPU starves — the paper: "a powerful GPU with just a single core is
//!   irrelevant as it will be idle more of the time".

use crate::node::GpuModel;

/// Resources granted to one task execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// CPU computing units granted.
    pub cores: u32,
    /// GPUs granted.
    pub gpus: u32,
    /// GPU model if `gpus > 0`.
    pub gpu_model: Option<GpuModel>,
    /// Relative per-core speed of the host node (1.0 = MN4 reference).
    pub core_perf: f64,
}

impl Allocation {
    /// CPU-only allocation on a reference node.
    pub fn cpu(cores: u32) -> Self {
        Allocation { cores, gpus: 0, gpu_model: None, core_perf: 1.0 }
    }

    /// Allocation with `cores` CPUs and one GPU of `model`.
    pub fn with_gpu(cores: u32, model: GpuModel) -> Self {
        Allocation { cores, gpus: 1, gpu_model: Some(model), core_perf: 1.0 }
    }

    /// Effective parallel CPU throughput relative to one reference core,
    /// with sublinear scaling exponent `alpha`.
    pub fn cpu_throughput(&self, alpha: f64) -> f64 {
        (self.cores.max(1) as f64).powf(alpha) * self.core_perf
    }
}

/// A generic piece of work: serial part + CPU-parallel part + optional
/// GPU-accelerable part. Durations are in µs on one reference core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkProfile {
    /// Non-parallelisable time (model construction, I/O setup …).
    pub serial_us: f64,
    /// CPU-parallelisable time on one reference core.
    pub cpu_us: f64,
    /// GPU-accelerable time on one reference core. Runs on CPU if no GPU
    /// is allocated.
    pub accel_us: f64,
    /// Sublinear multi-core scaling exponent in `(0, 1]`.
    pub alpha: f64,
}

impl WorkProfile {
    /// Simulated duration under `alloc`, in µs.
    pub fn duration(&self, alloc: &Allocation) -> u64 {
        let cpu_thr = alloc.cpu_throughput(self.alpha);
        let mut t = self.serial_us + self.cpu_us / cpu_thr;
        if self.accel_us > 0.0 {
            t += if alloc.gpus > 0 {
                let model = alloc.gpu_model.unwrap_or(GpuModel::Generic);
                self.accel_us / (model.compute_speedup() * alloc.gpus as f64)
            } else {
                self.accel_us / cpu_thr
            };
        }
        t.max(1.0) as u64
    }
}

/// Cost of one neural-network training task, the paper's unit of work.
///
/// A training runs `epochs × batches_per_epoch` batches. Every batch pays a
/// CPU-side preprocessing cost (data loading, augmentation) and a compute
/// cost (forward/backward); only the latter is GPU-accelerable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingCost {
    /// Number of epochs (a paper hyperparameter: 20/50/100).
    pub epochs: u32,
    /// Batches per epoch = ⌈dataset / batch_size⌉.
    pub batches_per_epoch: u32,
    /// Forward+backward time per batch on one reference CPU core, µs.
    pub compute_us_per_batch: f64,
    /// Preprocessing time per batch on one reference CPU core, µs.
    pub preprocess_us_per_batch: f64,
    /// Fixed per-task setup time (session + model build), µs.
    pub setup_us: f64,
    /// Multi-core scaling exponent.
    pub alpha: f64,
}

impl TrainingCost {
    /// MNIST-class training calibrated to the paper: one config
    /// (50 epochs × 1875 batches) on a single MN4 core ≈ 29 minutes
    /// (Figure 4: "the task takes around 29 mins").
    pub fn mnist(epochs: u32, batch_size: u32) -> Self {
        let batches = (60_000 + batch_size - 1) / batch_size.max(1);
        TrainingCost {
            epochs,
            batches_per_epoch: batches,
            // 29 min ≈ 50 epochs × 938 batches (batch 64) × t ⇒ t ≈ 37,100 µs
            // per batch; split ~90 % compute / 10 % preprocessing for MNIST.
            compute_us_per_batch: 33_400.0 * (batch_size as f64 / 64.0).max(0.25),
            preprocess_us_per_batch: 3_700.0 * (batch_size as f64 / 64.0).max(0.25),
            setup_us: 20.0 * 1_000_000.0,
            alpha: 0.9,
        }
    }

    /// CIFAR-10-class training: ~4× the per-batch compute of MNIST (3072-d
    /// images, bigger model) and a much heavier preprocessing share
    /// (decode + augmentation) — the preprocessing is what starves the GPU
    /// at low core counts in Figure 9 ("data preprocessing takes place in
    /// the CPU").
    pub fn cifar10(epochs: u32, batch_size: u32) -> Self {
        let batches = (50_000 + batch_size - 1) / batch_size.max(1);
        TrainingCost {
            epochs,
            batches_per_epoch: batches,
            compute_us_per_batch: 150_000.0 * (batch_size as f64 / 64.0).max(0.25),
            preprocess_us_per_batch: 18_000.0 * (batch_size as f64 / 64.0).max(0.25),
            setup_us: 10.0 * 1_000_000.0,
            alpha: 0.9,
        }
    }

    /// Total number of batches over the whole training.
    pub fn total_batches(&self) -> u64 {
        self.epochs as u64 * self.batches_per_epoch as u64
    }

    /// Simulated duration of the full training under `alloc`, µs.
    pub fn duration(&self, alloc: &Allocation) -> u64 {
        let cpu_thr = alloc.cpu_throughput(self.alpha);
        let pre = self.preprocess_us_per_batch / cpu_thr;
        let comp = if alloc.gpus > 0 {
            let model = alloc.gpu_model.unwrap_or(GpuModel::Generic);
            self.compute_us_per_batch / (model.compute_speedup() * alloc.gpus as f64)
        } else {
            self.compute_us_per_batch / cpu_thr
        };
        let per_batch = pre + comp;
        (self.setup_us + per_batch * self.total_batches() as f64).max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MINUTE;

    #[test]
    fn mnist_single_core_lands_near_29_minutes() {
        // Figure 4: one MNIST training on one core ≈ 29 min. We calibrate
        // the default config (50 epochs, batch 64) into [24, 34] minutes.
        let cost = TrainingCost::mnist(50, 64);
        let t = cost.duration(&Allocation::cpu(1));
        assert!(
            (24 * MINUTE..34 * MINUTE).contains(&t),
            "expected ≈29min, got {}",
            paratrace_fmt(t)
        );
    }

    fn paratrace_fmt(us: u64) -> String {
        format!("{:.1}min", us as f64 / MINUTE as f64)
    }

    #[test]
    fn more_cores_is_faster_but_sublinear() {
        let cost = TrainingCost::mnist(50, 64);
        let t1 = cost.duration(&Allocation::cpu(1));
        let t4 = cost.duration(&Allocation::cpu(4));
        let t48 = cost.duration(&Allocation::cpu(48));
        assert!(t4 < t1 && t48 < t4);
        let speedup = t1 as f64 / t48 as f64;
        assert!(speedup < 48.0, "sublinear: {speedup}");
        assert!(speedup > 8.0, "still substantial: {speedup}");
    }

    #[test]
    fn gpu_with_one_core_is_preprocessing_bound() {
        // Figure 9's GPU curve: with 1 core the GPU starves; adding cores
        // collapses the runtime.
        let cost = TrainingCost::cifar10(50, 64);
        let one_core = cost.duration(&Allocation::with_gpu(1, GpuModel::V100));
        let many_cores = cost.duration(&Allocation::with_gpu(40, GpuModel::V100));
        assert!(one_core > 3 * many_cores, "{one_core} vs {many_cores}");
        // and the GPU beats pure-CPU at equal core counts
        let cpu_only = cost.duration(&Allocation::cpu(40));
        assert!(many_cores < cpu_only);
    }

    #[test]
    fn epochs_scale_duration_roughly_linearly() {
        let a = TrainingCost::mnist(20, 64).duration(&Allocation::cpu(1));
        let b = TrainingCost::mnist(100, 64).duration(&Allocation::cpu(1));
        let ratio = b as f64 / a as f64;
        assert!((3.5..6.0).contains(&ratio), "100 vs 20 epochs ratio {ratio}");
    }

    #[test]
    fn larger_batch_means_fewer_batches() {
        let small = TrainingCost::mnist(10, 32);
        let large = TrainingCost::mnist(10, 128);
        assert!(small.total_batches() > large.total_batches());
        assert_eq!(small.batches_per_epoch, 1875);
        assert_eq!(large.batches_per_epoch, 469);
    }

    #[test]
    fn work_profile_generic_model() {
        let w = WorkProfile { serial_us: 10.0, cpu_us: 1000.0, accel_us: 0.0, alpha: 0.9 };
        let t1 = w.duration(&Allocation::cpu(1));
        let t10 = w.duration(&Allocation::cpu(10));
        assert!(t10 < t1);
        assert!(t10 as f64 >= 10.0, "serial part is a floor");

        let g = WorkProfile { serial_us: 0.0, cpu_us: 0.0, accel_us: 1_000_000.0, alpha: 0.9 };
        let on_gpu = g.duration(&Allocation::with_gpu(1, GpuModel::V100));
        let on_cpu = g.duration(&Allocation::cpu(1));
        assert!(on_gpu < on_cpu / 10);
    }

    #[test]
    fn duration_never_zero() {
        let w = WorkProfile { serial_us: 0.0, cpu_us: 0.0, accel_us: 0.0, alpha: 0.9 };
        assert_eq!(w.duration(&Allocation::cpu(1)), 1);
    }

    #[test]
    fn core_perf_scales_throughput() {
        let mut a = Allocation::cpu(4);
        a.core_perf = 0.5;
        let slow = TrainingCost::mnist(10, 64).duration(&a);
        let fast = TrainingCost::mnist(10, 64).duration(&Allocation::cpu(4));
        assert!(slow > fast);
    }
}
