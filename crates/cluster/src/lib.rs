//! `cluster` — cluster topology model and deterministic discrete-event
//! simulation substrate.
//!
//! The paper evaluates on three BSC machines: MareNostrum 4 (2× Intel Xeon
//! Platinum, 48 cores/node), MinoTauro (2× K80 GPUs + 2× 8-core Haswell) and
//! CTE-POWER9 (160 hardware threads + 4× V100). We cannot allocate those, so
//! this crate provides the closest synthetic equivalent: a parameterised
//! cluster model ([`node`], [`topology`]) plus a deterministic
//! discrete-event queue ([`event`]) with calibrated cost models
//! ([`cost`]), a data-transfer model distinguishing parallel file systems
//! from per-node staging ([`transfer`]), and seeded failure injection
//! ([`failure`]).
//!
//! Virtual time is `u64` microseconds throughout, matching `paratrace`.
//!
//! The simulator itself is `rcompss`'s simulated backend: it drives
//! [`event::EventQueue`] and implements the COMPSs scheduling semantics on
//! top of these models.

#![warn(missing_docs)]

pub mod cost;
pub mod event;
pub mod failure;
pub mod node;
pub mod topology;
pub mod transfer;

pub use cost::{Allocation, TrainingCost, WorkProfile};
pub use event::EventQueue;
pub use failure::FailureInjector;
pub use node::{GpuModel, NodeSpec};
pub use topology::{Cluster, Interconnect};

/// One second in virtual-time units (µs).
pub const SECOND: u64 = 1_000_000;
/// One minute in virtual-time units (µs).
pub const MINUTE: u64 = 60 * SECOND;
