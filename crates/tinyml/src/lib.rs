//! `tinyml` — a small, dependency-light neural-network library.
//!
//! The paper trains TensorFlow models on MNIST and CIFAR-10. Rust has no
//! mature TensorFlow, and the reproduction environment has no dataset
//! downloads, so this crate supplies the closest equivalent that exercises
//! the same code path: real mini-batch gradient-descent training of dense
//! networks, with the exact hyperparameter axes the paper sweeps —
//! **optimizer ∈ {Adam, SGD, RMSprop}**, **epochs**, **batch size** (the
//! config file of the paper's Listing 1) — over synthetic datasets whose
//! difficulty mirrors MNIST ("generalises well after just a few epochs, most
//! combinations attain above 90 % accuracy") and CIFAR-10 ("slightly bigger
//! and more complex").
//!
//! Everything is deterministic given a seed, which the HPO layer and the
//! property tests rely on. That determinism survives parallelism: the
//! compute kernels ([`tensor`], [`conv`]) split work across the scoped
//! worker pool in [`par`] in a way that preserves accumulation order, so a
//! training run is bit-identical at any thread count. The degree of
//! parallelism flows in from the task runtime's core grant (standalone, a
//! [`par::with_threads`] scope; without one, 1) — see [`par`] for the full
//! story.
//!
//! # Quick start
//!
//! ```
//! use tinyml::data::Dataset;
//! use tinyml::optim::OptimizerKind;
//! use tinyml::train::{train, TrainConfig};
//!
//! let data = Dataset::synthetic_mnist(1_000, 7);
//! let cfg = TrainConfig {
//!     epochs: 5,
//!     batch_size: 64,
//!     optimizer: OptimizerKind::Adam,
//!     learning_rate: 1e-3,
//!     hidden_layers: vec![32],
//!     seed: 1,
//!     ..TrainConfig::default()
//! };
//! let report = train(&cfg, &data);
//! assert!(report.final_val_accuracy() > 0.5);
//! ```

#![warn(missing_docs)]
// The kernels are fast because of their shape, not because of `unsafe`.
#![forbid(unsafe_code)]

pub mod cnn;
pub mod conv;
pub mod data;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod net;
pub mod optim;
pub mod par;
pub mod snapshot;
pub mod tensor;
pub mod train;

pub use data::Dataset;
pub use net::{Mlp, Model};
pub use optim::OptimizerKind;
pub use snapshot::TrainSnapshot;
pub use tensor::Matrix;
pub use train::{train, train_segment, Checkpointing, History, ModelArch, TrainConfig};
