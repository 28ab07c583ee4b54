//! `hpo` — the paper's contribution: a hyperparameter-optimisation scheme on
//! top of a task-based distributed runtime.
//!
//! The structure follows the paper's §4 exactly:
//!
//! 1. the **application** receives a JSON file listing hyperparameters and
//!    their values ([`config::json`], [`space::SearchSpace`]);
//! 2. a search algorithm expands it into concrete *configs*
//!    ([`algo::grid`], [`algo::random`], plus the future-work algorithms the
//!    paper's §7 promises: [`algo::tpe`], [`algo::hyperband`]);
//! 3. each config becomes an **experiment** — one training task submitted to
//!    the `rcompss` runtime with a resource constraint
//!    ([`experiment`], [`runner::HpoRunner`]), whose body is one
//!    [`experiment::Trainer`]; the stage tree ([`stagetree`]) trains shared
//!    prefixes through the same value;
//! 4. results are synchronised with `wait_any`, collected, and plotted
//!    ([`results`]), with optional early stopping ([`early_stop`]) — "the
//!    process can be stopped as soon as one task achieves a specified
//!    accuracy".
//!
//! # Quick start
//!
//! ```
//! use hpo::prelude::*;
//!
//! let space = SearchSpace::from_json(r#"{
//!     "optimizer": ["Adam", "SGD"],
//!     "num_epochs": [2, 3],
//!     "batch_size": [32]
//! }"#).unwrap();
//!
//! let rt = rcompss::Runtime::threaded(rcompss::RuntimeConfig::single_node(4));
//! let data = std::sync::Arc::new(tinyml::Dataset::synthetic_mnist(400, 1));
//! let objective = hpo::experiment::tinyml_objective(data, vec![16]);
//! let runner = HpoRunner::new(ExperimentOptions::default());
//! let report = runner.run(&rt, &mut GridSearch::new(&space), objective).unwrap();
//! assert_eq!(report.trials.len(), 4);
//! println!("best: {}", report.best().unwrap().label());
//! ```

#![warn(missing_docs)]

pub mod algo;
pub mod ckpt;
pub mod client;
pub mod config;
pub mod dashboard;
pub mod early_stop;
pub mod experiment;
pub mod results;
pub mod runner;
pub mod server;
pub mod space;
pub mod stagetree;
pub mod wire;

/// Convenient re-exports for application code.
pub mod prelude {
    pub use crate::algo::bayes::BayesSearch;
    pub use crate::algo::grid::GridSearch;
    pub use crate::algo::random::RandomSearch;
    pub use crate::algo::tpe::TpeSearch;
    pub use crate::algo::Suggester;
    pub use crate::ckpt::{CheckpointSpec, ResumeStats, SweepState};
    pub use crate::early_stop::EarlyStop;
    pub use crate::experiment::{ExperimentOptions, Trainer, TrialOutcome};
    pub use crate::results::{HpoReport, TrialResult};
    pub use crate::runner::{
        BracketSource, Evaluator, HpoRunner, SweepControl, SweepOutcome, SweepPlan, SweepSource,
    };
    pub use crate::space::{Config, ConfigValue, ParamDomain, SearchSpace};
    pub use crate::stagetree::StagePlan;
}

pub use prelude::*;
