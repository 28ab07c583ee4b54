//! `grid_threaded` — the paper's Fig. 7 path: a grid sweep of real MLP
//! trainings on the threaded runtime. `tinyml` does nearly all of the CPU
//! work; `rnet`, the codecs, the block plane and the server do nothing, so
//! kernel and runner changes show here and wire changes must read "no
//! change".

use std::ops::Range;
use std::time::{Duration, Instant};

use hpo::experiment::{tinyml_objective, train_config_from, Objective};
use hpo::{ExperimentOptions, GridSearch, HpoRunner, SearchSpace, TrialResult};
use rcompss::Runtime;

use super::{
    runtime_config, traced_objective, unfinished, Metrics, Recorder, Shape, Verdict, Workload,
    POOL_CORES,
};
use crate::gen::SweepInputs;
use crate::spans;

/// Trials of one round's grid (3 optimizers × 2 epoch counts × 2 batches).
pub const TRIALS: usize = 12;
/// Examples in the training set.
const SAMPLES: usize = 400;
/// Feature count (MNIST-like).
const DIM: usize = 784;
/// Hidden-layer widths of the MLP.
const HIDDEN: [usize; 1] = [32];

/// ≈ 0.095 s per round at the seed commit on two cores.
pub const SHAPE: Shape =
    Shape { rounds_per_sec: 10.5, warmup_rounds: 4, one_cpu: false, chunk_rounds: 1 };

/// Generate the dataset and every round's search space.
pub fn inputs(seed: u64, rounds: usize) -> SweepInputs {
    SweepInputs::generate(seed, "grid_threaded", (SAMPLES, DIM), rounds, |lr| {
        format!(
            "{{\"optimizer\": [\"Adam\", \"SGD\", \"RMSprop\"], \"num_epochs\": [2, 3], \
             \"batch_size\": [32, 64], \"learning_rate\": [{lr}]}}"
        )
    })
}

/// The built workload.
pub struct GridThreaded {
    inputs: SweepInputs,
    rt: Runtime,
    runner: HpoRunner,
    objective: Objective,
    /// Trials of every round run so far, by round index.
    results: Vec<Vec<TrialResult>>,
}

impl GridThreaded {
    /// Generate inputs, start the two-core threaded runtime.
    pub fn build(seed: u64, rounds: usize) -> GridThreaded {
        let inputs = inputs(seed, rounds);
        let rt = Runtime::threaded(runtime_config(POOL_CORES, spans::enabled()));
        let objective = traced_objective(tinyml_objective(inputs.data.clone(), HIDDEN.to_vec()));
        GridThreaded {
            inputs,
            rt,
            runner: HpoRunner::new(ExperimentOptions::default()),
            objective,
            results: vec![Vec::new(); rounds],
        }
    }
}

impl Workload for GridThreaded {
    fn run_rounds(&mut self, rounds: Range<usize>, rec: &mut Recorder) -> Duration {
        let mut busy = Duration::ZERO;
        for r in rounds {
            spans::set_round(r as u32);
            let t0 = Instant::now();
            let space = SearchSpace::from_json(&self.inputs.spaces[r]).expect("generated space");
            let mut algo = GridSearch::new(&space);
            let report = {
                let _span = spans::span("hpo.runner.run_observed", r as u32);
                self.runner
                    .run_observed(&self.rt, &mut algo, self.objective.clone(), |_| rec.op(t0))
                    .expect("grid sweep submits")
            };
            busy += rec.end_round(t0);
            self.results[r] = report.trials;
        }
        busy
    }

    fn layer_metrics(&mut self, _ops: u64, _out: &mut Metrics) {}

    fn verify(&mut self, measured: Range<usize>, out: &mut Metrics) -> Verdict {
        let mut verdict = Verdict::default();
        let first = measured.start;
        for r in measured {
            let trials = &self.results[r];
            if trials.len() != TRIALS {
                verdict.check(Some(format!("round {r}: {} of {TRIALS} trials", trials.len())));
            }
            // The first measured round is compared bit for bit with plain
            // single-threaded training of the same configs: the oracle and
            // the serial baseline in one.
            let serial_t0 = Instant::now();
            for t in trials {
                let mut why = unfinished(t);
                if why.is_none() && r == first {
                    let cfg = train_config_from(&t.config, &HIDDEN).expect("generated config");
                    let history = tinyml::train(&cfg, &self.inputs.data);
                    let same = history.final_val_accuracy().to_bits()
                        == t.outcome.accuracy.to_bits()
                        && history.train_loss == t.outcome.epoch_loss
                        && history.val_accuracy == t.outcome.epoch_accuracy;
                    if !same {
                        why = Some("differs from serial tinyml::train".to_string());
                    }
                }
                verdict.check(why.map(|w| format!("round {r} {}: {w}", t.config.label())));
            }
            if r == first && !trials.is_empty() {
                let ms = serial_t0.elapsed().as_secs_f64() * 1e3 / trials.len() as f64;
                out.insert("tinyml.train.trial_serial_ms".to_string(), ms);
            }
        }
        verdict
    }
}
