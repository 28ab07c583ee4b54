//! `served_mix` — two tenants drive an in-process `SweepServer` over the
//! two-worker pool in a closed loop, one `SweepClient` connection each:
//! tenant A resubmits 16-trial grid sweeps, tenant B 48-trial random
//! sweeps, with a ≈ 2 ms training as the objective. Admission, the fair
//! gate (`rate = 0`: round-robin only, a token bucket would cap
//! throughput by timer), `LeaderboardChunk` streaming and client framing
//! are a large share of the work here and absent everywhere else.
//!
//! One round is three A sweeps and one B sweep — 96 leaderboard rows —
//! which the fair gate finishes at about the same time.

use std::net::TcpListener;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpo::client::{SubmitSpec, SweepClient, SweepEnd};
use hpo::experiment::{tinyml_objective, Objective};
use hpo::server::{build_algo, ServerConfig, SweepServer, SWEEP_DONE};
use hpo::wire::experiment_task_def;
use hpo::{ExperimentOptions, HpoRunner, SearchSpace};
use rcompss::{DistributedConfig, Runtime, TaskRegistry, WorkerHandle};
use rnet::LeaderRow;
use tinyml::Dataset;

use super::{
    connect, runtime_config, spawn_workers, traced_objective, wire_bytes, Metrics, Recorder, Shape,
    Verdict, Workload, DEFAULT_CACHE_MEM, POOL_CORES,
};
use crate::gen;
use crate::{spans, stats};

const A_SWEEPS_PER_ROUND: usize = 3;
const A_TRIALS: u32 = 16;
const B_TRIALS: u32 = 48;
const SAMPLES: usize = 512;
const DIM: usize = 64;
const HIDDEN: [usize; 1] = [16];

/// ≈ 0.065 s per round at the seed commit.
pub const SHAPE: Shape =
    Shape { rounds_per_sec: 15.5, warmup_rounds: 5, one_cpu: false, chunk_rounds: 2 };

/// What `--seed` turns into for this workload.
pub struct Inputs {
    data: Arc<Dataset>,
    /// Tenant A's sweeps, [`A_SWEEPS_PER_ROUND`] per round.
    a: Vec<SubmitSpec>,
    /// Tenant B's sweeps, one per round.
    b: Vec<SubmitSpec>,
}

impl Inputs {
    /// Generate the dataset and every sweep request. Every config of
    /// either space costs the same to train, whatever the seed samples.
    pub fn generate(seed: u64, rounds: usize) -> Inputs {
        let data = gen::dataset(SAMPLES, DIM, gen::round_seed(seed, "served_mix.data", 0));
        let a = (0..rounds * A_SWEEPS_PER_ROUND)
            .map(|i| {
                let lr = gen::learning_rate(gen::round_seed(seed, "served_mix.a", i));
                SubmitSpec {
                    name: "tenant-a-grid".to_string(),
                    space_json: format!(
                        "{{\"optimizer\": [\"Adam\", \"SGD\"], \"batch_size\": [16, 32], \
                         \"hidden\": [8, 16], \"weight_decay\": [0.0, 0.0001], \
                         \"num_epochs\": [2], \"learning_rate\": [{lr}]}}"
                    ),
                    algo: "grid".to_string(),
                    trials: A_TRIALS,
                    seed: 0,
                    wave: 0,
                }
            })
            .collect();
        let b = (0..rounds)
            .map(|i| SubmitSpec {
                name: "tenant-b-random".to_string(),
                space_json: "{\"optimizer\": [\"Adam\"], \"batch_size\": [32], \
                    \"num_epochs\": [2], \
                    \"learning_rate\": [0.001, 0.002, 0.003, 0.005, 0.008, 0.01, 0.02, 0.03], \
                    \"weight_decay\": [0.0, 0.00001, 0.0001, 0.0003, 0.001, 0.003]}"
                    .to_string(),
                algo: "random".to_string(),
                trials: B_TRIALS,
                seed: gen::round_seed(seed, "served_mix.b", i),
                wave: 0,
            })
            .collect();
        Inputs { data, a, b }
    }

    /// Digest of the generated inputs.
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        let mut h = gen::Digest::new();
        h.dataset(&self.data);
        for spec in self.a.iter().chain(&self.b) {
            h.bytes(spec.space_json.as_bytes());
            h.bytes(spec.algo.as_bytes());
            h.u64(u64::from(spec.trials));
            h.u64(spec.seed);
        }
        h.0
    }
}

/// What one sweep produced, as its tenant saw it.
struct Served {
    rows: Vec<LeaderRow>,
    end: SweepEnd,
    /// `SubmitSweep` sent → admission ack received, ns.
    admit_ns: u64,
}

/// One tenant: its connection, its requests and what came back.
struct Tenant {
    client: SweepClient,
    per_round: usize,
    /// Results by sweep index; `None` until the sweep ran.
    served: Vec<Option<Served>>,
    /// Time this tenant spent inside its measured sweeps.
    busy: Duration,
    last_sweep_id: u64,
}

impl Tenant {
    fn connect(addr: &str, name: &str, per_round: usize, sweeps: usize) -> Tenant {
        let client = SweepClient::connect(addr, name).expect("connect sweep client");
        client.set_timeout(Some(Duration::from_secs(60))).expect("set client timeout");
        Tenant {
            client,
            per_round,
            served: (0..sweeps).map(|_| None).collect(),
            busy: Duration::ZERO,
            last_sweep_id: 0,
        }
    }

    /// Closed loop over the sweeps of `rounds`: submit, stream the
    /// leaderboard to the end, submit the next.
    fn drive(&mut self, specs: &[SubmitSpec], rounds: Range<usize>, rec: &mut Recorder) {
        let began = Instant::now();
        let sweeps = rounds.start * self.per_round..rounds.end * self.per_round;
        let slots = self.served[sweeps.clone()].iter_mut();
        for (i, (spec, slot)) in sweeps.clone().zip(specs[sweeps].iter().zip(slots)) {
            let round = (i / self.per_round) as u32;
            let t0 = Instant::now();
            let info = {
                let _span = spans::span("hpo.client.submit", round);
                self.client.submit(spec).expect("server answers").expect("sweep admitted")
            };
            let admit_ns = t0.elapsed().as_nanos() as u64;
            let mut rows = Vec::with_capacity(spec.trials as usize);
            let end = {
                let _span = spans::span("hpo.client.wait_done", round);
                self.client
                    .wait_done(info.sweep_id, |row| {
                        rec.op(t0);
                        rows.push(row.clone());
                    })
                    .expect("sweep streams to its end")
            };
            rec.end_round(t0);
            self.last_sweep_id = info.sweep_id;
            *slot = Some(Served { rows, end, admit_ns });
        }
        self.busy += began.elapsed();
    }

    fn rows_in(&self, rounds: &Range<usize>) -> usize {
        self.served[rounds.start * self.per_round..rounds.end * self.per_round]
            .iter()
            .flatten()
            .map(|s| s.rows.len())
            .sum()
    }
}

/// The built workload. Field order is drop order: clients, then the
/// server (which owns the runtime), then the workers.
pub struct ServedMix {
    inputs: Inputs,
    objective: Objective,
    a: Tenant,
    b: Tenant,
    measured: Range<usize>,
    baseline: Option<runmetrics::MetricsSnapshot>,
    server: SweepServer,
    _workers: Vec<WorkerHandle>,
}

impl ServedMix {
    /// Spawn the pool, start the server over it, connect both tenants.
    pub fn build(seed: u64, rounds: usize) -> ServedMix {
        let inputs = Inputs::generate(seed, rounds);
        hpo::wire::register_hpo_codecs();
        let opts = ExperimentOptions::default();
        let objective = traced_objective(tinyml_objective(inputs.data.clone(), HIDDEN.to_vec()));
        let registry = TaskRegistry::new().with(experiment_task_def(&opts, &objective));
        let workers = spawn_workers(&registry, DEFAULT_CACHE_MEM);
        // The daemon runs its runtime with metrics on; so does this.
        let rt = connect(&workers, true, DistributedConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind sweep server");
        let cfg = ServerConfig { max_active: 2, rate: 0.0, ..ServerConfig::default() };
        let server = SweepServer::start_staged(listener, rt, objective.clone(), None, opts, cfg)
            .expect("start sweep server");
        let addr = server.addr().to_string();
        ServedMix {
            a: Tenant::connect(&addr, "tenant-a", A_SWEEPS_PER_ROUND, inputs.a.len()),
            b: Tenant::connect(&addr, "tenant-b", 1, inputs.b.len()),
            inputs,
            objective,
            measured: 0..0,
            baseline: None,
            server,
            _workers: workers,
        }
    }
}

/// Rows as a sorted multiset of (label, accuracy bits, epochs): a random
/// sweep may sample one config twice, and completion order is not part of
/// the result.
fn row_set(rows: impl Iterator<Item = (String, f64, u32)>) -> Vec<(String, u64, u32)> {
    let mut v: Vec<_> = rows.map(|(l, a, e)| (l, a.to_bits(), e)).collect();
    v.sort();
    v
}

impl Workload for ServedMix {
    fn mark(&mut self) {
        self.baseline = Some(self.server.metrics().snapshot());
        self.measured = 0..0;
        (self.a.busy, self.b.busy) = (Duration::ZERO, Duration::ZERO);
    }

    fn run_rounds(&mut self, rounds: Range<usize>, rec: &mut Recorder) -> Duration {
        if self.measured.is_empty() {
            self.measured = rounds.clone();
        } else {
            self.measured.end = rounds.end;
        }
        let began = Instant::now();
        let (a, b, inputs) = (&mut self.a, &mut self.b, &self.inputs);
        let mut rec_b = Recorder::default();
        std::thread::scope(|s| {
            let rounds_b = rounds.clone();
            let rec_b = &mut rec_b;
            let tenant_b = s.spawn(move || b.drive(&inputs.b, rounds_b, rec_b));
            a.drive(&inputs.a, rounds, rec);
            tenant_b.join().expect("tenant B thread");
        });
        rec.merge(rec_b);
        began.elapsed()
    }

    fn layer_metrics(&mut self, ops: u64, out: &mut Metrics) {
        let after = self.server.metrics().snapshot();
        if let Some(before) = &self.baseline {
            let wire = wire_bytes(&after) - wire_bytes(before);
            out.insert("rcompss.distributed.wire_bytes_per_op".into(), wire as f64 / ops as f64);
        }
        let sweeps = |t: &Tenant| {
            t.served[self.measured.start * t.per_round..self.measured.end * t.per_round]
                .iter()
                .flatten()
                .map(|s| (s.admit_ns as f64 / 1e6, s.end.wall_us as f64 / 1e3))
                .collect::<Vec<_>>()
        };
        let all: Vec<(f64, f64)> = sweeps(&self.a).into_iter().chain(sweeps(&self.b)).collect();
        if all.is_empty() {
            return;
        }
        let admit: Vec<f64> = all.iter().map(|s| s.0).collect();
        let done: Vec<f64> = all.iter().map(|s| s.1).collect();
        out.insert("hpo.server.submit_to_admit_ms".into(), stats::median(&admit));
        out.insert("hpo.server.submit_to_done_ms_p50".into(), stats::median(&done));
        let rates: Vec<f64> = [&self.a, &self.b]
            .iter()
            .map(|t| t.rows_in(&self.measured) as f64 / t.busy.as_secs_f64().max(1e-9))
            .collect();
        out.insert("hpo.server.fairness_jain".into(), stats::jain(&rates));
        let mut throttled = 0u64;
        for t in [&mut self.a, &mut self.b] {
            if let Ok(Ok(info)) = t.client.status(t.last_sweep_id, false) {
                throttled += info.throttled;
            }
        }
        out.insert("hpo.server.throttled_total".into(), throttled as f64);
        let rejected = self.server.metrics().snapshot().counter("hposerver_sweeps_rejected_total");
        out.insert("hpo.server.rejects_total".into(), rejected.unwrap_or(0) as f64);
    }

    fn verify(&mut self, measured: Range<usize>, _out: &mut Metrics) -> Verdict {
        let mut verdict = Verdict::default();
        let oracle_rt = Runtime::threaded(runtime_config(POOL_CORES, false));
        let runner = HpoRunner::new(ExperimentOptions::default());
        for (tenant, specs) in [(&self.a, &self.inputs.a), (&self.b, &self.inputs.b)] {
            let sweeps = measured.start * tenant.per_round..measured.end * tenant.per_round;
            let first = sweeps.start;
            let pairs = specs[sweeps.clone()].iter().zip(&tenant.served[sweeps.clone()]);
            for (i, (spec, served)) in sweeps.zip(pairs) {
                let Some(served) = served else {
                    (0..spec.trials)
                        .for_each(|_| verdict.check(Some(format!("sweep {i} never ran"))));
                    continue;
                };
                let complete =
                    served.end.state == SWEEP_DONE && served.rows.len() == spec.trials as usize;
                // The first measured sweep of each tenant is compared with
                // the same sweep run standalone on a threaded runtime.
                let matches_oracle = i != first || {
                    let space = SearchSpace::from_json(&spec.space_json).expect("generated space");
                    let mut algo = build_algo(&spec.algo, &space, spec.trials as usize, spec.seed)
                        .expect("known algorithm");
                    let report = runner
                        .run(&oracle_rt, algo.as_mut(), self.objective.clone())
                        .expect("standalone sweep submits");
                    let want = row_set(
                        report
                            .trials
                            .iter()
                            .map(|t| (t.config.label(), t.outcome.accuracy, t.outcome.epochs_run)),
                    );
                    let got = row_set(
                        served.rows.iter().map(|r| (r.label.clone(), r.accuracy, r.epochs)),
                    );
                    want == got
                };
                let why = if !complete {
                    Some(format!(
                        "{} sweep {i}: state {}, {} of {} rows ({})",
                        spec.name,
                        served.end.state,
                        served.rows.len(),
                        spec.trials,
                        served.end.message
                    ))
                } else if !matches_oracle {
                    Some(format!("{} sweep {i}: differs from the standalone run", spec.name))
                } else {
                    None
                };
                // Every row the sweep owed counts as an op; a bad sweep
                // fails all of them.
                (0..spec.trials).for_each(|_| verdict.check(why.clone()));
            }
        }
        verdict
    }
}
