//! Command-line interface of the `hpo-run` launcher — the analogue of the
//! paper's `runcompss application.py json_file` entry point.
//!
//! Hand-rolled argument parsing (no CLI crates in the approved dependency
//! set), exposed as a library module so it is unit-testable.

use std::fmt;

/// Which search algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoChoice {
    /// Exhaustive grid search.
    Grid,
    /// Random search (`--trials` samples).
    Random,
    /// Tree-structured Parzen Estimator.
    Tpe,
    /// Gaussian-process Bayesian optimisation.
    Bayes,
}

impl AlgoChoice {
    /// The algorithm's wire name — the vocabulary of `SubmitSweep`.
    pub fn wire_name(self) -> &'static str {
        match self {
            AlgoChoice::Grid => "grid",
            AlgoChoice::Random => "random",
            AlgoChoice::Tpe => "tpe",
            AlgoChoice::Bayes => "bayes",
        }
    }
}

/// Which dataset to train on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetChoice {
    /// MNIST-difficulty synthetic data.
    Mnist,
    /// CIFAR-10-difficulty synthetic data.
    Cifar10,
}

/// Which execution backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Real thread-pool execution (actually trains models).
    Threaded,
    /// Deterministic virtual-cluster simulation (cost-model durations).
    Sim,
    /// Remote execution on `rcompss-worker` daemons over TCP.
    Distributed,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Path of the JSON search-space file (the paper's config file).
    pub config: String,
    /// Algorithm.
    pub algo: AlgoChoice,
    /// Dataset.
    pub dataset: DatasetChoice,
    /// Dataset size (examples).
    pub samples: usize,
    /// Backend.
    pub backend: BackendChoice,
    /// Virtual cluster size (sim backend) or ignored (threaded).
    pub nodes: usize,
    /// CPU cores per experiment task.
    pub cores_per_task: u32,
    /// Trial budget for random/TPE/Bayes (grid ignores it).
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Early-stop target accuracy.
    pub target_accuracy: Option<f64>,
    /// Enable tracing (paper's tracing flag).
    pub trace: bool,
    /// Write the task graph DOT here.
    pub graph_out: Option<String>,
    /// Write the trial CSV here.
    pub csv_out: Option<String>,
    /// Train CNNs instead of dense nets.
    pub cnn: bool,
    /// Disable runtime metrics (on by default; off = one relaxed atomic
    /// load per instrumentation site).
    pub no_metrics: bool,
    /// Write metrics exports to `<prefix>.prom` / `<prefix>.jsonl`.
    pub metrics_out: Option<String>,
    /// Worker addresses for `--backend distributed` (host:port).
    pub workers: Vec<String>,
    /// Write a Chrome `trace_event` JSON trace here (implies tracing).
    pub trace_out: Option<String>,
    /// Checkpoint directory: crash-safe sweep journal plus periodic model
    /// snapshots. `None` = checkpointing off.
    pub ckpt_dir: Option<String>,
    /// Snapshot cadence in epochs when checkpointing.
    pub ckpt_every: u32,
    /// Resume an interrupted sweep from `ckpt_dir`'s journal
    /// (`--resume <dir>` sets both).
    pub resume: bool,
    /// Serve live `GET /metrics` + `GET /healthz` on this address while
    /// the run is in flight (e.g. `127.0.0.1:9100`). `None` = no endpoint.
    pub status_addr: Option<String>,
    /// Declared-size threshold (bytes) above which distributed-backend
    /// values travel content-addressed through the block plane instead of
    /// inline in each `Submit`. `u64::MAX` disables the block plane.
    pub inline_threshold: u64,
    /// Stage-tree prefix sharing: train the prefixes the configs of a
    /// wave share once and fork the rest from snapshots (any algorithm,
    /// threaded or distributed backend; bit-identical leaderboard, fewer
    /// epochs).
    pub share_prefixes: bool,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            config: String::new(),
            algo: AlgoChoice::Grid,
            dataset: DatasetChoice::Mnist,
            samples: 1_000,
            backend: BackendChoice::Threaded,
            nodes: 1,
            cores_per_task: 1,
            trials: 20,
            seed: 42,
            target_accuracy: None,
            trace: false,
            graph_out: None,
            csv_out: None,
            cnn: false,
            no_metrics: false,
            metrics_out: None,
            workers: Vec::new(),
            trace_out: None,
            ckpt_dir: None,
            ckpt_every: 1,
            resume: false,
            status_addr: None,
            inline_threshold: 64 * 1024,
            share_prefixes: false,
        }
    }
}

/// Parsed `worker` subcommand: what an `rcompss-worker` daemon needs to
/// serve experiment tasks — its listen address/resources plus the exact
/// dataset recipe, so it can rebuild the same objective the driver
/// submits against (both sides must agree on the task by name).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerArgs {
    /// Listen address.
    pub listen: String,
    /// Worker display name (shows up in trace lanes and metric labels).
    pub name: String,
    /// Advertised CPU cores (0 = autodetect).
    pub cores: u32,
    /// Dataset recipe — must match the driver invocation.
    pub dataset: DatasetChoice,
    /// Dataset size — must match the driver invocation.
    pub samples: usize,
    /// Dataset RNG seed — must match the driver invocation.
    pub seed: u64,
    /// CNN architectures — must match the driver invocation.
    pub cnn: bool,
    /// In-trial early-stop target — must match the driver invocation.
    pub target_accuracy: Option<f64>,
    /// Snapshot cadence in epochs (0 = off). Worker-side snapshots ride
    /// back to the driver over the wire, so a trial retried after a worker
    /// loss resumes mid-training instead of from epoch 0.
    pub ckpt_every: u32,
    /// Serve live `GET /metrics` + `GET /healthz` on this address
    /// (worker-local counters). `None` = no endpoint.
    pub status_addr: Option<String>,
    /// Block-cache memory budget, MiB (`--cache-mem`). Decoded blocks are
    /// kept under this budget and evicted least-recently-used.
    pub cache_mem_mib: u64,
    /// Addresses this worker dials *into* at startup (`--dial`), joining
    /// a driver or sweep server's pool from behind NAT instead of waiting
    /// to be dialled. The worker still listens as usual.
    pub dial: Vec<String>,
}

impl Default for WorkerArgs {
    fn default() -> Self {
        WorkerArgs {
            listen: "127.0.0.1:7077".to_string(),
            name: "worker".to_string(),
            cores: 0,
            dataset: DatasetChoice::Mnist,
            samples: 1_000,
            seed: 42,
            cnn: false,
            target_accuracy: None,
            ckpt_every: 0,
            status_addr: None,
            cache_mem_mib: 256,
            dial: Vec::new(),
        }
    }
}

/// Parsed `serve` subcommand: a long-lived multi-tenant sweep server
/// (`rcompss-server` / `hpo-run serve`) that owns the worker pool and
/// runs sweeps submitted by clients.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Listen address — one socket for both workers and sweep clients.
    pub listen: String,
    /// Worker addresses to dial out to at startup.
    pub workers: Vec<String>,
    /// Workers expected to dial *in* (started with `--dial` at us)
    /// before the pool is sealed.
    pub expect_workers: usize,
    /// Deadline (seconds) for gathering the whole pool.
    pub pool_timeout_secs: u64,
    /// Local thread-pool cores when serving without remote workers
    /// (`0` = distributed mode, require a pool).
    pub local_cores: u32,
    /// Sweeps allowed to run concurrently.
    pub max_active: usize,
    /// Queued sweeps beyond the active set before rejection.
    pub max_queued: usize,
    /// Per-tenant trial admissions per second (`0` = unlimited).
    pub rate: f64,
    /// Token-bucket burst capacity.
    pub burst: f64,
    /// Per-tenant total trial budget (`0` = unlimited).
    pub quota_trials: u64,
    /// Default wave size applied to sweeps that do not request one.
    pub wave: usize,
    /// Dataset recipe — must match the pool's workers.
    pub dataset: DatasetChoice,
    /// Dataset size — must match the pool's workers.
    pub samples: usize,
    /// Dataset RNG seed — must match the pool's workers.
    pub seed: u64,
    /// CNN architectures — must match the pool's workers.
    pub cnn: bool,
    /// In-trial early-stop target — must match the pool's workers.
    pub target_accuracy: Option<f64>,
    /// CPU cores per experiment task.
    pub cores_per_task: u32,
    /// Serve live `GET /metrics` + `/healthz` here.
    pub status_addr: Option<String>,
    /// Block-plane inline threshold (see the run flag of the same name).
    pub inline_threshold: u64,
    /// Stage-tree prefix sharing for served sweeps.
    pub share_prefixes: bool,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            listen: "127.0.0.1:7070".to_string(),
            workers: Vec::new(),
            expect_workers: 0,
            pool_timeout_secs: 30,
            local_cores: 0,
            max_active: 4,
            max_queued: 16,
            rate: 0.0,
            burst: 8.0,
            quota_trials: 0,
            wave: 0,
            dataset: DatasetChoice::Mnist,
            samples: 1_000,
            seed: 42,
            cnn: false,
            target_accuracy: None,
            cores_per_task: 1,
            status_addr: None,
            inline_threshold: 64 * 1024,
            share_prefixes: false,
        }
    }
}

/// What a sweep-client subcommand does once connected.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Submit a sweep; optionally stream it to completion.
    Submit {
        /// JSON search-space file.
        config: String,
        /// Sweep display name.
        name: String,
        /// Search algorithm.
        algo: AlgoChoice,
        /// Trial budget for sampled algorithms.
        trials: usize,
        /// RNG seed.
        seed: u64,
        /// Requested wave size (`0` = server default).
        wave: u32,
        /// Stay connected and stream the leaderboard to completion.
        watch: bool,
        /// Write the final leaderboard CSV here (implies `watch`).
        csv_out: Option<String>,
    },
    /// Print a sweep's status once.
    Status {
        /// Server-assigned sweep id.
        sweep_id: u64,
    },
    /// Subscribe to a sweep and stream it to completion.
    Watch {
        /// Server-assigned sweep id.
        sweep_id: u64,
    },
    /// Cancel a sweep.
    Cancel {
        /// Server-assigned sweep id.
        sweep_id: u64,
    },
}

/// Parsed sweep-client subcommand (`submit` / `status` / `watch` /
/// `cancel`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientArgs {
    /// Sweep server address.
    pub server: String,
    /// Tenant identity this connection submits under.
    pub tenant: String,
    /// The verb.
    pub action: ClientAction,
}

/// Which entry point a command line selects.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Drive an HPO run (the default).
    Run(CliArgs),
    /// Serve as a task-executing worker daemon (`hpo-run worker ...` /
    /// the `rcompss-worker` binary).
    Worker(WorkerArgs),
    /// Serve sweeps to many tenants over one shared pool
    /// (`hpo-run serve ...` / the `rcompss-server` binary).
    Serve(ServeArgs),
    /// Talk to a sweep server (`hpo-run submit|status|watch|cancel`).
    Client(ClientArgs),
}

/// Parse error with a usage-worthy message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// The `--help` text.
pub const USAGE: &str = "\
hpo-run — distributed hyperparameter optimisation (PyCOMPSs-style)

USAGE:
    hpo-run --config <space.json> [OPTIONS]
    hpo-run worker [WORKER OPTIONS]
    hpo-run serve [SERVER OPTIONS]
    hpo-run submit --server <addr> --config <space.json> [CLIENT OPTIONS]
    hpo-run status|watch|cancel --server <addr> --sweep <id> [--tenant <t>]

OPTIONS:
    --config <file>        JSON search-space file (required)
    --algo <a>             grid | random | tpe | bayes      [grid]
    --dataset <d>          mnist | cifar10                  [mnist]
    --samples <n>          synthetic dataset size           [1000]
    --backend <b>          threaded | sim | distributed     [threaded]
    --workers <a,b,...>    worker host:port list (required for
                           --backend distributed)
    --nodes <n>            virtual nodes for --backend sim  [1]
    --cores-per-task <n>   CPU units per experiment         [1]
    --trials <n>           budget for random/tpe/bayes      [20]
    --seed <n>             RNG seed                         [42]
    --target-accuracy <x>  early-stop when reached
    --trace                enable Extrae-style tracing
    --trace-out <file>     write a Chrome trace_event JSON trace
                           (implies --trace; open in Perfetto)
    --graph <file>         record the task graph and write it as DOT
    --out <file>           write trial results as CSV
    --metrics-out <prefix> write runtime metrics to <prefix>.prom
                           (Prometheus text) and <prefix>.jsonl
    --no-metrics           disable runtime metrics collection
    --cnn                  train CNNs instead of dense nets
    --ckpt-dir <dir>       checkpoint the sweep: crash-safe journal plus
                           each in-flight trial's newest model snapshot
                           under <dir>
    --ckpt-every <n>       snapshot cadence in epochs            [1]
    --resume <dir>         resume an interrupted sweep from its
                           checkpoint directory: journaled-complete
                           trials are skipped, in-flight trials restart
                           from their snapshot
    --status-addr <addr>   serve live GET /metrics + /healthz here while
                           the run is in flight (Prometheus text format;
                           curl-able, e.g. 127.0.0.1:9100)
    --inline-threshold <n> distributed backend: values whose declared size
                           is >= n bytes travel content-addressed through
                           the block plane (cached per worker, shipped
                           once per node); smaller values are re-sent
                           inline in every Submit that reads them;
                           0 = everything, huge = never          [65536]
    --share-prefixes       stage-tree dedup: train the prefixes the
                           configs of a wave share once, fork the rest
                           from bit-exact snapshots (leaderboard
                           identical, fewer epochs; composes with every
                           --algo and with --ckpt-dir/--resume; ignored
                           under --target-accuracy and --backend sim)
    --help                 show this text

WORKER OPTIONS (hpo-run worker / rcompss-worker):
    --listen <addr>        listen address        [127.0.0.1:7077]
    --name <s>             worker display name   [worker]
    --cores <n>            advertised CPU cores  [autodetect]
    --ckpt-every <n>       snapshot cadence in epochs (0 = off); snapshots
                           ride back to the driver so retried trials
                           resume mid-training after a worker loss
    --status-addr <addr>   serve this worker's live GET /metrics +
                           /healthz here (Prometheus text format)
    --cache-mem <mib>      decoded-block cache budget in MiB; least-
                           recently-used blocks are evicted and re-
                           fetched on demand                   [256]
    --dial <a,b,...>       dial into these driver/server addresses at
                           startup and join their pools (the worker still
                           listens as usual)
    --dataset, --samples, --seed, --cnn, --target-accuracy
                           dataset recipe — must match the driver, so the
                           worker rebuilds the identical objective

SERVER OPTIONS (hpo-run serve / rcompss-server):
    --listen <addr>        one listener for workers and sweep clients
                                                 [127.0.0.1:7070]
    --workers <a,b,...>    worker addresses to dial out to at startup
    --expect-workers <n>   workers expected to dial in (started with
                           --dial at this server) before serving  [0]
    --pool-timeout <s>     deadline in seconds for gathering the pool [30]
    --local-cores <n>      serve from a local thread pool of n cores
                           instead of remote workers (dev/test mode)
    --max-active <n>       sweeps running concurrently             [4]
    --max-queued <n>       queued sweeps before rejection          [16]
    --rate <r>             per-tenant trial admissions per second
                           (token bucket; 0 = unlimited)           [0]
    --burst <n>            token-bucket burst capacity             [8]
    --quota-trials <n>     per-tenant total trial budget
                           (0 = unlimited)                         [0]
    --wave <n>             default wave size for sweeps that do not
                           request one
    --status-addr <addr>   serve live GET /metrics + /healthz here
    --share-prefixes       stage-tree dedup for served sweeps, within
                           each wave (pool workers must also register
                           the stage task; leaderboards stay
                           bit-identical; ignored under
                           --target-accuracy)
    --cores-per-task, --inline-threshold,
    --dataset, --samples, --seed, --cnn, --target-accuracy
                           as for a driver run; the dataset recipe must
                           match the pool's workers

CLIENT OPTIONS (hpo-run submit / status / watch / cancel):
    --server <addr>        sweep server address (required)
    --tenant <name>        tenant identity                  [default]
    --config <file>        JSON search-space file (submit; required)
    --name <s>             sweep display name               [file stem]
    --algo <a>             grid | random | tpe | bayes      [grid]
    --trials <n>           budget for random/tpe/bayes      [20]
    --seed <n>             RNG seed                         [42]
    --wave <n>             requested wave size (0 = server default)
    --watch                stream the leaderboard until the sweep ends
    --out <file>           write the final leaderboard CSV (implies
                           --watch)
    --sweep <id>           sweep id (status/watch/cancel; required)
";

fn take_value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a str>) -> Result<&'a str, CliError> {
    it.next().ok_or_else(|| CliError(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, CliError> {
    v.parse().map_err(|_| CliError(format!("{flag}: invalid value '{v}'")))
}

/// Parse an argument list (without the binary name).
pub fn parse(args: &[&str]) -> Result<CliArgs, CliError> {
    let mut out = CliArgs::default();
    let mut it = args.iter().copied();
    let mut saw_config = false;
    let mut saw_ckpt_every = false;
    let mut resume_dir: Option<String> = None;
    while let Some(arg) = it.next() {
        match arg {
            "--help" | "-h" => return Err(CliError(USAGE.to_string())),
            "--config" => {
                out.config = take_value(arg, &mut it)?.to_string();
                saw_config = true;
            }
            "--algo" => out.algo = parse_algo(take_value(arg, &mut it)?)?,
            "--dataset" => out.dataset = parse_dataset(take_value(arg, &mut it)?)?,
            "--backend" => {
                out.backend = match take_value(arg, &mut it)? {
                    "threaded" => BackendChoice::Threaded,
                    "sim" => BackendChoice::Sim,
                    "distributed" => BackendChoice::Distributed,
                    other => return Err(CliError(format!("unknown backend '{other}'"))),
                };
            }
            "--workers" => out.workers = parse_addr_list(take_value(arg, &mut it)?),
            "--samples" => out.samples = parse_num(arg, take_value(arg, &mut it)?)?,
            "--nodes" => out.nodes = parse_num(arg, take_value(arg, &mut it)?)?,
            "--cores-per-task" => out.cores_per_task = parse_num(arg, take_value(arg, &mut it)?)?,
            "--trials" => out.trials = parse_num(arg, take_value(arg, &mut it)?)?,
            "--seed" => out.seed = parse_num(arg, take_value(arg, &mut it)?)?,
            "--target-accuracy" => {
                out.target_accuracy = Some(parse_num(arg, take_value(arg, &mut it)?)?);
            }
            "--trace" => out.trace = true,
            "--trace-out" => {
                out.trace_out = Some(take_value(arg, &mut it)?.to_string());
                out.trace = true;
            }
            "--graph" => out.graph_out = Some(take_value(arg, &mut it)?.to_string()),
            "--out" => out.csv_out = Some(take_value(arg, &mut it)?.to_string()),
            "--metrics-out" => out.metrics_out = Some(take_value(arg, &mut it)?.to_string()),
            "--no-metrics" => out.no_metrics = true,
            "--cnn" => out.cnn = true,
            "--ckpt-dir" => out.ckpt_dir = Some(take_value(arg, &mut it)?.to_string()),
            "--ckpt-every" => {
                out.ckpt_every = parse_num(arg, take_value(arg, &mut it)?)?;
                saw_ckpt_every = true;
            }
            "--resume" => {
                resume_dir = Some(take_value(arg, &mut it)?.to_string());
                out.resume = true;
            }
            "--status-addr" => out.status_addr = Some(take_value(arg, &mut it)?.to_string()),
            "--inline-threshold" => {
                out.inline_threshold = parse_num(arg, take_value(arg, &mut it)?)?;
            }
            "--share-prefixes" => out.share_prefixes = true,
            other => return Err(CliError(format!("unknown flag '{other}'\n\n{USAGE}"))),
        }
    }
    if !saw_config {
        return Err(CliError(format!("--config is required\n\n{USAGE}")));
    }
    if out.no_metrics && out.metrics_out.is_some() {
        return Err(CliError("--metrics-out conflicts with --no-metrics".to_string()));
    }
    if out.nodes == 0 {
        return Err(CliError("--nodes must be at least 1".to_string()));
    }
    if out.cores_per_task == 0 {
        return Err(CliError("--cores-per-task must be at least 1".to_string()));
    }
    if out.backend == BackendChoice::Distributed && out.workers.is_empty() {
        return Err(CliError("--backend distributed requires --workers <addr,...>".to_string()));
    }
    if out.backend != BackendChoice::Distributed && !out.workers.is_empty() {
        return Err(CliError("--workers only applies to --backend distributed".to_string()));
    }
    if let Some(dir) = resume_dir {
        if out.ckpt_dir.is_some() {
            return Err(CliError(
                "--resume <dir> already names the checkpoint directory; drop --ckpt-dir"
                    .to_string(),
            ));
        }
        out.ckpt_dir = Some(dir);
    }
    if saw_ckpt_every && out.ckpt_dir.is_none() {
        return Err(CliError("--ckpt-every requires --ckpt-dir or --resume".to_string()));
    }
    if out.ckpt_every == 0 {
        return Err(CliError("--ckpt-every must be at least 1".to_string()));
    }
    Ok(out)
}

/// Parse a full command line, recognising the `worker`, `serve` and
/// sweep-client subcommands; anything else goes through [`parse`] as a
/// driver invocation.
pub fn parse_command(args: &[&str]) -> Result<Command, CliError> {
    match args.first() {
        Some(&"worker") => parse_worker(&args[1..]).map(Command::Worker),
        Some(&"serve") => parse_serve(&args[1..]).map(Command::Serve),
        Some(&verb @ ("submit" | "status" | "watch" | "cancel")) => {
            parse_client(verb, &args[1..]).map(Command::Client)
        }
        _ => parse(args).map(Command::Run),
    }
}

fn parse_dataset(v: &str) -> Result<DatasetChoice, CliError> {
    match v {
        "mnist" => Ok(DatasetChoice::Mnist),
        "cifar10" | "cifar" => Ok(DatasetChoice::Cifar10),
        other => Err(CliError(format!("unknown dataset '{other}'"))),
    }
}

fn parse_algo(v: &str) -> Result<AlgoChoice, CliError> {
    match v {
        "grid" => Ok(AlgoChoice::Grid),
        "random" => Ok(AlgoChoice::Random),
        "tpe" => Ok(AlgoChoice::Tpe),
        "bayes" => Ok(AlgoChoice::Bayes),
        other => Err(CliError(format!("unknown algorithm '{other}'"))),
    }
}

fn parse_addr_list(v: &str) -> Vec<String> {
    v.split(',').map(str::trim).filter(|w| !w.is_empty()).map(str::to_string).collect()
}

/// Parse the flags of the `serve` subcommand.
pub fn parse_serve(args: &[&str]) -> Result<ServeArgs, CliError> {
    let mut out = ServeArgs::default();
    let mut it = args.iter().copied();
    while let Some(arg) = it.next() {
        match arg {
            "--help" | "-h" => return Err(CliError(USAGE.to_string())),
            "--listen" => out.listen = take_value(arg, &mut it)?.to_string(),
            "--workers" => out.workers = parse_addr_list(take_value(arg, &mut it)?),
            "--expect-workers" => out.expect_workers = parse_num(arg, take_value(arg, &mut it)?)?,
            "--pool-timeout" => out.pool_timeout_secs = parse_num(arg, take_value(arg, &mut it)?)?,
            "--local-cores" => out.local_cores = parse_num(arg, take_value(arg, &mut it)?)?,
            "--max-active" => out.max_active = parse_num(arg, take_value(arg, &mut it)?)?,
            "--max-queued" => out.max_queued = parse_num(arg, take_value(arg, &mut it)?)?,
            "--rate" => out.rate = parse_num(arg, take_value(arg, &mut it)?)?,
            "--burst" => out.burst = parse_num(arg, take_value(arg, &mut it)?)?,
            "--quota-trials" => out.quota_trials = parse_num(arg, take_value(arg, &mut it)?)?,
            "--wave" => out.wave = parse_num(arg, take_value(arg, &mut it)?)?,
            "--dataset" => out.dataset = parse_dataset(take_value(arg, &mut it)?)?,
            "--samples" => out.samples = parse_num(arg, take_value(arg, &mut it)?)?,
            "--seed" => out.seed = parse_num(arg, take_value(arg, &mut it)?)?,
            "--cnn" => out.cnn = true,
            "--target-accuracy" => {
                out.target_accuracy = Some(parse_num(arg, take_value(arg, &mut it)?)?);
            }
            "--cores-per-task" => out.cores_per_task = parse_num(arg, take_value(arg, &mut it)?)?,
            "--status-addr" => out.status_addr = Some(take_value(arg, &mut it)?.to_string()),
            "--inline-threshold" => {
                out.inline_threshold = parse_num(arg, take_value(arg, &mut it)?)?;
            }
            "--share-prefixes" => out.share_prefixes = true,
            other => return Err(CliError(format!("unknown serve flag '{other}'\n\n{USAGE}"))),
        }
    }
    if out.max_active == 0 {
        return Err(CliError("--max-active must be at least 1".to_string()));
    }
    if out.cores_per_task == 0 {
        return Err(CliError("--cores-per-task must be at least 1".to_string()));
    }
    if out.local_cores == 0 && out.workers.is_empty() && out.expect_workers == 0 {
        return Err(CliError(
            "serve needs a pool: --workers and/or --expect-workers, or --local-cores for a \
             local thread pool"
                .to_string(),
        ));
    }
    if out.local_cores > 0 && (!out.workers.is_empty() || out.expect_workers > 0) {
        return Err(CliError("--local-cores excludes --workers/--expect-workers".to_string()));
    }
    Ok(out)
}

/// Parse the flags of one sweep-client verb (`submit`, `status`,
/// `watch`, `cancel`).
pub fn parse_client(verb: &str, args: &[&str]) -> Result<ClientArgs, CliError> {
    let mut server: Option<String> = None;
    let mut tenant = "default".to_string();
    let mut config: Option<String> = None;
    let mut name: Option<String> = None;
    let mut algo = AlgoChoice::Grid;
    let mut trials = 20usize;
    let mut seed = 42u64;
    let mut wave = 0u32;
    let mut watch = false;
    let mut csv_out: Option<String> = None;
    let mut sweep_id: Option<u64> = None;
    let mut it = args.iter().copied();
    while let Some(arg) = it.next() {
        match arg {
            "--help" | "-h" => return Err(CliError(USAGE.to_string())),
            "--server" => server = Some(take_value(arg, &mut it)?.to_string()),
            "--tenant" => tenant = take_value(arg, &mut it)?.to_string(),
            "--config" => config = Some(take_value(arg, &mut it)?.to_string()),
            "--name" => name = Some(take_value(arg, &mut it)?.to_string()),
            "--algo" => algo = parse_algo(take_value(arg, &mut it)?)?,
            "--trials" => trials = parse_num(arg, take_value(arg, &mut it)?)?,
            "--seed" => seed = parse_num(arg, take_value(arg, &mut it)?)?,
            "--wave" => wave = parse_num(arg, take_value(arg, &mut it)?)?,
            "--watch" => watch = true,
            "--out" => {
                csv_out = Some(take_value(arg, &mut it)?.to_string());
                watch = true;
            }
            "--sweep" => sweep_id = Some(parse_num(arg, take_value(arg, &mut it)?)?),
            other => return Err(CliError(format!("unknown {verb} flag '{other}'\n\n{USAGE}"))),
        }
    }
    let server = server.ok_or_else(|| CliError(format!("{verb} requires --server <addr>")))?;
    let action = match verb {
        "submit" => {
            let config =
                config.ok_or_else(|| CliError("submit requires --config <file>".to_string()))?;
            let name = name.unwrap_or_else(|| {
                std::path::Path::new(&config)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "sweep".to_string())
            });
            ClientAction::Submit { config, name, algo, trials, seed, wave, watch, csv_out }
        }
        _ => {
            let sweep_id =
                sweep_id.ok_or_else(|| CliError(format!("{verb} requires --sweep <id>")))?;
            match verb {
                "status" => ClientAction::Status { sweep_id },
                "watch" => ClientAction::Watch { sweep_id },
                "cancel" => ClientAction::Cancel { sweep_id },
                _ => unreachable!("verbs are matched in parse_command"),
            }
        }
    };
    Ok(ClientArgs { server, tenant, action })
}

/// Parse the flags of the `worker` subcommand.
pub fn parse_worker(args: &[&str]) -> Result<WorkerArgs, CliError> {
    let mut out = WorkerArgs::default();
    let mut it = args.iter().copied();
    while let Some(arg) = it.next() {
        match arg {
            "--help" | "-h" => return Err(CliError(USAGE.to_string())),
            "--listen" => out.listen = take_value(arg, &mut it)?.to_string(),
            "--name" => out.name = take_value(arg, &mut it)?.to_string(),
            "--cores" => out.cores = parse_num(arg, take_value(arg, &mut it)?)?,
            "--dataset" => out.dataset = parse_dataset(take_value(arg, &mut it)?)?,
            "--samples" => out.samples = parse_num(arg, take_value(arg, &mut it)?)?,
            "--seed" => out.seed = parse_num(arg, take_value(arg, &mut it)?)?,
            "--cnn" => out.cnn = true,
            "--target-accuracy" => {
                out.target_accuracy = Some(parse_num(arg, take_value(arg, &mut it)?)?);
            }
            "--ckpt-every" => out.ckpt_every = parse_num(arg, take_value(arg, &mut it)?)?,
            "--status-addr" => out.status_addr = Some(take_value(arg, &mut it)?.to_string()),
            "--cache-mem" => out.cache_mem_mib = parse_num(arg, take_value(arg, &mut it)?)?,
            "--dial" => out.dial = parse_addr_list(take_value(arg, &mut it)?),
            other => return Err(CliError(format!("unknown worker flag '{other}'\n\n{USAGE}"))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_invocation() {
        let a = parse(&["--config", "space.json"]).unwrap();
        assert_eq!(a.config, "space.json");
        assert_eq!(a.algo, AlgoChoice::Grid);
        assert_eq!(a.backend, BackendChoice::Threaded);
        assert!(!a.trace);
    }

    #[test]
    fn full_invocation() {
        let a = parse(&[
            "--config",
            "s.json",
            "--algo",
            "tpe",
            "--dataset",
            "cifar10",
            "--samples",
            "500",
            "--backend",
            "sim",
            "--nodes",
            "28",
            "--cores-per-task",
            "48",
            "--trials",
            "64",
            "--seed",
            "7",
            "--target-accuracy",
            "0.95",
            "--trace",
            "--graph",
            "g.dot",
            "--out",
            "r.csv",
            "--cnn",
        ])
        .unwrap();
        assert_eq!(a.algo, AlgoChoice::Tpe);
        assert_eq!(a.dataset, DatasetChoice::Cifar10);
        assert_eq!(a.backend, BackendChoice::Sim);
        assert_eq!((a.nodes, a.cores_per_task, a.trials, a.seed), (28, 48, 64, 7));
        assert_eq!(a.target_accuracy, Some(0.95));
        assert!(a.trace && a.cnn);
        assert_eq!(a.graph_out.as_deref(), Some("g.dot"));
        assert_eq!(a.csv_out.as_deref(), Some("r.csv"));
    }

    #[test]
    fn metrics_flags_parse_and_conflict() {
        let a = parse(&["--config", "s.json", "--metrics-out", "results/run"]).unwrap();
        assert_eq!(a.metrics_out.as_deref(), Some("results/run"));
        assert!(!a.no_metrics);
        let b = parse(&["--config", "s.json", "--no-metrics"]).unwrap();
        assert!(b.no_metrics && b.metrics_out.is_none());
        let e = parse(&["--config", "s.json", "--no-metrics", "--metrics-out", "x"]).unwrap_err();
        assert!(e.0.contains("conflicts"), "{e}");
    }

    #[test]
    fn missing_config_is_an_error() {
        let e = parse(&["--algo", "grid"]).unwrap_err();
        assert!(e.0.contains("--config is required"));
    }

    #[test]
    fn bad_values_are_reported() {
        assert!(parse(&["--config", "x", "--algo", "sgd"]).is_err());
        assert!(parse(&["--config", "x", "--trials", "lots"]).is_err());
        assert!(parse(&["--config", "x", "--nodes", "0"]).is_err());
        assert!(parse(&["--config", "x", "--wat"]).is_err());
        assert!(parse(&["--config"]).is_err(), "dangling value");
    }

    #[test]
    fn help_returns_usage() {
        let e = parse(&["--help"]).unwrap_err();
        assert!(e.0.contains("USAGE"));
        assert!(e.0.contains("distributed"), "help documents the distributed backend");
        assert!(e.0.contains("--workers"));
        assert!(e.0.contains("worker [WORKER OPTIONS]"));
    }

    #[test]
    fn distributed_backend_parses_worker_list() {
        let a = parse(&[
            "--config",
            "s.json",
            "--backend",
            "distributed",
            "--workers",
            "127.0.0.1:7077, 127.0.0.1:7078",
        ])
        .unwrap();
        assert_eq!(a.backend, BackendChoice::Distributed);
        assert_eq!(a.workers, vec!["127.0.0.1:7077", "127.0.0.1:7078"]);
    }

    #[test]
    fn distributed_backend_requires_workers() {
        let e = parse(&["--config", "s.json", "--backend", "distributed"]).unwrap_err();
        assert!(e.0.contains("--workers"), "{e}");
        let e = parse(&["--config", "s.json", "--workers", "127.0.0.1:7077"]).unwrap_err();
        assert!(e.0.contains("only applies"), "{e}");
    }

    #[test]
    fn trace_out_implies_trace() {
        let a = parse(&["--config", "s.json", "--trace-out", "run.trace.json"]).unwrap();
        assert!(a.trace);
        assert_eq!(a.trace_out.as_deref(), Some("run.trace.json"));
    }

    #[test]
    fn worker_subcommand_parses() {
        let cmd = parse_command(&[
            "worker",
            "--listen",
            "0.0.0.0:9000",
            "--name",
            "gpu-box",
            "--cores",
            "8",
            "--dataset",
            "cifar10",
            "--samples",
            "500",
            "--seed",
            "7",
            "--cnn",
        ])
        .unwrap();
        let Command::Worker(w) = cmd else { panic!("expected worker subcommand") };
        assert_eq!(w.listen, "0.0.0.0:9000");
        assert_eq!(w.name, "gpu-box");
        assert_eq!(w.cores, 8);
        assert_eq!(w.dataset, DatasetChoice::Cifar10);
        assert_eq!((w.samples, w.seed), (500, 7));
        assert!(w.cnn);
    }

    #[test]
    fn worker_subcommand_defaults_and_errors() {
        let Command::Worker(w) = parse_command(&["worker"]).unwrap() else {
            panic!("expected worker")
        };
        assert_eq!(w, WorkerArgs::default());
        assert_eq!(w.listen, "127.0.0.1:7077");
        assert!(parse_worker(&["--wat"]).is_err());
        assert!(parse_worker(&["--listen"]).is_err(), "dangling value");
    }

    #[test]
    fn checkpoint_flags_parse() {
        let a = parse(&["--config", "s.json", "--ckpt-dir", "ckpts/run1", "--ckpt-every", "5"])
            .unwrap();
        assert_eq!(a.ckpt_dir.as_deref(), Some("ckpts/run1"));
        assert_eq!(a.ckpt_every, 5);
        assert!(!a.resume);
        // Defaults without any checkpoint flag: off.
        let b = parse(&["--config", "s.json"]).unwrap();
        assert_eq!(b.ckpt_dir, None);
        assert_eq!(b.ckpt_every, 1);
    }

    #[test]
    fn resume_names_the_checkpoint_directory() {
        let a = parse(&["--config", "s.json", "--resume", "ckpts/run1"]).unwrap();
        assert!(a.resume);
        assert_eq!(a.ckpt_dir.as_deref(), Some("ckpts/run1"));
        let e = parse(&["--config", "s.json", "--resume", "ckpts/run1", "--ckpt-dir", "elsewhere"])
            .unwrap_err();
        assert!(e.0.contains("already names"), "{e}");
    }

    #[test]
    fn checkpoint_knobs_are_validated() {
        let e = parse(&["--config", "s.json", "--ckpt-every", "5"]).unwrap_err();
        assert!(e.0.contains("requires --ckpt-dir"), "{e}");
        let e = parse(&["--config", "s.json", "--ckpt-dir", "d", "--ckpt-every", "0"]).unwrap_err();
        assert!(e.0.contains("--ckpt-every"), "{e}");
        assert!(parse(&["--config", "s.json", "--resume"]).is_err(), "dangling value");
    }

    #[test]
    fn worker_checkpoint_cadence_parses() {
        let w = parse_worker(&["--ckpt-every", "3"]).unwrap();
        assert_eq!(w.ckpt_every, 3);
        assert_eq!(WorkerArgs::default().ckpt_every, 0, "worker snapshots default off");
    }

    #[test]
    fn help_documents_checkpointing() {
        let e = parse(&["--help"]).unwrap_err();
        assert!(e.0.contains("--ckpt-dir"));
        assert!(e.0.contains("--resume"));
        assert!(e.0.contains("--ckpt-every"));
    }

    #[test]
    fn status_addr_parses_on_both_entry_points() {
        let a = parse(&["--config", "s.json", "--status-addr", "127.0.0.1:9100"]).unwrap();
        assert_eq!(a.status_addr.as_deref(), Some("127.0.0.1:9100"));
        assert_eq!(parse(&["--config", "s.json"]).unwrap().status_addr, None, "off by default");
        let w = parse_worker(&["--status-addr", "0.0.0.0:9101"]).unwrap();
        assert_eq!(w.status_addr.as_deref(), Some("0.0.0.0:9101"));
        assert!(parse(&["--config", "s.json", "--status-addr"]).is_err(), "dangling value");
        let e = parse(&["--help"]).unwrap_err();
        assert!(e.0.contains("--status-addr"), "help documents the scrape endpoint");
    }

    #[test]
    fn data_plane_flags_parse() {
        let a = parse(&["--config", "s.json", "--inline-threshold", "4096"]).unwrap();
        assert_eq!(a.inline_threshold, 4096);
        assert_eq!(
            parse(&["--config", "s.json"]).unwrap().inline_threshold,
            64 * 1024,
            "block plane on by default above 64 KiB"
        );
        let w = parse_worker(&["--cache-mem", "64"]).unwrap();
        assert_eq!(w.cache_mem_mib, 64);
        assert_eq!(WorkerArgs::default().cache_mem_mib, 256);
        assert!(parse_worker(&["--cache-mem", "lots"]).is_err(), "non-numeric rejected");
        let e = parse(&["--help"]).unwrap_err();
        assert!(e.0.contains("--inline-threshold") && e.0.contains("--cache-mem"));
    }

    #[test]
    fn share_prefix_flags_parse() {
        let a = parse(&["--config", "s.json", "--share-prefixes"]).unwrap();
        assert!(a.share_prefixes);
        let b = parse(&["--config", "s.json"]).unwrap();
        assert!(!b.share_prefixes, "prefix sharing is opt-in");
        let s = parse_serve(&["--local-cores", "2", "--share-prefixes"]).unwrap();
        assert!(s.share_prefixes);
        assert!(!ServeArgs::default().share_prefixes);
        let e = parse(&["--help"]).unwrap_err();
        assert!(e.0.contains("--share-prefixes"), "help documents prefix sharing");
    }

    #[test]
    fn non_worker_first_arg_is_a_run_command() {
        let cmd = parse_command(&["--config", "s.json"]).unwrap();
        assert!(matches!(cmd, Command::Run(_)));
    }

    #[test]
    fn worker_dial_flag_parses() {
        let w = parse_worker(&["--dial", "10.0.0.1:7070, 10.0.0.2:7070"]).unwrap();
        assert_eq!(w.dial, vec!["10.0.0.1:7070", "10.0.0.2:7070"]);
        assert!(WorkerArgs::default().dial.is_empty(), "dial-out off by default");
        assert!(parse_worker(&["--dial"]).is_err(), "dangling value");
    }

    #[test]
    fn serve_subcommand_parses() {
        let cmd = parse_command(&[
            "serve",
            "--listen",
            "0.0.0.0:7070",
            "--workers",
            "w1:7077,w2:7077",
            "--max-active",
            "2",
            "--rate",
            "5.5",
            "--burst",
            "3",
            "--quota-trials",
            "100",
            "--wave",
            "4",
            "--dataset",
            "cifar10",
        ])
        .unwrap();
        let Command::Serve(s) = cmd else { panic!("expected serve subcommand") };
        assert_eq!(s.listen, "0.0.0.0:7070");
        assert_eq!(s.workers, vec!["w1:7077", "w2:7077"]);
        assert_eq!((s.max_active, s.max_queued), (2, 16));
        assert_eq!((s.rate, s.burst), (5.5, 3.0));
        assert_eq!((s.quota_trials, s.wave), (100, 4));
        assert_eq!(s.dataset, DatasetChoice::Cifar10);
    }

    #[test]
    fn serve_requires_a_pool() {
        let e = parse_serve(&[]).unwrap_err();
        assert!(e.0.contains("needs a pool"), "{e}");
        assert!(parse_serve(&["--local-cores", "4"]).is_ok(), "local pool is a pool");
        assert!(parse_serve(&["--expect-workers", "2"]).is_ok(), "dial-ins are a pool");
        let e = parse_serve(&["--local-cores", "4", "--workers", "w:1"]).unwrap_err();
        assert!(e.0.contains("excludes"), "{e}");
        let e = parse_serve(&["--workers", "w:1", "--max-active", "0"]).unwrap_err();
        assert!(e.0.contains("--max-active"), "{e}");
    }

    #[test]
    fn submit_subcommand_parses() {
        let cmd = parse_command(&[
            "submit",
            "--server",
            "127.0.0.1:7070",
            "--tenant",
            "acme",
            "--config",
            "sweeps/nightly.json",
            "--algo",
            "random",
            "--trials",
            "32",
            "--seed",
            "7",
            "--watch",
        ])
        .unwrap();
        let Command::Client(c) = cmd else { panic!("expected client subcommand") };
        assert_eq!(c.server, "127.0.0.1:7070");
        assert_eq!(c.tenant, "acme");
        let ClientAction::Submit { config, name, algo, trials, seed, watch, .. } = c.action else {
            panic!("expected submit action")
        };
        assert_eq!(config, "sweeps/nightly.json");
        assert_eq!(name, "nightly", "name defaults to the config file stem");
        assert_eq!(algo, AlgoChoice::Random);
        assert_eq!((trials, seed), (32, 7));
        assert!(watch);
    }

    #[test]
    fn submit_out_implies_watch() {
        let c =
            parse_client("submit", &["--server", "s:1", "--config", "x.json", "--out", "l.csv"])
                .unwrap();
        let ClientAction::Submit { watch, csv_out, .. } = c.action else { panic!("submit") };
        assert!(watch, "--out implies --watch");
        assert_eq!(csv_out.as_deref(), Some("l.csv"));
    }

    #[test]
    fn client_verbs_require_their_arguments() {
        let e = parse_client("submit", &["--config", "x.json"]).unwrap_err();
        assert!(e.0.contains("--server"), "{e}");
        let e = parse_client("submit", &["--server", "s:1"]).unwrap_err();
        assert!(e.0.contains("--config"), "{e}");
        let e = parse_client("cancel", &["--server", "s:1"]).unwrap_err();
        assert!(e.0.contains("--sweep"), "{e}");
        let c = parse_client("status", &["--server", "s:1", "--sweep", "3"]).unwrap();
        assert_eq!(c.action, ClientAction::Status { sweep_id: 3 });
        assert_eq!(c.tenant, "default");
        let c = parse_client("watch", &["--server", "s:1", "--sweep", "9"]).unwrap();
        assert_eq!(c.action, ClientAction::Watch { sweep_id: 9 });
    }

    #[test]
    fn help_documents_the_sweep_server() {
        let e = parse(&["--help"]).unwrap_err();
        assert!(e.0.contains("serve [SERVER OPTIONS]"));
        assert!(e.0.contains("--max-active"));
        assert!(e.0.contains("--quota-trials"));
        assert!(e.0.contains("--expect-workers"));
        assert!(e.0.contains("--dial"));
        assert!(e.0.contains("submit --server"));
    }
}
