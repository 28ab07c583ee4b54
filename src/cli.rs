//! Command-line interface of the `hpo-run` launcher — the analogue of the
//! paper's `runcompss application.py json_file` entry point.
//!
//! Hand-rolled argument parsing (no CLI crates in the approved dependency
//! set), exposed as a library module so it is unit-testable. Every flag is
//! one row of `FLAGS`: one scanner reads a command line against the rows
//! of its subcommand, and `--help` is rendered from the same rows, so the
//! two cannot drift apart.

use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;

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

impl FromStr for AlgoChoice {
    type Err = &'static str;

    fn from_str(v: &str) -> Result<Self, Self::Err> {
        match v {
            "grid" => Ok(AlgoChoice::Grid),
            "random" => Ok(AlgoChoice::Random),
            "tpe" => Ok(AlgoChoice::Tpe),
            "bayes" => Ok(AlgoChoice::Bayes),
            _ => Err("expected grid | random | tpe | bayes"),
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

impl FromStr for DatasetChoice {
    type Err = &'static str;

    fn from_str(v: &str) -> Result<Self, Self::Err> {
        match v {
            "mnist" => Ok(DatasetChoice::Mnist),
            "cifar10" | "cifar" => Ok(DatasetChoice::Cifar10),
            _ => Err("expected mnist | cifar10"),
        }
    }
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

impl FromStr for BackendChoice {
    type Err = &'static str;

    fn from_str(v: &str) -> Result<Self, Self::Err> {
        match v {
            "threaded" => Ok(BackendChoice::Threaded),
            "sim" => Ok(BackendChoice::Sim),
            "distributed" => Ok(BackendChoice::Distributed),
            _ => Err("expected threaded | sim | distributed"),
        }
    }
}

/// The dataset recipe: what a driver, its workers and a sweep server must
/// agree on so that each of them builds the identical trainer (see
/// `worker::build_trainer`). One group of `FLAGS` rows, shared by
/// `run`, `worker` and `serve`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetRecipe {
    /// Dataset.
    pub dataset: DatasetChoice,
    /// Dataset size (examples), at least 1.
    pub samples: usize,
    /// Dataset RNG seed (a run's algorithm seed too).
    pub seed: u64,
    /// Train CNNs instead of dense nets.
    pub cnn: bool,
    /// Early-stop target accuracy, in [0, 1].
    pub target_accuracy: Option<f64>,
}

impl DatasetRecipe {
    fn from_scan(s: &Scan<'_>) -> Result<Self, CliError> {
        let recipe = DatasetRecipe {
            dataset: s.req("--dataset")?,
            samples: s.req("--samples")?,
            seed: s.req("--seed")?,
            cnn: s.given("--cnn"),
            target_accuracy: s.get("--target-accuracy")?,
        };
        if recipe.samples == 0 {
            return Err(bad("--samples must be at least 1"));
        }
        if recipe.target_accuracy.is_some_and(|t| !(0.0..=1.0).contains(&t)) {
            return Err(bad("--target-accuracy must be a number in [0, 1]"));
        }
        Ok(recipe)
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Path of the JSON search-space file (the paper's config file).
    pub config: String,
    /// Algorithm.
    pub algo: AlgoChoice,
    /// Dataset recipe; its seed seeds the algorithm too.
    pub recipe: DatasetRecipe,
    /// Backend.
    pub backend: BackendChoice,
    /// Virtual cluster size (sim backend) or ignored (threaded).
    pub nodes: usize,
    /// CPU cores per experiment task.
    pub cores_per_task: u32,
    /// Trial budget for random/TPE/Bayes (grid ignores it).
    pub trials: usize,
    /// Enable tracing (paper's tracing flag).
    pub trace: bool,
    /// Write the task graph DOT here.
    pub graph_out: Option<String>,
    /// Write the trial CSV here.
    pub csv_out: Option<String>,
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
    /// Stage-tree prefix sharing: train the prefixes the configs of a
    /// wave share once and fork the rest from snapshots (any algorithm,
    /// threaded or distributed backend; bit-identical leaderboard, fewer
    /// epochs).
    pub share_prefixes: bool,
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
    pub recipe: DatasetRecipe,
    /// Snapshot cadence in epochs (0 = off). Worker-side snapshots ride
    /// back to the driver over the wire, so a trial retried after a worker
    /// loss resumes mid-training instead of from epoch 0.
    pub ckpt_every: u32,
    /// Serve live `GET /metrics` + `GET /healthz` on this address
    /// (worker-local counters). `None` = no endpoint.
    pub status_addr: Option<String>,
    /// Block-cache memory budget per driver connection, MiB (`--cache-mem`),
    /// over decoded blocks, evicted least-recently-used.
    pub cache_mem_mib: u64,
    /// Addresses this worker dials *into* at startup (`--dial`), joining
    /// a driver or sweep server's pool from behind NAT instead of waiting
    /// to be dialled. The worker still listens as usual.
    pub dial: Vec<String>,
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
    /// Dataset recipe — must match the pool's workers.
    pub recipe: DatasetRecipe,
    /// CPU cores per experiment task.
    pub cores_per_task: u32,
    /// Serve live `GET /metrics` + `/healthz` here.
    pub status_addr: Option<String>,
    /// Stage-tree prefix sharing for served sweeps.
    pub share_prefixes: bool,
}

/// What a sweep-client subcommand does once connected.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Submit a sweep; optionally stream it to completion.
    Submit {
        /// Tenant the sweep is charged to.
        tenant: String,
        /// JSON search-space file.
        config: String,
        /// Sweep display name.
        name: String,
        /// Search algorithm.
        algo: AlgoChoice,
        /// Trial budget for sampled algorithms (the wire's `u32`).
        trials: u32,
        /// RNG seed.
        seed: u64,
        /// Wave size (`0` = no bound).
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

/// Why a command line did not yield a [`Command`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `-h`/`--help`: the help text, for stdout.
    Help(String),
    /// A bad command line: the message, for stderr.
    Bad(String),
}

impl CliError {
    /// Print the text where it belongs and give the exit code: help goes
    /// to stdout and exits 0, a bad command line to stderr and exits 1.
    pub fn report(&self) -> ExitCode {
        match self {
            CliError::Help(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            CliError::Bad(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help(text) | CliError::Bad(text) => f.write_str(text),
        }
    }
}

impl std::error::Error for CliError {}

fn bad(msg: impl Into<String>) -> CliError {
    CliError::Bad(msg.into())
}

/// The subcommands a flag can serve; `Query` is `status`, `watch` and
/// `cancel`, which take the same flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sub {
    Run,
    Worker,
    Serve,
    Submit,
    Query,
}

impl Sub {
    const ALL: [Sub; 5] = [Sub::Run, Sub::Worker, Sub::Serve, Sub::Submit, Sub::Query];

    fn usage(self) -> &'static str {
        match self {
            Sub::Run => "hpo-run --config <space.json> [OPTIONS]",
            Sub::Worker => "hpo-run worker [WORKER OPTIONS]  (or: rcompss-worker [WORKER OPTIONS])",
            Sub::Serve => "hpo-run serve [SERVER OPTIONS]  (or: rcompss-server [SERVER OPTIONS])",
            Sub::Submit => "hpo-run submit --server <addr> --config <space.json> [CLIENT OPTIONS]",
            Sub::Query => "hpo-run status|watch|cancel --server <addr> --sweep <id>",
        }
    }
}

/// One flag of one or more subcommands: its name, the subcommands it
/// serves, a value placeholder for `--help` (`None` for a switch), the
/// default used when it is absent (printed as `[..]`) and a help line.
struct Flag(&'static str, &'static [Sub], Option<&'static str>, Option<&'static str>, &'static str);

/// The tenant a `submit` without `--tenant` is charged to, and the one a
/// query connects as: the server charges only submissions to a tenant.
pub const DEFAULT_TENANT: &str = "default";

/// Every flag of every subcommand. A name may have one row per meaning
/// (`--out` of a run writes trials, of `submit` the leaderboard).
#[rustfmt::skip]
const FLAGS: &[Flag] = {
    use Sub::*;
    const RECIPE: &[Sub] = &[Run, Worker, Serve];
    &[
    Flag("--config", &[Run, Submit], Some("<file>"), None, "JSON search-space file (required)"),
    Flag("--algo", &[Run, Submit], Some("<a>"), Some("grid"), "grid | random | tpe | bayes"),
    Flag("--trials", &[Run, Submit], Some("<n>"), Some("20"), "trial budget for random / tpe / bayes"),
    Flag("--backend", &[Run], Some("<b>"), Some("threaded"), "threaded | sim | distributed"),
    Flag("--workers", &[Run], Some("<a,b,..>"), None, "worker host:port list (--backend distributed)"),
    Flag("--nodes", &[Run], Some("<n>"), Some("1"), "virtual nodes for --backend sim"),
    Flag("--trace", &[Run], None, None, "enable Extrae-style tracing"),
    Flag("--trace-out", &[Run], Some("<file>"), None, "write a Chrome trace_event JSON trace (implies --trace)"),
    Flag("--graph", &[Run], Some("<file>"), None, "record the task graph and write it as DOT"),
    Flag("--out", &[Run], Some("<file>"), None, "write trial results as CSV"),
    Flag("--metrics-out", &[Run], Some("<prefix>"), None, "write runtime metrics to <prefix>.prom and <prefix>.jsonl"),
    Flag("--no-metrics", &[Run], None, None, "disable runtime metrics collection"),
    Flag("--ckpt-dir", &[Run], Some("<dir>"), None, "checkpoint the sweep: journal + in-flight trials' snapshots"),
    Flag("--ckpt-every", &[Run], Some("<n>"), Some("1"), "snapshot cadence in epochs (with --ckpt-dir or --resume)"),
    Flag("--resume", &[Run], Some("<dir>"), None, "resume an interrupted sweep from its checkpoint directory"),
    Flag("--listen", &[Worker], Some("<addr>"), Some("127.0.0.1:7077"), "listen address"),
    Flag("--name", &[Worker], Some("<s>"), Some("worker"), "worker display name"),
    Flag("--cores", &[Worker], Some("<n>"), Some("0"), "advertised CPU cores (0 = autodetect)"),
    Flag("--ckpt-every", &[Worker], Some("<n>"), Some("0"), "snapshot cadence in epochs, shipped to the driver (0 = off)"),
    Flag("--cache-mem", &[Worker], Some("<mib>"), Some("256"), "decoded-block cache budget per driver connection in MiB, least recently used out"),
    Flag("--dial", &[Worker], Some("<a,b,..>"), None, "dial into these driver / server addresses and join their pools"),
    Flag("--listen", &[Serve], Some("<addr>"), Some("127.0.0.1:7070"), "one listener for workers and sweep clients"),
    Flag("--workers", &[Serve], Some("<a,b,..>"), None, "worker addresses to dial out to at startup"),
    Flag("--expect-workers", &[Serve], Some("<n>"), Some("0"), "workers expected to dial in (started with --dial)"),
    Flag("--local-cores", &[Serve], Some("<n>"), Some("0"), "serve from a local thread pool of n cores instead"),
    Flag("--max-active", &[Serve], Some("<n>"), Some("4"), "sweeps running concurrently"),
    Flag("--max-queued", &[Serve], Some("<n>"), Some("16"), "queued sweeps before rejection"),
    Flag("--rate", &[Serve], Some("<r>"), Some("0"), "per-tenant trial admissions per second (0 = unlimited)"),
    Flag("--burst", &[Serve], Some("<n>"), Some("8"), "token-bucket burst capacity"),
    Flag("--quota-trials", &[Serve], Some("<n>"), Some("0"), "per-tenant total trial budget (0 = unlimited)"),
    Flag("--cores-per-task", &[Run, Serve], Some("<n>"), Some("1"), "CPU units per experiment task"),
    Flag("--status-addr", &[Run, Worker, Serve], Some("<addr>"), None, "serve live GET /metrics + /healthz here"),
    Flag("--share-prefixes", &[Run, Serve], None, None, "train the prefixes a wave's configs share once (same leaderboard)"),
    Flag("--dataset", RECIPE, Some("<d>"), Some("mnist"), "mnist | cifar10; the recipe flags must match across processes"),
    Flag("--samples", RECIPE, Some("<n>"), Some("1000"), "synthetic dataset size"),
    Flag("--seed", RECIPE, Some("<n>"), Some("42"), "RNG seed (the dataset's; a run's algorithm too)"),
    Flag("--cnn", RECIPE, None, None, "train CNNs instead of dense nets"),
    Flag("--target-accuracy", RECIPE, Some("<x>"), None, "stop a trial (and a run's sweep) at this accuracy, in [0, 1]"),
    Flag("--server", &[Submit, Query], Some("<addr>"), None, "sweep server address (required)"),
    Flag("--tenant", &[Submit], Some("<name>"), Some(DEFAULT_TENANT), "tenant the sweep is charged to"),
    Flag("--name", &[Submit], Some("<s>"), None, "sweep display name (default: the config file's stem)"),
    Flag("--seed", &[Submit], Some("<n>"), Some("42"), "RNG seed"),
    Flag("--wave", &[Submit], Some("<n>"), Some("0"), "trials per wave, each wave one stage tree (0 = no bound)"),
    Flag("--watch", &[Submit], None, None, "stream the leaderboard until the sweep ends"),
    Flag("--out", &[Submit], Some("<file>"), None, "write the final leaderboard CSV (implies --watch)"),
    Flag("--sweep", &[Query], Some("<id>"), None, "sweep id (required)"),
    ]
};

/// The rows of `sub`, in table order.
fn rows(sub: Sub) -> impl Iterator<Item = &'static Flag> {
    FLAGS.iter().filter(move |f| f.1.contains(&sub))
}

/// The help text of `sub`, rendered from [`FLAGS`]: its own section, or
/// every subcommand's for a run, the command a bare `hpo-run` starts.
fn help(sub: Sub) -> String {
    let mut out = String::from(
        "hpo-run — distributed hyperparameter optimisation (PyCOMPSs-style)\n\
         Every subcommand takes -h / --help.\n",
    );
    let subs = if sub == Sub::Run { &Sub::ALL[..] } else { std::slice::from_ref(&sub) };
    for &sub in subs {
        out += &format!("\nUSAGE: {}\n", sub.usage());
        for Flag(name, _, value, default, text) in rows(sub) {
            let head = format!("{name} {}", value.unwrap_or_default());
            let default = default.map(|d| format!(" [{d}]")).unwrap_or_default();
            out += &format!("    {head:<28} {text}{default}\n");
        }
    }
    out
}

/// A command line read against the rows of one subcommand.
struct Scan<'a> {
    sub: Sub,
    /// Flags in command-line order, with their values (`None` for a
    /// switch); a repeated flag's last value wins.
    given: Vec<(&'static str, Option<&'a str>)>,
}

/// Read `args` as `sub`'s flags: `-h`/`--help` ends the scan with the help
/// text, an unknown flag or a flag without its value is an error.
fn scan<'a>(sub: Sub, args: &[&'a str]) -> Result<Scan<'a>, CliError> {
    let mut given = Vec::new();
    let mut it = args.iter().copied();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Err(CliError::Help(help(sub)));
        }
        let Some(&Flag(name, _, value, ..)) = rows(sub).find(|f| f.0 == arg) else {
            return Err(bad(format!("unknown flag '{arg}'\n{}", help(sub))));
        };
        let value = match value {
            Some(_) => Some(it.next().ok_or_else(|| bad(format!("{arg} needs a value")))?),
            None => None,
        };
        given.push((name, value));
    }
    Ok(Scan { sub, given })
}

impl<'a> Scan<'a> {
    /// The row of `name`; a name `sub` has no row for is a bug here.
    fn row(&self, name: &str) -> &'static Flag {
        rows(self.sub)
            .find(|f| f.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a flag of `{}`", self.sub.usage()))
    }

    /// Whether `name` is on the command line.
    fn given(&self, name: &str) -> bool {
        let _ = self.row(name);
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The last value given for `name`, else its row's default.
    fn value(&self, name: &str) -> Option<&'a str> {
        let given = self.given.iter().rev().find(|(n, _)| *n == name).and_then(|(_, v)| *v);
        given.or(self.row(name).3)
    }

    /// [`Self::value`], parsed as a `T`.
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        self.value(name)
            .map(|v| v.parse().map_err(|e| bad(format!("{name}: invalid value '{v}' ({e})"))))
            .transpose()
    }

    /// [`Self::get`] for a flag that must have a value.
    fn req<T: FromStr>(&self, name: &str) -> Result<T, CliError>
    where
        T::Err: fmt::Display,
    {
        self.get(name)?.ok_or_else(|| bad(format!("{name} is required")))
    }

    /// A comma-separated `host:port` list.
    fn addrs(&self, name: &str) -> Vec<String> {
        let list = self.value(name).unwrap_or_default().split(',');
        list.map(str::trim).filter(|w| !w.is_empty()).map(str::to_string).collect()
    }
}

/// Parse an argument list (without the binary name).
pub fn parse(args: &[&str]) -> Result<CliArgs, CliError> {
    let s = scan(Sub::Run, args)?;
    if s.given("--resume") && s.given("--ckpt-dir") {
        return Err(bad("--resume <dir> already names the checkpoint directory; drop --ckpt-dir"));
    }
    let out = CliArgs {
        // A bare `hpo-run` lands here: show it every subcommand.
        config: s.req("--config").map_err(|e| bad(format!("{e}\n{}", help(Sub::Run))))?,
        algo: s.req("--algo")?,
        recipe: DatasetRecipe::from_scan(&s)?,
        backend: s.req("--backend")?,
        nodes: s.req("--nodes")?,
        cores_per_task: s.req("--cores-per-task")?,
        trials: s.req("--trials")?,
        trace: s.given("--trace") || s.given("--trace-out"),
        graph_out: s.get("--graph")?,
        csv_out: s.get("--out")?,
        no_metrics: s.given("--no-metrics"),
        metrics_out: s.get("--metrics-out")?,
        workers: s.addrs("--workers"),
        trace_out: s.get("--trace-out")?,
        ckpt_dir: s.get("--ckpt-dir")?.or(s.get("--resume")?),
        ckpt_every: s.req("--ckpt-every")?,
        resume: s.given("--resume"),
        status_addr: s.get("--status-addr")?,
        share_prefixes: s.given("--share-prefixes"),
    };
    if out.no_metrics && out.metrics_out.is_some() {
        return Err(bad("--metrics-out conflicts with --no-metrics"));
    }
    if out.nodes == 0 {
        return Err(bad("--nodes must be at least 1"));
    }
    if out.cores_per_task == 0 {
        return Err(bad("--cores-per-task must be at least 1"));
    }
    if out.backend == BackendChoice::Distributed && out.workers.is_empty() {
        return Err(bad("--backend distributed requires --workers <addr,...>"));
    }
    if out.backend != BackendChoice::Distributed && !out.workers.is_empty() {
        return Err(bad("--workers only applies to --backend distributed"));
    }
    if s.given("--ckpt-every") && out.ckpt_dir.is_none() {
        return Err(bad("--ckpt-every requires --ckpt-dir or --resume"));
    }
    if out.ckpt_every == 0 {
        return Err(bad("--ckpt-every must be at least 1"));
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

/// Parse the flags of the `serve` subcommand.
pub fn parse_serve(args: &[&str]) -> Result<ServeArgs, CliError> {
    let s = scan(Sub::Serve, args)?;
    let out = ServeArgs {
        listen: s.req("--listen")?,
        workers: s.addrs("--workers"),
        expect_workers: s.req("--expect-workers")?,
        local_cores: s.req("--local-cores")?,
        max_active: s.req("--max-active")?,
        max_queued: s.req("--max-queued")?,
        rate: s.req("--rate")?,
        burst: s.req("--burst")?,
        quota_trials: s.req("--quota-trials")?,
        recipe: DatasetRecipe::from_scan(&s)?,
        cores_per_task: s.req("--cores-per-task")?,
        status_addr: s.get("--status-addr")?,
        share_prefixes: s.given("--share-prefixes"),
    };
    if out.max_active == 0 {
        return Err(bad("--max-active must be at least 1"));
    }
    for (name, v) in [("--rate", out.rate), ("--burst", out.burst)] {
        if !(v.is_finite() && v >= 0.0) {
            return Err(bad(format!("{name} must be a finite number, at least 0")));
        }
    }
    if out.cores_per_task == 0 {
        return Err(bad("--cores-per-task must be at least 1"));
    }
    if out.local_cores == 0 && out.workers.is_empty() && out.expect_workers == 0 {
        return Err(bad(
            "serve needs a pool: --workers and/or --expect-workers, or --local-cores for a \
             local thread pool",
        ));
    }
    if out.local_cores > 0 && (!out.workers.is_empty() || out.expect_workers > 0) {
        return Err(bad("--local-cores excludes --workers/--expect-workers"));
    }
    Ok(out)
}

/// Parse the flags of one sweep-client verb (`submit`, `status`,
/// `watch`, `cancel`).
pub fn parse_client(verb: &str, args: &[&str]) -> Result<ClientArgs, CliError> {
    let s = scan(if verb == "submit" { Sub::Submit } else { Sub::Query }, args)?;
    let server = s.req("--server")?;
    let action = match verb {
        "submit" => {
            let config: String = s.req("--config")?;
            let name = s.get("--name")?.unwrap_or_else(|| {
                std::path::Path::new(&config)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "sweep".to_string())
            });
            ClientAction::Submit {
                tenant: s.req("--tenant")?,
                config,
                name,
                algo: s.req("--algo")?,
                trials: s.req("--trials")?,
                seed: s.req("--seed")?,
                wave: s.req("--wave")?,
                watch: s.given("--watch") || s.given("--out"),
                csv_out: s.get("--out")?,
            }
        }
        "status" => ClientAction::Status { sweep_id: s.req("--sweep")? },
        "watch" => ClientAction::Watch { sweep_id: s.req("--sweep")? },
        "cancel" => ClientAction::Cancel { sweep_id: s.req("--sweep")? },
        _ => unreachable!("verbs are matched in parse_command"),
    };
    Ok(ClientArgs { server, action })
}

/// Parse the flags of the `worker` subcommand.
pub fn parse_worker(args: &[&str]) -> Result<WorkerArgs, CliError> {
    let s = scan(Sub::Worker, args)?;
    Ok(WorkerArgs {
        listen: s.req("--listen")?,
        name: s.req("--name")?,
        cores: s.req("--cores")?,
        recipe: DatasetRecipe::from_scan(&s)?,
        ckpt_every: s.req("--ckpt-every")?,
        status_addr: s.get("--status-addr")?,
        cache_mem_mib: s.req("--cache-mem")?,
        dial: s.addrs("--dial"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate of every (subcommand, flag) pair: the test in
    /// `tests/cli.rs` or the `ci.sh` stage whose command lines set it.
    /// This file's own parse tests do not count. The check is textual: a
    /// gate's text must hold the flag, not its subcommand's command line,
    /// so a flag that a gate also passes to another subcommand (serve's
    /// `--seed` beside the standalone run's) stays green here when dropped
    /// from its own line; the gate's assertions are what catch that.
    const GATES: &[(Sub, &str, &[&str])] = &[
        (
            Sub::Run,
            "tests/cli.rs::grid_run_produces_leaderboard_and_csv",
            &["--config", "--samples", "--out"],
        ),
        (
            Sub::Run,
            "tests/cli.rs::sim_backend_and_trace_flags_work",
            &["--backend", "--nodes", "--cores-per-task", "--trace", "--graph"],
        ),
        (
            Sub::Run,
            "tests/cli.rs::random_with_target_accuracy_early_stops",
            &["--algo", "--trials", "--seed", "--target-accuracy"],
        ),
        (
            Sub::Run,
            "tests/cli.rs::checkpointed_run_can_be_resumed_without_rerunning_trials",
            &["--ckpt-dir", "--ckpt-every", "--resume"],
        ),
        (Sub::Run, "tests/cli.rs::killed_driver_resumes_bit_identical", &["--metrics-out"]),
        (
            Sub::Run,
            "tests/cli.rs::a_distributed_recipe_equals_threaded",
            &["--workers", "--dataset"],
        ),
        (
            Sub::Run,
            "tests/cli.rs::a_cnn_run_without_metrics_serves_alike",
            &["--cnn", "--no-metrics"],
        ),
        (Sub::Run, "ci.sh: telemetry smoke", &["--status-addr", "--trace-out"]),
        (Sub::Run, "ci.sh: stage-tree smoke", &["--share-prefixes"]),
        (
            Sub::Worker,
            "ci.sh: distributed loopback smoke",
            &["--listen", "--name", "--samples", "--status-addr"],
        ),
        (Sub::Worker, "ci.sh: sweep-server smoke", &["--dial"]),
        (
            Sub::Worker,
            "tests/cli.rs::a_distributed_recipe_equals_threaded",
            &[
                "--cores",
                "--cache-mem",
                "--ckpt-every",
                "--dataset",
                "--seed",
                "--cnn",
                "--target-accuracy",
            ],
        ),
        (
            Sub::Serve,
            "tests/cli.rs::served_sweeps_equal_a_run_and_the_wave_decides_the_savings",
            &[
                "--listen",
                "--local-cores",
                "--max-active",
                "--max-queued",
                "--rate",
                "--burst",
                "--quota-trials",
                "--cores-per-task",
                "--share-prefixes",
                "--dataset",
                "--samples",
                "--seed",
            ],
        ),
        (
            Sub::Serve,
            "tests/cli.rs::a_cnn_run_without_metrics_serves_alike",
            &["--cnn", "--target-accuracy"],
        ),
        (
            Sub::Serve,
            "ci.sh: sweep-server smoke",
            &["--workers", "--expect-workers", "--status-addr"],
        ),
        (
            Sub::Submit,
            "tests/cli.rs::served_sweeps_equal_a_run_and_the_wave_decides_the_savings",
            &[
                "--server", "--tenant", "--config", "--name", "--algo", "--trials", "--seed",
                "--wave", "--watch", "--out",
            ],
        ),
        (
            Sub::Query,
            "tests/cli.rs::served_sweeps_equal_a_run_and_the_wave_decides_the_savings",
            &["--server", "--sweep"],
        ),
    ];

    /// The text of a gate: a test fn of `tests/cli.rs` up to its closing
    /// brace, or a `ci.sh` stage up to the next stage's `echo "==>`.
    fn gate_text<'t>(gate: &str, tests: &'t str, ci: &'t str) -> Option<&'t str> {
        if let Some(name) = gate.strip_prefix("tests/cli.rs::") {
            let body = &tests[tests.find(&format!("\nfn {name}("))?..];
            return Some(&body[..body.find("\n}\n")?]);
        }
        let header = gate.strip_prefix("ci.sh: ")?;
        let body = &ci[ci.find(&format!("echo \"==> {header}"))?..];
        Some(&body[..body[1..].find("echo \"==>").map_or(body.len(), |i| i + 1)])
    }

    /// Whether `text` holds `flag` as a whole token (`--workers` is not in
    /// `--expect-workers`).
    fn mentions(text: &str, flag: &str) -> bool {
        let word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '-' || c == '_');
        text.match_indices(flag).any(|(i, _)| {
            !word(text[..i].chars().next_back()) && !word(text[i + flag.len()..].chars().next())
        })
    }

    #[test]
    fn every_flag_pair_names_a_live_gate() {
        let (tests, ci) = (include_str!("../tests/cli.rs"), include_str!("../ci.sh"));
        let mut gated: Vec<(Sub, &str)> = Vec::new();
        for &(sub, gate, flags) in GATES {
            let text = gate_text(gate, tests, ci).unwrap_or_else(|| panic!("no gate `{gate}`"));
            for &flag in flags {
                assert!(rows(sub).any(|f| f.0 == flag), "`{gate}` gates {sub:?} {flag}: no row");
                assert!(mentions(text, flag), "`{gate}` never sets {flag}");
                assert!(!gated.contains(&(sub, flag)), "{sub:?} {flag} is gated twice");
                gated.push((sub, flag));
            }
        }
        for sub in Sub::ALL {
            for f in rows(sub) {
                assert!(gated.contains(&(sub, f.0)), "{sub:?} {} names no gate", f.0);
            }
        }
    }

    #[test]
    fn minimal_invocation() {
        let a = parse(&["--config", "space.json"]).unwrap();
        assert_eq!(a.config, "space.json");
        assert_eq!(a.algo, AlgoChoice::Grid);
        assert_eq!(a.backend, BackendChoice::Threaded);
        assert!(!a.trace);
        let recipe = DatasetRecipe {
            dataset: DatasetChoice::Mnist,
            samples: 1_000,
            seed: 42,
            cnn: false,
            target_accuracy: None,
        };
        assert_eq!(a.recipe, recipe, "the table's defaults");
        assert_eq!((a.nodes, a.cores_per_task, a.trials, a.ckpt_every), (1, 1, 20, 1));
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
        assert_eq!(a.recipe.dataset, DatasetChoice::Cifar10);
        assert_eq!(a.backend, BackendChoice::Sim);
        assert_eq!((a.nodes, a.cores_per_task, a.trials, a.recipe.seed), (28, 48, 64, 7));
        assert_eq!(a.recipe.target_accuracy, Some(0.95));
        assert!(a.trace && a.recipe.cnn);
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
        assert!(e.to_string().contains("conflicts"), "{e}");
    }

    #[test]
    fn missing_config_is_an_error() {
        // A bad run line, a bare `hpo-run` among them, names every subcommand.
        for (args, head) in [(&[][..], "--config is required"), (&["--nope"][..], "unknown flag")] {
            let Err(CliError::Bad(e)) = parse(args) else { panic!("{args:?} was accepted") };
            assert!(e.starts_with(head), "{e}");
            assert_eq!(e.matches("\nUSAGE: ").count(), Sub::ALL.len(), "{args:?}: {e}");
        }
    }

    #[test]
    fn bad_values_are_reported() {
        let bad_run = |extra: &[&str]| {
            let args = [&["--config", "x"][..], extra].concat();
            match parse(&args) {
                Err(CliError::Bad(msg)) => msg,
                other => panic!("{extra:?} was accepted: {other:?}"),
            }
        };
        assert!(bad_run(&["--algo", "sgd"]).contains("--algo"));
        assert!(bad_run(&["--trials", "lots"]).contains("--trials"));
        assert!(bad_run(&["--nodes", "0"]).contains("--nodes"));
        assert!(bad_run(&["--wat"]).contains("unknown flag '--wat'"));
        assert!(parse(&["--config"]).is_err(), "dangling value");
        // Values from outside the program are checked where they enter it.
        assert!(bad_run(&["--samples", "0"]).contains("--samples"));
        for t in ["NaN", "inf", "-0.1", "1.5"] {
            assert!(bad_run(&["--target-accuracy", t]).contains("--target-accuracy"), "{t}");
        }
        assert!(parse(&["--config", "x", "--target-accuracy", "1"]).is_ok(), "1 is a target");
        let e = parse_worker(&["--samples", "0"]).unwrap_err();
        assert!(e.to_string().contains("--samples"), "{e}");
        for (flag, v) in
            [("--rate", "-1"), ("--rate", "NaN"), ("--burst", "-0.5"), ("--burst", "inf")]
        {
            let e = parse_serve(&["--local-cores", "1", flag, v]).unwrap_err();
            assert!(e.to_string().contains(flag), "{flag} {v}: {e}");
        }
    }

    #[test]
    fn submit_counts_must_fit_the_wire() {
        let submit = |flag: &str, v: &str| {
            parse_client("submit", &["--server", "s:1", "--config", "x.json", flag, v])
        };
        for flag in ["--trials", "--wave"] {
            let e = submit(flag, "4294967297").unwrap_err();
            assert!(e.to_string().starts_with(flag), "{e}");
        }
        let c = submit("--trials", "4294967295").unwrap();
        assert!(matches!(c.action, ClientAction::Submit { trials: u32::MAX, .. }));
    }

    #[test]
    fn help_returns_usage() {
        let e = parse(&["--help"]).unwrap_err();
        assert!(matches!(e, CliError::Help(_)), "help is not an error");
        let e = e.to_string();
        assert!(e.contains("USAGE"));
        assert!(e.contains("distributed"), "help documents the distributed backend");
        assert!(e.contains("--workers"));
        assert!(e.contains("worker [WORKER OPTIONS]"));
        assert_eq!(e.matches("\nUSAGE: ").count(), Sub::ALL.len(), "every section");
        // A subcommand's help is its own section, rendered from its rows.
        for (sub, text) in [
            (Sub::Worker, parse_worker(&["-h"]).unwrap_err()),
            (Sub::Serve, parse_serve(&["--help"]).unwrap_err()),
            (Sub::Submit, parse_client("submit", &["--help"]).unwrap_err()),
            (Sub::Query, parse_client("cancel", &["-h"]).unwrap_err()),
        ] {
            let text = text.to_string();
            assert_eq!(text.matches("\nUSAGE: ").count(), 1, "{text}");
            let flags = text.lines().filter(|l| l.starts_with("    --")).count();
            assert_eq!(flags, rows(sub).count(), "{text}");
            assert!(rows(sub).all(|f| text.contains(f.4)), "{text}");
        }
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
        assert!(e.to_string().contains("--workers"), "{e}");
        let e = parse(&["--config", "s.json", "--workers", "127.0.0.1:7077"]).unwrap_err();
        assert!(e.to_string().contains("only applies"), "{e}");
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
        assert_eq!(w.recipe.dataset, DatasetChoice::Cifar10);
        assert_eq!((w.recipe.samples, w.recipe.seed), (500, 7));
        assert!(w.recipe.cnn);
    }

    #[test]
    fn worker_subcommand_defaults_and_errors() {
        let Command::Worker(w) = parse_command(&["worker"]).unwrap() else {
            panic!("expected worker")
        };
        assert_eq!(w.listen, "127.0.0.1:7077");
        assert_eq!((w.name.as_str(), w.cores, w.ckpt_every), ("worker", 0, 0));
        assert_eq!(w.recipe, parse(&["--config", "s.json"]).unwrap().recipe, "same recipe");
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
        assert!(e.to_string().contains("already names"), "{e}");
    }

    #[test]
    fn checkpoint_knobs_are_validated() {
        let e = parse(&["--config", "s.json", "--ckpt-every", "5"]).unwrap_err();
        assert!(e.to_string().contains("requires --ckpt-dir"), "{e}");
        let e = parse(&["--config", "s.json", "--ckpt-dir", "d", "--ckpt-every", "0"]).unwrap_err();
        assert!(e.to_string().contains("--ckpt-every"), "{e}");
        assert!(parse(&["--config", "s.json", "--resume"]).is_err(), "dangling value");
    }

    #[test]
    fn worker_checkpoint_cadence_parses() {
        let w = parse_worker(&["--ckpt-every", "3"]).unwrap();
        assert_eq!(w.ckpt_every, 3);
        assert_eq!(parse_worker(&[]).unwrap().ckpt_every, 0, "worker snapshots default off");
    }

    #[test]
    fn help_documents_checkpointing() {
        let e = parse(&["--help"]).unwrap_err().to_string();
        assert!(e.contains("--ckpt-dir"));
        assert!(e.contains("--resume"));
        assert!(e.contains("--ckpt-every"));
    }

    #[test]
    fn status_addr_parses_on_both_entry_points() {
        let a = parse(&["--config", "s.json", "--status-addr", "127.0.0.1:9100"]).unwrap();
        assert_eq!(a.status_addr.as_deref(), Some("127.0.0.1:9100"));
        assert_eq!(parse(&["--config", "s.json"]).unwrap().status_addr, None, "off by default");
        let w = parse_worker(&["--status-addr", "0.0.0.0:9101"]).unwrap();
        assert_eq!(w.status_addr.as_deref(), Some("0.0.0.0:9101"));
        assert!(parse(&["--config", "s.json", "--status-addr"]).is_err(), "dangling value");
        let e = parse(&["--help"]).unwrap_err().to_string();
        assert!(e.contains("--status-addr"), "help documents the scrape endpoint");
    }

    #[test]
    fn data_plane_flags_parse() {
        let w = parse_worker(&["--cache-mem", "64"]).unwrap();
        assert_eq!(w.cache_mem_mib, 64);
        assert_eq!(parse_worker(&[]).unwrap().cache_mem_mib, 256);
        assert!(parse_worker(&["--cache-mem", "lots"]).is_err(), "non-numeric rejected");
        let e = parse(&["--help"]).unwrap_err().to_string();
        assert!(e.contains("--cache-mem"));
        // The inline threshold is `DistributedConfig::inline_threshold`,
        // set through the API; no command line sets it.
        assert!(!e.contains("--inline-threshold"));
        assert!(parse(&["--config", "s.json", "--inline-threshold", "4096"]).is_err());
        assert!(parse_serve(&["--local-cores", "1", "--inline-threshold", "1"]).is_err());
    }

    #[test]
    fn share_prefix_flags_parse() {
        let a = parse(&["--config", "s.json", "--share-prefixes"]).unwrap();
        assert!(a.share_prefixes);
        let b = parse(&["--config", "s.json"]).unwrap();
        assert!(!b.share_prefixes, "prefix sharing is opt-in");
        let s = parse_serve(&["--local-cores", "2", "--share-prefixes"]).unwrap();
        assert!(s.share_prefixes);
        assert!(!parse_serve(&["--local-cores", "2"]).unwrap().share_prefixes);
        let e = parse(&["--help"]).unwrap_err().to_string();
        assert!(e.contains("--share-prefixes"), "help documents prefix sharing");
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
        assert!(parse_worker(&[]).unwrap().dial.is_empty(), "dial-out off by default");
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
            "--dataset",
            "cifar10",
        ])
        .unwrap();
        let Command::Serve(s) = cmd else { panic!("expected serve subcommand") };
        assert_eq!(s.listen, "0.0.0.0:7070");
        assert_eq!(s.workers, vec!["w1:7077", "w2:7077"]);
        assert_eq!((s.max_active, s.max_queued), (2, 16));
        assert_eq!((s.rate, s.burst), (5.5, 3.0));
        assert_eq!(s.quota_trials, 100);
        assert_eq!(s.recipe.dataset, DatasetChoice::Cifar10);
        // The wave is each sweep's own (`submit --wave`); serve has none.
        assert!(parse_serve(&["--workers", "w:1", "--wave", "4"]).is_err());
        assert!(parse_serve(&["--workers", "w:1", "--pool-timeout", "5"]).is_err());
    }

    #[test]
    fn serve_requires_a_pool() {
        let e = parse_serve(&[]).unwrap_err();
        assert!(e.to_string().contains("needs a pool"), "{e}");
        assert!(parse_serve(&["--local-cores", "4"]).is_ok(), "local pool is a pool");
        assert!(parse_serve(&["--expect-workers", "2"]).is_ok(), "dial-ins are a pool");
        let e = parse_serve(&["--local-cores", "4", "--workers", "w:1"]).unwrap_err();
        assert!(e.to_string().contains("excludes"), "{e}");
        let e = parse_serve(&["--workers", "w:1", "--max-active", "0"]).unwrap_err();
        assert!(e.to_string().contains("--max-active"), "{e}");
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
        let ClientAction::Submit { tenant, config, name, algo, trials, seed, watch, .. } = c.action
        else {
            panic!("expected submit action")
        };
        assert_eq!(tenant, "acme");
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
        assert!(e.to_string().contains("--server"), "{e}");
        let e = parse_client("submit", &["--server", "s:1"]).unwrap_err();
        assert!(e.to_string().contains("--config"), "{e}");
        let e = parse_client("cancel", &["--server", "s:1"]).unwrap_err();
        assert!(e.to_string().contains("--sweep"), "{e}");
        let c = parse_client("status", &["--server", "s:1", "--sweep", "3"]).unwrap();
        assert_eq!(c.action, ClientAction::Status { sweep_id: 3 });
        // Only a submission is charged to a tenant.
        let e = parse_client("status", &["--server", "s:1", "--sweep", "3", "--tenant", "t"]);
        assert!(e.unwrap_err().to_string().contains("unknown flag '--tenant'"));
        let c = parse_client("watch", &["--server", "s:1", "--sweep", "9"]).unwrap();
        assert_eq!(c.action, ClientAction::Watch { sweep_id: 9 });
    }

    #[test]
    fn help_documents_the_sweep_server() {
        let e = parse(&["--help"]).unwrap_err().to_string();
        assert!(e.contains("serve [SERVER OPTIONS]"));
        assert!(e.contains("--max-active"));
        assert!(e.contains("--quota-trials"));
        assert!(e.contains("--expect-workers"));
        assert!(e.contains("--dial"));
        assert!(e.contains("submit --server"));
    }
}
