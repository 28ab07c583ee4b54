//! End-to-end tests of the `hpo-run` launcher binary (the `runcompss`
//! analogue), exercised as a real subprocess.

use std::io::{BufRead, BufReader, Lines};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Output, Stdio};

fn hpo_run() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hpo-run"))
}

/// A daemon child (`serve`, `worker`), killed when dropped. Its stdout
/// stays open so a late line cannot kill it with `EPIPE`.
struct Daemon {
    child: Child,
    _stdout: Lines<BufReader<ChildStdout>>,
}

impl Daemon {
    /// Start `cmd` and return it with the address its stdout names after
    /// `ready` (it binds `127.0.0.1:0` and prints where it landed).
    fn start(cmd: &mut Command, ready: &str) -> (Daemon, String) {
        let mut child = cmd.stdout(Stdio::piped()).spawn().expect("daemon starts");
        let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
        let addr = lines
            .by_ref()
            .map_while(Result::ok)
            .find_map(|l| Some(l.split_once(ready)?.1.split_whitespace().next()?.to_string()));
        let daemon = Daemon { child, _stdout: lines };
        (daemon, addr.unwrap_or_else(|| panic!("the daemon exited before printing '{ready}'")))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Stdout of a command that must succeed.
fn stdout_of(cmd: &mut Command) -> String {
    let out = cmd.output().expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

/// A scratch directory of one test's own, `$TMPDIR/hpo-cli-tests-<pid>-<test>`,
/// removed when the test ends, however it ends. Tests of this binary run in
/// parallel, so none shares another's directory.
struct TestDir(PathBuf);

impl TestDir {
    fn new(test: &str) -> TestDir {
        let dir = std::env::temp_dir().join(format!("hpo-cli-tests-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }

    /// Write `body` to the file `name` in the directory; its path.
    fn write(&self, name: &str, body: &str) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, body).unwrap();
        path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const SMALL_SPACE: &str = r#"{
    "optimizer": ["Adam", "SGD"],
    "num_epochs": [1, 2],
    "batch_size": [64]
}"#;

/// Two CNN trials small enough for a debug build, one per optimizer.
const TWO_CNN_TRIALS: &str =
    r#"{"optimizer": ["Adam", "SGD"], "num_epochs": [2], "batch_size": [16]}"#;

#[test]
fn grid_run_produces_leaderboard_and_csv() {
    let dir = TestDir::new("grid_run_produces_leaderboard_and_csv");
    let space = dir.write("space.json", SMALL_SPACE);
    let csv = space.with_file_name("out.csv");
    let output = hpo_run()
        .args(["--config", space.to_str().unwrap()])
        .args(["--samples", "300"])
        .args(["--out", csv.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    assert!(stdout.contains("grid: 4 trials"), "{stdout}");
    assert!(stdout.contains("top 4 of 4 trials"), "{stdout}");
    assert!(stdout.contains("new best"), "dashboard lines stream: {stdout}");
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert_eq!(csv_text.lines().count(), 5, "header + 4 rows");
}

#[test]
fn sim_backend_and_trace_flags_work() {
    let dir = TestDir::new("sim_backend_and_trace_flags_work");
    let space = dir.write("space2.json", SMALL_SPACE);
    let dot = space.with_file_name("graph.dot");
    let output = hpo_run()
        .args(["--config", space.to_str().unwrap()])
        .args(["--backend", "sim", "--nodes", "2", "--cores-per-task", "48"])
        .args(["--trace", "--graph", dot.to_str().unwrap()])
        .args(["--samples", "200"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    assert!(stdout.contains("trace:"), "{stdout}");
    assert!(stdout.contains("graph.experiment"), "profile table present: {stdout}");
    let dot_text = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_text.contains("digraph compss"));
}

#[test]
fn random_with_target_accuracy_early_stops() {
    let dir = TestDir::new("random_with_target_accuracy_early_stops");
    let space = dir.write("space3.json", r#"{"num_epochs": [3], "batch_size": [32, 64, 128]}"#);
    let output = hpo_run()
        .args(["--config", space.to_str().unwrap()])
        .args(["--algo", "random", "--trials", "12", "--samples", "600"])
        .args(["--target-accuracy", "0.5", "--seed", "5"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success());
    assert!(stdout.contains("early-stopped"), "{stdout}");
}

#[test]
fn checkpointed_run_can_be_resumed_without_rerunning_trials() {
    let dir = TestDir::new("checkpointed_run_can_be_resumed_without_rerunning_trials");
    let space = dir.write("space4.json", SMALL_SPACE);
    let ckpt_dir = space.with_file_name("ckpts");
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // First run: checkpoint everything. All 4 trials complete, so the
    // journal records 4 finished trials.
    let output = hpo_run()
        .args(["--config", space.to_str().unwrap()])
        .args(["--samples", "300"])
        .args(["--ckpt-dir", ckpt_dir.to_str().unwrap(), "--ckpt-every", "1"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    assert!(stdout.contains("checkpointing to"), "{stdout}");
    assert!(stdout.contains("grid: 4 trials"), "{stdout}");
    assert!(ckpt_dir.join("sweep.journal").is_file(), "journal written");

    // Second run resumes: every trial replays from the journal, nothing
    // retrains, and the resume banner reports it.
    let output = hpo_run()
        .args(["--config", space.to_str().unwrap()])
        .args(["--samples", "300"])
        .args(["--resume", ckpt_dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    assert!(stdout.contains("recovered journal"), "{stdout}");
    assert!(stdout.contains("4 trials complete, 0 in flight"), "{stdout}");
    assert!(stdout.contains("resumed sweep: 4 complete, 0 re-enqueued"), "{stdout}");
    assert!(stdout.contains("grid: 4 trials"), "{stdout}");
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // Prefix sharing takes the cadence too: segments [0, 2) and [2, 4)
    // each snapshot once through the runtime's channel, and count it.
    let space = dir.write("space4-staged.json", r#"{"num_epochs": [2, 4], "batch_size": [64]}"#);
    let metrics = space.with_file_name("staged-ckpt-metrics");
    let stdout = stdout_of(
        hpo_run()
            .args(["--config", space.to_str().unwrap(), "--samples", "300", "--share-prefixes"])
            .args(["--ckpt-dir", ckpt_dir.to_str().unwrap(), "--ckpt-every", "1"])
            .args(["--metrics-out", metrics.to_str().unwrap()]),
    );
    assert!(stdout.contains("stage tree: 2 epochs saved"), "{stdout}");
    let prom = std::fs::read_to_string(metrics.with_extension("prom")).unwrap();
    let saved = prom
        .lines()
        .find_map(|l| l.strip_prefix("ckpt_snapshots_saved_total "))
        .and_then(|v| v.parse::<f64>().ok());
    assert!(saved.is_some_and(|n| n >= 1.0), "segments saved no snapshot: {saved:?}");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

/// The deterministic columns of a trial CSV — config, accuracy, epochs_run —
/// one string per row, in file order. The quoted config label holds commas
/// of its own; what follows epochs_run is wall time and a failed trial's error.
fn trial_table(csv: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(csv).unwrap();
    let row = |row: &str| {
        let label = row[1..].find('"').unwrap() + 2;
        let mut rest = row[label + 1..].split(',');
        format!("{},{},{}", &row[..label], rest.next().unwrap(), rest.next().unwrap())
    };
    text.lines().skip(1).map(row).collect()
}

/// [`trial_table`], sorted: a served leaderboard lists rows as trials end.
fn sorted_table(csv: &std::path::Path) -> Vec<String> {
    let mut rows = trial_table(csv);
    rows.sort();
    rows
}

#[test]
fn killed_driver_resumes_bit_identical() {
    let dir = TestDir::new("killed_driver_resumes_bit_identical");
    let space =
        dir.write("space5.json", r#"{"num_epochs": [100], "batch_size": [32], "hidden": [4]}"#);
    let ckpt_dir = space.with_file_name("kill-ckpts");
    let snapshots = ckpt_dir.join("snapshots");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let has_snapshot = || {
        std::fs::read_dir(&snapshots).is_ok_and(|mut it| {
            it.any(|e| e.is_ok_and(|e| e.file_name().to_string_lossy().ends_with(".snap")))
        })
    };

    // SIGKILL the driver once its trial has a snapshot on disk.
    let mut child = hpo_run()
        .args(["--config", space.to_str().unwrap(), "--samples", "200"])
        .args(["--ckpt-dir", ckpt_dir.to_str().unwrap(), "--ckpt-every", "1"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary starts");
    while !has_snapshot() {
        assert!(child.try_wait().unwrap().is_none(), "the run ended before any snapshot landed");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    child.kill().unwrap();
    assert!(!child.wait().unwrap().success(), "the kill landed after the trial finished");

    let resumed = space.with_file_name("resumed.csv");
    let metrics = space.with_file_name("resumed-metrics");
    let output = hpo_run()
        .args(["--config", space.to_str().unwrap(), "--samples", "200"])
        .args(["--resume", ckpt_dir.to_str().unwrap(), "--out", resumed.to_str().unwrap()])
        .args(["--metrics-out", metrics.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    assert!(stdout.contains("resumed sweep: 0 complete, 1 re-enqueued"), "{stdout}");

    let plain = space.with_file_name("uninterrupted.csv");
    let output = hpo_run()
        .args(["--config", space.to_str().unwrap(), "--samples", "200"])
        .args(["--out", plain.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    assert_eq!(trial_table(&resumed), trial_table(&plain), "resumed == uninterrupted");

    let prom = std::fs::read_to_string(metrics.with_extension("prom")).unwrap();
    let restores: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("ckpt_restore_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    assert!(restores >= 1, "the trial restarted from its snapshot:\n{prom}");
    let left: Vec<_> = std::fs::read_dir(&snapshots).unwrap().collect();
    assert!(left.is_empty(), "a finished sweep leaves no snapshot: {left:?}");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn a_killed_driver_keeps_the_short_trial_that_finished_first() {
    // One batch on the simulated backend: the 100-epoch trial is admitted
    // first, the 1-epoch one second. Virtual time settles the short one
    // first, so its `Finished` record lands while the long body trains.
    let dir = TestDir::new("a_killed_driver_keeps_the_short_trial_that_finished_first");
    let space =
        dir.write("space.json", r#"{"num_epochs": [100, 1], "batch_size": [32], "hidden": [4]}"#);
    let ckpt_dir = space.with_file_name("ckpts");
    let run = |csv: &str| {
        let mut cmd = hpo_run();
        cmd.args(["--config", space.to_str().unwrap(), "--samples", "200", "--backend", "sim"])
            .args(["--out", space.with_file_name(csv).to_str().unwrap()]);
        cmd
    };
    let short_finished = || {
        let state = hpo::ckpt::CheckpointSpec::new(&ckpt_dir).recover().unwrap_or_default();
        state.complete.keys().any(|k| state.labels[k].ends_with("num_epochs=1"))
    };

    let mut child = run("killed.csv")
        .args(["--ckpt-dir", ckpt_dir.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary starts");
    while !short_finished() {
        assert!(child.try_wait().unwrap().is_none(), "the run ended before the short row left");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    child.kill().unwrap();
    assert!(!child.wait().unwrap().success(), "the kill landed after the long trial finished");

    let stdout = stdout_of(run("resumed.csv").args(["--resume", ckpt_dir.to_str().unwrap()]));
    assert!(stdout.contains("resumed sweep: 1 complete, 1 re-enqueued"), "{stdout}");
    stdout_of(&mut run("uninterrupted.csv"));
    assert_eq!(
        trial_table(&space.with_file_name("resumed.csv")),
        trial_table(&space.with_file_name("uninterrupted.csv")),
        "resumed == uninterrupted"
    );
}

#[test]
fn bad_flags_fail_with_usage() {
    let out = hpo_run().args(["--nope"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("USAGE"), "{err}");

    let out = hpo_run().args(["--config", "/definitely/not/here.json"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn malformed_json_is_reported() {
    let dir = TestDir::new("malformed_json_is_reported");
    let space = dir.write("bad.json", "{broken");
    let out = hpo_run().args(["--config", space.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("JSON error"));
}

#[test]
fn help_goes_to_stdout_and_exits_zero() {
    let help = |out: Output| {
        assert!(out.status.success(), "asking for help is not an error");
        assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let all = help(hpo_run().arg("--help").output().unwrap());
    assert_eq!(all.matches("\nUSAGE: ").count(), 5, "every section: {all}");
    let worker = Command::new(env!("CARGO_BIN_EXE_rcompss-worker"));
    let server = Command::new(env!("CARGO_BIN_EXE_rcompss-server"));
    for (mut cmd, args, own, other) in [
        (hpo_run(), &["worker", "-h"][..], "--cache-mem", "--max-active"),
        (worker, &["--help"][..], "--cache-mem", "--max-active"),
        (server, &["-h"][..], "--max-active", "--cache-mem"),
        (hpo_run(), &["submit", "--help"][..], "--watch", "--sweep"),
        (hpo_run(), &["cancel", "--help"][..], "--sweep", "--watch"),
    ] {
        let text = help(cmd.args(args).output().unwrap());
        assert_eq!(text.matches("\nUSAGE: ").count(), 1, "{args:?}: {text}");
        assert!(text.contains(own) && !text.contains(other), "{args:?}: {text}");
    }
}

#[test]
fn served_sweeps_equal_a_run_and_the_wave_decides_the_savings() {
    let dir = TestDir::new("served_sweeps_equal_a_run_and_the_wave_decides_the_savings");
    let space = dir.write("served.json", SMALL_SPACE);
    let (_server, addr) = Daemon::start(
        hpo_run().args(["serve", "--listen", "127.0.0.1:0", "--local-cores", "2"]).args([
            "--share-prefixes",
            "--max-active",
            "2",
            "--max-queued",
            "3",
            "--rate",
            "500",
            "--burst",
            "16",
            "--quota-trials",
            "64",
            "--cores-per-task",
            "2",
            "--dataset",
            "cifar10",
            "--samples",
            "60",
            "--seed",
            "7",
        ]),
        "sweep server ready on ",
    );
    let standalone = space.with_file_name("served-standalone.csv");
    stdout_of(
        hpo_run().args(["--config", space.to_str().unwrap(), "--dataset", "cifar10"]).args([
            "--samples",
            "60",
            "--seed",
            "7",
            "--out",
            standalone.to_str().unwrap(),
        ]),
    );

    // The same grid twice: one config per wave shares nothing, one wave of
    // four shares each optimizer's first epoch. The leaderboard must not
    // notice.
    let mut sweep_id = String::new();
    for (wave, saves) in [("1", false), ("4", true)] {
        let csv = space.with_file_name(format!("served-wave{wave}.csv"));
        let out = stdout_of(
            hpo_run()
                .args(["submit", "--server", &addr, "--tenant", "acme"])
                .args(["--config", space.to_str().unwrap(), "--name", &format!("wave{wave}")])
                .args(["--algo", "grid", "--trials", "4", "--seed", "7", "--wave", wave])
                .args(["--watch", "--out", csv.to_str().unwrap()]),
        );
        let done = out.lines().find(|l| l.contains(" done: 4 trials")).expect(&out);
        assert_eq!(done.contains("epochs saved"), saves, "--wave {wave}: {done}");
        assert_eq!(sorted_table(&csv), sorted_table(&standalone), "--wave {wave}");
        let header = |csv: &std::path::Path| {
            std::fs::read_to_string(csv).unwrap().lines().next().map(str::to_owned)
        };
        assert_eq!(header(&csv), header(&standalone), "one set of CSV columns");
        sweep_id = out.split_whitespace().nth(1).unwrap().to_string();
    }

    let query =
        |verb: &str| stdout_of(hpo_run().args([verb, "--server", &addr, "--sweep", &sweep_id]));
    assert!(query("status").contains(&format!("sweep {sweep_id}: done — 4/4 done")));
    assert!(query("watch").contains(&format!("sweep {sweep_id}: done")));
    assert!(query("cancel").contains(&format!("sweep {sweep_id} already done")));
}

#[test]
fn a_distributed_recipe_equals_threaded() {
    let dir = TestDir::new("a_distributed_recipe_equals_threaded");
    let space = dir.write("recipe.json", TWO_CNN_TRIALS);
    // At this target the Adam trial stops after one of its two epochs: a
    // worker that dropped any part of the recipe would train another table.
    let recipe = [
        "--dataset",
        "cifar10",
        "--samples",
        "30",
        "--seed",
        "7",
        "--cnn",
        "--target-accuracy",
        "0.1",
    ];
    let (_worker, addr) = Daemon::start(
        hpo_run()
            .args(["worker", "--listen", "127.0.0.1:0", "--name", "w-recipe", "--cores", "1"])
            .args(["--cache-mem", "64", "--ckpt-every", "1"])
            .args(recipe),
        " listening on ",
    );
    let run = |backend: &[&str], csv: &std::path::Path| {
        hpo_run()
            .args(["--config", space.to_str().unwrap(), "--out", csv.to_str().unwrap()])
            .args(backend)
            .args(recipe)
            .stdout(Stdio::null())
            .spawn()
            .unwrap()
    };
    let (threaded, distributed) =
        (space.with_file_name("recipe-threaded.csv"), space.with_file_name("recipe-dist.csv"));
    let mut runs = [
        run(&["--backend", "threaded"], &threaded),
        run(&["--backend", "distributed", "--workers", &addr], &distributed),
    ];
    for child in &mut runs {
        assert!(child.wait().unwrap().success());
    }
    let table = sorted_table(&threaded);
    assert!(
        table.iter().any(|row| row.ends_with("num_epochs=2,optimizer=Adam\",0.166667,1")),
        "{table:?}"
    );
    assert_eq!(sorted_table(&distributed), table);
}

#[test]
fn a_cnn_run_without_metrics_serves_alike() {
    let dir = TestDir::new("a_cnn_run_without_metrics_serves_alike");
    // Ten trials: with metrics on, the dashboard prints its metrics line
    // after the tenth.
    let ten = dir.write(
        "cnn-ten.json",
        r#"{"num_epochs": [1], "batch_size": [8, 9, 10, 11, 12, 13, 14, 15, 16, 17]}"#,
    );
    let out = stdout_of(hpo_run().args([
        "--config",
        ten.to_str().unwrap(),
        "--samples",
        "20",
        "--cnn",
        "--no-metrics",
    ]));
    assert!(out.contains("grid: 10 trials") && !out.contains("metrics:"), "{out}");

    // The stage task trains the same CNN the experiment task does.
    let shared = dir.write("cnn-shared.json", r#"{"num_epochs": [1, 2], "batch_size": [8]}"#);
    let (naive, staged) =
        (shared.with_file_name("cnn-naive.csv"), shared.with_file_name("cnn-staged.csv"));
    for (csv, flags) in [(&naive, &[][..]), (&staged, &["--share-prefixes"][..])] {
        stdout_of(
            hpo_run()
                .args(["--config", shared.to_str().unwrap(), "--samples", "20", "--cnn"])
                .args(["--out", csv.to_str().unwrap()])
                .args(flags),
        );
    }
    assert_eq!(sorted_table(&staged), sorted_table(&naive));

    // The CNN and early-stop recipe reaches a served sweep's objective.
    let space = dir.write("cnn-served.json", TWO_CNN_TRIALS);
    let recipe = ["--samples", "20", "--seed", "5", "--cnn", "--target-accuracy", "0.1"];
    let (_server, addr) = Daemon::start(
        hpo_run().args(["serve", "--listen", "127.0.0.1:0", "--local-cores", "1"]).args(recipe),
        "sweep server ready on ",
    );
    let (standalone, served) =
        (space.with_file_name("cnn-standalone.csv"), space.with_file_name("cnn-served.csv"));
    stdout_of(
        hpo_run()
            .args(["--config", space.to_str().unwrap(), "--out", standalone.to_str().unwrap()])
            .args(recipe),
    );
    stdout_of(
        hpo_run()
            .args(["submit", "--server", &addr, "--config", space.to_str().unwrap()])
            .args(["--out", served.to_str().unwrap()]),
    );
    let table = sorted_table(&standalone);
    assert!(
        table.iter().any(|row| row.ends_with("num_epochs=2,optimizer=Adam\",0.250000,1")),
        "{table:?}"
    );
    assert_eq!(sorted_table(&served), table);
}
