//! End-to-end tests of the `hpo-run` launcher binary (the `runcompss`
//! analogue), exercised as a real subprocess.

use std::process::Command;

fn hpo_run() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hpo-run"))
}

fn write_space(name: &str, body: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hpo-cli-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

const SMALL_SPACE: &str = r#"{
    "optimizer": ["Adam", "SGD"],
    "num_epochs": [1, 2],
    "batch_size": [64]
}"#;

#[test]
fn grid_run_produces_leaderboard_and_csv() {
    let space = write_space("space.json", SMALL_SPACE);
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
    let space = write_space("space2.json", SMALL_SPACE);
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
    let space = write_space("space3.json", r#"{"num_epochs": [3], "batch_size": [32, 64, 128]}"#);
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
    let space = write_space("space4.json", SMALL_SPACE);
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
}

/// The deterministic columns of a trial CSV — config, accuracy, epochs_run —
/// one string per row. The quoted config label holds commas of its own, so
/// the two trailing columns (task_us, error) are cut from the right.
fn trial_table(csv: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(csv).unwrap();
    text.lines().skip(1).map(|row| row.rsplitn(3, ',').nth(2).unwrap().to_string()).collect()
}

#[test]
fn killed_driver_resumes_bit_identical() {
    let space =
        write_space("space5.json", r#"{"num_epochs": [100], "batch_size": [32], "hidden": [4]}"#);
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
    let space = write_space("bad.json", "{broken");
    let out = hpo_run().args(["--config", space.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("JSON error"));
}
