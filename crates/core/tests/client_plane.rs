//! The sweep server's client plane under clients that misbehave.
//!
//! Out of fds: a client the listener cannot accept yet must cost the server
//! no CPU while it waits, and must be served once an fd is free again. The
//! fd limit is per process, so the test re-runs its own binary as a child
//! that serves, and the parent plays client and watches the child's CPU
//! time. The limit is set from outside with `prlimit(1)` (util-linux).
//!
//! A watcher that never reads: the bytes queued for it are the server's
//! memory, so past a fixed backlog its connection is closed, while an
//! honest tenant beside it is served as if alone.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use hpo::algo::grid::GridSearch;
use hpo::client::{SubmitSpec, SweepClient};
use hpo::experiment::{ExperimentOptions, Objective, TrialOutcome};
use hpo::server::{
    ServerConfig, SweepServer, MAX_CLIENT_BACKLOG, REJECT_UNKNOWN_SWEEP, SWEEP_DONE,
};
use hpo::space::{Config, SearchSpace};
use hpo::HpoRunner;
use rcompss::{Runtime, RuntimeConfig};
use rnet::{Frame, LeaderRow};

const TEST: &str = "a_client_queued_while_out_of_fds_costs_no_cpu_and_is_served_later";
const CHILD: &str = "HPO_TEST_CLIENT_PLANE_CHILD";

/// Set the soft `RLIMIT_NOFILE` of process `pid`.
fn set_fd_limit(pid: u32, soft: u64) {
    let status = Command::new("prlimit")
        .args(["--pid", &pid.to_string(), &format!("--nofile={soft}:")])
        .status()
        .expect("run prlimit");
    assert!(status.success(), "prlimit --pid {pid} --nofile={soft}: failed");
}

/// User plus system CPU time of process `pid` so far, in seconds.
fn cpu_s(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
    // Fields 14 and 15 (utime, stime) count after the parenthesised name,
    // whose own text may hold spaces, in USER_HZ = 100 ticks.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks as f64 / 100.0
}

/// The child: serve sweeps with no fd to spare, until stdin says stop.
fn serve_out_of_fds() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = SweepServer::start_staged(
        listener,
        Runtime::threaded(RuntimeConfig::single_node(1)),
        Arc::new(|_: &hpo::space::Config, _: Option<u32>| Ok(TrialOutcome::with_accuracy(0.5))),
        None,
        ExperimentOptions::default(),
        ServerConfig::default(),
    )
    .expect("start server");
    let limits = std::fs::read_to_string("/proc/self/limits").expect("read limits");
    let soft = limits.lines().find(|l| l.starts_with("Max open files")).unwrap();
    let soft: u64 = soft.split_whitespace().nth(3).unwrap().parse().unwrap();
    // The lowest free fd: with the limit there, no new fd can be made.
    let next_fd = std::os::fd::AsRawFd::as_raw_fd(&std::fs::File::open("/dev/null").unwrap());
    set_fd_limit(std::process::id(), next_fd as u64);
    println!("serving {} {soft}", server.addr());
    let mut line = String::new();
    std::io::stdin().read_line(&mut line).expect("read the parent's word");
    server.shutdown();
}

/// Kills the child if the parent's side of the test panics.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn a_client_queued_while_out_of_fds_costs_no_cpu_and_is_served_later() {
    if std::env::var_os(CHILD).is_some() {
        return serve_out_of_fds();
    }
    let child = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", TEST, "--nocapture", "--test-threads=1"])
        .env(CHILD, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("re-run the test binary");
    let mut child = Reap(child);
    let pid = child.0.id();
    let mut out = BufReader::new(child.0.stdout.take().unwrap());
    // The harness prints the test's name ahead of it on the same line.
    let mut line = String::new();
    let at = loop {
        line.clear();
        assert!(out.read_line(&mut line).unwrap() > 0, "child exited before serving");
        if let Some(at) = line.find("serving ") {
            break at;
        }
    };
    let mut words = line[at..].split_whitespace().skip(1);
    let addr = words.next().unwrap().to_string();
    let soft: u64 = words.next().unwrap().parse().unwrap();

    // The handshake completes in the kernel; the server cannot accept it.
    let mut client = SweepClient::connect(&addr, "patient").expect("connect");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let before = cpu_s(pid);
    std::thread::sleep(Duration::from_secs(1));
    let waiting_cpu_s = cpu_s(pid) - before;
    eprintln!("server CPU while the client waited 1 s for an fd: {waiting_cpu_s:.2} s");

    set_fd_limit(pid, soft);
    let answer = client.status(999, false).expect("the queued client is served");
    assert_eq!(answer.expect_err("no sweep 999").code, REJECT_UNKNOWN_SWEEP);

    writeln!(child.0.stdin.as_ref().unwrap(), "stop").unwrap();
    let status = child.0.wait().unwrap();
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut out, &mut rest).unwrap();
    assert!(status.success() && rest.contains("1 passed"), "child failed ({status}):\n{rest}");
    assert!(
        waiting_cpu_s < 0.2,
        "the server burnt {waiting_cpu_s:.2} s of CPU in 1 s waiting for an fd"
    );
}

const SPACE_JSON: &str = r#"{"optimizer": ["Adam", "SGD", "RMSprop"], "num_epochs": [10, 20]}"#;

/// Accuracy as a pure function of the config: served and standalone runs
/// agree bit for bit.
fn objective() -> Objective {
    Arc::new(|config: &Config, _: Option<u32>| {
        let epochs = config.get_int("num_epochs").unwrap_or(10) as f64;
        let bonus = if config.get_str("optimizer") == Some("Adam") { 0.1 } else { 0.0 };
        Ok(TrialOutcome::with_accuracy(0.5 + 0.01 * epochs + bonus))
    })
}

/// Sorted `(config label, accuracy bits)`.
fn table(rows: impl Iterator<Item = (String, f64)>) -> Vec<(String, u64)> {
    let mut t: Vec<(String, u64)> = rows.map(|(l, a)| (l, a.to_bits())).collect();
    t.sort();
    t
}

/// Submit the grid over [`SPACE_JSON`] as `tenant` and stream it to the end.
fn grid_sweep(addr: &str, tenant: &str) -> (u64, Vec<LeaderRow>) {
    let mut client = SweepClient::connect(addr, tenant).expect("connect");
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let spec = SubmitSpec {
        name: format!("{tenant}-grid"),
        space_json: SPACE_JSON.to_string(),
        algo: "grid".to_string(),
        trials: 0,
        seed: 0,
        wave: 0,
    };
    let info = client.submit(&spec).expect("io").expect("accepted");
    let mut rows = Vec::new();
    let end = client.wait_done(info.sweep_id, |r| rows.push(r.clone())).expect("stream");
    assert_eq!(end.state, SWEEP_DONE, "{}", end.message);
    (info.sweep_id, rows)
}

#[test]
fn a_watcher_that_never_reads_is_cut_off_and_an_honest_tenant_is_not() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = SweepServer::start_staged(
        listener,
        Runtime::threaded(RuntimeConfig::single_node(2)),
        objective(),
        None,
        ExperimentOptions::default(),
        ServerConfig::default(),
    )
    .expect("start server");
    let addr = server.addr().to_string();
    let (finished, rows) = grid_sweep(&addr, "first");
    assert_eq!(rows.len(), 6);

    // Every `SweepStatus { follow: 1 }` for the finished sweep queues its
    // status, all its rows and its end. Past what the backlog cap and both
    // sockets' buffers can hold, the connection must be gone.
    let answer = Frame::LeaderboardChunk { sweep_id: finished, rows: rows.clone() }.encode().len();
    let budget = (4 * MAX_CLIENT_BACKLOG + (64 << 20)) / answer;
    let flood = {
        let addr = addr.clone();
        std::thread::spawn(move || -> Result<usize, String> {
            let mut sock = std::net::TcpStream::connect(&addr).expect("connect");
            sock.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
            let hello = Frame::ClientHello { tenant: "mute".into(), proto: rnet::VERSION as u32 };
            rnet::write_frame(&mut sock, &hello).unwrap();
            let status = Frame::SweepStatus {
                sweep_id: finished,
                state: 0,
                done: 0,
                failed: 0,
                total: 0,
                best_acc: 0.0,
                best_label: String::new(),
                throttled: 0,
                follow: 1,
            };
            for sent in 0..budget {
                if let Err(e) = rnet::write_frame(&mut sock, &status) {
                    // A refused write is the close; a write that timed out
                    // met a server that stopped reading and kept it open.
                    use std::io::ErrorKind::{TimedOut, WouldBlock};
                    if matches!(e.kind(), TimedOut | WouldBlock) {
                        return Err(format!("the server stopped reading after {sent}: {e}"));
                    }
                    return Ok(sent);
                }
            }
            Err(format!("still open after {budget} requests"))
        })
    };
    // Beside it, an honest tenant gets the leaderboard a standalone run does.
    let (_, honest) = grid_sweep(&addr, "honest");
    let sent = flood.join().unwrap().expect("the watcher that never reads was cut off");
    eprintln!("cut off after {sent} requests of a {answer}-byte answer each");

    let rt = Runtime::threaded(RuntimeConfig::single_node(2));
    let space = SearchSpace::from_json(SPACE_JSON).unwrap();
    let report = HpoRunner::new(ExperimentOptions::default())
        .run(&rt, &mut GridSearch::new(&space), objective())
        .expect("standalone");
    let standalone = table(report.trials.iter().map(|t| (t.config.label(), t.outcome.accuracy)));
    assert_eq!(table(honest.iter().map(|r| (r.label.clone(), r.accuracy))), standalone);
    server.shutdown();
}
