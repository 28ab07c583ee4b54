//! A finished sweep's thread is joined when the sweep ends, not when the
//! server shuts down: an unjoined thread keeps its stack mapped, so a
//! long-lived server's address space would grow by a stack per sweep.
//!
//! The check counts thread-stack mappings rather than reading `VmSize`,
//! which one new 64 MiB malloc arena moves by more than a leaked stack
//! does. One test in its own binary, so no other test's threads share the
//! process whose mappings it reads.

use std::sync::Arc;
use std::time::Duration;

use hpo::client::{SubmitSpec, SweepClient};
use hpo::experiment::{ExperimentOptions, TrialOutcome};
use hpo::server::{ServerConfig, SweepServer, SWEEP_DONE};
use rcompss::{Runtime, RuntimeConfig};

/// Thread stacks mapped in this process: an anonymous read-write mapping
/// right above a small inaccessible one, its guard. A thread that ended
/// keeps its stack until it is joined; a joined thread's stack is unmapped
/// or cached for the next thread to reuse.
fn thread_stacks() -> usize {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
    let mut stacks = 0;
    let mut guard_end = None;
    for line in maps.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (lo, hi) = fields[0].split_once('-').expect("address range");
        let (lo, hi) = (u64::from_str_radix(lo, 16).unwrap(), u64::from_str_radix(hi, 16).unwrap());
        let anonymous = fields.len() == 5;
        if fields[1] == "rw-p" && anonymous && guard_end == Some(lo) {
            stacks += 1;
        }
        guard_end = (fields[1] == "---p" && anonymous && hi - lo <= 64 << 10).then_some(hi);
    }
    stacks
}

#[test]
fn sequential_sweeps_leave_no_thread_stacks_behind() {
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
    let mut client = SweepClient::connect(&server.addr().to_string(), "t").expect("connect");
    client.set_timeout(Some(Duration::from_secs(20))).unwrap();
    let spec = SubmitSpec {
        name: "one".to_string(),
        space_json: r#"{"optimizer": ["Adam"]}"#.to_string(),
        algo: "grid".to_string(),
        trials: 0,
        seed: 0,
        wave: 0,
    };
    let mut run = |n: usize| {
        for _ in 0..n {
            let info = client.submit(&spec).expect("io").expect("admitted");
            let end = client.wait_done(info.sweep_id, |_| {}).expect("stream");
            assert_eq!(end.state, SWEEP_DONE, "{}", end.message);
        }
    };
    // Warm up the runtime's own threads first.
    run(8);
    let before = thread_stacks();
    run(128);
    let grown = thread_stacks().saturating_sub(before);
    // One unjoined stack per sweep would be 128; glibc's cache of joined
    // threads' stacks holds at most 40 MiB, about 19 of them.
    assert!(grown < 32, "128 one-trial sweeps left {grown} more thread stacks mapped");
    server.shutdown();
}
