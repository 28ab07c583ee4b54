//! A finished sweep's thread is joined when the sweep ends, not when the
//! server shuts down: an unjoined thread keeps its stack mapped, so a
//! long-lived server's address space would grow by a stack per sweep.
//!
//! One test in its own binary, so no other test's threads share the
//! process whose `VmSize` it reads.

use std::sync::Arc;
use std::time::Duration;

use hpo::client::{SubmitSpec, SweepClient};
use hpo::experiment::{ExperimentOptions, TrialOutcome};
use hpo::server::{ServerConfig, SweepServer, SWEEP_DONE};
use rcompss::{Runtime, RuntimeConfig};

/// This process's virtual size, KiB.
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmSize:")).expect("VmSize line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
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
    // Warm up allocator arenas and the runtime's own threads first.
    run(8);
    let before = vm_size_kib();
    run(128);
    let grown = vm_size_kib().saturating_sub(before);
    // One unjoined 2 MiB stack per sweep would be 256 MiB.
    assert!(grown < 32 << 10, "128 one-trial sweeps grew VmSize by {grown} KiB");
    server.shutdown();
}
