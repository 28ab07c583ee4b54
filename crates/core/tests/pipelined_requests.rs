//! A client that pipelines requests and never reads the answers: every
//! answer is queued in the server's memory, so the connection must be cut
//! off once about [`MAX_CLIENT_BACKLOG`] is queued for it, however many
//! requests one read of its socket brings in.
//!
//! One test in its own binary, so no other test's allocations share the
//! process whose peak resident set it reads.

use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use hpo::client::{SubmitSpec, SweepClient};
use hpo::experiment::{ExperimentOptions, TrialOutcome};
use hpo::server::{ServerConfig, SweepServer, MAX_CLIENT_BACKLOG, SWEEP_DONE};
use rcompss::{Runtime, RuntimeConfig};
use rnet::Frame;

/// This process's peak resident set, KiB.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// 128 configs with long labels, so every answer carries ≈ 12 KiB of rows.
const SPACE_JSON: &str = r#"{
    "optimizer_name": ["adam_with_warmup", "sgd_with_momentum", "rmsprop_centered", "adagrad"],
    "learning_rate_schedule": ["cosine_annealing", "step_decay", "exponential", "constant"],
    "batch_size": [8, 16, 32, 64, 128, 256, 512, 1024]
}"#;

#[test]
fn a_client_that_pipelines_without_reading_costs_at_most_the_backlog_cap() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = SweepServer::start_staged(
        listener,
        Runtime::threaded(RuntimeConfig::single_node(2)),
        Arc::new(|_: &hpo::space::Config, _: Option<u32>| Ok(TrialOutcome::with_accuracy(0.5))),
        None,
        ExperimentOptions::default(),
        ServerConfig::default(),
    )
    .expect("start server");
    let addr = server.addr().to_string();
    let mut client = SweepClient::connect(&addr, "first").expect("connect");
    client.set_timeout(Some(Duration::from_secs(20))).unwrap();
    let spec = SubmitSpec {
        name: "wide".to_string(),
        space_json: SPACE_JSON.to_string(),
        algo: "grid".to_string(),
        trials: 0,
        seed: 0,
        wave: 0,
    };
    let info = client.submit(&spec).expect("io").expect("admitted");
    let mut rows = Vec::new();
    let end = client.wait_done(info.sweep_id, |r| rows.push(r.clone())).expect("stream");
    assert_eq!(end.state, SWEEP_DONE, "{}", end.message);
    assert_eq!(rows.len(), 128);

    // Every `SweepStatus { follow: 1 }` of the finished sweep is answered
    // with its status, all its rows and its end. Ask for six caps' worth
    // of answers in one write, so each read of the socket holds thousands.
    let answer = Frame::LeaderboardChunk { sweep_id: info.sweep_id, rows }.encode().len();
    let status = Frame::SweepStatus {
        sweep_id: info.sweep_id,
        state: 0,
        done: 0,
        failed: 0,
        total: 0,
        best_acc: 0.0,
        best_label: String::new(),
        throttled: 0,
        follow: 1,
    }
    .encode();
    let requests = 6 * MAX_CLIENT_BACKLOG / answer;
    let batch: Vec<u8> = std::iter::repeat_n(status, requests).flatten().collect();

    let mut sock = std::net::TcpStream::connect(&addr).expect("connect");
    sock.set_write_timeout(Some(Duration::from_secs(30))).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let hello = Frame::ClientHello { tenant: "mute".into(), proto: rnet::VERSION as u32 };
    rnet::write_frame(&mut sock, &hello).unwrap();
    // Start the peak from what the process holds now.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let before = vm_hwm_kib();
    // The write fails if the server cuts the connection off before it has
    // read every request.
    let _ = sock.write_all(&batch);
    // Only now read: the connection must end, with the server's reject,
    // its close or a reset, and not leave this read waiting.
    let mut sink = vec![0u8; 1 << 16];
    let ended = loop {
        match sock.read(&mut sink) {
            Ok(0) => break Ok(()),
            Ok(_) => {}
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => break Err(e),
            Err(_) => break Ok(()),
        }
    };
    ended.expect("the server closed the connection that never read");
    let grown = vm_hwm_kib().saturating_sub(before);
    eprintln!("{requests} pipelined requests of a {answer}-byte answer: peak grew {grown} KiB");
    // The backlog and one answer past it, with room for the buffer's growth
    // and the allocator; answering every request would be six caps.
    assert!(
        grown < (4 * MAX_CLIENT_BACKLOG / 1024) as u64,
        "the server held {grown} KiB for a client that never reads"
    );
    server.shutdown();
}
