//! Submissions the sweep server must turn away at admission, not choke on
//! later: each is rejected with `REJECT_BAD_REQUEST`, and an honest tenant
//! submitting next is served as if nothing had happened.

use std::sync::Arc;
use std::time::Duration;

use hpo::client::{SubmitSpec, SweepClient};
use hpo::experiment::{ExperimentOptions, TrialOutcome};
use hpo::server::{ServerConfig, SweepServer, REJECT_BAD_REQUEST, SWEEP_DONE};
use rcompss::{Runtime, RuntimeConfig};

fn start(cfg: ServerConfig) -> SweepServer {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    SweepServer::start_staged(
        listener,
        Runtime::threaded(RuntimeConfig::single_node(2)),
        Arc::new(|_: &hpo::space::Config, _: Option<u32>| Ok(TrialOutcome::with_accuracy(0.5))),
        None,
        ExperimentOptions::default(),
        cfg,
    )
    .expect("start server")
}

fn connect(server: &SweepServer, tenant: &str) -> SweepClient {
    let client = SweepClient::connect(&server.addr().to_string(), tenant).expect("connect");
    client.set_timeout(Some(Duration::from_secs(20))).expect("timeout");
    client
}

fn spec(space_json: &str, algo: &str, trials: u32) -> SubmitSpec {
    SubmitSpec {
        name: format!("{algo}-sweep"),
        space_json: space_json.to_string(),
        algo: algo.to_string(),
        trials,
        seed: 3,
        wave: 0,
    }
}

/// Submit `hostile`, expect a bad-request reject naming `why`, then serve
/// an honest grid for a second tenant to the end.
fn rejected_then_served(cfg: ServerConfig, hostile: SubmitSpec, why: &str) {
    let server = start(cfg);
    let mut mallory = connect(&server, "mallory");
    let rej = mallory.submit(&hostile).expect("the server answers").expect_err("rejected");
    assert_eq!(rej.code, REJECT_BAD_REQUEST, "{}", rej.message);
    assert!(rej.message.contains(why), "the reject names the cause: {:?}", rej.message);

    let mut honest = connect(&server, "honest");
    let info = honest
        .submit(&spec(r#"{"optimizer": ["Adam", "SGD"], "num_epochs": [1, 2]}"#, "grid", 0))
        .expect("the server still answers")
        .expect("honest grid admitted");
    let mut rows = 0;
    let end = honest.wait_done(info.sweep_id, |_| rows += 1).expect("stream to the end");
    assert_eq!(end.state, SWEEP_DONE, "{}", end.message);
    assert_eq!(rows, 4);
    server.shutdown();
}

#[test]
fn a_grid_over_a_continuous_space_is_rejected_and_the_plane_keeps_serving() {
    let hostile = spec(r#"{"lr": {"uniform": [0.1, 1.0]}}"#, "grid", 0);
    rejected_then_served(ServerConfig::default(), hostile, "grid search needs discrete domains");
}

#[test]
fn an_inverted_range_is_rejected_and_holds_no_run_slot() {
    // One run slot: a sweep admitted on this range would hold it for good.
    let cfg = ServerConfig { max_active: 1, ..ServerConfig::default() };
    let hostile = spec(r#"{"lr": {"uniform": [1.0, 0.1]}}"#, "random", 4);
    rejected_then_served(cfg, hostile, "min must be <= max");
}
