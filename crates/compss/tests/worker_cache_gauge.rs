//! `rcompss_block_cache_resident_bytes` reads the bytes the block caches of
//! every open driver connection hold, and gives a connection's bytes back
//! when it closes. The metrics registry is process-global, so this test has
//! a binary of its own.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use rcompss::{codec, TaskRegistry, Value, WorkerConfig, WorkerServer};
use rnet::{read_frame, write_frames, Frame, RecvBuf};

fn resident() -> f64 {
    runmetrics::global().gauge("rcompss_block_cache_resident_bytes").value()
}

/// Wait until the gauge reads `want`, or fail after 5 s.
fn settles_at(want: f64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while resident() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(resident(), want);
}

/// Push a block of `n` floats on a new connection, and wait for the ack of a
/// heartbeat sent behind it: by then the worker has cached the block. The
/// connection, and the block's size.
fn push_block(addr: &str, hash: u128, n: usize) -> (TcpStream, f64) {
    let mut driver = TcpStream::connect(addr).unwrap();
    driver.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut recv = RecvBuf::new();
    assert!(matches!(read_frame(&mut driver, &mut recv), Ok(Some(Frame::Hello { .. }))));
    let blob = codec::encode_value(&Value::new(vec![0.5f64; n])).unwrap();
    let bytes = blob.bytes.len() as f64;
    let probe = Frame::Heartbeat { seq: 1, t_send_us: 0, telemetry: false };
    write_frames(&mut driver, &[Frame::BlockData { hash, blob }, probe]).unwrap();
    assert!(matches!(read_frame(&mut driver, &mut recv), Ok(Some(Frame::HeartbeatAck { .. }))));
    (driver, bytes)
}

#[test]
fn the_resident_gauge_sums_open_connections_and_drops_with_them() {
    runmetrics::global().set_enabled(true);
    let cfg = WorkerConfig { name: "w".into(), cores: 1, ..WorkerConfig::default() };
    let worker = WorkerServer::bind("127.0.0.1:0", cfg, TaskRegistry::new())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let (first, a) = push_block(&worker.addr(), 1, 50);
    settles_at(a);
    let (second, b) = push_block(&worker.addr(), 2, 110);
    settles_at(a + b);
    drop(first);
    settles_at(b);
    drop(second);
    settles_at(0.0);
}
