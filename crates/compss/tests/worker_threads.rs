//! A worker daemon's executor threads live as long as their connection: a
//! driver that connects and goes away leaves nothing running behind it —
//! no thread, no socket half, no block cache. Threads are counted in
//! `/proc/self/task`, in a test binary of its own so no other test's
//! threads come and go meanwhile.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use rcompss::{TaskRegistry, WorkerConfig, WorkerServer};
use rnet::{read_frame, Frame, RecvBuf};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn executors_end_with_their_connection() {
    let cfg = WorkerConfig { name: "w".into(), cores: 2, ..WorkerConfig::default() };
    let worker = WorkerServer::bind("127.0.0.1:0", cfg, TaskRegistry::new())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = worker.addr();
    let idle = threads();
    for _ in 0..200 {
        let mut driver = TcpStream::connect(&addr).expect("connect");
        // The worker adopted the connection: its executors are starting.
        let hello = read_frame(&mut driver, &mut RecvBuf::new()).expect("read");
        assert!(matches!(hello, Some(Frame::Hello { .. })), "{hello:?}");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() > idle && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), idle, "executor threads outlived their connections");
}
