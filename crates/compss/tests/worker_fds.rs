//! A worker daemon holds fds for its open connections only: drivers that
//! connect, read the `Hello` and go away leave its fd table as they found
//! it. Fds are counted in `/proc/self/fd`, in a test binary of its own so
//! no other test opens or closes one meanwhile.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use rcompss::{TaskRegistry, WorkerConfig, WorkerServer};
use rnet::{read_frame, Frame, RecvBuf};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

#[test]
fn closed_connections_leave_no_fd_behind() {
    let cfg = WorkerConfig { name: "w".into(), cores: 1, ..WorkerConfig::default() };
    let worker = WorkerServer::bind("127.0.0.1:0", cfg, TaskRegistry::new())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = worker.addr();
    let idle = open_fds();
    for _ in 0..50 {
        let mut driver = TcpStream::connect(&addr).expect("connect");
        let hello = read_frame(&mut driver, &mut RecvBuf::new()).expect("read");
        assert!(matches!(hello, Some(Frame::Hello { .. })), "{hello:?}");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while open_fds() > idle && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(open_fds(), idle, "fds outlived their connections");
}
