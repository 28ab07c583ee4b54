//! A status endpoint out of fds waits without spinning: a scrape it cannot
//! accept yet waits in the listen queue, costs the server no CPU
//! meanwhile, and is answered once an fd is free again. The fd limit is per
//! process, so the test re-runs its own binary as a child that serves, and
//! the parent scrapes and watches the child's CPU time. The limit is set
//! from outside with `prlimit(1)` (util-linux).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use rnet::StatusServer;

const TEST: &str = "a_scrape_queued_while_out_of_fds_costs_no_cpu_and_is_answered_later";
const CHILD: &str = "RNET_TEST_STATUS_OUT_OF_FDS_CHILD";

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

/// The child: serve `/healthz` with no fd to spare, until stdin says stop.
fn serve_out_of_fds() {
    let server = StatusServer::bind("127.0.0.1:0", |_| None).expect("bind");
    let limits = std::fs::read_to_string("/proc/self/limits").expect("read limits");
    let soft = limits.lines().find(|l| l.starts_with("Max open files")).unwrap();
    let soft: u64 = soft.split_whitespace().nth(3).unwrap().parse().unwrap();
    // The lowest free fd: with the limit there, no new fd can be made.
    let next_fd = std::os::fd::AsRawFd::as_raw_fd(&std::fs::File::open("/dev/null").unwrap());
    set_fd_limit(std::process::id(), next_fd as u64);
    println!("serving {} {soft}", server.local_addr());
    let mut line = String::new();
    std::io::stdin().read_line(&mut line).expect("read the parent's word");
    drop(server);
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
fn a_scrape_queued_while_out_of_fds_costs_no_cpu_and_is_answered_later() {
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

    // The handshake and the request land in the kernel; the server cannot
    // accept the connection.
    let mut scrape = TcpStream::connect(&addr).expect("connect");
    scrape.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    scrape.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let before = cpu_s(pid);
    std::thread::sleep(Duration::from_secs(1));
    let waiting_cpu_s = cpu_s(pid) - before;
    eprintln!("status server CPU while a scrape waited 1 s for an fd: {waiting_cpu_s:.2} s");

    set_fd_limit(pid, soft);
    let mut reply = String::new();
    scrape.read_to_string(&mut reply).expect("the queued scrape is answered");
    assert!(reply.starts_with("HTTP/1.0 200 OK\r\n") && reply.ends_with("ok\n"), "{reply}");

    writeln!(child.0.stdin.as_ref().unwrap(), "stop").unwrap();
    let status = child.0.wait().unwrap();
    let mut rest = String::new();
    out.read_to_string(&mut rest).unwrap();
    assert!(status.success() && rest.contains("1 passed"), "child failed ({status}):\n{rest}");
    assert!(
        waiting_cpu_s < 0.2,
        "the status server burnt {waiting_cpu_s:.2} s of CPU in 1 s waiting for an fd"
    );
}
