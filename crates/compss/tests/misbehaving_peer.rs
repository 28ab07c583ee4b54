//! The distributed driver against peers that break the protocol: a body
//! that yields the wrong number of values, a peer that never reads, and a
//! peer that answers for an attempt sent to another node. Each run ends in
//! a typed error or the right value, and the driver keeps serving.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rcompss::{
    ArgSpec, Constraint, DistributedConfig, Runtime, RuntimeConfig, TaskDef, TaskRegistry, Value,
    WaitError, WorkerConfig, WorkerServer,
};
use rnet::{read_frame, write_frame, Frame, RecvBuf, WireArg};

fn def(name: &str, body: fn(&[Value]) -> Vec<Value>) -> TaskDef {
    TaskDef {
        name: name.into(),
        constraint: Constraint::cpus(1),
        returns: 1,
        priority: false,
        body: Arc::new(move |_: &rcompss::TaskContext, inputs: &[Value]| Ok(body(inputs))),
        alternatives: Vec::new(),
    }
}

fn square() -> TaskDef {
    def("square", |i| vec![Value::new(i[0].downcast_ref::<i64>().unwrap().pow(2))])
}

fn as_i64(v: Value) -> i64 {
    *v.downcast_ref::<i64>().unwrap()
}

#[test]
fn a_wrong_value_count_fails_the_task_and_the_driver_serves_on() {
    // The worker runs a body that declares one return and yields none. The
    // driver used to panic on its `Done` in the event-loop thread, and every
    // later wait hung.
    let empty = def("empty", |_| vec![]);
    let registry = TaskRegistry::new().with(empty.clone()).with(square());
    let cfg = WorkerConfig { name: "w0".into(), cores: 1, ..WorkerConfig::default() };
    let worker = WorkerServer::bind("127.0.0.1:0", cfg, registry).unwrap().spawn().unwrap();
    let cfg = RuntimeConfig::single_node(1);
    let rt = Runtime::distributed(cfg, &[worker.addr()], DistributedConfig::default()).unwrap();
    let h = rt.submit(&empty, vec![]).unwrap().returns[0];
    assert_eq!(rt.wait_on(&h).err(), Some(WaitError::ProducerFailed(h)));
    let three = rt.literal(3i64);
    let nine = rt.submit(&square(), vec![ArgSpec::In(three)]).unwrap().returns[0];
    assert_eq!(rt.wait_on(&nine).map(as_i64), Ok(9));
}

#[test]
fn drop_returns_while_a_peer_never_reads() {
    // A peer that says `Hello` and then neither reads nor writes, its
    // socket open, is sent an input far larger than the socket buffers. The
    // goodbye waits behind it; dropping the runtime gives up on it after
    // the heartbeat timeout instead of blocking until the peer closes.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (release, hold) = channel::<()>();
    let peer = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let hello = Frame::Hello { name: "deaf".into(), cores: 1, gpus: 0, mem_gib: 1 };
        sock.write_all(&hello.encode()).unwrap();
        hold.recv_timeout(Duration::from_secs(60)).ok();
    });
    let dcfg = DistributedConfig::default();
    let bound = dcfg.heartbeat_timeout + dcfg.heartbeat_interval + Duration::from_secs(1);
    let rt = Runtime::distributed(RuntimeConfig::single_node(1), &[addr], dcfg).unwrap();
    let sum = def("sum", |i| vec![Value::new(i[0].downcast_ref::<Vec<f64>>().unwrap().len())]);
    let data = vec![0.5f64; 2 << 20];
    let input = rt.literal(data);
    rt.set_data_bytes(input, 16 << 20);
    rt.submit(&sum, vec![ArgSpec::In(input)]).unwrap();
    let t0 = Instant::now();
    drop(rt);
    let took = t0.elapsed();
    release.send(()).ok();
    peer.join().unwrap();
    assert!(took <= bound, "drop took {took:?}, more than {bound:?}");
}

/// One of two scripted peers: `Hello { cores: 1 }`, an ack per heartbeat,
/// and for each `Submit` of `square` the right `Done` after 300 ms. The
/// other peer learns each exec id it is sent at once, through `tell`, and
/// answers for it first with a forged `Done` of 999. Returns at `Shutdown`.
fn forging_peer(listener: TcpListener, tell: Sender<u64>, told: Receiver<u64>) {
    let (sock, _) = listener.accept().expect("driver connects");
    let hello = Frame::Hello { name: "forger".into(), cores: 1, gpus: 0, mem_gib: 1 };
    let out = Arc::new(Mutex::new(sock.try_clone().unwrap()));
    write_frame(&mut *out.lock().unwrap(), &hello).unwrap();
    let done = |exec_id: u64, v: i64| {
        let outputs = vec![rcompss::codec::encode_value(&Value::new(v)).unwrap()];
        Frame::Done { exec_id, recv_us: 0, start_us: 0, end_us: 0, outputs }
    };
    let forge_out = Arc::clone(&out);
    std::thread::spawn(move || {
        for exec_id in told {
            write_frame(&mut *forge_out.lock().unwrap(), &done(exec_id, 999)).ok();
        }
    });
    let (mut sock, mut recv): (TcpStream, _) = (sock, RecvBuf::new());
    loop {
        let frame = read_frame(&mut sock, &mut recv).unwrap().expect("Shutdown precedes EOF");
        let reply = match frame {
            Frame::Shutdown => return,
            Frame::Heartbeat { seq, t_send_us, .. } => {
                Frame::HeartbeatAck { seq, t_send_us, recv_us: 0, reply_us: 0 }
            }
            Frame::Submit { exec_id, args, .. } => {
                tell.send(exec_id).unwrap();
                let x = match &args[0] {
                    WireArg::Inline { blob, .. } => {
                        let v = rcompss::codec::decode_tagged(&blob.tag, &blob.bytes).unwrap();
                        *v.downcast_ref::<i64>().unwrap()
                    }
                    WireArg::Block { .. } => panic!("8-byte values stay inline"),
                };
                std::thread::sleep(Duration::from_millis(300));
                done(exec_id, x * x)
            }
            _ => continue,
        };
        write_frame(&mut *out.lock().unwrap(), &reply).unwrap();
    }
}

#[test]
fn a_done_from_another_node_settles_nothing() {
    let (a_tells, b_told) = channel();
    let (b_tells, a_told) = channel();
    let peers: Vec<_> = [(a_tells, a_told), (b_tells, b_told)]
        .into_iter()
        .map(|(tell, told)| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            (addr, std::thread::spawn(move || forging_peer(listener, tell, told)))
        })
        .collect();
    let addrs: Vec<String> = peers.iter().map(|(a, _)| a.clone()).collect();
    let rt =
        Runtime::distributed(RuntimeConfig::single_node(1), &addrs, DistributedConfig::default())
            .unwrap();
    let three = rt.literal(3i64);
    let nine = rt.submit(&square(), vec![ArgSpec::In(three)]).unwrap().returns[0];
    assert_eq!(rt.wait_on(&nine).map(as_i64), Ok(9), "a forged Done settled the task");
    drop(rt);
    for (_, peer) in peers {
        peer.join().unwrap();
    }
}
