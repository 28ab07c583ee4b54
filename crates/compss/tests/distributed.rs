//! End-to-end tests of the distributed backend over loopback TCP:
//! in-process [`WorkerServer`]s on 127.0.0.1, a driver [`Runtime`] wired to
//! them, and the same task graphs the threaded backend runs — results must
//! be identical. Also exercises the failure path: a worker killed mid-run
//! must not sink the run; its in-flight tasks are resubmitted to survivors.

use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Duration;

use rnet::{read_frame, write_frame, Blob, Frame, RecvBuf, WireArg};

use cluster::FailureInjector;
use paratrace::{EventKind, Record};
use rcompss::{
    ArgSpec, Constraint, DistributedConfig, RetryPolicy, Runtime, RuntimeConfig, TaskContext,
    TaskDef, TaskError, TaskRegistry, Value, WorkerConfig, WorkerHandle, WorkerServer,
};

fn def(
    name: &str,
    body: impl Fn(&TaskContext, &[Value]) -> Result<Vec<Value>, TaskError> + Send + Sync + 'static,
) -> TaskDef {
    TaskDef {
        name: name.into(),
        constraint: Constraint::cpus(1),
        returns: 1,
        priority: false,
        body: Arc::new(body),
        alternatives: Vec::new(),
    }
}

/// The shared task set both sides agree on: the worker resolves incoming
/// submits against this registry; the driver uses the same defs to submit.
fn task_set() -> TaskRegistry {
    let add = def("add", |_, inputs| {
        let a: i64 = *inputs[0].downcast_ref::<i64>().unwrap();
        let b: i64 = *inputs[1].downcast_ref::<i64>().unwrap();
        Ok(vec![Value::new(a + b)])
    });
    let square = def("square", |_, inputs| {
        let x: i64 = *inputs[0].downcast_ref::<i64>().unwrap();
        Ok(vec![Value::new(x * x)])
    });
    let sum = def("sum", |_, inputs| {
        let total: i64 = inputs.iter().map(|v| *v.downcast_ref::<i64>().unwrap()).sum();
        Ok(vec![Value::new(total)])
    });
    let slow_square = def("slow_square", |_, inputs| {
        std::thread::sleep(Duration::from_millis(15));
        let x: i64 = *inputs[0].downcast_ref::<i64>().unwrap();
        Ok(vec![Value::new(x * x)])
    });
    // Fails its first attempt on whichever worker runs it.
    let flaky_square = def("flaky_square", |ctx, inputs| {
        if ctx.attempt == 1 {
            return Err(TaskError::new("first attempt fails"));
        }
        let x: i64 = *inputs[0].downcast_ref::<i64>().unwrap();
        Ok(vec![Value::new(x * x)])
    });
    TaskRegistry::new().with(add).with(square).with(sum).with(slow_square).with(flaky_square)
}

fn spawn_workers(n: usize, cores: u32) -> Vec<WorkerHandle> {
    let registry = task_set();
    (0..n)
        .map(|i| {
            let cfg = WorkerConfig { name: format!("w{i}"), cores, ..WorkerConfig::default() };
            WorkerServer::bind("127.0.0.1:0", cfg, registry.clone())
                .expect("bind loopback")
                .spawn()
                .expect("spawn worker")
        })
        .collect()
}

fn addrs(workers: &[WorkerHandle]) -> Vec<String> {
    workers.iter().map(|w| w.addr()).collect()
}

/// Fan-out/fan-in over `n` inputs; returns the final reduced value.
fn run_fan_out_fan_in(rt: &Runtime, n: i64) -> i64 {
    let square = task_set().get("square").unwrap().clone();
    let sum = task_set().get("sum").unwrap().clone();
    let squares: Vec<_> = (1..=n)
        .map(|i| {
            let h = rt.literal(i);
            rt.submit(&square, vec![ArgSpec::In(h)]).unwrap().returns[0]
        })
        .collect();
    let args: Vec<ArgSpec> = squares.iter().map(|&h| ArgSpec::In(h)).collect();
    let total = rt.submit(&sum, args).unwrap().returns[0];
    *rt.wait_on(&total).unwrap().downcast_ref::<i64>().unwrap()
}

#[test]
fn loopback_fan_out_matches_threaded() {
    let workers = spawn_workers(2, 2);
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1),
        &addrs(&workers),
        DistributedConfig::default(),
    )
    .expect("connect to loopback workers");
    let distributed = run_fan_out_fan_in(&rt, 12);

    let threaded = {
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        run_fan_out_fan_in(&rt, 12)
    };
    assert_eq!(distributed, threaded);
    assert_eq!(distributed, (1..=12i64).map(|i| i * i).sum::<i64>());

    let stats = rt.stats();
    assert_eq!(stats.submitted, 13);
    assert_eq!(stats.completed, 13);
    assert_eq!(stats.failed, 0);
}

#[test]
fn loopback_dependent_chain_and_labels() {
    let workers = spawn_workers(2, 1);
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1),
        &addrs(&workers),
        DistributedConfig::default(),
    )
    .expect("connect");
    let labels = rt.node_labels();
    assert_eq!(labels.len(), 2);
    assert!(labels[0].starts_with("w0@127.0.0.1:"), "label {:?}", labels[0]);
    assert!(labels[1].starts_with("w1@127.0.0.1:"), "label {:?}", labels[1]);

    let add = task_set().get("add").unwrap().clone();
    let one = rt.literal(1i64);
    let mut acc = rt.literal(0i64);
    for _ in 0..10 {
        acc = rt.submit(&add, vec![ArgSpec::In(acc), ArgSpec::In(one)]).unwrap().returns[0];
    }
    let v = rt.wait_on(&acc).unwrap();
    assert_eq!(*v.downcast_ref::<i64>().unwrap(), 10);

    // Every completion is attributed to a worker label in the metrics.
    let snap = rt.metrics().snapshot();
    let per_node: u64 = labels
        .iter()
        .filter_map(|l| {
            snap.counter(&runmetrics::labeled("rcompss_node_tasks_completed_total", "node", l))
        })
        .sum();
    assert_eq!(per_node, 10, "all completions attributed to workers");
}

/// A worker is credited with the attempts whose outputs were stored, and
/// with nothing else: neither a `Failed` nor a `Done` the driver's failure
/// injector turns into a failure. So the per-node series sum to the
/// completed total.
#[test]
fn an_implement_alternative_runs_on_a_worker_and_gives_back_its_memory() {
    // Loopback workers advertise no GPU and 16 GiB, so the GPU primary never
    // places and every run is the alternative, which takes all 16: its index
    // travels in the `Submit`, and the worker's registry resolves it. Each
    // run must give the memory back or the next never places, so each wait
    // is bounded instead of hanging the test.
    let primary = def("train_anywhere", |_, _| Ok(vec![Value::new(1i64)]));
    let train = TaskDef { constraint: Constraint::cpus(1).with_gpus(1), ..primary }
        .with_implementation(Constraint::cpus(1).with_mem_gib(16), |_, _| {
            Ok(vec![Value::new(2i64)])
        });
    let cfg = WorkerConfig { name: "w0".into(), cores: 2, ..WorkerConfig::default() };
    let registry = TaskRegistry::new().with(train.clone());
    let worker = WorkerServer::bind("127.0.0.1:0", cfg, registry).unwrap().spawn().unwrap();
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1),
        &addrs(std::slice::from_ref(&worker)),
        DistributedConfig::default(),
    )
    .expect("connect to the loopback worker");
    let rt = Arc::new(rt);
    for run in 0..3 {
        let out = rt.submit(&train, vec![]).unwrap().returns[0];
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = Arc::clone(&rt);
        std::thread::spawn(move || {
            tx.send(waiter.wait_on(&out).map(|v| *v.downcast_ref::<i64>().unwrap())).ok()
        });
        let got = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(got, Ok(Ok(2)), "run {run}: the alternative's value within 10 s");
    }
}

#[test]
fn per_node_completions_count_stored_attempts_only() {
    let workers = spawn_workers(2, 1);
    // Task 2's first attempt reports `Done`, and the injector fails it.
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1)
            .with_failures(FailureInjector::none().with_task_failure(2, 1)),
        &addrs(&workers),
        DistributedConfig::default(),
    )
    .expect("connect");
    let flaky = task_set().get("flaky_square").unwrap().clone();
    let square = task_set().get("square").unwrap().clone();
    let (three, four) = (rt.literal(3i64), rt.literal(4i64));
    let a = rt.submit(&flaky, vec![ArgSpec::In(three)]).unwrap().returns[0];
    let b = rt.submit(&square, vec![ArgSpec::In(four)]).unwrap().returns[0];
    assert_eq!(*rt.wait_on(&a).unwrap().downcast_ref::<i64>().unwrap(), 9);
    assert_eq!(*rt.wait_on(&b).unwrap().downcast_ref::<i64>().unwrap(), 16);

    let snap = rt.metrics().snapshot();
    assert_eq!(snap.counter("rcompss_task_attempts_failed_total"), Some(2));
    let completed = snap.counter("rcompss_tasks_completed_total");
    let per_node: u64 = rt
        .node_labels()
        .iter()
        .filter_map(|l| {
            snap.counter(&runmetrics::labeled("rcompss_node_tasks_completed_total", "node", l))
        })
        .sum();
    assert_eq!(completed, Some(2));
    assert_eq!(Some(per_node), completed, "per-node completions sum to the completed total");
}

/// Play the worker by hand: one `Hello { cores: 1 }`, an ack per heartbeat,
/// a `Done` per `Submit` (computed from the inline args — a peer that holds
/// no state between submits), nothing else. Its clock starts at the accept;
/// a body "runs" for `exec`, idle for as long before and after it, and the
/// `Done` is stamped `[s, s + exec]`. Returns every frame the driver sent
/// between the `Hello` and its `Shutdown`.
fn scripted_peer(listener: std::net::TcpListener, exec: Duration) -> Vec<Frame> {
    let (mut sock, _) = listener.accept().expect("driver connects");
    let epoch = std::time::Instant::now();
    let clock = || epoch.elapsed().as_micros() as u64;
    let hello = Frame::Hello { name: "script".into(), cores: 1, gpus: 0, mem_gib: 1 };
    write_frame(&mut sock, &hello).unwrap();
    let mut recv = RecvBuf::new();
    let mut fn_names = std::collections::HashMap::new();
    let mut seen = Vec::new();
    loop {
        let frame = read_frame(&mut sock, &mut recv).unwrap().expect("Shutdown precedes EOF");
        let reply = match &frame {
            Frame::Shutdown => return seen,
            Frame::Heartbeat { seq, t_send_us, .. } => {
                let now = clock();
                Some(Frame::HeartbeatAck {
                    seq: *seq,
                    t_send_us: *t_send_us,
                    recv_us: now,
                    reply_us: now,
                })
            }
            Frame::Submit { exec_id, fn_id, fn_name, args, .. } => {
                if let Some(name) = fn_name {
                    fn_names.insert(*fn_id, name.clone());
                }
                let inputs = inline_args(args);
                let out = match fn_names[fn_id].as_str() {
                    "square" => inputs[0] * inputs[0],
                    "add" => inputs[0] + inputs[1],
                    other => panic!("unscripted task {other}"),
                };
                let outputs = vec![rcompss::codec::encode_value(&Value::new(out)).unwrap()];
                let recv_us = clock();
                std::thread::sleep(exec);
                let start_us = clock();
                std::thread::sleep(2 * exec);
                let end_us = start_us + exec.as_micros() as u64;
                Some(Frame::Done { exec_id: *exec_id, recv_us, start_us, end_us, outputs })
            }
            _ => None,
        };
        seen.push(frame);
        if let Some(reply) = reply {
            write_frame(&mut sock, &reply).unwrap();
        }
    }
}

/// The values a `Submit` carries. The match is exhaustive on purpose: an
/// argument reaches a worker inline or as a block, there is no third way.
fn inline_args(args: &[WireArg]) -> Vec<i64> {
    args.iter()
        .map(|a| match a {
            WireArg::Inline { blob, .. } => {
                let v = rcompss::codec::decode_tagged(&blob.tag, &blob.bytes).expect("i64 codec");
                *v.downcast_ref::<i64>().unwrap()
            }
            WireArg::Block { .. } => panic!("8-byte values stay inline"),
        })
        .collect()
}

/// Connect a driver to a [`scripted_peer`] whose bodies take `exec`.
fn scripted_runtime(
    tracing: bool,
    exec: Duration,
) -> (Runtime, std::thread::JoinHandle<Vec<Frame>>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || scripted_peer(listener, exec));
    let cfg = RuntimeConfig::single_node(1).with_tracing(tracing);
    let rt = Runtime::distributed(cfg, &[addr], DistributedConfig::default()).expect("connect");
    (rt, peer)
}

/// The square → square → add chain against a scripted peer; returns what
/// the driver put on the wire.
fn scripted_chain(tracing: bool) -> Vec<Frame> {
    let (rt, peer) = scripted_runtime(tracing, Duration::ZERO);

    // Chain a → b, then a join over both outputs — all on the one node, so
    // every dependent is placed where its inputs were produced.
    let square = task_set().get("square").unwrap().clone();
    let add = task_set().get("add").unwrap().clone();
    let three = rt.literal(3i64);
    let a = rt.submit(&square, vec![ArgSpec::In(three)]).unwrap().returns[0];
    let b = rt.submit(&square, vec![ArgSpec::In(a)]).unwrap().returns[0];
    let join = rt.submit(&add, vec![ArgSpec::In(a), ArgSpec::In(b)]).unwrap().returns[0];
    // The peer answers nothing but `Done` (and heartbeat acks): completing
    // at all means the driver waited on no other reply.
    assert_eq!(*rt.wait_on(&join).unwrap().downcast_ref::<i64>().unwrap(), 90);
    drop(rt);
    peer.join().expect("peer thread")
}

#[test]
fn scripted_peer_sees_every_input_in_the_submit() {
    let traced = scripted_chain(true);
    let mut submits = Vec::new();
    for f in &traced {
        match f {
            Frame::Submit { args, .. } => submits.push(inline_args(args)),
            // The flag that used to solicit telemetry is reserved.
            Frame::Heartbeat { telemetry, .. } => assert!(!telemetry, "{f:?}"),
            other => panic!("driver sent {other:?} between Hello and Shutdown"),
        }
    }
    // b's Submit carries a's output (9), the join's carries both outputs.
    assert_eq!(submits, [vec![3], vec![9], vec![9, 81]]);
    // The first heartbeat leaves before the loop first polls.
    assert!(traced.iter().any(|f| matches!(f, Frame::Heartbeat { .. })), "heartbeats flowed");

    // Tracing changes nothing on the wire: heartbeats aside (their count
    // and clock are timing), the untraced run sends the very same frames.
    let paced = |frames: &[Frame]| -> Vec<Frame> {
        frames.iter().filter(|f| !matches!(f, Frame::Heartbeat { .. })).cloned().collect()
    };
    let untraced = scripted_chain(false);
    assert_eq!(paced(&untraced), paced(&traced));
    assert!(untraced.iter().all(|f| !matches!(f, Frame::Heartbeat { telemetry: true, .. })));
}

#[test]
fn done_stamps_alone_give_the_trace_its_exec_span() {
    // The peer sends a `Hello`, heartbeat acks and one `Done` — nothing
    // else exists for a trace to be built from.
    const EXEC: Duration = Duration::from_millis(20);
    let (rt, peer) = scripted_runtime(true, EXEC);
    // A stamp can only be placed once the link has a clock sample.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rt.clock_stats()[0].1 == 0 {
        assert!(std::time::Instant::now() < deadline, "no heartbeat ack in 5 s");
        std::thread::sleep(Duration::from_millis(1));
    }
    let square = task_set().get("square").unwrap().clone();
    let three = rt.literal(3i64);
    let out = rt.submit(&square, vec![ArgSpec::In(three)]).unwrap().returns[0];
    assert_eq!(*rt.wait_on(&out).unwrap().downcast_ref::<i64>().unwrap(), 9);
    // Complete the moment `wait_on` returns: no later frame adds to it.
    let done_by = rt.now_us();
    let trace = rt.trace();
    drop(rt);
    peer.join().expect("peer thread");

    let dispatched = trace
        .iter()
        .find_map(|r| match r {
            Record::Event { time, kind: EventKind::TaskDispatch(_), .. } => Some(*time),
            _ => None,
        })
        .expect("a dispatch event");
    let spans: Vec<&Record> = trace.iter().filter(|r| r.running_task().is_some()).collect();
    assert_eq!(spans.len(), 1, "{trace:?}");
    let (start, end) = (spans[0].time(), spans[0].end_time());
    // The body's own length, not the 3 × EXEC the driver saw go by.
    assert_eq!(end - start, EXEC.as_micros() as u64, "{:?}", spans[0]);
    assert!(dispatched <= start && end <= done_by, "{dispatched} ≤ [{start}, {end}] ≤ {done_by}");
}

/// A hand-made `Submit` of `name` as execution (and task) `exec_id`, on
/// core 0, with no arguments.
fn submit_frame(exec_id: u64, name: &str) -> Frame {
    Frame::Submit {
        exec_id,
        task_id: exec_id,
        attempt: 1,
        node: 0,
        fn_id: exec_id,
        fn_name: Some(name.to_string()),
        variant: 0,
        cores: vec![0],
        gpus: Vec::new(),
        args: Vec::new(),
    }
}

/// Play the driver by hand against a real worker: submit `name` as
/// execution `exec_id` and return every frame the worker sends up to and
/// including the `Done`.
fn scripted_submit(
    sock: &mut std::net::TcpStream,
    recv: &mut RecvBuf,
    exec_id: u64,
    name: &str,
) -> Vec<Frame> {
    write_frame(sock, &submit_frame(exec_id, name)).unwrap();
    let mut seen = Vec::new();
    loop {
        let frame = read_frame(sock, recv).unwrap().expect("the worker stays connected");
        let done = matches!(frame, Frame::Done { .. });
        seen.push(frame);
        if done {
            return seen;
        }
    }
}

/// The snapshot frames among `frames`, as `(task id, bytes)`.
fn snapshot_frames(frames: &[Frame]) -> Vec<(u64, &[u8])> {
    frames
        .iter()
        .filter_map(|f| match f {
            Frame::Data { key, blob } => Some((*key, blob.bytes.as_slice())),
            _ => None,
        })
        .collect()
}

#[test]
fn a_checkpointing_task_puts_its_saves_on_the_wire_and_nothing_else() {
    // The driver here is this test, and it answers nothing: a body that
    // completes waited on no reply. Frames are read back to back, so one
    // the worker sent after a `Done` would head the next submit's list.
    let quiet = def("quiet", |_, _| Ok(vec![Value::new(1i64)]));
    let saver = def("saver", |_, _| {
        rcompss::snapshot::save(b"one");
        rcompss::snapshot::save(b"three");
        Ok(vec![Value::new(2i64)])
    });
    let resumer = def("resumer", |_, _| {
        let mut state = rcompss::snapshot::load().unwrap_or_default();
        state.push(b'!');
        rcompss::snapshot::save(&state);
        Ok(vec![Value::new(3i64)])
    });
    let cfg = WorkerConfig { name: "w".into(), cores: 1, ..WorkerConfig::default() };
    let registry = TaskRegistry::new().with(quiet).with(saver).with(resumer);
    let worker = WorkerServer::bind("127.0.0.1:0", cfg, registry)
        .expect("bind loopback")
        .spawn()
        .expect("spawn worker");
    let mut sock = std::net::TcpStream::connect(worker.addr()).expect("connect");
    let mut recv = RecvBuf::new();
    let hello = read_frame(&mut sock, &mut recv).unwrap();
    assert!(matches!(hello, Some(Frame::Hello { .. })), "{hello:?}");

    // (a) A body that never saves: its `Done`, nothing before it.
    let frames = scripted_submit(&mut sock, &mut recv, 1, "quiet");
    assert!(matches!(frames.as_slice(), [Frame::Done { exec_id: 1, .. }]), "{frames:?}");

    // (b) Two saves: two frames keyed by the task, then the `Done`.
    let frames = scripted_submit(&mut sock, &mut recv, 2, "saver");
    assert_eq!(snapshot_frames(&frames), [(2, &b"one"[..]), (2, &b"three"[..])], "{frames:?}");
    assert!(matches!(frames.as_slice(), [_, _, Frame::Done { exec_id: 2, .. }]), "{frames:?}");

    // (c) A snapshot written ahead of the `Submit` is what the body loads;
    // the first frame back is already its save.
    let handed = Blob { tag: "ckpt.snap".into(), bytes: b"handed over".to_vec() };
    write_frame(&mut sock, &Frame::Data { key: 3, blob: handed }).unwrap();
    let frames = scripted_submit(&mut sock, &mut recv, 3, "resumer");
    assert_eq!(snapshot_frames(&frames), [(3, &b"handed over!"[..])], "{frames:?}");
    assert!(matches!(frames.as_slice(), [_, Frame::Done { exec_id: 3, .. }]), "{frames:?}");
    // It went with that job: the next task starts from nothing, at once.
    let frames = scripted_submit(&mut sock, &mut recv, 4, "resumer");
    assert_eq!(snapshot_frames(&frames), [(4, &b"!"[..])], "{frames:?}");
    assert!(matches!(frames.as_slice(), [_, Frame::Done { exec_id: 4, .. }]), "{frames:?}");
}

#[test]
fn a_retry_costs_one_snapshot_on_the_wire_and_a_settled_task_keeps_none() {
    // The worker is this test. It fails the first attempt after one save,
    // finishes the second, and saves once more for the task after its
    // `Done`; it records what the driver sent in between.
    const STATE: &[u8] = b"epoch 3 of 10";
    let save = |task_id: u64| Frame::Data {
        key: task_id,
        blob: Blob { tag: "ckpt.snap".into(), bytes: STATE.to_vec() },
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("driver connects");
        let hello = Frame::Hello { name: "script".into(), cores: 1, gpus: 0, mem_gib: 1 };
        write_frame(&mut sock, &hello).unwrap();
        let mut recv = RecvBuf::new();
        let mut seen = Vec::new();
        loop {
            let frame = read_frame(&mut sock, &mut recv).unwrap().expect("Shutdown precedes EOF");
            let replies = match &frame {
                Frame::Shutdown => return seen,
                Frame::Heartbeat { seq, t_send_us, .. } => {
                    let (seq, t_send_us) = (*seq, *t_send_us);
                    vec![Frame::HeartbeatAck { seq, t_send_us, recv_us: 0, reply_us: 0 }]
                }
                Frame::Submit { exec_id, task_id, attempt: 1, .. } => {
                    let message = "lost the node after epoch 3".to_string();
                    vec![save(*task_id), Frame::Failed { exec_id: *exec_id, message }]
                }
                Frame::Submit { exec_id, task_id, .. } => {
                    let outputs = vec![rcompss::codec::encode_value(&Value::new(10i64)).unwrap()];
                    let (exec_id, recv_us, start_us, end_us) = (*exec_id, 1, 2, 3);
                    vec![
                        Frame::Done { exec_id, recv_us, start_us, end_us, outputs },
                        save(*task_id),
                    ]
                }
                _ => Vec::new(),
            };
            if !matches!(frame, Frame::Heartbeat { .. }) {
                seen.push(frame);
            }
            for reply in &replies {
                write_frame(&mut sock, reply).unwrap();
            }
        }
    });
    let rt =
        Runtime::distributed(RuntimeConfig::single_node(1), &[addr], DistributedConfig::default())
            .expect("connect");
    let live = |rt: &Runtime| rt.metrics().snapshot().gauge("rcompss_live_snapshot_bytes");
    let square = task_set().get("square").unwrap().clone();
    let three = rt.literal(3i64);
    let first = rt.submit(&square, vec![ArgSpec::In(three)]).unwrap();
    assert_eq!(*rt.wait_on(&first.returns[0]).unwrap().downcast_ref::<i64>().unwrap(), 10);
    // A second task behind the late save on the same socket: once it is
    // done the driver has seen that save, and dropped it.
    let second = rt.submit(&square, vec![ArgSpec::In(three)]).unwrap();
    rt.wait_on(&second.returns[0]).unwrap();
    assert_eq!(live(&rt), Some(0.0), "settled tasks hold no snapshot");
    assert_eq!(rt.stats().failed_attempts, 2);
    drop(rt);

    // Driver → worker, heartbeats aside: a first attempt is its Submit, a
    // retry is the snapshot and then its Submit. No other frame, either way.
    let seen = peer.join().expect("peer thread");
    let summary: Vec<(&str, u64, u32)> = seen
        .iter()
        .map(|f| match f {
            Frame::Submit { task_id, attempt, .. } => ("submit", *task_id, *attempt),
            Frame::Data { key, blob } if blob.bytes == STATE => ("snapshot", *key, 0),
            other => panic!("driver sent {other:?}"),
        })
        .collect();
    let (a, b) = (first.task.0, second.task.0);
    let per_task = |t| [("submit", t, 1), ("snapshot", t, 0), ("submit", t, 2)];
    assert_eq!(summary, [per_task(a), per_task(b)].concat());
    // So what a retry adds to the wire is that one frame: the snapshot's
    // bytes under a fixed header (magic, type, length, task id, tag).
    let extra = seen[1].encode().len();
    assert!((STATE.len()..=STATE.len() + 24).contains(&extra), "{extra} bytes");
}

#[test]
fn killed_worker_mid_run_resubmits_to_survivors() {
    let workers = spawn_workers(3, 2);
    let dcfg = DistributedConfig {
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(300),
        ..DistributedConfig::default()
    };
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1)
            .with_retry(RetryPolicy { max_attempts: 4, same_node_first: false }),
        &addrs(&workers),
        dcfg,
    )
    .expect("connect");

    let slow = task_set().get("slow_square").unwrap().clone();
    let handles: Vec<_> = (1..=30i64)
        .map(|i| {
            let h = rt.literal(i);
            rt.submit(&slow, vec![ArgSpec::In(h)]).unwrap().returns[0]
        })
        .collect();

    // Let the run get going, then SIGKILL-style drop one worker: its
    // executor threads stop reporting and its socket goes dark.
    std::thread::sleep(Duration::from_millis(40));
    workers[0].halt();

    for (i, h) in handles.iter().enumerate() {
        let v = rt.wait_on(h).expect("survivors finish the work");
        let x = (i + 1) as i64;
        assert_eq!(*v.downcast_ref::<i64>().unwrap(), x * x);
    }

    let snap = rt.metrics().snapshot();
    assert_eq!(snap.counter("rcompss_workers_lost_total"), Some(1));
    assert!(
        snap.counter("rcompss_tasks_retried_total").unwrap_or(0) > 0,
        "in-flight tasks on the dead worker were resubmitted"
    );
    assert_eq!(rt.stats().completed, 30);
}

#[test]
fn killed_worker_resumes_from_snapshot_not_epoch_zero() {
    use std::sync::Mutex;

    const EPOCHS: u32 = 10;

    // Each attempt records (node, start_epoch) when it begins; loopback
    // workers run in this process, so the statics are shared.
    static ATTEMPTS: Mutex<Vec<(u32, u32)>> = Mutex::new(Vec::new());

    let stepper = def("stepper", |ctx, _| {
        let start = rcompss::snapshot::load()
            .map(|b| u32::from_le_bytes(b[..4].try_into().unwrap()))
            .unwrap_or(0);
        ATTEMPTS.lock().unwrap().push((ctx.node, start));
        for epoch in start..EPOCHS {
            std::thread::sleep(Duration::from_millis(40));
            rcompss::snapshot::save(&(epoch + 1).to_le_bytes());
        }
        Ok(vec![Value::new(i64::from(EPOCHS))])
    });
    let registry = TaskRegistry::new().with(stepper.clone());

    let workers: Vec<WorkerHandle> = (0..2)
        .map(|i| {
            let cfg = WorkerConfig { name: format!("w{i}"), cores: 1, ..WorkerConfig::default() };
            WorkerServer::bind("127.0.0.1:0", cfg, registry.clone())
                .expect("bind loopback")
                .spawn()
                .expect("spawn worker")
        })
        .collect();
    let dcfg = DistributedConfig {
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(300),
        ..DistributedConfig::default()
    };
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1)
            .with_retry(RetryPolicy { max_attempts: 4, same_node_first: false }),
        &addrs(&workers),
        dcfg,
    )
    .expect("connect");

    let h = rt.submit(&stepper, vec![]).unwrap().returns[0];

    // Let a few epochs checkpoint, then kill whichever worker runs the task.
    std::thread::sleep(Duration::from_millis(150));
    let node = ATTEMPTS.lock().unwrap().first().expect("task started").0;
    workers[node as usize].halt();

    let v = rt.wait_on(&h).expect("survivor finishes the task");
    assert_eq!(*v.downcast_ref::<i64>().unwrap(), i64::from(EPOCHS));

    let attempts = ATTEMPTS.lock().unwrap().clone();
    assert!(attempts.len() >= 2, "task was retried after the kill: {attempts:?}");
    assert_eq!(attempts[0].1, 0, "first attempt trains from scratch");
    let resumed = attempts.last().unwrap();
    assert_ne!(resumed.0, node, "retry lands on the surviving worker");
    assert!(
        resumed.1 > 0,
        "replacement worker resumes from the driver-held snapshot, \
         not epoch 0: {attempts:?}"
    );
    assert_eq!(rt.metrics().snapshot().counter("rcompss_workers_lost_total"), Some(1));

    // The trace tells the kill as the simulator does: the killed attempt
    // keeps one bar on the lost node, cut at the loss, with no `TaskEnd`;
    // the retry's bar and `TaskEnd` are on the survivor.
    let records = rt.trace();
    let lost_at = records
        .iter()
        .find_map(|r| match r {
            Record::Event { time, kind: EventKind::NodeFailure, .. } => Some(*time),
            _ => None,
        })
        .expect("the loss is traced");
    let on = |n: u32| -> Vec<&Record> {
        records.iter().filter(|r| r.running_task().is_some() && r.core().node == n).collect()
    };
    let ends = |n: u32| {
        let end = |r: &&Record| matches!(r, Record::Event { kind: EventKind::TaskEnd(_), .. });
        records.iter().filter(end).filter(|r| r.core().node == n).count()
    };
    let killed = on(node);
    assert_eq!(killed.len(), 1, "{killed:?}");
    assert_eq!(killed[0].end_time(), lost_at, "{killed:?}");
    assert_eq!((ends(node), on(1 - node).len(), ends(1 - node)), (0, 1, 1));
}

#[test]
fn all_workers_dead_fails_tasks_instead_of_hanging() {
    let workers = spawn_workers(1, 1);
    let dcfg = DistributedConfig {
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(250),
        ..DistributedConfig::default()
    };
    let rt = Runtime::distributed(RuntimeConfig::single_node(1), &addrs(&workers), dcfg)
        .expect("connect");
    let slow = task_set().get("slow_square").unwrap().clone();
    let mut handles = Vec::new();
    for i in 1..=8i64 {
        let h = rt.literal(i);
        handles.push(rt.submit(&slow, vec![ArgSpec::In(h)]).unwrap().returns[0]);
    }
    std::thread::sleep(Duration::from_millis(30));
    workers[0].halt();
    // With no survivors the retry policy runs out of nodes: tasks must be
    // failed (poisoned handles), not parked forever.
    let mut failures = 0;
    for h in &handles {
        if rt.wait_on(h).is_err() {
            failures += 1;
        }
    }
    assert!(failures > 0, "at least the in-flight tasks fail cleanly");
    assert!(rt.stats().failed > 0);
}

#[test]
fn tracing_off_keeps_no_records() {
    let workers = spawn_workers(2, 2);
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1).with_tracing(false),
        &addrs(&workers),
        DistributedConfig::default(),
    )
    .expect("connect");
    assert_eq!(run_fan_out_fan_in(&rt, 16), (1..=16i64).map(|i| i * i).sum::<i64>());
    assert!(rt.trace().is_empty(), "no trace records when tracing is disabled");
    // The `Done` stamps are read all the same: they feed the phase
    // histograms whether or not anything draws them.
    let exec = runmetrics::labeled("rcompss_task_phase_us", "phase", "exec");
    assert_eq!(rt.metrics().snapshot().histogram(&exec).map(|h| h.count), Some(17));
}

#[test]
fn merged_trace_has_worker_spans_for_every_completed_task() {
    const N: i64 = 30;
    let workers = spawn_workers(3, 2);
    let dcfg = DistributedConfig {
        heartbeat_interval: Duration::from_millis(40),
        heartbeat_timeout: Duration::from_millis(300),
        ..DistributedConfig::default()
    };
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1)
            .with_retry(RetryPolicy { max_attempts: 4, same_node_first: false }),
        &addrs(&workers),
        dcfg,
    )
    .expect("connect");

    let slow = task_set().get("slow_square").unwrap().clone();
    let handles: Vec<_> = (1..=N)
        .map(|i| {
            let h = rt.literal(i);
            rt.submit(&slow, vec![ArgSpec::In(h)]).unwrap().returns[0]
        })
        .collect();

    // Kill one worker mid-run: its in-flight tasks are resubmitted, and the
    // trace must still account for every *completed* execution.
    std::thread::sleep(Duration::from_millis(60));
    workers[0].halt();
    for (i, h) in handles.iter().enumerate() {
        let x = (i + 1) as i64;
        assert_eq!(*rt.wait_on(h).unwrap().downcast_ref::<i64>().unwrap(), x * x);
    }
    assert_eq!(rt.stats().completed, N as u64);

    // No waiting for a later frame: a span arrives with its completion.
    let done_by = rt.now_us();
    let records = rt.trace();
    let snap = rt.metrics().snapshot();

    // Every completed slow_square has an execution span in the trace: the
    // worker's own (the body sleeps 15 ms), inside the attempt's window —
    // after its dispatch to that node, before the driver saw it complete.
    let mut seen = std::collections::HashSet::new();
    for r in &records {
        if let Some(t) = r.running_task() {
            if &*t.name == "slow_square" {
                assert!(r.end_time() - r.time() >= 10_000, "the 15 ms body: {r:?}");
                let dispatched = records.iter().any(|d| {
                    matches!(d, Record::Event { kind: EventKind::TaskDispatch(dt), .. }
                        if dt.id == t.id)
                        && d.core().node == r.core().node
                        && d.time() <= r.time()
                });
                assert!(dispatched, "span precedes every dispatch of its task: {r:?}");
                assert!(r.end_time() <= done_by, "span outlasts its completion: {r:?}");
                seen.insert(t.id);
            }
        }
    }
    assert_eq!(seen.len() as i64, N, "one exec span per completed task");

    // Rebasing kept the timeline monotonic — records sorted by start time
    // with no span extending past the run horizon.
    let horizon = records.iter().map(|r| r.end_time()).max().unwrap_or(0);
    let mut prev = 0;
    for r in &records {
        assert!(r.time() >= prev, "trace sorted on driver timeline");
        assert!(r.end_time() <= horizon);
        prev = r.time();
    }

    // The lifecycle histograms decompose queue → wire → exec → ship.
    for phase in ["queue", "wire", "exec", "ship"] {
        let h = snap
            .histogram(&runmetrics::labeled("rcompss_task_phase_us", "phase", phase))
            .unwrap_or_else(|| panic!("task_phase_us{{phase={phase}}} registered"));
        assert!(h.count >= N as u64, "phase {phase} recorded per completion: {}", h.count);
    }
    // Exec time is worker ground truth: slow_square sleeps 15 ms, so the
    // median must sit at or above that floor.
    let exec = snap.histogram(&runmetrics::labeled("rcompss_task_phase_us", "phase", "exec"));
    assert!(exec.unwrap().p50 >= 10_000, "exec phase reflects the 15 ms body");
}

/// `loopback_dependent_chain_and_labels`, each link waited on as it is
/// submitted: a value a `wait_on` returns already has its attempt's bar in
/// the trace and its exec sample in the metrics.
#[test]
fn a_waited_value_already_has_its_bar_and_exec_sample() {
    let workers = spawn_workers(2, 1);
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1),
        &addrs(&workers),
        DistributedConfig::default(),
    )
    .expect("connect");
    let add = task_set().get("add").unwrap().clone();
    let one = rt.literal(1i64);
    let mut acc = rt.literal(0i64);
    let exec = runmetrics::labeled("rcompss_task_phase_us", "phase", "exec");
    for i in 1..=100 {
        let step = rt.submit(&add, vec![ArgSpec::In(acc), ArgSpec::In(one)]).unwrap();
        acc = step.returns[0];
        assert_eq!(*rt.wait_on(&acc).unwrap().downcast_ref::<i64>().unwrap(), i);
        let records = rt.trace();
        let bars = records.iter().filter_map(Record::running_task);
        assert_eq!(bars.filter(|t| t.id == step.task.0).count(), 1, "step {i} has no bar");
        let samples = rt.metrics().snapshot().histogram(&exec).map_or(0, |h| h.count);
        assert_eq!(samples, i as u64, "step {i}'s exec sample");
    }
}

#[test]
fn a_two_core_task_has_a_bar_on_each_granted_core() {
    let pair = TaskDef {
        constraint: Constraint::cpus(2),
        ..def("pair", |ctx, _| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(vec![Value::new(ctx.cores.len() as i64)])
        })
    };
    let cfg = WorkerConfig { name: "w".into(), cores: 2, ..WorkerConfig::default() };
    let worker = WorkerServer::bind("127.0.0.1:0", cfg, TaskRegistry::new().with(pair.clone()))
        .expect("bind loopback")
        .spawn()
        .expect("spawn worker");
    let dcfg = DistributedConfig {
        heartbeat_interval: Duration::from_millis(20),
        ..DistributedConfig::default()
    };
    let rt = Runtime::distributed(RuntimeConfig::single_node(1), &[worker.addr()], dcfg)
        .expect("connect");
    let zero = rt.literal(0i64);
    let out = rt.submit(&pair, vec![ArgSpec::In(zero)]).unwrap().returns[0];
    assert_eq!(*rt.wait_on(&out).unwrap().downcast_ref::<i64>().unwrap(), 2);

    let bars = |trace: Vec<Record>| -> Vec<Record> {
        trace.into_iter().filter(|r| r.running_task().is_some()).collect()
    };
    let at_completion = bars(rt.trace());
    assert_eq!(at_completion.len(), 2, "{at_completion:?}");
    let (a, b) = (&at_completion[0], &at_completion[1]);
    assert_ne!(a.core(), b.core(), "one bar per granted core");
    assert_eq!((a.time(), a.end_time()), (b.time(), b.end_time()), "one attempt, one span");
    // Nothing arrives later to redraw a settled attempt, however many
    // heartbeats go by.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(bars(rt.trace()), at_completion);
}

#[test]
fn the_core_gate_never_runs_two_bodies_on_one_core() {
    use std::sync::Mutex;
    use std::time::Instant;

    // `(core, start, end)` of every body; loopback workers run in this
    // process, so the static is shared.
    static SPANS: Mutex<Vec<(u32, Instant, Instant)>> = Mutex::new(Vec::new());
    fn record(ctx: &TaskContext) -> Result<Vec<Value>, TaskError> {
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(20));
        let end = Instant::now();
        SPANS.lock().unwrap().extend(ctx.cores.iter().map(|&c| (c, start, end)));
        Ok(vec![Value::new(ctx.cores.len() as i64)])
    }
    let pair = TaskDef { constraint: Constraint::cpus(2), ..def("pair", |ctx, _| record(ctx)) };
    let one = def("one", |ctx, _| record(ctx));
    let cfg = WorkerConfig { name: "w".into(), cores: 2, ..WorkerConfig::default() };
    let registry = TaskRegistry::new().with(pair.clone()).with(one.clone());
    let worker = WorkerServer::bind("127.0.0.1:0", cfg, registry)
        .expect("bind loopback")
        .spawn()
        .expect("spawn worker");
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1),
        &[worker.addr()],
        DistributedConfig::default(),
    )
    .expect("connect");
    // The pair holds both cores; the first two one-core tasks are sent
    // ahead, one behind each of them, while the pair still runs.
    let zero = rt.literal(0i64);
    let mut outs = vec![rt.submit(&pair, vec![ArgSpec::In(zero)]).unwrap().returns[0]];
    for _ in 0..6 {
        outs.push(rt.submit(&one, vec![ArgSpec::In(zero)]).unwrap().returns[0]);
    }
    let got: Vec<i64> =
        outs.iter().map(|h| *rt.wait_on(h).unwrap().downcast_ref::<i64>().unwrap()).collect();
    assert_eq!(got, [2, 1, 1, 1, 1, 1, 1]);

    let mut spans = SPANS.lock().unwrap().clone();
    assert_eq!(spans.len(), 8, "{spans:?}");
    spans.sort_by_key(|&(core, start, _)| (core, start));
    for w in spans.windows(2) {
        let ((a_core, _, a_end), (b_core, b_start, _)) = (w[0], w[1]);
        assert!(a_core != b_core || a_end <= b_start, "two bodies overlap on core {a_core}");
    }
}

#[test]
fn a_killed_worker_holding_a_queued_task_matches_threaded_and_leaks_nothing() {
    let workers = spawn_workers(2, 1);
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1)
            .with_retry(RetryPolicy { max_attempts: 4, same_node_first: false }),
        &addrs(&workers),
        DistributedConfig {
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_timeout: Duration::from_millis(300),
            ..DistributedConfig::default()
        },
    )
    .expect("connect");
    let slow = task_set().get("slow_square").unwrap().clone();
    let inputs: Vec<_> = (1..=8i64).map(|i| rt.literal(i)).collect();
    let outs: Vec<_> = inputs
        .iter()
        .map(|&h| rt.submit(&slow, vec![ArgSpec::In(h)]).unwrap().returns[0])
        .collect();
    // More tasks than cores: each one-core worker runs one and holds the
    // next, and the driver counts both as running.
    let running = rt.metrics().snapshot().gauge("rcompss_running_tasks");
    assert_eq!(running, Some(4.0), "two per worker in flight");
    // Halt worker 0 inside its first 15 ms body, the second job queued.
    std::thread::sleep(Duration::from_millis(5));
    workers[0].halt();

    let distributed: Vec<i64> =
        outs.iter().map(|h| *rt.wait_on(h).unwrap().downcast_ref::<i64>().unwrap()).collect();
    let threaded: Vec<i64> = {
        let rt = Runtime::threaded(RuntimeConfig::single_node(2));
        let outs: Vec<_> = (1..=8i64)
            .map(|i| rt.submit(&slow, vec![ArgSpec::In(rt.literal(i))]).unwrap().returns[0])
            .collect();
        outs.iter().map(|h| *rt.wait_on(h).unwrap().downcast_ref::<i64>().unwrap()).collect()
    };
    assert_eq!(distributed, threaded);
    let snap = rt.metrics().snapshot();
    assert_eq!(snap.counter("rcompss_workers_lost_total"), Some(1));
    assert!(snap.counter("rcompss_tasks_retried_total").unwrap_or(0) >= 2, "both resubmitted");

    for h in inputs.into_iter().chain(outs) {
        rt.delete(h);
    }
    let snap = rt.metrics().snapshot();
    for gauge in ["rcompss_live_tasks", "rcompss_live_data_versions", "rcompss_live_snapshot_bytes"]
    {
        assert_eq!(snap.gauge(gauge), Some(0.0), "{gauge}");
    }
}

#[test]
fn a_job_queued_on_a_closed_connection_never_starts() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::sync::Mutex;

    // The driver is this test: it sends a job that holds the worker's one
    // core until told to finish, and a second one queued behind it.
    static LATE_STARTED: AtomicBool = AtomicBool::new(false);
    let (started_tx, started) = mpsc::channel::<()>();
    let (finish, finish_rx) = mpsc::channel::<()>();
    let (started_tx, finish_rx) = (Mutex::new(started_tx), Mutex::new(finish_rx));
    let hold = def("hold", move |_, _| {
        started_tx.lock().unwrap().send(()).ok();
        finish_rx.lock().unwrap().recv_timeout(Duration::from_secs(5)).ok();
        Ok(vec![Value::new(1i64)])
    });
    let late = def("late", |_, _| {
        LATE_STARTED.store(true, Ordering::SeqCst);
        Ok(vec![Value::new(2i64)])
    });
    let cfg = WorkerConfig { name: "w".into(), cores: 1, ..WorkerConfig::default() };
    let worker = WorkerServer::bind("127.0.0.1:0", cfg, TaskRegistry::new().with(hold).with(late))
        .expect("bind loopback")
        .spawn()
        .expect("spawn worker");
    let mut sock = std::net::TcpStream::connect(worker.addr()).expect("connect");
    let mut recv = RecvBuf::new();
    let hello = read_frame(&mut sock, &mut recv).unwrap();
    assert!(matches!(hello, Some(Frame::Hello { .. })), "{hello:?}");
    // Both on core 0: the second is queued behind the first, as the
    // driver's dispatch-ahead sends it.
    for (exec_id, name) in [(1, "hold"), (2, "late")] {
        write_frame(&mut sock, &submit_frame(exec_id, name)).unwrap();
    }
    started.recv_timeout(Duration::from_secs(5)).expect("the first job started");
    worker.drop_connections();
    // The worker's loop marks the connection closed when it reads the EOF,
    // which nothing outside the worker can observe: allow it ample time,
    // then let the running job end, and allow the late one time to start.
    std::thread::sleep(Duration::from_millis(300));
    finish.send(()).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    assert!(!LATE_STARTED.load(Ordering::SeqCst), "a job queued on a closed connection ran");
}

/// Task set for the block-plane tests: `dot` folds a shared `Vec<f64>`
/// dataset with a per-trial scale — the dataset is what the block plane
/// should ship once per worker instead of once per trial.
fn block_task_set(sleep: Duration) -> TaskRegistry {
    // A fork-snapshot-sized task *return*: nobody declares its size.
    let ramp = def("ramp", |_, inputs| {
        let n: i64 = *inputs[0].downcast_ref::<i64>().unwrap();
        Ok(vec![Value::new((0..n).map(|i| (i as f64).sqrt()).collect::<Vec<f64>>())])
    });
    let dot = def("dot", move |_, inputs| {
        std::thread::sleep(sleep);
        let data: &Vec<f64> = inputs[0].downcast_ref().unwrap();
        let scale: i64 = *inputs[1].downcast_ref::<i64>().unwrap();
        let sum: f64 = data.iter().sum();
        Ok(vec![Value::new(sum * scale as f64)])
    });
    TaskRegistry::new().with(dot).with(ramp)
}

fn spawn_block_workers(n: usize, cores: u32, sleep: Duration) -> Vec<WorkerHandle> {
    let registry = block_task_set(sleep);
    (0..n)
        .map(|i| {
            let cfg = WorkerConfig { name: format!("w{i}"), cores, ..WorkerConfig::default() };
            WorkerServer::bind("127.0.0.1:0", cfg, registry.clone())
                .expect("bind loopback")
                .spawn()
                .expect("spawn worker")
        })
        .collect()
}

/// Submit `trials` dot-products, each against its *own* literal holding
/// the same dataset bytes — the realistic sweep shape where every trial
/// materialises its copy of a shared input under a fresh handle. The
/// content-addressed plane collapses them onto one block. Returns the
/// result bit patterns (f64 → u64, so equality is exact).
fn run_block_sweep(rt: &Runtime, dataset: &[f64], trials: i64, sleep: Duration) -> Vec<u64> {
    let dot = block_task_set(sleep).get("dot").unwrap().clone();
    let handles: Vec<_> = (1..=trials)
        .map(|i| {
            let ds = rt.literal(dataset.to_vec());
            // Declare the real size so the distributed backend routes the
            // dataset through the block plane (the per-trial i64 keeps the
            // 1 KiB default and stays inline).
            rt.set_data_bytes(ds, (dataset.len() * 8) as u64);
            let scale = rt.literal(i);
            rt.submit(&dot, vec![ArgSpec::In(ds), ArgSpec::In(scale)]).unwrap().returns[0]
        })
        .collect();
    handles
        .iter()
        .map(|h| rt.wait_on(h).unwrap().downcast_ref::<f64>().unwrap().to_bits())
        .collect()
}

#[test]
fn block_plane_ships_shared_dataset_once_per_worker_not_once_per_trial() {
    const TRIALS: i64 = 12;
    let dataset: Vec<f64> = (0..4096).map(|i| (i as f64).sin()).collect();
    let ds_wire = rcompss::codec::encode_value(&Value::new(dataset.clone()))
        .expect("builtin vec_f64 codec")
        .bytes
        .len() as u64;

    // Worker block-cache counters live in the process-global registry
    // (opt-in, like the worker binary's `serve`) and loopback workers
    // share this process, so enable it and measure deltas.
    runmetrics::global().set_enabled(true);
    let hits_before =
        runmetrics::global().snapshot().counter("rcompss_block_cache_hits_total").unwrap_or(0);

    // Control: the same sweep with the block plane disabled ships the
    // dataset inline in every Submit — the O(trials × dataset) baseline.
    let inline_sent = {
        let workers = spawn_block_workers(2, 2, Duration::ZERO);
        let dcfg = DistributedConfig { inline_threshold: u64::MAX, ..DistributedConfig::default() };
        let rt = Runtime::distributed(RuntimeConfig::single_node(1), &addrs(&workers), dcfg)
            .expect("connect");
        run_block_sweep(&rt, &dataset, TRIALS, Duration::ZERO);
        rt.metrics().snapshot().counter("rnet_bytes_sent_total").expect("bytes counted")
    };

    let workers = spawn_block_workers(2, 2, Duration::ZERO);
    let dcfg = DistributedConfig { inline_threshold: 16 * 1024, ..DistributedConfig::default() };
    let rt = Runtime::distributed(RuntimeConfig::single_node(1), &addrs(&workers), dcfg)
        .expect("connect");
    let distributed = run_block_sweep(&rt, &dataset, TRIALS, Duration::ZERO);

    // Bit-identical to the threaded backend: the block plane changes how
    // bytes move, never what tasks compute.
    let threaded = {
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        run_block_sweep(&rt, &dataset, TRIALS, Duration::ZERO)
    };
    assert_eq!(distributed, threaded, "results identical across backends");

    let snap = rt.metrics().snapshot();
    let sent = snap.counter("rnet_bytes_sent_total").expect("bytes counted");
    let naive = TRIALS as u64 * ds_wire;
    let deduped = 2 * ds_wire; // once per worker
    println!(
        "bytes on wire for {TRIALS} trials over a {ds_wire}-byte dataset: \
         inline {inline_sent}, block plane {sent} ({:.1}x less)",
        inline_sent as f64 / sent as f64
    );
    assert!(sent < naive, "block plane beats inline shipping: sent {sent} >= naive {naive}");
    assert!(
        sent <= 2 * deduped + 96 * 1024,
        "sent {sent} exceeds O(workers × dataset) + control-plane slack"
    );
    assert!(
        sent * 2 < inline_sent,
        "block plane at least halves the measured inline bytes \
         ({inline_sent} -> {sent})"
    );

    // Every trial resolved the dataset from the local cache: the block
    // rode a BlockData ahead of the first Submit on each link.
    let hits_after =
        runmetrics::global().snapshot().counter("rcompss_block_cache_hits_total").unwrap_or(0);
    assert!(
        hits_after - hits_before >= TRIALS as u64,
        "each trial hit the worker block cache ({hits_before} -> {hits_after})"
    );

    // Per-link byte counters carry a node label and sum to the global.
    let labelled: u64 = rt
        .node_labels()
        .iter()
        .filter_map(|l| snap.counter(&runmetrics::labeled("rnet_bytes_sent_total", "node", l)))
        .sum();
    assert_eq!(labelled, sent, "per-node byte counters partition the total");
}

#[test]
fn a_large_task_return_travels_once_as_a_block_at_the_default_threshold() {
    // One parent returns ≈ 160 KB; three children on the same (only) worker
    // read it. Nothing declares a size and the threshold is the product
    // default, so it is the size measured off the parent's `Done` that
    // routes the value through the block plane: one `BlockData`, three
    // references. Sized by the 1 KiB guess it rode inline in all three
    // `Submit`s.
    const N: i64 = 20_000;
    let registry = block_task_set(Duration::ZERO);
    let workers = spawn_block_workers(1, 1, Duration::ZERO);
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1),
        &addrs(&workers),
        DistributedConfig::default(),
    )
    .expect("connect");
    let ramp = registry.get("ramp").unwrap().clone();
    let dot = registry.get("dot").unwrap().clone();
    let parent = rt.submit(&ramp, vec![ArgSpec::In(rt.literal(N))]).unwrap().returns[0];
    let children: Vec<_> = (1..=3i64)
        .map(|scale| {
            let scale = rt.literal(scale);
            rt.submit(&dot, vec![ArgSpec::In(parent), ArgSpec::In(scale)]).unwrap().returns[0]
        })
        .collect();
    let got: Vec<f64> =
        children.iter().map(|h| *rt.wait_on(h).unwrap().downcast_ref::<f64>().unwrap()).collect();
    let sum: f64 = (0..N).map(|i| (i as f64).sqrt()).sum();
    assert_eq!(got, vec![sum, sum * 2.0, sum * 3.0]);
    let snapshot = (N * 8) as u64;
    let sent = rt.metrics().snapshot().counter("rnet_bytes_sent_total").expect("bytes counted");
    assert!(sent >= snapshot, "the children's input did cross the wire ({sent} bytes)");
    assert!(sent < 2 * snapshot, "sent {sent} bytes for one {snapshot}-byte return read thrice");
}

#[test]
fn killed_worker_block_inputs_refetch_cleanly_on_survivors() {
    const TRIALS: i64 = 24;
    let dataset: Vec<f64> = (0..4096).map(|i| (i as f64).cos()).collect();

    let workers = spawn_block_workers(2, 2, Duration::from_millis(15));
    let dcfg = DistributedConfig {
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(300),
        inline_threshold: 16 * 1024,
    };
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1)
            .with_retry(RetryPolicy { max_attempts: 4, same_node_first: false }),
        &addrs(&workers),
        dcfg,
    )
    .expect("connect");

    let dot = block_task_set(Duration::from_millis(15)).get("dot").unwrap().clone();
    let ds = rt.literal(dataset.clone());
    rt.set_data_bytes(ds, (dataset.len() * 8) as u64);
    let handles: Vec<_> = (1..=TRIALS)
        .map(|i| {
            let scale = rt.literal(i);
            rt.submit(&dot, vec![ArgSpec::In(ds), ArgSpec::In(scale)]).unwrap().returns[0]
        })
        .collect();

    // Kill one worker mid-run: failover must retract its block residency
    // (clear_node) so retried tasks re-fetch on survivors instead of the
    // driver assuming the dead node's cache still exists.
    std::thread::sleep(Duration::from_millis(40));
    workers[0].halt();

    let expected: f64 = dataset.iter().sum();
    for (i, h) in handles.iter().enumerate() {
        let v = rt.wait_on(h).expect("survivor finishes block-plane tasks");
        let got = *v.downcast_ref::<f64>().unwrap();
        assert_eq!(got.to_bits(), (expected * (i as f64 + 1.0)).to_bits());
    }
    let snap = rt.metrics().snapshot();
    assert_eq!(snap.counter("rcompss_workers_lost_total"), Some(1));
    assert!(
        snap.counter("rcompss_tasks_retried_total").unwrap_or(0) > 0,
        "in-flight tasks on the dead worker were resubmitted"
    );
    assert_eq!(rt.stats().completed, TRIALS as u64);
}

#[test]
fn severed_live_worker_is_written_off() {
    let workers = spawn_workers(2, 2);
    let dcfg = DistributedConfig {
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(300),
        ..DistributedConfig::default()
    };
    let rt = Runtime::distributed(
        RuntimeConfig::single_node(1)
            .with_retry(RetryPolicy { max_attempts: 4, same_node_first: false }),
        &addrs(&workers),
        dcfg,
    )
    .expect("connect");

    let slow = task_set().get("slow_square").unwrap().clone();
    let handles: Vec<_> = (1..=24i64)
        .map(|i| {
            let h = rt.literal(i);
            rt.submit(&slow, vec![ArgSpec::In(h)]).unwrap().returns[0]
        })
        .collect();
    std::thread::sleep(Duration::from_millis(40));
    // Sever the TCP connections but keep the worker listening: a lost
    // worker stays lost, so its in-flight tasks resubmit to the survivor
    // and nothing dials it again.
    workers[0].drop_connections();

    for (i, h) in handles.iter().enumerate() {
        let v = rt.wait_on(h).expect("survivor finishes the run");
        let x = (i + 1) as i64;
        assert_eq!(*v.downcast_ref::<i64>().unwrap(), x * x);
    }
    let snap = rt.metrics().snapshot();
    assert_eq!(snap.counter("rcompss_workers_lost_total"), Some(1));
    assert!(
        snap.counter("rcompss_tasks_retried_total").unwrap_or(0) > 0,
        "in-flight tasks on the severed worker were resubmitted"
    );
    assert_eq!(snap.counter("rnet_reconnects_total"), None, "no redial series");
    assert_eq!(rt.stats().completed, 24);
}

/// `setrlimit(2)` and the one resource it is called with here: the approved
/// dependency set has no libc crate, and the test needs the one call.
mod rlimit {
    pub const RLIMIT_NOFILE: i32 = 7;
    #[repr(C)]
    pub struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }
    extern "C" {
        pub fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
}

#[test]
fn out_of_fds_for_the_event_loop_is_an_error_not_a_panic() {
    // The fd limit is per process: lower it in a child that runs only this
    // test, and read the verdict from its exit status.
    const CHILD: &str = "RCOMPSS_TEST_OUT_OF_FDS_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "out_of_fds_for_the_event_loop_is_an_error_not_a_panic"])
            .args(["--nocapture", "--test-threads=1"])
            .env(CHILD, "1")
            .output()
            .expect("re-run the test binary");
        let log = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "child failed ({}):\n{log}", out.status);
        assert!(log.contains("1 passed"), "child ran no test:\n{log}");
        return;
    }
    let workers = spawn_workers(1, 1);
    let boots =
        rcompss::connect_workers(&addrs(&workers), Duration::from_secs(5)).expect("connect");
    // The next fd is the lowest free one. A limit one above it leaves room
    // for `epoll_create1` and none for the waker's pipe.
    let next_fd = std::fs::File::open("/dev/null").unwrap().as_raw_fd() as u64;
    let limit = rlimit::Rlimit { cur: next_fd + 1, max: next_fd + 1 };
    // SAFETY: `limit` is a live `struct rlimit` for the whole call.
    assert_eq!(unsafe { rlimit::setrlimit(rlimit::RLIMIT_NOFILE, &limit) }, 0);
    let err = Runtime::from_bootstraps(
        RuntimeConfig::single_node(1),
        boots,
        DistributedConfig::default(),
    )
    .err()
    .expect("built an event loop with no fd left for its waker");
    assert_eq!(err.raw_os_error(), Some(24), "EMFILE, got {err}");
}

#[test]
fn loopback_wait_any_returns_the_first_to_settle() {
    // The worker runs in this process, so its `hold` body waits for the
    // test's release.
    let (release, held) = std::sync::mpsc::channel::<()>();
    let held = std::sync::Mutex::new(held);
    let hold = def("hold", move |_, _| {
        let released = held.lock().unwrap().recv_timeout(Duration::from_secs(10));
        released.map_err(|_| TaskError::new("never released"))?;
        Ok(vec![Value::new(300i64)])
    });
    let cfg = WorkerConfig { name: "w-any".into(), cores: 2, ..WorkerConfig::default() };
    let worker = WorkerServer::bind("127.0.0.1:0", cfg, task_set().with(hold.clone()))
        .expect("bind loopback")
        .spawn()
        .expect("spawn worker");
    let rt =
        Runtime::distributed(RuntimeConfig::single_node(1), &[worker.addr()], Default::default())
            .expect("connect");
    let square = task_set().get("square").unwrap().clone();
    let slow = rt.submit(&hold, vec![]).unwrap().returns[0];
    let fast = rt.submit(&square, vec![ArgSpec::In(rt.literal(3i64))]).unwrap().returns[0];
    assert_eq!(rt.wait_any(&[slow, fast]), Ok(1), "the square settles first");
    release.send(()).unwrap();
    rt.barrier();
    assert_eq!(rt.wait_any(&[slow, fast]), Ok(0), "both settled: the lowest index");
    assert_eq!(rt.wait_on(&slow).map(|v| *v.downcast_ref::<i64>().unwrap()), Ok(300));
}
