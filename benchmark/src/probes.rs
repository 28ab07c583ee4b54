//! Substitution probes: each layer's public functions called directly with
//! the inputs the workloads give them, so a layer's cost is known apart
//! from the stack above it ("Runtime vs Scheduler": zero-work tasks expose
//! pure runtime cost, swapping one layer at a time attributes it).
//!
//! Every probe reports the median of [`BATCHES`] timed batches. They run in
//! a process of their own (`stackbench probes`), once per traced run,
//! confined to one CPU as `churn_net` is.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use cluster::{Cluster, NodeSpec};
use hpo::runner::materialize;
use hpo::stagetree::StagePlan;
use hpo::{GridSearch, SearchSpace};
use rcompss::codec::{decode_tagged, encode_value};
use rcompss::graph::TaskGraph;
use rcompss::scheduler::{ReadyEntry, Scheduler};
use rcompss::{
    ArgSpec, Constraint, DataHandle, DataVersion, DistributedConfig, Runtime, TaskDef, TaskId,
    TaskRegistry, Value,
};
use rnet::{Blob, Fill, Frame, FrameRef, Interest, Poller, RecvBuf, SendBuf, WireArg};
use tinyml::train::Checkpointing;
use tinyml::{Matrix, TrainConfig, TrainSnapshot};

use crate::workloads::{
    connect, one_core_task, runtime_config, spawn_workers, Metrics, DEFAULT_CACHE_MEM, POOL_CORES,
};
use crate::{gen, pass, stats};

/// Timed batches per probe.
const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of `batch()`, which returns one
/// batch's own measurement.
fn median_of(mut batch: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    stats::median(&samples)
}

/// ns per call of `f` over `iters` calls, median of batches.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    median_of(|| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    })
}

fn version(task: u64) -> DataVersion {
    DataVersion { handle: DataHandle::test_only(task), version: 1 }
}

/// `TaskGraph::add_task`: a 50k fan-out off one root, then a 50k chain.
fn graph_add_task() -> f64 {
    const N: u64 = 100_000;
    median_of(|| {
        let mut g = TaskGraph::new();
        let t0 = Instant::now();
        g.add_task(TaskId(0), "probe", &[]);
        for i in 1..N / 2 {
            g.add_task(TaskId(i), "probe", &[(TaskId(0), version(0))]);
        }
        for i in N / 2..N {
            g.add_task(TaskId(i), "probe", &[(TaskId(i - 1), version(i - 1))]);
        }
        let ns = t0.elapsed().as_nanos() as f64 / N as f64;
        std::hint::black_box(g.len());
        ns
    })
}

/// `push_ready` + `pop_placeable` + `release` on a two-core node, two
/// tasks in flight: what the scheduler costs per task under `churn_net`.
fn scheduler_push_pop() -> f64 {
    let cluster = Cluster::homogeneous(1, NodeSpec::new("local", POOL_CORES, Vec::new(), 64));
    let mut sched = Scheduler::new(&cluster, &[]);
    let constraint = Constraint::cpus(1);
    let mut seq = 0u64;
    ns_per_call(50_000, || {
        for _ in 0..2 {
            sched.push_ready(ReadyEntry {
                task: TaskId(seq),
                constraint,
                alternatives: Vec::new(),
                priority: false,
                seq,
                prefer_node: None,
                exclude_node: None,
            });
            seq += 1;
        }
        let a = sched.pop_placeable(|_, _| 0u8).expect("first task placeable");
        let b = sched.pop_placeable(|_, _| 0u8).expect("second task placeable");
        sched.release(&a.1, &constraint);
        sched.release(&b.1, &constraint);
    }) / 2.0
}

/// `encode_value` / `decode_tagged` of a `u64`, the value `churn_net`
/// tasks exchange. Returns (encode ns, decode ns).
fn codec_u64() -> (f64, f64) {
    let value = Value::new(0x1234_5678_9abc_def0u64);
    let blob = encode_value(&value).expect("u64 codec is built in");
    let enc = ns_per_call(200_000, || {
        std::hint::black_box(encode_value(std::hint::black_box(&value)));
    });
    let dec = ns_per_call(200_000, || {
        std::hint::black_box(decode_tagged(&blob.tag, &blob.bytes).expect("decodes"));
    });
    (enc, dec)
}

fn u64_blob() -> Blob {
    encode_value(&Value::new(7u64)).expect("u64 codec is built in")
}

/// The `Submit` a fan-out task of `churn_net` travels in.
fn submit_frame() -> Frame {
    Frame::Submit {
        exec_id: 123_456,
        task_id: 123_456,
        attempt: 1,
        node: 1,
        fn_id: 0,
        fn_name: None,
        variant: 0,
        cores: vec![0],
        gpus: Vec::new(),
        args: vec![WireArg::Inline { key: 77 << 32 | 1, blob: u64_blob() }],
    }
}

/// The `Done` its result comes back in.
fn done_frame() -> Frame {
    Frame::Done {
        exec_id: 123_456,
        recv_us: 1_000_000,
        start_us: 1_000_010,
        end_us: 1_000_020,
        outputs: vec![u64_blob()],
    }
}

/// `Frame::encode_into` / `FrameRef::decode`, mean of a Submit and a Done.
/// Returns (encode ns, decode ns) per frame.
fn frame_codec() -> (f64, f64) {
    let frames = [submit_frame(), done_frame()];
    let mut buf = Vec::with_capacity(256);
    let enc = ns_per_call(100_000, || {
        for f in &frames {
            buf.clear();
            f.encode_into(&mut buf);
            std::hint::black_box(buf.len());
        }
    }) / 2.0;
    let wires: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let dec = ns_per_call(100_000, || {
        for w in &wires {
            std::hint::black_box(FrameRef::decode(w).expect("valid frame"));
        }
    }) / 2.0;
    (enc, dec)
}

/// A 1 MiB `BlockData` encoded and decoded: MiB/s through the frame layer.
fn frame_block_mb_s() -> f64 {
    let frame = Frame::BlockData {
        hash: 0xfeed_beef,
        blob: Blob { tag: "hpo.stage".into(), bytes: vec![0x5a; 1 << 20] },
    };
    let mut buf = Vec::with_capacity((1 << 20) + 64);
    let ns = ns_per_call(50, || {
        buf.clear();
        frame.encode_into(&mut buf);
        std::hint::black_box(FrameRef::decode(&buf).expect("valid frame"));
    });
    1e9 / ns
}

/// A `Write` that keeps nothing: the memory sink under `SendBuf::flush`.
struct NullSink;

impl Write for NullSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `SendBuf::push` × `batch` + one `flush`, per frame.
fn sendbuf_flush(batch: usize) -> f64 {
    let frame = submit_frame();
    let mut send = SendBuf::new();
    ns_per_call(200_000 / batch, || {
        for _ in 0..batch {
            send.push(&frame);
        }
        send.flush(&mut NullSink).expect("sink accepts everything");
    }) / batch as f64
}

/// `RecvBuf::fill_from` + `next_frame` over a read of 64 `Done` frames,
/// per frame.
fn recvbuf_fill_next() -> f64 {
    const FRAMES: usize = 64;
    let wire: Vec<u8> = done_frame().encode().repeat(FRAMES);
    let mut recv = RecvBuf::new();
    ns_per_call(2_000, || {
        let mut src: &[u8] = &wire;
        while !src.is_empty() {
            match recv.fill_from(&mut src).expect("slice reads never fail") {
                Fill::Bytes(_) => {}
                other => panic!("unexpected {other:?} from a slice"),
            }
            while let Some(frame) = recv.next_frame().expect("valid frames") {
                std::hint::black_box(&frame);
            }
        }
    }) / FRAMES as f64
}

/// Block until `stream` is readable, then drain it into `recv`.
fn fill_when_ready(poller: &Poller, stream: &mut TcpStream, recv: &mut RecvBuf) -> bool {
    let mut events = Vec::new();
    poller.wait(&mut events, Some(Duration::from_secs(5))).expect("poll");
    if events.is_empty() {
        return false;
    }
    loop {
        match recv.fill_from(stream) {
            Ok(Fill::Bytes(_)) => {}
            Ok(Fill::WouldBlock) => return true,
            Ok(Fill::Eof) | Err(_) => return false,
        }
    }
}

/// One Heartbeat → HeartbeatAck over loopback through `Poller`, `SendBuf`
/// and `RecvBuf` on both ends: the floor under every remote task's
/// latency. Median of 2 000 exchanges, µs.
fn loopback_rtt_us() -> f64 {
    const PINGS: usize = 2_000;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind probe listener");
    let addr = listener.local_addr().expect("listener address");
    let echo = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept probe peer");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().unwrap_or_else(|_| Poller::fallback());
        poller.register(stream.as_raw_fd(), 1, Interest::READ).expect("register");
        let (mut recv, mut send) = (RecvBuf::new(), SendBuf::new());
        while fill_when_ready(&poller, &mut stream, &mut recv) {
            while let Some(frame) = recv.next_frame().expect("valid frames") {
                if let FrameRef::Heartbeat { seq, t_send_us, .. } = frame {
                    send.push(&Frame::HeartbeatAck { seq, t_send_us, recv_us: 0, reply_us: 0 });
                }
            }
            // An ack is tens of bytes; the socket buffer always takes it.
            send.flush(&mut stream).expect("flush ack");
        }
    });
    let mut stream = TcpStream::connect(addr).expect("connect probe peer");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_nonblocking(true).expect("nonblocking");
    let poller = Poller::new().unwrap_or_else(|_| Poller::fallback());
    poller.register(stream.as_raw_fd(), 1, Interest::READ).expect("register");
    let (mut recv, mut send) = (RecvBuf::new(), SendBuf::new());
    let mut rtts = Vec::with_capacity(PINGS);
    for seq in 0..(PINGS + 200) as u64 {
        let t0 = Instant::now();
        send.push(&Frame::Heartbeat { seq, t_send_us: seq, telemetry: false });
        send.flush(&mut stream).expect("flush ping");
        let mut acked = false;
        while !acked {
            assert!(fill_when_ready(&poller, &mut stream, &mut recv), "echo peer went away");
            while let Some(frame) = recv.next_frame().expect("valid frames") {
                acked |= matches!(frame, FrameRef::HeartbeatAck { seq: s, .. } if s == seq);
            }
        }
        if seq >= 200 {
            rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    drop(stream);
    echo.join().expect("echo thread");
    stats::median(&rtts)
}

fn noop_task() -> TaskDef {
    one_core_task("noop", |_| Ok(Value::new(1u64)))
}

/// Submit a root and `n - 1` children reading it, wait for the barrier;
/// ns per task.
fn fanout_ns(rt: &Runtime, task: &TaskDef, n: usize) -> f64 {
    let t0 = Instant::now();
    let root = rt.submit(task, vec![]).expect("submit root").returns[0];
    for _ in 1..n {
        rt.submit(task, vec![ArgSpec::In(root)]).expect("submit child");
    }
    rt.barrier();
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// No-op fan-out of `n` tasks on a fresh two-core threaded runtime: the
/// null-wire substitution under `churn_net`.
fn threaded_noop_ns(n: usize) -> f64 {
    median_of(|| {
        let rt = Runtime::threaded(runtime_config(POOL_CORES, false));
        fanout_ns(&rt, &noop_task(), n)
    })
}

/// No-op fan-out of `n` tasks over a fresh loopback pool, ns per task.
/// One sample: the caller decides how to aggregate.
pub fn distributed_fanout_ns(n: usize) -> f64 {
    let task = noop_task();
    let workers = spawn_workers(&TaskRegistry::new().with(task.clone()), DEFAULT_CACHE_MEM);
    let rt = connect(&workers, false, DistributedConfig::default());
    let ns = fanout_ns(&rt, &task, n);
    drop(rt);
    ns
}

/// A chain of `n` strictly dependent no-op tasks over loopback: µs per
/// link, the runtime's own round trip.
fn distributed_chain_us(n: usize) -> f64 {
    median_of(|| {
        let task = noop_task();
        let workers = spawn_workers(&TaskRegistry::new().with(task.clone()), DEFAULT_CACHE_MEM);
        let rt = connect(&workers, false, DistributedConfig::default());
        let t0 = Instant::now();
        let mut prev = rt.submit(&task, vec![]).expect("submit head").returns[0];
        for _ in 1..n {
            prev = rt.submit(&task, vec![ArgSpec::In(prev)]).expect("submit link").returns[0];
        }
        rt.wait_on(&prev).expect("chain completes");
        let us = t0.elapsed().as_nanos() as f64 / 1e3 / n as f64;
        drop(rt);
        us
    })
}

/// The block plane from outside (`rcompss::blocks` is private): a task
/// reading a 4 MiB literal declared above the inline threshold. The first
/// use pays encode + FNV-1a-128 + `BlockPut` + worker decode; the second
/// sends a 16-byte hash and hits the worker's cache. Returns (first-use
/// MiB/s, cached-use µs).
fn block_plane() -> (f64, f64) {
    const ELEMS: usize = 512 * 1024;
    let task = one_core_task("touch", |inputs| {
        let v = inputs[0].downcast_ref::<Vec<f64>>().expect("Vec<f64> input");
        Ok(Value::new(v.len() as u64))
    });
    // One worker, so the second use lands where the block already is.
    let mut workers = spawn_workers(&TaskRegistry::new().with(task.clone()), DEFAULT_CACHE_MEM);
    workers.truncate(1);
    let rt = connect(&workers, false, DistributedConfig::default());
    let mut first = Vec::new();
    let mut cached = Vec::new();
    for i in 0..BATCHES {
        let block = rt.literal(vec![i as f64 + 0.5; ELEMS]);
        rt.set_data_bytes(block, (ELEMS * 8) as u64);
        let use_once = || {
            let t0 = Instant::now();
            let out = rt.submit(&task, vec![ArgSpec::In(block)]).expect("submit touch");
            rt.wait_on(&out.returns[0]).expect("touch completes");
            t0.elapsed().as_secs_f64()
        };
        first.push((ELEMS * 8) as f64 / (1024.0 * 1024.0) / use_once());
        cached.push(use_once() * 1e6);
    }
    drop(rt);
    (stats::median(&first), stats::median(&cached))
}

/// `Matrix::matmul` at the MLP's forward shape (batch 32 × 784 · 784 × 32).
fn matmul_gflops() -> f64 {
    let (m, k, n) = (32, 784, 32);
    let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.1 - 0.6);
    let b = Matrix::from_fn(k, n, |r, c| ((r * 17 + c * 3) % 11) as f32 * 0.1 - 0.5);
    let ns = ns_per_call(2_000, || {
        std::hint::black_box(a.matmul(std::hint::black_box(&b)));
    });
    (2 * m * k * n) as f64 / ns
}

/// One epoch of `train_segment` on the `grid_threaded` dataset shape, ms;
/// and `TrainSnapshot::encode` / `decode` of the result, MiB/s.
fn train_and_snapshot() -> (f64, f64, f64) {
    let data = gen::dataset(400, 784, 1);
    let cfg =
        TrainConfig { epochs: 1, batch_size: 32, hidden_layers: vec![32], ..Default::default() };
    let mut snap = None;
    let epoch_ms = median_of(|| {
        let t0 = Instant::now();
        snap = Some(tinyml::train_segment(&cfg, &data, Checkpointing::default(), 1));
        t0.elapsed().as_secs_f64() * 1e3
    });
    let snap = snap.expect("at least one batch ran");
    let bytes = snap.encode();
    let mib = bytes.len() as f64 / (1024.0 * 1024.0);
    let enc_ns = ns_per_call(200, || {
        std::hint::black_box(snap.encode());
    });
    let dec_ns = ns_per_call(200, || {
        std::hint::black_box(TrainSnapshot::decode(&bytes).expect("own snapshot decodes"));
    });
    (epoch_ms, mib * 1e9 / enc_ns, mib * 1e9 / dec_ns)
}

/// `StagePlan::build` over the 24-config grid of `staged_net`, µs.
fn stage_plan_us() -> f64 {
    let space = SearchSpace::from_json(
        r#"{"optimizer": ["Adam", "SGD"], "lr_decay_every": [0, 2, 3],
            "num_epochs": [3, 4, 5, 6], "batch_size": [32], "learning_rate": [0.0015]}"#,
    )
    .expect("probe space");
    let configs = materialize(&mut GridSearch::new(&space));
    ns_per_call(2_000, || {
        std::hint::black_box(StagePlan::build(&configs, None));
    }) / 1e3
}

/// `Journal::append` of a 200-byte record (write + flush + fsync), µs.
fn journal_append_us() -> f64 {
    let path = pass::out_dir().join("probe.journal");
    let mut journal = ckpt::journal::Journal::create(&path).expect("create probe journal");
    let record = [0xabu8; 200];
    let us = ns_per_call(100, || {
        journal.append(&record).expect("append");
    }) / 1e3;
    drop(journal);
    let _ = std::fs::remove_file(&path);
    us
}

/// Run every probe.
pub fn run_all(out: &mut Metrics) {
    let mut put = |name: &str, value: f64| {
        eprintln!("probe {name:<44} {value:>14.3}");
        out.insert(name.to_string(), value);
    };
    put("rcompss.graph.add_task_ns", graph_add_task());
    put("rcompss.scheduler.push_pop_ns", scheduler_push_pop());
    let (enc, dec) = codec_u64();
    put("rcompss.codec.encode_ns", enc);
    put("rcompss.codec.decode_ns", dec);
    let (enc, dec) = frame_codec();
    put("rnet.frame.encode_ns", enc);
    put("rnet.frame.decode_ns", dec);
    put("rnet.frame.block_mb_s", frame_block_mb_s());
    put("rnet.nonblock.flush_b1_ns", sendbuf_flush(1));
    put("rnet.nonblock.flush_b64_ns", sendbuf_flush(64));
    put("rnet.nonblock.fill_next_ns", recvbuf_fill_next());
    put("rnet.loopback.rtt_us", loopback_rtt_us());
    put("rcompss.threaded.noop_task_ns", threaded_noop_ns(100_000));
    put("rcompss.distributed.noop_fanout_task_ns", median_of(|| distributed_fanout_ns(10_000)));
    put("rcompss.distributed.noop_chain_rtt_us", distributed_chain_us(2_000));
    let (first, cached) = block_plane();
    put("rcompss.blocks.first_use_mb_s", first);
    put("rcompss.blocks.cached_use_us", cached);
    put("tinyml.tensor.matmul_gflops", matmul_gflops());
    let (epoch_ms, enc, dec) = train_and_snapshot();
    put("tinyml.train.epoch_ms", epoch_ms);
    put("tinyml.snapshot.encode_mb_s", enc);
    put("tinyml.snapshot.decode_mb_s", dec);
    put("hpo.stagetree.plan_us", stage_plan_us());
    put("ckpt.journal.append_us", journal_append_us());
}
