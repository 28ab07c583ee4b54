//! A worker's block plane against a scripted driver: raw frames over
//! loopback, so the test decides what each `BlockRequest` is answered with
//! and when. A job whose block cannot be decoded fails at once, and a block
//! evicted before the job waiting for it wakes is asked for again; neither
//! waits out the 10 s fetch deadline.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rcompss::{
    codec, Constraint, TaskDef, TaskRegistry, Value, WorkerConfig, WorkerHandle, WorkerServer,
};
use rnet::{read_frame, write_frame, write_frames, Blob, Frame, RecvBuf, WireArg};

/// A worker with one core that runs `len`: the length of a `Vec<f64>`.
fn worker(cache_mem_bytes: u64) -> WorkerHandle {
    let len = TaskDef {
        name: "len".into(),
        constraint: Constraint::cpus(1),
        returns: 1,
        priority: false,
        body: Arc::new(|_, inputs| {
            Ok(vec![Value::new(inputs[0].downcast_ref::<Vec<f64>>().unwrap().len() as i64)])
        }),
        alternatives: Vec::new(),
    };
    let cfg = WorkerConfig { name: "w".into(), cores: 1, cache_mem_bytes, ..Default::default() };
    WorkerServer::bind("127.0.0.1:0", cfg, TaskRegistry::new().with(len)).unwrap().spawn().unwrap()
}

/// The driver's side of one connection: `Hello` read, `len` submitted on a
/// block argument.
struct Driver {
    stream: TcpStream,
    recv: RecvBuf,
    deadline: Instant,
}

impl Driver {
    fn submit(worker: &WorkerHandle, hash: u128, within: Duration) -> Driver {
        let stream = TcpStream::connect(worker.addr()).unwrap();
        let mut d = Driver { stream, recv: RecvBuf::new(), deadline: Instant::now() + within };
        assert!(matches!(d.next(), Frame::Hello { .. }));
        let submit = Frame::Submit {
            exec_id: 1,
            task_id: 1,
            attempt: 1,
            node: 0,
            fn_id: 1,
            fn_name: Some("len".into()),
            variant: 0,
            cores: vec![0],
            gpus: Vec::new(),
            args: vec![WireArg::Block { key: 0, hash }],
        };
        write_frame(&mut d.stream, &submit).unwrap();
        d
    }

    /// The next frame from the worker, or a panic once the deadline passed.
    fn next(&mut self) -> Frame {
        let left = self.deadline.saturating_duration_since(Instant::now());
        assert!(!left.is_zero(), "the worker said nothing in time");
        self.stream.set_read_timeout(Some(left)).unwrap();
        match read_frame(&mut self.stream, &mut self.recv) {
            Ok(Some(frame)) => frame,
            other => panic!("the worker said nothing in time: {other:?}"),
        }
    }
}

fn floats(n: usize) -> Blob {
    codec::encode_value(&Value::new(vec![0.5f64; n])).unwrap()
}

#[test]
fn an_undecodable_block_fails_its_job_at_once() {
    let worker = worker(1 << 20);
    let mut driver = Driver::submit(&worker, 42, Duration::from_secs(1));
    assert_eq!(driver.next(), Frame::BlockRequest { hash: 42 });
    let blob = Blob { tag: "no.such.codec".into(), bytes: vec![1, 2, 3] };
    write_frame(&mut driver.stream, &Frame::BlockData { hash: 42, blob }).unwrap();
    match driver.next() {
        Frame::Failed { exec_id: 1, message } => assert!(message.contains("no codec"), "{message}"),
        other => panic!("expected the job to fail, got {other:?}"),
    }
}

#[test]
fn a_block_evicted_before_its_waiter_wakes_is_asked_for_again() {
    // 401 + 881 bytes overrun the 1 KiB budget: landing second, B evicts A,
    // most often before the executor waiting for A takes the lock.
    let (a, b) = (floats(50), floats(110));
    for _ in 0..5 {
        let worker = worker(1024);
        let mut driver = Driver::submit(&worker, 1, Duration::from_secs(2));
        assert_eq!(driver.next(), Frame::BlockRequest { hash: 1 });
        let both = [
            Frame::BlockData { hash: 1, blob: a.clone() },
            Frame::BlockData { hash: 2, blob: b.clone() },
        ];
        write_frames(&mut driver.stream, &both).unwrap();
        loop {
            match driver.next() {
                Frame::BlockRequest { hash: 1 } => {
                    let again = Frame::BlockData { hash: 1, blob: a.clone() };
                    write_frame(&mut driver.stream, &again).unwrap();
                }
                Frame::BlockEvict { .. } => {}
                Frame::Done { exec_id: 1, outputs, .. } => {
                    assert_eq!(
                        codec::decode_value(&outputs[0]).unwrap().downcast_ref(),
                        Some(&50i64)
                    );
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
