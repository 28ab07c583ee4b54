//! Threaded backend: real execution on a worker thread pool.
//!
//! Workers model the COMPSs worker processes: each dequeues one placed task,
//! runs its body, then reports completion and pulls more work. Placement
//! and completion bookkeeping are the runtime's shared scheduling turn
//! (`place_ready` / `complete_attempt`); this module owns the message a
//! worker needs and the queue it travels through. Resource accounting in
//! the scheduler bounds in-flight tasks by the cluster's core/GPU slots, so
//! a 48-core single-node config runs at most 48 single-core tasks
//! concurrently regardless of pool size.
//!
//! # One run queue
//!
//! The pool shares one lock-protected queue and one condvar. A producer
//! pushes under the lock and wakes one parked worker with `notify_one`;
//! a worker pops or parks on the condvar, re-checking the queue under the
//! same lock, so no push can slip between "queue looked empty" and
//! "worker parked". Shutdown sets a flag under the lock and wakes every
//! worker; each drains what is still queued before it exits, so shutdown
//! is purely signal-driven — no poll timeout anywhere in the worker loop.
//!
//! Trace emission happens *outside* the core lock (a placement rides along
//! as a copy, names as interned `Arc<str>`), so the lock is held only for
//! the dependency-graph/scheduler bookkeeping itself.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

use cluster::Cluster;
use paratrace::{EventKind, TaskRef};
use parking_lot::{Condvar, Mutex};

use crate::data::Value;
use crate::runtime::{complete_attempt, emit_attempt_spans, place_ready, Core, Placed, Shared};
use crate::scheduler::Placement;
use crate::task::{run_body, TaskContext, TaskFn};

/// A placed task ready for a worker. Carries everything the worker needs to
/// run the body *and* emit its trace records without touching the core
/// lock: a copy of the placement its `RunningExec` holds.
pub(crate) struct ExecMsg {
    pub placed: Placed,
    pub placement: Placement,
    pub ctx: TaskContext,
    pub body: Arc<TaskFn>,
    pub inputs: Vec<Value>,
    pub name: Arc<str>,
}

/// The run queue and the shutdown flag, under one lock.
#[derive(Default)]
struct Queue {
    msgs: VecDeque<ExecMsg>,
    shutdown: bool,
}

/// State shared by all workers and producers.
#[derive(Default)]
pub(crate) struct PoolShared {
    queue: Mutex<Queue>,
    cv: Condvar,
}

/// The worker pool: spawned threads plus the shared queue.
pub(crate) struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
    pool: Arc<PoolShared>,
}

impl WorkerPool {
    /// Spawn workers sized to the cluster's core capacity (capped — beyond
    /// the physical machine more threads just oversubscribe).
    pub fn start(shared: Arc<Shared>, cluster: &Cluster) -> WorkerPool {
        let threads = (cluster.total_cores() as usize).clamp(1, 64);
        let pool = Arc::new(PoolShared::default());
        let handles = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || worker_loop(shared, pool))
            })
            .collect();
        WorkerPool { handles, pool }
    }

    /// Hand a batch of prepared messages to the workers. Call *without* the
    /// core lock: this emits dispatch trace events and takes the queue lock.
    pub fn enqueue(&self, shared: &Shared, msgs: Vec<ExecMsg>) {
        enqueue(&self.pool, shared, msgs);
    }

    /// Stop workers and join them. Signal-driven: the flag is set under the
    /// queue lock and every parked worker is woken, so none waits on a poll
    /// timeout. Workers drain queued work before exiting.
    pub fn shutdown(&mut self) {
        self.pool.queue.lock().shutdown = true;
        self.pool.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Place every placeable ready task, building one [`ExecMsg`] per
/// placement. Call with the core locked; everything Arc-cheap happens here,
/// everything slow (trace emission, queue pushes) in [`enqueue`] after the
/// lock is dropped.
pub(crate) fn collect_dispatch(shared: &Shared, core: &mut Core) -> Vec<ExecMsg> {
    let mut msgs = Vec::new();
    // Threaded deployments are single-machine; locality is moot.
    place_ready(
        shared,
        core,
        |_, _, _, _| 0,
        |core, placed| {
            let inst = &core.instances[&placed.task];
            let placement = core.running[&placed.exec_id].placement.clone();
            let inputs: Vec<Value> = inst
                .reads()
                .map(|v| core.data.get(v).expect("ready task inputs are computed"))
                .collect();
            msgs.push(ExecMsg {
                ctx: TaskContext::placed(placed.task, placed.attempt, &placement, false),
                body: inst.body(placement.variant),
                inputs,
                name: Arc::clone(&inst.def.name),
                placed,
                placement,
            });
        },
    );
    msgs
}

/// Emit dispatch trace events and queue the messages, waking one worker
/// per message. Call without the core lock.
pub(crate) fn enqueue(pool: &PoolShared, shared: &Shared, msgs: Vec<ExecMsg>) {
    for msg in msgs {
        shared.trace.event(
            msg.placement.lead_core(),
            msg.placed.now_us,
            EventKind::TaskDispatch(TaskRef::new(msg.placed.task.0, Arc::clone(&msg.name))),
        );
        pool.queue.lock().msgs.push_back(msg);
        pool.cv.notify_one();
    }
}

/// Fetch the next message, parking while the queue is empty. Returns
/// `None` only at shutdown with the queue drained.
fn next_msg(pool: &PoolShared) -> Option<ExecMsg> {
    let mut q = pool.queue.lock();
    loop {
        if let Some(m) = q.msgs.pop_front() {
            return Some(m);
        }
        if q.shutdown {
            return None;
        }
        pool.cv.wait(&mut q);
    }
}

fn worker_loop(shared: Arc<Shared>, pool: Arc<PoolShared>) {
    // Ambient snapshot channel for every body this worker runs: blobs land
    // on the task's record in the runtime, so a retried attempt (this thread
    // or a sibling) resumes from the latest snapshot (see crate::snapshot).
    let snap_channel: Arc<dyn crate::snapshot::SnapshotChannel> =
        Arc::new(crate::snapshot::InProcessChannel(Arc::clone(&shared)));
    while let Some(msg) = next_msg(&pool) {
        let result =
            crate::snapshot::with_channel(Arc::clone(&snap_channel), msg.placed.task, || {
                run_body(&*msg.body, &msg.ctx, &msg.inputs)
            });

        // Trace emission needs only the message's own Arcs — no core lock.
        // (Nothing else completes a threaded exec, so the records are never
        // for a stale execution.)
        let end = shared.wall_us();
        let p = &msg.placed;
        let task_ref = TaskRef::new(p.task.0, Arc::clone(&msg.name));
        emit_attempt_spans(&shared, &msg.placement, task_ref, p.now_us, end, false);

        let follow_on = {
            let mut core = shared.core.lock();
            complete_attempt(&shared, &mut core, p.exec_id, result.map(Vec::into_iter), end, false);
            collect_dispatch(&shared, &mut core)
        };
        // Waiters in `wait_on`/`barrier` park on the core condvar; workers
        // never do, so this broadcast reaches at most the main thread(s).
        shared.cv.notify_all();
        enqueue(&pool, &shared, follow_on);
    }
}
