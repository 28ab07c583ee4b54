//! Threaded backend: real execution on a worker thread pool.
//!
//! Workers model the COMPSs worker processes: each dequeues one placed task,
//! runs its body, then reports completion and pulls more work. Placement
//! and completion bookkeeping are the runtime's shared scheduling turn
//! (`place_ready` / `complete_attempt`); this module owns the message a
//! worker needs and the queues it travels through. Resource accounting in
//! the scheduler bounds in-flight tasks by the cluster's core/GPU slots, so
//! a 48-core single-node config runs at most 48 single-core tasks
//! concurrently regardless of pool size.
//!
//! # Sharded run queues
//!
//! The pool is decentralized: each worker owns a `Shard` — a small
//! lock-protected run queue plus its own condvar — instead of all workers
//! contending on one global queue under the core lock. A producer pushes to
//! an *idle* worker's shard when one exists (that worker can start
//! immediately) and round-robins otherwise, then signals exactly that
//! shard's condvar with `notify_one`; the old design broadcast
//! `notify_all` to up to 64 parked workers per completion and let all but
//! one go back to sleep. Workers that find their own queue empty steal from
//! sibling shards (opportunistic `try_lock` scan first, then one blocking
//! sweep before parking), so a burst pushed to few shards still spreads
//! across the pool. A `notified` token set under the shard lock by every
//! producer closes the classic lost-wakeup race between "queue looked
//! empty" and "worker parked", which is also what makes shutdown purely
//! signal-driven — no poll timeout anywhere in the worker loop.
//!
//! Completion is equally decentralized: trace emission happens *outside*
//! the core lock (placements ride along as `Arc<Placement>`, names as
//! interned `Arc<str>`), so the lock is held only for the
//! dependency-graph/scheduler bookkeeping itself.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use cluster::Cluster;
use paratrace::{EventKind, TaskRef};
use parking_lot::{Condvar, Mutex};

use crate::data::Value;
use crate::runtime::{complete_attempt, emit_attempt_spans, place_ready, Core, Placed, Shared};
use crate::task::{run_body, TaskContext, TaskFn};

/// A placed task ready for a worker. Carries everything the worker needs to
/// run the body *and* emit its trace records without touching the core
/// lock; the placement `Arc` is shared with the runtime's `RunningExec`.
pub(crate) struct ExecMsg {
    pub placed: Placed,
    pub ctx: TaskContext,
    pub body: Arc<TaskFn>,
    pub inputs: Vec<Value>,
    pub name: Arc<str>,
}

/// One worker's run queue. `notified` is the wakeup token: a producer sets
/// it under the lock before signalling, so a worker that checks the queue,
/// finds it empty, and parks can never miss a push that raced in between.
struct ShardState {
    queue: VecDeque<ExecMsg>,
    notified: bool,
}

/// A worker's shard: queue + condvar + an "I'm parked" hint for producers.
struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
    /// Owner is parked (or about to park). Producers prefer idle shards so
    /// a push wakes a worker that can start immediately; the flag is a
    /// routing hint only — correctness rests on `notified`.
    idle: AtomicBool,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            state: Mutex::new(ShardState { queue: VecDeque::new(), notified: false }),
            cv: Condvar::new(),
            idle: AtomicBool::new(false),
        }
    }
}

/// State shared by all workers and producers.
pub(crate) struct PoolShared {
    shards: Vec<Shard>,
    /// Round-robin cursor for pushes when no worker is idle.
    next_push: AtomicUsize,
    shutdown: AtomicBool,
}

impl PoolShared {
    /// Push one message: to an idle worker's shard when one exists, else
    /// round-robin; then signal exactly that shard's owner.
    fn push(&self, shared: &Shared, msg: ExecMsg) {
        let n = self.shards.len();
        let start = self.next_push.fetch_add(1, Ordering::Relaxed) % n;
        let target = (0..n)
            .map(|i| (start + i) % n)
            .find(|&i| self.shards[i].idle.load(Ordering::Relaxed))
            .unwrap_or(start);
        let shard = &self.shards[target];
        {
            let mut st = shard.state.lock();
            st.queue.push_back(msg);
            st.notified = true;
        }
        shard.cv.notify_one();
        shared.metrics.wakeups.incr();
    }
}

/// The worker pool: spawned threads plus the shared shard array.
pub(crate) struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
    pool: Arc<PoolShared>,
}

impl WorkerPool {
    /// Spawn workers sized to the cluster's core capacity (capped — beyond
    /// the physical machine more threads just oversubscribe).
    pub fn start(shared: Arc<Shared>, cluster: &Cluster) -> WorkerPool {
        let threads = (cluster.total_cores() as usize).clamp(1, 64);
        let pool = Arc::new(PoolShared {
            shards: (0..threads).map(|_| Shard::new()).collect(),
            next_push: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || worker_loop(shared, pool, me))
            })
            .collect();
        WorkerPool { handles, pool }
    }

    /// Hand a batch of prepared messages to the workers. Call *without* the
    /// core lock: this emits dispatch trace events and takes shard locks.
    pub fn enqueue(&self, shared: &Shared, msgs: Vec<ExecMsg>) {
        enqueue(&self.pool, shared, msgs);
    }

    /// Stop workers and join them. Signal-driven: every shard is notified
    /// once (with its wakeup token set), so parked workers exit on the
    /// signal rather than on a poll timeout. Workers drain queued work
    /// before exiting.
    pub fn shutdown(&mut self) {
        self.pool.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.pool.shards {
            shard.state.lock().notified = true;
            shard.cv.notify_one();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Place every placeable ready task, building one [`ExecMsg`] per
/// placement. Call with the core locked; everything Arc-cheap happens here,
/// everything slow (trace emission, shard pushes) in [`enqueue`] after the
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
            let inputs: Vec<Value> = inst
                .reads()
                .iter()
                .map(|v| core.data.get(*v).expect("ready task inputs are computed"))
                .collect();
            msgs.push(ExecMsg {
                ctx: TaskContext::placed(placed.task, placed.attempt, &placed.placement, false),
                body: inst.body(placed.placement.variant),
                inputs,
                name: Arc::clone(&inst.def.name),
                placed,
            });
        },
    );
    msgs
}

/// Emit dispatch trace events and distribute messages to worker shards.
/// Call without the core lock.
pub(crate) fn enqueue(pool: &PoolShared, shared: &Shared, msgs: Vec<ExecMsg>) {
    for msg in msgs {
        shared.trace.event(
            msg.placed.placement.lead_core(),
            msg.placed.now_us,
            EventKind::TaskDispatch(TaskRef::new(msg.placed.task.0, Arc::clone(&msg.name))),
        );
        pool.push(shared, msg);
    }
}

/// Fetch the next message for worker `me`: own shard first, then an
/// opportunistic `try_lock` steal sweep, then — with the idle flag raised so
/// producers re-route to us — a blocking sweep and a park on our condvar.
/// Returns `None` only at shutdown with every reachable queue drained.
fn next_msg(shared: &Shared, pool: &PoolShared, me: usize) -> Option<ExecMsg> {
    let shards = &pool.shards;
    let my = &shards[me];
    loop {
        if let Some(m) = my.state.lock().queue.pop_front() {
            return Some(m);
        }
        // Opportunistic stealing: skip shards whose lock is contended.
        for k in 1..shards.len() {
            let j = (me + k) % shards.len();
            if let Some(mut st) = shards[j].state.try_lock() {
                if let Some(m) = st.queue.pop_front() {
                    shared.metrics.steals.incr();
                    return Some(m);
                }
            }
        }
        if pool.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        // Raise the idle flag *before* the final sweep: any push from here
        // on prefers our shard and sets our `notified` token, so the park
        // below cannot strand it.
        my.idle.store(true, Ordering::SeqCst);
        for k in 1..shards.len() {
            let j = (me + k) % shards.len();
            let mut st = shards[j].state.lock();
            if let Some(m) = st.queue.pop_front() {
                drop(st);
                my.idle.store(false, Ordering::SeqCst);
                shared.metrics.steals.incr();
                return Some(m);
            }
        }
        let mut st = my.state.lock();
        if st.queue.is_empty() && !st.notified && !pool.shutdown.load(Ordering::SeqCst) {
            my.cv.wait(&mut st);
        }
        st.notified = false;
        drop(st);
        my.idle.store(false, Ordering::SeqCst);
    }
}

fn worker_loop(shared: Arc<Shared>, pool: Arc<PoolShared>, me: usize) {
    // Ambient snapshot channel for every body this worker runs: blobs land
    // on the task's record in the runtime, so a retried attempt (this thread
    // or a sibling) resumes from the latest snapshot (see crate::snapshot).
    let snap_channel: Arc<dyn crate::snapshot::SnapshotChannel> =
        Arc::new(crate::snapshot::InProcessChannel(Arc::clone(&shared)));
    while let Some(msg) = next_msg(&shared, &pool, me) {
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
        emit_attempt_spans(&shared, &p.placement, task_ref, p.now_us, end, false);

        let follow_on = {
            let mut core = shared.core.lock();
            complete_attempt(&shared, &mut core, p.exec_id, result, end, false);
            collect_dispatch(&shared, &mut core)
        };
        // Waiters in `wait_on`/`barrier` park on the core condvar; workers
        // never do, so this broadcast reaches at most the main thread(s).
        shared.cv.notify_all();
        enqueue(&pool, &shared, follow_on);
    }
}
