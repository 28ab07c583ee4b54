//! Every decision a worker daemon makes for one driver connection, in one
//! plain value: [`WorkerState`] interns function names, holds each `Data`
//! snapshot until its task's `Submit`, decodes inline arguments, gates cores
//! (arrival order, dispatch-ahead holds), keeps the block cache with its
//! in-flight requests, decides which fast job the event loop runs itself, and
//! knows whether the connection is closed. Every call takes the time from the
//! shell, appends the frames to push to `out` and says which waiters to wake.
//! Nothing here reads a clock, takes a lock or touches a socket: the tests
//! below drive it with a scripted driver and scripted executors on virtual
//! time.

use std::collections::VecDeque;
use std::sync::Arc;

use rnet::{Frame, FrameRef, WireArgRef as Arg};

use crate::backend::distributed::{is_fast, next_streak, INLINE_BUDGET_US};
use crate::blocks::BlockCache;
use crate::codec::decode_tagged;
use crate::data::Value;
use crate::ids::{IdMap, IdSet};
use crate::task::{TaskContext, TaskId};

/// How long a job waits for a block it asked the driver for, µs.
const FETCH_US: u64 = 10_000_000;

/// Most undecodable hashes a connection remembers. Past it they are all
/// forgotten: a job that still needs one asks for it again and fails on the
/// bytes that answer.
const MAX_UNDECODABLE: usize = 64;

/// A job's argument: decoded from its `Submit`, or a content-addressed block.
pub(super) enum JobArg {
    Value(Value),
    Block(u128),
}

/// One submitted task, from its `Submit` until an executor ends it.
pub(super) struct Job {
    pub exec_id: u64,
    pub fn_id: u64,
    pub name: Arc<str>,
    pub variant: u32,
    pub ctx: TaskContext,
    pub args: Vec<JobArg>,
    /// When the `Submit` was read: the first stamp its `Done` echoes.
    pub recv_us: u64,
    /// What an earlier attempt of the task last saved, if the driver sent it.
    pub snapshot: Option<Vec<u8>>,
}

/// The waiters a call made runnable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) struct Wake {
    /// One executor waiting for a job: one can start.
    pub job: bool,
    /// Every executor waiting for a block: one landed or failed.
    pub blocks: bool,
}

/// What an executor looking for work gets.
pub(super) enum Start {
    /// A job to run, and whether another can start too (pass the turn on).
    Run(Job, bool),
    Wait,
    Closed,
}

/// Where a block argument stands.
pub(super) enum Fetch {
    Ready(Value),
    Failed(String),
    /// Wait for a block wake-up, at most until this time.
    Wait(u64),
}

/// See the module docs.
#[derive(Default)]
pub(super) struct WorkerState {
    fn_names: IdMap<u64, Arc<str>>,
    /// Per function: its latest body runs in a row that took at most
    /// `INLINE_BUDGET_US`.
    streaks: IdMap<u64, u8>,
    /// Snapshots by task id, held from their `Data` frame to their `Submit`.
    handed_over: IdMap<u64, Vec<u8>>,
    /// Jobs not yet started, in arrival order.
    waiting: VecDeque<Job>,
    /// Cores granted to running jobs.
    held: Vec<u32>,
    cache: BlockCache,
    /// Hashes asked for and not yet landed: one `BlockRequest` each.
    inflight: IdSet<u128>,
    /// Blocks that landed with bytes no codec here decodes, with the codec's
    /// error. A hash names its bytes, so they fail every time.
    undecodable: IdMap<u128, String>,
    closed: bool,
}

impl WorkerState {
    pub fn new(cache_bytes: u64) -> WorkerState {
        WorkerState { cache: BlockCache::new(cache_bytes), ..WorkerState::default() }
    }

    /// One frame read off the connection at `now_us`. `None` when it ends
    /// the connection: a `Shutdown`.
    pub fn frame(&mut self, frame: FrameRef, now_us: u64, out: &mut Vec<Frame>) -> Option<Wake> {
        let mut wake = Wake::default();
        match frame {
            FrameRef::Submit {
                exec_id,
                task_id,
                attempt,
                node,
                fn_id,
                fn_name,
                variant,
                cores,
                gpus,
                args,
            } => {
                if let Some(name) = fn_name {
                    self.fn_names.insert(fn_id, Arc::from(name));
                }
                let name = self.fn_names.get(&fn_id).cloned().unwrap_or_else(|| Arc::from("?"));
                let snapshot = self.handed_over.remove(&task_id);
                let args = args.into_iter().map(|a| match a {
                    Arg::Inline { blob: b, .. } => decode_tagged(b.tag, b.bytes).map(JobArg::Value),
                    Arg::Block { hash, .. } => Ok(JobArg::Block(hash)),
                });
                let args = match args.collect::<Result<Vec<_>, _>>() {
                    Ok(args) => args,
                    Err(e) => {
                        out.push(Frame::Failed { exec_id, message: e.to_string() });
                        return Some(wake);
                    }
                };
                let (task, peer_nodes) = (TaskId(task_id), Vec::new());
                let ctx =
                    TaskContext { task, attempt, node, cores, gpus, peer_nodes, simulated: false };
                let job =
                    Job { exec_id, fn_id, name, variant, ctx, args, recv_us: now_us, snapshot };
                self.waiting.push_back(job);
                // A job dispatched ahead waits for the core it names; no idle
                // executor could start it, so none is woken for it.
                wake.job = self.free(self.waiting.len() - 1);
            }
            FrameRef::Heartbeat { seq, t_send_us, .. } => {
                out.push(Frame::HeartbeatAck { seq, t_send_us, recv_us: now_us, reply_us: now_us });
            }
            FrameRef::Data { key, blob } => {
                self.handed_over.insert(key, blob.bytes.to_vec());
            }
            // Pushed ahead of a `Submit` naming it, or an answer: into the cache,
            // reporting what it evicts so the driver retracts its residency.
            FrameRef::BlockData { hash, blob } => {
                self.inflight.remove(&hash);
                match decode_tagged(blob.tag, blob.bytes) {
                    Ok(v) => {
                        let evicted = self.cache.insert(hash, v, blob.bytes.len() as u64);
                        out.extend(evicted.into_iter().map(|hash| Frame::BlockEvict { hash }));
                    }
                    Err(e) => {
                        if self.undecodable.len() >= MAX_UNDECODABLE {
                            self.undecodable.clear();
                        }
                        self.undecodable.insert(hash, e.to_string());
                    }
                }
                wake.blocks = true;
            }
            FrameRef::Shutdown => return None,
            // Other frames are driver-bound; ignore.
            _ => {}
        }
        Some(wake)
    }

    /// Whether the job waiting at `i` may start: no running job holds any of
    /// its cores, and no job ahead of it waits for one of them.
    fn free(&self, i: usize) -> bool {
        let ahead = |c: &u32| self.waiting.range(..i).any(|j| j.ctx.cores.contains(c));
        !self.waiting[i].ctx.cores.iter().any(|c| self.held.contains(c) || ahead(c))
    }

    /// Start the first waiting job that may start, holding its cores.
    pub fn start(&mut self) -> Start {
        if self.closed {
            return Start::Closed;
        }
        let Some(i) = (0..self.waiting.len()).find(|&i| self.free(i)) else {
            return Start::Wait;
        };
        let job = self.waiting.remove(i).expect("position is in range");
        self.held.extend(&job.ctx.cores);
        Start::Run(job, (0..self.waiting.len()).any(|i| self.free(i)))
    }

    /// The event loop runs the job just submitted itself, having spent
    /// `turn_us` of this turn on inline runs already, instead of waking an
    /// executor: only if the connection is open, the job is the only one, no
    /// job holds a core, the job needs no block (the loop reads them, so it
    /// would wait for itself), its function's streak is reached and the
    /// turn's budget is not used up. Holds its cores like [`Self::start`].
    pub fn inline(&mut self, turn_us: u64) -> Option<Job> {
        let job = match self.waiting.front() {
            Some(job) if self.waiting.len() == 1 && self.held.is_empty() => job,
            _ => return None,
        };
        let fast = self.streaks.get(&job.fn_id).is_some_and(|&s| is_fast(s));
        let local = job.args.iter().all(|a| matches!(a, JobArg::Value(_)));
        if self.closed || !fast || !local || turn_us >= INLINE_BUDGET_US {
            return None;
        }
        let job = self.waiting.pop_front()?;
        self.held.extend(&job.ctx.cores);
        Some(job)
    }

    /// A running job ended: its cores are free again.
    pub fn end(&mut self, cores: &[u32]) {
        self.held.retain(|c| !cores.contains(c));
    }

    /// A body of function `fn_id` returned after `body_us`: its streak
    /// moves on by `next_streak`, the driver's rule.
    pub fn ran(&mut self, fn_id: u64, body_us: u64) {
        let streak = self.streaks.entry(fn_id).or_default();
        *streak = next_streak(*streak, body_us);
    }

    /// A job needs the block `hash` and has waited for it since `since_us`.
    /// A miss asks the driver once per hash however many jobs wait, and asks
    /// again for a block that landed and was evicted before its waiter woke.
    pub fn block(&mut self, hash: u128, since_us: u64, now_us: u64, out: &mut Vec<Frame>) -> Fetch {
        if let Some(v) = self.cache.get(hash) {
            return Fetch::Ready(v);
        }
        if let Some(e) = self.undecodable.get(&hash) {
            return Fetch::Failed(e.clone());
        }
        let until = since_us + FETCH_US;
        if self.closed || now_us >= until {
            // Unmarked, so a later attempt asks again.
            self.inflight.remove(&hash);
            return Fetch::Failed("timed out fetching a task input block".into());
        }
        if self.inflight.insert(hash) {
            out.push(Frame::BlockRequest { hash });
        }
        Fetch::Wait(until)
    }

    /// Bytes of decoded blocks the cache holds.
    pub fn resident_bytes(&self) -> u64 {
        self.cache.resident_bytes()
    }

    /// The connection closed: waiting jobs are dropped, not run, and the
    /// cache is emptied. Returns the bytes it held.
    pub fn close(&mut self) -> u64 {
        self.closed = true;
        self.waiting.clear();
        std::mem::take(&mut self.cache).resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    //! The property: the state driven by a shell on virtual time, with a
    //! scripted driver on one side and scripted executors on the other, no
    //! socket and no sleep. Each seed draws a frame sequence — `Submit`s of
    //! up to three functions whose cores overlap as dispatch-ahead makes
    //! them, some with a `Data` ahead, pushed and requested blocks (some
    //! undecodable, some large enough to evict), heartbeats, then a
    //! `Shutdown` or a close at a random point, or neither — and executors
    //! that take jobs, wait for blocks and finish at random times. Each
    //! function's bodies are fast, slow, or fast and then slow. After each
    //! `Submit` the shell asks for an inline run, as the event loop does, and
    //! while one runs the loop reads nothing. The shell checks, as it goes,
    //! every invariant the module docs promise.

    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap, HashSet};
    use std::time::Instant;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rnet::{Blob, WireArg};

    use super::*;
    use crate::backend::distributed::INLINE_STREAK;
    use crate::codec;

    const CORES: u32 = 3;
    /// The cache budget: two blocks of the largest size do not fit.
    const BUDGET: u64 = 1024;
    /// A run still going then has hung.
    const END_US: u64 = 60_000_000;
    const BAD_TAG: &str = "no.such.codec";
    const TIMED_OUT: &str = "timed out fetching a task input block";

    fn vec_f64(n: usize) -> Blob {
        codec::encode_value(&Value::new(vec![0.5f64; n])).unwrap()
    }

    /// A `Submit` of function `fn_id`, named `f<fn_id>` when `named`.
    fn submit(exec_id: u64, fn_id: u64, named: bool, cores: Vec<u32>, args: Vec<WireArg>) -> Frame {
        Frame::Submit {
            exec_id,
            task_id: 100 + exec_id,
            attempt: 1,
            node: 0,
            fn_id,
            fn_name: named.then(|| format!("f{fn_id}")),
            variant: 0,
            cores,
            gpus: Vec::new(),
            args,
        }
    }

    fn inline(v: i64) -> WireArg {
        WireArg::Inline { key: 0, blob: codec::encode_value(&Value::new(v)).unwrap() }
    }

    /// Hand the state one frame as the event loop would: decoded in place.
    fn feed(st: &mut WorkerState, frame: &Frame, now: u64, out: &mut Vec<Frame>) -> Option<Wake> {
        let bytes = frame.encode();
        let (frame, _) = FrameRef::decode(&bytes).unwrap().unwrap();
        st.frame(frame, now, out)
    }

    /// What happens next, in time order; ties go in scheduling order.
    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum Ev {
        /// The driver sends script frame `k`.
        Send(usize),
        /// An encoded frame lands on the worker's socket.
        Land(Vec<u8>),
        /// The driver's side of the connection closes.
        Eof,
        /// Executor `i` gets the lock.
        Run(usize),
        /// Executor `i`'s body returns.
        Finish(usize),
        /// The block wait executor `i` began at this time reaches its end.
        Deadline(usize, u64),
        /// The body the event loop runs itself returns.
        LoopFree,
    }

    /// How long a function's bodies take.
    #[derive(Clone, Copy, Debug)]
    enum Body {
        Fast,
        Slow,
        /// Fast for this many runs, then slow.
        FastThenSlow(u32),
    }

    /// One scripted executor thread.
    enum Ex {
        /// Waiting for a job (`parked` on its condvar, or about to look).
        Idle { parked: bool },
        /// Resolving argument `next` of its job, waiting since `since`.
        Fetching { job: Job, next: usize, since: u64, parked: bool },
        /// Running a body that takes this long.
        Running(Job, u64),
        /// Exited: its connection closed.
        Gone,
    }

    struct Harness {
        rng: StdRng,
        st: WorkerState,
        out: Vec<Frame>,
        now: u64,
        seq: u64,
        queue: BinaryHeap<Reverse<(u64, u64, Ev)>>,
        script: Vec<(u64, Frame)>,
        /// When the last frame lands: TCP keeps the link in order.
        tail: u64,
        ex: Vec<Ex>,
        closed: bool,
        /// Each block the driver knows, by hash.
        blocks: HashMap<u128, Blob>,
        /// Exec ids the worker read a `Submit` of, and how often each was
        /// answered with a `Done` or `Failed`.
        answers: HashMap<u64, u32>,
        /// Jobs the state took, in arrival order, not yet started: exec id
        /// and cores.
        queued: Vec<(u64, Vec<u32>)>,
        /// The snapshot each exec id's job must carry.
        snaps: HashMap<u64, Option<Vec<u8>>>,
        /// Snapshots landed and not yet taken by a `Submit`, by task id.
        sent_snaps: HashMap<u64, Vec<u8>>,
        /// Hashes requested and not yet landed.
        requested: HashSet<u128>,
        /// Hashes the cache holds, as the frames tell it.
        resident: HashSet<u128>,
        heartbeats: u64,
        acks: u64,
        /// Each function's bodies, and how many of them ran.
        bodies: HashMap<u64, (Body, u32)>,
        /// Each function's streak, as the runs reported tell it.
        streaks: HashMap<u64, u8>,
        /// The job the event loop runs itself, and its body's time.
        inline: Option<(Job, u64)>,
        /// Body time of inline runs this loop turn.
        turn_us: u64,
        /// Frames that landed while the loop ran a body, in order; `None`
        /// is the driver's close.
        backlog: VecDeque<Option<Vec<u8>>>,
        inline_runs: u64,
    }

    impl Harness {
        fn at(&mut self, t: u64, ev: Ev) {
            self.seq += 1;
            self.queue.push(Reverse((t, self.seq, ev)));
        }

        /// The driver puts `frame` on the wire now; it lands after `lat`,
        /// behind every frame sent before it.
        fn send(&mut self, frame: &Frame, lat: u64) {
            self.tail = self.tail.max(self.now + lat);
            self.at(self.tail, Ev::Land(frame.encode()));
        }

        fn answer(&mut self, exec_id: u64) -> Result<(), String> {
            // Once closed, nothing more reaches the driver.
            if !self.closed {
                let n = self.answers.get_mut(&exec_id).ok_or("answered an unsent Submit")?;
                *n += 1;
                if *n > 1 {
                    return Err(format!("exec {exec_id} answered twice"));
                }
            }
            Ok(())
        }

        /// Carry out what a state call queued, as the driver sees it.
        fn carry_out(&mut self) -> Result<(), String> {
            for frame in std::mem::take(&mut self.out) {
                match frame {
                    Frame::Failed { exec_id, .. } => self.answer(exec_id)?,
                    Frame::HeartbeatAck { recv_us, reply_us, .. } => {
                        self.acks += 1;
                        if (recv_us, reply_us) != (self.now, self.now) {
                            return Err("an ack stamped with another time".into());
                        }
                    }
                    Frame::BlockEvict { hash } => {
                        if !self.resident.remove(&hash) {
                            return Err(format!("block {hash} evicted twice or never held"));
                        }
                    }
                    Frame::BlockRequest { hash } => {
                        if !self.requested.insert(hash) {
                            return Err(format!("a second request for block {hash} in flight"));
                        }
                        let blob = self.blocks[&hash].clone();
                        let lat = self.rng.gen_range(20..300);
                        self.send(&Frame::BlockData { hash, blob }, lat);
                    }
                    other => return Err(format!("unexpected frame {other:?}")),
                }
            }
            if self.st.undecodable.len() > MAX_UNDECODABLE {
                return Err(format!("{} undecodable hashes remembered", self.st.undecodable.len()));
            }
            let held = self.resident.iter().map(|h| self.blocks[h].bytes.len() as u64).sum();
            if self.st.resident_bytes() != held {
                return Err(format!("{} bytes cached, {held} told", self.st.resident_bytes()));
            }
            if held > BUDGET && self.st.cache.len() > 1 {
                return Err(format!("{held} bytes cached over a budget of {BUDGET}"));
            }
            Ok(())
        }

        fn wake(&mut self, w: Wake) {
            let lat = self.rng.gen_range(0..20u64);
            if w.job {
                if let Some(i) = self.ex.iter().position(|e| matches!(e, Ex::Idle { parked: true }))
                {
                    self.ex[i] = Ex::Idle { parked: false };
                    self.at(self.now + lat, Ev::Run(i));
                }
            }
            for i in 0..self.ex.len() {
                match &mut self.ex[i] {
                    Ex::Fetching { parked, .. } if w.blocks && *parked => *parked = false,
                    _ => continue,
                }
                self.at(self.now + lat, Ev::Run(i));
            }
        }

        fn close(&mut self) {
            self.closed = true;
            self.st.close();
            for i in 0..self.ex.len() {
                match &mut self.ex[i] {
                    Ex::Idle { parked } | Ex::Fetching { parked, .. } if *parked => *parked = false,
                    _ => continue,
                }
                self.at(self.now, Ev::Run(i));
            }
        }

        fn land(&mut self, bytes: &[u8]) -> Result<(), String> {
            if self.closed {
                return Ok(());
            }
            let (frame, _) = FrameRef::decode(bytes).unwrap().unwrap();
            let mut submitted = None;
            match &frame {
                FrameRef::Submit { exec_id, task_id, cores, .. } => {
                    self.answers.insert(*exec_id, 0);
                    self.snaps.insert(*exec_id, self.sent_snaps.remove(task_id));
                    submitted = Some((*exec_id, cores.clone()));
                }
                FrameRef::Data { key, blob } => {
                    self.sent_snaps.insert(*key, blob.bytes.to_vec());
                }
                FrameRef::BlockData { hash, blob } => {
                    self.requested.remove(hash);
                    if blob.tag != BAD_TAG {
                        self.resident.insert(*hash);
                    }
                }
                FrameRef::Heartbeat { .. } => self.heartbeats += 1,
                _ => {}
            }
            let mut wake = self.st.frame(frame, self.now, &mut self.out);
            if let Some((exec_id, cores)) = submitted {
                if !self
                    .out
                    .iter()
                    .any(|f| matches!(f, Frame::Failed { exec_id: e, .. } if *e == exec_id))
                {
                    self.queued.push((exec_id, cores));
                }
            }
            self.carry_out()?;
            if let Some(w) = wake.as_mut().filter(|w| w.job) {
                if let Some(job) = self.st.inline(self.turn_us) {
                    w.job = false;
                    self.run_inline(job)?;
                }
            }
            match wake {
                Some(w) => self.wake(w),
                None => self.close(),
            }
            Ok(())
        }

        /// Executor `i` looks for a job, as after ending one.
        fn look(&mut self, i: usize) -> Result<(), String> {
            match self.st.start() {
                Start::Run(mut job, more) => {
                    if self.closed {
                        return Err(format!("exec {} started after the close", job.exec_id));
                    }
                    let cores = &job.ctx.cores;
                    for e in &self.ex {
                        if let Ex::Fetching { job: j, .. } | Ex::Running(j, _) = e {
                            if j.ctx.cores.iter().any(|c| cores.contains(c)) {
                                return Err(format!(
                                    "execs {} and {} share a core",
                                    j.exec_id, job.exec_id
                                ));
                            }
                        }
                    }
                    let at = self.queued.iter().position(|(e, _)| *e == job.exec_id).unwrap();
                    if let Some((e, _)) =
                        self.queued[..at].iter().find(|(_, c)| c.iter().any(|c| cores.contains(c)))
                    {
                        return Err(format!("exec {} started ahead of exec {e}", job.exec_id));
                    }
                    self.queued.remove(at);
                    if job.snapshot.take() != self.snaps.remove(&job.exec_id).unwrap() {
                        return Err(format!("exec {} got another task's snapshot", job.exec_id));
                    }
                    if *job.name != format!("f{}", job.fn_id) {
                        return Err(format!("exec {} runs {:?}", job.exec_id, job.name));
                    }
                    if more {
                        self.wake(Wake { job: true, blocks: false });
                    }
                    self.ex[i] = Ex::Fetching { job, next: 0, since: self.now, parked: false };
                    self.fetch(i)
                }
                Start::Wait => {
                    self.ex[i] = Ex::Idle { parked: true };
                    Ok(())
                }
                Start::Closed => {
                    self.ex[i] = Ex::Gone;
                    Ok(())
                }
            }
        }

        /// Executor `i` resolves its job's arguments from where it stopped.
        fn fetch(&mut self, i: usize) -> Result<(), String> {
            let Ex::Fetching { job, next, since, parked } = &mut self.ex[i] else { return Ok(()) };
            while let Some(arg) = job.args.get(*next) {
                let JobArg::Block(hash) = *arg else {
                    *next += 1;
                    continue;
                };
                match self.st.block(hash, *since, self.now, &mut self.out) {
                    Fetch::Ready(_) => (*next, *since) = (*next + 1, self.now),
                    Fetch::Failed(e) => {
                        if e == TIMED_OUT && !self.closed {
                            return Err(format!("exec {} timed out on block {hash}", job.exec_id));
                        }
                        let (exec_id, cores) = (job.exec_id, std::mem::take(&mut job.ctx.cores));
                        self.answer(exec_id)?;
                        self.st.end(&cores);
                        return self.look(i);
                    }
                    Fetch::Wait(until) => {
                        *parked = true;
                        let since = *since;
                        self.at(until, Ev::Deadline(i, since));
                        return self.carry_out();
                    }
                }
            }
            let Ex::Fetching { job, .. } = std::mem::replace(&mut self.ex[i], Ex::Gone) else {
                unreachable!()
            };
            let body = self.body(job.fn_id);
            self.ex[i] = Ex::Running(job, body);
            self.at(self.now + body, Ev::Finish(i));
            Ok(())
        }

        /// How long the next body of `fn_id` takes.
        fn body(&mut self, fn_id: u64) -> u64 {
            let (body, runs) = self.bodies.get_mut(&fn_id).unwrap();
            *runs += 1;
            let fast = match *body {
                Body::Fast => true,
                Body::Slow => false,
                Body::FastThenSlow(k) => *runs <= k,
            };
            let us = if fast { 0..=INLINE_BUDGET_US } else { INLINE_BUDGET_US + 1..=1_500 };
            self.rng.gen_range(us)
        }

        /// A body of `fn_id` returned after `us`: the state hears it, and
        /// the harness keeps its own streak.
        fn ran(&mut self, fn_id: u64, us: u64) {
            self.st.ran(fn_id, us);
            let streak = self.streaks.entry(fn_id).or_default();
            *streak = if us <= INLINE_BUDGET_US { streak.saturating_add(1) } else { 0 };
        }

        /// The state handed the loop the job just submitted: check it may
        /// run there, then run it, the loop reading nothing meanwhile.
        fn run_inline(&mut self, mut job: Job) -> Result<(), String> {
            let exec_id = job.exec_id;
            if self.queued.len() != 1 || self.queued[0].0 != exec_id {
                return Err(format!(
                    "exec {exec_id} inline with {} jobs waiting",
                    self.queued.len()
                ));
            }
            if self.ex.iter().any(|e| matches!(e, Ex::Fetching { .. } | Ex::Running(..))) {
                return Err(format!("exec {exec_id} inline while a job holds a core"));
            }
            let streak = self.streaks.get(&job.fn_id).copied().unwrap_or(0);
            if streak < INLINE_STREAK {
                return Err(format!("exec {exec_id} inline after a streak of {streak}"));
            }
            if job.args.iter().any(|a| matches!(a, JobArg::Block(_))) {
                return Err(format!("exec {exec_id} inline with a block argument"));
            }
            if self.turn_us >= INLINE_BUDGET_US {
                return Err(format!("exec {exec_id} inline after {} µs this turn", self.turn_us));
            }
            if job.snapshot.take() != self.snaps.remove(&exec_id).unwrap() {
                return Err(format!("exec {exec_id} got another task's snapshot"));
            }
            self.queued.clear();
            self.inline_runs += 1;
            let body = self.body(job.fn_id);
            self.turn_us += body;
            self.inline = Some((job, body));
            self.at(self.now + body, Ev::LoopFree);
            Ok(())
        }

        /// The event loop reads what landed, or the close; while it runs a
        /// body, that waits behind it in order.
        fn read(&mut self, landed: Option<Vec<u8>>) -> Result<(), String> {
            if self.inline.is_some() || !self.backlog.is_empty() {
                self.backlog.push_back(landed);
                return Ok(());
            }
            self.turn_us = 0;
            self.take(landed)
        }

        fn take(&mut self, landed: Option<Vec<u8>>) -> Result<(), String> {
            match landed {
                Some(bytes) => self.land(&bytes),
                None if self.closed => Ok(()),
                None => {
                    self.close();
                    Ok(())
                }
            }
        }

        fn step(&mut self, ev: Ev) -> Result<(), String> {
            match ev {
                Ev::Send(k) => {
                    let frame = self.script[k].1.clone();
                    let lat = if self.rng.gen_bool(0.5) { 0 } else { self.rng.gen_range(1..100) };
                    self.send(&frame, lat);
                    Ok(())
                }
                Ev::Land(bytes) => self.read(Some(bytes)),
                Ev::Eof => self.read(None),
                Ev::LoopFree => {
                    let (mut job, body) = self.inline.take().unwrap();
                    self.answer(job.exec_id)?;
                    self.ran(job.fn_id, body);
                    self.st.end(&std::mem::take(&mut job.ctx.cores));
                    while self.inline.is_none() {
                        let Some(landed) = self.backlog.pop_front() else { break };
                        self.take(landed)?;
                    }
                    Ok(())
                }
                Ev::Run(i) => match self.ex[i] {
                    Ex::Idle { .. } => self.look(i),
                    Ex::Fetching { .. } => self.fetch(i),
                    _ => Ok(()),
                },
                Ev::Finish(i) => {
                    let Ex::Running(mut job, body) = std::mem::replace(&mut self.ex[i], Ex::Gone)
                    else {
                        unreachable!()
                    };
                    self.answer(job.exec_id)?;
                    self.ran(job.fn_id, body);
                    self.st.end(&std::mem::take(&mut job.ctx.cores));
                    self.look(i)
                }
                Ev::Deadline(i, since) => match &self.ex[i] {
                    Ex::Fetching { since: s, parked: true, job, .. } if *s == since => {
                        Err(format!("exec {} still waits for a block at its deadline", job.exec_id))
                    }
                    _ => Ok(()),
                },
            }
        }

        /// Play the queue out; the inline runs it took.
        fn run(&mut self) -> Result<u64, String> {
            while let Some(Reverse((t, _, ev))) = self.queue.pop() {
                if t > END_US {
                    return Err("hung".into());
                }
                self.now = t;
                self.step(ev)?;
            }
            if self.closed {
                if !self.ex.iter().all(|e| matches!(e, Ex::Gone)) {
                    return Err("an executor outlived its connection".into());
                }
                return Ok(self.inline_runs);
            }
            if let Some((e, _)) = self.answers.iter().find(|(_, n)| **n != 1) {
                return Err(format!("exec {e} never answered"));
            }
            let st = &self.st;
            let left = (st.waiting.len(), st.held.len(), st.handed_over.len(), st.inflight.len());
            if left != (0, 0, 0, 0) || self.acks != self.heartbeats {
                return Err(format!("left (waiting, held, snapshots, in flight) {left:?}"));
            }
            Ok(self.inline_runs)
        }
    }

    /// One seeded case: its script, then the run.
    fn case(seed: u64) -> Result<u64, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks: HashMap<u128, Blob> = (1..=5u128)
            .map(|h| {
                let mut blob = vec_f64([10, 50, 110][rng.gen_range(0..3usize)]);
                if rng.gen_bool(0.15) {
                    blob.tag = BAD_TAG.into();
                }
                (h, blob)
            })
            .collect();
        let bodies: HashMap<u64, (Body, u32)> = (1..=rng.gen_range(1..=3u64))
            .map(|fn_id| {
                let streak = u32::from(INLINE_STREAK);
                let body = match rng.gen_range(0..4) {
                    0 | 1 => Body::Fast,
                    2 => Body::Slow,
                    _ => Body::FastThenSlow(rng.gen_range(streak..3 * streak)),
                };
                (fn_id, (body, 0))
            })
            .collect();
        let mut named = HashSet::new();
        let mut frames: Vec<Frame> = Vec::new();
        for exec_id in 1..rng.gen_range(4..120) {
            if rng.gen_bool(0.2) {
                frames.push(Frame::Heartbeat { seq: exec_id, t_send_us: 0, telemetry: false });
            }
            let first = rng.gen_range(0..CORES);
            let mut cores = vec![first];
            if rng.gen_bool(0.25) {
                cores.push((first + rng.gen_range(1..CORES)) % CORES);
            }
            let mut args = Vec::new();
            for _ in 0..rng.gen_range(0..4) {
                args.push(match rng.gen_range(0..10) {
                    0 => WireArg::Inline {
                        key: 0,
                        blob: Blob { tag: BAD_TAG.into(), bytes: vec![1] },
                    },
                    1..=4 => inline(exec_id as i64),
                    _ => {
                        let hash = u128::from(rng.gen_range(1..=5u8));
                        if rng.gen_bool(0.5) {
                            frames.push(Frame::BlockData { hash, blob: blocks[&hash].clone() });
                        }
                        WireArg::Block { key: 0, hash }
                    }
                });
            }
            if rng.gen_bool(0.3) {
                // Ahead of its `Submit`, not always right ahead of it.
                let at = frames.len() - rng.gen_range(0..=frames.len().min(2));
                let key = 100 + exec_id;
                let bytes = [seed, key].iter().flat_map(|x| x.to_le_bytes()).collect();
                frames.insert(at, Frame::Data { key, blob: Blob { tag: "s".into(), bytes } });
            }
            let fn_id = rng.gen_range(1..=bodies.len() as u64);
            frames.push(submit(exec_id, fn_id, named.insert(fn_id), cores, args));
        }
        let end = rng.gen_range(0..3);
        if end == 1 {
            let at = rng.gen_range(0..=frames.len());
            frames.insert(at, Frame::Shutdown);
        }
        // Some cases crowd the cores, some leave them idle between `Submit`s.
        let pace = if rng.gen_bool(0.5) { 400 } else { 3_000 };
        let mut t = 0;
        let script: Vec<(u64, Frame)> = frames
            .into_iter()
            .map(|f| {
                t += if rng.gen_bool(0.4) { 0 } else { rng.gen_range(1..pace) };
                (t, f)
            })
            .collect();
        play(rng, blocks, bodies, script, (end == 2).then_some(t + 5_000))
    }

    /// Run `script` against the state; with `eof_before`, the driver's side
    /// closes at a random time before it. The inline runs it took.
    fn play(
        rng: StdRng,
        blocks: HashMap<u128, Blob>,
        bodies: HashMap<u64, (Body, u32)>,
        script: Vec<(u64, Frame)>,
        eof_before: Option<u64>,
    ) -> Result<u64, String> {
        let mut h = Harness {
            rng,
            st: WorkerState::new(BUDGET),
            out: Vec::new(),
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            script,
            tail: 0,
            ex: (0..CORES).map(|_| Ex::Idle { parked: true }).collect(),
            closed: false,
            blocks,
            answers: HashMap::new(),
            queued: Vec::new(),
            snaps: HashMap::new(),
            sent_snaps: HashMap::new(),
            requested: HashSet::new(),
            resident: HashSet::new(),
            heartbeats: 0,
            acks: 0,
            bodies,
            streaks: HashMap::new(),
            inline: None,
            turn_us: 0,
            backlog: VecDeque::new(),
            inline_runs: 0,
        };
        for k in 0..h.script.len() {
            h.at(h.script[k].0, Ev::Send(k));
        }
        if let Some(before) = eof_before {
            let at = h.rng.gen_range(0..before);
            h.at(at, Ev::Eof);
        }
        h.run()
    }

    /// The scripted case: more distinct undecodable blocks than a connection
    /// remembers land after the one a job needs and before its `Submit`, so
    /// the job finds its hash forgotten. It asks once more and fails on the
    /// codec's error, not at the fetch deadline.
    fn forgotten_undecodable() -> Result<u64, String> {
        let bad = Blob { tag: BAD_TAG.into(), bytes: vec![1, 2] };
        let hashes = 1..=MAX_UNDECODABLE as u128 + 1;
        let blocks: HashMap<u128, Blob> = hashes.clone().map(|h| (h, bad.clone())).collect();
        let mut script: Vec<(u64, Frame)> =
            hashes.map(|hash| (0, Frame::BlockData { hash, blob: bad.clone() })).collect();
        let args = vec![WireArg::Block { key: 0, hash: 1 }];
        script.push((0, submit(1, 1, true, vec![0], args)));
        let bodies = HashMap::from([(1, (Body::Fast, 0))]);
        play(StdRng::seed_from_u64(0), blocks, bodies, script, None)
    }

    #[test]
    fn every_frame_sequence_keeps_the_workers_promises() {
        let (mut failures, mut inline_runs) = (Vec::new(), 0);
        for seed in 0..96 {
            match case(seed) {
                Ok(n) => inline_runs += n,
                Err(e) => failures.push(format!("seed {seed}: {e}")),
            }
        }
        failures.extend(forgotten_undecodable().err().map(|e| format!("forgotten block: {e}")));
        assert!(failures.is_empty(), "{}", failures.join("\n"));
        // The rule is exercised, not only never broken.
        assert!(inline_runs >= 200, "{inline_runs} inline runs over 96 seeds");
    }

    /// A block that lands and is evicted by the next one before its waiter
    /// wakes is asked for again.
    #[test]
    fn an_evicted_waiter_asks_again() {
        let (mut st, mut out) = (WorkerState::new(BUDGET), Vec::new());
        feed(
            &mut st,
            &submit(1, 1, true, vec![0], vec![WireArg::Block { key: 0, hash: 1 }]),
            0,
            &mut out,
        );
        let Start::Run(..) = st.start() else { panic!("the job starts") };
        assert!(matches!(st.block(1, 0, 0, &mut out), Fetch::Wait(_)));
        assert_eq!(std::mem::take(&mut out), [Frame::BlockRequest { hash: 1 }]);
        feed(&mut st, &Frame::BlockData { hash: 1, blob: vec_f64(50) }, 1, &mut out);
        feed(&mut st, &Frame::BlockData { hash: 2, blob: vec_f64(110) }, 1, &mut out);
        assert_eq!(std::mem::take(&mut out), [Frame::BlockEvict { hash: 1 }]);
        assert!(matches!(st.block(1, 0, 2, &mut out), Fetch::Wait(_)));
        assert_eq!(std::mem::take(&mut out), [Frame::BlockRequest { hash: 1 }]);
        feed(&mut st, &Frame::BlockData { hash: 1, blob: vec_f64(50) }, 3, &mut out);
        assert!(matches!(st.block(1, 0, 3, &mut out), Fetch::Ready(_)));
    }

    /// Bytes no codec decodes fail the job waiting on them at once, with the
    /// codec's error, and every later one too.
    #[test]
    fn an_undecodable_block_fails_its_waiters_at_once() {
        let (mut st, mut out) = (WorkerState::new(BUDGET), Vec::new());
        assert!(matches!(st.block(7, 0, 0, &mut out), Fetch::Wait(_)));
        let blob = Blob { tag: BAD_TAG.into(), bytes: vec![1, 2] };
        let wake = feed(&mut st, &Frame::BlockData { hash: 7, blob }, 1, &mut out);
        assert_eq!(wake, Some(Wake { job: false, blocks: true }));
        for now in [1, 2] {
            let Fetch::Failed(e) = st.block(7, 0, now, &mut out) else { panic!("fails") };
            assert!(e.contains("no codec"), "{e}");
        }
        assert!(out.iter().all(|f| matches!(f, Frame::BlockRequest { .. })) && out.len() == 1);
    }

    /// However many distinct undecodable blocks a driver sends, a connection
    /// remembers at most `MAX_UNDECODABLE`; a job whose hash was forgotten
    /// asks once more and fails on the codec's error.
    #[test]
    fn undecodable_blocks_are_remembered_within_a_bound() {
        let (mut st, mut out) = (WorkerState::new(BUDGET), Vec::new());
        let bad = || Blob { tag: BAD_TAG.into(), bytes: vec![1, 2] };
        for hash in 1..=10 * MAX_UNDECODABLE as u128 {
            feed(&mut st, &Frame::BlockData { hash, blob: bad() }, 0, &mut out);
            assert!(st.undecodable.len() <= MAX_UNDECODABLE, "{}", st.undecodable.len());
        }
        assert!(matches!(st.block(1, 0, 1, &mut out), Fetch::Wait(_)));
        assert_eq!(std::mem::take(&mut out), [Frame::BlockRequest { hash: 1 }]);
        feed(&mut st, &Frame::BlockData { hash: 1, blob: bad() }, 2, &mut out);
        let Fetch::Failed(e) = st.block(1, 0, 2, &mut out) else { panic!("fails") };
        assert!(e.contains("no codec"), "{e}");
        assert!(out.is_empty());
    }

    #[test]
    #[ignore = "a measurement: cargo test --release -p rcompss --lib -- --ignored --nocapture worker_cpu"]
    fn worker_cpu_per_noop_task() {
        const TASKS: u64 = 100_000;
        let submits: Vec<Vec<u8>> =
            (1..=TASKS).map(|e| submit(e, 1, e == 1, vec![0], vec![inline(0)]).encode()).collect();
        for _ in 0..5 {
            let (mut st, mut out) = (WorkerState::new(BUDGET), Vec::new());
            let t = Instant::now();
            for (now, bytes) in submits.iter().enumerate() {
                let (frame, _) = FrameRef::decode(bytes).unwrap().unwrap();
                st.frame(frame, now as u64, &mut out);
                let Start::Run(job, _) = st.start() else { panic!("the job starts") };
                st.end(&job.ctx.cores);
            }
            let ns = t.elapsed().as_nanos() as f64 / TASKS as f64;
            println!("worker CPU per no-op task (Submit decode + state, no sockets): {ns:.0} ns");
        }
    }
}
