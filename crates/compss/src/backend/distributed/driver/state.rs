//! Every decision the distributed driver makes, in one plain value.
//!
//! [`DriverState`] keeps, per worker link, the next heartbeat's sequence
//! number, the send time of the oldest probe no byte has answered yet, the
//! clock-offset estimate, which function ids it has named, how many
//! attempts are on the wire and how many of them are slow, and whether the
//! link is lost; and, for the driver, the heartbeat schedule, the node,
//! dispatch time and speed of every attempt on the wire, and the shutdown
//! deadline.
//! [`DriverState::apply`] takes one [`Event`] with the time it happened and
//! appends the [`Action`]s the shell must carry out, in order;
//! [`DriverState::next_deadline`] names the time by which the shell must
//! come back with an [`Event::Tick`]. Nothing here reads a clock, takes a
//! lock or touches a socket: the tests below run it against a real runtime
//! core and scripted workers on virtual time.
//!
//! A read of a link the state has lost settles nothing, as its attempts
//! left `on_wire` with it.
//!
//! A submitting thread's flush to a link waits only if the link owes an
//! answer, and soon: it had an attempt on the wire before the batch, and
//! every such attempt is of a fast function. That attempt's `Done`, its
//! `Failed` or the link's loss is a loop turn, and every loop turn flushes
//! every backlog, so a held backlog goes out with the turn that reads the
//! link's next answer. A backlog is thus only ever held behind an attempt
//! that went out: the first attempt after a link's wire empties is never
//! held.

use paratrace::ClockSync;
use rnet::Frame;

use super::{Completion, ExecStamps, Inbox, RemoteDispatch};
use crate::ids::IdMap;
use crate::runtime::Report;

/// What happened, as the shell saw it.
pub(super) enum Event<'a> {
    /// One read of a link: the frames it brought, filed in `inbox`, and the
    /// bytes it took off the socket.
    Read {
        link: u32,
        bytes: usize,
        inbox: &'a mut Inbox,
    },
    /// Placed attempts about to be encoded: those on a lost link leave the
    /// batch, as nothing goes out there; each other learns whether its
    /// `Submit` names its function and whether a submitting thread's flush
    /// to the link may wait.
    Dispatch(&'a mut Vec<RemoteDispatch>),
    /// A link ended: a read error or EOF, or its goodbye drained.
    Closed(u32),
    /// A loop turn ended: what was readable when its poll began is read.
    Tick,
    Stop,
}

/// What the shell must do, in order.
pub(super) enum Action {
    /// Push a frame onto the link's backlog.
    Push(u32, Frame),
    /// Settle the attempt a `Done` or `Failed` from the link names, with
    /// the report its stamps give.
    Settle(u32, Completion, Report),
    /// Send the block to the link, if the store still has it.
    Ship(u32, u128),
    /// The link's worker dropped the block: retract its residency.
    Evict(u32, u128),
    /// Write the link's node off: [`crate::runtime::lose_node`].
    Lose(u32),
    /// Take the link off the poller, shut it and drop its backlog.
    Close(u32),
}

/// One worker link, as the decisions see it.
#[derive(Default)]
struct LinkState {
    hb_seq: u64,
    /// Send time of the oldest heartbeat no received byte has followed yet:
    /// the silence a loss verdict judges.
    unanswered: Option<u64>,
    /// NTP-style clock-offset estimate fed by heartbeat acks. The worker's
    /// clock starts with its connection, so the estimate is this socket's.
    clock: ClockSync,
    /// Whether the link has heard the name of function id `i`, the
    /// runtime's: a name crosses the link once.
    named: Vec<bool>,
    /// Attempts on the wire, and how many of them are not fast.
    in_flight: u32,
    slow: u32,
    lost: bool,
}

/// An attempt sent and not yet settled.
struct Sent {
    node: u32,
    dispatched_us: u64,
    fast: bool,
}

/// See the module docs.
#[derive(Default)]
pub(super) struct DriverState {
    hb_us: u64,
    timeout_us: u64,
    links: Vec<LinkState>,
    /// Every attempt sent and not yet settled.
    on_wire: IdMap<u64, Sent>,
    /// When the next heartbeat is due: at once, so even a task that ends
    /// before the first interval has its stamps rebased.
    next_hb: u64,
    /// Time of the latest `Tick`.
    turn: u64,
    /// When `Stop` gives up on goodbyes that have not drained.
    stop_at: Option<u64>,
}

impl DriverState {
    pub fn new(links: usize, hb_us: u64, timeout_us: u64) -> DriverState {
        let links = (0..links).map(|_| LinkState::default()).collect();
        DriverState { hb_us, timeout_us, links, ..DriverState::default() }
    }

    pub fn apply(&mut self, event: Event<'_>, now_us: u64, out: &mut Vec<Action>) {
        match event {
            Event::Read { link, bytes, inbox } => self.read(link, bytes, inbox, now_us, out),
            Event::Dispatch(batch) => {
                // On a lost link `lose_node` fails the attempt, or has.
                batch.retain(|d| !self.links[d.node as usize].lost);
                for d in batch.iter_mut() {
                    let link = &self.links[d.node as usize];
                    d.hold = link.in_flight > 0 && link.slow == 0;
                }
                for d in batch.iter_mut() {
                    let link = &mut self.links[d.node as usize];
                    link.in_flight += 1;
                    link.slow += u32::from(!d.fast);
                    let sent = Sent { node: d.node, dispatched_us: d.dispatched_us, fast: d.fast };
                    self.on_wire.insert(d.exec_id, sent);
                    if link.named.len() <= d.fn_id {
                        link.named.resize(d.fn_id + 1, false);
                    }
                    d.fn_new = !std::mem::replace(&mut link.named[d.fn_id], true);
                }
            }
            Event::Closed(link) => self.close(link, out),
            Event::Tick if self.stop_at.is_some() => {
                if self.stop_at <= Some(now_us) {
                    (0..self.links.len() as u32).for_each(|l| self.close(l, out));
                }
            }
            Event::Tick => {
                // Everything a live peer sent before the last turn ended has
                // been read: a probe older than the timeout then is silence.
                // Judged against that turn, never this one, a driver stall
                // is charged to no peer.
                for l in 0..self.links.len() as u32 {
                    let since = self.links[l as usize].unanswered.unwrap_or(u64::MAX);
                    if self.turn.saturating_sub(since) > self.timeout_us {
                        self.close(l, out);
                    }
                }
                // A turn that ends more than the timeout after the last one
                // had the driver away, probing no one: silence that spans it
                // says nothing of a peer, so each starts again from now.
                if now_us.saturating_sub(self.turn) > self.timeout_us {
                    for link in &mut self.links {
                        link.unanswered = link.unanswered.map(|_| now_us);
                    }
                }
                self.turn = now_us;
                if now_us >= self.next_hb {
                    self.next_hb = now_us + self.hb_us;
                    for (l, link) in self.links.iter_mut().enumerate().filter(|(_, k)| !k.lost) {
                        // The `telemetry` field is reserved: always false.
                        let probe = Frame::Heartbeat {
                            seq: link.hb_seq,
                            t_send_us: now_us,
                            telemetry: false,
                        };
                        out.push(Action::Push(l as u32, probe));
                        link.hb_seq += 1;
                        link.unanswered.get_or_insert(now_us);
                    }
                }
            }
            Event::Stop => {
                self.stop_at = Some(now_us + self.timeout_us);
                let live = self.links.iter().enumerate().filter(|(_, k)| !k.lost);
                out.extend(live.map(|(l, _)| Action::Push(l as u32, Frame::Shutdown)));
            }
        }
    }

    /// When the shell must next send a `Tick`: the next heartbeat, or as
    /// soon as an unanswered one is old enough to judge, or when `Stop`
    /// gives up. `None` once stopped with every link closed: the loop ends.
    pub fn next_deadline(&self) -> Option<u64> {
        if self.stop_at.is_some() {
            return self.stop_at.filter(|_| self.links.iter().any(|l| !l.lost));
        }
        let silences = self.links.iter().filter_map(|l| l.unanswered);
        Some(silences.map(|since| since + self.timeout_us + 1).fold(self.next_hb, u64::min))
    }

    pub fn stopping(&self) -> bool {
        self.stop_at.is_some()
    }

    pub fn clock(&self, link: u32) -> ClockSync {
        self.links[link as usize].clock
    }

    fn read(&mut self, l: u32, bytes: usize, inbox: &mut Inbox, now: u64, out: &mut Vec<Action>) {
        let link = &mut self.links[l as usize];
        if bytes > 0 {
            link.unanswered = None;
        }
        // Acks read together arrived together: `now` is t3 of each.
        for (t0, t1, t2) in inbox.acks.drain(..) {
            link.clock.observe(t0, t1, t2, now);
        }
        let (offset, synced) = (link.clock.offset_us(), link.clock.rtt_us() > 0);
        for c in inbox.completions.drain(..) {
            // Only the link an attempt went out on settles it: a late frame
            // of a failed-over attempt, or one naming an attempt sent to
            // another node, is ignored.
            let Some(sent) = self.on_wire.remove(&c.exec_id) else { continue };
            if sent.node != l {
                self.on_wire.insert(c.exec_id, sent);
                continue;
            }
            link.in_flight -= 1;
            link.slow -= u32::from(!sent.fast);
            // The turn read the clock before this read; another thread may
            // have dispatched since.
            let dispatched_us = sent.dispatched_us;
            let report = window(c.stamps, offset, synced, dispatched_us, now.max(dispatched_us));
            out.push(Action::Settle(l, c, report));
        }
        out.extend(inbox.block_evicts.drain(..).map(|hash| Action::Evict(l, hash)));
        let ships = inbox.block_reqs.drain(..).filter(|_| !link.lost); // none to a lost link
        out.extend(ships.map(|hash| Action::Ship(l, hash)));
    }

    /// Write a link off, once: its attempts leave `on_wire` (`lose_node`
    /// fails them), and unless stopping its node is lost.
    fn close(&mut self, l: u32, out: &mut Vec<Action>) {
        let link = &mut self.links[l as usize];
        if !std::mem::replace(&mut link.lost, true) {
            (link.unanswered, link.in_flight, link.slow) = (None, 0, 0);
            self.on_wire.retain(|_, sent| sent.node != l);
            out.push(Action::Close(l));
            out.extend(self.stop_at.is_none().then_some(Action::Lose(l)));
        }
    }
}

/// Map a worker-clock stamp onto the driver timeline, saturating at zero.
/// `offset_us` is the link's `worker_clock − driver_clock` estimate.
fn rebase(t: u64, offset_us: i64) -> u64 {
    (t as i64 - offset_us).max(0) as u64
}

/// What a `Done`'s stamps say of an attempt dispatched at `dispatch` and
/// applied at `completion`: the driver-observed window, narrowed to the
/// body's own span once the stamps can be placed (`synced`), and the wire,
/// exec and ship phases. A `Failed` has no stamps: the window alone. The
/// span is rebased and clamped into the window, as residual clock error
/// (≤ RTT/2) must never draw a body before its dispatch or past its
/// completion.
fn window(stamps: ExecStamps, offset: i64, synced: bool, dispatch: u64, completion: u64) -> Report {
    let observed = Report { span: Some((dispatch, completion)), ..Report::default() };
    let Some((w_recv, w_start, w_end)) = stamps else { return observed };
    let start = rebase(w_start, offset).clamp(dispatch, completion);
    let end = rebase(w_end, offset).clamp(dispatch, completion).max(start);
    Report {
        span: if synced { Some((start, end)) } else { observed.span },
        // A task dispatched ahead waits on the worker for the one before
        // it: that wait is queueing too. Like exec, it is a worker-clock
        // difference, so the offset cancels there.
        held_us: w_start.saturating_sub(w_recv),
        wire_us: Some(rebase(w_recv, offset).saturating_sub(dispatch)),
        exec_us: Some(w_end.saturating_sub(w_start)),
        ship_us: Some(completion.saturating_sub(rebase(w_end, offset))),
    }
}

#[cfg(test)]
mod tests {
    //! The property: the state and a real runtime core, driven by a shell
    //! on virtual time against scripted workers that answer
    //! deterministically, with no socket and no sleep. Each seed draws a
    //! task graph submitted in waves as the run goes, a body time per
    //! function, fast or slow, and a fault per worker; every run must settle
    //! before a virtual deadline with the threaded oracle's values or a
    //! typed error, settle only attempts running where their frame came
    //! from, write off only a worker that went quiet or away, hold a
    //! submit's flush to a link only while the link owes a fast answer,
    //! flush every backlog each loop turn, queue no slow task more than one
    //! deep, leave nothing live, and stop.

    use std::collections::{HashMap, VecDeque};
    use std::time::Instant;

    use cluster::{Cluster, NodeSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rnet::{FrameRef, SendBuf, WireArg};

    use super::super::{apply_core, collect_dispatch_remote, encode, Dispatches, Io, Wire, SPARE};
    use super::*;
    use crate::backend::distributed::INLINE_BUDGET_US;
    use crate::data::{DataHandle, Value};
    use crate::scheduler::FAST_DEPTH;
    use crate::{codec, ArgSpec, Constraint, Runtime, RuntimeConfig, SubmitError, TaskDef};

    const HB_US: u64 = 50_000;
    const TIMEOUT_US: u64 = 300_000;
    /// A run that has not settled by then hangs.
    const DEADLINE_US: u64 = 120_000_000;

    /// How one scripted worker misbehaves. A time is when it starts.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fault {
        None,
        /// The link fails: what is still in flight is lost, then the read
        /// errors.
        Dies(u64),
        /// The worker shuts its sending half: what it sent before arrives,
        /// then EOF. It still reads, and answers nothing.
        HalfCloses(u64),
        /// The worker says nothing more, its link open. Once it is written
        /// off, one more `Done` of its arrives on the lost link.
        Silent(u64),
        DupAcks,
        /// Acks every other probe.
        DropsAcks,
        /// Answers every `Submit` with a `Done` of no outputs.
        WrongCount,
        /// Answers, besides its own, for an attempt sent to another node,
        /// with a wrong value.
        Forges,
    }

    impl Fault {
        fn draw(rng: &mut StdRng) -> Fault {
            let t = rng.gen_range(0..400_000);
            match rng.gen_range(0..10) {
                0 => Fault::Dies(t),
                1 => Fault::HalfCloses(t),
                2 => Fault::Silent(t),
                3 => Fault::DupAcks,
                4 => Fault::DropsAcks,
                5 => Fault::WrongCount,
                6 => Fault::Forges,
                _ => Fault::None,
            }
        }

        /// When the worker stops sending, if it does.
        fn gone(self) -> Option<u64> {
            match self {
                Fault::Dies(t) | Fault::HalfCloses(t) | Fault::Silent(t) => Some(t),
                _ => None,
            }
        }
    }

    /// A scripted worker on virtual time with one core: it runs what it is
    /// sent in order, dispatched-ahead attempts after the one before.
    struct Peer {
        fault: Fault,
        /// Its clock minus the driver's.
        offset: u64,
        /// Frames on their way to the driver, with arrival times that TCP
        /// keeps in order.
        outbox: VecDeque<(u64, Frame)>,
        fn_names: HashMap<u64, String>,
        busy_until: u64,
        probes: u64,
        /// Exec ids it was sent.
        execs: Vec<u64>,
        /// The driver closed the link, or the link ended.
        closed: bool,
        /// Latency, µs.
        lat: u64,
        /// Body time of each function, µs.
        bodies: HashMap<String, u64>,
    }

    impl Peer {
        fn post(&mut self, at: u64, frame: Frame) {
            let at = self.outbox.back().map_or(at, |&(last, _)| last.max(at));
            self.outbox.push_back((at, frame));
        }

        /// The worker's side of one frame the driver sent at `now`.
        /// `victim` is an attempt sent to another node, for a forger.
        fn receive(&mut self, frame: Frame, now: u64, victim: Option<u64>) {
            if let Frame::Submit { exec_id, .. } = frame {
                self.execs.push(exec_id);
            }
            if self.fault.gone().is_some_and(|t| now >= t) {
                return;
            }
            let (at, off) = (now + self.lat, self.offset);
            match frame {
                Frame::Heartbeat { seq, t_send_us, .. } => {
                    self.probes += 1;
                    if self.fault == Fault::DropsAcks && self.probes.is_multiple_of(2) {
                        return;
                    }
                    let (recv_us, reply_us) = (now + off, now + off);
                    for _ in 0..1 + u32::from(self.fault == Fault::DupAcks) {
                        self.post(at, Frame::HeartbeatAck { seq, t_send_us, recv_us, reply_us });
                    }
                }
                Frame::Submit { exec_id, fn_id, fn_name, args, .. } => {
                    if let Some(name) = fn_name {
                        self.fn_names.insert(fn_id, name);
                    }
                    let inputs = args.iter().map(|a| match a {
                        WireArg::Inline { blob, .. } => {
                            let v = codec::decode_tagged(&blob.tag, &blob.bytes).unwrap();
                            *v.downcast_ref::<i64>().unwrap()
                        }
                        WireArg::Block { .. } => panic!("8-byte values stay inline"),
                    });
                    let name = self.fn_names[&fn_id].as_str();
                    let sum = inputs.fold(0, i64::wrapping_add);
                    let out = match name {
                        "inc" => sum.wrapping_add(1),
                        "add" => sum,
                        other => panic!("unscripted task {other}"),
                    };
                    let (start, exec) = (at.max(self.busy_until), self.bodies[name]);
                    self.busy_until = start + exec;
                    let encoded = codec::encode_value(&Value::new(out)).unwrap();
                    let outputs =
                        if self.fault == Fault::WrongCount { vec![] } else { vec![encoded] };
                    let (recv_us, start_us, end_us) = (at + off, start + off, start + exec + off);
                    let done = Frame::Done { exec_id, recv_us, start_us, end_us, outputs };
                    self.post(self.busy_until + self.lat, done);
                    if let (Fault::Forges, Some(victim)) = (self.fault, victim) {
                        self.post(at, forged(victim));
                    }
                }
                _ => {}
            }
        }

        /// Frames that have arrived by `t`, and whether the link is still
        /// open then.
        fn arrived(&mut self, t: u64) -> (Vec<Frame>, bool) {
            let gone = self.fault.gone().filter(|&g| g <= t);
            if let (Fault::Dies(_), Some(g)) = (self.fault, gone) {
                self.outbox.retain(|&(at, _)| at <= g);
            }
            if let (Fault::Silent(_), Some(g)) = (self.fault, gone) {
                self.outbox.retain(|&(at, _)| at <= g);
            }
            let n = self.outbox.iter().take_while(|&&(at, _)| at <= t).count();
            let frames = self.outbox.drain(..n).map(|(_, f)| f).collect();
            let open = match self.fault {
                Fault::Dies(_) | Fault::HalfCloses(_) => gone.is_none() || !self.outbox.is_empty(),
                _ => true,
            };
            (frames, open)
        }

        /// When the driver's poll next sees this link ready.
        fn next_event(&self) -> Option<u64> {
            let front = self.outbox.front().map(|&(at, _)| at);
            match self.fault {
                _ if self.closed => None,
                Fault::Dies(t) => Some(front.map_or(t, |at| at.min(t))),
                Fault::HalfCloses(t) => Some(front.unwrap_or(t)),
                Fault::Silent(t) => front.filter(|&at| at <= t),
                _ => front,
            }
        }
    }

    /// A `Done` of 999 for an attempt the sender never ran.
    fn forged(exec_id: u64) -> Frame {
        let outputs = vec![codec::encode_value(&Value::new(999i64)).unwrap()];
        Frame::Done { exec_id, recv_us: 0, start_us: 0, end_us: 0, outputs }
    }

    /// The shell, for the property: what `driver.rs` does with sockets and
    /// the clock, done with scripted workers and virtual time, checking each
    /// apply's actions as they come.
    struct Harness {
        rt: Runtime,
        /// `w0`, `w1`, …: the per-worker counters' labels.
        labels: Vec<String>,
        io: Io,
        peers: Vec<Peer>,
        acts: Vec<Action>,
        inbox: Inbox,
        now: u64,
        rng: StdRng,
        /// Chance that a turn stalls between its poll and its clock read.
        stalls: f64,
        /// Wall time spent in the driver's half: state, encode, decode and
        /// the core's actions.
        driver_ns: u128,
        /// Attempts settled with a `Done` so far.
        dones: u64,
        /// Per link, the attempts on the wire as the shell sees them: exec
        /// id, and whether its function was fast when it was sent.
        sent: Vec<Vec<(u64, bool)>>,
        /// Submit flushes held, and tasks queued more than one deep.
        holds: u64,
        deep: u64,
    }

    impl Harness {
        fn new(
            seed: u64,
            faults: &[Fault],
            lat: u64,
            bodies: &HashMap<String, u64>,
            stalls: f64,
            tracing: bool,
        ) -> Harness {
            let mut cfg = RuntimeConfig::single_node(1).with_tracing(tracing);
            let nodes = (0..faults.len()).map(|i| NodeSpec::new(format!("w{i}"), 1, vec![], 1));
            cfg.cluster = Cluster::from_nodes(nodes.collect());
            cfg.reserved_cores.clear();
            let rt = Runtime::simulated(cfg);
            rt.shared.core.lock().sched.enable_dispatch_ahead();
            let counter = rt.shared.metrics.registry().counter("harness_bytes");
            let wires = faults.iter().map(|_| Wire {
                conn: None,
                send: SendBuf::new(),
                held: false,
                sent_bytes: counter.clone(),
                recv_bytes: counter.clone(),
            });
            let state = DriverState::new(faults.len(), HB_US, TIMEOUT_US);
            let mut rng = StdRng::seed_from_u64(seed);
            let peers = faults
                .iter()
                .map(|&fault| Peer {
                    fault,
                    offset: rng.gen_range(0..1_000_000),
                    outbox: VecDeque::new(),
                    fn_names: HashMap::new(),
                    busy_until: 0,
                    probes: 0,
                    execs: Vec::new(),
                    closed: false,
                    lat: rng.gen_range(0..=lat),
                    bodies: bodies.clone(),
                })
                .collect();
            let io = Io { state, wires: wires.collect() };
            let labels = (0..faults.len()).map(|i| format!("w{i}")).collect();
            let sent = vec![Vec::new(); faults.len()];
            Harness {
                rt,
                labels,
                io,
                peers,
                acts: Vec::new(),
                inbox: Inbox::default(),
                now: 0,
                rng,
                stalls,
                driver_ns: 0,
                dones: 0,
                sent,
                holds: 0,
                deep: 0,
            }
        }

        /// Place what is ready and send it, as `Runtime::submit` does.
        fn dispatch(&mut self) -> Result<(), String> {
            let t0 = Instant::now();
            let batch = collect_dispatch_remote(&self.rt.shared, &mut self.rt.shared.core.lock());
            self.driver_ns += t0.elapsed().as_nanos();
            self.pump(Some(batch), true)
        }

        /// Before `b` is encoded: no slow task is queued more than one
        /// deep, nor a fast one more than `FAST_DEPTH`; and which links a
        /// submit may hold, those with attempts on the wire, all fast. Then
        /// the batch joins what is on the wire.
        fn check_batch(&mut self, b: &Dispatches) -> Result<Vec<bool>, String> {
            let core = self.rt.shared.core.lock();
            let may_hold: Vec<bool> =
                self.sent.iter().map(|s| !s.is_empty() && s.iter().all(|&(_, f)| f)).collect();
            for d in &b.msgs {
                let cores = &core.running[&d.exec_id].placement.cores;
                // What the core held as the task was queued: exec ids rise
                // with placement.
                let held = core
                    .running
                    .iter()
                    .filter(|(&e, r)| e <= d.exec_id && r.placement.node == d.node)
                    .filter(|(_, r)| r.placement.cores == *cores)
                    .count() as u32;
                let slow = self.peers[d.node as usize].bodies[&*d.name] > INLINE_BUDGET_US;
                if held > 1 + FAST_DEPTH || (slow && held > 2) {
                    return Err(format!("{} (slow {slow}) queued {} deep", d.name, held - 1));
                }
                self.deep += u64::from(held > 2);
                if !self.io.state.links[d.node as usize].lost {
                    // The flag the scheduler queued it by.
                    self.sent[d.node as usize]
                        .push((d.exec_id, core.running[&d.exec_id].placement.fast));
                }
            }
            Ok(may_hold)
        }

        /// Every `Settle` the read of link `l` added from `acts[from]` on
        /// takes its attempt off the wire.
        fn answered(&mut self, l: u32, from: usize) {
            for act in &self.acts[from..] {
                if let Action::Settle(_, c, _) = act {
                    self.sent[l as usize].retain(|&(exec, _)| exec != c.exec_id);
                }
            }
        }

        /// `driver.rs`'s `pump`, with the workers reading every backlog a
        /// flush pass writes at once. A `submit`ting pass may leave a
        /// backlog held only where [`Harness::check_batch`] allows it.
        fn pump(&mut self, mut batch: Option<Dispatches>, submit: bool) -> Result<(), String> {
            loop {
                if let Some(b) = &batch {
                    let may_hold = self.check_batch(b)?;
                    let t0 = Instant::now();
                    let mut b = batch.take().expect("checked");
                    encode(&mut self.io, &mut b, &mut self.acts, &mut self.inbox, self.now);
                    SPARE.set(b);
                    self.driver_ns += t0.elapsed().as_nanos();
                    for (l, wire) in self.io.wires.iter().enumerate() {
                        let held = submit && !wire.send.is_empty() && !wire.due(true);
                        if held && !may_hold[l] {
                            let on = &self.sent[l];
                            return Err(format!(
                                "a submit held link {l}'s flush, on the wire {on:?}"
                            ));
                        }
                        self.holds += u64::from(held);
                    }
                }
                let t0 = Instant::now();
                let wires = &mut self.io.wires;
                for (l, block) in self.inbox.replies.drain(..) {
                    let reply = FrameRef::BlockData { hash: block.hash, blob: block.blob.as_ref() };
                    wires[l as usize].send.push(&reply);
                }
                let mut closed = Vec::new();
                self.acts.retain(|act| {
                    match *act {
                        Action::Push(l, ref frame) => wires[l as usize].send.push(frame),
                        Action::Close(l) => closed.push(l),
                        _ => return true,
                    }
                    false
                });
                self.driver_ns += t0.elapsed().as_nanos();
                for l in closed {
                    self.close(l)?;
                }
                self.deliver(submit);
                if self.acts.is_empty() && self.inbox.saves.is_empty() {
                    return Ok(());
                }
                for act in &self.acts {
                    if let Action::Lose(l) = *act {
                        let fault = self.peers[l as usize].fault;
                        if fault.gone().is_none() {
                            return Err(format!(
                                "wrote off worker {l}, which was live ({fault:?})"
                            ));
                        }
                    }
                }
                let dones = self.dones();
                let t0 = Instant::now();
                let (shared, now) = (&self.rt.shared, self.now);
                let follow = apply_core(
                    shared,
                    &mut shared.core.lock(),
                    &self.labels,
                    &mut self.acts,
                    &mut self.inbox,
                    now,
                );
                self.driver_ns += t0.elapsed().as_nanos();
                self.check_recorded(dones)?;
                batch = Some(follow);
            }
        }

        /// The `Done`s the pending actions settle: each attempt's task and the
        /// span its bar must cover.
        fn dones(&self) -> Vec<(u64, (u64, u64))> {
            let core = self.rt.shared.core.lock();
            let settles = self.acts.iter().filter_map(|act| match act {
                Action::Settle(_, c, report) if c.stamps.is_some() => {
                    Some((core.running.get(&c.exec_id)?.task.0, report.span?))
                }
                _ => None,
            });
            settles.collect()
        }

        /// Settled ⇒ recorded: once a settle round has released the core
        /// lock, every attempt settled with a `Done` so far has its exec
        /// sample, and each of this round's `dones` its bar.
        fn check_recorded(&mut self, dones: Vec<(u64, (u64, u64))>) -> Result<(), String> {
            self.dones += dones.len() as u64;
            let series = runmetrics::labeled("rcompss_task_phase_us", "phase", "exec");
            let execs = self.rt.metrics().snapshot().histogram(&series).map_or(0, |h| h.count);
            if execs != self.dones {
                return Err(format!(
                    "{} attempts settled with a Done, {execs} exec samples",
                    self.dones
                ));
            }
            let trace = if self.rt.tracing_enabled() { self.rt.trace() } else { return Ok(()) };
            for (task, (start, end)) in dones {
                let bar = |r: &paratrace::Record| {
                    r.running_task().is_some_and(|t| t.id == task)
                        && (r.time(), r.end_time()) == (start, end.max(start + 1))
                };
                if !trace.iter().any(bar) {
                    return Err(format!("task {task} settled with no bar over [{start}, {end}]"));
                }
            }
            Ok(())
        }

        /// The link is closed: its backlog goes, and a worker that went
        /// silent gets one more `Done` read on it, as a readiness event the
        /// loop had collected before the loss.
        fn close(&mut self, l: u32) -> Result<(), String> {
            let peer = &mut self.peers[l as usize];
            peer.closed = true;
            self.io.wires[l as usize].send.clear();
            self.sent[l as usize].clear();
            if let (Fault::Silent(_), Some(&exec)) = (peer.fault, peer.execs.last()) {
                let frame = forged(exec);
                let encoded = frame.encode();
                self.inbox.take(FrameRef::decode(&encoded).unwrap().unwrap().0);
                let (bytes, inbox, from) = (encoded.len(), &mut self.inbox, self.acts.len());
                self.io.state.apply(
                    Event::Read { link: l, bytes, inbox },
                    self.now,
                    &mut self.acts,
                );
                self.check_settles(l, from)?;
            }
            Ok(())
        }

        /// Hand every backlog a flush pass writes to its worker, which reads
        /// it at once.
        fn deliver(&mut self, submit: bool) {
            for l in 0..self.peers.len() {
                let wire = &mut self.io.wires[l];
                if !wire.due(submit) {
                    continue;
                }
                let mut bytes = Vec::new();
                wire.held = false;
                wire.send.flush(&mut bytes).unwrap();
                if self.peers[l].closed {
                    continue;
                }
                let mut at = 0;
                while let Some((frame, used)) = Frame::decode(&bytes[at..]).unwrap() {
                    at += used;
                    let victim = self.victim(l);
                    self.peers[l].receive(frame, self.now, victim);
                }
            }
        }

        /// The newest attempt sent to another live node.
        fn victim(&mut self, l: usize) -> Option<u64> {
            let others = self.peers.iter().enumerate().filter(|(o, p)| *o != l && !p.closed);
            others.filter_map(|(_, p)| p.execs.last().copied()).max()
        }

        /// Every settle a read of link `l` added from `acts[from]` on must
        /// name an attempt running on `l`'s node, which no pending `Lose`
        /// writes off.
        fn check_settles(&self, l: u32, from: usize) -> Result<(), String> {
            let core = self.rt.shared.core.lock();
            let (before, added) = self.acts.split_at(from);
            for act in added {
                if let Action::Settle(_, c, _) = act {
                    let on = core.running.get(&c.exec_id).map(|r| r.placement.node);
                    let lost = before.iter().any(|a| matches!(a, Action::Lose(n) if *n == l));
                    if on != Some(l) || lost {
                        let exec = c.exec_id;
                        return Err(format!(
                            "link {l} settled exec {exec} (on {on:?}, lost {lost})"
                        ));
                    }
                }
            }
            Ok(())
        }

        /// One loop turn: poll until the deadline or the first link ready,
        /// read the clock (late, on a stalled turn), read the links that
        /// were ready when the poll returned, `Tick`, then one `pump`.
        fn turn(&mut self) -> Result<(), String> {
            let deadline = self.io.state.next_deadline().ok_or("the loop ended")?;
            let ready_at = self.peers.iter().filter_map(Peer::next_event).min();
            let polled = ready_at.map_or(deadline, |at| at.min(deadline)).max(self.now);
            let ready: Vec<u32> = (0..self.peers.len() as u32)
                .filter(|&l| self.peers[l as usize].next_event().is_some_and(|at| at <= polled))
                .collect();
            let stall = self.rng.gen_bool(self.stalls);
            self.now =
                polled + if stall { self.rng.gen_range(TIMEOUT_US..3 * TIMEOUT_US) } else { 0 };
            for l in ready {
                self.read(l)?;
            }
            let t0 = Instant::now();
            self.io.state.apply(Event::Tick, self.now, &mut self.acts);
            if self.io.state.stopping() {
                for l in 0..self.peers.len() as u32 {
                    if !self.peers[l as usize].closed && self.io.wires[l as usize].send.is_empty() {
                        self.io.state.apply(Event::Closed(l), self.now, &mut self.acts);
                    }
                }
            }
            self.driver_ns += t0.elapsed().as_nanos();
            self.pump(None, false)?;
            // Whatever a submit held goes out with the turn that read the
            // answer it waited for, or the loss of its link.
            match self.io.wires.iter().position(|w| !w.send.is_empty()) {
                Some(l) => Err(format!("link {l}'s backlog outlived a loop turn")),
                None => Ok(()),
            }
        }

        /// Read a link: every frame that has arrived, then EOF or an error
        /// if the link has ended.
        fn read(&mut self, l: u32) -> Result<(), String> {
            let (frames, open) = self.peers[l as usize].arrived(self.now);
            let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
            let t0 = Instant::now();
            for e in &encoded {
                self.inbox.take(FrameRef::decode(e).unwrap().unwrap().0);
            }
            let (bytes, from) = (encoded.iter().map(Vec::len).sum(), self.acts.len());
            let inbox = &mut self.inbox;
            self.io.state.apply(Event::Read { link: l, bytes, inbox }, self.now, &mut self.acts);
            self.driver_ns += t0.elapsed().as_nanos();
            self.check_settles(l, from)?;
            self.answered(l, from);
            if !open {
                self.peers[l as usize].closed = true;
                self.io.state.apply(Event::Closed(l), self.now, &mut self.acts);
            }
            Ok(())
        }

        /// Turn until every task of `script` is submitted and has settled,
        /// then stop. Before a turn, the next wave of the script may be
        /// submitted and dispatched, as a main program's `submit` would,
        /// at once when all that was submitted has settled.
        fn run(&mut self, script: &mut Script) -> Result<(), String> {
            loop {
                let settled = self.rt.shared.core.lock().instances.is_empty();
                if settled && script.is_done() {
                    break;
                }
                if self.now > DEADLINE_US {
                    let core = self.rt.shared.core.lock();
                    let (running, ready) = (core.running.len(), core.sched.ready_len());
                    return Err(format!("{running} running, {ready} ready after {DEADLINE_US} µs"));
                }
                if !script.is_done() && (settled || self.rng.gen_bool(0.5)) {
                    script.wave(&self.rt, &mut self.rng);
                    self.dispatch()?;
                }
                self.turn()?;
            }
            if !self.io.state.on_wire.is_empty() {
                return Err(format!("{} attempts left on the wire", self.io.state.on_wire.len()));
            }
            self.io.state.apply(Event::Stop, self.now, &mut self.acts);
            self.pump(None, false)?;
            while self.io.state.next_deadline().is_some() {
                if self.now > DEADLINE_US + TIMEOUT_US {
                    return Err("the stop never ended".into());
                }
                self.turn()?;
            }
            Ok(())
        }
    }

    fn tasks(rt: &Runtime) -> (TaskDef, TaskDef) {
        let arg = |v: &Value| *v.downcast_ref::<i64>().unwrap();
        let inc = rt.register("inc", Constraint::cpus(1), 1, move |_, i| {
            Ok(vec![Value::new(arg(&i[0]).wrapping_add(1))])
        });
        let add = rt.register("add", Constraint::cpus(1), 1, move |_, i| {
            Ok(vec![Value::new(i.iter().map(arg).fold(0, i64::wrapping_add))])
        });
        (inc, add)
    }

    /// A random graph of `inc` and `add` over a few literals, submitted in
    /// order: each task is `inc` or not, and the handles it reads, by index
    /// into the literals and then the outputs of the tasks before it.
    #[derive(Default)]
    struct Script {
        literals: Vec<i64>,
        tasks: VecDeque<(bool, Vec<usize>)>,
        defs: Option<(TaskDef, TaskDef)>,
        /// The literals' handles, then every submitted task's output.
        handles: Vec<DataHandle>,
    }

    impl Script {
        fn draw(seed: u64) -> Script {
            let mut rng = StdRng::seed_from_u64(seed);
            let literals: Vec<i64> = (0..rng.gen_range(2..5i64)).collect();
            let mut made = literals.len();
            let tasks = (0..rng.gen_range(16..64))
                .map(|_| {
                    let (inc, reads) =
                        if rng.gen_bool(0.4) { (true, 1) } else { (false, rng.gen_range(2..4)) };
                    let task = (inc, (0..reads).map(|_| rng.gen_range(0..made)).collect());
                    made += 1;
                    task
                })
                .collect();
            Script { literals, tasks, defs: None, handles: Vec::new() }
        }

        fn is_done(&self) -> bool {
            self.tasks.is_empty()
        }

        /// Submit the next `n` tasks to `rt`, the literals and the task
        /// definitions first if this is its first wave. Once every worker
        /// is lost a submit is refused, and the rest of the script with it.
        fn submit(&mut self, rt: &Runtime, n: usize) {
            if self.defs.is_none() {
                self.defs = Some(tasks(rt));
                self.handles = self.literals.iter().map(|&i| rt.literal(i)).collect();
            }
            let (inc, add) = self.defs.as_ref().expect("defined");
            for _ in 0..n {
                let Some((is_inc, reads)) = self.tasks.pop_front() else { break };
                let args = reads.iter().map(|&r| ArgSpec::In(self.handles[r])).collect();
                match rt.submit(if is_inc { inc } else { add }, args) {
                    Ok(submitted) => self.handles.push(submitted.returns[0]),
                    Err(SubmitError::Unsatisfiable(_)) => self.tasks.clear(),
                    Err(e) => panic!("{e}"),
                }
            }
        }

        /// Submit one wave of 1–4 tasks.
        fn wave(&mut self, rt: &Runtime, rng: &mut StdRng) {
            self.submit(rt, rng.gen_range(1..=4));
        }
    }

    /// How often one case held a submit's flush and queued a task deeper
    /// than one.
    struct Coverage {
        holds: u64,
        deep: u64,
    }

    /// One seeded case.
    fn case(seed: u64) -> Result<Coverage, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let faults: Vec<Fault> = (0..rng.gen_range(2..4)).map(|_| Fault::draw(&mut rng)).collect();
        // Each function fast (at most `INLINE_BUDGET_US`) or slow, per case.
        let bodies: HashMap<String, u64> = ["inc", "add"]
            .into_iter()
            .map(|name| {
                let fast = rng.gen_bool(0.5);
                let us = if fast {
                    rng.gen_range(0..=INLINE_BUDGET_US)
                } else {
                    rng.gen_range(INLINE_BUDGET_US + 1..=20_000)
                };
                (name.to_string(), us)
            })
            .collect();
        let oracle: Vec<i64> = {
            let rt = Runtime::threaded(RuntimeConfig::single_node(2).with_tracing(false));
            let mut script = Script::draw(seed);
            script.submit(&rt, usize::MAX);
            let all = &script.handles;
            all.iter().map(|h| *rt.wait_on(h).unwrap().downcast_ref::<i64>().unwrap()).collect()
        };
        let mut h = Harness::new(seed, &faults, 2_000, &bodies, 1.0 / 16.0, true);
        let mut script = Script::draw(seed);
        let why = |e: String| format!("{e} (faults {faults:?}, bodies {bodies:?})");
        script.wave(&h.rt, &mut h.rng);
        h.dispatch().map_err(why)?;
        h.run(&mut script).map_err(why)?;
        let outs = &script.handles;
        let may_fail = faults.iter().any(|f| f.gone().is_some() || *f == Fault::WrongCount);
        let core = h.rt.shared.core.lock();
        for (out, want) in outs.iter().zip(&oracle) {
            let v = core.data.current_version(*out);
            let got = core.data.get(v).map(|v| *v.downcast_ref::<i64>().unwrap());
            if !(got == Some(*want) || (got.is_none() && may_fail && core.data.is_poisoned(v))) {
                return Err(format!(
                    "{out:?} is {got:?}, the oracle says {want} (faults {faults:?})"
                ));
            }
        }
        drop(core);
        outs.iter().for_each(|&out| h.rt.delete(out));
        let core = h.rt.shared.core.lock();
        let live = (core.instances.len(), core.data.live_versions(), core.snapshot_bytes);
        if live != (0, 0, 0) {
            return Err(format!("left live (tasks, versions, snapshot bytes) {live:?}"));
        }
        Ok(Coverage { holds: h.holds, deep: h.deep })
    }

    #[test]
    fn every_fault_schedule_ends_in_the_oracles_values_or_a_typed_error() {
        let (mut failures, mut holds, mut deep) = (Vec::new(), 0, 0);
        for seed in 0..128 {
            match case(seed) {
                Ok(c) => (holds, deep) = (holds + c.holds, deep + c.deep),
                Err(e) => failures.push(format!("seed {seed}: {e}")),
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
        // The rule is exercised, not only never broken.
        assert!(holds >= 100 && deep >= 100, "{holds} held flushes, {deep} deep queues");
    }

    #[test]
    #[ignore = "a measurement: cargo test --release -p rcompss --lib -- --ignored --nocapture driver_cpu"]
    fn driver_cpu_per_noop_task() {
        const TASKS: u64 = 20_000;
        for round in 0..5 {
            let bodies = HashMap::from([("inc".to_string(), 0)]);
            let mut h = Harness::new(round, &[Fault::None; 2], 0, &bodies, 0.0, false);
            let noop =
                h.rt.register("inc", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(0i64)]));
            let root = h.rt.literal(0i64);
            for _ in 0..TASKS {
                h.rt.submit(&noop, vec![ArgSpec::In(root)]).unwrap();
            }
            h.dispatch().unwrap();
            h.run(&mut Script::default()).unwrap();
            let ns = h.driver_ns as f64 / TASKS as f64;
            println!("driver CPU per no-op task (state + core apply, no sockets): {ns:.0} ns");
        }
    }

    #[test]
    fn exec_spans_are_rebased_and_never_leave_the_driver_window() {
        let span = |start, end, offset| {
            window(Some((0, start, end)), offset, true, 150, 400).span.expect("a Done has bars")
        };
        // Worker clock 1_000 ahead: stamps [1_200, 1_300] are [200, 300] on
        // the driver timeline, inside the window, so the length is exact.
        assert_eq!(span(1_200, 1_300, 1_000), (200, 300));
        // Offset error puts the start before the dispatch: clamped to it.
        assert_eq!(span(1_100, 1_200, 1_000), (150, 200));
        // An offset so wrong the whole span rebases below zero collapses
        // onto the window floor, a worker behind the driver lands past the
        // ceiling; neither inverts.
        assert_eq!(span(1_100, 1_200, 10_000), (150, 150));
        assert_eq!(span(100, 200, -1_000), (400, 400));
        // Stamps a hostile peer inverted still give a forward span.
        assert_eq!(span(1_300, 1_200, 1_000), (300, 300));
        // Before any ack the span is the window the driver saw.
        assert_eq!(window(Some((0, 1_200, 1_300)), 0, false, 150, 400).span, Some((150, 400)));
    }
}
