//! Every decision the sweep server makes, in one plain value.
//!
//! [`State`] owns the fair gate's tenant lanes (token bucket, ring
//! position, trials spent, waits counted), every sweep's record (state,
//! counts, best row, rows, watchers, quota message) and the admission
//! queue. [`State::apply`] takes one [`Event`] with the time it happened
//! and returns the [`Action`]s the shell must carry out;
//! [`State::next_deadline`] names the time by which the shell must come
//! back with an [`Event::Tick`] so a rate-limited lane is served on time.
//! Nothing here blocks, reads a clock or touches a socket: time arrives
//! with each event, so a test can drive rate limiting without sleeping.
//!
//! The token bucket is kept as its theoretical arrival time (GCRA): a lane
//! may be granted at `t` when `tat ≤ t + τ`, with `T = 1/rate` per grant
//! and `τ = (burst − 1)·T` of tolerance, and a grant moves `tat` to
//! `max(tat, t) + T`. That is a bucket of `burst` tokens refilled at
//! `rate`, in whole nanoseconds, so a deadline is exact.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use rnet::{Frame, LeaderRow};

use super::{
    build_algo, is_terminal, ServerConfig, REJECT_BAD_REQUEST, REJECT_QUEUE_FULL, REJECT_QUOTA,
    REJECT_UNKNOWN_SWEEP, SWEEP_CANCELLED, SWEEP_DONE, SWEEP_QUEUED, SWEEP_RUNNING,
};
use crate::client::SubmitSpec;
use crate::space::SearchSpace;

/// A client connection, named by the shell.
pub(super) type ConnId = u64;
/// A sweep, numbered by the state from 1.
pub(super) type SweepId = u64;

/// What happened, as the shell saw it.
#[derive(Debug)]
pub(super) enum Event {
    // `ClientHello`: the connection speaks for `tenant` from now on.
    Hello { conn: ConnId, tenant: String },
    Submit { conn: ConnId, spec: SubmitSpec },
    // `SweepStatus`; `follow` also subscribes the connection.
    Status { conn: ConnId, sweep: SweepId, follow: bool },
    Cancel { conn: ConnId, sweep: SweepId },
    // A running sweep asks the gate to admit its next trial.
    WantTrial { sweep: SweepId },
    TrialDone { sweep: SweepId, row: LeaderRow, failed: bool },
    // A sweep's runner returned: `SWEEP_DONE` with the stage banner as
    // `message`, or `SWEEP_FAILED` with the error.
    SweepEnded { sweep: SweepId, state: u32, message: String },
    Closed { conn: ConnId },
    // Time passed; see `State::next_deadline`.
    Tick,
    Stop,
}

/// What the shell must do, in order.
pub(super) enum Action {
    Send(ConnId, Frame),
    Start(SweepId, SubmitSpec),
    /// Answer the sweep's pending [`Event::WantTrial`].
    Grant(SweepId, Admit),
    /// The sweep's runner has returned: reclaim what ran it.
    Join(SweepId),
}

/// The gate's answer to one [`Event::WantTrial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Admit {
    Granted,
    /// The tenant's total trial quota is spent; the sweep halts.
    Quota,
    /// The sweep was cancelled or the server is stopping.
    Halted,
}

/// One tenant's lane through the gate.
struct Lane {
    /// Theoretical arrival time of the next grant, ns.
    tat: u64,
    /// Trials admitted so far, charged against the quota.
    spent: u64,
    /// Sweeps whose [`Event::WantTrial`] is unanswered, oldest first.
    waiting: VecDeque<SweepId>,
    /// Times a `WantTrial` had to wait; mirrored into
    /// `hposerver_tenant_throttled_total{tenant=…}`.
    throttled: u64,
    throttled_metric: runmetrics::Counter,
}

/// The server's record of one sweep.
#[derive(Default)]
struct Sweep {
    tenant: String,
    state: u32,
    total: u32,
    done: u32,
    failed: u32,
    best_acc: f64,
    best_label: String,
    /// Full leaderboard in completion order: replayed to late
    /// subscribers, streamed row by row to live ones.
    rows: Vec<LeaderRow>,
    watchers: Vec<ConnId>,
    cancelled: bool,
    /// Why the gate halted the sweep early, if it did.
    halt: String,
    started_us: u64,
    wall_us: u64,
    message: String,
}

/// See the module docs.
pub(super) struct State {
    cfg: ServerConfig,
    /// Gate interval `T` and tolerance `τ`, ns; `T == 0` when unlimited.
    interval_ns: u64,
    tolerance_ns: u64,
    /// Time of the latest event.
    clock_us: u64,
    lanes: HashMap<String, Lane>,
    /// Round-robin order; the granted tenant rotates to the back.
    ring: VecDeque<String>,
    sweeps: HashMap<SweepId, Sweep>,
    queue: VecDeque<(SweepId, SubmitSpec)>,
    active: usize,
    /// Each connection's tenant (once it said hello) and watched sweeps.
    conns: HashMap<ConnId, (Option<String>, Vec<SweepId>)>,
    stopping: bool,
    /// What the event being applied decided.
    out: Vec<Action>,
    registry: Arc<runmetrics::MetricsRegistry>,
    active_gauge: runmetrics::Gauge,
    queued_gauge: runmetrics::Gauge,
    completed: runmetrics::Counter,
    rejected: runmetrics::Counter,
}

impl State {
    pub(super) fn new(cfg: &ServerConfig, registry: Arc<runmetrics::MetricsRegistry>) -> State {
        let (interval, tolerance) = match cfg.rate > 0.0 {
            true => ((1e9 / cfg.rate).ceil(), (cfg.burst.max(1.0) - 1.0) * 1e9 / cfg.rate),
            false => (0.0, 0.0),
        };
        State {
            cfg: cfg.clone(),
            interval_ns: interval as u64,
            tolerance_ns: tolerance as u64,
            clock_us: 0,
            lanes: HashMap::new(),
            ring: VecDeque::new(),
            sweeps: HashMap::new(),
            queue: VecDeque::new(),
            active: 0,
            conns: HashMap::new(),
            stopping: false,
            out: Vec::new(),
            active_gauge: registry.gauge("hposerver_sweeps_active"),
            queued_gauge: registry.gauge("hposerver_sweeps_queued"),
            completed: registry.counter("hposerver_sweeps_completed_total"),
            rejected: registry.counter("hposerver_sweeps_rejected_total"),
            registry,
        }
    }

    /// Fold `event`, which happened at `now_us`, into the state.
    pub(super) fn apply(&mut self, event: Event, now_us: u64) -> Vec<Action> {
        self.clock_us = self.clock_us.max(now_us);
        match event {
            Event::Hello { conn, tenant } => self.conns.entry(conn).or_default().0 = Some(tenant),
            Event::Submit { conn, spec } => self.submit(conn, spec),
            Event::Status { conn, sweep, follow } => self.status(conn, sweep, follow),
            Event::Cancel { conn, sweep } => self.cancel(conn, sweep),
            Event::WantTrial { sweep } => self.want(sweep),
            Event::TrialDone { sweep, row, failed } => self.trial_done(sweep, row, failed),
            Event::SweepEnded { sweep, state, message } => self.end(sweep, state, message),
            Event::Closed { conn } => {
                for id in self.conns.remove(&conn).map(|c| c.1).unwrap_or_default() {
                    if let Some(s) = self.sweeps.get_mut(&id) {
                        s.watchers.retain(|w| *w != conn);
                    }
                }
            }
            Event::Tick => self.dispatch(),
            Event::Stop => {
                self.stopping = true;
                let ids: Vec<SweepId> = self.sweeps.keys().copied().collect();
                ids.into_iter().for_each(|id| self.halt(id));
            }
        }
        self.active_gauge.set(self.active as f64);
        self.queued_gauge.set(self.queue.len() as f64);
        std::mem::take(&mut self.out)
    }

    /// When the first waiting lane earns its grant, µs; `None` when no
    /// lane waits on the clock.
    pub(super) fn next_deadline(&self) -> Option<u64> {
        let waits = self.lanes.values().filter(|l| !l.waiting.is_empty() && !self.quota_spent(l));
        waits.map(|l| l.tat.saturating_sub(self.tolerance_ns).div_ceil(1000)).min()
    }

    /// Whether the server is shutting down.
    pub(super) fn stopping(&self) -> bool {
        self.stopping
    }

    fn quota_spent(&self, lane: &Lane) -> bool {
        self.cfg.quota_trials > 0 && lane.spent >= self.cfg.quota_trials
    }

    fn status_frame(&self, sweep_id: SweepId, s: &Sweep) -> Frame {
        Frame::SweepStatus {
            sweep_id,
            state: s.state,
            done: s.done,
            failed: s.failed,
            total: s.total,
            best_acc: s.best_acc,
            best_label: s.best_label.clone(),
            throttled: self.lanes.get(&s.tenant).map_or(0, |l| l.throttled),
            follow: 0,
        }
    }

    fn done_frame(sweep_id: SweepId, s: &Sweep) -> Frame {
        let (state, wall_us, message) = (s.state, s.wall_us, s.message.clone());
        Frame::SweepDone { sweep_id, state, wall_us, message }
    }

    fn watch(&mut self, conn: ConnId, id: SweepId) {
        let s = self.sweeps.get_mut(&id).expect("watched sweep exists");
        if !s.watchers.contains(&conn) {
            s.watchers.push(conn);
            self.conns.entry(conn).or_default().1.push(id);
        }
    }

    /// Admission control for one `SubmitSweep`.
    fn submit(&mut self, conn: ConnId, spec: SubmitSpec) {
        let checked = match self.conns.get(&conn).and_then(|c| c.0.clone()) {
            None => Err((REJECT_BAD_REQUEST, "ClientHello must precede SubmitSweep".to_string())),
            Some(tenant) => self.check(&tenant, &spec).map(|total| (tenant, total)),
        };
        let (tenant, total) = match checked {
            Ok(admitted) => admitted,
            Err((code, message)) => {
                self.rejected.incr();
                return self.out.push(Action::Send(conn, Frame::SweepReject { code, message }));
            }
        };
        // Sweeps are never forgotten, so ids count them.
        let id = self.sweeps.len() as SweepId + 1;
        let sweep = Sweep { tenant, state: SWEEP_QUEUED, total, ..Sweep::default() };
        self.out.push(Action::Send(conn, self.status_frame(id, &sweep)));
        self.sweeps.insert(id, sweep);
        self.watch(conn, id);
        self.queue.push_back((id, spec));
        self.pump();
    }

    /// Why `tenant` may not submit `spec`, or the sweep's trial total.
    fn check(&self, tenant: &str, spec: &SubmitSpec) -> Result<u32, (u32, String)> {
        let bad = |message: String| (REJECT_BAD_REQUEST, message);
        let space = SearchSpace::from_json(&spec.space_json)
            .map_err(|e| bad(format!("bad search space: {e}")))?;
        if spec.algo != "grid" && spec.trials == 0 {
            return Err(bad("trials must be > 0 for sampled algorithms".to_string()));
        }
        build_algo(&spec.algo, &space, spec.trials.max(1) as usize, spec.seed).map_err(bad)?;
        if self.lanes.get(tenant).is_some_and(|lane| self.quota_spent(lane)) {
            let quota = self.cfg.quota_trials;
            return Err((
                REJECT_QUOTA,
                format!("tenant '{tenant}' has spent its {quota}-trial quota"),
            ));
        }
        // A submission that can start immediately never queues, so the
        // queue-depth bound only applies once the active slots are taken
        // (or nothing starts any more).
        let full = self.active >= self.cfg.max_active || self.stopping;
        if full && self.queue.len() >= self.cfg.max_queued {
            let message = format!("sweep queue is full ({} deep)", self.cfg.max_queued);
            return Err((REJECT_QUEUE_FULL, message));
        }
        Ok(match spec.algo.as_str() {
            "grid" => space.grid_size().map_or(0, |n| n as u32),
            _ => spec.trials,
        })
    }

    /// Start queued sweeps while run slots are free; a stopping server
    /// starts nothing.
    fn pump(&mut self) {
        while self.active < self.cfg.max_active && !self.stopping {
            let Some((id, spec)) = self.queue.pop_front() else { break };
            let s = self.sweeps.get_mut(&id).expect("queued sweep exists");
            (s.state, s.started_us) = (SWEEP_RUNNING, self.clock_us);
            self.active += 1;
            self.out.push(Action::Start(id, spec));
        }
    }

    fn status(&mut self, conn: ConnId, id: SweepId, follow: bool) {
        let Some(s) = self.sweeps.get(&id) else { return self.out.push(unknown_sweep(conn, id)) };
        self.out.push(Action::Send(conn, self.status_frame(id, s)));
        if follow {
            if !s.rows.is_empty() {
                let rows = s.rows.clone();
                self.out.push(Action::Send(conn, Frame::LeaderboardChunk { sweep_id: id, rows }));
            }
            if is_terminal(s.state) {
                self.out.push(Action::Send(conn, State::done_frame(id, s)));
            }
            self.watch(conn, id);
        }
    }

    /// A queued sweep dies in place; a running one is halted at the gate
    /// and finishes through the normal drain path.
    fn cancel(&mut self, conn: ConnId, id: SweepId) {
        let Some(state) = self.sweeps.get(&id).map(|s| s.state) else {
            return self.out.push(unknown_sweep(conn, id));
        };
        self.watch(conn, id);
        if state == SWEEP_QUEUED {
            let s = self.sweeps.get_mut(&id).expect("cancelled sweep exists");
            (s.state, s.message) = (SWEEP_CANCELLED, "cancelled while queued".to_string());
            self.queue.retain(|(q, _)| *q != id);
        } else if state == SWEEP_RUNNING {
            self.halt(id);
        }
        let s = &self.sweeps[&id];
        self.out.push(Action::Send(conn, self.status_frame(id, s)));
        match state {
            SWEEP_QUEUED => self.finish(id),
            SWEEP_RUNNING => {}
            _ => self.out.push(Action::Send(conn, State::done_frame(id, s))),
        }
    }

    /// Mark a sweep cancelled; if it waits at the gate, release it.
    fn halt(&mut self, id: SweepId) {
        let s = self.sweeps.get_mut(&id).expect("halted sweep exists");
        s.cancelled = true;
        let Some(lane) = self.lanes.get_mut(&s.tenant) else { return };
        if let Some(pos) = lane.waiting.iter().position(|w| *w == id) {
            lane.waiting.remove(pos);
            self.out.push(Action::Grant(id, Admit::Halted));
        }
    }

    fn want(&mut self, id: SweepId) {
        let Some(s) = self.sweeps.get(&id).filter(|s| !s.cancelled && !self.stopping) else {
            return self.out.push(Action::Grant(id, Admit::Halted));
        };
        let tenant = s.tenant.clone();
        let lane = self.lanes.entry(tenant.clone()).or_insert_with(|| {
            self.ring.push_back(tenant.clone());
            let name = runmetrics::labeled("hposerver_tenant_throttled_total", "tenant", &tenant);
            let throttled_metric = self.registry.counter(&name);
            Lane { tat: 0, spent: 0, waiting: VecDeque::new(), throttled: 0, throttled_metric }
        });
        lane.waiting.push_back(id);
        self.dispatch();
        let lane = self.lanes.get_mut(&tenant).expect("lane exists");
        if lane.waiting.contains(&id) {
            lane.throttled += 1;
            lane.throttled_metric.incr();
        }
    }

    /// Answer every waiter the gate can answer now: the first lane in
    /// ring order with a waiter and (when rate limiting) a token is
    /// granted and rotates to the back; a lane whose quota is spent
    /// releases its waiters with [`Admit::Quota`]. Skipping token-less
    /// lanes keeps the gate work-conserving: one throttled tenant never
    /// stalls the others.
    fn dispatch(&mut self) {
        let now_ns = self.clock_us * 1000;
        while let Some(pos) = self.ring.iter().position(|t| {
            let lane = &self.lanes[t];
            !lane.waiting.is_empty()
                && (lane.tat <= now_ns.saturating_add(self.tolerance_ns) || self.quota_spent(lane))
        }) {
            let tenant = self.ring[pos].clone();
            let quota_spent = self.quota_spent(&self.lanes[&tenant]);
            let lane = self.lanes.get_mut(&tenant).expect("ring names a lane");
            if quota_spent {
                let quota = self.cfg.quota_trials;
                for id in lane.waiting.drain(..) {
                    let s = self.sweeps.get_mut(&id).expect("waiting sweep exists");
                    s.halt = format!("tenant '{tenant}' spent its {quota}-trial quota");
                    self.out.push(Action::Grant(id, Admit::Quota));
                }
                continue;
            }
            let id = lane.waiting.pop_front().expect("a ready lane has a waiter");
            lane.tat = lane.tat.max(now_ns).saturating_add(self.interval_ns);
            lane.spent += 1;
            self.ring.remove(pos);
            self.ring.push_back(tenant);
            self.out.push(Action::Grant(id, Admit::Granted));
        }
    }

    fn trial_done(&mut self, id: SweepId, row: LeaderRow, failed: bool) {
        let Some(s) = self.sweeps.get_mut(&id) else { return };
        if failed {
            s.failed += 1;
        } else {
            s.done += 1;
            if row.accuracy > s.best_acc || s.best_label.is_empty() {
                (s.best_acc, s.best_label) = (row.accuracy, row.label.clone());
            }
        }
        for conn in &s.watchers {
            let chunk = Frame::LeaderboardChunk { sweep_id: id, rows: vec![row.clone()] };
            self.out.push(Action::Send(*conn, chunk));
        }
        s.rows.push(row);
    }

    /// A running sweep's runner returned: settle its final state, free its
    /// run slot and start whatever was queued behind it.
    fn end(&mut self, id: SweepId, state: u32, message: String) {
        let Some(s) = self.sweeps.get_mut(&id).filter(|s| s.state == SWEEP_RUNNING) else {
            return;
        };
        s.wall_us = self.clock_us - s.started_us;
        (s.state, s.message) = match (state, s.cancelled) {
            (SWEEP_DONE, true) => (SWEEP_CANCELLED, "cancelled".to_string()),
            (SWEEP_DONE, false) if s.halt.is_empty() => (SWEEP_DONE, message),
            (SWEEP_DONE, false) if message.is_empty() => (SWEEP_DONE, s.halt.clone()),
            (SWEEP_DONE, false) => (SWEEP_DONE, format!("{} · {message}", s.halt)),
            _ => (state, message),
        };
        self.active -= 1;
        self.out.push(Action::Join(id));
        self.finish(id);
        self.pump();
    }

    /// Count a sweep that reached its terminal state and tell its watchers.
    fn finish(&mut self, id: SweepId) {
        self.completed.incr();
        let s = &self.sweeps[&id];
        self.out.extend(s.watchers.iter().map(|c| Action::Send(*c, State::done_frame(id, s))));
    }
}

fn unknown_sweep(conn: ConnId, id: SweepId) -> Action {
    let message = format!("no sweep with id {id}");
    Action::Send(conn, Frame::SweepReject { code: REJECT_UNKNOWN_SWEEP, message })
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::server::SWEEP_FAILED;

    /// A sweep the harness drives, as its runner would.
    #[derive(Default)]
    struct Run {
        waiting: bool,
        in_flight: u32,
        /// Denied by the gate: the runner drains and ends.
        denied: bool,
        quota: bool,
        cancelled: bool,
    }

    /// The shell, for the property: applies events, plays every sweep's
    /// runner, and checks each apply's actions as they come.
    struct Harness {
        state: State,
        cfg: ServerConfig,
        now: u64,
        rng: StdRng,
        conns: Vec<ConnId>,
        next_conn: ConnId,
        closed: HashSet<ConnId>,
        runs: HashMap<SweepId, Run>,
        tenants: HashMap<SweepId, String>,
        /// Who watches each sweep, and who watched it from submission
        /// without asking for a replay since.
        watchers: HashMap<SweepId, HashSet<ConnId>>,
        submitter: HashMap<SweepId, ConnId>,
        rows_seen: HashMap<(ConnId, SweepId), usize>,
        done_seen: HashSet<(ConnId, SweepId)>,
        grant_times: HashMap<String, Vec<u64>>,
        trials: HashMap<SweepId, usize>,
    }

    fn sweep_of(frame: &Frame) -> Option<SweepId> {
        match frame {
            Frame::SweepStatus { sweep_id, .. }
            | Frame::LeaderboardChunk { sweep_id, .. }
            | Frame::SweepDone { sweep_id, .. } => Some(*sweep_id),
            _ => None,
        }
    }

    impl Harness {
        fn new(cfg: ServerConfig, seed: u64) -> Harness {
            let registry = Arc::new(runmetrics::MetricsRegistry::new(true));
            Harness {
                state: State::new(&cfg, registry),
                cfg,
                now: 0,
                rng: StdRng::seed_from_u64(seed),
                conns: Vec::new(),
                next_conn: 0,
                closed: HashSet::new(),
                runs: HashMap::new(),
                tenants: HashMap::new(),
                watchers: HashMap::new(),
                submitter: HashMap::new(),
                rows_seen: HashMap::new(),
                done_seen: HashSet::new(),
                grant_times: HashMap::new(),
                trials: HashMap::new(),
            }
        }

        fn burst(&self) -> f64 {
            self.cfg.burst.max(1.0)
        }

        /// Apply one event at `self.now` and check what it did.
        fn step(&mut self, event: Event) -> Result<Vec<Action>, TestCaseError> {
            let desc = format!("{event:?} at {} µs", self.now);
            let waiting_before: Vec<SweepId> =
                self.runs.iter().filter(|(_, r)| r.waiting).map(|(id, _)| *id).collect();
            let wanted = match &event {
                Event::WantTrial { sweep } => Some(*sweep),
                _ => None,
            };
            let must_halt: Vec<SweepId> = match &event {
                Event::Cancel { sweep, .. } => {
                    waiting_before.iter().copied().filter(|id| id == sweep).collect()
                }
                Event::Stop => waiting_before.clone(),
                _ => Vec::new(),
            };
            let was_terminal: HashSet<SweepId> = self
                .state
                .sweeps
                .iter()
                .filter(|(_, s)| is_terminal(s.state))
                .map(|(id, _)| *id)
                .collect();
            let replay_to = match &event {
                Event::Status { conn, sweep, follow: true } => Some((*conn, *sweep)),
                Event::Cancel { conn, sweep } if was_terminal.contains(sweep) => {
                    Some((*conn, *sweep))
                }
                _ => None,
            };
            match &event {
                Event::Cancel { conn, sweep } | Event::Status { conn, sweep, follow: true }
                    if self.state.sweeps.contains_key(sweep) =>
                {
                    self.watchers.entry(*sweep).or_default().insert(*conn);
                    if matches!(event, Event::Status { .. }) {
                        self.submitter.remove(sweep);
                    }
                    if let Event::Cancel { .. } = event {
                        if let Some(run) = self.runs.get_mut(sweep) {
                            run.cancelled = true;
                        }
                    }
                }
                Event::Closed { conn } => {
                    self.closed.insert(*conn);
                    self.watchers.values_mut().for_each(|w| {
                        w.remove(conn);
                    });
                }
                _ => {}
            }
            let actions = self.state.apply(event, self.now);

            let mut granted_in_order: Vec<String> = Vec::new();
            let mut dones: HashMap<(ConnId, SweepId), usize> = HashMap::new();
            let mut joined = Vec::new();
            for action in &actions {
                match action {
                    Action::Send(conn, frame) => {
                        prop_assert!(!self.closed.contains(conn), "{desc}: sent to closed {conn}");
                        let Some(id) = sweep_of(frame) else { continue };
                        if let Frame::SweepStatus { .. } = frame {
                            if !self.watchers.contains_key(&id) {
                                // The ack of a fresh submission.
                                self.watchers.entry(id).or_default().insert(*conn);
                                self.submitter.insert(id, *conn);
                            }
                        }
                        if let Frame::LeaderboardChunk { rows, .. } = frame {
                            let late = self.done_seen.contains(&(*conn, id));
                            prop_assert!(
                                !late || replay_to == Some((*conn, id)),
                                "{desc}: rows of sweep {id} to {conn} after its SweepDone"
                            );
                            *self.rows_seen.entry((*conn, id)).or_default() += rows.len();
                        }
                        if let Frame::SweepDone { state, message, .. } = frame {
                            *dones.entry((*conn, id)).or_default() += 1;
                            self.done_seen.insert((*conn, id));
                            let run = self.runs.get(&id);
                            if *state == SWEEP_DONE && run.is_some_and(|r| r.quota) {
                                prop_assert!(
                                    message.contains("quota"),
                                    "{desc}: quota halt unexplained: {message:?}"
                                );
                            }
                            if self.submitter.get(&id) == Some(conn) {
                                let trials = self.trials.get(&id).copied().unwrap_or(0);
                                let seen = self.rows_seen.get(&(*conn, id)).copied().unwrap_or(0);
                                prop_assert_eq!(
                                    seen,
                                    trials,
                                    "{}: {} rows before done to {}, {} trials",
                                    desc,
                                    seen,
                                    conn,
                                    trials
                                );
                            }
                        }
                    }
                    Action::Grant(id, admit) => {
                        let run = self.runs.get_mut(id).expect("grant for a started sweep");
                        prop_assert!(run.waiting, "{desc}: grant to {id}, which did not ask");
                        run.waiting = false;
                        match admit {
                            Admit::Granted => {
                                run.in_flight += 1;
                                let tenant = self.tenants[id].clone();
                                self.grant_times.entry(tenant.clone()).or_default().push(self.now);
                                granted_in_order.push(tenant);
                            }
                            Admit::Quota => (run.denied, run.quota) = (true, true),
                            Admit::Halted => run.denied = true,
                        }
                    }
                    Action::Start(id, _) => {
                        prop_assert!(!self.state.stopping, "{desc}: started {id} while stopping");
                        self.runs.insert(*id, Run::default());
                        let tenant = self.state.sweeps[id].tenant.clone();
                        self.tenants.insert(*id, tenant);
                    }
                    Action::Join(id) => joined.push(*id),
                }
            }
            for id in joined {
                let run = self.runs.remove(&id);
                prop_assert!(run.is_some_and(|r| !r.waiting), "{desc}: join of {id}");
            }

            // Every watcher of a sweep that just ended hears of it once.
            let ended = self
                .state
                .sweeps
                .iter()
                .filter(|(id, s)| is_terminal(s.state) && !was_terminal.contains(id))
                .map(|(id, _)| *id);
            for id in ended {
                for conn in self.watchers.get(&id).into_iter().flatten() {
                    let n = dones.get(&(*conn, id)).copied().unwrap_or(0);
                    prop_assert_eq!(n, 1, "{}: SweepDone of {} to {}", desc, id, conn);
                }
            }
            for ((conn, id), n) in &dones {
                prop_assert!(
                    *n == 1 && (was_terminal.contains(id) || self.watchers[id].contains(conn)),
                    "{desc}: {n} SweepDone of {id} to {conn}"
                );
            }
            for id in must_halt {
                let halted = actions
                    .iter()
                    .any(|a| matches!(a, Action::Grant(g, Admit::Halted) if *g == id));
                prop_assert!(halted, "{desc}: waiting sweep {id} not halted");
            }
            if let Some(id) = wanted.filter(|_| self.cfg.rate <= 0.0) {
                prop_assert!(!self.runs[&id].waiting, "{desc}: rate 0, yet {id} waits");
            }
            // Round robin: a tenant granted twice running in one apply is
            // the only tenant left that can be granted in it.
            for (i, pair) in granted_in_order.windows(2).enumerate() {
                if pair[0] == pair[1] {
                    let rest = &granted_in_order[i + 1..];
                    prop_assert!(
                        rest.iter().all(|t| *t == pair[0]),
                        "{desc}: grants {granted_in_order:?} skip a waiting tenant"
                    );
                }
            }
            let s = &self.state;
            prop_assert!(s.active <= self.cfg.max_active, "{desc}: {} active", s.active);
            prop_assert!(s.queue.len() <= self.cfg.max_queued, "{desc}: {} queued", s.queue.len());
            if self.cfg.quota_trials > 0 {
                for (tenant, lane) in &s.lanes {
                    prop_assert!(lane.spent <= self.cfg.quota_trials, "{desc}: {tenant} overspent");
                    let stuck = s.quota_spent(lane) && !lane.waiting.is_empty();
                    prop_assert!(!stuck, "{desc}: {tenant} spent its quota, yet sweeps wait");
                }
            }
            Ok(actions)
        }

        /// Advance the clock to `to`, waking on every deadline on the way
        /// as the client plane would; a wake a microsecond early must
        /// find nothing to grant, and the wake on time must grant. A late
        /// plane skips the deadlines, so tokens pile up.
        fn advance(&mut self, to: u64, late: bool) -> Result<(), TestCaseError> {
            while let Some(d) = self.state.next_deadline().filter(|d| *d <= to && !late) {
                if d > self.state.clock_us {
                    self.now = d - 1;
                    let early = self.step(Event::Tick)?;
                    let granted =
                        early.iter().any(|a| matches!(a, Action::Grant(_, Admit::Granted)));
                    prop_assert!(!granted, "deadline {d} overslept a grantable lane");
                }
                self.now = d;
                let on_time = self.step(Event::Tick)?;
                let granted = on_time.iter().any(|a| matches!(a, Action::Grant(_, Admit::Granted)));
                prop_assert!(granted, "deadline {d} woke for nothing");
            }
            self.now = to;
            Ok(())
        }

        /// The sweep's runner asks the gate for its next trial.
        fn want(&mut self, sweep: SweepId) -> Event {
            self.runs.get_mut(&sweep).expect("running sweep").waiting = true;
            Event::WantTrial { sweep }
        }

        /// The sweep's runner collects one trial in flight.
        fn trial_done(&mut self, sweep: SweepId) -> Event {
            self.runs.get_mut(&sweep).expect("running sweep").in_flight -= 1;
            let n = self.trials.entry(sweep).or_default();
            *n += 1;
            let label = format!("t{n}");
            let row =
                LeaderRow { label, accuracy: self.rng.gen_range(0.0..1.0), epochs: 1, task_us: 5 };
            Event::TrialDone { sweep, row, failed: self.rng.gen_bool(0.1) }
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> Option<T> {
            (!items.is_empty()).then(|| items[self.rng.gen_range(0..items.len())])
        }

        fn random_event(&mut self) -> Option<Event> {
            let live: Vec<ConnId> =
                self.conns.iter().copied().filter(|c| !self.closed.contains(c)).collect();
            let sweeps = |h: &Harness, f: &dyn Fn(&Run) -> bool| -> Vec<SweepId> {
                let mut ids: Vec<SweepId> =
                    h.runs.iter().filter(|(_, r)| f(r)).map(|(id, _)| *id).collect();
                ids.sort_unstable();
                ids
            };
            let any_sweep = self.rng.gen_range(1..self.state.sweeps.len() as u64 + 3);
            Some(match self.rng.gen_range(0..100) {
                0..=7 => {
                    let conn = self.next_conn;
                    self.next_conn += 1;
                    self.conns.push(conn);
                    let tenant = ["a", "b", "c"][self.rng.gen_range(0..3usize)].to_string();
                    if self.rng.gen_bool(0.1) {
                        return None;
                    }
                    Event::Hello { conn, tenant }
                }
                8..=22 => {
                    let conn = self.pick(&live)?;
                    let spec = match self.rng.gen_range(0..6) {
                        0 => spec(r#"{"x": {"uniform": [0.0, 1.0]}}"#, "grid", 0),
                        1 => spec("{oops", "random", 2),
                        2 => spec(r#"{"x": [1, 2]}"#, "random", 0),
                        3 | 4 => spec(GRID, "grid", 0),
                        _ => spec(r#"{"x": {"uniform": [0.0, 1.0]}}"#, "random", 4),
                    };
                    Event::Submit { conn, spec }
                }
                23..=27 => {
                    let conn = self.pick(&live)?;
                    Event::Status { conn, sweep: any_sweep, follow: self.rng.gen_bool(0.5) }
                }
                28..=31 => Event::Cancel { conn: self.pick(&live)?, sweep: any_sweep },
                32..=66 => {
                    let idle = sweeps(self, &|r| !r.waiting && !r.denied);
                    let sweep = self.pick(&idle)?;
                    self.want(sweep)
                }
                67..=81 => {
                    let busy = sweeps(self, &|r| r.in_flight > 0);
                    let sweep = self.pick(&busy)?;
                    self.trial_done(sweep)
                }
                82..=91 => {
                    let drained = sweeps(self, &|r| !r.waiting && r.in_flight == 0);
                    let sweep = self.pick(&drained)?;
                    let (state, message) = match self.rng.gen_range(0..4) {
                        0 => (SWEEP_FAILED, "submission failed: boom".to_string()),
                        1 => (SWEEP_DONE, "2 epochs saved".to_string()),
                        _ => (SWEEP_DONE, String::new()),
                    };
                    Event::SweepEnded { sweep, state, message }
                }
                92..=95 => Event::Closed { conn: self.pick(&live)? },
                96..=97 => Event::Tick,
                _ => return None,
            })
        }
    }

    const GRID: &str = r#"{"x": [1, 2, 3]}"#;

    fn spec(space_json: &str, algo: &str, trials: u32) -> SubmitSpec {
        let (space_json, algo) = (space_json.to_string(), algo.to_string());
        SubmitSpec { name: "s".to_string(), space_json, algo, trials, seed: 1, wave: 0 }
    }

    fn check_windows(h: &Harness) -> Result<(), TestCaseError> {
        if h.cfg.rate <= 0.0 {
            return Ok(());
        }
        for (tenant, times) in &h.grant_times {
            for i in 0..times.len() {
                for j in i..times.len() {
                    let allowed = h.burst() + h.cfg.rate * (times[j] - times[i]) as f64 / 1e6;
                    let n = (j - i + 1) as f64;
                    prop_assert!(
                        n <= allowed + 1e-9,
                        "{tenant}: {n} grants in {} µs, bucket allows {allowed}",
                        times[j] - times[i]
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random event sequences, with time advancing in small and large
        /// steps, keep every invariant of admission, the gate and the
        /// sweep lifecycle.
        #[test]
        fn random_event_sequences_keep_the_invariants(
            seed in any::<u64>(),
            max_active in 1usize..4,
            max_queued in 0usize..3,
            rate_pick in 0usize..4,
            burst in 1u32..4,
            quota in 0u64..12,
            steps in 50usize..400,
        ) {
            let rate = [0.0, 50.0, 400.0, 3000.0][rate_pick];
            let quota_trials = if quota < 6 { 0 } else { quota };
            let cfg = ServerConfig { max_active, max_queued, rate, burst: f64::from(burst), quota_trials };
            let mut h = Harness::new(cfg, seed);
            for step in 0..steps {
                let dt = match h.rng.gen_range(0..20) {
                    0 => h.rng.gen_range(0..2_000_000u64),
                    1..=5 => h.rng.gen_range(0..50_000),
                    _ => h.rng.gen_range(0..2_000),
                };
                let late = h.rng.gen_bool(0.2);
                h.advance(h.now + dt, late)?;
                if step == steps - steps / 8 && seed.is_multiple_of(2) {
                    h.step(Event::Stop)?;
                }
                if let Some(event) = h.random_event() {
                    h.step(event)?;
                }
            }
            check_windows(&h)?;
        }

        /// Two tenants whose sweeps always want a trial, under a token
        /// bucket: whenever the clock frees tokens for both, grants take
        /// turns between them.
        #[test]
        fn always_waiting_tenants_take_turns(
            seed in any::<u64>(),
            per_tenant in 1usize..4,
            burst in 1u32..5,
            rate_pick in 0usize..2,
            rounds in 10usize..60,
        ) {
            let rate = [50.0, 400.0][rate_pick];
            let cfg = ServerConfig { max_active: 8, max_queued: 0, rate, burst: f64::from(burst), quota_trials: 0 };
            let mut h = Harness::new(cfg, seed);
            for (conn, tenant) in [(0, "a"), (1, "b")] {
                h.conns.push(conn);
                h.step(Event::Hello { conn, tenant: tenant.to_string() })?;
                for _ in 0..per_tenant {
                    h.step(Event::Submit { conn, spec: spec(GRID, "grid", 0) })?;
                }
            }
            for _ in 0..rounds {
                let mut ids: Vec<SweepId> = h.runs.keys().copied().collect();
                ids.sort_unstable();
                for id in ids {
                    while h.runs[&id].in_flight > 0 {
                        let event = h.trial_done(id);
                        h.step(event)?;
                    }
                    if !h.runs[&id].waiting {
                        let event = h.want(id);
                        h.step(event)?;
                    }
                }
                let dt = h.rng.gen_range(0..(4e6 / rate) as u64);
                let late = h.rng.gen_bool(0.5);
                h.advance(h.now + dt, late)?;
                h.step(Event::Tick)?;
            }
            check_windows(&h)?;
        }
    }
}
