//! Simulated backend: deterministic discrete-event execution.
//!
//! Task bodies still run (so the values flowing through the graph are real),
//! but they run at *virtual* timestamps: a task placed at virtual time `t`
//! first pays data-staging time (per the cluster's transfer model, zero
//! under a PFS), then occupies its cores for its submitted
//! `sim_duration_us`, and completes at `t + staging + duration`. Node
//! failures fire as scheduled events and take the runtime's one node-loss
//! path, `lose_node` — the scenario of the paper's fault-tolerance
//! discussion.

use std::sync::Arc;

use cluster::transfer::DataLocation;
use cluster::EventQueue;
use paratrace::StateKind;

use crate::data::{DataVersion, Value};
use crate::runtime::{complete_attempt, lose_node, place_ready, Core, Report, Shared};
use crate::task::{run_body, TaskContext, TaskFn};

/// `Finish` ends an exec's body, which runs then unless the exec has left
/// `Core::running` (killed with its node) by the time it fires.
enum SimEvent {
    Finish { exec: u64, job: SimExec },
    NodeFail { node: u32 },
}

/// Pending body + inputs for an in-flight simulated execution.
struct SimExec {
    ctx: TaskContext,
    body: Arc<TaskFn>,
    inputs: Vec<Value>,
    /// When the body starts occupying its cores: dispatch plus staging.
    start_us: u64,
    staging_us: u64,
}

/// Virtual-time state of the simulated backend.
pub(crate) struct SimState {
    queue: EventQueue<SimEvent>,
}

impl SimState {
    /// Fresh state at virtual time zero.
    pub fn new() -> Self {
        SimState { queue: EventQueue::new() }
    }

    /// Current virtual time, µs.
    pub fn now(&self) -> u64 {
        self.queue.now()
    }

    /// Pre-register a node failure from the injector plan.
    pub fn schedule_node_failure(&mut self, at_us: u64, node: u32) {
        self.queue.schedule_at(at_us, SimEvent::NodeFail { node });
    }
}

/// Drive the simulation until `cond` holds (or nothing can change anymore).
/// Call with the core locked; single-threaded.
pub(crate) fn run_until(shared: &Shared, core: &mut Core, cond: impl Fn(&Core) -> bool) {
    loop {
        if cond(core) {
            return;
        }
        dispatch_sim(shared, core);
        let popped = core.sim.as_mut().expect("sim backend has sim state").queue.pop();
        let Some((t, event)) = popped else {
            // No pending events and nothing placeable: state is final.
            return;
        };
        match event {
            SimEvent::Finish { exec, job } => {
                if !core.running.contains_key(&exec) {
                    continue; // execution was killed by a node failure
                }
                let result = run_body(&*job.body, &job.ctx, &job.inputs).map(Vec::into_iter);
                let report = Report {
                    span: Some((job.start_us, t)),
                    // Staging is the simulated wire.
                    wire_us: Some(job.staging_us),
                    exec_us: Some(t - job.start_us),
                    ..Report::default()
                };
                complete_attempt(shared, core, exec, result, report, t, false);
            }
            SimEvent::NodeFail { node } => lose_node(shared, core, node, t),
        }
    }
}

/// Place every placeable ready task at the current virtual time.
fn dispatch_sim(shared: &Shared, core: &mut Core) {
    // Locality: prefer nodes with the fewest input bytes to move (only
    // relevant without a PFS).
    let use_locality = !shared.transfer.has_pfs();
    place_ready(
        shared,
        core,
        |data, instances, task, node| {
            use_locality.then(|| data.transfer_score(instances[&task].reads(), node))
        },
        |core, placed| {
            let now = placed.now_us;
            let placement = core.running[&placed.exec_id].placement.clone();
            let inst = &core.instances[&placed.task];
            let reads: Vec<DataVersion> = inst.reads().collect();
            let inputs: Vec<Value> =
                reads.iter().map(|v| core.data.get(*v).expect("inputs computed")).collect();
            let body = inst.body(placement.variant);
            let duration = inst.sim_duration_us;

            // Staging: pay transfer time for inputs not resident on the node.
            let mut staging_us = 0u64;
            for v in &reads {
                if core.data.is_on_node(*v, placement.node) {
                    continue;
                }
                let bytes = core.data.bytes(v.handle);
                let t = shared.transfer.time_to_node(bytes, DataLocation::Pfs, placement.node);
                if t > 0 {
                    shared.trace.state(
                        placement.lead_core(),
                        now + staging_us,
                        now + staging_us + t,
                        StateKind::Transferring { bytes },
                    );
                    shared.metrics.transfer_bytes.add(bytes);
                    shared.metrics.transfer_time.record(t);
                }
                staging_us += t;
                core.data.add_location(*v, placement.node);
            }
            // The body occupies its cores once its inputs have arrived.
            let start_us = now + staging_us;
            let ctx = TaskContext::placed(placed.task, inst.attempt, &placement);
            let job = SimExec { ctx, body, inputs, start_us, staging_us };
            let finish = SimEvent::Finish { exec: placed.exec_id, job };
            let sim = core.sim.as_mut().expect("sim state");
            sim.queue.schedule_at(start_us + duration.max(1), finish);
        },
    );
}
