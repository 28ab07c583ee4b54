//! Simulated backend: deterministic discrete-event execution.
//!
//! Task bodies still run (so the values flowing through the graph are real),
//! but they run at *virtual* timestamps: a task placed at virtual time `t`
//! first pays data-staging time (per the cluster's transfer model, zero
//! under a PFS), then occupies its cores for its submitted
//! `sim_duration_us`, and completes at `t + staging + duration`. Node
//! failures fire as scheduled events, killing and requeueing the tasks that
//! were running there — exactly the scenario of the paper's fault-tolerance
//! discussion.

use std::collections::HashMap;
use std::sync::Arc;

use cluster::transfer::DataLocation;
use cluster::EventQueue;
use paratrace::{CoreId, EventKind, StateKind, TaskRef};

use crate::data::Value;
use crate::runtime::{complete_attempt, emit_attempt_spans, place_ready, Core, Shared};
use crate::task::{run_body, TaskContext, TaskError, TaskFn};

#[derive(Debug)]
enum SimEvent {
    Finish { exec: u64 },
    NodeFail { node: u32 },
}

/// Pending body + inputs for an in-flight simulated execution.
struct SimExec {
    ctx: TaskContext,
    body: Arc<TaskFn>,
    inputs: Vec<Value>,
    name: Arc<str>,
}

/// Virtual-time state of the simulated backend.
pub(crate) struct SimState {
    queue: EventQueue<SimEvent>,
    execs: HashMap<u64, SimExec>,
}

impl SimState {
    /// Fresh state at virtual time zero.
    pub fn new() -> Self {
        SimState { queue: EventQueue::new(), execs: HashMap::new() }
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
            SimEvent::Finish { exec } => {
                let Some(se) = core.sim.as_mut().expect("sim state").execs.remove(&exec) else {
                    continue; // execution was killed by a node failure
                };
                let Some(run) = core.running.get(&exec) else { continue };
                let task_ref = TaskRef::new(se.ctx.task.0, se.name);
                emit_attempt_spans(shared, &run.placement, task_ref, run.start_us, t, false);
                let result = run_body(&*se.body, &se.ctx, &se.inputs);
                complete_attempt(shared, core, exec, result, t, false);
            }
            SimEvent::NodeFail { node } => {
                core.sched.kill_node(node);
                shared.metrics.node_failures.incr();
                shared.trace.event(CoreId::new(node, 0), t, EventKind::NodeFailure);
                let victims: Vec<u64> = core
                    .running
                    .iter()
                    .filter(|(_, r)| r.placement.involves(node))
                    .map(|(&e, _)| e)
                    .collect();
                for exec in victims {
                    let se = core.sim.as_mut().expect("sim state").execs.remove(&exec);
                    // Truncated run bar so the kill is visible in traces.
                    if let (Some(se), Some(run)) = (se, core.running.get(&exec)) {
                        let task_ref = TaskRef::new(se.ctx.task.0, se.name);
                        emit_attempt_spans(shared, &run.placement, task_ref, run.start_us, t, true);
                    }
                    complete_attempt(
                        shared,
                        core,
                        exec,
                        Err(TaskError::new(format!("node {node} failed"))),
                        t,
                        true,
                    );
                }
            }
        }
    }
}

/// Place every placeable ready task at the current virtual time.
fn dispatch_sim(shared: &Shared, core: &mut Core) {
    // Locality: prefer nodes already holding the inputs (only relevant
    // without a PFS).
    let use_locality = !shared.transfer.has_pfs();
    place_ready(
        shared,
        core,
        |data, instances, task, node| {
            if use_locality {
                data.locality_score(&instances[&task].reads(), node)
            } else {
                0
            }
        },
        |core, placed| {
            let (now, placement) = (placed.now_us, &placed.placement);
            let inst = &core.instances[&placed.task];
            let reads = inst.reads();
            let inputs: Vec<Value> =
                reads.iter().map(|v| core.data.get(*v).expect("inputs computed")).collect();
            let name = Arc::clone(&inst.def.name);
            let body = inst.body(placement.variant);
            let duration = inst.sim_duration_us;

            // Staging: pay transfer time for inputs not resident on the node.
            let mut staging = 0u64;
            for v in &reads {
                if core.data.is_on_node(*v, placement.node) {
                    continue;
                }
                let bytes = core.data.bytes(v.handle);
                let t = shared.transfer.time_to_node(bytes, DataLocation::Pfs, placement.node);
                if t > 0 {
                    shared.trace.state(
                        placement.lead_core(),
                        now + staging,
                        now + staging + t,
                        StateKind::Transferring { bytes },
                    );
                    shared.metrics.transfer_bytes.add(bytes);
                    shared.metrics.transfer_time.record(t);
                }
                staging += t;
                core.data.add_location(*v, placement.node);
            }
            // The attempt occupies its cores once its inputs have arrived.
            core.running.get_mut(&placed.exec_id).expect("just placed").start_us = now + staging;

            shared.trace.event(
                placement.lead_core(),
                now,
                EventKind::TaskDispatch(TaskRef::new(placed.task.0, Arc::clone(&name))),
            );
            let ctx = TaskContext::placed(placed.task, placed.attempt, placement, true);
            let sim = core.sim.as_mut().expect("sim state");
            sim.execs.insert(placed.exec_id, SimExec { ctx, body, inputs, name });
            sim.queue.schedule_at(
                now + staging + duration.max(1),
                SimEvent::Finish { exec: placed.exec_id },
            );
        },
    );
}
