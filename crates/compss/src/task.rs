//! Task model: definitions, constraints, directions, contexts, errors.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::data::{DataHandle, Value};
use crate::scheduler::Placement;

/// Unique id of a submitted task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Resource constraint attached to a task definition — the paper's
/// `@constraint(processors=[{CPU: n}, {GPU: m}])` decorator, plus the
/// `@multinode` decorator via [`Constraint::nodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// CPU computing units required *per node*.
    pub cpus: u32,
    /// GPUs required *per node*.
    pub gpus: u32,
    /// Memory required *per node*, GiB.
    pub mem_gib: u32,
    /// Number of nodes the task spans (`@multinode`; 1 = ordinary task).
    pub nodes: u32,
}

impl Constraint {
    /// `cpus` CPU units on one node, nothing else.
    pub fn cpus(cpus: u32) -> Self {
        Constraint { cpus, gpus: 0, mem_gib: 0, nodes: 1 }
    }

    /// A multi-node task: `nodes` nodes × `cpus_per_node` CPU units — the
    /// paper's `@multinode` decorator (MPI-style allocations).
    ///
    /// # Panics
    /// Panics if `nodes` is zero.
    pub fn multinode(nodes: u32, cpus_per_node: u32) -> Self {
        assert!(nodes >= 1, "a task spans at least one node");
        Constraint { cpus: cpus_per_node, gpus: 0, mem_gib: 0, nodes }
    }

    /// Add a per-node GPU requirement (chainable).
    pub fn with_gpus(mut self, gpus: u32) -> Self {
        self.gpus = gpus;
        self
    }

    /// Add a per-node memory requirement (chainable).
    pub fn with_mem_gib(mut self, mem: u32) -> Self {
        self.mem_gib = mem;
        self
    }
}

impl Default for Constraint {
    /// One CPU, the PyCOMPSs default.
    fn default() -> Self {
        Constraint::cpus(1)
    }
}

/// Parameter direction — the paper's IN / OUT / INOUT hints from which the
/// runtime infers dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Read-only input (the PyCOMPSs default).
    In,
    /// Write-only output.
    Out,
    /// Read-modify-write.
    InOut,
}

/// One argument of a task submission.
#[derive(Debug, Clone)]
pub enum ArgSpec {
    /// Read the handle's current version.
    In(DataHandle),
    /// Read the current version, produce the next one.
    InOut(DataHandle),
    /// Produce the handle's next version without reading.
    Out(DataHandle),
}

impl ArgSpec {
    /// The direction of this argument.
    pub fn direction(&self) -> Direction {
        match self {
            ArgSpec::In(_) => Direction::In,
            ArgSpec::InOut(_) => Direction::InOut,
            ArgSpec::Out(_) => Direction::Out,
        }
    }

    /// The data handle this argument refers to.
    pub fn handle(&self) -> DataHandle {
        match self {
            ArgSpec::In(h) | ArgSpec::InOut(h) | ArgSpec::Out(h) => *h,
        }
    }
}

/// Error raised by a task body (or synthesised from a panic / injected
/// failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Human-readable reason.
    pub message: String,
}

impl TaskError {
    /// Build from any displayable reason.
    pub fn new(message: impl Into<String>) -> Self {
        TaskError { message: message.into() }
    }
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task error: {}", self.message)
    }
}

impl std::error::Error for TaskError {}

/// Execution context handed to a running task body.
///
/// Carries the placement decisions so a task can verify (and tests assert)
/// the affinity guarantees the paper demonstrates in Figure 4.
#[derive(Debug, Clone)]
pub struct TaskContext {
    /// The task instance id.
    pub task: TaskId,
    /// 1-based execution attempt.
    pub attempt: u32,
    /// Node the task was placed on.
    pub node: u32,
    /// Exact CPU core ids owned on the primary node.
    pub cores: Vec<u32>,
    /// Exact GPU ids owned on the primary node.
    pub gpus: Vec<u32>,
    /// Additional nodes of a `@multinode` allocation (empty otherwise).
    pub peer_nodes: Vec<u32>,
    /// Whether this is a simulated execution (virtual time).
    pub simulated: bool,
}

impl TaskContext {
    /// The context of `attempt` of `task` running on `placement`.
    pub(crate) fn placed(
        task: TaskId,
        attempt: u32,
        placement: &Placement,
        simulated: bool,
    ) -> TaskContext {
        TaskContext {
            task,
            attempt,
            node: placement.node,
            cores: placement.cores.clone(),
            gpus: placement.gpus.clone(),
            peer_nodes: placement.extra.iter().map(|(n, _, _)| *n).collect(),
            simulated,
        }
    }

    /// The intra-task degree of parallelism this placement grants: the
    /// number of CPU cores owned on the primary node (at least 1).
    ///
    /// Task bodies that can exploit multiple cores — the paper's Figure 5/9
    /// training tasks with `@constraint(computing_units=N)` — should size
    /// their worker pools from this value, so the cores the scheduler
    /// reserved are actually used rather than merely blocked. The HPO
    /// runner feeds it to `tinyml::par::with_threads` around each
    /// objective call.
    pub fn parallelism(&self) -> usize {
        self.cores.len().max(1)
    }
}

/// The task body signature.
pub type TaskFn = dyn Fn(&TaskContext, &[Value]) -> Result<Vec<Value>, TaskError> + Send + Sync;

/// Run a task body. A panic becomes a failed attempt carrying the payload
/// text: a crashing training script must not take the runtime (or a worker
/// daemon) down, it must trigger the retry policy.
pub(crate) fn run_body(
    body: &TaskFn,
    ctx: &TaskContext,
    inputs: &[Value],
) -> Result<Vec<Value>, TaskError> {
    catch_unwind(AssertUnwindSafe(|| body(ctx, inputs)))
        .unwrap_or_else(|p| Err(TaskError::new(panic_message(p))))
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("task panicked: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("task panicked: {s}")
    } else {
        "task panicked".to_string()
    }
}

/// An alternative implementation of a task — the paper's `@implement`
/// decorator: "declare multiple implementations for the same task (this
/// decorator allows the runtime to choose the most appropriate task
/// considering the resources)".
#[derive(Clone)]
pub struct TaskVariant {
    /// Resource constraint of this implementation.
    pub constraint: Constraint,
    /// Its body.
    pub body: Arc<TaskFn>,
}

impl fmt::Debug for TaskVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskVariant").field("constraint", &self.constraint).finish_non_exhaustive()
    }
}

/// A registered task definition — the result of decorating a function with
/// `@task` in the paper's Listing 2.
#[derive(Clone)]
pub struct TaskDef {
    /// Registration name, e.g. `"graph.experiment"`.
    pub name: Arc<str>,
    /// Resource constraint of the primary implementation.
    pub constraint: Constraint,
    /// Number of returned values (`@task(returns=n)`).
    pub returns: usize,
    /// Scheduler hint: place as soon as possible (`priority=True`).
    pub priority: bool,
    /// The primary body.
    pub body: Arc<TaskFn>,
    /// Alternative implementations (`@implement`), tried in order *after*
    /// the primary one when placing the task.
    pub alternatives: Vec<TaskVariant>,
}

impl fmt::Debug for TaskDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskDef")
            .field("name", &self.name)
            .field("constraint", &self.constraint)
            .field("returns", &self.returns)
            .field("priority", &self.priority)
            .finish_non_exhaustive()
    }
}

impl TaskDef {
    /// Mark this definition as high priority (chainable), like the paper's
    /// `priority=True` hint.
    pub fn with_priority(mut self) -> Self {
        self.priority = true;
        self
    }

    /// Attach an alternative implementation (chainable) — the `@implement`
    /// decorator. The scheduler picks the first variant (primary first,
    /// then alternatives in attachment order) whose constraint the chosen
    /// node can satisfy right now.
    pub fn with_implementation(
        mut self,
        constraint: Constraint,
        body: impl Fn(&TaskContext, &[Value]) -> Result<Vec<Value>, TaskError> + Send + Sync + 'static,
    ) -> Self {
        self.alternatives.push(TaskVariant { constraint, body: Arc::new(body) });
        self
    }

    /// Constraints of every implementation, primary first.
    pub fn variant_constraints(&self) -> impl Iterator<Item = Constraint> + '_ {
        std::iter::once(self.constraint).chain(self.alternatives.iter().map(|v| v.constraint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_builder() {
        let c = Constraint::cpus(4).with_gpus(1).with_mem_gib(32);
        assert_eq!(c, Constraint { cpus: 4, gpus: 1, mem_gib: 32, nodes: 1 });
        assert_eq!(Constraint::default().cpus, 1);
        assert_eq!(Constraint::default().nodes, 1);
        let m = Constraint::multinode(4, 48);
        assert_eq!((m.nodes, m.cpus), (4, 48));
    }

    #[test]
    fn argspec_accessors() {
        let h = DataHandle::test_only(3);
        assert_eq!(ArgSpec::In(h).direction(), Direction::In);
        assert_eq!(ArgSpec::Out(h).direction(), Direction::Out);
        assert_eq!(ArgSpec::InOut(h).direction(), Direction::InOut);
        assert_eq!(ArgSpec::In(h).handle(), h);
    }

    #[test]
    fn context_parallelism_counts_primary_node_cores() {
        let mut ctx = TaskContext {
            task: TaskId(1),
            attempt: 1,
            node: 0,
            cores: vec![4, 5, 6, 7],
            gpus: vec![],
            peer_nodes: vec![],
            simulated: false,
        };
        assert_eq!(ctx.parallelism(), 4);
        ctx.cores.clear();
        assert_eq!(ctx.parallelism(), 1, "never zero even without explicit cores");
    }

    #[test]
    fn task_error_displays_reason() {
        let e = TaskError::new("boom");
        assert_eq!(e.to_string(), "task error: boom");
    }

    #[test]
    fn task_id_displays_compactly() {
        assert_eq!(TaskId(9).to_string(), "t9");
    }

    #[test]
    fn taskdef_debug_and_priority() {
        let def = TaskDef {
            name: "x".into(),
            constraint: Constraint::default(),
            returns: 1,
            priority: false,
            body: Arc::new(|_, _| Ok(vec![])),
            alternatives: Vec::new(),
        };
        assert!(!def.priority);
        let p = def.clone().with_priority();
        assert!(p.priority);
        let dbg = format!("{p:?}");
        assert!(dbg.contains("TaskDef") && dbg.contains("priority: true"));
    }
}
