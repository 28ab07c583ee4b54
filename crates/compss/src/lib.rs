//! `rcompss` — a task-based programming model and runtime, the Rust analogue
//! of [PyCOMPSs/COMPSs] that the paper builds its HPO scheme on.
//!
//! The programming model mirrors the paper's §3:
//!
//! * **tasks** are registered functions with resource *constraints*
//!   (`@task` + `@constraint` decorators → [`Runtime::register`] +
//!   [`task::Constraint`]);
//! * parameters carry *directions* (IN / OUT / INOUT) from which the runtime
//!   builds a **dynamic data-dependency graph** at execution time
//!   ([`graph`]), with versioned data items rendered `dNvM` exactly like the
//!   paper's Figure 3;
//! * execution is **asynchronous**: submitting returns future-like
//!   [`data::DataHandle`]s, and [`Runtime::wait_on`] is the paper's
//!   `compss_wait_on` synchronisation point;
//! * the runtime holds **only what is live**: a settled task is retired, a
//!   data version goes once it is renamed past or its handle was given up
//!   with [`Runtime::delete`] (the paper's `compss_delete_object`) and no
//!   submitted task or `wait_on` still uses it;
//! * the **scheduler** places ready tasks on available computing units,
//!   enforcing CPU/GPU affinity (each running task owns an explicit set of
//!   core ids — no two concurrent tasks share one), choosing among a task's
//!   `@implement` variants ([`TaskDef::variant`]) and spanning `@multinode`
//!   nodes; however an attempt ends, it gives back exactly what its
//!   placement took, on every node still alive;
//! * **fault tolerance** replays the paper's policy: a failed task is
//!   retried on the same node first, then restarted on a different node
//!   ([`fault`]);
//! * the runtime keeps **each task fact once**: the definition holds its
//!   variants, a function record (interned once per runtime) its fast
//!   streak and latency series, a placement what its attempt holds, the
//!   graph its edges and unmet counts, and the set of live instances which
//!   tasks are unsettled;
//! * the runtime is instrumented with `paratrace` (the Extrae analogue) and
//!   can export the task graph as Graphviz DOT;
//! * the runtime keeps **live metrics** (`runmetrics`): lock-free counters,
//!   queue-depth gauges and latency histograms covering submission,
//!   scheduling decisions, dependency waits, per-function task latency and
//!   retries — snapshot via [`Runtime::metrics`], export as Prometheus text
//!   or JSON lines. Like tracing, metrics toggle with a config flag and
//!   cost one relaxed atomic load per call site when off.
//!
//! Two execution backends share all of the above:
//!
//! * [`backend::threaded`] — a real thread pool providing genuine intra-node
//!   parallelism; used when tasks do real work (training actual models).
//! * [`backend::sim`] — a deterministic discrete-event backend over the
//!   `cluster` crate's virtual clusters; used to reproduce the paper's
//!   multi-node experiments (Figures 4–6, 9) at MareNostrum scale on a
//!   laptop.
//! * [`backend::distributed`] — real execution on remote worker daemons
//!   over TCP via the `rnet` wire protocol: the driver ships task inputs to
//!   [`backend::distributed::WorkerServer`] processes, coalesces submits
//!   per worker, detects dead workers by heartbeat, and
//!   replays their in-flight tasks on the survivors. Values cross the wire
//!   through the [`codec`] registry; workers resolve task names through a
//!   shared [`registry::TaskRegistry`].
//!
//! [PyCOMPSs/COMPSs]: https://compss.bsc.es
//!
//! # Example
//!
//! ```
//! use rcompss::{ArgSpec, Constraint, Runtime, RuntimeConfig, Value};
//!
//! let rt = Runtime::threaded(RuntimeConfig::single_node(4));
//! let double = rt.register("double", Constraint::cpus(1), 1, |_ctx, inputs| {
//!     let x: i64 = *inputs[0].downcast_ref::<i64>().unwrap();
//!     Ok(vec![Value::new(x * 2)])
//! });
//! let input = rt.literal(21i64);
//! let out = rt.submit(&double, vec![ArgSpec::In(input)]).unwrap();
//! let result = rt.wait_on(&out.returns[0]).unwrap();
//! assert_eq!(*result.downcast_ref::<i64>().unwrap(), 42);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub(crate) mod blocks;
pub mod codec;
pub mod data;
pub mod fault;
pub mod graph;
pub(crate) mod ids;
pub(crate) mod metrics;
pub mod registry;
pub mod runtime;
pub mod scheduler;
pub mod snapshot;
pub mod task;

pub use backend::distributed::{
    connect_workers, DistributedConfig, WorkerBootstrap, WorkerConfig, WorkerHandle, WorkerServer,
};
pub use blocks::content_hash;
pub use codec::register_codec;
pub use data::{DataHandle, DataVersion, Value};
pub use fault::RetryPolicy;
pub use registry::TaskRegistry;
pub use runtime::{
    Runtime, RuntimeConfig, RuntimeStats, SubmitError, SubmitOpts, SubmitResult, WaitError,
};
pub use task::{ArgSpec, Constraint, Direction, TaskContext, TaskDef, TaskError, TaskId};
