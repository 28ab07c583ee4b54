//! Runtime metrics: the live counterpart of the paratrace post-mortem trace.
//!
//! One [`RtMetrics`] lives in the runtime's [`crate::runtime::Shared`]
//! state, wrapping a per-runtime [`runmetrics::MetricsRegistry`] with
//! pre-registered handles for every series the runtime emits — registration
//! happens once at construction, so every series (the retry counter
//! included) is present in every snapshot from the first export on, and the
//! hot paths touch only lock-free handles. When the registry is disabled
//! each recording call is a single relaxed atomic load.
//!
//! Series, following the Dask-overheads decomposition of "where does
//! runtime time go":
//!
//! | series | kind | meaning |
//! |---|---|---|
//! | `rcompss_tasks_submitted_total` | counter | task instances submitted |
//! | `rcompss_tasks_dispatched_total` | counter | placements handed to a backend (includes retries) |
//! | `rcompss_tasks_completed_total` | counter | successful completions |
//! | `rcompss_tasks_retried_total` | counter | failed attempts re-queued by the retry policy |
//! | `rcompss_tasks_failed_total` | counter | permanent failures (incl. cascade) |
//! | `rcompss_task_attempts_failed_total` | counter | individual failed attempts |
//! | `rcompss_node_failures_total` | counter | node failures observed |
//! | `rcompss_transfer_bytes_total` | counter | bytes staged to nodes (sim backend) |
//! | `rcompss_ready_queue_depth` | gauge | ready tasks not yet placeable |
//! | `rcompss_running_tasks` | gauge | in-flight executions, counting tasks queued on a worker behind a running one |
//! | `rcompss_live_tasks` | gauge | submitted tasks that have not settled (settled ones are retired) |
//! | `rcompss_live_data_versions` | gauge | data versions the runtime still holds; idle, it equals the undeleted written handles |
//! | `rcompss_block_store_bytes` | gauge | encoded bytes in the driver's block store (distributed backend) |
//! | `rcompss_live_snapshot_bytes` | gauge | mid-task snapshot bytes held for unsettled tasks; idle, 0 |
//! | `rcompss_sched_decision_us` | histogram | real time per `pop_placeable` decision |
//! | `rcompss_dep_wait_us` | histogram | submission → dispatch wait per task |
//! | `rcompss_transfer_time_us` | histogram | staging transfer durations |
//! | `rcompss_task_latency_us{fn="…"}` | histogram | dispatch → completion per task function |
//! | `rcompss_workers_lost_total` | counter | remote workers declared dead, for good (distributed backend) |
//! | `rnet_bytes_sent_total` | counter | protocol bytes written to workers |
//! | `rnet_bytes_received_total` | counter | protocol bytes read from workers |
//! | `rcompss_node_tasks_completed_total{node="…"}` | counter | successful completions per remote worker (addr-labelled) |
//! | `rcompss_task_phase_us{phase="…"}` | histogram | per-phase attempt latency: queue/wire/exec/ship distributed, queue/wire/exec simulated, queue/exec threaded |
//! | `rnet_rtt_us{node="…"}` | gauge | best heartbeat round-trip time per worker |
//! | `rnet_clock_offset_us{node="…"}` | gauge | estimated worker−driver clock offset |
//! | `rnet_bytes_sent_total{node="…"}` | counter | protocol bytes written, per worker link |
//! | `rnet_bytes_received_total{node="…"}` | counter | protocol bytes read, per worker link |
//!
//! Workers additionally keep block-cache and task series in their
//! process-global registry, not the driver's: scrape the worker's
//! `--status-addr`.
//!
//! | series | kind | meaning |
//! |---|---|---|
//! | `worker_tasks_inline_total` | counter | jobs the worker's event loop ran itself instead of waking an executor: fast bodies on an otherwise idle connection |
//! | `rcompss_block_cache_hits_total` | counter | task inputs served from the local block cache |
//! | `rcompss_block_cache_misses_total` | counter | block-plane inputs that needed a transfer |
//! | `rcompss_block_cache_evictions_total` | counter | blocks pushed out by the `--cache-mem` budget |
//! | `rcompss_block_cache_resident_bytes` | gauge | decoded bytes currently cached |
//!
//! The `task_phase_us` phases decompose an attempt's life on the runtime's
//! clock, one sample per phase a backend can time, per attempt that reports
//! back (one killed with its node reports nothing). A backend hands its
//! report of an ended attempt to `runtime::complete_attempt` once, and every
//! sample — these, `task_latency_us` and the attempt's bars — is recorded
//! there, under the core lock: a waiter that sees a value ready sees them.
//!
//! | phase | distributed | simulated | threaded |
//! |---|---|---|---|
//! | **queue** | submission → dispatch, plus a task dispatched ahead's wait on the worker | submission → dispatch | submission → body start (dispatch plus the run queue) |
//! | **wire** | dispatch → worker decode of the submit | staging | — |
//! | **exec** | the body, on the worker's clock | the body's virtual duration | the body, wall time |
//! | **ship** | body return → driver applying the result | — | — |
//!
//! The exec time is also what the runtime keeps with every version the
//! attempt wrote, and what `Runtime::wait_on_timed` hands the waiter: an
//! HPO trial's `task_us` is its attempt's exec sample, not a second clock.
//!
//! On each backend the phases it has sum to the attempt's latency. The
//! distributed wire and ship cross clock domains and are rebased with the
//! heartbeat offset estimate, so they carry up to RTT/2 of noise — fine for
//! the "where does runtime time go" question they answer.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use runmetrics::{labeled, Counter, Gauge, Histogram, MetricsRegistry};

/// Pre-registered metric handles for one runtime.
pub(crate) struct RtMetrics {
    registry: Arc<MetricsRegistry>,
    /// Task instances submitted.
    pub submitted: Counter,
    /// Placements handed to a backend.
    pub dispatched: Counter,
    /// Successful completions.
    pub completed: Counter,
    /// Failed attempts re-queued by the retry policy.
    pub retried: Counter,
    /// Permanent failures.
    pub failed: Counter,
    /// Individual failed attempts.
    pub failed_attempts: Counter,
    /// Node failures observed.
    pub node_failures: Counter,
    /// Bytes staged to nodes.
    pub transfer_bytes: Counter,
    /// Remote workers declared dead (distributed backend).
    pub workers_lost: Counter,
    /// Protocol bytes written to remote workers.
    pub net_bytes_sent: Counter,
    /// Protocol bytes read from remote workers.
    pub net_bytes_received: Counter,
    /// Ready tasks not yet placeable.
    pub ready_depth: Gauge,
    /// In-flight executions.
    pub running: Gauge,
    /// Unsettled tasks.
    pub live_tasks: Gauge,
    /// Data versions held.
    pub live_versions: Gauge,
    /// Encoded bytes in the driver's block store.
    pub block_store_bytes: Gauge,
    /// Snapshot bytes held for unsettled tasks.
    pub live_snapshot_bytes: Gauge,
    /// Real time per scheduler placement decision.
    pub sched_decision: Histogram,
    /// Submission → dispatch wait.
    pub dep_wait: Histogram,
    /// Staging transfer durations.
    pub transfer_time: Histogram,
    /// Submission → dispatch wait plus the worker-side wait before the
    /// body starts, as a lifecycle phase.
    pub phase_queue: Histogram,
    /// Dispatch → worker submit-decode (driver timeline, offset-rebased).
    pub phase_wire: Histogram,
    /// Task body duration on the worker clock.
    pub phase_exec: Histogram,
    /// Body return → driver result application (offset-rebased).
    pub phase_ship: Histogram,
    /// Per-task-function latency handles, created on first completion of
    /// each function (cold path: runs under the runtime's core lock anyway).
    task_latency: Mutex<HashMap<String, Histogram>>,
    /// Per-worker completion counters, labelled by worker address
    /// (distributed backend; cold path, one insert per worker).
    node_tasks: Mutex<HashMap<String, Counter>>,
}

impl RtMetrics {
    /// Build a registry with every fixed series pre-registered.
    pub fn new(enabled: bool) -> Self {
        let registry = Arc::new(MetricsRegistry::new(enabled));
        RtMetrics {
            submitted: registry.counter("rcompss_tasks_submitted_total"),
            dispatched: registry.counter("rcompss_tasks_dispatched_total"),
            completed: registry.counter("rcompss_tasks_completed_total"),
            retried: registry.counter("rcompss_tasks_retried_total"),
            failed: registry.counter("rcompss_tasks_failed_total"),
            failed_attempts: registry.counter("rcompss_task_attempts_failed_total"),
            node_failures: registry.counter("rcompss_node_failures_total"),
            transfer_bytes: registry.counter("rcompss_transfer_bytes_total"),
            workers_lost: registry.counter("rcompss_workers_lost_total"),
            net_bytes_sent: registry.counter("rnet_bytes_sent_total"),
            net_bytes_received: registry.counter("rnet_bytes_received_total"),
            ready_depth: registry.gauge("rcompss_ready_queue_depth"),
            running: registry.gauge("rcompss_running_tasks"),
            live_tasks: registry.gauge("rcompss_live_tasks"),
            live_versions: registry.gauge("rcompss_live_data_versions"),
            block_store_bytes: registry.gauge("rcompss_block_store_bytes"),
            live_snapshot_bytes: registry.gauge("rcompss_live_snapshot_bytes"),
            sched_decision: registry.histogram("rcompss_sched_decision_us"),
            dep_wait: registry.histogram("rcompss_dep_wait_us"),
            transfer_time: registry.histogram("rcompss_transfer_time_us"),
            phase_queue: registry.histogram(&labeled("rcompss_task_phase_us", "phase", "queue")),
            phase_wire: registry.histogram(&labeled("rcompss_task_phase_us", "phase", "wire")),
            phase_exec: registry.histogram(&labeled("rcompss_task_phase_us", "phase", "exec")),
            phase_ship: registry.histogram(&labeled("rcompss_task_phase_us", "phase", "ship")),
            task_latency: Mutex::new(HashMap::new()),
            node_tasks: Mutex::new(HashMap::new()),
            registry,
        }
    }

    /// Whether recording is on (one relaxed load — the gate callers use
    /// before paying for `Instant::now()` timing).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.registry.enabled()
    }

    /// The underlying registry, for snapshots/exports.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Record a completed execution of task function `fn_name`.
    pub fn record_task_latency(&self, fn_name: &str, us: u64) {
        if !self.registry.enabled() {
            return;
        }
        let mut cache = self.task_latency.lock();
        // Look up before building a key: only a function's first
        // completion allocates.
        if let Some(h) = cache.get(fn_name) {
            h.record(us);
            return;
        }
        let h = self.registry.histogram(&labeled("rcompss_task_latency_us", "fn", fn_name));
        h.record(us);
        cache.insert(fn_name.to_string(), h);
    }

    /// Count a successful remote execution, one whose outputs were stored,
    /// against its worker's addr-labelled series — the per-node lane the
    /// dashboard renders.
    pub fn record_node_task(&self, node_label: &str) {
        if !self.registry.enabled() {
            return;
        }
        let mut cache = self.node_tasks.lock();
        if let Some(c) = cache.get(node_label) {
            c.incr();
            return;
        }
        let c = self.registry.counter(&labeled(
            "rcompss_node_tasks_completed_total",
            "node",
            node_label,
        ));
        c.incr();
        cache.insert(node_label.to_string(), c);
    }

    /// Set a per-worker gauge, e.g. `set_node_gauge("rnet_rtt_us", label,
    /// rtt as f64)` — the clock-sync lanes.
    pub fn set_node_gauge(&self, base: &str, node_label: &str, value: f64) {
        if !self.registry.enabled() {
            return;
        }
        self.registry.gauge(&labeled(base, "node", node_label)).set(value);
    }
}

impl std::fmt::Debug for RtMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtMetrics").field("enabled", &self.enabled()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_series_are_preregistered_at_zero() {
        let m = RtMetrics::new(true);
        let snap = m.registry().snapshot();
        for series in [
            "rcompss_tasks_submitted_total",
            "rcompss_tasks_dispatched_total",
            "rcompss_tasks_completed_total",
            "rcompss_tasks_retried_total",
            "rcompss_tasks_failed_total",
            "rcompss_task_attempts_failed_total",
            "rcompss_node_failures_total",
            "rcompss_transfer_bytes_total",
            "rcompss_workers_lost_total",
            "rnet_bytes_sent_total",
            "rnet_bytes_received_total",
        ] {
            assert_eq!(snap.counter(series), Some(0), "{series} missing");
        }
        for series in [
            "rcompss_ready_queue_depth",
            "rcompss_running_tasks",
            "rcompss_live_tasks",
            "rcompss_live_data_versions",
            "rcompss_block_store_bytes",
            "rcompss_live_snapshot_bytes",
        ] {
            assert_eq!(snap.gauge(series), Some(0.0), "{series} missing");
        }
        assert!(snap.histogram("rcompss_sched_decision_us").is_some());
        assert!(snap.histogram("rcompss_dep_wait_us").is_some());
        assert!(
            snap.histogram("rnet_rpc_latency_us").is_none(),
            "retired: task_latency_us times it"
        );
        for phase in ["queue", "wire", "exec", "ship"] {
            let series = labeled("rcompss_task_phase_us", "phase", phase);
            assert!(snap.histogram(&series).is_some(), "{series} missing");
        }
    }

    #[test]
    fn node_gauges_are_labelled_and_latest_wins() {
        let m = RtMetrics::new(true);
        m.set_node_gauge("rnet_rtt_us", "w0@h:1", 450.0);
        m.set_node_gauge("rnet_rtt_us", "w0@h:1", 120.0);
        m.set_node_gauge("rnet_clock_offset_us", "w0@h:1", -3000.0);
        let snap = m.registry().snapshot();
        assert_eq!(snap.gauge(&labeled("rnet_rtt_us", "node", "w0@h:1")), Some(120.0));
        assert_eq!(snap.gauge(&labeled("rnet_clock_offset_us", "node", "w0@h:1")), Some(-3000.0));
    }

    #[test]
    fn node_task_counter_is_labelled_per_worker() {
        let m = RtMetrics::new(true);
        m.record_node_task("127.0.0.1:7077");
        m.record_node_task("127.0.0.1:7077");
        m.record_node_task("127.0.0.1:7078");
        let snap = m.registry().snapshot();
        let series = labeled("rcompss_node_tasks_completed_total", "node", "127.0.0.1:7077");
        assert_eq!(snap.counter(&series), Some(2));
        let series = labeled("rcompss_node_tasks_completed_total", "node", "127.0.0.1:7078");
        assert_eq!(snap.counter(&series), Some(1));
    }

    #[test]
    fn task_latency_creates_one_series_per_function() {
        let m = RtMetrics::new(true);
        m.record_task_latency("graph.experiment", 100);
        m.record_task_latency("graph.experiment", 200);
        m.record_task_latency("other", 1);
        let snap = m.registry().snapshot();
        let s = snap
            .histogram(&labeled("rcompss_task_latency_us", "fn", "graph.experiment"))
            .expect("per-fn series exists");
        assert_eq!(s.count, 2);
        assert_eq!(
            snap.histogram(&labeled("rcompss_task_latency_us", "fn", "other")).unwrap().count,
            1
        );
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let m = RtMetrics::new(false);
        m.submitted.incr();
        m.record_task_latency("x", 5);
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("rcompss_tasks_submitted_total"), Some(0));
        assert!(snap.histogram(&labeled("rcompss_task_latency_us", "fn", "x")).is_none());
    }
}
