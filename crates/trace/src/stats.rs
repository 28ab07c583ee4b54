//! Quantitative trace analysis.
//!
//! Paraver's value is the quantitative analysis it allows ("a powerful tool
//! that provides detailed quantitative analysis of program performance");
//! this module computes the numbers the paper reads off the timelines:
//! makespan, per-core busy time, how many tasks started immediately versus
//! waited for a freed resource, and the parallelism profile over time.

use std::collections::BTreeMap;

use crate::record::{CoreId, EventKind, Record, StateKind};

/// Aggregated statistics over a trace snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Latest interval/event end in the trace (µs).
    pub makespan: u64,
    /// Number of distinct task instances that ran.
    pub tasks_run: usize,
    /// Number of task dispatch events observed.
    pub dispatches: usize,
    /// Number of task failure events observed.
    pub failures: usize,
    /// Busy (Running) time per core (µs).
    pub busy_per_core: BTreeMap<CoreId, u64>,
    /// Total Running time across all cores (µs).
    pub total_busy: u64,
    /// Peak number of simultaneously running *task instances* (a task
    /// spanning many cores counts once).
    pub peak_parallelism: usize,
    /// Peak number of simultaneously busy cores.
    pub peak_busy_cores: usize,
}

impl TraceStats {
    /// Compute statistics from a record snapshot.
    pub fn compute(records: &[Record]) -> Self {
        let mut makespan = 0u64;
        let mut busy_per_core: BTreeMap<CoreId, u64> = BTreeMap::new();
        let mut task_ids = std::collections::BTreeSet::new();
        let mut dispatches = 0usize;
        let mut failures = 0usize;
        let mut core_deltas: Vec<(u64, i64)> = Vec::new();
        // A task on N cores emits N identical intervals; count the task once.
        let mut task_intervals = std::collections::BTreeSet::new();

        for r in records {
            makespan = makespan.max(r.end_time());
            match r {
                Record::State { core, start, end, state: StateKind::Running(t) } => {
                    *busy_per_core.entry(*core).or_insert(0) += end - start;
                    task_ids.insert(t.id);
                    core_deltas.push((*start, 1));
                    core_deltas.push((*end, -1));
                    task_intervals.insert((t.id, *start, *end));
                }
                Record::Event { kind: EventKind::TaskDispatch(_), .. } => dispatches += 1,
                Record::Event { kind: EventKind::TaskFailure { .. }, .. } => failures += 1,
                _ => {}
            }
        }

        // Parallelism profiles: sweep start/end deltas. Ends sort before
        // starts at equal times so back-to-back intervals don't double-count.
        let sweep = |mut deltas: Vec<(u64, i64)>| -> usize {
            deltas.sort_by_key(|&(t, d)| (t, d));
            let mut cur = 0i64;
            let mut peak = 0i64;
            for (_, d) in deltas {
                cur += d;
                peak = peak.max(cur);
            }
            peak as usize
        };
        let task_deltas: Vec<(u64, i64)> =
            task_intervals.iter().flat_map(|&(_, s, e)| [(s, 1i64), (e, -1i64)]).collect();

        let total_busy = busy_per_core.values().sum();
        TraceStats {
            makespan,
            tasks_run: task_ids.len(),
            dispatches,
            failures,
            busy_per_core,
            total_busy,
            peak_parallelism: sweep(task_deltas),
            peak_busy_cores: sweep(core_deltas),
        }
    }

    /// Fraction of core-time spent running tasks, over `cores` cores.
    ///
    /// This is the "better utilisation of resources" metric the paper uses to
    /// argue the 14-node run beats the 28-node run.
    pub fn utilisation(&self, cores: usize) -> f64 {
        if self.makespan == 0 || cores == 0 {
            return 0.0;
        }
        self.total_busy as f64 / (self.makespan as f64 * cores as f64)
    }

    /// Number of distinct cores that ever ran a task.
    pub fn cores_used(&self) -> usize {
        self.busy_per_core.len()
    }

    /// Number of tasks whose first Running interval starts within
    /// `window_us` of the trace start — "24 tasks were started at the same
    /// time" in Figure 5's analysis.
    pub fn tasks_started_within(records: &[Record], window_us: u64) -> usize {
        let mut firsts: BTreeMap<u64, u64> = BTreeMap::new();
        for r in records {
            if let Record::State { start, state: StateKind::Running(t), .. } = r {
                let e = firsts.entry(t.id).or_insert(u64::MAX);
                *e = (*e).min(*start);
            }
        }
        firsts.values().filter(|&&t| t <= window_us).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TaskRef;

    fn run(core: CoreId, start: u64, end: u64, id: u64) -> Record {
        Record::State { core, start, end, state: StateKind::Running(TaskRef::new(id, "t")) }
    }

    #[test]
    fn stats_on_simple_trace() {
        let records = vec![
            run(CoreId::new(0, 0), 0, 100, 1),
            run(CoreId::new(0, 1), 20, 60, 2),
            Record::Event {
                core: CoreId::new(0, 0),
                time: 0,
                kind: EventKind::TaskDispatch(TaskRef::new(1, "t")),
            },
        ];
        let s = TraceStats::compute(&records);
        assert_eq!(s.makespan, 100);
        assert_eq!(s.tasks_run, 2);
        assert_eq!(s.dispatches, 1);
        assert_eq!(s.failures, 0);
        assert_eq!(s.total_busy, 140);
        assert_eq!(s.peak_parallelism, 2);
        assert_eq!(s.peak_busy_cores, 2);
        assert_eq!(s.cores_used(), 2);
        assert!((s.utilisation(2) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn back_to_back_tasks_do_not_inflate_peak() {
        let records = vec![run(CoreId::new(0, 0), 0, 50, 1), run(CoreId::new(0, 0), 50, 100, 2)];
        let s = TraceStats::compute(&records);
        assert_eq!(s.peak_parallelism, 1);
        assert_eq!(s.peak_busy_cores, 1);
    }

    #[test]
    fn multicore_task_counts_once_for_parallelism() {
        // one task spanning 4 cores, concurrently with a 1-core task
        let records = vec![
            run(CoreId::new(0, 0), 0, 100, 1),
            run(CoreId::new(0, 1), 0, 100, 1),
            run(CoreId::new(0, 2), 0, 100, 1),
            run(CoreId::new(0, 3), 0, 100, 1),
            run(CoreId::new(0, 4), 10, 60, 2),
        ];
        let s = TraceStats::compute(&records);
        assert_eq!(s.peak_parallelism, 2, "two task instances");
        assert_eq!(s.peak_busy_cores, 5, "five busy cores");
        assert_eq!(s.tasks_run, 2);
    }

    #[test]
    fn tasks_started_within_window_counts_first_interval_only() {
        let records = vec![
            run(CoreId::new(0, 0), 0, 10, 1),
            run(CoreId::new(0, 1), 5, 15, 2),
            run(CoreId::new(0, 2), 500, 600, 3),
            // task 1 retried later must not count twice
            run(CoreId::new(0, 3), 700, 710, 1),
        ];
        assert_eq!(TraceStats::tasks_started_within(&records, 10), 2);
        assert_eq!(TraceStats::tasks_started_within(&records, 1000), 3);
    }

    #[test]
    fn utilisation_handles_degenerate_inputs() {
        let s = TraceStats::compute(&[]);
        assert_eq!(s.utilisation(10), 0.0);
        assert_eq!(s.utilisation(0), 0.0);
        assert_eq!(s.makespan, 0);
    }

    #[test]
    fn failures_counted() {
        let records = vec![Record::Event {
            core: CoreId::new(0, 0),
            time: 5,
            kind: EventKind::TaskFailure { task: TaskRef::new(1, "t"), attempt: 1 },
        }];
        assert_eq!(TraceStats::compute(&records).failures, 1);
    }
}
