//! Thread-safe trace collection.
//!
//! The runtime holds an `Arc<TraceCollector>` and reports every state change.
//! Mirroring the paper ("both tracing and graph generation create a
//! performance overhead. These two features can easily be turned off by a
//! simple flag"), the collector can be constructed disabled, in which case
//! recording is a single branch.
//!
//! When enabled, every record is pushed onto one locked buffer; snapshots
//! sort it, preserving the chronological contract downstream consumers
//! rely on.

use parking_lot::Mutex;

use crate::record::{CoreId, EventKind, Record, StateKind, TaskRef};

/// Accumulates trace records from any number of threads.
pub struct TraceCollector {
    enabled: bool,
    records: Mutex<Vec<Record>>,
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("enabled", &self.is_enabled())
            .field("records", &self.len())
            .finish()
    }
}

impl TraceCollector {
    /// A collector that records everything (`tracing` on) or drops
    /// everything (off), matching the paper's launch-time `--tracing`
    /// switch.
    pub fn with_flag(tracing: bool) -> Self {
        TraceCollector { enabled: tracing, records: Mutex::new(Vec::new()) }
    }

    /// Whether records are kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an arbitrary record.
    pub fn record(&self, record: Record) {
        if self.is_enabled() {
            self.records.lock().push(record);
        }
    }

    /// Record a state interval `[start, end)` on `core`.
    pub fn state(&self, core: CoreId, start: u64, end: u64, state: StateKind) {
        debug_assert!(start <= end, "state interval must not be inverted");
        self.record(Record::State { core, start, end, state });
    }

    /// Record that `task` ran on `core` during `[start, end)`.
    pub fn task_run(&self, core: CoreId, start: u64, end: u64, task: TaskRef) {
        self.state(core, start, end, StateKind::Running(task));
    }

    /// Record a point event.
    pub fn event(&self, core: CoreId, time: u64, kind: EventKind) {
        self.record(Record::Event { core, time, kind });
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Whether no records have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take a chronological snapshot of the records collected so far.
    ///
    /// Records are sorted by `(time, core)` so that downstream consumers
    /// (the PRV writer, the Gantt renderer, statistics) can assume order
    /// regardless of which thread reported what first.
    pub fn snapshot(&self) -> Vec<Record> {
        let mut out = self.records.lock().clone();
        out.sort_by_key(|r| (r.time(), r.core(), r.end_time()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn task(id: u64) -> TaskRef {
        TaskRef::new(id, format!("t{id}"))
    }

    #[test]
    fn disabled_collector_drops_records() {
        let c = TraceCollector::with_flag(false);
        c.task_run(CoreId::new(0, 0), 0, 10, task(1));
        c.event(CoreId::new(0, 0), 5, EventKind::TaskEnd(task(1)));
        assert!(c.is_empty());
        assert!(!c.is_enabled());
    }

    #[test]
    fn flag_constructor_matches_launch_switch() {
        assert!(TraceCollector::with_flag(true).is_enabled());
        assert!(!TraceCollector::with_flag(false).is_enabled());
    }

    #[test]
    fn snapshot_is_chronological() {
        let c = TraceCollector::with_flag(true);
        c.task_run(CoreId::new(0, 1), 50, 80, task(2));
        c.task_run(CoreId::new(0, 0), 0, 40, task(1));
        c.event(CoreId::new(0, 0), 20, EventKind::TaskDispatch(task(9)));
        let snap = c.snapshot();
        let times: Vec<u64> = snap.iter().map(|r| r.time()).collect();
        assert_eq!(times, vec![0, 20, 50]);
        assert_eq!(c.len(), 3, "snapshot must not consume");
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let c = Arc::new(TraceCollector::with_flag(true));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    c.task_run(CoreId::new(t as u32, 0), i, i + 1, TaskRef::new(t * 100 + i, "x"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.len(), 800);
    }

    #[test]
    fn concurrent_records_still_snapshot_in_order() {
        // Many threads, interleaved timestamps: the snapshot must be
        // globally sorted whatever order the threads pushed in.
        let c = Arc::new(TraceCollector::with_flag(true));
        let mut handles = Vec::new();
        for t in 0..6u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let time = i * 6 + t; // interleave across threads
                    c.task_run(CoreId::new(0, t as u32), time, time + 1, task(t * 50 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = c.snapshot();
        assert_eq!(snap.len(), 300);
        assert!(snap.windows(2).all(|w| w[0].time() <= w[1].time()), "sorted by time");
    }
}
