//! Thread-safe trace collection.
//!
//! The runtime holds an `Arc<TraceCollector>` and reports every state change.
//! Mirroring the paper ("both tracing and graph generation create a
//! performance overhead. These two features can easily be turned off by a
//! simple flag"), the collector can be constructed disabled, in which case
//! recording is a single relaxed atomic load.
//!
//! When enabled, records land in one of `SHARDS` cache-line-aligned,
//! independently locked buffers. Each recording thread is pinned to a shard
//! on first use (round-robin), so worker threads reporting task runs do not
//! contend on one global lock — the pre-shard design made every `task_run`
//! serialise the whole pool through a single `Mutex<Vec>`. Snapshots merge
//! and sort the shards, preserving the chronological contract downstream
//! consumers rely on.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::record::{CoreId, EventKind, Record, StateKind, TaskRef};

/// Number of independently locked record buffers.
const SHARDS: usize = 16;

/// One record buffer, padded to its own cache line so shard locks do not
/// false-share.
#[repr(align(64))]
#[derive(Default)]
struct Shard {
    records: Mutex<Vec<Record>>,
}

/// Index of the shard this thread writes to: assigned round-robin on first
/// use so a fixed worker pool spreads evenly across shards.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    IDX.with(|cell| {
        let mut idx = cell.get();
        if idx == usize::MAX {
            idx = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            cell.set(idx);
        }
        idx
    })
}

/// Accumulates trace records from any number of threads.
pub struct TraceCollector {
    enabled: AtomicBool,
    shards: [Shard; SHARDS],
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("enabled", &self.is_enabled())
            .field("records", &self.len())
            .finish()
    }
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::enabled()
    }
}

impl TraceCollector {
    fn with_enabled(enabled: bool) -> Self {
        TraceCollector {
            enabled: AtomicBool::new(enabled),
            shards: std::array::from_fn(|_| Shard::default()),
        }
    }

    /// A collector that records everything (tracing flag on).
    pub fn enabled() -> Self {
        Self::with_enabled(true)
    }

    /// A collector that drops everything (tracing flag off).
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// Construct with an explicit flag, matching the paper's launch-time
    /// `--tracing` switch.
    pub fn with_flag(tracing: bool) -> Self {
        Self::with_enabled(tracing)
    }

    /// Whether records are currently kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Toggle collection at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Record an arbitrary record.
    pub fn record(&self, record: Record) {
        if self.is_enabled() {
            self.shards[shard_index()].records.lock().push(record);
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
        self.shards.iter().map(|s| s.records.lock().len()).sum()
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
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(shard.records.lock().iter().cloned());
        }
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
        let c = TraceCollector::disabled();
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
        let c = TraceCollector::enabled();
        c.task_run(CoreId::new(0, 1), 50, 80, task(2));
        c.task_run(CoreId::new(0, 0), 0, 40, task(1));
        c.event(CoreId::new(0, 0), 20, EventKind::TaskDispatch(task(9)));
        let snap = c.snapshot();
        let times: Vec<u64> = snap.iter().map(|r| r.time()).collect();
        assert_eq!(times, vec![0, 20, 50]);
        assert_eq!(c.len(), 3, "snapshot must not consume");
    }

    #[test]
    fn toggling_enables_and_disables_recording() {
        let c = TraceCollector::disabled();
        c.set_enabled(true);
        c.task_run(CoreId::new(0, 0), 0, 1, task(1));
        c.set_enabled(false);
        c.task_run(CoreId::new(0, 0), 1, 2, task(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let c = Arc::new(TraceCollector::enabled());
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
    fn sharded_records_still_snapshot_in_order() {
        // Many threads, interleaved timestamps: the merged snapshot must be
        // globally sorted even though shards fill independently.
        let c = Arc::new(TraceCollector::enabled());
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
