//! Higher-level trace reports: Paraver's "profile" views as data.
//!
//! [`per_task_profile`] mirrors Paraver's per-function statistics table
//! (how often each task function ran, for how long), and
//! [`profile_table`] renders it as text. The busy-core timeline of the
//! paper's timeline figures is [`crate::gantt::render`]'s to draw.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::record::{Record, StateKind};

/// Aggregate execution statistics of one task function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NameProfile {
    /// Number of executions (attempts) observed.
    pub count: usize,
    /// Total core-time consumed, µs.
    pub total_core_us: u64,
    /// Shortest execution, µs.
    pub min_us: u64,
    /// Longest execution, µs.
    pub max_us: u64,
}

impl NameProfile {
    /// Mean execution time, µs.
    pub fn mean_us(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.total_core_us / self.count as u64
        }
    }
}

/// Per-task-function profile over a record snapshot.
///
/// A task instance spanning several cores counts once per instance, with
/// its duration measured once and its core-time summed over cores.
pub fn per_task_profile(records: &[Record]) -> BTreeMap<String, NameProfile> {
    // (task id, start, end) dedupes multi-core intervals of one execution.
    let mut seen = std::collections::BTreeSet::new();
    let mut out: BTreeMap<String, NameProfile> = BTreeMap::new();
    for r in records {
        if let Record::State { start, end, state: StateKind::Running(t), .. } = r {
            let p = out.entry(t.name.to_string()).or_default();
            p.total_core_us += end - start;
            if seen.insert((t.id, *start, *end)) {
                let d = end - start;
                p.count += 1;
                p.min_us = if p.count == 1 { d } else { p.min_us.min(d) };
                p.max_us = p.max_us.max(d);
            }
        }
    }
    out
}

/// Render the profile as an aligned text table.
pub fn profile_table(records: &[Record]) -> String {
    let profile = per_task_profile(records);
    let mut out = format!(
        "{:<24} {:>7} {:>12} {:>12} {:>12} {:>14}\n",
        "task", "runs", "min", "mean", "max", "total core-time"
    );
    for (name, p) in profile {
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>12} {:>12} {:>12} {:>14}",
            name,
            p.count,
            crate::fmt_duration(p.min_us),
            crate::fmt_duration(p.mean_us()),
            crate::fmt_duration(p.max_us),
            crate::fmt_duration(p.total_core_us),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CoreId, TaskRef};

    fn run(core: CoreId, start: u64, end: u64, id: u64, name: &str) -> Record {
        Record::State { core, start, end, state: StateKind::Running(TaskRef::new(id, name)) }
    }

    #[test]
    fn profile_aggregates_per_name() {
        let records = vec![
            run(CoreId::new(0, 0), 0, 100, 1, "experiment"),
            run(CoreId::new(0, 1), 0, 300, 2, "experiment"),
            run(CoreId::new(0, 2), 0, 50, 3, "plot"),
        ];
        let p = per_task_profile(&records);
        assert_eq!(p.len(), 2);
        let e = &p["experiment"];
        assert_eq!(e.count, 2);
        assert_eq!(e.min_us, 100);
        assert_eq!(e.max_us, 300);
        assert_eq!(e.mean_us(), 200);
        assert_eq!(e.total_core_us, 400);
        assert_eq!(p["plot"].count, 1);
    }

    #[test]
    fn multicore_execution_counts_once_but_sums_core_time() {
        let records = vec![
            run(CoreId::new(0, 0), 0, 100, 1, "big"),
            run(CoreId::new(0, 1), 0, 100, 1, "big"),
            run(CoreId::new(0, 2), 0, 100, 1, "big"),
        ];
        let p = per_task_profile(&records);
        let b = &p["big"];
        assert_eq!(b.count, 1, "one execution");
        assert_eq!(b.total_core_us, 300, "three cores × 100µs");
        assert_eq!(b.mean_us(), 300, "mean of core-time per execution");
    }

    #[test]
    fn profile_table_renders_rows() {
        let records = vec![run(CoreId::new(0, 0), 0, 100, 1, "experiment")];
        let t = profile_table(&records);
        assert!(t.contains("experiment"));
        assert!(t.contains("runs"));
        assert!(t.lines().count() == 2);
    }

    #[test]
    fn empty_trace_reports_cleanly() {
        assert!(per_task_profile(&[]).is_empty());
        assert_eq!(NameProfile::default().mean_us(), 0);
    }
}
