//! ASCII Gantt rendering of traces.
//!
//! Paraver draws one horizontal bar per `(node, core)` row; this module does
//! the same with characters so the paper's Figures 4–6 can be eyeballed in a
//! terminal and asserted on in tests. Each task is assigned a stable glyph
//! (cycling over an alphabet), runtime-reserved cores render as `#`,
//! transfers as `~`, idle as `.`.

use std::collections::BTreeMap;

use crate::record::{CoreId, Record, StateKind};

/// Rendering options.
#[derive(Debug, Clone)]
pub struct GanttOptions {
    /// Number of character columns the time axis is divided into.
    pub width: usize,
    /// Collapse nodes: one row per node showing the number of busy cores
    /// (0-9, `+` for ≥10) instead of one row per core. Useful for the
    /// 28-node view of Figure 6.
    pub per_node: bool,
}

impl Default for GanttOptions {
    fn default() -> Self {
        GanttOptions { width: 80, per_node: false }
    }
}

fn glyph_for_task(task_id: u64) -> char {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    ALPHABET[(task_id as usize) % ALPHABET.len()] as char
}

/// Render a chronological record snapshot as an ASCII Gantt chart.
///
/// Returns a multi-line string, one row per core (or per node with
/// [`GanttOptions::per_node`]), ordered by `(node, core)`, each prefixed with
/// its row label. The last line is the time axis.
pub fn render(records: &[Record], opts: &GanttOptions) -> String {
    let horizon = records.iter().map(|r| r.end_time()).max().unwrap_or(0).max(1);
    let width = opts.width.max(10);
    let col_of = |t: u64| -> usize { ((t as u128 * width as u128) / horizon as u128) as usize };

    // Collect per-core cells.
    let mut rows: BTreeMap<CoreId, Vec<char>> = BTreeMap::new();
    for r in records {
        let core = r.core();
        if let Record::State { start, end, state, .. } = r {
            let row = rows.entry(core).or_insert_with(|| vec!['.'; width]);
            let c0 = col_of(*start).min(width - 1);
            // Ensure at least one visible cell even for very short intervals.
            let c1 = col_of(*end).max(c0 + 1).min(width);
            let glyph = match state {
                StateKind::Running(t) => glyph_for_task(t.id),
                StateKind::RuntimeReserved => '#',
                StateKind::Transferring { .. } => '~',
                StateKind::Idle => '.',
            };
            for cell in &mut row[c0..c1] {
                *cell = glyph;
            }
        } else {
            // Make sure event-only cores still get a row.
            rows.entry(core).or_insert_with(|| vec!['.'; width]);
        }
    }

    let mut out = String::new();
    if opts.per_node {
        // Busy-core counts per node per column.
        let mut nodes: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (core, cells) in &rows {
            let counts = nodes.entry(core.node).or_insert_with(|| vec![0; width]);
            for (i, &ch) in cells.iter().enumerate() {
                if ch != '.' {
                    counts[i] += 1;
                }
            }
        }
        for (node, counts) in nodes {
            out.push_str(&format!("{:>8} |", format!("node{node}")));
            for c in counts {
                out.push(match c {
                    0 => '.',
                    1..=9 => char::from_digit(c, 10).unwrap(),
                    _ => '+',
                });
            }
            out.push_str("|\n");
        }
    } else {
        for (core, cells) in &rows {
            out.push_str(&format!("{:>8} |", core.to_string()));
            out.extend(cells.iter());
            out.push_str("|\n");
        }
    }

    // Time axis.
    out.push_str(&format!("{:>8} |{}|", "t", axis(horizon, width)));
    out.push('\n');
    out
}

fn axis(horizon: u64, width: usize) -> String {
    let mut line = vec![' '; width];
    let label = crate::fmt_duration(horizon);
    let start = width.saturating_sub(label.len());
    for (i, ch) in label.chars().enumerate() {
        if start + i < width {
            line[start + i] = ch;
        }
    }
    line[0] = '0';
    line.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TaskRef;

    fn run(core: CoreId, start: u64, end: u64, id: u64) -> Record {
        Record::State { core, start, end, state: StateKind::Running(TaskRef::new(id, "t")) }
    }

    #[test]
    fn single_task_single_core_renders_one_busy_row() {
        // The shape of the paper's Figure 4: one core busy, rest idle.
        let mut records = vec![run(CoreId::new(0, 0), 0, 100, 1)];
        for c in 1..4 {
            records.push(Record::State {
                core: CoreId::new(0, c),
                start: 0,
                end: 100,
                state: StateKind::Idle,
            });
        }
        let s = render(&records, &GanttOptions { width: 20, ..Default::default() });
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5, "4 cores + axis:\n{s}");
        assert!(lines[0].contains("BBBBBBBBBBBBBBBBBBBB"), "core 0 fully busy:\n{s}");
        assert!(lines[1].contains("...................."), "core 1 idle:\n{s}");
    }

    #[test]
    fn short_interval_still_visible() {
        let records =
            vec![run(CoreId::new(0, 0), 0, 1, 1), run(CoreId::new(0, 1), 0, 1_000_000, 2)];
        let s = render(&records, &GanttOptions { width: 40, ..Default::default() });
        assert!(s.contains('B'), "1µs task must occupy ≥1 cell:\n{s}");
    }

    #[test]
    fn per_node_mode_counts_busy_cores() {
        let records = vec![
            run(CoreId::new(0, 0), 0, 100, 1),
            run(CoreId::new(0, 1), 0, 100, 2),
            run(CoreId::new(0, 2), 0, 50, 3),
        ];
        let s = render(&records, &GanttOptions { width: 10, per_node: true });
        let row = s.lines().next().unwrap();
        assert!(row.starts_with("   node0"), "{s}");
        assert!(row.contains('3'), "first half has 3 busy cores:\n{s}");
        assert!(row.contains('2'), "second half has 2 busy cores:\n{s}");
    }

    #[test]
    fn runtime_reserved_and_transfer_glyphs() {
        let records = vec![
            Record::State {
                core: CoreId::new(0, 0),
                start: 0,
                end: 100,
                state: StateKind::RuntimeReserved,
            },
            Record::State {
                core: CoreId::new(0, 1),
                start: 0,
                end: 100,
                state: StateKind::Transferring { bytes: 10 },
            },
        ];
        let s = render(&records, &GanttOptions { width: 10, ..Default::default() });
        assert!(s.contains('#'));
        assert!(s.contains('~'));
    }

    #[test]
    fn axis_labels_horizon() {
        let records = vec![run(CoreId::new(0, 0), 0, 2 * crate::MINUTE, 1)];
        let s = render(&records, &GanttOptions::default());
        assert!(s.contains("2.0m"), "{s}");
        assert!(s.lines().last().unwrap().contains('0'));
    }

    #[test]
    fn empty_trace_renders_axis_only() {
        let s = render(&[], &GanttOptions::default());
        assert_eq!(s.lines().count(), 1);
    }
}
