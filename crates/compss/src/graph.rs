//! The dynamic task dependency graph.
//!
//! "In order to enable the parallelization, the runtime builds a data
//! dependency graph of the tasks that make up the application at execution
//! time" (paper §3). Nodes are task instances; edges are RAW dependencies
//! labelled with the data version that flows along them (`d1v2` …), exactly
//! the rendering of the paper's Figure 3. A node keeps its edges, how many
//! of its producers are still to finish, and whether it has settled: enough
//! to answer "which tasks just became ready". Where a task is in its life
//! otherwise is the runtime's to know.
//!
//! A settled task has nothing left to say to the scheduler — its successors
//! were released (done) or failed with it — so the runtime takes its node
//! out again unless the graph is being recorded for [`TaskGraph::to_dot`].

use std::fmt::Write as _;
use std::sync::Arc;

use crate::data::DataVersion;
use crate::ids::IdMap;
use crate::task::TaskId;

#[derive(Debug)]
struct Node {
    /// The task definition's own name: a reference, not a copy.
    name: Arc<str>,
    /// Done or failed: nothing will make it ready again.
    settled: bool,
    /// `(successor, version it reads from this task)`, one entry per
    /// dependency, in the order the successors were added. A successor's
    /// entries are adjacent: all of them are pushed by its one `add_task`.
    succs: Vec<(TaskId, DataVersion)>,
    /// Distinct predecessors not yet done.
    unmet: usize,
}

/// The distinct successor ids of a node's edges, in the order added.
fn successors(succs: &[(TaskId, DataVersion)]) -> impl Iterator<Item = TaskId> + '_ {
    let mut last = None;
    succs.iter().map(|&(s, _)| s).filter(move |&s| last.replace(s) != Some(s))
}

/// The dependency graph.
#[derive(Debug, Default)]
pub struct TaskGraph {
    nodes: IdMap<TaskId, Node>,
    /// Synchronisation edges: versions the main program waited on
    /// (rendered like the paper's red `sync` node).
    syncs: Vec<DataVersion>,
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task with its RAW dependencies: `deps` lists
    /// `(producer task, version read)` pairs. Producers already settled, or
    /// retired, don't count as unmet: the runtime fails the readers of a
    /// failed producer itself. Returns whether the task is ready.
    pub fn add_task(
        &mut self,
        id: TaskId,
        name: impl Into<Arc<str>>,
        deps: &[(TaskId, DataVersion)],
    ) -> bool {
        let mut unmet = 0;
        for &(p, v) in deps {
            let Some(pn) = self.nodes.get_mut(&p) else { continue };
            // This call pushes all of `id`'s edges, so a producer seen
            // before in `deps` has `id` last.
            if pn.succs.last().map(|&(s, _)| s) != Some(id) && !pn.settled {
                unmet += 1;
            }
            pn.succs.push((id, v));
        }
        let node = Node { name: name.into(), settled: false, succs: Vec::new(), unmet };
        let evicted = self.nodes.insert(id, node);
        debug_assert!(evicted.is_none(), "task ids are unique per submission");
        unmet == 0
    }

    /// Record that the main program synchronised on `v` (`compss_wait_on`).
    pub fn add_sync(&mut self, v: DataVersion) {
        self.syncs.push(v);
    }

    /// Mark `id` settled.
    fn settle(&mut self, id: TaskId) -> Option<&mut Node> {
        let n = self.nodes.get_mut(&id)?;
        n.settled = true;
        Some(n)
    }

    /// Mark `id` permanently failed; returns its successors, none of which
    /// can run any more.
    pub fn set_failed(&mut self, id: TaskId) -> Vec<TaskId> {
        self.settle(id).map_or_else(Vec::new, |n| successors(&n.succs).collect())
    }

    /// Take a settled task's node out of the graph. Its successors keep
    /// their unmet counts: they were released or failed when it settled.
    pub(crate) fn retire(&mut self, id: TaskId) {
        debug_assert!(self.nodes.get(&id).is_none_or(|n| n.settled), "only settled tasks retire");
        self.nodes.remove(&id);
    }

    /// Mark `id` done; returns the successors that became ready.
    pub fn set_done(&mut self, id: TaskId) -> Vec<TaskId> {
        // The edges leave the node for the walk and come back: a recorded
        // graph still draws them.
        let Some(n) = self.settle(id) else { return Vec::new() };
        let succs = std::mem::take(&mut n.succs);
        let mut newly_ready = Vec::new();
        for s in successors(&succs) {
            let Some(sn) = self.nodes.get_mut(&s).filter(|sn| sn.unmet > 0) else { continue };
            sn.unmet -= 1;
            // A successor failed through another producer stays failed.
            if sn.unmet == 0 && !sn.settled {
                newly_ready.push(s);
            }
        }
        self.nodes.get_mut(&id).expect("settled above").succs = succs;
        newly_ready
    }

    /// Number of tasks in the graph (retired ones are gone).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Graphviz DOT rendering in the visual language of the paper's
    /// Figure 3: blue circles for tasks, labelled edges for data versions,
    /// a red `sync` node for main-program synchronisations.
    pub fn to_dot(&self) -> String {
        let mut out =
            String::from("digraph compss {\n  rankdir=TB;\n  node [shape=circle, style=filled];\n");
        // Colour per task name so "graph.experiment" vs "graph.plot" differ.
        let palette = ["#4f81bd", "#9bbb59", "#c0504d", "#8064a2", "#f79646"];
        let mut names: Vec<&str> = self.nodes.values().map(|n| &*n.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut ids: Vec<TaskId> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        for id in &ids {
            let n = &self.nodes[id];
            let color =
                palette[names.iter().position(|&x| x == &*n.name).unwrap_or(0) % palette.len()];
            let _ = writeln!(
                out,
                "  {} [label=\"{}\", fillcolor=\"{}\", tooltip=\"{}\"];",
                id.0, id.0, color, n.name
            );
        }
        for id in &ids {
            // Successors ascending, each edge's versions sorted and once.
            let mut edges = self.nodes[id].succs.clone();
            edges.sort_unstable();
            edges.dedup();
            for edge in edges.chunk_by(|a, b| a.0 == b.0) {
                let (succ, labels) = (edge[0].0, edge.iter().map(|(_, v)| v.to_string()));
                let labels = labels.collect::<Vec<_>>().join(",");
                let _ = writeln!(out, "  {} -> {} [label=\"{labels}\"];", id.0, succ.0);
            }
        }
        if !self.syncs.is_empty() {
            let _ = writeln!(out, "  sync [label=\"sync\", shape=octagon, fillcolor=\"#ff4040\"];");
            for v in &self.syncs {
                // connect the producing task if known, purely cosmetic
                let _ = writeln!(out, "  sync_{v} [label=\"{v}\", shape=plaintext, style=\"\"];");
                let _ = writeln!(out, "  sync_{v} -> sync;");
            }
        }
        // Legend block naming the task functions, as in Figure 3.
        for (i, name) in names.iter().enumerate() {
            let _ = writeln!(
                out,
                "  legend{} [label=\"{}\", shape=box, fillcolor=\"{}\"];",
                i,
                name,
                palette[i % palette.len()]
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataHandle;

    fn v(id: u64, version: u32) -> DataVersion {
        DataVersion { handle: DataHandle::test_only(id), version }
    }

    #[test]
    fn independent_tasks_are_immediately_ready() {
        let mut g = TaskGraph::new();
        for i in 0..5 {
            assert!(g.add_task(TaskId(i), "experiment", &[]));
        }
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn dependent_task_waits_for_producer() {
        let mut g = TaskGraph::new();
        g.add_task(TaskId(1), "experiment", &[]);
        assert!(!g.add_task(TaskId(2), "visualisation", &[(TaskId(1), v(1, 1))]));
        assert_eq!(g.set_done(TaskId(1)), vec![TaskId(2)]);
        assert!(g.set_done(TaskId(2)).is_empty());
    }

    #[test]
    fn dependency_on_finished_task_is_met() {
        let mut g = TaskGraph::new();
        g.add_task(TaskId(1), "a", &[]);
        g.set_done(TaskId(1));
        assert!(
            g.add_task(TaskId(2), "b", &[(TaskId(1), v(1, 1))]),
            "producer already done ⇒ no wait"
        );
    }

    #[test]
    fn fan_in_counts_distinct_predecessors() {
        let mut g = TaskGraph::new();
        g.add_task(TaskId(1), "e", &[]);
        g.add_task(TaskId(2), "e", &[]);
        // plot reads two versions from task 1 and one from task 2
        let ready = g.add_task(
            TaskId(3),
            "plot",
            &[(TaskId(1), v(1, 1)), (TaskId(1), v(2, 1)), (TaskId(2), v(3, 1))],
        );
        assert!(!ready);
        assert!(g.set_done(TaskId(1)).is_empty(), "still waiting on task 2");
        assert_eq!(g.set_done(TaskId(2)), vec![TaskId(3)]);
    }

    #[test]
    fn a_failed_task_is_not_released_by_its_other_producer() {
        // 3 reads from 1 and 2. 1 fails and takes 3 with it; when 2 is done
        // later, 3 must not come back as ready.
        let mut g = TaskGraph::new();
        g.add_task(TaskId(1), "a", &[]);
        g.add_task(TaskId(2), "a", &[]);
        g.add_task(TaskId(3), "b", &[(TaskId(1), v(1, 1)), (TaskId(2), v(2, 1))]);
        assert_eq!(g.set_failed(TaskId(1)), vec![TaskId(3)]);
        assert!(g.set_failed(TaskId(3)).is_empty());
        assert!(g.set_done(TaskId(2)).is_empty());
    }

    #[test]
    fn retired_tasks_are_gone_and_count_as_met() {
        let mut g = TaskGraph::new();
        g.add_task(TaskId(1), "a", &[]);
        g.add_task(TaskId(2), "b", &[(TaskId(1), v(1, 1))]);
        g.add_task(TaskId(3), "c", &[(TaskId(2), v(2, 1))]);
        assert_eq!(g.set_done(TaskId(1)), vec![TaskId(2)], "released before the node goes");
        g.retire(TaskId(1));
        assert_eq!(g.len(), 2);
        // A later reader of the retired task's output has nothing to wait for.
        assert!(g.add_task(TaskId(4), "d", &[(TaskId(1), v(1, 1))]));
        // A failure hands back the successors that must fail with it.
        assert_eq!(g.set_failed(TaskId(2)), vec![TaskId(3)]);
        assert!(g.set_failed(TaskId(3)).is_empty());
        g.retire(TaskId(2));
        g.retire(TaskId(3));
        assert_eq!(g.len(), 1, "task 4 is still to run");
        g.set_done(TaskId(4));
        g.retire(TaskId(4));
        assert!(g.is_empty());
    }

    #[test]
    fn dot_contains_nodes_edges_and_version_labels() {
        let mut g = TaskGraph::new();
        g.add_task(TaskId(1), "graph.experiment", &[]);
        g.add_task(TaskId(2), "graph.visualisation", &[(TaskId(1), v(1, 2))]);
        g.add_sync(v(1, 2));
        let dot = g.to_dot();
        assert!(dot.contains("digraph compss"));
        assert!(dot.contains("1 -> 2"), "{dot}");
        assert!(dot.contains("d1v2"), "edge labelled with data version: {dot}");
        assert!(dot.contains("sync"), "{dot}");
        assert!(dot.contains("graph.experiment"), "legend: {dot}");
    }
}
