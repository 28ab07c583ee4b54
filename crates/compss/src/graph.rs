//! The dynamic task dependency graph.
//!
//! "In order to enable the parallelization, the runtime builds a data
//! dependency graph of the tasks that make up the application at execution
//! time" (paper §3). Nodes are task instances; edges are RAW dependencies
//! labelled with the data version that flows along them (`d1v2` …), exactly
//! the rendering of the paper's Figure 3. The graph also tracks completion
//! state and answers "which tasks just became ready".
//!
//! A settled task has nothing left to say to the scheduler — its successors
//! were released (done) or failed with it — so the runtime takes its node
//! out again unless the graph is being recorded for [`TaskGraph::to_dot`].

use std::fmt::Write as _;
use std::sync::Arc;

use crate::data::DataVersion;
use crate::ids::IdMap;
use crate::task::TaskId;

/// Lifecycle of a task in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting for dependencies.
    Pending,
    /// Dependencies met, waiting for resources.
    Ready,
    /// Executing.
    Running,
    /// Finished successfully.
    Done,
    /// Exhausted all retries.
    Failed,
}

#[derive(Debug)]
struct Node {
    /// The task definition's own name: a reference, not a copy.
    name: Arc<str>,
    state: TaskState,
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
    /// Nodes not yet `Done` or `Failed`: what `barrier` asks once per
    /// wake-up, so it is counted where the state changes, not rescanned.
    unsettled: usize,
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
    /// `(producer task, version read)` pairs. Producers already `Done`, or
    /// retired, don't count as unmet. Returns the initial state.
    pub fn add_task(
        &mut self,
        id: TaskId,
        name: impl Into<Arc<str>>,
        deps: &[(TaskId, DataVersion)],
    ) -> TaskState {
        let mut unmet = 0;
        for &(p, v) in deps {
            let Some(pn) = self.nodes.get_mut(&p) else { continue };
            // This call pushes all of `id`'s edges, so a producer seen
            // before in `deps` has `id` last.
            if pn.succs.last().map(|&(s, _)| s) != Some(id) && pn.state != TaskState::Done {
                unmet += 1;
            }
            pn.succs.push((id, v));
        }
        let state = if unmet == 0 { TaskState::Ready } else { TaskState::Pending };
        let node = Node { name: name.into(), state, succs: Vec::new(), unmet };
        let evicted = self.nodes.insert(id, node);
        debug_assert!(evicted.is_none(), "task ids are unique per submission");
        self.unsettled += 1;
        state
    }

    /// Record that the main program synchronised on `v` (`compss_wait_on`).
    pub fn add_sync(&mut self, v: DataVersion) {
        self.syncs.push(v);
    }

    /// State of `id`.
    pub fn state(&self, id: TaskId) -> Option<TaskState> {
        self.nodes.get(&id).map(|n| n.state)
    }

    /// Mark `id` running.
    pub fn set_running(&mut self, id: TaskId) {
        if let Some(n) = self.nodes.get_mut(&id) {
            n.state = TaskState::Running;
        }
    }

    /// Mark `id` back to ready (failed attempt will be retried).
    pub fn set_ready(&mut self, id: TaskId) {
        if let Some(n) = self.nodes.get_mut(&id) {
            n.state = TaskState::Ready;
        }
    }

    /// Move `id` into a settled state, counting it out of `unsettled` only
    /// if it was not settled before (a repeated call must not double-count).
    fn settle(&mut self, id: TaskId, state: TaskState) -> Option<&mut Node> {
        let n = self.nodes.get_mut(&id)?;
        if !matches!(n.state, TaskState::Done | TaskState::Failed) {
            self.unsettled -= 1;
        }
        n.state = state;
        Some(n)
    }

    /// Mark `id` permanently failed; returns its successors, none of which
    /// can run any more.
    pub fn set_failed(&mut self, id: TaskId) -> Vec<TaskId> {
        self.settle(id, TaskState::Failed).map_or_else(Vec::new, |n| successors(&n.succs).collect())
    }

    /// Take a settled task's node out of the graph. Its successors keep
    /// their state: they were released or failed when it settled.
    pub(crate) fn retire(&mut self, id: TaskId) {
        let settled = |n: &Node| matches!(n.state, TaskState::Done | TaskState::Failed);
        debug_assert!(self.nodes.get(&id).is_none_or(settled), "only settled tasks retire");
        self.nodes.remove(&id);
    }

    /// Mark `id` done; returns the successors that became ready.
    pub fn set_done(&mut self, id: TaskId) -> Vec<TaskId> {
        // The edges leave the node for the walk and come back: a recorded
        // graph still draws them.
        let Some(n) = self.settle(id, TaskState::Done) else { return Vec::new() };
        let succs = std::mem::take(&mut n.succs);
        let mut newly_ready = Vec::new();
        for s in successors(&succs) {
            if let Some(sn) = self.nodes.get_mut(&s) {
                sn.unmet = sn.unmet.saturating_sub(1);
                if sn.unmet == 0 && sn.state == TaskState::Pending {
                    sn.state = TaskState::Ready;
                    newly_ready.push(s);
                }
            }
        }
        self.nodes.get_mut(&id).expect("settled above").succs = succs;
        newly_ready
    }

    /// All tasks in a given state.
    pub fn tasks_in_state(&self, state: TaskState) -> Vec<TaskId> {
        self.nodes.iter().filter(|(_, n)| n.state == state).map(|(&id, _)| id).collect()
    }

    /// Number of tasks in the graph (retired ones are gone).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether every task is `Done` or `Failed`.
    pub fn all_settled(&self) -> bool {
        self.unsettled == 0
    }

    /// Length (in tasks) of the longest dependency chain — the critical
    /// path, a lower bound on parallel makespan in task counts.
    pub fn critical_path_len(&self) -> usize {
        fn height(id: TaskId, g: &TaskGraph, memo: &mut IdMap<TaskId, usize>) -> usize {
            if let Some(&h) = memo.get(&id) {
                return h;
            }
            let below =
                successors(&g.nodes[&id].succs).map(|s| height(s, g, memo)).max().unwrap_or(0);
            memo.insert(id, 1 + below);
            1 + below
        }
        let mut memo = IdMap::default();
        self.nodes.keys().map(|&id| height(id, self, &mut memo)).max().unwrap_or(0)
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
            let s = g.add_task(TaskId(i), "experiment", &[]);
            assert_eq!(s, TaskState::Ready);
        }
        assert_eq!(g.tasks_in_state(TaskState::Ready).len(), 5);
        assert_eq!(g.critical_path_len(), 1);
    }

    #[test]
    fn dependent_task_waits_for_producer() {
        let mut g = TaskGraph::new();
        g.add_task(TaskId(1), "experiment", &[]);
        let s = g.add_task(TaskId(2), "visualisation", &[(TaskId(1), v(1, 1))]);
        assert_eq!(s, TaskState::Pending);
        let ready = g.set_done(TaskId(1));
        assert_eq!(ready, vec![TaskId(2)]);
        assert_eq!(g.state(TaskId(2)), Some(TaskState::Ready));
        assert_eq!(g.critical_path_len(), 2);
    }

    #[test]
    fn dependency_on_finished_task_is_met() {
        let mut g = TaskGraph::new();
        g.add_task(TaskId(1), "a", &[]);
        g.set_done(TaskId(1));
        let s = g.add_task(TaskId(2), "b", &[(TaskId(1), v(1, 1))]);
        assert_eq!(s, TaskState::Ready, "producer already done ⇒ no wait");
    }

    #[test]
    fn fan_in_counts_distinct_predecessors() {
        let mut g = TaskGraph::new();
        g.add_task(TaskId(1), "e", &[]);
        g.add_task(TaskId(2), "e", &[]);
        // plot reads two versions from task 1 and one from task 2
        let s = g.add_task(
            TaskId(3),
            "plot",
            &[(TaskId(1), v(1, 1)), (TaskId(1), v(2, 1)), (TaskId(2), v(3, 1))],
        );
        assert_eq!(s, TaskState::Pending);
        assert!(g.set_done(TaskId(1)).is_empty(), "still waiting on task 2");
        assert_eq!(g.set_done(TaskId(2)), vec![TaskId(3)]);
    }

    #[test]
    fn state_transitions() {
        let mut g = TaskGraph::new();
        g.add_task(TaskId(1), "a", &[]);
        g.set_running(TaskId(1));
        assert_eq!(g.state(TaskId(1)), Some(TaskState::Running));
        g.set_ready(TaskId(1));
        assert_eq!(g.state(TaskId(1)), Some(TaskState::Ready));
        g.set_failed(TaskId(1));
        assert_eq!(g.state(TaskId(1)), Some(TaskState::Failed));
        assert!(g.all_settled());
    }

    #[test]
    fn all_settled_requires_every_task() {
        let mut g = TaskGraph::new();
        g.add_task(TaskId(1), "a", &[]);
        g.add_task(TaskId(2), "a", &[]);
        g.set_done(TaskId(1));
        assert!(!g.all_settled());
        g.set_done(TaskId(2));
        assert!(g.all_settled());
        assert!(TaskGraph::new().all_settled(), "vacuously true when empty");
    }

    #[test]
    fn retired_tasks_are_gone_and_count_as_met() {
        let mut g = TaskGraph::new();
        g.add_task(TaskId(1), "a", &[]);
        g.add_task(TaskId(2), "b", &[(TaskId(1), v(1, 1))]);
        g.add_task(TaskId(3), "c", &[(TaskId(2), v(2, 1))]);
        assert_eq!(g.set_done(TaskId(1)), vec![TaskId(2)]);
        g.retire(TaskId(1));
        assert_eq!((g.len(), g.state(TaskId(1))), (2, None));
        assert_eq!(g.state(TaskId(2)), Some(TaskState::Ready), "released before the node went");
        // A later reader of the retired task's output has nothing to wait for.
        assert_eq!(g.add_task(TaskId(4), "d", &[(TaskId(1), v(1, 1))]), TaskState::Ready);
        // A failure hands back the successors that must fail with it.
        assert_eq!(g.set_failed(TaskId(2)), vec![TaskId(3)]);
        assert!(g.set_failed(TaskId(3)).is_empty());
        g.retire(TaskId(2));
        g.retire(TaskId(3));
        assert!(!g.all_settled(), "task 4 is still to run");
        g.set_done(TaskId(4));
        g.retire(TaskId(4));
        assert!(g.all_settled() && g.is_empty());
    }

    #[test]
    fn all_settled_does_not_scan_the_graph() {
        // The fan-out of the benchmark's `graph_add_task` probe, one node
        // left running: `barrier` asks this once per wake-up. A scan over
        // 200k nodes costs milliseconds per call; the counter, nothing.
        const N: u64 = 200_000;
        let mut g = TaskGraph::new();
        g.add_task(TaskId(0), "probe", &[]);
        for i in 1..N {
            g.add_task(TaskId(i), "probe", &[(TaskId(0), v(0, 1))]);
        }
        for i in 0..N - 1 {
            g.set_done(TaskId(i));
        }
        let t0 = std::time::Instant::now();
        for _ in 0..2_000 {
            assert!(!std::hint::black_box(&g).all_settled());
        }
        let took = t0.elapsed();
        assert!(took.as_millis() < 100, "2000 all_settled() calls took {took:?}");
        g.set_done(TaskId(N - 1));
        assert!(g.all_settled());
    }

    #[test]
    fn settled_counter_matches_a_scan_under_a_random_walk() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut g = TaskGraph::new();
        let mut seen = [false; 2];
        let mut check = |g: &TaskGraph| {
            let settled =
                g.tasks_in_state(TaskState::Done).len() + g.tasks_in_state(TaskState::Failed).len();
            assert_eq!(g.all_settled(), settled == g.len());
            seen[g.all_settled() as usize] = true;
        };
        let settled = |g: &TaskGraph, id| {
            matches!(g.state(id), Some(TaskState::Done) | Some(TaskState::Failed))
        };
        for step in 0..4_000u64 {
            let n = g.len() as u64;
            // Any id up to one past the newest: the last is unknown.
            let id = TaskId(rng.gen_range(0..=n));
            match rng.gen_range(0..8u32) {
                0 | 1 => {
                    let deps: Vec<_> = (0..rng.gen_range(0..3u32).min(n as u32))
                        .map(|_| (TaskId(rng.gen_range(0..n)), v(step, 1)))
                        .collect();
                    g.add_task(TaskId(n), "walk", &deps);
                }
                // As the runtime does, only an unsettled task is placed or
                // retried; done and failed are terminal.
                2 if !settled(&g, id) => g.set_running(id),
                3 if !settled(&g, id) => g.set_ready(id),
                4 if !settled(&g, id) => {
                    // One retry, then success.
                    g.set_running(id);
                    g.set_ready(id);
                    check(&g);
                    g.set_running(id);
                    g.set_done(id);
                }
                5 => {
                    g.set_failed(id);
                    g.set_failed(id);
                }
                _ => {
                    g.set_done(id);
                }
            }
            check(&g);
        }
        for i in 0..g.len() as u64 {
            g.set_done(TaskId(i));
        }
        check(&g);
        assert!(g.len() > 500 && seen == [true, true], "{} nodes, seen {seen:?}", g.len());
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

    #[test]
    fn diamond_critical_path() {
        let mut g = TaskGraph::new();
        g.add_task(TaskId(1), "a", &[]);
        g.add_task(TaskId(2), "b", &[(TaskId(1), v(1, 1))]);
        g.add_task(TaskId(3), "c", &[(TaskId(1), v(2, 1))]);
        g.add_task(TaskId(4), "d", &[(TaskId(2), v(3, 1)), (TaskId(3), v(4, 1))]);
        assert_eq!(g.critical_path_len(), 3);
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
    }
}
