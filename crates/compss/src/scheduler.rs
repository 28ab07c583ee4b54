//! Resource pool and ready-queue scheduling.
//!
//! The runtime "is able to schedule the tasks in the available computational
//! resources, acting as an interface with the different computing resources"
//! (paper §3). This module owns the cluster-side state: which cores/GPUs of
//! which node are free, which are reserved for the runtime worker itself,
//! and which ready task should start next.
//!
//! Placement policy, in order:
//! 1. tasks flagged `priority=True` first (the paper's scheduler hint);
//! 2. FIFO among equals (submission order);
//! 3. among feasible nodes, prefer a retry's previous node when the retry
//!    policy asks for it, avoid explicitly excluded nodes, then pick the
//!    node holding the most input data (locality), then lowest node id.
//!
//! Cores and GPUs are allocated as explicit id sets, which is how the
//! runtime enforces the CPU-affinity guarantee demonstrated in Figure 4.
//!
//! The ready queue is an *indexed ready-set*: entries live in a B-tree
//! ordered by the pop key (priority desc, seq asc), so finding the next
//! candidate is O(log n) instead of a full sort per pop, and a
//! constraint-class memo skips entries whose resource demand was already
//! found unplaceable since the last release. Dispatching a burst of N
//! ready tasks is O(N log N) where the former linear scan was O(N²). The
//! pop *order* is bit-identical to the old scan — the deterministic sim
//! backend and all recorded makespans depend on that, and
//! [`Scheduler::pop_placeable_reference`] keeps the plain linear scan
//! around as a differential-testing oracle.
//!
//! # Dispatch-ahead
//!
//! A core holds 0 tasks (idle), 1 (running) or, on a scheduler built
//! with [`Scheduler::enable_dispatch_ahead`], more: one running and the
//! rest queued behind it. The distributed backend turns this on so a worker
//! starts its next task the moment the running one ends, instead of idling
//! for the round trip that fetches it. Placement onto idle cores is
//! unchanged and always comes first; only when it places nothing does a
//! second pass queue the first ready single-implementation, one-core,
//! GPU-less task behind a busy core, on the node the usual score picks. A
//! task pushed as *fast* ([`Scheduler::push_ready_fast`]: its function's
//! latest runs were all short) queues behind the core of that node holding
//! the fewest tasks, up to [`FAST_DEPTH`] behind the running one, and score
//! ties go to the node whose least-held core holds fewest; any other task
//! queues only behind a core that runs exactly one. A multi-core task is
//! never queued ahead, and a queued task never takes an idle core: either
//! would leave a core idle that backfilling could use.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use cluster::Cluster;

use crate::task::{Constraint, TaskId};

/// Most tasks a fast task may queue behind a core's running one: a burst of
/// fast tasks reaches a worker in one write and comes back in one.
pub const FAST_DEPTH: u32 = 8;

/// Per-node allocatable state.
#[derive(Debug, Clone)]
pub struct NodeResources {
    /// Free CPU core ids.
    pub free_cores: BTreeSet<u32>,
    /// Every busy core as `(tasks it holds, core id)`, so the first is the
    /// core holding the fewest, lowest id among equals (dispatch-ahead
    /// schedulers only; always empty otherwise).
    pub held: BTreeSet<(u32, u32)>,
    /// Free GPU ids.
    pub free_gpus: BTreeSet<u32>,
    /// Memory left, GiB.
    pub free_mem_gib: u32,
    /// Whether the node is alive.
    pub alive: bool,
    /// Allocatable core count at full idle (total minus reserved).
    pub capacity_cores: u32,
    /// GPU count.
    pub capacity_gpus: u32,
    /// Memory capacity, GiB.
    pub capacity_mem_gib: u32,
}

impl NodeResources {
    /// Tasks `core` holds under dispatch-ahead: 0 if idle, or without it.
    pub fn held_by(&self, core: u32) -> u32 {
        self.held.iter().find(|&&(_, c)| c == core).map_or(0, |&(n, _)| n)
    }
}

/// A concrete placement decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Primary node (rank 0 of a `@multinode` allocation).
    pub node: u32,
    /// Exact core ids granted on the primary node.
    pub cores: Vec<u32>,
    /// Exact GPU ids granted on the primary node.
    pub gpus: Vec<u32>,
    /// Which task implementation was chosen (0 = primary; the paper's
    /// `@implement` alternatives follow).
    pub variant: usize,
    /// Additional nodes of a `@multinode` task: `(node, cores, gpus)`.
    pub extra: Vec<(u32, Vec<u32>, Vec<u32>)>,
    /// Whether the task was queued fast ([`Scheduler::push_ready_fast`]),
    /// as its place behind a busy core was decided.
    pub fast: bool,
}

impl Placement {
    /// Whether the placement uses `node` (primary or extra).
    pub fn involves(&self, node: u32) -> bool {
        self.node == node || self.extra.iter().any(|(n, _, _)| *n == node)
    }

    /// Whether the two allocations hold a core in common.
    pub fn shares_core(&self, other: &Placement) -> bool {
        self.node_cores().any(|(n, cores)| {
            other.node_cores().any(|(m, theirs)| n == m && cores.iter().any(|c| theirs.contains(c)))
        })
    }

    /// Every `(node, cores)` pair of the allocation, primary first.
    pub fn node_cores(&self) -> impl Iterator<Item = (u32, &[u32])> {
        std::iter::once((self.node, self.cores.as_slice()))
            .chain(self.extra.iter().map(|(n, c, _)| (*n, c.as_slice())))
    }

    /// The trace lane of this placement's point events (dispatch, end,
    /// failure): the first core granted on the primary node.
    pub(crate) fn lead_core(&self) -> paratrace::CoreId {
        paratrace::CoreId::new(self.node, self.cores.first().copied().unwrap_or(0))
    }
}

/// An entry waiting in the ready queue.
#[derive(Debug, Clone)]
pub struct ReadyEntry {
    /// The task.
    pub task: TaskId,
    /// Resource demand of the primary implementation.
    pub constraint: Constraint,
    /// Resource demands of `@implement` alternatives, tried after the
    /// primary when a node can't host it.
    pub alternatives: Vec<Constraint>,
    /// Scheduler hint (paper: `priority=True`).
    pub priority: bool,
    /// Submission sequence for FIFO ordering.
    pub seq: u64,
    /// Retry placement preference (same node first).
    pub prefer_node: Option<u32>,
    /// Retry placement exclusion (failed there twice).
    pub exclude_node: Option<u32>,
}

impl ReadyEntry {
    /// Constraints of every implementation, primary first.
    pub fn variant_constraints(&self) -> Vec<Constraint> {
        self.variants().collect()
    }

    fn variants(&self) -> impl Iterator<Item = Constraint> + '_ {
        std::iter::once(self.constraint).chain(self.alternatives.iter().copied())
    }
}

/// Pop-order key: `(!priority, seq)` — priority entries sort first
/// (`false < true`), FIFO among equals. `seq` is unique per submission, so
/// the key never collides.
type ReadyKey = (bool, u64);

/// Feasibility class of a ready entry. Two entries with the same class are
/// placeable under exactly the same pool states: feasibility depends only
/// on the constraint set, the exclusion and, behind a busy core, whether
/// the entry is fast (retry preference and locality merely rank
/// already-feasible nodes, they never create or destroy feasibility). The
/// common single-implementation case keeps `alternatives` empty, so
/// building a key does not allocate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ClassKey {
    constraint: Constraint,
    alternatives: Vec<Constraint>,
    exclude_node: Option<u32>,
    fast: bool,
}

impl ClassKey {
    fn of(entry: &ReadyEntry, fast: bool) -> Self {
        ClassKey {
            constraint: entry.constraint,
            alternatives: entry.alternatives.clone(),
            exclude_node: entry.exclude_node,
            fast,
        }
    }
}

/// The scheduler: node states + indexed ready-set.
#[derive(Debug)]
pub struct Scheduler {
    nodes: Vec<NodeResources>,
    /// Ready entries ordered by pop key (priority desc, seq asc), each with
    /// whether it was pushed fast.
    ready: BTreeMap<ReadyKey, (ReadyEntry, bool)>,
    /// Ready keys bucketed by feasibility class: one placement probe per
    /// *class* answers for every entry in the bucket. A bucket that empties
    /// stays, so the next entry of its class finds it allocated.
    by_class: HashMap<ClassKey, BTreeSet<ReadyKey>>,
    /// Constraint classes proven unplaceable since the last resource
    /// release. Resources only shrink between releases, so a miss stays a
    /// miss and whole buckets can be skipped without re-probing.
    infeasible: HashSet<ClassKey>,
    /// Every class currently in the ready-set is known infeasible: pops are
    /// O(1) until a release or a new-class push. This is what keeps a
    /// submission storm against a full cluster linear instead of quadratic.
    all_blocked: bool,
    /// Whether a core may hold queued tasks behind its running one.
    dispatch_ahead: bool,
    /// Reserved `(node, core)` pairs, for rendering.
    pub reserved: Vec<(u32, u32)>,
}

impl Scheduler {
    /// Build from a cluster description, reserving `reserved_cores`
    /// (node, n_cores) pairs for the runtime worker. Reserved cores are the
    /// node's lowest ids; tasks are granted cores from the ids above them.
    pub fn new(cluster: &Cluster, reserved_cores: &[(u32, u32)]) -> Self {
        let mut reserved_pairs = Vec::new();
        let nodes = cluster
            .nodes
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let reserve = reserved_cores
                    .iter()
                    .filter(|&&(n, _)| n == i as u32)
                    .map(|&(_, c)| c)
                    .sum::<u32>()
                    .min(spec.cores);
                for c in 0..reserve {
                    reserved_pairs.push((i as u32, c));
                }
                NodeResources {
                    free_cores: (reserve..spec.cores).collect(),
                    held: BTreeSet::new(),
                    free_gpus: (0..spec.gpu_count()).collect(),
                    free_mem_gib: spec.mem_gib,
                    alive: true,
                    capacity_cores: spec.cores - reserve,
                    capacity_gpus: spec.gpu_count(),
                    capacity_mem_gib: spec.mem_gib,
                }
            })
            .collect();
        Scheduler {
            nodes,
            ready: BTreeMap::new(),
            by_class: HashMap::new(),
            infeasible: HashSet::new(),
            all_blocked: false,
            dispatch_ahead: false,
            reserved: reserved_pairs,
        }
    }

    /// Let every core hold queued tasks behind the one it runs (see
    /// "Dispatch-ahead" above). The distributed backend calls this when it
    /// builds its runtime; nothing else does.
    pub fn enable_dispatch_ahead(&mut self) {
        self.dispatch_ahead = true;
    }

    /// Whether [`Scheduler::enable_dispatch_ahead`] was called.
    pub fn dispatches_ahead(&self) -> bool {
        self.dispatch_ahead
    }

    /// Whether the cluster could *ever* satisfy `c` (at full capacity,
    /// ignoring current usage but honouring reservations). A `@multinode`
    /// constraint needs `c.nodes` distinct capable nodes. Submissions that
    /// fail this check can never run — the runtime rejects them.
    pub fn satisfiable(&self, c: &Constraint) -> bool {
        let capable = self
            .nodes
            .iter()
            .filter(|n| {
                n.alive
                    && n.capacity_cores >= c.cpus
                    && n.capacity_gpus >= c.gpus
                    && n.capacity_mem_gib >= c.mem_gib
            })
            .count();
        capable >= c.nodes.max(1) as usize
    }

    /// Enqueue a ready task.
    pub fn push_ready(&mut self, entry: ReadyEntry) {
        self.push(entry, false);
    }

    /// Enqueue a ready task that may queue [`FAST_DEPTH`] deep behind a
    /// busy core (see "Dispatch-ahead" above).
    pub fn push_ready_fast(&mut self, entry: ReadyEntry) {
        self.push(entry, true);
    }

    fn push(&mut self, entry: ReadyEntry, fast: bool) {
        let key = (!entry.priority, entry.seq);
        let class = ClassKey::of(&entry, fast);
        // An entry of a class already proven unplaceable cannot unblock the
        // set; anything else might.
        if self.all_blocked && !self.infeasible.contains(&class) {
            self.all_blocked = false;
        }
        self.by_class.entry(class).or_default().insert(key);
        let evicted = self.ready.insert(key, (entry, fast));
        debug_assert!(evicted.is_none(), "ready keys are unique per submission");
    }

    /// Remove `key` from both the ordered set and its class bucket.
    fn remove_ready(&mut self, key: ReadyKey) -> (ReadyEntry, bool) {
        let (entry, fast) = self.ready.remove(&key).expect("popped key is present");
        if let Some(bucket) = self.by_class.get_mut(&ClassKey::of(&entry, fast)) {
            bucket.remove(&key);
        }
        (entry, fast)
    }

    /// Number of tasks waiting for resources.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Pop the best placeable ready task, if any, together with its
    /// placement. `locality` scores a `(task, node)` pair with any `Ord`
    /// value (higher = better); among equally feasible nodes the highest
    /// score wins, with ties broken toward the lowest node id. Backends
    /// pass a plain resident-input count, or a composite
    /// (fewest-bytes-to-move, most-resident) score for transfer-aware
    /// placement — see `DataRegistry::transfer_score`.
    ///
    /// Equivalent to walking the ready-set in key order (priority desc, seq
    /// asc) and taking the first entry with a feasible
    /// `(node, implementation)` pair — but probed *per feasibility class*:
    /// candidate classes are visited in order of their earliest key, one
    /// placement probe decides a whole bucket, and classes proven
    /// unplaceable stay memoised until the next release. Because
    /// feasibility is uniform within a class, the first feasible class's
    /// earliest entry *is* the globally first placeable entry, so the pop
    /// order is bit-identical to the linear scan
    /// ([`Scheduler::pop_placeable_reference`] keeps that scan around as a
    /// differential-testing oracle). Cost is O(classes²) per pop at worst,
    /// for a handful of classes, and O(1) while the whole set is known
    /// blocked, where the linear scan paid O(ready) every call.
    ///
    /// Under dispatch-ahead, a pop that places nothing on an idle core
    /// then tries to queue a one-core task behind a busy one.
    pub fn pop_placeable<S: Ord>(
        &mut self,
        locality: impl Fn(TaskId, u32) -> S,
    ) -> Option<(ReadyEntry, Placement)> {
        self.pop_idle(&locality).or_else(|| self.pop_ahead(&locality))
    }

    /// The first pass of [`Scheduler::pop_placeable`]: idle resources only.
    fn pop_idle<S: Ord>(
        &mut self,
        locality: &impl Fn(TaskId, u32) -> S,
    ) -> Option<(ReadyEntry, Placement)> {
        if self.all_blocked {
            return None;
        }
        loop {
            // The earliest ready key of a class not yet proven infeasible.
            let first = self
                .by_class
                .iter()
                .filter(|(class, _)| !self.infeasible.contains(*class))
                .filter_map(|(class, keys)| Some((*keys.first()?, class)))
                .min_by_key(|&(key, _)| key);
            let Some((key, class)) = first else {
                // Every class probed infeasible: stay O(1) until something
                // changes (release / new-class push).
                self.all_blocked = !self.ready.is_empty();
                return None;
            };
            match choose_node(&self.nodes, &self.ready[&key].0, locality) {
                Some((node, variant)) => return Some(self.place(key, node, variant)),
                None => {
                    self.infeasible.insert(class.clone());
                }
            }
        }
    }

    /// The second pass of [`Scheduler::pop_placeable`]: queue the first
    /// one-core task that fits behind a busy core. Feasibility is uniform
    /// within a class here too, so one probe per class decides it. No memo:
    /// placing on an idle core adds busy cores, so a miss does not stay one.
    fn pop_ahead<S: Ord>(
        &mut self,
        locality: &impl Fn(TaskId, u32) -> S,
    ) -> Option<(ReadyEntry, Placement)> {
        let takes_more = |n: &NodeResources| n.held.first().is_some_and(|&(h, _)| h <= FAST_DEPTH);
        if !self.dispatch_ahead || !self.nodes.iter().any(|n| n.alive && takes_more(n)) {
            return None;
        }
        let (key, node) = self
            .by_class
            .iter()
            .filter(|(class, _)| queues_ahead(&class.constraint, &class.alternatives))
            .filter_map(|(class, keys)| {
                let key = *keys.first()?;
                let entry = &self.ready[&key].0;
                choose_ahead_node(&self.nodes, entry, class.fast, locality).map(|node| (key, node))
            })
            .min_by_key(|&(key, _)| key)?;
        Some(self.queue_behind(key, node))
    }

    /// The pre-index linear scan, kept as a differential-testing oracle:
    /// same contract as [`Scheduler::pop_placeable`], no class index. The
    /// proptest suite asserts both pop identical sequences.
    #[doc(hidden)]
    pub fn pop_placeable_reference<S: Ord>(
        &mut self,
        locality: impl Fn(TaskId, u32) -> S,
    ) -> Option<(ReadyEntry, Placement)> {
        let idle = self.ready.iter().find_map(|(key, (entry, _))| {
            choose_node(&self.nodes, entry, &locality).map(|(node, variant)| (*key, node, variant))
        });
        if let Some((key, node, variant)) = idle {
            return Some(self.place(key, node, variant));
        }
        if !self.dispatch_ahead {
            return None;
        }
        let (key, node) = self
            .ready
            .iter()
            .filter(|(_, (e, _))| queues_ahead(&e.constraint, &e.alternatives))
            .find_map(|(key, (e, fast))| {
                choose_ahead_node(&self.nodes, e, *fast, &locality).map(|n| (*key, n))
            })?;
        Some(self.queue_behind(key, node))
    }

    /// Pop ready entry `key` onto idle resources of `node`.
    fn place(&mut self, key: ReadyKey, node: u32, variant: usize) -> (ReadyEntry, Placement) {
        let (entry, fast) = self.remove_ready(key);
        let constraint = entry.variants().nth(variant).expect("choose_node picked a variant");
        (entry, self.allocate(node, &constraint, variant, fast))
    }

    /// Pop ready entry `key` and queue it behind the busy core of `node`
    /// holding the fewest tasks, lowest id among equals. Its memory is
    /// reserved as for a running task.
    fn queue_behind(&mut self, key: ReadyKey, node: u32) -> (ReadyEntry, Placement) {
        let (entry, fast) = self.remove_ready(key);
        let n = &mut self.nodes[node as usize];
        let (held, core) = n.held.pop_first().expect("choose_ahead_node vetted this");
        n.held.insert((held + 1, core));
        n.free_mem_gib -= entry.constraint.mem_gib;
        let (cores, gpus, extra) = (vec![core], Vec::new(), Vec::new());
        (entry, Placement { node, cores, gpus, variant: 0, extra, fast })
    }

    /// Take `(cores, gpus, mem)` from one node's free pools.
    fn take_from_node(&mut self, node: u32, c: &Constraint) -> (Vec<u32>, Vec<u32>) {
        let n = &mut self.nodes[node as usize];
        let cores: Vec<u32> = n.free_cores.iter().copied().take(c.cpus as usize).collect();
        for core in &cores {
            n.free_cores.remove(core);
        }
        if self.dispatch_ahead {
            n.held.extend(cores.iter().map(|&core| (1, core)));
        }
        let gpus: Vec<u32> = n.free_gpus.iter().copied().take(c.gpus as usize).collect();
        for g in &gpus {
            n.free_gpus.remove(g);
        }
        n.free_mem_gib -= c.mem_gib;
        (cores, gpus)
    }

    fn allocate(&mut self, node: u32, c: &Constraint, variant: usize, fast: bool) -> Placement {
        let (cores, gpus) = self.take_from_node(node, c);
        let mut extra = Vec::new();
        if c.nodes > 1 {
            let others: Vec<u32> = (0..self.nodes.len() as u32)
                .filter(|&j| {
                    let n = &self.nodes[j as usize];
                    j != node
                        && n.alive
                        && n.free_cores.len() >= c.cpus as usize
                        && n.free_gpus.len() >= c.gpus as usize
                        && n.free_mem_gib >= c.mem_gib
                })
                .take(c.nodes as usize - 1)
                .collect();
            debug_assert_eq!(others.len(), c.nodes as usize - 1, "choose_node vetted this");
            for j in others {
                let (jc, jg) = self.take_from_node(j, c);
                extra.push((j, jc, jg));
            }
        }
        Placement { node, cores, gpus, variant, extra, fast }
    }

    /// Return the resources of a finished/killed placement to the pool.
    /// Dead nodes are skipped. Under dispatch-ahead a core that still holds
    /// another task stays busy, holding one fewer.
    /// Freed resources can make previously unplaceable constraint classes
    /// feasible again, so the class memo is reset here.
    pub fn release(&mut self, p: &Placement, c: &Constraint) {
        self.infeasible.clear();
        self.all_blocked = false;
        let mut give_back = |node: u32, cores: &[u32], gpus: &[u32]| {
            let n = &mut self.nodes[node as usize];
            if !n.alive {
                return;
            }
            for &core in cores {
                let held = n.held_by(core);
                n.held.remove(&(held, core));
                if held > 1 {
                    n.held.insert((held - 1, core));
                } else {
                    n.free_cores.insert(core);
                }
            }
            n.free_gpus.extend(gpus.iter().copied());
            n.free_mem_gib += c.mem_gib;
        };
        give_back(p.node, &p.cores, &p.gpus);
        for (node, cores, gpus) in &p.extra {
            give_back(*node, cores, gpus);
        }
    }

    /// Kill a node for good: mark dead and wipe its free pools and held
    /// counts.
    pub fn kill_node(&mut self, node: u32) {
        if let Some(n) = self.nodes.get_mut(node as usize) {
            n.alive = false;
            n.free_cores.clear();
            n.held.clear();
            n.free_gpus.clear();
            n.free_mem_gib = 0;
        }
    }

    /// Remove and return every ready task that can no longer be satisfied
    /// by the surviving cluster at *full capacity* — no implementation
    /// variant fits any alive node. After a node death the runtime fails
    /// these immediately instead of letting a barrier hang forever. A retry
    /// barred from its node to move elsewhere, with nowhere left to move,
    /// stays instead, as it would have had that been so when it failed.
    pub fn drain_unsatisfiable(&mut self) -> Vec<ReadyEntry> {
        let stranded = self.ready.iter().filter(|(_, (e, _))| {
            e.exclude_node.is_some_and(|x| !e.variants().any(|c| self.satisfiable_excluding(&c, x)))
        });
        for key in stranded.map(|(k, _)| *k).collect::<Vec<_>>() {
            let (entry, fast) = self.remove_ready(key);
            self.push(ReadyEntry { exclude_node: None, ..entry }, fast);
        }
        let doomed: Vec<ReadyKey> = self
            .ready
            .iter()
            .filter(|(_, (e, _))| !e.variant_constraints().iter().any(|c| self.satisfiable(c)))
            .map(|(k, _)| *k)
            .collect();
        doomed.into_iter().map(|k| self.remove_ready(k).0).collect()
    }

    /// Whether `c` could be satisfied with `node` barred from being the
    /// primary host. Used by the retry policy: "move to another node" only
    /// makes sense when another capable node exists; otherwise the retry
    /// stays local.
    pub fn satisfiable_excluding(&self, c: &Constraint, node: u32) -> bool {
        let capable = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, n)| {
                i as u32 != node
                    && n.alive
                    && n.capacity_cores >= c.cpus
                    && n.capacity_gpus >= c.gpus
                    && n.capacity_mem_gib >= c.mem_gib
            })
            .count();
        capable >= c.nodes.max(1) as usize
    }

    /// Direct access for tests and backends.
    pub fn node(&self, node: u32) -> &NodeResources {
        &self.nodes[node as usize]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Pick the best `(node, implementation)` for `entry` on the current pool
/// state, or `None` when nothing fits. Policy: the retry-preferred node wins
/// outright if any implementation fits there; otherwise the feasible node
/// with the most resident input data (ties to the lowest node id). Each
/// node tries the primary constraint first, then `@implement` alternatives.
fn choose_node<S: Ord>(
    nodes: &[NodeResources],
    entry: &ReadyEntry,
    locality: &impl Fn(TaskId, u32) -> S,
) -> Option<(u32, usize)> {
    let node_fits = |i: u32, c: &Constraint| -> bool {
        let n = &nodes[i as usize];
        n.alive
            && Some(i) != entry.exclude_node
            && n.free_cores.len() >= c.cpus as usize
            && n.free_gpus.len() >= c.gpus as usize
            && n.free_mem_gib >= c.mem_gib
    };
    // First implementation variant that fits on node `i` (a `@multinode`
    // variant also needs enough peer nodes to fill the allocation).
    let first_fitting = |i: u32| -> Option<usize> {
        entry.variants().position(|c| {
            node_fits(i, &c)
                && (c.nodes <= 1
                    || (0..nodes.len() as u32).filter(|&j| j != i && node_fits(j, &c)).count()
                        >= c.nodes as usize - 1)
        })
    };
    let fits = |i: u32| first_fitting(i).map(|v| (v, ()));
    best_node(nodes.len(), entry, locality, fits)
}

/// The node a one-core `entry` queues behind under dispatch-ahead, by the
/// same preference, exclusion and score as [`choose_node`]: one with the
/// memory to spare and a core that runs exactly one task, or, for a `fast`
/// entry, a busy core with fewer than `1 + FAST_DEPTH` tasks; a fast
/// entry's score ties go to the node whose least-held core holds fewest.
fn choose_ahead_node<S: Ord>(
    nodes: &[NodeResources],
    entry: &ReadyEntry,
    fast: bool,
    locality: &impl Fn(TaskId, u32) -> S,
) -> Option<u32> {
    let most = if fast { 1 + FAST_DEPTH } else { 2 };
    let fits = |i: u32| {
        let n = &nodes[i as usize];
        let &(fewest, _) = n.held.first()?;
        (n.alive
            && Some(i) != entry.exclude_node
            && fewest < most
            && n.free_mem_gib >= entry.constraint.mem_gib)
            .then_some((0, std::cmp::Reverse(if fast { fewest } else { 0 })))
    };
    best_node(nodes.len(), entry, locality, fits).map(|(node, _)| node)
}

/// The retry-preferred node if `fits` accepts it, else the accepted node
/// with the best score, then the best tie-break `fits` gives, then the
/// lowest id. `fits` names the implementation variant a node can host.
fn best_node<S: Ord, T: Ord>(
    node_count: usize,
    entry: &ReadyEntry,
    locality: &impl Fn(TaskId, u32) -> S,
    fits: impl Fn(u32) -> Option<(usize, T)>,
) -> Option<(u32, usize)> {
    if let Some(p) = entry.prefer_node {
        if let Some((v, _)) = fits(p) {
            return Some((p, v));
        }
    }
    let scored = (0..node_count as u32).filter_map(|i| {
        fits(i).map(|(v, tie)| ((locality(entry.task, i), tie, std::cmp::Reverse(i)), v))
    });
    scored.max_by(|a, b| a.0.cmp(&b.0)).map(|((_, _, std::cmp::Reverse(i)), v)| (i, v))
}

/// Whether a task of these implementations may queue behind a busy core:
/// one implementation, one core, no GPU, one node.
fn queues_ahead(constraint: &Constraint, alternatives: &[Constraint]) -> bool {
    alternatives.is_empty() && constraint.cpus == 1 && constraint.gpus == 0 && constraint.nodes <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::NodeSpec;

    fn sched(nodes: usize) -> Scheduler {
        Scheduler::new(&Cluster::homogeneous(nodes, NodeSpec::marenostrum4()), &[])
    }

    fn entry(task: u64, cpus: u32, seq: u64) -> ReadyEntry {
        ReadyEntry {
            task: TaskId(task),
            constraint: Constraint::cpus(cpus),
            alternatives: Vec::new(),
            priority: false,
            seq,
            prefer_node: None,
            exclude_node: None,
        }
    }

    #[test]
    fn drain_unsatisfiable_removes_only_doomed_entries() {
        let mut s = sched(2);
        let fat = NodeSpec::marenostrum4().cores + 1;
        s.push_ready(entry(1, 1, 0));
        s.push_ready(entry(2, fat, 1)); // never fits — rejected path
        s.push_ready(entry(3, 1, 2));
        let drained = s.drain_unsatisfiable();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].task, TaskId(2));
        assert_eq!(s.ready_len(), 2);
        // Kill both nodes: everything left becomes unsatisfiable.
        s.kill_node(0);
        s.kill_node(1);
        for node in 0..2 {
            let n = s.node(node);
            assert!(!n.alive);
            assert!(n.free_cores.is_empty() && n.free_gpus.is_empty());
            assert_eq!(n.free_mem_gib, 0);
        }
        let drained = s.drain_unsatisfiable();
        assert_eq!(drained.len(), 2);
        assert_eq!(s.ready_len(), 0);
    }

    #[test]
    fn fifo_order_without_priority() {
        let mut s = sched(1);
        s.push_ready(entry(1, 1, 1));
        s.push_ready(entry(2, 1, 0));
        let (e, _) = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!(e.task, TaskId(2), "lower seq first");
    }

    #[test]
    fn priority_jumps_the_queue() {
        let mut s = sched(1);
        s.push_ready(entry(1, 1, 0));
        let mut p = entry(2, 1, 1);
        p.priority = true;
        s.push_ready(p);
        let (e, _) = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!(e.task, TaskId(2));
    }

    #[test]
    fn allocation_grants_disjoint_core_sets() {
        let mut s = sched(1);
        s.push_ready(entry(1, 4, 0));
        s.push_ready(entry(2, 4, 1));
        let (_, p1) = s.pop_placeable(|_, _| 0).unwrap();
        let (_, p2) = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!(p1.cores.len(), 4);
        assert_eq!(p2.cores.len(), 4);
        assert!(p1.cores.iter().all(|c| !p2.cores.contains(c)), "disjoint affinity");
    }

    #[test]
    fn exhausted_node_defers_tasks() {
        let mut s = sched(1); // 48 cores
        s.push_ready(entry(1, 48, 0));
        s.push_ready(entry(2, 1, 1));
        let (e1, p1) = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!(e1.task, TaskId(1));
        assert!(s.pop_placeable(|_, _| 0).is_none(), "node full");
        s.release(&p1, &e1.constraint);
        let (e2, _) = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!(e2.task, TaskId(2));
    }

    #[test]
    fn full_node_does_not_block_smaller_later_task() {
        // Task 1 wants 48 cores but 4 are taken; task 2 wants 4 and fits.
        let mut s = sched(1);
        s.push_ready(entry(0, 4, 0));
        let _ = s.pop_placeable(|_, _| 0).unwrap();
        s.push_ready(entry(1, 48, 1));
        s.push_ready(entry(2, 4, 2));
        let (e, _) = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!(e.task, TaskId(2), "backfilling keeps the node busy");
        assert_eq!(s.ready_len(), 1);
    }

    #[test]
    fn reservation_shrinks_and_labels_cores() {
        let cluster = Cluster::homogeneous(1, NodeSpec::marenostrum4());
        let s = Scheduler::new(&cluster, &[(0, 24)]);
        assert_eq!(s.node(0).free_cores.len(), 24);
        assert!(s.node(0).free_cores.iter().all(|&c| c >= 24));
        assert_eq!(s.reserved.len(), 24);
        assert!(s.satisfiable(&Constraint::cpus(24)));
        assert!(!s.satisfiable(&Constraint::cpus(25)), "reservation caps capacity");
    }

    #[test]
    fn satisfiable_considers_gpus_and_memory() {
        let s = sched(2);
        assert!(s.satisfiable(&Constraint::cpus(48)));
        assert!(!s.satisfiable(&Constraint::cpus(49)));
        assert!(!s.satisfiable(&Constraint::cpus(1).with_gpus(1)), "MN4 has no GPUs");
        assert!(!s.satisfiable(&Constraint::cpus(1).with_mem_gib(1000)));
        let gpu = Scheduler::new(&Cluster::homogeneous(1, NodeSpec::cte_power9()), &[]);
        assert!(gpu.satisfiable(&Constraint::cpus(1).with_gpus(4)));
        assert!(!gpu.satisfiable(&Constraint::cpus(1).with_gpus(5)));
    }

    #[test]
    fn prefer_and_exclude_nodes() {
        let mut s = sched(3);
        let mut e = entry(1, 1, 0);
        e.prefer_node = Some(2);
        s.push_ready(e);
        let (_, p) = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!(p.node, 2);

        let mut e = entry(2, 1, 1);
        e.exclude_node = Some(0);
        s.push_ready(e);
        let (_, p) = s.pop_placeable(|_, _| 0).unwrap();
        assert_ne!(p.node, 0);
    }

    #[test]
    fn a_retry_barred_from_the_last_live_node_runs_there() {
        // Excluded from node 0 to move to node 1, which then dies: the task
        // stays on node 0 rather than waiting forever for a node to move to.
        let mut s = sched(2);
        let mut e = entry(1, 1, 0);
        e.exclude_node = Some(0);
        s.push_ready(e);
        s.kill_node(1);
        assert!(s.drain_unsatisfiable().is_empty());
        let (_, p) = s.pop_placeable(|_, _| 0).expect("placeable on node 0");
        assert_eq!(p.node, 0);
    }

    #[test]
    fn locality_breaks_ties() {
        let mut s = sched(3);
        s.push_ready(entry(1, 1, 0));
        let (_, p) = s.pop_placeable(|_, node| if node == 1 { 5 } else { 0 }).unwrap();
        assert_eq!(p.node, 1, "node with resident data wins");
    }

    #[test]
    fn score_ties_break_toward_lowest_node_id() {
        // Equal locality everywhere → node 0, both for the plain count and
        // for a transfer-aware (Reverse(bytes), resident) composite score.
        let mut s = sched(3);
        s.push_ready(entry(1, 1, 0));
        let (_, p) = s.pop_placeable(|_, _| 3usize).unwrap();
        assert_eq!(p.node, 0, "uniform locality falls back to lowest id");
        s.push_ready(entry(2, 1, 1));
        let (_, p) = s.pop_placeable(|_, _| (std::cmp::Reverse(4096u64), 1usize)).unwrap();
        assert_eq!(p.node, 0, "uniform transfer score falls back to lowest id");
        // An actual bytes difference overrides the id tie-break…
        s.push_ready(entry(3, 1, 2));
        let (_, p) = s
            .pop_placeable(|_, node| {
                (std::cmp::Reverse(if node == 2 { 0u64 } else { 1 << 20 }), 0usize)
            })
            .unwrap();
        assert_eq!(p.node, 2, "fewest bytes-to-move wins");
        // …and equal bytes with unequal residency falls to resident count.
        s.push_ready(entry(4, 1, 3));
        let (_, p) = s
            .pop_placeable(|_, node| {
                (std::cmp::Reverse(512u64), if node == 1 { 2usize } else { 1 })
            })
            .unwrap();
        assert_eq!(p.node, 1, "equal bytes: most resident inputs wins");
    }

    #[test]
    fn killed_node_is_skipped_and_release_is_noop() {
        let mut s = sched(2);
        s.push_ready(entry(1, 1, 0));
        let (e, p) = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!(p.node, 0, "lowest id by default");
        s.kill_node(0);
        s.release(&p, &e.constraint); // must not resurrect cores
        assert_eq!(s.node(0).free_cores.len(), 0);
        s.push_ready(entry(2, 1, 1));
        let (_, p2) = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!(p2.node, 1);
        assert!(!s.satisfiable(&Constraint::cpus(48)) || s.node(1).alive);
    }

    #[test]
    fn multinode_entry_takes_whole_node_set() {
        let mut s = sched(3); // 3 × 48-core MN4 nodes
        let mut e = entry(1, 48, 0);
        e.constraint = Constraint::multinode(2, 48);
        s.push_ready(e);
        let (_, p) = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!(p.cores.len(), 48);
        assert_eq!(p.extra.len(), 1);
        assert_eq!(p.extra[0].1.len(), 48);
        assert_eq!(p.node_cores().count(), 2);
        assert!(p.involves(p.node));
        assert!(p.involves(p.extra[0].0));
        // only one free node left: a second 2-node task cannot start
        let mut e2 = entry(2, 48, 1);
        e2.constraint = Constraint::multinode(2, 48);
        s.push_ready(e2);
        assert!(s.pop_placeable(|_, _| 0).is_none());
        // release frees both nodes
        s.release(&p, &Constraint::multinode(2, 48));
        assert!(s.pop_placeable(|_, _| 0).is_some());
    }

    #[test]
    fn multinode_satisfiability_counts_capable_nodes() {
        let s = sched(3);
        assert!(s.satisfiable(&Constraint::multinode(3, 48)));
        assert!(!s.satisfiable(&Constraint::multinode(4, 1)));
        assert!(s.satisfiable_excluding(&Constraint::multinode(2, 48), 0));
        assert!(!s.satisfiable_excluding(&Constraint::multinode(3, 48), 0));
    }

    /// The indexed pop (class memo + B-tree walk) must pop the exact same
    /// task sequence as the plain linear scan across randomized workloads —
    /// the sim backend's determinism depends on it. A seeded xorshift keeps
    /// the test reproducible; `tests/ready_order.rs` re-checks the same
    /// property under proptest shrinking.
    #[test]
    fn indexed_pop_matches_linear_reference() {
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for round in 0..50u64 {
            let mut a = sched(3);
            let mut b = sched(3);
            let mut running: Vec<(ReadyEntry, Placement)> = Vec::new();
            for seq in 0..40u64 {
                let mut e = entry(round * 100 + seq, (next() % 32 + 1) as u32, seq);
                e.priority = next().is_multiple_of(3);
                if next().is_multiple_of(4) {
                    e.exclude_node = Some((next() % 3) as u32);
                }
                a.push_ready(e.clone());
                b.push_ready(e);
            }
            // Interleave pops with releases so the memo sees invalidation.
            for step in 0..200 {
                let loc = |t: TaskId, n: u32| (t.0 as usize + n as usize) % 5;
                let pa = a.pop_placeable(loc);
                let pb = b.pop_placeable_reference(loc);
                match (&pa, &pb) {
                    (Some((ea, la)), Some((eb, lb))) => {
                        assert_eq!(ea.task, eb.task, "round {round} step {step}");
                        assert_eq!(la, lb, "round {round} step {step}");
                    }
                    (None, None) => {}
                    _ => panic!("round {round} step {step}: {pa:?} vs {pb:?}"),
                }
                if let Some(p) = pa {
                    running.push(p);
                }
                if pb.is_none() || next().is_multiple_of(2) {
                    if running.is_empty() {
                        if a.ready_len() == 0 {
                            break;
                        }
                        continue;
                    }
                    let (e, p) = running.remove((next() % running.len() as u64) as usize);
                    let c = e.variant_constraints()[p.variant];
                    a.release(&p, &c);
                    b.release(&p, &c);
                }
            }
        }
    }

    /// `nodes` dispatch-ahead nodes of `cores` cores each.
    fn ahead(nodes: usize, cores: u32) -> Scheduler {
        let spec = NodeSpec::new("w", cores, Vec::new(), 16);
        let mut s = Scheduler::new(&Cluster::homogeneous(nodes, spec), &[]);
        s.enable_dispatch_ahead();
        s
    }

    #[test]
    fn no_task_is_queued_while_a_feasible_idle_core_exists() {
        // Node 0 runs one task and has the better score; node 1 is idle.
        let mut s = ahead(2, 2);
        let loc = |_: TaskId, node: u32| u32::from(node == 0);
        s.push_ready(entry(1, 1, 0));
        let (_, first) = s.pop_placeable(loc).unwrap();
        assert_eq!((first.node, s.node(0).free_cores.len()), (0, 1));
        // Three more: the idle core of node 0, then both of node 1, all
        // before anything is queued behind a busy core.
        for seq in 1..4 {
            s.push_ready(entry(1 + seq, 1, seq));
            let (_, p) = s.pop_placeable(loc).unwrap();
            // A core taken idle runs one task; a queued task's core holds two.
            assert_eq!(s.node(p.node).held_by(p.cores[0]), 1, "queued: {p:?}");
        }
        assert!(s.node(0).free_cores.is_empty() && s.node(1).free_cores.is_empty());
        // Only now does a task queue, on the node the score picks.
        s.push_ready(entry(9, 1, 9));
        let (_, p) = s.pop_placeable(loc).unwrap();
        assert_eq!((p.node, p.cores.len()), (0, 1));
        assert_eq!(s.node(0).held_by(p.cores[0]), 2, "one core of node 0 holds two tasks");
        assert_eq!(s.node(0).held.iter().filter(|&&(n, _)| n == 1).count(), 1);
    }

    #[test]
    fn a_two_cpu_task_is_never_dispatched_ahead() {
        let mut s = ahead(1, 2);
        s.push_ready(entry(1, 1, 0));
        s.push_ready(entry(2, 1, 1));
        let _ = s.pop_placeable(|_, _| 0).unwrap();
        let _ = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!(s.node(0).held.len(), 2, "both cores run one task");
        s.push_ready(entry(3, 2, 2));
        assert!(s.pop_placeable(|_, _| 0).is_none(), "a 2-CPU task waits for idle cores");
        assert!(s.pop_placeable_reference(|_, _| 0).is_none());
        // Nor does a one-core task with an `@implement` alternative.
        let mut alt = entry(4, 1, 3);
        alt.alternatives.push(Constraint::cpus(2));
        s.push_ready(alt);
        assert!(s.pop_placeable(|_, _| 0).is_none(), "a multi-variant task is not queued");
        // A plain one-core task behind it is.
        s.push_ready(entry(5, 1, 4));
        let (e, _) = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!(e.task, TaskId(5));
    }

    #[test]
    fn release_leaves_a_core_that_still_holds_a_task_busy() {
        let mut s = ahead(1, 1);
        s.push_ready(entry(1, 1, 0));
        s.push_ready(entry(2, 1, 1));
        s.push_ready(entry(3, 1, 2));
        let (running, p1) = s.pop_placeable(|_, _| 0).unwrap();
        let (queued, p2) = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!(p1.cores, p2.cores, "queued behind the core it will run on");
        assert!(s.pop_placeable(|_, _| 0).is_none(), "one queued task per core");
        assert!(s.node(0).free_cores.is_empty() && s.node(0).held_by(p1.cores[0]) == 2);
        s.release(&p1, &running.constraint);
        assert!(s.node(0).free_cores.is_empty());
        assert_eq!(s.node(0).held.iter().copied().collect::<Vec<_>>(), vec![(1, p1.cores[0])]);
        // The freed slot takes the next task ahead at once.
        let (third, p3) = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!((third.task, &p3.cores), (TaskId(3), &p1.cores));
        s.release(&p2, &queued.constraint);
        s.release(&p3, &third.constraint);
        assert_eq!(s.node(0).free_cores.iter().copied().collect::<Vec<_>>(), p1.cores);
        assert!(s.node(0).held.is_empty());
    }

    #[test]
    fn kill_node_clears_the_free_pool_and_the_held_counts() {
        let mut s = ahead(1, 2);
        s.push_ready(entry(1, 1, 0));
        let _ = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!((s.node(0).free_cores.len(), s.node(0).held.len()), (1, 1));
        s.push_ready(entry(2, 1, 1));
        let _ = s.pop_placeable(|_, _| 0).unwrap();
        for seq in 2..6 {
            s.push_ready_fast(entry(1 + seq, 1, seq));
            let _ = s.pop_placeable(|_, _| 0).unwrap();
        }
        assert_eq!(s.node(0).held.iter().map(|&(n, _)| n).sum::<u32>(), 6);
        s.kill_node(0);
        assert!(s.node(0).free_cores.is_empty() && s.node(0).held.is_empty());
        s.push_ready(entry(9, 1, 9));
        s.push_ready_fast(entry(10, 1, 10));
        assert!(s.pop_placeable(|_, _| 0).is_none(), "a dead node takes nothing ahead");
        assert!(s.pop_placeable_reference(|_, _| 0).is_none());
    }

    #[test]
    fn a_fast_burst_of_sixteen_on_two_one_core_nodes_lands_eight_and_eight() {
        let mut s = ahead(2, 1);
        let mut on = [0; 2];
        for seq in 0..16 {
            s.push_ready_fast(entry(seq, 1, seq));
            let (_, p) = s.pop_placeable(|_, _| 0).expect("room for sixteen");
            on[p.node as usize] += 1;
        }
        assert_eq!(on, [8, 8], "score ties go to the node whose core holds fewest");
        assert_eq!(s.node(0).held_by(0) + s.node(1).held_by(0), 16);
        // Each core holds its running task and seven queued: room for one
        // more fast task each, none for a slow one.
        s.push_ready(entry(16, 1, 16));
        assert!(s.pop_placeable(|_, _| 0).is_none(), "a slow task queues only one deep");
        for seq in 17..19 {
            s.push_ready_fast(entry(seq, 1, seq));
            let (e, _) = s.pop_placeable(|_, _| 0).expect("one more fast task per core");
            assert_eq!(e.task, TaskId(seq), "a fast task passes the stuck slow one");
        }
        s.push_ready_fast(entry(19, 1, 19));
        assert!(s.pop_placeable(|_, _| 0).is_none(), "FAST_DEPTH behind the running task");
        assert_eq!(s.node(0).held_by(0), 1 + FAST_DEPTH);
    }

    #[test]
    fn a_slow_task_never_queues_second_deep() {
        // One core running a task with one fast task queued behind it: the
        // core holds two, so a slow task waits however long the queue.
        let mut s = ahead(1, 1);
        s.push_ready(entry(1, 1, 0));
        s.push_ready_fast(entry(2, 1, 1));
        let (_, running) = s.pop_placeable(|_, _| 0).unwrap();
        let _ = s.pop_placeable(|_, _| 0).unwrap();
        s.push_ready(entry(3, 1, 2));
        assert!(s.pop_placeable(|_, _| 0).is_none(), "the core holds two");
        assert!(s.pop_placeable_reference(|_, _| 0).is_none());
        // Once the running task ends the core holds one: the slow task queues.
        s.release(&running, &Constraint::cpus(1));
        let (e, p) = s.pop_placeable(|_, _| 0).unwrap();
        assert_eq!((e.task, s.node(0).held_by(p.cores[0])), (TaskId(3), 2));
    }

    #[test]
    fn gpu_allocation_tracks_ids() {
        let mut s = Scheduler::new(&Cluster::homogeneous(1, NodeSpec::cte_power9()), &[]);
        let mut taken = Vec::new();
        for i in 0..4 {
            let mut e = entry(i, 1, i);
            e.constraint = Constraint::cpus(1).with_gpus(1);
            s.push_ready(e);
            let (_, p) = s.pop_placeable(|_, _| 0).unwrap();
            assert_eq!(p.gpus.len(), 1);
            taken.push(p.gpus[0]);
        }
        taken.sort_unstable();
        assert_eq!(taken, vec![0, 1, 2, 3]);
        // fifth GPU task can't start
        let mut e = entry(9, 1, 9);
        e.constraint = Constraint::cpus(1).with_gpus(1);
        s.push_ready(e);
        assert!(s.pop_placeable(|_, _| 0).is_none());
    }
}
