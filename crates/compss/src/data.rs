//! Versioned data registry.
//!
//! COMPSs tracks every task parameter as a *data item* whose versions are
//! renamed on each write — the `d1v2`, `d3v2`… labels of the paper's
//! Figure 3. Reading always names a specific version; writing bumps the
//! version. Dependencies fall out of "who produces the version I read" —
//! and so does liveness: renaming says who can still read what, so the
//! registry counts each version's users and drops it when it is dead
//! (see [`DataRegistry`]).
//!
//! Values are type-erased (`Arc<dyn Any + Send + Sync>`) so the runtime can
//! move arbitrary user types between tasks, exactly like PyCOMPSs moves
//! pickled Python objects.

use std::any::Any;
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use crate::ids::IdMap;
use crate::task::TaskId;

/// A type-erased, shareable task value.
#[derive(Clone)]
pub struct Value(Arc<dyn Any + Send + Sync>);

impl Value {
    /// Wrap a concrete value.
    pub fn new<T: Any + Send + Sync>(v: T) -> Self {
        Value(Arc::new(v))
    }

    /// Borrow as `T` if the type matches.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.downcast_ref::<T>()
    }

    /// Whether the payload is a `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.0.is::<T>()
    }

    /// `TypeId` of the wrapped concrete value (not of the `Arc` wrapper);
    /// the codec registry keys on this to serialise values for the wire.
    pub fn concrete_type_id(&self) -> std::any::TypeId {
        Any::type_id(&*self.0)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Value(<{:?}>)", self.0.type_id())
    }
}

/// Public reference to a data item (all versions of it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataHandle(pub(crate) u64);

impl DataHandle {
    /// Construct an arbitrary handle for unit tests.
    #[doc(hidden)]
    pub fn test_only(id: u64) -> Self {
        DataHandle(id)
    }
}

impl fmt::Display for DataHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// A specific version of a data item; renders like the paper's graph labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataVersion {
    /// The data item.
    pub handle: DataHandle,
    /// 1-based version.
    pub version: u32,
}

impl fmt::Display for DataVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}v{}", self.handle.0, self.version)
    }
}

/// The nodes a version is resident on: almost always none or one (the node
/// that produced it), and those cost no allocation.
#[derive(Debug, Default)]
enum NodeSet {
    #[default]
    Empty,
    One(u32),
    Many(Vec<u32>),
}

impl NodeSet {
    fn contains(&self, node: u32) -> bool {
        match self {
            NodeSet::Empty => false,
            NodeSet::One(n) => *n == node,
            NodeSet::Many(ns) => ns.contains(&node),
        }
    }

    fn insert(&mut self, node: u32) {
        match self {
            NodeSet::Empty => *self = NodeSet::One(node),
            NodeSet::One(n) if *n == node => {}
            NodeSet::One(n) => *self = NodeSet::Many(vec![*n, node]),
            NodeSet::Many(ns) => {
                if !ns.contains(&node) {
                    ns.push(node);
                }
            }
        }
    }

    fn remove(&mut self, node: u32) {
        match self {
            NodeSet::One(n) if *n == node => *self = NodeSet::Empty,
            NodeSet::Many(ns) => ns.retain(|n| *n != node),
            _ => {}
        }
    }
}

/// What a live version holds.
#[derive(Debug)]
enum Slot {
    /// Its writer has not settled yet.
    Pending(TaskId),
    /// Computed by its writer, or written by the main program.
    Ready(Value),
    /// Its writer failed permanently: there will never be a value.
    Poisoned,
}

/// Everything the runtime knows about one live version.
#[derive(Debug)]
struct Version {
    number: u32,
    /// Who could still touch it: unsettled tasks that read or write it, plus
    /// `wait_on`s in progress on it.
    users: u32,
    slot: Slot,
    nodes: NodeSet,
}

#[derive(Debug)]
struct Item {
    bytes: u64,
    /// The main program sized the item ([`DataRegistry::set_bytes`]): what
    /// a writer's output measures does not replace that.
    declared: bool,
    /// The latest version; 0 until the first write.
    current: u32,
    /// The main program gave the handle up ([`DataRegistry::delete`]): no
    /// version of it can be named any more.
    deleted: bool,
    /// The live versions, oldest first: `current` unless the item is
    /// deleted, and older ones that still have users.
    live: Vec<Version>,
}

/// The registry: one record per data item holding its live versions — value,
/// writer, poison mark, users and per-node residency (locality and transfer
/// modelling) — so that a version which is dead, or a whole item, goes with
/// one removal.
///
/// A version is **dead**, and dropped on the spot, when it has no users and
/// nobody can name it: it was superseded (`wait_on` and `In` only ever
/// resolve the current version) or its item was deleted.
#[derive(Debug)]
pub struct DataRegistry {
    items: IdMap<u64, Item>,
    /// Version records across all items.
    live_versions: usize,
    next_id: u64,
    default_bytes: u64,
}

impl DataRegistry {
    /// Empty registry; `default_bytes` is the assumed size of values whose
    /// size was never declared (transfer model input).
    pub fn new(default_bytes: u64) -> Self {
        DataRegistry { items: IdMap::default(), live_versions: 0, next_id: 1, default_bytes }
    }

    fn version(&self, v: DataVersion) -> Option<&Version> {
        self.items.get(&v.handle.0)?.live.iter().rev().find(|x| x.number == v.version)
    }

    fn version_mut(&mut self, v: DataVersion) -> Option<&mut Version> {
        self.items.get_mut(&v.handle.0)?.live.iter_mut().rev().find(|x| x.number == v.version)
    }

    /// Create a fresh data item whose version 1 is already available with
    /// `value` (main-program data, like the paper's parsed config objects).
    pub fn literal(&mut self, value: Value) -> DataHandle {
        let h = self.declare();
        self.push_version(h, Slot::Ready(value));
        h
    }

    /// Create a fresh data item with no available version yet (to be used
    /// as an `Out` parameter). Stays at version 0 until the first writer.
    pub fn declare(&mut self) -> DataHandle {
        let id = self.next_id;
        self.next_id += 1;
        self.items.insert(
            id,
            Item {
                bytes: self.default_bytes,
                declared: false,
                current: 0,
                deleted: false,
                live: Vec::new(),
            },
        );
        DataHandle(id)
    }

    /// Declare the in-memory size of a data item for the transfer model.
    pub fn set_bytes(&mut self, h: DataHandle, bytes: u64) {
        if let Some(item) = self.items.get_mut(&h.0) {
            item.bytes = bytes;
            item.declared = true;
        }
    }

    /// A writer's output for `h` came back `bytes` long encoded: that is the
    /// item's size from now on, unless the main program declared one. Until
    /// an output has been measured an item weighs the default guess, which
    /// is wrong by orders of magnitude for anything model-sized and would
    /// keep it out of the block plane whatever it weighs.
    pub(crate) fn observe_bytes(&mut self, h: DataHandle, bytes: u64) {
        if let Some(item) = self.items.get_mut(&h.0).filter(|i| !i.declared) {
            item.bytes = bytes;
        }
    }

    /// Size of a data item for the transfer model.
    pub fn bytes(&self, h: DataHandle) -> u64 {
        self.items.get(&h.0).map_or(self.default_bytes, |i| i.bytes)
    }

    /// The current (latest) version of `h`.
    ///
    /// # Panics
    /// Panics if the handle is unknown.
    pub fn current_version(&self, h: DataHandle) -> DataVersion {
        let item = self.items.get(&h.0).expect("unknown data handle");
        DataVersion { handle: h, version: item.current }
    }

    /// Whether the handle was created by this registry and not deleted.
    pub fn knows(&self, h: DataHandle) -> bool {
        self.items.get(&h.0).is_some_and(|i| !i.deleted)
    }

    /// Bump `h` to a new version that `writer` will produce. Returns the new
    /// version (the write target of an OUT/INOUT parameter or return slot).
    /// The version it supersedes stays until it is dead (see the type's
    /// documentation).
    pub fn new_version(&mut self, h: DataHandle, writer: TaskId) -> DataVersion {
        self.push_version(h, Slot::Pending(writer))
    }

    fn push_version(&mut self, h: DataHandle, slot: Slot) -> DataVersion {
        let item = self.items.get_mut(&h.0).expect("unknown data handle");
        item.current += 1;
        // Room for exactly one more: left to itself a `Vec` starts at four
        // records, and nearly every item only ever has one live version.
        item.live.reserve_exact(1);
        item.live.push(Version { number: item.current, users: 0, slot, nodes: NodeSet::Empty });
        self.live_versions += 1;
        DataVersion { handle: h, version: item.current }
    }

    /// The task `v` is waiting for, while its writer has not settled.
    pub(crate) fn pending_on(&self, v: DataVersion) -> Option<TaskId> {
        match self.version(v)?.slot {
            Slot::Pending(t) => Some(t),
            _ => None,
        }
    }

    /// Store the computed value for `v`.
    pub fn put(&mut self, v: DataVersion, value: Value) {
        if let Some(ver) = self.version_mut(v) {
            ver.slot = Slot::Ready(value);
        }
    }

    /// The value of `v` if already computed.
    pub fn get(&self, v: DataVersion) -> Option<Value> {
        match &self.version(v)?.slot {
            Slot::Ready(value) => Some(value.clone()),
            _ => None,
        }
    }

    /// Whether `v` has been computed.
    pub fn is_ready(&self, v: DataVersion) -> bool {
        matches!(self.version(v), Some(Version { slot: Slot::Ready(_), .. }))
    }

    /// Mark `v` as never to be computed: its writer failed permanently.
    pub(crate) fn poison(&mut self, v: DataVersion) {
        if let Some(ver) = self.version_mut(v) {
            ver.slot = Slot::Poisoned;
        }
    }

    /// Whether the writer of `v` failed permanently.
    pub(crate) fn is_poisoned(&self, v: DataVersion) -> bool {
        matches!(self.version(v), Some(Version { slot: Slot::Poisoned, .. }))
    }

    /// Count one more user of `v`: a submitted task that reads or writes it,
    /// or a `wait_on` that targets it. Version 0 has no record and nothing
    /// to keep.
    pub(crate) fn acquire(&mut self, v: DataVersion) {
        if let Some(ver) = self.version_mut(v) {
            ver.users += 1;
        }
    }

    /// One user of `v` is done with it (the task settled, the wait
    /// returned). Returns whether that retired `v`.
    pub(crate) fn release(&mut self, v: DataVersion) -> bool {
        if let Some(ver) = self.version_mut(v) {
            ver.users -= 1;
        }
        self.reap(v)
    }

    /// Drop `v` — value, marks and all — if it is dead: no users, and
    /// superseded or its item deleted. The last version of a deleted item
    /// takes the item's record with it. Returns whether `v` was dropped.
    pub(crate) fn reap(&mut self, v: DataVersion) -> bool {
        let Some(item) = self.items.get_mut(&v.handle.0) else { return false };
        let (deleted, current) = (item.deleted, item.current);
        let dead =
            |x: &Version| x.number == v.version && x.users == 0 && (deleted || x.number < current);
        let Some(at) = item.live.iter().position(dead) else { return false };
        item.live.remove(at);
        self.live_versions -= 1;
        if item.deleted && item.live.is_empty() {
            self.items.remove(&v.handle.0);
        }
        true
    }

    /// The main program's promise not to name `h` again: from now on the
    /// handle is unknown, and each of its versions goes as soon as it has no
    /// users. Hands `gone` the versions that went right away; unknown and
    /// already deleted handles are left alone.
    pub(crate) fn delete(&mut self, h: DataHandle, mut gone: impl FnMut(DataVersion)) {
        let Some(item) = self.items.get_mut(&h.0).filter(|i| !i.deleted) else { return };
        item.deleted = true;
        let before = item.live.len();
        item.live.retain(|x| {
            if x.users == 0 {
                gone(DataVersion { handle: h, version: x.number });
            }
            x.users > 0
        });
        self.live_versions -= before - item.live.len();
        // Versions still in use take the record along when the last of them
        // is reaped.
        if item.live.is_empty() {
            self.items.remove(&h.0);
        }
    }

    /// Users of `v` right now.
    #[cfg(test)]
    pub(crate) fn users(&self, v: DataVersion) -> u32 {
        self.version(v).map_or(0, |ver| ver.users)
    }

    /// Live version records: every undeleted written handle's current
    /// version, plus whatever tasks and waits in progress still hold.
    pub(crate) fn live_versions(&self) -> usize {
        self.live_versions
    }

    /// Mark `v` resident on `node`. The sim backend charges transfers by
    /// it and the distributed backend tracks block residency with it. A
    /// task's outputs are marked on the node that ran it; a distributed
    /// worker does not keep them, so there that mark is a placement hint —
    /// dependents are steered to the producer and still receive the value.
    pub fn add_location(&mut self, v: DataVersion, node: u32) {
        if let Some(ver) = self.version_mut(v) {
            ver.nodes.insert(node);
        }
    }

    /// Whether `v` is resident on `node`.
    pub fn is_on_node(&self, v: DataVersion, node: u32) -> bool {
        self.version(v).is_some_and(|ver| ver.nodes.contains(node))
    }

    /// Retract one residency claim — a worker evicted the block backing
    /// `v` from its cache, so dispatches must ship it again.
    pub fn remove_location(&mut self, v: DataVersion, node: u32) {
        if let Some(ver) = self.version_mut(v) {
            ver.nodes.remove(node);
        }
    }

    /// Forget every residency claim for `node` — called when a remote
    /// worker is lost, so no placement score counts its stale residency.
    pub fn clear_node_locations(&mut self, node: u32) {
        for ver in self.items.values_mut().flat_map(|i| &mut i.live) {
            ver.nodes.remove(node);
        }
    }

    /// Number of the given versions resident on `node` (locality score).
    pub fn locality_score<V: Borrow<DataVersion>>(
        &self,
        versions: impl IntoIterator<Item = V>,
        node: u32,
    ) -> usize {
        versions.into_iter().filter(|v| self.is_on_node(*v.borrow(), node)).count()
    }

    /// Transfer-aware placement score for running a task that reads
    /// `versions` on `node`: primarily *fewest bytes to move* (declared
    /// [`DataRegistry::bytes`] summed over the non-resident inputs),
    /// secondarily the plain resident count. Built to slot straight into
    /// `Scheduler::pop_placeable`'s `max_by_key` — `Reverse` turns
    /// min-bytes into max-score, and the scheduler's own final tie-break
    /// keeps ties on the lowest node id. When every input has the same
    /// declared size the ordering degenerates to exactly
    /// [`DataRegistry::locality_score`], so enabling it does not perturb
    /// sim determinism.
    pub fn transfer_score<V: Borrow<DataVersion>>(
        &self,
        versions: impl IntoIterator<Item = V>,
        node: u32,
    ) -> TransferScore {
        let mut bytes_to_move = 0u64;
        let mut resident = 0usize;
        for v in versions {
            let v = *v.borrow();
            if self.is_on_node(v, node) {
                resident += 1;
            } else {
                bytes_to_move = bytes_to_move.saturating_add(self.bytes(v.handle));
            }
        }
        (std::cmp::Reverse(bytes_to_move), resident)
    }
}

/// Score returned by [`DataRegistry::transfer_score`]: orders by fewest
/// bytes-to-move first, then most resident inputs.
pub type TransferScore = (std::cmp::Reverse<u64>, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrips_types() {
        let v = Value::new(7i32);
        assert!(v.is::<i32>());
        assert!(!v.is::<u32>());
        assert_eq!(v.downcast_ref::<i32>(), Some(&7));
        assert_eq!(v.downcast_ref::<String>(), None);
        let cloned = v.clone();
        assert_eq!(cloned.downcast_ref::<i32>(), Some(&7));
    }

    #[test]
    fn literal_is_immediately_ready() {
        let mut reg = DataRegistry::new(64);
        let h = reg.literal(Value::new("cfg".to_string()));
        let v = reg.current_version(h);
        assert_eq!(v.version, 1);
        assert!(reg.is_ready(v));
        assert_eq!(reg.pending_on(v), None, "written by the main program");
        assert_eq!(reg.get(v).unwrap().downcast_ref::<String>().unwrap(), "cfg");
    }

    #[test]
    fn declared_item_starts_unwritten() {
        let mut reg = DataRegistry::new(64);
        let h = reg.declare();
        assert_eq!(reg.current_version(h).version, 0);
        assert!(!reg.is_ready(reg.current_version(h)));
        assert_eq!(reg.live_versions(), 0, "version 0 has no record");
    }

    #[test]
    fn versions_bump_and_track_their_writer() {
        let mut reg = DataRegistry::new(64);
        let h = reg.literal(Value::new(0u8));
        let v1 = reg.current_version(h);
        reg.acquire(v1); // a reader submitted before the write
        let v2 = reg.new_version(h, TaskId(5));
        assert_eq!(v2.version, 2);
        assert_eq!(reg.current_version(h), v2);
        assert_eq!(reg.pending_on(v2), Some(TaskId(5)));
        assert!(!reg.is_ready(v2), "new version not computed yet");
        reg.put(v2, Value::new(1u8));
        assert!(reg.is_ready(v2));
        assert_eq!(reg.pending_on(v2), None);
        // version 1 still readable by its reader — renaming, not overwriting
        assert!(reg.is_ready(v1));
    }

    #[test]
    fn superseded_version_goes_with_its_last_user() {
        let mut reg = DataRegistry::new(64);
        let h = reg.literal(Value::new(1u8));
        let v1 = reg.current_version(h);
        assert!(!reg.reap(v1), "the current version is never dead");
        reg.acquire(v1); // an INOUT task reads it ...
        reg.acquire(v1); // ... and a wait_on targets it
        let v2 = reg.new_version(h, TaskId(1));
        reg.acquire(v2);
        assert!(!reg.reap(v1), "superseded, but in use");
        assert_eq!(reg.live_versions(), 2);
        // The task settles: its read and its write are released.
        reg.put(v2, Value::new(2u8));
        assert!(!reg.release(v1), "the waiter still holds its target");
        assert!(!reg.release(v2), "current");
        assert!(reg.get(v1).is_some(), "the wait returns the version it targeted");
        assert!(reg.release(v1), "last user gone: retired");
        assert!(reg.get(v1).is_none() && !reg.is_on_node(v1, 0));
        assert_eq!(reg.live_versions(), 1);
    }

    #[test]
    fn delete_waits_for_the_users_and_then_takes_the_item() {
        let mut reg = DataRegistry::new(64);
        let h = reg.literal(Value::new(7u8));
        reg.set_bytes(h, 4096);
        let v = reg.current_version(h);
        reg.acquire(v); // a submitted reader, possibly to be retried
        let deleted = |reg: &mut DataRegistry, h| {
            let mut gone = Vec::new();
            reg.delete(h, |v| gone.push(v));
            gone
        };
        assert!(deleted(&mut reg, h).is_empty(), "in use: nothing goes yet");
        assert!(!reg.knows(h), "but the handle is gone for the main program");
        assert!(reg.get(v).is_some(), "the reader still finds its input");
        assert_eq!(reg.bytes(h), 4096, "and its declared size (block routing)");
        assert!(deleted(&mut reg, h).is_empty(), "deleting twice does nothing");
        assert!(reg.release(v));
        assert_eq!(reg.live_versions(), 0);
        assert_eq!(reg.bytes(h), 64, "the item's record went with its last version");

        let idle = reg.literal(Value::new(8u8));
        assert_eq!(deleted(&mut reg, idle), vec![DataVersion { handle: idle, version: 1 }]);
        let unwritten = reg.declare();
        assert!(deleted(&mut reg, unwritten).is_empty());
        assert!(!reg.knows(unwritten));
        assert!(reg.items.is_empty(), "nothing left behind");
        assert!(deleted(&mut reg, DataHandle(999)).is_empty(), "unknown handles are left alone");
    }

    #[test]
    fn a_pending_version_of_a_deleted_item_goes_when_its_writer_settles() {
        let mut reg = DataRegistry::new(64);
        let h = reg.declare();
        let v = reg.new_version(h, TaskId(3));
        reg.acquire(v);
        reg.delete(h, |v| panic!("{v} is in use"));
        reg.poison(v);
        assert!(reg.is_poisoned(v) && !reg.is_ready(v));
        assert!(reg.release(v));
        assert!(!reg.is_poisoned(v), "the mark went with the version");
        assert!(reg.items.is_empty());
    }

    #[test]
    fn node_sets_grow_and_shrink() {
        let mut nodes = NodeSet::default();
        nodes.remove(3);
        for n in [3, 3, 1, 4, 1] {
            nodes.insert(n);
        }
        assert!(nodes.contains(1) && nodes.contains(3) && nodes.contains(4) && !nodes.contains(0));
        nodes.remove(3);
        assert!(!nodes.contains(3) && nodes.contains(4));
    }

    #[test]
    fn version_display_matches_paper_labels() {
        let v = DataVersion { handle: DataHandle(3), version: 2 };
        assert_eq!(v.to_string(), "d3v2");
        assert_eq!(DataHandle(3).to_string(), "d3");
    }

    #[test]
    fn locations_and_locality() {
        let mut reg = DataRegistry::new(64);
        let a = reg.literal(Value::new(1));
        let b = reg.literal(Value::new(2));
        let va = reg.current_version(a);
        let vb = reg.current_version(b);
        reg.add_location(va, 0);
        reg.add_location(va, 2);
        reg.add_location(vb, 2);
        assert!(reg.is_on_node(va, 0));
        assert!(!reg.is_on_node(vb, 0));
        assert_eq!(reg.locality_score([va, vb], 2), 2);
        assert_eq!(reg.locality_score([va, vb], 0), 1);
        assert_eq!(reg.locality_score([va, vb], 7), 0);
    }

    #[test]
    fn transfer_score_orders_by_bytes_then_residency() {
        let mut reg = DataRegistry::new(10);
        let big = reg.literal(Value::new(0));
        let small = reg.literal(Value::new(1));
        reg.set_bytes(big, 1_000_000);
        reg.set_bytes(small, 10);
        let vb = reg.current_version(big);
        let vs = reg.current_version(small);
        // Node 0 holds the big block, node 1 the small one, node 2 nothing.
        reg.add_location(vb, 0);
        reg.add_location(vs, 1);
        let reads = [vb, vs];
        let s0 = reg.transfer_score(reads, 0);
        let s1 = reg.transfer_score(reads, 1);
        let s2 = reg.transfer_score(reads, 2);
        assert_eq!(s0, (std::cmp::Reverse(10), 1));
        assert_eq!(s1, (std::cmp::Reverse(1_000_000), 1));
        assert_eq!(s2, (std::cmp::Reverse(1_000_010), 0));
        // Equal resident *counts*, but node 0 moves fewer bytes: it wins
        // where the plain locality score could not tell them apart.
        assert_eq!(reg.locality_score(reads, 0), reg.locality_score(reads, 1));
        assert!(s0 > s1 && s1 > s2);
    }

    #[test]
    fn transfer_score_with_uniform_sizes_matches_locality_order() {
        let mut reg = DataRegistry::new(64);
        let handles: Vec<_> = (0..4).map(|i| reg.literal(Value::new(i))).collect();
        let reads: Vec<_> = handles.iter().map(|&h| reg.current_version(h)).collect();
        reg.add_location(reads[0], 1);
        reg.add_location(reads[1], 1);
        reg.add_location(reads[2], 2);
        for a in 0..3u32 {
            for b in 0..3u32 {
                let by_transfer = reg.transfer_score(&reads, a).cmp(&reg.transfer_score(&reads, b));
                let by_locality = reg.locality_score(&reads, a).cmp(&reg.locality_score(&reads, b));
                assert_eq!(by_transfer, by_locality, "nodes {a} vs {b}");
            }
        }
    }

    #[test]
    fn bytes_default_and_override() {
        let mut reg = DataRegistry::new(128);
        let h = reg.literal(Value::new(0));
        assert_eq!(reg.bytes(h), 128);
        reg.set_bytes(h, 4096);
        assert_eq!(reg.bytes(h), 4096);
        assert_eq!(reg.bytes(DataHandle(999)), 128, "unknown handles fall back");
        // A measured output replaces the guess, never a declaration.
        reg.observe_bytes(h, 7);
        assert_eq!(reg.bytes(h), 4096);
        let out = reg.declare();
        reg.observe_bytes(out, 150_000);
        assert_eq!(reg.bytes(out), 150_000);
        reg.observe_bytes(out, 9);
        assert_eq!(reg.bytes(out), 9, "the latest version's size");
    }

    #[test]
    fn handles_are_unique() {
        let mut reg = DataRegistry::new(1);
        let a = reg.declare();
        let b = reg.literal(Value::new(0));
        assert_ne!(a, b);
        assert!(reg.knows(a) && reg.knows(b));
        assert!(!reg.knows(DataHandle(12345)));
    }
}
