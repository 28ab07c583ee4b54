//! Versioned data registry.
//!
//! COMPSs tracks every task parameter as a *data item* whose versions are
//! renamed on each write — the `d1v2`, `d3v2`… labels of the paper's
//! Figure 3. Reading always names a specific version; writing bumps the
//! version. Dependencies fall out of "who produces the version I read".
//!
//! Values are type-erased (`Arc<dyn Any + Send + Sync>`) so the runtime can
//! move arbitrary user types between tasks, exactly like PyCOMPSs moves
//! pickled Python objects.

use std::any::Any;
use std::collections::HashMap;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

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

/// Where a version's producer stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Producer {
    /// Written directly by the main program (e.g. [`DataRegistry::literal`]).
    Main,
    /// Produced by a task (which may or may not have finished yet).
    Task(TaskId),
}

#[derive(Debug)]
struct ItemState {
    current: u32,
    producers: HashMap<u32, Producer>,
    bytes: u64,
}

/// The registry: version bookkeeping, value store, and (for the simulated
/// backend) per-node residency used for locality and transfer modelling.
#[derive(Debug)]
pub struct DataRegistry {
    items: HashMap<u64, ItemState>,
    values: HashMap<DataVersion, Value>,
    /// Nodes each version is resident on (sim backend).
    locations: HashMap<DataVersion, HashSet<u32>>,
    next_id: u64,
    default_bytes: u64,
}

impl DataRegistry {
    /// Empty registry; `default_bytes` is the assumed size of values whose
    /// size was never declared (transfer model input).
    pub fn new(default_bytes: u64) -> Self {
        DataRegistry {
            items: HashMap::new(),
            values: HashMap::new(),
            locations: HashMap::new(),
            next_id: 1,
            default_bytes,
        }
    }

    /// Create a fresh data item whose version 1 is already available with
    /// `value` (main-program data, like the paper's parsed config objects).
    pub fn literal(&mut self, value: Value) -> DataHandle {
        let h = self.declare();
        let item = self.items.get_mut(&h.0).expect("just declared");
        item.current = 1;
        item.producers.insert(1, Producer::Main);
        self.values.insert(DataVersion { handle: h, version: 1 }, value);
        h
    }

    /// Create a fresh data item with no available version yet (to be used
    /// as an `Out` parameter). Stays at version 0 until the first writer.
    pub fn declare(&mut self) -> DataHandle {
        let id = self.next_id;
        self.next_id += 1;
        self.items.insert(
            id,
            ItemState { current: 0, producers: HashMap::new(), bytes: self.default_bytes },
        );
        DataHandle(id)
    }

    /// Declare the in-memory size of a data item for the transfer model.
    pub fn set_bytes(&mut self, h: DataHandle, bytes: u64) {
        if let Some(item) = self.items.get_mut(&h.0) {
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

    /// Whether the handle was created by this registry.
    pub fn knows(&self, h: DataHandle) -> bool {
        self.items.contains_key(&h.0)
    }

    /// Bump `h` to a new version produced by `producer`. Returns the new
    /// version (the write target of an OUT/INOUT parameter or return slot).
    pub fn new_version(&mut self, h: DataHandle, producer: Producer) -> DataVersion {
        let item = self.items.get_mut(&h.0).expect("unknown data handle");
        item.current += 1;
        item.producers.insert(item.current, producer);
        DataVersion { handle: h, version: item.current }
    }

    /// Who produces `v`.
    pub fn producer(&self, v: DataVersion) -> Option<Producer> {
        self.items.get(&v.handle.0).and_then(|i| i.producers.get(&v.version)).copied()
    }

    /// Store the computed value for `v`.
    pub fn put(&mut self, v: DataVersion, value: Value) {
        self.values.insert(v, value);
    }

    /// The value of `v` if already computed.
    pub fn get(&self, v: DataVersion) -> Option<Value> {
        self.values.get(&v).cloned()
    }

    /// Whether `v` has been computed.
    pub fn is_ready(&self, v: DataVersion) -> bool {
        self.values.contains_key(&v)
    }

    /// Mark `v` resident on `node`. The sim backend charges transfers by
    /// it and the distributed backend tracks block residency with it. A
    /// task's outputs are marked on the node that ran it; a distributed
    /// worker does not keep them, so there that mark is a placement hint —
    /// dependents are steered to the producer and still receive the value.
    pub fn add_location(&mut self, v: DataVersion, node: u32) {
        self.locations.entry(v).or_default().insert(node);
    }

    /// Whether `v` is resident on `node`.
    pub fn is_on_node(&self, v: DataVersion, node: u32) -> bool {
        self.locations.get(&v).is_some_and(|s| s.contains(&node))
    }

    /// Retract one residency claim — a worker evicted the block backing
    /// `v` from its cache, so dispatches must ship it again.
    pub fn remove_location(&mut self, v: DataVersion, node: u32) {
        if let Some(s) = self.locations.get_mut(&v) {
            s.remove(&node);
        }
    }

    /// Forget every residency claim for `node` — called when a remote
    /// worker dies or reconnects with a cold cache, so the dispatcher goes
    /// back to shipping blocks instead of trusting stale residency.
    pub fn clear_node_locations(&mut self, node: u32) {
        for set in self.locations.values_mut() {
            set.remove(&node);
        }
    }

    /// Number of the given versions resident on `node` (locality score).
    pub fn locality_score(&self, versions: &[DataVersion], node: u32) -> usize {
        versions.iter().filter(|&&v| self.is_on_node(v, node)).count()
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
    pub fn transfer_score(&self, versions: &[DataVersion], node: u32) -> TransferScore {
        let mut bytes_to_move = 0u64;
        let mut resident = 0usize;
        for v in versions {
            if self.is_on_node(*v, node) {
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
        assert_eq!(reg.producer(v), Some(Producer::Main));
        assert_eq!(reg.get(v).unwrap().downcast_ref::<String>().unwrap(), "cfg");
    }

    #[test]
    fn declared_item_starts_unwritten() {
        let mut reg = DataRegistry::new(64);
        let h = reg.declare();
        assert_eq!(reg.current_version(h).version, 0);
        assert!(!reg.is_ready(reg.current_version(h)));
    }

    #[test]
    fn versions_bump_and_track_producers() {
        let mut reg = DataRegistry::new(64);
        let h = reg.literal(Value::new(0u8));
        let v2 = reg.new_version(h, Producer::Task(TaskId(5)));
        assert_eq!(v2.version, 2);
        assert_eq!(reg.current_version(h), v2);
        assert_eq!(reg.producer(v2), Some(Producer::Task(TaskId(5))));
        assert!(!reg.is_ready(v2), "new version not computed yet");
        reg.put(v2, Value::new(1u8));
        assert!(reg.is_ready(v2));
        // version 1 still readable — renaming, not overwriting
        assert!(reg.is_ready(DataVersion { handle: h, version: 1 }));
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
        assert_eq!(reg.locality_score(&[va, vb], 2), 2);
        assert_eq!(reg.locality_score(&[va, vb], 0), 1);
        assert_eq!(reg.locality_score(&[va, vb], 7), 0);
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
        let s0 = reg.transfer_score(&reads, 0);
        let s1 = reg.transfer_score(&reads, 1);
        let s2 = reg.transfer_score(&reads, 2);
        assert_eq!(s0, (std::cmp::Reverse(10), 1));
        assert_eq!(s1, (std::cmp::Reverse(1_000_000), 1));
        assert_eq!(s2, (std::cmp::Reverse(1_000_010), 0));
        // Equal resident *counts*, but node 0 moves fewer bytes: it wins
        // where the plain locality score could not tell them apart.
        assert_eq!(reg.locality_score(&reads, 0), reg.locality_score(&reads, 1));
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
