//! Property test for transfer-aware placement: driving `pop_placeable`
//! with `DataRegistry::transfer_score` (fewest bytes to move, then most
//! inputs already resident) must pop the exact same `(task, placement)`
//! sequence from the indexed ready-set as from the pre-index linear scan
//! (`pop_placeable_reference`), across random residency maps, declared
//! sizes, and read-sets. The distributed backend's placement decisions —
//! and therefore its bytes-on-wire accounting — rest on this equivalence.

use cluster::{Cluster, NodeSpec};
use proptest::prelude::*;
use rcompss::data::DataRegistry;
use rcompss::scheduler::{Placement, ReadyEntry, Scheduler};
use rcompss::{Constraint, DataVersion, TaskId, Value};

const NODES: u32 = 3;

/// One data item: declared size plus which nodes already hold it.
#[derive(Debug, Clone)]
struct ItemSpec {
    bytes: u64,
    resident_on: Vec<u32>,
}

fn item_strategy() -> impl Strategy<Value = ItemSpec> {
    (
        // Sizes spanning "free" to "dominates the score", with ties likely.
        prop_oneof![Just(0u64), Just(1024), Just(65536), 1u64..1_000_000],
        proptest::collection::vec(0..NODES, 0..=3),
    )
        .prop_map(|(bytes, resident_on)| ItemSpec { bytes, resident_on })
}

/// A ready task: CPU demand plus which data items it reads.
#[derive(Debug, Clone)]
struct TaskSpec {
    cpus: u32,
    reads: Vec<usize>,
}

fn task_strategy(items: usize) -> impl Strategy<Value = TaskSpec> {
    (1u32..=20, proptest::collection::vec(0..items, 0..=4))
        .prop_map(|(cpus, reads)| TaskSpec { cpus, reads })
}

fn sched() -> Scheduler {
    Scheduler::new(&Cluster::homogeneous(NODES as usize, NodeSpec::cte_power9()), &[])
}

proptest! {
    #[test]
    fn transfer_aware_pop_equals_linear_scan(
        items in proptest::collection::vec(item_strategy(), 1..12),
        tasks in proptest::collection::vec(task_strategy(12), 1..40),
        steps in proptest::collection::vec(any::<u8>(), 1..160),
    ) {
        // Registry with random declared sizes and residency claims.
        let mut reg = DataRegistry::new(1024);
        let versions: Vec<DataVersion> = items
            .iter()
            .map(|spec| {
                let h = reg.literal(Value::new(()));
                reg.set_bytes(h, spec.bytes);
                DataVersion { handle: h, version: 1 }
            })
            .collect();
        for (spec, &v) in items.iter().zip(&versions) {
            for &n in &spec.resident_on {
                reg.add_location(v, n);
            }
        }
        // Per-task read-sets (indices clamp into whatever was generated).
        let reads: Vec<Vec<DataVersion>> = tasks
            .iter()
            .map(|t| t.reads.iter().map(|&i| versions[i % versions.len()]).collect())
            .collect();

        let mut indexed = sched();
        let mut linear = sched();
        for (seq, t) in tasks.iter().enumerate() {
            let entry = ReadyEntry {
                task: TaskId(seq as u64 + 1),
                constraint: Constraint::cpus(t.cpus),
                alternatives: Vec::new(),
                priority: false,
                seq: seq as u64,
                prefer_node: None,
                exclude_node: None,
            };
            indexed.push_ready(entry.clone());
            linear.push_ready(entry);
        }

        let score = |t: TaskId, n: u32| reg.transfer_score(&reads[(t.0 - 1) as usize], n);
        let mut running: Vec<(ReadyEntry, Placement)> = Vec::new();
        for (i, &step) in steps.iter().enumerate() {
            let a = indexed.pop_placeable(score);
            let b = linear.pop_placeable_reference(score);
            match (&a, &b) {
                (Some((ea, pa)), Some((eb, pb))) => {
                    prop_assert_eq!(ea.task, eb.task, "step {}", i);
                    prop_assert_eq!(pa, pb, "step {}", i);
                }
                (None, None) => {}
                _ => prop_assert!(false, "step {}: indexed {:?} vs linear {:?}", i, a, b),
            }
            if let Some(p) = a {
                running.push(p);
            }
            if !running.is_empty() && (b.is_none() || step % 3 == 0) {
                let (e, p) = running.remove(step as usize % running.len());
                let c = e.variant_constraints()[p.variant];
                indexed.release(&p, &c);
                linear.release(&p, &c);
            }
            if indexed.ready_len() == 0 && running.is_empty() {
                break;
            }
        }
    }

    /// The score itself behaves: a node holding every input is never beaten
    /// by a node holding none of them (for non-trivial input sizes).
    #[test]
    fn full_residency_never_loses_to_cold_node(
        sizes in proptest::collection::vec(1u64..1_000_000, 1..6),
    ) {
        let mut reg = DataRegistry::new(1024);
        let versions: Vec<DataVersion> = sizes
            .iter()
            .map(|&b| {
                let h = reg.literal(Value::new(()));
                reg.set_bytes(h, b);
                DataVersion { handle: h, version: 1 }
            })
            .collect();
        for &v in &versions {
            reg.add_location(v, 0);
        }
        let warm = reg.transfer_score(&versions, 0);
        let cold = reg.transfer_score(&versions, 1);
        prop_assert!(warm > cold, "warm {warm:?} must outrank cold {cold:?}");
    }
}
