//! Property test: the indexed ready-set pops the exact same `(task,
//! placement)` sequence as the pre-index linear scan
//! (`Scheduler::pop_placeable_reference`), across random entry mixes
//! (priorities, constraint classes, exclusions, preferences, multi-variant
//! implementations) and random pop/release interleavings. The sim backend's
//! bit-identical makespans rest on this equivalence. A second property
//! checks the same with dispatch-ahead on, fast entries queueing deep.

use cluster::{Cluster, GpuModel, NodeSpec};
use proptest::prelude::*;
use rcompss::scheduler::{Placement, ReadyEntry, Scheduler, FAST_DEPTH};
use rcompss::{Constraint, TaskId};

#[derive(Debug, Clone)]
struct EntrySpec {
    cpus: u32,
    gpus: u32,
    priority: bool,
    exclude: Option<u32>,
    prefer: Option<u32>,
    alt_cpus: Option<u32>,
    /// Pushed with `push_ready_fast`.
    fast: bool,
}

fn entry_strategy() -> impl Strategy<Value = EntrySpec> {
    (
        1u32..=20,
        0u32..=2,
        any::<bool>(),
        proptest::option::of(0u32..3),
        proptest::option::of(0u32..3),
        proptest::option::of(1u32..=4),
    )
        .prop_map(|(cpus, gpus, priority, exclude, prefer, alt_cpus)| EntrySpec {
            cpus,
            gpus,
            priority,
            exclude,
            prefer,
            alt_cpus,
            fast: false,
        })
}

fn build(spec: &EntrySpec, seq: u64) -> ReadyEntry {
    ReadyEntry {
        task: TaskId(seq + 1),
        constraint: Constraint::cpus(spec.cpus).with_gpus(spec.gpus),
        alternatives: spec.alt_cpus.map(Constraint::cpus).into_iter().collect(),
        priority: spec.priority,
        seq,
        prefer_node: spec.prefer,
        exclude_node: spec.exclude,
    }
}

/// Push `spec` as entry `seq`, fast if it says so.
fn push(s: &mut Scheduler, spec: &EntrySpec, seq: u64) {
    if spec.fast {
        s.push_ready_fast(build(spec, seq));
    } else {
        s.push_ready(build(spec, seq));
    }
}

fn sched() -> Scheduler {
    // 3 × POWER9 nodes: 16 allocatable cores and 4 GPUs each, so GPU and
    // CPU exhaustion both happen within a few dozen entries.
    Scheduler::new(&Cluster::homogeneous(3, NodeSpec::cte_power9()), &[])
}

proptest! {
    #[test]
    fn indexed_pop_sequence_equals_linear_scan(
        specs in proptest::collection::vec(entry_strategy(), 1..60),
        // One byte per step drives the pop/release interleaving.
        steps in proptest::collection::vec(any::<u8>(), 1..250),
    ) {
        let mut indexed = sched();
        let mut linear = sched();
        for (seq, spec) in specs.iter().enumerate() {
            indexed.push_ready(build(spec, seq as u64));
            linear.push_ready(build(spec, seq as u64));
        }
        let mut running: Vec<(ReadyEntry, Placement)> = Vec::new();
        for (i, &step) in steps.iter().enumerate() {
            let loc = move |t: TaskId, n: u32| ((t.0 + n as u64 + step as u64) % 7) as usize;
            let a = indexed.pop_placeable(loc);
            let b = linear.pop_placeable_reference(loc);
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
            // Release sometimes (always when stuck) so blocked classes
            // re-probe and the infeasibility memo gets invalidated.
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
}

/// Half the entries are plain one-core tasks, the only kind that may queue
/// behind a busy core, so the second pass has work in most cases; half of
/// every kind is fast, which only a plain one-core task may act on.
fn ahead_entry_strategy() -> impl Strategy<Value = EntrySpec> {
    let plain = (any::<bool>(), proptest::option::of(0u32..3), proptest::option::of(0u32..3))
        .prop_map(|(priority, exclude, prefer)| EntrySpec {
            cpus: 1,
            gpus: 0,
            priority,
            exclude,
            prefer,
            alt_cpus: None,
            fast: false,
        });
    (prop_oneof![entry_strategy(), plain], any::<bool>())
        .prop_map(|(spec, fast)| EntrySpec { fast, ..spec })
}

proptest! {
    /// The same equivalence with dispatch-ahead on: both scans make the
    /// idle-core pass and then the queue-behind pass, fast entries deeper
    /// than one, and releases run in any order, a queued task's before the
    /// one it waits behind included.
    #[test]
    fn indexed_pop_sequence_equals_linear_scan_with_dispatch_ahead(
        specs in proptest::collection::vec(ahead_entry_strategy(), 1..80),
        steps in proptest::collection::vec(any::<u8>(), 1..250),
    ) {
        // 3 nodes of 8 cores and 2 GPUs: every core busy, the only state
        // the second pass acts in, is a few pops away.
        let ahead = || {
            let spec = NodeSpec::new("w", 8, vec![GpuModel::Generic; 2], 64);
            let mut s = Scheduler::new(&Cluster::homogeneous(3, spec), &[]);
            s.enable_dispatch_ahead();
            s
        };
        let (mut indexed, mut linear) = (ahead(), ahead());
        for (seq, spec) in specs.iter().enumerate() {
            push(&mut indexed, spec, seq as u64);
            push(&mut linear, spec, seq as u64);
        }
        let mut running: Vec<(ReadyEntry, Placement)> = Vec::new();
        for (i, &step) in steps.iter().enumerate() {
            let loc = move |t: TaskId, n: u32| ((t.0 + n as u64 + step as u64) % 7) as usize;
            let a = indexed.pop_placeable(loc);
            let b = linear.pop_placeable_reference(loc);
            match (&a, &b) {
                (Some((ea, pa)), Some((eb, pb))) => {
                    prop_assert_eq!(ea.task, eb.task, "step {}", i);
                    prop_assert_eq!(pa, pb, "step {}", i);
                    // Only a fast entry queues behind a core holding two.
                    let held = indexed.node(pa.node).held_by(pa.cores[0]);
                    prop_assert!(
                        held <= 2 || specs[ea.seq as usize].fast,
                        "step {}: a slow task queued {} deep", i, held - 1
                    );
                    prop_assert!(held <= 1 + FAST_DEPTH, "step {}: {} tasks on a core", i, held);
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
            for node in 0..3 {
                prop_assert_eq!(&indexed.node(node).free_cores, &linear.node(node).free_cores);
                prop_assert_eq!(&indexed.node(node).held, &linear.node(node).held);
            }
            if indexed.ready_len() == 0 && running.is_empty() {
                break;
            }
        }
        // Everything released: every core is idle again, none half-held.
        for (e, p) in running.drain(..) {
            let c = e.variant_constraints()[p.variant];
            indexed.release(&p, &c);
        }
        for node in 0..3 {
            prop_assert!(indexed.node(node).held.is_empty());
            let n = indexed.node(node);
            prop_assert_eq!(n.free_cores.len(), n.capacity_cores as usize);
        }
    }
}
