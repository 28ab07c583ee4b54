//! Deterministic virtual-time event queue.
//!
//! A binary heap keyed by `(time, sequence)` — the sequence number breaks
//! ties by insertion order, which makes simulations bit-for-bit reproducible
//! regardless of heap internals. This is the property the DESIGN.md
//! "DES determinism" invariant rests on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered event queue with a monotone virtual clock.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    now: u64,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at virtual time 0.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), now: 0, seq: 0 }
    }

    /// Current virtual time (µs). Advances only via [`EventQueue::pop`].
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedule `event` at absolute virtual time `time`.
    ///
    /// # Panics
    /// Panics if `time` is in the past — a DES must never rewind.
    pub fn schedule_at(&mut self, time: u64, event: E) {
        assert!(time >= self.now, "cannot schedule into the past ({} < {})", time, self.now);
        self.heap.push(Reverse(Entry { time, seq: self.seq, event }));
        self.seq += 1;
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|Reverse(e)| {
            debug_assert!(e.time >= self.now);
            self.now = e.time;
            (e.time, e.event)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is exhausted.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(5, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(7, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 7);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(10, ());
        q.pop();
        q.schedule_at(5, ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(1, 0);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
