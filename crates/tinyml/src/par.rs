//! Intra-task parallelism: a dependency-free scoped worker pool.
//!
//! The paper's Figure 5/9 experiments hinge on multi-core task constraints:
//! a training task granted N cores by the scheduler should run ~N× faster.
//! This module is how `tinyml` spends those cores. It deliberately avoids
//! external crates (no rayon): workers are plain [`std::thread::scope`]
//! threads that each own a contiguous *row range* of the output, so no
//! synchronisation beyond the scope join is ever needed.
//!
//! # How the degree of parallelism flows
//!
//! The degree is an *ambient*, thread-scoped setting, not a parameter on
//! every kernel:
//!
//! 1. The rcompss runtime places a task and hands its body a
//!    `TaskContext` whose `cores` list is the exact core set granted by
//!    the `@constraint` scheduler.
//! 2. The HPO runner wraps the objective in
//!    [`with_threads`]`(ctx.parallelism(), …)`.
//! 3. `train`/`net`/`cnn` run unchanged; every GEMM and convolution in
//!    [`crate::tensor`] / [`crate::conv`] consults [`current_threads`] and
//!    splits its output rows across that many scoped workers.
//!
//! Standalone users (benches, scripts) call [`with_threads`] directly.
//! Outside every scope the degree is **1** — fully serial, so library
//! behaviour is unchanged unless a caller opts in.
//!
//! # Serial-equivalence guarantee
//!
//! Kernels built on this module partition *output rows* only; every output
//! element is computed by exactly one thread, using the same in-order
//! accumulation the serial kernel uses. Parallel results are therefore
//! bit-identical to serial results — not merely close. The property tests
//! in `tests/properties.rs` and the unit tests here assert this.
//!
//! ```
//! use tinyml::par;
//!
//! // Fill an 4×2 row-major buffer with its flat index, 3 workers.
//! let mut out = vec![0.0f32; 8];
//! par::par_row_chunks(&mut out, 2, 3, |rows, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (rows.start * 2 + i) as f32;
//!     }
//! });
//! assert_eq!(out, (0..8).map(|i| i as f32).collect::<Vec<_>>());
//!
//! // The ambient degree: scoped override, restored after the scope.
//! let outside = par::current_threads();
//! let seen = par::with_threads(4, par::current_threads);
//! assert_eq!(seen, 4);
//! assert_eq!(par::current_threads(), outside);
//! ```

use std::cell::Cell;
use std::ops::Range;

/// Minimum fused multiply-adds a worker must have before an extra thread
/// pays for its ~tens-of-µs spawn cost (scoped threads are spawned per
/// kernel call, not pooled across calls).
const MIN_WORK_PER_THREAD: usize = 128 * 1024;

thread_local! {
    /// Ambient degree for the current thread; 1 outside every scope.
    static AMBIENT: Cell<usize> = const { Cell::new(1) };
}

/// The degree of parallelism in effect on this thread: the innermost
/// [`with_threads`] scope, else 1.
pub fn current_threads() -> usize {
    AMBIENT.with(Cell::get)
}

/// Run `f` with the ambient degree of parallelism set to `threads`,
/// restoring the previous value afterwards (also on unwind, so a panicking
/// training task cannot leak its setting into the next task on the same
/// worker thread). `threads == 0` means "inherit": `f` runs under the
/// current ambient degree unchanged.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    if threads == 0 {
        return f();
    }
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT.with(|c| c.set(self.0));
        }
    }
    let prev = AMBIENT.with(|c| c.replace(threads));
    let _restore = Restore(prev);
    f()
}

/// The number of workers a kernel should use for `work` fused
/// multiply-adds: the ambient degree, capped so each worker gets at least
/// `MIN_WORK_PER_THREAD` of them (small problems stay serial).
pub fn degree_for(work: usize) -> usize {
    let t = current_threads();
    if t <= 1 {
        return 1;
    }
    t.min((work / MIN_WORK_PER_THREAD).max(1))
}

/// Split `0..len` into at most `parts` contiguous ranges whose lengths
/// differ by at most one (the first `len % parts` ranges get the extra
/// element). Returns fewer ranges when `len < parts`; empty when `len == 0`.
pub fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Run `f` over a balanced partition of `0..len` on up to `threads`
/// workers. The calling thread executes the first range itself; the rest
/// run on scoped threads joined before return. Serial (`threads <= 1`)
/// calls `f(0..len)` inline with zero overhead.
pub fn par_ranges<F>(len: usize, threads: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if len == 0 {
        return;
    }
    let t = threads.clamp(1, len);
    if t == 1 {
        f(0..len);
        return;
    }
    let mut ranges = split_ranges(len, t).into_iter();
    let own = ranges.next().expect("len > 0 yields at least one range");
    std::thread::scope(|s| {
        let f = &f;
        for r in ranges {
            s.spawn(move || f(r));
        }
        f(own);
    });
}

/// Partition a row-major buffer of `row_len`-sized rows into contiguous
/// row-range chunks and run `f(range, chunk)` on up to `threads` workers.
/// Each chunk is a disjoint `&mut` slice (`split_at_mut`), so workers write
/// their rows without any locking; the calling thread takes the first
/// chunk. This is the building block of the blocked GEMM and the batched
/// im2col convolution.
///
/// # Panics
/// Panics if `row_len == 0` or `data.len()` is not a multiple of `row_len`.
pub fn par_row_chunks<F>(data: &mut [f32], row_len: usize, threads: usize, f: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert!(data.len().is_multiple_of(row_len), "buffer is not whole rows");
    let rows = data.len() / row_len;
    let t = threads.clamp(1, rows.max(1));
    if t == 1 {
        f(0..rows, data);
        return;
    }
    let mut ranges = split_ranges(rows, t).into_iter();
    let own_range = ranges.next().expect("rows > 0 yields at least one range");
    let (own_chunk, mut rest) = data.split_at_mut(own_range.len() * row_len);
    std::thread::scope(|s| {
        let f = &f;
        for r in ranges {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(r.len() * row_len);
            rest = tail;
            s.spawn(move || f(r, chunk));
        }
        f(own_range, own_chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_balanced_and_covers() {
        assert_eq!(split_ranges(0, 4), vec![]);
        assert_eq!(split_ranges(3, 1), vec![0..3]);
        assert_eq!(split_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(split_ranges(2, 5), vec![0..1, 1..2], "never more parts than items");
        for len in 0..40usize {
            for parts in 1..9usize {
                let rs = split_ranges(len, parts);
                let total: usize = rs.iter().map(Range::len).sum();
                assert_eq!(total, len);
                let mut next = 0;
                for r in &rs {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(!r.is_empty(), "no empty ranges");
                    next = r.end;
                }
                let min = rs.iter().map(Range::len).min().unwrap_or(0);
                let max = rs.iter().map(Range::len).max().unwrap_or(0);
                assert!(max - min <= 1, "balanced within one");
            }
        }
    }

    #[test]
    fn ambient_default_scoping_and_restore() {
        let default = current_threads();
        assert_eq!(default, 1, "no scope ⇒ serial");
        let inner = with_threads(6, || {
            let nested = with_threads(2, current_threads);
            assert_eq!(nested, 2, "innermost scope wins");
            assert_eq!(current_threads(), 6, "restored after nested scope");
            let inherited = with_threads(0, current_threads);
            assert_eq!(inherited, 6, "0 inherits");
            current_threads()
        });
        assert_eq!(inner, 6);
        assert_eq!(current_threads(), default, "restored after scope");
    }

    #[test]
    fn ambient_restored_on_panic() {
        let default = current_threads();
        let caught = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(current_threads(), default, "unwind must not leak the setting");
    }

    #[test]
    fn degree_respects_minimum_work() {
        with_threads(8, || {
            assert_eq!(degree_for(10), 1, "tiny problems stay serial");
            assert_eq!(degree_for(MIN_WORK_PER_THREAD * 3), 3);
            assert_eq!(degree_for(MIN_WORK_PER_THREAD * 100), 8, "capped at ambient");
        });
        with_threads(1, || {
            assert_eq!(degree_for(usize::MAX / 2), 1, "serial ambient stays serial");
        });
    }

    #[test]
    fn par_ranges_covers_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for &threads in &[1usize, 2, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
            par_ranges(23, threads, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "t={threads}");
        }
        par_ranges(0, 4, |_| panic!("must not be called for empty input"));
    }

    #[test]
    fn row_chunks_partition_disjointly() {
        for &threads in &[1usize, 2, 4, 7] {
            let mut data = vec![0.0f32; 9 * 5];
            par_row_chunks(&mut data, 5, threads, |rows, chunk| {
                assert_eq!(chunk.len(), rows.len() * 5);
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += (rows.start * 5 + i) as f32;
                }
            });
            let expect: Vec<f32> = (0..45).map(|i| i as f32).collect();
            assert_eq!(data, expect, "t={threads}: every cell written exactly once");
        }
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn row_chunks_rejects_ragged_buffers() {
        let mut data = vec![0.0f32; 7];
        par_row_chunks(&mut data, 3, 2, |_, _| {});
    }
}
