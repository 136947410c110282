//! Scoped-thread fan-out for the cleaning phases.
//!
//! # The chunk–merge–apply design
//!
//! The phase algorithms (`cRepair`'s inference fixpoint, `eRepair`'s
//! ordered resolution rounds) are *sequential state machines*: every fix
//! can unlock or mask later fixes, so the write side cannot be naively
//! parallelized without changing results. What **can** fan out is the
//! read-only work that dominates their running time:
//!
//! 1. **chunk** — tuples `0..|D|` are split into `p` contiguous ranges,
//!    one scoped worker per range (`map_chunks`);
//! 2. **merge** — each worker returns its results as a plain vector in
//!    chunk order, so concatenation reproduces exactly the tuple-id order
//!    a sequential scan would have produced;
//! 3. **apply** — the unchanged sequential engine consumes the
//!    precomputed results (MD witness lists, 2-in-1 group projections) in
//!    tuple-id order, and recomputes on the spot whenever a repair has
//!    invalidated a precomputed entry.
//!
//! Because the precomputed values are pure functions of the relation state
//! they were computed against, and stale entries are invalidated and
//! recomputed sequentially, the output is **bit-identical** to the
//! single-threaded path for every thread count — the determinism suite
//! (`tests/determinism.rs`) pins this down.
//!
//! Workers use `std::thread::scope` — no external thread-pool dependency
//! (the workspace builds offline) and no `'static` bounds, so workers can
//! borrow the relation, rules and index directly.

use std::num::NonZeroUsize;
use std::ops::Range;

/// The worker count a [`CleanConfig`](crate::CleanConfig) resolves to:
/// the explicit knob, or all available cores.
pub fn effective_parallelism(requested: Option<NonZeroUsize>) -> usize {
    match requested {
        Some(n) => n.get(),
        None => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Split `0..len` into at most `parts` non-empty contiguous ranges of
/// near-equal size, in order.
pub(crate) fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        if size == 0 {
            break;
        }
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Run `f` over chunked ranges of `0..len` on `threads` scoped workers and
/// return the per-chunk results **in chunk order** (deterministic
/// regardless of which worker finishes first). With `threads <= 1`, or too
/// few items to be worth a fan-out, `f` runs inline on the caller's
/// thread.
pub(crate) fn map_chunks<R, F>(len: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    /// Below this many items a thread spawn costs more than it saves.
    const MIN_ITEMS_PER_WORKER: usize = 64;
    let threads = threads.min((len / MIN_ITEMS_PER_WORKER).max(1));
    if threads <= 1 {
        return if len == 0 {
            Vec::new()
        } else {
            vec![f(0..len)]
        };
    }
    let ranges = chunk_ranges(len, threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges.into_iter().map(|r| scope.spawn(|| f(r))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("phase worker panicked"))
            .collect()
    })
}

/// Run `f` once per index `0..n` across up to `threads` scoped workers
/// and return results **in index order**. Unlike [`map_chunks`] there is
/// no minimum batch size: this is for a *small* number of *individually
/// expensive* jobs (e.g. building the per-attribute access-path indexes
/// of the master index), where even two items are worth two workers.
/// Indices are dealt round-robin so early long jobs don't serialize the
/// tail.
pub(crate) fn map_each<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.clamp(1, n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                scope.spawn(move || {
                    (w..n)
                        .step_by(workers)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("index-build worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index covered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_each_preserves_index_order() {
        for threads in [1usize, 2, 3, 8] {
            let out = map_each(5, threads, |i| i * 10);
            assert_eq!(out, vec![0, 10, 20, 30, 40], "threads={threads}");
        }
        assert!(map_each(0, 4, |i| i).is_empty());
    }

    #[test]
    fn chunks_cover_exactly_once_in_order() {
        for len in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 33] {
                let rs = chunk_ranges(len, parts);
                let flat: Vec<usize> = rs.iter().cloned().flatten().collect();
                assert_eq!(
                    flat,
                    (0..len).collect::<Vec<_>>(),
                    "len={len} parts={parts}"
                );
                assert!(rs.iter().all(|r| !r.is_empty()));
                // Near-equal: sizes differ by at most one.
                if let (Some(min), Some(max)) = (
                    rs.iter().map(|r| r.len()).min(),
                    rs.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn map_chunks_preserves_chunk_order() {
        let out = map_chunks(1000, 4, |r| r.clone().map(|i| i * 2).collect::<Vec<_>>());
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_chunks_runs_inline_for_small_inputs() {
        // 10 items over 8 threads: must not produce empty chunks, and must
        // still cover everything.
        let out = map_chunks(10, 8, |r| r.len());
        assert_eq!(out.iter().sum::<usize>(), 10);
    }

    #[test]
    fn effective_parallelism_honors_explicit_knob() {
        let four = NonZeroUsize::new(4).unwrap();
        assert_eq!(effective_parallelism(Some(four)), 4);
        assert!(effective_parallelism(None) >= 1);
    }
}
