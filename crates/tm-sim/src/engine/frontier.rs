//! The parallel frontier of the exploration kernel.
//!
//! The safety explorer parallelizes by carving the schedule tree into
//! independent work items at a frontier (subtree roots at a split
//! depth), running the items on the rayon pool, and merging the results
//! **in item order** — so reports are deterministic regardless of thread
//! count or scheduling. Dynamic dealing (idle workers claim the next
//! item) balances skewed items without giving up the ordered merge. The
//! liveness checker walks its state graph sequentially and does not use
//! this module.

use rayon::prelude::*;

/// Runs `worker` over `items` on the rayon pool and returns the results
/// in item order: the kernel's deterministic parallel map. The order
/// guarantee is what makes every parallel path report-identical to its
/// sequential counterpart — workers may finish in any order, but the
/// merge is lexicographic.
///
/// The workspace's rayon shim keeps no persistent pool, so each call
/// spawns `rayon::current_num_threads()` scoped threads; that start-up
/// cost is why the online pipeline runs its own long-lived certifiers
/// instead. The remaining callers are this module's unit test and the
/// `tmbench` traced layer that measures this fan-out; the explorer uses
/// [`distribute_isolated`].
pub fn distribute<I, O, F>(items: Vec<I>, worker: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync + Send,
{
    items.into_par_iter().map(worker).collect()
}

/// [`distribute`] with per-item panic isolation: a worker that panics
/// yields `None` in its slot instead of aborting the whole run, so the
/// caller can merge the surviving results (slots stay aligned with
/// `items`) and degrade to a partial report. The panic payload is
/// dropped — the caller only learns *that* the item failed — and the
/// default panic hook still prints the message to stderr, which is
/// deliberate: a poisoned worker should be loud in logs yet harmless to
/// the verdict.
pub fn distribute_isolated<I, O, F>(items: Vec<I>, worker: F) -> Vec<Option<O>>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync + Send,
{
    items
        .into_par_iter()
        .map(|item| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker(item))).ok())
        .collect()
}

/// The smallest split depth of a `width`-ary schedule tree that yields
/// at least eight subtree roots per worker thread (so dynamic dealing
/// can balance skew), capped below the search depth. Zero when the pool
/// has a single thread: splitting buys nothing.
pub fn auto_split_depth(width: usize, depth: usize) -> usize {
    let workers = rayon::current_num_threads();
    if workers <= 1 {
        return 0;
    }
    let target = workers * 8;
    let mut split = 0;
    let mut roots = 1usize;
    while roots < target && split < depth.saturating_sub(1) {
        roots *= width;
        split += 1;
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribute_preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = distribute(items, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn isolated_distribute_survives_a_panicking_worker() {
        let items: Vec<usize> = (0..20).collect();
        let out = distribute_isolated(items, |i| {
            assert!(i != 7, "poisoned item");
            i * 2
        });
        assert_eq!(out.len(), 20);
        assert_eq!(out[7], None);
        for (i, slot) in out.iter().enumerate() {
            if i != 7 {
                assert_eq!(*slot, Some(i * 2));
            }
        }
    }

    #[test]
    fn split_depth_is_bounded_by_depth() {
        for depth in 0..6 {
            assert!(auto_split_depth(2, depth) <= depth.saturating_sub(1));
        }
    }
}
