//! The kernel's deterministic parallel map.
//!
//! Neither checker walks in parallel: the safety explorer and the
//! liveness checker each take one sequential walk. [`distribute`] stays
//! as the one fan-out primitive for callers that split independent work
//! items over the rayon pool and need the results back **in item
//! order**, whatever the thread count.

use rayon::prelude::*;

/// Runs `worker` over `items` on the rayon pool and returns the results
/// in item order: workers may finish in any order, but the merge is
/// lexicographic, so the output is deterministic.
///
/// The workspace's rayon shim keeps no persistent pool, so each call
/// spawns `rayon::current_num_threads()` scoped threads; that start-up
/// cost is why the online pipeline runs its own long-lived certifiers
/// instead. The remaining callers are this module's unit test and the
/// `tmbench` traced layer that measures this fan-out.
pub fn distribute<I, O, F>(items: Vec<I>, worker: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync + Send,
{
    items.into_par_iter().map(worker).collect()
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
}
