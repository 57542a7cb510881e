//! Seen-set and interning tables of the exploration kernel.
//!
//! Every search in this crate keys some table on canonical configuration
//! digests: the safety explorer memoizes subtree summaries in a
//! [`SeenSet`], the liveness checker interns graph nodes in an
//! [`Interner`]. Both are worker-local hash maps — lock-free and
//! run-to-run deterministic; the explorer's parallel frontier gives each
//! worker its own seen set.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};

use tm_core::StableHasher;

/// The digest seen set of one search walk: a worker-local map that can
/// be switched off, so the walkers call one `get`/`insert` surface
/// whether or not dedup runs.
#[derive(Debug)]
pub struct SeenSet<K, V> {
    enabled: bool,
    map: HashMap<K, V>,
}

impl<K: Hash + Eq, V: Copy> SeenSet<K, V> {
    /// A worker-local seen set (a no-op table when `enabled` is false).
    pub fn new(enabled: bool) -> Self {
        SeenSet {
            enabled,
            map: HashMap::new(),
        }
    }

    /// Whether lookups/inserts do anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Looks `key` up.
    ///
    /// `get` and `insert` stay out of line: the walkers call them on a
    /// branch that is cold whenever dedup is off, and inlined copies
    /// enlarge every frame of the recursive walk, which measurably
    /// slows it.
    #[inline(never)]
    pub fn get(&self, key: &K) -> Option<V> {
        self.map.get(key).copied()
    }

    /// Records `key → value`.
    #[inline(never)]
    pub fn insert(&mut self, key: K, value: V) {
        self.map.insert(key, value);
    }
}

/// Dense interning of configuration keys: the liveness checker's
/// digest → node-id table. Ids are assigned in first-seen order, so the
/// checker's sequential DFS yields identical ids on every run.
///
/// The keys are already digests, so the table hashes them with the
/// word-wise [`StableHasher`] instead of SipHash: one multiply per key
/// word. Keys are machine-generated states, never input crafted to
/// collide.
#[derive(Debug, Default)]
pub struct Interner<K> {
    ids: HashMap<K, u32, BuildHasherDefault<StableHasher>>,
}

impl<K: Hash + Eq> Interner<K> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            ids: HashMap::default(),
        }
    }

    /// The id of `key`, assigning the next dense id on first sight.
    /// Returns `(id, freshly_assigned)`.
    pub fn intern(&mut self, key: K) -> (u32, bool) {
        let next = u32::try_from(self.ids.len()).expect("state graph exceeds u32 nodes");
        match self.ids.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => (*e.get(), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(next);
                (next, true)
            }
        }
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seen_set_round_trips_and_reports_disabled() {
        let mut seen: SeenSet<u64, u32> = SeenSet::new(true);
        assert!(seen.enabled());
        seen.insert(7, 9);
        assert_eq!(seen.get(&7), Some(9));
        assert_eq!(seen.get(&8), None);
        assert!(!SeenSet::<u64, u32>::new(false).enabled());
    }

    #[test]
    fn interner_assigns_dense_first_seen_ids() {
        let mut interner = Interner::new();
        assert!(interner.is_empty());
        assert_eq!(interner.intern("a"), (0, true));
        assert_eq!(interner.intern("b"), (1, true));
        assert_eq!(interner.intern("a"), (0, false));
        assert_eq!(interner.len(), 2);
    }
}
