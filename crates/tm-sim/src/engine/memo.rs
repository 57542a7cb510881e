//! The interning table of the exploration kernel.
//!
//! The liveness checker keys its graph nodes on canonical configuration
//! digests and interns them in an [`Interner`]: a plain hash map, so
//! node ids are run-to-run deterministic. The safety explorer keys no
//! table: its walks visit the schedule tree, not a state graph.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};

use tm_core::StableHasher;

/// Dense interning of configuration keys: the liveness checker's
/// digest → node-id table. Ids are assigned in first-seen order, so the
/// checker's sequential walk yields identical ids on every run.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_assigns_dense_first_seen_ids() {
        let mut interner = Interner::new();
        assert_eq!(interner.intern("a"), (0, true));
        assert_eq!(interner.intern("b"), (1, true));
        assert_eq!(interner.intern("a"), (0, false));
        assert_eq!(interner.intern("c"), (2, true));
    }
}
