//! A deterministically buggy concurrent TM — the online pipeline's
//! canary.
//!
//! [`ConcurrentBuggy`] is a global-lock TM with one seeded defect: the
//! first commit from the `drop_at`-th on whose writes would change the
//! store *reports success but silently discards its writes* (a lost
//! update). A commit that only writes back the values already stored is
//! passed over, since dropping it would lose nothing. Every other commit
//! is applied faithfully, so the defect is a single event, not noise —
//! and it is guaranteed to surface: the store diverges from the history's
//! committed-state sequence at that commit, so the next transaction
//! that reads an affected t-variable observes a value no consistent
//! serialization can produce. On increment-style workloads the very
//! writer that lost its update reads the stale value on its next
//! attempt, which makes detection deterministic even single-threaded —
//! exactly what a differential suite needs from a fault it must *catch*.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

use tm_core::{TVarId, Value, INITIAL_VALUE};

use super::api::{ConcurrentTm, Transaction, TxAbort};

/// A global-lock TM that silently drops the writes of one seeded
/// commit.
#[derive(Debug)]
pub struct ConcurrentBuggy {
    store: Mutex<Vec<Value>>,
    commits: AtomicU64,
    /// 1-based index of the first commit whose writes may be discarded.
    drop_at: u64,
    /// Whether the seeded commit has been dropped.
    dropped: AtomicBool,
}

impl ConcurrentBuggy {
    /// Creates a store of `tvars` t-variables, losing the writes of the
    /// first commit from the `drop_at`-th on (1-based) that would change
    /// the store; `0` never triggers, yielding a correct TM.
    ///
    /// # Panics
    ///
    /// Panics if `tvars` is zero.
    pub fn new(tvars: usize, drop_at: u64) -> Self {
        assert!(tvars > 0, "need at least one t-variable");
        ConcurrentBuggy {
            store: Mutex::new(vec![INITIAL_VALUE; tvars]),
            commits: AtomicU64::new(0),
            drop_at,
            dropped: AtomicBool::new(false),
        }
    }

    /// Snapshot of the committed store (acquires the lock).
    pub fn snapshot(&self) -> Vec<Value> {
        self.store.lock().clone()
    }
}

/// A transaction on [`ConcurrentBuggy`]: buffered writes published
/// under the global lock at commit — unless this commit is the seeded
/// victim.
pub struct BuggyTx<'a> {
    tm: &'a ConcurrentBuggy,
    guard: MutexGuard<'a, Vec<Value>>,
    writes: Vec<(usize, Value)>,
}

impl BuggyTx<'_> {
    /// Whether publishing the buffered writes would change the store:
    /// the last write to a t-variable is the one that lands.
    fn changes_store(&self) -> bool {
        self.writes.iter().enumerate().any(|(i, &(j, v))| {
            self.guard[j] != v && self.writes[i + 1..].iter().all(|&(k, _)| k != j)
        })
    }
}

impl Transaction for BuggyTx<'_> {
    fn read(&mut self, x: TVarId) -> Result<Value, TxAbort> {
        let j = x.index();
        if let Some(&(_, v)) = self.writes.iter().rev().find(|&&(k, _)| k == j) {
            return Ok(v);
        }
        Ok(self.guard[j])
    }

    fn write(&mut self, x: TVarId, v: Value) -> Result<(), TxAbort> {
        self.writes.push((x.index(), v));
        Ok(())
    }

    fn commit_at(mut self, point: &mut dyn FnMut()) -> Result<(), TxAbort> {
        let n = self.tm.commits.fetch_add(1, Ordering::AcqRel) + 1;
        let victim = self.tm.drop_at != 0
            && n >= self.tm.drop_at
            && !self.tm.dropped.load(Ordering::Acquire)
            && self.changes_store();
        if victim {
            self.tm.dropped.store(true, Ordering::Release);
        } else {
            for &(j, v) in &self.writes {
                self.guard[j] = v;
            }
        }
        // The seeded victim reports success with its writes discarded:
        // the lost update the certifier must catch. The serialization
        // point is marked honestly (guard held) so the *only* defect a
        // checker can find is the dropped writeback itself.
        point();
        Ok(())
    }
}

impl ConcurrentTm for ConcurrentBuggy {
    type Tx<'a> = BuggyTx<'a>;

    fn name(&self) -> &'static str {
        "buggy-lost-update"
    }

    fn tvar_count(&self) -> usize {
        self.store.lock().len()
    }

    fn begin(&self) -> BuggyTx<'_> {
        BuggyTx {
            tm: self,
            guard: self.store.lock(),
            writes: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::api::atomically;

    #[test]
    fn drops_exactly_the_seeded_commit() {
        let tm = ConcurrentBuggy::new(1, 2);
        for _ in 0..3 {
            atomically(&tm, |tx| {
                let v = tx.read(TVarId(0))?;
                tx.write(TVarId(0), v + 1)
            });
        }
        // Commit 2's increment was lost: 1, (dropped), stale+1 = 2.
        assert_eq!(tm.snapshot(), vec![2]);
    }

    #[test]
    fn a_write_back_of_the_stored_values_is_passed_over() {
        let tm = ConcurrentBuggy::new(1, 2);
        let increment = |tx: &mut BuggyTx<'_>| {
            let v = tx.read(TVarId(0))?;
            tx.write(TVarId(0), v + 1)
        };
        atomically(&tm, increment);
        // Commit 2 writes back what it read, net of a write it undoes:
        // dropping it would lose nothing, so it lands and is no victim.
        atomically(&tm, |tx| {
            let v = tx.read(TVarId(0))?;
            tx.write(TVarId(0), v + 5)?;
            tx.write(TVarId(0), v)
        });
        // Commit 3 is the victim; commit 4 re-reads the stale value.
        atomically(&tm, increment);
        atomically(&tm, increment);
        assert_eq!(tm.snapshot(), vec![2]);
    }

    #[test]
    fn drop_at_zero_is_a_correct_tm() {
        let tm = ConcurrentBuggy::new(1, 0);
        for _ in 0..4 {
            atomically(&tm, |tx| {
                let v = tx.read(TVarId(0))?;
                tx.write(TVarId(0), v + 1)
            });
        }
        assert_eq!(tm.snapshot(), vec![4]);
    }
}
