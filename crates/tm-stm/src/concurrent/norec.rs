//! Concurrent NOrec on real atomics.
//!
//! One global sequence lock (even = quiescent, odd = a writer is
//! publishing) and value-based validation (Dalessandro, Spear, Scott;
//! PPoPP 2010). No per-location metadata at all — the antithesis of TL2's
//! per-variable versioned locks, which makes it the second point on the
//! conflict-granularity axis.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use tm_core::{TVarId, Value, INITIAL_VALUE};

use super::api::{ConcurrentTm, Transaction, TxAbort};

/// Concurrent NOrec TM.
#[derive(Debug)]
pub struct ConcurrentNOrec {
    seq: AtomicU64,
    vals: Vec<AtomicU64>,
}

impl ConcurrentNOrec {
    /// Creates a store of `tvars` t-variables, all `0`.
    ///
    /// # Panics
    ///
    /// Panics if `tvars` is zero.
    pub fn new(tvars: usize) -> Self {
        assert!(tvars > 0, "need at least one t-variable");
        ConcurrentNOrec {
            seq: AtomicU64::new(0),
            vals: (0..tvars).map(|_| AtomicU64::new(INITIAL_VALUE)).collect(),
        }
    }

    /// Waits for an even sequence number and returns it.
    fn stable_seq(&self) -> u64 {
        loop {
            let s = self.seq.load(Ordering::Acquire);
            if s & 1 == 0 {
                return s;
            }
            std::hint::spin_loop();
        }
    }

    /// Snapshot of the committed store.
    pub fn snapshot(&self) -> Vec<Value> {
        loop {
            let s = self.stable_seq();
            let values: Vec<Value> = self
                .vals
                .iter()
                .map(|v| v.load(Ordering::Acquire))
                .collect();
            if self.seq.load(Ordering::Acquire) == s {
                return values;
            }
        }
    }
}

/// An in-flight NOrec transaction.
pub struct NOrecTx<'a> {
    tm: &'a ConcurrentNOrec,
    snapshot: u64,
    reads: Vec<(usize, Value)>,
    writes: BTreeMap<usize, Value>,
}

impl NOrecTx<'_> {
    /// Value-based validation: re-reads the read set under a stable
    /// sequence number. On success the snapshot is extended; on failure
    /// the transaction must abort.
    fn validate(&mut self) -> Result<(), TxAbort> {
        loop {
            let s = self.tm.stable_seq();
            let ok = self
                .reads
                .iter()
                .all(|&(j, v)| self.tm.vals[j].load(Ordering::Acquire) == v);
            if self.tm.seq.load(Ordering::Acquire) != s {
                continue; // a writer raced us; re-validate
            }
            if !ok {
                return Err(TxAbort);
            }
            self.snapshot = s;
            return Ok(());
        }
    }
}

impl Transaction for NOrecTx<'_> {
    fn read(&mut self, x: TVarId) -> Result<Value, TxAbort> {
        let j = x.index();
        if let Some(&v) = self.writes.get(&j) {
            return Ok(v);
        }
        loop {
            let value = self.tm.vals[j].load(Ordering::Acquire);
            if self.tm.seq.load(Ordering::Acquire) == self.snapshot {
                self.reads.push((j, value));
                return Ok(value);
            }
            self.validate()?;
        }
    }

    fn write(&mut self, x: TVarId, v: Value) -> Result<(), TxAbort> {
        self.writes.insert(x.index(), v);
        Ok(())
    }

    fn commit_at(mut self, point: &mut dyn FnMut()) -> Result<(), TxAbort> {
        if self.writes.is_empty() {
            // Read-only: stamp first, then value-validate. Success means
            // the read values equal the committed values at the
            // validation — and therefore at the stamp too: any writer
            // that changed-and-restored a read value in between leaves
            // the committed read-set values equal at both moments, and a
            // writer that left a different value fails the validation.
            // Stamping after a validation instead would let a writer
            // commit entirely inside the validate-to-stamp window and
            // record an inverted commit order; a failure after the stamp
            // is charged to the abort by the recorder.
            point();
            return self.validate();
        }
        // Acquire the global sequence lock at our snapshot, revalidating
        // whenever the snapshot is stale.
        loop {
            match self.tm.seq.compare_exchange(
                self.snapshot,
                self.snapshot + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(_) => self.validate()?,
            }
        }
        for (&j, &v) in &self.writes {
            self.tm.vals[j].store(v, Ordering::Release);
        }
        // Serialization point: values published, sequence lock still
        // held, so no conflicting commit can slip in before the mark.
        point();
        self.tm.seq.store(self.snapshot + 2, Ordering::Release);
        Ok(())
    }
}

impl ConcurrentTm for ConcurrentNOrec {
    type Tx<'a> = NOrecTx<'a>;

    fn name(&self) -> &'static str {
        "norec"
    }

    fn tvar_count(&self) -> usize {
        self.vals.len()
    }

    fn begin(&self) -> NOrecTx<'_> {
        NOrecTx {
            snapshot: self.stable_seq(),
            tm: self,
            reads: Vec::new(),
            writes: BTreeMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::api::atomically;
    use std::sync::Arc;

    #[test]
    fn single_thread_semantics() {
        let tm = ConcurrentNOrec::new(2);
        atomically(&tm, |tx| {
            tx.write(TVarId(0), 10)?;
            tx.write(TVarId(1), 20)
        });
        let (sum, _) = atomically(&tm, |tx| Ok(tx.read(TVarId(0))? + tx.read(TVarId(1))?));
        assert_eq!(sum, 30);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let tm = Arc::new(ConcurrentNOrec::new(1));
        let threads = 8;
        let per_thread = 1_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let tm = tm.clone();
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        atomically(&*tm, |tx| {
                            let v = tx.read(TVarId(0))?;
                            tx.write(TVarId(0), v + 1)
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tm.snapshot(), vec![threads * per_thread]);
    }

    #[test]
    fn disjoint_writers_conflict_anyway() {
        // NOrec's single orec: a commit to y invalidates a reader of x by
        // sequence number, but value validation saves it (x unchanged).
        let tm = ConcurrentNOrec::new(2);
        let mut t1 = tm.begin();
        assert_eq!(t1.read(TVarId(0)).unwrap(), 0);
        atomically(&tm, |tx| tx.write(TVarId(1), 5));
        // Value-based validation lets the read-only transaction commit.
        assert_eq!(t1.read(TVarId(1)).unwrap(), 5);
        assert!(t1.commit().is_ok());
    }

    #[test]
    fn writer_invalidates_reader_of_same_var() {
        let tm = ConcurrentNOrec::new(1);
        let mut t1 = tm.begin();
        assert_eq!(t1.read(TVarId(0)).unwrap(), 0);
        atomically(&tm, |tx| tx.write(TVarId(0), 5));
        assert_eq!(t1.read(TVarId(0)), Err(TxAbort));
    }
}
