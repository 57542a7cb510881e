//! Concurrent global-lock TM: one `parking_lot::Mutex` around the store.
//!
//! The Amdahl's-law baseline of the paper's footnote 1: perfectly simple,
//! never aborts, and serializes everything — its throughput is flat (or
//! worse) as threads are added, unlike TL2's and NOrec's.

use parking_lot::{Mutex, MutexGuard};
use tm_core::{TVarId, Value, INITIAL_VALUE};

use super::api::{ConcurrentTm, Transaction, TxAbort};

/// Global-lock concurrent TM.
#[derive(Debug)]
pub struct ConcurrentGlobalLock {
    store: Mutex<Vec<Value>>,
}

impl ConcurrentGlobalLock {
    /// Creates a store of `tvars` t-variables, all `0`.
    ///
    /// # Panics
    ///
    /// Panics if `tvars` is zero.
    pub fn new(tvars: usize) -> Self {
        assert!(tvars > 0, "need at least one t-variable");
        ConcurrentGlobalLock {
            store: Mutex::new(vec![INITIAL_VALUE; tvars]),
        }
    }

    /// Snapshot of the committed store (acquires the lock).
    pub fn snapshot(&self) -> Vec<Value> {
        self.store.lock().clone()
    }
}

/// A transaction holding the global lock for its whole duration.
pub struct GlobalLockTx<'a> {
    guard: MutexGuard<'a, Vec<Value>>,
    undo: Vec<(usize, Value)>,
}

impl Transaction for GlobalLockTx<'_> {
    fn read(&mut self, x: TVarId) -> Result<Value, TxAbort> {
        Ok(self.guard[x.index()])
    }

    fn write(&mut self, x: TVarId, v: Value) -> Result<(), TxAbort> {
        let j = x.index();
        self.undo.push((j, self.guard[j]));
        self.guard[j] = v;
        Ok(())
    }

    fn commit_at(mut self, point: &mut dyn FnMut()) -> Result<(), TxAbort> {
        self.undo.clear(); // keep the writes; dropping the guard releases the lock
        point(); // serialization point: the guard is still held here
        Ok(())
    }
}

impl Drop for GlobalLockTx<'_> {
    fn drop(&mut self) {
        // A dropped-without-commit transaction (body returned TxAbort)
        // must roll back its in-place writes. `commit` consumes `self`
        // after clearing the undo log, so committed effects survive.
        for &(j, old) in self.undo.iter().rev() {
            self.guard[j] = old;
        }
    }
}

impl ConcurrentTm for ConcurrentGlobalLock {
    type Tx<'a> = GlobalLockTx<'a>;

    fn name(&self) -> &'static str {
        "global-lock"
    }

    fn tvar_count(&self) -> usize {
        self.store.lock().len()
    }

    fn begin(&self) -> GlobalLockTx<'_> {
        GlobalLockTx {
            guard: self.store.lock(),
            undo: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::api::atomically;

    #[test]
    fn commit_applies_writes() {
        let tm = ConcurrentGlobalLock::new(1);
        atomically(&tm, |tx| tx.write(TVarId(0), 5));
        assert_eq!(tm.snapshot(), vec![5]);
    }

    #[test]
    fn threads_serialize_increments() {
        let tm = std::sync::Arc::new(ConcurrentGlobalLock::new(1));
        let threads = 4;
        let per_thread = 500;
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
}
