//! The concurrent (thread-driven) TM interface.
//!
//! The stepped interface models the paper's asynchronous processes with an
//! explicit scheduler; the concurrent interface runs real OS threads over
//! shared atomics, which is what the online certification pipeline (and
//! tmbench's online workloads) drive. A [`ConcurrentTm`] hands out [`Transaction`] handles; aborted
//! operations return [`TxAbort`] and the caller retries (usually via
//! [`atomically`]).

use tm_core::{TVarId, Value};
use tm_telemetry::{Counter, Telemetry};

/// Marker error: the transaction has aborted and must be retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxAbort;

impl core::fmt::Display for TxAbort {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("transaction aborted")
    }
}

impl std::error::Error for TxAbort {}

/// An in-flight transaction on a [`ConcurrentTm`].
pub trait Transaction {
    /// Transactional read of `x`.
    ///
    /// # Errors
    ///
    /// [`TxAbort`] if the transaction observed a conflict and must retry.
    fn read(&mut self, x: TVarId) -> Result<Value, TxAbort>;

    /// Transactional write of `v` to `x`.
    ///
    /// # Errors
    ///
    /// [`TxAbort`] if the transaction observed a conflict and must retry.
    fn write(&mut self, x: TVarId, v: Value) -> Result<(), TxAbort>;

    /// Attempts to commit, invoking `point` at most once, at a moment
    /// that is the commit's *serialization point* whenever the commit
    /// goes on to succeed: if it does, the committed state at the call
    /// equals exactly what this transaction read, and every conflicting
    /// commit serializes strictly before or strictly after the call.
    ///
    /// Implementations may invoke `point` *optimistically*, before a
    /// final validation (the only way to order the stamp correctly when
    /// the read set is protected by versions rather than locks — TL2
    /// stamps and then checks that no read version moved, which proves
    /// retroactively that the reads were still intact at the stamp). A
    /// commit that fails after calling `point` simply returns
    /// [`TxAbort`]; recorders charge the stamp to the abort response,
    /// which is sound because aborted transactions impose no
    /// commit-order obligation.
    ///
    /// The hook exists for history recorders: a sequence stamp taken at
    /// the serialization point orders commit events identically to the
    /// TM's serialization order, which is what makes recorded histories
    /// certifiable by the commit-order checker
    /// (`tm_safety::IncrementalChecker`). A stamp taken after `commit`
    /// returns races with conflicting commits in the window between the
    /// TM's internal unlock and the stamp, and the inverted commit
    /// order manifests as false violations — likewise a stamp taken
    /// after validation but with no proof that validity extends to the
    /// stamp itself.
    ///
    /// # Errors
    ///
    /// [`TxAbort`] if validation failed; all effects are discarded.
    /// `point` may or may not have been called in that case.
    fn commit_at(self, point: &mut dyn FnMut()) -> Result<(), TxAbort>;

    /// Attempts to commit.
    ///
    /// # Errors
    ///
    /// [`TxAbort`] if validation failed; all effects are discarded.
    fn commit(self) -> Result<(), TxAbort>
    where
        Self: Sized,
    {
        self.commit_at(&mut || {})
    }
}

/// A thread-safe TM over a fixed set of `u64` t-variables.
pub trait ConcurrentTm: Send + Sync {
    /// The transaction handle type.
    type Tx<'a>: Transaction
    where
        Self: 'a;

    /// The algorithm's name (used in benchmark output).
    fn name(&self) -> &'static str;

    /// Number of t-variables.
    fn tvar_count(&self) -> usize;

    /// Starts a transaction.
    fn begin(&self) -> Self::Tx<'_>;
}

/// Runs `body` in a transaction, retrying on abort; returns the result and
/// the number of aborted attempts.
///
/// # Examples
///
/// ```
/// use tm_core::TVarId;
/// use tm_stm::concurrent::{atomically, ConcurrentGlobalLock, Transaction};
///
/// let tm = ConcurrentGlobalLock::new(1);
/// let x = TVarId(0);
/// let (old, aborts) = atomically(&tm, |tx| {
///     let v = tx.read(x)?;
///     tx.write(x, v + 1)?;
///     Ok(v)
/// });
/// assert_eq!(old, 0);
/// assert_eq!(aborts, 0); // the global lock never aborts
/// ```
pub fn atomically<T, R, F>(tm: &T, body: F) -> (R, u64)
where
    T: ConcurrentTm,
    F: FnMut(&mut T::Tx<'_>) -> Result<R, TxAbort>,
{
    atomically_telemetered(tm, &Telemetry::off(), body)
}

/// [`atomically`], with the retry loop's commit/abort tallies flushed
/// through the standard counter path: one [`Counter::TxCommits`]
/// increment per successful call and one [`Counter::TxAborts`] per
/// aborted attempt (added once at loop exit, so the hot path pays no
/// per-retry atomics beyond the TM's own).
pub fn atomically_telemetered<T, R, F>(tm: &T, telemetry: &Telemetry, mut body: F) -> (R, u64)
where
    T: ConcurrentTm,
    F: FnMut(&mut T::Tx<'_>) -> Result<R, TxAbort>,
{
    let mut aborts = 0;
    loop {
        let mut tx = tm.begin();
        let committed = match body(&mut tx) {
            Ok(result) => match tx.commit() {
                Ok(()) => Some(result),
                Err(TxAbort) => None,
            },
            Err(TxAbort) => None,
        };
        match committed {
            Some(result) => {
                telemetry.add(Counter::TxCommits, 1);
                telemetry.add(Counter::TxAborts, aborts);
                return (result, aborts);
            }
            None => aborts += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::ConcurrentGlobalLock;
    use tm_core::TVarId;

    #[test]
    fn atomically_returns_body_result() {
        let tm = ConcurrentGlobalLock::new(2);
        let (sum, aborts) = atomically(&tm, |tx| {
            tx.write(TVarId(0), 3)?;
            tx.write(TVarId(1), 4)?;
            Ok(7u64)
        });
        assert_eq!(sum, 7);
        assert_eq!(aborts, 0);
        let (v, _) = atomically(&tm, |tx| Ok(tx.read(TVarId(0))? + tx.read(TVarId(1))?));
        assert_eq!(v, 7);
    }

    #[test]
    fn telemetered_retry_loop_tallies_commits() {
        let tm = ConcurrentGlobalLock::new(1);
        let telemetry = Telemetry::counters();
        for _ in 0..3 {
            atomically_telemetered(&tm, &telemetry, |tx| {
                let v = tx.read(TVarId(0))?;
                tx.write(TVarId(0), v + 1)
            });
        }
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.get(Counter::TxCommits), 3);
        assert_eq!(snapshot.get(Counter::TxAborts), 0); // the lock never aborts
    }
}
