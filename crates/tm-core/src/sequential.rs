//! The sequential specification of t-variables and transaction legality.
//!
//! The paper (following Guerraoui & Kapałka's *Principles of Transactional
//! Memory*) defines legality on a complete sequential history `Hs`:
//! transaction `Tj` is legal iff `visible(Tj)` — the subsequence of `Hs`
//! consisting of `Tj` itself and the **committed** transactions preceding
//! it — respects the semantics of every t-variable: every read of `x`
//! returns the value of the transaction's own latest preceding write to `x`,
//! or else the value of `x` at the transaction's start (the last value
//! committed to `x`, initially [`INITIAL_VALUE`]).
//!
//! Note: the PODC'12 text elides the word "committed" in its `visible(Tj)`
//! definition; taking it literally would make Figure 1 non-opaque,
//! contradicting the paper's own claim, so we follow the book definition.

use std::collections::BTreeMap;

use crate::history::History;
use crate::ids::{TVarId, Value, INITIAL_VALUE};
use crate::transaction::{Operation, Transaction, TxStatus};

/// Outcome of a legality check: either legal, or a description of the first
/// violating read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Legality {
    /// Every transaction is legal.
    Legal,
    /// Some read returned a value inconsistent with the sequential
    /// specification.
    Illegal {
        /// The violating transaction (index into the history's transaction
        /// list).
        tx_index: usize,
        /// The violating read.
        tvar: TVarId,
        /// The value the read returned.
        got: Value,
        /// The value the sequential specification requires.
        expected: Value,
    },
}

impl Legality {
    /// Whether the check passed.
    pub fn is_legal(&self) -> bool {
        matches!(self, Legality::Legal)
    }
}

/// Checks legality of a **complete sequential** history: walks the
/// transactions in order, maintaining the committed state of every
/// t-variable, and verifies every completed read against the sequential
/// specification.
///
/// Returns [`Legality::Illegal`] with the first violation found.
///
/// # Panics
///
/// Panics (in debug builds) if the history is not sequential or not
/// complete; the caller is expected to establish both. In release builds a
/// non-sequential history yields a best-effort answer over the transaction
/// order by first event.
pub fn check_sequential_legality(history: &History) -> Legality {
    debug_assert!(history.is_sequential(), "history must be sequential");
    debug_assert!(history.is_complete(), "history must be complete");
    let txs = history.transactions();
    check_transactions_legality(&txs)
}

/// Legality over an explicit sequence of transactions (the order of the
/// slice is the sequential order). Exposed for checkers that enumerate
/// candidate sequential orders without materializing each candidate
/// history.
pub fn check_transactions_legality(txs: &[Transaction]) -> Legality {
    let mut committed_state: BTreeMap<TVarId, Value> = BTreeMap::new();
    for (tx_index, tx) in txs.iter().enumerate() {
        match check_one(tx, &committed_state) {
            Ok(writes) => {
                if tx.status == TxStatus::Committed {
                    committed_state.extend(writes);
                }
            }
            Err((tvar, got, expected)) => {
                return Legality::Illegal {
                    tx_index,
                    tvar,
                    got,
                    expected,
                }
            }
        }
    }
    Legality::Legal
}

/// Checks a single transaction against a committed state; returns the
/// transaction's write buffer on success, or `(tvar, got, expected)` for
/// the first violating read.
///
/// This is the single-transaction kernel of [`check_transactions_legality`];
/// it is exposed so that witness-search checkers (the `tm-safety` crate)
/// can prune candidate orders one transaction at a time.
pub fn check_one(
    tx: &Transaction,
    committed_state: &BTreeMap<TVarId, Value>,
) -> Result<BTreeMap<TVarId, Value>, (TVarId, Value, Value)> {
    let mut buffer: BTreeMap<TVarId, Value> = BTreeMap::new();
    for op in tx.operations() {
        match op {
            Operation::Write { tvar, value } => {
                buffer.insert(tvar, value);
            }
            Operation::Read { tvar, value } => {
                let expected = buffer
                    .get(&tvar)
                    .or_else(|| committed_state.get(&tvar))
                    .copied()
                    .unwrap_or(INITIAL_VALUE);
                if value != expected {
                    return Err((tvar, value, expected));
                }
            }
        }
    }
    Ok(buffer)
}

/// Replays a sequence of transactions assumed legal and returns the final
/// committed value of every t-variable that was written.
///
/// Useful for asserting that a concurrent execution's final memory state
/// equals the state produced by some serial order of its committed
/// transactions.
pub fn final_committed_state(txs: &[Transaction]) -> BTreeMap<TVarId, Value> {
    let mut committed_state: BTreeMap<TVarId, Value> = BTreeMap::new();
    for tx in txs {
        if tx.status == TxStatus::Committed {
            if let Ok(writes) = check_one(tx, &committed_state) {
                committed_state.extend(writes);
            }
        }
    }
    committed_state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::ids::ProcessId;

    const P1: ProcessId = ProcessId(0);
    const P2: ProcessId = ProcessId(1);
    const X: TVarId = TVarId(0);
    const Y: TVarId = TVarId(1);

    #[test]
    fn initial_value_read_is_legal() {
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .commit(P1)
            .build()
            .unwrap();
        assert!(check_sequential_legality(&h).is_legal());
    }

    #[test]
    fn wrong_initial_read_is_illegal() {
        let h = HistoryBuilder::new()
            .read(P1, X, 7)
            .commit(P1)
            .build()
            .unwrap();
        let verdict = check_sequential_legality(&h);
        assert_eq!(
            verdict,
            Legality::Illegal {
                tx_index: 0,
                tvar: X,
                got: 7,
                expected: 0
            }
        );
    }

    #[test]
    fn read_own_write() {
        let h = HistoryBuilder::new()
            .write_ok(P1, X, 5)
            .read(P1, X, 5)
            .commit(P1)
            .build()
            .unwrap();
        assert!(check_sequential_legality(&h).is_legal());
    }

    #[test]
    fn read_sees_committed_write_of_predecessor() {
        let h = HistoryBuilder::new()
            .write_ok(P1, X, 5)
            .commit(P1)
            .read(P2, X, 5)
            .commit(P2)
            .build()
            .unwrap();
        assert!(check_sequential_legality(&h).is_legal());
    }

    #[test]
    fn aborted_writes_are_invisible() {
        let h = HistoryBuilder::new()
            .write_ok(P1, X, 5)
            .abort_on_try_commit(P1)
            .read(P2, X, 0) // must still see the initial value
            .commit(P2)
            .build()
            .unwrap();
        assert!(check_sequential_legality(&h).is_legal());

        let bad = HistoryBuilder::new()
            .write_ok(P1, X, 5)
            .abort_on_try_commit(P1)
            .read(P2, X, 5) // would observe an aborted write
            .commit(P2)
            .build()
            .unwrap();
        assert!(!check_sequential_legality(&bad).is_legal());
    }

    #[test]
    fn aborted_transaction_reads_must_still_be_consistent() {
        // An aborted transaction must itself be legal (this is what
        // distinguishes opacity from strict serializability).
        let h = HistoryBuilder::new()
            .write_ok(P1, X, 1)
            .commit(P1)
            .read(P2, X, 0) // stale read inside an aborted transaction
            .abort_on_try_commit(P2)
            .build()
            .unwrap();
        assert!(!check_sequential_legality(&h).is_legal());
    }

    #[test]
    fn own_write_shadows_committed_state() {
        let h = HistoryBuilder::new()
            .write_ok(P1, X, 9)
            .commit(P1)
            .write_ok(P2, X, 3)
            .read(P2, X, 3)
            .commit(P2)
            .build()
            .unwrap();
        assert!(check_sequential_legality(&h).is_legal());
    }

    #[test]
    fn multiple_tvars_tracked_independently() {
        let h = HistoryBuilder::new()
            .write_ok(P1, X, 1)
            .read(P1, Y, 0)
            .commit(P1)
            .read(P2, X, 1)
            .read(P2, Y, 0)
            .commit(P2)
            .build()
            .unwrap();
        assert!(check_sequential_legality(&h).is_legal());
    }

    #[test]
    fn final_state_reflects_committed_writes_only() {
        let h = HistoryBuilder::new()
            .write_ok(P1, X, 1)
            .commit(P1)
            .write_ok(P2, X, 2)
            .abort_on_try_commit(P2)
            .write_ok(P1, Y, 3)
            .commit(P1)
            .build()
            .unwrap();
        let state = final_committed_state(&h.transactions());
        assert_eq!(state.get(&X), Some(&1));
        assert_eq!(state.get(&Y), Some(&3));
    }

    #[test]
    fn later_read_in_same_tx_sees_latest_own_write() {
        let h = HistoryBuilder::new()
            .write_ok(P1, X, 1)
            .write_ok(P1, X, 2)
            .read(P1, X, 2)
            .commit(P1)
            .build()
            .unwrap();
        assert!(check_sequential_legality(&h).is_legal());
    }
}
