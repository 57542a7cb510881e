//! The opacity checker.
//!
//! A finite history `H` is **opaque** iff there exists a sequential history
//! `Hs` equivalent to `com(H)`, preserving the real-time order of `com(H)`,
//! in which every transaction is legal. Opacity requires *every*
//! transaction — including aborted and still-live ones — to observe a
//! consistent state.

use serde::{Deserialize, Serialize};

use tm_core::{History, TxId};

use crate::witness::{find_witness, TooManyTransactions};

/// Result of an exact safety check: either a concrete sequential witness
/// (the property holds) or a proof of absence (the property is violated).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SafetyVerdict {
    /// The property holds; `witness` lists transactions in a legal
    /// real-time-preserving sequential order.
    Satisfied {
        /// Transaction identities in witness order.
        witness: Vec<TxId>,
    },
    /// No legal sequential witness exists.
    Violated,
}

impl SafetyVerdict {
    /// Whether the property holds.
    pub fn holds(&self) -> bool {
        matches!(self, SafetyVerdict::Satisfied { .. })
    }
}

/// Checks opacity of a finite history exactly.
///
/// The history is completed (`com(H)`), its transactions extracted, and the
/// witness space (linear extensions of the real-time order) searched with
/// legality pruning and memoization.
///
/// # Errors
///
/// [`TooManyTransactions`] if `com(H)` has more than
/// [`crate::witness::MAX_EXACT_TRANSACTIONS`] transactions; use
/// [`crate::incremental::IncrementalChecker`] for long histories.
///
/// # Examples
///
/// ```
/// use tm_core::builder::figures;
/// use tm_safety::check_opacity;
///
/// assert!(check_opacity(&figures::figure_1()).unwrap().holds());
/// assert!(!check_opacity(&figures::figure_3()).unwrap().holds());
/// assert!(!check_opacity(&figures::figure_4()).unwrap().holds());
/// ```
pub fn check_opacity(history: &History) -> Result<SafetyVerdict, TooManyTransactions> {
    let completed = history.complete();
    let txs = completed.transactions();
    Ok(match find_witness(&txs)? {
        Some(order) => SafetyVerdict::Satisfied {
            witness: order.into_iter().map(|i| txs[i].id).collect(),
        },
        None => SafetyVerdict::Violated,
    })
}

/// Convenience predicate: whether the history is opaque.
///
/// # Panics
///
/// Panics if the history exceeds the exact checker's size limit; use
/// [`check_opacity`] to handle that case explicitly.
pub fn is_opaque(history: &History) -> bool {
    check_opacity(history)
        .expect("history too large for exact opacity check")
        .holds()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::builder::figures;
    use tm_core::{HistoryBuilder, ProcessId, TVarId};

    const P1: ProcessId = ProcessId(0);
    const P2: ProcessId = ProcessId(1);
    const P3: ProcessId = ProcessId(2);
    const X: TVarId = TVarId(0);
    const Y: TVarId = TVarId(1);

    #[test]
    fn empty_history_is_opaque() {
        assert!(is_opaque(&History::new()));
    }

    #[test]
    fn figure_1_is_opaque() {
        // The paper: "the history in Figure 1 is opaque".
        assert!(is_opaque(&figures::figure_1()));
    }

    #[test]
    fn figure_3_is_not_opaque() {
        // The paper: "the histories in Figure 3 and Figure 4 are not opaque".
        assert!(!is_opaque(&figures::figure_3()));
    }

    #[test]
    fn figure_4_is_not_opaque() {
        assert!(!is_opaque(&figures::figure_4()));
    }

    #[test]
    fn figure_8_terminating_suffix_is_not_opaque() {
        // The central claim of Theorem 1's proof: if Algorithm 1 terminated,
        // the resulting history would not be opaque.
        for v in [0, 1, 3, 7, 10, 41] {
            assert!(!is_opaque(&figures::figure_8(v)));
        }
    }

    #[test]
    fn live_transactions_must_observe_consistent_state() {
        // p1 reads x twice and sees two different committed values without
        // committing or aborting: com(H) aborts it and it must be legal —
        // it is not.
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .write_ok(P2, X, 1)
            .commit(P2)
            .read(P1, X, 1)
            .build()
            .unwrap();
        assert!(!is_opaque(&h));
    }

    #[test]
    fn snapshot_read_of_old_values_is_opaque_if_placed_before_writer() {
        // p1 reads x=0 and y=0 while p2 concurrently writes both and
        // commits: witness places p1's (aborted) transaction first.
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .write_ok(P2, X, 1)
            .write_ok(P2, Y, 1)
            .commit(P2)
            .read(P1, Y, 0)
            .abort_on_try_commit(P1)
            .build()
            .unwrap();
        assert!(is_opaque(&h));
    }

    #[test]
    fn torn_snapshot_is_not_opaque() {
        // p1 reads x=0 (old) then y=1 (new): no single serialization point.
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .write_ok(P2, X, 1)
            .write_ok(P2, Y, 1)
            .commit(P2)
            .read(P1, Y, 1)
            .abort_on_try_commit(P1)
            .build()
            .unwrap();
        assert!(!is_opaque(&h));
    }

    #[test]
    fn witness_identifies_sequential_order() {
        let h = figures::figure_1();
        match check_opacity(&h).unwrap() {
            SafetyVerdict::Satisfied { witness } => {
                assert_eq!(witness.len(), 2);
                // p1's aborted transaction must be serialized before p2's
                // committed write (p1 read 0).
                assert_eq!(witness[0].process, P1);
                assert_eq!(witness[1].process, P2);
            }
            SafetyVerdict::Violated => panic!("figure 1 must be opaque"),
        }
    }

    #[test]
    fn three_process_chain_is_opaque() {
        let h = HistoryBuilder::new()
            .write_ok(P1, X, 1)
            .commit(P1)
            .read(P2, X, 1)
            .write_ok(P2, Y, 2)
            .commit(P2)
            .read(P3, Y, 2)
            .commit(P3)
            .build()
            .unwrap();
        assert!(is_opaque(&h));
    }

    #[test]
    fn write_skew_style_interleaving() {
        // Both read both variables' initial values, each writes a different
        // variable, both commit. Serializable in either order (reads saw
        // initial state, writes disjoint)? Placing T1 then T2: T2 read x=0
        // but T1 committed x=1 → illegal; T2 then T1 symmetric → illegal.
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .read(P1, Y, 0)
            .read(P2, X, 0)
            .read(P2, Y, 0)
            .write_ok(P1, X, 1)
            .write_ok(P2, Y, 1)
            .commit(P1)
            .commit(P2)
            .build()
            .unwrap();
        assert!(!is_opaque(&h));
    }

    #[test]
    fn disjoint_variables_commute() {
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .read(P2, Y, 0)
            .write_ok(P1, X, 1)
            .write_ok(P2, Y, 1)
            .commit(P1)
            .commit(P2)
            .build()
            .unwrap();
        assert!(is_opaque(&h));
    }

    #[test]
    fn commit_pending_transaction_is_aborted_by_completion() {
        // A commit-pending transaction with consistent reads: opaque.
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .invoke(P1, tm_core::Invocation::TryCommit)
            .build()
            .unwrap();
        assert!(is_opaque(&h));
    }
}
