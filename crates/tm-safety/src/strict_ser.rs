//! The strict serializability checker.
//!
//! A finite history `H` is **strictly serializable** iff there exists a
//! sequential history `Hs` equivalent to `Hcom` — the longest subsequence
//! of `H` containing only committed transactions — preserving the
//! real-time order of `H`, in which every transaction is legal. Unlike
//! opacity, aborted and live transactions need not observe consistent
//! states.

use tm_core::History;

use crate::opacity::SafetyVerdict;
use crate::witness::{find_witness, TooManyTransactions};

/// Checks strict serializability of a finite history exactly.
///
/// # Errors
///
/// [`TooManyTransactions`] if the committed projection has more than
/// [`crate::witness::MAX_EXACT_TRANSACTIONS`] transactions.
///
/// # Examples
///
/// ```
/// use tm_core::builder::figures;
/// use tm_safety::check_strict_serializability;
///
/// // Figure 4 is strictly serializable but (per the opacity checker) not
/// // opaque.
/// assert!(check_strict_serializability(&figures::figure_4()).unwrap().holds());
/// assert!(!check_strict_serializability(&figures::figure_3()).unwrap().holds());
/// ```
pub fn check_strict_serializability(
    history: &History,
) -> Result<SafetyVerdict, TooManyTransactions> {
    let committed = history.committed_projection();
    let txs = committed.transactions();
    Ok(match find_witness(&txs)? {
        Some(order) => SafetyVerdict::Satisfied {
            witness: order.into_iter().map(|i| txs[i].id).collect(),
        },
        None => SafetyVerdict::Violated,
    })
}

/// Convenience predicate: whether the history is strictly serializable.
///
/// # Panics
///
/// Panics if the history exceeds the exact checker's size limit; use
/// [`check_strict_serializability`] to handle that case explicitly.
pub fn is_strictly_serializable(history: &History) -> bool {
    check_strict_serializability(history)
        .expect("history too large for exact strict serializability check")
        .holds()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opacity::is_opaque;
    use tm_core::builder::figures;
    use tm_core::{History, HistoryBuilder, ProcessId, TVarId};

    const P1: ProcessId = ProcessId(0);
    const P2: ProcessId = ProcessId(1);
    const X: TVarId = TVarId(0);

    #[test]
    fn empty_history_is_strictly_serializable() {
        assert!(is_strictly_serializable(&History::new()));
    }

    #[test]
    fn figure_1_is_strictly_serializable() {
        // The paper: "the histories in Figure 1 and Figure 4 are strictly
        // serializable".
        assert!(is_strictly_serializable(&figures::figure_1()));
    }

    #[test]
    fn figure_3_is_not_strictly_serializable() {
        assert!(!is_strictly_serializable(&figures::figure_3()));
    }

    #[test]
    fn figure_4_is_strictly_serializable_but_not_opaque() {
        let h = figures::figure_4();
        assert!(is_strictly_serializable(&h));
        assert!(!is_opaque(&h));
    }

    #[test]
    fn figure_8_suffix_violates_strict_serializability_too() {
        // Needed for the generalized result (Theorem 2): the adversary's
        // would-be terminating history violates every strictly serializable
        // safety property.
        for v in [0, 3, 10] {
            assert!(!is_strictly_serializable(&figures::figure_8(v)));
        }
    }

    #[test]
    fn aborted_inconsistency_is_tolerated() {
        // An aborted transaction reading garbage does not violate strict
        // serializability (it does violate opacity).
        let h = HistoryBuilder::new()
            .read(P1, X, 42) // inconsistent read
            .abort_on_try_commit(P1)
            .read(P2, X, 0)
            .commit(P2)
            .build()
            .unwrap();
        assert!(is_strictly_serializable(&h));
        assert!(!is_opaque(&h));
    }

    #[test]
    fn committed_inconsistency_is_not_tolerated() {
        let h = HistoryBuilder::new()
            .read(P1, X, 42)
            .commit(P1)
            .build()
            .unwrap();
        assert!(!is_strictly_serializable(&h));
    }

    #[test]
    fn opacity_implies_strict_serializability_on_examples() {
        // Opacity is a strictly serializable safety property (§5.1).
        for h in [
            figures::figure_1(),
            HistoryBuilder::new()
                .read(P1, X, 0)
                .write_ok(P1, X, 1)
                .commit(P1)
                .read(P2, X, 1)
                .commit(P2)
                .build()
                .unwrap(),
        ] {
            if is_opaque(&h) {
                assert!(is_strictly_serializable(&h));
            }
        }
    }

    #[test]
    fn live_transactions_are_ignored() {
        // p1 still live with an inconsistent read; only p2 committed.
        let h = HistoryBuilder::new()
            .read(P1, X, 7)
            .read(P2, X, 0)
            .commit(P2)
            .build()
            .unwrap();
        assert!(is_strictly_serializable(&h));
    }
}
