//! Lasso detection: from finite recorded runs to infinite histories.
//!
//! The impossibility games and simulations produce *finite* histories; the
//! paper's liveness properties are defined on *infinite* ones. When a
//! recorded run becomes eventually periodic — as the adversary games do
//! once values are drawn from a finite domain — the run **is** a finite
//! unrolling of a lasso, and this module recovers it: the detected
//! `prefix · cycle^ω` is the infinite history the game would produce if
//! run forever, and every classification of [`crate::classify()`] applies to
//! it exactly. This closes the loop between executing a TM and the
//! paper's formal liveness verdicts (see
//! `every_tms_adversary_run_is_formally_a_local_progress_violation` in
//! `tests/extensions.rs`).

use tm_core::{Event, History};

use crate::lasso::{InfiniteHistory, LassoError};

/// Searches for the smallest period `p` such that the history ends with at
/// least `min_repeats` exact repetitions of a `p`-event cycle (a trailing
/// partial repetition is allowed), and returns the corresponding validated
/// lasso.
///
/// Returns `None` if no such periodic suffix exists or if the resulting
/// `(prefix, cycle)` pair is not a well-formed lasso (e.g. the period cuts
/// an invocation/response pair across the boundary in an inconsistent
/// way).
///
/// Complexity: `O(len²)` worst case; intended for test-scale histories
/// (≲ 10⁵ events).
///
/// # Examples
///
/// ```
/// use tm_core::{HistoryBuilder, ProcessId, TVarId};
/// use tm_liveness::{detect_lasso, is_starving, makes_progress};
///
/// let (p1, p2, x) = (ProcessId(0), ProcessId(1), TVarId(0));
/// let mut b = HistoryBuilder::new();
/// for _ in 0..8 {
///     b.read(p1, x, 0).commit(p1).read_abort(p2, x);
/// }
/// let h = b.build()?;
/// let lasso = detect_lasso(&h, 3).expect("periodic");
/// assert!(makes_progress(&lasso, p1));
/// assert!(is_starving(&lasso, p2));
/// # Ok::<(), tm_core::WellFormednessError>(())
/// ```
pub fn detect_lasso(history: &History, min_repeats: usize) -> Option<InfiniteHistory> {
    let events = history.events();
    let n = events.len();
    let min_repeats = min_repeats.max(1);
    if n == 0 {
        return None;
    }
    for period in 1..=n / min_repeats {
        // Largest suffix in which events[i] == events[i + period].
        let mut start = n.saturating_sub(period);
        while start > 0 && events[start - 1] == events[start - 1 + period] {
            start -= 1;
        }
        let suffix_len = n - start;
        if suffix_len < min_repeats * period {
            continue;
        }
        // Align the cycle to begin right after the prefix.
        let prefix = History::from_events_unchecked(events[..start].to_vec());
        let cycle = History::from_events_unchecked(events[start..start + period].to_vec());
        if let Ok(lasso) = InfiniteHistory::new(prefix, cycle) {
            return Some(lasso);
        }
    }
    None
}

/// Builds a validated lasso from an explorer-detected state-graph cycle:
/// `prefix` is the event sequence up to the first occurrence of the
/// repeated canonical state, `cycle` the events between its two
/// occurrences.
///
/// This is the ingestion point for model checkers that find cycles by
/// state fingerprint (`tm_sim::livecheck`) rather than by event-suffix
/// periodicity ([`detect_lasso`]): the two occurrences of the state need
/// *not* produce textually repeating events, only behaviourally
/// equivalent futures, so the suffix matcher would miss many of these
/// cycles.
///
/// # Errors
///
/// The [`LassoError`] rejection paths of [`InfiniteHistory::new`]:
/// an empty cycle, an ill-formed `prefix · cycle`, or a pending-state
/// mismatch at the cycle boundary. A cycle detected on a *sound*
/// canonical state key never trips the latter two (the fingerprint
/// contract covers pending invocations), so a rejection here is
/// evidence of a fingerprint canonicalization bug — callers surface it
/// rather than silently dropping the cycle.
pub fn lasso_from_cycle(prefix: &[Event], cycle: &[Event]) -> Result<InfiniteHistory, LassoError> {
    InfiniteHistory::new(
        History::from_events_unchecked(prefix.to_vec()),
        History::from_events_unchecked(cycle.to_vec()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, ProcessClass};
    use crate::properties::{GlobalProgress, LocalProgress, TmLivenessProperty};
    use tm_core::{HistoryBuilder, ProcessId, TVarId};

    const P1: ProcessId = ProcessId(0);
    const P2: ProcessId = ProcessId(1);
    const X: TVarId = TVarId(0);

    #[test]
    fn empty_history_has_no_lasso() {
        assert!(detect_lasso(&History::new(), 2).is_none());
    }

    #[test]
    fn aperiodic_history_has_no_lasso() {
        // Values strictly increase: no exact repetition.
        let mut b = HistoryBuilder::new();
        for v in 0..10 {
            b.read(P1, X, v).write_ok(P1, X, v + 1).commit(P1);
        }
        let h = b.build().unwrap();
        assert!(detect_lasso(&h, 2).is_none());
    }

    #[test]
    fn pure_cycle_detected_with_empty_prefix() {
        let mut b = HistoryBuilder::new();
        for _ in 0..6 {
            b.read(P1, X, 0).commit(P1);
        }
        let h = b.build().unwrap();
        let lasso = detect_lasso(&h, 3).expect("periodic");
        assert!(lasso.prefix().is_empty());
        // One transaction = 4 events: read, value, tryC, C.
        assert_eq!(lasso.cycle().len(), 4);
    }

    #[test]
    fn smallest_period_is_preferred() {
        let mut b = HistoryBuilder::new();
        for _ in 0..8 {
            b.read(P1, X, 0).commit(P1);
        }
        let h = b.build().unwrap();
        let lasso = detect_lasso(&h, 2).expect("periodic");
        assert_eq!(lasso.cycle().len(), 4);
    }

    #[test]
    fn prefix_plus_cycle_detected() {
        let mut b = HistoryBuilder::new();
        // Aperiodic prefix: one committed write of a unique value.
        b.write_ok(P1, X, 42).commit(P1);
        for _ in 0..5 {
            b.read(P1, X, 42).commit(P1).read_abort(P2, X);
        }
        let h = b.build().unwrap();
        let lasso = detect_lasso(&h, 3).expect("periodic");
        assert!(lasso.prefix().len() >= 4);
        assert_eq!(classify(&lasso, P1), ProcessClass::Progressing);
        assert_eq!(classify(&lasso, P2), ProcessClass::Starving);
    }

    #[test]
    fn trailing_partial_repetition_is_tolerated() {
        let mut b = HistoryBuilder::new();
        for _ in 0..5 {
            b.read(P1, X, 0).commit(P1);
        }
        b.read(P1, X, 0); // half a transaction
        let h = b.build().unwrap();
        let lasso = detect_lasso(&h, 2).expect("periodic with partial tail");
        assert_eq!(lasso.cycle().len(), 4);
    }

    #[test]
    fn detected_lasso_supports_property_verdicts() {
        // The Figure 6 pattern unrolled 6 times: detection recovers a lasso
        // on which global-but-not-local progress is decidable.
        let mut b = HistoryBuilder::new();
        for _ in 0..6 {
            b.read(P1, X, 0)
                .write_ok(P1, X, 1)
                .commit(P1)
                .read(P2, X, 1)
                .write_ok(P2, X, 0)
                .abort_on_try_commit(P2)
                .read(P1, X, 1)
                .write_ok(P1, X, 0)
                .commit(P1)
                .read(P2, X, 0)
                .write_ok(P2, X, 1)
                .abort_on_try_commit(P2);
        }
        let h = b.build().unwrap();
        let lasso = detect_lasso(&h, 3).expect("periodic");
        assert!(GlobalProgress.contains(&lasso));
        assert!(!LocalProgress.contains(&lasso));
    }

    #[test]
    fn min_repeats_is_respected() {
        let mut b = HistoryBuilder::new();
        for _ in 0..3 {
            b.read(P1, X, 0).commit(P1);
        }
        let h = b.build().unwrap();
        assert!(detect_lasso(&h, 3).is_some());
        assert!(detect_lasso(&h, 4).is_none());
    }

    #[test]
    fn min_repeats_zero_is_clamped_to_one() {
        // 0 would make "ends with 0 repetitions" vacuously true for any
        // period; the clamp makes it behave exactly like 1.
        let mut b = HistoryBuilder::new();
        for _ in 0..2 {
            b.read(P1, X, 0).commit(P1);
        }
        let h = b.build().unwrap();
        let zero = detect_lasso(&h, 0).expect("clamped to 1");
        let one = detect_lasso(&h, 1).expect("one repetition suffices");
        assert_eq!(zero, one);
        assert!(detect_lasso(&History::new(), 0).is_none());
    }

    #[test]
    fn min_repeats_one_accepts_a_single_occurrence() {
        // One committed transaction, no textual repetition: with
        // min_repeats 1 a single occurrence counts, and the smallest
        // *valid* period wins — the trailing `tryC·C` pair (an empty
        // transaction committing forever), not the full transaction.
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .commit(P1)
            .build()
            .unwrap();
        let lasso = detect_lasso(&h, 1).expect("single occurrence");
        assert_eq!(lasso.prefix().len(), 2);
        assert_eq!(lasso.cycle().len(), 2);
        assert_eq!(lasso.commits_per_cycle(P1), 1);
        assert_eq!(classify(&lasso, P1), ProcessClass::Progressing);
        // With min_repeats 2 the same history is aperiodic.
        assert!(detect_lasso(&h, 2).is_none());
    }

    #[test]
    fn crash_only_cycle_is_recovered_from_its_unrolling() {
        // crash_only_lasso: p1 reads once (prefix), p2 reads forever
        // without ever invoking tryC — the cycle contains only the
        // "crash-adjacent" faulty behaviours (p1 crashed, p2 parasitic).
        let reference = crate::figures::crash_only_lasso();
        let unrolled = reference.unroll(5);
        let detected = detect_lasso(&unrolled, 3).expect("periodic");
        assert_eq!(detected.cycle(), reference.cycle());
        assert_eq!(classify(&detected, P1), ProcessClass::Crashed);
        assert_eq!(classify(&detected, P2), ProcessClass::Parasitic);
        // All participants faulty: every TM-liveness property holds
        // vacuously on the recovered lasso, as on the reference.
        assert!(LocalProgress.contains(&detected));
        assert!(GlobalProgress.contains(&detected));
    }

    #[test]
    fn lasso_from_cycle_builds_explorer_cycles() {
        let reference = crate::figures::figure_6();
        let prefix = reference.prefix().events();
        let cycle = reference.cycle().events();
        let rebuilt = lasso_from_cycle(prefix, cycle).expect("valid cycle");
        assert_eq!(&rebuilt, &reference);
    }

    #[test]
    fn lasso_from_cycle_propagates_rejections() {
        use crate::lasso::LassoError;
        use tm_core::Event;
        // Empty cycle.
        assert_eq!(lasso_from_cycle(&[], &[]), Err(LassoError::EmptyCycle));
        // A cycle that stacks pending invocations at the boundary.
        let cycle = [Event::read(P1, X)];
        assert!(matches!(
            lasso_from_cycle(&[], &cycle),
            Err(LassoError::InconsistentCycle { .. })
        ));
    }
}
