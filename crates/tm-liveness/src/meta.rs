//! Meta-classification of TM-liveness properties (paper §5.1).
//!
//! Theorem 2 quantifies over classes of TM-liveness properties:
//!
//! * a property `L` is **nonblocking** iff every `H ∈ L` satisfies: if some
//!   process runs alone in `H`, that process makes progress (Definition 4);
//! * a property `L` is **biprogressing** iff every `H ∈ L` satisfies: if at
//!   least two processes are correct, at least two make progress
//!   (Definition 5).
//!
//! Properties are sets (usually infinite), so the class memberships are
//! `∀`-statements; this module provides the per-history *conditions* (which
//! are decidable on lassos) and corpus-level checkers that refute or
//! support a class membership on any finite corpus of histories.

use crate::classify::{correct_processes, makes_progress, progressing_processes, runs_alone};
use crate::lasso::InfiniteHistory;
use crate::properties::{LocalProgress, TmLivenessProperty};

/// The per-history condition of Definition 4: if some process runs alone
/// in `h`, it makes progress.
pub fn satisfies_nonblocking_condition(h: &InfiniteHistory) -> bool {
    h.processes()
        .into_iter()
        .filter(|&p| runs_alone(h, p))
        .all(|p| makes_progress(h, p))
}

/// The per-history condition of Definition 5: if at least two processes
/// are correct in `h`, at least two make progress.
pub fn satisfies_biprogressing_condition(h: &InfiniteHistory) -> bool {
    correct_processes(h).len() < 2 || progressing_processes(h).len() >= 2
}

/// Searches `corpus` for a counterexample to "`property` is nonblocking":
/// a history in the property that violates the nonblocking condition.
/// Returns the first counterexample, or `None` if the corpus supports the
/// class membership.
pub fn nonblocking_counterexample<'a, P: TmLivenessProperty + ?Sized>(
    property: &P,
    corpus: &'a [InfiniteHistory],
) -> Option<&'a InfiniteHistory> {
    corpus
        .iter()
        .find(|h| property.contains(h) && !satisfies_nonblocking_condition(h))
}

/// Searches `corpus` for a counterexample to "`property` is biprogressing".
pub fn biprogressing_counterexample<'a, P: TmLivenessProperty + ?Sized>(
    property: &P,
    corpus: &'a [InfiniteHistory],
) -> Option<&'a InfiniteHistory> {
    corpus
        .iter()
        .find(|h| property.contains(h) && !satisfies_biprogressing_condition(h))
}

/// Checks Definition 1's lower bound on `corpus`: every history satisfying
/// local progress must satisfy `property` (`L_local ⊆ L`). Returns the
/// first violation.
pub fn weakening_counterexample<'a, P: TmLivenessProperty + ?Sized>(
    property: &P,
    corpus: &'a [InfiniteHistory],
) -> Option<&'a InfiniteHistory> {
    corpus
        .iter()
        .find(|h| LocalProgress.contains(h) && !property.contains(h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;
    use crate::properties::{GlobalProgress, SoloProgress};

    #[test]
    fn figure_conditions_match_paper_claims() {
        // "Figure 5, Figure 6, and Figure 7 show infinite histories which
        // ensure nonblocking TM-liveness properties while Figure 14 shows
        // an infinite history which does not ensure any nonblocking
        // TM-liveness property."
        assert!(satisfies_nonblocking_condition(&figures::figure_5()));
        assert!(satisfies_nonblocking_condition(&figures::figure_6()));
        assert!(satisfies_nonblocking_condition(&figures::figure_7()));
        assert!(!satisfies_nonblocking_condition(&figures::figure_14()));

        // "Figure 5 and Figure 7 show infinite histories which ensure a
        // biprogressing property while Figure 6 shows an infinite history
        // which does not ensure any biprogressing property."
        assert!(satisfies_biprogressing_condition(&figures::figure_5()));
        assert!(satisfies_biprogressing_condition(&figures::figure_7()));
        assert!(!satisfies_biprogressing_condition(&figures::figure_6()));
        // Figure 14 meets the biprogressing condition but not the
        // nonblocking one (§5.1's table).
        assert!(satisfies_biprogressing_condition(&figures::figure_14()));
    }

    #[test]
    fn local_progress_is_nonblocking_and_biprogressing_on_corpus() {
        let corpus = figures::all_figures();
        assert!(nonblocking_counterexample(&LocalProgress, &corpus).is_none());
        assert!(biprogressing_counterexample(&LocalProgress, &corpus).is_none());
    }

    #[test]
    fn global_progress_is_not_biprogressing() {
        // Figure 6 ∈ L_global but violates the biprogressing condition.
        let corpus = figures::all_figures();
        let cex = biprogressing_counterexample(&GlobalProgress, &corpus);
        assert!(cex.is_some());
    }

    #[test]
    fn solo_progress_is_nonblocking_but_not_biprogressing() {
        let corpus = figures::all_figures();
        assert!(nonblocking_counterexample(&SoloProgress, &corpus).is_none());
        assert!(biprogressing_counterexample(&SoloProgress, &corpus).is_some());
    }

    #[test]
    fn global_progress_is_blocking_on_adversary_outcomes() {
        // Figure 9's outcome (p2 runs alone and starves) is NOT in
        // L_global — a global-progress TM never produces it. Verify the
        // condition detects the blocking shape.
        assert!(!satisfies_nonblocking_condition(&figures::figure_9()));
        assert!(!GlobalProgress.contains(&figures::figure_9()));
    }

    #[test]
    fn all_example_properties_contain_local_progress_on_corpus() {
        let corpus = figures::all_figures();
        assert!(weakening_counterexample(&GlobalProgress, &corpus).is_none());
        assert!(weakening_counterexample(&SoloProgress, &corpus).is_none());
        assert!(weakening_counterexample(&LocalProgress, &corpus).is_none());
    }
}
