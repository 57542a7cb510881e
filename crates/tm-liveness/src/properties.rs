//! TM-liveness properties (paper §3).
//!
//! A TM-liveness property is a set `L` of infinite histories with
//! `L_local ⊆ L ⊆ H_TM` (Definition 1). We represent a property by its
//! membership predicate on lasso histories ([`TmLivenessProperty`]) and
//! provide the paper's three examples:
//!
//! * [`LocalProgress`] — every correct process makes progress (the TM
//!   analogue of wait-freedom; Theorem 1 proves it impossible with opacity);
//! * [`GlobalProgress`] — at least one correct process makes progress
//!   (ensured together with opacity by the `Fgp` automaton, Theorem 3);
//! * [`SoloProgress`] — every correct process that runs alone makes
//!   progress (ensured by obstruction-free TMs in parasitic-free systems).

use crate::classify::{correct_processes, makes_progress, progressing_processes, runs_alone};
use crate::lasso::InfiniteHistory;

/// A TM-liveness property, represented by its membership predicate.
///
/// Implementations must be weakenings of local progress: every history
/// satisfying [`LocalProgress`] must satisfy the property (Definition 1).
/// [`crate::meta::weakening_counterexample`] searches a corpus for
/// violations of this containment.
pub trait TmLivenessProperty {
    /// Human-readable name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Whether the infinite history belongs to the property (Definition 2).
    fn contains(&self, h: &InfiniteHistory) -> bool;
}

/// Local progress: every correct process makes progress, or the history has
/// no correct process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalProgress;

impl TmLivenessProperty for LocalProgress {
    fn name(&self) -> &'static str {
        "local progress"
    }

    fn contains(&self, h: &InfiniteHistory) -> bool {
        correct_processes(h)
            .into_iter()
            .all(|p| makes_progress(h, p))
    }
}

/// Global progress: at least one correct process makes progress, or the
/// history has no correct process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalProgress;

impl TmLivenessProperty for GlobalProgress {
    fn name(&self) -> &'static str {
        "global progress"
    }

    fn contains(&self, h: &InfiniteHistory) -> bool {
        let correct = correct_processes(h);
        correct.is_empty() || !progressing_processes(h).is_empty()
    }
}

/// Solo progress: a process that runs alone makes progress, or no process
/// runs alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoloProgress;

impl TmLivenessProperty for SoloProgress {
    fn name(&self) -> &'static str {
        "solo progress"
    }

    fn contains(&self, h: &InfiniteHistory) -> bool {
        h.processes()
            .into_iter()
            .filter(|&p| runs_alone(h, p))
            .all(|p| makes_progress(h, p))
    }
}

/// Priority progress — the property class the paper's §7 names as future
/// work ("TM-liveness properties that guarantee progress for processes
/// with higher priority"): **the highest-priority correct process makes
/// progress**, or the history has no correct process.
///
/// Priority progress is *nonblocking* (a process running alone is the
/// highest-priority correct one) but not *biprogressing* (it guarantees
/// one process), so Theorem 2 does not rule it out — yet
/// `tests/extensions.rs` shows the same indistinguishability
/// argument defeats it in any fault-prone system: a TM that shields the
/// top-priority process must block behind it when it crashes or turns
/// parasitic mid-transaction, starving the *new* top correct process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriorityProgress {
    priorities: Vec<u32>,
}

impl PriorityProgress {
    /// Creates the property for the given per-process priorities (index =
    /// process index; larger value = higher priority; ties break toward
    /// the lower process index).
    pub fn new(priorities: Vec<u32>) -> Self {
        PriorityProgress { priorities }
    }

    /// The priority of a process (processes beyond the configured list
    /// have priority 0).
    pub fn priority_of(&self, p: tm_core::ProcessId) -> u32 {
        self.priorities.get(p.index()).copied().unwrap_or(0)
    }

    /// The highest-priority correct process of `h`, if any.
    pub fn top_correct(&self, h: &InfiniteHistory) -> Option<tm_core::ProcessId> {
        correct_processes(h).into_iter().max_by(|a, b| {
            self.priority_of(*a)
                .cmp(&self.priority_of(*b))
                .then(b.index().cmp(&a.index()))
        })
    }
}

impl TmLivenessProperty for PriorityProgress {
    fn name(&self) -> &'static str {
        "priority progress"
    }

    fn contains(&self, h: &InfiniteHistory) -> bool {
        match self.top_correct(h) {
            None => true,
            Some(top) => makes_progress(h, top),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;

    #[test]
    fn figure_5_ensures_local_progress() {
        let h = figures::figure_5();
        assert!(LocalProgress.contains(&h));
        assert!(GlobalProgress.contains(&h));
        assert!(SoloProgress.contains(&h));
    }

    #[test]
    fn figure_6_ensures_global_but_not_local_progress() {
        let h = figures::figure_6();
        assert!(!LocalProgress.contains(&h));
        assert!(GlobalProgress.contains(&h));
        assert!(SoloProgress.contains(&h)); // nobody runs alone
    }

    #[test]
    fn figure_7_ensures_solo_progress() {
        let h = figures::figure_7();
        assert!(SoloProgress.contains(&h));
        // p3 is the only correct process and it progresses, so local and
        // global progress hold here too.
        assert!(LocalProgress.contains(&h));
        assert!(GlobalProgress.contains(&h));
    }

    #[test]
    fn figure_14_violates_solo_progress() {
        let h = figures::figure_14();
        assert!(!SoloProgress.contains(&h));
        assert!(!LocalProgress.contains(&h));
        assert!(!GlobalProgress.contains(&h));
    }

    #[test]
    fn local_progress_is_strongest_on_figures() {
        // Definition 1: every property contains L_local. Check the
        // implication on the figure corpus.
        let props: [&dyn TmLivenessProperty; 2] = [&GlobalProgress, &SoloProgress];
        for h in figures::all_figures() {
            if LocalProgress.contains(&h) {
                for p in props {
                    assert!(p.contains(&h), "{} must contain L_local member", p.name());
                }
            }
        }
    }

    #[test]
    fn history_without_correct_processes_satisfies_everything() {
        let h = figures::crash_only_lasso();
        assert!(LocalProgress.contains(&h));
        assert!(GlobalProgress.contains(&h));
        assert!(SoloProgress.contains(&h));
        assert!(PriorityProgress::new(vec![3, 1]).contains(&h));
    }

    #[test]
    fn priority_progress_tracks_the_top_correct_process() {
        // Figure 6: p1 progresses, p2 starves; both correct.
        let h = figures::figure_6();
        // p1 highest priority: satisfied.
        assert!(PriorityProgress::new(vec![2, 1]).contains(&h));
        // p2 highest priority: violated (the top process starves).
        assert!(!PriorityProgress::new(vec![1, 2]).contains(&h));
    }

    #[test]
    fn priority_progress_ignores_faulty_top_priority_processes() {
        // Figure 7: p1 crashed, p2 parasitic, p3 progresses. Even with the
        // highest priority on the faulty processes, the top *correct*
        // process is p3 and it progresses.
        let h = figures::figure_7();
        let p = PriorityProgress::new(vec![9, 8, 1]);
        assert_eq!(p.top_correct(&h), Some(tm_core::ProcessId(2)));
        assert!(p.contains(&h));
    }

    #[test]
    fn priority_progress_is_nonblocking_but_not_biprogressing_on_corpus() {
        use crate::meta;
        let corpus = figures::all_figures();
        let p = PriorityProgress::new(vec![1, 2, 3]);
        assert!(meta::nonblocking_counterexample(&p, &corpus).is_none());
        assert!(meta::biprogressing_counterexample(&p, &corpus).is_some());
    }

    #[test]
    fn priority_progress_contains_local_progress_on_corpus() {
        use crate::meta;
        let corpus = figures::all_figures();
        let p = PriorityProgress::new(vec![1, 2, 3]);
        assert!(meta::weakening_counterexample(&p, &corpus).is_none());
    }

    #[test]
    fn tie_break_prefers_lower_process_index() {
        let h = figures::figure_5(); // both processes progress
        let p = PriorityProgress::new(vec![1, 1]);
        assert_eq!(p.top_correct(&h), Some(tm_core::ProcessId(0)));
    }
}
