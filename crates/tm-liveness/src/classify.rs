//! Process classification in infinite histories (the paper's Figure 2).
//!
//! For an infinite history `H` and process `pk`:
//!
//! * `pk` is **pending** iff `H` has only finitely many commit events `C_k`;
//! * `pk` **crashes** iff `H|pk` is a finite non-empty sequence;
//! * `pk` is **parasitic** iff `H|pk` is infinite but contains only
//!   finitely many `tryC_k` invocations and `A_k` events;
//! * `pk` is **starving** iff it does not crash, is not parasitic, and is
//!   pending;
//! * `pk` is **correct** iff it neither crashes nor is parasitic, and
//!   **faulty** otherwise;
//! * a correct `pk` **makes progress** iff it is not pending;
//! * `pk` **runs alone** iff it is correct and no other process is correct.
//!
//! On lasso histories every one of these is exactly decidable: "finitely
//! many events of kind k" holds iff the cycle contains no event of kind k.

use serde::{Deserialize, Serialize};

use tm_core::ProcessId;

use crate::lasso::InfiniteHistory;

/// The class of a process in an infinite history (Figure 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcessClass {
    /// `H|pk` is finite and non-empty.
    Crashed,
    /// `H|pk` is infinite with finitely many `tryC_k` and `A_k`.
    Parasitic,
    /// Correct (neither crashed nor parasitic) but pending.
    Starving,
    /// Correct and makes progress (commits infinitely often).
    Progressing,
    /// No events at all: the process does not participate in the history.
    Absent,
}

impl core::fmt::Display for ProcessClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ProcessClass::Crashed => "crashed",
            ProcessClass::Parasitic => "parasitic",
            ProcessClass::Starving => "starving",
            ProcessClass::Progressing => "progressing",
            ProcessClass::Absent => "absent",
        };
        f.write_str(s)
    }
}

/// Whether `process` is pending in `h`: only finitely many `C_k` events.
pub fn is_pending(h: &InfiniteHistory, process: ProcessId) -> bool {
    h.commits_per_cycle(process) == 0
}

/// Whether `process` crashes in `h`: `H|pk` finite and non-empty.
pub fn is_crashed(h: &InfiniteHistory, process: ProcessId) -> bool {
    h.participates(process) && !h.cycle_projection_nonempty(process)
}

/// Whether `process` is parasitic in `h`: `H|pk` infinite with finitely
/// many `tryC_k` invocations and `A_k` events.
pub fn is_parasitic(h: &InfiniteHistory, process: ProcessId) -> bool {
    h.cycle_projection_nonempty(process)
        && h.try_commits_per_cycle(process) == 0
        && h.aborts_per_cycle(process) == 0
}

/// Whether `process` is correct in `h`: participates, does not crash and is
/// not parasitic.
///
/// A process with no events at all is *absent* — it is outside the history
/// and neither correct nor faulty (an edge case the paper's definitions
/// leave open).
pub fn is_correct(h: &InfiniteHistory, process: ProcessId) -> bool {
    h.participates(process) && !is_crashed(h, process) && !is_parasitic(h, process)
}

/// Whether `process` is faulty in `h`: participates and is not correct.
pub fn is_faulty(h: &InfiniteHistory, process: ProcessId) -> bool {
    h.participates(process) && !is_correct(h, process)
}

/// Whether `process` is starving in `h`: correct but pending.
pub fn is_starving(h: &InfiniteHistory, process: ProcessId) -> bool {
    is_correct(h, process) && is_pending(h, process)
}

/// Whether the (correct) `process` makes progress in `h`: commits
/// infinitely often.
pub fn makes_progress(h: &InfiniteHistory, process: ProcessId) -> bool {
    is_correct(h, process) && !is_pending(h, process)
}

/// Whether `process` runs alone in `h`: it is correct and no other process
/// is correct.
pub fn runs_alone(h: &InfiniteHistory, process: ProcessId) -> bool {
    is_correct(h, process)
        && h.processes()
            .into_iter()
            .filter(|&p| p != process)
            .all(|p| !is_correct(h, p))
}

/// Classifies `process` in `h`.
pub fn classify(h: &InfiniteHistory, process: ProcessId) -> ProcessClass {
    if !h.participates(process) {
        ProcessClass::Absent
    } else if is_crashed(h, process) {
        ProcessClass::Crashed
    } else if is_parasitic(h, process) {
        ProcessClass::Parasitic
    } else if is_pending(h, process) {
        ProcessClass::Starving
    } else {
        ProcessClass::Progressing
    }
}

/// Classifies every participating process in `h`.
pub fn classify_all(h: &InfiniteHistory) -> Vec<(ProcessId, ProcessClass)> {
    h.processes()
        .into_iter()
        .map(|p| (p, classify(h, p)))
        .collect()
}

/// The correct processes of `h`.
pub fn correct_processes(h: &InfiniteHistory) -> Vec<ProcessId> {
    h.processes()
        .into_iter()
        .filter(|&p| is_correct(h, p))
        .collect()
}

/// The correct processes of `h` that make progress.
pub fn progressing_processes(h: &InfiniteHistory) -> Vec<ProcessId> {
    h.processes()
        .into_iter()
        .filter(|&p| makes_progress(h, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::{History, HistoryBuilder, TVarId};

    const P1: ProcessId = ProcessId(0);
    const P2: ProcessId = ProcessId(1);
    const X: TVarId = TVarId(0);

    /// p1 commits forever; p2 read once in the prefix then stopped.
    fn crash_lasso() -> InfiniteHistory {
        let prefix = HistoryBuilder::new().read(P2, X, 0).build().unwrap();
        let cycle = HistoryBuilder::new()
            .read(P1, X, 0)
            .commit(P1)
            .build()
            .unwrap();
        InfiniteHistory::new(prefix, cycle).unwrap()
    }

    /// p1 commits forever; p2 keeps reading without ever invoking tryC.
    fn parasitic_lasso() -> InfiniteHistory {
        let cycle = HistoryBuilder::new()
            .read(P1, X, 0)
            .commit(P1)
            .read(P2, X, 0)
            .build()
            .unwrap();
        InfiniteHistory::new(History::new(), cycle).unwrap()
    }

    /// p1 commits forever; p2 tries forever and is always aborted.
    fn starving_lasso() -> InfiniteHistory {
        let cycle = HistoryBuilder::new()
            .read(P1, X, 0)
            .commit(P1)
            .read_abort(P2, X)
            .build()
            .unwrap();
        InfiniteHistory::new(History::new(), cycle).unwrap()
    }

    #[test]
    fn crashed_process_detected() {
        let h = crash_lasso();
        assert!(is_crashed(&h, P2));
        assert!(!is_crashed(&h, P1));
        assert_eq!(classify(&h, P2), ProcessClass::Crashed);
    }

    #[test]
    fn parasitic_process_detected() {
        let h = parasitic_lasso();
        assert!(is_parasitic(&h, P2));
        assert!(!is_parasitic(&h, P1));
        assert_eq!(classify(&h, P2), ProcessClass::Parasitic);
    }

    #[test]
    fn aborts_make_a_looping_process_non_parasitic() {
        let h = starving_lasso();
        assert!(!is_parasitic(&h, P2));
        assert!(is_correct(&h, P2));
        assert!(is_starving(&h, P2));
        assert_eq!(classify(&h, P2), ProcessClass::Starving);
    }

    #[test]
    fn progressing_process_detected() {
        let h = starving_lasso();
        assert!(makes_progress(&h, P1));
        assert_eq!(classify(&h, P1), ProcessClass::Progressing);
    }

    #[test]
    fn absent_process() {
        let h = starving_lasso();
        let p9 = ProcessId(9);
        assert_eq!(classify(&h, p9), ProcessClass::Absent);
        assert!(!is_correct(&h, p9));
        assert!(!is_faulty(&h, p9));
    }

    #[test]
    fn figure_2_lattice_crashed_and_parasitic_are_faulty() {
        let hc = crash_lasso();
        assert!(is_faulty(&hc, P2));
        let hp = parasitic_lasso();
        assert!(is_faulty(&hp, P2));
    }

    #[test]
    fn figure_2_lattice_crashed_implies_pending() {
        // Figure 2: crashed → pending (a crashed process commits finitely
        // often).
        let h = crash_lasso();
        assert!(is_pending(&h, P2));
    }

    #[test]
    fn figure_2_lattice_starving_implies_pending_and_correct() {
        let h = starving_lasso();
        assert!(is_starving(&h, P2));
        assert!(is_pending(&h, P2));
        assert!(is_correct(&h, P2));
        assert!(!is_crashed(&h, P2));
        assert!(!is_parasitic(&h, P2));
    }

    #[test]
    fn figure_2_lattice_arrows_hold_over_the_figure_corpus() {
        let mut seen = Vec::new();
        for h in crate::figures::all_figures() {
            for p in h.processes() {
                seen.push(classify(&h, p));
                if is_crashed(&h, p) {
                    assert!(is_faulty(&h, p) && is_pending(&h, p), "{p}");
                    assert!(!is_parasitic(&h, p), "{p}");
                }
                if is_parasitic(&h, p) {
                    assert!(is_faulty(&h, p), "{p}");
                }
                if is_starving(&h, p) {
                    assert!(is_pending(&h, p) && is_correct(&h, p), "{p}");
                }
                if makes_progress(&h, p) {
                    assert!(is_correct(&h, p) && !is_pending(&h, p), "{p}");
                }
            }
        }
        // Every class the arrows start from occurs in the corpus.
        for class in [
            ProcessClass::Crashed,
            ProcessClass::Parasitic,
            ProcessClass::Starving,
            ProcessClass::Progressing,
        ] {
            assert!(seen.contains(&class), "{class}");
        }
    }

    #[test]
    fn runs_alone_when_other_processes_faulty() {
        let h = crash_lasso();
        assert!(runs_alone(&h, P1));
        let h = parasitic_lasso();
        assert!(runs_alone(&h, P1));
        // But not when the other process is correct:
        let h = starving_lasso();
        assert!(!runs_alone(&h, P1));
        assert!(!runs_alone(&h, P2));
    }

    #[test]
    fn classify_all_and_collectors() {
        let h = starving_lasso();
        let all = classify_all(&h);
        assert_eq!(all.len(), 2);
        assert_eq!(correct_processes(&h), vec![P1, P2]);
        assert_eq!(progressing_processes(&h), vec![P1]);
    }

    #[test]
    fn parasitic_needs_infinite_projection() {
        // A process with finitely many events and no tryC is crashed, not
        // parasitic.
        let h = crash_lasso();
        assert!(!is_parasitic(&h, P2));
    }
}
