//! The paper's infinite-history figures as lasso histories.
//!
//! Values: the paper's adversary histories increment t-variable values
//! forever (`w(v+1)`), which is not eventually periodic; the lasso versions
//! below use the binary domain (`w(1-v)`), which preserves every
//! classification and every legality argument (what matters is only that
//! the written value differs from the value read). Where a figure depicts
//! responses no opaque TM could give (e.g. Figure 14's aborting reader
//! observing never-committed values), we substitute the nearest consistent
//! responses — liveness classification depends only on event *kinds*, never
//! on values.

use tm_core::{History, HistoryBuilder, ProcessId, TVarId};

use crate::lasso::InfiniteHistory;

const P1: ProcessId = ProcessId(0);
const P2: ProcessId = ProcessId(1);
const P3: ProcessId = ProcessId(2);
const X: TVarId = TVarId(0);

/// Figure 5: two processes, one t-variable; **both** processes commit
/// infinitely often (each also suffers an abort per round). Ensures local
/// progress — and therefore every TM-liveness property.
pub fn figure_5() -> InfiniteHistory {
    let cycle = HistoryBuilder::new()
        // p1 commits: x 0 → 1.
        .read(P1, X, 0)
        .write_ok(P1, X, 1)
        .commit(P1)
        // p2's first attempt aborts.
        .read(P2, X, 1)
        .write_ok(P2, X, 0)
        .abort_on_try_commit(P2)
        // p2 commits: x 1 → 0.
        .read(P2, X, 1)
        .write_ok(P2, X, 0)
        .commit(P2)
        // p1's second attempt aborts.
        .read(P1, X, 0)
        .write_ok(P1, X, 1)
        .abort_on_try_commit(P1)
        .build()
        .expect("figure 5 cycle is well-formed");
    InfiniteHistory::new(History::new(), cycle).expect("figure 5 lasso is valid")
}

/// Figure 6: two correct processes; only `p1` makes progress while `p2` is
/// aborted forever (starving). Ensures global progress but not local
/// progress.
pub fn figure_6() -> InfiniteHistory {
    let cycle = HistoryBuilder::new()
        .read(P1, X, 0)
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
        .abort_on_try_commit(P2)
        .build()
        .expect("figure 6 cycle is well-formed");
    InfiniteHistory::new(History::new(), cycle).expect("figure 6 lasso is valid")
}

/// Figure 7: `p1` crashes after one read; `p2` commits once and then turns
/// parasitic (an endless transaction of reads and writes, never invoking
/// `tryC`); `p3` runs alone and commits infinitely often. Ensures solo
/// progress.
pub fn figure_7() -> InfiniteHistory {
    let prefix = HistoryBuilder::new()
        .read(P1, X, 0) // p1 then crashes
        .write_ok(P2, X, 1)
        .commit(P2) // p2's first transaction commits: x = 1
        .build()
        .expect("figure 7 prefix is well-formed");
    let cycle = HistoryBuilder::new()
        // p2, parasitic: endless transaction (own-write shadowed reads).
        .read(P2, X, 1)
        .write_ok(P2, X, 0)
        // p3 commits: x 1 → 0.
        .read(P3, X, 1)
        .write_ok(P3, X, 0)
        .commit(P3)
        .read(P2, X, 0)
        .write_ok(P2, X, 1)
        // p3 commits: x 0 → 1.
        .read(P3, X, 0)
        .write_ok(P3, X, 1)
        .commit(P3)
        .build()
        .expect("figure 7 cycle is well-formed");
    InfiniteHistory::new(prefix, cycle).expect("figure 7 lasso is valid")
}

/// Figure 14: like Figure 7, but `p3`'s transactions are all aborted: the
/// sole correct process runs alone yet starves. Violates solo progress —
/// and hence every nonblocking TM-liveness property.
pub fn figure_14() -> InfiniteHistory {
    let prefix = HistoryBuilder::new()
        .read(P1, X, 0) // p1 then crashes
        .write_ok(P2, X, 1)
        .commit(P2) // x = 1
        .build()
        .expect("figure 14 prefix is well-formed");
    let cycle = HistoryBuilder::new()
        // p2, parasitic.
        .read(P2, X, 1)
        .write_ok(P2, X, 0)
        // p3 aborted (committed state stays x = 1).
        .read(P3, X, 1)
        .write_ok(P3, X, 0)
        .abort_on_try_commit(P3)
        .read(P2, X, 0)
        .write_ok(P2, X, 1)
        .read(P3, X, 1)
        .write_ok(P3, X, 0)
        .abort_on_try_commit(P3)
        .build()
        .expect("figure 14 cycle is well-formed");
    InfiniteHistory::new(prefix, cycle).expect("figure 14 lasso is valid")
}

/// Figure 9 (and Figure 12's shape): the Algorithm 1 outcome in which `p1`
/// crashes after its first read and the (hypothetical local-progress) TM
/// keeps aborting `p2` forever. `p2` is correct, runs alone and starves:
/// local progress is violated.
pub fn figure_9() -> InfiniteHistory {
    let prefix = HistoryBuilder::new().read(P1, X, 0).build().unwrap();
    let cycle = HistoryBuilder::new().read_abort(P2, X).build().unwrap();
    InfiniteHistory::new(prefix, cycle).expect("figure 9 lasso is valid")
}

/// Figure 10 (and Figure 13's shape): the Algorithm 1/2 outcome in which
/// `p1` does not crash: `p2` commits every round while `p1` is aborted
/// every round. `p1` starves: local progress is violated (global progress
/// holds). Binary-domain rendering of the paper's incrementing values.
pub fn figure_10() -> InfiniteHistory {
    let cycle = HistoryBuilder::new()
        // Round with v = 0.
        .read(P1, X, 0)
        .read(P2, X, 0)
        .write_ok(P2, X, 1)
        .commit(P2)
        .write_abort(P1, X, 1)
        // Round with v = 1.
        .read(P1, X, 1)
        .read(P2, X, 1)
        .write_ok(P2, X, 0)
        .commit(P2)
        .write_abort(P1, X, 0)
        .build()
        .expect("figure 10 cycle is well-formed");
    InfiniteHistory::new(History::new(), cycle).expect("figure 10 lasso is valid")
}

/// Figure 12: the Algorithm 2 outcome in which `p1` turns parasitic
/// (reading forever, never invoking `tryC`) and the TM keeps aborting `p2`.
/// `p2` is correct, runs alone and starves.
pub fn figure_12() -> InfiniteHistory {
    let cycle = HistoryBuilder::new()
        .read(P1, X, 0)
        .read_abort(P2, X)
        .build()
        .unwrap();
    InfiniteHistory::new(History::new(), cycle).expect("figure 12 lasso is valid")
}

/// Figure 13: the Algorithm 2 outcome in which `p1` is not parasitic —
/// same classification as [`figure_10`].
pub fn figure_13() -> InfiniteHistory {
    figure_10()
}

/// A history whose participants are all faulty (`p1` crashes, `p2` is
/// parasitic): every TM-liveness property holds vacuously.
pub fn crash_only_lasso() -> InfiniteHistory {
    let prefix = HistoryBuilder::new().read(P1, X, 0).build().unwrap();
    let cycle = HistoryBuilder::new().read(P2, X, 0).build().unwrap();
    InfiniteHistory::new(prefix, cycle).expect("crash-only lasso is valid")
}

/// All infinite-history figures, for corpus-style tests.
pub fn all_figures() -> Vec<InfiniteHistory> {
    vec![
        figure_5(),
        figure_6(),
        figure_7(),
        figure_9(),
        figure_10(),
        figure_12(),
        figure_13(),
        figure_14(),
        crash_only_lasso(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, ProcessClass};

    #[test]
    fn figure_5_both_processes_progress() {
        let h = figure_5();
        assert_eq!(classify(&h, P1), ProcessClass::Progressing);
        assert_eq!(classify(&h, P2), ProcessClass::Progressing);
    }

    #[test]
    fn figure_6_p2_starves() {
        let h = figure_6();
        assert_eq!(classify(&h, P1), ProcessClass::Progressing);
        assert_eq!(classify(&h, P2), ProcessClass::Starving);
    }

    #[test]
    fn figure_7_classes_match_caption() {
        let h = figure_7();
        assert_eq!(classify(&h, P1), ProcessClass::Crashed);
        assert_eq!(classify(&h, P2), ProcessClass::Parasitic);
        assert_eq!(classify(&h, P3), ProcessClass::Progressing);
        assert!(crate::classify::runs_alone(&h, P3));
    }

    #[test]
    fn figure_14_p3_starves_while_running_alone() {
        let h = figure_14();
        assert_eq!(classify(&h, P1), ProcessClass::Crashed);
        assert_eq!(classify(&h, P2), ProcessClass::Parasitic);
        assert_eq!(classify(&h, P3), ProcessClass::Starving);
        assert!(crate::classify::runs_alone(&h, P3));
    }

    #[test]
    fn figure_9_p2_starves_alone() {
        let h = figure_9();
        assert_eq!(classify(&h, P1), ProcessClass::Crashed);
        assert_eq!(classify(&h, P2), ProcessClass::Starving);
    }

    #[test]
    fn figure_10_p1_starves_p2_progresses() {
        let h = figure_10();
        assert_eq!(classify(&h, P1), ProcessClass::Starving);
        assert_eq!(classify(&h, P2), ProcessClass::Progressing);
    }

    #[test]
    fn figure_12_p1_parasitic_p2_starves() {
        let h = figure_12();
        assert_eq!(classify(&h, P1), ProcessClass::Parasitic);
        assert_eq!(classify(&h, P2), ProcessClass::Starving);
    }

    #[test]
    fn all_figures_are_valid_lassos() {
        // Construction already validates; additionally unroll and check
        // well-formedness of a deep prefix.
        for h in all_figures() {
            let u = h.unroll(5);
            assert!(u.is_well_formed());
        }
    }

    #[test]
    fn figure_unrollings_are_opaque_where_expected() {
        // Figures 5, 6, 7, 9, 10, 14 as constructed use consistent values,
        // so their finite unrollings are opaque (checked via the fast
        // commit-order certifier, falling back to the exact checker).
        for (name, h) in [
            ("fig5", figure_5()),
            ("fig6", figure_6()),
            ("fig7", figure_7()),
            ("fig9", figure_9()),
            ("fig10", figure_10()),
            ("fig14", figure_14()),
        ] {
            assert!(
                tm_safety::check_opacity_auto(&h.unroll(4)).holds(),
                "{name} unrolling not opaque"
            );
        }
    }
}
