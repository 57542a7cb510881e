//! Integration: Theorem 1 across every crate boundary.
//!
//! No TM that ensures opacity can ensure local progress in a fault-prone
//! system. Executable form: the Algorithm 1/2 adversaries starve `p1`
//! against every opaque TM in the catalogue while the history stays
//! certifiably opaque, for both the crash-flavoured and the
//! parasitic-flavoured environments, and for the n-process generalization.

use tm_adversary::{run_game, Algorithm1, Algorithm2, GameConfig, RotatingStarver, Strategy};
use tm_core::{ProcessId, TVarId};
use tm_stm::{nonblocking_catalog, Recorded};

const X: TVarId = TVarId(0);
const P1: ProcessId = ProcessId(0);
const P2: ProcessId = ProcessId(1);

/// Fresh strategy instances (strategies are stateful; every game needs its
/// own, paired with a fresh TM).
fn fresh_strategies() -> Vec<Box<dyn Strategy>> {
    vec![Box::new(Algorithm1::new(X)), Box::new(Algorithm2::new(X))]
}

#[test]
fn no_opaque_tm_survives_either_algorithm() {
    for which in 0..2 {
        for tm in nonblocking_catalog(2, 1) {
            let mut strategy = fresh_strategies().remove(which);
            let mut tm = Recorded::new(tm);
            let report = run_game(
                &mut tm,
                strategy.as_mut(),
                GameConfig::steps(10_000).check_opacity(),
            );
            assert!(
                !report.terminated,
                "{} vs {}: victim committed — opacity must have been violated",
                report.tm_name, report.strategy_name
            );
            assert_eq!(
                report.commits[0], 0,
                "{} vs {}: victim must starve",
                report.tm_name, report.strategy_name
            );
            assert!(
                report.commits[1] > 200,
                "{} vs {}: competitor must keep committing (global progress), got {}",
                report.tm_name,
                report.strategy_name,
                report.commits[1]
            );
            assert!(
                report.safety_ok,
                "{} vs {}: opacity violated: {:?}",
                report.tm_name, report.strategy_name, report.safety_violation
            );
            if which == 1 {
                // Algorithm 2's environment is crash-free: the starving
                // p1 keeps taking steps.
                let events = |p| tm.history().project(p).len();
                assert!(
                    events(P1) * 5 > events(P2),
                    "{}: p1 must stay active, {} events vs p2's {}",
                    report.tm_name,
                    events(P1),
                    events(P2)
                );
            }
        }
    }
}

#[test]
fn victim_aborts_grow_linearly_with_rounds() {
    // The starvation is *systematic*: every completed round yields an
    // abort (or silent skip) for p1, never a commit.
    for mut tm in nonblocking_catalog(2, 1) {
        let mut adversary = Algorithm1::new(X);
        let report = run_game(tm.as_mut(), &mut adversary, GameConfig::steps(20_000));
        assert!(report.rounds > 500, "{}", report.tm_name);
        assert_eq!(report.commits[P1.index()], 0, "{}", report.tm_name);
        // p1 is correct in the produced history: infinitely many aborts
        // (finite-run proxy: abort count grows with rounds).
        assert!(
            report.aborts[P1.index()] > report.rounds / 4,
            "{}: p1 aborts {} vs rounds {}",
            report.tm_name,
            report.aborts[P1.index()],
            report.rounds
        );
    }
}

#[test]
fn generalized_lemma_holds_for_up_to_eight_processes() {
    for n in 2..=8 {
        for mut tm in nonblocking_catalog(n, 1) {
            let mut strategy = RotatingStarver::new(X, n);
            let report = run_game(
                tm.as_mut(),
                &mut strategy,
                GameConfig::steps(12_000).check_strict_serializability(),
            );
            assert_eq!(report.commits[0], 0, "{} n={n}", report.tm_name);
            assert!(
                report.aborts[0] > 0,
                "{} n={n}: p1 is correct",
                report.tm_name
            );
            assert!(report.safety_ok, "{} n={n}", report.tm_name);
            let progressing = report.commits.iter().filter(|&&c| c > 0).count();
            assert_eq!(
                progressing,
                n - 1,
                "{} n={n}: all committers and only committers progress",
                report.tm_name
            );
        }
    }
}

#[test]
fn doubling_steps_doubles_competitor_commits() {
    // Starvation is not transient: p2's commits scale with the budget
    // while p1 stays at zero.
    let mut tm_short = tm_stm::Tl2::new(2, 1);
    let mut tm_long = tm_stm::Tl2::new(2, 1);
    let mut s1 = Algorithm1::new(X);
    let mut s2 = Algorithm1::new(X);
    let short = run_game(&mut tm_short, &mut s1, GameConfig::steps(5_000));
    let long = run_game(&mut tm_long, &mut s2, GameConfig::steps(10_000));
    assert_eq!(short.commits[0], 0);
    assert_eq!(long.commits[0], 0);
    let ratio = long.commits[1] as f64 / short.commits[1] as f64;
    assert!(
        (1.8..=2.2).contains(&ratio),
        "commits should scale linearly, ratio {ratio}"
    );
}

#[test]
fn adversary_cannot_win_against_sequential_specification_itself() {
    // Sanity check of the adversary: if the TM serializes perfectly (the
    // global lock under a cooperative, crash-free driver), Algorithm 1
    // simply blocks — the adversary's power comes from asynchrony, not
    // from the algorithm magically beating correct TMs.
    let mut tm = tm_stm::GlobalLock::new(2, 1);
    let mut adversary = Algorithm1::new(X);
    let report = run_game(&mut tm, &mut adversary, GameConfig::steps(5_000));
    assert_eq!(report.commits, vec![0, 0]);
    assert!(report.stalled_steps > 4_000);
}
