//! Integration: the extension features — lasso detection bridging executed
//! games to formal liveness verdicts, and the §7 priority-progress
//! exploration.

use tm_adversary::{run_game, Algorithm1, Algorithm2, GameConfig, Strategy};
use tm_automata::FgpVariant;
use tm_core::{Invocation, ProcessId, Response, TVarId};
use tm_liveness::{
    classify, detect_lasso, GlobalProgress, LocalProgress, PriorityProgress, ProcessClass,
    SoloProgress, TmLivenessProperty,
};
use tm_safety::{IncrementalChecker, Mode};
use tm_sim::{simulate, Client, ClientScript, FaultPlan, SimConfig, WeightedScheduler};
use tm_stm::{nonblocking_catalog, FgpTm, PriorityFgp, Recorded, SteppedTm};

const P1: ProcessId = ProcessId(0);
const P2: ProcessId = ProcessId(1);
const X: TVarId = TVarId(0);

#[test]
fn every_tms_adversary_run_is_formally_a_local_progress_violation() {
    // Theorem 1 closed mechanically: execute, detect the lasso, classify.
    for which in 0..2 {
        for tm in nonblocking_catalog(2, 1) {
            let mut strategy: Box<dyn Strategy> = if which == 0 {
                Box::new(Algorithm1::binary(X))
            } else {
                Box::new(Algorithm2::binary(X))
            };
            let mut recorded = Recorded::new(tm);
            let _ = run_game(&mut recorded, strategy.as_mut(), GameConfig::steps(6_000));
            let name = recorded.name().to_string();
            let lasso = detect_lasso(recorded.history(), 3)
                .unwrap_or_else(|| panic!("{name}: binary run must be periodic"));
            assert_eq!(classify(&lasso, P1), ProcessClass::Starving, "{name}");
            assert_eq!(classify(&lasso, P2), ProcessClass::Progressing, "{name}");
            assert!(!LocalProgress.contains(&lasso), "{name}");
            assert!(GlobalProgress.contains(&lasso), "{name}");
            assert!(SoloProgress.contains(&lasso), "{name}");
        }
    }
}

#[test]
fn priority_shield_defeats_algorithm_1_without_faults() {
    // On PriorityFgp with p1 on top, Algorithm 1's Step-2 loop never
    // completes while p1 is mid-transaction: p2 is the one starving, and
    // since p1 (the adversary's victim!) never reaches its own tryC in
    // Step 3, the adversary makes no rounds at all.
    let mut tm = PriorityFgp::new(vec![2, 1], 1);
    let mut adversary = Algorithm1::binary(X);
    let report = run_game(&mut tm, &mut adversary, GameConfig::steps(6_000));
    assert_eq!(report.rounds, 0, "p2 can never commit over the shield");
    assert_eq!(report.commits[1], 0);
    assert!(
        report.aborts[1] > 500,
        "p2 keeps aborting against the shield"
    );
}

/// Algorithm 1's opening, repeated: p1 reads x, p2 retries a conflicting
/// read-write-commit until it commits or the TM refuses its commit, then
/// p1 tries to finish. Returns (p1 commits, p2 commits).
fn algorithm_1_openings(tm: &mut impl SteppedTm, rounds: usize) -> (usize, usize) {
    let mut resp = |p, inv| tm.invoke(p, inv).response().expect("never blocks");
    let mut commits = (0, 0);
    for _ in 0..rounds {
        let seen = resp(P1, Invocation::Read(X));
        loop {
            let Response::Value(v) = resp(P2, Invocation::Read(X)) else {
                continue;
            };
            if resp(P2, Invocation::Write(X, v ^ 1)) != Response::Ok {
                continue;
            }
            if resp(P2, Invocation::TryCommit) == Response::Committed {
                commits.1 += 1;
            }
            // Committed, or the shield refused p2: p1's turn.
            break;
        }
        if let Response::Value(v) = seen {
            if resp(P1, Invocation::Write(X, v ^ 1)) == Response::Ok
                && resp(P1, Invocation::TryCommit) == Response::Committed
            {
                commits.0 += 1;
            }
        }
    }
    commits
}

#[test]
fn priority_shield_lets_p1_commit_where_plain_fgp_starves_it() {
    // §7's priority progress, fault-free: the opening that starves p1 on
    // plain Fgp lets it commit every round on PriorityFgp, opaquely.
    let rounds = 500;
    let mut plain = FgpTm::new(2, 1, FgpVariant::CpOnly);
    assert_eq!(algorithm_1_openings(&mut plain, rounds), (0, rounds));
    let mut shielded = Recorded::new(PriorityFgp::new(vec![2, 1], 1));
    assert_eq!(algorithm_1_openings(&mut shielded, rounds), (rounds, 0));
    let mut checker = IncrementalChecker::new(Mode::Opacity);
    assert!(checker.push_all(shielded.history().iter().copied()).is_ok());

    // p2 takes 50 steps for each of p1's, and p1 still commits.
    let mut clients = vec![
        Client::new(ClientScript::increment(X)),
        Client::new(ClientScript::increment(X)),
    ];
    let report = simulate(
        &mut PriorityFgp::new(vec![2, 1], 1),
        &mut clients,
        &mut WeightedScheduler::new(vec![1, 50], 0xC0FFEE),
        &FaultPlan::none(),
        SimConfig::steps(50_000).check_opacity(),
    );
    assert!(report.safety_ok, "{:?}", report.safety_violation);
    assert!(report.commits[0] > 100, "p1 commits {:?}", report.commits);
}

#[test]
fn priority_progress_verdicts_on_detected_lassos() {
    // Fault-free: a run where p1 (top priority) commits infinitely often.
    let mut tm = Recorded::new(PriorityFgp::new(vec![2, 1], 1));
    for _ in 0..50 {
        // p1 transaction.
        tm.invoke(P1, Invocation::Read(X));
        tm.invoke(P1, Invocation::TryCommit);
        // p2 transaction (between p1's transactions: commits fine).
        tm.invoke(P2, Invocation::Read(X));
        tm.invoke(P2, Invocation::TryCommit);
    }
    let lasso = detect_lasso(tm.history(), 3).expect("periodic");
    let prio = PriorityProgress::new(vec![2, 1]);
    assert!(prio.contains(&lasso));
    assert!(LocalProgress.contains(&lasso)); // here everyone progresses

    // Fault-prone: the crashed shield-holder starves the new top correct
    // process — priority progress fails.
    let mut tm = Recorded::new(PriorityFgp::new(vec![2, 1], 1));
    tm.invoke(P1, Invocation::Read(X)); // p1 crashes mid-transaction
    for _ in 0..50 {
        tm.invoke(P2, Invocation::Write(X, 1));
        let refused = tm.invoke(P2, Invocation::TryCommit).response();
        assert_eq!(refused, Some(Response::Aborted), "the shield blocks p2");
    }
    let lasso = detect_lasso(tm.history(), 3).expect("periodic");
    assert_eq!(classify(&lasso, P1), ProcessClass::Crashed);
    assert_eq!(classify(&lasso, P2), ProcessClass::Starving);
    assert!(!prio.contains(&lasso));
}

#[test]
fn swisstm_participates_in_all_adversary_games() {
    // The greedy-CM TM joined the catalogue; confirm it is among the TMs
    // exercised and behaves like the others under Algorithm 1.
    let names: Vec<String> = nonblocking_catalog(2, 1)
        .iter()
        .map(|t| t.name().to_string())
        .collect();
    assert!(names.contains(&"swisstm".to_string()));
    let mut tm = tm_stm::SwissTm::new(2, 1);
    let mut adversary = Algorithm1::new(X);
    let report = run_game(
        &mut tm,
        &mut adversary,
        GameConfig::steps(6_000).check_opacity(),
    );
    assert_eq!(report.commits[0], 0);
    assert!(report.commits[1] > 500);
    assert!(report.safety_ok);
}
