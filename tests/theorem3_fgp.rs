//! Integration: Theorem 3 — `Fgp` ensures opacity and global progress in
//! any fault-prone system.
//!
//! (a) Opacity: bounded-exhaustive model checking over all interleavings
//!     plus long random fault-injected runs with the online certifier.
//! (b) Global progress: in every windowed segment of every fault-injected
//!     run, some correct process commits.
//! (c) The literal reading of the paper's formal rules fails (a) — the
//!     documented specification bug.

use tm_automata::FgpVariant;
use tm_core::{ProcessId, TVarId};
use tm_sim::{
    explore_schedules, simulate, Client, ClientScript, FaultPlan, RandomScheduler, SimConfig,
};
use tm_stm::{BoxedTm, FgpTm};

const X: TVarId = TVarId(0);
const Y: TVarId = TVarId(1);

#[test]
fn fgp_model_checked_opaque_over_all_interleavings() {
    // Depth 12 (4096 interleavings per script set) was beyond the seed's
    // from-scratch enumerator budget; the prefix-sharing DFS makes it
    // routine.
    let script_sets: Vec<Vec<ClientScript>> = vec![
        vec![ClientScript::increment(X), ClientScript::increment(X)],
        vec![ClientScript::transfer(X, Y), ClientScript::read_both(X, Y)],
        vec![ClientScript::blind_write(X, 3), ClientScript::increment(X)],
    ];
    for variant in [FgpVariant::Strict, FgpVariant::CpOnly] {
        for scripts in &script_sets {
            let tvars = 2;
            let result = explore_schedules(
                || Box::new(FgpTm::new(scripts.len(), tvars, variant)) as BoxedTm,
                scripts,
                12,
            );
            assert_eq!(result.schedules, 1 << 12);
            assert!(
                result.all_opaque(),
                "{variant:?}: violations {:?}",
                result.violations.first()
            );
        }
    }
}

#[test]
fn fgp_model_checked_opaque_at_depth_fourteen() {
    // The deep-bound headline: every one of the 2^14 = 16384 length-14
    // interleavings of two increment clients is opaque.
    let result = explore_schedules(
        || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm,
        &[ClientScript::increment(X), ClientScript::increment(X)],
        14,
    );
    assert_eq!(result.schedules, 1 << 14);
    assert!(result.all_opaque());
}

#[test]
fn fgp_three_processes_model_checked_at_depth_ten() {
    // 3^10 = 59049 interleavings of three processes — far past the
    // seed's ≲9 guidance for three processes.
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::increment(X),
        ClientScript::read_both(X, Y),
    ];
    let result = explore_schedules(
        || Box::new(FgpTm::new(3, 2, FgpVariant::CpOnly)) as BoxedTm,
        &scripts,
        10,
    );
    assert_eq!(result.schedules, 3usize.pow(10));
    assert!(result.all_opaque());
}

#[test]
fn literal_fgp_fails_the_same_model_check() {
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::new(vec![
            tm_sim::PlannedOp::Read(X),
            tm_sim::PlannedOp::Write(X, 5),
        ]),
    ];
    let result = explore_schedules(|| tm_stm::literal_fgp(2, 1), &scripts, 10);
    assert!(
        !result.all_opaque(),
        "the literal formal rules must admit a non-opaque history"
    );
    // The counterexample is genuinely small.
    let v = &result.violations[0];
    assert!(v.history.len() <= 20);
}

#[test]
fn fgp_global_progress_under_crash_faults() {
    for variant in [FgpVariant::Strict, FgpVariant::CpOnly] {
        let n = 4;
        let mut tm = FgpTm::new(n, 2, variant);
        let mut clients: Vec<Client> = (0..n)
            .map(|_| Client::new(ClientScript::increment(X)))
            .collect();
        let faults = FaultPlan::none()
            .crash(ProcessId(1), 200)
            .parasitic(ProcessId(2), 400);
        let mut sched = RandomScheduler::new(7);
        let report = simulate(
            &mut tm,
            &mut clients,
            &mut sched,
            &faults,
            SimConfig::steps(8_000).check_opacity(),
        );
        assert!(report.safety_ok, "{variant:?}");
        // Correct processes: p1 (index 0) and p4 (index 3). Global
        // progress: in every 1000-step window one of them commits.
        let correct = [ProcessId(0), ProcessId(3)];
        assert!(
            report.global_progress_in_windows(1_000, &correct),
            "{variant:?}: some window had no correct-process commit"
        );
    }
}

#[test]
fn fgp_survives_heavy_fault_storms() {
    // 6 processes; four of them fail in various ways; the two survivors
    // keep committing.
    let n = 6;
    let mut tm = FgpTm::new(n, 3, FgpVariant::CpOnly);
    let mut clients: Vec<Client> = (0..n)
        .map(|k| {
            Client::new(if k % 2 == 0 {
                ClientScript::increment(X)
            } else {
                ClientScript::transfer(X, Y)
            })
        })
        .collect();
    let faults = FaultPlan::none()
        .crash(ProcessId(1), 100)
        .crash(ProcessId(2), 300)
        .parasitic(ProcessId(3), 500)
        .parasitic(ProcessId(4), 700);
    let mut sched = RandomScheduler::new(99);
    let report = simulate(
        &mut tm,
        &mut clients,
        &mut sched,
        &faults,
        SimConfig::steps(10_000).check_opacity(),
    );
    assert!(report.safety_ok);
    let correct = [ProcessId(0), ProcessId(5)];
    assert!(report.global_progress_in_windows(2_000, &correct));
    assert!(report.commits[0] + report.commits[5] > 100);
}

#[test]
fn figure_15_state_count_via_stepped_interface() {
    // Cross-check the Figure 15 result through the tm-automata API from
    // an integration context.
    use tm_automata::{enumerate_states, Fgp};
    for variant in [FgpVariant::Literal, FgpVariant::Strict, FgpVariant::CpOnly] {
        let graph = enumerate_states(&Fgp::new(1, 1, variant), &[0, 1], 100).unwrap();
        assert_eq!(graph.state_count(), 10);
        assert!(!graph.has_abort_edges());
    }
}
