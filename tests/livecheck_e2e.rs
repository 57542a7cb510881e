//! End-to-end suite for the liveness model checker: explore the canonical
//! state graph, detect lassos, classify them with the paper's Figure 2
//! taxonomy, and cross-check the concrete witnesses against the certified
//! SCC verdicts — across the fingerprinting catalogue.

use tm_automata::FgpVariant;
use tm_core::{ProcessId, TVarId};
use tm_liveness::{GlobalProgress, LocalProgress, ProcessClass, TmLivenessProperty};
use tm_sim::{
    livecheck, livecheck_reference, simulate, Client, ClientScript, DigestCheck, FaultConfig,
    FaultPlan, FixedSchedule, LassoFinding, LivecheckConfig, LivecheckReport, PlannedOp, SimConfig,
};
use tm_stm::{
    full_catalog, BoxedTm, Dstm, FgpTm, GlobalLock, NOrec, Ostm, SteppedTm, SwissTm, TinyStm, Tl2,
};

const X: TVarId = TVarId(0);
const P1: ProcessId = ProcessId(0);
const P2: ProcessId = ProcessId(1);

type Factory = Box<dyn Fn() -> BoxedTm>;

/// Constant-write contention: the value domain is finite, so the
/// canonical state graph is finite and cycles exist.
fn contended() -> Vec<ClientScript> {
    vec![
        ClientScript::new(vec![PlannedOp::Write(X, 1)]),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
    ]
}

fn fingerprinting_catalog() -> Vec<(&'static str, Factory)> {
    vec![
        (
            "fgp",
            Box::new(|| Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm) as Factory,
        ),
        (
            "fgp-strict",
            Box::new(|| Box::new(FgpTm::new(2, 1, FgpVariant::Strict)) as BoxedTm),
        ),
        ("tl2", Box::new(|| Box::new(Tl2::new(2, 1)) as BoxedTm)),
        ("norec", Box::new(|| Box::new(NOrec::new(2, 1)) as BoxedTm)),
        (
            "tinystm",
            Box::new(|| Box::new(TinyStm::new(2, 1)) as BoxedTm),
        ),
        (
            "swisstm",
            Box::new(|| Box::new(SwissTm::new(2, 1)) as BoxedTm),
        ),
        ("ostm", Box::new(|| Box::new(Ostm::new(2, 1)) as BoxedTm)),
        ("dstm", Box::new(|| Box::new(Dstm::new(2, 1)) as BoxedTm)),
        (
            "global-lock",
            Box::new(|| Box::new(GlobalLock::new(2, 1)) as BoxedTm),
        ),
    ]
}

#[test]
fn every_catalog_tm_fingerprints_deterministically() {
    for (name, factory) in fingerprinting_catalog() {
        let tm = factory();
        let d0 = tm
            .state_digest()
            .unwrap_or_else(|| panic!("{name}: no fingerprint"));
        // Digests are pure functions of state: a fork digests equally,
        // and a re-created instance digests equally.
        assert_eq!(tm.fork().state_digest(), Some(d0), "{name}: fork digest");
        assert_eq!(factory().state_digest(), Some(d0), "{name}: fresh digest");
        // Stepping changes the digest (reads mutate transaction state).
        let mut stepped = factory();
        stepped.invoke(P1, tm_core::Invocation::Read(X));
        assert_ne!(stepped.state_digest(), Some(d0), "{name}: step digest");
    }
}

#[test]
fn canonicalization_is_sound_across_the_catalog() {
    // Every detected cycle must validate as an InfiniteHistory: a
    // rejection means a fingerprint merged two states with different
    // pending structure — a canonicalization bug.
    for (name, factory) in fingerprinting_catalog() {
        let report = livecheck(&*factory, &contended(), &LivecheckConfig::new(10));
        assert_eq!(report.rejected_cycles, 0, "{name}: {report:?}");
        assert!(report.states > 0 && report.edges > 0, "{name}");
        // The bounded workload must recur: the search collapses well
        // below the 2^10 schedule tree.
        assert!(
            report.steps < 1 << 10,
            "{name}: no DAG collapse ({} steps)",
            report.steps
        );
    }
}

#[test]
fn contended_fgp_yields_a_starvation_lasso_matching_the_paper_taxonomy() {
    // The acceptance scenario: greedy Fgp under constant-write contention
    // admits a schedule on which p1 commits forever while p2 aborts
    // forever — a starving lasso in the Figures 5-7 taxonomy (global
    // progress holds, local progress fails).
    let report = livecheck(
        || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
        &contended(),
        &LivecheckConfig::new(12),
    );
    assert!(report.starving_processes().contains(&P2), "{report:?}");
    let witness = report
        .lassos
        .iter()
        .find(|l| l.starving().contains(&P2) && l.progressing().contains(&P1))
        .expect("a concrete starving lasso witness");
    assert!(GlobalProgress.contains(&witness.lasso));
    assert!(!LocalProgress.contains(&witness.lasso));
    assert!(!witness.schedule_cycle.is_empty());
    // Fgp ensures global progress: some process must also be certified
    // able to progress forever.
    assert!(!report.progressing_processes().is_empty());
}

#[test]
fn global_lock_certified_starvation_free_but_blocking() {
    let report = livecheck(
        || Box::new(GlobalLock::new(2, 1)),
        &contended(),
        &LivecheckConfig::new(12),
    );
    // §1.1: the lock TM never aborts anyone — starvation-free at the
    // bound — but a crashed holder blocks the other process forever.
    assert!(report.lasso_starvation_free(), "{report:?}");
    assert_eq!(report.starving_processes(), vec![]);
    assert_eq!(report.parasitic_processes(), vec![]);
    assert_eq!(report.blocked_processes(), vec![P1, P2]);
    // Blocked cycles are eventless, so they stay verdict-only: every
    // lasso witnesses a progressing verdict.
    assert!(report
        .lassos
        .iter()
        .all(|l| l.witnesses.1 == ProcessClass::Progressing));
}

#[test]
fn encounter_time_locking_tms_starve_contending_writers() {
    // §3.2.3: TinySTM (timid CM) and SwissTM (greedy CM) both admit
    // starving cycles under write contention.
    for (name, factory) in [
        (
            "tinystm",
            Box::new(|| Box::new(TinyStm::new(2, 1)) as BoxedTm) as Factory,
        ),
        (
            "swisstm",
            Box::new(|| Box::new(SwissTm::new(2, 1)) as BoxedTm),
        ),
    ] {
        let report = livecheck(&*factory, &contended(), &LivecheckConfig::new(12));
        assert!(
            !report.lasso_starvation_free(),
            "{name}: contention must starve someone: {report:?}"
        );
        assert_eq!(report.rejected_cycles, 0, "{name}");
    }
}

#[test]
fn lasso_witnesses_agree_with_certified_verdicts() {
    // Soundness cross-check: every stored witness's starving/parasitic
    // classification must be certified by the SCC pass (the witness
    // cycle is a subgraph of the recorded graph).
    for (name, factory) in fingerprinting_catalog() {
        let report = livecheck(&*factory, &contended(), &LivecheckConfig::new(10));
        let starving = report.starving_processes();
        let parasitic = report.parasitic_processes();
        for lasso in &report.lassos {
            for p in lasso.starving() {
                assert!(starving.contains(&p), "{name}: witness not certified");
            }
            for p in lasso.parasitic() {
                assert!(parasitic.contains(&p), "{name}: witness not certified");
            }
        }
    }
}

#[test]
fn parasitic_process_is_classified_and_never_progresses() {
    // p1 reads forever without ever invoking tryC (§2.3's parasitic
    // process). The checker must certify a parasitic cycle for p1 and
    // produce a concrete parasitic lasso — while p2, under Fgp's greedy
    // rule, still has progressing cycles (the parasitic reader gets
    // doomed and aborted rather than pinning the writer: exactly how
    // Fgp keeps global progress in parasitic-prone systems, Theorem 3).
    let scripts = vec![
        ClientScript::new(vec![PlannedOp::Read(X)]),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
    ];
    let report = livecheck(
        || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
        &scripts,
        &LivecheckConfig::new(12).with_parasitic(P1),
    );
    assert!(report.parasitic_processes().contains(&P1), "{report:?}");
    assert!(report.lassos.iter().any(|l| l.parasitic().contains(&P1)));
    // A parasitic process never commits: no cycle may progress p1.
    assert!(!report.progressing_processes().contains(&P1));
    for lasso in &report.lassos {
        assert!(!lasso.progressing().contains(&P1));
    }
    assert!(report.progressing_processes().contains(&P2));
}

/// What a report claims independently of the walk's node order:
/// graph size, plain and fair verdicts (crash victims included), fault
/// masks and the witnessed verdicts. Lasso contents are left out.
fn claims(r: &LivecheckReport) -> String {
    let witnessed: Vec<_> = r.lassos.iter().map(|l| l.witnesses).collect();
    format!(
        "{} states, {} edges, {:?}, {:?}, masks {:#b}/{:#b}, witnessed {witnessed:?}, rejected {}",
        r.states,
        r.edges,
        r.verdicts,
        r.fair_verdicts,
        r.crash_injected,
        r.parasite_injected,
        r.rejected_cycles
    )
}

/// Runs the production walk and the reference walk, asserts they make
/// the same [`claims`], validate every witness and hold the digest
/// contract on every edge the reference re-executed. Returns the
/// production report and the reference's digest check.
fn assert_matches_reference(
    name: &str,
    factory: &dyn Fn() -> BoxedTm,
    scripts: &[ClientScript],
    config: &LivecheckConfig,
) -> (LivecheckReport, DigestCheck) {
    let production = livecheck(factory, scripts, config);
    let (reference, check) = livecheck_reference(factory, scripts, config);
    assert_eq!(claims(&production), claims(&reference), "{name}");
    assert_eq!(production.rejected_cycles, 0, "{name}");
    assert_eq!(check.mismatches, 0, "{name}: digest contract {check:?}");
    assert!(production.exhausted.is_none() && reference.exhausted.is_none());
    (production, check)
}

#[test]
fn production_livecheck_matches_the_reference_across_the_catalog() {
    // Production-vs-oracle identity across the whole fingerprinting
    // catalogue, blocking global-lock TM included. Only the walk
    // differs: the reference re-executes every re-walked edge, the
    // production walk executes each edge once.
    for (name, factory) in fingerprinting_catalog() {
        let (production, check) =
            assert_matches_reference(name, &*factory, &contended(), &LivecheckConfig::new(11));
        assert!(check.rechecked > 0, "{name}: the reference never re-walked");
        assert!(!production.lassos.is_empty(), "{name}");
    }
}

/// The scripts of the three-process liveness benchmark.
fn three_process_scripts() -> Vec<ClientScript> {
    let y = TVarId(1);
    vec![
        ClientScript::new(vec![PlannedOp::Write(X, 1)]),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
        ClientScript::new(vec![
            PlannedOp::Read(y),
            PlannedOp::Read(X),
            PlannedOp::Write(y, 1),
        ]),
    ]
}

/// The digest contract one step deep: the reference walk re-executes
/// every re-walked edge from a concrete TM and compares it with the
/// recorded edge (target node, process, kind and events). A mismatch
/// would mean a `state_digest` merged configurations with different
/// futures. Checked across the catalogue at two and three processes,
/// fault-free, fault-prone and with a static parasite, together with
/// the production walk's agreement with the reference.
#[test]
fn digest_contract_holds_one_step_deep_across_the_catalogue() {
    let fault_prone = FaultConfig::with_crashes(1).and_parasitic();
    let shapes = [
        (2, contended(), 14, 11),
        (3, three_process_scripts(), 11, 9),
    ];
    let mut rechecked = 0;
    for (processes, scripts, depth, faulty_depth) in shapes {
        for tm in full_catalog(processes, 2) {
            let name = tm.name();
            let factory = || {
                full_catalog(processes, 2)
                    .into_iter()
                    .find(|t| t.name() == name)
                    .expect("catalogue TM")
            };
            for (what, config) in [
                ("fault-free", LivecheckConfig::new(depth)),
                (
                    "fault-prone",
                    LivecheckConfig::new(faulty_depth).with_faults(fault_prone),
                ),
                (
                    "parasitic p1",
                    LivecheckConfig::new(depth).with_parasitic(P1),
                ),
            ] {
                let label = format!("{name} {processes}p {what}");
                rechecked += assert_matches_reference(&label, &factory, &scripts, &config)
                    .1
                    .rechecked;
            }
        }
    }
    assert!(rechecked > 50_000, "only {rechecked} edges re-executed");
}

/// Replays `schedule` through the simulator from a fresh TM, with the
/// witness's fault plan plus `static_parasitic` turned parasitic from
/// step 0, and returns the configuration it ends in: the TM digest and
/// every client's cursor.
fn replay(
    factory: &dyn Fn() -> BoxedTm,
    scripts: &[ClientScript],
    plan: &FaultPlan,
    schedule: &[ProcessId],
) -> (Option<u64>, Vec<(usize, Option<u64>)>) {
    let mut tm = factory();
    let mut clients: Vec<Client> = scripts.iter().cloned().map(Client::new).collect();
    simulate(
        &mut *tm,
        &mut clients,
        &mut FixedSchedule::new(schedule.to_vec()),
        plan,
        SimConfig::steps(schedule.len()),
    );
    (
        tm.state_digest(),
        clients.iter().map(Client::cursor).collect(),
    )
}

/// Every witness is sound: replaying `schedule_prefix · schedule_cycle`
/// on a fresh TM returns to the configuration where the cycle entered,
/// and every certified plain starving, parasitic or progressing verdict
/// has a witness of that class.
#[test]
fn witnesses_replay_to_their_entry_configuration() {
    let fault_prone = FaultConfig::with_crashes(1).and_parasitic();
    for (name, factory) in fingerprinting_catalog() {
        for config in [
            LivecheckConfig::new(10),
            LivecheckConfig::new(8).with_faults(fault_prone),
        ] {
            let report = livecheck(&*factory, &contended(), &config);
            assert_eq!(report.rejected_cycles, 0, "{name}");
            assert_witnesses_replay(name, &*factory, &contended(), &report, &FaultPlan::none());
        }
    }
    // A static parasite: the simulator runs it as parasitic from step 0.
    let scripts = vec![
        ClientScript::new(vec![PlannedOp::Read(X)]),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
    ];
    let factory = || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm;
    let report = livecheck(
        factory,
        &scripts,
        &LivecheckConfig::new(10).with_parasitic(P1),
    );
    assert_witnesses_replay(
        "fgp parasitic",
        &factory,
        &scripts,
        &report,
        &FaultPlan::none().parasitic(P1, 0),
    );
}

fn assert_witnesses_replay(
    name: &str,
    factory: &dyn Fn() -> BoxedTm,
    scripts: &[ClientScript],
    report: &LivecheckReport,
    static_faults: &FaultPlan,
) {
    for verdict in &report.verdicts {
        for (holds, class) in [
            (verdict.progressing, ProcessClass::Progressing),
            (verdict.starving, ProcessClass::Starving),
            (verdict.parasitic, ProcessClass::Parasitic),
        ] {
            let witness = report
                .lassos
                .iter()
                .find(|l| l.witnesses == (verdict.process, class));
            assert_eq!(witness.is_some(), holds, "{name}: {class:?} witness");
        }
    }
    for lasso in &report.lassos {
        assert!(
            lasso.classes.contains(&lasso.witnesses),
            "{name}: {lasso:?}"
        );
        let plan = with_faults(static_faults, lasso);
        let mut schedule = lasso.schedule_prefix.clone();
        let entry = replay(factory, scripts, &plan, &schedule);
        schedule.extend_from_slice(&lasso.schedule_cycle);
        let exit = replay(factory, scripts, &plan, &schedule);
        assert!(entry.0.is_some(), "{name}");
        assert_eq!(entry, exit, "{name}: cycle of {lasso:?}");
    }
}

/// The lasso's fault plan plus the static faults.
fn with_faults(static_faults: &FaultPlan, lasso: &LassoFinding) -> FaultPlan {
    let faults = static_faults.faults().iter().chain(lasso.plan.faults());
    FaultPlan::from_faults(faults.copied().collect())
}

#[test]
fn reduced_livecheck_is_deterministic_across_thread_counts() {
    // The production walk is a function of (TM, workload, config) alone:
    // identical reports whatever the rayon pool size.
    let run = || {
        livecheck(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm,
            &contended(),
            &LivecheckConfig::new(12),
        )
    };
    let baseline = run();
    for threads in [1, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let report = pool.install(run);
        assert_eq!(
            format!("{baseline:?}"),
            format!("{report:?}"),
            "{threads} threads"
        );
    }
}

#[test]
fn classes_cover_crashed_processes_abandoned_by_the_scheduler() {
    // A cycle that only ever schedules p1 leaves p2 with a finite
    // projection: Crashed (or Absent if it never ran) per Figure 2.
    let report = livecheck(
        || Box::new(Tl2::new(2, 1)),
        &contended(),
        &LivecheckConfig::new(8),
    );
    let solo_cycle = report.lassos.iter().find(|l| {
        l.schedule_cycle.iter().all(|&p| p == P1)
            && l.classes
                .iter()
                .any(|&(p, c)| p == P2 && matches!(c, ProcessClass::Crashed | ProcessClass::Absent))
    });
    assert!(
        solo_cycle.is_some(),
        "solo-p1 cycles must classify p2 as crashed/absent: {report:?}"
    );
}

#[test]
fn telemetry_snapshot_is_identical_across_thread_counts() {
    // The counter-determinism contract (see tm_telemetry's module docs):
    // every counter is flushed at a phase boundary from a deterministic
    // tally, so the snapshot — like the report — is a pure function of
    // (TM, workload, config), never of the rayon pool size.
    use tm_telemetry::{Counter, Telemetry};
    let snap_at = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let telemetry = Telemetry::counters();
        let report = pool.install(|| {
            livecheck(
                || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm,
                &contended(),
                &LivecheckConfig::new(12).with_telemetry(&telemetry),
            )
        });
        (telemetry.snapshot(), report)
    };
    let (baseline, report) = snap_at(1);
    assert!(!baseline.is_empty(), "the instrumented run must count");
    assert_eq!(baseline.get(Counter::GraphNodes), report.states as u64);
    assert_eq!(baseline.get(Counter::GraphEdges), report.edges as u64);
    assert_eq!(baseline.get(Counter::StepsExecuted), report.steps as u64);
    assert_eq!(
        baseline.get(Counter::LassosFound),
        report.lassos.len() as u64
    );
    for threads in [2usize, 4] {
        let (snap, _) = snap_at(threads);
        assert_eq!(
            baseline, snap,
            "telemetry snapshot diverged at {threads} threads"
        );
    }
}
