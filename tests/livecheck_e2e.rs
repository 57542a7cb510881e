//! End-to-end suite for the liveness model checker: explore the canonical
//! state graph, detect lassos, classify them with the paper's Figure 2
//! taxonomy, and cross-check the concrete witnesses against the certified
//! SCC verdicts — across the fingerprinting catalogue.

use tm_automata::FgpVariant;
use tm_core::{ProcessId, TVarId};
use tm_liveness::{GlobalProgress, LocalProgress, ProcessClass, TmLivenessProperty};
use tm_sim::{livecheck, ClientScript, LivecheckConfig, LivecheckReport, PlannedOp};
use tm_stm::{BoxedTm, Dstm, FgpTm, GlobalLock, NOrec, Ostm, SteppedTm, SwissTm, TinyStm, Tl2};

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
    assert!(report.eventless_cycles > 0);
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

/// Field-by-field byte-identity of two livecheck reports, including the
/// full lasso findings (histories, schedules and classifications).
fn assert_reports_identical(name: &str, a: &LivecheckReport, b: &LivecheckReport, what: &str) {
    assert_eq!(a.states, b.states, "{name} ({what}): states");
    assert_eq!(a.edges, b.edges, "{name} ({what}): edges");
    assert_eq!(a.steps, b.steps, "{name} ({what}): steps");
    assert_eq!(
        a.replayed_steps, b.replayed_steps,
        "{name} ({what}): replayed_steps"
    );
    assert_eq!(a.dedup_hits, b.dedup_hits, "{name} ({what}): dedup_hits");
    assert_eq!(
        a.cycles_detected, b.cycles_detected,
        "{name} ({what}): cycles_detected"
    );
    assert_eq!(
        a.eventless_cycles, b.eventless_cycles,
        "{name} ({what}): eventless_cycles"
    );
    assert_eq!(
        a.rejected_cycles, b.rejected_cycles,
        "{name} ({what}): rejected_cycles"
    );
    assert_eq!(a.truncated, b.truncated, "{name} ({what}): truncated");
    assert_eq!(a.verdicts, b.verdicts, "{name} ({what}): verdicts");
    assert_eq!(
        a.fair_verdicts, b.fair_verdicts,
        "{name} ({what}): fair verdicts"
    );
    assert_eq!(a.lassos.len(), b.lassos.len(), "{name} ({what}): lassos");
    for (x, y) in a.lassos.iter().zip(&b.lassos) {
        assert_eq!(
            x.schedule_prefix, y.schedule_prefix,
            "{name} ({what}): lasso prefix"
        );
        assert_eq!(
            x.schedule_cycle, y.schedule_cycle,
            "{name} ({what}): lasso cycle"
        );
        assert_eq!(x.lasso, y.lasso, "{name} ({what}): lasso history");
        assert_eq!(x.classes, y.classes, "{name} ({what}): lasso classes");
    }
}

#[test]
fn reduced_livecheck_matches_plain_across_the_catalog() {
    // Production-vs-oracle identity: the reduced walk must report
    // exactly what the plain walk reports — states, edges, cycles,
    // dedup hits, lassos and (fair) verdicts — across the whole
    // fingerprinting catalogue, blocking global-lock TM included. Only
    // the execution discipline differs: every step the plain walk
    // executes, the reduced walk executes once or replays.
    for (name, factory) in fingerprinting_catalog() {
        let plain = livecheck(&*factory, &contended(), &LivecheckConfig::new(11));
        let reduced = livecheck(
            &*factory,
            &contended(),
            &LivecheckConfig::new(11).with_reduction(),
        );
        assert_eq!(
            plain.steps,
            reduced.steps + reduced.replayed_steps,
            "{name}: every plain execution is executed once or replayed"
        );
        assert_eq!(plain.replayed_steps, 0, "{name}");
        let mut as_plain = reduced.clone();
        as_plain.steps = plain.steps;
        as_plain.replayed_steps = 0;
        assert_reports_identical(name, &plain, &as_plain, "reduced vs plain");
    }
}

#[test]
fn reduced_livecheck_is_deterministic_across_thread_counts() {
    // The production walk is a function of (TM, workload, config) alone:
    // identical reports whatever the rayon pool size.
    let run = || {
        livecheck(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm,
            &contended(),
            &LivecheckConfig::new(12).with_reduction(),
        )
    };
    let baseline = run();
    for threads in [1, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let report = pool.install(run);
        assert_reports_identical("fgp", &baseline, &report, &format!("{threads} threads"));
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
                &LivecheckConfig::new(12)
                    .with_reduction()
                    .with_telemetry(&telemetry),
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
        baseline.get(Counter::StepsReplayed),
        report.replayed_steps as u64
    );
    for threads in [2usize, 4] {
        let (snap, _) = snap_at(threads);
        assert_eq!(
            baseline, snap,
            "telemetry snapshot diverged at {threads} threads"
        );
    }
}
