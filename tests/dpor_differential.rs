//! Differential suite for optimal DPOR: the wakeup-tree explorer must
//! agree with the from-scratch enumerator `explore_schedules` on every
//! **verdict** across the whole catalogue, at two and three processes —
//! including the seeded-buggy literal `Fgp`, where each reported
//! violation must be a schedule the enumerator reports verbatim — while
//! executing strictly fewer schedules wherever a TM's conflict oracle
//! admits any independence, and at most one schedule per Mazurkiewicz
//! class. The explorer's telemetry counters are held to its report. The
//! liveness checker's reduction is held to the stronger bar:
//! byte-identical graphs, lassos and starvation verdicts.

use tm_core::{ProcessId, TVarId};
use tm_sim::{
    explore_schedules, explore_with, livecheck, livecheck_reference, ClientScript, ExploreConfig,
    LivecheckConfig, LivecheckReport, PlannedOp,
};
use tm_stm::{BoxedTm, FgpTm, GlobalLock};
use tm_telemetry::{Counter, Telemetry};

use tm_automata::FgpVariant;

const X: TVarId = TVarId(0);
const Y: TVarId = TVarId(1);

type Factory = Box<dyn Fn() -> BoxedTm>;

/// The **whole** catalogue (every refined conflict oracle, including
/// the intricate ones: TinySTM's undo-log rollback, SwissTM's greedy-CM
/// ages, OSTM's per-object versions), the blocking global-lock TM, and
/// the seeded-buggy literal `Fgp`, each labelled with its name. A fork of
/// a fresh TM is a fresh TM, so each factory forks its catalogue entry.
fn factories(processes: usize, tvars: usize) -> Vec<(&'static str, Factory)> {
    let mut tms = tm_stm::full_catalog(processes, tvars);
    tms.push(tm_stm::literal_fgp(processes, tvars));
    tms.into_iter()
        .map(|tm| (tm.name(), Box::new(move || tm.fork()) as Factory))
        .collect()
}

fn contended_scripts() -> Vec<ClientScript> {
    vec![
        ClientScript::increment(X),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 5)]),
    ]
}

#[test]
fn dpor_executes_strictly_fewer_schedules_at_three_processes() {
    // The headline reduction claim: at 3 processes the class structure is
    // rich enough that optimal DPOR must beat the enumerator
    // strictly, for every TM whose oracle admits any independence.
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::increment(X),
        ClientScript::read_both(X, Y),
    ];
    for (name, factory) in factories(3, 2) {
        if name == "global-lock" {
            continue; // audited all-conflicting oracle: no reduction, by design
        }
        let plain = explore_schedules(&*factory, &scripts, 7);
        let dpor = explore_with(&*factory, &scripts, &ExploreConfig::new(7));
        assert!(
            dpor.schedules < plain.schedules,
            "{name}: DPOR ({}) must beat the enumerator ({})",
            dpor.schedules,
            plain.schedules
        );
        assert_eq!(
            plain.all_opaque(),
            dpor.all_opaque(),
            "{name}: verdicts diverged"
        );
    }
}

#[test]
fn optimal_dpor_runs_ten_times_fewer_schedules_on_fgp_at_three_processes() {
    // The reduction's headline floor on the paper's TM: at 3 processes,
    // depth 8, the wakeup-tree walk executes at least 10× fewer
    // schedules than the enumerator (3^8 = 6561), same verdict.
    let factory = || Box::new(FgpTm::new(3, 2, FgpVariant::CpOnly)) as BoxedTm;
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::increment(X),
        ClientScript::read_both(X, Y),
    ];
    let plain = explore_schedules(factory, &scripts, 8);
    let optimal = explore_with(factory, &scripts, &ExploreConfig::new(8));
    assert_eq!(plain.schedules, 6561);
    assert_eq!(plain.all_opaque(), optimal.all_opaque());
    assert!(
        optimal.schedules * 10 <= plain.schedules,
        "optimal DPOR ran {} of {} schedules: less than a 10x reduction",
        optimal.schedules,
        plain.schedules
    );
}

#[test]
fn conservative_oracles_degenerate_to_report_identical_full_exploration() {
    // The global-lock TM's audited oracle conflicts on every pair of
    // steps, so the DPOR walk must visit every schedule and reproduce
    // the enumerator's report byte for byte, at three processes.
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 5)]),
        ClientScript::read_both(X, Y),
    ];
    let factory = || Box::new(GlobalLock::new(3, 2)) as BoxedTm;
    let plain = explore_schedules(factory, &scripts, 6);
    assert_eq!(plain.schedules, 729);
    let dpor = explore_with(factory, &scripts, &ExploreConfig::new(6));
    assert_eq!(plain, dpor);
}

#[test]
fn dpor_catches_the_leak_on_disjoint_variables_too() {
    // The non-vacuous cross-variable case: Fgp conflicts are
    // CP-membership-based, not variable-based (p1's commit dooms p2,
    // p2's doomed write to Y leaks into its next transaction's read), so
    // the literal leak must survive a reduction that genuinely fires on
    // the disjoint-variable op steps.
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::new(vec![PlannedOp::Read(Y), PlannedOp::Write(Y, 5)]),
    ];
    let plain = explore_schedules(|| tm_stm::literal_fgp(2, 2), &scripts, 9);
    let dpor = explore_with(
        || tm_stm::literal_fgp(2, 2),
        &scripts,
        &ExploreConfig::new(9),
    );
    assert!(
        dpor.schedules < plain.schedules,
        "independence must fire on disjoint variables"
    );
    assert!(
        !plain.all_opaque(),
        "the leak exists in the full exploration"
    );
    assert!(
        !dpor.all_opaque(),
        "DPOR must preserve the cross-variable violation verdict"
    );
    for violation in &dpor.violations {
        assert!(plain.violations.contains(violation), "{violation:?}");
    }
}

#[test]
fn optimal_dpor_verdicts_and_violation_subset_across_the_catalogue() {
    // Verdict parity with the enumerator on the whole catalogue plus
    // the seeded-buggy literal Fgp, at two and three processes, and a
    // verbatim violation subset: every schedule optimal DPOR reports,
    // the enumerator reports too.
    let shapes = [
        (2, 1, 8, contended_scripts()),
        (
            3,
            2,
            6,
            vec![
                ClientScript::increment(X),
                ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 5)]),
                ClientScript::read_both(X, Y),
            ],
        ),
    ];
    for (procs, tvars, depth, scripts) in shapes {
        let mut buggy_caught = false;
        for (name, factory) in factories(procs, tvars) {
            let plain = explore_schedules(&*factory, &scripts, depth);
            let optimal = explore_with(&*factory, &scripts, &ExploreConfig::new(depth));
            assert_eq!(plain.schedules, procs.pow(depth as u32), "{name}");
            assert_eq!(
                plain.all_opaque(),
                optimal.all_opaque(),
                "{name} at {procs}p: optimal DPOR changed the verdict"
            );
            for violation in &optimal.violations {
                assert!(
                    plain.violations.contains(violation),
                    "{name} at {procs}p: optimal DPOR reported a violation the full \
                     exploration lacks: {violation:?}"
                );
            }
            assert!(
                optimal.schedules <= plain.schedules,
                "{name} at {procs}p: DPOR may never execute more schedules than the full tree"
            );
            if name == "fgp-literal" {
                assert!(
                    !optimal.all_opaque(),
                    "optimal DPOR must still catch the literal-Fgp leak at {procs}p"
                );
                buggy_caught = true;
            }
        }
        assert!(buggy_caught);
    }
}

#[test]
fn optimal_dpor_executes_at_most_one_schedule_per_class() {
    // The optimality oracle: replay every schedule the wakeup-tree walk
    // executed and reduce it to its class's canonical normal form — the
    // images must be pairwise distinct (at most one execution per
    // Mazurkiewicz class), bounded by the brute-force class count, and
    // no larger than the enumerator's count. The absolute counts
    // are pinned so a regression in either direction (lost coverage or
    // lost reduction) fails loudly.
    use std::collections::HashSet;
    use tm_sim::{mazurkiewicz_classes, schedule_normal_form};
    let table: &[(usize, usize, usize)] = &[(2, 8, 33), (3, 6, 37)];
    for &(procs, depth, expected) in table {
        let scripts: Vec<ClientScript> = (0..procs)
            .map(|i| {
                if i == 2 {
                    ClientScript::read_both(X, Y)
                } else {
                    ClientScript::increment(X)
                }
            })
            .collect();
        let tvars = if procs > 2 { 2 } else { 1 };
        let factory = move || Box::new(FgpTm::new(procs, tvars, FgpVariant::CpOnly)) as BoxedTm;
        let optimal = explore_with(
            factory,
            &scripts,
            &ExploreConfig::new(depth).with_schedule_log(),
        );
        assert!(optimal.all_opaque());
        assert_eq!(
            optimal.schedule_log.len(),
            optimal.schedules,
            "{procs}p depth {depth}: the log must record every executed schedule"
        );
        let normals: HashSet<Vec<u8>> = optimal
            .schedule_log
            .iter()
            .map(|s| schedule_normal_form(factory, &scripts, s))
            .collect();
        assert_eq!(
            normals.len(),
            optimal.schedules,
            "{procs}p depth {depth}: two executed schedules share a Mazurkiewicz class"
        );
        let classes = mazurkiewicz_classes(factory, &scripts, depth);
        assert!(
            optimal.schedules <= classes,
            "{procs}p depth {depth}: executed {} exceeds the {} classes",
            optimal.schedules,
            classes
        );
        let plain = explore_schedules(factory, &scripts, depth);
        assert!(
            optimal.schedules <= plain.schedules,
            "{procs}p depth {depth}: optimal ({}) exceeded the enumerator ({})",
            optimal.schedules,
            plain.schedules
        );
        assert_eq!(
            optimal.schedules, expected,
            "{procs}p depth {depth}: pinned executed-schedule count moved"
        );
    }
}

#[test]
fn optimal_dpor_bookkeeping_counters_are_pinned_across_the_catalogue() {
    // The race analysis, not only its outcome: a change to race
    // detection or wakeup-tree insertion that keeps the executed
    // schedule count would still move how many races are reversed,
    // inserted or proved covered. Each row is (TM, schedules, races,
    // inserts, redundant) on the contended two-process shape at depth
    // 14, sequential.
    const DEPTH: usize = 14;
    let pinned: [(&str, usize, u64, u64, u64); 10] = [
        ("fgp", 812, 1_841, 811, 1_030),
        ("fgp-strict", 1_227, 3_040, 1_226, 1_814),
        ("tl2", 5, 8, 4, 4),
        ("tinystm", 6_236, 20_586, 6_235, 14_351),
        ("swisstm", 16_050, 39_034, 16_049, 22_985),
        ("norec", 5, 8, 4, 4),
        ("ostm", 5, 8, 4, 4),
        ("dstm", 4_788, 12_418, 4_787, 7_631),
        ("global-lock", 16_384, 32_766, 16_383, 16_383),
        ("fgp-literal", 1_227, 3_040, 1_226, 1_814),
    ];
    let scripts = contended_scripts();
    for ((name, factory), row) in factories(2, 1).into_iter().zip(pinned) {
        assert_eq!(name, row.0);
        let telemetry = Telemetry::counters();
        let report = explore_with(
            &*factory,
            &scripts,
            &ExploreConfig::new(DEPTH).with_telemetry(&telemetry),
        );
        let got = (
            name,
            report.schedules,
            telemetry.value(Counter::DporRaces),
            telemetry.value(Counter::WakeupInserts),
            telemetry.value(Counter::WakeupRedundant),
        );
        assert_eq!(got, row, "{name}: DPOR bookkeeping counters moved");
    }
}

#[test]
fn optimal_dpor_is_deterministic_across_rayon_thread_counts() {
    // The wakeup-tree walk is sequential: its report — executed
    // schedules, fallbacks, violations, in walk order — must be
    // byte-identical whatever the size of the ambient rayon pool.
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::increment(X),
        ClientScript::read_both(X, Y),
    ];
    let run_at = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            explore_with(
                || Box::new(FgpTm::new(3, 2, FgpVariant::CpOnly)) as BoxedTm,
                &scripts,
                &ExploreConfig::new(7),
            )
        })
    };
    let baseline = run_at(1);
    assert!(baseline.all_opaque());
    for threads in [2, 4] {
        assert_eq!(baseline, run_at(threads), "{threads} threads");
    }
}

#[test]
fn optimal_dpor_degenerates_to_full_exploration_for_conservative_oracles() {
    // The global-lock TM's audited oracle conflicts on every pair, so
    // wakeup trees must reproduce the enumerator's report byte for byte.
    let scripts = contended_scripts();
    let plain = explore_schedules(|| Box::new(GlobalLock::new(2, 1)) as BoxedTm, &scripts, 8);
    let optimal = explore_with(
        || Box::new(GlobalLock::new(2, 1)) as BoxedTm,
        &scripts,
        &ExploreConfig::new(8),
    );
    assert_eq!(plain, optimal);
}

#[test]
fn livecheck_matches_its_reference_across_the_catalogue() {
    // The liveness checker's bar is stricter than the safety explorer's:
    // the production walk must reach the reference walk's state graph
    // and certify the same verdicts, with a witness for the same
    // verdicts, while executing each TM transition once.
    let scripts = vec![
        ClientScript::new(vec![PlannedOp::Write(X, 1)]),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
    ];
    for (name, factory) in factories(2, 1) {
        let production = livecheck(&*factory, &scripts, &LivecheckConfig::new(12));
        let (reference, check) =
            livecheck_reference(&*factory, &scripts, &LivecheckConfig::new(12));
        let claims = |r: &LivecheckReport| {
            let witnessed: Vec<_> = r.lassos.iter().map(|l| l.witnesses).collect();
            format!(
                "{} {} {:?} {:?} {witnessed:?}",
                r.states, r.edges, r.verdicts, r.fair_verdicts
            )
        };
        assert_eq!(
            claims(&production),
            claims(&reference),
            "{name}: reports diverged"
        );
        assert_eq!(check.mismatches, 0, "{name}: digest contract {check:?}");
        // Conservation: every edge walk of the reference is production's
        // one execution or a re-execution the reference checked.
        assert_eq!(
            reference.steps,
            production.steps + check.rechecked,
            "{name}: step accounting broke"
        );
        assert!(
            check.rechecked > 0,
            "{name}: the reference never re-walked at depth 12"
        );
    }
}

#[test]
fn parasitic_starvation_analysis_survives_both_reductions() {
    // Figure 12's parasitic-reader shape, end to end: the optimal-DPOR
    // safety sweep stays opaque and livecheck still certifies the
    // parasitic cycle.
    let scripts = vec![
        ClientScript::new(vec![PlannedOp::Read(X)]),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
    ];
    let factory = || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm;
    let sweep = explore_with(factory, &scripts, &ExploreConfig::new(10));
    assert!(sweep.all_opaque());
    assert!(explore_schedules(factory, &scripts, 10).all_opaque());
    let report = livecheck(
        factory,
        &scripts,
        &LivecheckConfig::new(10).with_parasitic(ProcessId(0)),
    );
    assert!(report.parasitic_processes().contains(&ProcessId(0)));
    // Paths merge: more edges than a tree over the states.
    assert!(report.edges > report.states - 1);
}

#[test]
fn violations_carry_their_shortest_failing_prefix() {
    // Both the walk, whose certifier latches its rejection on the
    // branch and rolls back, and the enumerator, which certifies each
    // history from event zero, report where the certifier first
    // rejected: inside the history, with a clean prefix before it.
    let scripts = contended_scripts();
    let enumerated = explore_schedules(|| tm_stm::literal_fgp(2, 1), &scripts, 9);
    let walked = explore_with(
        || tm_stm::literal_fgp(2, 1),
        &scripts,
        &ExploreConfig::new(9),
    );
    for report in [&enumerated, &walked] {
        assert!(!report.violations.is_empty());
        for v in &report.violations {
            assert!(
                v.fast_reject_at < v.history.len(),
                "the certifier rejected inside the history"
            );
            let mut checker = tm_safety::IncrementalChecker::new(tm_safety::Mode::Opacity);
            for &event in v.history.events().iter().take(v.fast_reject_at) {
                checker
                    .push(event)
                    .expect("prefix before rejection is clean");
            }
        }
    }
}

#[test]
fn telemetry_snapshot_is_identical_across_thread_counts() {
    // The counter-determinism contract (see tm_telemetry's module docs):
    // counters flush at the end of the walk from deterministic tallies,
    // so the snapshot cannot depend on the ambient rayon pool size.
    let scripts = vec![ClientScript::increment(X), ClientScript::increment(X)];
    let snap_at = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let telemetry = Telemetry::counters();
        let report = pool.install(|| {
            explore_with(
                || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm,
                &scripts,
                &ExploreConfig::new(10).with_telemetry(&telemetry),
            )
        });
        (telemetry.snapshot(), report)
    };
    let (baseline, report) = snap_at(1);
    assert!(!baseline.is_empty(), "the instrumented run must count");
    assert_eq!(
        baseline.get(Counter::SchedulesExecuted),
        report.schedules as u64
    );
    assert!(baseline.get(Counter::WorkerSteps) > 0);
    for threads in [2usize, 4] {
        let (snap, parallel_report) = snap_at(threads);
        assert_eq!(report, parallel_report, "report diverged");
        assert_eq!(
            baseline, snap,
            "telemetry snapshot diverged at {threads} threads"
        );
    }
}

#[test]
fn executed_schedule_counter_matches_the_report_across_the_catalogue() {
    // `Counter::SchedulesExecuted` must agree with the report's leaf
    // count for every TM on the production walk — the anchor that ties
    // the telemetry stream to the exploration it narrates.
    let scripts = contended_scripts();
    for (name, factory) in factories(2, 1) {
        let telemetry = Telemetry::counters();
        let report = explore_with(
            &*factory,
            &scripts,
            &ExploreConfig::new(8).with_telemetry(&telemetry),
        );
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.get(Counter::SchedulesExecuted),
            report.schedules as u64,
            "{name}: executed-schedule counter diverged from the report"
        );
        assert_eq!(
            snap.get(Counter::ViolationsFound),
            report.violations.len() as u64,
            "{name}: violation counter diverged from the report"
        );
    }
}
