//! Differential suite: the prefix-sharing DFS explorer and the seed's
//! naive from-scratch enumerator must report **identical** results —
//! same schedule counts, same exact-checker fallback counts, same
//! violation lists (schedules, histories, details and shortest failing
//! prefixes) in the same order — across catalogue TMs and process
//! counts. One deliberately buggy TM (the literal
//! `Fgp` formal rules) is included: both explorers must *catch* it, not
//! merely agree on silence.

use tm_core::TVarId;
use tm_sim::{
    explore_schedules, explore_schedules_naive, explore_with, ClientScript, Exploration,
    ExploreConfig, PlannedOp,
};
use tm_stm::{BoxedTm, Dstm, FgpTm, GlobalLock, NOrec, Ostm, SwissTm, TinyStm, Tl2};

use tm_automata::FgpVariant;

const X: TVarId = TVarId(0);
const Y: TVarId = TVarId(1);

type Factory = Box<dyn Fn() -> BoxedTm>;

/// The catalogue slice under differential test: four opaque TMs spanning
/// the design space (automaton-based, deferred-update, value-validating,
/// obstruction-free, blocking) plus the seeded-buggy literal `Fgp`.
fn factories(processes: usize, tvars: usize) -> Vec<(&'static str, Factory)> {
    vec![
        (
            "fgp",
            Box::new(move || Box::new(FgpTm::new(processes, tvars, FgpVariant::CpOnly)) as BoxedTm)
                as Factory,
        ),
        (
            "tl2",
            Box::new(move || Box::new(Tl2::new(processes, tvars)) as BoxedTm),
        ),
        (
            "norec",
            Box::new(move || Box::new(NOrec::new(processes, tvars)) as BoxedTm),
        ),
        (
            "dstm",
            Box::new(move || Box::new(Dstm::new(processes, tvars)) as BoxedTm),
        ),
        (
            "global-lock",
            Box::new(move || Box::new(GlobalLock::new(processes, tvars)) as BoxedTm),
        ),
        (
            "fgp-literal",
            Box::new(move || tm_stm::literal_fgp(processes, tvars)),
        ),
    ]
}

fn assert_identical(name: &str, naive: &Exploration, dfs: &Exploration, what: &str) {
    assert_eq!(
        naive.schedules, dfs.schedules,
        "{name} ({what}): schedule counts diverged"
    );
    assert_eq!(
        naive.exact_fallbacks, dfs.exact_fallbacks,
        "{name} ({what}): fallback counts diverged"
    );
    assert_eq!(
        naive.violations, dfs.violations,
        "{name} ({what}): violation sets diverged"
    );
}

/// The **full** nine-TM catalogue (both Fgp variants, every STM, the
/// blocking global-lock TM) plus the seeded-buggy literal Fgp: the
/// population for the engine-vs-legacy byte-identity gate.
fn full_catalogue_factories(processes: usize, tvars: usize) -> Vec<(&'static str, Factory)> {
    vec![
        (
            "fgp",
            Box::new(move || Box::new(FgpTm::new(processes, tvars, FgpVariant::CpOnly)) as BoxedTm)
                as Factory,
        ),
        (
            "fgp-strict",
            Box::new(move || Box::new(FgpTm::new(processes, tvars, FgpVariant::Strict)) as BoxedTm),
        ),
        (
            "tl2",
            Box::new(move || Box::new(Tl2::new(processes, tvars)) as BoxedTm),
        ),
        (
            "tinystm",
            Box::new(move || Box::new(TinyStm::new(processes, tvars)) as BoxedTm),
        ),
        (
            "swisstm",
            Box::new(move || Box::new(SwissTm::new(processes, tvars)) as BoxedTm),
        ),
        (
            "norec",
            Box::new(move || Box::new(NOrec::new(processes, tvars)) as BoxedTm),
        ),
        (
            "ostm",
            Box::new(move || Box::new(Ostm::new(processes, tvars)) as BoxedTm),
        ),
        (
            "dstm",
            Box::new(move || Box::new(Dstm::new(processes, tvars)) as BoxedTm),
        ),
        (
            "global-lock",
            Box::new(move || Box::new(GlobalLock::new(processes, tvars)) as BoxedTm),
        ),
        (
            "fgp-literal",
            Box::new(move || tm_stm::literal_fgp(processes, tvars)),
        ),
    ]
}

#[test]
fn engine_reports_match_the_naive_legacy_across_the_full_catalogue() {
    // The engine-backed exhaustive walk (shared kernel: ScheduleSpace,
    // TmPool) against the seed's from-scratch enumerator, byte for byte,
    // across the full nine-TM catalogue plus the seeded-buggy literal
    // Fgp.
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 5)]),
    ];
    let mut buggy_caught = false;
    for (name, factory) in full_catalogue_factories(2, 1) {
        let naive = explore_schedules_naive(&*factory, &scripts, 7);
        let dfs = explore_schedules(&*factory, &scripts, 7);
        assert_eq!(naive.schedules, 1 << 7, "{name}");
        assert_eq!(naive, dfs, "{name}: full catalogue");
        if name == "fgp-literal" {
            assert!(!dfs.all_opaque(), "the literal-Fgp leak must surface");
            buggy_caught = true;
        }
    }
    assert!(buggy_caught);
}

#[test]
fn two_process_reports_are_identical_across_the_catalogue() {
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 5)]),
    ];
    let mut buggy_caught = false;
    for (name, factory) in factories(2, 1) {
        let naive = explore_schedules_naive(&*factory, &scripts, 8);
        let dfs = explore_schedules(&*factory, &scripts, 8);
        assert_eq!(naive.schedules, 1 << 8, "{name}");
        assert_identical(name, &naive, &dfs, "2p depth 8 sequential");
        if name == "fgp-literal" {
            assert!(
                !naive.all_opaque() && !dfs.all_opaque(),
                "both explorers must catch the literal-Fgp leak"
            );
            buggy_caught = true;
        } else {
            assert!(naive.all_opaque(), "{name}: unexpectedly non-opaque");
        }
    }
    assert!(buggy_caught);
}

#[test]
fn three_process_reports_are_identical_across_the_catalogue() {
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::transfer(X, Y),
        ClientScript::read_both(X, Y),
    ];
    for (name, factory) in factories(3, 2) {
        let naive = explore_schedules_naive(&*factory, &scripts, 6);
        let dfs = explore_schedules(&*factory, &scripts, 6);
        assert_eq!(naive.schedules, 3usize.pow(6), "{name}");
        assert_identical(name, &naive, &dfs, "3p depth 6 sequential");
    }
}

#[test]
fn violations_carry_their_shortest_failing_prefix() {
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 5)]),
    ];
    let dfs = explore_schedules(|| tm_stm::literal_fgp(2, 1), &scripts, 9);
    assert!(!dfs.violations.is_empty());
    for v in &dfs.violations {
        assert!(
            v.fast_reject_at < v.history.len(),
            "the certifier rejected inside the history"
        );
        // The prefix up to (excluding) the rejection point is clean: the
        // certifier accepts it.
        let mut checker = tm_safety::IncrementalChecker::new(tm_safety::Mode::Opacity);
        for &event in v.history.events().iter().take(v.fast_reject_at) {
            checker
                .push(event)
                .expect("prefix before rejection is clean");
        }
    }
}

#[test]
fn telemetry_snapshot_is_identical_across_thread_counts() {
    // The counter-determinism contract (see tm_telemetry's module docs):
    // counters flush at the end of the walk from deterministic tallies,
    // so the snapshot cannot depend on the ambient rayon pool size.
    use tm_telemetry::{Counter, Telemetry};
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
    use tm_telemetry::{Counter, Telemetry};
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 5)]),
    ];
    for (name, factory) in full_catalogue_factories(2, 1) {
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
