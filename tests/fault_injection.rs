//! Fault-prone model checking, end to end: exhaustive crash/parasitic
//! injection inside both checkers, the Theorem-1 corollary across the
//! catalogue, crash-only safety exploration against the fault-free
//! walk, fault-free byte-identity of the NDJSON stream, thread-count
//! determinism of the fault-space search, and budgeted graceful
//! degradation (budget trips and TMs that panic mid-search both produce
//! an explicit partial verdict that round-trips through `tm-obs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tm_automata::FgpVariant;
use tm_core::{Invocation, ProcessId, Response, TVarId};
use tm_liveness_repro::obs::summary;
use tm_sim::{
    explore_schedules, explore_with, livecheck, livecheck_reference, Budget, ClientScript,
    ExploreConfig, FaultConfig, LivecheckConfig, LivecheckReport, PlannedOp,
};
use tm_stm::{
    BoxedTm, Dstm, FgpTm, GlobalLock, NOrec, Ostm, Outcome, SteppedTm, SwissTm, TinyStm, Tl2,
};
use tm_telemetry::{Json, Telemetry};

const X: TVarId = TVarId(0);

type Factory = Box<dyn Fn() -> BoxedTm>;

/// Constant-write contention: a finite value domain keeps the canonical
/// state graph finite, so the fault-prone graph is finite too.
fn contended() -> Vec<ClientScript> {
    vec![
        ClientScript::new(vec![PlannedOp::Write(X, 1)]),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
    ]
}

/// The full 9-TM fingerprinting catalogue.
fn catalog() -> Vec<(&'static str, Factory)> {
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

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tm_fault_{name}_{}.ndjson", std::process::id()))
}

// ---------------------------------------------------------------------
// Theorem 1's corollary, mechanically.
// ---------------------------------------------------------------------

/// The paper's fault model (§2.3): processes may crash or turn
/// parasitic, and the TM cannot tell. With ≤1 crash plus parasitic
/// turns quantified exhaustively, *every* catalogue TM loses
/// lasso-starvation-freedom at the bound — the obstruction-free TMs to
/// parasitic processes, the lock TM to a crashed lock holder whose
/// survivor the fair-cycle certifier flags as a crash victim.
#[test]
fn theorem1_corollary_one_crash_defeats_every_catalogue_tm() {
    let faults = FaultConfig::with_crashes(1).and_parasitic();
    let config = LivecheckConfig::new(10).with_faults(faults);
    for (name, factory) in catalog() {
        let fault_free = livecheck(&*factory, &contended(), &LivecheckConfig::new(10));
        let faulted = livecheck(&*factory, &contended(), &config);
        assert_eq!(faulted.rejected_cycles, 0, "{name}: {faulted:?}");
        // The fault space strictly contains the fault-free space.
        assert!(
            faulted.states > fault_free.states,
            "{name}: fault transitions must grow the graph ({} vs {})",
            faulted.states,
            fault_free.states
        );
        // Both fault kinds were actually exercised, on every process.
        assert_eq!(faulted.crash_injected, 0b11, "{name}: crash mask");
        assert_eq!(faulted.parasite_injected, 0b11, "{name}: parasite mask");
        // The corollary: no TM survives the fault-prone adversary.
        assert!(
            !faulted.lasso_starvation_free(),
            "{name}: must lose starvation-freedom under ≤1 crash + parasitic"
        );
        assert!(
            !faulted.fair_starvation_free(),
            "{name}: fair filtering must not rescue the verdict"
        );
        // A fault-free rerun right after is unaffected (no state leaks).
        let rerun = livecheck(&*factory, &contended(), &LivecheckConfig::new(10));
        assert_eq!(
            format!("{fault_free:?}"),
            format!("{rerun:?}"),
            "{name}: fault mode must not perturb fault-free runs"
        );
    }
}

/// The §1.1 motivating failure, certified: the global-lock TM is
/// starvation-free fault-free (it only blocks), but one crash of the
/// lock holder leaves the survivor fair-scheduled yet stuck forever —
/// the blocked verdict becomes crash-induced.
#[test]
fn global_lock_crashed_holder_is_a_certified_crash_victim() {
    let factory = || Box::new(GlobalLock::new(2, 1)) as BoxedTm;
    let fault_free = livecheck(factory, &contended(), &LivecheckConfig::new(10));
    assert!(fault_free.lasso_starvation_free());
    assert!(fault_free.crash_victims().is_empty());

    let faulted = livecheck(
        factory,
        &contended(),
        &LivecheckConfig::new(10).with_faults(FaultConfig::with_crashes(1)),
    );
    assert_eq!(faulted.rejected_cycles, 0);
    // Crashing either process leaves the other blocked on the lock: both
    // are certified crash victims, on fair (certified) blocked cycles.
    let victims = faulted.crash_victims();
    assert_eq!(victims, vec![ProcessId(0), ProcessId(1)], "{faulted:?}");
    for v in &faulted.fair_verdicts {
        assert!(v.blocked, "p{}: {faulted:?}", v.process.index());
    }
}

// ---------------------------------------------------------------------
// Fault-free byte-identity.
// ---------------------------------------------------------------------

/// Strips the wall-clock-derived values (`t_ms`, `dur_us`,
/// `states_per_sec`) so two runs of the same deterministic search
/// compare byte-for-byte on everything else.
fn normalize_stream(raw: &str) -> String {
    let mut out = String::new();
    for line in raw.lines() {
        let value = Json::parse(line).expect("stream line parses");
        let Json::Obj(pairs) = value else {
            panic!("stream line is not an object: {line}")
        };
        let kept: Vec<(String, Json)> = pairs
            .into_iter()
            .filter(|(k, _)| k != "t_ms" && k != "dur_us" && k != "states_per_sec")
            .collect();
        out.push_str(&Json::Obj(kept).to_string());
        out.push('\n');
    }
    out
}

/// `FaultConfig::none()` + `Budget::unlimited()` are structural no-ops:
/// across the whole catalogue, both checkers emit a byte-identical
/// NDJSON stream (modulo wall-clock values) and identical reports with
/// the explicit fault/budget defaults as without them. This pins the
/// degeneration argument — fault-free search trees have exactly the
/// pre-fault shape, no new events, no new fields, no partial verdicts.
#[test]
fn fault_config_none_is_byte_identical_across_the_catalogue() {
    let run_all = |explicit: bool, path: &std::path::Path| -> Vec<String> {
        let telemetry = Telemetry::to_path(path).expect("open stream");
        let mut reports = Vec::new();
        for (_, factory) in catalog() {
            let mut lc = LivecheckConfig::new(8).with_telemetry(&telemetry);
            let mut ex = ExploreConfig::new(4).with_telemetry(&telemetry);
            if explicit {
                lc = lc
                    .with_faults(FaultConfig::none())
                    .with_budget(Budget::unlimited());
                ex = ex
                    .with_faults(FaultConfig::none())
                    .with_budget(Budget::unlimited());
            }
            let live = livecheck(&*factory, &contended(), &lc);
            let explored = explore_with(&*factory, &contended(), &ex);
            assert!(live.exhausted.is_none());
            assert!(explored.exhausted.is_none());
            assert_eq!(explored.crash_injected, 0);
            assert_eq!(explored.parasite_injected, 0);
            reports.push(format!("{live:?}|{explored:?}"));
        }
        reports
    };
    let (path_a, path_b) = (temp("ident_a"), temp("ident_b"));
    let reports_a = run_all(false, &path_a);
    let reports_b = run_all(true, &path_b);
    assert_eq!(reports_a, reports_b, "reports must be identical");
    let raw_a = std::fs::read_to_string(&path_a).expect("read a");
    let raw_b = std::fs::read_to_string(&path_b).expect("read b");
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
    assert_eq!(
        normalize_stream(&raw_a),
        normalize_stream(&raw_b),
        "NDJSON streams must be byte-identical modulo wall-clock values"
    );
    // No fault/budget vocabulary leaks into fault-free streams.
    for needle in [
        "fault_injected",
        "budget_exhausted",
        "\"faults\"",
        "\"partial\"",
    ] {
        assert!(
            !raw_a.contains(needle),
            "fault-free stream must not mention {needle}"
        );
    }
}

// ---------------------------------------------------------------------
// Fault-prone search agreement and determinism.
// ---------------------------------------------------------------------

/// Crashes add nothing to safety: a crashed process's history is a
/// prefix of some fault-free schedule's history, opacity is
/// prefix-closed, and the certifier checks every prefix. So a crash-only
/// exploration must reach the fault-free verdict of the same depth, and
/// every violation it reports must extend to a fault-free violation:
/// its schedule is a prefix of some fault-free violation's schedule.
/// Checked on the whole catalogue at two and three processes and on the
/// seeded-buggy literal Fgp.
#[test]
fn crash_only_exploration_adds_nothing_to_safety() {
    let (x, y) = (X, TVarId(1));
    let mut cases: Vec<(String, BoxedTm, Vec<ClientScript>, usize)> = Vec::new();
    for tm in tm_stm::full_catalog(2, 2) {
        let scripts = vec![ClientScript::increment(x), ClientScript::transfer(x, y)];
        cases.push((format!("{} 2p", tm.name()), tm, scripts, 9));
    }
    for tm in tm_stm::full_catalog(3, 2) {
        let scripts = vec![
            ClientScript::increment(x),
            ClientScript::transfer(x, y),
            ClientScript::read_both(x, y),
        ];
        cases.push((format!("{} 3p", tm.name()), tm, scripts, 7));
    }
    cases.push((
        "fgp-literal".to_string(),
        tm_stm::literal_fgp(2, 1),
        vec![
            ClientScript::increment(x),
            ClientScript::new(vec![PlannedOp::Read(x), PlannedOp::Write(x, 5)]),
        ],
        10,
    ));
    let mut buggy_caught = false;
    for (name, template, scripts, depth) in cases {
        let factory = || template.fork();
        let fault_free = explore_schedules(factory, &scripts, depth);
        let crashed = explore_with(
            factory,
            &scripts,
            &ExploreConfig::new(depth).with_faults(FaultConfig::with_crashes(1)),
        );
        assert!(crashed.crash_injected != 0, "{name}: no crash explored");
        assert_eq!(
            crashed.all_opaque(),
            fault_free.all_opaque(),
            "{name}: a crash changed the verdict"
        );
        for v in &crashed.violations {
            assert!(
                fault_free
                    .violations
                    .iter()
                    .any(|f| f.schedule.starts_with(&v.schedule)),
                "{name}: crash-run violation {:?} (faults {:?}) extends to no fault-free one",
                v.schedule,
                v.faults
            );
        }
        buggy_caught |= !crashed.all_opaque();
    }
    assert!(buggy_caught, "the literal-Fgp leak must surface");
}

/// The fault-prone reduced graph walk and the fault-prone explorer
/// produce identical results under 1-, 2- and 4-thread rayon pools:
/// both walks are sequential, so fault edges intern into the same
/// canonical ids and the explorer visits the same tree.
#[test]
fn fault_space_exploration_is_deterministic_across_thread_counts() {
    let faults = FaultConfig::with_crashes(1).and_parasitic();
    let run_at = |threads: usize| -> (String, String) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let live = livecheck(
                || Box::new(Tl2::new(2, 1)) as BoxedTm,
                &contended(),
                &LivecheckConfig::new(8).with_faults(faults),
            );
            let explored = explore_with(
                || Box::new(Tl2::new(2, 1)) as BoxedTm,
                &contended(),
                &ExploreConfig::new(4).with_faults(faults),
            );
            (format!("{live:?}"), format!("{explored:?}"))
        })
    };
    let baseline = run_at(1);
    for threads in [2usize, 4] {
        assert_eq!(baseline, run_at(threads), "{threads} threads");
    }
}

/// The production and reference fault-prone walks agree across the
/// catalogue: same graph, same verdicts and fair verdicts, same crash
/// victims and fault masks, the same witnessed verdicts, and every edge
/// the reference re-executes matches the recorded one. Lasso contents
/// are left out: they depend on node order, which differs.
#[test]
fn fault_prone_livecheck_matches_the_reference() {
    let faults = FaultConfig::with_crashes(1).and_parasitic();
    let config = LivecheckConfig::new(8).with_faults(faults);
    let claims = |r: &LivecheckReport| {
        let witnessed: Vec<_> = r.lassos.iter().map(|l| l.witnesses).collect();
        format!(
            "{} {} {:?} {:?} {:#b} {:#b} {witnessed:?} {}",
            r.states,
            r.edges,
            r.verdicts,
            r.fair_verdicts,
            r.crash_injected,
            r.parasite_injected,
            r.rejected_cycles
        )
    };
    for (name, factory) in catalog() {
        let production = livecheck(&*factory, &contended(), &config);
        let (reference, check) = livecheck_reference(&*factory, &contended(), &config);
        assert!(production.crash_injected != 0 && production.parasite_injected != 0);
        assert_eq!(claims(&production), claims(&reference), "{name}");
        assert_eq!(production.rejected_cycles, 0, "{name}");
        assert_eq!(check.mismatches, 0, "{name}: {check:?}");
        assert!(check.rechecked > 0, "{name}");
    }
}

// ---------------------------------------------------------------------
// Budgeted graceful degradation.
// ---------------------------------------------------------------------

fn assert_partial_stream(raw: &str, engine: &str) {
    let stream = summary::summarize(raw).expect("summarize partial stream");
    assert!(stream.all_runs_have_verdicts(), "partial run still closes");
    assert!(stream.has_partial_runs(), "must be flagged partial");
    let run = stream.runs.last().expect("one run");
    assert_eq!(run.engine, engine);
    assert!(run.exhausted.is_some(), "budget_exhausted must stream");
    let verdict = run.verdict.as_ref().expect("verdict streams");
    assert!(verdict.partial, "verdict must be marked partial");
    assert_eq!(
        verdict.ok, None,
        "a partial verdict must make no headline claim"
    );
}

/// A tripped state budget stops the search, and the report degrades
/// gracefully: explicit `exhausted` reason, no headline claim, and the
/// partial verdict round-trips through the `tm-obs` summary layer.
#[test]
fn budget_exhaustion_degrades_to_an_explicit_partial_verdict() {
    // Livecheck, sequential.
    let path = temp("budget_live");
    {
        let telemetry = Telemetry::to_path(&path).expect("open stream");
        let report = livecheck(
            || Box::new(Tl2::new(2, 1)) as BoxedTm,
            &contended(),
            &LivecheckConfig::new(12)
                .with_telemetry(&telemetry)
                .with_budget(Budget::unlimited().with_max_states(5)),
        );
        assert_eq!(
            report.exhausted.as_deref(),
            Some("state budget exhausted"),
            "{report:?}"
        );
    }
    let raw = std::fs::read_to_string(&path).expect("read");
    std::fs::remove_file(&path).ok();
    assert_partial_stream(&raw, "livecheck");

    // The explorer, schedule budget.
    let path = temp("budget_explore");
    {
        let telemetry = Telemetry::to_path(&path).expect("open stream");
        let report = explore_with(
            || Box::new(Tl2::new(2, 1)) as BoxedTm,
            &contended(),
            &ExploreConfig::new(6)
                .with_telemetry(&telemetry)
                .with_budget(Budget::unlimited().with_max_schedules(3)),
        );
        assert_eq!(
            report.exhausted.as_deref(),
            Some("schedule budget exhausted"),
            "{report:?}"
        );
        // The partial prefix is still sound work: some schedules ran.
        assert!(report.schedules >= 3, "{report:?}");
    }
    let raw = std::fs::read_to_string(&path).expect("read");
    std::fs::remove_file(&path).ok();
    assert_partial_stream(&raw, "explore");
}

/// An unlimited budget reports nothing: `exhausted` stays `None` even
/// on runs that blow well past any small bound.
#[test]
fn unlimited_budget_never_trips() {
    let report = livecheck(
        || Box::new(Tl2::new(2, 1)) as BoxedTm,
        &contended(),
        &LivecheckConfig::new(12).with_budget(Budget::unlimited()),
    );
    assert!(report.exhausted.is_none());
    assert!(report.states > 5);
}

// ---------------------------------------------------------------------
// Panic containment.
// ---------------------------------------------------------------------

/// A TM wrapper that panics on the Nth invocation across all forks — a
/// deterministic stand-in for a crashing TM implementation bug.
struct PanicTm {
    inner: BoxedTm,
    fuse: Arc<AtomicUsize>,
    at: usize,
}

impl PanicTm {
    fn new(inner: BoxedTm, fuse: Arc<AtomicUsize>, at: usize) -> Self {
        PanicTm { inner, fuse, at }
    }
}

impl SteppedTm for PanicTm {
    fn name(&self) -> &'static str {
        "panic-tm"
    }
    fn process_count(&self) -> usize {
        self.inner.process_count()
    }
    fn tvar_count(&self) -> usize {
        self.inner.tvar_count()
    }
    fn invoke(&mut self, process: ProcessId, invocation: Invocation) -> Outcome {
        if self.fuse.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            panic!("injected worker panic");
        }
        self.inner.invoke(process, invocation)
    }
    fn poll(&mut self, process: ProcessId) -> Option<Response> {
        self.inner.poll(process)
    }
    fn has_pending(&self, process: ProcessId) -> bool {
        self.inner.has_pending(process)
    }
    fn fork(&self) -> BoxedTm {
        Box::new(PanicTm {
            inner: self.inner.fork(),
            fuse: Arc::clone(&self.fuse),
            at: self.at,
        })
    }
    fn state_digest(&self) -> Option<u64> {
        self.inner.state_digest()
    }
}

/// A TM that panics mid-search is contained on both livecheck walks
/// (production and reference) and on both explorer walks (optimal DPOR
/// fault-free, exhaustive with faults): the run closes with a partial
/// verdict (reason "TM step panicked") over the work done so far, and
/// the stream round-trips through `tm-obs`.
#[test]
fn panicking_frontier_worker_degrades_to_a_partial_verdict() {
    type Walk = fn(&dyn Fn() -> BoxedTm, &[ClientScript], &LivecheckConfig) -> LivecheckReport;
    let production: Walk = |factory, scripts, config| livecheck(factory, scripts, config);
    let reference: Walk =
        |factory, scripts, config| livecheck_reference(factory, scripts, config).0;
    for (walk, run) in [("production", production), ("reference", reference)] {
        let path = temp(&format!("panic_live_{walk}"));
        {
            let telemetry = Telemetry::to_path(&path).expect("open stream");
            let fuse = Arc::new(AtomicUsize::new(0));
            let report = run(
                &|| {
                    Box::new(PanicTm::new(
                        Box::new(Tl2::new(2, 1)),
                        Arc::clone(&fuse),
                        40,
                    )) as BoxedTm
                },
                &contended(),
                &LivecheckConfig::new(12).with_telemetry(&telemetry),
            );
            assert_eq!(
                report.exhausted.as_deref(),
                Some("TM step panicked"),
                "{walk}: {report:?}"
            );
            // The walk before the panic still produced a usable prefix.
            assert!(report.states > 1, "{walk}: {report:?}");
        }
        let raw = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        assert_partial_stream(&raw, "livecheck");
    }
    for (walk, config) in [
        ("optimal", ExploreConfig::new(12)),
        (
            "exhaustive",
            ExploreConfig::new(12).with_faults(FaultConfig::with_crashes(1).and_parasitic()),
        ),
    ] {
        let path = temp(&format!("panic_explore_{walk}"));
        {
            let telemetry = Telemetry::to_path(&path).expect("open stream");
            let fuse = Arc::new(AtomicUsize::new(0));
            let report = explore_with(
                || {
                    Box::new(PanicTm::new(
                        Box::new(Tl2::new(2, 1)),
                        Arc::clone(&fuse),
                        40,
                    )) as BoxedTm
                },
                &contended(),
                &config.with_telemetry(&telemetry),
            );
            assert_eq!(
                report.exhausted.as_deref(),
                Some("TM step panicked"),
                "{walk}: {report:?}"
            );
            // The walk before the panic still certified schedules.
            assert!(report.schedules > 0, "{walk}: {report:?}");
        }
        let raw = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        assert_partial_stream(&raw, "explore");
    }
}
