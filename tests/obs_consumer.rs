//! Producer↔consumer integration: the engines stream NDJSON through a
//! file-backed telemetry handle and the `tm-obs` consumer layer is held
//! to its contracts against the live engines —
//!
//! * `summary` counter tables must be **byte-identical** to the
//!   engine's own in-memory [`Snapshot`] (the counter_snapshot event is
//!   emitted from the same snapshot, verbatim);
//! * `explain` must render annotated witness timelines for a real
//!   opacity violation and a real starving lasso;
//! * `diff` must pass two identical live streams, flag the counter drift
//!   of a deeper bound, and refuse a stream without a counter snapshot.

use tm_automata::FgpVariant;
use tm_core::TVarId;
use tm_liveness_repro::obs::{diff, explain, summary};
use tm_sim::{explore_with, livecheck, ClientScript, ExploreConfig, LivecheckConfig, PlannedOp};
use tm_stm::{BoxedTm, FgpTm, GlobalLock, NOrec, Tl2};
use tm_telemetry::Telemetry;

const X: TVarId = TVarId(0);

fn contended() -> Vec<ClientScript> {
    vec![
        ClientScript::new(vec![PlannedOp::Write(X, 1)]),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
    ]
}

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tm_obs_{name}_{}.ndjson", std::process::id()))
}

/// Runs `check` against a fresh file-backed handle (so the captured
/// snapshot is exactly what the run's counter_snapshot event carried)
/// and returns the run's stream, its nonzero counters and its headline.
fn streamed(
    name: &str,
    check: impl FnOnce(&Telemetry) -> bool,
) -> (String, Vec<(String, i64)>, bool) {
    let path = temp(name);
    let (counters, ok) = {
        let telemetry = Telemetry::to_path(&path).expect("open stream");
        let ok = check(&telemetry);
        let counters = telemetry
            .snapshot()
            .nonzero()
            .iter()
            .map(|&(counter, v)| (counter.to_string(), i64::try_from(v).unwrap_or(i64::MAX)))
            .collect();
        (counters, ok)
    };
    let stream = std::fs::read_to_string(&path).expect("read stream");
    std::fs::remove_file(&path).ok();
    (stream, counters, ok)
}

#[test]
fn summary_counters_are_byte_identical_to_engine_snapshots() {
    type Factory = Box<dyn Fn() -> BoxedTm>;
    let catalog: Vec<(&str, Factory)> = vec![
        (
            "fgp",
            Box::new(|| Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm),
        ),
        ("tl2", Box::new(|| Box::new(Tl2::new(2, 1)) as BoxedTm)),
        ("norec", Box::new(|| Box::new(NOrec::new(2, 1)) as BoxedTm)),
        (
            "global-lock",
            Box::new(|| Box::new(GlobalLock::new(2, 1)) as BoxedTm),
        ),
    ];
    let mut stream = String::new();
    let mut engine_truth = Vec::new();
    for (name, factory) in &catalog {
        let (run, counters, starvation_free) = streamed(&format!("summary_{name}"), |telemetry| {
            let config = LivecheckConfig::new(10).with_telemetry(telemetry);
            let report = livecheck(&**factory, &contended(), &config);
            assert_eq!(report.rejected_cycles, 0, "{name}");
            report.lasso_starvation_free()
        });
        stream.push_str(&run);
        engine_truth.push(("livecheck", *name, counters, starvation_free));
    }
    // Explorer streams pass through the same consumer: one fault-free
    // run, so the production optimal-DPOR walk.
    let (run, counters, all_opaque) = streamed("summary_explore", |telemetry| {
        explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm,
            &contended(),
            &ExploreConfig::new(8).with_telemetry(telemetry),
        )
        .all_opaque()
    });
    stream.push_str(&run);
    engine_truth.push(("explore", "fgp", counters, all_opaque));

    let summary = summary::summarize(&stream).expect("summarize");
    assert_eq!(summary.runs.len(), engine_truth.len());
    assert_eq!(summary.unknown_events, 0);
    assert!(summary.all_runs_have_verdicts());
    for (run, (engine, name, counters, ok)) in summary.runs.iter().zip(&engine_truth) {
        assert_eq!(run.engine, *engine);
        assert_eq!(run.tm, *name);
        assert_eq!(run.counter_label.as_deref(), Some(*name));
        // Byte-identical: the summarized table is the engine snapshot —
        // same counters, same order, same values.
        assert_eq!(&run.counters, counters, "{engine}/{name}: summary diverged");
        assert_eq!(
            run.verdict.as_ref().and_then(|v| v.ok),
            Some(*ok),
            "{engine}/{name}: verdict headline diverged"
        );
    }

    // The rendered report and matrix carry the same truth.
    let rendered = summary::render(&summary);
    assert!(rendered.contains("run 0: livecheck fgp"), "{rendered}");
    let matrix = summary::render_matrix(&summary);
    let fgp = matrix.lines().find(|l| l.starts_with("fgp ")).unwrap();
    assert!(fgp.contains('✗'), "fgp starves under contention: {matrix}");
    let gl = matrix
        .lines()
        .find(|l| l.starts_with("global-lock"))
        .unwrap();
    assert!(gl.contains('✓'), "global-lock is starvation-free: {matrix}");
}

#[test]
fn explain_renders_live_witness_timelines() {
    let path = temp("explain");
    {
        let telemetry = Telemetry::to_path(&path).expect("open stream");
        // A real opacity violation: the literal Fgp transcription lets
        // a doomed read slip through on this workload.
        let buggy = vec![
            ClientScript::increment(X),
            ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 5)]),
        ];
        let caught = explore_with(
            || tm_stm::literal_fgp(2, 1),
            &buggy,
            &ExploreConfig::new(8).with_telemetry(&telemetry),
        );
        assert!(!caught.all_opaque(), "expected a violation to explain");
        // A real starving lasso: greedy Fgp under write contention.
        let report = livecheck(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm,
            &contended(),
            &LivecheckConfig::new(10).with_telemetry(&telemetry),
        );
        assert!(!report.lasso_starvation_free(), "expected a lasso");
    }
    let stream = std::fs::read_to_string(&path).expect("read stream");
    std::fs::remove_file(&path).ok();

    let report = explain::explain(&stream).expect("explain");
    // The violation block: header, the checker's detail line, and a
    // replayed timeline with real operations and digests.
    assert!(
        report.contains("explore/fgp-literal · violation #0"),
        "{report}"
    );
    assert!(report.contains("detail:"), "{report}");
    assert!(report.contains("x.write("), "{report}");
    // The lasso block: header, classification, and the cycle marker.
    assert!(report.contains("livecheck/fgp · lasso #0"), "{report}");
    assert!(report.contains("starving: p"), "{report}");
    assert!(report.contains("↻ cycle (repeats forever):"), "{report}");
    assert!(report.contains("suffix repeats"), "{report}");
}

#[test]
fn diff_flags_counter_drift_between_live_streams() {
    let livecheck_stream = |name: &str, depth: usize| {
        streamed(name, |telemetry| {
            let config = LivecheckConfig::new(depth).with_telemetry(telemetry);
            livecheck(
                || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm,
                &contended(),
                &config,
            )
            .lasso_starvation_free()
        })
        .0
    };
    let load = |stream: &str| diff::DiffInput::load(stream).expect("stream has a snapshot");
    let thresholds = diff::Thresholds::default();
    let baseline_stream = livecheck_stream("diff_a", 10);
    let baseline = load(&baseline_stream);

    // Two runs of the same check count the same work.
    let report = diff::diff(
        &baseline,
        &load(&livecheck_stream("diff_b", 10)),
        &thresholds,
    );
    assert!(report.is_clean(), "identical runs drifted: {report:?}");
    assert!(report.compared > 0, "nothing compared");

    // A shallower bound explores less: the drift is reported.
    let report = diff::diff(
        &baseline,
        &load(&livecheck_stream("diff_shallow", 6)),
        &thresholds,
    );
    assert!(!report.is_clean(), "shallower bound reported no drift");

    // This graph closes by depth 10 (33 states), and each state is
    // expanded once, so a deeper bound counts the same work.
    let report = diff::diff(
        &baseline,
        &load(&livecheck_stream("diff_deep", 16)),
        &thresholds,
    );
    assert!(report.is_clean(), "a closed graph drifted: {report:?}");

    // A stream cut before its counter_snapshot (a producer that died
    // mid-run) has nothing to compare: loading it is an error.
    let cut = baseline_stream
        .find("\"counter_snapshot\"")
        .and_then(|at| baseline_stream[..at].rfind('\n'))
        .expect("the stream carries a snapshot after its run_start");
    assert!(diff::DiffInput::load(&baseline_stream[..=cut]).is_err());
}
