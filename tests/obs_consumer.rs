//! Producer↔consumer integration: the engines stream NDJSON through a
//! file-backed telemetry handle and the `tm-obs` consumer layer is held
//! to its contracts against the live engines —
//!
//! * `summary` counter tables must be **byte-identical** to the
//!   engine's own in-memory [`Snapshot`] (the counter_snapshot event is
//!   emitted from the same snapshot, verbatim);
//! * `explain` must render annotated witness timelines for a real
//!   opacity violation and a real starving lasso;
//! * `diff` must pass the checked-in `BENCH_*.json` artifacts against
//!   themselves and fail a synthetically regressed copy.

use tm_automata::FgpVariant;
use tm_core::TVarId;
use tm_liveness_repro::obs::{diff, explain, summary};
use tm_sim::{explore_with, livecheck, ClientScript, ExploreConfig, LivecheckConfig, PlannedOp};
use tm_stm::{BoxedTm, FgpTm, GlobalLock, NOrec, Tl2};
use tm_telemetry::{Json, Telemetry};

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
        // One fresh handle (and file) per run: the captured Snapshot is
        // then exactly what the run's counter_snapshot event carried.
        let path = temp(&format!("summary_{name}"));
        let report = {
            let telemetry = Telemetry::to_path(&path).expect("open stream");
            let config = LivecheckConfig::new(10).with_telemetry(&telemetry);
            let report = livecheck(&**factory, &contended(), &config);
            engine_truth.push((
                telemetry.snapshot().nonzero(),
                report.lasso_starvation_free(),
            ));
            report
        };
        assert_eq!(report.rejected_cycles, 0, "{name}");
        stream.push_str(&std::fs::read_to_string(&path).expect("read stream"));
        std::fs::remove_file(&path).ok();
    }

    let summary = summary::summarize(&stream).expect("summarize");
    assert_eq!(summary.runs.len(), catalog.len());
    assert_eq!(summary.unknown_events, 0);
    assert!(summary.all_runs_have_verdicts());
    for (run, ((name, _), (snapshot, starvation_free))) in
        summary.runs.iter().zip(catalog.iter().zip(&engine_truth))
    {
        assert_eq!(run.engine, "livecheck");
        assert_eq!(run.tm, *name);
        assert_eq!(run.counter_label.as_deref(), Some(*name));
        // Byte-identical: the summarized table is the engine snapshot —
        // same counters, same order, same values.
        let expected: Vec<(String, i64)> = snapshot
            .iter()
            .map(|&(counter, v)| (counter.to_string(), i64::try_from(v).unwrap_or(i64::MAX)))
            .collect();
        assert_eq!(run.counters, expected, "{name}: summary diverged");
        assert_eq!(
            run.verdict.as_ref().and_then(|v| v.ok),
            Some(*starvation_free),
            "{name}: verdict headline diverged"
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

/// Scales every float under a key ending in `_ms` — a synthetic
/// slowdown that the diff gate must catch.
fn slow_down(value: &mut Json) {
    match value {
        Json::Obj(pairs) => {
            for (key, v) in pairs {
                if key.ends_with("_ms") {
                    if let Json::Num(x) = v {
                        *x *= 100.0;
                    }
                }
                slow_down(v);
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(slow_down),
        _ => {}
    }
}

#[test]
fn diff_gates_the_checked_in_bench_artifacts() {
    let thresholds = diff::Thresholds::default();
    for name in ["BENCH_explorer.json", "BENCH_livecheck.json"] {
        let text = std::fs::read_to_string(format!("{}/{name}", env!("CARGO_MANIFEST_DIR")))
            .expect("checked-in artifact");
        let baseline = diff::DiffInput::load(&text).expect("load artifact");

        // Self-diff is clean: the artifact passes its own gate.
        let report = diff::diff(&baseline, &baseline, &thresholds).expect("diff");
        assert!(report.is_clean(), "{name} self-diff regressed: {report:?}");
        assert!(report.compared > 0, "{name}: nothing compared");

        // A 100× slowdown in every *_ms column must trip the gate.
        let mut regressed = Json::parse(&text).expect("artifact parses");
        slow_down(&mut regressed);
        let candidate = diff::DiffInput::load(&regressed.to_string()).expect("load regressed");
        let report = diff::diff(&baseline, &candidate, &thresholds).expect("diff");
        assert!(!report.is_clean(), "{name}: regression not detected");
        assert!(
            report.regressions.iter().any(|r| r.contains("_ms")),
            "{name}: no _ms regression reported: {report:?}"
        );

        // Cross-machine comparisons are refused unless overridden. The
        // foreign copy claims a core count the artifact does not have.
        let cores = Json::parse(&text)
            .expect("artifact parses")
            .get("cores")
            .and_then(Json::as_int)
            .expect("artifact records cores");
        let other_cores = text.replacen(
            &format!("\"cores\":{cores}"),
            &format!("\"cores\":{}", cores + 64),
            1,
        );
        let foreign = diff::DiffInput::load(&other_cores).expect("load foreign");
        assert!(
            diff::diff(&baseline, &foreign, &thresholds).is_err(),
            "{name}: cross-cores diff must be refused"
        );
        let waived = diff::Thresholds {
            ignore_cores: true,
            ..Default::default()
        };
        let report = diff::diff(&baseline, &foreign, &waived).expect("waived diff");
        assert!(report.is_clean(), "{name}: cores waiver should pass");
    }
}
