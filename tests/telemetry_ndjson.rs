//! NDJSON stream validation: drive both checkers with a file-backed
//! telemetry sink and verify the emitted event log against the
//! versioned schema contract in `tm_telemetry`'s module docs — every
//! line parses as a JSON object, carries the `v`/`ev`/`t_ms` envelope,
//! uses only the published event tags, and the catalogue run contains
//! the required phase spans, heartbeats and per-TM verdicts.

use tm_automata::FgpVariant;
use tm_core::TVarId;
use tm_sim::{explore_with, livecheck, ClientScript, ExploreConfig, LivecheckConfig, PlannedOp};
use tm_stm::{BoxedTm, FgpTm};
use tm_telemetry::{Json, Telemetry, EVENT_TAGS};

const X: TVarId = TVarId(0);

type Factory = Box<dyn Fn() -> BoxedTm>;

fn contended() -> Vec<ClientScript> {
    vec![
        ClientScript::new(vec![PlannedOp::Write(X, 1)]),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
    ]
}

/// A four-TM slice of the catalogue, in catalogue order: the greedy
/// automaton TM first, the blocking global-lock TM last.
fn catalog() -> Vec<(&'static str, Factory)> {
    tm_stm::full_catalog(2, 1)
        .into_iter()
        .filter(|tm| ["fgp", "tl2", "norec", "global-lock"].contains(&tm.name()))
        .map(|tm| (tm.name(), Box::new(move || tm.fork()) as Factory))
        .collect()
}

/// Parses every line of the stream, asserting the envelope contract,
/// and returns the events as (tag, object) pairs.
fn parse_stream(raw: &str) -> Vec<(String, Json)> {
    let mut events = Vec::new();
    for (i, line) in raw.lines().enumerate() {
        let value = Json::parse(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON ({e}): {line}", i + 1));
        assert_eq!(
            value.get("v").and_then(Json::as_int),
            Some(1),
            "line {}: wrong or missing schema version: {line}",
            i + 1
        );
        assert!(
            value.get("t_ms").is_some(),
            "line {}: missing t_ms: {line}",
            i + 1
        );
        let tag = value
            .get("ev")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("line {}: missing ev tag: {line}", i + 1))
            .to_string();
        assert!(
            EVENT_TAGS.contains(&tag.as_str()),
            "line {}: unknown event tag {tag:?}: {line}",
            i + 1
        );
        events.push((tag, value));
    }
    events
}

fn count(events: &[(String, Json)], tag: &str) -> usize {
    events.iter().filter(|(t, _)| t == tag).count()
}

/// The `trace` contract (tm-telemetry module docs): every step object
/// carries a process, an operation, and — for the digest-capable
/// catalogue — a non-empty state fingerprint.
fn assert_trace_steps_well_formed(trace: &Json) {
    let Some(Json::Arr(steps)) = trace.get("steps") else {
        panic!("trace must carry a steps array: {trace}");
    };
    let Some(Json::Arr(schedule)) = trace.get("schedule") else {
        panic!("trace must carry its schedule: {trace}");
    };
    assert_eq!(
        steps.len(),
        schedule.len(),
        "one step object per scheduled step: {trace}"
    );
    for (step, scheduled) in steps.iter().zip(schedule) {
        assert_eq!(
            step.get("p").and_then(Json::as_int),
            scheduled.as_int(),
            "step process must match the schedule: {trace}"
        );
        assert!(
            step.get("op")
                .and_then(Json::as_str)
                .is_some_and(|op| !op.is_empty()),
            "step must carry an operation: {trace}"
        );
        assert!(
            step.get("digest")
                .and_then(Json::as_str)
                .is_some_and(|d| !d.is_empty()),
            "catalogue TMs fingerprint: digest must be non-empty: {trace}"
        );
    }
}

#[test]
fn livecheck_catalogue_stream_is_schema_valid() {
    let path = std::env::temp_dir().join(format!(
        "tm_telemetry_livecheck_{}.ndjson",
        std::process::id()
    ));
    {
        let telemetry = Telemetry::to_path(&path)
            .expect("open stream")
            .with_timing();
        let config = LivecheckConfig::new(10).with_telemetry(&telemetry);
        for (name, factory) in catalog() {
            let report = livecheck(&*factory, &contended(), &config);
            assert_eq!(report.rejected_cycles, 0, "{name}");
        }
        // The handle drops here, flushing the line-buffered sink.
    }
    let raw = std::fs::read_to_string(&path).expect("read stream");
    std::fs::remove_file(&path).ok();
    let events = parse_stream(&raw);
    let tms = catalog().len();

    // The acceptance contract: one run_start and one verdict per TM,
    // at least one phase span and one heartbeat overall.
    assert_eq!(count(&events, "run_start"), tms);
    assert_eq!(count(&events, "verdict"), tms);
    assert!(count(&events, "phase_start") >= 1, "no phase spans");
    assert_eq!(count(&events, "phase_start"), count(&events, "phase_end"));
    assert!(count(&events, "heartbeat") >= tms, "missing heartbeats");
    assert_eq!(count(&events, "counter_snapshot"), tms);

    // Every stored lasso is immediately followed by its witness
    // timeline: a `trace` event whose schedule replays prefix + cycle.
    assert!(count(&events, "lasso_found") >= 1, "no lasso streamed");
    assert_eq!(count(&events, "lasso_found"), count(&events, "trace"));
    for (i, (tag, lasso)) in events.iter().enumerate() {
        if tag != "lasso_found" {
            continue;
        }
        let (next_tag, trace) = events
            .get(i + 1)
            .unwrap_or_else(|| panic!("lasso_found at line {} ends the stream", i + 1));
        assert_eq!(next_tag, "trace", "trace must be adjacent to its lasso");
        assert_eq!(
            trace.get("engine").and_then(Json::as_str),
            Some("livecheck")
        );
        assert_eq!(trace.get("kind").and_then(Json::as_str), Some("lasso"));
        let prefix_len = lasso.get("prefix_len").and_then(Json::as_int).unwrap();
        let cycle_len = lasso.get("cycle_len").and_then(Json::as_int).unwrap();
        assert_eq!(
            trace.get("cycle_start").and_then(Json::as_int),
            Some(prefix_len),
            "cycle marker must sit at the end of the prefix: {trace}"
        );
        match trace.get("schedule") {
            Some(Json::Arr(s)) => assert_eq!(
                s.len() as i64,
                prefix_len + cycle_len,
                "trace schedule must replay prefix + cycle: {trace}"
            ),
            other => panic!("trace schedule missing or mistyped: {other:?}"),
        }
        assert_trace_steps_well_formed(trace);
    }

    // Verdicts carry the per-TM outcome fields in catalogue order.
    let verdicts: Vec<&Json> = events
        .iter()
        .filter(|(t, _)| t == "verdict")
        .map(|(_, v)| v)
        .collect();
    for ((name, _), verdict) in catalog().iter().zip(&verdicts) {
        assert_eq!(verdict.get("tm").and_then(Json::as_str), Some(*name));
        assert_eq!(
            verdict.get("engine").and_then(Json::as_str),
            Some("livecheck")
        );
        assert!(verdict.get("starvation_free").is_some());
        assert!(verdict.get("states").and_then(Json::as_int).unwrap_or(0) > 0);
    }
    // The greedy TM starves under contention; the blocking TM does not.
    assert_eq!(verdicts[0].get("starvation_free"), Some(&Json::Bool(false)));
    assert_eq!(
        verdicts[tms - 1].get("starvation_free"),
        Some(&Json::Bool(true))
    );
}

#[test]
fn explorer_stream_is_schema_valid() {
    let path = std::env::temp_dir().join(format!(
        "tm_telemetry_explore_{}.ndjson",
        std::process::id()
    ));
    {
        let telemetry = Telemetry::to_path(&path).expect("open stream");
        let scripts = vec![ClientScript::increment(X), ClientScript::increment(X)];
        let report = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm,
            &scripts,
            &ExploreConfig::new(10).with_telemetry(&telemetry),
        );
        assert!(report.all_opaque());
        // A verdict-bearing run: violation events must stream too.
        let buggy = vec![
            ClientScript::increment(X),
            ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 5)]),
        ];
        let caught = explore_with(
            || tm_stm::literal_fgp(2, 1),
            &buggy,
            &ExploreConfig::new(8).with_telemetry(&telemetry),
        );
        assert!(!caught.all_opaque());
    }
    let raw = std::fs::read_to_string(&path).expect("read stream");
    std::fs::remove_file(&path).ok();
    let events = parse_stream(&raw);

    assert_eq!(count(&events, "run_start"), 2);
    assert_eq!(count(&events, "verdict"), 2);
    assert!(count(&events, "phase_start") >= 1, "no phase spans");
    assert!(count(&events, "heartbeat") >= 2, "missing heartbeats");
    assert!(count(&events, "violation") >= 1, "violation not streamed");
    let violation = &events.iter().find(|(t, _)| t == "violation").unwrap().1;
    assert!(
        matches!(violation.get("schedule"), Some(Json::Arr(s)) if !s.is_empty()),
        "violation must carry its schedule: {violation}"
    );

    // Every streamed violation is immediately followed by its witness
    // timeline, replaying exactly the violating schedule.
    assert_eq!(count(&events, "violation"), count(&events, "trace"));
    for (i, (tag, violation)) in events.iter().enumerate() {
        if tag != "violation" {
            continue;
        }
        let (next_tag, trace) = events
            .get(i + 1)
            .unwrap_or_else(|| panic!("violation at line {} ends the stream", i + 1));
        assert_eq!(next_tag, "trace", "trace must be adjacent to its violation");
        assert_eq!(trace.get("engine").and_then(Json::as_str), Some("explore"));
        assert_eq!(trace.get("kind").and_then(Json::as_str), Some("violation"));
        assert_eq!(
            trace.get("schedule"),
            violation.get("schedule"),
            "trace must replay the violating schedule verbatim"
        );
        assert!(
            trace.get("cycle_start").is_none(),
            "violation traces are finite — no cycle marker: {trace}"
        );
        assert_trace_steps_well_formed(trace);
    }
}
