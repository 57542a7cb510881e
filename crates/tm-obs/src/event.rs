//! The typed, forward-compatible parser for NDJSON v1 events.
//!
//! One [`Envelope`] per stream line: the common envelope fields plus a
//! typed [`EventBody`]. Forward compatibility follows the published
//! contract (tm-telemetry module docs): unknown `ev` tags decode as
//! [`EventBody::Unknown`], unknown fields on known tags are simply not
//! looked at, and missing fields decode as zero/empty defaults — only
//! malformed JSON, a broken envelope, or a major-version bump is a
//! [`ParseError`]. The raw object is preserved on the envelope so
//! consumers can reach fields the typed layer does not model.

use tm_telemetry::Json;

/// A stream line the parser could not accept: the 1-based line number
/// and what went wrong. Unknown tags and fields are *not* errors.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number within the parsed text.
    pub line: usize,
    /// Human-readable description of the defect.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// One parsed stream line: the envelope timestamp, the typed body, and
/// the raw object (for fields the typed layer does not model).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Milliseconds since the producing handle was created (`t_ms`).
    pub t_ms: f64,
    /// The typed event body.
    pub body: EventBody,
    /// The full raw object as parsed.
    pub raw: Json,
}

/// One step of a `trace` event's witness timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// The scheduled process index.
    pub process: i64,
    /// The operation the step performed (`x.read`, `x.write(v)`,
    /// `tryC`, or `poll` for a delivery attempt on a withheld call).
    pub op: String,
    /// The TM's response, `None` while the call is withheld or a poll
    /// came back empty.
    pub resp: Option<String>,
    /// The canonical state fingerprint *after* the step, as emitted
    /// (16 hex digits); `None` when the TM does not fingerprint.
    pub digest: Option<String>,
}

/// The typed body of one v1 event (see the tm-telemetry module docs
/// for the per-tag field tables).
#[derive(Debug, Clone, PartialEq)]
pub enum EventBody {
    /// A checker run began.
    RunStart {
        /// The producing engine (`"explore"` or `"livecheck"`).
        engine: String,
        /// The TM under check.
        tm: String,
        /// The search depth bound.
        depth: i64,
        /// The process count.
        processes: i64,
    },
    /// A phase span opened.
    PhaseStart {
        /// The producing engine.
        engine: String,
        /// The phase name (e.g. `search`, `scc_certify`).
        phase: String,
    },
    /// A phase span closed.
    PhaseEnd {
        /// The producing engine.
        engine: String,
        /// The phase name.
        phase: String,
        /// The span duration in microseconds.
        dur_us: i64,
    },
    /// A rate-limited liveness signal with engine-specific gauges.
    Heartbeat {
        /// The producing engine.
        engine: String,
        /// Every gauge field, in emitted order (name → value).
        gauges: Vec<(String, Json)>,
    },
    /// The liveness checker stored a classified lasso.
    LassoFound {
        /// Steps before the cycle.
        prefix_len: i64,
        /// Steps inside the cycle.
        cycle_len: i64,
        /// Starving process indices.
        starving: Vec<i64>,
        /// Parasitic process indices.
        parasitic: Vec<i64>,
    },
    /// The safety explorer found an opacity violation.
    Violation {
        /// The producing engine.
        engine: String,
        /// The violating schedule (process indices).
        schedule: Vec<i64>,
        /// The certifier's human-readable reason.
        detail: String,
    },
    /// A per-step witness timeline, adjacent to the `violation` /
    /// `lasso_found` event it annotates.
    Trace {
        /// The producing engine.
        engine: String,
        /// `"violation"` or `"lasso"`.
        kind: String,
        /// Witness index within the run.
        idx: i64,
        /// The full witness schedule (prefix + cycle for lassos).
        schedule: Vec<i64>,
        /// Lasso only: the step index where the repeated cycle begins.
        cycle_start: Option<i64>,
        /// The replayed per-step timeline.
        steps: Vec<TraceStep>,
    },
    /// A checker exercised a fault transition (once per distinct fault,
    /// at end of run).
    FaultInjected {
        /// The producing engine.
        engine: String,
        /// `"crash"` or `"parasite"`.
        kind: String,
        /// The faulted process index.
        process: i64,
    },
    /// An exploration budget tripped: the run's verdict is partial.
    BudgetExhausted {
        /// The producing engine.
        engine: String,
        /// Which budget tripped, human-readable.
        reason: String,
    },
    /// A run's headline result.
    Verdict {
        /// The producing engine.
        engine: String,
        /// The TM under check.
        tm: String,
        /// The boolean headline (`all_opaque`, `starvation_free`, or
        /// `conserved`), whichever the producer emits. `None` for a
        /// partial verdict — a truncated run makes no claim.
        ok: Option<bool>,
        /// Whether the producer marked the verdict partial (a budget
        /// tripped or a worker died before the search completed).
        partial: bool,
        /// Every non-envelope field, in emitted order.
        fields: Vec<(String, Json)>,
    },
    /// A deterministic counter snapshot.
    CounterSnapshot {
        /// The snapshot label (the TM name in both checkers).
        label: String,
        /// The emitted counters in snapshot order (zero-valued counters
        /// are elided at the source).
        counters: Vec<(String, i64)>,
    },
    /// An event tag this consumer does not know — skipped, per the v1
    /// contract.
    Unknown {
        /// The unrecognized tag.
        tag: String,
    },
}

impl EventBody {
    /// The stable tag this body was parsed from.
    pub fn tag(&self) -> &str {
        match self {
            EventBody::RunStart { .. } => "run_start",
            EventBody::PhaseStart { .. } => "phase_start",
            EventBody::PhaseEnd { .. } => "phase_end",
            EventBody::Heartbeat { .. } => "heartbeat",
            EventBody::LassoFound { .. } => "lasso_found",
            EventBody::Violation { .. } => "violation",
            EventBody::FaultInjected { .. } => "fault_injected",
            EventBody::BudgetExhausted { .. } => "budget_exhausted",
            EventBody::Trace { .. } => "trace",
            EventBody::Verdict { .. } => "verdict",
            EventBody::CounterSnapshot { .. } => "counter_snapshot",
            EventBody::Unknown { tag } => tag,
        }
    }
}

/// The envelope fields every event must carry, stripped before typed
/// field extraction.
const ENVELOPE: &[&str] = &["v", "ev", "t_ms"];

fn get_str(obj: &Json, key: &str) -> String {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

fn get_int(obj: &Json, key: &str) -> i64 {
    obj.get(key).and_then(Json::as_int).unwrap_or(0)
}

fn get_num(obj: &Json, key: &str) -> Option<f64> {
    match obj.get(key) {
        Some(Json::Num(x)) => Some(*x),
        Some(Json::Int(i)) => Some(*i as f64),
        _ => None,
    }
}

fn get_int_arr(obj: &Json, key: &str) -> Vec<i64> {
    match obj.get(key) {
        Some(Json::Arr(items)) => items.iter().filter_map(Json::as_int).collect(),
        _ => Vec::new(),
    }
}

fn get_bool(obj: &Json, key: &str) -> Option<bool> {
    match obj.get(key) {
        Some(Json::Bool(b)) => Some(*b),
        _ => None,
    }
}

fn non_envelope_fields(obj: &Json) -> Vec<(String, Json)> {
    match obj {
        Json::Obj(pairs) => pairs
            .iter()
            .filter(|(k, _)| !ENVELOPE.contains(&k.as_str()))
            .cloned()
            .collect(),
        _ => Vec::new(),
    }
}

fn trace_steps(obj: &Json) -> Vec<TraceStep> {
    let Some(Json::Arr(items)) = obj.get("steps") else {
        return Vec::new();
    };
    items
        .iter()
        .map(|step| TraceStep {
            process: get_int(step, "p"),
            op: get_str(step, "op"),
            resp: step.get("resp").and_then(Json::as_str).map(str::to_string),
            digest: step
                .get("digest")
                .and_then(Json::as_str)
                .map(str::to_string),
        })
        .collect()
}

/// Parses one NDJSON line into a typed [`Envelope`].
///
/// `line_no` is only used for error reporting (1-based).
///
/// # Errors
///
/// Malformed JSON, a non-object line, a missing envelope field, or a
/// schema version other than 1. Unknown tags and fields are accepted.
pub fn parse_line(line: &str, line_no: usize) -> Result<Envelope, ParseError> {
    let err = |message: String| ParseError {
        line: line_no,
        message,
    };
    let raw = Json::parse(line).map_err(|e| err(format!("not valid JSON ({e})")))?;
    if !matches!(raw, Json::Obj(_)) {
        return Err(err("event line is not a JSON object".to_string()));
    }
    match raw.get("v").and_then(Json::as_int) {
        Some(1) => {}
        Some(v) => return Err(err(format!("unsupported schema version {v} (expected 1)"))),
        None => return Err(err("missing schema version field `v`".to_string())),
    }
    let t_ms = get_num(&raw, "t_ms").ok_or_else(|| err("missing envelope field `t_ms`".into()))?;
    let tag = raw
        .get("ev")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing envelope field `ev`".to_string()))?
        .to_string();

    let body = match tag.as_str() {
        "run_start" => EventBody::RunStart {
            engine: get_str(&raw, "engine"),
            tm: get_str(&raw, "tm"),
            depth: get_int(&raw, "depth"),
            processes: get_int(&raw, "processes"),
        },
        "phase_start" => EventBody::PhaseStart {
            engine: get_str(&raw, "engine"),
            phase: get_str(&raw, "phase"),
        },
        "phase_end" => EventBody::PhaseEnd {
            engine: get_str(&raw, "engine"),
            phase: get_str(&raw, "phase"),
            dur_us: get_int(&raw, "dur_us"),
        },
        "heartbeat" => EventBody::Heartbeat {
            engine: get_str(&raw, "engine"),
            gauges: non_envelope_fields(&raw)
                .into_iter()
                .filter(|(k, _)| k != "engine")
                .collect(),
        },
        "lasso_found" => EventBody::LassoFound {
            prefix_len: get_int(&raw, "prefix_len"),
            cycle_len: get_int(&raw, "cycle_len"),
            starving: get_int_arr(&raw, "starving"),
            parasitic: get_int_arr(&raw, "parasitic"),
        },
        "violation" => EventBody::Violation {
            engine: get_str(&raw, "engine"),
            schedule: get_int_arr(&raw, "schedule"),
            detail: get_str(&raw, "detail"),
        },
        "trace" => EventBody::Trace {
            engine: get_str(&raw, "engine"),
            kind: get_str(&raw, "kind"),
            idx: get_int(&raw, "idx"),
            schedule: get_int_arr(&raw, "schedule"),
            cycle_start: raw.get("cycle_start").and_then(Json::as_int),
            steps: trace_steps(&raw),
        },
        "fault_injected" => EventBody::FaultInjected {
            engine: get_str(&raw, "engine"),
            kind: get_str(&raw, "kind"),
            process: get_int(&raw, "process"),
        },
        "budget_exhausted" => EventBody::BudgetExhausted {
            engine: get_str(&raw, "engine"),
            reason: get_str(&raw, "reason"),
        },
        "verdict" => EventBody::Verdict {
            engine: get_str(&raw, "engine"),
            tm: get_str(&raw, "tm"),
            ok: get_bool(&raw, "all_opaque")
                .or_else(|| get_bool(&raw, "starvation_free"))
                .or_else(|| get_bool(&raw, "conserved")),
            partial: get_bool(&raw, "partial").unwrap_or(false),
            fields: non_envelope_fields(&raw),
        },
        "counter_snapshot" => EventBody::CounterSnapshot {
            label: get_str(&raw, "label"),
            counters: match raw.get("counters") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .filter_map(|(k, v)| v.as_int().map(|i| (k.clone(), i)))
                    .collect(),
                _ => Vec::new(),
            },
        },
        _ => EventBody::Unknown { tag },
    };
    Ok(Envelope { t_ms, body, raw })
}

/// Parses a whole stream (blank lines skipped), stopping at the first
/// malformed line.
///
/// # Errors
///
/// The first [`ParseError`] encountered; see [`parse_line`].
pub fn parse_stream(text: &str) -> Result<Vec<Envelope>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_line(line, i + 1)?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_run_start() {
        let env = parse_line(
            r#"{"v":1,"ev":"run_start","t_ms":0.5,"engine":"explore","tm":"fgp","depth":8,"processes":2}"#,
            1,
        )
        .expect("parse");
        assert_eq!(env.t_ms, 0.5);
        assert_eq!(
            env.body,
            EventBody::RunStart {
                engine: "explore".into(),
                tm: "fgp".into(),
                depth: 8,
                processes: 2,
            }
        );
    }

    // The forward-compatibility contract (tm-telemetry module docs):
    // consumers must ignore unknown `ev` tags and unknown fields on
    // known tags within a major version. This is the pin.
    #[test]
    fn unknown_tags_and_fields_are_skipped_not_errors() {
        // An unknown tag decodes as Unknown, never an error.
        let env = parse_line(
            r#"{"v":1,"ev":"quantum_leap","t_ms":1.0,"surprise":[1,2,3]}"#,
            1,
        )
        .expect("unknown tag must parse");
        assert_eq!(
            env.body,
            EventBody::Unknown {
                tag: "quantum_leap".into()
            }
        );

        // Unknown fields on a known tag are ignored; the known fields
        // still decode.
        let env = parse_line(
            r#"{"v":1,"ev":"verdict","t_ms":2.0,"engine":"explore","tm":"tl2","all_opaque":true,"schedules":9,"flux_capacitance":0.9,"shiny":{"nested":true}}"#,
            2,
        )
        .expect("unknown fields must parse");
        match env.body {
            EventBody::Verdict { engine, tm, ok, .. } => {
                assert_eq!(engine, "explore");
                assert_eq!(tm, "tl2");
                assert_eq!(ok, Some(true));
            }
            other => panic!("expected a verdict, got {other:?}"),
        }

        // A whole stream mixing both still parses end to end.
        let stream = concat!(
            "{\"v\":1,\"ev\":\"run_start\",\"t_ms\":0.1,\"engine\":\"livecheck\",\"tm\":\"fgp\",\"depth\":4,\"processes\":2,\"extra\":null}\n",
            "{\"v\":1,\"ev\":\"from_the_future\",\"t_ms\":0.2}\n",
            "\n",
            "{\"v\":1,\"ev\":\"heartbeat\",\"t_ms\":0.3,\"engine\":\"livecheck\",\"states\":7,\"new_gauge\":\"ok\"}\n",
        );
        let events = parse_stream(stream).expect("mixed stream must parse");
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].body.tag(), "from_the_future");
        match &events[2].body {
            EventBody::Heartbeat { gauges, .. } => {
                // Unknown gauges are carried through generically.
                assert!(gauges.iter().any(|(k, _)| k == "new_gauge"));
            }
            other => panic!("expected a heartbeat, got {other:?}"),
        }
    }

    #[test]
    fn version_bumps_and_broken_envelopes_are_errors() {
        assert!(parse_line(r#"{"v":2,"ev":"run_start","t_ms":0.1}"#, 1).is_err());
        assert!(parse_line(r#"{"ev":"run_start","t_ms":0.1}"#, 1).is_err());
        assert!(parse_line(r#"{"v":1,"t_ms":0.1}"#, 1).is_err());
        assert!(parse_line(r#"{"v":1,"ev":"run_start"}"#, 1).is_err());
        assert!(parse_line("[1,2,3]", 1).is_err());
        assert!(parse_line("not json", 1).is_err());
    }
}
