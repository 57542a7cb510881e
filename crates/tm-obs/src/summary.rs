//! Stream aggregation: per-run reports and the verdict matrix.
//!
//! A *run* is everything between one `run_start` and the next; both
//! checkers emit their events strictly in run order on one handle, so
//! this grouping is exact. The counter table of a run is the last
//! `counter_snapshot` the run emitted, **verbatim** — the engines emit
//! snapshots from their own in-memory [`tm_telemetry::Snapshot`], so a
//! summary's totals cross-check byte-identical against the engine
//! (asserted by the `obs_consumer` integration suite).

use tm_telemetry::Json;

use crate::event::{parse_stream, EventBody, ParseError};

/// The headline result of one run, as streamed in its `verdict` event.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictSummary {
    /// The boolean headline (`all_opaque` / `starvation_free`), when
    /// the engine emitted one.
    pub ok: Option<bool>,
    /// Whether the engine marked the verdict partial (a budget tripped
    /// or a worker died): the run closed without a headline claim.
    pub partial: bool,
    /// Every non-envelope verdict field, in emitted order.
    pub fields: Vec<(String, Json)>,
}

/// Everything one run of one engine streamed, aggregated.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// The producing engine (`"explore"` / `"livecheck"` / custom).
    pub engine: String,
    /// The TM under check.
    pub tm: String,
    /// The depth bound the run announced.
    pub depth: i64,
    /// The process count the run announced.
    pub processes: i64,
    /// Completed phase spans within the run: name → duration (µs).
    pub phases: Vec<(String, i64)>,
    /// Heartbeats observed.
    pub heartbeats: usize,
    /// `violation` events observed.
    pub violations: usize,
    /// `lasso_found` events observed.
    pub lassos: usize,
    /// `trace` events observed.
    pub traces: usize,
    /// `fault_injected` events observed (distinct fault transitions the
    /// run exercised).
    pub faults: usize,
    /// The reason of the run's `budget_exhausted` event, when one
    /// streamed: the search was truncated and the verdict is partial.
    pub exhausted: Option<String>,
    /// The label of the run's last `counter_snapshot`.
    pub counter_label: Option<String>,
    /// The run's last `counter_snapshot`, verbatim (snapshot order,
    /// zero-valued counters elided at the source).
    pub counters: Vec<(String, i64)>,
    /// The run's verdict, when one streamed.
    pub verdict: Option<VerdictSummary>,
}

impl RunSummary {
    fn new(engine: String, tm: String, depth: i64, processes: i64) -> Self {
        RunSummary {
            engine,
            tm,
            depth,
            processes,
            phases: Vec::new(),
            heartbeats: 0,
            violations: 0,
            lassos: 0,
            traces: 0,
            faults: 0,
            exhausted: None,
            counter_label: None,
            counters: Vec::new(),
            verdict: None,
        }
    }
}

/// A whole stream, aggregated into runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamSummary {
    /// The runs, in stream order.
    pub runs: Vec<RunSummary>,
    /// Events with tags this consumer does not know (skipped).
    pub unknown_events: usize,
    /// Events seen before the first `run_start` (attached to no run).
    pub orphan_events: usize,
}

impl StreamSummary {
    /// Whether every run closed with a verdict (and at least one ran).
    pub fn all_runs_have_verdicts(&self) -> bool {
        !self.runs.is_empty() && self.runs.iter().all(|r| r.verdict.is_some())
    }

    /// Whether some run closed with a *partial* verdict (budget tripped
    /// or worker died) — gates reject these unless `--allow-partial`.
    pub fn has_partial_runs(&self) -> bool {
        self.runs
            .iter()
            .any(|r| r.exhausted.is_some() || r.verdict.as_ref().is_some_and(|v| v.partial))
    }
}

/// Aggregates a raw NDJSON stream into a [`StreamSummary`].
///
/// # Errors
///
/// Propagates the first [`ParseError`] (malformed line or version
/// bump); unknown tags and fields are counted, not rejected.
pub fn summarize(text: &str) -> Result<StreamSummary, ParseError> {
    let mut out = StreamSummary::default();
    for env in parse_stream(text)? {
        let current = out.runs.last_mut();
        match env.body {
            EventBody::RunStart {
                engine,
                tm,
                depth,
                processes,
            } => out.runs.push(RunSummary::new(engine, tm, depth, processes)),
            EventBody::Unknown { .. } => out.unknown_events += 1,
            body => match current {
                None => out.orphan_events += 1,
                Some(run) => match body {
                    EventBody::PhaseEnd { phase, dur_us, .. } => run.phases.push((phase, dur_us)),
                    EventBody::Heartbeat { .. } => run.heartbeats += 1,
                    EventBody::Violation { .. } => run.violations += 1,
                    EventBody::LassoFound { .. } => run.lassos += 1,
                    EventBody::Trace { .. } => run.traces += 1,
                    EventBody::FaultInjected { .. } => run.faults += 1,
                    EventBody::BudgetExhausted { reason, .. } => run.exhausted = Some(reason),
                    EventBody::CounterSnapshot { label, counters } => {
                        run.counter_label = Some(label);
                        run.counters = counters;
                    }
                    EventBody::Verdict {
                        ok,
                        partial,
                        fields,
                        ..
                    } => {
                        run.verdict = Some(VerdictSummary {
                            ok,
                            partial,
                            fields,
                        })
                    }
                    // phase_start carries no data beyond its matching
                    // phase_end; run_start/unknown were handled above.
                    _ => {}
                },
            },
        }
    }
    Ok(out)
}

fn render_json_short(value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Renders one summary as a human-readable report: one block per run,
/// then (for multi-run sweeps) the TM × config verdict matrix.
pub fn render(summary: &StreamSummary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, run) in summary.runs.iter().enumerate() {
        let _ = writeln!(
            out,
            "run {i}: {} {} depth={} processes={}",
            run.engine, run.tm, run.depth, run.processes
        );
        match &run.verdict {
            Some(v) => {
                let fields: Vec<String> = v
                    .fields
                    .iter()
                    .filter(|(k, _)| k != "engine" && k != "tm")
                    .map(|(k, val)| format!("{k}={}", render_json_short(val)))
                    .collect();
                let _ = writeln!(out, "  verdict: {}", fields.join(" "));
            }
            None => {
                let _ = writeln!(out, "  verdict: (none — run did not close)");
            }
        }
        if let Some(reason) = &run.exhausted {
            let _ = writeln!(out, "  partial: {reason}");
        }
        if !run.phases.is_empty() {
            let phases: Vec<String> = run
                .phases
                .iter()
                .map(|(name, us)| format!("{name}={us}us"))
                .collect();
            let _ = writeln!(out, "  phases: {}", phases.join(" "));
        }
        let faults = if run.faults > 0 {
            format!(", {} faults", run.faults)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  events: {} heartbeats, {} violations, {} lassos, {} traces{faults}",
            run.heartbeats, run.violations, run.lassos, run.traces
        );
        if !run.counters.is_empty() {
            let _ = writeln!(
                out,
                "  counters ({}):",
                run.counter_label.as_deref().unwrap_or("unlabelled")
            );
            let width = run
                .counters
                .iter()
                .map(|(name, _)| name.len())
                .max()
                .unwrap_or(0);
            for (name, value) in &run.counters {
                let _ = writeln!(out, "    {name:<width$}  {value}");
            }
        }
    }
    if summary.runs.len() > 1 {
        out.push('\n');
        out.push_str(&render_matrix(summary));
    }
    if summary.unknown_events > 0 {
        let _ = writeln!(
            out,
            "\n({} events with unknown tags skipped)",
            summary.unknown_events
        );
    }
    out
}

/// Renders the TM × config verdict matrix: one row per TM, one column
/// per distinct (engine, processes, depth) configuration, `✓` for an
/// affirmative headline verdict (opaque / starvation-free), `✗` for a
/// negative one, `?` for a run without a boolean verdict.
pub fn render_matrix(summary: &StreamSummary) -> String {
    use std::fmt::Write as _;
    let mut configs: Vec<(String, i64, i64)> = Vec::new();
    let mut tms: Vec<String> = Vec::new();
    for run in &summary.runs {
        let config = (run.engine.clone(), run.processes, run.depth);
        if !configs.contains(&config) {
            configs.push(config);
        }
        if !tms.contains(&run.tm) {
            tms.push(run.tm.clone());
        }
    }
    let headers: Vec<String> = configs
        .iter()
        .map(|(engine, p, d)| format!("{engine} p{p} d{d}"))
        .collect();
    let tm_width = tms.iter().map(String::len).max().unwrap_or(2).max(2);
    let mut out = String::new();
    let _ = write!(out, "{:<tm_width$}", "tm");
    for header in &headers {
        let _ = write!(out, "  {header}");
    }
    out.push('\n');
    for tm in &tms {
        let _ = write!(out, "{tm:<tm_width$}");
        for (config, header) in configs.iter().zip(&headers) {
            let cell = summary
                .runs
                .iter()
                .find(|r| r.tm == *tm && (r.engine.clone(), r.processes, r.depth) == *config)
                .map_or(" ", |r| match r.verdict.as_ref().and_then(|v| v.ok) {
                    Some(true) => "✓",
                    Some(false) => "✗",
                    None => "?",
                });
            let _ = write!(out, "  {cell:<width$}", width = header.len());
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAM: &str = concat!(
        "{\"v\":1,\"ev\":\"run_start\",\"t_ms\":0.1,\"engine\":\"livecheck\",\"tm\":\"fgp\",\"depth\":10,\"processes\":2}\n",
        "{\"v\":1,\"ev\":\"phase_start\",\"t_ms\":0.2,\"engine\":\"livecheck\",\"phase\":\"search\"}\n",
        "{\"v\":1,\"ev\":\"lasso_found\",\"t_ms\":0.3,\"prefix_len\":2,\"cycle_len\":2,\"starving\":[1],\"parasitic\":[]}\n",
        "{\"v\":1,\"ev\":\"phase_end\",\"t_ms\":0.4,\"engine\":\"livecheck\",\"phase\":\"search\",\"dur_us\":200}\n",
        "{\"v\":1,\"ev\":\"heartbeat\",\"t_ms\":0.5,\"engine\":\"livecheck\",\"states\":17,\"steps\":64}\n",
        "{\"v\":1,\"ev\":\"counter_snapshot\",\"t_ms\":0.6,\"label\":\"fgp\",\"counters\":{\"graph_nodes\":17,\"steps_executed\":64}}\n",
        "{\"v\":1,\"ev\":\"verdict\",\"t_ms\":0.7,\"engine\":\"livecheck\",\"tm\":\"fgp\",\"starvation_free\":false,\"states\":17}\n",
        "{\"v\":1,\"ev\":\"run_start\",\"t_ms\":0.8,\"engine\":\"livecheck\",\"tm\":\"global-lock\",\"depth\":10,\"processes\":2}\n",
        "{\"v\":1,\"ev\":\"verdict\",\"t_ms\":0.9,\"engine\":\"livecheck\",\"tm\":\"global-lock\",\"starvation_free\":true,\"states\":12}\n",
    );

    #[test]
    fn groups_events_into_runs() {
        let summary = summarize(STREAM).expect("summarize");
        assert_eq!(summary.runs.len(), 2);
        assert!(summary.all_runs_have_verdicts());
        let fgp = &summary.runs[0];
        assert_eq!(fgp.tm, "fgp");
        assert_eq!(fgp.lassos, 1);
        assert_eq!(fgp.heartbeats, 1);
        assert_eq!(fgp.phases, vec![("search".to_string(), 200)]);
        assert_eq!(
            fgp.counters,
            vec![
                ("graph_nodes".to_string(), 17),
                ("steps_executed".to_string(), 64)
            ]
        );
        assert_eq!(fgp.verdict.as_ref().and_then(|v| v.ok), Some(false));
        assert_eq!(
            summary.runs[1].verdict.as_ref().and_then(|v| v.ok),
            Some(true)
        );
    }

    #[test]
    fn matrix_marks_verdicts_per_tm() {
        let summary = summarize(STREAM).expect("summarize");
        let matrix = render_matrix(&summary);
        assert!(matrix.contains("livecheck p2 d10"), "{matrix}");
        let fgp_row = matrix.lines().find(|l| l.starts_with("fgp")).unwrap();
        assert!(fgp_row.contains('✗'), "{matrix}");
        let gl_row = matrix
            .lines()
            .find(|l| l.starts_with("global-lock"))
            .unwrap();
        assert!(gl_row.contains('✓'), "{matrix}");
    }
}
