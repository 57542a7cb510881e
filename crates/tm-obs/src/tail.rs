//! Live progress: folds a stream into single-line heartbeat gauges.
//!
//! Each event folds into a [`TailState`]; heartbeats produce
//! [`TailLine::Progress`] (meant for `\r`-overwriting in place),
//! run starts and verdicts produce [`TailLine::Keep`] (meant to stay
//! on screen). Gauges render generically in emitted order, so new
//! producer gauges appear without a consumer change.

use tm_telemetry::Json;

use crate::event::{Envelope, EventBody};

/// What the tail renderer carries between events.
#[derive(Debug, Clone, Default)]
pub struct TailState {
    engine: String,
    tm: String,
}

/// One rendered tail line.
#[derive(Debug, Clone, PartialEq)]
pub enum TailLine {
    /// A transient progress line: overwrite the previous one (`\r`).
    Progress(String),
    /// A line that should persist (run boundary or verdict).
    Keep(String),
}

fn render_gauge(value: &Json) -> String {
    match value {
        Json::Num(x) => format!("{x:.0}"),
        Json::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Folds one event into the state, returning a line to display if the
/// event warrants one.
pub fn fold(env: &Envelope, state: &mut TailState) -> Option<TailLine> {
    match &env.body {
        EventBody::RunStart {
            engine,
            tm,
            depth,
            processes,
        } => {
            state.engine = engine.clone();
            state.tm = tm.clone();
            Some(TailLine::Keep(format!(
                "▶ {engine}/{tm} depth={depth} processes={processes}"
            )))
        }
        EventBody::Heartbeat { gauges, .. } => {
            let parts: Vec<String> = gauges
                .iter()
                .map(|(name, value)| format!("{name} {}", render_gauge(value)))
                .collect();
            Some(TailLine::Progress(format!(
                "[{}/{}] {}",
                state.engine,
                state.tm,
                parts.join(" · ")
            )))
        }
        EventBody::FaultInjected { kind, process, .. } => Some(TailLine::Keep(format!(
            "⚡ {}/{} {kind} p{process}",
            state.engine, state.tm
        ))),
        EventBody::BudgetExhausted { reason, .. } => Some(TailLine::Keep(format!(
            "⏳ {}/{} partial: {reason}",
            state.engine, state.tm
        ))),
        EventBody::Verdict { ok, fields, .. } => {
            let headline = match ok {
                Some(true) => "✓",
                Some(false) => "✗",
                None => "•",
            };
            let rest: Vec<String> = fields
                .iter()
                .filter(|(k, _)| k != "engine" && k != "tm")
                .map(|(k, v)| format!("{k}={}", render_gauge(v)))
                .collect();
            Some(TailLine::Keep(format!(
                "{headline} {}/{} {}",
                state.engine,
                state.tm,
                rest.join(" ")
            )))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_stream;

    #[test]
    fn heartbeats_render_as_progress() {
        let stream = concat!(
            "{\"v\":1,\"ev\":\"run_start\",\"t_ms\":0.1,\"engine\":\"livecheck\",\"tm\":\"tl2\",\"depth\":12,\"processes\":2}\n",
            "{\"v\":1,\"ev\":\"heartbeat\",\"t_ms\":0.2,\"engine\":\"livecheck\",\"states\":100,\"frontier\":12,\"steps\":321,\"states_per_sec\":1234.5}\n",
            "{\"v\":1,\"ev\":\"counter_snapshot\",\"t_ms\":0.3,\"label\":\"tl2\",\"counters\":{\"memo_hits\":30}}\n",
            "{\"v\":1,\"ev\":\"heartbeat\",\"t_ms\":0.4,\"engine\":\"livecheck\",\"states\":200,\"frontier\":9,\"steps\":642,\"states_per_sec\":2100.0}\n",
            "{\"v\":1,\"ev\":\"verdict\",\"t_ms\":0.5,\"engine\":\"livecheck\",\"tm\":\"tl2\",\"starvation_free\":true,\"states\":200}\n",
        );
        let mut state = TailState::default();
        let lines: Vec<TailLine> = parse_stream(stream)
            .expect("parse")
            .iter()
            .filter_map(|e| fold(e, &mut state))
            .collect();
        assert_eq!(lines.len(), 4);
        assert!(matches!(&lines[0], TailLine::Keep(l) if l.contains("livecheck/tl2")));
        assert!(
            matches!(&lines[1], TailLine::Progress(l) if l.contains("states 100") && l.contains("frontier 12")),
            "{lines:?}"
        );
        // A counter snapshot renders nothing and leaves the gauges alone.
        assert!(
            matches!(&lines[2], TailLine::Progress(l) if l.contains("states 200") && !l.contains("memo")),
            "{lines:?}"
        );
        assert!(matches!(&lines[3], TailLine::Keep(l) if l.starts_with('✓')));
    }
}
