//! Regression comparison of two counter snapshots.
//!
//! Each input is an NDJSON stream; its **last** `counter_snapshot`
//! event is the snapshot under comparison. Counters are deterministic
//! search properties (schedules executed, states, memo hits, forks…),
//! so any drift beyond the count threshold — in either direction — is
//! a regression; the default threshold is exact equality. A counter
//! present on only one side is compared against 0. Wall-clock
//! regressions are tmbench's business (`tmbench compare`), not this
//! diff's.

use crate::event::{parse_stream, EventBody};

/// The allowed drift, in percent, plus per-counter overrides.
#[derive(Debug, Clone, Default)]
pub struct Thresholds {
    /// Allowed drift (either direction) for every counter (percent).
    pub count_pct: f64,
    /// Per-counter overrides (counter name → percent), taking
    /// precedence over `count_pct`.
    pub per_column: Vec<(String, f64)>,
}

/// One side of a diff: the last counter snapshot of an NDJSON stream.
#[derive(Debug, Clone)]
pub struct DiffInput {
    /// The snapshot label.
    pub label: String,
    /// The counters, in snapshot order.
    pub counters: Vec<(String, i64)>,
}

impl DiffInput {
    /// Parses a stream and takes its last `counter_snapshot`.
    ///
    /// # Errors
    ///
    /// Unparseable text, or a stream without any `counter_snapshot`.
    pub fn load(text: &str) -> Result<DiffInput, String> {
        let events = parse_stream(text).map_err(|e| e.to_string())?;
        events
            .into_iter()
            .rev()
            .find_map(|env| match env.body {
                EventBody::CounterSnapshot { label, counters } => {
                    Some(DiffInput { label, counters })
                }
                _ => None,
            })
            .ok_or_else(|| "stream has no counter_snapshot event".to_string())
    }
}

/// The outcome of one diff.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// One line per detected regression (empty: the gate passes).
    pub regressions: Vec<String>,
    /// Counters compared.
    pub compared: usize,
}

impl DiffReport {
    /// Whether the gate passes.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the report for terminal output.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for regression in &self.regressions {
            let _ = writeln!(out, "  REGRESSION {regression}");
        }
        let _ = writeln!(
            out,
            "{} counters compared, {} regressions",
            self.compared,
            self.regressions.len()
        );
        out
    }
}

/// Compares one counter, pushing a regression line if it drifted.
fn compare_counter(
    name: &str,
    baseline: i64,
    candidate: i64,
    th: &Thresholds,
    report: &mut DiffReport,
) {
    report.compared += 1;
    let pct = th
        .per_column
        .iter()
        .find(|(col, _)| col == name)
        .map_or(th.count_pct, |(_, pct)| *pct);
    let (baseline, candidate) = (baseline as f64, candidate as f64);
    if (candidate - baseline).abs() > baseline.abs() * pct / 100.0 + 1e-9 {
        report.regressions.push(format!(
            "{name}: {baseline} → {candidate} (threshold {pct}%)"
        ));
    }
}

/// Diffs a candidate snapshot against a baseline.
pub fn diff(baseline: &DiffInput, candidate: &DiffInput, th: &Thresholds) -> DiffReport {
    let get = |side: &DiffInput, name: &str| {
        side.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    };
    let mut report = DiffReport::default();
    for (name, base) in &baseline.counters {
        let cand = get(candidate, name).unwrap_or(0);
        compare_counter(name, *base, cand, th, &mut report);
    }
    for (name, cand) in &candidate.counters {
        if get(baseline, name).is_none() {
            compare_counter(name, 0, *cand, th, &mut report);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_diff_is_clean() {
        // Two runs in one stream: the last snapshot is the one compared.
        let stream = "{\"v\":1,\"ev\":\"counter_snapshot\",\"t_ms\":0.1,\"label\":\"fgp\",\"counters\":{\"schedules_executed\":33}}\n\
             {\"v\":1,\"ev\":\"counter_snapshot\",\"t_ms\":0.2,\"label\":\"tl2\",\"counters\":{\"schedules_executed\":40,\"memo_hits\":5}}\n";
        let input = DiffInput::load(stream).expect("load");
        assert_eq!(input.label, "tl2");
        let report = diff(&input, &input, &Thresholds::default());
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.compared, 2);
    }

    #[test]
    fn counter_snapshots_diff_from_streams() {
        let stream_a =
            "{\"v\":1,\"ev\":\"counter_snapshot\",\"t_ms\":0.1,\"label\":\"fgp\",\"counters\":{\"schedules_executed\":33,\"memo_hits\":5}}\n";
        let stream_b =
            "{\"v\":1,\"ev\":\"counter_snapshot\",\"t_ms\":0.1,\"label\":\"fgp\",\"counters\":{\"schedules_executed\":35,\"memo_hits\":5}}\n";
        let a = DiffInput::load(stream_a).expect("load");
        let b = DiffInput::load(stream_b).expect("load");
        assert!(diff(&a, &a, &Thresholds::default()).is_clean());
        let report = diff(&a, &b, &Thresholds::default());
        assert_eq!(report.regressions.len(), 1, "{report:?}");
        // A per-column waiver admits the drift.
        let th = Thresholds {
            per_column: vec![("schedules_executed".to_string(), 10.0)],
            ..Thresholds::default()
        };
        assert!(diff(&a, &b, &th).is_clean());
    }
}
