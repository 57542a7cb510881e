//! What every workload gives the measuring loop in `main`.

use std::collections::BTreeMap;

/// Raw per-layer measurements of one traced pass, keyed by name (keys
/// ending in `_per_s` are rates, other `_s` keys seconds, the rest
/// counts). A missing key reads as 0: the layer did not run on this
/// workload.
pub type Raw = BTreeMap<String, f64>;

/// Input size: the measured size, or the toy size `--smoke` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    /// Index into the per-size tables of depths and pinned counts.
    pub fn index(self) -> usize {
        match self {
            Size::Full => 0,
            Size::Smoke => 1,
        }
    }
}

/// One row's verdict: how long it took, and whether it matched the
/// known answer.
#[derive(Debug, Clone)]
pub struct RowRun {
    /// Seconds until the row's verdict was in hand.
    pub secs: f64,
    /// Why the row missed its known answer (wrong verdict, count off its
    /// pinned value, partial run, panic); `None` when it met it.
    pub failure: Option<String>,
    /// Row figures for the detail line (counts, online phase times).
    pub figures: Vec<(&'static str, f64)>,
}

impl RowRun {
    pub fn figure(&self, name: &str) -> f64 {
        self.figures
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// A workload whose inputs are built and warmed up: a table of rows,
/// one verdict each.
pub trait Workload {
    /// Row names, in table order.
    fn rows(&self) -> Vec<String>;

    /// Runs row `row` untraced.
    fn run_row(&self, row: usize) -> RowRun;

    /// Runs every row once traced and returns the row runs plus the raw
    /// layer measurements. `raw["wall_s"]` is the traced verdict-table
    /// time every `_pct` metric is a share of.
    fn traced_pass(&self) -> (Vec<RowRun>, Raw);

    /// Known-answer checks that are not rows of the timed table (the
    /// online canary); each is a name and an optional failure.
    fn extra_gates(&self) -> Vec<(String, Option<String>)> {
        Vec::new()
    }
}

/// Runs `f`, turning a panic into a failed row.
pub fn guarded(f: impl FnOnce() -> RowRun) -> RowRun {
    let start = std::time::Instant::now();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|_| RowRun {
        secs: start.elapsed().as_secs_f64(),
        failure: Some("panicked".to_string()),
        figures: Vec::new(),
    })
}
