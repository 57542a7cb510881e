//! `safety`: the production reduced walker on the paper's contended
//! 3-process shape.
//!
//! Every catalogue TM runs `explore_with(.., sequential + optimal DPOR)`
//! over `[increment(X), transfer(X,Y), read_both(X,Y)]` at a per-TM depth
//! chosen so each row takes roughly 0.4–1 s on a 2-core x86-64 machine,
//! plus the known-violation row: the literal (buggy) Fgp on
//! `[increment(X), read X · write X 5]`. The work is TM step, branch and
//! footprint calls, the incremental certifier and wakeup-tree
//! bookkeeping; no state digests, no SCC work. The inputs are fixed
//! programs, so every count is pinned and the seed changes nothing.

use std::sync::Arc;
use std::time::Instant;

use tm_core::TVarId;
use tm_sim::{explore_with, ClientScript, Exploration, ExploreConfig, PlannedOp};
use tm_stm::{full_catalog, literal_fgp, BoxedTm};
use tm_telemetry::Telemetry;

use crate::timed::{checker_raw, timed, LayerClock};
use crate::workload::{guarded, Raw, RowRun, Size, Workload};

const LITERAL: &str = "fgp-literal";

/// One table row: the TM, its depth and its pinned executed-schedule
/// count, each as `[full, smoke]`.
struct Row {
    tm: &'static str,
    depth: [usize; 2],
    schedules: [usize; 2],
}

const ROWS: [Row; 10] = [
    Row {
        tm: "fgp",
        depth: [18, 10],
        schedules: [325_021, 543],
    },
    Row {
        tm: "fgp-strict",
        depth: [16, 10],
        schedules: [251_773, 1_610],
    },
    Row {
        tm: "tl2",
        depth: [240, 40],
        schedules: [3_241, 105],
    },
    Row {
        tm: "tinystm",
        depth: [16, 10],
        schedules: [270_902, 2_076],
    },
    Row {
        tm: "swisstm",
        depth: [12, 8],
        schedules: [250_537, 3_740],
    },
    Row {
        tm: "norec",
        depth: [20, 12],
        schedules: [233_220, 1_021],
    },
    Row {
        tm: "ostm",
        depth: [20, 12],
        schedules: [231_192, 1_022],
    },
    Row {
        tm: "dstm",
        depth: [15, 9],
        schedules: [461_950, 1_719],
    },
    Row {
        tm: "global-lock",
        depth: [12, 7],
        schedules: [531_441, 2_187],
    },
    Row {
        tm: LITERAL,
        depth: [12, 12],
        schedules: [387, 387],
    },
];

/// The row run untimed during set-up.
const WARM_UP: &str = "tl2";

pub struct Safety {
    size: Size,
    contended: Vec<ClientScript>,
    literal: Vec<ClientScript>,
}

/// Builds the inputs and runs the warm-up row.
pub fn setup(size: Size) -> Safety {
    let (x, y) = (TVarId(0), TVarId(1));
    let safety = Safety {
        size,
        contended: vec![
            ClientScript::increment(x),
            ClientScript::transfer(x, y),
            ClientScript::read_both(x, y),
        ],
        literal: vec![
            ClientScript::increment(x),
            ClientScript::new(vec![PlannedOp::Read(x), PlannedOp::Write(x, 5)]),
        ],
    };
    let warm_up = ROWS
        .iter()
        .position(|r| r.tm == WARM_UP)
        .expect("warm-up row");
    safety.explore_row(warm_up, None, &Telemetry::off());
    safety
}

fn make(tm: &str) -> BoxedTm {
    if tm == LITERAL {
        return literal_fgp(2, 1);
    }
    full_catalog(3, 2)
        .into_iter()
        .find(|t| t.name() == tm)
        .expect("catalogue TM")
}

impl Safety {
    fn explore_row(
        &self,
        i: usize,
        clock: Option<&Arc<LayerClock>>,
        telemetry: &Telemetry,
    ) -> RowRun {
        let row = &ROWS[i];
        let size = self.size.index();
        let scripts = if row.tm == LITERAL {
            &self.literal
        } else {
            &self.contended
        };
        let config = ExploreConfig::new(row.depth[size])
            .sequential()
            .with_optimal_dpor()
            .with_telemetry(telemetry);
        let factory = || match clock {
            Some(clock) => timed(make(row.tm), clock),
            None => make(row.tm),
        };
        let start = Instant::now();
        let report = explore_with(factory, scripts, &config);
        let secs = start.elapsed().as_secs_f64();
        RowRun {
            secs,
            failure: known_answer(row, size, &report),
            figures: vec![
                ("depth", row.depth[size] as f64),
                ("schedules", report.schedules as f64),
                ("violations", report.violations.len() as f64),
                ("exact_fallbacks", report.exact_fallbacks as f64),
            ],
        }
    }
}

fn known_answer(row: &Row, size: usize, report: &Exploration) -> Option<String> {
    if let Some(reason) = &report.exhausted {
        return Some(format!("partial: {reason}"));
    }
    if row.tm == LITERAL && report.all_opaque() {
        return Some("known violation not found".to_string());
    }
    if row.tm != LITERAL && !report.all_opaque() {
        return Some(format!("{} opacity violations", report.violations.len()));
    }
    let pinned = row.schedules[size];
    (report.schedules != pinned).then(|| format!("{} schedules, pinned {pinned}", report.schedules))
}

impl Workload for Safety {
    fn rows(&self) -> Vec<String> {
        ROWS.iter().map(|r| r.tm.to_string()).collect()
    }

    fn run_row(&self, row: usize) -> RowRun {
        guarded(|| self.explore_row(row, None, &Telemetry::off()))
    }

    fn traced_pass(&self) -> (Vec<RowRun>, Raw) {
        let clock = Arc::new(LayerClock::default());
        let telemetry = Telemetry::counters();
        let runs: Vec<RowRun> = (0..ROWS.len())
            .map(|i| guarded(|| self.explore_row(i, Some(&clock), &telemetry)))
            .collect();
        let raw = checker_raw(&runs, &clock, &telemetry);
        (runs, raw)
    }
}
