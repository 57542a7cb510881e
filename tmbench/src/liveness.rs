//! `liveness`: Theorem 1's corollary, checked exhaustively at graph
//! sizes worth timing.
//!
//! Every catalogue TM runs the reduced sequential `livecheck`
//! (`with_reduction()`) over `[write X 1, read X · write X 2,
//! read Y · read X · write Y 1]` twice: a fault-free pass, where only
//! the global lock is lasso-starvation-free, and a fault-prone pass
//! (`≤ 1 crash + parasitic turns`), where no TM is and the global lock's
//! survivors are certified crash victims. The fault-prone graphs reach
//! 4.5k–175k states. The work is state digests, interning, branch calls
//! and SCC certification; no footprint calls, no opacity certifier. The
//! inputs are fixed programs, so every count is pinned and the seed
//! changes nothing.

use std::sync::Arc;
use std::time::Instant;

use tm_core::TVarId;
use tm_sim::{livecheck, ClientScript, FaultConfig, LivecheckConfig, LivecheckReport, PlannedOp};
use tm_stm::full_catalog;
use tm_telemetry::Telemetry;

use crate::timed::{checker_raw, timed, LayerClock};
use crate::workload::{guarded, Raw, RowRun, Size, Workload};

/// Search depth, `[full, smoke]`.
const DEPTH: [usize; 2] = [24, 12];

/// Pinned `(states, edges)` of one TM's rows at one size:
/// `[fault-free, fault-prone]`.
type Counts = [(usize, usize); 2];

/// Pinned counts per catalogue TM, `[full, smoke]`.
const PINNED: [(&str, [Counts; 2]); 9] = [
    (
        "fgp",
        [
            [(722, 2_166), (27_312, 111_024)],
            [(616, 1_659), (16_833, 59_258)],
        ],
    ),
    (
        "fgp-strict",
        [
            [(1_074, 3_222), (39_488, 160_896)],
            [(753, 1_905), (17_397, 59_477)],
        ],
    ),
    (
        "tl2",
        [
            [(1_730, 5_190), (150_406, 555_091)],
            [(1_092, 2_667), (25_701, 83_551)],
        ],
    ),
    (
        "tinystm",
        [
            [(930, 2_790), (81_804, 303_189)],
            [(689, 1_740), (17_497, 58_434)],
        ],
    ),
    (
        "swisstm",
        [
            [(1_960, 5_880), (175_213, 647_749)],
            [(1_394, 3_489), (34_998, 115_496)],
        ],
    ),
    (
        "norec",
        [
            [(722, 2_166), (81_996, 299_408)],
            [(616, 1_659), (19_165, 64_683)],
        ],
    ),
    (
        "ostm",
        [
            [(512, 1_536), (52_615, 193_731)],
            [(423, 1_128), (13_190, 45_139)],
        ],
    ),
    (
        "dstm",
        [
            [(528, 1_584), (61_028, 223_086)],
            [(451, 1_230), (15_091, 51_424)],
        ],
    ),
    (
        "global-lock",
        [[(141, 423), (4_512, 18_612)], [(141, 423), (4_402, 17_488)]],
    ),
];

const PASSES: [&str; 2] = ["fault-free", "fault-prone"];

/// The row run untimed during set-up (row index: fgp, fault-prone).
const WARM_UP: usize = PINNED.len();

pub struct Liveness {
    size: Size,
    scripts: Vec<ClientScript>,
}

/// Builds the inputs and runs the warm-up row.
pub fn setup(size: Size) -> Liveness {
    let (x, y) = (TVarId(0), TVarId(1));
    let liveness = Liveness {
        size,
        scripts: vec![
            ClientScript::new(vec![PlannedOp::Write(x, 1)]),
            ClientScript::new(vec![PlannedOp::Read(x), PlannedOp::Write(x, 2)]),
            ClientScript::new(vec![
                PlannedOp::Read(y),
                PlannedOp::Read(x),
                PlannedOp::Write(y, 1),
            ]),
        ],
    };
    liveness.check_row(WARM_UP, None, &Telemetry::off());
    liveness
}

impl Liveness {
    fn check_row(
        &self,
        i: usize,
        clock: Option<&Arc<LayerClock>>,
        telemetry: &Telemetry,
    ) -> RowRun {
        let (pass, tm) = (i / PINNED.len(), PINNED[i % PINNED.len()].0);
        let faults = if pass == 0 {
            FaultConfig::none()
        } else {
            FaultConfig::with_crashes(1).and_parasitic()
        };
        let config = LivecheckConfig::new(DEPTH[self.size.index()])
            .with_reduction()
            .with_faults(faults)
            .with_telemetry(telemetry);
        let factory = || {
            let tm = full_catalog(3, 2)
                .into_iter()
                .find(|t| t.name() == tm)
                .expect("catalogue TM");
            match clock {
                Some(clock) => timed(tm, clock),
                None => tm,
            }
        };
        let start = Instant::now();
        let report = livecheck(factory, &self.scripts, &config);
        let secs = start.elapsed().as_secs_f64();
        let pinned = PINNED[i % PINNED.len()].1[self.size.index()][pass];
        RowRun {
            secs,
            failure: known_answer(tm, pass, pinned, &report),
            figures: vec![
                ("states", report.states as f64),
                ("edges", report.edges as f64),
                ("lassos", report.lassos.len() as f64),
                (
                    "starvation_free",
                    f64::from(u8::from(report.lasso_starvation_free())),
                ),
                ("crash_victims", report.crash_victims().len() as f64),
            ],
        }
    }
}

fn known_answer(
    tm: &str,
    pass: usize,
    pinned: (usize, usize),
    report: &LivecheckReport,
) -> Option<String> {
    if let Some(reason) = &report.exhausted {
        return Some(format!("partial: {reason}"));
    }
    if report.rejected_cycles > 0 {
        return Some(format!(
            "{} cycles failed lasso validation",
            report.rejected_cycles
        ));
    }
    let free = report.lasso_starvation_free();
    if pass == 0 && free != (tm == "global-lock") {
        return Some(format!("fault-free: starvation-free = {free}"));
    }
    if pass == 1 && free {
        return Some("fault-prone: starvation-free".to_string());
    }
    if pass == 1 && tm == "global-lock" && report.crash_victims().is_empty() {
        return Some("fault-prone: no crash victim".to_string());
    }
    ((report.states, report.edges) != pinned).then(|| {
        format!(
            "{} states / {} edges, pinned {} / {}",
            report.states, report.edges, pinned.0, pinned.1
        )
    })
}

impl Workload for Liveness {
    fn rows(&self) -> Vec<String> {
        PASSES
            .iter()
            .flat_map(|pass| PINNED.iter().map(move |(tm, _)| format!("{tm}/{pass}")))
            .collect()
    }

    fn run_row(&self, row: usize) -> RowRun {
        guarded(|| self.check_row(row, None, &Telemetry::off()))
    }

    fn traced_pass(&self) -> (Vec<RowRun>, Raw) {
        let clock = Arc::new(LayerClock::default());
        let telemetry = Telemetry::counters();
        let runs: Vec<RowRun> = (0..2 * PINNED.len())
            .map(|i| guarded(|| self.check_row(i, Some(&clock), &telemetry)))
            .collect();
        let raw = checker_raw(&runs, &clock, &telemetry);
        (runs, raw)
    }
}
