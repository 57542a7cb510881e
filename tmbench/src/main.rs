//! `tmbench`: one benchmark for the repository's three checkers — the
//! bounded opacity explorer, the fault-prone lasso livecheck and the
//! streaming online certifier — over its nine TMs, so that every later
//! performance or simplicity change is measured against one baseline on
//! the same machine.
//!
//! # Running
//!
//! ```text
//! cargo run --release --manifest-path tmbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path tmbench/Cargo.toml -- --smoke
//! cargo run --release --manifest-path tmbench/Cargo.toml -- \
//!     compare a1.out a2.out a3.out -- b1.out b2.out b3.out
//! ```
//!
//! A run is one process and one workload. It sets the workload up three
//! times, then repeats the workload's table of rows — one verdict per
//! TM — until `--seconds` are spent, with at least 3 repetitions (5 for
//! the online workloads). It prints two
//! lines: a detail object (each metric's median, min, max and sample
//! count, the per-TM rows, the known-answer gates), then the result
//! object `{"correct", "attempted", "failed", "metrics"}`. A row whose
//! verdict differs from its known answer, whose pinned count moved, or
//! that ended partial or panicked counts in `failed`, and the process
//! exits 1. `--smoke` runs every workload at toy size, traced and
//! untraced, with every gate active, in a few seconds. `compare` is in
//! [`compare`].
//!
//! The load comes from this one process; no workload runs more load
//! threads than the 2 cores of the machine the depths were sized on.
//!
//! # Workloads
//!
//! | workload | input | why |
//! |---|---|---|
//! | `safety` | sequential optimal-DPOR `explore_with` over `full_catalog(3, 2)`, scripts `[increment(X), transfer(X,Y), read_both(X,Y)]`, per-TM depth (each row 0.4–1 s), plus the known-violation row `literal_fgp(2, 1)` | the production reduced walker on the paper's contended 3-process shape: TM step, branch and footprint calls, the certifier and wakeup-tree bookkeeping; no digests, no SCC work |
//! | `liveness` | reduced sequential `livecheck` over `full_catalog(3, 2)`, scripts `[write X 1, read X · write X 2, read Y · read X · write Y 1]`, depth 24, fault-free and then fault-prone (`≤ 1 crash + parasitic`) | Theorem 1's corollary checked exhaustively on graphs of 4.5k–175k states: digests, interning, branch calls and SCC certification; no footprints, no opacity certifier |
//! | `online-hot` | seeded 75% transfer / 25% audit streams, 2 workers × 100k transactions, 16 accounts, through `ShardedRecorder` + `OnlinePipeline`, closed loop; TL2, NOrec, global lock | high contention: the recorder and the TMs' abort paths, few large chunks |
//! | `online-cold` | the same with 1024 accounts | about twice as many, smaller chunks and rare aborts: the sealer, chunker and fan-out work per chunk, not per conflict |
//!
//! The checker workloads are fixed programs: their counts (schedules,
//! states, edges) are pinned in the source and must repeat exactly, and
//! the seed changes nothing. The seed drives the online streams only.
//!
//! # Metrics
//!
//! End-to-end, printed by every untraced run. Times are in reference
//! seconds: each timed piece runs right after a fixed calibration
//! kernel, and its wall time is scaled by the kernel's (see
//! [`calibrate`] for why and how well that works); the wall times are in
//! the detail line as `setup_wall_s` and `verdict_wall_s`.
//!
//! * `setup_s` — building the inputs plus one untimed warm-up row; the
//!   median of three set-ups;
//! * `verdict_s` — time until the whole per-TM verdict table is in
//!   hand: the sum over rows of each row's median. An online row runs
//!   from the first transaction to `OnlinePipeline::join`;
//! * `peak_rss_mb` — the process's `VmHWM`.
//!
//! Per-layer, printed by traced runs (`--trace 1`). A traced run
//! alternates an untraced and a traced pass over the table; the traced
//! pass wraps every catalogue box in a [`timed::TimedTm`] and attaches
//! `Telemetry::counters()`. Layer times are percentages of
//! `trace.wall_s`, the traced verdict-table time; a layer a workload
//! does not run reads 0.
//!
//! | metric | measured from outside by | should move | on |
//! |---|---|---|---|
//! | `tm_stm.{step,branch,digest,footprint}.{calls,busy_pct}`, `tm_stm.branch.refork_ratio` | `TimedTm` around `invoke`/`poll`, `fork`/`refork_from`, `state_digest`, `step_footprint`; the pool's fork/refork counters | `verdict_s` | step, branch: both checkers; footprint: safety; digest: liveness |
//! | `tm_sim.engine.self_pct` | traced wall minus TM busy time minus SCC certification: the certifier, reduction, memo and frontier | `verdict_s` | safety |
//! | `tm_sim.explore.*`, `tm_sim.reduction.*`, `tm_safety.exact_fallbacks` | `Telemetry::counters()` | `verdict_s` | safety |
//! | `tm_sim.livecheck.*`, `tm_liveness.scc_certify_pct` | counters plus the `search` / `scc_certify` phase spans | `verdict_s`, `peak_rss_mb` | liveness |
//! | `tm_stm.concurrent.{bare_pct,abort_ratio}` | the same streams through `atomically`, no recorder | `verdict_s` | online-hot (aborts), online-cold |
//! | `tm_stm.sharded.{record_pct,merge_pct}` | the streams through `atomically_sharded`, then a timed `EventStream` drain | `verdict_s` | online-* |
//! | `tm_sim.online.*`, `tm_safety.certify_pct`, `tm_sim.frontier.distribute_overhead_pct` | `Chunker::push`/`finish` over the merged stream; sequential `certify_chunk`; 4096-event epochs through `distribute`, minus the sequential time; the pipeline's counters | `verdict_s` | online-cold most, online-hot less |
//! | `trace.overhead_s` | traced minus untraced verdict-table time | — | all |
//!
//! The detail line also carries every raw layer measurement in seconds,
//! and the online rates (bare, recorded, merged, chunked and certified
//! events or transactions per second).
//!
//! # Left as they are
//!
//! The older `BENCH_*.json` emitters under `crates/bench` (measured on
//! one core) are untouched. Retiring them, spans inside the program
//! (certifier push, memo lookup) and an open-loop sustainable-rate sweep
//! of the online pipeline are later changes.

mod calibrate;
mod compare;
mod json;
mod liveness;
mod online;
mod safety;
mod spec;
mod stats;
mod timed;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use calibrate::Calibrator;
use json::Out;
use stats::median;
use workload::{Raw, RowRun, Size, Workload};

const USAGE: &str =
    "usage: tmbench [run] --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
       tmbench --smoke
       tmbench compare <a.out>... -- <b.out>...";

/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 3;

struct RunArgs {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: "",
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // `--trace` alone means `--trace 1`.
            run.trace = it.next_if(|v| *v == "0" || *v == "1") != Some("0");
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                run.workload = spec::WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or(format!("unknown workload `{value}`"))?;
            }
            "--seed" => run.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&run.seconds) {
                    return Err("--seconds must lie within 0..=3600".to_string());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if run.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(run)
}

fn setup(workload: &str, size: Size, seed: u64) -> Box<dyn Workload> {
    match workload {
        "safety" => Box::new(safety::setup(size)),
        "liveness" => Box::new(liveness::setup(size)),
        "online-hot" => Box::new(online::setup(size, 16, seed)),
        "online-cold" => Box::new(online::setup(size, 1024, seed)),
        other => unreachable!("workload names are checked when parsed: {other}"),
    }
}

/// Repetitions of the row table a run makes however short `--seconds`.
fn min_reps(workload: &str, size: Size) -> usize {
    match (size, workload) {
        (Size::Smoke, _) => 1,
        (Size::Full, "online-hot" | "online-cold") => 5,
        (Size::Full, _) => 3,
    }
}

/// Repeats `body` at least `min` times, and further while another
/// repetition (at the mean so far) still fits in `seconds`.
fn repeat<T>(seconds: f64, min: usize, mut body: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(body());
        let elapsed = start.elapsed().as_secs_f64();
        if out.len() >= min && elapsed * (1.0 + 1.0 / out.len() as f64) > seconds {
            return out;
        }
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A reported value with the samples it summarizes.
struct Measured {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

impl Measured {
    /// The median of its samples.
    fn of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Measured {
        Measured {
            name,
            unit,
            value: median(&samples),
            samples,
        }
    }

    /// A verdict table's time from `reps[rep][row]` seconds: the sum over
    /// rows of each row's median, with each repetition's total as a
    /// sample.
    fn table(name: &'static str, unit: &'static str, reps: &[Vec<f64>]) -> Measured {
        let rows = reps.first().map_or(0, Vec::len);
        Measured {
            name,
            unit,
            value: (0..rows)
                .map(|i| median(&reps.iter().map(|rep| rep[i]).collect::<Vec<_>>()))
                .sum(),
            samples: reps.iter().map(|rep| rep.iter().sum()).collect(),
        }
    }

    fn detail(&self) -> Vec<(String, Out)> {
        let min = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self
            .samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        [
            ("value", Out::Num(self.value)),
            ("unit", Out::str(self.unit)),
            ("median", Out::Num(median(&self.samples))),
            ("min", Out::Num(min)),
            ("max", Out::Num(max)),
            ("samples", Out::Int(self.samples.len() as u64)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// Everything one run prints.
struct Report {
    /// The metrics of the result line.
    metrics: Vec<Measured>,
    /// Further figures for the detail line: raw wall times and the
    /// calibration kernel's time.
    context: Vec<Measured>,
    /// Row table repetitions, untraced and traced, in run order.
    reps: Vec<Vec<RowRun>>,
    names: Vec<String>,
    gates: Vec<(String, Option<String>)>,
    /// Median of each raw layer measurement over the traced passes.
    raw: Raw,
}

impl Report {
    fn failures(&self) -> Vec<String> {
        let rows = self.reps.iter().flat_map(|rep| {
            rep.iter()
                .zip(&self.names)
                .filter_map(|(run, name)| Some(format!("{name}: {}", run.failure.as_ref()?)))
        });
        let gates = self
            .gates
            .iter()
            .filter_map(|(name, failure)| Some(format!("{name}: {}", failure.as_ref()?)));
        rows.chain(gates).collect()
    }

    fn attempted(&self) -> u64 {
        (self.reps.iter().map(Vec::len).sum::<usize>() + self.gates.len()) as u64
    }

    /// Per row: its wall time over every run of it, its figures from
    /// the last run, and each distinct failure.
    fn rows(&self) -> Vec<Out> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let secs = self.reps.iter().map(|rep| rep[i].secs).collect();
                let mut failures: Vec<String> = self
                    .reps
                    .iter()
                    .filter_map(|rep| rep[i].failure.clone())
                    .collect();
                failures.dedup();
                let last = &self.reps[self.reps.len() - 1][i];
                let mut fields = vec![("name".to_string(), Out::str(name.as_str()))];
                fields.extend(Measured::of("wall_s", "s", secs).detail());
                fields.extend(
                    last.figures
                        .iter()
                        .map(|&(k, v)| (k.to_string(), Out::Num(v))),
                );
                fields.push((
                    "failures".to_string(),
                    Out::Arr(failures.into_iter().map(Out::Str).collect()),
                ));
                Out::Obj(fields)
            })
            .collect()
    }
}

/// Sets `args.workload` up and measures it: the end-to-end metrics, or
/// with `args.trace` the per-layer ones.
fn run_workload(args: &RunArgs, size: Size) -> Report {
    let mut calibrator = Calibrator::new();
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut workload = None;
    let setups = if size == Size::Full { SETUPS } else { 1 };
    for _ in 0..setups {
        let kernel_s = calibrator.sample();
        let start = Instant::now();
        workload = Some(setup(args.workload, size, args.seed));
        let wall = start.elapsed().as_secs_f64();
        setup_wall_s.push(wall);
        setup_s.push(Calibrator::scale(wall, kernel_s));
    }
    let workload = workload.expect("at least one set-up");
    let names = workload.rows();
    let table = || {
        (0..names.len())
            .map(|r| workload.run_row(r))
            .collect::<Vec<_>>()
    };
    let total = |rep: &[RowRun]| rep.iter().map(|r| r.secs).sum::<f64>();

    let (metrics, context, reps, raw) = if args.trace {
        let passes = repeat(args.seconds, 1, || {
            let untraced = table();
            let (traced, mut raw) = workload.traced_pass();
            raw.insert("untraced_s".to_string(), total(&untraced));
            (untraced, traced, raw)
        });
        let metrics = spec::PER_LAYER
            .iter()
            .map(|m| {
                let samples = passes.iter().map(|(_, _, raw)| (m.value)(raw)).collect();
                Measured::of(m.name, m.unit, samples)
            })
            .collect();
        let keys: std::collections::BTreeSet<&String> =
            passes.iter().flat_map(|(_, _, raw)| raw.keys()).collect();
        let raw = keys
            .into_iter()
            .map(|key| {
                let values: Vec<f64> = passes
                    .iter()
                    .map(|(_, _, raw)| raw.get(key).copied().unwrap_or(0.0))
                    .collect();
                (key.clone(), median(&values))
            })
            .collect();
        let reps = passes
            .into_iter()
            .flat_map(|(untraced, traced, _)| [untraced, traced])
            .collect();
        (metrics, Vec::new(), reps, raw)
    } else {
        // Each row runs right after a calibration kernel run; the
        // kernel's recent speed scales the row's time into reference
        // seconds.
        let timed = repeat(args.seconds, min_reps(args.workload, size), || {
            (0..names.len())
                .map(|r| {
                    let kernel_s = calibrator.sample();
                    (workload.run_row(r), kernel_s)
                })
                .unzip::<_, _, Vec<_>, Vec<_>>()
        });
        let (reps, kernels): (Vec<Vec<RowRun>>, Vec<Vec<f64>>) = timed.into_iter().unzip();
        let wall: Vec<Vec<f64>> = reps
            .iter()
            .map(|rep| rep.iter().map(|r| r.secs).collect())
            .collect();
        let scaled: Vec<Vec<f64>> = wall
            .iter()
            .zip(&kernels)
            .map(|(rep, ks)| {
                rep.iter()
                    .zip(ks)
                    .map(|(&s, &k)| Calibrator::scale(s, k))
                    .collect()
            })
            .collect();
        let [setup, verdict, rss] = spec::END_TO_END;
        let metrics = vec![
            Measured::of(setup.0, setup.1, setup_s),
            Measured::table(verdict.0, verdict.1, &scaled),
            Measured::of(rss.0, rss.1, vec![peak_rss_mb()]),
        ];
        let context = vec![
            Measured::of("setup_wall_s", "s", setup_wall_s),
            Measured::table("verdict_wall_s", "s", &wall),
            Measured::of("calibration_kernel_s", "s", kernels.concat()),
        ];
        (metrics, context, reps, Raw::new())
    };
    Report {
        metrics,
        context,
        reps,
        names,
        gates: workload.extra_gates(),
        raw,
    }
}

/// Prints the detail line, then the result line; failures go to stderr.
fn print_report(args: &RunArgs, report: &Report) {
    let failures = report.failures();
    for failure in &failures {
        eprintln!("tmbench {}: FAILED {failure}", args.workload);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gates = report.gates.iter().map(|(name, failure)| {
        Out::obj([
            ("gate", Out::str(name.as_str())),
            ("pass", Out::Bool(failure.is_none())),
        ])
    });
    let detail = Out::obj([
        ("workload", Out::str(args.workload)),
        ("seed", Out::Int(args.seed)),
        ("seconds", Out::Num(args.seconds)),
        ("trace", Out::Bool(args.trace)),
        ("cores", Out::Int(cores as u64)),
        ("reps", Out::Int(report.reps.len() as u64)),
        (
            "metrics",
            Out::Obj(
                report
                    .metrics
                    .iter()
                    .chain(&report.context)
                    .map(|m| (m.name.to_string(), Out::Obj(m.detail())))
                    .collect(),
            ),
        ),
        ("rows", Out::Arr(report.rows())),
        ("gates", Out::Arr(gates.collect())),
        (
            "raw",
            Out::Obj(
                report
                    .raw
                    .iter()
                    .map(|(k, &v)| (k.clone(), Out::Num(v)))
                    .collect(),
            ),
        ),
        ("correct", Out::Bool(failures.is_empty())),
    ]);
    println!("{detail}");
    let metrics = report.metrics.iter().map(|m| {
        let value = Out::obj([("value", Out::Num(m.value)), ("unit", Out::str(m.unit))]);
        (m.name.to_string(), value)
    });
    let result = Out::obj([
        ("correct", Out::Bool(failures.is_empty())),
        ("attempted", Out::Int(report.attempted())),
        ("failed", Out::Int(failures.len() as u64)),
        ("metrics", Out::Obj(metrics.collect())),
    ]);
    println!("{result}");
}

/// Every workload at toy size, untraced and traced.
fn smoke() -> ExitCode {
    let start = Instant::now();
    let mut failed = 0;
    for workload in spec::WORKLOADS {
        for trace in [false, true] {
            let args = RunArgs {
                workload,
                seed: 1,
                seconds: 0.0,
                trace,
            };
            let report = run_workload(&args, Size::Smoke);
            print_report(&args, &report);
            failed += report.failures().len();
        }
    }
    eprintln!(
        "tmbench --smoke: {failed} failures in {:.1} s",
        start.elapsed().as_secs_f64()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("--smoke") if args.len() == 1 => Ok(smoke()),
        Some("run") => parse_run(&args[1..]).map(|run| measure(&run)),
        _ => parse_run(&args).map(|run| measure(&run)),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("tmbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

fn measure(args: &RunArgs) -> ExitCode {
    let report = run_workload(args, Size::Full);
    print_report(args, &report);
    if report.failures().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
