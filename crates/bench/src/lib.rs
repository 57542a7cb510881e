//! Shared helpers for the figure/theorem harness binaries.
//!
//! Each binary in `src/bin/` regenerates one figure or theorem of the
//! paper, named after it (`fig16_fgp_history`, `thm3_fgp_verify`, ...);
//! this crate provides the small amount of shared output plumbing.

/// Prints a section header in the harness output style.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a key/value result row.
pub fn row(key: &str, value: impl std::fmt::Display) {
    println!("  {key:<44} {value}");
}

/// Prints a pass/fail verdict row and returns whether it passed (so
/// harnesses can exit non-zero on unexpected results).
pub fn verdict(key: &str, pass: bool) -> bool {
    println!("  {key:<44} {}", if pass { "PASS" } else { "FAIL" });
    pass
}

/// The JSON value used for machine-readable benchmark artifacts
/// (`BENCH_*.json`), shared with the telemetry crate's NDJSON event
/// stream so both wire formats are serialized by one implementation
/// (same float precision, same escaping) without an external
/// serialization dependency.
pub use tm_telemetry::Json;

/// Minimum wall-clock seconds per execution over `runs` rounds, batching
/// each round to ≥ 2 ms. The minimum is the standard noise-robust
/// estimator for deterministic workloads on a shared machine: scheduler
/// preemption and frequency drift only ever inflate a sample.
pub fn best_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let mut iters = 0u32;
        let start = std::time::Instant::now();
        loop {
            f();
            iters += 1;
            if start.elapsed() >= std::time::Duration::from_millis(2) {
                break;
            }
        }
        best = best.min(start.elapsed().as_secs_f64() / f64::from(iters));
    }
    best
}

/// Shared context for a `BENCH_*.json` emitter: smoke-test mode, round
/// count, and the standard envelope every artifact carries.
#[derive(Debug, Clone, Copy)]
pub struct BenchRun {
    /// Whether this is a CI smoke run (`-- --test`): shallow tables,
    /// one round, and no artifact write (the committed full-run file
    /// must not be clobbered with throwaway rows).
    pub test_mode: bool,
    /// Measurement rounds per timing (1 in test mode, 7 otherwise).
    pub runs: usize,
    /// `std::thread::available_parallelism()` — recorded in every
    /// artifact so parallel-speedup columns can be read in context.
    pub cores: usize,
}

impl BenchRun {
    /// Reads the run context from the process arguments.
    pub fn from_args() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        BenchRun {
            test_mode,
            runs: if test_mode { 1 } else { 7 },
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Wraps `fields` in the standard envelope (`bench` name, `cores`,
    /// `test_mode` first) and writes `BENCH_<name>.json` — or, in test
    /// mode, prints the report instead of touching the committed
    /// artifact.
    pub fn emit(&self, name: &str, fields: Vec<(String, Json)>) {
        let mut pairs = vec![
            ("bench".into(), Json::str(name)),
            ("cores".into(), Json::Int(self.cores as i64)),
            ("test_mode".into(), Json::Bool(self.test_mode)),
        ];
        pairs.extend(fields);
        let report = Json::Obj(pairs);
        if self.test_mode {
            println!("test mode: skipping BENCH_{name}.json write\n{report}");
        } else {
            write_bench_json(name, &report).expect("write artifact");
        }
    }
}

/// Writes a `BENCH_<name>.json` artifact at the workspace root and
/// reports where.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_bench_json(name: &str, value: &Json) -> std::io::Result<std::path::PathBuf> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{name}.json"));
    std::fs::write(&path, format!("{value}\n"))?;
    println!("wrote {}", path.display());
    Ok(path)
}

/// Tracks harness-wide success and produces the process exit code.
#[derive(Debug, Default)]
pub struct Outcome {
    failures: usize,
}

impl Outcome {
    /// Creates a fresh outcome tracker.
    pub fn new() -> Self {
        Outcome::default()
    }

    /// Records a checked verdict.
    pub fn check(&mut self, key: &str, pass: bool) {
        if !verdict(key, pass) {
            self.failures += 1;
        }
    }

    /// Exits the process with a non-zero status if any check failed.
    pub fn finish(self, experiment: &str) -> ! {
        if self.failures == 0 {
            println!("\n{experiment}: all checks passed");
            std::process::exit(0)
        } else {
            println!("\n{experiment}: {} check(s) FAILED", self.failures);
            std::process::exit(1)
        }
    }
}
