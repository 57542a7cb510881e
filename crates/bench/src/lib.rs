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
