//! Liveness audit, in two phases:
//!
//! 1. classify every process in the paper's infinite-history figures and
//!    decide which TM-liveness properties each history ensures —
//!    reproducing the claims of §3.2 and §5.1 mechanically;
//! 2. drive the liveness *model checker* end-to-end across the catalogue:
//!    explore each TM's canonical state graph under a contended bounded
//!    workload, detect lassos, classify them, and print the certified
//!    per-TM verdict table. The phase asserts its own headline results
//!    (CI runs this example), so the subsystem cannot silently rot:
//!    the global-lock TM must certify starvation-free at the bound while
//!    greedy `Fgp` must yield a classified starvation lasso.
//!
//! Run with: `cargo run --example liveness_audit`
//!
//! Telemetry: set `TM_TELEMETRY=stderr` (or a file path) to stream the
//! checker's NDJSON event log, or pass `--progress` to force the stderr
//! stream — heartbeats included — when the variable is unset.
//!
//! Fault-prone mode: `--crashes <k>` lets the checker crash up to `k`
//! processes at every reachable configuration, `--parasitic` lets it
//! turn processes parasitic — both quantified exhaustively, streaming
//! `fault_injected` events. With faults on, the audit reports
//! the fairness-filtered verdicts: which starvation survives fair
//! scheduling, and which of it is crash-induced (Theorem 1's corollary:
//! with one crash allowed, *no* TM in the catalogue stays
//! starvation-free — even the global lock, via a crashed lock holder).

use tm_liveness_repro::liveness::{
    classify_all, figures, meta, GlobalProgress, InfiniteHistory, LocalProgress, SoloProgress,
    TmLivenessProperty,
};
use tm_liveness_repro::prelude::*;
use tm_liveness_repro::sim::PlannedOp;
use tm_liveness_repro::stm::{BoxedTm, SwissTm};

fn audit(name: &str, h: &InfiniteHistory) {
    println!("=== {name} ===");
    print!("{}", h.render());
    for (p, class) in classify_all(h) {
        println!("  {p}: {class}");
    }
    println!(
        "  local: {:<5}  global: {:<5}  solo: {:<5}  nonblocking-cond: {:<5}  biprogressing-cond: {}",
        LocalProgress.contains(h),
        GlobalProgress.contains(h),
        SoloProgress.contains(h),
        meta::satisfies_nonblocking_condition(h),
        meta::satisfies_biprogressing_condition(h),
    );
    println!();
}

fn process_list(ps: &[ProcessId]) -> String {
    if ps.is_empty() {
        "-".to_string()
    } else {
        ps.iter()
            .map(|p| format!("p{}", p.index() + 1))
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn main() {
    audit("Figure 5 (local progress)", &figures::figure_5());
    audit("Figure 6 (global, not local)", &figures::figure_6());
    audit("Figure 7 (solo progress)", &figures::figure_7());
    audit("Figure 9 (Algorithm 1, p1 crashes)", &figures::figure_9());
    audit("Figure 10 (Algorithm 1, p1 correct)", &figures::figure_10());
    audit(
        "Figure 12 (Algorithm 2, p1 parasitic)",
        &figures::figure_12(),
    );
    audit(
        "Figure 14 (blocking: no nonblocking property)",
        &figures::figure_14(),
    );

    println!("=== Property classes over the figure corpus (§5.1) ===");
    let corpus = figures::all_figures();
    let props: [(&str, &dyn TmLivenessProperty); 3] = [
        ("local progress", &LocalProgress),
        ("global progress", &GlobalProgress),
        ("solo progress", &SoloProgress),
    ];
    for (name, p) in props {
        let nonblocking = meta::nonblocking_counterexample(p, &corpus).is_none();
        let biprogressing = meta::biprogressing_counterexample(p, &corpus).is_none();
        println!("  {name:<16} nonblocking: {nonblocking:<5}  biprogressing: {biprogressing}");
    }
    println!("\nMatches the paper: local progress is nonblocking AND biprogressing");
    println!("(hence impossible with opacity, Theorem 2); global progress is not");
    println!("biprogressing; solo progress is nonblocking but not biprogressing.");

    // ---- Phase 2: the liveness model checker across the catalogue ----

    let x = TVarId(0);
    // Constant-write contention: bounded values keep the canonical
    // state graph finite, so lassos exist and the bound is meaningful.
    let scripts = vec![
        ClientScript::new(vec![PlannedOp::Write(x, 1)]),
        ClientScript::new(vec![PlannedOp::Read(x), PlannedOp::Write(x, 2)]),
    ];
    type Factory = Box<dyn Fn() -> BoxedTm>;
    let catalog: Vec<(&str, Factory)> = vec![
        (
            "fgp",
            Box::new(|| Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm),
        ),
        ("tl2", Box::new(|| Box::new(Tl2::new(2, 1)) as BoxedTm)),
        ("norec", Box::new(|| Box::new(NOrec::new(2, 1)) as BoxedTm)),
        (
            "tinystm",
            Box::new(|| Box::new(TinyStm::new(2, 1)) as BoxedTm),
        ),
        (
            "swisstm",
            Box::new(|| Box::new(SwissTm::new(2, 1)) as BoxedTm),
        ),
        ("ostm", Box::new(|| Box::new(Ostm::new(2, 1)) as BoxedTm)),
        ("dstm", Box::new(|| Box::new(Dstm::new(2, 1)) as BoxedTm)),
        (
            "global-lock",
            Box::new(|| Box::new(GlobalLock::new(2, 1)) as BoxedTm),
        ),
    ];
    let depth = 12;
    // `--progress` forces the stderr NDJSON stream (run_start, phase
    // spans, heartbeats, per-TM verdicts) when TM_TELEMETRY is unset;
    // otherwise the environment decides (off by default).
    let args: Vec<String> = std::env::args().collect();
    let progress = args.iter().any(|a| a == "--progress");
    // `--crashes <k>` / `--parasitic`: fault-prone checking — the
    // scheduler may crash up to k processes and turn processes
    // parasitic, exhaustively at every reachable configuration.
    let crashes: usize = args
        .iter()
        .position(|a| a == "--crashes")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let parasitic = args.iter().any(|a| a == "--parasitic");
    let faults = if parasitic {
        FaultConfig::with_crashes(crashes).and_parasitic()
    } else {
        FaultConfig::with_crashes(crashes)
    };
    let telemetry = if progress && std::env::var_os("TM_TELEMETRY").is_none() {
        Telemetry::to_stderr()
    } else {
        Telemetry::from_env()
    };
    let config = LivecheckConfig::new(depth)
        .with_reduction()
        .with_telemetry(&telemetry)
        .with_faults(faults);

    println!("\n=== Livecheck: lasso search over the canonical state graph ===");
    if faults.enabled() {
        println!(
            "fault mode: up to {crashes} crash(es){} — every placement quantified",
            if parasitic { " + parasitic turns" } else { "" }
        );
    }
    println!(
        "workload: p1 = (write x 1 · tryC)^ω, p2 = (read x · write x 2 · tryC)^ω, depth {depth}\n"
    );
    println!(
        "  {:<12} {:>7} {:>7} {:>7} {:>7}  {:<11} {:<10} {:<10} {:<11} verdict",
        "tm",
        "states",
        "edges",
        "cycles",
        "lassos",
        "progressing",
        "starving",
        "parasitic",
        "blocked"
    );
    let mut reports = Vec::new();
    for (name, factory) in &catalog {
        let report = livecheck(&**factory, &scripts, &config);
        assert_eq!(
            report.rejected_cycles, 0,
            "{name}: a rejected cycle means a fingerprint canonicalization bug"
        );
        let verdict = if report.lasso_starvation_free() {
            "starvation-free at bound"
        } else {
            "starvation/parasitic lasso"
        };
        println!(
            "  {:<12} {:>7} {:>7} {:>7} {:>7}  {:<11} {:<10} {:<10} {:<11} {verdict}",
            *name,
            report.states,
            report.edges,
            report.cycles_detected,
            report.lassos.len(),
            process_list(&report.progressing_processes()),
            process_list(&report.starving_processes()),
            process_list(&report.parasitic_processes()),
            process_list(&report.blocked_processes()),
        );
        if faults.enabled() {
            println!(
                "  {:<12} fair: {} · crash-victims: {} · crashed-mask: {:#b}",
                "",
                if report.fair_starvation_free() {
                    "starvation-free".to_string()
                } else {
                    format!(
                        "starving {}",
                        process_list(&report.fair_starving_processes())
                    )
                },
                process_list(&report.crash_victims()),
                report.crash_injected,
            );
        }
        reports.push((*name, report));
    }

    // A concrete starving lasso from the greedy TM, rendered with the
    // classify machinery — the Figure 6/10 shape found mechanically.
    let (_, fgp) = reports.iter().find(|(n, _)| *n == "fgp").expect("fgp ran");
    let witness = fgp
        .lassos
        .iter()
        .find(|l| !l.starving().is_empty())
        .expect("fgp must yield a starving lasso under contention");
    println!("\n=== A detected Fgp starvation lasso (cf. Figures 6/10) ===");
    print!("{}", witness.lasso.render());
    for (p, class) in &witness.classes {
        println!("  {p}: {class}");
    }
    println!(
        "  local: {:<5}  global: {:<5}",
        LocalProgress.contains(&witness.lasso),
        GlobalProgress.contains(&witness.lasso),
    );

    // ---- Assertions: the CI-checked headline results. ----
    let report_of = |name: &str| {
        &reports
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    };
    // Acceptance: contended greedy Fgp yields a classified starvation
    // lasso consistent with the paper's taxonomy...
    assert!(!report_of("fgp").lasso_starvation_free());
    assert!(GlobalProgress.contains(&witness.lasso));
    assert!(!LocalProgress.contains(&witness.lasso));
    if !faults.enabled() {
        // ...while the fault-free global-lock TM is certified
        // lasso-starvation-free at the same bound (it blocks instead:
        // §1.1 / Figure 14).
        assert!(report_of("global-lock").lasso_starvation_free());
    } else if crashes > 0 {
        // Theorem 1's corollary, mechanically: one crash suffices to
        // make even the lock TM's blocking crash-induced — a crashed
        // holder leaves the other process fair-scheduled yet stuck.
        assert!(
            !report_of("global-lock").crash_victims().is_empty(),
            "a crashed lock holder must produce a certified crash victim"
        );
    }
    assert!(!report_of("global-lock").blocked_processes().is_empty());
    // Every TM in the catalogue keeps some process progressing forever.
    for (name, report) in &reports {
        assert!(
            !report.progressing_processes().is_empty(),
            "{name}: nobody can progress"
        );
    }
    println!("\nliveness_audit: all checks passed");
}
