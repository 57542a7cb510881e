//! Quickstart: histories, safety checking, and liveness classification.
//! Each printed verdict is asserted against the paper's, so a wrong
//! rendering fails the run.
//!
//! Run with: `cargo run --example quickstart`

use tm_liveness::figures as live_figures;
use tm_liveness_repro::prelude::*;

fn main() {
    println!("== 1. Build the paper's example histories and check safety ==\n");
    // (name, history, opaque, strictly serializable), as the paper
    // states them.
    for (name, h, opaque, strict) in [
        ("Figure 1", figures::figure_1(), true, true),
        ("Figure 3", figures::figure_3(), false, false),
        ("Figure 4", figures::figure_4(), false, true),
    ] {
        println!("{name}:");
        print!("{}", h.render_lanes());
        let verdicts = (is_opaque(&h), is_strictly_serializable(&h));
        println!(
            "  opaque: {:<5}  strictly serializable: {}\n",
            verdicts.0, verdicts.1
        );
        assert_eq!(verdicts, (opaque, strict), "{name}");
    }

    println!("== 2. Run a transaction against a real STM ==\n");
    let (p1, p2, x) = (ProcessId(0), ProcessId(1), TVarId(0));
    let mut tm = Recorded::new(Tl2::new(2, 1));
    tm.invoke(p1, Invocation::Read(x));
    tm.invoke(p2, Invocation::Write(x, 42));
    tm.invoke(p2, Invocation::TryCommit);
    tm.invoke(p1, Invocation::Write(x, 1));
    tm.invoke(p1, Invocation::TryCommit); // aborted: p2 committed first
    println!("TL2 produced:");
    print!("{}", tm.history().render_lanes());
    let opaque = is_opaque(tm.history());
    println!("  opaque: {opaque}\n");
    assert!(opaque, "TL2's history must be opaque");

    println!("== 3. Classify processes in an infinite history (Figure 7) ==\n");
    let h = live_figures::figure_7();
    print!("{}", h.render());
    for (p, class) in tm_liveness::classify_all(&h) {
        println!("  {p}: {class}");
    }
    let progress = (
        LocalProgress.contains(&h),
        GlobalProgress.contains(&h),
        SoloProgress.contains(&h),
    );
    println!(
        "  local progress: {}   global progress: {}   solo progress: {}",
        progress.0, progress.1, progress.2
    );
    // p3 is Figure 7's only correct process and it progresses, so all
    // three properties hold.
    assert_eq!(progress, (true, true, true), "Figure 7");
}
