//! Model checking TMs: exhaustive interleaving exploration and automaton
//! state enumeration — including re-discovering the paper's `Fgp`
//! specification bug automatically.
//!
//! Run with: `cargo run --release --example model_checking`
//!
//! Telemetry: set `TM_TELEMETRY=stderr` (or a file path) to stream the
//! explorer's NDJSON event log, or pass `--progress` to force the
//! stderr stream — heartbeats included — when the variable is unset.

use tm_liveness_repro::prelude::*;
use tm_liveness_repro::sim::PlannedOp;
use tm_liveness_repro::stm::BoxedTm;

use tm_liveness_repro::sim::explore_schedules_naive;

fn main() {
    let x = TVarId(0);
    // `--progress` forces the stderr NDJSON stream (run_start, phase
    // spans, heartbeats, verdicts) when TM_TELEMETRY is unset;
    // otherwise the environment decides (off by default).
    let progress = std::env::args().any(|a| a == "--progress");
    let telemetry = if progress && std::env::var_os("TM_TELEMETRY").is_none() {
        Telemetry::to_stderr()
    } else {
        Telemetry::from_env()
    };

    println!("== 1. Figure 15: the reachable states of Fgp (1 proc, 1 binary var) ==\n");
    let graph =
        enumerate_states(&Fgp::new(1, 1, FgpVariant::CpOnly), &[0, 1], 1_000).expect("tiny graph");
    println!(
        "   {} states, {} edges, abort edges: {}\n",
        graph.state_count(),
        graph.edges.len(),
        graph.has_abort_edges()
    );

    println!("== 2. Exhaustive opacity check of every TM, all 2^12 schedules ==\n");
    let scripts = vec![ClientScript::increment(x), ClientScript::increment(x)];
    for factory_name in ["fgp", "tl2", "tinystm", "swisstm", "norec", "ostm", "dstm"] {
        let name = factory_name.to_string();
        let result = explore_schedules(
            || {
                nonblocking_catalog(2, 1)
                    .into_iter()
                    .find(|tm| tm.name() == name)
                    .expect("catalogue name")
            },
            &scripts,
            12,
        );
        println!(
            "   {:<10} schedules={} violations={}",
            factory_name,
            result.schedules,
            result.violations.len()
        );
        assert!(result.all_opaque());
    }

    println!("\n== 2b. The prefix-sharing DFS makes depth 16 routine ==\n");
    let deep = explore_schedules(
        || Box::new(tm_liveness_repro::stm::FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm,
        &scripts,
        16,
    );
    println!(
        "   fgp        schedules={} (2^16) violations={}",
        deep.schedules,
        deep.violations.len()
    );
    assert!(deep.all_opaque());

    println!("\n== 2c. Optimal DPOR explores one schedule per equivalence class ==\n");
    let contended = vec![
        ClientScript::increment(x),
        ClientScript::increment(x),
        ClientScript::read_both(x, TVarId(1)),
    ];
    let full = explore_schedules(
        || Box::new(tm_liveness_repro::stm::FgpTm::new(3, 2, FgpVariant::CpOnly)) as BoxedTm,
        &contended,
        8,
    );
    let dpor = explore_with(
        || Box::new(tm_liveness_repro::stm::FgpTm::new(3, 2, FgpVariant::CpOnly)) as BoxedTm,
        &contended,
        &ExploreConfig::new(8).with_telemetry(&telemetry),
    );
    println!(
        "   fgp 3p/d8  executed {} of {} schedules ({:.0}x fewer), same verdict",
        dpor.schedules,
        full.schedules,
        full.schedules as f64 / dpor.schedules as f64
    );
    assert_eq!(full.all_opaque(), dpor.all_opaque());
    assert!(dpor.schedules * 5 <= full.schedules);

    println!("\n== 3. The literal Fgp formal rules fail the same check ==\n");
    let scripts = vec![
        ClientScript::increment(x),
        ClientScript::new(vec![PlannedOp::Read(x), PlannedOp::Write(x, 5)]),
    ];
    let result = explore_schedules(
        || tm_liveness_repro::stm::literal_fgp(2, 1) as BoxedTm,
        &scripts,
        10,
    );
    println!(
        "   fgp-literal: {} of {} schedules produce NON-OPAQUE histories",
        result.violations.len(),
        result.schedules
    );
    if let Some(v) = result.violations.first() {
        println!("\n   shortest counterexample found:");
        print!("{}", v.history.render_lanes());
        println!("   ({})\n", v.detail);
    }
    println!("   The paper's prose is fine; its formal write rule forgets to gate");
    println!("   Val updates on Status[k] = c. See FgpVariant's docs in tm-automata.");

    println!("\n== 4. Differential check: DFS explorer ≡ the naive enumerator ==\n");
    let start = std::time::Instant::now();
    let naive = explore_schedules_naive(
        || tm_liveness_repro::stm::literal_fgp(2, 1) as BoxedTm,
        &scripts,
        10,
    );
    let naive_time = start.elapsed();
    let start = std::time::Instant::now();
    let dfs = explore_schedules(
        || tm_liveness_repro::stm::literal_fgp(2, 1) as BoxedTm,
        &scripts,
        10,
    );
    let dfs_time = start.elapsed();
    assert_eq!(naive, dfs, "explorers must produce identical reports");
    println!(
        "   identical reports ({} schedules, {} violations); naive {:?}, dfs {:?}",
        dfs.schedules,
        dfs.violations.len(),
        naive_time,
        dfs_time,
    );
}
