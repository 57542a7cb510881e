//! PERF3 — naive enumerator vs prefix-sharing DFS explorer.
//!
//! Measures the model checker across depths and process counts in four
//! configurations — the seed's from-scratch enumerator, the DFS explorer
//! single-threaded, the DFS explorer with its parallel frontier, and DFS
//! with optimal (wakeup-tree) DPOR — and emits a machine-readable
//! `BENCH_explorer.json` at the workspace root so the perf trajectory is
//! tracked across PRs. Each comparison row records the *executed*
//! schedule count under optimal DPOR against the full tree: the
//! equivalence-class reduction headline.
//!
//! Run: `cargo bench -p bench --bench explorer_scaling`

use bench::{best_secs, BenchRun, Json};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tm_automata::FgpVariant;
use tm_core::TVarId;
use tm_sim::{explore_schedules_naive, explore_with, ClientScript, ExploreConfig};
use tm_stm::{BoxedTm, FgpTm};
use tm_telemetry::{Counter, Telemetry};

const X: TVarId = TVarId(0);
const Y: TVarId = TVarId(1);

fn factory2() -> BoxedTm {
    Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly))
}

fn factory3() -> BoxedTm {
    Box::new(FgpTm::new(3, 2, FgpVariant::CpOnly))
}

fn scripts2() -> Vec<ClientScript> {
    vec![ClientScript::increment(X), ClientScript::increment(X)]
}

fn scripts3() -> Vec<ClientScript> {
    vec![
        ClientScript::increment(X),
        ClientScript::increment(X),
        ClientScript::read_both(X, Y),
    ]
}

fn bench_two_processes(c: &mut Criterion) {
    let scripts = scripts2();
    let mut group = c.benchmark_group("explorer/2p");
    group.sample_size(10);
    for depth in [8usize, 10, 12] {
        group.bench_with_input(BenchmarkId::new("naive", depth), &depth, |b, &d| {
            b.iter(|| explore_schedules_naive(factory2, &scripts, d))
        });
        group.bench_with_input(BenchmarkId::new("dfs-seq", depth), &depth, |b, &d| {
            b.iter(|| explore_with(factory2, &scripts, &ExploreConfig::new(d).sequential()))
        });
        group.bench_with_input(BenchmarkId::new("dfs-par", depth), &depth, |b, &d| {
            b.iter(|| explore_with(factory2, &scripts, &ExploreConfig::new(d)))
        });
        group.bench_with_input(BenchmarkId::new("dfs-optimal", depth), &depth, |b, &d| {
            b.iter(|| {
                explore_with(
                    factory2,
                    &scripts,
                    &ExploreConfig::new(d).sequential().with_optimal_dpor(),
                )
            })
        });
    }
    group.finish();
}

fn bench_three_processes(c: &mut Criterion) {
    let scripts = scripts3();
    let mut group = c.benchmark_group("explorer/3p");
    group.sample_size(10);
    for depth in [6usize, 7, 8] {
        group.bench_with_input(BenchmarkId::new("naive", depth), &depth, |b, &d| {
            b.iter(|| explore_schedules_naive(factory3, &scripts, d))
        });
        group.bench_with_input(BenchmarkId::new("dfs-seq", depth), &depth, |b, &d| {
            b.iter(|| explore_with(factory3, &scripts, &ExploreConfig::new(d).sequential()))
        });
        group.bench_with_input(BenchmarkId::new("dfs-par", depth), &depth, |b, &d| {
            b.iter(|| explore_with(factory3, &scripts, &ExploreConfig::new(d)))
        });
        group.bench_with_input(BenchmarkId::new("dfs-optimal", depth), &depth, |b, &d| {
            b.iter(|| {
                explore_with(
                    factory3,
                    &scripts,
                    &ExploreConfig::new(d).sequential().with_optimal_dpor(),
                )
            })
        });
    }
    group.finish();
}

/// Emits `BENCH_explorer.json`: the headline comparison table plus the
/// deep-bound runs the naive enumerator cannot reach comfortably.
fn emit_json(_c: &mut Criterion) {
    let run = BenchRun::from_args();
    let (test_mode, runs) = (run.test_mode, run.runs);

    let mut rows = Vec::new();
    let mut headline_speedup = 0.0;
    let mut headline_optimal_reduction = 0.0;
    let table: &[(usize, usize)] = if test_mode {
        &[(2, 6)]
    } else {
        &[(2, 8), (2, 10), (2, 12), (3, 6), (3, 7), (3, 8)]
    };
    for &(procs, depth) in table {
        let (factory, scripts): (fn() -> BoxedTm, Vec<ClientScript>) = if procs == 2 {
            (factory2, scripts2())
        } else {
            (factory3, scripts3())
        };
        // Interleave the configurations round by round so slow drift
        // (thermal, co-tenancy) hits them evenly.
        let (mut naive, mut dfs, mut par, mut optimal) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..runs {
            naive = naive.min(best_secs(1, || {
                explore_schedules_naive(factory, &scripts, depth);
            }));
            dfs = dfs.min(best_secs(1, || {
                explore_with(factory, &scripts, &ExploreConfig::new(depth).sequential());
            }));
            par = par.min(best_secs(1, || {
                explore_with(factory, &scripts, &ExploreConfig::new(depth));
            }));
            optimal = optimal.min(best_secs(1, || {
                explore_with(
                    factory,
                    &scripts,
                    &ExploreConfig::new(depth).sequential().with_optimal_dpor(),
                );
            }));
        }
        if procs == 2 && depth == 10 {
            headline_speedup = naive / dfs;
        }
        // Executed-schedule counts: the equivalence-class reduction.
        // The sample run carries telemetry so the artifact rows gain the
        // engine's own tallies (DPOR races, wakeup-tree inserts, TM
        // fork/refork traffic) alongside the timings. It streams when
        // `TM_TELEMETRY` is set (the CI smoke does), so each row is
        // followed by its run's events in the NDJSON stream; otherwise it
        // accumulates counters only.
        let optimal_telemetry = {
            let streamed = Telemetry::from_env();
            if streamed.streams() {
                streamed
            } else {
                Telemetry::counters()
            }
        };
        let optimal_sample = explore_with(
            factory,
            &scripts,
            &ExploreConfig::new(depth)
                .sequential()
                .with_optimal_dpor()
                .with_telemetry(&optimal_telemetry),
        );
        let optimal_snap = optimal_telemetry.snapshot();
        let exhaustive = explore_with(factory, &scripts, &ExploreConfig::new(depth).sequential());
        assert_eq!(
            exhaustive.all_opaque(),
            optimal_sample.all_opaque(),
            "optimal DPOR changed a verdict at {procs}p depth {depth}"
        );
        assert!(
            optimal_sample.schedules < exhaustive.schedules,
            "optimal DPOR must prune at {procs}p depth {depth}"
        );
        let optimal_reduction = exhaustive.schedules as f64 / optimal_sample.schedules as f64;
        if procs == 3 && depth == 8 {
            headline_optimal_reduction = optimal_reduction;
        }
        rows.push(Json::Obj(vec![
            ("processes".into(), Json::Int(procs as i64)),
            ("depth".into(), Json::Int(depth as i64)),
            (
                "schedules".into(),
                Json::Int((procs as i64).pow(depth as u32)),
            ),
            ("naive_ms".into(), Json::Num(naive * 1e3)),
            ("dfs_seq_ms".into(), Json::Num(dfs * 1e3)),
            // Since the PR-5 kernel extraction the sequential DFS *is*
            // the engine path; the column exists so the kernel's cost is
            // tracked across PRs against the pre-refactor dfs_seq_ms
            // history (one measurement, two names — a second timing of
            // the same call would only record noise).
            ("dfs_engine_ms".into(), Json::Num(dfs * 1e3)),
            ("dfs_par_ms".into(), Json::Num(par * 1e3)),
            ("dfs_optimal_ms".into(), Json::Num(optimal * 1e3)),
            (
                "optimal_schedules".into(),
                Json::Int(optimal_sample.schedules as i64),
            ),
            (
                "dpor_races".into(),
                Json::Int(optimal_snap.get(Counter::DporRaces) as i64),
            ),
            (
                "optimal_schedules_pruned".into(),
                Json::Int(optimal_snap.get(Counter::SchedulesPruned) as i64),
            ),
            (
                "optimal_tm_forks".into(),
                Json::Int(optimal_snap.get(Counter::TmForks) as i64),
            ),
            (
                "optimal_tm_reforks".into(),
                Json::Int(optimal_snap.get(Counter::TmReforks) as i64),
            ),
            (
                "wakeup_inserts".into(),
                Json::Int(optimal_snap.get(Counter::WakeupInserts) as i64),
            ),
            (
                "wakeup_redundant".into(),
                Json::Int(optimal_snap.get(Counter::WakeupRedundant) as i64),
            ),
            (
                "optimal_reduction_vs_exhaustive".into(),
                Json::Num(optimal_reduction),
            ),
            ("speedup_dfs_vs_naive".into(), Json::Num(naive / dfs)),
            ("speedup_par_vs_seq".into(), Json::Num(dfs / par)),
            ("speedup_optimal_vs_seq".into(), Json::Num(dfs / optimal)),
        ]));
    }

    // Deep bounds: the new routine frontier (DFS only — the point is
    // that these depths are now cheap).
    let mut deep = Vec::new();
    let deep_table: &[(usize, usize)] = if test_mode {
        &[(2, 8)]
    } else {
        &[(2, 14), (2, 16), (3, 10), (3, 11)]
    };
    for &(procs, depth) in deep_table {
        let (factory, scripts): (fn() -> BoxedTm, Vec<ClientScript>) = if procs == 2 {
            (factory2, scripts2())
        } else {
            (factory3, scripts3())
        };
        let par = best_secs(runs.min(3), || {
            let result = explore_with(factory, &scripts, &ExploreConfig::new(depth));
            assert!(result.all_opaque());
        });
        deep.push(Json::Obj(vec![
            ("processes".into(), Json::Int(procs as i64)),
            ("depth".into(), Json::Int(depth as i64)),
            (
                "schedules".into(),
                Json::Int((procs as i64).pow(depth as u32)),
            ),
            ("dfs_par_ms".into(), Json::Num(par * 1e3)),
        ]));
    }

    // Differential parity on a verdict-bearing workload.
    let buggy_scripts = vec![
        ClientScript::increment(X),
        ClientScript::new(vec![
            tm_sim::PlannedOp::Read(X),
            tm_sim::PlannedOp::Write(X, 5),
        ]),
    ];
    let parity_depth = if test_mode { 6 } else { 9 };
    let naive = explore_schedules_naive(|| tm_stm::literal_fgp(2, 1), &buggy_scripts, parity_depth);
    let dfs = explore_with(
        || tm_stm::literal_fgp(2, 1),
        &buggy_scripts,
        &ExploreConfig::new(parity_depth),
    );
    let parity = naive == dfs;
    // Optimal-DPOR parity on the same verdict-bearing workload: the
    // wakeup-tree walk must also find the leak, reporting only
    // violations the naive enumerator reports verbatim.
    let optimal = explore_with(
        || tm_stm::literal_fgp(2, 1),
        &buggy_scripts,
        &ExploreConfig::new(parity_depth)
            .sequential()
            .with_optimal_dpor(),
    );
    let optimal_parity = naive.all_opaque() == optimal.all_opaque()
        && optimal
            .violations
            .iter()
            .all(|v| naive.violations.contains(v));

    run.emit(
        "explorer",
        vec![
            ("tm".into(), Json::str("fgp")),
            ("comparison".into(), Json::Arr(rows)),
            ("deep_bounds".into(), Json::Arr(deep)),
            (
                "headline_speedup_dfs_vs_naive_2p_depth10".into(),
                Json::Num(headline_speedup),
            ),
            (
                "headline_optimal_reduction_vs_exhaustive_3p_depth8".into(),
                Json::Num(headline_optimal_reduction),
            ),
            ("verdict_parity_with_naive".into(), Json::Bool(parity)),
            (
                "optimal_dpor_verdict_parity".into(),
                Json::Bool(optimal_parity),
            ),
        ],
    );
    if !test_mode {
        assert!(
            headline_optimal_reduction >= 10.0,
            "optimal DPOR must execute ≥10× fewer schedules than the full tree at 3p \
             depth 8 (got {headline_optimal_reduction:.1}×)"
        );
    }
    assert!(parity, "DFS and naive explorer reports must be identical");
    assert!(
        optimal_parity,
        "optimal DPOR diverged from the naive verdict"
    );
}

// `emit_json` runs first: on small single-core runners, minutes of
// sustained benching can thermally throttle the box, and the committed
// artifact should reflect steady-state rather than post-throttle timing.
criterion_group!(
    benches,
    emit_json,
    bench_two_processes,
    bench_three_processes
);
criterion_main!(benches);
