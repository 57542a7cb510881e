//! PERF4 — the liveness subsystem's scaling story.
//!
//! Three measurements, emitted as `BENCH_livecheck.json` at the
//! workspace root so the perf trajectory is tracked across PRs:
//!
//! 1. **Digest dedup** — the safety explorer with the cross-schedule
//!    seen set on vs off. On bounded-domain workloads the schedule tree
//!    collapses to the (small) set of distinct canonical states, turning
//!    exponential depths into near-constant work and unlocking bounds
//!    the plain DFS cannot touch.
//! 2. **Refork across the catalogue** — `refork_from` (hand-written
//!    `clone_from`, allocation-free) vs allocating `fork`, now wired
//!    through **all 8** catalogue TMs plus the blocking global-lock TM.
//! 3. **Livecheck scaling** — the liveness checker's cost as the bound
//!    grows: states/edges/steps stay flat once the canonical graph is
//!    saturated, while the equivalent schedule tree grows as `2^depth` —
//!    on the reduced production walk and on the plain oracle walk, whose
//!    states/lassos/starvation verdicts must match byte for byte.
//!
//! Run: `cargo bench -p bench --bench livecheck_scaling`

use bench::{best_secs, BenchRun, Json};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tm_automata::FgpVariant;
use tm_core::TVarId;
use tm_sim::{explore_with, livecheck, ClientScript, ExploreConfig, LivecheckConfig, PlannedOp};
use tm_stm::{BoxedTm, Dstm, FgpTm, GlobalLock, NOrec, Ostm, SteppedTm, SwissTm, TinyStm, Tl2};
use tm_telemetry::{Counter, Telemetry};

const X: TVarId = TVarId(0);

fn fgp() -> BoxedTm {
    Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly))
}

/// Unbounded-domain workload (increments): values grow along a path, so
/// dedup merges only across same-level permutations.
fn increments() -> Vec<ClientScript> {
    vec![ClientScript::increment(X), ClientScript::increment(X)]
}

/// Bounded-domain workload (constant writes): the canonical state space
/// is finite, so dedup collapses the tree completely.
fn bounded() -> Vec<ClientScript> {
    vec![
        ClientScript::new(vec![PlannedOp::Write(X, 1)]),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
    ]
}

fn bench_dedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("explorer-dedup/2p");
    group.sample_size(10);
    for depth in [10usize, 12] {
        for (workload, scripts) in [("incr", increments()), ("bounded", bounded())] {
            group.bench_with_input(
                BenchmarkId::new(format!("{workload}-off"), depth),
                &depth,
                |b, &d| b.iter(|| explore_with(fgp, &scripts, &ExploreConfig::new(d).sequential())),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{workload}-on"), depth),
                &depth,
                |b, &d| {
                    b.iter(|| {
                        explore_with(
                            fgp,
                            &scripts,
                            &ExploreConfig::new(d).sequential().with_dedup(),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_livecheck(c: &mut Criterion) {
    let mut group = c.benchmark_group("livecheck/2p");
    group.sample_size(10);
    let scripts = bounded();
    for depth in [12usize, 16] {
        group.bench_with_input(BenchmarkId::new("fgp", depth), &depth, |b, &d| {
            b.iter(|| livecheck(fgp, &scripts, &LivecheckConfig::new(d)))
        });
        group.bench_with_input(BenchmarkId::new("global-lock", depth), &depth, |b, &d| {
            b.iter(|| {
                livecheck(
                    || Box::new(GlobalLock::new(2, 1)),
                    &scripts,
                    &LivecheckConfig::new(d),
                )
            })
        });
    }
    group.finish();
}

fn emit_json(_c: &mut Criterion) {
    let run = BenchRun::from_args();
    let (test_mode, runs) = (run.test_mode, run.runs);

    // 1. Dedup on/off across workloads and depths.
    let mut dedup_rows = Vec::new();
    let mut headline_speedup = 0.0;
    let table: &[(&str, usize)] = if test_mode {
        &[("bounded", 8)]
    } else {
        &[
            ("incr", 10),
            ("incr", 12),
            ("bounded", 10),
            ("bounded", 12),
            ("bounded", 14),
        ]
    };
    for &(workload, depth) in table {
        let scripts = if workload == "incr" {
            increments()
        } else {
            bounded()
        };
        let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..runs {
            off = off.min(best_secs(1, || {
                explore_with(fgp, &scripts, &ExploreConfig::new(depth).sequential());
            }));
            on = on.min(best_secs(1, || {
                explore_with(
                    fgp,
                    &scripts,
                    &ExploreConfig::new(depth).sequential().with_dedup(),
                );
            }));
        }
        let sample = explore_with(
            fgp,
            &scripts,
            &ExploreConfig::new(depth).sequential().with_dedup(),
        );
        if workload == "bounded" && depth == 12 {
            headline_speedup = off / on;
        }
        dedup_rows.push(Json::Obj(vec![
            ("workload".into(), Json::str(workload)),
            ("depth".into(), Json::Int(depth as i64)),
            ("schedules".into(), Json::Int(1i64 << depth)),
            ("dedup_hits".into(), Json::Int(sample.dedup_hits as i64)),
            ("dfs_ms".into(), Json::Num(off * 1e3)),
            ("dedup_ms".into(), Json::Num(on * 1e3)),
            ("speedup_dedup_vs_dfs".into(), Json::Num(off / on)),
        ]));
    }

    // Deep bounds only dedup can reach: exponential schedule counts,
    // near-flat wall clock (the state graph saturates).
    let mut deep = Vec::new();
    let deep_depths: &[usize] = if test_mode { &[10] } else { &[16, 20, 24] };
    for &depth in deep_depths {
        let scripts = bounded();
        let on = best_secs(runs.min(3), || {
            let result = explore_with(
                fgp,
                &scripts,
                &ExploreConfig::new(depth).sequential().with_dedup(),
            );
            assert!(result.all_opaque());
        });
        deep.push(Json::Obj(vec![
            ("depth".into(), Json::Int(depth as i64)),
            ("schedules".into(), Json::Int(1i64 << depth)),
            ("dedup_ms".into(), Json::Num(on * 1e3)),
        ]));
    }

    // 2. Refork vs fork across the whole catalogue (all 8 TMs plus the
    // blocking global-lock TM): no explorer path pays an allocating fork
    // anymore.
    let mut refork_rows = Vec::new();
    let factories: Vec<(&str, BoxedTm)> = vec![
        ("fgp", Box::new(FgpTm::new(2, 2, FgpVariant::CpOnly))),
        ("tl2", Box::new(Tl2::new(2, 2))),
        ("norec", Box::new(NOrec::new(2, 2))),
        ("tinystm", Box::new(TinyStm::new(2, 2))),
        ("swisstm", Box::new(SwissTm::new(2, 2))),
        ("ostm", Box::new(Ostm::new(2, 2))),
        ("dstm", Box::new(Dstm::new(2, 2))),
        ("global-lock", Box::new(GlobalLock::new(2, 2))),
    ];
    for (name, mut tm) in factories {
        // Put the TM mid-transaction so the fork copies real state.
        tm.invoke(tm_core::ProcessId(0), tm_core::Invocation::Read(X));
        tm.invoke(tm_core::ProcessId(0), tm_core::Invocation::Write(X, 3));
        let mut spare = tm.fork();
        assert!(spare.refork_from(&*tm), "{name} must support refork");
        let fork_s = best_secs(runs, || {
            criterion::black_box(tm.fork());
        });
        let refork_s = best_secs(runs, || {
            criterion::black_box(spare.refork_from(&*tm));
        });
        // Regression floor: refork exists to beat the allocating fork,
        // and every catalogue TM clears 1.3× comfortably once its state's
        // `clone_from` reuses buffers (the global-lock TM was the
        // laggard at 1.19× until its runner stopped recording history
        // and its state gained a buffer-reusing `clone_from`).
        assert!(
            fork_s / refork_s >= 1.3,
            "{name}: refork regressed to {:.2}x vs fork",
            fork_s / refork_s
        );
        refork_rows.push(Json::Obj(vec![
            ("tm".into(), Json::str(name)),
            ("fork_ns".into(), Json::Num(fork_s * 1e9)),
            ("refork_ns".into(), Json::Num(refork_s * 1e9)),
            (
                "speedup_refork_vs_fork".into(),
                Json::Num(fork_s / refork_s),
            ),
        ]));
    }

    // 3. Livecheck scaling with the exploration bound.
    let mut live_rows = Vec::new();
    let live_table: &[(&str, usize)] = if test_mode {
        &[("fgp", 8)]
    } else {
        &[
            ("fgp", 12),
            ("fgp", 16),
            ("fgp", 20),
            ("tl2", 16),
            ("norec", 16),
            ("global-lock", 16),
        ]
    };
    for &(name, depth) in live_table {
        let factory: Box<dyn Fn() -> BoxedTm> = match name {
            "fgp" => Box::new(fgp),
            "tl2" => Box::new(|| Box::new(Tl2::new(2, 1)) as BoxedTm),
            "norec" => Box::new(|| Box::new(NOrec::new(2, 1)) as BoxedTm),
            _ => Box::new(|| Box::new(GlobalLock::new(2, 1)) as BoxedTm),
        };
        let scripts = bounded();
        let config = LivecheckConfig::new(depth);
        let reduced_config = LivecheckConfig::new(depth).with_reduction();
        let secs = best_secs(runs.min(3), || {
            criterion::black_box(livecheck(&*factory, &scripts, &config));
        });
        let reduced_secs = best_secs(runs.min(3), || {
            criterion::black_box(livecheck(&*factory, &scripts, &reduced_config));
        });
        let report = livecheck(&*factory, &scripts, &config);
        // The reduced sample run carries counter-mode telemetry so the
        // artifact rows gain the engine's own tallies (memo traffic, TM
        // fork/refork counts) alongside the report fields. When
        // `TM_TELEMETRY` is set (the CI smoke streams to a file the
        // `tm-obs summary --require-verdicts` gate then consumes), the
        // sample streams the full NDJSON run — run_start through
        // verdict — instead of only accumulating counters.
        let reduced_telemetry = {
            let streamed = Telemetry::from_env();
            if streamed.streams() {
                streamed
            } else {
                Telemetry::counters()
            }
        };
        let reduced = livecheck(
            &*factory,
            &scripts,
            &reduced_config.clone().with_telemetry(&reduced_telemetry),
        );
        let reduced_snap = reduced_telemetry.snapshot();
        assert_eq!(report.rejected_cycles, 0, "{name}: canonicalization bug");
        // The reduction's contract: identical graph, lassos and
        // verdicts — only TM executions drop. Computed (not assumed) so
        // the emitted field can never mask a divergence.
        let reduce_parity = report.states == reduced.states
            && report.edges == reduced.edges
            && report.lassos.len() == reduced.lassos.len()
            && report.verdicts == reduced.verdicts
            && report.steps == reduced.steps + reduced.replayed_steps;
        assert!(
            reduce_parity,
            "{name}: reduction diverged from the plain search"
        );
        live_rows.push(Json::Obj(vec![
            ("tm".into(), Json::str(name)),
            ("depth".into(), Json::Int(depth as i64)),
            ("schedules".into(), Json::Int(1i64 << depth)),
            ("states".into(), Json::Int(report.states as i64)),
            ("edges".into(), Json::Int(report.edges as i64)),
            ("steps".into(), Json::Int(report.steps as i64)),
            ("steps_reduced".into(), Json::Int(reduced.steps as i64)),
            (
                "replayed_steps".into(),
                Json::Int(reduced.replayed_steps as i64),
            ),
            (
                "memo_hits".into(),
                Json::Int(reduced_snap.get(Counter::MemoHits) as i64),
            ),
            (
                "tm_forks".into(),
                Json::Int(reduced_snap.get(Counter::TmForks) as i64),
            ),
            (
                "tm_reforks".into(),
                Json::Int(reduced_snap.get(Counter::TmReforks) as i64),
            ),
            ("cycles".into(), Json::Int(report.cycles_detected as i64)),
            ("lassos".into(), Json::Int(report.lassos.len() as i64)),
            (
                "starvation_free".into(),
                Json::Bool(report.lasso_starvation_free()),
            ),
            ("reduce_parity".into(), Json::Bool(reduce_parity)),
            ("ms".into(), Json::Num(secs * 1e3)),
            ("reduced_ms".into(), Json::Num(reduced_secs * 1e3)),
            (
                "speedup_reduced_vs_plain".into(),
                Json::Num(secs / reduced_secs),
            ),
        ]));
    }

    // Report parity: dedup must not change what the explorer reports.
    let parity = {
        let scripts = increments();
        let depth = if test_mode { 7 } else { 10 };
        let plain = explore_with(fgp, &scripts, &ExploreConfig::new(depth).sequential());
        let deduped = explore_with(
            fgp,
            &scripts,
            &ExploreConfig::new(depth).sequential().with_dedup(),
        );
        plain.report() == deduped.report()
    };

    run.emit(
        "livecheck",
        vec![
            ("dedup_comparison".into(), Json::Arr(dedup_rows)),
            ("dedup_deep_bounds".into(), Json::Arr(deep)),
            ("refork".into(), Json::Arr(refork_rows)),
            ("livecheck".into(), Json::Arr(live_rows)),
            (
                "headline_speedup_dedup_vs_dfs_bounded_depth12".into(),
                Json::Num(headline_speedup),
            ),
            ("report_parity_with_plain_dfs".into(), Json::Bool(parity)),
        ],
    );
    assert!(parity, "dedup changed the exploration report");
}

// `emit_json` runs first so the committed artifact reflects steady-state
// rather than post-throttle timing (see PERF3).
criterion_group!(benches, emit_json, bench_dedup, bench_livecheck);
criterion_main!(benches);
