//! The metrics the benchmark reports, under the names and units
//! `BENCHMARK.json` lists (a test keeps the two in step).

use crate::workload::Raw;

pub const WORKLOADS: [&str; 4] = ["safety", "liveness", "online-hot", "online-cold"];

/// End-to-end metrics, `(name, unit)`, printed by every untraced run:
/// set-up time, time to the verdict table, peak memory — in that order.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MB")];

/// A per-layer metric, computed from one traced pass's raw measurements.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: fn(&Raw) -> f64,
}

const fn metric(name: &'static str, unit: &'static str, value: fn(&Raw) -> f64) -> LayerMetric {
    LayerMetric { name, unit, value }
}

fn get(raw: &Raw, key: &str) -> f64 {
    raw.get(key).copied().unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `secs` as a percentage of the traced verdict-table time.
fn share(raw: &Raw, secs: f64) -> f64 {
    100.0 * ratio(secs, get(raw, "wall_s"))
}

fn pct(raw: &Raw, key: &str) -> f64 {
    share(raw, get(raw, key))
}

/// Every per-layer metric, printed by every traced run. A layer the
/// workload does not exercise reads 0. Layer times are shares of
/// `trace.wall_s` rather than seconds, so a layer's absolute time is
/// `trace.wall_s × pct / 100`; on the checker workloads the TM call
/// families, `engine.self_pct` and `scc_certify_pct` add up to 100.
pub const PER_LAYER: &[LayerMetric] = &[
    metric("trace.wall_s", "s", |r| get(r, "wall_s")),
    metric("trace.overhead_s", "s", |r| {
        get(r, "wall_s") - get(r, "untraced_s")
    }),
    metric("tm_stm.step.calls", "count", |r| get(r, "step.calls")),
    metric("tm_stm.step.busy_pct", "%", |r| pct(r, "step.busy_s")),
    metric("tm_stm.branch.calls", "count", |r| get(r, "branch.calls")),
    metric("tm_stm.branch.busy_pct", "%", |r| pct(r, "branch.busy_s")),
    metric("tm_stm.branch.refork_ratio", "ratio", |r| {
        ratio(
            get(r, "tm_reforks"),
            get(r, "tm_forks") + get(r, "tm_reforks"),
        )
    }),
    metric("tm_stm.digest.calls", "count", |r| get(r, "digest.calls")),
    metric("tm_stm.digest.busy_pct", "%", |r| pct(r, "digest.busy_s")),
    metric("tm_stm.footprint.calls", "count", |r| {
        get(r, "footprint.calls")
    }),
    metric("tm_stm.footprint.busy_pct", "%", |r| {
        pct(r, "footprint.busy_s")
    }),
    metric("tm_sim.engine.self_pct", "%", |r| {
        if get(r, "step.calls") == 0.0 {
            return 0.0;
        }
        let tm: f64 = ["step", "branch", "digest", "footprint"]
            .iter()
            .map(|layer| get(r, &format!("{layer}.busy_s")))
            .sum();
        share(r, get(r, "wall_s") - tm - get(r, "scc_certify_s"))
    }),
    metric("tm_sim.explore.schedules", "count", |r| {
        get(r, "schedules_executed")
    }),
    metric("tm_sim.explore.worker_steps", "count", |r| {
        get(r, "worker_steps")
    }),
    metric("tm_sim.reduction.dpor_races", "count", |r| {
        get(r, "dpor_races")
    }),
    metric("tm_sim.reduction.wakeup_inserts", "count", |r| {
        get(r, "wakeup_inserts")
    }),
    metric("tm_sim.reduction.wakeup_redundant", "count", |r| {
        get(r, "wakeup_redundant")
    }),
    metric("tm_sim.reduction.useful_ratio", "ratio", |r| {
        let inserts = get(r, "wakeup_inserts");
        ratio(inserts, inserts + get(r, "wakeup_redundant"))
    }),
    metric("tm_safety.exact_fallbacks", "count", |r| {
        get(r, "exact_fallbacks")
    }),
    metric("tm_sim.livecheck.states", "count", |r| {
        get(r, "graph_nodes")
    }),
    metric("tm_sim.livecheck.edges", "count", |r| get(r, "graph_edges")),
    metric("tm_sim.livecheck.steps_executed", "count", |r| {
        get(r, "steps_executed")
    }),
    metric("tm_sim.livecheck.steps_replayed", "count", |r| {
        get(r, "steps_replayed")
    }),
    metric("tm_sim.livecheck.memo_hits", "count", |r| {
        get(r, "memo_hits")
    }),
    metric("tm_sim.livecheck.search_pct", "%", |r| pct(r, "search_s")),
    metric("tm_liveness.scc_certify_pct", "%", |r| {
        pct(r, "scc_certify_s")
    }),
    metric("tm_stm.concurrent.bare_pct", "%", |r| pct(r, "bare_s")),
    metric("tm_stm.concurrent.abort_ratio", "ratio", |r| {
        let aborts = get(r, "bare_aborts");
        ratio(aborts, get(r, "txs") + aborts)
    }),
    metric("tm_stm.sharded.record_pct", "%", |r| pct(r, "record_s")),
    metric("tm_stm.sharded.merge_pct", "%", |r| pct(r, "merge_s")),
    metric("tm_sim.online.chunker_pct", "%", |r| pct(r, "chunker_s")),
    metric("tm_sim.online.events", "count", |r| get(r, "events")),
    metric("tm_sim.online.chunks", "count", |r| get(r, "chunks")),
    metric("tm_sim.online.mean_chunk_events", "count", |r| {
        ratio(get(r, "events"), get(r, "chunks"))
    }),
    metric("tm_sim.online.epochs", "count", |r| get(r, "epochs_sealed")),
    metric("tm_sim.online.max_lag_epochs", "count", |r| {
        get(r, "checker_lag_epochs")
    }),
    metric("tm_sim.online.lag_pct", "%", |r| pct(r, "lag_s")),
    metric("tm_safety.certify_pct", "%", |r| pct(r, "certify_s")),
    metric("tm_sim.frontier.distribute_overhead_pct", "%", |r| {
        if get(r, "distribute_s") == 0.0 {
            return 0.0;
        }
        share(r, get(r, "distribute_s") - get(r, "certify_s"))
    }),
];

#[cfg(test)]
mod tests {
    use super::*;
    use tm_telemetry::Json;

    /// `(name, unit)` of every entry of one list in `BENCHMARK.json`.
    fn listed(spec: &Json, list: &str, unit: bool) -> Vec<(String, String)> {
        let Some(Json::Arr(entries)) = spec.get(list) else {
            panic!("BENCHMARK.json has no `{list}` list");
        };
        entries
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (
                    field("name"),
                    if unit { field("unit") } else { String::new() },
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let own = |pairs: Vec<(&str, &str)>| -> Vec<(String, String)> {
            pairs
                .into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (*w, "")).collect();
        assert_eq!(listed(&spec, "workloads", false), own(workloads));
        assert_eq!(listed(&spec, "end_to_end", true), own(END_TO_END.to_vec()));
        let per_layer = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(listed(&spec, "per_layer", true), own(per_layer));
    }
}
