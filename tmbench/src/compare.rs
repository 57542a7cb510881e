//! `tmbench compare <a.json>… -- <b.json>…`: do two sets of runs agree?
//!
//! Each file holds the standard output of one `tmbench run`; its last
//! line is the result object. For every metric the command prints each
//! set's median and quartiles. A metric whose medians differ by more
//! than its `bound` in `BENCHMARK.json` (as a share of set A's median,
//! in either direction) fails the comparison, and the command exits 1.
//! Two sets of the same code that fail mean the metric is measured too
//! briefly: raise the workload's repetitions (`--seconds`), not the
//! bound.

use std::collections::BTreeMap;
use std::process::ExitCode;

use tm_telemetry::Json;

use crate::stats::{median, quartiles};

/// One set of runs: per metric, its unit and one value per run.
type Set = BTreeMap<String, (String, Vec<f64>)>;

fn number(json: &Json) -> Option<f64> {
    match json {
        Json::Num(x) => Some(*x),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn load(paths: &[String]) -> Result<Set, String> {
    let mut set = Set::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("{path}: empty"))?;
        let result = Json::parse(last).map_err(|e| format!("{path}: {e}"))?;
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{path}: last line has no `metrics` object"));
        };
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(number)
                .ok_or_else(|| format!("{path}: metric {name} has no numeric value"))?;
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            let entry = set
                .entry(name.clone())
                .or_insert_with(|| (unit.to_string(), Vec::new()));
            entry.1.push(value);
        }
    }
    Ok(set)
}

/// `name → bound` for every end-to-end metric in `BENCHMARK.json`.
fn bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(metrics)) = spec.get("end_to_end") else {
        return Err(format!("{path}: no `end_to_end` list"));
    };
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(number);
            match (name, bound) {
                (Some(name), Some(bound)) => Ok((name.to_string(), bound)),
                _ => Err(format!("{path}: end_to_end entry without name and bound")),
            }
        })
        .collect()
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs `--` between the two sets")?;
    let (a, b) = (&args[..split], &args[split + 1..]);
    if a.is_empty() || b.is_empty() {
        return Err("compare needs at least one file on each side of `--`".to_string());
    }
    let bounds = bounds("BENCHMARK.json")?;
    let (a, b) = (load(a)?, load(b)?);
    println!(
        "{:<42} {:>6}  {:>34}  {:>34}  {:>8} {:>6}",
        "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound"
    );
    let mut differ = Vec::new();
    for (name, (unit, xs)) in &a {
        let Some((_, ys)) = b.get(name) else {
            differ.push(format!("{name} is missing from set B"));
            continue;
        };
        let summary = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            format!("{:.6} [{q1:.6}, {q3:.6}]", median(v))
        };
        let (ma, mb) = (median(xs), median(ys));
        let delta = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
        let bound = bounds.get(name);
        let verdict = match bound {
            Some(&bound) if delta.abs() > bound => {
                differ.push(format!(
                    "{name}: {:+.1}% against a ±{:.0}% bound",
                    100.0 * delta,
                    100.0 * bound
                ));
                "DIFFERS"
            }
            Some(_) => "ok",
            None => "",
        };
        println!(
            "{name:<42} {unit:>6}  {:>34}  {:>34}  {:>+7.1}% {:>6} {verdict}",
            summary(xs),
            summary(ys),
            100.0 * delta,
            bound.map_or(String::new(), |b| format!("{:.0}%", 100.0 * b)),
        );
    }
    if differ.is_empty() {
        println!("every bounded metric agrees within its bound");
        return Ok(ExitCode::SUCCESS);
    }
    for d in &differ {
        println!("differs: {d}");
    }
    println!("if both sets ran the same code, raise the workload's repetitions (--seconds), not the bound");
    Ok(ExitCode::FAILURE)
}
