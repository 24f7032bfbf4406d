//! `--compare base.jsonl head.jsonl`: two result sets side by side.
//!
//! Both files hold the lines `perfbench` appends to
//! `.bench_out/runs.jsonl`. For each workload and end-to-end metric
//! (untraced runs only) it prints each side's median and quartiles and
//! the median delta against the metric's bound from `BENCHMARK.json`.
//! A metric is "unresolved" when the base's own quartile spread exceeds
//! the bound. A gain is called only when the head wins at least nine in
//! ten runs paired by seed (ties count for neither side) and the medians
//! differ by more than the base's quartile spread.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

use crate::util::{median, quartiles};

/// `(workload, metric) -> [(seed, value)]`, plus each metric's unit.
type Samples = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn load(path: &Path, units: &mut BTreeMap<String, String>) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Samples::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if v.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let workload = match v.get("workload") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(format!("{}:{}: no workload", path.display(), i + 1)),
        };
        let seed = v.get("seed").and_then(Value::as_u64).unwrap_or(0);
        let gated = v.get("result").and_then(|r| r.get("metrics"));
        for metrics in [gated, v.get("detail")].into_iter().flatten() {
            for (name, m) in metrics.as_map().unwrap_or(&[]) {
                let Some(x) = m.get("value").and_then(Value::as_f64) else {
                    continue;
                };
                // Counts (passes, threads, samples) describe the run.
                match m.get("unit") {
                    Some(Value::Str(u)) if u == "count" => continue,
                    Some(Value::Str(u)) => {
                        units.insert(name.clone(), u.clone());
                    }
                    _ => {}
                }
                let key = (workload.clone(), name.clone());
                let seen = out.entry(key).or_default();
                if !seen.iter().any(|&(s, _)| s == seed) {
                    seen.push((seed, x));
                }
            }
        }
    }
    Ok(out)
}

/// `(better is lower, bound)` per gated metric from `BENCHMARK.json`.
fn bounds() -> BTreeMap<String, (bool, f64)> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return out;
    };
    let Ok(v) = serde_json::from_str::<Value>(&text) else {
        return out;
    };
    for m in v.get("end_to_end").and_then(Value::as_seq).unwrap_or(&[]) {
        if let (Some(Value::Str(name)), Some(Value::Str(better)), Some(bound)) = (
            m.get("name"),
            m.get("better"),
            m.get("bound").and_then(Value::as_f64),
        ) {
            out.insert(name.clone(), (better == "lower", bound));
        }
    }
    out
}

/// Whether lower is better for an ungated metric, from its unit.
fn lower_is_better(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns" | "MB")
}

/// Prints the comparison.
pub fn run(base_path: &Path, head_path: &Path) -> Result<(), String> {
    let mut units = BTreeMap::new();
    let base = load(base_path, &mut units)?;
    let head = load(head_path, &mut units)?;
    let bounds = bounds();
    println!(
        "{:<16} {:<24} {:>34} {:>34} {:>8} {:>6} {:>6}  verdict",
        "workload",
        "metric",
        "base median [q1, q3]",
        "head median [q1, q3]",
        "delta",
        "bound",
        "wins"
    );
    for ((workload, metric), b) in &base {
        let Some(h) = head.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let unit = units.get(metric).map_or("", String::as_str);
        let (lower, bound, gated) = match bounds.get(metric) {
            Some(&(lower, bound)) => (lower, bound, true),
            None => (lower_is_better(unit), 0.1, false),
        };
        let bv: Vec<f64> = b.iter().map(|&(_, x)| x).collect();
        let hv: Vec<f64> = h.iter().map(|&(_, x)| x).collect();
        let (bm, hm) = (median(&bv), median(&hv));
        let ((bq1, bq3), (hq1, hq3)) = (quartiles(&bv), quartiles(&hv));
        // Signed so that positive means worse.
        let worse = |from: f64, to: f64| {
            let d = if from == 0.0 {
                0.0
            } else {
                (to - from) / from.abs()
            };
            if lower {
                d
            } else {
                -d
            }
        };
        let delta = worse(bm, hm);
        let spread = if bm == 0.0 {
            0.0
        } else {
            (bq3 - bq1) / bm.abs()
        };
        let (mut wins, mut pairs) = (0, 0);
        for &(seed, x) in b {
            if let Some(&(_, y)) = h.iter().find(|&&(s, _)| s == seed) {
                pairs += 1;
                if worse(x, y) < 0.0 {
                    wins += 1;
                }
            }
        }
        let verdict = if spread > bound {
            "unresolved (base spread exceeds bound)"
        } else if delta > bound {
            "REGRESSION"
        } else if pairs > 0 && wins * 10 >= pairs * 9 && (hm - bm).abs() > (bq3 - bq1) {
            "gain"
        } else {
            "within bound"
        };
        println!(
            "{workload:<16} {metric:<24} {:>34} {:>34} {:>+7.1}% {:>5.0}%{} {:>3}/{:<3} {verdict}",
            format!("{bm:.6} [{bq1:.6}, {bq3:.6}]"),
            format!("{hm:.6} [{hq1:.6}, {hq3:.6}]"),
            delta * 100.0,
            bound * 100.0,
            if gated { " " } else { "*" },
            wins,
            pairs
        );
    }
    println!("(* ungated metric: judged against a default 10% bound; delta > 0 means worse)");
    Ok(())
}
