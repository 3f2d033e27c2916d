//! `--compare <a.json> <b.json>`: one row per (metric, workload) with both
//! medians, the delta, the bound and a verdict.
//!
//! End-to-end metrics compare against the bound the catalogue fixes, as a
//! share of `a`'s median; a pair whose own quartile spread (either side)
//! exceeds the bound is `unresolved`, not unchanged. The per-layer metrics
//! the catalogue marks `exact` (deterministic counts, the widths,
//! `bench.failed_frac`) compare exactly: any move in the worse direction is
//! `worse`.

use std::collections::BTreeMap;

use sprout_server::Json;

use super::catalogue::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use super::stats::{median, quartiles};

/// Slack on the exact comparisons, for the two width metrics.
const EXACT_TOL: f64 = 1e-12;

/// `(workload, metric) → values`, one per run in the file.
type Values = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no `runs` array"))?;
    let mut values = Values::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: a run has no workload"))?;
        if let Some(Json::Object(metrics)) = run.get("metrics") {
            for (name, metric) in metrics {
                if let Some(v) = metric.get("value").and_then(Json::as_f64) {
                    values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(values)
}

fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> (&'static str, String) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if def.lower_is_better {
        mb - ma
    } else {
        ma - mb
    };
    match def.bound {
        Some(bound) => {
            let bound_text = format!("{:.0}%", 100.0 * bound);
            if spread(a).max(spread(b)) > bound {
                return ("unresolved", bound_text);
            }
            let share = if ma != 0.0 { worse_by / ma.abs() } else { 0.0 };
            let v = if share > bound {
                "worse"
            } else if share < -bound {
                "better"
            } else {
                "within"
            };
            (v, bound_text)
        }
        None => {
            let v = if worse_by > EXACT_TOL {
                "worse"
            } else if worse_by < -EXACT_TOL {
                "better"
            } else {
                "within"
            };
            (v, "exact".to_string())
        }
    }
}

/// Prints the comparison; returns whether any row is `worse`.
///
/// # Errors
/// Fails when a file cannot be read or parsed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "delta", "bound"
    );
    let mut any_worse = false;
    let exact = PER_LAYER.iter().filter(|d| d.exact);
    let defs: Vec<&MetricDef> = END_TO_END.iter().chain(exact).collect();
    for workload in &WORKLOADS {
        for def in &defs {
            let key = (workload.name.to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let delta = if ma != 0.0 {
                format!("{:+.2}%", 100.0 * (mb - ma) / ma.abs())
            } else {
                format!("{:+.3e}", mb - ma)
            };
            let (v, bound) = verdict(def, va, vb);
            any_worse |= v == "worse";
            println!(
                "{:<14} {:<28} {:>14.6} {:>14.6} {:>9} {:>6}  {v}",
                workload.name, def.name, ma, mb, delta, bound
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let pass = &END_TO_END[1];
        assert_eq!(pass.name, "pass_s");
        assert_eq!(verdict(pass, &[1.0], &[1.2]).0, "within");
        assert_eq!(verdict(pass, &[1.0], &[1.3]).0, "worse");
        assert_eq!(verdict(pass, &[1.0], &[0.7]).0, "better");
        // A side whose own runs spread wider than the bound resolves nothing.
        let noisy = [0.6, 0.8, 1.0, 1.2, 1.6];
        assert_eq!(verdict(pass, &noisy, &[1.5]).0, "unresolved");
        let rows = PER_LAYER
            .iter()
            .find(|d| d.name == "exec.rows_scanned")
            .unwrap();
        assert_eq!(verdict(rows, &[100.0], &[100.0]).0, "within");
        assert_eq!(verdict(rows, &[100.0], &[101.0]).0, "worse");
        let skipped = PER_LAYER
            .iter()
            .find(|d| d.name == "exec.chunks_skipped")
            .unwrap();
        assert_eq!(verdict(skipped, &[10.0], &[12.0]).0, "better");
    }
}
