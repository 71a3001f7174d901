//! `ddp-benchmark compare A.json B.json` — the A/A and parent-vs-change
//! tool. For every workload and end-to-end metric it prints both medians,
//! how much worse B is than A, the bound, and a verdict.

use crate::json::{parse, Value};
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;
use crate::SCHEMA;
use std::process::ExitCode;

/// Verdict on one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Within the bound, but a side's own spread is wider than the bound
    /// and B's runs do not all beat A's: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the quartiles as a share of the median (the spread the
/// benchmark driver computes); `None` below two values.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| ((q3 - q1) / mid).abs())
}

/// By what share of A's median B's median is worse (negative: better).
pub fn worse_by(spec: &EndToEnd, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    if spec.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn judge(spec: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if worse_by(spec, a, b) > spec.bound {
        return Verdict::Regressed;
    }
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > spec.bound);
    let better = |x: f64, y: f64| if spec.higher_is_better { x > y } else { x < y };
    let b_always_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    if (wide(a) || wide(b)) && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// A document's untraced values of `metric` on `workload`, in run order.
fn values_of(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Value::as_f64) == Some(0.0))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let first = text.lines().next().ok_or_else(|| format!("{path}: empty file"))?;
    let doc = parse(first).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} document"));
    }
    if doc.get("scale").and_then(Value::as_str) != Some("full") {
        return Err(format!(
            "{path}: a --quick document exercises the harness and holds no numbers to compare"
        ));
    }
    Ok(doc)
}

pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: ddp-benchmark compare A.json B.json".into());
    };
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound", "spread A", "spread B"
    );
    let mut regressed = false;
    for workload in WORKLOADS {
        for spec in &END_TO_END {
            let a = values_of(&a_doc, workload, spec.name);
            let b = values_of(&b_doc, workload, spec.name);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let verdict = judge(spec, &a, &b);
            regressed |= verdict == Verdict::Regressed;
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "{:<18} {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}% {:>9} {:>9}  {}",
                workload,
                spec.name,
                median(&a),
                median(&b),
                worse_by(spec, &a, &b) * 100.0,
                spec.bound * 100.0,
                pct(spread(&a)),
                pct(spread(&b)),
                verdict.label()
            );
        }
    }
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool, bound: f64) -> EndToEnd {
        EndToEnd { name: "m", unit: "u", higher_is_better: higher, bound }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let tight_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better, 10 % bound: 5 % slower is ok, 20 % slower regressed.
        let s = spec(false, 0.10);
        assert_eq!(judge(&s, &tight_a, &tight_a.map(|v| v * 1.05)), Verdict::Ok);
        assert_eq!(judge(&s, &tight_a, &tight_a.map(|v| v * 1.20)), Verdict::Regressed);
        // Higher is better: the same move in the other direction.
        let h = spec(true, 0.10);
        assert_eq!(judge(&h, &tight_a, &tight_a.map(|v| v * 0.80)), Verdict::Regressed);
        assert_eq!(judge(&h, &tight_a, &tight_a.map(|v| v * 1.20)), Verdict::Ok);
        // A side noisier than the bound cannot certify "unchanged" ...
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&s, &noisy, &noisy), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(judge(&s, &noisy, &noisy.map(|v| v * 0.1)), Verdict::Ok);
    }

    #[test]
    fn spread_is_the_interquartile_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[1.0]), None);
    }
}
