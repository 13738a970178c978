//! `--compare a.json b.json`: per workload and end-to-end metric, both
//! medians, how much worse `b` is than `a`, the bound, and a verdict.

use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// Run-to-run spread wider than the bound: no verdict possible.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range as a share of the median; 0 for a single run,
/// whose spread is unknown.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// By what share of `a`'s median `b`'s median is worse (negative: better).
pub fn worse_by(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if metric.higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if spread(a).max(spread(b)) > metric.bound {
        Verdict::Unresolved
    } else if worse_by(metric, median(a), median(b)) > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Values of `metric` over the untraced runs of `workload` in a result file.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|run| run.get("trace").and_then(Json::as_f64) == Some(0.0))
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<11} {:<14} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "spread", "bound"
    );
    let mut clean = true;
    let mut compared = 0;
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            let (va, vb) = (
                values(&a, workload, metric.name),
                values(&b, workload, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            compared += 1;
            let verdict = judge(metric, &va, &vb);
            clean &= verdict != Verdict::Regressed;
            let known = va.len() > 1 || vb.len() > 1;
            println!(
                "{:<11} {:<14} {:>12.4} {:>12.4} {:>+8.2}% {:>8} {:>6.0}%  {}",
                workload,
                metric.name,
                median(&va),
                median(&vb),
                100.0 * worse_by(metric, median(&va), median(&vb)),
                if known {
                    format!("{:.2}%", 100.0 * spread(&va).max(spread(&vb)))
                } else {
                    "n/a".to_string()
                },
                100.0 * metric.bound,
                verdict.name()
            );
        }
    }
    if compared == 0 {
        return Err("the two files share no untraced run of any workload".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "us",
            higher_is_better: higher,
            bound: 0.10,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(&metric(false), 100.0, 120.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(&metric(true), 100.0, 120.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(&metric(false), &steady, &[104.0, 105.0, 103.0, 104.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&metric(false), &steady, &[120.0, 121.0, 119.0, 120.0]),
            Verdict::Regressed
        );
        // Faster is never a regression of a lower-is-better metric.
        assert_eq!(
            judge(&metric(false), &steady, &[50.0, 50.5, 49.5, 50.0]),
            Verdict::Ok
        );
        // A spread wider than the bound gives no verdict either way.
        assert_eq!(
            judge(&metric(false), &steady, &[80.0, 120.0, 100.0, 140.0]),
            Verdict::Unresolved
        );
        // Single runs: spread unknown, the delta alone decides.
        assert_eq!(judge(&metric(true), &[100.0], &[85.0]), Verdict::Regressed);
    }
}
