//! `run.sh --compare A.json B.json`: judge run B against run A with
//! each metric's direction and bound from `BENCHMARK.json`.

use std::fmt::Write as _;

use e10_bench::Json;

use crate::spec::{Better, Metric, Spec};

/// How B's value of one metric stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the run-to-run spread.
    Better,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse than the bound allows.
    Worse,
    /// Worse than the bound, but the spread of the samples is wider
    /// than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` is `b` worse (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

/// Apply a metric's direction and bound. `spread` is the wider of the
/// two runs' inter-quartile spreads (0 for exact metrics).
pub fn judge(m: &Metric, a: f64, b: f64, spread: f64) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    let w = worse_by(m.better, a, b);
    if w > bound {
        if spread > bound {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if w < 0.0 && -w > spread {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn value(doc: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .as_f64()
}

fn spread_of(doc: &Json, workload: &str, metric: &str) -> f64 {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end_detail"))
        .and_then(|d| d.get(metric))
        .and_then(|m| m.get("spread"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// B against A in percent, positive when B is better.
fn gain_percent(better: Better, a: f64, b: f64) -> f64 {
    0.0 - worse_by(better, a, b) * 100.0
}

/// One row per (workload, metric); returns the table and whether any
/// end-to-end metric came out worse.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<24} {:<40} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "B vs A"
    );
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (
                value(a, w, "end_to_end", &m.name),
                value(b, w, "end_to_end", &m.name),
            ) else {
                continue;
            };
            let spread = spread_of(a, w, &m.name).max(spread_of(b, w, &m.name));
            let verdict = judge(m, va, vb, spread);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{w:<24} {:<40} {va:>16.6} {vb:>16.6} {:>+8.2}%  {} (bound {:.1}%, spread {:.1}%)",
                m.name,
                gain_percent(m.better, va, vb),
                verdict.label(),
                m.bound.unwrap_or(0.0) * 100.0,
                spread * 100.0,
            );
        }
        // Per-layer metrics carry no bound: report what moved.
        for m in &spec.per_layer {
            let (Some(va), Some(vb)) = (
                value(a, w, "per_layer", &m.name),
                value(b, w, "per_layer", &m.name),
            ) else {
                continue;
            };
            if va == vb {
                continue;
            }
            let _ = writeln!(
                out,
                "{w:<24} {:<40} {va:>16.6} {vb:>16.6} {:>+8.2}%  moved (no bound)",
                m.name,
                gain_percent(m.better, va, vb),
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> Metric {
        Metric {
            name: "m".to_string(),
            unit: "s".to_string(),
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let lower = metric(Better::Lower, 0.10);
        assert_eq!(judge(&lower, 10.0, 10.5, 0.0), Verdict::WithinBound);
        assert_eq!(judge(&lower, 10.0, 11.5, 0.0), Verdict::Worse);
        assert_eq!(judge(&lower, 10.0, 8.0, 0.05), Verdict::Better);
        // Improvement inside the spread is not a gain.
        assert_eq!(judge(&lower, 10.0, 9.8, 0.05), Verdict::WithinBound);
        // Worse than the bound, but the samples spread wider than it.
        assert_eq!(judge(&lower, 10.0, 11.5, 0.2), Verdict::Unresolved);
        let higher = metric(Better::Higher, 0.005);
        assert_eq!(judge(&higher, 20.0, 19.0, 0.0), Verdict::Worse);
        assert_eq!(judge(&higher, 20.0, 21.0, 0.0), Verdict::Better);
        assert_eq!(judge(&higher, 20.0, 20.0, 0.0), Verdict::WithinBound);
    }
}
