//! What the benchmark prints and writes: the one-line result the
//! driver reads, the per-workload detail files, `out/latest.json` and
//! the metric table of a full run.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use e10_bench::Json;

use crate::run::{EndToEnd, PerLayer};
use crate::spec::{Metric, Spec};
use crate::stats;

/// Host-time spread (inter-quartile ÷ median) above which a run is
/// reported as noisy. A warning, never a failure.
pub const NOISY_SPREAD: f64 = 0.15;

/// Where detail files go, relative to the checkout root.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// The machine's state when the run began.
pub fn host_json() -> Json {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load1 = load
        .split_whitespace()
        .next()
        .and_then(|s| s.parse::<f64>().ok());
    Json::obj([
        ("host_cpus", Json::U64(cpus as u64)),
        ("threads_used", Json::U64(1)),
        ("loadavg_1m_at_start", load1.map_or(Json::Null, Json::F64)),
    ])
}

/// Pair every declared metric with its measured value. The emitted set
/// must equal the declared set: a missing, extra or non-finite value
/// is an error.
pub fn declared_values(
    declared: &[Metric],
    measured: &[(String, f64)],
) -> Result<Vec<(Metric, f64)>, String> {
    let mut out = Vec::with_capacity(declared.len());
    for m in declared {
        let hits: Vec<f64> = measured
            .iter()
            .filter(|(k, _)| *k == m.name)
            .map(|(_, v)| *v)
            .collect();
        match hits[..] {
            [v] if v.is_finite() => out.push((m.clone(), v)),
            [v] => return Err(format!("metric {} is not finite: {v}", m.name)),
            [] => return Err(format!("metric {} was not measured", m.name)),
            _ => return Err(format!("metric {} was measured twice", m.name)),
        }
    }
    if let Some((extra, _)) = measured
        .iter()
        .find(|(k, _)| !declared.iter().any(|m| m.name == *k))
    {
        return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
    }
    Ok(out)
}

fn metrics_json(values: &[(Metric, f64)]) -> Json {
    Json::obj(values.iter().map(|(m, v)| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::F64(*v)),
                ("unit", Json::str(m.unit.clone())),
            ]),
        )
    }))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(values: &[(Metric, f64)], attempted: u64, failed: u64) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", metrics_json(values)),
    ])
    .render()
}

fn samples_json(xs: &[f64]) -> Json {
    let (q1, q3) = stats::quartiles(xs);
    Json::obj([
        ("n", Json::U64(xs.len() as u64)),
        ("min", Json::F64(stats::min(xs))),
        ("median", Json::F64(stats::median(xs))),
        ("q1", Json::F64(q1)),
        ("q3", Json::F64(q3)),
        ("spread", Json::F64(stats::spread(xs))),
        ("samples", Json::arr(xs.iter().map(|x| Json::F64(*x)))),
    ])
}

/// Detail of a `--trace 0` run (everything beside the result line).
pub fn end_to_end_detail(r: &EndToEnd) -> Json {
    Json::obj([
        ("host", host_json()),
        ("host_s", samples_json(&r.host_s_samples)),
        ("setup_s", samples_json(&r.setup_s_samples)),
        ("events", Json::U64(r.events)),
    ])
}

/// Detail of a `--trace 1` run.
pub fn per_layer_detail(r: &PerLayer) -> Json {
    Json::obj([
        (
            "paper_ratio",
            match r.paper_ratio {
                Some(x) => Json::F64(x),
                None => Json::Null,
            },
        ),
        (
            "paper_ratio_note",
            Json::str(if r.paper_ratio.is_some() {
                "sim_gb_s over the paper's figure for this exact cell (a calibration anchor)"
            } else {
                "null: EXPERIMENTS.md states no paper figure for this exact cell; unvalidated"
            }),
        ),
        (
            "drivers",
            Json::obj(r.drivers.iter().map(|(name, c)| {
                (
                    *name,
                    Json::obj([
                        ("ns_per_op", Json::F64(c.ns)),
                        ("allocs_per_op", Json::F64(c.allocs)),
                        ("events_per_op", Json::F64(c.events)),
                        ("ops_per_repetition", Json::U64(c.ops)),
                    ]),
                )
            })),
        ),
    ])
}

/// Write `text` to `out/<name>`, creating the directory.
pub fn write_out(name: &str, text: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Warn on stderr when the host-time samples of a run are noisy.
pub fn warn_if_noisy(workload: &str, samples: &[f64]) {
    let spread = stats::spread(samples);
    if samples.len() > 1 && spread > NOISY_SPREAD {
        eprintln!(
            "benchmark: WARNING {workload}: host_s spread {:.1}% of the median over {} repetitions exceeds {:.0}% — the host is noisy, compare with care",
            spread * 100.0,
            samples.len(),
            NOISY_SPREAD * 100.0
        );
    }
}

/// One workload's entry in `out/latest.json`.
pub fn workload_json(
    e2e_line: &Json,
    e2e_detail: Json,
    layer_line: &Json,
    layer_detail: Json,
) -> Json {
    let values = |line: &Json| {
        let Some(Json::Obj(pairs)) = line.get("metrics") else {
            return Json::obj::<String>([]);
        };
        Json::obj(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), v.get("value").cloned().unwrap_or(Json::Null))),
        )
    };
    let count = |line: &Json, key: &str| line.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Json::obj([
        (
            "correct",
            Json::Bool(
                e2e_line.get("correct") == Some(&Json::Bool(true))
                    && layer_line.get("correct") == Some(&Json::Bool(true)),
            ),
        ),
        (
            "ops",
            Json::U64(count(e2e_line, "attempted") + count(layer_line, "attempted")),
        ),
        (
            "failed_ops",
            Json::U64(count(e2e_line, "failed") + count(layer_line, "failed")),
        ),
        ("end_to_end", values(e2e_line)),
        ("per_layer", values(layer_line)),
        ("end_to_end_detail", e2e_detail),
        ("per_layer_detail", layer_detail),
    ])
}

/// Every metric of every workload by name, with its unit.
pub fn table(spec: &Spec, latest: &Json) -> String {
    let mut out = String::new();
    for w in &spec.workloads {
        let Some(entry) = latest.get("workloads").and_then(|ws| ws.get(w)) else {
            continue;
        };
        let _ = writeln!(out, "\n== {w}");
        for (section, metrics) in [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ] {
            for m in metrics {
                let v = entry.get(section).and_then(|s| s.get(&m.name));
                let shown = match v.and_then(Json::as_f64) {
                    Some(x) => format!("{x:.6}"),
                    None => "null".to_string(),
                };
                let _ = writeln!(out, "{:<42} {shown:>22} {}", m.name, m.unit);
            }
        }
        for key in ["ops", "failed_ops"] {
            let v = entry.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let _ = writeln!(out, "{key:<42} {v:>22} count");
        }
        let ratio = entry
            .get("per_layer_detail")
            .and_then(|d| d.get("paper_ratio"))
            .and_then(Json::as_f64);
        let _ = writeln!(
            out,
            "{:<42} {:>22} ratio",
            "workloads.paper_ratio",
            ratio.map_or("null (unvalidated)".to_string(), |r| format!("{r:.6}"))
        );
    }
    out
}

/// Read and parse a JSON file.
pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Better;

    fn metric(name: &str, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            better: Better::Lower,
            bound: Some(0.1),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values = vec![
            (metric("host_s", "s"), 1.25),
            (metric("allocs", "calls"), 7.0),
        ];
        let line = result_line(&values, 12, 0);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"host_s":{"value":1.25,"unit":"s"},"allocs":{"value":7.0,"unit":"calls"}}}"#
        );
        let parsed = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &parsed else {
            panic!("result line is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(result_line(&values, 12, 1).starts_with(r#"{"correct":false"#));
    }

    #[test]
    fn declared_values_rejects_any_mismatch() {
        let declared = vec![metric("a", "s"), metric("b", "s")];
        let ok = vec![("b".to_string(), 2.0), ("a".to_string(), 1.0)];
        let got = declared_values(&declared, &ok).unwrap();
        assert_eq!(got[0].1, 1.0); // declaration order
        assert_eq!(got[1].1, 2.0);
        let missing = vec![("a".to_string(), 1.0)];
        assert!(declared_values(&declared, &missing).is_err());
        let extra = vec![
            ("a".to_string(), 1.0),
            ("b".to_string(), 2.0),
            ("c".to_string(), 3.0),
        ];
        assert!(declared_values(&declared, &extra).is_err());
        let nan = vec![("a".to_string(), f64::NAN), ("b".to_string(), 2.0)];
        assert!(declared_values(&declared, &nan).is_err());
    }
}
