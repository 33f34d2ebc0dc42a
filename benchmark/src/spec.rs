//! `BENCHMARK.json`, compiled into the binary: the declared workloads
//! and metrics, with each metric's unit, direction and bound. The
//! emitted metric set is checked against it (see the schema test).

use e10_bench::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's value by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn str_of(v: &Json, key: &str) -> String {
    match v.get(key) {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("BENCHMARK.json: `{key}` must be a string, found {other:?}"),
    }
}

fn arr_of<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    match v.get(key) {
        Some(Json::Arr(a)) => a,
        other => panic!("BENCHMARK.json: `{key}` must be an array, found {other:?}"),
    }
}

fn metric(v: &Json) -> Metric {
    Metric {
        name: str_of(v, "name"),
        unit: str_of(v, "unit"),
        better: match str_of(v, "better").as_str() {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => panic!("BENCHMARK.json: `better` must be lower|higher, found {other}"),
        },
        bound: v.get("bound").and_then(Json::as_f64),
    }
}

impl Spec {
    /// The declaration this binary was built against.
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds") as u64,
            workloads: arr_of(&doc, "workloads")
                .iter()
                .map(|w| str_of(w, "name"))
                .collect(),
            end_to_end: arr_of(&doc, "end_to_end").iter().map(metric).collect(),
            per_layer: arr_of(&doc, "per_layer").iter().map(metric).collect(),
        }
    }
}
