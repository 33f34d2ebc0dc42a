//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! e10-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one workload in this process; the last stdout line is the result
//! e10-benchmark [--seed N] [--workload W] [--seconds S] [--smoke]
//!     every workload (or W), each run in a process of its own, both
//!     untraced and traced; prints every metric and writes
//!     benchmark/out/latest.json
//! e10-benchmark --compare A.json B.json
//! ```

mod compare;
mod drivers;
mod layers;
mod report;
mod run;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use e10_bench::Json;
use e10_simcore::alloc_gauge::CountingAlloc;

use spec::Spec;
use workloads::{Id, Scale};

// `allocs` is read from this allocator around each repetition.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Option<Id>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: None,
        smoke: false,
        compare: None,
    };
    let mut it = argv.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(flag, &mut it)?;
                args.workload =
                    Some(Id::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value(flag, &mut it)?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value(flag, &mut it)?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds {v}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value(flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                });
            }
            "--smoke" => args.smoke = true,
            "--compare" => {
                args.compare = Some((value(flag, &mut it)?, value(flag, &mut it)?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One workload in this process (`--workload W --trace T`).
fn run_one(spec: &Spec, args: &Args, id: Id, traced: bool) -> Result<(), String> {
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Paper
    };
    let seconds = args.seconds.unwrap_or(if args.smoke {
        0.0
    } else {
        spec.run_seconds as f64
    });
    let write = |name: String, text: String| {
        report::write_out(&name, &text).map_err(|e| format!("writing benchmark/out/{name}: {e}"))
    };
    let line = if traced {
        let r = run::per_layer(id, scale, args.seed).map_err(|b| b.0)?;
        let values = report::declared_values(&spec.per_layer, &r.metrics)?;
        let shares: f64 = r
            .metrics
            .iter()
            .filter(|(k, _)| k.ends_with(".host_share"))
            .map(|(_, v)| v)
            .sum();
        if (shares - 1.0).abs() > 1e-9 {
            return Err(format!("{}: host shares sum to {shares}, not 1", id.name()));
        }
        write(format!("{}.spans.jsonl", id.name()), spans::to_jsonl())?;
        write(
            format!("{}.layers.json", id.name()),
            report::per_layer_detail(&r).pretty() + "\n",
        )?;
        report::result_line(&values, r.attempted, r.failed)
    } else {
        let r = run::end_to_end(id, scale, args.seed, seconds).map_err(|b| b.0)?;
        let values = report::declared_values(&spec.end_to_end, &r.metrics)?;
        report::warn_if_noisy(id.name(), &r.host_s_samples);
        write(
            format!("{}.e2e.json", id.name()),
            report::end_to_end_detail(&r).pretty() + "\n",
        )?;
        report::result_line(&values, r.attempted, r.failed)
    };
    println!("{line}");
    Ok(())
}

/// Run this binary again as a child for one (workload, trace) pair and
/// return its parsed result line.
fn child(args: &Args, id: Id, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", id.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}",
            id.name(),
            traced as u8,
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: child printed no result", id.name()))?;
    Json::parse(last).map_err(|e| format!("{}: result line: {e}", id.name()))
}

/// Every workload (or the one asked for), each in its own process.
fn run_all(spec: &Spec, args: &Args) -> Result<(), String> {
    let host = report::host_json();
    let ids: Vec<Id> = match args.workload {
        Some(id) => vec![id],
        None => Id::ALL.to_vec(),
    };
    let mut entries = Vec::new();
    let mut failed_ops = 0;
    for id in ids {
        eprintln!("benchmark: {} ...", id.name());
        let e2e = child(args, id, false)?;
        let layers = child(args, id, true)?;
        let detail = |suffix: &str| {
            report::read_json(&report::out_dir().join(format!("{}.{suffix}.json", id.name())))
        };
        let entry = report::workload_json(&e2e, detail("e2e")?, &layers, detail("layers")?);
        failed_ops += entry
            .get("failed_ops")
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64;
        entries.push((id.name(), entry));
    }
    let latest = Json::obj([
        ("benchmark", Json::str("e10-benchmark")),
        (
            "scale",
            Json::str(if args.smoke { "smoke" } else { "paper" }),
        ),
        ("seed", Json::U64(args.seed)),
        ("host", host),
        ("workloads", Json::obj(entries)),
    ]);
    print!("{}", report::table(spec, &latest));
    let path = report::write_out("latest.json", &(latest.pretty() + "\n"))
        .map_err(|e| format!("writing latest.json: {e}"))?;
    eprintln!("benchmark: wrote {}", path.display());
    if failed_ops > 0 {
        return Err(format!("{failed_ops} operations failed"));
    }
    Ok(())
}

fn run_compare(spec: &Spec, a: &str, b: &str) -> Result<bool, String> {
    let a = report::read_json(Path::new(a))?;
    let b = report::read_json(Path::new(b))?;
    let (table, any_worse) = compare::compare(spec, &a, &b);
    print!("{table}");
    Ok(any_worse)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    let outcome = match (&args.compare, args.workload, args.trace) {
        (Some((a, b)), _, _) => run_compare(&spec, a, b).map(|any_worse| !any_worse),
        (None, Some(id), Some(traced)) => run_one(&spec, &args, id, traced).map(|()| true),
        (None, _, _) => run_all(&spec, &args).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: FAILED: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workloads the program knows are the workloads declared.
    #[test]
    fn workload_names_match_the_declaration() {
        let spec = Spec::load();
        let known: Vec<&str> = Id::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, known);
    }

    /// A smoke-scale run of both modes emits exactly the declared
    /// metric names (`declared_values` rejects any difference).
    #[test]
    fn emitted_metric_names_match_the_declaration() {
        let spec = Spec::load();
        for id in Id::ALL {
            let e2e =
                run::end_to_end(id, Scale::Smoke, 0, 0.0).unwrap_or_else(|b| panic!("{}", b.0));
            let values = report::declared_values(&spec.end_to_end, &e2e.metrics).unwrap();
            assert!(values.iter().all(|(_, v)| *v != 0.0), "{:?}", e2e.metrics);
            assert_eq!(e2e.failed, 0);
        }
        let layers =
            run::per_layer(Id::IorWriteRead, Scale::Smoke, 0).unwrap_or_else(|b| panic!("{}", b.0));
        report::declared_values(&spec.per_layer, &layers.metrics).unwrap();
        assert_eq!(layers.failed, 0);
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv: Vec<String> = "--workload ior_write_read --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload, Some(Id::IorWriteRead));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), Some(true)));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
    }
}
