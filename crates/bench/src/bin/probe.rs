//! Scratch probe: one full-scale coll_perf phase, used during
//! calibration. Not part of the figure set.
//!
//! `probe [aggs] [cb_mb] [case] [trace]` — `case` is `disabled`
//! (default), `enabled` or `tbw`; `trace` is `off` (default), `ring` or
//! `jsonl`. `jsonl` writes `results/traces/collperf.jsonl` and both
//! modes print the run's metrics snapshot.

use std::fmt::Write as _;

use e10_bench::{finish, hints_for, simulate, Case, Cli, Json, Report, Scale};
use e10_workloads::CollPerf;

fn main() -> std::process::ExitCode {
    let cli = Cli::parse();
    let aggs: usize = cli.arg(0).and_then(|s| s.parse().ok()).unwrap_or(64);
    let cb_mb: u64 = cli.arg(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let case_name = cli.arg(2).unwrap_or("disabled");
    let case = match case_name {
        "enabled" => Case::Enabled,
        "tbw" => Case::Theoretical,
        _ => Case::Disabled,
    };
    let hints = hints_for(case, aggs, cb_mb << 20);
    if let Some(trace) = cli.arg(3).filter(|&t| t != "off") {
        hints.set("e10_trace", trace);
    }
    let host0 = std::time::Instant::now();
    let w = CollPerf::paper_512();
    let out = simulate(Scale::Full, w, hints, "/gfs/collperf", |_, cfg| {
        cfg.files = 2
    })
    .outcome;
    let host_secs = host0.elapsed().as_secs_f64();

    let doc = Json::obj([
        ("figure", Json::str("probe")),
        ("aggregators", Json::U64(aggs as u64)),
        ("cb_size", Json::U64(cb_mb << 20)),
        ("case", Json::str(case_name)),
        ("gb_s", Json::F64(out.gb_s())),
        ("sim_wall_secs", Json::F64(out.wall_time)),
        ("total_bytes", Json::U64(out.total_bytes)),
        (
            "phases",
            Json::arr(out.phases.iter().map(|p| {
                Json::obj([
                    ("t_c_secs", Json::F64(p.t_c)),
                    ("not_hidden_secs", Json::F64(p.not_hidden)),
                ])
            })),
        ),
    ]);
    let mut text = format!("host_secs={host_secs:.1}\n");
    let _ = writeln!(text, "bw_gbs={:.3} wall={:.1}s", out.gb_s(), out.wall_time);
    for (i, p) in out.phases.iter().enumerate() {
        let _ = writeln!(
            text,
            "phase{i}: t_c={:.2}s not_hidden={:.2}s",
            p.t_c, p.not_hidden
        );
    }
    let _ = writeln!(text, "{}", out.breakdown.table());
    if let Some(t) = &out.trace {
        let _ = match &t.path {
            Some(p) => writeln!(text, "trace: {} events -> {p}", t.recorded),
            None => writeln!(
                text,
                "trace: {} events in ring ({} dropped)",
                t.recorded, t.dropped
            ),
        };
    }
    if let Some(m) = &out.metrics {
        let _ = writeln!(text, "{}", m.render());
    }
    let mut report = Report::new(doc, text);
    report.host = Json::obj([("host_secs", Json::F64(host_secs))]);
    finish(report, &cli)
}
