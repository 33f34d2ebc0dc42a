//! Ablation: `e10_cache_flush_flag` — immediate vs on-close
//! synchronisation.
//!
//! `flush_immediate` starts streaming while the collective write is
//! still running, overlapping sync with both the remaining write AND
//! the compute phase; `flush_onclose` queues everything until close,
//! so the sync can only hide behind compute. With short compute phases
//! the difference is stark.

use std::fmt::Write as _;

use e10_bench::{finish, hints_for, simulate, Case, Cli, Json, Report, Scale};
use e10_simcore::SimDuration;

fn main() -> std::process::ExitCode {
    let cli = Cli::parse();
    let scale = cli.scale(Scale::Full);
    let aggs = *scale.aggregators().last().unwrap();
    let cb = scale.cb_sizes()[0];
    let rows: Vec<(u64, f64, f64)> = [2u64, 10, 30]
        .into_iter()
        .map(|compute| {
            let [imm, onclose] = ["flush_immediate", "flush_onclose"].map(|flag| {
                let hints = hints_for(Case::Enabled, aggs, cb);
                hints.set("e10_cache_flush_flag", flag);
                simulate(
                    scale,
                    scale.collperf(),
                    hints,
                    "/gfs/abl_flush",
                    |_, cfg| {
                        cfg.files = 2;
                        cfg.compute_delay = SimDuration::from_secs(compute);
                    },
                )
                .outcome
                .gb_s()
            });
            (compute, imm, onclose)
        })
        .collect();

    let doc = Json::obj([
        ("figure", Json::str("ablation_flush_policy")),
        ("scale", Json::str(scale.name())),
        ("aggregators", Json::U64(aggs as u64)),
        (
            "rows",
            Json::arr(rows.iter().map(|&(compute, imm, onclose)| {
                Json::obj([
                    ("compute_secs", Json::U64(compute)),
                    ("flush_immediate_gb_s", Json::F64(imm)),
                    ("flush_onclose_gb_s", Json::F64(onclose)),
                ])
            })),
        ),
    ]);
    let mut text = format!("Flush-policy ablation, coll_perf, {aggs} aggregators\n");
    let _ = writeln!(
        text,
        "{:>14} {:>18} {:>18}",
        "compute [s]", "immediate [GB/s]", "onclose [GB/s]"
    );
    for (compute, imm, onclose) in rows {
        let _ = writeln!(text, "{:>14} {:>18.2} {:>18.2}", compute, imm, onclose);
    }
    finish(Report::new(doc, text), &cli)
}
