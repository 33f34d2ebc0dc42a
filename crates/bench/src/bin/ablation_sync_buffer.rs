//! Ablation: `ind_wr_buffer_size` — the cache synchronisation buffer.
//!
//! The paper fixes it at 512 KB "for simplicity"; this sweep shows why
//! the choice matters: the sync thread's per-chunk round trip bounds a
//! single stream, so small buffers throttle the background flush and
//! push the 8-aggregator configurations into exposed-sync territory.

use std::fmt::Write as _;

use e10_bench::{finish, hints_for, simulate, Case, Cli, Json, Report, Scale};

fn main() -> std::process::ExitCode {
    let cli = Cli::parse();
    let scale = cli.scale(Scale::Full);
    let aggs = scale.aggregators()[0]; // the stressed low-aggregator case
    let cb = scale.cb_sizes()[0];
    let rows: Vec<(u64, f64, f64, f64)> = [17u32, 19, 21, 23]
        .into_iter()
        .map(|shift| {
            let buf = 1u64 << shift; // 128K .. 8M
            let hints = hints_for(Case::Enabled, aggs, cb);
            hints.set("ind_wr_buffer_size", &buf.to_string());
            let out = simulate(scale, scale.collperf(), hints, "/gfs/abl_sync", |_, cfg| {
                cfg.files = 2;
            })
            .outcome;
            (buf, out.gb_s(), out.phases[0].not_hidden, out.phases[0].t_c)
        })
        .collect();

    let doc = Json::obj([
        ("figure", Json::str("ablation_sync_buffer")),
        ("scale", Json::str(scale.name())),
        ("aggregators", Json::U64(aggs as u64)),
        (
            "rows",
            Json::arr(rows.iter().map(|&(buf, bw, exposed, t_c)| {
                Json::obj([
                    ("ind_wr_buffer_bytes", Json::U64(buf)),
                    ("gb_s", Json::F64(bw)),
                    ("exposed_sync_secs", Json::F64(exposed)),
                    ("t_c_secs", Json::F64(t_c)),
                ])
            })),
        ),
    ]);
    let mut text = format!("Sync-buffer ablation, coll_perf, cache enabled, {aggs} aggregators\n");
    let _ = writeln!(
        text,
        "{:>16} {:>12} {:>18} {:>12}",
        "ind_wr_buffer", "BW [GB/s]", "exposed sync [s]", "T_c [s]"
    );
    for (buf, bw, exposed, t_c) in rows {
        let _ = writeln!(
            text,
            "{:>13}KiB {:>12.2} {:>18.2} {:>12.2}",
            buf >> 10,
            bw,
            exposed,
            t_c
        );
    }
    finish(Report::new(doc, text), &cli)
}
