//! Ablation: `ind_wr_buffer_size` — the cache synchronisation buffer.
//!
//! The paper fixes it at 512 KB "for simplicity"; this sweep shows why
//! the choice matters: the sync thread's per-chunk round trip bounds a
//! single stream, so small buffers throttle the background flush and
//! push the 8-aggregator configurations into exposed-sync territory.

use super::pooled;
use super::table::Table;
use crate::{hints_for, simulate, Case, Cli, Json, Report, Scale};

pub(super) fn run(scale: Scale, jobs: usize, _: &Cli) -> Report {
    let aggs = scale.aggregators()[0]; // the stressed low-aggregator case
    let cb = scale.cb_sizes()[0];
    let points = [17u32, 19, 21, 23].map(|shift| {
        move || {
            let buf = 1u64 << shift; // 128K .. 8M
            let hints = hints_for(Case::Enabled, aggs, cb);
            hints.set("ind_wr_buffer_size", &buf.to_string());
            let out = simulate(scale, scale.collperf(), hints, "/gfs/abl_sync", |_, cfg| {
                cfg.files = 2;
            })
            .outcome;
            let phase = &out.phases[0];
            vec![
                Json::U64(buf),
                Json::F64(out.gb_s()),
                Json::F64(phase.not_hidden),
                Json::F64(phase.t_c),
            ]
        }
    });
    let table = Table {
        cols: &[
            ("ind_wr_buffer_bytes", "ind_wr_buffer", ">16KiB"),
            ("gb_s", "BW [GB/s]", ">12.2"),
            ("exposed_sync_secs", "exposed sync [s]", ">18.2"),
            ("t_c_secs", "T_c [s]", ">12.2"),
        ],
        rows: pooled(jobs, points),
    };
    let doc = Json::obj([
        ("figure", Json::str("ablation_sync_buffer")),
        ("scale", Json::str(scale.name())),
        ("aggregators", Json::U64(aggs as u64)),
        ("rows", table.json()),
    ]);
    let text = format!("Sync-buffer ablation, coll_perf, cache enabled, {aggs} aggregators\n")
        + &table.text();
    Report::new(doc, text)
}
