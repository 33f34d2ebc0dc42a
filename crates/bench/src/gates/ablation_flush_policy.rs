//! Ablation: `e10_cache_flush_flag` — immediate vs on-close
//! synchronisation.
//!
//! `flush_immediate` starts streaming while the collective write is
//! still running, overlapping sync with both the remaining write AND
//! the compute phase; `flush_onclose` queues everything until close,
//! so the sync can only hide behind compute. With short compute phases
//! the difference is stark.

use e10_simcore::SimDuration;

use super::pooled;
use super::table::Table;
use crate::{hints_for, simulate, Case, Cli, Json, Report, Scale};

const COMPUTE_SECS: [u64; 3] = [2, 10, 30];

pub(super) fn run(scale: Scale, jobs: usize, _: &Cli) -> Report {
    let aggs = *scale.aggregators().last().unwrap();
    let cb = scale.cb_sizes()[0];
    let points = COMPUTE_SECS.iter().flat_map(|&compute| {
        ["flush_immediate", "flush_onclose"].map(|flag| {
            move || {
                let hints = hints_for(Case::Enabled, aggs, cb);
                hints.set("e10_cache_flush_flag", flag);
                let w = scale.collperf();
                simulate(scale, w, hints, "/gfs/abl_flush", |_, cfg| {
                    cfg.files = 2;
                    cfg.compute_delay = SimDuration::from_secs(compute);
                })
                .outcome
                .gb_s()
            }
        })
    });
    let gb_s = pooled(jobs, points);
    let table = Table {
        cols: &[
            ("compute_secs", "compute [s]", ">14"),
            ("flush_immediate_gb_s", "immediate [GB/s]", ">18.2"),
            ("flush_onclose_gb_s", "onclose [GB/s]", ">18.2"),
        ],
        rows: (COMPUTE_SECS.iter().zip(gb_s.chunks(2)))
            .map(|(&compute, bw)| vec![Json::U64(compute), Json::F64(bw[0]), Json::F64(bw[1])])
            .collect(),
    };
    let doc = Json::obj([
        ("figure", Json::str("ablation_flush_policy")),
        ("scale", Json::str(scale.name())),
        ("aggregators", Json::U64(aggs as u64)),
        ("rows", table.json()),
    ]);
    let text = format!("Flush-policy ablation, coll_perf, {aggs} aggregators\n") + &table.text();
    Report::new(doc, text)
}
