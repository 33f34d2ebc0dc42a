//! Extension experiment (paper §VI future work): collective reads
//! served from the aggregator caches (`e10_cache_read = enable`).
//!
//! A coll_perf-shaped checkpoint is written through the E10 cache and
//! synchronised; a matching collective read then runs either against
//! the global file system (standard) or against the node-local caches
//! (extension). The cache-served read scales with the aggregator count
//! instead of the storage servers' ceiling — the read-side mirror of
//! the paper's write result. `tests/golden.rs` pins the test-scale
//! rows.

use std::rc::Rc;

use e10_romio::{read_at_all, write_at_all, AdioFile, DataSpec, TestbedSpec};
use e10_workloads::Workload;

use super::pooled;
use super::table::Table;
use crate::{hints_for, Case, Cli, Json, Report, Scale};

/// One run: the checkpoint is written through the cache with `aggs`
/// aggregators and synchronised, then read back collectively — from
/// the global file system, or with `cache_read` from the aggregators'
/// caches. Returns the read bandwidth in GB/s.
fn read_gb_s(scale: Scale, aggs: usize, cache_read: bool) -> f64 {
    e10_simcore::run(async move {
        let w = Rc::new(scale.collperf());
        let mut spec = TestbedSpec::deep_er();
        spec.procs = w.procs();
        spec.nodes = scale.nodes();
        let tb = spec.build();
        let total = w.file_size();
        let handles: Vec<_> = tb
            .ctxs()
            .into_iter()
            .map(|ctx| {
                let w = Rc::clone(&w);
                e10_simcore::spawn(async move {
                    let info = hints_for(Case::Disabled, aggs, 16 << 20);
                    info.set("romio_cb_read", "enable");
                    info.set("e10_cache", "enable");
                    if cache_read {
                        info.set("e10_cache_read", "enable");
                    }
                    let f = AdioFile::open(&ctx, "/gfs/extread", &info, true)
                        .await
                        .unwrap();
                    let views = w.writes(ctx.comm.rank());
                    for v in &views {
                        write_at_all(&f, v, &DataSpec::FileGen { seed: 71 }).await;
                    }
                    // Make the global copy consistent, keep the cache.
                    f.file_sync().await;
                    ctx.comm.barrier().await;
                    let t0 = e10_simcore::now();
                    let mut hits = 0;
                    for v in &views {
                        let r = read_at_all(&f, v).await;
                        hits += r.cache_hits;
                    }
                    let dt = e10_simcore::now().since(t0).as_secs_f64();
                    f.close().await;
                    (dt, hits)
                })
            })
            .collect();
        let outs = e10_simcore::join_all(handles).await;
        let dt = outs[0].0;
        let hits: u64 = outs.iter().map(|(_, h)| h).sum();
        assert_eq!(hits > 0, cache_read, "only the extension hits the caches");
        total as f64 / dt / 1e9
    })
}

pub(super) fn run(scale: Scale, jobs: usize, _: &Cli) -> Report {
    let aggregators = scale.aggregators();
    let points = (aggregators.iter())
        .flat_map(|&aggs| [false, true].map(|cached| move || read_gb_s(scale, aggs, cached)));
    let gb_s = pooled(jobs, points);
    let table = Table {
        cols: &[
            ("aggregators", "aggs", "<8"),
            ("global_read_gb_s", "global read [GB/s]", ">22.2"),
            (
                "cache_served_read_gb_s",
                "cache-served read [GB/s]",
                ">24.2",
            ),
        ],
        rows: (aggregators.iter().zip(gb_s.chunks(2)))
            .map(|(&aggs, bw)| vec![Json::U64(aggs as u64), Json::F64(bw[0]), Json::F64(bw[1])])
            .collect(),
    };
    let doc = Json::obj([
        ("figure", Json::str("ext_cache_read")),
        ("scale", Json::str(scale.name())),
        ("rows", table.json()),
    ]);
    let text = "Cache-read extension: collective re-read of a cached checkpoint\n".to_string()
        + &table.text();
    Report::new(doc, text)
}
