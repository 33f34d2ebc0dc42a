//! Baseline comparison (paper §V related work, all implemented here):
//!
//! * **plain** — standard collective writes to the global file system,
//! * **parcoll** — ParColl-style partitioned collective I/O
//!   (Yu & Vetter): smaller synchronisation groups, no extra tier,
//! * **multifile** — ADIOS-style output, one file per group,
//! * **ram_staging** — Active-Buffering-style staging (Ma et al. ABT /
//!   Lee et al. RFS): the E10 machinery with a small memory-speed
//!   staging area (2 GiB/node of "free RAM"),
//! * **e10_cache** — the paper's NVM cache (30 GB `/scratch` SSD).
//!
//! All variants run the same IOR-shaped workload and are scored with
//! the paper's Eq. 2 (perceived bandwidth, last-phase sync charged).
//! parcoll/multifile write group-contiguous segments — their intended
//! pattern.

use e10_mpisim::{FileView, FlatType};
use e10_romio::{
    write_at_all_multifile, write_at_all_partitioned, AdioFile, DataSpec, TestbedSpec,
};
use e10_simcore::{join_all, now, spawn};

use super::pooled;
use super::table::Table;
use crate::{hints_for, simulate, Case, Cli, Json, Report, Scale};

/// The variants, in column order.
const VARIANTS: [&str; 5] = ["plain", "parcoll", "multifile", "ram_staging", "e10_cache"];

/// The variants `simulate` runs (plain and both staging flavours).
fn run_simulated_variant(scale: Scale, variant: &str, aggs: usize) -> f64 {
    let case = if variant == "plain" {
        Case::Disabled
    } else {
        Case::Enabled
    };
    let hints = hints_for(case, aggs, 16 << 20);
    simulate(scale, scale.ior(), hints, "/gfs/bcd", |spec, cfg| {
        if variant == "ram_staging" {
            spec.ram_scratch = Some(2 << 30);
        }
        cfg.files = 2;
        cfg.include_last_sync = true;
    })
    .outcome
    .gb_s()
}

/// Hand-driven variants (group-based algorithms `run_workload` does not
/// know): score = total bytes / Σ per-phase collective-write time.
fn run_grouped_variant(scale: Scale, variant: &'static str, aggs: usize) -> f64 {
    e10_simcore::run(async move {
        let procs = scale.procs();
        let block = scale.ior().block_size * scale.ior().segments;
        let mut spec = TestbedSpec::deep_er();
        spec.procs = procs;
        spec.nodes = scale.nodes();
        let tb = spec.build();
        let hints = hints_for(Case::Disabled, aggs, 16 << 20);
        let files = 2usize;
        let ngroups = (aggs / 2).clamp(1, procs);
        let handles: Vec<_> = tb
            .ctxs()
            .into_iter()
            .map(|ctx| {
                let hints = hints.clone();
                spawn(async move {
                    let rank = ctx.comm.rank();
                    let view = FileView::new(&FlatType::contiguous(block), rank as u64 * block);
                    let mut t_io = 0.0;
                    for k in 0..files {
                        ctx.comm.barrier().await;
                        let t0 = now();
                        let data = DataSpec::FileGen {
                            seed: 900 + k as u64,
                        };
                        if variant == "multifile" {
                            let path = format!("/gfs/bc_mf.{k}");
                            write_at_all_multifile(&ctx, &path, &hints, &view, &data, ngroups)
                                .await
                                .unwrap();
                        } else {
                            let path = format!("/gfs/bc_pc.{k}");
                            let f = AdioFile::open(&ctx, &path, &hints, true).await.unwrap();
                            write_at_all_partitioned(&f, &view, &data, ngroups).await;
                            f.close().await;
                        }
                        t_io += now().since(t0).as_secs_f64();
                    }
                    t_io
                })
            })
            .collect();
        let times = join_all(handles).await;
        (files as u64 * procs as u64 * block) as f64 / times[0] / 1e9
    })
}

pub(super) fn run(scale: Scale, jobs: usize, _: &Cli) -> Report {
    let aggregators = scale.aggregators();
    let points = aggregators.iter().flat_map(|&aggs| {
        VARIANTS.map(|variant| {
            move || match variant {
                "parcoll" | "multifile" => run_grouped_variant(scale, variant, aggs),
                _ => run_simulated_variant(scale, variant, aggs),
            }
        })
    });
    let gb_s = pooled(jobs, points);
    let table = Table {
        cols: &[
            ("aggregators", "aggs", "<8"),
            ("plain_gb_s", "plain", ">10.2"),
            ("parcoll_gb_s", "parcoll", ">10.2"),
            ("multifile_gb_s", "multifile", ">11.2"),
            ("ram_staging_gb_s", "ram_staging", ">13.2"),
            ("e10_cache_gb_s", "e10_cache", ">11.2"),
        ],
        rows: (aggregators.iter().zip(gb_s.chunks(VARIANTS.len())))
            .map(|(&aggs, bw)| {
                let bw = bw.iter().map(|&b| Json::F64(b));
                [Json::U64(aggs as u64)].into_iter().chain(bw).collect()
            })
            .collect(),
    };
    let doc = Json::obj([
        ("figure", Json::str("baseline_comparison")),
        ("scale", Json::str(scale.name())),
        ("rows", table.json()),
    ]);
    let text = "Baseline comparison (IOR-shaped workload, Eq. 2 GB/s):\n".to_string()
        + &table.text()
        + "\nram_staging (ABT/RFS) tracks the NVM cache while per-node\n\
           bursts fit in the 2 GiB of free memory and degrades toward the\n\
           plain path when they do not; parcoll and multifile shrink the\n\
           synchronisation span without changing the storage ceiling.\n";
    Report::new(doc, text)
}
