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

use std::fmt::Write as _;

use e10_bench::{finish, hints_for, simulate, Case, Cli, Json, Report, Scale};
use e10_mpisim::{FileView, FlatType};
use e10_romio::{
    write_at_all_multifile, write_at_all_partitioned, AdioFile, DataSpec, TestbedSpec,
};
use e10_simcore::{join_all, now, spawn};

fn block_bytes(scale: Scale) -> u64 {
    scale.ior().block_size * scale.ior().segments
}

/// Driver-based variants (plain and both staging flavours).
fn run_driver_variant(scale: Scale, variant: &'static str, aggs: usize) -> f64 {
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

/// Hand-driven variants (group-based algorithms the driver doesn't
/// know): score = total bytes / Σ per-phase collective-write time.
fn run_grouped_variant(scale: Scale, variant: &'static str, aggs: usize) -> f64 {
    e10_simcore::run(async move {
        let procs = scale.procs();
        let block = block_bytes(scale);
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
                        match variant {
                            "multifile" => {
                                write_at_all_multifile(
                                    &ctx,
                                    &format!("/gfs/bc_mf.{k}"),
                                    &hints,
                                    &view,
                                    &data,
                                    ngroups,
                                )
                                .await
                                .unwrap();
                            }
                            _ => {
                                let f =
                                    AdioFile::open(&ctx, &format!("/gfs/bc_pc.{k}"), &hints, true)
                                        .await
                                        .unwrap();
                                write_at_all_partitioned(&f, &view, &data, ngroups).await;
                                f.close().await;
                            }
                        }
                        t_io += now().since(t0).as_secs_f64();
                    }
                    t_io
                })
            })
            .collect();
        let times = join_all(handles).await;
        let t = times[0];
        (files as u64 * procs as u64 * block) as f64 / t / 1e9
    })
}

fn main() -> std::process::ExitCode {
    let cli = Cli::parse();
    let scale = cli.scale(Scale::Full);
    let rows: Vec<(usize, [f64; 5])> = scale
        .aggregators()
        .into_iter()
        .map(|aggs| {
            let plain = run_driver_variant(scale, "plain", aggs);
            let parcoll = run_grouped_variant(scale, "parcoll", aggs);
            let multifile = run_grouped_variant(scale, "multifile", aggs);
            let ram = run_driver_variant(scale, "ram_staging", aggs);
            let e10 = run_driver_variant(scale, "e10_cache", aggs);
            (aggs, [plain, parcoll, multifile, ram, e10])
        })
        .collect();

    let doc = Json::obj([
        ("figure", Json::str("baseline_comparison")),
        ("scale", Json::str(scale.name())),
        (
            "rows",
            Json::arr(rows.iter().map(|&(aggs, bw)| {
                Json::obj([
                    ("aggregators", Json::U64(aggs as u64)),
                    ("plain_gb_s", Json::F64(bw[0])),
                    ("parcoll_gb_s", Json::F64(bw[1])),
                    ("multifile_gb_s", Json::F64(bw[2])),
                    ("ram_staging_gb_s", Json::F64(bw[3])),
                    ("e10_cache_gb_s", Json::F64(bw[4])),
                ])
            })),
        ),
    ]);
    let mut text = "Baseline comparison (IOR-shaped workload, Eq. 2 GB/s):\n".to_string();
    let _ = writeln!(
        text,
        "{:<8} {:>10} {:>10} {:>11} {:>13} {:>11}",
        "aggs", "plain", "parcoll", "multifile", "ram_staging", "e10_cache"
    );
    for (aggs, bw) in rows {
        let _ = writeln!(
            text,
            "{:<8} {:>10.2} {:>10.2} {:>11.2} {:>13.2} {:>11.2}",
            aggs, bw[0], bw[1], bw[2], bw[3], bw[4]
        );
    }
    text.push_str(
        "\nram_staging (ABT/RFS) tracks the NVM cache while per-node\n\
         bursts fit in the 2 GiB of free memory and degrades toward the\n\
         plain path when they do not; parcoll and multifile shrink the\n\
         synchronisation span without changing the storage ceiling.\n",
    );
    finish(Report::new(doc, text), &cli)
}
