//! Related-work baselines (paper §V), for comparison against the E10
//! cache approach:
//!
//! * **Partitioned collective I/O** (Yu & Vetter, "ParColl"): split the
//!   communicator into groups and run the extended two-phase algorithm
//!   *within* each group, so global synchronisation (the per-round
//!   `MPI_Alltoall` and the final `MPI_Allreduce`) only spans `P/G`
//!   processes. Addresses the paper's point (a) without extra storage
//!   tiers.
//! * **Multi-file output** (the ADIOS approach): each group writes its
//!   own file, eliminating cross-group interactions entirely at the
//!   cost of not producing a single shared file.
//!
//! Both compose with the E10 cache hints — a group's aggregators still
//! write through their node-local caches when enabled.

use e10_mpisim::{FileView, Info};

use crate::adio::{AdioFile, DataSpec};
use crate::collective::{write_at_all, WriteAllResult};
use crate::error::Error;
use crate::fd::select_aggregators;
use crate::testbed::IoCtx;

/// Contiguous-block group of a rank: ranks `[g·P/G, (g+1)·P/G)` form
/// group `g` (ParColl's default partitioning).
fn group_of(rank: usize, size: usize, ngroups: usize) -> usize {
    assert!(ngroups > 0 && ngroups <= size);
    rank * ngroups / size
}

/// ParColl-style partitioned collective write: like
/// [`write_at_all`], but all coordination happens within this rank's
/// group. Every rank of the original communicator must call this with
/// the same `ngroups`.
pub async fn write_at_all_partitioned(
    fd: &AdioFile,
    view: &FileView,
    data: &DataSpec,
    ngroups: usize,
) -> WriteAllResult {
    let comm = &fd.comm;
    if ngroups <= 1 {
        return write_at_all(fd, view, data).await;
    }
    let group = group_of(comm.rank(), comm.size(), ngroups);
    let sub = comm.split(group as u32, comm.rank() as u64).await;
    // Spread the file's aggregator budget over the groups (at least
    // one aggregator per group).
    let per_group = (fd.aggregators().len() / ngroups).max(1);
    let aggregators = select_aggregators(sub.node_map(), per_group);
    let gfd = fd.with_comm(sub, aggregators.into());
    write_at_all(&gfd, view, data).await
}

/// ADIOS-style multi-file collective write: each group opens its own
/// file `<base>.g<group>` on its sub-communicator and writes its data
/// there (at the original global offsets, so each subfile is a sparse
/// slice of the logical file and stays verifiable). Returns the result
/// plus the path this rank's group wrote.
pub async fn write_at_all_multifile(
    ctx: &IoCtx,
    base_path: &str,
    info: &Info,
    view: &FileView,
    data: &DataSpec,
    ngroups: usize,
) -> Result<(WriteAllResult, String), Error> {
    let comm = &ctx.comm;
    let group = group_of(comm.rank(), comm.size(), ngroups);
    let sub = comm.split(group as u32, comm.rank() as u64).await;
    let path = format!("{base_path}.g{group}");
    let sub_ctx = IoCtx {
        comm: sub,
        ..ctx.clone()
    };
    let fd = AdioFile::open(&sub_ctx, &path, info, true).await?;
    let res = write_at_all(&fd, view, data).await;
    fd.close().await;
    Ok((res, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Phase;
    use crate::testbed::TestbedSpec;
    use e10_mpisim::FlatType;
    use e10_simcore::run;

    fn hints() -> Info {
        Info::from_pairs([
            ("romio_cb_write", "enable"),
            ("cb_buffer_size", "16K"),
            ("striping_unit", "16K"),
            ("cb_nodes", "4"),
        ])
    }

    #[test]
    fn group_assignment_is_contiguous_and_balanced() {
        for (p, g) in [(8, 2), (8, 4), (12, 3), (7, 2)] {
            let groups: Vec<usize> = (0..p).map(|r| group_of(r, p, g)).collect();
            // Non-decreasing, covers 0..g.
            assert!(groups.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(groups[0], 0);
            assert_eq!(*groups.last().unwrap(), g - 1);
        }
    }

    #[test]
    fn partitioned_write_produces_correct_file() {
        run(async {
            let tb = TestbedSpec::small(8, 4).build();
            let handles: Vec<_> = tb
                .ctxs()
                .into_iter()
                .map(|ctx| {
                    e10_simcore::spawn(async move {
                        let f = AdioFile::open(&ctx, "/gfs/pc", &hints(), true)
                            .await
                            .unwrap();
                        // Strided within each HALF of the file so each
                        // group's range is contiguous (ParColl's use
                        // case): group g covers [g*half, (g+1)*half).
                        let p = 8;
                        let half_ranks = 4;
                        let g = group_of(ctx.comm.rank(), p, 2);
                        let lr = ctx.comm.rank() % half_ranks;
                        let half_bytes = 4096 * 16 * half_ranks as u64;
                        let blocks: Vec<(u64, u64)> = (0..16u64)
                            .map(|i| {
                                (
                                    g as u64 * half_bytes
                                        + (i * half_ranks as u64 + lr as u64) * 4096,
                                    4096,
                                )
                            })
                            .collect();
                        let view = FileView::new(&FlatType::indexed(blocks), 0);
                        let r =
                            write_at_all_partitioned(&f, &view, &DataSpec::FileGen { seed: 41 }, 2)
                                .await;
                        assert!(r.used_collective);
                        f.close().await;
                        f.global().extents().clone()
                    })
                })
                .collect();
            let exts = e10_simcore::join_all(handles).await;
            exts[0].verify_gen(41, 0, 8 * 16 * 4096).unwrap();
        });
    }

    #[test]
    fn partitioned_write_reduces_global_sync_span() {
        // With 2 groups, the per-round alltoall spans 4 ranks instead
        // of 8: the analytic cost model's alltoall term must shrink.
        run(async {
            let tb = TestbedSpec::small(8, 4).build();
            let handles: Vec<_> = tb
                .ctxs()
                .into_iter()
                .map(|ctx| {
                    e10_simcore::spawn(async move {
                        let mut costs = Vec::new();
                        for ngroups in [1usize, 2] {
                            let path = format!("/gfs/pcsync{ngroups}");
                            let f = AdioFile::open(&ctx, &path, &hints(), true).await.unwrap();
                            // Group-contiguous pattern (ParColl's use
                            // case): rank r strides within its group's
                            // half of the file, so partitioning leaves
                            // the round count unchanged and only
                            // shrinks the synchronisation span.
                            let g = group_of(ctx.comm.rank(), 8, 2) as u64;
                            let lr = (ctx.comm.rank() % 4) as u64;
                            let seg = 4 * 8 * 2048u64;
                            let blocks: Vec<(u64, u64)> = (0..8u64)
                                .map(|i| (g * seg + (i * 4 + lr) * 2048, 2048))
                                .collect();
                            let view = FileView::new(&FlatType::indexed(blocks), 0);
                            write_at_all_partitioned(
                                &f,
                                &view,
                                &DataSpec::FileGen { seed: 42 },
                                ngroups,
                            )
                            .await;
                            f.close().await;
                            costs.push(
                                f.profiler().get(Phase::PostWrite).as_secs_f64()
                                    + f.profiler().get(Phase::ShuffleAlltoall).as_secs_f64(),
                            );
                            f.profiler().reset();
                        }
                        costs
                    })
                })
                .collect();
            let all = e10_simcore::join_all(handles).await;
            let mean = |i: usize| all.iter().map(|c| c[i]).sum::<f64>() / all.len() as f64;
            assert!(
                mean(1) < mean(0),
                "partitioning must reduce global-sync cost: {} vs {}",
                mean(1),
                mean(0)
            );
        });
    }

    #[test]
    fn partitioned_with_cache_verifies() {
        run(async {
            let tb = TestbedSpec::small(8, 4).build();
            let handles: Vec<_> = tb
                .ctxs()
                .into_iter()
                .map(|ctx| {
                    e10_simcore::spawn(async move {
                        let info = hints();
                        info.set("e10_cache", "enable");
                        info.set("e10_cache_discard_flag", "enable");
                        let f = AdioFile::open(&ctx, "/gfs/pcc", &info, true).await.unwrap();
                        let g = group_of(ctx.comm.rank(), 8, 4) as u64;
                        let lr = (ctx.comm.rank() % 2) as u64;
                        let seg = 2 * 8 * 1024u64;
                        let blocks: Vec<(u64, u64)> = (0..8u64)
                            .map(|i| (g * seg + (i * 2 + lr) * 1024, 1024))
                            .collect();
                        let view = FileView::new(&FlatType::indexed(blocks), 0);
                        write_at_all_partitioned(&f, &view, &DataSpec::FileGen { seed: 43 }, 4)
                            .await;
                        f.close().await;
                        f.global().extents().clone()
                    })
                })
                .collect();
            let exts = e10_simcore::join_all(handles).await;
            exts[0].verify_gen(43, 0, 8 * 8 * 1024).unwrap();
        });
    }

    #[test]
    fn multifile_writes_one_file_per_group() {
        run(async {
            let tb = TestbedSpec::small(8, 4).build();
            let pfs = std::rc::Rc::clone(&tb.pfs);
            let handles: Vec<_> = tb
                .ctxs()
                .into_iter()
                .map(|ctx| {
                    e10_simcore::spawn(async move {
                        let g = group_of(ctx.comm.rank(), 8, 2) as u64;
                        let lr = (ctx.comm.rank() % 4) as u64;
                        let seg = 4 * 8 * 1024u64;
                        let blocks: Vec<(u64, u64)> = (0..8u64)
                            .map(|i| (g * seg + (i * 4 + lr) * 1024, 1024))
                            .collect();
                        let view = FileView::new(&FlatType::indexed(blocks), 0);
                        let (res, path) = write_at_all_multifile(
                            &ctx,
                            "/gfs/adios",
                            &hints(),
                            &view,
                            &DataSpec::FileGen { seed: 44 },
                            2,
                        )
                        .await
                        .unwrap();
                        assert!(res.used_collective);
                        path
                    })
                })
                .collect();
            let paths = e10_simcore::join_all(handles).await;
            assert!(paths[0].ends_with(".g0"));
            assert!(paths[7].ends_with(".g1"));
            let seg = 4 * 8 * 1024u64;
            pfs.file_extents("/gfs/adios.g0")
                .unwrap()
                .verify_gen(44, 0, seg)
                .unwrap();
            pfs.file_extents("/gfs/adios.g1")
                .unwrap()
                .verify_gen(44, seg, seg)
                .unwrap();
        });
    }
}
