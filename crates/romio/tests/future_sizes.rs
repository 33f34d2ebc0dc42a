//! Size gates on the futures every rank keeps alive through a
//! collective call. A rank's task box is as large as its future, and
//! its future embeds these by value: a collective write holds the PFS
//! write path, which holds a striped request's inline chunk join,
//! which holds a RAID request's inline member join. A future that
//! keeps one of those joins twice — a moved-from local beside a pinned
//! copy — or an `async` wrapper that keeps its inner future twice,
//! roughly doubles the memory of every rank.
//!
//! The bounds sit a few percent above the sizes measured when they
//! were set (rustc 1.95.0; debug and release agree). A toolchain that
//! moves a size re-pins its bound. Each size is printed to stderr:
//! `cargo test -p e10-romio --test future_sizes -- --nocapture`.

use std::mem::size_of_val;

use e10_mpisim::{FileView, FlatType, Info};
use e10_romio::{read_at_all, write_at_all, AdioFile, DataSpec, TestbedSpec};
use e10_simcore::{join_all, run, spawn, SimRng};
use e10_storesim::{Disk, Payload, Raid};

/// `(future, bytes, bound)` for every gated future.
type Sizes = Vec<(&'static str, usize, usize)>;

/// Open one file on every rank of the 8-rank testbed and take, on rank
/// 0, the size of each gated future unpolled. A RAID array is built
/// from the testbed's PFS target parameters.
fn measure() -> Sizes {
    run(async {
        let spec = TestbedSpec::small(8, 4);
        let tb = spec.build();
        let ranks = tb.ctxs().into_iter().map(|ctx| {
            spawn(async move {
                let info = Info::from_pairs([("romio_cb_write", "enable")]);
                let f = AdioFile::open(&ctx, "/gfs/sizes", &info, true)
                    .await
                    .unwrap();
                let view = FileView::new(&FlatType::indexed(vec![(0, 8)]), 0);
                let data = DataSpec::FileGen { seed: 1 };
                let sizes = vec![
                    ("write_at_all", size_of_val(&write_at_all(&f, &view, &data))),
                    ("read_at_all", size_of_val(&read_at_all(&f, &view))),
                    (
                        "PfsHandle::write",
                        size_of_val(&f.global().write(ctx.comm.node(), 0, Payload::zero(8))),
                    ),
                ];
                f.close().await;
                sizes
            })
        });
        let mut sizes = join_all(ranks.collect()).await.swap_remove(0);
        let disks = (0..spec.pfs.disks_per_target)
            .map(|d| Disk::new(spec.pfs.disk.clone(), SimRng::stream(1, d as u64)))
            .collect();
        let raid = Raid::new(spec.pfs.raid.clone(), disks);
        sizes.push(("Raid::write", size_of_val(&raid.write(0, 8))));
        sizes.push(("Raid::read", size_of_val(&raid.read(0, 8))));
        sizes
            .into_iter()
            .map(|(name, bytes)| (name, bytes, bound(name)))
            .collect()
    })
}

/// The gate of each future, in bytes.
fn bound(name: &str) -> usize {
    match name {
        "write_at_all" => 7_400,
        "read_at_all" => 6_200,
        "PfsHandle::write" => 5_000,
        "Raid::write" => 3_300,
        "Raid::read" => 2_700,
        _ => unreachable!("{name} has no bound"),
    }
}

#[test]
fn collective_path_futures_stay_within_their_bounds() {
    let sizes = measure();
    for &(name, bytes, bound) in &sizes {
        eprintln!("future size: {name:<17} {bytes:>6} B (bound {bound} B)");
    }
    let over: Vec<_> = sizes.iter().filter(|(_, b, bound)| b > bound).collect();
    assert!(over.is_empty(), "futures over their size bound: {over:?}");
}
