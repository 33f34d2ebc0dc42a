//! Tests for the future-work extensions (paper §III "more complex
//! policies" and §VI): streaming cache eviction and cache reads.

use e10_repro::prelude::*;

fn base_hints(extra: &[(&str, &str)]) -> Info {
    let info = Info::from_pairs([
        ("romio_cb_write", "enable"),
        ("cb_buffer_size", "32K"),
        ("striping_unit", "32K"),
        ("e10_cache", "enable"),
        ("ind_wr_buffer_size", "16K"),
    ]);
    for (k, v) in extra {
        info.set(k, v);
    }
    info
}

/// With `e10_cache_evict`, a stream far larger than the scratch
/// partition stays fully cached (extents are punched as they sync);
/// without it the cache degrades.
#[test]
fn evict_turns_cache_into_streaming_stage() {
    for (evict, expect_active) in [("enable", true), ("disable", false)] {
        e10_simcore::run(async move {
            let mut spec = TestbedSpec::small(2, 1);
            spec.localfs.capacity = 256 << 10; // 256 KiB scratch
            let tb = spec.build();
            let handles: Vec<_> = tb
                .ctxs()
                .into_iter()
                .map(|ctx| {
                    e10_simcore::spawn(async move {
                        let info = base_hints(&[("e10_cache_evict", evict)]);
                        let f = AdioFile::open(&ctx, "/gfs/evict", &info, true)
                            .await
                            .unwrap();
                        // 1 MiB per rank in 64 KiB extents, waiting for
                        // sync between extents so eviction can keep up.
                        let r = ctx.comm.rank() as u64;
                        for i in 0..16u64 {
                            let off = (r * 16 + i) * (64 << 10);
                            f.write_contig(off, Payload::gen(80, off, 64 << 10))
                                .await
                                .unwrap();
                            f.file_sync().await;
                        }
                        let active = f.cache_active();
                        f.close().await;
                        (active, f.global().extents().clone())
                    })
                })
                .collect();
            let outs = e10_simcore::join_all(handles).await;
            // Data always lands intact either way.
            outs[0].1.verify_gen(80, 0, 2 * 16 * (64 << 10)).unwrap();
            assert_eq!(
                outs.iter().all(|(a, _)| *a),
                expect_active,
                "evict={evict}: cache_active must be {expect_active}"
            );
        });
    }
}

/// Eviction and cache reads compose: an evicted extent is no longer a
/// cache hit, and the read transparently falls back to the global file
/// with correct data.
#[test]
fn evict_then_cache_read_falls_back_to_global() {
    e10_simcore::run(async {
        let tb = TestbedSpec::small(4, 2).build();
        let handles: Vec<_> = tb
            .ctxs()
            .into_iter()
            .map(|ctx| {
                e10_simcore::spawn(async move {
                    let info = base_hints(&[
                        ("romio_cb_read", "enable"),
                        ("e10_cache_read", "enable"),
                        ("e10_cache_evict", "enable"),
                    ]);
                    let f = AdioFile::open(&ctx, "/gfs/evr", &info, true).await.unwrap();
                    let r = ctx.comm.rank() as u64;
                    let blocks: Vec<(u64, u64)> =
                        (0..8).map(|i| ((i * 4 + r) * 4096, 4096)).collect();
                    let view = FileView::new(&FlatType::indexed(blocks), 0);
                    e10_repro::romio::write_at_all(&f, &view, &DataSpec::FileGen { seed: 84 })
                        .await;
                    f.file_sync().await; // everything synced AND evicted
                    let read = e10_repro::romio::read_at_all(&f, &view).await;
                    assert_eq!(read.cache_hits, 0, "evicted extents must miss");
                    read.verify_gen(84).unwrap();
                    f.close().await;
                })
            })
            .collect();
        e10_simcore::join_all(handles).await;
    });
}
