use super::*;
use crate::journal;
use crate::testbed::{Testbed, TestbedSpec};
use e10_pfs::Striping;
use e10_simcore::{run, SimDuration};
use e10_storesim::{ExtentMap, Source};

fn cfg(flush: FlushFlag, coherent: bool, discard: bool) -> CacheConfig {
    let mut c = CacheConfig::new("/scratch", "target", 0, 0);
    c.flush_flag = flush;
    c.coherent = coherent;
    c.discard = discard;
    c
}

async fn setup(flush: FlushFlag, coherent: bool, discard: bool) -> (CacheLayer, PfsHandle) {
    let tb = TestbedSpec::small(2, 1).build();
    let global = tb.pfs.create(0, "/gfs/target", Striping::default()).await;
    let layer = CacheLayer::open(
        tb.localfs[0].clone(),
        global.clone(),
        cfg(flush, coherent, discard),
    )
    .await
    .unwrap();
    (layer, global)
}

/// Recovery finds a rank's files by name, so the paths are the ones
/// they always were, whether the configuration holds the global file's
/// base name or its whole path, and however long they grow.
#[test]
fn cache_paths_are_unchanged() {
    for rank in [0, 7, 10, 511, 123_456] {
        for file in ["ckpt.3", "/gfs/run/ckpt.3"] {
            let mut c = CacheConfig::new("/scratch", file, rank, 0);
            let paths = [
                c.cache_file_path(),
                c.journal_file_path(),
                c.front_file_path(),
            ];
            let want = [
                format!("/scratch/ckpt.3.{rank}.e10"),
                format!("/scratch/ckpt.3.{rank}.e10.jnl"),
                format!("/scratch/ckpt.3.{rank}.front.e10"),
            ];
            assert_eq!(paths.map(|p| p.to_string()), want);
            c.journal_path = Some("/pmem/j".into());
            assert_eq!(&*c.journal_file_path(), "/pmem/j");
        }
    }
    // "/f.0.e10" adds 8 bytes: names of 254 to 257 bytes straddle the
    // end of `path_of`'s stack buffer.
    for len in 246..250 {
        let dir = "d".repeat(len);
        let path = CacheConfig::new(&dir, "f", 0, 0).cache_file_path();
        assert_eq!(*path, format!("{dir}/f.0.e10"));
    }
}

#[test]
fn immediate_flush_moves_data_to_global() {
    run(async {
        let (layer, global) = setup(FlushFlag::FlushImmediate, false, false).await;
        layer.write(0, Payload::gen(3, 0, 2 << 20)).await.unwrap();
        assert_eq!(layer.bytes_cached(), 2 << 20);
        layer.flush().await.unwrap();
        assert_eq!(layer.bytes_synced(), 2 << 20);
        assert!(global.extents().verify_gen(3, 0, 2 << 20).is_ok());
        assert_eq!(layer.outstanding(), 0);
        assert_eq!(layer.sync_errors(), 0);
    });
}

#[test]
fn onclose_defers_until_flush() {
    run(async {
        let (layer, global) = setup(FlushFlag::FlushOnClose, false, false).await;
        layer.write(0, Payload::gen(3, 0, 1 << 20)).await.unwrap();
        // Give the (idle) sync thread time: nothing must move yet.
        e10_simcore::sleep(e10_simcore::SimDuration::from_secs(5)).await;
        assert_eq!(layer.bytes_synced(), 0);
        assert!(!global.extents().covered(0, 1));
        layer.flush().await.unwrap();
        assert!(global.extents().verify_gen(3, 0, 1 << 20).is_ok());
    });
}

#[test]
fn flush_none_never_syncs() {
    run(async {
        let (layer, global) = setup(FlushFlag::FlushNone, false, false).await;
        layer.write(0, Payload::gen(3, 0, 1 << 20)).await.unwrap();
        layer.flush().await.unwrap();
        layer.close().await.unwrap();
        assert_eq!(layer.bytes_synced(), 0);
        assert!(!global.extents().covered(0, 1));
    });
}

#[test]
fn discard_removes_cache_file_on_close() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/t", Striping::default()).await;
        for (discard, expect_exists) in [(true, false), (false, true)] {
            let mut c = CacheConfig::new("/scratch", "t", 0, 0);
            c.discard = discard;
            let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), c)
                .await
                .unwrap();
            layer.write(0, Payload::gen(1, 0, 1024)).await.unwrap();
            let path = layer.cache_file_path().to_string();
            layer.close().await.unwrap();
            assert_eq!(
                tb.localfs[0].exists(&path),
                expect_exists,
                "discard={discard}"
            );
        }
    });
}

#[test]
fn nospace_degrades_instead_of_failing() {
    run(async {
        let mut spec = TestbedSpec::small(2, 1);
        spec.localfs.capacity = 1 << 20; // 1 MiB scratch
        let tb = spec.build();
        let global = tb.pfs.create(0, "/gfs/t", Striping::default()).await;
        let mut c = CacheConfig::new("/scratch", "t", 0, 0);
        c.discard = true;
        let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), c)
            .await
            .unwrap();
        assert!(layer.write(0, Payload::zero(512 << 10)).await.unwrap());
        // Second write exceeds the partition: degraded, not an error.
        let cached = layer
            .write(512 << 10, Payload::zero(1 << 20))
            .await
            .unwrap();
        assert!(!cached);
        assert!(layer.is_degraded());
        // Later writes keep reporting degraded.
        assert!(!layer.write(0, Payload::zero(1)).await.unwrap());
        layer.close().await.unwrap();
    });
}

#[test]
fn reservation_exhaustion_degrades_managed_job_only() {
    run(async {
        let mut spec = TestbedSpec::small(2, 1);
        spec.localfs.capacity = 1 << 20; // 1 MiB scratch
        let tb = spec.build();
        let ga = tb.pfs.create(0, "/gfs/joba", Striping::default()).await;
        let gb = tb.pfs.create(0, "/gfs/jobb", Striping::default()).await;
        let mk = |name: &str| {
            let mut c = CacheConfig::new("/scratch", name, 0, 0);
            c.hiwater = 80;
            c.lowater = 50;
            c
        };
        let la = CacheLayer::open(tb.localfs[0].clone(), ga.clone(), mk("joba"))
            .await
            .unwrap();
        let lb = CacheLayer::open(tb.localfs[0].clone(), gb.clone(), mk("jobb"))
            .await
            .unwrap();
        // hi = 838860 bytes over two managed jobs → 419430 each.
        assert!(la.write(0, Payload::gen(1, 0, 400 << 10)).await.unwrap());
        // This write would take job a past its reservation: the
        // job degrades to write-through, exactly like ENOSPC.
        assert!(!la
            .write(400 << 10, Payload::gen(1, 400 << 10, 64 << 10))
            .await
            .unwrap());
        assert!(la.is_degraded());
        // The other tenant keeps its own reservation.
        assert!(lb.write(0, Payload::gen(2, 0, 64 << 10)).await.unwrap());
        assert!(!lb.is_degraded());
        // An unmanaged cache on the volume is never checked: it stages
        // past any reservation and is charged to no tenant.
        let gc = tb.pfs.create(0, "/gfs/jobc", Striping::default()).await;
        let cc = CacheConfig::new("/scratch", "jobc", 0, 0);
        let lc = CacheLayer::open(tb.localfs[0].clone(), gc, cc)
            .await
            .unwrap();
        assert!(lc.write(0, Payload::gen(3, 0, 450 << 10)).await.unwrap());
        assert_eq!(lc.tenant_staged(), 0);
        la.close().await.unwrap();
        lb.close().await.unwrap();
        assert!(ga.extents().verify_gen(1, 0, 400 << 10).is_ok());
        assert!(gb.extents().verify_gen(2, 0, 64 << 10).is_ok());
    });
}

#[test]
fn watermark_pressure_evicts_synced_extents_across_jobs() {
    run(async {
        let mut spec = TestbedSpec::small(2, 1);
        spec.localfs.capacity = 1 << 20; // 1 MiB scratch
        let tb = spec.build();
        let mk = |name: &str| {
            let mut c = CacheConfig::new("/scratch", name, 0, 0);
            c.hiwater = 80;
            c.lowater = 50;
            c
        };
        let mut layers = Vec::new();
        for name in ["joba", "jobb", "jobc"] {
            let g = tb
                .pfs
                .create(0, &format!("/gfs/{name}"), Striping::default())
                .await;
            layers.push((
                CacheLayer::open(tb.localfs[0].clone(), g.clone(), mk(name))
                    .await
                    .unwrap(),
                g,
            ));
        }
        // Jobs a and b each stage 270 KiB and flush: synced bytes
        // stay resident (no per-file evict flag) but become
        // arbiter eviction candidates.
        for (i, (layer, _)) in layers.iter().take(2).enumerate() {
            assert!(layer
                .write(0, Payload::gen(i as u64, 0, 270 << 10))
                .await
                .unwrap());
            layer.flush().await.unwrap();
        }
        let used_before = tb.localfs[0].statfs().1;
        assert_eq!(used_before, 2 * (270 << 10));
        // 128 KiB of non-tenant data (another application, no
        // watermark hints) shares the volume.
        let junk = tb.localfs[0].create("/scratch/other.dat").await.unwrap();
        junk.fallocate(0, 128 << 10).await.unwrap();
        // Job c's 270 KiB would push occupancy past the high
        // watermark (838860): pressure trips, both synced extents
        // are evicted, and the write is then admitted.
        let (lc, gc) = &layers[2];
        assert!(lc.write(0, Payload::gen(9, 0, 270 << 10)).await.unwrap());
        let arb = CacheArbiter::of(&tb.localfs[0]);
        let (_, _, evicted, _) = arb.stats();
        assert_eq!(evicted, 2 * (270 << 10));
        assert_eq!(tb.localfs[0].statfs().1, (128 << 10) + (270 << 10));
        // Every job's bytes are intact in the global files.
        for (i, (layer, g)) in layers.iter().enumerate() {
            layer.close().await.unwrap();
            let seed = if i == 2 { 9 } else { i as u64 };
            assert!(g.extents().verify_gen(seed, 0, 270 << 10).is_ok());
        }
        let _ = gc;
    });
}

/// A watermark-managed (80 % / 50 %) cache of job `job` on `tb`'s
/// node-0 volume, writing to `/gfs/<job>`.
async fn managed_layer(tb: &Testbed, job: &str, flush: FlushFlag) -> CacheLayer {
    let global = tb
        .pfs
        .create(0, &format!("/gfs/{job}"), Striping::default())
        .await;
    let mut c = CacheConfig::new("/scratch", job, 0, 0);
    c.hiwater = 80;
    c.lowater = 50;
    c.flush_flag = flush;
    CacheLayer::open(tb.localfs[0].clone(), global, c)
        .await
        .unwrap()
}

fn scratch_testbed(capacity: u64) -> Testbed {
    let mut spec = TestbedSpec::small(1, 1);
    spec.localfs.capacity = capacity;
    spec.build()
}

/// The volume owns its arbiter and the arbiter holds no share of the
/// volume's attachment slot, nor of the cache volumes whose synced
/// extents it may evict: once the last handle goes, so does the
/// arbiter (and with it the volume — a cycle here leaked every node's
/// cache volume per run).
#[test]
fn arbiter_dies_with_its_volume() {
    run(async {
        let tb = scratch_testbed(1 << 20);
        let mut c = CacheConfig::new("/scratch", "a", 0, 0);
        c.hiwater = 80;
        c.lowater = 50;
        c.journal = true;
        c.integrity = true;
        let global = tb.pfs.create(0, "/gfs/a", Striping::default()).await;
        let layer = CacheLayer::open(tb.localfs[0].clone(), global, c)
            .await
            .unwrap();
        layer.write(0, Payload::gen(1, 0, 4096)).await.unwrap();
        layer.close().await.unwrap();
        let arb = CacheArbiter::of(&tb.localfs[0]);
        assert_eq!(arb.evictable_bytes(), 4096);
        let weak = Rc::downgrade(&arb);
        drop((arb, layer, tb));
        assert!(weak.upgrade().is_none(), "the arbiter outlived its volume");
    });
}

#[test]
fn pressure_evicts_synced_lru_then_admits() {
    run(async {
        let tb = scratch_testbed(1_000_000);
        let fs = tb.localfs[0].clone();
        let arb = CacheArbiter::of(&fs);
        let la = managed_layer(&tb, "a", FlushFlag::FlushImmediate).await;
        let b = arb.register("b", 80, 50, 4096, 0);
        // Job a stages 390k (within its 400k reservation) in two
        // extents, each synced and evictable, the older one first.
        la.write(0, Payload::gen(1, 0, 200_000)).await.unwrap();
        la.flush().await.unwrap();
        la.write(200_000, Payload::gen(1, 200_000, 190_000))
            .await
            .unwrap();
        la.flush().await.unwrap();
        assert_eq!(la.tenant_staged(), 390_000);
        assert_eq!(arb.evictable_bytes(), 390_000);
        // Job b stages 290k unsynced (not evictable), and 200k of
        // non-tenant data occupies the volume besides.
        let fb = fs.create("/scratch/b.0.e10").await.unwrap();
        fb.fallocate(0, 290_000).await.unwrap();
        fb.write(0, Payload::gen(2, 0, 290_000)).await.unwrap();
        arb.note_staged(b, 290_000);
        let junk = fs.create("/scratch/junk.dat").await.unwrap();
        junk.fallocate(0, 200_000).await.unwrap();
        let (admitted0, refused0, evicted0, _) = arb.stats();
        // used = 880k; +100k crosses hi (800k): pressure trips and
        // the arbiter evicts a's synced extents oldest-first, but
        // 490k of unsynced/non-tenant bytes remain — still above
        // the 400k drain target, so this write is refused.
        assert_eq!(arb.admit(b, 100_000).await, Admission::Refused);
        assert!(arb.under_pressure(b));
        assert_eq!(fs.statfs().1, 490_000);
        assert_eq!(la.tenant_staged(), 0);
        // Once the non-tenant bytes go, the latched retry drains
        // below the low watermark and admission resumes.
        junk.punch(0, 200_000).await;
        assert_eq!(arb.admit(b, 100_000).await, Admission::Granted);
        assert!(!arb.under_pressure(b));
        let (admitted, refused, evicted, _) = arb.stats();
        assert_eq!(admitted - admitted0, 100_000);
        assert_eq!(refused - refused0, 100_000);
        assert_eq!(evicted - evicted0, 390_000);
    });
}

#[test]
fn invalidate_and_stale_epochs_protect_dirty_bytes() {
    run(async {
        let tb = scratch_testbed(1 << 30);
        let arb = CacheArbiter::of(&tb.localfs[0]);
        let la = managed_layer(&tb, "a", FlushFlag::FlushOnClose).await;
        // Two writes of one range, then one flush: both syncs read
        // back the second write's bytes, and the second sync's
        // candidate replaces the first's, so the range counts once.
        la.write(0, Payload::gen(1, 0, 100_000)).await.unwrap();
        la.write(0, Payload::gen(2, 0, 100_000)).await.unwrap();
        la.flush().await.unwrap();
        assert_eq!(arb.evictable_bytes(), 100_000);
        // A rewrite overlapping the candidate drops it whole.
        la.write(50_000, Payload::gen(3, 50_000, 1_000))
            .await
            .unwrap();
        assert_eq!(arb.evictable_bytes(), 0);
        // Eviction really leaves non-candidate bytes alone.
        arb.evict_down_to(0).await;
        let file = tb.localfs[0].open(la.cache_file_path()).await.unwrap();
        assert_eq!(file.extents().covered_bytes(), 100_000);
    });
}

/// Three disjoint writes and one flush: each chunk is read back after
/// every write landed, so all three are eviction candidates, and the
/// other tenant's write that trips the high watermark is admitted once
/// two of them are evicted.
#[test]
fn one_flush_after_disjoint_writes_offers_every_extent() {
    run(async {
        let tb = scratch_testbed(1 << 20);
        let fs = tb.localfs[0].clone();
        let mut layers = Vec::new();
        for job in ["a", "b"] {
            let path = format!("/gfs/{job}");
            let global = tb.pfs.create(0, &path, Striping::default()).await;
            let mut c = CacheConfig::new("/scratch", job, 0, 0);
            c.hiwater = 80;
            c.lowater = 70;
            layers.push(CacheLayer::open(fs.clone(), global, c).await.unwrap());
        }
        let kib = 1 << 10;
        for i in 0..3 {
            let off = i * 100 * kib;
            let payload = Payload::gen(1, off, 100 * kib);
            assert!(layers[0].write(off, payload).await.unwrap());
        }
        layers[0].flush().await.unwrap();
        let junk = fs.create("/scratch/other.dat").await.unwrap();
        junk.fallocate(0, 200 * kib).await.unwrap();
        let admitted = layers[1]
            .write(0, Payload::gen(2, 0, 350 * kib))
            .await
            .unwrap();
        let (_, _, evicted, _) = CacheArbiter::of(&fs).stats();
        assert!(
            admitted && evicted >= 200 * kib,
            "admitted={admitted} evicted={evicted}"
        );
    });
}

/// A chunk synced while a managed rewrite of it is still staging holds
/// the old bytes: it must not become a candidate, or eviction could
/// punch the rewrite before its own sync.
#[test]
fn a_chunk_synced_while_its_rewrite_stages_is_not_offered() {
    run(async {
        let mut spec = TestbedSpec::small(1, 1);
        // Writes crawl through a throttled page cache (64 ms for the
        // rewrite), while the first write's sync takes about 1 ms.
        spec.pagecache.dirty_limit = 0;
        spec.pagecache.drain_bw = 1e6;
        let tb = spec.build();
        let arb = CacheArbiter::of(&tb.localfs[0]);
        let la = managed_layer(&tb, "a", FlushFlag::FlushImmediate).await;
        la.write(0, Payload::gen(1, 0, 64 << 10)).await.unwrap();
        la.write(0, Payload::gen(2, 0, 64 << 10)).await.unwrap();
        assert_eq!(arb.evictable_bytes(), 0);
        arb.evict_down_to(0).await;
        la.flush().await.unwrap();
        assert!(la.vol.global.extents().verify_gen(2, 0, 64 << 10).is_ok());
    });
}

/// A rewrite that lands while the previous write's chunk is between
/// its read-back and its offer leaves that chunk's global copy stale:
/// the chunk is not offered.
#[test]
fn a_rewrite_landing_during_a_sync_keeps_its_chunk_off_the_candidates() {
    run(async {
        let tb = scratch_testbed(1 << 30);
        let arb = CacheArbiter::of(&tb.localfs[0]);
        let la = managed_layer(&tb, "a", FlushFlag::FlushImmediate).await;
        let len = 64 << 10;
        la.write(0, Payload::gen(1, 0, len)).await.unwrap();
        // The sync thread reads the first write back at once, then
        // spends far longer on its global write; the rewrite lands in
        // between.
        e10_simcore::sleep(SimDuration::from_micros(100)).await;
        la.write(0, Payload::gen(2, 0, len)).await.unwrap();
        assert_eq!(la.bytes_synced(), 0);
        while la.bytes_synced() < len {
            e10_simcore::sleep(SimDuration::from_micros(10)).await;
        }
        assert_eq!(arb.evictable_bytes(), 0);
        la.flush().await.unwrap();
        assert_eq!(arb.evictable_bytes(), len);
    });
}

#[test]
fn release_file_forgets_candidates() {
    run(async {
        let tb = scratch_testbed(1 << 30);
        let arb = CacheArbiter::of(&tb.localfs[0]);
        let la = managed_layer(&tb, "a", FlushFlag::FlushImmediate).await;
        la.write(0, Payload::gen(1, 0, 10_000)).await.unwrap();
        la.flush().await.unwrap();
        assert_eq!(arb.evictable_bytes(), 10_000);
        arb.release_file(&la.vol);
        assert_eq!(arb.evictable_bytes(), 0);
        // Eviction after release is a no-op even at target 0 with the
        // file's bytes still on the volume.
        arb.evict_down_to(0).await;
        assert_eq!(la.vol.resident(0, 10_000), 10_000);
    });
}

#[test]
fn coherent_mode_blocks_readers_until_synced() {
    run(async {
        let (layer, global) = setup(FlushFlag::FlushOnClose, true, false).await;
        layer.write(0, Payload::gen(9, 0, 4 << 20)).await.unwrap();
        // A reader trying to lock the extent must wait until flush
        // completes (deferred sync → lock held until then).
        let g2 = global.clone();
        let reader = e10_simcore::spawn(async move {
            let _l = g2.lock_extent(0, 0..1024, LockMode::Shared).await;
            // Once we get the lock, the data must be present.
            assert!(g2.extents().verify_gen(9, 0, 4 << 20).is_ok());
            e10_simcore::now()
        });
        e10_simcore::sleep(e10_simcore::SimDuration::from_secs(2)).await;
        let before_flush = e10_simcore::now();
        layer.flush().await.unwrap();
        let t_reader = reader.await;
        assert!(
            t_reader >= before_flush,
            "reader got in before sync completed"
        );
        layer.close().await.unwrap();
    });
}

#[test]
fn sync_thread_overlaps_with_foreground() {
    run(async {
        let (layer, _global) = setup(FlushFlag::FlushImmediate, false, false).await;
        // Queue several extents; outstanding shrinks over time
        // without any flush call.
        for i in 0..4u64 {
            layer
                .write(i * (4 << 20), Payload::gen(1, i * (4 << 20), 4 << 20))
                .await
                .unwrap();
        }
        let initial = layer.outstanding();
        assert!(initial > 0);
        e10_simcore::sleep(e10_simcore::SimDuration::from_secs(60)).await;
        assert_eq!(layer.outstanding(), 0, "background sync must progress");
        assert_eq!(layer.bytes_synced(), 16 << 20);
    });
}

#[test]
fn zero_length_write_is_a_clean_noop() {
    run(async {
        let (layer, global) = setup(FlushFlag::FlushImmediate, false, false).await;
        assert!(layer.write(1234, Payload::zero(0)).await.unwrap());
        assert_eq!(layer.bytes_cached(), 0);
        assert_eq!(layer.outstanding(), 0);
        layer.flush().await.unwrap();
        assert_eq!(layer.bytes_synced(), 0);
        assert!(!global.extents().covered(0, 1));
        // And it must not have degraded the cache.
        assert!(!layer.is_degraded());
    });
}

#[test]
fn covers_handles_zero_length_and_adjacent_extents() {
    run(async {
        let (layer, _global) = setup(FlushFlag::FlushNone, false, false).await;
        layer.write(0, Payload::gen(2, 0, 512)).await.unwrap();
        layer.write(512, Payload::gen(2, 512, 512)).await.unwrap();
        // Two adjacent extents behave as one covered run.
        assert!(layer.covers(0, 1024));
        assert!(layer.covers(511, 2));
        assert!(!layer.covers(0, 1025));
        assert!(!layer.covers(1024, 1));
        // Zero-length queries are anchored to real data: inside the
        // run they hold, past its end they do not.
        assert!(layer.covers(0, 0));
        assert!(layer.covers(1023, 0));
        assert!(!layer.covers(1024, 0));
        assert!(!layer.covers(9999, 0));
    });
}

#[test]
fn journal_records_adds_and_synceds() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/j", Striping::default()).await;
        let mut c = CacheConfig::new("/scratch", "j", 0, 0);
        c.journal = true;
        let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), c)
            .await
            .unwrap();
        assert!(layer.journal_active());
        layer.write(0, Payload::gen(4, 0, 1 << 20)).await.unwrap();
        layer.flush().await.unwrap();
        let jnl = tb.localfs[0].open(layer.journal_file_path()).await.unwrap();
        let rep = journal::replay(&jnl.read_log().await);
        assert!(!rep.torn);
        assert!(rep.records.contains(&Record::Add {
            offset: 0,
            len: 1 << 20
        }));
        assert!(rep
            .records
            .iter()
            .any(|r| matches!(r, Record::Synced { .. })));
        // Everything synced: nothing left to recover.
        assert!(rep.unsynced().is_empty());
        layer.close().await.unwrap();
    });
}

#[test]
fn recover_requeues_unsynced_extents() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/r", Striping::default()).await;
        let mut c = CacheConfig::new("/scratch", "r", 0, 0);
        c.journal = true;
        c.flush_flag = FlushFlag::FlushOnClose; // nothing syncs yet
        let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), c.clone())
            .await
            .unwrap();
        layer.write(0, Payload::gen(8, 0, 1 << 20)).await.unwrap();
        layer
            .write(4 << 20, Payload::gen(8, 4 << 20, 1 << 20))
            .await
            .unwrap();
        // Simulate the crash by abandoning the layer without flush
        // or close; the cache + journal files stay on /scratch.
        drop(layer);
        assert!(!global.extents().covered(0, 1));

        let (rec, report) = CacheLayer::recover(tb.localfs[0].clone(), global.clone(), c)
            .await
            .unwrap();
        assert_eq!(report.records, 2);
        assert!(!report.torn_tail);
        assert_eq!(report.requeued, vec![(0, 1 << 20), (4 << 20, 1 << 20)]);
        assert_eq!(report.requeued_bytes, 2 << 20);
        rec.flush().await.unwrap();
        assert!(global.extents().verify_gen(8, 0, 1 << 20).is_ok());
        assert!(global.extents().verify_gen(8, 4 << 20, 1 << 20).is_ok());
        rec.close().await.unwrap();
    });
}

fn integrity_cfg(name: &str) -> CacheConfig {
    let mut c = CacheConfig::new("/scratch", name, 0, 0);
    c.integrity = true;
    c.journal = true;
    c
}

#[test]
fn integrity_clean_run_verifies_and_journals_digests() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/i", Striping::default()).await;
        let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), integrity_cfg("i"))
            .await
            .unwrap();
        layer.write(0, Payload::gen(11, 0, 2 << 20)).await.unwrap();
        layer.flush().await.unwrap();
        assert_eq!(layer.integrity_mismatches(), 0);
        assert_eq!(layer.integrity_repairs(), 0);
        assert!(global.extents().verify_gen(11, 0, 2 << 20).is_ok());
        // The journal pairs every Add with a Cksum record.
        let jnl = tb.localfs[0].open(layer.journal_file_path()).await.unwrap();
        let rep = journal::replay(&jnl.read_log().await);
        assert!(rep.digests().contains_key(&0));
        layer.close().await.unwrap();
    });
}

#[test]
fn integrity_repairs_out_of_band_corruption_on_flush() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/c", Striping::default()).await;
        let mut c = integrity_cfg("c");
        c.flush_flag = FlushFlag::FlushOnClose; // corrupt before any sync
        let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), c)
            .await
            .unwrap();
        layer.write(0, Payload::gen(12, 0, 1 << 20)).await.unwrap();
        // Rot a few staged bytes behind the cache layer's back.
        let raw = tb.localfs[0].open(layer.cache_file_path()).await.unwrap();
        raw.write(4096, Payload::literal(vec![0xFF; 16]))
            .await
            .unwrap();
        layer.flush().await.unwrap();
        assert!(layer.integrity_mismatches() >= 1);
        assert!(layer.integrity_repairs() >= 1);
        assert!(!layer.is_degraded());
        // The corruption never reached the global file.
        assert!(global.extents().verify_gen(12, 0, 1 << 20).is_ok());
        layer.close().await.unwrap();
    });
}

#[test]
fn integrity_degrades_under_persistent_device_corruption() {
    run(async {
        let _g = e10_faultsim::FaultSchedule::install(
            e10_faultsim::FaultPlan::new(7).cache_bitflip(0, e10_faultsim::always(), 1.0),
        );
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/p", Striping::default()).await;
        let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), integrity_cfg("p"))
            .await
            .unwrap();
        layer
            .write(0, Payload::gen(13, 0, 256 << 10))
            .await
            .unwrap();
        // Every rewrite is corrupted again: repair cannot stick, the
        // chunk is served from memory and the cache degrades with a
        // typed error — but the global file still gets clean bytes.
        match layer.flush().await {
            Err(Error::Integrity { stage: "flush", .. }) => {}
            other => panic!("expected flush-stage integrity error, got {other:?}"),
        }
        assert!(layer.is_degraded());
        assert!(global.extents().verify_gen(13, 0, 256 << 10).is_ok());
        // The error is delivered once.
        layer.close().await.unwrap();
    });
}

#[test]
fn read_verified_serves_repaired_bytes() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/rv", Striping::default()).await;
        let mut c = integrity_cfg("rv");
        c.flush_flag = FlushFlag::FlushNone; // keep the data local
        let layer = CacheLayer::open(tb.localfs[0].clone(), global, c)
            .await
            .unwrap();
        layer
            .write(0, Payload::gen(14, 0, 512 << 10))
            .await
            .unwrap();
        let raw = tb.localfs[0].open(layer.cache_file_path()).await.unwrap();
        raw.write(100, Payload::literal(vec![0u8; 64]))
            .await
            .unwrap();
        let mut pieces = Vec::new();
        layer.read_verified(0, 512 << 10, &mut pieces).await;
        let mut m = ExtentMap::new();
        for (r, src) in pieces.drain(..) {
            m.insert(r.start, r.end - r.start, src.unwrap_or(Source::Zero));
        }
        assert!(m.verify_gen(14, 0, 512 << 10).is_ok());
        assert!(layer.integrity_mismatches() >= 1);
        assert!(layer.integrity_repairs() >= 1);
        // A second read sees the repaired file: no new mismatch.
        let before = layer.integrity_mismatches();
        layer.read_verified(0, 512 << 10, &mut pieces).await;
        assert_eq!(layer.integrity_mismatches(), before);
        layer.close().await.unwrap();
    });
}

#[test]
fn scrub_detects_and_repairs_between_flush_rounds() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/s", Striping::default()).await;
        let mut c = integrity_cfg("s");
        c.scrub_ms = 10;
        let layer = CacheLayer::open(tb.localfs[0].clone(), global, c)
            .await
            .unwrap();
        layer
            .write(0, Payload::gen(15, 0, 256 << 10))
            .await
            .unwrap();
        layer.flush().await.unwrap();
        // Rot the already-synced extent (no evict: it stays
        // resident), then trigger another sync round: the scrubber
        // runs first and heals the staged copy.
        let raw = tb.localfs[0].open(layer.cache_file_path()).await.unwrap();
        raw.write(8192, Payload::literal(vec![0xAB; 32]))
            .await
            .unwrap();
        e10_simcore::sleep(SimDuration::from_millis(50)).await;
        layer
            .write(1 << 20, Payload::gen(15, 1 << 20, 64 << 10))
            .await
            .unwrap();
        layer.flush().await.unwrap();
        assert!(layer.integrity_mismatches() >= 1, "scrub must detect");
        assert!(layer.integrity_repairs() >= 1, "scrub must repair");
        layer.close().await.unwrap();
    });
}

/// The scrub period runs from the open, not from the first extent a
/// volume posts: a volume left idle for longer than the period scrubs
/// before it syncs its first chunk.
#[test]
fn a_volume_idle_past_its_scrub_period_scrubs_its_first_chunk() {
    use e10_simcore::trace::{install_with_metrics, MetricsRegistry, RingSink};
    let scrubbed = run(async {
        let metrics = Rc::new(MetricsRegistry::new());
        let _trace = install_with_metrics(Rc::new(RingSink::new(16)), Rc::clone(&metrics));
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/idle", Striping::default()).await;
        let mut c = integrity_cfg("idle");
        c.scrub_ms = 10;
        let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), c)
            .await
            .unwrap();
        e10_simcore::sleep(SimDuration::from_millis(50)).await;
        layer.write(0, Payload::gen(17, 0, 64 << 10)).await.unwrap();
        layer.flush().await.unwrap();
        assert!(global.extents().verify_gen(17, 0, 64 << 10).is_ok());
        layer.close().await.unwrap();
        metrics.snapshot().counter("integrity.scrubbed_bytes")
    });
    assert_eq!(scrubbed, 64 << 10, "the first chunk scrubs the extent");
}

#[test]
fn recover_drops_corrupt_extents_and_surfaces_typed_error() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/rc", Striping::default()).await;
        let mut c = integrity_cfg("rc");
        c.flush_flag = FlushFlag::FlushOnClose; // nothing syncs yet
        let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), c.clone())
            .await
            .unwrap();
        layer.write(0, Payload::gen(16, 0, 1 << 20)).await.unwrap();
        layer
            .write(4 << 20, Payload::gen(16, 4 << 20, 1 << 20))
            .await
            .unwrap();
        drop(layer);
        // Bit-rot the second staged extent while the node is down.
        let raw = tb.localfs[0].open("/scratch/rc.0.e10").await.unwrap();
        raw.write((4 << 20) + 77, Payload::literal(vec![0x5A; 8]))
            .await
            .unwrap();

        let (rec, report) = CacheLayer::recover(tb.localfs[0].clone(), global.clone(), c)
            .await
            .unwrap();
        assert_eq!(report.corrupt, vec![(4 << 20, 1 << 20)]);
        assert_eq!(report.corrupt_bytes, 1 << 20);
        assert_eq!(report.requeued, vec![(0, 1 << 20)]);
        match rec.flush().await {
            Err(Error::Integrity {
                stage: "recover", ..
            }) => {}
            other => panic!("expected recover-stage integrity error, got {other:?}"),
        }
        // The intact extent was pushed; the rotten one was not.
        assert!(global.extents().verify_gen(16, 0, 1 << 20).is_ok());
        assert!(!global.extents().covered(4 << 20, 1));
        rec.close().await.unwrap();
    });
}

/// Tasks parked before each of two collective writes by 8 ranks
/// through 2 aggregators, and after the second: rank 0 samples them
/// between two barriers. Each write is 64 KiB a rank, so both
/// aggregators' file domains receive data.
fn live_tasks_around_two_writes(cache: &str) -> Vec<usize> {
    use crate::{write_at_all, AdioFile, DataSpec};
    use e10_mpisim::{FileView, FlatType, Info};
    const PROCS: u64 = 8;
    const BLOCK: u64 = 64 << 10;
    let cache = cache.to_string();
    run(async move {
        let tb = TestbedSpec::small(PROCS as usize, 4).build();
        let ranks = tb.ctxs().into_iter().map(|ctx| {
            let info = Info::from_pairs([
                ("romio_cb_write", "enable"),
                ("cb_nodes", "2"),
                ("striping_unit", "65536"),
                ("e10_cache", cache.as_str()),
                ("e10_cache_flush_flag", "flush_immediate"),
            ]);
            e10_simcore::spawn(async move {
                let f = AdioFile::open(&ctx, "/gfs/lazy", &info, true)
                    .await
                    .unwrap();
                assert_eq!(f.aggregators().len(), 2);
                let rank = ctx.comm.rank() as u64;
                let mut live = Vec::new();
                for call in 0..3 {
                    ctx.comm.barrier().await;
                    if rank == 0 {
                        live.push(e10_simcore::live_counts().tasks);
                    }
                    ctx.comm.barrier().await;
                    if call == 2 {
                        break;
                    }
                    let at = (call * PROCS + rank) * BLOCK;
                    let view = FileView::new(&FlatType::contiguous(BLOCK), at);
                    let r = write_at_all(&f, &view, &DataSpec::FileGen { seed: 3 }).await;
                    assert_eq!(r.error_code, 0);
                    f.file_sync().await;
                    assert!(f.take_io_error().is_none());
                }
                f.close().await;
                live
            })
        });
        e10_simcore::join_all(ranks.collect()).await.swap_remove(0)
    })
}

/// Under collective buffering only the aggregators post extents, so a
/// collective write through the cache starts one sync thread per
/// aggregator — over what the same write parks without the cache —
/// and a second write on the same file starts none.
#[test]
fn a_collective_write_starts_one_sync_thread_per_aggregator() {
    let off = live_tasks_around_two_writes("disable");
    let on = live_tasks_around_two_writes("enable");
    assert_eq!(on[0], off[0], "before any write: {on:?} vs {off:?}");
    assert_eq!(on[1] - off[1], 2, "first write: {on:?} vs {off:?}");
    assert_eq!(
        on[2] - on[1],
        off[2] - off[1],
        "second write: {on:?} vs {off:?}"
    );
}

/// A volume that never receives an extent never starts a sync thread:
/// its flush and close succeed without one, and a flush after the
/// close still reports the stopped thread.
#[test]
fn an_idle_volume_flushes_and_closes_without_a_sync_thread() {
    let spawned = |open: bool| {
        let run = e10_simcore::run_with_stats(async move {
            let tb = TestbedSpec::small(2, 1).build();
            let global = tb.pfs.create(0, "/gfs/target", Striping::default()).await;
            if !open {
                return;
            }
            let c = cfg(FlushFlag::FlushOnClose, false, false);
            let layer = CacheLayer::open(tb.localfs[0].clone(), global, c)
                .await
                .unwrap();
            layer.flush().await.unwrap();
            layer.close().await.unwrap();
            assert_eq!(layer.outstanding(), 0);
            // Staged and deferred, but nothing can sync it any more.
            assert!(layer.write(0, Payload::gen(1, 0, 4096)).await.unwrap());
            match layer.flush().await {
                Err(Error::SyncStopped) => {}
                other => panic!("expected SyncStopped, got {other:?}"),
            }
        });
        run.1.tasks_spawned
    };
    assert_eq!(spawned(true), spawned(false));
}

#[test]
fn flush_after_close_is_a_typed_error_not_a_panic() {
    run(async {
        let (layer, _global) = setup(FlushFlag::FlushOnClose, false, false).await;
        layer.close().await.unwrap();
        // A write still lands in the cache file (deferred), but the
        // sync thread is gone: flushing reports it recoverable.
        assert!(layer.write(0, Payload::gen(1, 0, 4096)).await.unwrap());
        match layer.flush().await {
            Err(Error::SyncStopped) => {}
            other => panic!("expected SyncStopped, got {other:?}"),
        }
    });
}

#[test]
fn exhausted_global_writes_surface_as_sync_failed() {
    run(async {
        let (layer, global) = setup(FlushFlag::FlushOnClose, false, false).await;
        layer.write(0, Payload::gen(5, 0, 1 << 20)).await.unwrap();
        // Every RPC fails forever: the sync thread exhausts its
        // retries and must not report a durable flush.
        let _g = e10_faultsim::FaultSchedule::install(e10_faultsim::FaultPlan::new(4).rpc_fail(
            None,
            e10_faultsim::always(),
            1.0,
        ));
        match layer.flush().await {
            Err(Error::SyncFailed { failures }) => assert!(failures >= 1),
            other => panic!("expected SyncFailed, got {other:?}"),
        }
        // The extent stays staged locally, nothing reached the
        // global file, and the failure is reported exactly once.
        assert!(layer.covers(0, 1 << 20));
        assert!(!global.extents().covered(0, 1));
        drop(_g);
        layer.flush().await.unwrap();
    });
}

/// Every PFS RPC fails until the guard is dropped.
fn pfs_outage() -> e10_faultsim::FaultGuard {
    e10_faultsim::FaultSchedule::install(e10_faultsim::FaultPlan::new(4).rpc_fail(
        None,
        e10_faultsim::always(),
        1.0,
    ))
}

#[test]
fn failed_sync_is_retried_by_the_next_flush() {
    run(async {
        let (layer, global) = setup(FlushFlag::FlushOnClose, false, false).await;
        layer.write(0, Payload::gen(5, 0, 1 << 20)).await.unwrap();
        let outage = pfs_outage();
        assert!(matches!(layer.flush().await, Err(Error::SyncFailed { .. })));
        // Still down: the retry fails too and is reported again.
        assert!(matches!(layer.flush().await, Err(Error::SyncFailed { .. })));
        drop(outage);
        // A flush that returns Ok means the global file is complete.
        layer.flush().await.unwrap();
        assert!(global.extents().verify_gen(5, 0, 1 << 20).is_ok());
        assert_eq!(layer.bytes_synced(), 1 << 20);
        layer.close().await.unwrap();
    });
}

#[test]
fn close_keeps_the_only_copy_of_bytes_it_could_not_sync() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/keep", Striping::default()).await;
        let mut c = cfg(FlushFlag::FlushOnClose, false, true);
        c.journal = true;
        let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), c.clone())
            .await
            .unwrap();
        layer.write(0, Payload::gen(6, 0, 1 << 20)).await.unwrap();
        let outage = pfs_outage();
        assert!(matches!(layer.close().await, Err(Error::SyncFailed { .. })));
        // Discard was requested, but nothing reached the global file:
        // cache file and journal stay for recovery.
        assert!(tb.localfs[0].exists(layer.cache_file_path()));
        assert!(tb.localfs[0].exists(layer.journal_file_path()));
        drop(outage);
        let (rec, report) = CacheLayer::recover(tb.localfs[0].clone(), global.clone(), c)
            .await
            .unwrap();
        assert_eq!(report.requeued_bytes, 1 << 20);
        rec.close().await.unwrap();
        assert!(global.extents().verify_gen(6, 0, 1 << 20).is_ok());
        // Now that the bytes are safe the discard goes through.
        assert!(!tb.localfs[0].exists(rec.cache_file_path()));
        assert!(!tb.localfs[0].exists(rec.journal_file_path()));
    });
}

#[test]
fn write_after_close_degrades_under_flush_immediate() {
    run(async {
        let (layer, _global) = setup(FlushFlag::FlushImmediate, false, false).await;
        layer.close().await.unwrap();
        assert!(!layer.write(0, Payload::gen(1, 0, 4096)).await.unwrap());
        assert!(layer.is_degraded());
    });
}

#[test]
fn property_pipeline_survives_every_cache_corruption_kind() {
    // Property-style sweep: under seeded bit-flip and torn-sector
    // schedules of varying aggressiveness, flushed data is always
    // byte-correct in the global file (repaired or served from
    // memory); unrepairable runs must surface a typed error.
    for seed in 0..6u64 {
        for torn in [false, true] {
            e10_simcore::run(async move {
                let prob = 0.2 + 0.15 * seed as f64 % 0.9;
                let plan = if torn {
                    e10_faultsim::FaultPlan::new(seed).cache_torn(
                        0,
                        e10_faultsim::always(),
                        prob,
                        512,
                    )
                } else {
                    e10_faultsim::FaultPlan::new(seed).cache_bitflip(
                        0,
                        e10_faultsim::always(),
                        prob,
                    )
                };
                let _g = e10_faultsim::FaultSchedule::install(plan);
                let tb = TestbedSpec::small(2, 1).build();
                let global = tb.pfs.create(0, "/gfs/prop", Striping::default()).await;
                let layer =
                    CacheLayer::open(tb.localfs[0].clone(), global.clone(), integrity_cfg("prop"))
                        .await
                        .unwrap();
                for i in 0..4u64 {
                    layer
                        .write(i << 20, Payload::gen(21, i << 20, 1 << 20))
                        .await
                        .unwrap();
                }
                let res = layer.close().await;
                // Gold invariant: whatever the schedule did, the
                // global file holds the intended bytes — corruption
                // is repaired or bypassed, never propagated.
                for i in 0..4u64 {
                    global
                        .extents()
                        .verify_gen(21, i << 20, 1 << 20)
                        .unwrap_or_else(|e| {
                            panic!("seed {seed} torn {torn}: corrupt global data: {e:?}")
                        });
                }
                // And errors, when any, are the typed kind.
                if let Err(e) = res {
                    assert!(matches!(e, Error::Integrity { .. }), "seed {seed}: {e}");
                }
            });
        }
    }
}

#[test]
fn recover_without_journal_reports_data_loss() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/l", Striping::default()).await;
        let mut c = CacheConfig::new("/scratch", "l", 0, 0);
        c.flush_flag = FlushFlag::FlushOnClose;
        let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), c.clone())
            .await
            .unwrap();
        layer.write(0, Payload::gen(6, 0, 1 << 20)).await.unwrap();
        drop(layer);
        match CacheLayer::recover(tb.localfs[0].clone(), global, c).await {
            Err(RecoverError::NoJournal { cached_bytes }) => {
                assert_eq!(cached_bytes, 1 << 20)
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("recovery must fail without a journal"),
        }
    });
}

#[test]
fn nvm_class_stages_small_writes_byte_granular() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/n", Striping::default()).await;
        let c = CacheConfig::new("/pmem", "n", 0, 0);
        // Pure nvm class: the cache lives on the byte-granular
        // mount, so small writes skip the block staging path.
        let layer = CacheLayer::open(tb.nvmfs[0].clone(), global.clone(), c)
            .await
            .unwrap();
        assert!(layer.front_active());
        layer.write(0, Payload::gen(4, 0, 64 << 10)).await.unwrap();
        assert_eq!(layer.front_bytes(), 64 << 10);
        // Above the threshold (default 1 MiB) the extent path runs.
        layer
            .write(1 << 20, Payload::gen(4, 1 << 20, 2 << 20))
            .await
            .unwrap();
        assert_eq!(layer.front_bytes(), 64 << 10);
        assert_eq!(layer.bytes_cached(), (64 << 10) + (2 << 20));
        assert!(layer.covers(0, 64 << 10));
        assert!(layer.covers(1 << 20, 2 << 20));
        layer.flush().await.unwrap();
        assert!(global.extents().verify_gen(4, 0, 64 << 10).is_ok());
        assert!(global.extents().verify_gen(4, 1 << 20, 2 << 20).is_ok());
        layer.close().await.unwrap();
    });
}

#[test]
fn hybrid_routes_small_to_nvm_and_large_to_ssd() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/h", Striping::default()).await;
        let mut c = CacheConfig::new("/scratch", "h", 0, 0);
        c.discard = true;
        let front_path = c.front_file_path();
        let layer = CacheLayer::open_with_front(
            tb.localfs[0].clone(),
            Some(tb.nvmfs[0].clone()),
            global.clone(),
            c,
        )
        .await
        .unwrap();
        assert!(layer.front_active());
        layer.write(0, Payload::gen(5, 0, 16 << 10)).await.unwrap();
        layer
            .write(4 << 20, Payload::gen(5, 4 << 20, 2 << 20))
            .await
            .unwrap();
        // The small piece lives on the NVM mount, the big one on
        // the SSD partition; `covers` sees the union.
        assert_eq!(layer.front_bytes(), 16 << 10);
        assert!(tb.nvmfs[0].exists(&front_path));
        assert_eq!(tb.nvmfs[0].statfs().1, 16 << 10);
        assert_eq!(tb.localfs[0].statfs().1 % (1 << 20), 0); // extent-rounded
        assert!(layer.covers(0, 16 << 10));
        assert!(layer.covers(4 << 20, 2 << 20));
        assert!(!layer.covers(0, 32 << 10));
        layer.flush().await.unwrap();
        assert!(global.extents().verify_gen(5, 0, 16 << 10).is_ok());
        assert!(global.extents().verify_gen(5, 4 << 20, 2 << 20).is_ok());
        layer.close().await.unwrap();
        // Discard removes the front file along with the cache file.
        assert!(!tb.nvmfs[0].exists(&front_path));
    });
}

#[test]
fn hybrid_overwrite_migrates_ownership_between_tiers() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/m", Striping::default()).await;
        let c = CacheConfig::new("/scratch", "m", 0, 0);
        let layer = CacheLayer::open_with_front(
            tb.localfs[0].clone(),
            Some(tb.nvmfs[0].clone()),
            global.clone(),
            c,
        )
        .await
        .unwrap();
        // Small write owns [0, 64K) on the front tier...
        layer.write(0, Payload::gen(1, 0, 64 << 10)).await.unwrap();
        assert_eq!(layer.front_bytes(), 64 << 10);
        // ...a large overwrite moves the range to the block tier
        // (the stale front copy is punched, not left to shadow it).
        layer.write(0, Payload::gen(2, 0, 2 << 20)).await.unwrap();
        assert_eq!(layer.front_bytes(), 0);
        assert_eq!(tb.nvmfs[0].statfs().1, 0);
        // ...and a later small overwrite claims its bytes back.
        layer.write(0, Payload::gen(3, 0, 4 << 10)).await.unwrap();
        assert_eq!(layer.front_bytes(), 4 << 10);
        layer.flush().await.unwrap();
        assert!(global.extents().verify_gen(3, 0, 4 << 10).is_ok());
        assert!(global
            .extents()
            .verify_gen(2, 4 << 10, (2 << 20) - (4 << 10))
            .is_ok());
        layer.close().await.unwrap();
    });
}

#[test]
fn hybrid_capacity_budget_overflows_to_block_tier() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/b", Striping::default()).await;
        let mut c = CacheConfig::new("/scratch", "b", 0, 0);
        c.nvm_capacity = 64 << 10;
        let layer = CacheLayer::open_with_front(
            tb.localfs[0].clone(),
            Some(tb.nvmfs[0].clone()),
            global.clone(),
            c,
        )
        .await
        .unwrap();
        layer.write(0, Payload::gen(9, 0, 48 << 10)).await.unwrap();
        assert_eq!(layer.front_bytes(), 48 << 10);
        // Only 16 KiB of budget remains: the next small write spills
        // to the SSD block tier instead of failing.
        layer
            .write(1 << 20, Payload::gen(9, 1 << 20, 48 << 10))
            .await
            .unwrap();
        assert_eq!(layer.front_bytes(), 48 << 10);
        assert!(layer.covers(1 << 20, 48 << 10));
        layer.flush().await.unwrap();
        assert!(global.extents().verify_gen(9, 0, 48 << 10).is_ok());
        assert!(global.extents().verify_gen(9, 1 << 20, 48 << 10).is_ok());
        layer.close().await.unwrap();
    });
}

#[test]
fn hybrid_recover_requeues_both_tiers() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/hr", Striping::default()).await;
        let mut c = CacheConfig::new("/scratch", "hr", 0, 0);
        c.journal = true;
        c.flush_flag = FlushFlag::FlushOnClose;
        let layer = CacheLayer::open_with_front(
            tb.localfs[0].clone(),
            Some(tb.nvmfs[0].clone()),
            global.clone(),
            c.clone(),
        )
        .await
        .unwrap();
        layer.write(0, Payload::gen(7, 0, 32 << 10)).await.unwrap();
        layer
            .write(4 << 20, Payload::gen(7, 4 << 20, 2 << 20))
            .await
            .unwrap();
        drop(layer);

        let (rec, report) = CacheLayer::recover_with_front(
            tb.localfs[0].clone(),
            Some(tb.nvmfs[0].clone()),
            global.clone(),
            c,
        )
        .await
        .unwrap();
        assert_eq!(report.records, 2);
        assert_eq!(report.requeued, vec![(0, 32 << 10), (4 << 20, 2 << 20)]);
        // The front map is rebuilt from the NVM file itself, so the
        // small extent flushes from the byte-granular tier.
        assert_eq!(rec.front_bytes(), 32 << 10);
        rec.flush().await.unwrap();
        assert!(global.extents().verify_gen(7, 0, 32 << 10).is_ok());
        assert!(global.extents().verify_gen(7, 4 << 20, 2 << 20).is_ok());
        rec.close().await.unwrap();
    });
}

fn failover_cfg(name: &str) -> CacheConfig {
    let mut c = CacheConfig::new("/scratch", name, 0, 0);
    c.integrity = true;
    c.journal = true;
    c.flush_flag = FlushFlag::FlushOnClose;
    c
}

fn fail_ssd_at(ms: u64) -> e10_faultsim::FaultGuard {
    e10_faultsim::FaultSchedule::install(e10_faultsim::FaultPlan::new(1).device_fail(
        0,
        e10_faultsim::DeviceClass::Ssd,
        e10_simcore::SimTime::ZERO + SimDuration::from_millis(ms),
    ))
}

#[test]
fn device_failure_drains_unsynced_to_global_and_retires() {
    run(async {
        let _g = fail_ssd_at(500);
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/df", Striping::default()).await;
        let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), failover_cfg("df"))
            .await
            .unwrap();
        layer.write(0, Payload::gen(31, 0, 1 << 20)).await.unwrap();
        layer
            .write(4 << 20, Payload::gen(31, 4 << 20, 1 << 20))
            .await
            .unwrap();
        assert_eq!(layer.health(), Health::Healthy);
        // The SSD goes dark with both extents acked but unsynced.
        e10_simcore::sleep(SimDuration::from_secs(1)).await;
        // Flush replays them straight from the resident mirror:
        // nothing is lost, so the flush itself succeeds.
        layer.flush().await.unwrap();
        assert_eq!(layer.health(), Health::Retired);
        assert!(layer.is_degraded());
        assert!(global.extents().verify_gen(31, 0, 1 << 20).is_ok());
        assert!(global.extents().verify_gen(31, 4 << 20, 1 << 20).is_ok());
        // The retired tier serves nothing and admits nothing.
        assert!(!layer.covers(0, 1));
        assert!(!layer.write(8 << 20, Payload::zero(4096)).await.unwrap());
        layer.close().await.unwrap();
    });
}

#[test]
fn device_failure_without_mirror_surfaces_sync_failed() {
    run(async {
        let _g = fail_ssd_at(500);
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/dl", Striping::default()).await;
        let mut c = CacheConfig::new("/scratch", "dl", 0, 0);
        c.flush_flag = FlushFlag::FlushOnClose; // staged, unsynced
        let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), c)
            .await
            .unwrap();
        layer.write(0, Payload::gen(32, 0, 1 << 20)).await.unwrap();
        e10_simcore::sleep(SimDuration::from_secs(1)).await;
        // No integrity mirror: the staged bytes are unrecoverable.
        // The flush must say so — a typed error, not a silent skip.
        match layer.flush().await {
            Err(Error::SyncFailed { failures }) => assert!(failures >= 1),
            other => panic!("expected SyncFailed, got {other:?}"),
        }
        assert_eq!(layer.health(), Health::Retired);
        assert!(!global.extents().covered(0, 1));
    });
}

#[test]
fn sync_thread_kill_drains_live_device_and_journals_retired() {
    run(async {
        let _g =
            e10_faultsim::FaultSchedule::install(e10_faultsim::FaultPlan::new(1).sync_thread_kill(
                0,
                e10_simcore::SimTime::ZERO + SimDuration::from_millis(500),
            ));
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/sk", Striping::default()).await;
        let mut c = CacheConfig::new("/scratch", "sk", 0, 0);
        c.journal = true;
        c.flush_flag = FlushFlag::FlushOnClose;
        let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), c.clone())
            .await
            .unwrap();
        layer.write(0, Payload::gen(33, 0, 1 << 20)).await.unwrap();
        e10_simcore::sleep(SimDuration::from_secs(1)).await;
        // The kill is noticed on the next write, which degrades to
        // write-through before accepting bytes it could never push.
        assert!(!layer.write(4 << 20, Payload::zero(4096)).await.unwrap());
        // The device itself is fine, so the drain reads the staged
        // extent back and pushes it: nothing is lost.
        layer.flush().await.unwrap();
        assert_eq!(layer.health(), Health::Retired);
        assert!(global.extents().verify_gen(33, 0, 1 << 20).is_ok());
        // The journal device is alive too: the Retired mark is
        // durable, so a later power-loss recovery re-queues nothing.
        drop(layer);
        let (rec, report) = CacheLayer::recover(tb.localfs[0].clone(), global.clone(), c)
            .await
            .unwrap();
        assert!(report.retired);
        assert!(report.requeued.is_empty());
        rec.close().await.unwrap();
    });
}

#[test]
fn hybrid_front_failure_spills_to_block_tier_and_stays_healthy() {
    run(async {
        let _g = e10_faultsim::FaultSchedule::install(e10_faultsim::FaultPlan::new(1).device_fail(
            0,
            e10_faultsim::DeviceClass::Nvm,
            e10_simcore::SimTime::ZERO + SimDuration::from_millis(500),
        ));
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/fs", Striping::default()).await;
        let mut c = CacheConfig::new("/scratch", "fs", 0, 0);
        c.integrity = true;
        let layer = CacheLayer::open_with_front(
            tb.localfs[0].clone(),
            Some(tb.nvmfs[0].clone()),
            global.clone(),
            c,
        )
        .await
        .unwrap();
        layer.write(0, Payload::gen(34, 0, 64 << 10)).await.unwrap();
        assert_eq!(layer.front_bytes(), 64 << 10);
        e10_simcore::sleep(SimDuration::from_secs(1)).await;
        // The next small write finds the NVM front dead, spills the
        // front-owned bytes to the SSD block tier from the mirror,
        // and stages there — the volume keeps caching.
        assert!(layer
            .write(1 << 20, Payload::gen(34, 1 << 20, 16 << 10))
            .await
            .unwrap());
        assert_eq!(layer.front_bytes(), 0);
        assert_eq!(layer.health(), Health::Healthy);
        assert!(!layer.is_degraded());
        assert!(layer.covers(0, 64 << 10));
        layer.flush().await.unwrap();
        assert!(global.extents().verify_gen(34, 0, 64 << 10).is_ok());
        assert!(global.extents().verify_gen(34, 1 << 20, 16 << 10).is_ok());
        layer.close().await.unwrap();
    });
}

/// Satellite property: **Draining never drops an acked-but-unsynced
/// byte.** Across seeded failure instants that land before, between
/// and after a stream of cached writes, the union of what the sync
/// path pushed and what the caller re-issued write-through equals
/// the full write history — verified byte-exactly in the global
/// file. The mirror (integrity mode) is what makes the staged
/// extents replayable once the device is gone.
#[test]
fn property_draining_never_drops_an_acked_unsynced_byte() {
    for seed in 0..8u64 {
        e10_simcore::run(async move {
            // Failure instants sweep the whole write window.
            let fail_ms = 1 + (seed * 41) % 260;
            let _g = fail_ssd_at(fail_ms);
            let tb = TestbedSpec::small(2, 1).build();
            let global = tb.pfs.create(0, "/gfs/pd", Striping::default()).await;
            let mut c = failover_cfg("pd");
            c.flush_flag = FlushFlag::FlushImmediate;
            let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), c)
                .await
                .unwrap();
            let mut extents = Vec::new();
            for i in 0..12u64 {
                let off = i * (1 << 20);
                let len = (32 << 10) + (((seed + i) % 4) << 16);
                extents.push((off, len));
                let cached = layer.write(off, Payload::gen(35, off, len)).await.unwrap();
                if !cached {
                    // What AdioFile does on a degraded cache: the
                    // acked byte goes straight to the global file.
                    global
                        .write(0, off, Payload::gen(35, off, len))
                        .await
                        .unwrap();
                }
                e10_simcore::sleep(SimDuration::from_millis(17 + seed)).await;
            }
            // Every queued extent is mirror-covered, so the drain
            // loses nothing and the flush reports clean.
            layer.flush().await.unwrap();
            layer.close().await.unwrap();
            assert_ne!(layer.health(), Health::Draining, "seed {seed}: drain stuck");
            for (off, len) in extents {
                global
                    .extents()
                    .verify_gen(35, off, len)
                    .unwrap_or_else(|e| {
                        panic!("seed {seed} fail_ms {fail_ms}: lost acked bytes: {e:?}")
                    });
            }
        });
    }
}

#[test]
fn zero_threshold_disables_front_on_byte_granular_mount() {
    run(async {
        let tb = TestbedSpec::small(2, 1).build();
        let global = tb.pfs.create(0, "/gfs/z", Striping::default()).await;
        let mut c = CacheConfig::new("/pmem", "z", 0, 0);
        c.nvm_threshold = 0;
        let layer = CacheLayer::open(tb.nvmfs[0].clone(), global.clone(), c)
            .await
            .unwrap();
        // With the front disabled the nvm class runs the exact SSD
        // code path (the determinism anchor depends on this).
        assert!(!layer.front_active());
        layer.write(0, Payload::gen(2, 0, 64 << 10)).await.unwrap();
        assert_eq!(layer.front_bytes(), 0);
        layer.flush().await.unwrap();
        assert!(global.extents().verify_gen(2, 0, 64 << 10).is_ok());
        layer.close().await.unwrap();
    });
}
