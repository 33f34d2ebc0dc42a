//! Exact pin of watermark-pressure eviction with the crash journal and
//! write-time integrity on: two managed tenants share one node's cache
//! volume, the second one's write trips the high watermark, and the
//! arbiter punches the first one's synced extents and prunes its
//! resident mirror; the journal records no eviction. Pinned: every
//! counter of the run's metrics, both tenants' staged bytes, the
//! evicted tenant's journal image (its records, length and FNV-1a
//! digest), a scrub after the eviction that finds nothing to repair,
//! and the virtual end time by its bits. A refactor of the arbiter or
//! the cache volume must leave every value below bit-identical.

use std::rc::Rc;

use e10_pfs::Striping;
use e10_romio::{CacheArbiter, CacheConfig, CacheLayer, TestbedSpec};
use e10_simcore::trace::{install_metrics, MetricsRegistry};
use e10_simcore::{run, sleep, SimDuration};
use e10_storesim::Payload;

const KIB: u64 = 1 << 10;

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn managed(name: &str) -> CacheConfig {
    let mut c = CacheConfig::new("/scratch", name, 0, 0);
    c.hiwater = 80;
    c.lowater = 70;
    c.journal = true;
    c.integrity = true;
    c.scrub_ms = 1;
    c
}

fn pressure_eviction_lines() -> Vec<String> {
    run(async {
        let mut spec = TestbedSpec::small(2, 1);
        spec.localfs.capacity = 1 << 20;
        let tb = spec.build();
        let fs = tb.localfs[0].clone();
        let metrics = Rc::new(MetricsRegistry::new());
        let _guard = install_metrics(Rc::clone(&metrics));

        let ga = tb.pfs.create(0, "/gfs/pina", Striping::default()).await;
        let gb = tb.pfs.create(0, "/gfs/pinb", Striping::default()).await;
        let la = CacheLayer::open(fs.clone(), ga.clone(), managed("pina"))
            .await
            .unwrap();
        let lb = CacheLayer::open(fs.clone(), gb.clone(), managed("pinb"))
            .await
            .unwrap();
        // Tenant a stages three 100 KiB extents, syncing each before
        // the next write: all three stay resident as eviction
        // candidates.
        for i in 0..3 {
            let off = i * 100 * KIB;
            assert!(la
                .write(off, Payload::gen(1, off, 100 * KIB))
                .await
                .unwrap());
            la.flush().await.unwrap();
        }
        // 200 KiB of non-tenant data, then tenant b's 350 KiB write
        // crosses the high watermark (838 860 B): the arbiter evicts
        // a's two oldest extents, which drains below the low
        // watermark (734 003 B), and admits the write.
        let junk = fs.create("/scratch/other.dat").await.unwrap();
        junk.fallocate(0, 200 * KIB).await.unwrap();
        assert!(lb.write(0, Payload::gen(2, 0, 350 * KIB)).await.unwrap());
        lb.flush().await.unwrap();
        // A scrub runs ahead of a's next sync: the mirror no longer
        // holds the punched ranges, so it has nothing to repair.
        sleep(SimDuration::from_millis(2)).await;
        let off = 400 * KIB;
        assert!(la.write(off, Payload::gen(1, off, 4 * KIB)).await.unwrap());
        la.flush().await.unwrap();
        assert_eq!(la.integrity_mismatches(), 0);
        assert_eq!(la.integrity_repairs(), 0);

        let journal = fs.open(la.journal_file_path()).await.unwrap();
        let image = journal.read_log().await;
        let replay = e10_romio::journal::replay(&image);
        assert!(!replay.torn);
        let staged = [la.tenant_staged(), lb.tenant_staged()];
        la.close().await.unwrap();
        lb.close().await.unwrap();
        assert!(ga.extents().verify_gen(1, 0, 300 * KIB).is_ok());
        assert!(gb.extents().verify_gen(2, 0, 350 * KIB).is_ok());

        let end = e10_simcore::now().as_secs_f64();
        let (admitted, refused, evicted, degrades) = CacheArbiter::of(&fs).stats();
        let mut lines = vec![
            format!("end_bits={:#x}", end.to_bits()),
            format!("used={}", fs.statfs().1),
            format!("staged a={} b={}", staged[0], staged[1]),
            format!("journal len={} fnv={:#x}", image.len(), fnv1a(&image)),
            format!("arbiter admitted={admitted} refused={refused} evicted={evicted} degrades={degrades}"),
        ];
        let snap = metrics.snapshot();
        lines.extend(replay.records.iter().map(|r| format!("{r:?}")));
        lines.extend(snap.counters.iter().map(|(k, v)| format!("{k}={v}")));
        lines
    })
}

#[test]
fn pressure_eviction_with_journal_and_integrity_is_pinned() {
    let want = [
        "end_bits=0x3fa35b3e7b4c0cda",
        "used=670176",
        "staged a=106496 b=358400",
        "journal len=384 fnv=0x29a5fccd30ade5ed",
        "arbiter admitted=669696 refused=0 evicted=204800 degrades=0",
        "Add { offset: 0, len: 102400 }",
        "Cksum { offset: 0, digest: 4295592764155324831 }",
        "Synced { offset: 0, len: 102400 }",
        "Add { offset: 102400, len: 102400 }",
        "Cksum { offset: 102400, digest: 16245322006733580317 }",
        "Synced { offset: 102400, len: 102400 }",
        "Add { offset: 204800, len: 102400 }",
        "Cksum { offset: 204800, digest: 2252740035760438974 }",
        "Synced { offset: 204800, len: 102400 }",
        "Add { offset: 409600, len: 4096 }",
        "Cksum { offset: 409600, digest: 6113400091608804710 }",
        "Synced { offset: 409600, len: 4096 }",
        "cache.admit=669696",
        "cache.bytes_cached=669696",
        "cache.bytes_synced=669696",
        "cache.evict_pressure=204800",
        "cache.write_bytes=669696",
        "cache.write_stall_ns=433345",
        "executor.polls=147",
        "flush.fair_share=669696",
        "integrity.scrubbed_bytes=976896",
        "netsim.bytes=671424",
        "netsim.messages=14",
        "pfs.write_bytes=669696",
        "pfs.write_chunks=5",
    ];
    assert_eq!(pressure_eviction_lines(), want);
}
