//! romio (+ the workload kernels it is fed): hint parsing, file-domain
//! partitioning, testbed assembly, collective open/close and the cache
//! layer's write, flush and recovery paths.

use std::hint::black_box;

use e10_mpisim::Info;
use e10_pfs::Striping;
use e10_romio::{
    AdioFile, CacheConfig, CacheLayer, FdStrategy, FileDomains, FlushFlag, RomioHints, Testbed,
    TestbedSpec,
};
use e10_storesim::Payload;

use super::{pure_cost, sim_cost, Cost, Meter};
use crate::workloads::Inputs;

const MB4: u64 = 4 << 20;
const KB128: u64 = 128 << 10;

/// A two-node corner of the paper testbed: enough for one aggregator's
/// cache layer and its PFS handle.
fn small_testbed() -> Testbed {
    let mut spec = TestbedSpec::deep_er();
    spec.procs = 2;
    spec.nodes = 2;
    spec.build()
}

fn cache_config(name: &str) -> CacheConfig {
    let mut c = CacheConfig::new("/scratch", name, 0, 0);
    c.flush_flag = FlushFlag::FlushOnClose;
    c
}

pub fn all(inp: &Inputs) -> Vec<(&'static str, Cost)> {
    let hints: Info = inp.cfg.hints.dup();
    let spec = inp.spec.clone();
    let open_spec = inp.spec.clone();
    let open_hints = inp.cfg.hints.dup();
    let kernel = std::rc::Rc::clone(&inp.kernel);
    vec![
        // This workload's hint set through the typed parser and back.
        pure_cost("romio.hints_parse_ns", 2_000, move |ops| {
            let m = Meter::start();
            for _ in 0..ops {
                let h = RomioHints::from_info(&hints).expect("benchmark hints are valid");
                black_box(h.to_info().len());
            }
            m.stop()
        }),
        // 32 GB over 64 aggregators, stripe-aligned.
        pure_cost("romio.fd_partition_ns", 100_000, |ops| {
            let m = Meter::start();
            for i in 0..ops {
                let fds = FileDomains::compute(
                    black_box(i),
                    32 << 30,
                    64,
                    FdStrategy::StripeAligned,
                    MB4,
                );
                black_box(fds.max_size());
            }
            m.stop()
        }),
        // This workload's cluster: fabric, servers, per-node mounts.
        sim_cost("romio.testbed_build_ns", 1, move |ops| {
            let spec = spec.clone();
            async move {
                let m = Meter::start();
                if ops > 0 {
                    black_box(spec.build().localfs.len());
                }
                m.stop()
            }
        }),
        // Collective open + close on this workload's ranks and hints
        // (cache file, journal and sync thread included when asked for).
        sim_cost("romio.open_close_ns", 1, move |ops| {
            let spec = open_spec.clone();
            let hints = open_hints.dup();
            async move {
                let tb = spec.build();
                let m = Meter::start();
                if ops > 0 {
                    tb.world
                        .run_ranks(|comm| {
                            let ctx = tb.ctx(comm.rank());
                            let hints = hints.clone();
                            async move {
                                let f = AdioFile::open(&ctx, "/gfs/oc", &hints, true)
                                    .await
                                    .expect("collective open failed");
                                f.close().await;
                            }
                        })
                        .await;
                }
                m.stop()
            }
        }),
        // One aggregator staging 4 MB collective buffers on the SSD tier.
        sim_cost("romio.cache_write_block_ns", 6_000, |ops| async move {
            let tb = small_testbed();
            let global = tb.pfs.create(0, "/gfs/cb", Striping::default()).await;
            let layer = CacheLayer::open(tb.localfs[0].clone(), global, cache_config("cb"))
                .await
                .expect("cache open");
            let m = Meter::start();
            for i in 0..ops {
                layer
                    .write(i * MB4, Payload::gen(1, i * MB4, MB4))
                    .await
                    .expect("cache write");
            }
            m.stop()
        }),
        // The same through the hybrid class's byte-granular NVM front.
        sim_cost("romio.cache_write_front_ns", 12_000, |ops| async move {
            let tb = small_testbed();
            let global = tb.pfs.create(0, "/gfs/cf", Striping::default()).await;
            let mut cfg = cache_config("cf");
            cfg.nvm_threshold = KB128;
            let layer = CacheLayer::open_with_front(
                tb.localfs[0].clone(),
                Some(tb.nvmfs[0].clone()),
                global,
                cfg,
            )
            .await
            .expect("cache open");
            let m = Meter::start();
            for i in 0..ops {
                layer
                    .write(i * KB128, Payload::gen(1, i * KB128, KB128))
                    .await
                    .expect("cache write");
            }
            m.stop()
        }),
        // Flush of staged 4 MB extents to the PFS; one operation = 1 MB.
        sim_cost("romio.cache_flush_ns_per_mb", 4 * 500, |ops| async move {
            let tb = small_testbed();
            let global = tb.pfs.create(0, "/gfs/fl", Striping::default()).await;
            let layer = CacheLayer::open(tb.localfs[0].clone(), global, cache_config("fl"))
                .await
                .expect("cache open");
            for i in 0..ops / 4 {
                layer
                    .write(i * MB4, Payload::gen(1, i * MB4, MB4))
                    .await
                    .expect("cache write");
            }
            let m = Meter::start();
            layer.flush().await.expect("flush");
            m.stop()
        }),
        // Crash recovery over a 10 000-record journal.
        sim_cost("romio.journal_recover_ns", 1, |ops| async move {
            let tb = small_testbed();
            let global = tb.pfs.create(0, "/gfs/jr", Striping::default()).await;
            let mut cfg = cache_config("jr");
            cfg.journal = true;
            let layer = CacheLayer::open(tb.localfs[0].clone(), global.clone(), cfg.clone())
                .await
                .expect("cache open");
            for i in 0..10_000u64 {
                layer
                    .write(i * 2 * KB128, Payload::gen(1, i * 2 * KB128, KB128))
                    .await
                    .expect("cache write");
            }
            drop(layer); // the crash: no flush, no close
            let m = Meter::start();
            if ops > 0 {
                let (_rec, report) = CacheLayer::recover(tb.localfs[0].clone(), global, cfg)
                    .await
                    .expect("recover");
                assert_eq!(report.records, 10_000);
            }
            m.stop()
        }),
        // This workload's kernel: `Workload::writes` for every rank.
        pure_cost("workloads.views_ns", 1, move |ops| {
            let m = Meter::start();
            for _ in 0..ops {
                for r in 0..kernel.procs() {
                    black_box(kernel.writes(r).len());
                }
            }
            m.stop()
        }),
    ]
}
