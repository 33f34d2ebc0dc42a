//! storesim: device models and the extent map, at the sizes the
//! workloads use (4 MB collective buffers and stripes, 128 KB NVM
//! front pieces).

use std::hint::black_box;

use e10_simcore::SimRng;
use e10_storesim::{
    Disk, DiskParams, ExtentMap, Nvm, NvmParams, PageCache, PageCacheParams, Raid, RaidParams,
    Source, Ssd, SsdParams,
};

use super::{pure_cost, sim_cost, Cost, Meter};

const MB4: u64 = 4 << 20;
const KB128: u64 = 128 << 10;

fn ssd() -> Ssd {
    Ssd::new(SsdParams::sata_scratch(), SimRng::stream(2016, 100_000))
}

fn nvm() -> Nvm {
    Nvm::new(NvmParams::optane_scratch(), SimRng::stream(2016, 130_000))
}

/// A map of 10 000 strided 64-byte extents (nothing merges).
fn strided_map() -> ExtentMap {
    let mut m = ExtentMap::new();
    for i in 0..10_000u64 {
        m.insert(i * 128, 64, Source::gen_at(1, i * 128));
    }
    m
}

pub fn all() -> Vec<(&'static str, Cost)> {
    vec![
        sim_cost("storesim.ssd_write_ns", 50_000, |ops| async move {
            let dev = ssd();
            let m = Meter::start();
            for _ in 0..ops {
                dev.write(MB4).await;
            }
            m.stop()
        }),
        sim_cost("storesim.ssd_read_ns", 50_000, |ops| async move {
            let dev = ssd();
            let m = Meter::start();
            for _ in 0..ops {
                dev.read(MB4).await;
            }
            m.stop()
        }),
        sim_cost("storesim.nvm_write_ns", 50_000, |ops| async move {
            let dev = nvm();
            let m = Meter::start();
            for _ in 0..ops {
                dev.write(KB128).await;
            }
            m.stop()
        }),
        sim_cost("storesim.nvm_read_ns", 50_000, |ops| async move {
            let dev = nvm();
            let m = Meter::start();
            for _ in 0..ops {
                dev.read(KB128).await;
            }
            m.stop()
        }),
        sim_cost("storesim.pagecache_write_ns", 50_000, |ops| async move {
            let pc = PageCache::new(PageCacheParams::deep_er_node(
                SsdParams::sata_scratch().write_bw,
            ));
            let m = Meter::start();
            for _ in 0..ops {
                pc.write(MB4).await;
            }
            m.stop()
        }),
        // One 4 MB stripe onto an 8+2 RAID6 of nearline SAS disks.
        sim_cost("storesim.raid_write_ns", 2_000, |ops| async move {
            let disks = (0..10)
                .map(|i| Disk::new(DiskParams::nearline_sas(), SimRng::stream(2016, 200 + i)))
                .collect();
            let raid = Raid::new(RaidParams::raid6(), disks);
            let m = Meter::start();
            for i in 0..ops {
                raid.write(i * MB4, MB4).await;
            }
            m.stop()
        }),
        // Half the inserts continue the previous extent (a sequential
        // aggregator), half open a new one (a strided rank).
        pure_cost("storesim.extent_insert_ns", 200_000, |ops| {
            let mut map = ExtentMap::new();
            let m = Meter::start();
            for i in 0..ops / 2 {
                map.insert(i * 64, 64, Source::gen_at(1, i * 64));
                map.insert(
                    (1 << 40) + i * 128,
                    64,
                    Source::gen_at(1, (1 << 40) + i * 128),
                );
            }
            black_box(map.extent_count());
            m.stop()
        }),
        pure_cost("storesim.extent_lookup_ns", 50_000, |ops| {
            let map = strided_map();
            let mut out = Vec::new();
            let m = Meter::start();
            for i in 0..ops {
                out.clear();
                map.lookup_into((i * 7919) % 1_270_000, 1024, &mut out);
                black_box(out.len());
            }
            m.stop()
        }),
    ]
}
