//! localfs: the node-local file systems the cache stages into — the
//! SSD `/scratch` mount through the page cache and the NVM mount
//! through its byte-granular direct path.

use e10_localfs::{LocalFs, LocalFsParams};
use e10_simcore::{SimDuration, SimRng};
use e10_storesim::{
    DeviceModel, Nvm, NvmParams, PageCache, PageCacheParams, Payload, Ssd, SsdParams,
};

use super::{sim_cost, Cost, Meter};

const MB4: u64 = 4 << 20;
const KB128: u64 = 128 << 10;

fn page_cache() -> PageCache {
    PageCache::new(PageCacheParams::deep_er_node(
        SsdParams::sata_scratch().write_bw,
    ))
}

fn scratch() -> LocalFs {
    let ssd = Ssd::new(SsdParams::sata_scratch(), SimRng::stream(2016, 100_000));
    LocalFs::new(LocalFsParams::scratch_30g(), ssd, page_cache())
}

fn pmem() -> LocalFs {
    let nvm = Nvm::new(NvmParams::optane_scratch(), SimRng::stream(2016, 130_000));
    let params = LocalFsParams {
        capacity: 2 << 30,
        supports_fallocate: true,
        meta_op: SimDuration::from_micros(3),
    };
    LocalFs::with_device(params, DeviceModel::Nvm(nvm), page_cache())
}

pub fn all() -> Vec<(&'static str, Cost)> {
    vec![
        // A 4 MB collective buffer staged into the cache file.
        sim_cost("localfs.write_ns", 6_000, |ops| async move {
            let fs = scratch();
            let f = fs.create("/scratch/w").await.expect("create");
            let m = Meter::start();
            for i in 0..ops {
                f.write(i * MB4, Payload::gen(1, i * MB4, MB4))
                    .await
                    .expect("write");
            }
            m.stop()
        }),
        // A 128 KB piece into the hybrid front file.
        sim_cost("localfs.write_direct_ns", 10_000, |ops| async move {
            let fs = pmem();
            let f = fs.create("/pmem/w").await.expect("create");
            let m = Meter::start();
            for i in 0..ops {
                f.write_direct(i * KB128, Payload::gen(1, i * KB128, KB128))
                    .await
                    .expect("write_direct");
            }
            m.stop()
        }),
        // The sync thread (and a cached collective read) reading back.
        sim_cost("localfs.read_ns", 6_000, |ops| async move {
            let fs = scratch();
            let f = fs.create("/scratch/r").await.expect("create");
            for i in 0..ops {
                f.write(i * MB4, Payload::gen(1, i * MB4, MB4))
                    .await
                    .expect("write");
            }
            let mut out = Vec::new();
            let m = Meter::start();
            for i in 0..ops {
                out.clear();
                f.read_into(i * MB4, MB4, &mut out).await.expect("read");
            }
            m.stop()
        }),
        sim_cost("localfs.fallocate_ns", 6_000, |ops| async move {
            let fs = scratch();
            let f = fs.create("/scratch/a").await.expect("create");
            let m = Meter::start();
            for i in 0..ops {
                f.fallocate(i * MB4, MB4).await.expect("fallocate");
            }
            m.stop()
        }),
        sim_cost("localfs.create_unlink_ns", 20_000, |ops| async move {
            let fs = scratch();
            let m = Meter::start();
            for _ in 0..ops {
                fs.create("/scratch/c").await.expect("create");
                fs.unlink("/scratch/c").await.expect("unlink");
            }
            m.stop()
        }),
    ]
}
