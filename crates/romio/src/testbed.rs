//! Cluster assembly: compute nodes (with local SSD + page cache +
//! `/scratch`), the global parallel file system, and the fabric.
//!
//! [`TestbedSpec::deep_er`] is the calibrated reproduction of the
//! DEEP-ER evaluation platform (§IV-A): 512 ranks on 64 dual-socket
//! nodes (8 ranks/node), 32 GB RAM and an 80 GB SATA SSD per node with
//! a 30 GB `/scratch` partition, BeeGFS with 1 MDS + 4 data targets
//! (8+2 RAID6 of nearline SAS), InfiniBand QDR.

use std::cell::Cell;
use std::rc::Rc;

use e10_localfs::{LocalFs, LocalFsParams};
use e10_mpisim::{CollBackend, Comm, World, WorldSpec};
use e10_netsim::NetConfig;
use e10_pfs::{Pfs, PfsParams};
use e10_simcore::SimRng;
use e10_storesim::{DeviceModel, Nvm, NvmParams, PageCache, PageCacheParams, Ssd, SsdParams};

use crate::collective::RoundScratch;
use crate::hints::CacheClass;

/// Everything an ADIO file operation needs from the environment, bound
/// to one rank.
#[derive(Clone)]
pub struct IoCtx {
    /// This rank's communicator.
    pub comm: Comm,
    /// The global parallel file system.
    pub pfs: Rc<Pfs>,
    /// Node-local file systems (SSD `/scratch`), indexed by compute node.
    pub localfs: Rc<Vec<LocalFs>>,
    /// Node-local NVM mounts (`/pmem`), indexed by compute node. Used
    /// only when `e10_cache_class` selects the nvm or hybrid tier.
    pub nvmfs: Rc<Vec<LocalFs>>,
    /// The rank's collective round scratch between its collectives, on
    /// one file and across the files it opens: taken by a collective,
    /// put back when it ends, so the rank's next file starts at the
    /// high-water mark its earlier ones reached.
    pub(crate) scratch: Rc<Cell<RoundScratch>>,
}

impl IoCtx {
    /// The context of the rank `comm` binds, with an empty round
    /// scratch.
    pub fn new(
        comm: Comm,
        pfs: Rc<Pfs>,
        localfs: Rc<Vec<LocalFs>>,
        nvmfs: Rc<Vec<LocalFs>>,
    ) -> IoCtx {
        IoCtx {
            comm,
            pfs,
            localfs,
            nvmfs,
            scratch: Rc::default(),
        }
    }

    /// The rank's round scratch, emptied, for a collective to work in
    /// and hand back ([`IoCtx::put_scratch`]). An attempt that ends
    /// early may drop it; the rank's next collective then starts cold.
    pub(crate) fn take_scratch(&self) -> RoundScratch {
        let mut s = self.scratch.take();
        s.clear();
        s
    }

    /// Keep `s` for the rank's next collective, on this file or the
    /// next.
    pub(crate) fn put_scratch(&self, s: RoundScratch) {
        self.scratch.set(s);
    }

    /// The local file system of this rank's node.
    pub fn my_localfs(&self) -> &LocalFs {
        &self.localfs[self.comm.node()]
    }

    /// The mounts of this rank's node that `e10_cache_class` stages
    /// on, in the shape `CacheLayer::open_with_front` and
    /// `recover_with_front` take them: the store of the cache file —
    /// the block SSD mount (`ssd`, `hybrid`) or the byte-granular NVM
    /// mount (`nvm`) — and, for `hybrid`, the NVM mount as a distinct
    /// front store.
    pub fn cache_mounts(&self, class: CacheClass) -> (LocalFs, Option<LocalFs>) {
        let ssd = self.my_localfs();
        let nvm = &self.nvmfs[self.comm.node()];
        match class {
            CacheClass::Ssd => (ssd.clone(), None),
            CacheClass::Nvm => (nvm.clone(), None),
            CacheClass::Hybrid => (ssd.clone(), Some(nvm.clone())),
        }
    }
}

/// Parameters for building a full testbed.
#[derive(Debug, Clone)]
pub struct TestbedSpec {
    /// MPI processes.
    pub procs: usize,
    /// Compute nodes.
    pub nodes: usize,
    /// Collective backend.
    pub backend: CollBackend,
    /// Master seed for all jitter streams.
    pub seed: u64,
    /// Global file-system parameters.
    pub pfs: PfsParams,
    /// Node SSD parameters.
    pub ssd: SsdParams,
    /// Node `/scratch` parameters.
    pub localfs: LocalFsParams,
    /// Node NVM device parameters (`e10_cache_class = nvm | hybrid`).
    pub nvm: NvmParams,
    /// Node `/pmem` mount parameters. Persistent-memory modules are an
    /// order of magnitude smaller than the SSD partition: the default
    /// is 2 GiB per node, which is the capacity pressure that makes the
    /// hybrid tier's overflow-to-SSD routing matter.
    pub nvm_localfs: LocalFsParams,
    /// Base of the per-node NVM jitter RNG streams (`seed`-relative).
    /// The determinism anchor test sets this to the SSD's base
    /// (100 000) so an NVM device with SSD-equal parameters draws the
    /// identical jitter sequence and the simulations are bit-identical.
    pub nvm_stream_base: u64,
    /// Node page-cache parameters.
    pub pagecache: PageCacheParams,
    /// Fabric override (None → IB QDR).
    pub net_cfg: Option<NetConfig>,
    /// Stage the cache in RAM instead of the SSD (the Active-Buffering
    /// / RFS baseline of the paper's §V): `Some(bytes)` gives each node
    /// that much memory-speed staging space — fast, but far smaller
    /// than the `/scratch` SSD partition.
    pub ram_scratch: Option<u64>,
}

impl TestbedSpec {
    /// The paper's evaluation platform at full scale.
    pub fn deep_er() -> Self {
        let ssd = SsdParams::sata_scratch();
        let pagecache = PageCacheParams::deep_er_node(ssd.write_bw);
        TestbedSpec {
            procs: 512,
            nodes: 64,
            backend: CollBackend::Analytic,
            seed: 2016,
            pfs: PfsParams::deep_er(),
            ssd,
            localfs: LocalFsParams::scratch_30g(),
            nvm: NvmParams::optane_scratch(),
            nvm_localfs: LocalFsParams {
                capacity: 2 << 30,
                supports_fallocate: true,
                // DAX-style mount: metadata updates do not queue behind
                // a block layer.
                meta_op: e10_simcore::SimDuration::from_micros(3),
            },
            nvm_stream_base: 130_000,
            pagecache,
            net_cfg: None,
            ram_scratch: None,
        }
    }

    /// A reduced testbed for unit/integration tests: same topology
    /// style, algorithmic collectives, fast devices, small `/scratch`.
    pub fn small(procs: usize, nodes: usize) -> Self {
        let mut s = Self::deep_er();
        s.procs = procs;
        s.nodes = nodes;
        s.backend = CollBackend::Algorithmic;
        s.seed = 7;
        s.pfs.disk.jitter_cv = 0.0;
        s.pfs.server_jitter_cv = 0.0;
        s
    }

    /// Build the fabric, servers and per-node storage. Must run inside
    /// `e10_simcore::run`.
    pub fn build(&self) -> Testbed {
        let mut wspec = WorldSpec::new(self.procs, self.nodes);
        wspec.backend = self.backend;
        wspec.extra_nodes = 1 + self.pfs.data_targets; // MDS + targets
        wspec.net_cfg = self.net_cfg.clone();
        let world = World::build(&wspec);
        let mds_node = world.server_node(0);
        let target_nodes = (0..self.pfs.data_targets)
            .map(|i| world.server_node(1 + i))
            .collect();
        let pfs = Pfs::new(
            self.pfs.clone(),
            Rc::clone(&world.net),
            mds_node,
            target_nodes,
            self.seed,
        );
        let localfs: Vec<LocalFs> = (0..self.nodes)
            .map(|n| {
                if let Some(ram) = self.ram_scratch {
                    // Memory staging: device and writeback at memory
                    // speed, but only `ram` bytes per node.
                    let ssd = Ssd::new(
                        SsdParams {
                            read_bw: self.pagecache.mem_bw,
                            write_bw: self.pagecache.mem_bw,
                            read_latency: e10_simcore::SimDuration::from_nanos(500),
                            write_latency: e10_simcore::SimDuration::from_nanos(500),
                            jitter_cv: 0.0,
                        },
                        SimRng::stream(self.seed, 100_000 + n as u64),
                    );
                    ssd.set_node(n);
                    let pc = PageCache::new(PageCacheParams {
                        mem_bw: self.pagecache.mem_bw,
                        dirty_limit: ram,
                        capacity: ram,
                        drain_bw: self.pagecache.mem_bw,
                    });
                    let mut lp = self.localfs.clone();
                    lp.capacity = ram;
                    return LocalFs::new(lp, ssd, pc);
                }
                let ssd = Ssd::new(
                    self.ssd.clone(),
                    SimRng::stream(self.seed, 100_000 + n as u64),
                );
                ssd.set_node(n);
                let pc = PageCache::new(self.pagecache.clone());
                LocalFs::new(self.localfs.clone(), ssd, pc)
            })
            .collect();
        // The NVM mounts exist on every node but draw from their RNG
        // streams only when commands are issued, so runs that never
        // select the nvm/hybrid cache class are bit-identical to builds
        // without them.
        let nvmfs: Vec<LocalFs> = (0..self.nodes)
            .map(|n| {
                let nvm = Nvm::new(
                    self.nvm.clone(),
                    SimRng::stream(self.seed, self.nvm_stream_base + n as u64),
                );
                nvm.set_node(n);
                let pc = PageCache::new(self.pagecache.clone());
                LocalFs::with_device(self.nvm_localfs.clone(), DeviceModel::Nvm(nvm), pc)
            })
            .collect();
        Testbed {
            world,
            pfs,
            localfs: Rc::new(localfs),
            nvmfs: Rc::new(nvmfs),
        }
    }
}

/// A built cluster.
pub struct Testbed {
    /// The MPI world (fabric + communicators).
    pub world: World,
    /// The global file system.
    pub pfs: Rc<Pfs>,
    /// Per-compute-node local file systems.
    pub localfs: Rc<Vec<LocalFs>>,
    /// Per-compute-node NVM mounts.
    pub nvmfs: Rc<Vec<LocalFs>>,
}

impl Testbed {
    /// The I/O context of `rank`.
    pub fn ctx(&self, rank: usize) -> IoCtx {
        IoCtx::new(
            self.world.comms[rank].clone(),
            Rc::clone(&self.pfs),
            Rc::clone(&self.localfs),
            Rc::clone(&self.nvmfs),
        )
    }

    /// All per-rank contexts.
    pub fn ctxs(&self) -> Vec<IoCtx> {
        (0..self.world.comms.len()).map(|r| self.ctx(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e10_simcore::run;

    #[test]
    fn deep_er_spec_matches_paper() {
        let s = TestbedSpec::deep_er();
        assert_eq!(s.procs, 512);
        assert_eq!(s.nodes, 64);
        assert_eq!(s.procs / s.nodes, 8);
        assert_eq!(s.pfs.data_targets, 4);
        assert_eq!(s.pfs.default_stripe_unit, 4 << 20);
        assert_eq!(s.localfs.capacity, 30 << 30);
    }

    #[test]
    fn build_wires_servers_after_compute_nodes() {
        run(async {
            let tb = TestbedSpec::small(8, 4).build();
            // 4 compute + 1 MDS + 4 targets.
            assert_eq!(tb.world.net.nodes(), 9);
            assert_eq!(tb.localfs.len(), 4);
            let ctx = tb.ctx(5);
            assert_eq!(ctx.comm.rank(), 5);
            assert_eq!(ctx.comm.node(), 2);
            let (cap, used) = ctx.my_localfs().statfs();
            assert!(cap > 0);
            assert_eq!(used, 0);
        });
    }

    #[test]
    fn each_node_gets_its_own_scratch() {
        run(async {
            let tb = TestbedSpec::small(4, 2).build();
            let f = tb.localfs[0].create("/scratch/x").await.unwrap();
            f.write(0, e10_storesim::Payload::zero(100)).await.unwrap();
            assert_eq!(tb.localfs[0].statfs().1, 100);
            assert_eq!(tb.localfs[1].statfs().1, 0);
        });
    }
}
