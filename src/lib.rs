//! # e10-repro
//!
//! A from-scratch Rust reproduction of
//!
//! > G. Congiu, S. Narasimhamurthy, T. Süß, A. Brinkmann,
//! > *Improving Collective I/O Performance Using Non-Volatile Memory
//! > Devices*, IEEE CLUSTER 2016.
//!
//! The paper integrates node-local SSDs into ROMIO as a persistent
//! cache for collective writes, steered by a set of new MPI-IO hints
//! (`e10_cache`, `e10_cache_path`, `e10_cache_flush_flag`,
//! `e10_cache_discard_flag`, `ind_wr_buffer_size`), with a background
//! sync thread flushing cached extents to the parallel file system
//! while the application computes.
//!
//! This crate is the facade over the workspace:
//!
//! * [`simcore`] — deterministic async discrete-event kernel,
//! * [`netsim`] — InfiniBand-like fabric,
//! * [`storesim`] — disks, RAID, SSDs, page caches, verifiable
//!   synthetic data,
//! * [`localfs`] — the node-local `/scratch` file system,
//! * [`pfs`] — a BeeGFS-like striped parallel file system,
//! * [`mpisim`] — simulated MPI (p2p, collectives, datatypes, Info,
//!   generalized requests),
//! * [`romio`] — **the core**: the ADIO layer, the extended two-phase
//!   collective write and the E10 cache layer,
//! * [`mpiwrap`] — the PMPI wrapper retrofitting the Fig. 3 workflow,
//! * [`workloads`] — coll_perf, Flash-IO and IOR plus the multi-file
//!   driver and Eq. 2 bandwidth accounting.
//!
//! ## Quickstart
//!
//! ```
//! use std::rc::Rc;
//! use e10_repro::prelude::*;
//!
//! // An 8-rank cluster, a strided collective write through the E10
//! // cache, and byte-level verification of the global file.
//! e10_simcore::run(async {
//!     let tb = TestbedSpec::small(8, 4).build();
//!     let hints = Info::from_pairs([
//!         ("romio_cb_write", "enable"),
//!         ("cb_buffer_size", "65536"),
//!         ("striping_unit", "65536"),
//!         ("e10_cache", "enable"),
//!     ]);
//!     let handles: Vec<_> = tb
//!         .ctxs()
//!         .into_iter()
//!         .map(|ctx| {
//!             let hints = hints.clone();
//!             e10_simcore::spawn(async move {
//!                 let f = AdioFile::open(&ctx, "/gfs/demo", &hints, true)
//!                     .await
//!                     .unwrap();
//!                 // Rank r writes blocks r, r+8, r+16, ... of 4 KiB.
//!                 let blocks: Vec<(u64, u64)> = (0..16)
//!                     .map(|i| ((i * 8 + ctx.comm.rank() as u64) * 4096, 4096))
//!                     .collect();
//!                 let view = FileView::new(&FlatType::indexed(blocks), 0);
//!                 write_at_all(&f, &view, &DataSpec::FileGen { seed: 42 }).await;
//!                 f.close().await;
//!                 f.global().extents().clone()
//!             })
//!         })
//!         .collect();
//!     let exts = e10_simcore::join_all(handles).await;
//!     exts[0].verify_gen(42, 0, 8 * 16 * 4096).unwrap();
//! });
//! ```

pub use e10_faultsim as faultsim;
pub use e10_localfs as localfs;
pub use e10_mpisim as mpisim;
pub use e10_mpiwrap as mpiwrap;
pub use e10_netsim as netsim;
pub use e10_pfs as pfs;
pub use e10_romio as romio;
pub use e10_simcore as simcore;
pub use e10_storesim as storesim;
pub use e10_workloads as workloads;

/// The most common imports for using the library.
pub mod prelude {
    pub use e10_faultsim::{always, FaultPlan, FaultSchedule, FaultSpec};
    pub use e10_mpisim::{Comm, FileView, FlatType, Info};
    pub use e10_romio::{
        write_at_all, AdioFile, CacheConfig, CacheLayer, CacheMode, DataSpec, Error, FlushFlag,
        IoCtx, Phase, RecoverError, RecoveryReport, RomioHints, Testbed, TestbedSpec, TraceMode,
    };
    pub use e10_simcore::{SimDuration, SimTime};
    pub use e10_storesim::Payload;
    pub use e10_workloads::{
        run_crash_recovery, run_workload, CollPerf, CrashConfig, FlashIo, Ior, RunConfig, Workload,
    };
}
