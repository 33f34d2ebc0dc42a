//! # e10-workloads
//!
//! The three I/O kernels of the paper's evaluation — [`collperf`]
//! (MPICH's coll_perf), [`flashio`] (the FLASH checkpoint kernel) and
//! [`ior`] — plus the [`driver`] implementing the modified multi-file
//! workflow of Fig. 3 with compute-delay overlap and Eq. 2 bandwidth
//! accounting.
//!
//! A [`Workload`] describes, per rank, the sequence of
//! `MPI_File_write_all` calls (as [`e10_mpisim::FileView`]s) that write
//! one file; the driver replays it for each of the run's files against
//! a [`e10_romio::Testbed`].

pub mod chaos;
pub mod collperf;
pub mod crash;
pub mod driver;
pub mod flashio;
pub mod ior;
pub mod multi_job;

pub use chaos::{
    chaos_case, probe_with_plan, random_plan, shrink_plan, spec_kind, ChaosCase, ChaosReport,
    ChaosVerdict, ChaosWorkload,
};
pub use collperf::CollPerf;
pub use crash::{run_crash_recovery, CrashConfig, CrashConfigError, Executed};
pub use driver::{run_workload, PhaseOutcome, RunConfig, RunOutcome, TraceReport};
pub use flashio::{FlashFile, FlashIo};
pub use ior::Ior;
pub use multi_job::{run_multi_job, JobOutcome, MultiJobOutcome, MultiJobSpec};

use e10_mpisim::FileView;

#[cfg(test)]
mod spec_tests {
    use super::*;

    #[test]
    fn workload_spec_matches_legacy_constructors() {
        // The trait constructors must reproduce the exact historical
        // configurations the sweeps were generated with.
        let c = <CollPerf as WorkloadSpec>::paper();
        assert_eq!((c.grid, c.side, c.chunk), ([8, 8, 8], 8, 128 << 10));
        let c = <CollPerf as WorkloadSpec>::tiny_for(8);
        assert_eq!((c.grid, c.side, c.chunk), ([2, 2, 2], 2, 1 << 10));
        let c = <CollPerf as WorkloadSpec>::quick(64);
        assert_eq!((c.grid, c.side, c.chunk), ([4, 4, 4], 4, 64 << 10));

        let f = <FlashIo as WorkloadSpec>::paper();
        assert_eq!(f.procs(), 512);
        assert_eq!(f.blocks_per_proc, 80);
        let f = <FlashIo as WorkloadSpec>::quick(64);
        assert_eq!(
            (f.nprocs, f.blocks_per_proc, f.zones, f.nvars),
            (64, 8, 8, 6)
        );

        let i = <Ior as WorkloadSpec>::paper();
        assert_eq!(i.file_size(), 32 << 30);
        let i = <Ior as WorkloadSpec>::quick(64);
        assert_eq!(
            (i.nprocs, i.block_size, i.transfer_size, i.segments),
            (64, 1 << 20, 1 << 20, 4)
        );
        let i = <Ior as WorkloadSpec>::tiny_for(4);
        assert_eq!(
            (i.block_size, i.transfer_size, i.segments),
            (4 << 10, 2 << 10, 3)
        );
    }

    #[test]
    fn collperf_grid_for_balances_factors() {
        assert_eq!(CollPerf::grid_for(8), [2, 2, 2]);
        assert_eq!(CollPerf::grid_for(64), [4, 4, 4]);
        assert_eq!(CollPerf::grid_for(512), [8, 8, 8]);
        assert_eq!(CollPerf::grid_for(1), [1, 1, 1]);
        // Non-cubes still multiply out to nprocs.
        for n in [2usize, 4, 6, 12, 24, 96] {
            let g = CollPerf::grid_for(n);
            assert_eq!((g[0] * g[1] * g[2]) as usize, n, "grid_for({n}) = {g:?}");
        }
    }

    #[test]
    fn generic_construction_is_usable_behind_the_trait() {
        fn build<W: WorkloadSpec>(n: usize) -> W {
            W::tiny_for(n)
        }
        assert_eq!(build::<CollPerf>(8).procs(), 8);
        assert_eq!(build::<FlashIo>(8).procs(), 8);
        assert_eq!(build::<Ior>(8).procs(), 8);
    }
}

/// A benchmark's access pattern for one file.
pub trait Workload {
    /// Short name (used in file paths and reports).
    fn name(&self) -> &'static str;

    /// Number of MPI processes the pattern is defined for.
    fn procs(&self) -> usize;

    /// Bytes in one complete file.
    fn file_size(&self) -> u64;

    /// The collective writes rank `rank` performs for one file, in
    /// order. The union over ranks must tile `[0, file_size())`.
    fn writes(&self, rank: usize) -> Vec<FileView>;

    /// Whether the benchmark forces `romio_cb_write = enable` (HDF5 /
    /// IOR collective mode do; coll_perf's pattern is interleaved and
    /// triggers collective buffering on its own).
    fn force_collective(&self) -> bool {
        false
    }
}

/// The scale-indexed constructors every paper workload provides,
/// unifying the formerly duplicated `paper_512()` / `tiny()` pairs of
/// [`CollPerf`], [`FlashIo`] and [`Ior`] so harnesses (the bench
/// `Scale` type, sweep bins) can build any workload generically
/// instead of matching on concrete types.
pub trait WorkloadSpec: Workload + Sized {
    /// The paper's 512-rank evaluation configuration.
    fn paper() -> Self;

    /// A reduced configuration for `nprocs` ranks that keeps the
    /// paper's access-pattern shape at sweepable cost (the
    /// `E10_SCALE=quick` shapes: megabytes per rank, minutes per
    /// sweep).
    fn quick(nprocs: usize) -> Self;

    /// A miniature configuration for `nprocs` ranks (kilobytes per
    /// rank; the test suite and CI smoke gates).
    fn tiny_for(nprocs: usize) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;
    use e10_mpisim::Info;
    use e10_romio::TestbedSpec;
    use e10_simcore::run;
    use e10_simcore::trace::{install_metrics, MetricsRegistry};
    use std::rc::Rc;

    fn quick_cfg(hints: Info, prefix: &str, files: usize) -> RunConfig {
        RunConfig {
            files,
            compute_delay: e10_simcore::SimDuration::from_secs(5),
            hints,
            include_last_sync: true,
            verify: true,
            path_prefix: prefix.to_string(),
            seed_base: 50,
            compute_jitter_cv: 0.0,
            faults: e10_faultsim::FaultPlan::default(),
        }
    }

    #[test]
    fn collperf_end_to_end_no_cache() {
        run(async {
            let w = Rc::new(CollPerf::tiny([2, 2, 2]));
            let tb = TestbedSpec::small(w.procs(), 4).build();
            let hints = Info::from_pairs([("cb_buffer_size", "4096"), ("striping_unit", "8192")]);
            let out = run_workload(&tb, w, &quick_cfg(hints, "/gfs/cp", 2)).await;
            assert_eq!(out.phases.len(), 2);
            assert!(out.bandwidth > 0.0);
            // Cache disabled: close waits are negligible.
            for p in &out.phases {
                assert!(p.not_hidden < 0.1, "unexpected close wait {p:?}");
            }
        });
    }

    #[test]
    fn collperf_end_to_end_with_cache() {
        run(async {
            let w = Rc::new(CollPerf::tiny([2, 2, 2]));
            let tb = TestbedSpec::small(w.procs(), 4).build();
            let hints = Info::from_pairs([
                ("cb_buffer_size", "4096"),
                ("striping_unit", "8192"),
                ("e10_cache", "enable"),
                ("e10_cache_discard_flag", "enable"),
            ]);
            let out = run_workload(&tb, w, &quick_cfg(hints, "/gfs/cpc", 2)).await;
            assert!(out.bandwidth > 0.0);
            // Verification inside run_workload proves the flush path.
        });
    }

    #[test]
    fn flashio_end_to_end() {
        run(async {
            let w = Rc::new(FlashIo::tiny(4));
            let tb = TestbedSpec::small(4, 2).build();
            let hints = Info::from_pairs([
                ("cb_buffer_size", "4096"),
                ("striping_unit", "4096"),
                ("e10_cache", "enable"),
            ]);
            let out = run_workload(&tb, w, &quick_cfg(hints, "/gfs/flash", 2)).await;
            assert!(out.bandwidth > 0.0);
        });
    }

    #[test]
    fn ior_end_to_end_counts_last_sync() {
        run(async {
            let w = Rc::new(Ior::tiny(4));
            let tb = TestbedSpec::small(4, 2).build();
            let hints = Info::from_pairs([
                ("cb_buffer_size", "4096"),
                ("striping_unit", "4096"),
                ("e10_cache", "enable"),
                ("e10_cache_flush_flag", "flush_onclose"),
            ]);
            let mut cfg = quick_cfg(hints, "/gfs/ior", 2);
            cfg.compute_delay = e10_simcore::SimDuration::from_nanos(1);
            let out = run_workload(&tb, w, &cfg).await;
            // With flush_onclose and ~no compute, close waits must show.
            let last = out.phases.last().unwrap();
            assert!(
                last.not_hidden > 0.0,
                "last phase must expose sync: {last:?}"
            );
        });
    }

    #[test]
    fn flush_none_skips_global_file_entirely() {
        run(async {
            let w = Rc::new(Ior::tiny(2));
            let tb = TestbedSpec::small(2, 1).build();
            let hints = Info::from_pairs([
                ("cb_buffer_size", "4096"),
                ("e10_cache", "enable"),
                ("e10_cache_flush_flag", "flush_none"),
            ]);
            let mut cfg = quick_cfg(hints, "/gfs/tbw", 1);
            cfg.verify = false; // nothing ever reaches the global file
            let out = run_workload(&tb, w, &cfg).await;
            assert!(out.bandwidth > 0.0);
            let ext = tb.pfs.file_extents("/gfs/tbw.0").unwrap();
            assert_eq!(ext.covered_bytes(), 0);
        });
    }

    #[test]
    fn full_ssd_degrades_to_write_through_and_stays_correct() {
        run(async {
            let w = Rc::new(Ior::tiny(4));
            // Each node's SSD partition holds 16 KiB while one file
            // stages ~24 KiB per node: the cache must fill mid-file,
            // degrade to write-through and still produce a
            // byte-identical global file (run_workload verifies).
            let mut spec = TestbedSpec::small(4, 2);
            spec.localfs.capacity = 16 << 10;
            let tb = spec.build();
            let hints = Info::from_pairs([
                ("cb_buffer_size", "4096"),
                ("striping_unit", "4096"),
                ("e10_cache", "enable"),
                ("e10_cache_flush_flag", "flush_onclose"),
                ("e10_cache_journal", "enable"),
                ("e10_integrity", "enable"),
            ]);
            let cfg = quick_cfg(hints, "/gfs/degrade", 2);
            let metrics = Rc::new(MetricsRegistry::new());
            let guard = install_metrics(Rc::clone(&metrics));
            run_workload(&tb, Rc::clone(&w) as Rc<dyn Workload>, &cfg).await;
            drop(guard);
            let cached = metrics.snapshot().counter("cache.bytes_cached");
            let total = w.file_size() * cfg.files as u64;
            assert!(cached > 0, "cache must absorb extents before filling");
            assert!(
                cached < total,
                "cache must degrade mid-job: cached {cached} of {total}"
            );
        });
    }

    #[test]
    fn breakdown_contains_shuffle_and_write_phases() {
        run(async {
            let w = Rc::new(CollPerf::tiny([2, 2, 1]));
            let tb = TestbedSpec::small(w.procs(), 2).build();
            let hints = Info::from_pairs([("cb_buffer_size", "2048"), ("striping_unit", "4096")]);
            let out = run_workload(&tb, w, &quick_cfg(hints, "/gfs/bd", 1)).await;
            use e10_romio::Phase;
            assert!(out.breakdown_aggs.mean(Phase::ShuffleAlltoall) > 0.0);
            assert!(out.breakdown_aggs.mean(Phase::Write) > 0.0);
            assert!(out.breakdown_aggs.mean(Phase::PostWrite) > 0.0);
        });
    }
}
