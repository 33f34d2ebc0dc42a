//! Concurrent multi-job harness: N independent jobs time-share the
//! node-local cache devices of the same compute nodes.
//!
//! Each job is a separate "application": its ranks split off their own
//! communicator, run the modified Fig. 3 workflow (deferred close, a
//! compute delay between I/O phases) against its own set of global
//! files, and start `stagger` after the previous job — the arrival
//! pattern of a batch scheduler backfilling a shared node. All jobs
//! write through the *same* per-node cache, so the per-node
//! [`e10_romio::CacheArbiter`] decides, per write, whether a job's
//! extent is admitted, refused (written through this once) or whether
//! the job's reservation is exhausted (degrade to write-through for
//! good), and evicts fully-synced extents of idle jobs under watermark
//! pressure.
//!
//! The harness exists to demonstrate — and regression-test — the
//! contention behaviour: with a cache sized for ~1.5 jobs and 4 jobs
//! arriving staggered, every job must still complete with byte-verified
//! output, at least one job must degrade, and at least one eviction
//! must fire. Counters come from the structured-trace metrics
//! registry, so the same figures are available to the `multi_job`
//! bench binary.

use std::rc::Rc;

use e10_mpisim::{FileView, FlatType};
use e10_romio::{CacheMode, FlushFlag, IoCtx, RomioHints, TestbedSpec};
use e10_simcore::trace::{install_metrics, MetricsRegistry, MetricsSnapshot};
use e10_simcore::{now, sleep, SimDuration};

use crate::driver::{verify_files, write_files, RunConfig};

/// Shape of one multi-job run. Plain data (`Clone + Send`) so the
/// bench binary can build specs inside worker-pool job closures.
#[derive(Debug, Clone)]
pub struct MultiJobSpec {
    /// Number of concurrent jobs.
    pub jobs: usize,
    /// Ranks per job. Job membership is `rank % jobs`, so with
    /// block-mapped nodes every job spans every node.
    pub procs_per_job: usize,
    /// Compute nodes shared by all jobs.
    pub nodes: usize,
    /// Files each job writes (Fig. 3 phases; close is deferred).
    pub files_per_job: usize,
    /// Bytes per file; must divide evenly by `procs_per_job`.
    pub file_bytes: u64,
    /// Per-node cache device capacity in bytes.
    pub capacity: u64,
    /// `e10_cache_hiwater` percentage (0 disables arbitration).
    pub hiwater: u64,
    /// `e10_cache_lowater` percentage.
    pub lowater: u64,
    /// Job `j` starts at `j * stagger`.
    pub stagger: SimDuration,
    /// Compute delay between a job's I/O phases.
    pub compute_delay: SimDuration,
    /// `cb_buffer_size` hint for every job.
    pub cb_buffer_size: u64,
    /// Generator seed of job `j`, file `k` is `seed_base + 100*j + k`.
    pub seed_base: u64,
}

impl MultiJobSpec {
    /// The contention demo of the acceptance criteria: 4 jobs of 4
    /// ranks share 2 nodes whose cache holds ~1.5 jobs' staged bytes.
    /// Job 0 arrives first, stages and syncs its first file alone;
    /// jobs 1–3 arrive staggered, shrink everyone's reservation (so at
    /// least one exhausts it and degrades to write-through) and push
    /// occupancy over the high watermark (so job 0's synced extents
    /// are evicted).
    pub fn contended() -> Self {
        MultiJobSpec {
            jobs: 4,
            procs_per_job: 4,
            nodes: 2,
            files_per_job: 2,
            file_bytes: 2 << 20,
            capacity: 3 << 19, // 1.5 MiB: ~1.5 jobs' per-node share
            hiwater: 80,
            lowater: 50,
            stagger: SimDuration::from_millis(150),
            compute_delay: SimDuration::from_millis(250),
            cb_buffer_size: 256 << 10,
            seed_base: 9000,
        }
    }

    /// Same shape with the cache sized generously (no contention):
    /// the control arm of the bench binary.
    pub fn uncontended() -> Self {
        let mut s = Self::contended();
        s.capacity = 64 << 20;
        s
    }

    /// A single job on the contended node shape: the baseline arm.
    pub fn single() -> Self {
        let mut s = Self::contended();
        s.jobs = 1;
        s
    }

    /// Total MPI ranks across all jobs.
    pub fn total_procs(&self) -> usize {
        self.jobs * self.procs_per_job
    }

    /// The run configuration of job `job`: its files are
    /// `/gfs/mj/job<j>.<k>` (the basename stem `job<j>` is the
    /// arbiter's job family), file `k` is generated from
    /// `seed_base + 100*j + k`, and every file is opened with the
    /// cache hints below, set as typed fields and validated so the
    /// watermark checks apply.
    pub fn run_config(&self, job: usize) -> RunConfig {
        let hints = RomioHints {
            e10_cache: CacheMode::Enable,
            e10_cache_flush_flag: FlushFlag::FlushImmediate,
            e10_cache_discard_flag: true,
            cb_buffer_size: self.cb_buffer_size,
            e10_cache_hiwater: self.hiwater,
            e10_cache_lowater: if self.hiwater > 0 { self.lowater } else { 0 },
            ..RomioHints::default()
        };
        hints.validate().expect("multi-job hints must validate");
        RunConfig {
            files: self.files_per_job,
            compute_delay: self.compute_delay,
            seed_base: self.seed_base + 100 * job as u64,
            ..RunConfig::paper(hints.to_info(), &format!("/gfs/mj/job{job}"))
        }
    }
}

/// One job's result.
#[derive(Debug, Clone, Copy)]
pub struct JobOutcome {
    /// Job index.
    pub job: usize,
    /// Bytes the job wrote across its files.
    pub bytes: u64,
    /// Virtual seconds from the job's (staggered) start to its final
    /// close, measured on the job's rank 0.
    pub secs: f64,
    /// Decimal GB/s over that interval.
    pub gb_s: f64,
}

/// Result of a whole multi-job run. Every global file has already
/// been byte-verified against its generator before this is returned.
#[derive(Debug, Clone)]
pub struct MultiJobOutcome {
    /// Per-job figures, indexed by job.
    pub jobs: Vec<JobOutcome>,
    /// Virtual seconds from sim start to the last job's completion.
    pub wall_secs: f64,
    /// Bytes admitted into caches (`cache.admit`).
    pub admitted: u64,
    /// Bytes refused once and written through (`cache.admit_refused`).
    pub refused: u64,
    /// Bytes punched under watermark pressure (`cache.evict_pressure`).
    pub evicted: u64,
    /// Jobs that exhausted their reservation (`cache.degrade`).
    pub degrades: u64,
    /// Bytes flush-metered by the fair scheduler (`flush.fair_share`).
    pub fair_grants: u64,
    /// Bytes staged into cache files (`cache.bytes_cached`).
    pub bytes_cached: u64,
    /// Full counter snapshot for anything else a caller wants.
    pub metrics: MetricsSnapshot,
}

/// Run the multi-job workload in its own simulation and return the
/// contention figures. Panics if any job's output fails verification.
pub fn run_multi_job(spec: &MultiJobSpec) -> MultiJobOutcome {
    assert!(spec.jobs >= 1, "need at least one job");
    assert_eq!(
        spec.file_bytes % spec.procs_per_job as u64,
        0,
        "file_bytes must divide evenly across a job's ranks"
    );
    let spec = spec.clone();
    e10_simcore::run(async move {
        let mut tspec = TestbedSpec::small(spec.total_procs(), spec.nodes);
        tspec.localfs.capacity = spec.capacity;
        let tb = tspec.build();

        let metrics = Rc::new(MetricsRegistry::new());
        let guard = install_metrics(Rc::clone(&metrics));

        // Each job's configuration and file paths, built once and
        // shared by its ranks.
        let jobs_cfg: Rc<[(RunConfig, Vec<String>)]> = (0..spec.jobs)
            .map(|job| {
                let cfg = spec.run_config(job);
                let paths = cfg.file_paths();
                (cfg, paths)
            })
            .collect();
        let pfs = Rc::clone(&tb.pfs);
        let localfs = Rc::clone(&tb.localfs);
        let nvmfs = Rc::clone(&tb.nvmfs);
        let sp = spec.clone();
        let shared_cfg = Rc::clone(&jobs_cfg);
        let per_rank = tb
            .world
            .run_ranks(move |comm| {
                let pfs = Rc::clone(&pfs);
                let localfs = Rc::clone(&localfs);
                let nvmfs = Rc::clone(&nvmfs);
                let sp = sp.clone();
                let jobs_cfg = Rc::clone(&shared_cfg);
                async move {
                    let world_rank = comm.rank();
                    let job = world_rank % sp.jobs;
                    // Interleaved colouring + block-mapped nodes means
                    // every job has ranks (and aggregators) on every
                    // node — the jobs genuinely share cache devices.
                    let sub = comm.split(job as u32, world_rank as u64).await;
                    let ctx = IoCtx::new(sub, pfs, localfs, nvmfs);
                    sleep(sp.stagger * job as u64).await;
                    let t0 = now();
                    let block = sp.file_bytes / sp.procs_per_job as u64;
                    let view =
                        FileView::new(&FlatType::contiguous(block), ctx.comm.rank() as u64 * block);
                    // The deferred close keeps file k's extents
                    // cache-resident (and evictable) through the
                    // contention window of phase k+1.
                    let (cfg, paths) = &jobs_cfg[job];
                    let r = write_files(&ctx, &[view], cfg, paths).await;
                    assert_eq!(r.error_code, 0, "collective write failed");
                    let bytes = r.phases.iter().map(|&(b, _)| b).sum::<u64>();
                    (job, bytes, now().since(t0).as_secs_f64())
                }
            })
            .await;

        // Every job's every file must be byte-identical to its
        // generator — contention may change *where* bytes travelled,
        // never what arrived.
        for (cfg, _) in jobs_cfg.iter() {
            verify_files(&tb, cfg, spec.file_bytes);
        }

        let mut jobs: Vec<JobOutcome> = (0..spec.jobs)
            .map(|j| JobOutcome {
                job: j,
                bytes: 0,
                secs: 0.0,
                gb_s: 0.0,
            })
            .collect();
        for &(job, bytes, secs) in &per_rank {
            let o = &mut jobs[job];
            o.bytes += bytes;
            // Ranks of a job are barrier-aligned; keep the slowest.
            if secs > o.secs {
                o.secs = secs;
            }
        }
        for o in &mut jobs {
            o.gb_s = if o.secs > 0.0 {
                o.bytes as f64 / o.secs / 1e9
            } else {
                0.0
            };
        }

        drop(guard);
        let snap = metrics.snapshot();
        MultiJobOutcome {
            jobs,
            wall_secs: now().as_secs_f64(),
            admitted: snap.counter("cache.admit"),
            refused: snap.counter("cache.admit_refused"),
            evicted: snap.counter("cache.evict_pressure"),
            degrades: snap.counter("cache.degrade"),
            fair_grants: snap.counter("flush.fair_share"),
            bytes_cached: snap.counter("cache.bytes_cached"),
            metrics: snap,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contended_demo_degrades_and_evicts() {
        // The acceptance scenario: 4 jobs, 2 nodes, cache sized for
        // ~1.5 jobs. run_multi_job byte-verifies every file itself.
        let out = run_multi_job(&MultiJobSpec::contended());
        assert_eq!(out.jobs.len(), 4);
        for o in &out.jobs {
            assert_eq!(o.bytes, 2 * (2 << 20), "job {} short", o.job);
            assert!(o.secs > 0.0 && o.gb_s > 0.0);
        }
        assert!(
            out.degrades >= 1,
            "at least one job must exhaust its reservation: {out:?}"
        );
        assert!(
            out.evicted > 0,
            "watermark pressure must evict synced extents: {out:?}"
        );
        assert!(out.admitted > 0 && out.bytes_cached > 0);
    }

    #[test]
    fn single_job_on_same_nodes_is_contention_free() {
        let out = run_multi_job(&MultiJobSpec::single());
        assert_eq!(out.jobs.len(), 1);
        assert_eq!(out.degrades, 0, "{out:?}");
        assert_eq!(out.refused, 0, "{out:?}");
        assert_eq!(out.evicted, 0, "{out:?}");
        assert!(out.admitted > 0);
    }

    #[test]
    fn uncontended_cache_admits_everything() {
        let out = run_multi_job(&MultiJobSpec::uncontended());
        assert_eq!(out.degrades, 0, "{out:?}");
        assert_eq!(out.evicted, 0, "{out:?}");
        // All four jobs' staged bytes fit: admitted covers every write.
        assert!(out.admitted >= out.bytes_cached);
    }

    #[test]
    fn multi_job_runs_are_bit_deterministic() {
        let a = run_multi_job(&MultiJobSpec::contended());
        let b = run_multi_job(&MultiJobSpec::contended());
        assert_eq!(a.wall_secs.to_bits(), b.wall_secs.to_bits());
        assert_eq!(
            (a.admitted, a.refused, a.evicted, a.degrades, a.fair_grants),
            (b.admitted, b.refused, b.evicted, b.degrades, b.fair_grants)
        );
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.secs.to_bits(), y.secs.to_bits());
            assert_eq!(x.bytes, y.bytes);
        }
    }
}
