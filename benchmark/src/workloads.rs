//! The five benchmark workloads and one repetition of each.
//!
//! A repetition builds a fresh simulated cluster, runs the whole
//! workflow on it, and — after the timed window has closed — checks
//! every output byte. The program under test only ever sees inputs
//! generated here from `--seed`.

use std::rc::Rc;
use std::time::Instant;

use e10_bench::{hints_for, Case};
use e10_faultsim::{DeviceClass, FaultPlan};
use e10_mpisim::{FileView, Info};
use e10_romio::{
    read_at_all, write_at_all, AdioFile, Breakdown, DataSpec, Profiler, ReadAllResult, Testbed,
    TestbedSpec,
};
use e10_simcore::trace::{install_with_metrics, MetricsRegistry, MetricsSnapshot, RingSink};
use e10_simcore::{alloc_gauge, join_all, now, spawn, RunStats, SimDuration, SimTime};
use e10_storesim::{gen_byte, Source};
use e10_workloads::{run_workload, CollPerf, FlashIo, Ior, RunConfig, Workload, WorkloadSpec};

use crate::spans;

/// Which workload (names as in `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Id {
    CollperfCached,
    CollperfDirect,
    FlashioNodeaggHybrid,
    IorWriteRead,
    CollperfDegraded,
}

impl Id {
    pub const ALL: [Id; 5] = [
        Id::CollperfCached,
        Id::CollperfDirect,
        Id::FlashioNodeaggHybrid,
        Id::IorWriteRead,
        Id::CollperfDegraded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Id::CollperfCached => "collperf_cached",
            Id::CollperfDirect => "collperf_direct",
            Id::FlashioNodeaggHybrid => "flashio_nodeagg_hybrid",
            Id::IorWriteRead => "ior_write_read",
            Id::CollperfDegraded => "collperf_degraded",
        }
    }

    pub fn parse(s: &str) -> Option<Id> {
        Id::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Paper-scale shapes, or the 8-rank shapes `--smoke` exercises the
/// harness with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Paper,
    Smoke,
}

/// Everything a repetition needs, generated from the seed before the
/// timed window opens.
pub struct Inputs {
    pub id: Id,
    pub kernel: Rc<dyn Workload>,
    pub spec: TestbedSpec,
    pub cfg: RunConfig,
    /// Collective calls all ranks make for one file.
    pub calls_per_file: u64,
}

/// Build a workload's inputs. `seed` is added to the repository's
/// defaults (`TestbedSpec::seed = 2016`, `RunConfig::seed_base =
/// 1000`), so seed 0 reproduces the numbers in `results/`.
pub fn inputs(id: Id, scale: Scale, seed: u64) -> Inputs {
    let paper = scale == Scale::Paper;
    // (ranks, nodes, aggregators, collective buffer) per scale.
    let (procs, nodes, aggs, cb) = match (id, paper) {
        (Id::CollperfDegraded, true) => (256, 32, 32, 1 << 20),
        (_, true) => (512, 64, 64, 4 << 20),
        (_, false) => (8, 2, 2, 32 << 10),
    };
    let kernel: Rc<dyn Workload> = match (id, paper) {
        (Id::CollperfCached | Id::CollperfDirect, true) => Rc::new(CollPerf::paper()),
        (Id::CollperfDegraded, true) => Rc::new(CollPerf::quick(procs)),
        (Id::CollperfCached | Id::CollperfDirect | Id::CollperfDegraded, false) => {
            Rc::new(CollPerf::tiny_for(procs))
        }
        (Id::FlashioNodeaggHybrid, true) => Rc::new(FlashIo::paper()),
        (Id::FlashioNodeaggHybrid, false) => Rc::new(FlashIo::tiny_for(procs)),
        (Id::IorWriteRead, true) => Rc::new(Ior::paper()),
        (Id::IorWriteRead, false) => Rc::new(Ior::tiny_for(procs)),
    };
    let case = match id {
        Id::CollperfDirect => Case::Disabled,
        _ => Case::Enabled,
    };
    let hints: Info = hints_for(case, aggs, cb);
    let mut faults = FaultPlan::default();
    match id {
        Id::FlashioNodeaggHybrid => {
            // An NVM front sized below the per-node footprint: part of
            // the bytes take the byte-granular front, the rest spill to
            // the SSD block tier.
            let (threshold, capacity) = if paper {
                (4u64 << 20, 256u64 << 20)
            } else {
                (32 << 10, 2 << 10)
            };
            hints.set("e10_two_phase", "node_agg");
            hints.set("e10_cache_class", "hybrid");
            hints.set("e10_nvm_threshold", &threshold.to_string());
            hints.set("e10_nvm_capacity", &capacity.to_string());
        }
        Id::IorWriteRead => {
            hints.set("romio_cb_read", "enable");
        }
        Id::CollperfDegraded => {
            hints.set("e10_coll_timeout", "40");
            hints.set("e10_cache_journal", "enable");
            hints.set("e10_integrity", "enable");
            let at = SimTime::ZERO + SimDuration::from_millis(if paper { 500 } else { 2 });
            faults = FaultPlan::new(seed)
                .device_fail(0, DeviceClass::Ssd, at)
                .device_fail(if paper { 3 } else { 1 }, DeviceClass::Ssd, at);
        }
        Id::CollperfCached | Id::CollperfDirect => {}
    }
    let mut spec = TestbedSpec::deep_er();
    spec.procs = procs;
    spec.nodes = nodes;
    spec.seed += seed;
    let mut cfg = RunConfig::paper(hints, &format!("/gfs/{}", kernel.name()));
    cfg.seed_base += seed;
    cfg.verify = false; // the benchmark verifies, outside the timed window
    cfg.faults = faults;
    match (id, paper) {
        (Id::CollperfDegraded, true) => cfg.compute_delay = SimDuration::from_secs(4),
        (_, true) => {}
        (_, false) => {
            cfg.files = 2;
            cfg.compute_delay = SimDuration::from_secs(1);
        }
    }
    if id == Id::IorWriteRead {
        cfg.files = 1;
    }
    let calls_per_file = {
        let _s = spans::enter("workloads.views", "");
        (0..kernel.procs())
            .map(|r| kernel.writes(r).len() as u64)
            .sum()
    };
    Inputs {
        id,
        kernel,
        spec,
        cfg,
        calls_per_file,
    }
}

/// What the traced repetition reads from the existing counters.
pub struct Traced {
    pub metrics: MetricsSnapshot,
    /// Phase breakdown over aggregator ranks (simulated seconds).
    pub breakdown_aggs: Breakdown,
    /// `Pfs::lock_contention().0`
    pub pfs_lock_waits: u64,
    /// `Pfs::server_load()`
    pub pfs_server_load: f64,
}

/// One repetition's measurements.
pub struct Rep {
    /// Wall seconds: fresh testbed + whole workflow + teardown,
    /// verification excluded.
    pub host_s: f64,
    /// Allocator calls inside the timed window.
    pub allocs: u64,
    pub stats: RunStats,
    pub sim: SimOut,
}

/// What the simulation itself hands back.
pub struct SimOut {
    /// Wall seconds of byte verification (outside the timed window).
    pub verify_s: f64,
    pub sim_gb_s: f64,
    pub sim_durable_s: f64,
    /// Per-rank collective calls + per-file (and per-read) byte
    /// verifications attempted.
    pub ops: u64,
    pub failed_ops: u64,
    /// Collective calls summed over ranks.
    pub collective_calls: u64,
    /// Simulated read bandwidths (`ior_write_read` only).
    pub sim_read_cached_gb_s: f64,
    pub sim_read_global_gb_s: f64,
    pub read_cache_hit_bytes: u64,
    /// Two-phase rounds rank 0 saw in its writes (only where the
    /// benchmark drives the calls itself) and in its reads.
    pub write_rounds_seen: Option<u64>,
    pub read_rounds: u64,
    pub faults_injected: u64,
    pub traced: Option<Traced>,
}

/// Run `f` with the clock stopped: allocator counting paused and the
/// host time it takes returned, so the caller can take it out of the
/// timed window.
fn untimed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    alloc_gauge::disable();
    let t = Instant::now();
    let r = f();
    let s = t.elapsed().as_secs_f64();
    alloc_gauge::enable();
    (s, r)
}

/// A [`Workload`] that records a benchmark-side span around every
/// `writes` call the driver makes (traced repetition only).
struct SpannedKernel(Rc<dyn Workload>);

impl Workload for SpannedKernel {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn procs(&self) -> usize {
        self.0.procs()
    }
    fn file_size(&self) -> u64 {
        self.0.file_size()
    }
    fn writes(&self, rank: usize) -> Vec<FileView> {
        let _s = spans::enter("workloads.views", "workloads.run_workload");
        self.0.writes(rank)
    }
    fn force_collective(&self) -> bool {
        self.0.force_collective()
    }
}

/// One repetition of `inp`. `traced` turns on `e10_trace=ring` and the
/// benchmark-side spans.
pub fn run_rep(inp: &Inputs, traced: bool) -> Rep {
    let id = inp.id;
    let spec = inp.spec.clone();
    let mut cfg = inp.cfg.clone();
    cfg.hints = cfg.hints.dup();
    let kernel = Rc::clone(&inp.kernel);
    let calls_per_file = inp.calls_per_file;

    alloc_gauge::reset();
    alloc_gauge::enable();
    let t0 = Instant::now();
    let (out, stats) = e10_simcore::run_with_stats(async move {
        if id == Id::IorWriteRead {
            ior_write_read(spec, cfg, kernel, traced).await
        } else {
            driver_workload(spec, cfg, kernel, calls_per_file, traced).await
        }
    });
    let total_s = t0.elapsed().as_secs_f64();
    alloc_gauge::disable();
    Rep {
        host_s: total_s - out.verify_s,
        allocs: alloc_gauge::allocs(),
        stats,
        sim: out,
    }
}

fn build_testbed(spec: &TestbedSpec) -> Testbed {
    let _s = spans::enter("romio.testbed_build", "");
    spec.build()
}

fn pfs_traced(tb: &Testbed, metrics: MetricsSnapshot, breakdown_aggs: Breakdown) -> Traced {
    Traced {
        metrics,
        breakdown_aggs,
        pfs_lock_waits: tb.pfs.lock_contention().0,
        pfs_server_load: tb.pfs.server_load(),
    }
}

/// The four workloads that run through `e10_workloads::run_workload`
/// (the Fig. 3 multi-file workflow).
async fn driver_workload(
    spec: TestbedSpec,
    cfg: RunConfig,
    kernel: Rc<dyn Workload>,
    calls_per_file: u64,
    traced: bool,
) -> SimOut {
    let tb = build_testbed(&spec);
    if traced {
        cfg.hints.set("e10_trace", "ring");
    }
    let run_kernel: Rc<dyn Workload> = if traced {
        Rc::new(SpannedKernel(Rc::clone(&kernel)))
    } else {
        Rc::clone(&kernel)
    };
    let out = {
        let _s = spans::enter("workloads.run_workload", "");
        run_workload(&tb, run_kernel, &cfg).await
    };

    // Timed window closed: every file must hold the generator stream
    // at the identity mapping (a failed or lost collective write shows
    // here; `run_workload` does not hand out per-call error codes).
    let (verify_s, failed) = untimed(|| {
        let _s = spans::enter("workloads.verify", "");
        (0..cfg.files)
            .filter(|k| {
                let path = format!("{}.{k}", cfg.path_prefix);
                !tb.pfs.file_extents(&path).is_some_and(|ext| {
                    ext.verify_gen(cfg.seed_base + *k as u64, 0, kernel.file_size())
                        .is_ok()
                })
            })
            .count() as u64
    });
    let collective_calls = calls_per_file * cfg.files as u64;
    let traced = out
        .metrics
        .clone()
        .map(|m| pfs_traced(&tb, m, out.breakdown_aggs.clone()));
    SimOut {
        verify_s,
        sim_gb_s: out.gb_s(),
        sim_durable_s: out.wall_time,
        ops: collective_calls + cfg.files as u64,
        failed_ops: failed,
        collective_calls,
        sim_read_cached_gb_s: 0.0,
        sim_read_global_gb_s: 0.0,
        read_cache_hit_bytes: 0,
        write_rounds_seen: None,
        read_rounds: 0,
        faults_injected: out.faults_injected,
        traced,
    }
}

/// The read-side oracle, applied like `ExtentMap::verify_gen`: every
/// piece must carry generator `seed` at the identity mapping, and its
/// first and last byte must equal the stream. (`ReadAllResult::
/// verify_gen` compares byte by byte — 64 G comparisons at paper
/// scale.)
fn verify_read(r: &ReadAllResult, seed: u64, want_bytes: u64) -> bool {
    r.error_code == 0
        && r.bytes == want_bytes
        && r.pieces.iter().all(|p| {
            let len = p.payload.len;
            matches!(&p.payload.src, Source::Gen { seed: s, origin } if *s == seed && *origin == p.file_off)
                && (len == 0
                    || (p.payload.src.byte_at(0) == gen_byte(seed, p.file_off)
                        && p.payload.src.byte_at(len - 1) == gen_byte(seed, p.file_off + len - 1)))
        })
}

/// What one rank of `ior_write_read` returns.
struct IorRank {
    write_errors: u64,
    write_rounds: u64,
    cached: Vec<ReadAllResult>,
    global: Vec<ReadAllResult>,
    /// Virtual seconds of the cached / global read pass.
    t_cached: f64,
    t_global: f64,
    profiler: Profiler,
    is_agg: bool,
}

/// `ior_write_read`: collective write through the cache, `file_sync`,
/// a collective read served from the aggregator caches, then a
/// re-open without the cache and a collective read from the PFS.
async fn ior_write_read(
    spec: TestbedSpec,
    cfg: RunConfig,
    kernel: Rc<dyn Workload>,
    traced: bool,
) -> SimOut {
    let tb = build_testbed(&spec);
    let registry = Rc::new(MetricsRegistry::new());
    let guard =
        traced.then(|| install_with_metrics(Rc::new(RingSink::new(1 << 16)), Rc::clone(&registry)));
    let t_start = now();
    let seed = cfg.seed_base;
    let path = format!("{}.0", cfg.path_prefix);
    let cached_hints = cfg.hints.dup();
    cached_hints.set("e10_cache_read", "enable");
    let global_hints = hints_without_cache(&cfg.hints);

    let handles: Vec<_> = tb
        .ctxs()
        .into_iter()
        .map(|ctx| {
            let kernel = Rc::clone(&kernel);
            let path = path.clone();
            let cached_hints = cached_hints.clone();
            let global_hints = global_hints.clone();
            spawn(async move {
                // Rank 0 carries the benchmark-side spans.
                let lead = ctx.comm.rank() == 0;
                let span = |name: &'static str| {
                    lead.then(|| spans::enter(name, "workloads.ior_write_read"))
                };
                let views = {
                    let _s = span("workloads.views");
                    kernel.writes(ctx.comm.rank())
                };
                let profiler = Profiler::new();
                let (mut write_errors, mut write_rounds) = (0, 0);

                let s = span("romio.open");
                let f = AdioFile::open(&ctx, &path, &cached_hints, true)
                    .await
                    .expect("collective open failed");
                drop(s);
                let is_agg = f.my_agg_index().is_some();
                let s = span("romio.write_at_all");
                for v in &views {
                    let r = write_at_all(&f, v, &DataSpec::FileGen { seed }).await;
                    write_errors += (r.error_code != 0) as u64;
                    write_rounds += r.rounds;
                }
                drop(s);
                let s = span("romio.file_sync");
                f.file_sync().await;
                ctx.comm.barrier().await;
                drop(s);
                let s = span("romio.read_at_all.cached");
                let t0 = now();
                let mut cached = Vec::with_capacity(views.len());
                for v in &views {
                    cached.push(read_at_all(&f, v).await);
                }
                let t_cached = now().since(t0).as_secs_f64();
                drop(s);
                let s = span("romio.close");
                f.close().await;
                drop(s);
                profiler.merge_from(f.profiler());

                let s = span("romio.open");
                let f = AdioFile::open(&ctx, &path, &global_hints, false)
                    .await
                    .expect("collective re-open failed");
                drop(s);
                let s = span("romio.read_at_all.global");
                let t0 = now();
                let mut global = Vec::with_capacity(views.len());
                for v in &views {
                    global.push(read_at_all(&f, v).await);
                }
                let t_global = now().since(t0).as_secs_f64();
                drop(s);
                let s = span("romio.close");
                f.close().await;
                drop(s);
                profiler.merge_from(f.profiler());
                IorRank {
                    write_errors,
                    write_rounds,
                    cached,
                    global,
                    t_cached,
                    t_global,
                    profiler,
                    is_agg,
                }
            })
        })
        .collect();
    let ranks = {
        let _s = spans::enter("workloads.ior_write_read", "");
        join_all(handles).await
    };
    let sim_durable_s = now().since(t_start).as_secs_f64();
    let metrics = guard.as_ref().map(|_| registry.snapshot());
    drop(guard);

    let file_bytes = kernel.file_size();
    let (verify_s, (failed, hits)) = untimed(|| {
        let _s = spans::enter("workloads.verify", "");
        let mut failed =
            tb.pfs
                .file_extents(&path)
                .is_none_or(|ext| ext.verify_gen(seed, 0, file_bytes).is_err()) as u64;
        let mut hits = 0;
        for (rank, r) in ranks.iter().enumerate() {
            failed += r.write_errors;
            let views = kernel.writes(rank);
            for (v, res) in views.iter().zip(&r.cached) {
                failed += !verify_read(res, seed, v.total_bytes()) as u64;
                hits += res.cache_hits;
            }
            for (v, res) in views.iter().zip(&r.global) {
                failed += !(verify_read(res, seed, v.total_bytes()) && res.cache_hits == 0) as u64;
            }
        }
        (failed, hits)
    });
    let calls: u64 = ranks.iter().map(|r| r.cached.len() as u64).sum();
    let (t_cached, t_global) = (ranks[0].t_cached, ranks[0].t_global);
    let agg_profs: Vec<Profiler> = ranks
        .iter()
        .filter(|r| r.is_agg)
        .map(|r| r.profiler.clone())
        .collect();
    let traced = metrics.map(|m| pfs_traced(&tb, m, Breakdown::from_profilers(&agg_profs)));
    SimOut {
        verify_s,
        // Headline: bytes read over the virtual seconds of both passes.
        sim_gb_s: 2.0 * file_bytes as f64 / (t_cached + t_global) / 1e9,
        sim_durable_s,
        // write + cached read + global read per rank and view, each
        // read verified, plus the file's own verification.
        ops: 3 * calls + 2 * calls + 1,
        failed_ops: failed,
        collective_calls: 3 * calls,
        sim_read_cached_gb_s: file_bytes as f64 / t_cached / 1e9,
        sim_read_global_gb_s: file_bytes as f64 / t_global / 1e9,
        read_cache_hit_bytes: hits,
        write_rounds_seen: Some(ranks[0].write_rounds),
        read_rounds: ranks[0]
            .cached
            .iter()
            .chain(&ranks[0].global)
            .map(|r| r.rounds)
            .sum(),
        faults_injected: 0,
        traced,
    }
}

/// `hints` with every cache key removed: the plain PFS read path.
fn hints_without_cache(hints: &Info) -> Info {
    let out = hints.dup();
    for (k, _) in hints.entries() {
        if k.starts_with("e10_cache") {
            out.delete(&k);
        }
    }
    out
}
