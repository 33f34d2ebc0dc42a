//! The multi-file workflow driver (Fig. 3 of the paper) and the
//! perceived-bandwidth measurement of Eq. 2.
//!
//! Each benchmark writes `files` files of the same size with a compute
//! delay between I/O phases. Following the modified workflow, the
//! close of file `k` is moved to the start of I/O phase `k+1` (after
//! the compute), so cache synchronisation overlaps computation and the
//! close only waits for whatever is *not hidden* — exactly the
//! `max(0, T_s(k) − C(k+1))` term of Eq. 1.
//!
//! Tracing is set by hints only: `e10_trace` picks the sink (off, an
//! in-memory ring of 65 536 events, or a JSONL file) and
//! `e10_trace_path` the JSONL directory. [`RunConfig`] has no trace
//! field; a caller that wants a traced run sets the hint on its
//! `hints`.

use std::borrow::Cow;
use std::rc::Rc;

use e10_mpisim::{FileView, Info};
use e10_romio::bwmodel::{total_bandwidth, PhaseMeasure};
use e10_romio::{
    write_at_all, AdioFile, Breakdown, DataSpec, IoCtx, Phase, Profiler, Testbed, TraceMode,
};
use e10_simcore::trace::{
    install_with_metrics, JsonlSink, MetricsRegistry, MetricsSnapshot, RingSink, TraceSink,
};
use e10_simcore::{now, sleep, SimDuration};

use crate::Workload;

/// Capacity of the in-memory ring a [`TraceMode::Ring`] run records into.
const TRACE_RING_CAPACITY: usize = 1 << 16;

/// What tracing recorded during a run.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The resolved mode the run used.
    pub mode: TraceMode,
    /// The JSONL file written, for [`TraceMode::Jsonl`].
    pub path: Option<String>,
    /// Events accepted by the sink.
    pub recorded: u64,
    /// Events dropped (ring wrap-around).
    pub dropped: u64,
    /// In-memory events, for [`TraceMode::Ring`].
    pub events: Vec<e10_simcore::trace::Event>,
}

/// Configuration of one benchmark run.
#[derive(Clone)]
pub struct RunConfig {
    /// Number of files written (the paper uses 4).
    pub files: usize,
    /// Compute delay between I/O phases (the paper uses 30 s).
    pub compute_delay: SimDuration,
    /// MPI-IO hints for every file.
    pub hints: Info,
    /// Charge the last file's close wait to the bandwidth (IOR does;
    /// coll_perf and Flash-IO do not — paper §IV-B/§IV-D).
    pub include_last_sync: bool,
    /// Verify the final global files byte-for-byte against the
    /// generator (disable for `flush_none`, which never syncs).
    pub verify: bool,
    /// Global-file path prefix; files are `<prefix>.<k>`.
    pub path_prefix: String,
    /// Generator seed of file `k` is `seed_base + k`.
    pub seed_base: u64,
    /// Coefficient of variation of per-rank compute-time jitter
    /// (log-normal, mean 1). With OS noise or load imbalance, ranks
    /// arrive at the next I/O phase staggered and the collective's
    /// first global synchronisation absorbs the spread — the effect
    /// the paper (via Damaris [16]) notes becomes *more* prominent the
    /// faster the I/O itself is.
    pub compute_jitter_cv: f64,
    /// Fault plan installed for the duration of the run (default
    /// empty: no schedule is installed and the run is bit-identical
    /// to a build without fault injection). Node-crash specs are not
    /// executed by this driver — use the [`crate::crash`] harness,
    /// which owns the kill/power-loss/recovery sequence.
    pub faults: e10_faultsim::FaultPlan,
}

impl RunConfig {
    /// The paper's setup: 4 files, 30 s compute delay.
    pub fn paper(hints: Info, prefix: &str) -> Self {
        RunConfig {
            files: 4,
            compute_delay: SimDuration::from_secs(30),
            hints,
            include_last_sync: false,
            verify: true,
            path_prefix: prefix.to_string(),
            seed_base: 1000,
            compute_jitter_cv: 0.0,
            faults: e10_faultsim::FaultPlan::default(),
        }
    }

    /// The global file of each I/O phase, `<prefix>.<k>`: built once
    /// per run, every rank opens its phase's file by reference.
    pub(crate) fn file_paths(&self) -> Vec<String> {
        (0..self.files)
            .map(|k| format!("{}.{k}", self.path_prefix))
            .collect()
    }
}

/// One I/O phase's timings (measured on rank 0, which is barrier-
/// aligned with every other rank at phase boundaries).
#[derive(Debug, Clone, Copy)]
pub struct PhaseOutcome {
    /// Bytes written by all ranks in this phase.
    pub bytes: u64,
    /// Collective write time `T_c(k)` (open + all write_all calls).
    pub t_c: f64,
    /// Close wait — the non-hidden synchronisation of Eq. 1.
    pub not_hidden: f64,
}

/// The result of a run.
pub struct RunOutcome {
    /// Per-file phases.
    pub phases: Vec<PhaseOutcome>,
    /// Eq. 2 perceived bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Per-phase cost breakdown merged over aggregator ranks only —
    /// what the paper's Fig. 5/6/8/10 stacked bars show (non-
    /// aggregators spend almost everything waiting in the alltoall).
    pub breakdown_aggs: Breakdown,
    /// Total bytes across files.
    pub total_bytes: u64,
    /// Virtual wall time of the whole run, seconds.
    pub wall_time: f64,
    /// Counter/tally snapshot, when the run was traced.
    pub metrics: Option<MetricsSnapshot>,
    /// What the trace sink recorded, when the run was traced.
    pub trace: Option<TraceReport>,
    /// Faults injected by the run's [`RunConfig::faults`] plan (0 when
    /// the plan was empty or never fired).
    pub faults_injected: u64,
}

impl RunOutcome {
    /// Bandwidth in decimal GB/s (the paper's unit).
    pub fn gb_s(&self) -> f64 {
        self.bandwidth / 1e9
    }
}

/// Run `workload` on `tb` under `cfg`. The testbed's rank count must
/// match the workload's.
pub async fn run_workload(tb: &Testbed, workload: Rc<dyn Workload>, cfg: &RunConfig) -> RunOutcome {
    assert_eq!(
        tb.world.comms.len(),
        workload.procs(),
        "testbed rank count must match the workload"
    );
    let t_start = now();
    let file_bytes = workload.file_size();
    let hints = cfg.hints.dup();
    // Intra-node aggregation only exists on the collective path: a run
    // that asks for `e10_two_phase = node_agg` without deciding
    // `romio_cb_write` means collective buffering, like the benchmarks
    // that force it.
    let wants_node_agg = hints.get("e10_two_phase").as_deref() == Some("node_agg");
    if (workload.force_collective() || wants_node_agg) && hints.get("romio_cb_write").is_none() {
        hints.set("romio_cb_write", "enable");
    }

    // Install the run's trace sink, where the `e10_trace` and
    // `e10_trace_path` hints say; every instrumented layer emits to it
    // for the duration. Nothing in the simulation reads trace state, so
    // virtual-time outcomes are identical traced or not.
    let (mode, trace_dir) = e10_romio::RomioHints::from_info(&hints)
        .map_or((TraceMode::Off, Cow::default()), |h| {
            (h.e10_trace, h.e10_trace_path)
        });
    let mut ring: Option<Rc<RingSink>> = None;
    let mut jsonl: Option<(Rc<JsonlSink>, String)> = None;
    let sink: Option<Rc<dyn TraceSink>> = match mode {
        TraceMode::Off => None,
        TraceMode::Ring => {
            let s = Rc::new(RingSink::new(TRACE_RING_CAPACITY));
            ring = Some(Rc::clone(&s));
            Some(s)
        }
        TraceMode::Jsonl => {
            let base = cfg.path_prefix.rsplit('/').next().unwrap_or("run");
            let path = format!("{trace_dir}/{base}.jsonl");
            match JsonlSink::create(&path) {
                Ok(s) => {
                    let s = Rc::new(s);
                    jsonl = Some((Rc::clone(&s), path));
                    Some(s)
                }
                Err(e) => {
                    eprintln!("e10: cannot create trace file {path}: {e}; tracing disabled");
                    None
                }
            }
        }
    };
    let traced = sink.map(|s| {
        let metrics = Rc::new(MetricsRegistry::new());
        (install_with_metrics(s, Rc::clone(&metrics)), metrics)
    });

    // Install the run's fault schedule, if any. Like the trace sink it
    // is ambient: device and server models sample it at their injection
    // points. An empty plan installs nothing, so fault-free runs take
    // only the single disabled-flag branch per query. Crash specs need
    // a harness that owns the kill/recovery sequence (`crate::crash`).
    assert!(
        cfg.faults.crashes().is_empty(),
        "run_workload cannot execute node crashes; use crash::run_crash_recovery"
    );
    let _fault_guard = if cfg.faults.is_empty() {
        None
    } else {
        Some(e10_faultsim::FaultSchedule::install(cfg.faults.clone()))
    };

    let pfs = Rc::clone(&tb.pfs);
    let localfs = Rc::clone(&tb.localfs);
    let nvmfs = Rc::clone(&tb.nvmfs);
    let cfg_shared = Rc::new(RunConfig {
        hints,
        ..cfg.clone()
    });
    let paths: Rc<[String]> = cfg.file_paths().into();

    let per_rank = tb
        .world
        .run_ranks(move |comm| {
            let ctx = IoCtx::new(
                comm,
                Rc::clone(&pfs),
                Rc::clone(&localfs),
                Rc::clone(&nvmfs),
            );
            let wl = Rc::clone(&workload);
            let cfg = Rc::clone(&cfg_shared);
            let paths = Rc::clone(&paths);
            async move {
                let views = wl.writes(ctx.comm.rank());
                write_files(&ctx, &views, &cfg, &paths).await
            }
        })
        .await;

    let phases: Vec<PhaseOutcome> = per_rank[0]
        .phases
        .iter()
        .zip(&per_rank[0].not_hidden)
        .map(|(&(_, t_c), &nh)| PhaseOutcome {
            bytes: file_bytes,
            t_c,
            not_hidden: nh,
        })
        .collect();

    let measures: Vec<PhaseMeasure> = phases
        .iter()
        .map(|p| PhaseMeasure {
            bytes: p.bytes,
            t_c: p.t_c,
            t_s: p.not_hidden,
            c_next: 0.0,
        })
        .collect();
    let bandwidth = total_bandwidth(&measures);
    let agg_profs: Vec<Profiler> = per_rank
        .iter()
        .filter(|r| r.is_agg)
        .map(|r| r.prof.clone())
        .collect();
    let breakdown_aggs = Breakdown::from_profilers(&agg_profs);

    if cfg.verify {
        verify_files(tb, cfg, file_bytes);
    }

    let (metrics_snap, trace_report) = if let Some((_, metrics)) = &traced {
        let report = if let Some(r) = &ring {
            TraceReport {
                mode: TraceMode::Ring,
                path: None,
                recorded: r.recorded(),
                dropped: r.dropped(),
                events: r.events(),
            }
        } else {
            let (s, path) = jsonl.as_ref().expect("jsonl sink when not ring");
            TraceReport {
                mode: TraceMode::Jsonl,
                path: Some(path.clone()),
                recorded: s.recorded(),
                dropped: 0,
                events: Vec::new(),
            }
        };
        (Some(metrics.snapshot()), Some(report))
    } else {
        (None, None)
    };
    let faults_injected = e10_faultsim::injected_count();
    drop(traced); // restore the previous sink, flush the file

    RunOutcome {
        phases,
        bandwidth,
        breakdown_aggs,
        total_bytes: file_bytes * cfg.files as u64,
        wall_time: now().since(t_start).as_secs_f64(),
        metrics: metrics_snap,
        trace: trace_report,
        faults_injected,
    }
}

/// What one rank's pass through the Fig.-3 loop measured.
pub(crate) struct RankPhases {
    /// Per file: the bytes this rank wrote and its `T_c(k)`, seconds.
    pub(crate) phases: Vec<(u64, f64)>,
    /// Per file: the close wait charged as not hidden, seconds.
    pub(crate) not_hidden: Vec<f64>,
    /// The rank's phase costs over every file.
    pub(crate) prof: Profiler,
    /// Whether the rank aggregated the last file.
    pub(crate) is_agg: bool,
    /// The first non-zero collective-write error code, or 0.
    pub(crate) error_code: u32,
}

/// One rank's Fig.-3 loop: for each of `cfg.files` files, close the
/// previous file, open `paths[k]` (see [`RunConfig::file_paths`]) with
/// `cfg.hints`, write every view of `views` collectively from file
/// `k`'s generator, then compute for `cfg.compute_delay` (jittered per
/// rank) while the file's sync runs in the background; close the last
/// file at the end.
pub(crate) async fn write_files(
    ctx: &IoCtx,
    views: &[FileView],
    cfg: &RunConfig,
    paths: &[String],
) -> RankPhases {
    let rank = ctx.comm.rank();
    let mut prev: Option<AdioFile> = None;
    let mut phases: Vec<(u64, f64)> = Vec::new();
    let mut not_hidden = vec![0.0f64; cfg.files];
    let rank_prof = Profiler::new();
    let mut is_agg = false;
    let mut error_code = 0;
    let mut jitter = e10_simcore::rng::Jitter::new(
        e10_simcore::SimRng::stream(0xC0FFEE, rank as u64),
        cfg.compute_jitter_cv,
    );

    for k in 0..=cfg.files {
        // Fig. 3: close file k-1 right before opening file k. The
        // close wait is re-attributed from `FlushWait` to the not-
        // hidden sync; the last close has nothing left to hide behind
        // and is charged only under `include_last_sync`.
        if let Some(f) = prev.take() {
            let t0 = now();
            f.close().await;
            let wait = now().since(t0).as_secs_f64();
            let p = f.profiler();
            p.take(Phase::FlushWait);
            if k < cfg.files || cfg.include_last_sync {
                not_hidden[k - 1] = wait;
                p.add(Phase::NotHiddenSync, SimDuration::from_secs_f64(wait));
            }
            rank_prof.merge_from(p);
        }
        if k == cfg.files {
            break;
        }
        // T_c is measured from when THIS rank becomes ready: under
        // compute jitter the collective's synchronisation absorbs the
        // arrival spread and it shows up in the perceived write time,
        // as on a real machine.
        let t0 = now();
        ctx.comm.barrier().await;
        e10_simcore::trace::emit(|| {
            e10_simcore::trace::Event::new(
                e10_simcore::trace::Layer::Workload,
                "io_phase",
                e10_simcore::trace::EventKind::Begin,
            )
            .rank(rank)
            .field("file", k)
        });
        let fd = AdioFile::open(ctx, &paths[k], &cfg.hints, true)
            .await
            .expect("collective open failed");
        is_agg = fd.my_agg_index().is_some();
        let mut bytes = 0;
        for view in views {
            let r = write_at_all(
                &fd,
                view,
                &DataSpec::FileGen {
                    seed: cfg.seed_base + k as u64,
                },
            )
            .await;
            bytes += r.bytes;
            if error_code == 0 {
                error_code = r.error_code;
            }
        }
        phases.push((bytes, now().since(t0).as_secs_f64()));
        e10_simcore::trace::emit(|| {
            e10_simcore::trace::Event::new(
                e10_simcore::trace::Layer::Workload,
                "io_phase",
                e10_simcore::trace::EventKind::End,
            )
            .rank(rank)
            .field("file", k)
            .field("bytes", bytes)
        });
        if k + 1 < cfg.files {
            // The compute phase C(k+1): background sync of file k
            // proceeds meanwhile. Per-rank jitter staggers the arrivals
            // at phase k+1.
            sleep(cfg.compute_delay.mul_f64(jitter.sample())).await;
        }
        prev = Some(fd);
    }
    RankPhases {
        phases,
        not_hidden,
        prof: rank_prof,
        is_agg,
        error_code,
    }
}

/// Check that each of `cfg`'s files on `tb`'s PFS holds exactly
/// `file_bytes` of its generator's bytes. Panics on a missing file or
/// a mismatch.
pub(crate) fn verify_files(tb: &Testbed, cfg: &RunConfig, file_bytes: u64) {
    for (k, path) in cfg.file_paths().iter().enumerate() {
        let ext = tb
            .pfs
            .file_extents(path)
            .unwrap_or_else(|| panic!("file {path} missing after run"));
        ext.verify_gen(cfg.seed_base + k as u64, 0, file_bytes)
            .unwrap_or_else(|e| panic!("verification of {path} failed: {e}"));
    }
}
