//! Fault matrix: collective-write bandwidth under injected faults,
//! reported as overhead against the fault-free baseline, plus one
//! node-crash + journal-recovery case. Not part of the figure set —
//! this is the resilience probe behind `scripts/ci.sh`'s smoke gate.
//!
//! Test scale writes one file per cell instead of four; `--seed N`
//! (default 42) seeds the faults. The 2×4 cache × fault matrix runs on
//! the worker pool (each cell is an independent simulation). A faulted
//! run that fails verification panics; the gate fails if the crash
//! recovery loses data.

use std::fmt::Write as _;
use std::rc::Rc;

use e10_faultsim::{always, FaultPlan};
use e10_mpisim::Info;
use e10_romio::TestbedSpec;
use e10_simcore::pool::run_jobs_on;
use e10_simcore::{Job, SimDuration, SimTime};
use e10_workloads::{run_crash_recovery, CollPerf, CrashConfig, Workload};

use super::mode;
use crate::{simulate, Cli, Json, Report, Scale};

fn hints(cache: bool) -> Info {
    let h = Info::from_pairs([
        ("romio_cb_write", "enable"),
        ("cb_buffer_size", "8K"),
        ("striping_unit", "8K"),
    ]);
    if cache {
        h.set("e10_cache", "enable");
        h.set("e10_cache_discard_flag", "enable");
    }
    h
}

/// The fault kinds of the matrix. Probabilities are low enough that
/// retries absorb every RPC failure (exhaustion needs five misses in a
/// row) — faulted runs must still verify.
fn plan(kind: &str, fault_seed: u64) -> FaultPlan {
    let p = FaultPlan::new(fault_seed);
    match kind {
        "ssd_stall" => p.ssd_stall(1, always(), 0.5, SimDuration::from_micros(300)),
        "link_fault" => p.link_fault(None, None, always(), 0.05, SimDuration::from_micros(50)),
        "rpc_fail" => p.rpc_fail(None, always(), 0.25),
        other => panic!("unknown fault kind {other}"),
    }
}

/// One matrix cell: `(GB/s, simulated seconds, faults injected)`.
/// `kind = None` is the fault-free baseline.
fn sweep_once(
    scale: Scale,
    cache: bool,
    kind: Option<&'static str>,
    fault_seed: u64,
) -> (f64, f64, u64) {
    let path = if kind.is_some() {
        "/gfs/fsweep"
    } else {
        "/gfs/fsweep_ff"
    };
    let w = CollPerf::tiny([2, 2, 2]);
    let out = simulate(scale, w, hints(cache), path, |spec, cfg| {
        *spec = TestbedSpec::small(8, 4);
        // Keep the page cache small enough that cached writes drain to
        // the node SSD during the run — otherwise `ssd_stall` has no
        // injection point to hit at this workload size.
        spec.pagecache.dirty_limit = 1 << 10;
        cfg.files = if scale == Scale::Test { 1 } else { 4 };
        cfg.compute_delay = SimDuration::from_secs(2);
        cfg.include_last_sync = true;
        if let Some(k) = kind {
            cfg.faults = plan(k, fault_seed);
        }
    })
    .outcome;
    (out.gb_s(), out.wall_time, out.faults_injected)
}

struct CrashOutcome {
    ok: bool,
    crash_secs: f64,
    recovery_secs: f64,
    requeued: u64,
    killed: usize,
    base_wall: f64,
}

/// Crash + journal recovery: virtual cost of the recovery pass against
/// the wall time of a fault-free run of the same workload.
fn crash_case(fault_seed: u64) -> CrashOutcome {
    // Fault-free wall of the exact write sequence the crash harness
    // replays (collective writes + per-rank sync).
    let base_wall = e10_simcore::run(async move {
        let w = Rc::new(CollPerf::tiny([2, 2, 2]));
        let tb = TestbedSpec::small(w.procs(), 2).build();
        let handles: Vec<_> = tb
            .ctxs()
            .into_iter()
            .map(|ctx| {
                let w = Rc::clone(&w);
                e10_simcore::spawn(async move {
                    let f =
                        e10_romio::AdioFile::open(&ctx, "/gfs/fsweep_base", &crash_hints(), true)
                            .await
                            .unwrap();
                    for view in &w.writes(ctx.comm.rank()) {
                        let r = e10_romio::write_at_all(
                            &f,
                            view,
                            &e10_romio::DataSpec::FileGen { seed: fault_seed },
                        )
                        .await;
                        assert_eq!(r.error_code, 0);
                    }
                    f.file_sync().await;
                })
            })
            .collect();
        e10_simcore::join_all(handles).await;
        e10_simcore::now().since(SimTime::ZERO).as_secs_f64()
    });
    let (ok, crash_secs, recovery_secs, requeued, killed) = e10_simcore::run(async move {
        let w = Rc::new(CollPerf::tiny([2, 2, 2]));
        let tb = TestbedSpec::small(w.procs(), 2).build();
        let cfg = CrashConfig::after_writes(crash_hints(), "/gfs/fsweep_crash", fault_seed, 1);
        let out = run_crash_recovery(&tb, w as Rc<dyn Workload>, &cfg)
            .await
            .expect("crash plan is well-formed");
        let ok = out.verified.is_ok() && out.lost.is_empty() && out.failed.is_empty();
        let wall = e10_simcore::now().since(SimTime::ZERO).as_secs_f64();
        (
            ok,
            wall,
            out.recovery_secs,
            out.requeued_bytes(),
            out.killed_tasks,
        )
    });
    CrashOutcome {
        ok,
        crash_secs,
        recovery_secs,
        requeued,
        killed,
        base_wall,
    }
}

fn crash_hints() -> Info {
    let h = hints(true);
    h.set("e10_cache_flush_flag", "flush_onclose");
    h.set("e10_cache_journal", "enable");
    h
}

const KINDS: [&str; 3] = ["ssd_stall", "link_fault", "rpc_fail"];

pub(super) fn run(scale: Scale, jobs: usize, cli: &Cli) -> Report {
    let fault_seed = cli.seed.unwrap_or(42);
    let host0 = std::time::Instant::now();
    // The whole matrix as pool jobs, submitted cache-major so the
    // results come back in the printing order.
    let mut grid: Vec<Job<(f64, f64, u64)>> = Vec::new();
    for cache in [false, true] {
        for kind in std::iter::once(None).chain(KINDS.into_iter().map(Some)) {
            grid.push(Box::new(move || sweep_once(scale, cache, kind, fault_seed)));
        }
    }
    let results = run_jobs_on(jobs, grid);

    let mut rows = Vec::new();
    for (cache, per_cache) in [false, true]
        .into_iter()
        .zip(results.chunks(KINDS.len() + 1))
    {
        let (base_bw, base_wall, _) = per_cache[0];
        rows.push((cache, None, base_bw, base_wall, 0u64, 0.0));
        for (kind, &(bw, wall, injected)) in KINDS.into_iter().zip(&per_cache[1..]) {
            let overhead = 100.0 * (wall - base_wall) / base_wall;
            rows.push((cache, Some(kind), bw, wall, injected, overhead));
        }
    }
    let crash = crash_case(fault_seed);
    let host_secs = host0.elapsed().as_secs_f64();

    let doc = Json::obj([
        ("figure", Json::str("fault_sweep")),
        ("mode", Json::str(mode(scale))),
        ("seed", Json::U64(fault_seed)),
        (
            "rows",
            Json::arr(
                rows.iter()
                    .map(|&(cache, kind, bw, wall, injected, overhead)| {
                        Json::obj([
                            ("cache", Json::Bool(cache)),
                            ("fault", kind.map_or(Json::Null, Json::str)),
                            ("gb_s", Json::F64(bw)),
                            ("sim_wall_secs", Json::F64(wall)),
                            ("injected", Json::U64(injected)),
                            ("overhead_pct", Json::F64(overhead)),
                        ])
                    }),
            ),
        ),
        (
            "crash_recovery",
            Json::obj([
                ("verified", Json::Bool(crash.ok)),
                ("killed_tasks", Json::U64(crash.killed as u64)),
                ("requeued_bytes", Json::U64(crash.requeued)),
                ("recovery_secs", Json::F64(crash.recovery_secs)),
                ("wall_secs", Json::F64(crash.crash_secs)),
                ("fault_free_secs", Json::F64(crash.base_wall)),
            ]),
        ),
    ]);
    let mut text = format!("# fault_sweep mode={} seed={fault_seed}\n", mode(scale));
    for &(cache, kind, bw, wall, injected, overhead) in &rows {
        let label = if cache { "e10_cache" } else { "no_cache" };
        let _ = match kind {
            None => writeln!(
                text,
                "{label:>9} fault_free: bw_gbs={bw:.3} wall={wall:.3}s"
            ),
            Some(kind) => writeln!(
                text,
                "{label:>9} {kind:>10}: bw_gbs={bw:.3} wall={wall:.3}s injected={injected} \
                 overhead_pct={overhead:.1}",
            ),
        };
    }
    let _ = writeln!(
        text,
        "crash+recovery: killed_tasks={} requeued_kib={} recovery_s={:.4} \
         wall_s={:.3} fault_free_s={:.3} overhead_pct={:.1} verified={}",
        crash.killed,
        crash.requeued / 1024,
        crash.recovery_secs,
        crash.crash_secs,
        crash.base_wall,
        100.0 * (crash.crash_secs - crash.base_wall) / crash.base_wall,
        if crash.ok { "ok" } else { "FAILED" },
    );
    let _ = writeln!(text, "host_secs={host_secs:.1}");
    let mut failures = Vec::new();
    if !crash.ok {
        failures.push("fault_sweep: crash recovery FAILED".to_string());
    }
    Report {
        doc,
        host: Json::obj([("host_secs", Json::F64(host_secs))]),
        text,
        failures,
    }
}
