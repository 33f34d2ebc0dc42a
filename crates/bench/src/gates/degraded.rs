//! Degraded-mode survivability sweep: failure intensity × cache class
//! × collective-write algorithm.
//!
//! Every cell replays the coll_perf kernel through the chaos-soak
//! oracle harness on a 2-node testbed, for each `e10_cache_class`
//! (ssd / nvm / hybrid) and each cache-friendly `e10_two_phase`
//! algorithm (extended / node_agg), under five failure arms of rising
//! intensity:
//!
//! * `none`       — no faults, tolerance machinery off (defaults).
//! * `none_ft`    — no faults, crash-tolerant engine forced on via
//!   `e10_coll_timeout=40`. Idle tolerance must be byte-transparent.
//! * `device`     — a permanent cache-device failure at 2 ms (the NVM
//!   front for the hybrid class: it must spill to the SSD tier, the
//!   pure classes retire to write-through).
//! * `crash`      — a full node crash at 8 ms, landing inside the last
//!   file's collective-write window; survivors shrink, re-elect
//!   aggregators and redo rounds, then the dead node's cache journals
//!   are recovered.
//! * `device_crash` — both: the device dies on one node and the
//!   *other* node crashes mid-collective.
//!
//! Three gates, committed as `BENCH_degraded.json`:
//!
//! 1. **survival** — every cell completes with every acknowledged
//!    byte verified (`verdict != diverged`, no acked violations), and
//!    the fault arms actually injected their faults.
//! 2. **byte identity** — the zero-failure arms are bit-identical:
//!    per (class, algorithm), `none` and `none_ft` produce identical
//!    per-file digests and both end `clean`. Turning the tolerance
//!    machinery on must not move a single byte when nothing fails.
//! 3. **clean baselines** — the `none` arm is `clean` in every cell
//!    (the harness itself is a valid oracle on this grid).
//!
//! The grid is test-sized at every scale; the scale only names the
//! recorded `mode` (`smoke` at test scale).

use std::fmt::Write as _;

use e10_faultsim::{DeviceClass, FaultPlan};
use e10_romio::{CacheClass, TwoPhaseAlgo};
use e10_simcore::pool::run_jobs_on;
use e10_simcore::{Job, SimDuration, SimTime};
use e10_workloads::{probe_with_plan, ChaosCase, ChaosReport, ChaosVerdict, ChaosWorkload};

use super::mode;
use crate::{Cli, Json, Report, Scale};

/// Cache classes in presentation order.
const CLASSES: [CacheClass; 3] = [CacheClass::Ssd, CacheClass::Nvm, CacheClass::Hybrid];

/// The two cache-friendly collective-write algorithms (stock bypasses
/// the cache, so it has no degraded mode to probe).
const ALGOS: [TwoPhaseAlgo; 2] = [TwoPhaseAlgo::Extended, TwoPhaseAlgo::NodeAgg];

/// Failure arms in rising intensity order.
const ARMS: [&str; 5] = ["none", "none_ft", "device", "crash", "device_crash"];

/// The node whose cache device fails (hosts ranks, keeps running).
const DEVICE_NODE: usize = 0;

/// The node that crashes (the *other* one, so `device_crash` degrades
/// two nodes in two different ways at once).
const CRASH_NODE: usize = 1;

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// The device class that fails for a given cache class: pure classes
/// lose their own tier, hybrid loses the NVM front (and must spill to
/// the still-healthy SSD).
fn failing_device(class: CacheClass) -> DeviceClass {
    match class {
        CacheClass::Nvm | CacheClass::Hybrid => DeviceClass::Nvm,
        CacheClass::Ssd => DeviceClass::Ssd,
    }
}

struct Cell {
    class: CacheClass,
    algo: TwoPhaseAlgo,
    arm: &'static str,
    report: ChaosReport,
}

fn cell_case(class: CacheClass, algo: TwoPhaseAlgo, arm: &str, seed: u64) -> ChaosCase {
    let mut case = ChaosCase::new(seed);
    case.workload = ChaosWorkload::CollPerf;
    case.cache_class = class;
    case.two_phase = algo;
    // The zero-fault "forced tolerant" arm pins the crash-tolerant
    // engine on with no crash declared; the crash arms get the same
    // timeout automatically from the runner.
    if arm == "none_ft" {
        case.coll_timeout_ms = 40;
    }
    case
}

fn cell_plan(class: CacheClass, arm: &str, seed: u64) -> FaultPlan {
    let plan = FaultPlan::new(seed);
    match arm {
        "none" | "none_ft" => plan,
        "device" => plan.device_fail(DEVICE_NODE, failing_device(class), at_ms(2)),
        "crash" => plan.node_crash(CRASH_NODE, at_ms(8)),
        _ => plan
            .device_fail(DEVICE_NODE, failing_device(class), at_ms(2))
            .node_crash(CRASH_NODE, at_ms(8)),
    }
}

pub(super) fn run(scale: Scale, jobs: usize, _: &Cli) -> Report {
    let host0 = std::time::Instant::now();
    let mut grid: Vec<Job<Cell>> = Vec::new();
    for (ci, &class) in CLASSES.iter().enumerate() {
        for (ai, &algo) in ALGOS.iter().enumerate() {
            // One seed per (class, algo), shared by all five arms: the
            // byte-identity gate compares digests across arms, so the
            // generated data must match.
            let seed = 9000 + 10 * ci as u64 + ai as u64;
            for arm in ARMS {
                grid.push(Box::new(move || Cell {
                    class,
                    algo,
                    arm,
                    report: probe_with_plan(
                        &cell_case(class, algo, arm, seed),
                        &cell_plan(class, arm, seed),
                    ),
                }));
            }
        }
    }
    let cells = run_jobs_on(jobs, grid);
    let host_secs = host0.elapsed().as_secs_f64();

    // --- gate 1: survival ------------------------------------------------
    let mut failures: Vec<String> = Vec::new();
    for c in &cells {
        let label = format!("{}/{}/{}", c.class.as_str(), c.algo.as_str(), c.arm);
        if c.report.verdict == ChaosVerdict::Diverged {
            failures.push(format!(
                "{label}: DIVERGED — acked bytes lost: {:?}",
                c.report.acked_violations
            ));
        }
        if c.arm != "none" && c.arm != "none_ft" && c.report.injected == 0 {
            failures.push(format!("{label}: declared faults never injected"));
        }
        if c.report.file_digests.iter().any(Option::is_none) {
            failures.push(format!("{label}: a global file is missing"));
        }
    }

    // --- gates 2+3: zero-failure byte identity + clean baselines ---------
    // Each (class, algo) block holds its five arms in `ARMS` order.
    for block in cells.chunks(ARMS.len()) {
        let (none, ft) = (&block[0].report, &block[1].report);
        let label = format!("{}/{}", block[0].class.as_str(), block[0].algo.as_str());
        if none.verdict != ChaosVerdict::Clean {
            failures.push(format!(
                "{label}/none: baseline not clean ({})",
                none.verdict.name()
            ));
        }
        if ft.verdict != ChaosVerdict::Clean {
            failures.push(format!(
                "{label}/none_ft: idle tolerance not clean ({})",
                ft.verdict.name()
            ));
        }
        if none.file_digests != ft.file_digests {
            failures.push(format!(
                "{label}: idle crash-tolerant engine changed bytes ({:?} vs {:?})",
                none.file_digests, ft.file_digests
            ));
        }
    }

    let survived = cells
        .iter()
        .filter(|c| c.report.verdict != ChaosVerdict::Diverged)
        .count() as u64;
    let injected: u64 = cells.iter().map(|c| c.report.injected).sum();

    let doc = Json::obj([
        ("figure", Json::str("degraded")),
        ("mode", Json::str(mode(scale))),
        ("cells", Json::U64(cells.len() as u64)),
        ("survived", Json::U64(survived)),
        ("injected", Json::U64(injected)),
        ("gate_failures", Json::U64(failures.len() as u64)),
        (
            "rows",
            Json::arr(cells.iter().map(|c| {
                Json::obj([
                    ("cache_class", Json::str(c.class.as_str())),
                    ("algo", Json::str(c.algo.as_str())),
                    ("arm", Json::str(c.arm)),
                    ("seed", Json::U64(c.report.seed)),
                    ("verdict", Json::str(c.report.verdict.name())),
                    ("injected", Json::U64(c.report.injected)),
                    ("rank_errors", Json::U64(c.report.rank_errors.len() as u64)),
                    (
                        "acked_violations",
                        Json::U64(c.report.acked_violations.len() as u64),
                    ),
                    (
                        "file_digests",
                        Json::arr(
                            c.report
                                .file_digests
                                .iter()
                                .map(|d| d.map_or(Json::Null, Json::U64)),
                        ),
                    ),
                ])
            })),
        ),
    ]);
    let mut text = format!("# degraded mode={} cells={}\n", mode(scale), cells.len());
    for c in &cells {
        let _ = writeln!(
            text,
            "{:>6} {:>8} {:>12} seed={} {:>9} injected={:>3} errors={} violations={}",
            c.class.as_str(),
            c.algo.as_str(),
            c.arm,
            c.report.seed,
            c.report.verdict.name(),
            c.report.injected,
            c.report.rank_errors.len(),
            c.report.acked_violations.len(),
        );
    }
    let _ = writeln!(
        text,
        "cells={} survived={survived} injected={injected} host_secs={host_secs:.1}",
        cells.len()
    );
    Report {
        doc,
        host: Json::obj([("host_secs", Json::F64(host_secs))]),
        text,
        failures,
    }
}
