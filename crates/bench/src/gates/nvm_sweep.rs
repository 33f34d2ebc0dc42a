//! SSD-vs-NVM-vs-hybrid cache-tier sweep on the Fig. 4 coll_perf grid.
//!
//! Every grid cell runs both collective-write algorithms
//! (`e10_two_phase = extended | node_agg`) under all three
//! `e10_cache_class` values, with a metrics registry and verification
//! enabled. The grid is the Fig. 4 aggregator × buffer matrix with one
//! extra small-buffer column (16 KiB) so every scale exercises the
//! regime the byte-granular front-end targets, and the NVM mount is
//! deliberately sized to *half* the densest aggregator's per-file
//! footprint: the pure nvm class must overflow and degrade to
//! write-through, while hybrid spills its block tier to the SSD and
//! keeps caching.
//!
//! Two metrics drive the gate:
//!
//! * `cache.write_stall_ns / cache.write_bytes` — virtual stall per
//!   cached byte inside cache writes (fallocate metadata + page-cache
//!   copy on the SSD path; byte-granular device writes on the NVM
//!   front). Normalising per byte keeps the comparison honest when a
//!   capacity-pressured class caches fewer bytes. The nvm class must
//!   strictly reduce it on every small-buffer cell.
//! * aggregate bandwidth (`gb_s`) — hybrid must stay within 2 % of the
//!   better pure class on every cell: graceful spill must never lose
//!   to either a pure tier or a degraded one.
//!
//! The committed `BENCH_nvm.json` (quick scale, the default: a device
//! probe, not a figure regeneration) is the evidence for both.

use std::fmt::Write as _;

use e10_simcore::pool::run_jobs_on;
use e10_simcore::trace::counted;
use e10_simcore::Job;
use e10_workloads::Workload;

use crate::{combo_label, hints_for, simulate, Case, Cli, Json, Report, Scale};

/// The two cache-friendly collective-write algorithms (stock bypasses
/// the cache entirely, so it has no cache-write stall to compare).
const ALGOS: [&str; 2] = ["extended", "node_agg"];

/// Cache classes in presentation order; `ssd` is the baseline.
const CLASSES: [&str; 3] = ["ssd", "nvm", "hybrid"];

/// The sweep pins `e10_nvm_threshold` to the device crossover: below
/// ~20 KiB a byte-granular single-channel NVM write (~1 µs + b/0.575
/// GB/s) undercuts the SSD staging path (~30 µs fallocate + b/3 GB/s);
/// above it the block path wins. A cell is "small-buffer" when its
/// collective buffer is at most this, i.e. when its cache writes take
/// the front-end.
const SMALL_BUFFER: u64 = 16 << 10;

/// Hybrid's bandwidth may trail the better pure class by at most this
/// factor (device jitter plus the front file's metadata ops).
const HYBRID_TOLERANCE: f64 = 0.98;

/// The Fig. 4 buffer column plus a 16 KiB small-buffer column when the
/// scale's own grid has none (quick/full start at 1 MiB).
fn sweep_cbs(scale: Scale) -> Vec<u64> {
    let mut cbs = scale.cb_sizes();
    if !cbs.iter().any(|&c| c <= SMALL_BUFFER) {
        cbs.insert(0, SMALL_BUFFER);
    }
    cbs
}

/// A grid cell: aggregators, collective buffer size, algorithm.
type Key = (usize, u64, &'static str);

/// Stall metrics of one (cell, algorithm, class) run.
struct ClassStats {
    class: &'static str,
    gb_s: f64,
    sim_wall_secs: f64,
    /// Total virtual nanoseconds ranks spent blocked in cache writes.
    write_stall_ns: u64,
    /// Bytes staged through the byte-granular NVM front-end.
    front_write_bytes: u64,
    /// Bytes that entered the cache at all (front + block tiers).
    cache_write_bytes: u64,
}

impl ClassStats {
    fn stall_per_byte(&self) -> f64 {
        self.write_stall_ns as f64 / self.cache_write_bytes.max(1) as f64
    }
}

/// Run one cell × algorithm × class: cache enabled with immediate
/// flush (the paper's configuration), verification on, a metrics
/// registry to collect the cache layer's stall counters.
fn run_class(
    scale: Scale,
    algo: &'static str,
    class: &'static str,
    aggs: usize,
    cb: u64,
) -> ClassStats {
    let hints = hints_for(Case::Enabled, aggs, cb);
    hints.set("e10_two_phase", algo);
    hints.set("e10_cache_class", class);
    hints.set("e10_nvm_threshold", &SMALL_BUFFER.to_string());
    // Capacity pressure: the NVM mount holds half of what the densest
    // aggregator layout stages per file, so the pure nvm class runs
    // out mid-file (arbiter degrades it to write-through) while hybrid
    // overflows its block tier to the SSD and keeps absorbing writes.
    let max_aggs = *scale.aggregators().last().unwrap() as u64;
    let nvm_capacity = (scale.collperf().file_size() / (2 * max_aggs)).max(8 << 10);
    let path = format!("/gfs/nvm_sweep_{algo}_{class}");
    let (sim, snap) = counted(|| {
        simulate(scale, scale.collperf(), hints, &path, |spec, _| {
            spec.nvm_localfs.capacity = nvm_capacity;
        })
    });
    let outcome = sim.outcome;
    ClassStats {
        class,
        gb_s: outcome.gb_s(),
        sim_wall_secs: outcome.wall_time,
        write_stall_ns: snap.counter("cache.write_stall_ns"),
        front_write_bytes: snap.counter("cache.front_write_bytes"),
        cache_write_bytes: snap.counter("cache.write_bytes"),
    }
}

pub(super) fn run(scale: Scale, jobs: usize, _: &Cli) -> Report {
    eprintln!("nvm_sweep: scale={} jobs={jobs}", scale.name());
    let mut keys = Vec::new();
    let mut grid: Vec<Job<ClassStats>> = Vec::new();
    for aggs in scale.aggregators() {
        for cb in sweep_cbs(scale) {
            for algo in ALGOS {
                keys.push((aggs, cb, algo));
                for class in CLASSES {
                    grid.push(Box::new(move || {
                        eprintln!("  running {} {algo} {class} ...", combo_label(aggs, cb));
                        run_class(scale, algo, class, aggs, cb)
                    }));
                }
            }
        }
    }
    let stats = run_jobs_on(jobs, grid);
    let cells: Vec<(Key, &[ClassStats])> =
        keys.into_iter().zip(stats.chunks(CLASSES.len())).collect();

    // The gate. (Verification inside each run already proved all three
    // classes write byte-identical global files.)
    //
    // 1. On every small-buffer cell the nvm class must stage bytes
    //    through the byte-granular front and strictly reduce the
    //    cache-write stall *per cached byte* vs ssd: byte-granular
    //    device writes beat fallocate + page-cache staging for writes
    //    under the threshold, and the per-byte normalisation stops a
    //    capacity-degraded run (which caches less, so stalls less in
    //    total) from passing by accident.
    // 2. On every cell hybrid bandwidth must stay within
    //    `HYBRID_TOLERANCE` of the better pure class: routing each
    //    piece to its better tier — and spilling to the SSD instead of
    //    degrading when the NVM mount fills — must never lose.
    let mut failures = Vec::new();
    let (mut gate_nvm, mut gate_hybrid) = (true, true);
    for &((aggs, cb, algo), stats) in &cells {
        let combo = combo_label(aggs, cb);
        let (ssd, nvm, hy) = (&stats[0], &stats[1], &stats[2]);
        if cb <= SMALL_BUFFER
            && (nvm.front_write_bytes == 0 || nvm.stall_per_byte() >= ssd.stall_per_byte())
        {
            gate_nvm = false;
            failures.push(format!(
                "nvm_sweep at {combo} {algo}: nvm {:.3} ns/B (front {} B) !< ssd {:.3} ns/B",
                nvm.stall_per_byte(),
                nvm.front_write_bytes,
                ssd.stall_per_byte()
            ));
        }
        let best = ssd.gb_s.max(nvm.gb_s);
        if hy.gb_s < best * HYBRID_TOLERANCE {
            gate_hybrid = false;
            failures.push(format!(
                "nvm_sweep at {combo} {algo}: hybrid {:.3} GB/s < best pure {best:.3} GB/s - 2%",
                hy.gb_s
            ));
        }
    }

    let doc = Json::obj([
        ("bench", Json::str("nvm_cache_tier")),
        ("workload", Json::str("coll_perf")),
        ("scale", Json::str(scale.name())),
        ("procs", Json::U64(scale.procs() as u64)),
        ("nodes", Json::U64(scale.nodes() as u64)),
        ("small_buffer_bytes", Json::U64(SMALL_BUFFER)),
        ("nvm_threshold_bytes", Json::U64(SMALL_BUFFER)),
        ("hybrid_tolerance", Json::F64(HYBRID_TOLERANCE)),
        (
            "gate",
            Json::obj([
                (
                    "nvm_reduces_write_stall_per_byte_on_small_buffers_vs_ssd",
                    Json::Bool(gate_nvm),
                ),
                (
                    "hybrid_bandwidth_never_worse_than_best_pure_class",
                    Json::Bool(gate_hybrid),
                ),
                ("files_verified_byte_identical", Json::Bool(true)),
            ]),
        ),
        (
            "cells",
            Json::arr(cells.iter().map(|&((aggs, cb, algo), stats)| {
                Json::obj([
                    ("combo", Json::str(combo_label(aggs, cb))),
                    ("aggregators", Json::U64(aggs as u64)),
                    ("cb_size", Json::U64(cb)),
                    ("algo", Json::str(algo)),
                    ("small_buffer", Json::Bool(cb <= SMALL_BUFFER)),
                    (
                        "classes",
                        Json::arr(stats.iter().map(|s| {
                            Json::obj([
                                ("class", Json::str(s.class)),
                                ("gb_s", Json::F64(s.gb_s)),
                                ("sim_wall_secs", Json::F64(s.sim_wall_secs)),
                                ("write_stall_ns", Json::U64(s.write_stall_ns)),
                                ("front_write_bytes", Json::U64(s.front_write_bytes)),
                                ("cache_write_bytes", Json::U64(s.cache_write_bytes)),
                            ])
                        })),
                    ),
                ])
            })),
        ),
    ]);
    let mut text = format!(
        "{:<10} {:>9} {:>7} {:>16} {:>16} {:>10}\n",
        "combo", "algo", "class", "write_stall_ns", "front_bytes", "gb_s"
    );
    for &((aggs, cb, algo), stats) in &cells {
        for s in stats {
            let _ = writeln!(
                text,
                "{:<10} {:>9} {:>7} {:>16} {:>16} {:>10.3}",
                combo_label(aggs, cb),
                algo,
                s.class,
                s.write_stall_ns,
                s.front_write_bytes,
                s.gb_s
            );
        }
    }
    let _ = writeln!(
        text,
        "gate: nvm stall/byte < ssd on small buffers: {gate_nvm}; \
         hybrid bandwidth never worse: {gate_hybrid}"
    );
    Report {
        doc,
        host: Json::obj([("jobs", Json::U64(jobs as u64))]),
        text,
        failures,
    }
}
