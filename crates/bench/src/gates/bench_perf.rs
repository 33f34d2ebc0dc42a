//! Raw-speed baseline: host wall-clock per simulated event and
//! allocator calls per event across the Fig-4 grid × collective-write
//! algorithm {extended, node_agg} × cache class {ssd, nvm}.
//!
//! The committed `BENCH_perf.json` (quick scale, the default) is the
//! machine-readable perf baseline future PRs regress against: the
//! simulation is deterministic and single-threaded, so events fired,
//! simulated wall time, bandwidth and allocator-call counts are
//! bit-stable for a fixed scale — only the `"host"` object depends on
//! the host. `--check BENCH_perf.json` gates all of them exactly and,
//! loosely, the densest cell's fastest wall-clock per event: at most
//! `WALL_TOLERANCE ×` the baseline's (hosts differ, and those runs are
//! the only wall samples taken without pool contention).
//!
//! Every cell runs sequentially on the calling thread, whatever the
//! worker count: allocator-call counts are only meaningful with one
//! simulation running in the counted window, and only in a binary that
//! installs [`e10_simcore::alloc_gauge::CountingAlloc`] (every zero
//! otherwise).
//!
//! The densest Fig-4 cell (most aggregators × largest collective
//! buffer, extended algorithm, ssd class) is re-run five times and
//! reported as the minimum: the CI host alternates between a fast
//! state and one about twice as slow, a median of three straddles the
//! two, and the fastest of five is the fast state's cost.

use std::time::Instant;

use e10_simcore::alloc_gauge;
use e10_workloads::Workload;

use crate::{combo_label, hints_for, simulate, Case, Cli, Json, Report, Scale};

/// Factor by which the densest cell's fastest wall-clock per event may
/// exceed the committed baseline before `--check` fails. Loose on
/// purpose: the baseline host and the CI host differ.
const WALL_TOLERANCE: f64 = 2.0;

/// Sequential runs of the densest cell; the fastest is reported.
const DENSEST_RUNS: usize = 5;

/// One grid cell: a Fig-4 combo × algorithm × cache class.
#[derive(Clone, Copy)]
struct Cell {
    aggregators: usize,
    cb_size: u64,
    algo: &'static str,
    class: &'static str,
}

/// One measured cell.
struct Measured {
    cell: Cell,
    /// Calendar events fired (deterministic).
    events: u64,
    /// Simulated seconds (deterministic).
    sim_wall_secs: f64,
    /// Perceived bandwidth, GB/s (deterministic).
    gb_s: f64,
    /// Allocator calls over the whole run (deterministic; 0 when not
    /// counted).
    allocs: u64,
    /// Host seconds for this run (noisy; only the densest cell's
    /// fastest is reported).
    host_secs: f64,
}

fn grid(scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for algo in ["extended", "node_agg"] {
        for class in ["ssd", "nvm"] {
            for aggregators in scale.aggregators() {
                for cb_size in scale.cb_sizes() {
                    cells.push(Cell {
                        aggregators,
                        cb_size,
                        algo,
                        class,
                    });
                }
            }
        }
    }
    cells
}

/// Run one cell in a fresh simulated cluster. Deterministic for a
/// fixed scale and cell, bar `host_secs`.
fn run_cell(scale: Scale, cell: Cell) -> Measured {
    let t0 = Instant::now();
    let workload = scale.collperf();
    let path = format!("/gfs/{}", workload.name());
    let hints = hints_for(Case::Enabled, cell.aggregators, cell.cb_size);
    hints.set("e10_two_phase", cell.algo);
    hints.set("e10_cache_class", cell.class);
    let sim = simulate(scale, workload, hints, &path, |_, _| {});
    Measured {
        cell,
        events: sim.events,
        sim_wall_secs: sim.outcome.wall_time,
        gb_s: sim.outcome.gb_s(),
        allocs: 0,
        host_secs: t0.elapsed().as_secs_f64(),
    }
}

pub(super) fn run(scale: Scale, _: usize, cli: &Cli) -> Report {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cells = grid(scale);
    eprintln!(
        "bench_perf: scale={} cells={} host_cpus={host_cpus}",
        scale.name(),
        cells.len()
    );

    // Every cell in grid order on this thread, counted. One uncounted
    // warm-up run first, so this thread's lazy statics and
    // thread-locals are initialised before the first counted cell.
    run_cell(scale, cells[0]);
    let measured: Vec<Measured> = cells
        .iter()
        .map(|&cell| {
            let (allocs, m) = alloc_gauge::count(|| run_cell(scale, cell));
            Measured { allocs, ..m }
        })
        .collect();

    // Densest-cell probe: most aggregators × largest collective buffer
    // on the baseline algorithm/class, fastest of `DENSEST_RUNS`.
    let densest = Cell {
        aggregators: *scale.aggregators().last().unwrap(),
        cb_size: *scale.cb_sizes().last().unwrap(),
        algo: "extended",
        class: "ssd",
    };
    let runs: Vec<Measured> = (0..DENSEST_RUNS)
        .map(|_| run_cell(scale, densest))
        .collect();
    let densest_combo = combo_label(densest.aggregators, densest.cb_size);
    let densest_events = runs[0].events;
    let fastest = runs
        .iter()
        .map(|r| r.host_secs)
        .fold(f64::INFINITY, f64::min);
    let densest_min_ns = fastest * 1e9 / densest_events.max(1) as f64;
    eprintln!(
        "bench_perf: densest {densest_combo} extended/ssd min {densest_min_ns:.1} ns/event \
         over {densest_events} events"
    );

    // Wall-clock gate on the densest cell's minimum only: every other
    // wall sample ran under pool contention and a loaded CI host, so
    // per-cell wall comparisons would only flake. The rest of the
    // document is `--check`ed exactly by `finish`.
    let mut failures = Vec::new();
    if let Some(base) = cli.baseline() {
        let b_wall = base
            .get("host")
            .and_then(|h| h.get("wall_densest_min_ns_per_event"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::INFINITY);
        if densest_min_ns > b_wall * WALL_TOLERANCE {
            failures.push(format!(
                "bench_perf: densest min {densest_min_ns:.1} ns/event > \
                 {WALL_TOLERANCE}x baseline {b_wall:.1}"
            ));
        }
    }

    let doc = Json::obj([
        ("bench", Json::str("perf_baseline")),
        ("workload", Json::str("coll_perf")),
        ("scale", Json::str(scale.name())),
        ("procs", Json::U64(scale.procs() as u64)),
        ("nodes", Json::U64(scale.nodes() as u64)),
        ("densest_combo", Json::str(densest_combo)),
        ("densest_events", Json::U64(densest_events)),
        ("wall_tolerance", Json::F64(WALL_TOLERANCE)),
        (
            "cells",
            Json::arr(measured.iter().map(|m| {
                Json::obj([
                    (
                        "combo",
                        Json::str(combo_label(m.cell.aggregators, m.cell.cb_size)),
                    ),
                    ("aggregators", Json::U64(m.cell.aggregators as u64)),
                    ("cb_size", Json::U64(m.cell.cb_size)),
                    ("algo", Json::str(m.cell.algo)),
                    ("class", Json::str(m.cell.class)),
                    ("events", Json::U64(m.events)),
                    ("sim_wall_secs", Json::F64(m.sim_wall_secs)),
                    ("gb_s", Json::F64(m.gb_s)),
                    ("allocs", Json::U64(m.allocs)),
                    (
                        "allocs_per_event",
                        Json::F64(m.allocs as f64 / m.events.max(1) as f64),
                    ),
                ])
            })),
        ),
    ]);
    let host = Json::obj([
        ("host_cpus", Json::U64(host_cpus as u64)),
        ("wall_densest_min_ns_per_event", Json::F64(densest_min_ns)),
    ]);
    Report {
        doc,
        host,
        text: String::new(),
        failures,
    }
}
