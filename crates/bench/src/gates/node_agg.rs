//! Machine-readable comparison of the three collective-write
//! algorithms (`e10_two_phase = stock | extended | node_agg`) on the
//! Fig. 4 coll_perf grid.
//!
//! Every grid cell runs all three algorithms with a metrics registry
//! and verification enabled, then reports the shuffle-traffic counters the
//! collective engine emits: total and *inter-node* message counts and
//! bytes, plus the node-agg pre-phase telemetry (requests merged,
//! envelope/header bytes saved). The committed `BENCH_node_agg.json`
//! (quick scale, the default: a traffic probe, not a figure
//! regeneration) is the evidence that intra-node aggregation reduces
//! inter-node shuffle traffic while writing byte-identical files. The
//! gate fails unless node_agg strictly reduces inter-node shuffle
//! bytes AND messages vs extended on every cell.

use std::fmt::Write as _;

use e10_simcore::pool::run_jobs_on;
use e10_simcore::trace::counted;
use e10_simcore::Job;

use crate::{combo_label, hints_for, simulate, Case, Cli, Json, Report, Scale};

/// The three collective-write algorithms, in presentation order.
const ALGOS: [&str; 3] = ["stock", "extended", "node_agg"];

/// Shuffle-traffic counters of one (cell, algorithm) run.
struct AlgoStats {
    algo: &'static str,
    gb_s: f64,
    sim_wall_secs: f64,
    shuffle_msgs: u64,
    shuffle_bytes: u64,
    remote_msgs: u64,
    remote_bytes: u64,
    merged_reqs: u64,
    bytes_saved: u64,
}

/// Run one cell × algorithm: cache disabled (the traffic comparison is
/// about the exchange, not the write target), verification on, a
/// metrics registry to collect the engine's counters.
fn run_algo(scale: Scale, algo: &'static str, aggs: usize, cb: u64) -> AlgoStats {
    let hints = hints_for(Case::Disabled, aggs, cb);
    hints.set("e10_two_phase", algo);
    let path = format!("/gfs/node_agg_{algo}");
    let (sim, snap) = counted(|| simulate(scale, scale.collperf(), hints, &path, |_, _| {}));
    let outcome = sim.outcome;
    AlgoStats {
        algo,
        gb_s: outcome.gb_s(),
        sim_wall_secs: outcome.wall_time,
        shuffle_msgs: snap.counter("coll.shuffle.msgs"),
        shuffle_bytes: snap.counter("coll.shuffle.bytes"),
        remote_msgs: snap.counter("coll.shuffle.remote_msgs"),
        remote_bytes: snap.counter("coll.shuffle.remote_bytes"),
        merged_reqs: snap.counter("coll.node_agg.merged_reqs"),
        bytes_saved: snap.counter("coll.node_agg.shuffle_bytes_saved"),
    }
}

pub(super) fn run(scale: Scale, jobs: usize, _: &Cli) -> Report {
    eprintln!("node_agg: scale={} jobs={jobs}", scale.name());
    let mut combos = Vec::new();
    let mut grid: Vec<Job<AlgoStats>> = Vec::new();
    for aggs in scale.aggregators() {
        for cb in scale.cb_sizes() {
            combos.push((aggs, cb));
            for algo in ALGOS {
                grid.push(Box::new(move || {
                    eprintln!("  running {} {algo} ...", combo_label(aggs, cb));
                    run_algo(scale, algo, aggs, cb)
                }));
            }
        }
    }
    let stats = run_jobs_on(jobs, grid);
    let cells: Vec<((usize, u64), &[AlgoStats])> =
        combos.into_iter().zip(stats.chunks(ALGOS.len())).collect();

    // The gate: on a testbed where ranks share nodes, intra-node
    // aggregation must strictly reduce inter-node shuffle traffic —
    // both bytes and message count — against the extended algorithm,
    // in every grid cell. (Verification inside each run already proved
    // all three algorithms write byte-identical files.)
    let mut failures = Vec::new();
    for &((aggs, cb), stats) in &cells {
        let (ext, na) = (&stats[1], &stats[2]);
        if na.remote_bytes >= ext.remote_bytes || na.remote_msgs >= ext.remote_msgs {
            failures.push(format!(
                "node_agg at {}: node_agg remote {} msgs / {} B vs extended {} msgs / {} B",
                combo_label(aggs, cb),
                na.remote_msgs,
                na.remote_bytes,
                ext.remote_msgs,
                ext.remote_bytes
            ));
        }
    }
    let gate_ok = failures.is_empty();

    let doc = Json::obj([
        ("bench", Json::str("node_agg_traffic")),
        ("workload", Json::str("coll_perf")),
        ("scale", Json::str(scale.name())),
        ("procs", Json::U64(scale.procs() as u64)),
        ("nodes", Json::U64(scale.nodes() as u64)),
        (
            "gate",
            Json::obj([
                (
                    "node_agg_reduces_internode_traffic_vs_extended",
                    Json::Bool(gate_ok),
                ),
                ("files_verified_byte_identical", Json::Bool(true)),
            ]),
        ),
        (
            "cells",
            Json::arr(cells.iter().map(|&((aggs, cb), stats)| {
                Json::obj([
                    ("combo", Json::str(combo_label(aggs, cb))),
                    ("aggregators", Json::U64(aggs as u64)),
                    ("cb_size", Json::U64(cb)),
                    (
                        "algorithms",
                        Json::arr(stats.iter().map(|s| {
                            Json::obj([
                                ("algo", Json::str(s.algo)),
                                ("gb_s", Json::F64(s.gb_s)),
                                ("sim_wall_secs", Json::F64(s.sim_wall_secs)),
                                ("shuffle_msgs", Json::U64(s.shuffle_msgs)),
                                ("shuffle_bytes", Json::U64(s.shuffle_bytes)),
                                ("remote_msgs", Json::U64(s.remote_msgs)),
                                ("remote_bytes", Json::U64(s.remote_bytes)),
                                ("merged_reqs", Json::U64(s.merged_reqs)),
                                ("shuffle_bytes_saved", Json::U64(s.bytes_saved)),
                            ])
                        })),
                    ),
                ])
            })),
        ),
    ]);
    let mut text = format!(
        "{:<10} {:>10} {:>14} {:>14} {:>12} {:>12}\n",
        "combo", "algo", "remote_msgs", "remote_bytes", "merged", "saved_B"
    );
    for &((aggs, cb), stats) in &cells {
        for s in stats {
            let _ = writeln!(
                text,
                "{:<10} {:>10} {:>14} {:>14} {:>12} {:>12}",
                combo_label(aggs, cb),
                s.algo,
                s.remote_msgs,
                s.remote_bytes,
                s.merged_reqs,
                s.bytes_saved
            );
        }
    }
    let _ = writeln!(
        text,
        "gate (node_agg < extended inter-node traffic, every cell): {gate_ok}"
    );
    Report {
        doc,
        host: Json::obj([("jobs", Json::U64(jobs as u64))]),
        text,
        failures,
    }
}
