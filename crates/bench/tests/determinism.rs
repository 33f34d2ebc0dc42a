//! The worker pool's core guarantee: job count changes wall-clock
//! time only. Every simulation is constructed and run entirely inside
//! its worker thread and results are keyed by grid index, so figures
//! and gate documents must come out identical whether they ran on one
//! thread (`E10_JOBS=1`) or many (`E10_JOBS=8`). The explicit worker
//! counts below are the same code path the env var selects, minus the
//! process-global env mutation that would race with other tests.

use e10_bench::{hints_for, simulate, Case, Cli, Json, Scale, GATES};
use e10_simcore::alloc_gauge::CountingAlloc;
use e10_simcore::trace::counted;

/// `bench_perf` counts allocator calls; without the counting allocator
/// every count would be 0 and compare equal for nothing.
#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Every experiment at smoke scale passes its gate, and its document
/// minus `"host"` renders to the same bytes at 1 and 8 workers. A
/// figure row's document holds every point's virtual wall time,
/// bandwidth and phase breakdown to the bit (the printed tables round
/// them), so the breakdown figures are covered by the same comparison.
#[test]
fn every_gate_document_is_identical_at_1_and_8_jobs() {
    for gate in &GATES {
        let run = |jobs| (gate.run)(Scale::Test, jobs, &Cli::default());
        let (sequential, parallel) = (run(1), run(8));
        assert!(
            sequential.failures.is_empty(),
            "{}: {:?}",
            gate.name,
            sequential.failures
        );
        let rendered = sequential.doc.render();
        assert_eq!(
            rendered,
            parallel.doc.render(),
            "{} depends on the worker count",
            gate.name
        );
        if sequential.doc.get("points").is_some() {
            // Sanity: the figure actually contains the full grid.
            for combo in ["2_8K", "2_32K", "4_8K", "4_32K"] {
                assert!(
                    rendered.contains(combo),
                    "{}: missing combo {combo}",
                    gate.name
                );
            }
        }
        if gate.name == "bench_perf" {
            let Some(Json::Arr(cells)) = sequential.doc.get("cells") else {
                panic!("bench_perf has cells")
            };
            assert!(
                cells
                    .iter()
                    .all(|c| c.get("allocs").and_then(Json::as_f64) > Some(0.0)),
                "bench_perf must count allocator calls"
            );
        }
    }
}

/// The node-agg collective path (gather pre-phase, merged windows,
/// traffic counters) must be bit-deterministic across worker counts:
/// a counted Test-scale grid run under `E10_JOBS=1` and `E10_JOBS=8`
/// equivalents yields identical sim times, bandwidths and full counter
/// snapshots (the `node_agg` gate's document holds only six counters).
#[test]
fn node_agg_sweep_is_bit_identical_at_1_and_8_jobs() {
    let scale = Scale::Test;
    let sweep = |jobs: usize| -> Vec<String> {
        let mut grid: Vec<e10_simcore::Job<String>> = Vec::new();
        for aggs in scale.aggregators() {
            for cb in scale.cb_sizes() {
                grid.push(Box::new(move || {
                    let hints = hints_for(Case::Disabled, aggs, cb);
                    hints.set("e10_two_phase", "node_agg");
                    let (sim, counts) = counted(|| {
                        simulate(scale, scale.collperf(), hints, "/gfs/na_det", |_, _| {})
                    });
                    format!(
                        "{aggs}_{cb}: wall={:016x} bw={:016x} counters={:?}",
                        sim.outcome.wall_time.to_bits(),
                        sim.outcome.bandwidth.to_bits(),
                        counts.counters,
                    )
                }));
            }
        }
        e10_simcore::pool::run_jobs_on(jobs, grid)
    };
    let sequential = sweep(1);
    let parallel = sweep(8);
    assert!(sequential
        .iter()
        .all(|s| s.contains("coll.node_agg.merged_reqs")));
    assert_eq!(
        sequential, parallel,
        "node_agg sweep outcome depends on job count"
    );
}
