//! The parallel sweep engine's core guarantee: job count changes
//! wall-clock time only. Every simulation is constructed and run
//! entirely inside its worker thread and results are keyed by grid
//! index, so the figures must come out byte-identical whether the
//! sweep ran on one thread (`E10_JOBS=1`) or many (`E10_JOBS=8`).
//! The explicit-worker-count entry points are the same code path the
//! env var selects, minus the process-global env mutation that would
//! race with other tests.

use e10_bench::{
    format_bandwidth_figure, format_breakdown_figure, run_full_sweep_on, run_sweep_on, Case, Scale,
};

#[test]
fn fig4_output_is_byte_identical_at_1_and_8_jobs() {
    let scale = Scale::Test;
    let title = "Fig. 4 — coll_perf perceived bandwidth (aggregators_collbuf)";
    // The rendered figure, and under it each point's virtual wall time
    // and bandwidth to the bit (the figure prints rounded numbers).
    let sweep = |jobs| {
        let points = run_full_sweep_on(jobs, scale, move || scale.collperf(), false);
        let bits: Vec<(u64, u64)> = points
            .iter()
            .map(|p| (p.outcome.wall_time.to_bits(), p.outcome.gb_s().to_bits()))
            .collect();
        (format_bandwidth_figure(title, &points), bits)
    };
    let sequential = sweep(1);
    let parallel = sweep(8);
    // Sanity: the figure actually contains the full grid.
    for combo in ["2_8K", "2_32K", "4_8K", "4_32K"] {
        assert!(sequential.0.contains(combo), "missing combo {combo}");
    }
    assert_eq!(sequential, parallel, "fig4 output depends on job count");
}

/// The node-agg collective path (gather pre-phase, merged windows,
/// traffic counters) must be bit-deterministic across worker counts:
/// a traced Test-scale grid run under `E10_JOBS=1` and `E10_JOBS=8`
/// equivalents yields identical sim times, bandwidths and counter
/// snapshots.
#[test]
fn node_agg_sweep_is_bit_identical_at_1_and_8_jobs() {
    use std::rc::Rc;

    use e10_bench::paper_base_hints;
    use e10_romio::{TestbedSpec, TraceMode};
    use e10_workloads::{run_workload, CollPerf, RunConfig, Workload};

    let scale = Scale::Test;
    let sweep = |jobs: usize| -> Vec<String> {
        let mut grid: Vec<e10_simcore::Job<String>> = Vec::new();
        for aggs in scale.aggregators() {
            for cb in scale.cb_sizes() {
                grid.push(Box::new(move || {
                    let outcome = e10_simcore::run(async move {
                        let workload = Rc::new(scale.workload::<CollPerf>());
                        let mut spec = TestbedSpec::deep_er();
                        spec.procs = workload.procs();
                        spec.nodes = scale.nodes();
                        let tb = spec.build();
                        let hints = paper_base_hints();
                        hints.set("cb_nodes", &aggs.to_string());
                        hints.set("cb_buffer_size", &cb.to_string());
                        hints.set("e10_two_phase", "node_agg");
                        let mut cfg = RunConfig::paper(hints, "/gfs/na_det");
                        cfg.files = scale.files();
                        cfg.compute_delay = scale.compute_delay();
                        cfg.trace.mode = TraceMode::Ring;
                        run_workload(&tb, workload, &cfg).await
                    });
                    format!(
                        "{aggs}_{cb}: wall={:016x} bw={:016x} counters={:?}",
                        outcome.wall_time.to_bits(),
                        outcome.bandwidth.to_bits(),
                        outcome.metrics.expect("traced run has metrics").counters,
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

#[test]
fn breakdown_output_is_byte_identical_at_1_and_8_jobs() {
    let scale = Scale::Test;
    let sweep = |jobs| {
        let points = run_sweep_on(jobs, scale, move || scale.collperf(), Case::Enabled, false);
        format_breakdown_figure("breakdown", &points)
    };
    assert_eq!(sweep(1), sweep(8), "breakdown output depends on job count");
}
