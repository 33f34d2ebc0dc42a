//! Reproducibility: the simulation is a pure function of its seed.
//! Identical configurations must produce bit-identical bandwidths and
//! phase timings; different seeds must produce different jitter (and
//! thus different timings) but identical file contents.

use std::rc::Rc;

use e10_repro::prelude::*;

/// Bandwidth plus per-phase `(t_c, not_hidden)` pairs.
type Timings = (f64, Vec<(f64, f64)>);

fn run_once(seed: u64) -> Timings {
    run_once_traced(seed, TraceMode::Off).0
}

fn run_once_traced(seed: u64, trace: TraceMode) -> (Timings, Vec<e10_simcore::trace::Event>) {
    e10_simcore::run(async move {
        let mut spec = TestbedSpec::small(8, 4);
        spec.seed = seed;
        // Re-enable jitter so the seed matters.
        spec.pfs.disk.jitter_cv = 0.3;
        spec.pfs.server_jitter_cv = 0.4;
        let tb = spec.build();
        let w = Rc::new(CollPerf::tiny([2, 2, 2])) as Rc<dyn Workload>;
        let hints = Info::from_pairs([
            ("romio_cb_write", "enable"),
            ("cb_buffer_size", "8K"),
            ("striping_unit", "8K"),
            ("e10_cache", "enable"),
            ("e10_cache_discard_flag", "enable"),
        ]);
        let mut cfg = RunConfig::paper(hints, "/gfs/det");
        cfg.files = 2;
        cfg.compute_delay = SimDuration::from_secs(2);
        cfg.include_last_sync = true;
        cfg.hints.set("e10_trace", trace.as_str());
        let out = run_workload(&tb, w, &cfg).await;
        (
            (
                out.bandwidth,
                out.phases.iter().map(|p| (p.t_c, p.not_hidden)).collect(),
            ),
            out.trace.map(|t| t.events).unwrap_or_default(),
        )
    })
}

#[test]
fn identical_seeds_are_bit_identical() {
    let a = run_once(123);
    let b = run_once(123);
    assert_eq!(a.0.to_bits(), b.0.to_bits(), "bandwidth must be exact");
    for (pa, pb) in a.1.iter().zip(&b.1) {
        assert_eq!(pa.0.to_bits(), pb.0.to_bits());
        assert_eq!(pa.1.to_bits(), pb.1.to_bits());
    }
}

#[test]
fn different_seeds_differ_in_timing_not_in_content() {
    let a = run_once(1);
    let b = run_once(2);
    // Content correctness is checked inside run_workload (verify=true);
    // timings must differ because the jitter streams differ.
    assert_ne!(
        a.0.to_bits(),
        b.0.to_bits(),
        "different seeds should produce different jitter"
    );
}

#[test]
fn tracing_does_not_perturb_virtual_time() {
    // The structured-trace layer observes the simulation; nothing in
    // the simulation reads it back, so a fully traced run must land on
    // the same virtual-clock results bit for bit.
    let (off, no_events) = run_once_traced(77, TraceMode::Off);
    let (ring, events) = run_once_traced(77, TraceMode::Ring);
    assert!(no_events.is_empty(), "untraced run must record nothing");
    assert_eq!(off.0.to_bits(), ring.0.to_bits(), "bandwidth must be exact");
    for (pa, pb) in off.1.iter().zip(&ring.1) {
        assert_eq!(pa.0.to_bits(), pb.0.to_bits());
        assert_eq!(pa.1.to_bits(), pb.1.to_bits());
    }
    // The traced run saw the whole stack: events from at least four
    // distinct layers (executor, netsim, pfs, romio, ...).
    let layers: std::collections::BTreeSet<&'static str> =
        events.iter().map(|e| e.layer.name()).collect();
    assert!(
        layers.len() >= 4,
        "expected events from >=4 layers, got {layers:?}"
    );
    // And tracing twice is itself deterministic.
    let (_, events2) = run_once_traced(77, TraceMode::Ring);
    assert_eq!(events.len(), events2.len());
    for (a, b) in events.iter().zip(&events2) {
        assert_eq!(a.to_json(), b.to_json());
    }
}

/// Run with a full (crash-free) fault plan installed; `fault_seed`
/// varies the fault luck independently of the testbed seed.
fn run_once_faulted(seed: u64, fault_seed: u64) -> (Timings, u64) {
    e10_simcore::run(async move {
        let mut spec = TestbedSpec::small(8, 4);
        spec.seed = seed;
        spec.pfs.disk.jitter_cv = 0.3;
        spec.pfs.server_jitter_cv = 0.4;
        let tb = spec.build();
        let w = Rc::new(CollPerf::tiny([2, 2, 2])) as Rc<dyn Workload>;
        let hints = Info::from_pairs([
            ("romio_cb_write", "enable"),
            ("cb_buffer_size", "8K"),
            ("striping_unit", "8K"),
            ("e10_cache", "enable"),
            ("e10_cache_discard_flag", "enable"),
        ]);
        let mut cfg = RunConfig::paper(hints, "/gfs/fdet");
        cfg.files = 2;
        cfg.compute_delay = SimDuration::from_secs(2);
        cfg.include_last_sync = true;
        cfg.faults = FaultPlan::new(fault_seed)
            .ssd_stall(1, always(), 0.2, SimDuration::from_micros(300))
            .link_fault(None, None, always(), 0.05, SimDuration::from_micros(50))
            .rpc_fail(Some(0), always(), 0.02);
        let out = run_workload(&tb, w, &cfg).await;
        (
            (
                out.bandwidth,
                out.phases.iter().map(|p| (p.t_c, p.not_hidden)).collect(),
            ),
            out.faults_injected,
        )
    })
}

#[test]
fn same_fault_seed_is_bit_identical_different_seed_is_not() {
    let (a, inj_a) = run_once_faulted(123, 5);
    let (b, inj_b) = run_once_faulted(123, 5);
    assert_eq!(a.0.to_bits(), b.0.to_bits(), "bandwidth must be exact");
    assert_eq!(inj_a, inj_b, "identical fault draws");
    assert!(inj_a > 0, "the plan must actually inject faults");
    for (pa, pb) in a.1.iter().zip(&b.1) {
        assert_eq!(pa.0.to_bits(), pb.0.to_bits());
        assert_eq!(pa.1.to_bits(), pb.1.to_bits());
    }
    // Moving only the fault seed moves only the fault luck — timings
    // shift, file contents stay correct (verified inside run_workload).
    let (c, _) = run_once_faulted(123, 6);
    assert_ne!(a.0.to_bits(), c.0.to_bits(), "fault seed must matter");
}

#[test]
fn installed_but_silent_fault_plan_leaves_runs_bit_identical() {
    // A plan whose faults can never fire (window entirely in the past,
    // zero-probability RPC spec) must not perturb virtual time at all:
    // the schedule only draws from its own RNG streams at injection
    // points, and silent specs reach none.
    let baseline = run_once(123);
    let (silent, injected) = e10_simcore::run(async move {
        let mut spec = TestbedSpec::small(8, 4);
        spec.seed = 123;
        spec.pfs.disk.jitter_cv = 0.3;
        spec.pfs.server_jitter_cv = 0.4;
        let tb = spec.build();
        let w = Rc::new(CollPerf::tiny([2, 2, 2])) as Rc<dyn Workload>;
        let hints = Info::from_pairs([
            ("romio_cb_write", "enable"),
            ("cb_buffer_size", "8K"),
            ("striping_unit", "8K"),
            ("e10_cache", "enable"),
            ("e10_cache_discard_flag", "enable"),
        ]);
        let mut cfg = RunConfig::paper(hints, "/gfs/det");
        cfg.files = 2;
        cfg.compute_delay = SimDuration::from_secs(2);
        cfg.include_last_sync = true;
        let never = SimTime::ZERO..SimTime::ZERO; // empty window
        cfg.faults = FaultPlan::new(9)
            .ssd_stall(0, never.clone(), 1.0, SimDuration::from_secs(1))
            .rpc_fail(None, always(), 0.0);
        let out = run_workload(&tb, w, &cfg).await;
        let timings: Timings = (
            out.bandwidth,
            out.phases.iter().map(|p| (p.t_c, p.not_hidden)).collect(),
        );
        (timings, out.faults_injected)
    });
    assert_eq!(injected, 0, "silent plan must inject nothing");
    assert_eq!(baseline.0.to_bits(), silent.0.to_bits());
    for (pa, pb) in baseline.1.iter().zip(&silent.1) {
        assert_eq!(pa.0.to_bits(), pb.0.to_bits());
        assert_eq!(pa.1.to_bits(), pb.1.to_bits());
    }
}

#[test]
fn crash_recovery_is_deterministic() {
    use e10_repro::workloads::run_crash_recovery;
    let once = || {
        e10_simcore::run(async {
            let w = Rc::new(CollPerf::tiny([2, 2, 2]));
            let tb = TestbedSpec::small(w.procs(), 2).build();
            let hints = Info::from_pairs([
                ("cb_buffer_size", "4096"),
                ("striping_unit", "8192"),
                ("e10_cache", "enable"),
                ("e10_cache_flush_flag", "flush_onclose"),
                ("e10_cache_journal", "enable"),
            ]);
            let cfg = CrashConfig::after_writes(hints, "/gfs/cdet", 31, 1);
            let out = run_crash_recovery(&tb, w as Rc<dyn Workload>, &cfg)
                .await
                .unwrap();
            out.verified().unwrap();
            // The whole outcome, per-rank recovery reports included,
            // and the recovery time to the bit.
            (format!("{out:?}"), out.recovery_secs.to_bits())
        })
    };
    assert_eq!(once(), once());
}

/// The determinism anchor for the NVM device model: an `nvm` cache
/// class whose device is parameterised exactly like the SSD (same
/// bandwidths/latencies, one channel, same mount geometry, same RNG
/// stream base) and whose byte-granular front is disabled
/// (`e10_nvm_threshold = 0`) runs the identical operation sequence —
/// bandwidth and phase timings must match the `ssd` class bit for bit.
#[test]
fn nvm_class_with_ssd_equal_parameters_matches_ssd_bitwise() {
    use e10_storesim::NvmParams;
    let run_class = |class: &'static str| -> Timings {
        e10_simcore::run(async move {
            let mut spec = TestbedSpec::small(8, 4);
            spec.pfs.disk.jitter_cv = 0.3;
            spec.pfs.server_jitter_cv = 0.4;
            spec.nvm = NvmParams::matching_ssd(&spec.ssd);
            spec.nvm_localfs = spec.localfs.clone();
            spec.nvm_stream_base = 100_000; // the SSD streams' base
            let tb = spec.build();
            let w = Rc::new(CollPerf::tiny([2, 2, 2])) as Rc<dyn Workload>;
            let hints = Info::from_pairs([
                ("romio_cb_write", "enable"),
                ("cb_buffer_size", "8K"),
                ("striping_unit", "8K"),
                ("e10_cache", "enable"),
                ("e10_cache_discard_flag", "enable"),
                ("e10_cache_class", class),
                ("e10_nvm_threshold", "0"),
            ]);
            let mut cfg = RunConfig::paper(hints, "/gfs/anchor");
            cfg.files = 2;
            cfg.compute_delay = SimDuration::from_secs(2);
            cfg.include_last_sync = true;
            let out = run_workload(&tb, w, &cfg).await;
            (
                out.bandwidth,
                out.phases.iter().map(|p| (p.t_c, p.not_hidden)).collect(),
            )
        })
    };
    let ssd = run_class("ssd");
    let nvm = run_class("nvm");
    assert_eq!(
        ssd.0.to_bits(),
        nvm.0.to_bits(),
        "ssd vs nvm bandwidth: {} vs {}",
        ssd.0,
        nvm.0
    );
    assert_eq!(ssd.1.len(), nvm.1.len());
    for (pa, pb) in ssd.1.iter().zip(&nvm.1) {
        assert_eq!(pa.0.to_bits(), pb.0.to_bits());
        assert_eq!(pa.1.to_bits(), pb.1.to_bits());
    }
}

#[test]
fn event_counts_are_reproducible() {
    let count = |seed: u64| {
        let (_, stats) = e10_simcore::run_with_stats(async move {
            let mut spec = TestbedSpec::small(4, 2);
            spec.seed = seed;
            let tb = spec.build();
            let w = Rc::new(Ior {
                nprocs: 4,
                block_size: 16 << 10,
                transfer_size: 8 << 10,
                segments: 2,
            }) as Rc<dyn Workload>;
            let mut cfg = RunConfig::paper(
                Info::from_pairs([("romio_cb_write", "enable"), ("cb_buffer_size", "8K")]),
                "/gfs/evt",
            );
            cfg.files = 1;
            cfg.compute_delay = SimDuration::from_secs(1);
            cfg.include_last_sync = true;
            run_workload(&tb, w, &cfg).await;
        });
        (stats.events_fired, stats.tasks_spawned)
    };
    assert_eq!(count(9), count(9));
}
