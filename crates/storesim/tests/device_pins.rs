//! The node-local devices pinned from the outside: the SSD and the NVM
//! at their presets run one fixed command mix through the public API —
//! sequential reads and writes, 4 and then 6 concurrent clones, and one
//! node stall under a fault schedule — and what they report is held to
//! constants: the virtual instant each phase ends at (to the bit), the
//! latency tallies, the run's calendar statistics and, under an
//! installed trace sink, every counter and sample the commands record.
//! How the device models are built may change; none of these may.

use std::rc::Rc;

use e10_faultsim::{FaultPlan, FaultSchedule};
use e10_simcore::trace::{self, MetricsRegistry, MetricsSnapshot, RingSink};
use e10_simcore::{join_all, now, run_with_stats, spawn, RunStats, SimDuration, SimRng, Tally};
use e10_storesim::{Nvm, NvmParams, Ssd, SsdParams};

/// The node the device is bound to; the stall phase targets it.
const NODE: usize = 5;

/// What one mix reports.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `now().as_secs_f64().to_bits()` at the end of each phase:
    /// sequential, 4 clones, 6 clones, stall.
    phases: [u64; 4],
    /// `(count, mean bits)` of the write latency tally.
    writes: (u64, u64),
    /// `(count, mean bits)` of the read latency tally.
    reads: (u64, u64),
}

/// What the installed metrics registry holds after one traced mix.
#[derive(Debug, PartialEq)]
struct Metrics {
    counters: Vec<(&'static str, u64)>,
    /// `(name, count, mean bits)`.
    samples: Vec<(&'static str, u64, u64)>,
    /// Trace events the ring recorded.
    events: u64,
}

fn pin(t: &Tally) -> (u64, u64) {
    (t.count(), t.mean().to_bits())
}

fn clock() -> u64 {
    now().as_secs_f64().to_bits()
}

/// Run the fixed command mix on `$dev` (an `Ssd` or an `Nvm`) and
/// return its [`Outcome`].
macro_rules! mix {
    ($dev:expr) => {{
        let dev = $dev;
        dev.set_node(NODE);
        let mut phases = [0u64; 4];
        // Sequential: growing writes and reads, one at a time.
        for i in 1..=8u64 {
            dev.write(i * 64 << 10).await;
            dev.read(i * 4 << 10).await;
        }
        phases[0] = clock();
        // 4, then 6, clones issue at one instant.
        for (p, (n, w, r)) in [(4u64, 1u64 << 20, 256u64 << 10), (6, 128 << 10, 1 << 20)]
            .into_iter()
            .enumerate()
        {
            let hs = (0..n)
                .map(|k| {
                    let d = dev.clone();
                    spawn(async move {
                        d.write(w + k * 4096).await;
                        d.read(r + k * 512).await;
                    })
                })
                .collect();
            join_all(hs).await;
            phases[1 + p] = clock();
        }
        // One stall of this node's device: the window covers only the
        // first command's issue instant.
        let t = now();
        let _faults = FaultSchedule::install(FaultPlan::new(3).ssd_stall(
            NODE,
            t..t + SimDuration::from_micros(1),
            1.0,
            SimDuration::from_millis(2),
        ));
        dev.write(4096).await;
        dev.read(4096).await;
        phases[3] = clock();
        Outcome {
            phases,
            writes: pin(&dev.write_latency()),
            reads: pin(&dev.read_latency()),
        }
    }};
}

fn ssd_mix() -> (Outcome, RunStats) {
    run_with_stats(async {
        mix!(Ssd::new(
            SsdParams::sata_scratch(),
            SimRng::stream(2016, 100_000)
        ))
    })
}

fn nvm_mix() -> (Outcome, RunStats) {
    run_with_stats(async {
        mix!(Nvm::new(
            NvmParams::optane_scratch(),
            SimRng::stream(2016, 130_000)
        ))
    })
}

/// The run's calendar statistics: `(events fired, events batched, heap
/// peak, tasks spawned, wakes coalesced)`.
fn calendar(s: &RunStats) -> [u64; 5] {
    [
        s.events_fired,
        s.events_batched,
        s.heap_peak,
        s.tasks_spawned,
        s.wakes_coalesced,
    ]
}

/// Run `mix` under a ring sink and a metrics registry.
fn traced(mix: fn() -> (Outcome, RunStats)) -> (Outcome, [u64; 5], Metrics) {
    let ring = Rc::new(RingSink::new(1 << 10));
    let metrics = Rc::new(MetricsRegistry::new());
    let guard = trace::install_with_metrics(ring.clone(), Rc::clone(&metrics));
    let (out, stats) = mix();
    drop(guard);
    let MetricsSnapshot { counters, tallies } = metrics.snapshot();
    let samples = tallies
        .iter()
        .map(|(k, t)| (*k, t.count(), t.mean().to_bits()))
        .collect();
    let m = Metrics {
        counters,
        samples,
        events: ring.recorded(),
    };
    (out, calendar(&stats), m)
}

const SSD: Outcome = Outcome {
    phases: [
        4578264307242351087,
        4585125975061366146,
        4589016319599535195,
        4589250848981672547,
    ],
    writes: (19, 4573416380659760690),
    reads: (19, 4575639962052139814),
};

const NVM: Outcome = Outcome {
    phases: [
        4571552820852023561,
        4573912957240732200,
        4575680919709951130,
        4576840322939256876,
    ],
    writes: (19, 4560856737103863435),
    reads: (19, 4554571674235774985),
};

/// The mixes' [`calendar`]s.
const SSD_CALENDAR: [u64; 5] = [99, 0, 6, 11, 0];
const NVM_CALENDAR: [u64; 5] = [92, 0, 6, 11, 0];

#[test]
fn ssd_mix_is_pinned() {
    let (out, stats) = ssd_mix();
    assert_eq!(out, SSD);
    assert_eq!(calendar(&stats), SSD_CALENDAR);
}

#[test]
fn nvm_mix_is_pinned() {
    let (out, stats) = nvm_mix();
    assert_eq!(out, NVM);
    assert_eq!(calendar(&stats), NVM_CALENDAR);
}

#[test]
fn traced_ssd_mix_records_pinned_metrics() {
    let (out, calendar, m) = traced(ssd_mix);
    assert_eq!(out, SSD, "tracing must not move virtual time");
    assert_eq!(calendar, SSD_CALENDAR, "nor the calendar");
    assert_eq!(
        m,
        Metrics {
            counters: vec![
                ("executor.polls", 91),
                ("faultsim.injected", 1),
                ("ssd.read_bytes", 7502336),
                ("ssd.write_bytes", 7430144),
            ],
            samples: vec![
                ("ssd.read_latency_s", 19, 4575639962052139814),
                ("ssd.write_latency_s", 19, 4573416380659760690),
            ],
            events: 232,
        }
    );
}

#[test]
fn traced_nvm_mix_records_pinned_metrics() {
    let (out, calendar, m) = traced(nvm_mix);
    assert_eq!(out, NVM, "tracing must not move virtual time");
    assert_eq!(calendar, NVM_CALENDAR, "nor the calendar");
    assert_eq!(
        m,
        Metrics {
            counters: vec![
                ("executor.polls", 94),
                ("faultsim.injected", 1),
                ("nvm.read_bytes", 7502336),
                ("nvm.write_bytes", 7430144),
            ],
            samples: vec![
                ("nvm.read_latency_s", 19, 4554571674235774985),
                ("nvm.write_latency_s", 19, 4560856737103863435),
            ],
            events: 238,
        }
    );
}
