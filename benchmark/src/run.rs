//! One workload in this process: the untraced run that yields the
//! end-to-end metrics (`--trace 0`) and the traced run that yields the
//! per-layer ledger (`--trace 1`), each with its self-checks.

use std::time::Instant;

use e10_romio::RomioHints;

use crate::drivers::{self, Cost};
use crate::layers::{self, Sources};
use crate::spans;
use crate::stats;
use crate::workloads::{self, Id, Inputs, Rep, Scale};

/// Set-ups timed in one burst; a burst runs before the first
/// repetition and after every repetition, so the samples span the run.
const SETUP_BURST: usize = 16;

/// A self-check the benchmark's own numbers failed.
#[derive(Debug)]
pub struct Breach(pub String);

/// Result of a `--trace 0` run.
pub struct EndToEnd {
    /// `(name, value)` for every end-to-end metric.
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Every timed repetition's host seconds, in order.
    pub host_s_samples: Vec<f64>,
    pub setup_s_samples: Vec<f64>,
    pub events: u64,
}

/// Result of a `--trace 1` run.
pub struct PerLayer {
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Allocator calls and events per operation of every driver.
    pub drivers: Vec<(&'static str, Cost)>,
    /// `sim_gb_s` over the paper's figure, where one exists.
    pub paper_ratio: Option<f64>,
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything between a seed and a simulation that is ready to run:
/// input generation (kernel, every rank's views, hints, fault plan),
/// hint validation, and assembling the simulated cluster once.
fn set_up(id: Id, scale: Scale, seed: u64) -> (Inputs, f64) {
    let t = Instant::now();
    let inp = workloads::inputs(id, scale, seed);
    RomioHints::from_info(&inp.cfg.hints).expect("benchmark hints are valid");
    let spec = inp.spec.clone();
    e10_simcore::run(async move {
        std::hint::black_box(spec.build().localfs.len());
    });
    (inp, t.elapsed().as_secs_f64())
}

/// What every repetition of one run must agree on, bit for bit.
fn exact(r: &Rep) -> (u64, u64, u64, u64) {
    (
        r.allocs,
        r.sim.sim_gb_s.to_bits(),
        r.sim.sim_durable_s.to_bits(),
        r.stats.events_fired,
    )
}

/// `--trace 0`: set up, then repeat the workload until `seconds` of
/// timed repetitions have been measured. There is no separate warm-up:
/// both timings are minima, which a slow first sample cannot move.
pub fn end_to_end(id: Id, scale: Scale, seed: u64, seconds: f64) -> Result<EndToEnd, Breach> {
    let mut setup_s_samples = Vec::new();
    let mut set_up_burst = || {
        let mut inp = None;
        for _ in 0..SETUP_BURST {
            let (i, s) = set_up(id, scale, seed);
            setup_s_samples.push(s);
            inp = Some(i);
        }
        inp.expect("SETUP_BURST > 0")
    };
    let inp = set_up_burst();

    let min_reps = if scale == Scale::Smoke { 1 } else { 2 };
    let mut reps: Vec<Rep> = Vec::new();
    let window = Instant::now();
    while reps.len() < min_reps || window.elapsed().as_secs_f64() < seconds {
        reps.push(workloads::run_rep(&inp, false));
        set_up_burst();
    }

    let first = &reps[0];
    for (i, r) in reps.iter().enumerate() {
        if exact(r) != exact(first) {
            return Err(Breach(format!(
                "{}: repetition {i} differs from repetition 0 in allocs/sim_gb_s/sim_durable_s/events: {:?} vs {:?}",
                id.name(),
                (r.allocs, r.sim.sim_gb_s, r.sim.sim_durable_s, r.stats.events_fired),
                (first.allocs, first.sim.sim_gb_s, first.sim.sim_durable_s, first.stats.events_fired),
            )));
        }
    }
    let host_s_samples: Vec<f64> = reps.iter().map(|r| r.host_s).collect();
    let metrics = vec![
        ("setup_s".to_string(), stats::min(&setup_s_samples)),
        ("host_s".to_string(), stats::min(&host_s_samples)),
        ("peak_rss_mb".to_string(), peak_rss_mb()),
        ("allocs".to_string(), first.allocs as f64),
        ("sim_gb_s".to_string(), first.sim.sim_gb_s),
        ("sim_durable_s".to_string(), first.sim.sim_durable_s),
    ];
    Ok(EndToEnd {
        metrics,
        attempted: reps.iter().map(|r| r.sim.ops).sum(),
        failed: reps.iter().map(|r| r.sim.failed_ops).sum(),
        host_s_samples,
        setup_s_samples,
        events: first.stats.events_fired,
    })
}

/// The workloads must still exercise what they were chosen for.
fn check_workload_shape(id: Id, src: &Sources) -> Result<(), Breach> {
    let counter = |name: &str| src.counter(name);
    match id {
        Id::CollperfDirect => {
            let stray: Vec<_> = src
                .traced_data()
                .metrics
                .counters
                .iter()
                .filter(|(k, v)| {
                    *v > 0
                        && ["cache.", "ssd.", "nvm.", "flush."]
                            .iter()
                            .any(|p| k.starts_with(p))
                })
                .collect();
            if !stray.is_empty() {
                return Err(Breach(format!(
                    "collperf_direct must bypass the cache and localfs, found {stray:?}"
                )));
            }
        }
        Id::FlashioNodeaggHybrid => {
            let (front, all) = (
                counter("cache.front_write_bytes"),
                counter("cache.write_bytes"),
            );
            if !(front > 0 && front < all) {
                return Err(Breach(format!(
                    "flashio_nodeagg_hybrid must split its bytes between the NVM front and the SSD tier: front {front} of {all}"
                )));
            }
        }
        Id::IorWriteRead => {
            let want = src.write_rounds;
            if src.traced.sim.write_rounds_seen != Some(want) {
                return Err(Breach(format!(
                    "ior_write_read: rank 0 saw {:?} write rounds, file domains give {want}",
                    src.traced.sim.write_rounds_seen
                )));
            }
            if src.traced.sim.read_cache_hit_bytes == 0 {
                return Err(Breach(
                    "ior_write_read: the cached read pass hit no cache".to_string(),
                ));
            }
        }
        Id::CollperfDegraded => {
            if src.traced.sim.faults_injected == 0 || counter("cache.retired") == 0 {
                return Err(Breach(format!(
                    "collperf_degraded must inject its device failures and retire caches: injected {}, retired {}",
                    src.traced.sim.faults_injected,
                    counter("cache.retired")
                )));
            }
        }
        Id::CollperfCached => {}
    }
    Ok(())
}

/// `--trace 1`: one untraced repetition as the base, one traced
/// repetition for the counters, then the layer drivers.
pub fn per_layer(id: Id, scale: Scale, seed: u64) -> Result<PerLayer, Breach> {
    let inp = workloads::inputs(id, scale, seed);
    let untraced = workloads::run_rep(&inp, false);
    spans::set_recording(true, 1);
    let traced = workloads::run_rep(&inp, true);

    // Tracing must never perturb virtual time.
    let sim = |r: &Rep| {
        (
            r.sim.sim_gb_s.to_bits(),
            r.sim.sim_durable_s.to_bits(),
            r.stats.events_fired,
        )
    };
    if sim(&traced) != sim(&untraced) {
        return Err(Breach(format!(
            "{}: traced repetition moved simulated results: {:?} vs untraced {:?}",
            id.name(),
            (
                traced.sim.sim_gb_s,
                traced.sim.sim_durable_s,
                traced.stats.events_fired
            ),
            (
                untraced.sim.sim_gb_s,
                untraced.sim.sim_durable_s,
                untraced.stats.events_fired
            ),
        )));
    }

    spans::set_recording(true, 0);
    let drivers = drivers::run_all(&inp, scale == Scale::Smoke);
    spans::set_recording(false, 0);

    let src = Sources {
        inp: &inp,
        untraced: &untraced,
        traced: &traced,
        drivers: &drivers,
        write_rounds: layers::write_rounds_per_file(&inp) * inp.cfg.files as u64,
    };
    check_workload_shape(id, &src)?;
    let metrics = layers::per_layer(&src);
    Ok(PerLayer {
        metrics,
        attempted: untraced.sim.ops + traced.sim.ops,
        failed: untraced.sim.failed_ops + traced.sim.failed_ops,
        drivers,
        paper_ratio: layers::paper_gb_s(id)
            .filter(|_| scale == Scale::Paper)
            .map(|paper| untraced.sim.sim_gb_s / paper),
    })
}
