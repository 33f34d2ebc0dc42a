//! Chaos-soak harness: long randomized, seeded fault schedules judged
//! by the acked-byte oracle.
//!
//! Each soak case replays one of the paper's write kernels once, under
//! a [`random_plan`] of corruption/stall/RPC/device-failure faults —
//! which since the degraded-mode work may include a permanent
//! [`FaultSpec::DeviceFail`], a [`FaultSpec::SyncThreadKill`] and a
//! mid-run [`FaultSpec::NodeCrash`] — drawn from the case seed. The
//! gold invariant is then checked by [`crash::execute`]'s acked-byte
//! oracle (`Executed::acked_bad`):
//!
//! > every byte the run **acknowledged** reads back as the generator's,
//! > after survivor completion and journal recovery of any crashed
//! > node, and no divergence goes unreported.
//!
//! Without a crash and without an error every view was acked, and the
//! kernels' views tile the file, so the oracle then holds exactly when
//! the file equals a fault-free run's.
//!
//! A run that diverges *silently* — acked bytes wrong and nobody was
//! told — is the one outcome the integrity pipeline must make
//! impossible; [`ChaosVerdict::Diverged`] reports it, and
//! [`shrink_plan`] bisects the failing schedule down to a minimal set
//! of fault specs that still reproduces the divergence, so a soak
//! failure arrives as a small deterministic repro instead of a 5-spec
//! haystack.
//!
//! Everything is seed-deterministic: the same [`ChaosCase`] produces
//! bit-identical verdicts regardless of how many soak jobs run in
//! parallel (each case builds its own testbed on its own thread).

use std::rc::Rc;

use e10_faultsim::{always, DeviceClass, FaultPlan, FaultSpec};
use e10_localfs::Tear;
use e10_mpisim::Info;
use e10_romio::{CacheClass, RecoverError, TestbedSpec, TwoPhaseAlgo};
use e10_simcore::trace;
use e10_simcore::{SimDuration, SimRng, SimTime};

use crate::crash::{self, Gate};
use crate::{CollPerf, Ior, Workload};

/// Compute nodes in every soak testbed.
const NODES: usize = 2;

/// Files written back-to-back (flush rounds between which the scrubber
/// gets a chance to run).
const FILES: u64 = 2;

/// `e10_integrity_scrub_ms` of every soak run.
const SCRUB_MS: u64 = 20;

/// Which write kernel a chaos case replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosWorkload {
    /// IOR segmented collective pattern, 4 ranks.
    Ior,
    /// MPICH coll_perf 3-D block pattern, 8 ranks.
    CollPerf,
}

impl ChaosWorkload {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosWorkload::Ior => "ior",
            ChaosWorkload::CollPerf => "collperf",
        }
    }

    fn build(&self) -> Rc<dyn Workload> {
        match self {
            ChaosWorkload::Ior => Rc::new(Ior::tiny(4)),
            ChaosWorkload::CollPerf => Rc::new(CollPerf::tiny([2, 2, 2])),
        }
    }
}

/// One soak case: a kernel, its hints and the seed that drives both the
/// fault schedule and the generated data.
#[derive(Debug, Clone, Copy)]
pub struct ChaosCase {
    /// The kernel to replay.
    pub workload: ChaosWorkload,
    /// Seed for [`random_plan`] and the data generator.
    pub seed: u64,
    /// `e10_integrity` hint. Soaks run with it on; turning it off
    /// exists so the harness can prove to itself that the oracle
    /// *does* flag silent corruption when nothing defends against it.
    pub integrity: bool,
    /// `e10_cache_class` hint: which device tier stages the cache.
    /// Soaking every class runs the scrub/verify/repair ladder over
    /// the byte-granular NVM front and the hybrid split as well as the
    /// default SSD extent path.
    pub cache_class: CacheClass,
    /// `e10_two_phase` hint: which collective-write algorithm runs.
    pub two_phase: TwoPhaseAlgo,
    /// `e10_coll_timeout` (milliseconds). 0 means automatic:
    /// crash-bearing plans enable the crash-tolerant collective engine
    /// with a margin-safe 40 ms, crash-free plans keep the stock
    /// dispatch. Non-zero forces the tolerant engine even without
    /// crashes (the `degraded` bench uses this to pin tolerant-idle
    /// bytes == stock bytes).
    pub coll_timeout_ms: u64,
}

impl ChaosCase {
    /// Default soak shape for `seed`: IOR with integrity on.
    pub fn new(seed: u64) -> ChaosCase {
        ChaosCase {
            workload: ChaosWorkload::Ior,
            seed,
            integrity: true,
            cache_class: CacheClass::Ssd,
            two_phase: TwoPhaseAlgo::Extended,
            coll_timeout_ms: 0,
        }
    }

    /// The same soak shape staged on `class` instead of the SSD.
    pub fn with_class(seed: u64, class: CacheClass) -> ChaosCase {
        let mut c = ChaosCase::new(seed);
        c.cache_class = class;
        c
    }
}

/// The oracle-invariant verdict of one soak run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosVerdict {
    /// Every acked byte verified and no errors reported: any injected
    /// corruption was absorbed or repaired in place.
    Clean,
    /// A typed error reached at least one rank — the pipeline refused
    /// to pretend the run was healthy (bytes may or may not match).
    Detected,
    /// **Silent corruption**: acked bytes differ from what was written
    /// and no rank was told (under a crash, whatever the victims were
    /// told). This is the failure the soak exists to catch.
    Diverged,
}

impl ChaosVerdict {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosVerdict::Clean => "clean",
            ChaosVerdict::Detected => "detected",
            ChaosVerdict::Diverged => "diverged",
        }
    }
}

/// What one soak case did and found.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The case seed.
    pub seed: u64,
    /// Kernel name.
    pub workload: &'static str,
    /// The verdict against the gold invariant.
    pub verdict: ChaosVerdict,
    /// Fault specs in the schedule.
    pub plan_specs: usize,
    /// Faults actually injected during the run.
    pub injected: u64,
    /// Typed errors surfaced per rank, as `(rank, message)`.
    pub rank_errors: Vec<(usize, String)>,
    /// Acked-but-wrong pieces, crash or not: collective writes that
    /// returned success yet fail byte verification after any recovery.
    /// Every diverged run has one; a detected run may.
    pub acked_violations: Vec<String>,
    /// Per-file structural digests of the run's final global files
    /// (`None` = file missing) — the byte-identity anchor the
    /// `degraded` bench compares across tolerance settings.
    pub file_digests: Vec<Option<u64>>,
    /// On divergence: the kind names of the shrunken minimal schedule
    /// that still reproduces it.
    pub minimal: Option<Vec<String>>,
}

/// `SimTime` at `ms` milliseconds after the epoch.
fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Draw a randomized fault schedule from `seed`: 1–4 specs over the
/// corruption/stall/RPC/device-failure kinds, plus (for roughly a
/// quarter of the seeds) one mid-run node crash, under which the soak
/// turns on the crash-tolerant collectives, recovers the crashed node's
/// journals and verifies every acknowledged byte. Probabilities are bounded so
/// retries and retransmissions *usually* absorb the faults, which is
/// exactly the regime where silent corruption would hide.
pub fn random_plan(seed: u64) -> FaultPlan {
    let mut rng = SimRng::stream(seed, 990_000);
    let count = 1 + rng.below(4);
    let mut plan = FaultPlan::new(seed);
    for _ in 0..count {
        let node = rng.below(NODES as u64) as usize;
        let prob = 0.05 + 0.5 * rng.uniform();
        plan = match rng.below(8) {
            0 => plan.cache_bitflip(node, always(), prob),
            1 => plan.cache_torn(node, always(), prob, 512 << rng.below(3)),
            2 => plan.link_corrupt(None, None, always(), 0.05 + 0.25 * rng.uniform()),
            3 => plan.pfs_corrupt(always(), prob),
            4 => plan.ssd_stall(node, always(), prob, SimDuration::from_micros(200)),
            5 => plan.rpc_fail(None, always(), 0.3 * rng.uniform()),
            6 => {
                let class = if rng.below(2) == 0 {
                    DeviceClass::Ssd
                } else {
                    DeviceClass::Nvm
                };
                plan.device_fail(node, class, at_ms(rng.below(80)))
            }
            _ => plan.sync_thread_kill(node, at_ms(rng.below(80))),
        };
    }
    // At most one mid-run crash per plan, once every rank has opened
    // the last file (`Gate::LastOpen`). Its cut keeps nothing in flight
    // (over 400 seeds no cut found a write in flight); the mid-write
    // states are `crash::each_state`'s.
    if rng.below(4) == 0 {
        let node = rng.below(NODES as u64) as usize;
        plan = plan.node_crash(node, at_ms(1 + rng.below(60)));
    }
    plan
}

/// Kind name of one fault spec, for reports.
pub fn spec_kind(spec: &FaultSpec) -> &'static str {
    match spec {
        FaultSpec::NodeCrash { .. } => "node_crash",
        FaultSpec::SsdStall { .. } => "ssd_stall",
        FaultSpec::LinkFault { .. } => "link_fault",
        FaultSpec::RpcFail { .. } => "rpc_fail",
        FaultSpec::CacheBitFlip { .. } => "cache_bitflip",
        FaultSpec::CacheTorn { .. } => "cache_torn",
        FaultSpec::LinkCorrupt { .. } => "link_corrupt",
        FaultSpec::PfsCorrupt { .. } => "pfs_corrupt",
        FaultSpec::DeviceFail { .. } => "device_fail",
        FaultSpec::SyncThreadKill { .. } => "sync_thread_kill",
    }
}

fn chaos_hints(case: &ChaosCase, timeout_ms: u64) -> Info {
    let h = Info::from_pairs([
        ("cb_buffer_size", "4096"),
        ("striping_unit", "8192"),
        ("e10_cache", "enable"),
        ("e10_cache_journal", "enable"),
    ]);
    h.set(
        "e10_integrity",
        if case.integrity { "enable" } else { "disable" },
    );
    h.set("e10_integrity_scrub_ms", &SCRUB_MS.to_string());
    h.set("e10_cache_class", case.cache_class.as_str());
    h.set("e10_two_phase", case.two_phase.as_str());
    if timeout_ms > 0 {
        h.set("e10_coll_timeout", &timeout_ms.to_string());
    }
    if case.cache_class == CacheClass::Hybrid {
        // A tight front budget forces every soak run to straddle both
        // tiers (the 4 KiB collective buffers would otherwise all fit
        // on the NVM side).
        h.set("e10_nvm_capacity", "8K");
    }
    h
}

/// Run one soak probe of `case` under an explicit `plan`, in a fresh
/// simulation, and judge it against the gold invariant. Does not
/// shrink.
///
/// The driver is [`crash::execute`], not [`crate::run_workload`]: the
/// soak must survive corrupted final state (the whole point is to
/// *observe* divergence, not die on it). A crash-bearing plan adds the
/// crash-tolerant collectives.
pub fn probe_with_plan(case: &ChaosCase, plan: &FaultPlan) -> ChaosReport {
    let (case, plan) = (*case, plan.clone());
    let crashed = !plan.crashes().is_empty();
    let specs = plan.specs.len();
    let (run, file_digests) = e10_simcore::run(async move {
        let workload = case.workload.build();
        let tb = TestbedSpec::small(workload.procs(), NODES).build();
        let timeout_ms = if crashed {
            case.coll_timeout_ms.max(40)
        } else {
            case.coll_timeout_ms
        };
        let hints = chaos_hints(&case, timeout_ms);
        if workload.force_collective() && hints.get("romio_cb_write").is_none() {
            hints.set("romio_cb_write", "enable");
        }
        let seed = case.seed;
        let files: Vec<(String, u64)> = (0..FILES)
            .map(|k| (format!("/gfs/chaos.{seed}.{k}"), 1000 + seed + k))
            .collect();
        let gate = Gate::LastOpen {
            idle: SimDuration::from_millis(50),
        };
        let tear = |_| Tear::Nothing;
        let run = crash::execute(&tb, &workload, &hints, Some(plan), &files, gate, tear).await;
        let size = workload.file_size();
        let digests: Vec<_> = files
            .iter()
            .map(|(p, _)| tb.pfs.file_extents(p).map(|e| e.digest(0, size)))
            .collect();
        (run, digests)
    });

    // A journal-less cache that staged nothing for a file is benign;
    // stranded bytes are a detected loss.
    let mut errors = run.errors;
    errors.extend(run.failed);
    for (rank, cached_bytes) in run.lost.into_iter().filter(|l| l.1 > 0) {
        errors.push((rank, RecoverError::NoJournal { cached_bytes }.to_string()));
    }
    // Under a crash the victims' errors are expected, so wrong acked
    // bytes diverge whatever the ranks were told; without one, a typed
    // error is the detection.
    let verdict = if !run.acked_bad.is_empty() && (crashed || errors.is_empty()) {
        ChaosVerdict::Diverged
    } else if !errors.is_empty() {
        ChaosVerdict::Detected
    } else {
        ChaosVerdict::Clean
    };
    trace::counter("chaos.runs", 1);
    match verdict {
        ChaosVerdict::Clean => trace::counter("chaos.clean", 1),
        ChaosVerdict::Detected => trace::counter("chaos.detected", 1),
        ChaosVerdict::Diverged => trace::counter("chaos.diverged", 1),
    }
    ChaosReport {
        seed: case.seed,
        workload: case.workload.name(),
        verdict,
        plan_specs: specs,
        injected: run.injected,
        rank_errors: errors,
        acked_violations: run.acked_bad,
        file_digests,
        minimal: None,
    }
}

/// Shrink a failing (diverging) schedule to a minimal fault set:
/// repeatedly drop one spec at a time, keeping any removal after which
/// the case still diverges, until no single removal reproduces — the
/// classic greedy delta-debug fix point. Each probe is a full
/// deterministic re-run, so the result is an exact repro recipe.
pub fn shrink_plan(case: &ChaosCase, plan: &FaultPlan) -> FaultPlan {
    let mut current = plan.clone();
    'outer: while current.specs.len() > 1 {
        for i in 0..current.specs.len() {
            let mut candidate = current.clone();
            candidate.specs.remove(i);
            if probe_with_plan(case, &candidate).verdict == ChaosVerdict::Diverged {
                current = candidate;
                continue 'outer;
            }
        }
        break;
    }
    current
}

/// Run one complete soak case: draw [`random_plan`] from the case
/// seed, probe the gold invariant, and on divergence shrink the
/// schedule to its minimal failing form (recorded in
/// [`ChaosReport::minimal`]).
pub fn chaos_case(case: &ChaosCase) -> ChaosReport {
    let plan = random_plan(case.seed);
    let mut report = probe_with_plan(case, &plan);
    if report.verdict == ChaosVerdict::Diverged {
        let minimal = shrink_plan(case, &plan);
        report.minimal = Some(
            minimal
                .specs
                .iter()
                .map(|s| spec_kind(s).to_string())
                .collect(),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_seeded_and_may_carry_crashes() {
        let mut crash_seeds = 0;
        let mut degraded_specs = 0;
        for seed in 0..64u64 {
            let a = random_plan(seed);
            let b = random_plan(seed);
            assert_eq!(a.specs.len(), b.specs.len(), "seed {seed} not stable");
            assert!((1..=5).contains(&a.specs.len()));
            for (x, y) in a.specs.iter().zip(&b.specs) {
                assert_eq!(spec_kind(x), spec_kind(y), "seed {seed} kind drift");
            }
            crash_seeds += usize::from(!a.crashes().is_empty());
            degraded_specs += a
                .specs
                .iter()
                .filter(|s| {
                    matches!(
                        s,
                        FaultSpec::DeviceFail { .. } | FaultSpec::SyncThreadKill { .. }
                    )
                })
                .count();
        }
        // Survivability is part of the soak now: the generator must
        // exercise mid-run crashes and permanent device failures, not
        // avoid them (the old "soak plans must not declare crashes"
        // invariant predates degraded-mode support).
        assert!(crash_seeds > 0, "no seed drew a mid-run node crash");
        assert!(
            crash_seeds < 40,
            "crashes must stay a minority of plans: {crash_seeds}/64"
        );
        assert!(degraded_specs > 0, "no seed drew a device-failure spec");
    }

    #[test]
    fn a_crash_bearing_random_plan_still_passes_the_oracle() {
        // The survivability invariant that replaced the old crash-free
        // assertion: a randomly drawn plan that *does* declare a
        // mid-run crash must still complete and verify every acked
        // byte (Clean or Detected, never Diverged).
        let seed = (0..64u64)
            .find(|&s| !random_plan(s).crashes().is_empty())
            .expect("some seed draws a crash");
        let report = chaos_case(&ChaosCase::new(seed));
        assert_ne!(
            report.verdict,
            ChaosVerdict::Diverged,
            "seed {seed}: acked bytes lost under a crash-bearing plan \
             (violations {:?}, minimal {:?})",
            report.acked_violations,
            report.minimal
        );
    }

    #[test]
    fn device_fail_plus_mid_run_crash_completes_and_verifies() {
        // The degraded-mode acceptance scenario: a permanent
        // cache-device failure on one node (Healthy → Draining →
        // Retired, write-through after) *plus* a mid-run crash of the
        // other node (crash-tolerant redo on the survivors + journal
        // recovery). The job must not abort and every acknowledged
        // byte must read back.
        let case = ChaosCase::new(991);
        let plan = FaultPlan::new(991)
            .device_fail(0, DeviceClass::Ssd, at_ms(2))
            .node_crash(1, at_ms(8));
        let report = probe_with_plan(&case, &plan);
        assert_ne!(
            report.verdict,
            ChaosVerdict::Diverged,
            "acked bytes lost: {:?}",
            report.acked_violations
        );
        assert!(report.injected > 0, "the device failure must fire");
        assert!(report.acked_violations.is_empty());
    }

    #[test]
    fn soak_holds_the_oracle_invariant_over_a_seed_range() {
        // The CI-grade slice of the soak: every seed must end Clean or
        // Detected — Diverged is the defect this harness exists for.
        for seed in 0..6u64 {
            let report = chaos_case(&ChaosCase::new(seed));
            assert_ne!(
                report.verdict,
                ChaosVerdict::Diverged,
                "seed {seed}: silent corruption (minimal repro {:?})",
                report.minimal
            );
        }
    }

    #[test]
    fn soak_holds_the_oracle_invariant_on_nvm_and_hybrid_tiers() {
        // One arm per cache class: the scrub/verify/repair ladder must
        // hold the gold invariant when staged bytes live on the
        // byte-granular NVM front and when they straddle both hybrid
        // tiers, not just on the SSD extent path.
        for class in [CacheClass::Nvm, CacheClass::Hybrid] {
            for seed in 0..3u64 {
                let report = chaos_case(&ChaosCase::with_class(seed, class));
                assert_ne!(
                    report.verdict,
                    ChaosVerdict::Diverged,
                    "class {:?} seed {seed}: silent corruption (minimal repro {:?})",
                    class,
                    report.minimal
                );
            }
        }
    }

    #[test]
    fn verdicts_are_deterministic_for_a_given_seed() {
        let a = chaos_case(&ChaosCase::new(3));
        let b = chaos_case(&ChaosCase::new(3));
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.acked_violations, b.acked_violations);
        assert_eq!(a.rank_errors, b.rank_errors);
        assert_eq!(a.file_digests, b.file_digests);
    }

    #[test]
    fn shrinker_reduces_a_diverging_schedule_to_its_culprit() {
        // A schedule whose only destructive spec is a guaranteed cache
        // bit-flip, padded with benign stalls. Run WITHOUT integrity it
        // must diverge (this validates the oracle itself), and the
        // shrinker must isolate the single corrupting spec.
        let mut case = ChaosCase::new(424_242);
        case.integrity = false;
        let plan = FaultPlan::new(7)
            .ssd_stall(0, always(), 0.2, SimDuration::from_micros(100))
            .cache_bitflip(0, always(), 1.0)
            .ssd_stall(1, always(), 0.2, SimDuration::from_micros(100));
        let bare = probe_with_plan(&case, &plan);
        assert_eq!(
            bare.verdict,
            ChaosVerdict::Diverged,
            "without integrity the flip must slip through silently"
        );
        // The plan is crash-free, and the acked-byte oracle judges it:
        // it names the flipped pieces of acked writes.
        assert!(bare.rank_errors.is_empty());
        assert!(!bare.acked_violations.is_empty());
        for v in &bare.acked_violations {
            assert!(v.starts_with("rank ") && v.contains(" write "), "{v}");
        }
        let minimal = shrink_plan(&case, &plan);
        assert_eq!(minimal.specs.len(), 1, "padding stalls must be shed");
        assert_eq!(spec_kind(&minimal.specs[0]), "cache_bitflip");
        // The same schedule with integrity ON must be caught.
        case.integrity = true;
        let caught = probe_with_plan(&case, &plan);
        assert_ne!(caught.verdict, ChaosVerdict::Diverged);
    }
}
