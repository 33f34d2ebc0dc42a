//! # e10-faultsim
//!
//! Deterministic, seed-driven fault injection for the E10 simulation.
//!
//! The paper's central robustness claim is that the E10 cache is
//! *persistent*: collective writes land on non-volatile node-local
//! devices, so cached-but-unflushed data survives a node crash and can
//! still reach the global file system. This crate supplies the faults
//! that make the claim testable:
//!
//! * **Node crashes** — a power-loss instant for one compute node. The
//!   crash itself is executed by the harness (kill the node's crash
//!   group, apply torn-write semantics to its local file system); the
//!   plan only declares *when* and *where*.
//! * **SSD stalls** — garbage-collection-style latency spikes on the
//!   node-local device, the behaviour NVM evaluation papers single out
//!   as diverging from DRAM.
//! * **Link faults** — extra delay on fabric messages (a dropped packet
//!   is modelled as one retransmit-timeout of delay; the transport is
//!   reliable, as on InfiniBand).
//! * **PFS RPC failures** — server-side request failures that force the
//!   client retry/backoff path.
//!
//! ## Ambient schedule
//!
//! Like `e10_simcore::trace`, the active [`FaultSchedule`] lives in a
//! thread-local installed for the duration of a run. Device and server
//! models call the query functions ([`ssd_stall`], [`link_fault`],
//! [`rpc_fails`]) at their injection points; with no schedule installed
//! each query is a single branch, so fault-free runs remain bit-identical
//! to builds without any plan. All sampling is driven by dedicated
//! [`SimRng`] streams derived from the plan seed — the same plan and seed
//! reproduce the same faults, byte for byte.

use std::cell::{Cell, RefCell};
use std::ops::Range;

use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_simcore::{SimDuration, SimRng, SimTime};

/// One declared fault, active inside its window.
#[derive(Debug, Clone)]
pub enum FaultSpec {
    /// Power-loss crash of compute node `node` at instant `at`.
    ///
    /// Not sampled by the query functions: the crash harness reads it
    /// via [`FaultPlan::crashes`] and executes kill + power-loss itself.
    NodeCrash {
        /// Compute node that loses power.
        node: usize,
        /// Virtual instant of the power cut.
        at: SimTime,
    },
    /// SSD commands on `node` stall for an extra `stall` with
    /// probability `prob` per command while inside `window`.
    SsdStall {
        /// Affected compute node (as set via `Ssd::set_node`).
        node: usize,
        /// Active window of virtual time.
        window: Range<SimTime>,
        /// Per-command stall probability in `[0, 1]`.
        prob: f64,
        /// Stall duration added to the command.
        stall: SimDuration,
    },
    /// Fabric messages matching `src`→`dst` (`None` = any endpoint) are
    /// delayed by `delay` with probability `prob` per message.
    LinkFault {
        /// Source node filter.
        src: Option<usize>,
        /// Destination node filter.
        dst: Option<usize>,
        /// Active window of virtual time.
        window: Range<SimTime>,
        /// Per-message fault probability in `[0, 1]`.
        prob: f64,
        /// Added delay (one retransmit timeout for a dropped packet).
        delay: SimDuration,
    },
    /// PFS RPCs served by `target` (`None` = any target) fail with
    /// probability `prob`, forcing the client to retry with backoff.
    RpcFail {
        /// Data-target index filter.
        target: Option<usize>,
        /// Active window of virtual time.
        window: Range<SimTime>,
        /// Per-RPC failure probability in `[0, 1]`.
        prob: f64,
    },
    /// Silent single-bit corruption in the SSD cache file of `node`:
    /// each write has probability `prob` of landing with one flipped
    /// bit at a sampled offset.
    CacheBitFlip {
        /// Affected compute node.
        node: usize,
        /// Active window of virtual time.
        window: Range<SimTime>,
        /// Per-write corruption probability in `[0, 1]`.
        prob: f64,
    },
    /// Torn-sector corruption in the SSD cache file of `node`: each
    /// write has probability `prob` of losing one `sector`-aligned run
    /// (it reads back as zeroes).
    CacheTorn {
        /// Affected compute node.
        node: usize,
        /// Active window of virtual time.
        window: Range<SimTime>,
        /// Per-write corruption probability in `[0, 1]`.
        prob: f64,
        /// Sector size in bytes (the torn unit).
        sector: u64,
    },
    /// Payload corruption on fabric messages `src`→`dst` (`None` = any
    /// endpoint): each data-carrying transfer has probability `prob` of
    /// delivering one flipped bit.
    LinkCorrupt {
        /// Source node filter.
        src: Option<usize>,
        /// Destination node filter.
        dst: Option<usize>,
        /// Active window of virtual time.
        window: Range<SimTime>,
        /// Per-transfer corruption probability in `[0, 1]`.
        prob: f64,
    },
    /// Lazy corruption of PFS objects: each server-side read has
    /// probability `prob` of exposing one flipped bit that has silently
    /// rotted on the target's media.
    PfsCorrupt {
        /// Active window of virtual time.
        window: Range<SimTime>,
        /// Per-read corruption probability in `[0, 1]`.
        prob: f64,
    },
    /// Permanent failure of the `class` device on `node` from instant
    /// `at`: every subsequent command on that device returns a typed
    /// I/O error instead of succeeding. Unlike stalls this is not
    /// sampled — it is a deterministic time trigger, so adding the spec
    /// never shifts the draws of probabilistic specs.
    DeviceFail {
        /// Affected compute node.
        node: usize,
        /// Which local device class dies (SSD partition or NVM mount).
        class: DeviceClass,
        /// Virtual instant after which every command fails.
        at: SimTime,
    },
    /// Death of the node-local cache sync thread on `node` at instant
    /// `at`: the thread stops draining staged extents. Deterministic
    /// time trigger, queried by the sync loop itself.
    SyncThreadKill {
        /// Affected compute node.
        node: usize,
        /// Virtual instant of the kill.
        at: SimTime,
    },
}

/// Device class of a node-local mount, as seen by the fault surface.
/// Mirrors `e10-localfs`'s device model without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceClass {
    /// The block SSD `/scratch` partition.
    Ssd,
    /// The byte-granular NVM mount.
    Nvm,
}

/// One sampled corruption, relative to the I/O it was drawn for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Corruption {
    /// Flip `mask` into the byte at relative `offset`.
    BitFlip {
        /// Offset within the I/O, bytes.
        offset: u64,
        /// Non-zero bit mask to XOR in.
        mask: u8,
    },
    /// The `len` bytes at relative `offset` read back as zeroes.
    TornSector {
        /// Sector-aligned offset within the I/O, bytes.
        offset: u64,
        /// Torn run length, bytes.
        len: u64,
    },
}

/// A declarative, reproducible set of faults for one run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for the fault sampling streams (independent of the testbed
    /// seed, so fault luck can be varied without moving device jitter).
    pub seed: u64,
    /// The declared faults.
    pub specs: Vec<FaultSpec>,
}

/// Window covering the whole run.
pub fn always() -> Range<SimTime> {
    SimTime::ZERO..SimTime::ZERO + SimDuration::from_secs(u32::MAX as u64)
}

impl FaultPlan {
    /// An empty plan with the given fault seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// True if no faults are declared.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Declare a node crash (builder style).
    pub fn node_crash(mut self, node: usize, at: SimTime) -> Self {
        self.specs.push(FaultSpec::NodeCrash { node, at });
        self
    }

    /// Declare an SSD stall fault (builder style).
    pub fn ssd_stall(
        mut self,
        node: usize,
        window: Range<SimTime>,
        prob: f64,
        stall: SimDuration,
    ) -> Self {
        self.specs.push(FaultSpec::SsdStall {
            node,
            window,
            prob,
            stall,
        });
        self
    }

    /// Declare a link fault (builder style).
    pub fn link_fault(
        mut self,
        src: Option<usize>,
        dst: Option<usize>,
        window: Range<SimTime>,
        prob: f64,
        delay: SimDuration,
    ) -> Self {
        self.specs.push(FaultSpec::LinkFault {
            src,
            dst,
            window,
            prob,
            delay,
        });
        self
    }

    /// Declare a PFS RPC failure fault (builder style).
    pub fn rpc_fail(mut self, target: Option<usize>, window: Range<SimTime>, prob: f64) -> Self {
        self.specs.push(FaultSpec::RpcFail {
            target,
            window,
            prob,
        });
        self
    }

    /// Declare cache-file bit-flip corruption (builder style).
    pub fn cache_bitflip(mut self, node: usize, window: Range<SimTime>, prob: f64) -> Self {
        self.specs
            .push(FaultSpec::CacheBitFlip { node, window, prob });
        self
    }

    /// Declare cache-file torn-sector corruption (builder style).
    pub fn cache_torn(
        mut self,
        node: usize,
        window: Range<SimTime>,
        prob: f64,
        sector: u64,
    ) -> Self {
        assert!(sector > 0, "torn sector size must be positive");
        self.specs.push(FaultSpec::CacheTorn {
            node,
            window,
            prob,
            sector,
        });
        self
    }

    /// Declare link payload corruption (builder style).
    pub fn link_corrupt(
        mut self,
        src: Option<usize>,
        dst: Option<usize>,
        window: Range<SimTime>,
        prob: f64,
    ) -> Self {
        self.specs.push(FaultSpec::LinkCorrupt {
            src,
            dst,
            window,
            prob,
        });
        self
    }

    /// Declare lazy PFS object corruption (builder style).
    pub fn pfs_corrupt(mut self, window: Range<SimTime>, prob: f64) -> Self {
        self.specs.push(FaultSpec::PfsCorrupt { window, prob });
        self
    }

    /// Declare a permanent device failure (builder style).
    pub fn device_fail(mut self, node: usize, class: DeviceClass, at: SimTime) -> Self {
        self.specs.push(FaultSpec::DeviceFail { node, class, at });
        self
    }

    /// Declare a sync-thread kill (builder style).
    pub fn sync_thread_kill(mut self, node: usize, at: SimTime) -> Self {
        self.specs.push(FaultSpec::SyncThreadKill { node, at });
        self
    }

    /// The declared node crashes as `(node, at)` pairs, in plan order.
    pub fn crashes(&self) -> Vec<(usize, SimTime)> {
        self.specs
            .iter()
            .filter_map(|s| match s {
                FaultSpec::NodeCrash { node, at } => Some((*node, *at)),
                _ => None,
            })
            .collect()
    }
}

struct Installed {
    plan: FaultPlan,
    /// One sampling stream per spec, so adding a spec never shifts the
    /// draws of the others.
    rngs: Vec<SimRng>,
    injected: Cell<u64>,
}

thread_local! {
    static ACTIVE: RefCell<Option<Installed>> = const { RefCell::new(None) };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// The runtime side of a [`FaultPlan`]: installs the plan into the
/// thread-local slot consulted by the device and server models.
pub struct FaultSchedule;

/// Uninstalls the schedule on drop.
pub struct FaultGuard {
    _priv: (),
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.borrow_mut().take());
        ENABLED.with(|e| e.set(false));
    }
}

/// Stream-id base for per-spec sampling RNGs (disjoint from the device
/// jitter streams, which live below 100 000 + nodes).
const FAULT_STREAM_BASE: u64 = 900_000;

impl FaultSchedule {
    /// Install `plan` for the current thread until the guard drops.
    ///
    /// Panics if a schedule is already installed (fault runs don't nest).
    pub fn install(plan: FaultPlan) -> FaultGuard {
        let rngs = (0..plan.specs.len())
            .map(|i| SimRng::stream(plan.seed, FAULT_STREAM_BASE + i as u64))
            .collect();
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            assert!(slot.is_none(), "a FaultSchedule is already installed");
            *slot = Some(Installed {
                plan,
                rngs,
                injected: Cell::new(0),
            });
        });
        ENABLED.with(|e| e.set(true));
        FaultGuard { _priv: () }
    }
}

/// True if a fault schedule is currently installed.
pub fn active() -> bool {
    ENABLED.with(|e| e.get())
}

/// Number of faults injected so far by the installed schedule.
pub fn injected_count() -> u64 {
    ACTIVE.with(|a| a.borrow().as_ref().map_or(0, |i| i.injected.get()))
}

/// Record an externally-executed fault in the installed schedule's
/// injection count and the trace. The sampling hooks below call
/// [`record`] themselves; this is for faults that need an *owner*
/// outside the hooks — the crash executor, which cuts power and kills
/// the task tree itself and would otherwise leave the
/// schedule's `node_crash` specs invisible to [`injected_count`].
pub fn note_injected(kind: &'static str, node: usize) {
    record(kind, node, 0);
}

fn record(kind: &'static str, node: usize, extra_ns: u64) {
    ACTIVE.with(|a| {
        if let Some(inst) = a.borrow().as_ref() {
            inst.injected.set(inst.injected.get() + 1);
        }
    });
    trace::emit(|| {
        Event::new(Layer::Faultsim, "fault.injected", EventKind::Point)
            .node(node)
            .field("fault", kind)
            .field("extra_ns", extra_ns)
    });
    trace::counter("faultsim.injected", 1);
}

/// Fold `f` over every installed spec and its own sampling stream, in
/// plan order; `init` when no schedule is installed. Every query is one
/// call of this with one match arm per spec kind it answers for.
fn fold<T>(init: T, mut f: impl FnMut(T, &FaultSpec, &mut SimRng) -> T) -> T {
    if !active() {
        return init;
    }
    ACTIVE.with(|a| {
        let mut guard = a.borrow_mut();
        let inst = guard.as_mut().expect("enabled without schedule");
        let specs = inst.plan.specs.iter().zip(&mut inst.rngs);
        specs.fold(init, |acc, (spec, rng)| f(acc, spec, rng))
    })
}

/// The draw rule: a spec whose filter matched draws once from its
/// stream, and only inside its window.
fn fires(window: &Range<SimTime>, prob: f64, rng: &mut SimRng) -> bool {
    let t = e10_simcore::now();
    t >= window.start && t < window.end && rng.uniform() < prob
}

/// Extra service delay for an SSD command on `node`, if a stall fires.
pub fn ssd_stall(node: usize) -> Option<SimDuration> {
    let total = fold(SimDuration::ZERO, |total, spec, rng| match spec {
        FaultSpec::SsdStall {
            node: n,
            window,
            prob,
            stall,
        } if *n == node && fires(window, *prob, rng) => total + *stall,
        _ => total,
    });
    (total > SimDuration::ZERO).then(|| {
        record("ssd_stall", node, total.as_nanos());
        total
    })
}

/// Extra delivery delay for a fabric message `src → dst`, if a link
/// fault fires.
pub fn link_fault(src: usize, dst: usize) -> Option<SimDuration> {
    let total = fold(SimDuration::ZERO, |total, spec, rng| match spec {
        FaultSpec::LinkFault {
            src: s,
            dst: d,
            window,
            prob,
            delay,
        } if s.is_none_or(|s| s == src)
            && d.is_none_or(|d| d == dst)
            && fires(window, *prob, rng) =>
        {
            total + *delay
        }
        _ => total,
    });
    (total > SimDuration::ZERO).then(|| {
        record("link", src, total.as_nanos());
        total
    })
}

/// Sample a bit flip for an I/O of `len` bytes from `rng`.
fn sample_bitflip(rng: &mut SimRng, len: u64) -> Corruption {
    Corruption::BitFlip {
        offset: rng.below(len),
        mask: 1u8 << rng.below(8),
    }
}

/// Corruptions hitting a `len`-byte write to the cache file on `node`.
///
/// Bit flips land anywhere in the write; torn sectors zero one
/// `sector`-aligned run (clamped to the write). Deterministic per plan
/// seed: each spec draws from its own stream.
pub fn ssd_corruption(node: usize, len: u64) -> Vec<Corruption> {
    if len == 0 {
        return Vec::new();
    }
    let out = fold(Vec::new(), |mut out, spec, rng| {
        match spec {
            FaultSpec::CacheBitFlip {
                node: n,
                window,
                prob,
            } if *n == node && fires(window, *prob, rng) => out.push(sample_bitflip(rng, len)),
            FaultSpec::CacheTorn {
                node: n,
                window,
                prob,
                sector,
            } if *n == node && fires(window, *prob, rng) => {
                let offset = rng.below(len.div_ceil(*sector)) * *sector;
                out.push(Corruption::TornSector {
                    offset,
                    len: (*sector).min(len - offset),
                });
            }
            _ => {}
        }
        out
    });
    for c in &out {
        let kind = match c {
            Corruption::BitFlip { .. } => "cache_bitflip",
            Corruption::TornSector { .. } => "cache_torn",
        };
        record(kind, node, 0);
    }
    out
}

/// Corruptions hitting a `len`-byte payload on the link `src → dst`.
pub fn link_corrupt(src: usize, dst: usize, len: u64) -> Vec<Corruption> {
    if len == 0 {
        return Vec::new();
    }
    let out = fold(Vec::new(), |mut out, spec, rng| {
        match spec {
            FaultSpec::LinkCorrupt {
                src: s,
                dst: d,
                window,
                prob,
            } if s.is_none_or(|s| s == src)
                && d.is_none_or(|d| d == dst)
                && fires(window, *prob, rng) =>
            {
                out.push(sample_bitflip(rng, len))
            }
            _ => {}
        }
        out
    });
    for _ in &out {
        record("link_corrupt", src, 0);
    }
    out
}

/// Corruptions exposed by a `len`-byte read of a PFS object (lazy media
/// rot, materialised at read time).
pub fn pfs_corrupt(len: u64) -> Vec<Corruption> {
    if len == 0 {
        return Vec::new();
    }
    let out = fold(Vec::new(), |mut out, spec, rng| {
        match spec {
            FaultSpec::PfsCorrupt { window, prob } if fires(window, *prob, rng) => {
                out.push(sample_bitflip(rng, len))
            }
            _ => {}
        }
        out
    });
    for _ in &out {
        record("pfs_corrupt", 0, 0);
    }
    out
}

/// True if the `class` device on `node` has permanently failed (a
/// [`FaultSpec::DeviceFail`] whose instant has passed). The caller —
/// the device's command entry points — turns a hit into a typed I/O
/// error. Deterministic: a pure time comparison, no stream draw, so
/// querying it never perturbs the probabilistic specs.
pub fn device_failed(node: usize, class: DeviceClass) -> bool {
    let hit = fold(false, |hit, spec, _| match spec {
        FaultSpec::DeviceFail {
            node: n,
            class: c,
            at,
        } if *n == node && *c == class && e10_simcore::now() >= *at => true,
        _ => hit,
    });
    if hit {
        record("device_fail", node, 0);
        trace::counter("fault.device_fail", 1);
    }
    hit
}

/// True if the cache sync thread on `node` has been killed (a
/// [`FaultSpec::SyncThreadKill`] whose instant has passed). Queried by
/// the sync loop itself; like [`device_failed`] this is a pure time
/// trigger.
pub fn sync_thread_killed(node: usize) -> bool {
    let hit = fold(false, |hit, spec, _| match spec {
        FaultSpec::SyncThreadKill { node: n, at } if *n == node && e10_simcore::now() >= *at => {
            true
        }
        _ => hit,
    });
    if hit {
        record("sync_thread_kill", node, 0);
        trace::counter("fault.sync_thread_kill", 1);
    }
    hit
}

/// True if the next PFS RPC served by data target `target` must fail.
pub fn rpc_fails(target: usize) -> bool {
    let fails = fold(false, |fails, spec, rng| match spec {
        FaultSpec::RpcFail {
            target: t,
            window,
            prob,
        } if t.is_none_or(|t| t == target) && fires(window, *prob, rng) => true,
        _ => fails,
    });
    if fails {
        record("rpc", target, 0);
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;
    use e10_simcore::run;

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn no_schedule_means_no_faults() {
        run(async {
            assert!(!active());
            assert!(ssd_stall(0).is_none());
            assert!(link_fault(0, 1).is_none());
            assert!(!rpc_fails(0));
        });
    }

    #[test]
    fn guard_uninstalls_on_drop() {
        run(async {
            {
                let _g = FaultSchedule::install(FaultPlan::new(1).ssd_stall(
                    0,
                    always(),
                    1.0,
                    SimDuration::from_millis(5),
                ));
                assert!(active());
                assert!(ssd_stall(0).is_some());
            }
            assert!(!active());
            assert!(ssd_stall(0).is_none());
        });
    }

    #[test]
    fn windows_and_node_filters_apply() {
        run(async {
            let _g = FaultSchedule::install(FaultPlan::new(1).ssd_stall(
                2,
                secs(10)..secs(20),
                1.0,
                SimDuration::from_millis(5),
            ));
            assert!(ssd_stall(2).is_none(), "before the window");
            assert!(ssd_stall(1).is_none(), "wrong node");
            e10_simcore::sleep(SimDuration::from_secs(15)).await;
            assert!(ssd_stall(2).is_some(), "inside the window");
            e10_simcore::sleep(SimDuration::from_secs(10)).await;
            assert!(ssd_stall(2).is_none(), "after the window");
        });
    }

    #[test]
    fn sampling_is_reproducible_per_seed() {
        let draws = |seed: u64| {
            run(async move {
                let _g = FaultSchedule::install(FaultPlan::new(seed).rpc_fail(None, always(), 0.5));
                (0..64).map(|_| rpc_fails(0)).collect::<Vec<bool>>()
            })
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8), "different seeds must differ");
    }

    #[test]
    fn link_faults_respect_endpoint_filters() {
        run(async {
            let _g = FaultSchedule::install(FaultPlan::new(1).link_fault(
                Some(0),
                None,
                always(),
                1.0,
                SimDuration::from_micros(100),
            ));
            assert!(link_fault(0, 3).is_some());
            assert!(link_fault(1, 3).is_none());
            assert_eq!(injected_count(), 1);
        });
    }

    #[test]
    fn corruption_kinds_sample_within_bounds() {
        run(async {
            let _g = FaultSchedule::install(
                FaultPlan::new(11)
                    .cache_bitflip(0, always(), 1.0)
                    .cache_torn(0, always(), 1.0, 512),
            );
            for _ in 0..32 {
                let hits = ssd_corruption(0, 4096);
                assert_eq!(hits.len(), 2);
                for c in hits {
                    match c {
                        Corruption::BitFlip { offset, mask } => {
                            assert!(offset < 4096);
                            assert!(mask != 0);
                        }
                        Corruption::TornSector { offset, len } => {
                            assert_eq!(offset % 512, 0);
                            assert!(offset + len <= 4096);
                            assert!(len > 0 && len <= 512);
                        }
                    }
                }
            }
            assert!(injected_count() >= 64);
        });
    }

    #[test]
    fn corruption_respects_filters_and_zero_len() {
        run(async {
            let _g = FaultSchedule::install(
                FaultPlan::new(11)
                    .cache_bitflip(2, secs(10)..secs(20), 1.0)
                    .link_corrupt(Some(0), None, always(), 1.0)
                    .pfs_corrupt(always(), 1.0),
            );
            assert!(ssd_corruption(2, 100).is_empty(), "before window");
            assert!(ssd_corruption(0, 100).is_empty(), "wrong node");
            e10_simcore::sleep(SimDuration::from_secs(15)).await;
            assert!(!ssd_corruption(2, 100).is_empty(), "inside window");
            assert!(ssd_corruption(2, 0).is_empty(), "zero-length write");
            assert!(!link_corrupt(0, 3, 64).is_empty());
            assert!(link_corrupt(1, 3, 64).is_empty(), "src filter");
            assert!(!pfs_corrupt(64).is_empty());
            assert!(pfs_corrupt(0).is_empty());
        });
    }

    #[test]
    fn corruption_sampling_is_reproducible_per_seed() {
        let draws = |seed: u64| {
            run(async move {
                let _g = FaultSchedule::install(
                    FaultPlan::new(seed)
                        .cache_bitflip(0, always(), 0.5)
                        .cache_torn(0, always(), 0.5, 256),
                );
                (0..64).map(|_| ssd_corruption(0, 8192)).collect::<Vec<_>>()
            })
        };
        assert_eq!(draws(3), draws(3));
        assert_ne!(draws(3), draws(4));
    }

    #[test]
    fn device_fail_is_a_deterministic_time_trigger() {
        run(async {
            let _g = FaultSchedule::install(FaultPlan::new(1).device_fail(
                1,
                DeviceClass::Ssd,
                secs(10),
            ));
            assert!(!device_failed(1, DeviceClass::Ssd), "before the instant");
            assert!(!device_failed(0, DeviceClass::Ssd), "wrong node");
            e10_simcore::sleep(SimDuration::from_secs(10)).await;
            assert!(device_failed(1, DeviceClass::Ssd), "at the instant");
            assert!(!device_failed(1, DeviceClass::Nvm), "wrong class");
            e10_simcore::sleep(SimDuration::from_secs(100)).await;
            assert!(device_failed(1, DeviceClass::Ssd), "failure is permanent");
            // Every refused command counts as an injection.
            assert_eq!(injected_count(), 2);
        });
    }

    #[test]
    fn sync_thread_kill_fires_after_its_instant() {
        run(async {
            let _g = FaultSchedule::install(FaultPlan::new(1).sync_thread_kill(0, secs(5)));
            assert!(!sync_thread_killed(0), "before the instant");
            e10_simcore::sleep(SimDuration::from_secs(6)).await;
            assert!(sync_thread_killed(0));
            assert!(!sync_thread_killed(1), "wrong node");
        });
    }

    #[test]
    fn device_fail_never_shifts_probabilistic_streams() {
        // The same seed with and without a DeviceFail spec must draw
        // identical RPC-failure sequences: the trigger is time-based.
        let draws = |with_fail: bool| {
            run(async move {
                let mut plan = FaultPlan::new(9).rpc_fail(None, always(), 0.5);
                if with_fail {
                    plan = plan.device_fail(0, DeviceClass::Nvm, secs(0));
                }
                let _g = FaultSchedule::install(plan);
                (0..64)
                    .map(|_| {
                        device_failed(0, DeviceClass::Nvm);
                        rpc_fails(0)
                    })
                    .collect::<Vec<bool>>()
            })
        };
        assert_eq!(draws(false), draws(true));
    }

    #[test]
    fn crashes_accessor_skips_other_specs() {
        let plan = FaultPlan::new(1)
            .device_fail(2, DeviceClass::Nvm, secs(3))
            .node_crash(1, secs(5));
        assert_eq!(plan.crashes(), vec![(1, secs(5))]);
    }

    #[test]
    fn crashes_are_declarative_only() {
        let plan = FaultPlan::new(1)
            .node_crash(3, secs(5))
            .rpc_fail(None, always(), 0.0);
        assert_eq!(plan.crashes(), vec![(3, secs(5))]);
        run(async {
            let _g = FaultSchedule::install(plan);
            // Crash specs never fire through the sampling queries.
            assert!(!rpc_fails(0));
            assert_eq!(injected_count(), 0);
        });
    }
}
