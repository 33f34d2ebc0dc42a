//! Node-crash / recovery harness for cached collective writes.
//!
//! [`run_workload`](crate::run_workload) can sample stall, link and RPC
//! faults ambiently, but a node crash needs an owner: somebody must cut
//! power to the node's local file system *before* killing its task
//! tree (torn in-flight writes would otherwise be silently discarded),
//! then drive the crash-consistent recovery. This module is that owner.
//!
//! The sequence mirrors a real failure of the paper's setup:
//!
//! 1. every rank performs its collective writes; the E10 cache holds
//!    the acknowledged data on the node-local NVM device,
//! 2. the declared node loses power — in-flight device writes are torn
//!    at the atomicity unit, the page cache comes back cold, and the
//!    node's whole task tree (ranks, sync threads) dies,
//! 3. surviving ranks finish on their own (`MPI_File_sync` is not
//!    collective, so nobody blocks on the dead node),
//! 4. recovery re-opens each crashed rank's cache from its manifest
//!    journal ([`CacheLayer::recover`]), re-queues every extent that
//!    never reached the global file and flushes it out.
//!
//! With the journal enabled (`e10_cache_journal`) the recovered global
//! file is byte-identical to a fault-free run; with it disabled the
//! same crash is detected and reported as data loss.

use std::cell::Cell;
use std::rc::Rc;

use e10_faultsim::{FaultPlan, FaultSchedule};
use e10_mpisim::Info;
use e10_romio::{
    write_at_all, AdioFile, CacheClass, CacheConfig, CacheLayer, DataSpec, IoCtx, RecoverError,
    RecoveryReport, RomioHints, Testbed,
};
use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_simcore::{
    kill_group, new_group, now, sleep, spawn, spawn_in_group, Flag, SimRng, SimTime,
};

use crate::Workload;

/// Configuration of one crash/recovery experiment.
#[derive(Clone)]
pub struct CrashConfig {
    /// MPI-IO hints (normally `e10_cache` + `e10_cache_journal`).
    pub hints: Info,
    /// Global file path.
    pub path: String,
    /// Generator seed for the written data (the verification oracle).
    pub seed: u64,
    /// The fault plan; its *first* node-crash spec is executed. The
    /// remaining specs (stalls, link faults, RPC failures) stay
    /// installed ambiently for the whole run, recovery included.
    pub faults: FaultPlan,
    /// Torn-write atomicity unit of the node's SSD, bytes.
    pub atomicity: u64,
    /// Torn-write atomicity unit of the node's NVM device, bytes
    /// (byte-addressable persistent memory tears at the cache-line
    /// flush unit, not the block size). Used when `e10_cache_class`
    /// stages data on the NVM mount.
    pub nvm_atomicity: u64,
}

impl CrashConfig {
    /// A crash of `node` as soon as every rank's writes are
    /// acknowledged — the earliest instant at which a fault-free
    /// comparison is meaningful (everything acked must survive).
    pub fn after_writes(hints: Info, path: &str, seed: u64, node: usize) -> CrashConfig {
        CrashConfig {
            hints,
            path: path.to_string(),
            seed,
            faults: FaultPlan::new(seed).node_crash(node, SimTime::ZERO),
            atomicity: 4096,
            nvm_atomicity: 64,
        }
    }
}

/// What a crash/recovery run did and found.
#[derive(Debug)]
pub struct CrashOutcome {
    /// The node that lost power.
    pub crashed_node: usize,
    /// Virtual instant of the power cut.
    pub crash_time: SimTime,
    /// Tasks destroyed by the crash (ranks, sync threads, …).
    pub killed_tasks: usize,
    /// Bytes acknowledged by collective writes across all ranks.
    pub written_bytes: u64,
    /// Per-rank journal recovery reports for the crashed node.
    pub recovered: Vec<(usize, RecoveryReport)>,
    /// Ranks whose staged bytes were unrecoverable (no journal), with
    /// the number of bytes stranded in their cache files.
    pub lost: Vec<(usize, u64)>,
    /// Ranks whose recovery failed outright (local FS error).
    pub failed: Vec<(usize, String)>,
    /// Virtual seconds the recovery pass took (journal replay +
    /// re-queued sync + flush for every crashed rank).
    pub recovery_secs: f64,
    /// Byte-for-byte verification of the final global file against the
    /// generator — `Ok` exactly when recovery restored every acked byte.
    pub verified: Result<(), String>,
}

/// A [`CrashConfig`] that cannot be executed as declared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashConfigError {
    /// The fault plan contains no `node_crash` spec to execute.
    NoCrashDeclared,
    /// The declared crash node hosts no rank of the workload — the
    /// crash would be a no-op and the experiment meaningless.
    NoRankOnNode {
        /// The empty node.
        node: usize,
    },
}

impl std::fmt::Display for CrashConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashConfigError::NoCrashDeclared => {
                write!(f, "crash config error: fault plan declares no node crash")
            }
            CrashConfigError::NoRankOnNode { node } => write!(
                f,
                "crash config error: no rank of the workload lives on node {node}"
            ),
        }
    }
}

impl std::error::Error for CrashConfigError {}

impl CrashOutcome {
    /// Total bytes re-queued from journals during recovery.
    pub fn requeued_bytes(&self) -> u64 {
        self.recovered.iter().map(|(_, r)| r.requeued_bytes).sum()
    }

    /// Total bytes reported stranded (journal-less caches).
    pub fn lost_bytes(&self) -> u64 {
        self.lost.iter().map(|&(_, b)| b).sum()
    }
}

/// Run `workload` once with a mid-run crash of the planned node, then
/// recover the node's caches and verify the global file.
///
/// The crash fires once every rank has finished its collective writes
/// (event trigger) and no earlier than the plan's declared instant
/// (time trigger) — acknowledged data is exactly the data a recovery
/// must reproduce. Returns a [`CrashConfigError`] (instead of
/// panicking) if the plan declares no node crash or the crashed node
/// hosts no rank.
pub async fn run_crash_recovery(
    tb: &Testbed,
    workload: Rc<dyn Workload>,
    cfg: &CrashConfig,
) -> Result<CrashOutcome, CrashConfigError> {
    let procs = workload.procs();
    assert_eq!(
        tb.world.comms.len(),
        procs,
        "testbed rank count must match the workload"
    );
    let crashes = cfg.faults.crashes();
    let Some(&(crash_node, crash_at)) = crashes.first() else {
        return Err(CrashConfigError::NoCrashDeclared);
    };
    let victims: Vec<usize> = (0..procs)
        .filter(|&r| tb.world.comms[r].node() == crash_node)
        .collect();
    if victims.is_empty() {
        return Err(CrashConfigError::NoRankOnNode { node: crash_node });
    }

    let _guard = FaultSchedule::install(cfg.faults.clone());
    let crash_gid = new_group();
    let writes_done = Rc::new(Cell::new(0usize));
    let all_written = Flag::new();
    let crashed = Flag::new();

    // --- phase 1+3: the ranks -----------------------------------------
    let mut survivor_handles = Vec::new();
    for rank in 0..procs {
        let ctx = IoCtx {
            comm: tb.world.comms[rank].clone(),
            pfs: Rc::clone(&tb.pfs),
            localfs: Rc::clone(&tb.localfs),
            nvmfs: Rc::clone(&tb.nvmfs),
        };
        let wl = Rc::clone(&workload);
        let hints = cfg.hints.dup();
        let path = cfg.path.clone();
        let seed = cfg.seed;
        let writes_done = Rc::clone(&writes_done);
        let all_written = all_written.clone();
        let crashed = crashed.clone();
        let body = async move {
            let fd = AdioFile::open(&ctx, &path, &hints, true)
                .await
                .expect("collective open failed");
            let mut bytes = 0u64;
            for view in &wl.writes(ctx.comm.rank()) {
                let r = write_at_all(&fd, view, &DataSpec::FileGen { seed }).await;
                assert_eq!(r.error_code, 0, "pre-crash write failed");
                bytes += r.bytes;
            }
            writes_done.set(writes_done.get() + 1);
            if writes_done.get() == procs {
                all_written.set();
            }
            // Hold here until the crash: victims die in this wait, the
            // survivors then drain their own caches (`MPI_File_sync` is
            // not collective, so the dead node blocks nobody). No
            // `close()`: its barrier would hang on the dead ranks.
            crashed.wait().await;
            fd.file_sync().await;
            bytes
        };
        if tb.world.comms[rank].node() == crash_node {
            // Killed handles never complete; spawn and forget.
            #[allow(clippy::let_underscore_future)]
            let _ = spawn_in_group(crash_gid, body);
        } else {
            survivor_handles.push(spawn(body));
        }
    }

    // --- phase 2: the crash --------------------------------------------
    all_written.wait().await;
    if now() < crash_at {
        sleep(crash_at.since(now())).await;
    }
    let crash_time = now();
    // Power first, kill second: killing first would run the in-flight
    // write guards and discard the torn prefixes power-loss must keep.
    let mut tear_rng = SimRng::stream(cfg.faults.seed, 910_000);
    tb.localfs[crash_node].power_loss(cfg.atomicity, &mut tear_rng);
    // The NVM mount loses power with the node too; byte-granular
    // in-flight writes tear at the cache-line flush unit. A separate
    // stream keeps the SSD tear draws unchanged for ssd-class runs.
    let romio_hints = RomioHints::parse(&cfg.hints).expect("hints parsed at open");
    if romio_hints.e10_cache_class != CacheClass::Ssd {
        let mut nvm_tear_rng = SimRng::stream(cfg.faults.seed, 911_000);
        tb.nvmfs[crash_node].power_loss(cfg.nvm_atomicity, &mut nvm_tear_rng);
    }
    let killed_tasks = kill_group(crash_gid);
    trace::emit(|| {
        Event::new(Layer::Faultsim, "fault.injected", EventKind::Point)
            .node(crash_node)
            .field("fault", "node_crash")
            .field("killed_tasks", killed_tasks as u64)
    });
    trace::counter("faultsim.injected", 1);
    crashed.set();

    let mut written_bytes = 0u64;
    for h in survivor_handles {
        written_bytes += h.await;
    }

    // --- phase 4: recovery ----------------------------------------------
    let recovery_t0 = now();
    let basename = cfg.path.rsplit('/').next().unwrap_or(&cfg.path);
    let mut recovered = Vec::new();
    let mut lost = Vec::new();
    let mut failed = Vec::new();
    for &rank in &victims {
        let ccfg = CacheConfig::from_hints(&romio_hints, basename, rank, crash_node);
        let global = tb.pfs.attach(&cfg.path).expect("global file exists");
        // Recover from whichever mount(s) the cache class staged on.
        let (store, front) = tb.ctx(rank).cache_mounts(romio_hints.e10_cache_class);
        let recovery = CacheLayer::recover_with_front(store, front, global, ccfg).await;
        match recovery {
            Ok((layer, report)) => {
                // A recovery-stage integrity failure (staged bytes that
                // rotted while the node was down) surfaces here as a
                // typed error and counts as a failed rank.
                match layer.close().await {
                    Ok(()) => recovered.push((rank, report)),
                    Err(e) => {
                        failed.push((rank, e.to_string()));
                        recovered.push((rank, report));
                    }
                }
            }
            Err(RecoverError::NoJournal { cached_bytes }) => lost.push((rank, cached_bytes)),
            Err(e) => failed.push((rank, e.to_string())),
        }
    }

    let recovery_secs = now().since(recovery_t0).as_secs_f64();

    let verified = match tb.pfs.file_extents(&cfg.path) {
        Some(ext) => ext
            .verify_gen(cfg.seed, 0, workload.file_size())
            .map_err(|e| e.to_string()),
        None => Err(format!("global file {} missing", cfg.path)),
    };

    Ok(CrashOutcome {
        crashed_node: crash_node,
        crash_time,
        killed_tasks,
        written_bytes,
        recovered,
        lost,
        failed,
        recovery_secs,
        verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollPerf;
    use e10_romio::TestbedSpec;
    use e10_simcore::run;

    fn crash_hints(journal: bool) -> Info {
        let h = Info::from_pairs([
            ("cb_buffer_size", "4096"),
            ("striping_unit", "8192"),
            ("e10_cache", "enable"),
            // Sync only on close/flush: the crashed node's staged data
            // is guaranteed to still be in its cache at crash time.
            ("e10_cache_flush_flag", "flush_onclose"),
        ]);
        if journal {
            h.set("e10_cache_journal", "enable");
        }
        h
    }

    #[test]
    fn journalled_crash_recovers_every_acked_byte() {
        run(async {
            let w = Rc::new(CollPerf::tiny([2, 2, 2]));
            let tb = TestbedSpec::small(w.procs(), 2).build();
            let cfg = CrashConfig::after_writes(crash_hints(true), "/gfs/crash_j", 77, 1);
            let out = run_crash_recovery(&tb, w, &cfg).await.unwrap();
            assert!(out.killed_tasks > 0, "crash must kill the node's tasks");
            assert!(!out.recovered.is_empty());
            assert!(out.lost.is_empty() && out.failed.is_empty());
            assert!(out.requeued_bytes() > 0, "crash landed before the sync");
            out.verified.expect("recovered file must verify");
        });
    }

    #[test]
    fn journalled_crash_recovers_nvm_class_staged_bytes() {
        run(async {
            let w = Rc::new(CollPerf::tiny([2, 2, 2]));
            let tb = TestbedSpec::small(w.procs(), 2).build();
            let hints = crash_hints(true);
            hints.set("e10_cache_class", "nvm");
            let cfg = CrashConfig::after_writes(hints, "/gfs/crash_nvm", 81, 1);
            let out = run_crash_recovery(&tb, w, &cfg).await.unwrap();
            assert!(out.killed_tasks > 0);
            assert!(!out.recovered.is_empty());
            assert!(out.lost.is_empty() && out.failed.is_empty());
            assert!(out.requeued_bytes() > 0, "crash landed before the sync");
            out.verified
                .expect("nvm-staged bytes must survive the power cut");
        });
    }

    #[test]
    fn journalled_crash_recovers_hybrid_class_both_tiers() {
        run(async {
            let w = Rc::new(CollPerf::tiny([2, 2, 2]));
            let tb = TestbedSpec::small(w.procs(), 2).build();
            let hints = crash_hints(true);
            hints.set("e10_cache_class", "hybrid");
            // A threshold between the two write sizes below would be
            // ideal, but CollPerf writes uniform 4 KiB buffers; route
            // half of them to the NVM front by capping its budget so
            // the crash leaves acked bytes on *both* tiers.
            hints.set("e10_nvm_capacity", "8K");
            let cfg = CrashConfig::after_writes(hints, "/gfs/crash_hy", 82, 1);
            let out = run_crash_recovery(&tb, w, &cfg).await.unwrap();
            assert!(out.killed_tasks > 0);
            assert!(!out.recovered.is_empty());
            assert!(out.lost.is_empty() && out.failed.is_empty());
            assert!(out.requeued_bytes() > 0, "crash landed before the sync");
            out.verified
                .expect("bytes staged across both tiers must survive");
        });
    }

    #[test]
    fn plan_without_a_crash_is_a_config_error() {
        run(async {
            let w = Rc::new(CollPerf::tiny([2, 2, 2]));
            let tb = TestbedSpec::small(w.procs(), 2).build();
            let mut cfg = CrashConfig::after_writes(crash_hints(true), "/gfs/crash_none", 79, 1);
            cfg.faults = FaultPlan::new(79); // no node_crash spec
            let err = run_crash_recovery(&tb, w, &cfg).await.unwrap_err();
            assert_eq!(err, CrashConfigError::NoCrashDeclared);
            assert!(err.to_string().contains("declares no node crash"));
        });
    }

    #[test]
    fn crash_on_an_unpopulated_node_is_a_config_error() {
        run(async {
            let w = Rc::new(CollPerf::tiny([2, 2, 2]));
            // 2 nodes host ranks; node 7 exists in no placement.
            let tb = TestbedSpec::small(w.procs(), 2).build();
            let cfg = CrashConfig::after_writes(crash_hints(true), "/gfs/crash_empty", 80, 7);
            let err = run_crash_recovery(&tb, w, &cfg).await.unwrap_err();
            assert_eq!(err, CrashConfigError::NoRankOnNode { node: 7 });
            assert!(err.to_string().contains("node 7"));
        });
    }

    #[test]
    fn journal_disabled_crash_is_reported_as_data_loss() {
        run(async {
            let w = Rc::new(CollPerf::tiny([2, 2, 2]));
            let tb = TestbedSpec::small(w.procs(), 2).build();
            let cfg = CrashConfig::after_writes(crash_hints(false), "/gfs/crash_nj", 78, 1);
            let out = run_crash_recovery(&tb, w, &cfg).await.unwrap();
            assert!(out.recovered.is_empty());
            assert!(!out.lost.is_empty(), "loss must be attributed per rank");
            assert!(out.lost_bytes() > 0, "stranded bytes must be counted");
            assert!(out.verified.is_err(), "data loss must fail verification");
        });
    }
}
