//! Node-crash / recovery harness for cached collective writes.
//!
//! [`run_workload`](crate::run_workload) can sample stall, link and RPC
//! faults ambiently, but a node crash needs an owner: somebody must cut
//! power to the node's local file system *before* killing its task
//! tree (torn in-flight writes would otherwise be silently discarded),
//! then drive the crash-consistent recovery. This module is that owner:
//! [`run_crash_recovery`] and the chaos soak both run their crashes
//! through its one executor, [`execute`]. It is also the one source of
//! crash states: [`cut_instants`] and [`each_state`].
//!
//! The sequence mirrors a real failure of the paper's setup:
//!
//! 1. every rank performs its collective writes; the E10 cache holds
//!    the acknowledged data on the node-local NVM device,
//! 2. each declared node loses power — each in-flight device write
//!    keeps nothing, one tear unit or all of it, the page cache comes
//!    back cold, and the node's whole task tree (ranks, sync threads)
//!    dies,
//! 3. surviving ranks finish on their own (`MPI_File_sync` is not
//!    collective, so nobody blocks on the dead node),
//! 4. recovery re-opens each crashed rank's cache from its manifest
//!    journal ([`CacheLayer::recover`]), re-queues every extent that
//!    never reached the global file and flushes it out.
//!
//! With the journal enabled (`e10_cache_journal`) the recovered global
//! file is byte-identical to a fault-free run; with it disabled the
//! same crash is detected and reported as data loss.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

use e10_faultsim::{injected_count, FaultPlan, FaultSchedule};
use e10_localfs::{Pending, Tear};
use e10_mpisim::Info;
use e10_romio::{
    write_at_all, AdioFile, CacheClass, CacheConfig, CacheLayer, DataSpec, RecoverError,
    RecoveryReport, RomioHints, Testbed,
};
use e10_simcore::trace::{self, RingSink};
use e10_simcore::{
    kill_group, new_group, now, sleep, spawn, spawn_in_group, Flag, SimDuration, SimTime,
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
    /// The fault plan; every node-crash spec is executed, one cut per
    /// node. The remaining specs (stalls, link faults, RPC failures)
    /// stay installed ambiently for the whole run, recovery included.
    pub faults: FaultPlan,
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
        }
    }
}

/// A [`CrashConfig`] that cannot be executed as declared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashConfigError {
    /// The fault plan contains no `node_crash` spec to execute.
    NoCrashDeclared,
    /// A declared crash node hosts no rank of the workload — the
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

/// Run `workload` once with a crash of every planned node, then
/// recover the nodes' caches and verify the global file.
///
/// The crashes fire once every rank has finished its collective writes
/// (event trigger) and no earlier than the plan's declared instants
/// (time trigger) — acknowledged data is exactly the data a recovery
/// must reproduce, and every view is acked, so
/// [`Executed::verified`] checks every byte. Returns a
/// [`CrashConfigError`] (instead of panicking) if the plan declares no
/// node crash or a crashed node hosts no rank.
pub async fn run_crash_recovery(
    tb: &Testbed,
    workload: Rc<dyn Workload>,
    cfg: &CrashConfig,
) -> Result<Executed, CrashConfigError> {
    let procs = workload.procs();
    assert_eq!(
        tb.world.comms.len(),
        procs,
        "testbed rank count must match the workload"
    );
    let crashes = cfg.faults.crashes();
    if crashes.is_empty() {
        return Err(CrashConfigError::NoCrashDeclared);
    }
    let hosts_ranks = |node| (0..procs).any(|r| tb.world.comms[r].node() == node);
    if let Some(&(node, _)) = crashes.iter().find(|c| !hosts_ranks(c.0)) {
        return Err(CrashConfigError::NoRankOnNode { node });
    }
    let files = [(cfg.path.clone(), cfg.seed)];
    let (hints, plan, gate) = (&cfg.hints, Some(cfg.faults.clone()), Gate::AfterWrites);
    let run = execute(tb, &workload, hints, plan, &files, gate, |_| Tear::Nothing).await;
    let views: usize = (0..procs).map(|r| workload.writes(r).len()).sum();
    assert_eq!(run.acked.len(), views, "pre-crash write failed");
    Ok(run)
}

/// When an [`execute`] run's crashes may fire.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Once every rank has opened the last file, so a crash cannot stop
    /// an open; ranks idle `idle` between writes and flush.
    LastOpen { idle: SimDuration },
    /// Once every rank's writes are acked; ranks hold their flush until
    /// the cut, so victims die with all their staged bytes cached.
    AfterWrites,
}

/// What one [`execute`] run did and found.
#[derive(Debug)]
pub struct Executed {
    /// Every acked write, victims' too, as `(rank, file, view, bytes)`:
    /// indices into the run's files and the rank's `Workload::writes`.
    pub acked: Vec<(usize, usize, usize, u64)>,
    /// Typed errors the ranks were told, `(rank, message)`, in order.
    pub errors: Vec<(usize, String)>,
    /// The acked-byte oracle: each piece of an acked write that does not
    /// read back from the global file as the generator's bytes.
    pub acked_bad: Vec<String>,
    /// The cuts as they fired, `(node, instant)`.
    pub cuts: Vec<(usize, SimTime)>,
    /// Tasks the cuts killed.
    pub killed_tasks: usize,
    /// Journal recovery reports, per crashed rank and file. A close
    /// that fails to flush what the replay re-queued is also in
    /// `failed`.
    pub recovered: Vec<(usize, RecoveryReport)>,
    /// Ranks whose staged bytes were unrecoverable (no journal), with
    /// the number of bytes stranded in their cache files.
    pub lost: Vec<(usize, u64)>,
    /// Ranks whose recovery failed outright (local FS error).
    pub failed: Vec<(usize, String)>,
    /// Virtual seconds the recovery of every crashed rank took.
    pub recovery_secs: f64,
    /// Faults the plan injected, crashes included.
    pub injected: u64,
}

impl Executed {
    /// Total bytes re-queued from journals during recovery.
    pub fn requeued_bytes(&self) -> u64 {
        self.recovered.iter().map(|(_, r)| r.requeued_bytes).sum()
    }

    /// Total bytes reported stranded (journal-less caches).
    pub fn lost_bytes(&self) -> u64 {
        self.lost.iter().map(|&(_, b)| b).sum()
    }

    /// The acked-byte oracle's answer: `Ok` exactly when every acked
    /// piece reads back as the generator's, else the first that does
    /// not.
    pub fn verified(&self) -> Result<(), &str> {
        self.acked_bad.first().map_or(Ok(()), |e| Err(e))
    }
}

/// The one node-crash executor. Under `plan`, every rank writes each of
/// `files` (`(path, generator seed)`): open, every view, then
/// `file_sync` if a node crashes (a `close()` barrier would hang on the
/// dead ranks) or `close`, recording each ack and error. Once `gate`
/// opens, each crashed node, at its earliest declared instant, loses
/// SSD and (if the cache class stages there) NVM power *before* its
/// task group is killed, so torn in-flight writes keep their prefixes.
/// `tear` says what each write the cuts find in flight keeps
/// ([`tear_by`] makes one from a tear list); a plan's crash keeps none.
/// After the survivors, every crashed rank's cache of every file is
/// recovered from its journal.
pub async fn execute(
    tb: &Testbed,
    workload: &Rc<dyn Workload>,
    hints: &Info,
    plan: Option<FaultPlan>,
    files: &[(String, u64)],
    gate: Gate,
    mut tear: impl FnMut(Pending) -> Tear,
) -> Executed {
    let procs = workload.procs();
    let node_of = |rank: usize| tb.world.comms[rank].node();
    let romio_hints = RomioHints::parse(hints).expect("crash run hints parse");
    // One cut per node, in firing order.
    let mut cuts = plan.as_ref().map_or(Vec::new(), FaultPlan::crashes);
    cuts.sort_by_key(|&(node, at)| (node, at));
    cuts.dedup_by_key(|c| c.0);
    cuts.sort_by_key(|&(node, at)| (at, node));
    let _guard = plan.map(FaultSchedule::install);
    let groups: Vec<u64> = cuts.iter().map(|_| new_group()).collect();
    let crashing = !cuts.is_empty();
    let files: Rc<[(String, u64)]> = files.into();
    let acked = Rc::new(RefCell::new(Vec::new()));
    let errors = Rc::new(RefCell::new(Vec::new()));
    let arrived = Rc::new(Cell::new(0usize));
    let (gate_open, cut_done) = (Flag::new(), Flag::new());

    let mut survivors = Vec::new();
    for rank in 0..procs {
        let ctx = tb.ctx(rank);
        let (wl, files, hints) = (Rc::clone(workload), Rc::clone(&files), hints.clone());
        let (acked, errors, arrived) = (Rc::clone(&acked), Rc::clone(&errors), Rc::clone(&arrived));
        let (gate_open, cut_done) = (gate_open.clone(), cut_done.clone());
        let body = async move {
            let arrive = || {
                arrived.set(arrived.get() + 1);
                if arrived.get() == procs {
                    gate_open.set();
                }
            };
            let views = wl.writes(rank);
            for (k, (path, seed)) in files.iter().enumerate() {
                let last = k + 1 == files.len();
                let opened = AdioFile::open(&ctx, path, &hints, true).await;
                // Count the last file's opens whether they succeeded or
                // not: the cut must never wait on a rank that already
                // failed past open.
                if last && gate != Gate::AfterWrites {
                    arrive();
                }
                let fd = match opened {
                    Ok(fd) => fd,
                    Err(e) => {
                        errors.borrow_mut().push((rank, e.to_string()));
                        if last && gate == Gate::AfterWrites {
                            arrive();
                        }
                        continue;
                    }
                };
                for (vi, view) in views.iter().enumerate() {
                    let r = write_at_all(&fd, view, &DataSpec::FileGen { seed: *seed }).await;
                    if r.error_code == 0 {
                        acked.borrow_mut().push((rank, k, vi, r.bytes));
                    } else {
                        let e = fd.take_io_error().map_or_else(
                            || format!("collective error code {}", r.error_code),
                            |e| e.to_string(),
                        );
                        errors.borrow_mut().push((rank, e));
                    }
                }
                match gate {
                    Gate::LastOpen { idle } => sleep(idle).await,
                    Gate::AfterWrites if last => {
                        arrive();
                        cut_done.wait().await;
                    }
                    Gate::AfterWrites => {}
                }
                if crashing {
                    fd.file_sync().await;
                } else {
                    fd.close().await;
                }
                if let Some(e) = fd.take_io_error() {
                    errors.borrow_mut().push((rank, e.to_string()));
                }
            }
        };
        match cuts.iter().position(|&(node, _)| node == node_of(rank)) {
            // Killed handles never complete; spawn and forget.
            Some(i) => drop(spawn_in_group(groups[i], body)),
            None => survivors.push(spawn(body)),
        }
    }

    let mut fired = Vec::new();
    let mut killed_tasks = 0;
    if crashing {
        gate_open.wait().await;
    }
    for (&(node, at), &gid) in cuts.iter().zip(&groups) {
        if now() < at {
            sleep(at.since(now())).await;
        }
        tb.localfs[node].power_loss(&mut tear);
        if romio_hints.e10_cache_class != CacheClass::Ssd {
            tb.nvmfs[node].power_loss(&mut tear);
        }
        e10_faultsim::note_injected("node_crash", node);
        killed_tasks += kill_group(gid);
        fired.push((node, now()));
    }
    cut_done.set();
    for h in survivors {
        h.await;
    }

    // Acked bytes stranded on the dead nodes must reach the global file
    // (a dead aggregator's stage may hold survivors' acked bytes).
    let recovery_t0 = now();
    let (mut recovered, mut lost, mut failed) = (Vec::new(), Vec::new(), Vec::new());
    for &(node, _) in &cuts {
        for rank in (0..procs).filter(|&r| node_of(r) == node) {
            for (path, _) in files.iter() {
                let Ok(global) = tb.pfs.attach(path) else {
                    continue;
                };
                let basename = path.rsplit('/').next().unwrap_or(path);
                let ccfg = CacheConfig::from_hints(&romio_hints, basename, rank, node);
                let (store, front) = tb.ctx(rank).cache_mounts(romio_hints.e10_cache_class);
                match CacheLayer::recover_with_front(store, front, global, ccfg).await {
                    Ok((layer, report)) => {
                        if let Err(e) = layer.close().await {
                            failed.push((rank, e.to_string()));
                        }
                        recovered.push((rank, report));
                    }
                    Err(RecoverError::NoJournal { cached_bytes }) => {
                        lost.push((rank, cached_bytes))
                    }
                    Err(e) => failed.push((rank, e.to_string())),
                }
            }
        }
    }
    let exts: Vec<_> = files.iter().map(|(p, _)| tb.pfs.file_extents(p)).collect();
    let mut acked_bad = Vec::new();
    for &(rank, k, vi, _) in acked.borrow().iter() {
        let Some(ext) = &exts[k] else {
            acked_bad.push(format!("rank {rank} file {k}: global file missing"));
            continue;
        };
        for p in workload.writes(rank)[vi].pieces() {
            if let Err(e) = ext.verify_gen(files[k].1, p.file_off, p.len) {
                let (off, len) = (p.file_off, p.len);
                acked_bad.push(format!(
                    "rank {rank} file {k} write {vi} [{off}, +{len}): {e}"
                ));
            }
        }
    }
    Executed {
        acked: acked.take(),
        errors: errors.take(),
        acked_bad,
        cuts: fired,
        killed_tasks,
        recovered,
        lost,
        failed,
        recovery_secs: now().since(recovery_t0).as_secs_f64(),
        injected: injected_count(),
    }
}

/// The tear rule of one crash state, for `LocalFs::power_loss`: the
/// `i`-th write or append met, over every mount cut, is torn by
/// `tears[i]` (`Nothing` past the list's end) and pushed to `met`.
pub fn tear_by<'a>(
    tears: &'a [Tear],
    met: &'a mut Vec<Pending>,
) -> impl FnMut(Pending) -> Tear + 'a {
    move |p| {
        let tear = tears.get(met.len()).copied().unwrap_or(Tear::Nothing);
        met.push(p);
        tear
    }
}

/// Where a run can be cut: 1 ns after each instant at which a traced
/// run of `main` woke a task. Each device write or append wakes its
/// caller when it completes, so these hold every completion.
pub fn cut_instants(main: impl Future<Output = ()> + 'static) -> Vec<SimTime> {
    e10_simcore::run(async move {
        let sink = Rc::new(RingSink::new(1 << 16));
        let _guard = trace::install(Rc::clone(&sink) as _);
        main.await;
        assert_eq!(sink.dropped(), 0, "the ring must hold the whole run");
        let wakes = sink.events().into_iter().filter(|e| e.span == "task.wake");
        let mut at: Vec<SimTime> = wakes
            .map(|e| e.sim_time + SimDuration::from_nanos(1))
            .collect();
        at.dedup();
        at
    })
}

/// Run every crash state at each instant of `cuts`: `state(at, tears)`
/// cuts power at `at`, tears what is in flight with [`tear_by`] over
/// `tears`, and returns what it met. A cut's first state tears nothing;
/// an odometer over the met writes' tears gives the rest (`Unit` only
/// on a write longer than its unit). A panicking state is named on
/// stderr. Returns the number of states run.
pub fn each_state(
    cuts: &[SimTime],
    mut state: impl FnMut(SimTime, &[Tear]) -> Vec<Pending>,
) -> usize {
    let mut states = 0;
    for &at in cuts {
        let mut tears = Vec::new();
        loop {
            let met = panic::catch_unwind(AssertUnwindSafe(|| state(at, &tears)));
            let met = met.unwrap_or_else(|e| {
                eprintln!("failing crash state: cut at {at}, tears {tears:?}");
                panic::resume_unwind(e)
            });
            states += 1;
            tears.resize(met.len(), Tear::Nothing);
            let Some(i) = tears.iter().rposition(|&t| t != Tear::All) else {
                break;
            };
            let unit_first = tears[i] == Tear::Nothing && met[i].len > met[i].unit;
            tears[i] = if unit_first { Tear::Unit } else { Tear::All };
            tears[i + 1..].fill(Tear::Nothing);
        }
    }
    states
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
            out.verified().expect("recovered file must verify");
        });
    }

    #[test]
    fn the_harness_crash_counts_as_an_injected_fault() {
        run(async {
            let w = Rc::new(CollPerf::tiny([2, 2, 2]));
            let tb = TestbedSpec::small(w.procs(), 2).build();
            let cfg = CrashConfig::after_writes(crash_hints(true), "/gfs/crash_inj", 83, 1);
            let out = run_crash_recovery(&tb, w, &cfg).await.unwrap();
            // The plan holds the crash alone, so it is the one fault.
            assert_eq!(out.injected, 1);
        });
    }

    #[test]
    fn every_declared_crash_is_cut_and_recovered() {
        run(async {
            let w = Rc::new(CollPerf::tiny([2, 2, 2]));
            let tb = TestbedSpec::small(w.procs(), 4).build();
            let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
            let mut cfg = CrashConfig::after_writes(crash_hints(true), "/gfs/crash_two", 84, 3);
            // Declared out of firing order, node 3 twice, all after the
            // writes are acked (~2.3 ms): one cut per node, node 1 first.
            cfg.faults = FaultPlan::new(84)
                .node_crash(3, at(6))
                .node_crash(1, at(4))
                .node_crash(3, at(9));
            let victims: Vec<usize> = (0..w.procs())
                .filter(|&r| [1, 3].contains(&tb.world.comms[r].node()))
                .collect();
            let out = run_crash_recovery(&tb, w, &cfg).await.unwrap();
            assert_eq!(out.cuts[0], (1, at(4)));
            assert_eq!(out.injected, 2, "one cut per crashed node");
            let mut recovered: Vec<usize> = out.recovered.iter().map(|&(r, _)| r).collect();
            recovered.sort_unstable();
            assert_eq!(recovered, victims, "every victim rank is recovered");
            assert!(out.killed_tasks >= victims.len());
            assert!(out.lost.is_empty() && out.failed.is_empty());
            assert!(out.requeued_bytes() > 0);
            out.verified()
                .expect("both nodes' acked bytes must survive");
        });
    }

    #[test]
    fn a_second_crash_on_an_unpopulated_node_is_a_config_error() {
        run(async {
            let w = Rc::new(CollPerf::tiny([2, 2, 2]));
            let tb = TestbedSpec::small(w.procs(), 2).build();
            let mut cfg = CrashConfig::after_writes(crash_hints(true), "/gfs/crash_2nd", 85, 1);
            cfg.faults = cfg.faults.node_crash(7, SimTime::ZERO);
            let err = run_crash_recovery(&tb, w, &cfg).await.unwrap_err();
            assert_eq!(err, CrashConfigError::NoRankOnNode { node: 7 });
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
            out.verified()
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
            out.verified()
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
            assert!(out.verified().is_err(), "data loss must fail verification");
        });
    }
}
