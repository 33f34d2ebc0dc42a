//! Crash-state enumeration (the persist-point checking of NVM
//! allocators, applied to the cache and its journal), through the one
//! source of crash states, `e10_workloads::crash`: a scenario runs once
//! traced (`cut_instants`), then once per crash state (`each_state`).
//! A state is a power cut 1 ns after an instant at which the traced run
//! woke a task, with every write or journal append then in flight torn
//! to nothing, one tear unit or all of it. (The ssd cache writes
//! through the page cache, which emits no `storesim` point; but each
//! completed device write wakes its caller at its completion instant,
//! so the wake instants hold every completion.)
//!
//! Two scenarios:
//!
//! * The two-tenant pressure eviction of `romio/tests/eviction_pins.rs`
//!   (ssd cache, journal and integrity on): tenant a flushes after each
//!   of its three writes, or once after all three. Each state recovers
//!   both tenants' caches and flushes them, and must keep these
//!   promises:
//!   - recovery does not panic (nor deadlock);
//!   - every byte a write acknowledged is in the global file, or named
//!     by a typed error (`RecoverError::NoJournal`, or a digest mismatch
//!     the recovery report lists);
//!   - every byte in the global file is one an issued write carried.
//! * The crash workload itself: `crash::execute` on a 2-rank
//!   `coll_perf`, one rank per node, journal on and the crash-tolerant
//!   collectives, on each cache class, cutting either node once both
//!   ranks have opened the file. Each state must pass the chaos soak's
//!   acked-byte oracle (`Executed::acked_bad`), and every byte
//!   in the global file must be the generator's.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use e10_faultsim::FaultPlan;
use e10_localfs::{LocalFs, Pending, Tear};
use e10_mpisim::Info;
use e10_pfs::{PfsHandle, Striping};
use e10_romio::{CacheConfig, CacheLayer, RecoverError, Testbed, TestbedSpec};
use e10_simcore::{kill_group, new_group, now, run, sleep, spawn_in_group, SimDuration, SimTime};
use e10_storesim::{ExtentMap, Payload, Source};
use e10_workloads::crash::{cut_instants, each_state, execute, tear_by, Executed, Gate};
use e10_workloads::{CollPerf, Workload};

const KIB: u64 = 1 << 10;

/// Payload seeds of tenants a and b.
const SEEDS: [u64; 2] = [1, 2];

fn managed(name: &str) -> CacheConfig {
    let mut c = CacheConfig::new("/scratch", name, 0, 0);
    c.hiwater = 80;
    c.lowater = 70;
    c.journal = true;
    c.integrity = true;
    c.scrub_ms = 1;
    c
}

/// Writes of one tenant: issued (before the call) and acknowledged
/// (after it returned), as `(offset, len)`.
#[derive(Default)]
struct Ledger {
    issued: [Vec<(u64, u64)>; 2],
    acked: [Vec<(u64, u64)>; 2],
}

/// Write `len` bytes at `off` for tenant `t`: through its cache, or
/// through the global file when the cache hands the extent back.
async fn write(
    ledger: &RefCell<Ledger>,
    t: usize,
    layer: &CacheLayer,
    global: &PfsHandle,
    off: u64,
    len: u64,
) {
    ledger.borrow_mut().issued[t].push((off, len));
    let payload = Payload::gen(SEEDS[t], off, len);
    if !layer.write(off, payload.clone()).await.unwrap() {
        global.write(0, off, payload).await.unwrap();
    }
    ledger.borrow_mut().acked[t].push((off, len));
}

/// One node with a 1 MiB cache volume, and the two tenants' global
/// files.
async fn eviction_testbed() -> (Testbed, [PfsHandle; 2]) {
    let mut spec = TestbedSpec::small(2, 1);
    spec.localfs.capacity = 1 << 20;
    let tb = spec.build();
    let globals = [
        tb.pfs.create(0, "/gfs/pina", Striping::default()).await,
        tb.pfs.create(0, "/gfs/pinb", Striping::default()).await,
    ];
    (tb, globals)
}

/// The pressure-eviction run of `eviction_pins.rs`; with `flush_each`
/// false, tenant a's three writes share one flush.
async fn scenario(
    fs: LocalFs,
    globals: [PfsHandle; 2],
    flush_each: bool,
    ledger: Rc<RefCell<Ledger>>,
) {
    let [ga, gb] = globals;
    let la = CacheLayer::open(fs.clone(), ga.clone(), managed("pina"))
        .await
        .unwrap();
    let lb = CacheLayer::open(fs.clone(), gb.clone(), managed("pinb"))
        .await
        .unwrap();
    for i in 0..3 {
        write(&ledger, 0, &la, &ga, i * 100 * KIB, 100 * KIB).await;
        if flush_each {
            la.flush().await.unwrap();
        }
    }
    if !flush_each {
        la.flush().await.unwrap();
    }
    let junk = fs.create("/scratch/other.dat").await.unwrap();
    junk.fallocate(0, 200 * KIB).await.unwrap();
    write(&ledger, 1, &lb, &gb, 0, 350 * KIB).await;
    lb.flush().await.unwrap();
    sleep(SimDuration::from_millis(2)).await;
    write(&ledger, 0, &la, &ga, 400 * KIB, 4 * KIB).await;
    la.flush().await.unwrap();
    la.close().await.unwrap();
    lb.close().await.unwrap();
}

/// What one eviction crash state found.
#[derive(Default)]
struct Found {
    /// The writes and appends in flight at the cut.
    in_flight: Vec<Pending>,
    /// Bytes recovery re-queued, over both tenants.
    requeued: u64,
}

/// One eviction crash state: cut at `at`, tear by `tears`.
fn eviction_state(flush_each: bool, at: SimTime, tears: &[Tear]) -> Found {
    let tears = tears.to_vec();
    run(async move {
        let (tb, globals) = eviction_testbed().await;
        let fs = tb.localfs[0].clone();
        let ledger = Rc::new(RefCell::new(Ledger::default()));
        let gid = new_group();
        drop(spawn_in_group(
            gid,
            scenario(fs.clone(), globals.clone(), flush_each, Rc::clone(&ledger)),
        ));
        sleep(at.since(now())).await;
        let mut found = Found::default();
        fs.power_loss(tear_by(&tears, &mut found.in_flight));
        kill_group(gid);
        let ledger = ledger.take();
        for (t, global) in globals.iter().enumerate() {
            check_tenant(&fs, global, t, &ledger, &mut found).await;
        }
        found
    })
}

/// Recover tenant `t`'s cache, flush it, and hold the global file to
/// the module's promises.
async fn check_tenant(
    fs: &LocalFs,
    global: &PfsHandle,
    t: usize,
    ledger: &Ledger,
    found: &mut Found,
) {
    let name = ["pina", "pinb"][t];
    let named: Vec<(u64, u64)> =
        match CacheLayer::recover(fs.clone(), global.clone(), managed(name)).await {
            Ok((layer, report)) => {
                found.requeued += report.requeued_bytes;
                let flushed = layer.close().await;
                if report.corrupt.is_empty() {
                    flushed.unwrap();
                } else {
                    assert!(flushed.is_err(), "a dropped extent surfaces at flush");
                }
                report.corrupt
            }
            Err(RecoverError::NoJournal { cached_bytes }) => {
                assert_eq!(
                    cached_bytes, 0,
                    "tenant {t}: staged bytes without a journal"
                );
                Vec::new()
            }
            Err(e) => panic!("tenant {t}: {e}"),
        };
    let ext = global.extents();
    let seed = SEEDS[t];
    for &(off, len) in &ledger.acked[t] {
        let inside_named = named.iter().any(|&(o, l)| o <= off && off + len <= o + l);
        assert!(
            inside_named || ext.verify_gen(seed, off, len).is_ok(),
            "tenant {t}: acked [{off}, +{len}) is neither global nor named"
        );
    }
    let mut issued = ExtentMap::new();
    for &(off, len) in &ledger.issued[t] {
        issued.insert(off, len, Source::Zero);
    }
    for (s, e, _) in ext.iter() {
        assert!(
            issued.covered(s, e - s) && ext.verify_gen(seed, s, e - s).is_ok(),
            "tenant {t}: global [{s}, {e}) was carried by no issued write"
        );
    }
}

/// Counts over every crash state of one eviction scenario.
#[derive(Debug, Default)]
struct Tally {
    states: usize,
    /// States that cut a write or append in flight.
    torn: usize,
    /// States whose recovery re-queued bytes.
    requeued: usize,
}

fn enumerate_eviction(flush_each: bool) -> Tally {
    let cuts = cut_instants(async move {
        let (tb, globals) = eviction_testbed().await;
        let ledger = Rc::new(RefCell::new(Ledger::default()));
        scenario(tb.localfs[0].clone(), globals, flush_each, ledger).await;
    });
    let mut tally = Tally::default();
    tally.states = each_state(&cuts, |at, tears| {
        let found = eviction_state(flush_each, at, tears);
        tally.torn += usize::from(!found.in_flight.is_empty());
        tally.requeued += usize::from(found.requeued > 0);
        found.in_flight
    });
    tally
}

#[test]
fn every_eviction_crash_state_recovers_what_was_acked() {
    // (states, torn, requeued) per scenario, pinned exactly.
    for (name, flush_each, pin) in [
        ("flush_each", true, (141, 44, 85)),
        ("one_flush", false, (149, 56, 105)),
    ] {
        let t0 = Instant::now();
        let tally = enumerate_eviction(flush_each);
        println!(
            "crash states: {name} {tally:?} in {:.2} s",
            t0.elapsed().as_secs_f64()
        );
        // The enumeration must reach the states it exists for.
        assert!(tally.torn > 0 && tally.requeued > 0);
        assert_eq!((tally.states, tally.torn, tally.requeued), pin, "{name}");
    }
}

/// The crash workload's one file.
fn files() -> [(String, u64); 1] {
    [("/gfs/cut".to_string(), 5)]
}

fn workload_hints(class: &str) -> Info {
    let h = Info::from_pairs([
        ("cb_buffer_size", "4096"),
        ("striping_unit", "8192"),
        ("e10_cache", "enable"),
        ("e10_cache_journal", "enable"),
        ("e10_cache_class", class),
        ("e10_coll_timeout", "40"),
    ]);
    if class == "hybrid" {
        // Each node stages 8 KiB in 4 KiB buffers: the front takes
        // one, the SSD the other.
        h.set("e10_nvm_capacity", "4K");
    }
    h
}

/// The crash workload with `node` cut at `at` (or at the gate, if that
/// is later) and what was in flight torn by `tears`, held to the
/// acked-byte oracle; with what the cut met.
async fn crash_workload(
    class: &str,
    node: usize,
    at: SimTime,
    tears: Vec<Tear>,
) -> (Executed, Vec<Pending>) {
    let w: Rc<dyn Workload> = Rc::new(CollPerf::tiny([2, 1, 1]));
    let tb = TestbedSpec::small(w.procs(), 2).build();
    let plan = Some(FaultPlan::new(0).node_crash(node, at));
    let gate = Gate::LastOpen {
        idle: SimDuration::ZERO,
    };
    let (files, mut met) = (files(), Vec::new());
    let tear = tear_by(&tears, &mut met);
    let run = execute(&tb, &w, &workload_hints(class), plan, &files, gate, tear).await;
    let bad = &run.acked_bad;
    assert!(bad.is_empty(), "{class}: acked bytes lost: {bad:?}");
    let (path, seed) = &files[0];
    let ext = tb.pfs.file_extents(path).expect("the global file exists");
    for (s, e, _) in ext.iter() {
        let carried = ext.verify_gen(*seed, s, e - s);
        assert!(carried.is_ok(), "{class}: global [{s}, {e}): {carried:?}");
    }
    (run, met)
}

/// Counts over every crash state of the crash workload on one class.
#[derive(Debug, Default)]
struct WorkloadTally {
    /// Cut instants over both nodes.
    cuts: usize,
    states: usize,
    /// States that cut a journal append in flight.
    appending: usize,
    /// States in which a journal record landed whole while the append
    /// that wrote it was never acked (its caller died first).
    landed_unacked: usize,
}

fn enumerate_workload(class: &'static str) -> WorkloadTally {
    // Cuts land once both ranks have opened the file; a cut declared
    // earlier waits for that gate, so only the instants after it are
    // distinct states. The traced run is cut at `far`, once it is done.
    let gate = run(crash_workload(class, 0, SimTime::ZERO, Vec::new()))
        .0
        .cuts[0]
        .1;
    let far = SimTime::ZERO + SimDuration::from_secs(1);
    let mut tally = WorkloadTally::default();
    for node in 0..2 {
        let mut cuts = cut_instants(async move {
            crash_workload(class, node, far, Vec::new()).await;
        });
        cuts.retain(|&t| gate < t && t < far);
        tally.cuts += cuts.len();
        tally.states += each_state(&cuts, |at, tears| {
            let met = run(crash_workload(class, node, at, tears.to_vec())).1;
            let mut appends = met.iter().zip(0..).filter(|(p, _)| p.append);
            let landed = |i: usize| tears.get(i) == Some(&Tear::All);
            tally.appending += usize::from(appends.clone().next().is_some());
            tally.landed_unacked += usize::from(appends.any(|(_, i)| landed(i)));
            met
        });
    }
    tally
}

#[test]
fn every_crash_workload_state_keeps_every_acked_byte() {
    // (cuts, states, appending, landed_unacked) per class, pinned exactly.
    for (class, pin) in [
        ("ssd", (234, 250, 24, 12)),
        ("nvm", (266, 306, 16, 8)),
        ("hybrid", (256, 282, 16, 8)),
    ] {
        let t0 = Instant::now();
        let t = enumerate_workload(class);
        println!(
            "crash states: workload {class} {t:?} in {:.2} s",
            t0.elapsed().as_secs_f64()
        );
        assert!(t.states > t.cuts, "{class}: no write was cut in flight");
        assert!(t.landed_unacked > 0, "{class}: no record landed unacked");
        let got = (t.cuts, t.states, t.appending, t.landed_unacked);
        assert_eq!(got, pin, "{class}");
    }
}
