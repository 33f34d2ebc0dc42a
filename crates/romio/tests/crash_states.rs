//! Crash-state enumeration of managed pressure eviction (the persist-
//! point checking of NVM allocators, applied to the cache's journal):
//! the two-tenant set-up of `eviction_pins.rs` — ssd cache, journal and
//! integrity on — runs once traced, then once per crash state. A state
//! is a power cut 1 ns after an instant at which the traced run woke a
//! task, with every write or journal append still in flight torn to
//! nothing, one unit or all of it. (The ssd cache writes through the
//! page cache, which emits no `storesim` point; but each completed
//! device write wakes its caller at its completion instant, so the
//! wake instants hold every completion.) Each state then recovers both
//! tenants' caches and flushes them, and must keep these promises:
//!
//! * recovery does not panic (nor deadlock);
//! * every byte a write acknowledged is in the global file, or named by
//!   a typed error (`RecoverError::NoJournal`, or a digest mismatch the
//!   recovery report lists);
//! * every byte in the global file is one an issued write carried.
//!
//! Two scenarios: tenant a flushes after each of its three writes, and
//! the same three writes followed by one flush.

use std::cell::RefCell;
use std::rc::Rc;

use e10_localfs::LocalFs;
use e10_pfs::{PfsHandle, Striping};
use e10_romio::{CacheConfig, CacheLayer, RecoverError, TestbedSpec};
use e10_simcore::trace::{install, RingSink};
use e10_simcore::{kill_group, new_group, now, run, sleep, spawn_in_group, SimDuration, SimTime};
use e10_storesim::{ExtentMap, Payload, Source};

const KIB: u64 = 1 << 10;

/// Torn-write unit of the cache SSD: "one unit" of a tear.
const TEAR_UNIT: u64 = 4096;

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

/// What one crash state found.
#[derive(Default)]
struct Found {
    /// Lengths of the writes and appends in flight at the cut.
    in_flight: Vec<u64>,
    /// Bytes recovery re-queued, over both tenants.
    requeued: u64,
}

/// One crash state: cut at `at`, and tear the `i`-th in-flight write
/// by `choice[i]` (0 nothing, 1 one unit, 2 all; missing entries tear
/// to nothing).
fn crash_state(flush_each: bool, at: SimTime, choice: &[u8]) -> Found {
    let choice = choice.to_vec();
    run(async move {
        let mut spec = TestbedSpec::small(2, 1);
        spec.localfs.capacity = 1 << 20;
        let tb = spec.build();
        let fs = tb.localfs[0].clone();
        let globals = [
            tb.pfs.create(0, "/gfs/pina", Striping::default()).await,
            tb.pfs.create(0, "/gfs/pinb", Striping::default()).await,
        ];
        let ledger = Rc::new(RefCell::new(Ledger::default()));
        let gid = new_group();
        drop(spawn_in_group(
            gid,
            scenario(fs.clone(), globals.clone(), flush_each, Rc::clone(&ledger)),
        ));
        sleep(at.since(now())).await;
        let mut found = Found::default();
        fs.power_loss(1, |len| {
            let keep = match choice.get(found.in_flight.len()) {
                None | Some(0) => 0,
                Some(1) => TEAR_UNIT.min(len),
                _ => len,
            };
            found.in_flight.push(len);
            keep
        });
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

/// Every instant one uncut run woke a task: each device completion
/// wakes its caller, so these hold every completion instant.
fn wake_instants(flush_each: bool) -> Vec<SimTime> {
    run(async move {
        let sink = Rc::new(RingSink::new(1 << 16));
        let _guard = install(Rc::clone(&sink) as _);
        let mut spec = TestbedSpec::small(2, 1);
        spec.localfs.capacity = 1 << 20;
        let tb = spec.build();
        let globals = [
            tb.pfs.create(0, "/gfs/pina", Striping::default()).await,
            tb.pfs.create(0, "/gfs/pinb", Striping::default()).await,
        ];
        let ledger = Rc::new(RefCell::new(Ledger::default()));
        scenario(tb.localfs[0].clone(), globals, flush_each, ledger).await;
        assert_eq!(sink.dropped(), 0);
        let mut at: Vec<SimTime> = sink
            .events()
            .iter()
            .filter(|e| e.span == "task.wake")
            .map(|e| e.sim_time)
            .collect();
        at.dedup();
        at
    })
}

/// Counts over every crash state of one scenario.
#[derive(Debug, Default)]
struct Tally {
    states: usize,
    /// States that cut a write or append in flight.
    torn: usize,
    /// States whose recovery re-queued bytes.
    requeued: usize,
}

/// Run every crash state of one scenario.
fn enumerate(flush_each: bool) -> Tally {
    let mut tally = Tally::default();
    for t in wake_instants(flush_each) {
        let at = t + SimDuration::from_nanos(1);
        // Odometer over the tear choices of this cut's in-flight set;
        // "one unit" of a write no longer than a unit is all of it.
        let mut choice: Vec<u8> = Vec::new();
        loop {
            let state = || crash_state(flush_each, at, &choice);
            let found = std::panic::catch_unwind(state).unwrap_or_else(|e| {
                eprintln!(
                    "failing crash state: cut at {at}, tears {choice:?} \
                     (0 nothing, 1 one unit, 2 all; unlisted: nothing)"
                );
                std::panic::resume_unwind(e)
            });
            let lens = &found.in_flight;
            tally.states += 1;
            tally.torn += usize::from(!lens.is_empty());
            tally.requeued += usize::from(found.requeued > 0);
            choice.resize(lens.len(), 0);
            let options = |len: u64| if len > TEAR_UNIT { 3 } else { 2 };
            let next = (0..lens.len())
                .rev()
                .find(|&i| choice[i] + 1 < options(lens[i]));
            let Some(i) = next else { break };
            choice[i] += 1;
            choice[i + 1..].fill(0);
        }
    }
    tally
}

#[test]
fn every_crash_state_recovers_what_was_acked() {
    for (name, flush_each) in [("flush_each", true), ("one_flush", false)] {
        let t0 = std::time::Instant::now();
        let tally = enumerate(flush_each);
        println!(
            "crash states: {name} {tally:?} in {:.2} s",
            t0.elapsed().as_secs_f64()
        );
        // The enumeration must reach the states it exists for.
        assert!(tally.torn > 0 && tally.requeued > 0);
    }
}
