//! The fault-injection path pinned from the outside, through the public
//! API only.
//!
//! * **Queries:** one plan holding a spec of every kind is stepped
//!   through eleven virtual instants, and at each one all eight query
//!   functions are asked for every node, link and target. What they
//!   return, how many faults they count, the `fault.injected` events
//!   they emit and the counters they bump are held to constants.
//! * **Landing:** injected corruption is landed by both local-FS write
//!   paths (the page-cache-staged `write` and the NVM `write_direct`)
//!   and by a PFS read under media rot; each file's structural digest
//!   is held to a constant.
//!
//! How the queries walk the plan and where corruption is applied may
//! change; none of these values may.

use std::fmt::Debug;
use std::rc::Rc;

use e10_faultsim::{
    always, device_failed, injected_count, link_corrupt, link_fault, pfs_corrupt, rpc_fails,
    ssd_corruption, ssd_stall, sync_thread_killed, DeviceClass, FaultPlan, FaultSchedule,
};
use e10_pfs::Striping;
use e10_romio::TestbedSpec;
use e10_simcore::trace::{self, MetricsRegistry, RingSink, Value};
use e10_simcore::{run, sleep, SimDuration, SimTime};
use e10_storesim::Payload;

/// Nodes, link endpoints and PFS targets every query is asked about.
const IDS: usize = 4;

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// FNV-1a, 64 bit.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// What the query sweep reports.
#[derive(Debug, PartialEq)]
struct Sweep {
    /// Query results that fired (`Some`, `true` or non-empty).
    fired: u64,
    /// FNV-1a of every result's `{:?}`, in call order.
    digest: u64,
    /// `injected_count()` at the end.
    injected: u64,
    /// `(fault, node, extra_ns)` of every `fault.injected` event.
    events: Vec<(String, u32, u64)>,
    /// `faultsim.injected`, `fault.device_fail`, `fault.sync_thread_kill`.
    counters: [u64; 3],
}

struct Tally {
    fired: u64,
    digest: u64,
}

impl Tally {
    fn see(&mut self, result: impl Debug, fired: bool) {
        self.fired += fired as u64;
        fnv1a(&mut self.digest, format!("{result:?}").as_bytes());
    }
}

fn plan() -> FaultPlan {
    FaultPlan::new(2016)
        .node_crash(2, secs(3))
        .ssd_stall(1, always(), 0.5, SimDuration::from_millis(5))
        .link_fault(
            Some(0),
            None,
            secs(2)..secs(8),
            0.5,
            SimDuration::from_micros(100),
        )
        .rpc_fail(Some(1), always(), 0.5)
        .cache_bitflip(1, secs(3)..secs(9), 0.5)
        .cache_torn(2, always(), 0.5, 512)
        .link_corrupt(None, Some(3), always(), 0.5)
        .pfs_corrupt(secs(4)..secs(11), 0.5)
        .device_fail(3, DeviceClass::Nvm, secs(6))
        .sync_thread_kill(0, secs(7))
}

fn sweep() -> Sweep {
    run(async {
        let ring = Rc::new(RingSink::new(1 << 16));
        let metrics = Rc::new(MetricsRegistry::new());
        let _t = trace::install_with_metrics(ring.clone(), metrics.clone());
        let _f = FaultSchedule::install(plan());
        let mut t = Tally {
            fired: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        };
        for step in 0..=10 {
            if step > 0 {
                sleep(SimDuration::from_secs(1)).await;
            }
            for node in 0..IDS {
                let r = ssd_stall(node);
                t.see(r, r.is_some());
                for dst in 0..IDS {
                    let r = link_fault(node, dst);
                    t.see(r, r.is_some());
                }
                let r = ssd_corruption(node, 4096);
                t.see(&r, !r.is_empty());
                for dst in 0..IDS {
                    let r = link_corrupt(node, dst, 4096);
                    t.see(&r, !r.is_empty());
                }
                let r = pfs_corrupt(4096);
                t.see(&r, !r.is_empty());
                for class in [DeviceClass::Ssd, DeviceClass::Nvm] {
                    let r = device_failed(node, class);
                    t.see(r, r);
                }
                let r = sync_thread_killed(node);
                t.see(r, r);
            }
            for target in 0..IDS {
                let r = rpc_fails(target);
                t.see(r, r);
            }
        }
        let events = ring
            .events()
            .into_iter()
            .filter(|e| e.span == "fault.injected")
            .map(|e| {
                let field = |k: &str| e.fields.iter().find(|(n, _)| *n == k).map(|(_, v)| v);
                let fault = match field("fault") {
                    Some(Value::Str(s)) => s.to_string(),
                    other => panic!("fault field: {other:?}"),
                };
                let extra = match field("extra_ns") {
                    Some(Value::U64(x)) => *x,
                    other => panic!("extra_ns field: {other:?}"),
                };
                (fault, e.node.expect("injected events name a node"), extra)
            })
            .collect();
        let snap = metrics.snapshot();
        Sweep {
            fired: t.fired,
            digest: t.digest,
            injected: injected_count(),
            events,
            counters: [
                snap.counter("faultsim.injected"),
                snap.counter("fault.device_fail"),
                snap.counter("fault.sync_thread_kill"),
            ],
        }
    })
}

/// FNV-1a of the `(fault, node, extra_ns)` event sequence, so the pin
/// below stays one line.
fn events_digest(events: &[(String, u32, u64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (fault, node, extra) in events {
        fnv1a(&mut h, format!("{fault}/{node}/{extra};").as_bytes());
    }
    h
}

#[test]
fn every_query_answers_as_pinned() {
    let s = sweep();
    assert_eq!(s, sweep(), "the sweep must be reproducible");
    for kind in [
        "ssd_stall",
        "link",
        "cache_bitflip",
        "cache_torn",
        "link_corrupt",
        "pfs_corrupt",
        "device_fail",
        "sync_thread_kill",
        "rpc",
    ] {
        assert!(s.events.iter().any(|e| e.0 == kind), "{kind} never fired");
    }
    let got = (
        s.fired,
        s.digest,
        s.injected,
        s.events.len(),
        events_digest(&s.events),
        s.counters,
    );
    let want = (
        72,
        5_894_698_644_209_824_324,
        72,
        72,
        12_448_395_545_984_791_698,
        [72, 5, 4],
    );
    assert_eq!(got, want);
}

/// Digests of `(staged local file, direct NVM file, PFS file)`, with
/// corruption landing on each at probability `prob`.
fn landing(prob: f64) -> (u64, u64, u64) {
    run(async move {
        let tb = TestbedSpec::small(8, 4).build();
        let _f = FaultSchedule::install(
            FaultPlan::new(2016)
                .cache_bitflip(1, always(), prob)
                .cache_torn(1, always(), prob, 512)
                .pfs_corrupt(always(), prob),
        );
        let writes = [(0, 8192), (3000, 5000), (12_000, 700)];
        let staged = tb.localfs[1].create("/scratch/pin").await.unwrap();
        for (i, &(off, len)) in writes.iter().enumerate() {
            let p = Payload::gen(10 + i as u64, off, len);
            staged.write(off, p).await.unwrap();
        }
        let direct = tb.nvmfs[1].create("/nvm/pin").await.unwrap();
        for (i, &(off, len)) in writes.iter().enumerate() {
            let p = Payload::gen(20 + i as u64, off, len);
            direct.write_direct(off, p).await.unwrap();
        }
        let gfs = tb.pfs.create(0, "/gfs/pin", Striping::default()).await;
        gfs.write(0, 0, Payload::gen(30, 0, 1 << 20)).await.unwrap();
        gfs.read(0, 4096, 64 << 10).await.unwrap();
        (
            staged.extents().digest(0, 16 << 10),
            direct.extents().digest(0, 16 << 10),
            gfs.extents().digest(0, 1 << 20),
        )
    })
}

#[test]
fn corruption_lands_as_pinned_on_every_write_path() {
    let (clean, hit) = (landing(0.0), landing(1.0));
    assert!(clean.0 != hit.0 && clean.1 != hit.1 && clean.2 != hit.2);
    let want_clean = (
        5_272_657_108_196_267_721,
        6_730_366_028_980_424_944,
        7_552_468_417_603_353_367,
    );
    let want_hit = (
        13_552_707_915_826_641_368,
        14_806_305_229_860_484_585,
        16_484_785_498_367_030_228,
    );
    assert_eq!(clean, want_clean);
    assert_eq!(hit, want_hit);
}
