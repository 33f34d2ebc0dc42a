//! Heap-allocation regression guard for the two-phase hot paths.
//!
//! The simulation is deterministic and single-threaded, so the number
//! of allocator calls for a fixed scenario is a stable, reproducible
//! metric. The counting allocator itself lives in
//! `e10_simcore::alloc_gauge`; this test installs it and gates eleven
//! properties:
//!
//! 1. an absolute budget on the fixed 8-rank scenario (a reintroduced
//!    per-round clone or per-piece copy blows the ceiling),
//! 2. **zero marginal allocations per steady-state round**: doubling
//!    the number of two-phase rounds must not change the allocator-call
//!    count at all — without a cache, through the SSD cache and through
//!    the hybrid cache's NVM front. Warm-up rounds may grow scratch
//!    buffers to their high-water mark; after that, every round reuses
//!    them, and
//! 3. what a round may cost where it cannot be free — at most a small
//!    multiple of P under the crash-tolerant transport — and that it
//!    is free under the analytic collectives of the paper-scale runs
//!    too, and
//! 4. what a warm collective *call* costs under the analytic
//!    collectives: a constant per communicator, plus each node leader's
//!    staging file under `node_agg` — on one open file, and, since the
//!    round scratch is the rank's and not the file's, for the first
//!    call on the rank's next file too, and
//! 5. that the count *is* reproducible where a hash table with random
//!    keys would make it not: file churn on a node's volume, and a
//!    whole open → split → write → close, and
//! 6. what resolving the paper's hint set costs: `AdioFile::open` does
//!    it once per rank, 512 times per collective open (the aggregator
//!    election it feeds runs once per open), and that the defaults it
//!    starts from cost nothing, and
//! 7. that an open and close cost every rank the same whatever the
//!    node count, and each added rank what the one before it did, and
//! 8. what a collective-read round costs, from the global file and from
//!    the aggregators' caches — pinned, not zero, and
//! 9. that asking a cache whether it covers a range costs nothing,
//!    however many extents its file holds, and
//! 10. what a cache open and close cost when no extent is posted in
//!     between — a non-aggregator's, under collective buffering: no
//!     sync thread and no sync queue, and
//! 11. what one collective open and close cost, and what each rank
//!     adds to it, under the analytic collectives: without the cache,
//!     with it, with its journal and with its NVM front.
//!
//! Debug aid: set `E10_ALLOC_BT=lo:hi` (plus `RUST_BACKTRACE=1`) to
//! print a backtrace for every counted allocation whose ordinal falls
//! in `[lo, hi)` — see `alloc_gauge::trace_range`.

use std::rc::Rc;

use e10_mpisim::{CollBackend, FileView};
use e10_simcore::alloc_gauge::{self, CountingAlloc};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn install_bt_hook() {
    if let Ok(spec) = std::env::var("E10_ALLOC_BT") {
        if let Some((lo, hi)) = spec.split_once(':') {
            if let (Ok(lo), Ok(hi)) = (lo.parse(), hi.parse()) {
                alloc_gauge::trace_range(lo, hi);
            }
        }
    }
}

/// What the scenario's writes go through.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Cache {
    Off,
    /// The SSD block cache.
    Ssd,
    /// The hybrid class: every collective buffer (64 KB at most) is
    /// small enough for the NVM front, whose two-buffer budget sends
    /// what it cannot hold to the SSD block tier — so the sync thread
    /// reads through both, splitting each chunk along the front map.
    Hybrid,
}

/// The write scenarios' hints: collective buffering in 64 KB rounds,
/// through `cache`.
fn scenario_info(cache: Cache) -> e10_mpisim::Info {
    let info =
        e10_mpisim::Info::from_pairs([("romio_cb_write", "enable"), ("cb_buffer_size", "65536")]);
    if cache == Cache::Hybrid {
        info.set("e10_cache_class", "hybrid");
        info.set("e10_nvm_threshold", "65536");
        info.set("e10_nvm_capacity", "131072");
    }
    if cache != Cache::Off {
        info.set("e10_cache", "enable");
        info.set("e10_cache_flush_flag", "flush_immediate");
        // Streaming eviction keeps the cache-file extent index and
        // stream log bounded; without it the cache metadata grows with
        // every round and no zero-allocation steady state can exist.
        info.set("e10_cache_evict", "enable");
        // Bounded sync queue: without it the staging backlog (queued
        // extents, in-flight messages, cache-file extent churn) grows
        // with run length and its containers keep doubling — bounded
        // backlog is what makes a zero-allocation steady state
        // well-defined.
        info.set("e10_cache_sync_depth", "4");
    }
    info
}

/// A fixed 8-rank interleaved collective write; `blocks` interleaved
/// 10 KB blocks per rank (rounds scale with it). Returns rounds.
/// With `degraded_hints` the crash-tolerance knob is set *explicitly
/// at its default value* (`e10_coll_timeout = 0`): parsing and wiring
/// it must not wake any of the tolerance machinery.
fn collective_write_scenario(blocks: u64, cache: Cache, degraded_hints: bool) -> u64 {
    let timeout = degraded_hints.then_some("0");
    write_scenario(8, blocks, cache, timeout, CollBackend::Algorithmic)
}

/// The same write by `procs` ranks, two to a node (so the rounds per
/// block do not depend on `procs`); `coll_timeout` sets
/// `e10_coll_timeout`, `backend` is the
/// testbed's collective backend.
fn write_scenario(
    procs: usize,
    blocks: u64,
    cache: Cache,
    coll_timeout: Option<&'static str>,
    backend: CollBackend,
) -> u64 {
    use e10_mpisim::FlatType;
    use std::cell::Cell;
    let rounds = Rc::new(Cell::new(0u64));
    let rounds2 = Rc::clone(&rounds);
    e10_simcore::run(async move {
        let mut spec = e10_romio::TestbedSpec::small(procs, procs / 2);
        spec.backend = backend;
        let tb = spec.build();
        let handles: Vec<_> = tb
            .ctxs()
            .into_iter()
            .map(|ctx| {
                let rounds = Rc::clone(&rounds2);
                e10_simcore::spawn(async move {
                    let info = scenario_info(cache);
                    if let Some(timeout) = coll_timeout {
                        info.set("e10_coll_timeout", timeout);
                    }
                    let f = e10_romio::AdioFile::open(&ctx, "/gfs/alloc", &info, true)
                        .await
                        .unwrap();
                    let rank = ctx.comm.rank();
                    let blocks: Vec<(u64, u64)> = (0..blocks)
                        .map(|i| ((i * procs as u64 + rank as u64) * 10_000, 10_000))
                        .collect();
                    let view = FileView::new(&FlatType::indexed(blocks), 0);
                    let r = e10_romio::write_at_all(
                        &f,
                        &view,
                        &e10_romio::DataSpec::FileGen { seed: 77 },
                    )
                    .await;
                    assert_eq!(r.error_code, 0);
                    assert!(r.rounds > 1);
                    rounds.set(r.rounds as u64);
                    f.close().await;
                })
            })
            .collect();
        e10_simcore::join_all(handles).await;
    });
    rounds.get()
}

/// Every rank's views, `[rank][call]`.
type CallViews = Rc<Vec<Vec<FileView>>>;

/// Every rank's view of each of `calls` collective writes by `procs`
/// ranks: 2 interleaved 8 KB blocks per rank, in a region of the file
/// of its own per call — like Flash-IO's one `MPI_File_write_all` per
/// variable. Built before a count starts: the views are the caller's,
/// not the collective's.
fn call_views(procs: usize, calls: u64) -> CallViews {
    use e10_mpisim::FlatType;
    let p = procs as u64;
    let views = (0..p).map(|rank| {
        let call = |call| {
            let blocks = (0..2).map(|i| (call * 2 * p * 8192 + (i * p + rank) * 8192, 8192));
            FileView::new(&FlatType::indexed(blocks.collect()), 0)
        };
        (0..calls).map(call).collect()
    });
    Rc::new(views.collect())
}

/// `procs` ranks, two to a node, under the analytic collectives of the
/// paper-scale runs, open one file, make a collective write of each of
/// their `views` on it, and close it. With 32 KB stripes every
/// aggregator's file domain is one whole stripe — one 64 KB round per
/// call whatever `procs` is, and no two aggregators contend for an
/// extent lock; `node_agg` runs the writes through the node leaders'
/// pre-stage.
fn calls_scenario(views: &CallViews, cache: Cache, node_agg: bool) {
    let views = Rc::clone(views);
    e10_simcore::run(async move {
        let procs = views.len();
        let mut spec = e10_romio::TestbedSpec::small(procs, procs / 2);
        spec.backend = CollBackend::Analytic;
        let tb = spec.build();
        let ranks = tb.ctxs().into_iter().map(|ctx| {
            let views = Rc::clone(&views);
            e10_simcore::spawn(async move {
                let info = scenario_info(cache);
                info.set("striping_unit", "32768");
                if node_agg {
                    info.set("e10_two_phase", "node_agg");
                }
                let f = e10_romio::AdioFile::open(&ctx, "/gfs/calls", &info, true)
                    .await
                    .unwrap();
                let data = e10_romio::DataSpec::FileGen { seed: 79 };
                for view in &views[ctx.comm.rank()] {
                    let r = e10_romio::write_at_all(&f, view, &data).await;
                    assert_eq!((r.error_code, r.rounds), (0, 1));
                }
                f.close().await;
            })
        });
        e10_simcore::join_all(ranks.collect()).await;
    });
}

/// What a warm collective write costs, the paper's Flash-IO shape (one
/// `MPI_File_write_all` per variable, 25 per file): allocator calls
/// per extra call on one open file, at 16 and at 32 ranks. Through the
/// extended algorithm, with the cache off and through the SSD cache,
/// a call costs 3 whatever the rank count — the round loop's scratch
/// stays with the rank and a rendezvous boxes nothing per rank,
/// so what is left is the communicator's: the offset exchange's shared
/// summary and the two vectors of its file domains. Through `node_agg`
/// and the hybrid cache, each node leader adds 4 (8 leaders at 16
/// ranks, 16 at 32): it stages its node's data through a file it
/// creates, writes and unlinks on the node-local volume, simulated
/// metadata work. `(ranks, extended off, extended SSD, node_agg
/// hybrid)`.
#[test]
fn a_warm_collective_call_costs_what_is_pinned() {
    const PINNED: [(usize, f64, f64, f64); 2] = [(16, 3.0, 3.0, 35.0), (32, 3.0, 3.0, 67.0)];
    install_bt_hook();
    for (procs, off, ssd, hybrid) in PINNED {
        let (short, long) = (call_views(procs, 12), call_views(procs, 24));
        for (cache, node_agg, want) in [
            (Cache::Off, false, off),
            (Cache::Ssd, false, ssd),
            (Cache::Hybrid, true, hybrid),
        ] {
            calls_scenario(&short, cache, node_agg); // warm-up: lazy statics, thread-locals
            let (a1, ()) = alloc_gauge::count(|| calls_scenario(&short, cache, node_agg));
            let (a2, ()) = alloc_gauge::count(|| calls_scenario(&long, cache, node_agg));
            let marginal = (a2 as f64 - a1 as f64) / 12.0;
            println!(
                "{procs} ranks, cache={cache:?}, node_agg={node_agg}: calls 12->24, \
                 allocs {a1}->{a2}, marginal {marginal:.2}/call ({:.2}/rank-call)",
                marginal / procs as f64
            );
            assert_eq!(
                marginal, want,
                "{procs} ranks, cache={cache:?}, node_agg={node_agg}"
            );
        }
    }
}

/// `procs` ranks as in [`calls_scenario`] (cache off) make every
/// collective write of their `views` on one file and close it, then
/// open a second file and make the first `second` of them on it.
fn second_file_scenario(views: &CallViews, second: usize) {
    let views = Rc::clone(views);
    e10_simcore::run(async move {
        let procs = views.len();
        let mut spec = e10_romio::TestbedSpec::small(procs, procs / 2);
        spec.backend = CollBackend::Analytic;
        let tb = spec.build();
        let ranks = tb.ctxs().into_iter().map(|ctx| {
            let views = Rc::clone(&views);
            e10_simcore::spawn(async move {
                let info = scenario_info(Cache::Off);
                info.set("striping_unit", "32768");
                let data = e10_romio::DataSpec::FileGen { seed: 79 };
                let mine = &views[ctx.comm.rank()];
                for (path, calls) in [("/gfs/first", mine.len()), ("/gfs/second", second)] {
                    let f = e10_romio::AdioFile::open(&ctx, path, &info, true)
                        .await
                        .unwrap();
                    for view in &mine[..calls] {
                        let r = e10_romio::write_at_all(&f, view, &data).await;
                        assert_eq!((r.error_code, r.rounds), (0, 1));
                    }
                    f.close().await;
                }
            })
        });
        e10_simcore::join_all(ranks.collect()).await;
    });
}

/// The round scratch is the rank's, not the open file's: a workflow
/// that opens a file per phase (Fig. 3) starts every file after the
/// first at the high-water mark the first reached. So a rank's first
/// collective write on its second file costs what its second one there
/// does — a warm call's 3 per communicator — and not the scratch grown
/// again from empty (156 at 16 ranks and 308 at 32 when the scratch
/// was the file's), plus the one call that is the new file's own: the
/// PFS's extent map takes its first node at the file's first write,
/// once per file whatever the rank count.
#[test]
fn a_first_call_on_a_second_file_costs_what_a_warm_call_costs() {
    install_bt_hook();
    for procs in [16, 32] {
        let views = call_views(procs, 12);
        second_file_scenario(&views, 0); // warm-up: lazy statics, thread-locals
        let [none, one, two] =
            [0, 1, 2].map(|second| alloc_gauge::count(|| second_file_scenario(&views, second)).0);
        let (first, warm) = (one - none, two - one);
        println!(
            "{procs} ranks, second file: first call {first}, second call {warm} allocator calls"
        );
        assert_eq!(warm, 3, "{procs} ranks: a warm call on the second file");
        assert_eq!(
            first,
            warm + 1,
            "{procs} ranks: the first call on a second file"
        );
    }
}

/// Allocator calls per extra round of `run(blocks)` (which returns its
/// rounds) at `procs` ranks, and how many extra rounds doubling the
/// blocks bought. The file, and with it the rounds, is the 8-rank
/// gates' whatever `procs` is.
fn marginal_per_round(label: &str, procs: usize, run: impl Fn(u64) -> u64) -> (f64, u64) {
    let blocks = 16 * 8 / procs as u64;
    run(blocks); // warm-up: lazy statics, thread-locals
    let (a1, r1) = alloc_gauge::count(|| run(blocks));
    let (a2, r2) = alloc_gauge::count(|| run(2 * blocks));
    assert!(r2 > r1, "round doubling failed: {r1} vs {r2}");
    let marginal = (a2 as f64 - a1 as f64) / (r2 - r1) as f64;
    println!(
        "{label}, {procs} ranks: rounds {r1}->{r2}, allocs {a1}->{a2}, \
         marginal {marginal:.2}/round"
    );
    (marginal, r2 - r1)
}

/// 8 ranks on 4 nodes write `blocks` interleaved 10 KB blocks each
/// collectively and sync them; with `read`, they then read the same
/// view back collectively in 64 KB rounds — from the global file, or
/// with `cache_read` from the aggregators' caches (`e10_cache_read =
/// enable`, whose file domains match the write's). Returns the read's
/// rounds.
fn read_scenario(blocks: u64, cache_read: bool, read: bool) -> u64 {
    use e10_mpisim::{FlatType, Info};
    use std::cell::Cell;
    let rounds = Rc::new(Cell::new(0u64));
    let rounds2 = Rc::clone(&rounds);
    e10_simcore::run(async move {
        let tb = e10_romio::TestbedSpec::small(8, 4).build();
        let ranks = tb.ctxs().into_iter().map(|ctx| {
            let rounds = Rc::clone(&rounds2);
            e10_simcore::spawn(async move {
                let info = Info::from_pairs([
                    ("romio_cb_write", "enable"),
                    ("romio_cb_read", "enable"),
                    ("cb_buffer_size", "65536"),
                    ("striping_unit", "65536"),
                ]);
                if cache_read {
                    info.set("e10_cache", "enable");
                    info.set("e10_cache_read", "enable");
                }
                let f = e10_romio::AdioFile::open(&ctx, "/gfs/readalloc", &info, true)
                    .await
                    .unwrap();
                let rank = ctx.comm.rank() as u64;
                let blocks = (0..blocks).map(|i| ((i * 8 + rank) * 10_000, 10_000));
                let view = FileView::new(&FlatType::indexed(blocks.collect()), 0);
                let data = e10_romio::DataSpec::FileGen { seed: 78 };
                let w = e10_romio::write_at_all(&f, &view, &data).await;
                assert_eq!(w.error_code, 0);
                f.file_sync().await;
                if read {
                    let r = e10_romio::read_at_all(&f, &view).await;
                    assert_eq!((r.error_code, r.bytes), (0, view.total_bytes()));
                    assert_eq!(r.cache_hits > 0, cache_read && f.my_agg_index().is_some());
                    rounds.set(r.rounds);
                }
                f.close().await;
            })
        });
        e10_simcore::join_all(ranks.collect()).await;
    });
    rounds.get()
}

/// What a collective-read round costs at 8 ranks on 4 aggregators, from
/// the global file and from the aggregators' caches: `GLOBAL` = 9.8
/// and `CACHED` = 2.0 allocator calls per extra round, measured as the
/// read's share of a write-sync-read run (the run less the same run
/// without the read) at 5 and at 10 rounds. Unlike a write round, a
/// read round is not free — each PFS chunk's media read is a task of
/// its own, the aggregator indexes what it read in an extent map, and
/// the answer grows the caller's result — but its cost is pinned
/// exactly.
#[test]
fn read_rounds_cost_what_is_pinned() {
    const GLOBAL: f64 = 9.8;
    const CACHED: f64 = 2.0;
    install_bt_hook();
    for (cache_read, want) in [(false, GLOBAL), (true, CACHED)] {
        let read_cost = |blocks| {
            let (with, rounds) = alloc_gauge::count(|| read_scenario(blocks, cache_read, true));
            let (without, _) = alloc_gauge::count(|| read_scenario(blocks, cache_read, false));
            (with - without, rounds)
        };
        read_scenario(16, cache_read, true); // warm-up: lazy statics, thread-locals
        let ((a1, r1), (a2, r2)) = (read_cost(16), read_cost(32));
        assert!(r2 > r1, "round doubling failed: {r1} vs {r2}");
        let marginal = (a2 as f64 - a1 as f64) / (r2 - r1) as f64;
        println!(
            "read, cache_read={cache_read}: rounds {r1}->{r2}, allocs {a1}->{a2}, \
             marginal {marginal:.2}/round"
        );
        assert_eq!(marginal, want, "cache_read={cache_read}");
    }
}

/// An aggregator serving a cache read asks its cache whether each run it
/// reads is all there. The answer walks the cache file's extent index
/// in place: on a file of 10 000 extents it makes no allocator call.
#[test]
fn asking_a_cache_what_it_covers_allocates_nothing() {
    use e10_romio::{CacheConfig, CacheLayer, FlushFlag};
    use e10_storesim::Payload;
    const EXTENTS: u64 = 10_000;
    e10_simcore::run(async {
        let tb = e10_romio::TestbedSpec::small(2, 1).build();
        let striping = e10_pfs::Striping::default();
        let global = tb.pfs.create(0, "/gfs/covers", striping).await;
        let mut cfg = CacheConfig::new("/scratch", "covers", 0, 0);
        cfg.flush_flag = FlushFlag::FlushNone; // keep every extent local
        let fs = tb.localfs[0].clone();
        let layer = CacheLayer::open(fs, global, cfg).await.unwrap();
        // 512 bytes every KiB: no two extents merge.
        for i in 0..EXTENTS {
            let payload = Payload::gen(1, i * 1024, 512);
            layer.write(i * 1024, payload).await.unwrap();
        }
        let mid = EXTENTS / 2 * 1024;
        let (calls, answers) = alloc_gauge::count(|| {
            [
                layer.covers(mid, 512),
                layer.covers(mid + 256, 512),
                layer.covers(0, EXTENTS * 1024),
            ]
        });
        assert_eq!(answers, [true, false, false]);
        assert_eq!(calls, 0, "covers() on {EXTENTS} extents");
        layer.close().await.unwrap();
    });
}

/// A cache volume that is opened and closed without an extent posted to
/// it — a non-aggregator's, under collective buffering — starts no
/// sync thread and builds no sync queue, so its open and close pay
/// nothing for a task that would never receive work.
#[test]
fn an_idle_cache_open_and_close_costs_what_is_pinned() {
    use e10_romio::{CacheConfig, CacheLayer};
    let (_, costs) = alloc_gauge::count(|| {
        e10_simcore::run(async {
            let tb = e10_romio::TestbedSpec::small(2, 1).build();
            let striping = e10_pfs::Striping::default();
            let global = tb.pfs.create(0, "/gfs/idle", striping).await;
            let mut cfg = CacheConfig::new("/scratch", "idle", 0, 0);
            cfg.journal = true;
            cfg.discard = true;
            let mut costs = Vec::with_capacity(4);
            for _ in 0..4 {
                let (fs, global, cfg) = (tb.localfs[0].clone(), global.clone(), cfg.clone());
                let before = alloc_gauge::allocs();
                let layer = CacheLayer::open(fs, global, cfg).await.unwrap();
                layer.close().await.unwrap();
                drop(layer);
                costs.push(alloc_gauge::allocs() - before);
            }
            costs
        })
    });
    println!("idle cache open+close: {costs:?} allocator calls");
    // The first open also pays for first uses; every later one
    // pays the same.
    assert!(costs[1..].iter().all(|&c| c == costs[1]), "{costs:?}");
    assert_eq!(costs[1], 5, "an idle cache open and close");
}

/// The gauge is per-thread: a window on this thread must not see what
/// other threads allocate meanwhile (libtest runs this file's tests on
/// parallel threads, and each one's count has to be its own).
#[test]
fn other_threads_do_not_leak_into_the_count() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    static STOP: AtomicBool = AtomicBool::new(false);
    let (started, wait_started) = mpsc::channel();
    let noise = std::thread::spawn(move || {
        alloc_gauge::enable();
        std::hint::black_box(vec![0u8; 64]);
        started.send(()).unwrap();
        while !STOP.load(Ordering::Relaxed) {
            std::hint::black_box(vec![0u8; 64]);
        }
    });
    // The other thread is counting and allocating from here on.
    wait_started.recv().unwrap();
    let (n, _) = alloc_gauge::count(|| {
        for _ in 0..1000 {
            std::hint::black_box(Box::new(7u64));
        }
    });
    STOP.store(true, Ordering::Relaxed);
    noise.join().unwrap();
    assert_eq!(n, 1000, "exactly this thread's allocations");
}

#[test]
fn collective_write_allocation_budget() {
    // Warm-up outside the counted window (lazy statics, first-touch
    // buffers), then the measured run.
    collective_write_scenario(16, Cache::Off, false);
    let (n, _) = alloc_gauge::count(|| collective_write_scenario(16, Cache::Off, false));
    println!("collective_write_scenario allocator calls: {n}");
    // The count is 882 (it was ≈ 80 000 before the steady-state work;
    // CHANGES.md). The margin, 118 calls, is less than one call per
    // rank per round (8 ranks × 20 rounds): a per-round clone or
    // per-piece copy blows past it.
    assert!(n <= 1_000, "allocation regression: {n} allocator calls");
}

/// The 8-rank steady-state probe: marginal allocations per collective
/// round must be exactly zero (scratch reaches its high-water mark
/// during warm-up rounds and is reused thereafter) — without a cache,
/// through the SSD cache, and through the hybrid cache's NVM front,
/// whose sync-thread reads split every chunk along the front map.
#[test]
fn steady_state_rounds_allocate_nothing() {
    install_bt_hook();
    for cache in [Cache::Off, Cache::Ssd, Cache::Hybrid] {
        // Warm-up run (lazy statics, thread-locals).
        collective_write_scenario(16, cache, false);
        let (a1, r1) = alloc_gauge::count(|| collective_write_scenario(16, cache, false));
        let (a2, r2) = alloc_gauge::count(|| collective_write_scenario(32, cache, false));
        assert!(r2 > r1, "round doubling failed: {r1} vs {r2}");
        let marginal = (a2 as i64 - a1 as i64) as f64 / (r2 - r1) as f64;
        println!(
            "cache={cache:?}: rounds {r1}->{r2}, allocs {a1}->{a2}, marginal {marginal:.2}/round"
        );
        assert_eq!(
            a2, a1,
            "steady-state rounds must not allocate (cache={cache:?}): \
             {a1} allocs over {r1} rounds vs {a2} over {r2} ({marginal:.2}/round)"
        );
    }
}

/// The same steady-state gate with the degraded-mode hint explicitly
/// at its default: crash tolerance off (`e10_coll_timeout = 0`). The
/// tolerance machinery must add exactly zero allocator calls per round
/// when off.
#[test]
fn steady_state_with_tolerance_hints_off_allocates_nothing() {
    install_bt_hook();
    for cache in [Cache::Off, Cache::Ssd] {
        collective_write_scenario(16, cache, true);
        let (a1, r1) = alloc_gauge::count(|| collective_write_scenario(16, cache, true));
        let (a2, r2) = alloc_gauge::count(|| collective_write_scenario(32, cache, true));
        assert!(r2 > r1, "round doubling failed: {r1} vs {r2}");
        let marginal = (a2 as i64 - a1 as i64) as f64 / (r2 - r1) as f64;
        println!(
            "cache={cache:?} degraded-hints: rounds {r1}->{r2}, allocs {a1}->{a2}, \
             marginal {marginal:.2}/round"
        );
        assert_eq!(
            a2, a1,
            "tolerance machinery at defaults must not allocate (cache={cache:?}): \
             {a1} allocs over {r1} rounds vs {a2} over {r2} ({marginal:.2}/round)"
        );
    }
}

/// The backend the paper-scale runs use: `TestbedSpec::deep_er` (and
/// every benchmark workload) is `Analytic`, the gates above are
/// `Algorithmic`. An analytic round's size exchange is a rendezvous,
/// and a rendezvous reuses its communicator's slot, waiter list,
/// contribution table and result box, so the constant a round costs
/// per *communicator* is `PER_ROUND` = 0 allocator calls, at 8 and at
/// 16 ranks alike.
#[test]
fn steady_state_rounds_allocate_a_constant_under_analytic() {
    const PER_ROUND: f64 = 0.0;
    install_bt_hook();
    for cache in [Cache::Off, Cache::Ssd] {
        for procs in [8, 16] {
            let label = format!("analytic, cache={cache:?}");
            let (marginal, _) = marginal_per_round(&label, procs, |blocks| {
                write_scenario(procs, blocks, cache, None, CollBackend::Analytic)
            });
            assert_eq!(marginal, PER_ROUND, "cache={cache:?}, {procs} ranks");
        }
    }
}

/// The crash-tolerant transport with nothing failing
/// (`e10_coll_timeout = 40`). A round's two coordination steps — size
/// exchange and settle — cost the coordinator one shared result each
/// plus the flat size matrix, and everybody else nothing: timed
/// receives are stack-pinned and cancel their timers, rows and the
/// contribution table are recycled. So an extra round costs
/// `MAX_PER_ROUND` = 3 allocator calls *whatever the rank count* — well
/// inside the "small multiple of P" a star-shaped step may cost — and
/// doubling the ranks at fixed rounds must not grow the per-round
/// marginal by more than 2.5×. (With the result deep-copied per
/// recipient, a boxed timer per timed receive and a fresh row per rank
/// it was ≈ P² + 7·P per round: 117.55 at 8 ranks, 359.00 at 16.)
#[test]
fn timed_rounds_cost_linear_in_ranks() {
    const MAX_PER_ROUND: f64 = 3.0;
    install_bt_hook();
    let marginal = |procs: usize| {
        let (marginal, extra) = marginal_per_round("timed", procs, |blocks| {
            write_scenario(
                procs,
                blocks,
                Cache::Off,
                Some("40"),
                CollBackend::Algorithmic,
            )
        });
        assert!(
            marginal <= MAX_PER_ROUND,
            "{procs} ranks: {marginal:.2} allocator calls per extra timed round"
        );
        (marginal, extra)
    };
    let ((m8, extra8), (m16, extra16)) = (marginal(8), marginal(16));
    assert_eq!(extra8, extra16, "the comparison wants the same rounds");
    assert!(
        m16 <= 2.5 * m8.max(1.0),
        "per-round cost must not grow with the square of the ranks: \
         {m8:.2} at 8 ranks, {m16:.2} at 16"
    );
}

/// A run's allocator calls are a function of the run. A node's volume
/// cycles 16 cache and journal files per collective file at eight
/// ranks a node, and a hash table that has seen removals grows by
/// where its tombstones fell — by the hash values, which
/// `RandomState` draws anew for every map. The volume's table is keyed
/// by `alloc_gauge::FixedState` instead: the same file churn, the same
/// count, every time (with `RandomState` every other run of this
/// scenario comes out one call apart, and about one repetition in a
/// thousand of the repo benchmark's `collperf_degraded`).
#[test]
fn file_churn_on_a_volume_costs_the_same_every_time() {
    let churn = || {
        alloc_gauge::count(|| {
            e10_simcore::run(async {
                let fs = e10_romio::TestbedSpec::small(1, 1).build().localfs[0].clone();
                for phase in 0..40u32 {
                    for rank in 0..16u32 {
                        let path = format!("/scratch/chk.{phase}.{rank}.e10");
                        fs.create(path.as_str()).await.unwrap();
                        // The previous phase's files go as this one's
                        // arrive, as a deferred close retires them.
                        if phase > 0 {
                            let old = format!("/scratch/chk.{}.{rank}.e10", phase - 1);
                            fs.unlink(&old).await.unwrap();
                        }
                    }
                }
            })
        })
        .0
    };
    let first = churn();
    assert!(first > 0, "the counting allocator is installed");
    for run in 1..200 {
        assert_eq!(churn(), first, "run {run} against run 0");
    }
}

/// The same for a whole collective, as the audit's gate: no map a run
/// touches hashes with `RandomState` — `Comm::split` groups through a
/// sorted vector, `CommState::shrunk` is keyed by `FixedState`, the
/// PMPI wrapper's deferred closes sit in a `BTreeMap` — so eight ranks
/// opening a cached file, splitting by node, writing and closing cost
/// the same count every time.
#[test]
fn an_open_split_write_close_costs_the_same_every_time() {
    use e10_mpisim::{FlatType, Info};
    let collective = || {
        let run = || {
            e10_simcore::run(async {
                let tb = e10_romio::TestbedSpec::small(8, 4).build();
                let ranks = tb.ctxs().into_iter().map(|ctx| {
                    e10_simcore::spawn(async move {
                        let info = Info::from_pairs([
                            ("romio_cb_write", "enable"),
                            ("cb_buffer_size", "65536"),
                            ("e10_cache", "enable"),
                            ("e10_cache_discard_flag", "enable"),
                        ]);
                        let f = e10_romio::AdioFile::open(&ctx, "/gfs/audit", &info, true)
                            .await
                            .unwrap();
                        let node = ctx.comm.split_by_node().await;
                        assert_eq!(node.size(), 2);
                        let rank = ctx.comm.rank() as u64;
                        let blocks = (0..8).map(|i| ((i * 8 + rank) * 10_000, 10_000));
                        let view = FileView::new(&FlatType::indexed(blocks.collect()), 0);
                        let data = e10_romio::DataSpec::FileGen { seed: 77 };
                        let r = e10_romio::write_at_all(&f, &view, &data).await;
                        assert_eq!(r.error_code, 0);
                        f.close().await;
                    })
                });
                e10_simcore::join_all(ranks.collect()).await;
            })
        };
        alloc_gauge::count(run).0
    };
    let first = collective();
    assert!(first > 0, "the counting allocator is installed");
    for run in 1..200 {
        assert_eq!(collective(), first, "run {run} against run 0");
    }
}

/// What the opens of [`open_close_cost`] ask of the E10 cache.
#[derive(Clone, Copy, Debug)]
enum Opens {
    /// No cache.
    Plain,
    /// Every rank creates and closes its own SSD cache file
    /// (`e10_cache`).
    Cache,
    /// The same, plus the cache file's manifest journal
    /// (`e10_cache_journal`).
    Journal,
    /// The hybrid class: the SSD cache file and a byte-granular front
    /// file on the node's NVM (`e10_cache_class = hybrid`).
    Front,
}

impl Opens {
    const ALL: [Opens; 4] = [Opens::Plain, Opens::Cache, Opens::Journal, Opens::Front];

    fn info(self) -> e10_mpisim::Info {
        let info = e10_mpisim::Info::from_pairs([("romio_cb_write", "enable")]);
        let cache: &[(&str, &str)] = match self {
            Opens::Plain => &[],
            Opens::Cache => &[("e10_cache", "enable")],
            Opens::Journal => &[("e10_cache", "enable"), ("e10_cache_journal", "enable")],
            Opens::Front => &[("e10_cache", "enable"), ("e10_cache_class", "hybrid")],
        };
        for (k, v) in cache {
            info.set(k, v);
        }
        info
    }
}

/// Allocator calls of `procs` ranks on `nodes` nodes opening a file and
/// closing it again, under the analytic collectives of the paper-scale
/// runs: a run with two opens and closes less the same run with one,
/// so that what the first pays for the testbed's first use (fabric
/// queues, communicator pools) is not counted.
fn open_close_cost(procs: usize, nodes: usize, opens: Opens) -> u64 {
    let run = |times: usize| {
        let run = || {
            e10_simcore::run(async move {
                let mut spec = e10_romio::TestbedSpec::small(procs, nodes);
                spec.backend = CollBackend::Analytic;
                let tb = spec.build();
                let ranks = tb.ctxs().into_iter().map(|ctx| {
                    e10_simcore::spawn(async move {
                        for _ in 0..times {
                            let info = opens.info();
                            let f = e10_romio::AdioFile::open(&ctx, "/gfs/oc", &info, true)
                                .await
                                .unwrap();
                            assert_eq!(f.cache_active(), !matches!(opens, Opens::Plain));
                            f.close().await;
                        }
                    })
                });
                e10_simcore::join_all(ranks.collect()).await;
            })
        };
        alloc_gauge::count(run).0
    };
    run(1); // warm-up: lazy statics, thread-locals
    run(2) - run(1)
}

/// Whatever the aggregator election costs, an open under the analytic
/// collectives pays it once, not per rank. An open + close must cost
/// the same whether 16 ranks sit on 2 nodes or on 8, and each rank
/// added from 8 to 16 (on 2 nodes) the same as the one before it.
#[test]
fn an_open_and_close_cost_the_same_per_rank_whatever_the_node_count() {
    let (on2, on8) = (
        open_close_cost(16, 2, Opens::Plain),
        open_close_cost(16, 8, Opens::Plain),
    );
    println!("open+close, 16 ranks: {on2} allocator calls on 2 nodes, {on8} on 8");
    assert_eq!(on2, on8, "the node count must not price an open");
    let by_ranks: Vec<u64> = (8..=16)
        .step_by(4)
        .map(|p| open_close_cost(p, 2, Opens::Plain))
        .collect();
    println!("open+close on 2 nodes, 8/12/16 ranks: {by_ranks:?}");
    assert_eq!(
        by_ranks[1] - by_ranks[0],
        by_ranks[2] - by_ranks[1],
        "a rank added must cost what the one before it did: {by_ranks:?}"
    );
}

/// What one rank adds to a collective open and close on 2 nodes: the
/// 15th and the 16th rank cost the same as the 14th, with and without
/// the cache, its journal and its NVM front. Returns that per-rank
/// cost.
fn per_rank_open_close_cost(opens: Opens) -> u64 {
    let [c14, c15, c16] = [14, 15, 16].map(|p| open_close_cost(p, 2, opens));
    assert_eq!(
        c15 - c14,
        c16 - c15,
        "{opens:?}: a rank added must cost what the one before it did: {:?}",
        [c14, c15, c16]
    );
    c16 - c15
}

/// What one collective open and close of 16 ranks on 2 nodes costs
/// under the analytic collectives, without the E10 cache and with it
/// (every rank then creates and closes its own cache file, paper
/// §III-A; with the journal a second file, with the hybrid class a
/// front file on NVM), and what each of those ranks adds: pinned
/// exactly, so a copy added to the open path shows. Of a rank's cost,
/// 4 calls are the test's own `Info`.
#[test]
fn a_collective_open_and_close_costs_what_is_pinned() {
    let total = Opens::ALL.map(|o| open_close_cost(16, 2, o));
    let per_rank = Opens::ALL.map(per_rank_open_close_cost);
    println!(
        "open+close, 16 ranks on 2 nodes (plain, cache, journal, front): \
         {total:?} allocator calls, {per_rank:?} per rank"
    );
    assert_eq!(total, [85, 165, 229, 229], "(plain, cache, journal, front)");
    assert_eq!(
        per_rank,
        [5, 9, 13, 12],
        "per rank: (plain, cache, journal, front)"
    );
}

/// `AdioFile::open` resolves its hints once per rank — 512 times per
/// collective open at paper scale — so `RomioHints::from_info` sits on
/// a path the repo benchmark bounds at 1 % of allocator calls and
/// `BENCH_perf.json` counts exactly. On the paper configuration (the
/// ten pairs of `bench::tables::paper_info`, spelled out because
/// `romio` cannot depend on `bench`) it costs exactly one call, the
/// `e10_cache_path` string the configuration sets: the defaults it
/// starts from own no string (see the test below), and the `Info` is
/// walked in place (copying its pairs out first was a vector and twenty
/// strings more).
#[test]
fn resolving_the_paper_hints_allocates_no_more_than_it_did() {
    let info = e10_mpisim::Info::from_pairs([
        ("romio_cb_write", "enable"),
        ("cb_nodes", "64"),
        ("cb_buffer_size", "4M"),
        ("striping_unit", "4M"),
        ("striping_factor", "4"),
        ("ind_wr_buffer_size", "512K"),
        ("e10_cache", "enable"),
        ("e10_cache_path", "/scratch"),
        ("e10_cache_flush_flag", "flush_immediate"),
        ("e10_cache_discard_flag", "enable"),
    ]);
    let (calls, hints) = alloc_gauge::count(|| e10_romio::RomioHints::from_info(&info));
    assert_eq!(hints.unwrap().cb_nodes, Some(64));
    println!("from_info on the paper configuration: {calls} allocator calls");
    assert_eq!(calls, 1, "the one string the configuration sets");
}

/// The hint defaults every open starts from borrow their two paths
/// (`e10_cache_path`, `e10_trace_path`): building them calls the
/// allocator not once.
#[test]
fn the_default_hints_allocate_nothing() {
    let (calls, hints) = alloc_gauge::count(e10_romio::RomioHints::default);
    assert_eq!(hints.e10_cache_path, "/scratch");
    assert_eq!(calls, 0, "RomioHints::default()");
}
