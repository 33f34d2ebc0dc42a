//! Capacity gate on the state a collective leaves behind: a rank keeps
//! round state only for the aggregators it touches, and the analytic
//! size exchange keeps rows only as long as the most senders a
//! destination has had. Neither may grow with the aggregator count.
//! Nor may the open's own per-rank state: the aggregator list is one
//! allocation per communicator and open, which every rank shares.
//!
//! 64 ranks write and then read one view: rank `r` holds the blocks
//! `k·64 + r`, `k < 4`, of a 256-block file. With stripe-aligned file
//! domains of whole blocks a rank meets 4 of them at 8 aggregators and
//! 4 at 64, so what it keeps must come out the same. Each number is
//! printed to stderr:
//! `cargo test -p e10-romio --test round_state -- --nocapture`.

use e10_mpisim::{CollBackend, FileView, FlatType, Info};
use e10_romio::{read_at_all, write_at_all, AdioFile, DataSpec, FileDomains, TestbedSpec};
use e10_simcore::{join_all, run, spawn};

const PROCS: u64 = 64;
const BLOCKS: u64 = 4;
const BLOCK: u64 = 4096;

/// Room kept per touched aggregator: the smallest non-empty `Vec` of
/// these entries holds 4, and one that grows by doubling at most twice
/// what it was asked for.
const C: usize = 4;

/// What one rank kept: the aggregators its view met, and the room per
/// structure of its round scratch.
struct Kept {
    touched: usize,
    scratch: [(&'static str, usize); 5],
}

/// The write and read at `cb_nodes` aggregators: what every rank kept,
/// and the room in the communicator's exchange rows.
fn run_at(cb_nodes: usize) -> (Vec<Kept>, usize) {
    run(async move {
        let mut spec = TestbedSpec::small(PROCS as usize, 16);
        spec.backend = CollBackend::Analytic;
        let tb = spec.build();
        let ranks = tb.ctxs().into_iter().map(|ctx| {
            spawn(async move {
                let info = Info::from_pairs([
                    ("romio_cb_write", "enable"),
                    ("romio_cb_read", "enable"),
                    ("cb_buffer_size", "4096"),
                    ("striping_unit", "4096"),
                ]);
                info.set("cb_nodes", &cb_nodes.to_string());
                let f = AdioFile::open(&ctx, "/gfs/round_state", &info, true)
                    .await
                    .unwrap();
                assert_eq!(f.aggregators().len(), cb_nodes);
                let rank = ctx.comm.rank() as u64;
                let blocks: Vec<(u64, u64)> = (0..BLOCKS)
                    .map(|k| ((k * PROCS + rank) * BLOCK, BLOCK))
                    .collect();
                let fds = FileDomains::compute(
                    0,
                    BLOCKS * PROCS * BLOCK,
                    cb_nodes,
                    f.hints().fd_strategy,
                    f.stripe_unit(),
                );
                let mut met: Vec<usize> = blocks
                    .iter()
                    .map(|&(off, _)| fds.aggregator_of(off).unwrap())
                    .collect();
                met.dedup();
                let view = FileView::new(&FlatType::indexed(blocks), 0);
                let w = write_at_all(&f, &view, &DataSpec::FileGen { seed: 3 }).await;
                assert_eq!((w.error_code, w.bytes), (0, BLOCKS * BLOCK));
                let r = read_at_all(&f, &view).await;
                assert_eq!((r.error_code, r.bytes), (0, BLOCKS * BLOCK));
                // Every exchange of the read is over once its final
                // allreduce has returned here.
                let rows = f.comm.exchange_row_capacity();
                let kept = Kept {
                    touched: met.len(),
                    scratch: f.round_scratch_capacity(),
                };
                f.close().await;
                (kept, rows)
            })
        });
        let kept: Vec<(Kept, usize)> = join_all(ranks.collect()).await;
        let rows = kept.iter().map(|&(_, rows)| rows).max().unwrap();
        (kept.into_iter().map(|(k, _)| k).collect(), rows)
    })
}

#[test]
fn round_state_is_sized_by_the_aggregators_a_rank_touches() {
    let mut totals = Vec::new();
    for cb_nodes in [8, 64] {
        let (kept, rows) = run_at(cb_nodes);
        let touched: usize = kept.iter().map(|k| k.touched).sum();
        for (rank, k) in kept.iter().enumerate() {
            assert_eq!(k.touched, BLOCKS as usize, "rank {rank} at {cb_nodes}");
            for (what, room) in k.scratch {
                assert!(
                    room <= C * k.touched,
                    "rank {rank} at {cb_nodes} aggregators keeps {room} {what} entries \
                     for {} aggregators touched",
                    k.touched
                );
            }
        }
        assert!(
            rows <= C * touched,
            "exchange rows hold {rows} entries for {touched} (rank, aggregator) pairs"
        );
        let most = kept
            .iter()
            .map(|k| k.scratch.iter().map(|&(_, room)| room).sum::<usize>())
            .max()
            .unwrap();
        let k = &kept[0];
        let per: Vec<String> = k.scratch.iter().map(|(w, n)| format!("{w} {n}")).collect();
        eprintln!(
            "round state: cb_nodes={cb_nodes}: rank 0 touched {}, keeps {}; most per rank {most}; \
             exchange rows {rows} for {touched} pairs",
            k.touched,
            per.join(", ")
        );
        totals.push(most);
    }
    // The rank meets 4 domains either way, so 8 times the aggregators
    // may change what it keeps by at most this much.
    let (few, many) = (totals[0], totals[1]);
    assert!(
        many.abs_diff(few) <= few / 4,
        "{few} entries at 8 aggregators, {many} at 64: more than 25 % apart"
    );
}

/// The aggregator list is one allocation per communicator and open:
/// under the analytic collectives of the paper-scale runs the open's
/// barrier elects once and every rank of the communicator holds that
/// one list, where each rank once elected and kept a copy of its own —
/// 8 B per aggregator per rank per open file. Each rank holds three
/// files open at once: two on the world, one on its half of a split.
#[test]
fn the_aggregator_list_is_one_allocation_per_communicator_and_open() {
    let lists = run(async {
        let mut spec = TestbedSpec::small(PROCS as usize, 16);
        spec.backend = CollBackend::Analytic;
        let tb = spec.build();
        let ranks = tb.ctxs().into_iter().map(|ctx| {
            spawn(async move {
                let rank = ctx.comm.rank();
                let info = Info::from_pairs([("cb_nodes", "8")]);
                let half = ctx.comm.split((rank % 2) as u32, rank as u64).await;
                let half_ctx = e10_romio::IoCtx::new(
                    half,
                    ctx.pfs.clone(),
                    ctx.localfs.clone(),
                    ctx.nvmfs.clone(),
                );
                let half_path = ["/gfs/even", "/gfs/odd"][rank % 2];
                let files = [
                    AdioFile::open(&ctx, "/gfs/a", &info, true).await.unwrap(),
                    AdioFile::open(&ctx, "/gfs/b", &info, true).await.unwrap(),
                    AdioFile::open(&half_ctx, half_path, &info, true)
                        .await
                        .unwrap(),
                ];
                let lists = files.each_ref().map(|f| f.aggregators().as_ptr() as usize);
                for f in &files {
                    f.close().await;
                }
                (rank % 2, lists)
            })
        });
        join_all(ranks.collect()).await
    });
    // (open, list address) pairs: opens a and b, then each half's.
    let mut held: Vec<(usize, usize)> = lists
        .iter()
        .flat_map(|&(half, [a, b, h])| [(0, a), (1, b), (2 + half, h)])
        .collect();
    held.sort_unstable();
    held.dedup();
    let per_open: Vec<usize> = (0..4)
        .map(|open| held.iter().filter(|&&(o, _)| o == open).count())
        .collect();
    eprintln!("aggregator lists per open (a, b, even half, odd half): {per_open:?}");
    assert_eq!(per_open, [1; 4], "one list for all the ranks of an open");
    let mut addresses: Vec<usize> = held.iter().map(|&(_, at)| at).collect();
    addresses.sort_unstable();
    addresses.dedup();
    assert_eq!(addresses.len(), 4, "one list per open");
}
