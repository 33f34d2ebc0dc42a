//! Helpers shared by the unit tests of the collective modules.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use e10_mpisim::{FileView, FlatType, Info};
use e10_simcore::trace::{self, MetricsRegistry};
use e10_storesim::Payload;

use crate::adio::{AdioFile, DataSpec};
use crate::testbed::{IoCtx, TestbedSpec};

/// Run `f` as every rank of a small `procs`-rank, `nodes`-node testbed.
pub(crate) async fn on_testbed<F, Fut>(procs: usize, nodes: usize, f: F)
where
    F: Fn(IoCtx) -> Fut,
    Fut: Future<Output = ()> + 'static,
{
    let tb = TestbedSpec::small(procs, nodes).build();
    let handles: Vec<_> = tb
        .ctxs()
        .into_iter()
        .map(|ctx| e10_simcore::spawn(f(ctx)))
        .collect();
    e10_simcore::join_all(handles).await;
}

/// Rank `rank` of `p` owns blocks `rank, rank + p, rank + 2p, ...` of
/// `block` bytes, `count` of them (the classic interleave).
pub(crate) fn strided_view(rank: usize, p: usize, block: u64, count: u64) -> FileView {
    let blocks: Vec<(u64, u64)> = (0..count)
        .map(|i| ((i * p as u64 + rank as u64) * block, block))
        .collect();
    FileView::new(&FlatType::indexed(blocks), 0)
}

/// Collective buffering forced on with 64 KB rounds, plus `extra`
/// (which may override either).
pub(crate) fn cb_info(extra: &[(&str, &str)]) -> Info {
    let i = Info::from_pairs([("romio_cb_write", "enable"), ("cb_buffer_size", "65536")]);
    for (k, v) in extra {
        i.set(k, v);
    }
    i
}

/// What [`write_then_read`] leaves behind.
#[derive(Default, PartialEq)]
pub(crate) struct Outcome {
    /// Two-phase rounds of the write (rank 0's count).
    pub(crate) rounds: u64,
    /// The file's bytes after the sync.
    pub(crate) file: Vec<u8>,
    /// The `coll.shuffle.{bytes,msgs,remote_bytes,remote_msgs}` counters.
    pub(crate) shuffle: Vec<(&'static str, u64)>,
    /// Every rank's read pieces as `(file_off, buf_off, payload)`.
    pub(crate) read: Vec<Vec<(u64, u64, Payload)>>,
}

/// One fault-free simulation: 8 ranks on 2 nodes write the classic
/// interleave (8 blocks of 7 000 bytes each, 16 KB rounds) collectively
/// under `e10_two_phase = algo` and `e10_coll_timeout = timeout`, sync,
/// and read it back collectively. Every byte is checked on the way.
pub(crate) fn write_then_read(algo: &'static str, timeout: &'static str) -> Outcome {
    const LEN: u64 = 8 * 8 * 7_000;
    let metrics = Rc::new(MetricsRegistry::new());
    let _trace = trace::install_metrics(Rc::clone(&metrics));
    let out = Rc::new(RefCell::new(Outcome::default()));
    out.borrow_mut().read.resize(8, Vec::new());
    let out2 = Rc::clone(&out);
    e10_simcore::run(on_testbed(8, 2, move |ctx| {
        let out = Rc::clone(&out2);
        async move {
            let info = cb_info(&[
                ("romio_cb_read", "enable"),
                ("cb_buffer_size", "16384"),
                ("e10_two_phase", algo),
                ("e10_coll_timeout", timeout),
            ]);
            let f = AdioFile::open(&ctx, "/gfs/wtr", &info, true).await.unwrap();
            let rank = ctx.comm.rank();
            let view = strided_view(rank, 8, 7_000, 8);
            let res = crate::write_at_all(&f, &view, &DataSpec::FileGen { seed: 77 }).await;
            assert!(res.used_collective);
            assert_eq!((res.error_code, res.bytes), (0, view.total_bytes()));
            f.file_sync().await;
            let r = crate::read_at_all(&f, &view).await;
            assert!(r.used_collective);
            assert_eq!((r.error_code, r.bytes), (0, view.total_bytes()));
            r.verify_gen(77).unwrap();
            f.close().await;
            let mut out = out.borrow_mut();
            out.read[rank] = r
                .pieces
                .into_iter()
                .map(|p| (p.file_off, p.buf_off, p.payload))
                .collect();
            if rank == 0 {
                let ext = f.global().extents();
                ext.verify_gen(77, 0, LEN).unwrap();
                out.rounds = res.rounds;
                out.file = ext.materialize(0, LEN);
            }
        }
    }));
    let counters = metrics.snapshot().counters;
    let mut out = out.take();
    out.shuffle = counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("coll.shuffle."))
        .collect();
    assert_eq!(out.shuffle.len(), 4, "{algo}: shuffle counters missing");
    out
}
