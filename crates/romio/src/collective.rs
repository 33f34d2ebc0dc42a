//! The two-phase collective engine: the collective write
//! (`ADIOI_GEN_WriteStridedColl` → `ADIOI_Exch_and_write` →
//! `ADIOI_W_Exchange_data`, Fig. 2 of the paper) and, run the other
//! way, the collective read (`ADIOI_GEN_ReadStridedColl`).
//!
//! Steps (paper §II-A):
//!
//! 1. every process exchanges its access range (offset exchange),
//! 2. the accessed byte range is split into file domains, one per
//!    aggregator,
//! 3. every process works out which pieces of its buffer belong to
//!    which aggregator,
//! 4. rounds of two-phase I/O: per-round `MPI_Alltoall` size
//!    dissemination, point-to-point data shuffle, collective-buffer
//!    assembly and `ADIO_WriteContig` (to the global file, or to the
//!    E10 cache when `e10_cache` is enabled),
//! 5. a final `MPI_Allreduce` exchanging error codes — the
//!    "post_write" global synchronisation, bottlenecked by the slowest
//!    writer.
//!
//! There is one round loop, [`two_phase_rounds`], with three
//! orthogonal parameters:
//!
//! * the `e10_two_phase` hint ([`TwoPhaseAlgo`]) sizes the rounds and
//!   selects the optional pre-stage: `stock` buffers an entire file
//!   domain per aggregator in a single round (the original del
//!   Rosario/Bordawekar/Choudhary protocol with an unbounded
//!   collective buffer); `extended` (the default) bounds memory with
//!   `cb_buffer_size` rounds; `node_agg` prepends the intra-node
//!   request aggregation of [`crate::node_agg`], after which only node
//!   leaders feed the shuffle;
//! * a [`Transport`] decides *how the ranks coordinate* at the five
//!   points where a crash-tolerant collective must differ from a plain
//!   one. [`Plain`] (this module) is stock MPI; `Timed`
//!   ([`crate::tolerant`], selected by `e10_coll_timeout > 0`) bounds
//!   every wait and can abort the attempt;
//! * a [`Direction`] decides *which way the data moves* at the five
//!   points where a read differs from a write. [`Writing`] (this
//!   module, [`two_phase_write`]) ships data to the aggregators, which
//!   assemble and write it; `Reading` ([`crate::collective_read`],
//!   [`read_at_all`]) ships requests, which the aggregators read and
//!   answer. A read always runs [`Plain`] with `cb_buffer_size`
//!   rounds.

use std::cell::OnceCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::convert::Infallible;
use std::future::Future;
use std::rc::Rc;

use e10_mpisim::{Comm, FileView, Request, SourceSel, Tag, ViewPiece};
use e10_simcore::trace::counter;
use e10_storesim::{Payload, Source};

use crate::adio::{AdioFile, DataSpec};
use crate::collective_read::{independent_read, ReadAllResult, Reading};
use crate::fd::FileDomains;
use crate::hints::{CbMode, TwoPhaseAlgo};
use crate::node_agg::{gather_to_leader, stage_into_cache, MergedNode};
use crate::profile::Phase;

// Point-to-point tag ranges of the collective engines, one table so
// their disjointness is checkable (`tag_ranges_are_disjoint`). The
// per-round bases take `round % ROUND_TAGS` on top; mpisim's own
// collectives sit at `0x4000_0000`. Tag values never enter the timing
// model.
const ROUND_TAGS: Tag = 4096;
/// The write shuffle's piece lists.
const DATA_TAG_BASE: Tag = 0x2000_0000;
/// The node-leader pre-stage gather (one tag: it runs once per
/// collective, ahead of the rounds).
pub(crate) const GATHER_TAG: Tag = 0x2800_0000;
/// The read path's request lists and data replies.
pub(crate) const READ_REQ_TAG_BASE: Tag = 0x3000_0000;
pub(crate) const READ_DATA_TAG_BASE: Tag = 0x3800_0000;
/// The `Timed` transport's coordination steps, `FT_TAG_SPAN` wide.
pub(crate) const FT_TAG_BASE: Tag = 0x5000_0000;
pub(crate) const FT_TAG_SPAN: Tag = 0x1000_0000;

/// The tag of `round` in a per-round tag range.
pub(crate) fn round_tag(base: Tag, round: u64) -> Tag {
    base + (round % u64::from(ROUND_TAGS)) as Tag
}

/// Outcome of a collective write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAllResult {
    /// Bytes this rank contributed.
    pub bytes: u64,
    /// Two-phase rounds executed (0 on the independent path).
    pub rounds: u64,
    /// Whether collective buffering was used.
    pub used_collective: bool,
    /// Global error code from the post-write exchange: 0 on success,
    /// non-zero if *any* rank failed (every rank sees the same value on
    /// the collective path). The failing rank's cause is retrievable
    /// with [`AdioFile::take_io_error`].
    pub error_code: u32,
}

/// How the ranks of a collective coordinate: the five points where the
/// crash-tolerant write differs from the plain one. Everything else —
/// window maths, shuffle sends, counters, assembly, the write itself —
/// is [`two_phase_write`] and its [`Direction`], once. A transport is built for one
/// collective on one communicator (`fd.comm`) and every step runs
/// there, so whatever a step learns about a peer it learns on the
/// communicator the next step — and the caller — will use.
///
/// | step | [`Plain`] | `Timed` |
/// |---|---|---|
/// | range gather | `MPI_Allgather` (the summary built once and shared under analytic collectives) | `ft_coordinate` (the coordinator builds the summary); abort if a rank is missing |
/// | size exchange | sparse `MPI_Alltoall` (`alltoall_u64_sparse`: dense on the modelled wire, O(sent + received) on the host) | `ft_alltoall_u64_sparse` (one `ft_coordinate` step; sparse rows in, each rank copies its slice of the one shared compressed transpose); abort if a row is missing |
/// | shuffle receive | post every `irecv`, wait for all | one timed receive per source; a silent source is convicted and dooms the attempt |
/// | settle | nothing | `ft_coordinate` of (doomed, error) flags; abort if any rank is doomed or missing |
/// | finish | one `MPI_Allreduce` of the error codes | the error bits the settles already agreed on |
pub(crate) trait Transport {
    /// Why an attempt ends early ([`Infallible`] for [`Plain`]). When
    /// one rank's step returns it, every surviving rank's does.
    type Abort;

    /// 1. The [`AccessRange`] of every rank's `(start, end)`, shared by
    ///    every rank the step hands one answer to.
    async fn gather_ranges(&mut self, mine: (u64, u64)) -> Result<Rc<AccessRange>, Self::Abort>;

    /// 2. `sends` holds what this rank has to say, `(rank, bytes)`
    ///    with at most one entry per rank and no zeroes; `recvs` comes
    ///    back holding what was said to it, ascending by rank.
    async fn exchange_sizes(
        &mut self,
        sends: &[(usize, u64)],
        recvs: &mut Vec<(usize, u64)>,
    ) -> Result<(), Self::Abort>;

    /// 3. One list from each rank of `srcs`, handed to `got` with its
    ///    source in `srcs` order. The one step that also serves the
    ///    pre-stage and a read's replies, so it names where the lists
    ///    travel: `on` is the transport's own communicator, or (only
    ///    ever under [`Plain`], which learns nothing from a receive)
    ///    this rank's node communicator. `pending` is request storage
    ///    the caller keeps across calls and gets back empty, so
    ///    steady-state rounds allocate nothing.
    async fn recv_each<P: 'static>(
        &mut self,
        on: &Comm,
        srcs: impl Iterator<Item = usize>,
        tag: Tag,
        pending: &mut Vec<Request>,
        got: impl FnMut(usize, Vec<P>),
    );

    /// True once a receive of step 3 came up empty: whatever this
    /// rank would assemble from the others is incomplete, so it skips
    /// the work (the redo repeats it) and the next settle aborts.
    fn doomed(&self) -> bool;

    /// 4. Settle the pre-stage (`phase` is `None`) or a round (charged
    ///    to `phase`) before anything builds on it. `local_err` is
    ///    this rank's error code so far.
    async fn settle(&mut self, phase: Option<Phase>, local_err: u32) -> Result<(), Self::Abort>;

    /// 5. The global error code.
    async fn finish(&mut self, local_err: u32) -> u32;
}

/// Stock MPI coordination on `fd.comm`: blocking collectives, untimed
/// receives, no per-round settle, one final error `MPI_Allreduce`.
/// Cannot abort.
pub(crate) struct Plain<'a> {
    fd: &'a AdioFile,
    /// The size exchange's send requests (empty between steps).
    sreqs: Vec<Request>,
}

impl Plain<'_> {
    pub(crate) fn new(fd: &AdioFile) -> Plain<'_> {
        Plain {
            fd,
            sreqs: Vec::new(),
        }
    }
}

impl Transport for Plain<'_> {
    type Abort = Infallible;

    async fn gather_ranges(&mut self, mine: (u64, u64)) -> Result<Rc<AccessRange>, Infallible> {
        let comm = &self.fd.comm;
        Ok(comm
            .allgather_with(mine, 16, |ranges| AccessRange::of(ranges))
            .await)
    }

    async fn exchange_sizes(
        &mut self,
        sends: &[(usize, u64)],
        recvs: &mut Vec<(usize, u64)>,
    ) -> Result<(), Infallible> {
        let comm = &self.fd.comm;
        comm.alltoall_u64_sparse(sends, recvs, 8, &mut self.sreqs)
            .await;
        Ok(())
    }

    async fn recv_each<P: 'static>(
        &mut self,
        on: &Comm,
        srcs: impl Iterator<Item = usize>,
        tag: Tag,
        pending: &mut Vec<Request>,
        mut got: impl FnMut(usize, Vec<P>),
    ) {
        pending.extend(srcs.map(|src| on.irecv(SourceSel::Rank(src), tag)));
        for r in pending.drain(..) {
            if let Some(m) = r.wait().await {
                got(m.src, m.into_data());
            }
        }
    }

    fn doomed(&self) -> bool {
        false
    }

    async fn settle(&mut self, _: Option<Phase>, _: u32) -> Result<(), Infallible> {
        Ok(())
    }

    async fn finish(&mut self, local_err: u32) -> u32 {
        let _t = self.fd.profiler().enter(Phase::PostWrite);
        let comm = &self.fd.comm;
        comm.allreduce(local_err, 4, |a, b| (*a).max(*b)).await
    }
}

/// Which way a collective moves data: the five points where a read
/// differs from a write. Everything else — the round schedule, the size
/// exchange, shipping the lists, receiving them through the transport,
/// the settle and the finish — is [`two_phase_rounds`], once; it never
/// asks which direction it runs. Steps 4 and 5 default to the write's.
///
/// | point | [`Writing`] | `Reading` ([`crate::collective_read`]) |
/// |---|---|---|
/// | 1. list element ([`Direction::Piece`]) | `(offset, Payload)`: data | `(offset, len, buf_off)`: a request |
/// | 2. list wire size ([`Direction::wire_bytes`]) | payload + 32 + 16 per piece, in `coll.shuffle.*` | 32 + 24 per piece, uncounted |
/// | 3. the aggregator's part ([`Direction::keep_own`], [`Direction::keep`], [`Direction::serve`]) | assemble, write | read the union, answer each source |
/// | 4. reply leg ([`Direction::reply`]) | none | receive the answers |
/// | 5. list sends awaited ([`Direction::lists_sent`]) | before serving | after the answers |
pub(crate) trait Direction {
    /// 1. An element of the list a rank sends an aggregator, on the
    ///    `LIST_TAGS` tag range; `piece_len` is the bytes it stands for
    ///    in the size exchange.
    type Piece: 'static;
    const LIST_TAGS: Tag;
    fn piece_len(piece: &Self::Piece) -> u64;

    /// 2. The wire size of `list` on its way to another rank (`remote`:
    ///    on another node), its pieces standing for `provenance`.
    fn wire_bytes(list: &[Self::Piece], remote: bool, provenance: Provenance) -> u64;

    /// 3. The lists a round fills, a dense slab: slot `i` holds this
    ///    rank's list for the aggregator `touched[i]` of the round,
    ///    and the round loop grows it to as many slots as the domains
    ///    this rank's contribution meets, not one per aggregator; every
    ///    list is empty between rounds. Take delivery of this rank's
    ///    own list, in `slot`, leaving it empty (its capacity stays),
    ///    or of the one `src` sent; then, on an aggregator whose round
    ///    is not doomed, serve what `round` delivered, keeping nothing.
    ///    `serve` returns this rank's error code.
    fn lists(&mut self) -> &mut Vec<Vec<Self::Piece>>;
    fn keep_own(&mut self, fd: &AdioFile, slot: usize);
    fn keep(&mut self, fd: &AdioFile, src: usize, list: Vec<Self::Piece>);
    async fn serve(&mut self, fd: &AdioFile, round: u64) -> u32;

    /// 4. After the serve, whatever `round` sends back from the ranks
    ///    `asked` (the list destinations), received through `t` with
    ///    `pending` as request storage; `sends` holds the list sends
    ///    step 5 left.
    async fn reply<T: Transport>(
        &mut self,
        _fd: &AdioFile,
        _t: &mut T,
        _round: u64,
        _asked: impl Iterator<Item = usize>,
        _pending: &mut Vec<Request>,
        _sends: &mut Vec<Request>,
    ) {
    }

    /// 5. Once this rank's lists are in: await its list `sends` (they
    ///    complete on arrival whatever the receiver's fate), or leave
    ///    them to step 4.
    async fn lists_sent(&mut self, sends: &mut Vec<Request>) {
        for r in sends.drain(..) {
            r.wait().await;
        }
    }
}

/// Move `from`'s pieces into `into` (emptied first) sorted by offset,
/// ties in `from`'s order — what a stable sort would give, with the
/// offsets decorated by position in `order` so that an unstable sort,
/// which needs no buffer, gives it.
pub(crate) fn sort_by_offset(
    from: &mut Vec<(u64, Payload)>,
    order: &mut Vec<(u64, u32)>,
    into: &mut Vec<(u64, Payload)>,
) {
    order.clear();
    order.extend(
        from.iter()
            .enumerate()
            .map(|(i, &(off, _))| (off, i as u32)),
    );
    order.sort_unstable();
    into.clear();
    let take =
        |&(_, i): &(u64, u32)| std::mem::replace(&mut from[i as usize], (0, Payload::zero(0)));
    into.extend(order.iter().map(take));
    from.clear();
}

/// Merge adjacent pieces of `sorted` whose sources continue each other,
/// in place, so one assembled collective buffer becomes a handful of
/// `write_contig` calls instead of thousands.
pub(crate) fn merge_continuing(sorted: &mut Vec<(u64, Payload)>) {
    sorted.dedup_by(|(off, p), (coff, cp)| {
        let continues = *coff + cp.len == *off && cp.src.continues(cp.len, &p.src);
        if continues {
            cp.len += p.len;
        }
        continues
    });
}

/// Provenance of one rank's contribution to a single aggregator
/// window: how many separate messages (`msgs`) and raw pieces
/// (`pieces`) the same data would occupy *without* intra-node
/// aggregation. A rank shipping its own pieces contributes them
/// unmodified, so its provenance equals the contribution itself and
/// the node-agg savings counter stays at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Provenance {
    /// Shuffle messages this contribution replaces (1 for own pieces).
    pub(crate) msgs: u64,
    /// Piece count before intra-node merging.
    pub(crate) pieces: u64,
}

/// What the offset exchange established about the collective's access
/// pattern (both directions), and the file domains laid over it. Every
/// rank derives the same from the same ranges, so a transport that
/// hands every rank one shared answer builds this once per collective.
pub(crate) struct AccessRange {
    /// Lowest byte any rank accesses (`u64::MAX` if none does).
    pub(crate) min_st: u64,
    /// One past the highest.
    pub(crate) max_end: u64,
    /// Whether some rank starts before a lower rank has ended.
    interleaved: bool,
    /// [`compute_domains`]' answer, built by the first rank to ask:
    /// every rank asks with the same aggregator count, hints and
    /// algorithm.
    domains: OnceCell<(FileDomains, u64, u64)>,
}

impl AccessRange {
    /// The summary of every rank's `(start, end)`, in rank order, where
    /// a rank that accesses nothing says `(u64::MAX, 0)`: one pass, no
    /// allocation. That sentinel neither lowers the start, raises the
    /// end nor starts before anything ends.
    pub(crate) fn of(ranges: impl IntoIterator<Item = (u64, u64)>) -> AccessRange {
        let (mut min_st, mut max_end, mut interleaved) = (u64::MAX, 0, false);
        for (st, end) in ranges {
            interleaved |= st < max_end;
            min_st = min_st.min(st);
            max_end = max_end.max(end);
        }
        AccessRange {
            min_st,
            max_end,
            interleaved,
            domains: OnceCell::new(),
        }
    }

    /// The collective-vs-independent decision under `mode`
    /// (`romio_cb_write` / `romio_cb_read`). Every rank holds the same
    /// ranges, so every rank decides the same.
    pub(crate) fn use_collective(&self, mode: CbMode) -> bool {
        match mode {
            CbMode::Enable => true,
            CbMode::Disable => false,
            CbMode::Automatic => self.interleaved,
        }
    }
}

/// Step 1, the offset exchange. `None` when no rank accesses a byte.
pub(crate) async fn exchange_ranges<T: Transport>(
    fd: &AdioFile,
    view: &FileView,
    t: &mut T,
) -> Result<Option<Rc<AccessRange>>, T::Abort> {
    let mine = if view.total_bytes() == 0 {
        (u64::MAX, 0)
    } else {
        view.file_range()
    };
    let range = {
        let _t = fd.profiler().enter(Phase::OffsetExchange);
        t.gather_ranges(mine).await?
    };
    Ok((range.min_st != u64::MAX).then_some(range))
}

/// Step 2: split `[min_st, max_end)` into file domains and size the
/// rounds: `(domains, cb, rounds)`. [`TwoPhaseAlgo::Stock`] models the
/// original two-phase protocol, which buffers a whole file domain per
/// aggregator: a single round with the effective collective buffer as
/// large as the biggest domain. The extended algorithm (and the
/// node-agg variant layered on it) bounds aggregator memory with
/// `cb_buffer_size` rounds. Built once per shared `range`.
pub(crate) fn compute_domains<'r>(
    fd: &AdioFile,
    range: &'r AccessRange,
    algo: TwoPhaseAlgo,
) -> (&'r FileDomains, u64, u64) {
    let _t = fd.profiler().enter(Phase::FdCalc);
    let (fds, cb, ntimes) = range.domains.get_or_init(|| {
        let naggs = fd.aggregators().len();
        let fds = FileDomains::compute(
            range.min_st,
            range.max_end,
            naggs,
            fd.hints().fd_strategy,
            fd.stripe_unit(),
        );
        let cb = match algo {
            TwoPhaseAlgo::Stock => fds.max_size().max(1),
            TwoPhaseAlgo::Extended | TwoPhaseAlgo::NodeAgg => fd.hints().cb_buffer_size,
        };
        let ntimes = fds.max_size().div_ceil(cb);
        (fds, cb, ntimes)
    });
    debug_assert_eq!(fds.len(), fd.aggregators().len(), "another rank's set");
    (fds, *cb, *ntimes)
}

/// Step 3, computed once per collective and stepped through per round
/// (as ROMIO's `ADIOI_Calc_my_req` lists are): for every aggregator
/// this rank has anything for, how far into the rank's view its windows
/// have got and the next round in which one of them holds a piece. An
/// aggregator's window only moves forward with the round and starts
/// where the last one ended, so each cursor advances monotonically and
/// a whole collective walks the view once; and the rounds in between,
/// whose windows hold nothing of this rank's, never look at the
/// aggregator at all — against one binary search of the view per
/// aggregator per round for [`FileView::pieces_in_window`], which a
/// 512-rank, 64-aggregator collective would pay 64 times a round on
/// every rank to find, almost always, nothing. An aggregator whose
/// domain the view misses is never scheduled: what the cursors hold is
/// sized by the domains the view meets, not by the aggregator count.
pub(crate) struct WindowCursors<'v> {
    pieces: &'v [ViewPiece],
    fds: &'v FileDomains,
    cb: u64,
    due: &'v mut Schedule,
    /// How many domains the view meets: no round touches more.
    pub(crate) met: usize,
}

/// The round schedule of [`WindowCursors`], earliest first: `(round,
/// aggregator, cursor)` — in `round`, and in none before it,
/// `aggregator`'s window holds a piece of the view, and `cursor` is the
/// first piece that ends past the start of that window. An aggregator
/// with nothing left is not on it.
pub(crate) type Schedule = BinaryHeap<Reverse<(u64, usize, usize)>>;

/// `met(a, i)` for every non-empty domain `a` of `fds` that `pieces`
/// (a view's, sorted, disjoint) meet, ascending, with `i` the first
/// piece that ends past the domain's start: a merge walk that jumps
/// over the domains between two pieces and over the pieces inside one
/// domain by binary search, so it costs a few searches per domain met
/// and nothing per domain missed.
fn domains_met(pieces: &[ViewPiece], fds: &FileDomains, mut met: impl FnMut(usize, usize)) {
    let (starts, ends) = (&fds.starts, &fds.ends);
    let (mut a, mut i) = (0, 0);
    while a < starts.len() {
        i += pieces[i..].partition_point(|p| p.file_off + p.len <= starts[a]);
        let Some(p) = pieces.get(i) else { break };
        if p.file_off < ends[a] && starts[a] < ends[a] {
            met(a, i);
            a += 1;
        } else {
            // The domains ending by the piece's start hold none of it,
            // nor of any later piece.
            a += 1 + ends[a + 1..].partition_point(|&e| e <= p.file_off);
        }
    }
}

impl<'v> WindowCursors<'v> {
    /// Cursors at the start (round 0) of every domain the view meets,
    /// for rounds of `cb` bytes, scheduled in `due` (emptied first,
    /// then reserved for exactly those domains).
    pub(crate) fn new(
        view: &'v FileView,
        fds: &'v FileDomains,
        cb: u64,
        due: &'v mut Schedule,
    ) -> WindowCursors<'v> {
        let pieces = view.pieces();
        let mut met = 0;
        domains_met(pieces, fds, |_, _| met += 1);
        due.clear();
        due.reserve(met);
        let mut cursors = WindowCursors {
            pieces,
            fds,
            cb,
            due,
            met,
        };
        domains_met(pieces, fds, |a, i| cursors.schedule(a, i, fds.starts[a]));
        cursors
    }

    /// Put aggregator `a` down for the first round whose window holds a
    /// byte of the view at or after `from`, where its next unvisited
    /// window starts; `i` is the first piece ending past `from`. Every
    /// window skipped on the way is empty of the view, so `i` is still
    /// the first piece ending past the start of the one it wakes in. A
    /// piece that straddles `from` (or the domain's start) wakes the
    /// window starting there.
    fn schedule(&mut self, a: usize, i: usize, from: u64) {
        let (start, end) = (self.fds.starts[a], self.fds.ends[a]);
        if let Some(p) = self
            .pieces
            .get(i)
            .filter(|p| p.file_off < end && from < end)
        {
            let round = (p.file_off.max(from) - start) / self.cb;
            self.due.push(Reverse((round, a, i)));
        }
    }

    /// The rank's own contribution to `round`: for every aggregator `a`
    /// whose window of `round` holds pieces of the view, aggregators
    /// ascending, `piece(vp)` of each such piece in order, clipped to
    /// the window, into the next slot of `lists` (slot `i` for
    /// `touched[i]`, empty on entry; [`WindowCursors::met`] slots are
    /// enough) — the non-empty answers [`FileView::pieces_in_window`]
    /// gives for the round's windows — and `a` into `touched`, standing
    /// for itself. Rounds must be visited in order; a round with
    /// nothing in it costs one look at the schedule.
    pub(crate) fn fill<P>(
        &mut self,
        round: u64,
        lists: &mut [Vec<P>],
        touched: &mut Touched,
        mut piece: impl FnMut(ViewPiece) -> P,
    ) {
        while let Some(&Reverse((due, a, mut i))) = self.due.peek() {
            debug_assert!(due >= round, "rounds must be visited in order");
            if due != round {
                break;
            }
            self.due.pop();
            let (ws, we) = self.fds.window(a, self.cb, round);
            let list = &mut lists[touched.len()];
            while let Some(p) = self.pieces.get(i).filter(|p| p.file_off < we) {
                // It ends past `ws`: that is where the cursor stands.
                let (s, end) = (p.file_off.max(ws), p.file_off + p.len);
                let buf_off = p.buf_off + (s - p.file_off);
                let len = end.min(we) - s;
                list.push(piece(ViewPiece {
                    file_off: s,
                    len,
                    buf_off,
                }));
                if end > we {
                    break; // the rest of it is the next window's
                }
                i += 1;
            }
            let pieces = list.len() as u64;
            touched.push((a, Provenance { msgs: 1, pieces }));
            self.schedule(a, i, we);
        }
    }
}

/// `MPI_File_write_all`: collective write of this rank's buffer
/// (described by `data`) through its file `view`. `e10_coll_timeout`
/// is the one input that selects the transport: the default (0) stays
/// on this single comparison — stock behaviour, stock goldens.
pub async fn write_at_all(fd: &AdioFile, view: &FileView, data: &DataSpec) -> WriteAllResult {
    if fd.hints().e10_coll_timeout > 0 {
        return crate::tolerant::write_at_all_tolerant(fd, view, data).await;
    }
    // The node communicator is split on first use, and only if the
    // pre-stage runs: the future is not polled before that.
    let Ok(res) = two_phase_write(fd, view, data, &mut Plain::new(fd), fd.node_comm()).await;
    res
}

/// The collective write over `fd.comm` with transport `t`: steps 1–5,
/// with the node-leader pre-stage between 1 and 2 when `e10_two_phase
/// = node_agg`. `gather_comm` is awaited only then and resolves to the
/// communicator the pre-stage gathers over — this rank's node
/// communicator, or `fd.comm` itself ([`gather_to_leader`] picks out
/// the ranks of this node).
pub(crate) async fn two_phase_write<T: Transport>(
    fd: &AdioFile,
    view: &FileView,
    data: &DataSpec,
    t: &mut T,
    gather_comm: impl Future<Output = Comm>,
) -> Result<WriteAllResult, T::Abort> {
    let my_bytes = view.total_bytes();
    let range = exchange_ranges(fd, view, t).await?;
    let Some(range) = range.filter(|r| r.use_collective(fd.hints().cb_write)) else {
        // Independent strided writes (of nothing, if nobody writes a
        // byte) involve no peer communication, so no transport is
        // needed (and no later death can stall them).
        let (bytes, error_code) = crate::sieve::write_strided(fd, view, data).await;
        return Ok(WriteAllResult {
            bytes,
            rounds: 0,
            used_collective: false,
            error_code,
        });
    };

    // Optional pre-stage: aggregate this node's requests at the node
    // leader. Afterwards only leaders contribute pieces to the
    // inter-node exchange; everyone still joins its collectives.
    let mut s = fd.ctx().take_scratch();
    let algo = fd.hints().two_phase;
    let leads = if algo == TwoPhaseAlgo::NodeAgg {
        let gather_comm = gather_comm.await;
        let leads = {
            let _t = fd.profiler().enter(Phase::NodeAggGather);
            let leads = gather_to_leader(t, &gather_comm, view, data, &mut s.leader).await;
            if leads {
                stage_into_cache(fd, &mut s.leader).await;
            }
            leads
        };
        // Only a leader can observe a silent member; the settle makes
        // its verdict everybody's before the rounds build on it.
        t.settle(None, 0).await?;
        leads
    } else {
        false
    };

    let (fds, cb, ntimes) = compute_domains(fd, &range, algo);
    let RoundScratch {
        rounds,
        due,
        writing,
        leader,
        ..
    } = &mut s;
    // Only a rank that ships its own pieces steps through its view.
    let mut own = (algo != TwoPhaseAlgo::NodeAgg && my_bytes > 0)
        .then(|| WindowCursors::new(view, fds, cb, due));
    let slots = if leads {
        leader.domains_met(fds)
    } else {
        own.as_ref().map_or(0, |cursors| cursors.met)
    };
    let contribution = |round, bufs: &mut [Vec<(u64, Payload)>], touched: &mut Touched| {
        if leads {
            for a in 0..fds.len() {
                // Every slot taken: the merged list meets no more domains.
                let Some(buf) = bufs.get_mut(touched.len()) else {
                    break;
                };
                let (ws, we) = fds.window(a, cb, round);
                let provenance = leader.window_into(ws, we, buf);
                if !buf.is_empty() {
                    touched.push((a, provenance));
                }
            }
        } else if let Some(cursors) = &mut own {
            cursors.fill(round, bufs, touched, |vp| {
                (vp.file_off, data.piece(vp.buf_off, vp.file_off, vp.len))
            });
        }
    };
    let error_code = two_phase_rounds(fd, t, rounds, writing, ntimes, slots, contribution).await?;
    fd.ctx().put_scratch(s);
    Ok(WriteAllResult {
        bytes: my_bytes,
        rounds: ntimes,
        used_collective: true,
        error_code,
    })
}

/// `MPI_File_read_all`: collective read of this rank's `view` — the
/// write's rounds run the other way, always under [`Plain`] with
/// `cb_buffer_size` rounds.
pub async fn read_at_all(fd: &AdioFile, view: &FileView) -> ReadAllResult {
    let t = &mut Plain::new(fd);
    let Ok(range) = exchange_ranges(fd, view, t).await;
    let Some(range) = range.filter(|r| r.use_collective(fd.hints().cb_read)) else {
        return independent_read(fd, view).await;
    };
    let (fds, cb, ntimes) = compute_domains(fd, &range, TwoPhaseAlgo::Extended);
    let mut s = fd.ctx().take_scratch();
    let RoundScratch {
        rounds,
        due,
        reading,
        ..
    } = &mut s;
    let mut cursors = WindowCursors::new(view, fds, cb, due);
    let slots = cursors.met;
    let contribution = |round, lists: &mut [Vec<_>], touched: &mut Touched| {
        cursors.fill(round, lists, touched, |vp| {
            (vp.file_off, vp.len, vp.buf_off)
        });
    };
    let Ok(error_code) =
        two_phase_rounds(fd, t, rounds, reading, ntimes, slots, contribution).await;
    let out = reading.finish(ntimes, error_code);
    fd.ctx().put_scratch(s);
    out
}

/// The aggregators (by index) a round's contribution is non-empty for,
/// ascending, each with its provenance.
pub(crate) type Touched = Vec<(usize, Provenance)>;

/// What a rank's collectives reuse from one call to the next: the round
/// loop's buffers, the cursors' schedule, each direction's lists and
/// serve scratch, and the node leader's pre-stage. It stays with the
/// rank between collectives, on one file and across the files it
/// opens ([`IoCtx::take_scratch`](crate::IoCtx)), so that once a call
/// has grown it to the rank's high-water mark a warm call — the first
/// on a later file included — allocates nothing for it.
#[derive(Default)]
pub(crate) struct RoundScratch {
    rounds: Rounds,
    due: Schedule,
    writing: Writing,
    reading: Reading,
    leader: MergedNode,
}

impl RoundScratch {
    /// The room kept for the aggregators a rank touches, by structure:
    /// the schedule's entries, the write's and the read's list slots,
    /// and a round's touched and size-exchange entries.
    pub(crate) fn per_aggregator_capacity(&self) -> [(&'static str, usize); 5] {
        [
            ("schedule", self.due.capacity()),
            ("write lists", self.writing.lists.capacity()),
            ("read lists", self.reading.lists.capacity()),
            ("touched", self.rounds.touched.capacity()),
            ("sizes sent", self.rounds.sends.capacity()),
        ]
    }

    /// Empty every buffer, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        let r = &mut self.rounds;
        r.touched.clear();
        r.sends.clear();
        r.recvs.clear();
        r.sreqs.clear();
        r.rreqs.clear();
        self.due.clear();
        self.writing.clear();
        self.reading.clear();
        self.leader.clear();
    }
}

/// The round loop's per-round buffers, each empty between rounds.
#[derive(Default)]
struct Rounds {
    /// Shipping drains exactly the touched lists, so every list is
    /// empty again when the next round fills it.
    touched: Touched,
    /// The size exchange: what this rank lists for each touched
    /// aggregator, `(rank, bytes)`, and what each source lists for it.
    sends: Vec<(usize, u64)>,
    recvs: Vec<(usize, u64)>,
    /// The list sends and receives in flight.
    sreqs: Vec<Request>,
    rreqs: Vec<Request>,
}

/// Steps 3–5, the round loop, moving data in direction `dir`: per-round
/// size exchange, the lists out to the aggregators, their serve and the
/// reply leg, a settle per round, then the finish; returns the global
/// error code. `contribution(round, lists, touched)` lists every
/// aggregator `a` whose window of `round` it has something for in
/// `touched`, ascending, with its provenance, and fills slot `i` of
/// `lists` — empty on entry — with what this rank lists for the
/// aggregator `touched[i]`, sorted by offset (a write's own pieces, the
/// node-merged list on a node leader, nothing on the ranks it speaks
/// for; a read's requests). It is called once per round, rounds in
/// order, and fills at most `slots` lists a round: as many as the
/// domains the contribution meets.
///
/// A round costs what the rank sends and receives: the contribution
/// consults a schedule, the size exchange is sparse, lists go only to
/// the aggregators touched and come only from the sources heard from.
/// Its buffers — `r` and those of `dir` — are the rank's
/// [`RoundScratch`], and shipped lists circulate through the
/// communicator's recycling pool ([`e10_mpisim::Comm::send_buf`]), so
/// neither a steady-state write round nor, once warm, a whole call
/// allocates under [`Plain`] (`e10-romio`'s `alloc_count` test asserts
/// both, and pins what a read round costs).
async fn two_phase_rounds<T, D, S>(
    fd: &AdioFile,
    t: &mut T,
    r: &mut Rounds,
    dir: &mut D,
    ntimes: u64,
    slots: usize,
    mut contribution: S,
) -> Result<u32, T::Abort>
where
    T: Transport,
    D: Direction,
    S: FnMut(u64, &mut [Vec<D::Piece>], &mut Touched),
{
    let comm = fd.comm.clone();
    let prof = fd.profiler().clone();
    let (me, my_node) = (comm.rank(), comm.node());
    // Borrow the aggregator set for the whole collective.
    let aggregators: &[usize] = fd.aggregators();
    let my_agg = fd.my_agg_index();
    let mut local_err: u32 = 0;
    // The slab of lists, grown once to the rank's high-water mark.
    let lists = dir.lists();
    if lists.len() < slots {
        lists.resize_with(slots, Vec::new);
    }

    // --- 3–4. the two-phase rounds ----------------------------------------
    for round in 0..ntimes {
        let tag = round_tag(D::LIST_TAGS, round);
        r.touched.clear();
        contribution(round, dir.lists(), &mut r.touched);
        let lists = dir.lists();
        r.sends.clear();
        let sizes = r.touched.iter().zip(lists).map(|(&(a, _), list)| {
            let bytes: u64 = list.iter().map(D::piece_len).sum();
            (aggregators[a], bytes)
        });
        r.sends.extend(sizes);

        // Size dissemination ("shuffle_all2all"): `recvs` now holds
        // the per-source byte counts this rank will receive.
        {
            let _t = prof.enter(Phase::ShuffleAlltoall);
            t.exchange_sizes(&r.sends, &mut r.recvs).await?;
        }

        // The lists out: post the sends, keep my own.
        for (slot, &(a, provenance)) in r.touched.iter().enumerate() {
            let dst = aggregators[a];
            if dst == me {
                dir.keep_own(fd, slot);
            } else {
                let list = &mut dir.lists()[slot];
                let bytes = D::wire_bytes(list, comm.node_of(dst) != my_node, provenance);
                // Ship a pooled vector so the receiver's recycle refills
                // the next sender.
                let mut shipped = comm.send_buf::<D::Piece>();
                shipped.append(list);
                r.sreqs.push(comm.isend(dst, tag, bytes, shipped));
            }
        }
        {
            let _t = prof.enter(Phase::ShuffleWaitall);
            // Only an aggregator is ever sent to.
            let srcs = r.recvs.iter().map(|&(src, _)| src).filter(|&src| src != me);
            let keep = |src, list| dir.keep(fd, src, list);
            t.recv_each(&comm, srcs, tag, &mut r.rreqs, keep).await;
            dir.lists_sent(&mut r.sreqs).await;
        }
        if !t.doomed() && my_agg.is_some() {
            local_err |= dir.serve(fd, round).await;
        }
        let asked = r.sends.iter().map(|&(dst, _)| dst).filter(|&dst| dst != me);
        dir.reply(fd, t, round, asked, &mut r.rreqs, &mut r.sreqs)
            .await;

        // Each round's fate is settled before the next round's lists.
        t.settle(Some(Phase::PostWrite), local_err).await?;
    }
    // --- 5. post-write error exchange -------------------------------------
    Ok(t.finish(local_err).await)
}

/// The write direction: data to the aggregators, which assemble what
/// they receive into their collective buffer and write it.
#[derive(Default)]
struct Writing {
    /// What this rank ships to each aggregator it touches in a round,
    /// by slot.
    lists: Vec<Vec<(u64, Payload)>>,
    /// The pieces this aggregator holds this round: its own first,
    /// then each source's in turn.
    recvd: Vec<(u64, Payload)>,
    /// Assembly scratch: offsets decorated with arrival index so an
    /// unstable (allocation-free) sort reproduces the stable order the
    /// historical `coalesce_runs` sort gave overlapping pieces.
    order: Vec<(u64, u32)>,
    sorted: Vec<(u64, Payload)>,
    /// What a sieving read of a window with holes returns: its bytes
    /// are written straight back over, so only its time counts.
    sieved: Vec<(std::ops::Range<u64>, Option<Source>)>,
}

impl Writing {
    fn clear(&mut self) {
        self.lists.iter_mut().for_each(Vec::clear);
        self.recvd.clear();
        self.order.clear();
        self.sorted.clear();
        self.sieved.clear();
    }
}

impl Direction for Writing {
    type Piece = (u64, Payload);
    const LIST_TAGS: Tag = DATA_TAG_BASE;

    fn piece_len((_, p): &(u64, Payload)) -> u64 {
        p.len
    }

    /// A shuffle message is its payload plus a 32-byte envelope and a
    /// 16-byte (offset, length) header per piece — the footprint the
    /// node-agg pre-stage shrinks.
    fn wire_bytes(list: &[(u64, Payload)], remote: bool, provenance: Provenance) -> u64 {
        let npieces = list.len() as u64;
        let bytes: u64 = list.iter().map(|(_, p)| p.len).sum::<u64>() + 32 + 16 * npieces;
        counter("coll.shuffle.msgs", 1);
        counter("coll.shuffle.bytes", bytes);
        if remote {
            counter("coll.shuffle.remote_msgs", 1);
            counter("coll.shuffle.remote_bytes", bytes);
            let saved = 32 * provenance.msgs.saturating_sub(1)
                + 16 * provenance.pieces.saturating_sub(npieces);
            if saved > 0 {
                counter("coll.node_agg.shuffle_bytes_saved", saved);
            }
        }
        bytes
    }

    fn lists(&mut self) -> &mut Vec<Vec<(u64, Payload)>> {
        &mut self.lists
    }

    fn keep_own(&mut self, _: &AdioFile, slot: usize) {
        self.recvd.append(&mut self.lists[slot]);
    }

    fn keep(&mut self, fd: &AdioFile, _: usize, mut list: Vec<(u64, Payload)>) {
        self.recvd.append(&mut list);
        fd.comm.recycle_buf(list);
    }

    /// Collective-buffer assembly + write.
    async fn serve(&mut self, fd: &AdioFile, _: u64) -> u32 {
        let (sorted, sieved) = (&mut self.sorted, &mut self.sieved);
        if self.recvd.is_empty() {
            return 0;
        }
        let (node, prof, mut err) = (fd.comm.node(), fd.profiler(), 0);
        let total: u64 = self.recvd.iter().map(|(_, p)| p.len).sum();
        {
            let _t = prof.enter(Phase::CollBufAssembly);
            fd.comm.network().local_copy(node, total).await;
        }
        // Sort by offset, ties by arrival order (matching the stable
        // sort the run-building assembly used), then detect holes in
        // one pass over the sorted pieces.
        sort_by_offset(&mut self.recvd, &mut self.order, sorted);
        let (holes, run_end) = sorted
            .iter()
            .fold((false, sorted[0].0), |(holes, end), (off, p)| {
                (holes || *off > end, end.max(off + p.len))
            });
        if holes && !fd.cache_active() {
            // Data sieving in the collective buffer: read the whole
            // window span, then write it back in one spanning I/O.
            let (start, len) = (sorted[0].0, run_end - sorted[0].0);
            {
                let _t = prof.enter(Phase::Write);
                let read = fd.global().read_into(node, start, len, sieved).await;
                fd.io_ok(read, &mut err);
            }
            let pieces = std::mem::take(sorted);
            fd.io_ok(fd.write_span(start, len, pieces).await, &mut err);
        } else {
            // Merge continuing neighbours (run gaps can never satisfy
            // the contiguity test, so per-run merging and whole-buffer
            // merging write identical sequences), then write.
            merge_continuing(sorted);
            for (off, piece) in sorted.drain(..) {
                fd.io_ok(fd.write_contig(off, piece).await, &mut err);
            }
        }
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{cb_info, on_testbed, strided_view};
    use crate::testbed::IoCtx;
    use e10_mpisim::{FlatType, Info};
    use e10_simcore::run;
    use proptest::prelude::*;

    /// A maximal contiguous group of shuffled pieces in an aggregator's
    /// collective buffer. An oracle: the round engine detects runs inline
    /// over its sorted scratch buffer without building them.
    struct Run {
        start: u64,
        end: u64,
        pieces: Vec<(u64, Payload)>,
    }

    /// Coalesce sorted pieces into contiguous runs (the oracle for the
    /// engine's inline run detection).
    fn coalesce_runs(mut pieces: Vec<(u64, Payload)>) -> Vec<Run> {
        pieces.sort_by_key(|&(off, _)| off);
        let mut runs: Vec<Run> = Vec::with_capacity(pieces.len());
        for (off, p) in pieces {
            let end = off + p.len;
            match runs.last_mut() {
                Some(r) if off <= r.end => {
                    r.end = r.end.max(end);
                    r.pieces.push((off, p));
                }
                _ => runs.push(Run {
                    start: off,
                    end,
                    pieces: vec![(off, p)],
                }),
            }
        }
        runs
    }

    /// The core oracle: an interleaved collective write from P ranks
    /// produces a byte-perfect file.
    fn write_and_verify(algo: &'static str) {
        run(on_testbed(8, 4, move |ctx| async move {
            let info = cb_info(&[("e10_two_phase", algo)]);
            let f = crate::adio::AdioFile::open(&ctx, "/gfs/tp", &info, true)
                .await
                .unwrap();
            let view = strided_view(ctx.comm.rank(), 8, 10_000, 16);
            let res = write_at_all(&f, &view, &DataSpec::FileGen { seed: 11 }).await;
            assert!(res.used_collective);
            assert_eq!(res.rounds == 1, algo == "stock", "{algo}: {res:?}");
            assert_eq!(res.bytes, 160_000);
            f.close().await;
            if ctx.comm.rank() == 0 {
                f.global()
                    .extents()
                    .verify_gen(11, 0, 8 * 16 * 10_000)
                    .unwrap();
            }
        }));
    }

    /// `extended` must take multiple `cb_buffer_size` rounds.
    #[test]
    fn two_phase_write_produces_correct_file() {
        write_and_verify("extended");
    }

    /// `e10_two_phase = stock`: one round regardless of
    /// `cb_buffer_size` (it buffers a whole file domain), same bytes.
    #[test]
    fn stock_algorithm_takes_one_round_and_matches() {
        write_and_verify("stock");
    }

    #[test]
    fn two_phase_write_with_cache_produces_correct_file() {
        run(async {
            on_testbed(8, 4, |ctx| async move {
                let info = cb_info(&[
                    ("e10_cache", "enable"),
                    ("e10_cache_flush_flag", "flush_immediate"),
                    ("e10_cache_discard_flag", "enable"),
                ]);
                let f = crate::adio::AdioFile::open(&ctx, "/gfs/tpc", &info, true)
                    .await
                    .unwrap();
                let view = strided_view(ctx.comm.rank(), 8, 5_000, 8);
                write_at_all(&f, &view, &DataSpec::FileGen { seed: 12 }).await;
                f.close().await;
                if ctx.comm.rank() == 0 {
                    f.global()
                        .extents()
                        .verify_gen(12, 0, 8 * 8 * 5_000)
                        .unwrap();
                }
            })
            .await;
        });
    }

    #[test]
    fn holes_trigger_rmw_and_preserve_existing_data() {
        run(async {
            on_testbed(4, 2, |ctx| async move {
                // Pre-populate the file with generator 7 everywhere.
                let f0 = crate::adio::AdioFile::open(&ctx, "/gfs/rmw", &cb_info(&[]), true)
                    .await
                    .unwrap();
                if ctx.comm.rank() == 0 {
                    f0.write_contig(0, Payload::gen(7, 0, 80_000))
                        .await
                        .unwrap();
                }
                f0.close().await;

                // Now write generator 8 to every second 1000-byte block
                // (holes between pieces → the RMW path).
                let f = crate::adio::AdioFile::open(&ctx, "/gfs/rmw", &cb_info(&[]), false)
                    .await
                    .unwrap();
                let blocks: Vec<(u64, u64)> = (0..10)
                    .map(|i| ((i * 4 + ctx.comm.rank() as u64) * 2_000, 1_000))
                    .collect();
                let view = FileView::new(&FlatType::indexed(blocks), 0);
                write_at_all(&f, &view, &DataSpec::FileGen { seed: 8 }).await;
                f.close().await;

                if ctx.comm.rank() == 0 {
                    let ext = f.global().extents();
                    // New data where written...
                    ext.verify_gen(8, 0, 1_000).unwrap();
                    ext.verify_gen(8, 2_000, 1_000).unwrap();
                    // ...old data preserved in the holes.
                    ext.verify_gen(7, 1_000, 1_000).unwrap();
                    ext.verify_gen(7, 79_000, 1_000).unwrap();
                }
            })
            .await;
        });
    }

    #[test]
    fn non_interleaved_auto_takes_independent_path() {
        run(async {
            on_testbed(4, 2, |ctx| async move {
                let info = Info::new(); // romio_cb_write = automatic
                let f = crate::adio::AdioFile::open(&ctx, "/gfs/ind", &info, true)
                    .await
                    .unwrap();
                // Each rank writes a disjoint contiguous region.
                let view = FileView::new(
                    &FlatType::contiguous(50_000),
                    ctx.comm.rank() as u64 * 50_000,
                );
                let res = write_at_all(&f, &view, &DataSpec::FileGen { seed: 13 }).await;
                assert!(!res.used_collective);
                f.close().await;
                if ctx.comm.rank() == 0 {
                    f.global().extents().verify_gen(13, 0, 200_000).unwrap();
                }
            })
            .await;
        });
    }

    #[test]
    fn cb_disable_forces_independent_even_when_interleaved() {
        run(async {
            on_testbed(4, 2, |ctx| async move {
                let info = Info::new();
                info.set("romio_cb_write", "disable");
                let f = crate::adio::AdioFile::open(&ctx, "/gfs/noagg", &info, true)
                    .await
                    .unwrap();
                let view = strided_view(ctx.comm.rank(), 4, 1_000, 4);
                let res = write_at_all(&f, &view, &DataSpec::FileGen { seed: 14 }).await;
                assert!(!res.used_collective);
                f.close().await;
                if ctx.comm.rank() == 0 {
                    f.global().extents().verify_gen(14, 0, 16_000).unwrap();
                }
            })
            .await;
        });
    }

    #[test]
    fn ranks_with_no_data_participate_safely() {
        run(async {
            on_testbed(4, 2, |ctx| async move {
                let f = crate::adio::AdioFile::open(&ctx, "/gfs/empty", &cb_info(&[]), true)
                    .await
                    .unwrap();
                // Only even ranks write.
                let view = if ctx.comm.rank() % 2 == 0 {
                    strided_view(ctx.comm.rank() / 2, 2, 3_000, 4)
                } else {
                    FileView::new(&FlatType::contiguous(0), 0)
                };
                write_at_all(&f, &view, &DataSpec::FileGen { seed: 15 }).await;
                f.close().await;
                if ctx.comm.rank() == 0 {
                    f.global()
                        .extents()
                        .verify_gen(15, 0, 2 * 4 * 3_000)
                        .unwrap();
                }
            })
            .await;
        });
    }

    #[test]
    fn all_empty_views_return_immediately() {
        run(async {
            on_testbed(3, 3, |ctx| async move {
                let f = crate::adio::AdioFile::open(&ctx, "/gfs/nothing", &cb_info(&[]), true)
                    .await
                    .unwrap();
                let view = FileView::new(&FlatType::contiguous(0), 0);
                let res = write_at_all(&f, &view, &DataSpec::FileGen { seed: 1 }).await;
                assert_eq!(res.bytes, 0);
                f.close().await;
            })
            .await;
        });
    }

    #[test]
    fn literal_buffers_roundtrip_byte_exact() {
        run(async {
            on_testbed(2, 1, |ctx| async move {
                let rank = ctx.comm.rank();
                let f = crate::adio::AdioFile::open(&ctx, "/gfs/lit", &cb_info(&[]), true)
                    .await
                    .unwrap();
                // Rank r writes bytes [r, r, ...] at interleaved blocks.
                let blocks: Vec<(u64, u64)> =
                    (0..4).map(|i| ((i * 2 + rank as u64) * 100, 100)).collect();
                let view = FileView::new(&FlatType::indexed(blocks), 0);
                let buf = Payload::literal(vec![rank as u8 + 1; 400]);
                write_at_all(&f, &view, &DataSpec::Buffer(buf)).await;
                f.close().await;
                if rank == 0 {
                    let ext = f.global().extents();
                    for i in 0..8u64 {
                        let expect = (i % 2) as u8 + 1;
                        assert_eq!(ext.byte_at(i * 100).unwrap(), expect, "block {i}");
                        assert_eq!(ext.byte_at(i * 100 + 99).unwrap(), expect);
                    }
                }
            })
            .await;
        });
    }

    #[test]
    fn profiler_records_expected_phases() {
        run(async {
            on_testbed(4, 2, |ctx| async move {
                // Small stripes so both aggregators get non-empty FDs.
                let f = crate::adio::AdioFile::open(
                    &ctx,
                    "/gfs/prof",
                    &cb_info(&[("striping_unit", "4096")]),
                    true,
                )
                .await
                .unwrap();
                let view = strided_view(ctx.comm.rank(), 4, 8_000, 8);
                write_at_all(&f, &view, &DataSpec::FileGen { seed: 16 }).await;
                f.close().await;
                let p = f.profiler();
                assert!(p.get(Phase::OffsetExchange).as_nanos() > 0);
                assert!(p.get(Phase::ShuffleAlltoall).as_nanos() > 0);
                assert!(p.get(Phase::PostWrite).as_nanos() > 0);
                if f.my_agg_index().is_some() {
                    assert!(p.get(Phase::Write).as_nanos() > 0, "aggregators must write");
                } else {
                    assert_eq!(
                        p.get(Phase::Write).as_nanos(),
                        0,
                        "non-aggregators never write"
                    );
                }
            })
            .await;
        });
    }

    #[test]
    fn tag_ranges_are_disjoint() {
        let mut ranges = [
            ("shuffle", DATA_TAG_BASE, ROUND_TAGS),
            ("gather", GATHER_TAG, 1),
            ("read request", READ_REQ_TAG_BASE, ROUND_TAGS),
            ("read data", READ_DATA_TAG_BASE, ROUND_TAGS),
            ("ft", FT_TAG_BASE, FT_TAG_SPAN),
        ];
        ranges.sort_by_key(|&(_, base, _)| base);
        for w in ranges.windows(2) {
            let ((a, base, len), (b, next, _)) = (w[0], w[1]);
            assert!(base + len <= next, "{a} tags run into {b} tags");
        }
        assert_eq!(
            round_tag(DATA_TAG_BASE, u64::from(ROUND_TAGS) + 5),
            DATA_TAG_BASE + 5
        );
    }

    proptest! {
        /// Stepping the schedule through the rounds visits exactly the
        /// (aggregator, round) pairs whose window the windowed view
        /// query finds something in, aggregators ascending, with the
        /// pieces it finds (and counts them as the contribution's
        /// provenance) — on views with touching and far-apart
        /// pieces (so pieces straddle window edges, and gaps skip
        /// whole domains), over the domains ROMIO would compute (with
        /// the empty trailing domains `FdStrategy::Even` leaves when
        /// aggregators outnumber the bytes) and over arbitrary ones
        /// (zero-length, starting past the view's first byte so pieces
        /// lie before the first domain, ending short of or past its
        /// last so the view ends mid-window), with windows clipped at
        /// a domain's end and the empty windows of an exhausted one.
        /// The schedule starts with exactly the domains the view meets,
        /// in room reserved for that many, and never holds one it
        /// misses.
        #[test]
        fn cursor_walk_is_the_windowed_view_query(
            blocks in prop::collection::vec((0u64..40, 1u64..60, any::<bool>()), 0..40),
            disp in 0u64..200,
            computed in any::<bool>(),
            first in 0u64..300,
            sizes in prop::collection::vec(0u64..300, 1..9),
            naggs in 1usize..200,
            cb in 1u64..200,
        ) {
            let mut at = 0;
            let blocks = blocks.into_iter().map(|(gap, len, skip)| {
                at += gap + if skip { 400 } else { 0 } + len;
                (at - len, len)
            });
            let view = FileView::new(&FlatType::indexed(blocks.collect()), disp);
            let fds = if computed {
                let (st, end) = view.file_range();
                FileDomains::compute(st, end, naggs, crate::hints::FdStrategy::Even, 1)
            } else {
                let mut bounds = vec![first];
                for &s in &sizes {
                    bounds.push(bounds.last().unwrap() + if s < 60 { 0 } else { s });
                }
                FileDomains {
                    starts: bounds[..sizes.len()].to_vec(),
                    ends: bounds[1..].to_vec(),
                }
            };
            let meets = |a: usize| !view.pieces_in_window(fds.starts[a], fds.ends[a]).is_empty();
            let mut due = Schedule::new();
            let mut cursors = WindowCursors::new(&view, &fds, cb, &mut due);
            let met = cursors.met;
            prop_assert_eq!(met, (0..fds.len()).filter(|&a| meets(a)).count());
            prop_assert_eq!(cursors.due.len(), met);
            // Reserved for the domains met alone (a vector's least
            // non-zero room is 4 of these entries).
            prop_assert!(cursors.due.capacity() <= met.max(4) * usize::from(met > 0));
            let mut lists = vec![Vec::new(); met];
            // One round past the last: every window empty by then.
            for round in 0..fds.max_size().div_ceil(cb) + 1 {
                for &Reverse((_, a, _)) in cursors.due.iter() {
                    prop_assert!(meets(a), "domain {} scheduled, round {}", a, round);
                }
                let mut touched = Vec::new();
                cursors.fill(round, &mut lists, &mut touched, |vp| vp);
                for (slot, &(_, provenance)) in touched.iter().enumerate() {
                    prop_assert_eq!(provenance.pieces, lists[slot].len() as u64, "round {}", round);
                }
                let walked: Vec<(usize, Vec<ViewPiece>)> = touched
                    .iter()
                    .zip(&mut lists)
                    .map(|(&(a, _), list)| (a, std::mem::take(list)))
                    .collect();
                let windows = (0..fds.len()).map(|a| {
                    let (ws, we) = fds.window(a, cb, round);
                    (a, view.pieces_in_window(ws, we))
                });
                let queried: Vec<_> = windows.filter(|(_, pieces)| !pieces.is_empty()).collect();
                prop_assert_eq!(walked, queried, "round {}", round);
            }
        }
    }

    /// One collective of a [`reuse_run`]: a write (or with `read`, a
    /// read) of each rank's blocks.
    #[derive(Clone, Debug)]
    struct Call {
        read: bool,
        blocks: Vec<Vec<(u64, u64)>>,
    }

    /// What a sequence of collectives leaves: the file's first `LEN`
    /// bytes, and every read's pieces per rank as `(file_off, buf_off,
    /// payload)`, in call order.
    type Reused = (Vec<u8>, Vec<Vec<Vec<(u64, u64, Payload)>>>);

    const LEN: u64 = 60_000;

    /// `procs` ranks on `procs / 2` nodes make `calls` on one file —
    /// through one handle, closed and reopened halfway, so that the
    /// rank's scratch also crosses files; or with `fresh` through one
    /// handle per call (opened and closed around it) on a rank context
    /// of its own, whose scratch starts cold — under `e10_two_phase =
    /// algo` and `e10_coll_timeout = timeout`, 8 KB rounds and stripes.
    fn reuse_run(
        procs: usize,
        (algo, timeout, analytic): (&'static str, &'static str, bool),
        calls: &Rc<Vec<Call>>,
        fresh: bool,
    ) -> Reused {
        let calls = Rc::clone(calls);
        run(async move {
            let mut spec = crate::testbed::TestbedSpec::small(procs, (procs / 2).max(1));
            if analytic {
                spec.backend = e10_mpisim::CollBackend::Analytic;
            }
            let tb = spec.build();
            let ranks = tb.ctxs().into_iter().map(|ctx| {
                let calls = Rc::clone(&calls);
                e10_simcore::spawn(async move {
                    let info = cb_info(&[
                        ("romio_cb_read", "enable"),
                        ("cb_buffer_size", "8192"),
                        ("striping_unit", "8192"),
                        ("e10_two_phase", algo),
                        ("e10_coll_timeout", timeout),
                    ]);
                    let info = &info;
                    let open = |create| {
                        let ctx = if fresh {
                            let (pfs, localfs) = (Rc::clone(&ctx.pfs), Rc::clone(&ctx.localfs));
                            IoCtx::new(ctx.comm.clone(), pfs, localfs, Rc::clone(&ctx.nvmfs))
                        } else {
                            ctx.clone()
                        };
                        async move { AdioFile::open(&ctx, "/gfs/reuse", info, create).await }
                    };
                    let (rank, mut reads) = (ctx.comm.rank(), Vec::new());
                    let mut f = open(true).await.unwrap();
                    for (i, call) in calls.iter().enumerate() {
                        if i > 0 && (fresh || i == calls.len() / 2) {
                            f.close().await;
                            f = open(false).await.unwrap();
                        }
                        let view = FileView::new(&FlatType::indexed(call.blocks[rank].clone()), 0);
                        if call.read {
                            let r = read_at_all(&f, &view).await;
                            assert_eq!((r.error_code, r.bytes), (0, view.total_bytes()));
                            let pieces = r.pieces.into_iter();
                            reads
                                .push(pieces.map(|p| (p.file_off, p.buf_off, p.payload)).collect());
                        } else {
                            let w = write_at_all(&f, &view, &DataSpec::FileGen { seed: i as u64 })
                                .await;
                            assert_eq!((w.error_code, w.bytes), (0, view.total_bytes()));
                        }
                    }
                    f.close().await;
                    reads
                })
            });
            let reads = e10_simcore::join_all(ranks.collect()).await;
            let file = tb.pfs.file_extents("/gfs/reuse").unwrap();
            (file.materialize(0, LEN), reads)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// A rank's collectives reuse the round scratch it keeps between
        /// calls, on one file and across files — lists, received pieces,
        /// request lists, the cursors' schedule, the node leader's merge.
        /// Nothing of one call may leak into the next: back-to-back
        /// writes and reads whose views grow, shrink, leave holes and go
        /// empty (on some ranks, or on all), under every algorithm, both
        /// transports and both collective backends, produce the same file
        /// and read the same pieces as the same calls through a fresh
        /// handle, with a cold scratch, each.
        #[test]
        fn a_reused_handle_matches_a_fresh_handle_per_call(
            procs in 2usize..7,
            algo in 0usize..3,
            timed in any::<bool>(),
            analytic in any::<bool>(),
            calls in prop::collection::vec(
                (
                    any::<bool>(),
                    0u64..3,
                    0u64..LEN / 2,
                    prop::collection::vec((1u64..4000, 0usize..8), 1..12),
                ),
                2..6,
            ),
        ) {
            let algo = ["stock", "extended", "node_agg"][algo];
            let timeout = if timed { "40" } else { "0" };
            // Each call covers an extent of 0, 6 000 or `LEN / 2` bytes
            // from `start`, cut into segments owned by a rank each — or,
            // for an owner past the last rank, by nobody (a hole).
            let calls: Vec<Call> = calls
                .into_iter()
                .map(|(read, size, start, segs)| {
                    let mut blocks = vec![Vec::new(); procs];
                    let end = start + [0, 6_000, LEN / 2][size as usize];
                    let (mut at, mut i) = (start, 0);
                    while at < end {
                        let (len, owner) = segs[i % segs.len()];
                        let len = len.min(end - at);
                        if owner < procs {
                            blocks[owner].push((at, len));
                        }
                        (at, i) = (at + len, i + 1);
                    }
                    Call { read, blocks }
                })
                .collect();
            let calls = Rc::new(calls);
            let how = (algo, timeout, analytic);
            let reused = reuse_run(procs, how, &calls, false);
            let fresh = reuse_run(procs, how, &calls, true);
            prop_assert!(reused.0 == fresh.0, "file bytes differ");
            prop_assert_eq!(reused.1, fresh.1, "read pieces differ");
        }
    }

    #[test]
    fn coalesce_and_merge_helpers() {
        let p1 = Payload::gen(1, 0, 10);
        let p2 = Payload::gen(1, 10, 10);
        let p3 = Payload::gen(2, 0, 5);
        let runs = coalesce_runs(vec![(30, p3.clone()), (0, p1.clone()), (10, p2.clone())]);
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].start, runs[0].end), (0, 20));
        assert_eq!((runs[1].start, runs[1].end), (30, 35));
        let mut merged = vec![(0, p1), (10, p2)];
        merge_continuing(&mut merged);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].1.len, 20);
        let mut unmerged = vec![(0, Payload::gen(1, 0, 10)), (10, Payload::gen(9, 0, 10))];
        merge_continuing(&mut unmerged);
        assert_eq!(unmerged.len(), 2);
        // Sorted by offset, ties in arrival order.
        let (mut order, mut sorted) = (Vec::new(), Vec::new());
        let (a, b) = (Payload::gen(7, 0, 1), Payload::gen(8, 0, 1));
        let mut from = vec![(30, p3.clone()), (0, a.clone()), (0, b.clone())];
        sort_by_offset(&mut from, &mut order, &mut sorted);
        assert_eq!(sorted, [(0, a), (0, b), (30, p3)]);
        assert!(from.is_empty());
    }
}
