//! The read direction of the two-phase engine
//! (`ADIOI_GEN_ReadStridedColl`) and the read's result types.
//!
//! The paper implements only the write path and names cache reads as
//! future work, observing that "a collective read that matches the
//! previous write could safely read the data from the aggregators'
//! cache" (§III-B). This module provides both:
//!
//! * the standard two-phase read — aggregators read their file-domain
//!   windows from the global file and scatter the requested pieces —
//!   and
//! * the **cache-read extension** (`e10_cache_read = enable`): an
//!   aggregator serves a window run from its node-local cache file when
//!   the run is fully covered there, falling back to the global file
//!   otherwise. With matching aggregator count and file domains this is
//!   exactly the safe case the paper describes.
//!
//! It holds no round loop: [`crate::collective::read_at_all`] runs the
//! write's rounds the other way with [`Reading`] as their direction —
//! request lists out, the aggregators' read as the serve step, the data
//! back as the reply leg — or, when the collective-vs-independent
//! decision says so, [`independent_read`].

use std::ops::Range;

use e10_mpisim::{FileView, Request, Tag};
use e10_storesim::{ExtentMap, Payload, Source};

use crate::adio::AdioFile;
use crate::collective::{
    round_tag, Direction, Provenance, Transport, READ_DATA_TAG_BASE, READ_REQ_TAG_BASE,
};
use crate::profile::Phase;

/// One piece of data returned by a collective read.
#[derive(Debug, Clone)]
pub struct ReadPiece {
    /// Absolute file offset the data came from.
    pub file_off: u64,
    /// Where it belongs in the caller's buffer.
    pub buf_off: u64,
    /// The data (holes in the file read back as zeroes).
    pub payload: Payload,
}

impl ReadPiece {
    /// The extent `r` of a read's answer (`None`: a hole), bound for
    /// `buf_off` in the caller's buffer.
    fn of(r: Range<u64>, src: Option<Source>, buf_off: u64) -> ReadPiece {
        let (src, len) = (src.unwrap_or(Source::Zero), r.end - r.start);
        let payload = Payload { src, len };
        ReadPiece {
            file_off: r.start,
            buf_off,
            payload,
        }
    }
}

/// Outcome of a collective read.
#[derive(Debug, Default)]
pub struct ReadAllResult {
    /// This rank's received data, in buffer order.
    pub pieces: Vec<ReadPiece>,
    /// Bytes received.
    pub bytes: u64,
    /// Two-phase rounds executed (0 on the independent path).
    pub rounds: u64,
    /// Whether collective buffering was used.
    pub used_collective: bool,
    /// Bytes an aggregator served from its local cache (extension).
    pub cache_hits: u64,
    /// Global error code from the post-read exchange: 0 on success,
    /// non-zero if any rank failed. The failing rank's cause is
    /// retrievable with [`AdioFile::take_io_error`].
    pub error_code: u32,
}

impl ReadAllResult {
    /// Take delivery of an aggregator's reply, leaving it empty.
    fn take(&mut self, reply: &mut Vec<ReadPiece>) {
        for p in reply.drain(..) {
            self.bytes += p.payload.len;
            self.pieces.push(p);
        }
    }

    /// Check that every received byte equals generator stream `seed`
    /// at the identity mapping — the read-side verification oracle.
    pub fn verify_gen(&self, seed: u64) -> Result<(), String> {
        for p in &self.pieces {
            for i in 0..p.payload.len {
                let got = p.payload.src.byte_at(i);
                let want = e10_storesim::gen_byte(seed, p.file_off + i);
                if got != want {
                    return Err(format!(
                        "mismatch at file offset {} (buf {})",
                        p.file_off + i,
                        p.buf_off + i
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A request one rank sends an aggregator: give me these file ranges.
type ReqPiece = (u64, u64, u64); // (file_off, len, buf_off)

/// The read direction: requests to the aggregators, which read the
/// union of what they were asked for and answer every source.
#[derive(Default)]
pub(crate) struct Reading {
    /// What this rank asks each aggregator it touches for in a round,
    /// by slot.
    pub(crate) lists: Vec<Vec<ReqPiece>>,
    /// What this rank has been answered so far.
    out: ReadAllResult,
    /// The request lists this aggregator holds this round, by source.
    requests: Vec<(usize, Vec<ReqPiece>)>,
    /// The requested ranges, sorted, and their union as merged runs.
    ranges: Vec<(u64, u64)>,
    runs: Vec<(u64, u64)>,
    /// What this aggregator read this round, by file offset; one run's
    /// pieces before they go in; one request's answer.
    window: ExtentMap,
    read: Vec<(Range<u64>, Option<Source>)>,
    lookup: Vec<(Range<u64>, Option<Source>)>,
    /// This aggregator's answers of the round, in flight.
    replies: Vec<Request>,
}

impl Reading {
    /// Empty every buffer, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.lists.iter_mut().for_each(Vec::clear);
        self.out = ReadAllResult::default();
        self.requests.clear();
        self.ranges.clear();
        self.runs.clear();
        self.window.clear();
        self.read.clear();
        self.lookup.clear();
        self.replies.clear();
    }

    /// The result of `rounds` rounds that agreed on `error_code`; the
    /// scratch stays behind for the next call.
    pub(crate) fn finish(&mut self, rounds: u64, error_code: u32) -> ReadAllResult {
        let mut out = std::mem::take(&mut self.out);
        (out.used_collective, out.rounds, out.error_code) = (true, rounds, error_code);
        out.pieces.sort_by_key(|p| p.buf_off);
        out
    }
}

impl Direction for Reading {
    type Piece = ReqPiece;
    const LIST_TAGS: Tag = READ_REQ_TAG_BASE;

    fn piece_len(&(_, len, _): &ReqPiece) -> u64 {
        len
    }

    /// A 32-byte envelope and 24 bytes per request.
    fn wire_bytes(list: &[ReqPiece], _: bool, _: Provenance) -> u64 {
        32 + 24 * list.len() as u64
    }

    fn lists(&mut self) -> &mut Vec<Vec<ReqPiece>> {
        &mut self.lists
    }

    fn keep_own(&mut self, fd: &AdioFile, slot: usize) {
        let mut reqs = fd.comm.send_buf::<ReqPiece>();
        reqs.append(&mut self.lists[slot]);
        self.requests.push((fd.comm.rank(), reqs));
    }

    fn keep(&mut self, _: &AdioFile, src: usize, list: Vec<ReqPiece>) {
        self.requests.push((src, list));
    }

    /// Read the union of the requests, then answer each source.
    async fn serve(&mut self, fd: &AdioFile, round: u64) -> u32 {
        let (comm, mut err) = (&fd.comm, 0);
        self.requests.sort_unstable_by_key(|&(src, _)| src);
        if self.requests.is_empty() {
            return 0;
        }
        // Union of requested ranges → merged runs.
        let (ranges, runs) = (&mut self.ranges, &mut self.runs);
        let (window, read, lookup) = (&mut self.window, &mut self.read, &mut self.lookup);
        ranges.clear();
        let requested = self.requests.iter().flat_map(|(_, rs)| rs.iter());
        ranges.extend(requested.map(|&(o, l, _)| (o, l)));
        ranges.sort_unstable();
        runs.clear();
        for &(o, l) in ranges.iter() {
            match runs.last_mut() {
                Some(r) if o <= r.0 + r.1 => r.1 = r.1.max(o + l - r.0),
                _ => runs.push((o, l)),
            }
        }
        // Read each run — from the local cache when the extension
        // allows and the run is fully cached there.
        window.clear();
        {
            let _t = fd.profiler().enter(Phase::Write); // the data-I/O phase
            for &(o, l) in runs.iter() {
                let cache = fd.cache().filter(|c| !c.is_degraded());
                let cached = fd.hints().e10_cache_read && cache.is_some_and(|c| c.covers(o, l));
                // A cache hit is served only after its bytes pass
                // digest verification (`e10_integrity`); an
                // unrepairable mismatch is answered from the in-memory
                // copy and degrades the cache. A failed global read
                // answers as holes (the requesters read back zeroes)
                // and flags the collective error.
                if cached {
                    self.out.cache_hits += l;
                    fd.cache().unwrap().read_verified(o, l, read).await;
                } else {
                    let outcome = fd.global().read_into(comm.node(), o, l, read).await;
                    fd.io_ok(outcome, &mut err);
                }
                for (r, src) in read.drain(..) {
                    window.insert(r.start, r.end - r.start, src.unwrap_or(Source::Zero));
                }
            }
        }
        // Scatter the pieces back.
        let tag = round_tag(READ_DATA_TAG_BASE, round);
        for (src, mut reqs) in self.requests.drain(..) {
            let mut reply = comm.send_buf::<ReadPiece>();
            let mut bytes = 32u64;
            for (o, l, buf_off) in reqs.drain(..) {
                window.lookup_into(o, l, lookup);
                for (r, s) in lookup.drain(..) {
                    let at = buf_off + (r.start - o);
                    bytes += r.end - r.start + 24;
                    reply.push(ReadPiece::of(r, s, at));
                }
            }
            comm.recycle_buf(reqs);
            if src == comm.rank() {
                self.out.take(&mut reply);
                comm.recycle_buf(reply);
            } else {
                self.replies.push(comm.isend(src, tag, bytes, reply));
            }
        }
        err
    }

    /// Everyone: receive the data asked for, then await every send.
    async fn reply<T: Transport>(
        &mut self,
        fd: &AdioFile,
        t: &mut T,
        round: u64,
        asked: impl Iterator<Item = usize>,
        pending: &mut Vec<Request>,
        sends: &mut Vec<Request>,
    ) {
        let (comm, out) = (&fd.comm, &mut self.out);
        let _t = fd.profiler().enter(Phase::ShuffleWaitall);
        let tag = round_tag(READ_DATA_TAG_BASE, round);
        t.recv_each(comm, asked, tag, pending, |_, mut reply| {
            out.take(&mut reply);
            comm.recycle_buf(reply);
        })
        .await;
        for r in sends.drain(..).chain(self.replies.drain(..)) {
            r.wait().await;
        }
    }

    /// Left to the reply leg, which awaits them after the answers: a
    /// request list is delivered before its answer can be.
    async fn lists_sent(&mut self, _: &mut Vec<Request>) {}
}

/// Independent strided read: each rank reads its own pieces.
pub(crate) async fn independent_read(fd: &AdioFile, view: &FileView) -> ReadAllResult {
    let mut out = ReadAllResult::default();
    let buf = fd.hints().ind_wr_buffer_size.max(1);
    for vp in view.pieces() {
        let mut off = 0;
        while off < vp.len {
            let n = buf.min(vp.len - off);
            let read = fd.read_contig(vp.file_off + off, n).await;
            for (r, s) in fd.io_ok(read, &mut out.error_code).unwrap_or_default() {
                out.bytes += r.end - r.start;
                let buf_off = vp.buf_off + (r.start - vp.file_off);
                out.pieces.push(ReadPiece::of(r, s, buf_off));
            }
            off += n;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adio::DataSpec;
    use crate::collective::{read_at_all, write_at_all};
    use crate::test_util::{cb_info, on_testbed, strided_view};
    use e10_mpisim::{FlatType, Info};
    use e10_simcore::run;

    /// Collective reads forced on too, 32 KB rounds and stripes.
    fn rw_hints(extra: &[(&str, &str)]) -> Info {
        let rw = [
            ("romio_cb_read", "enable"),
            ("cb_buffer_size", "32K"),
            ("striping_unit", "32K"),
        ];
        cb_info(&[&rw, extra].concat())
    }

    #[test]
    fn collective_read_returns_what_was_written() {
        run(async {
            on_testbed(8, 4, |ctx| async move {
                let f = crate::adio::AdioFile::open(&ctx, "/gfs/r1", &rw_hints(&[]), true)
                    .await
                    .unwrap();
                let view = strided_view(ctx.comm.rank(), 8, 4096, 8);
                write_at_all(&f, &view, &DataSpec::FileGen { seed: 31 }).await;
                let r = read_at_all(&f, &view).await;
                assert!(r.used_collective);
                assert_eq!(r.bytes, view.total_bytes());
                r.verify_gen(31).unwrap();
                // Buffer must be tiled exactly.
                let mut pos = 0;
                for p in &r.pieces {
                    assert_eq!(p.buf_off, pos);
                    pos += p.payload.len;
                }
                assert_eq!(pos, view.total_bytes());
                f.close().await;
            })
            .await;
        });
    }

    #[test]
    fn read_of_sparse_file_returns_zeroes_for_holes() {
        run(async {
            on_testbed(4, 2, |ctx| async move {
                let f = crate::adio::AdioFile::open(&ctx, "/gfs/r2", &rw_hints(&[]), true)
                    .await
                    .unwrap();
                // Write only even blocks; read everything.
                let wview = strided_view(ctx.comm.rank(), 8, 2048, 4);
                write_at_all(&f, &wview, &DataSpec::FileGen { seed: 32 }).await;
                let rview = strided_view(ctx.comm.rank(), 4, 4096, 4);
                let r = read_at_all(&f, &rview).await;
                assert_eq!(r.bytes, rview.total_bytes());
                // Some pieces must be zero (holes), none may be garbage.
                for p in &r.pieces {
                    let first = p.payload.src.byte_at(0);
                    let expect_gen = e10_storesim::gen_byte(32, p.file_off);
                    assert!(
                        first == expect_gen || first == 0,
                        "unexpected byte at {}",
                        p.file_off
                    );
                }
                f.close().await;
            })
            .await;
        });
    }

    #[test]
    fn cache_read_extension_hits_local_cache() {
        run(async {
            on_testbed(8, 4, |ctx| async move {
                let info = rw_hints(&[
                    ("e10_cache", "enable"),
                    ("e10_cache_flush_flag", "flush_onclose"),
                    ("e10_cache_read", "enable"),
                ]);
                let f = crate::adio::AdioFile::open(&ctx, "/gfs/r3", &info, true)
                    .await
                    .unwrap();
                let view = strided_view(ctx.comm.rank(), 8, 4096, 8);
                write_at_all(&f, &view, &DataSpec::FileGen { seed: 33 }).await;
                // Nothing has been flushed (onclose); a matching
                // collective read must be served from the caches.
                let r = read_at_all(&f, &view).await;
                r.verify_gen(33).unwrap();
                assert_eq!(r.bytes, view.total_bytes());
                if f.my_agg_index().is_some() {
                    assert!(r.cache_hits > 0, "aggregators must hit their caches");
                }
                f.close().await;
            })
            .await;
        });
    }

    #[test]
    fn without_extension_unflushed_data_reads_as_holes() {
        run(async {
            on_testbed(4, 2, |ctx| async move {
                let info = rw_hints(&[
                    ("e10_cache", "enable"),
                    ("e10_cache_flush_flag", "flush_onclose"),
                ]);
                let f = crate::adio::AdioFile::open(&ctx, "/gfs/r4", &info, true)
                    .await
                    .unwrap();
                let view = strided_view(ctx.comm.rank(), 4, 4096, 4);
                write_at_all(&f, &view, &DataSpec::FileGen { seed: 34 }).await;
                let r = read_at_all(&f, &view).await;
                // MPI-IO semantics: before sync/close, the global file
                // has no data; reads return zero-filled holes.
                assert_eq!(r.cache_hits, 0);
                assert!(r.verify_gen(34).is_err());
                f.close().await;
                // After close, the same read sees everything.
                let f2 = crate::adio::AdioFile::open(&ctx, "/gfs/r4", &rw_hints(&[]), false)
                    .await
                    .unwrap();
                let r2 = read_at_all(&f2, &view).await;
                r2.verify_gen(34).unwrap();
                f2.close().await;
            })
            .await;
        });
    }

    #[test]
    fn independent_read_path() {
        run(async {
            on_testbed(2, 1, |ctx| async move {
                let f = crate::adio::AdioFile::open(&ctx, "/gfs/r5", &Info::new(), true)
                    .await
                    .unwrap();
                // Disjoint contiguous regions: automatic → independent.
                let off = ctx.comm.rank() as u64 * 65536;
                f.write_contig(off, Payload::gen(35, off, 65536))
                    .await
                    .unwrap();
                let view = FileView::new(&FlatType::contiguous(65536), off);
                let r = read_at_all(&f, &view).await;
                assert!(!r.used_collective);
                assert_eq!(r.bytes, 65536);
                r.verify_gen(35).unwrap();
                f.close().await;
            })
            .await;
        });
    }
}
