//! The two-phase collective read (`ADIOI_GEN_ReadStridedColl`).
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
//! The preamble is the write path's, not a copy of it: the offset
//! exchange, the collective-vs-independent decision, the file domains,
//! the per-round size exchange and the per-aggregator view cursors
//! come from [`crate::collective`] (always under the plain transport
//! and `cb_buffer_size` rounds — no caller asks for a crash-tolerant
//! or node-aggregated read). The round body
//! — request lists out, aggregator read, data back — is this module's
//! own, because it runs the shuffle in the opposite direction.

use e10_mpisim::{FileView, Request, SourceSel};
use e10_storesim::{ExtentMap, Payload, Source};

use crate::adio::AdioFile;
use crate::collective::{
    compute_domains, exchange_ranges, round_tag, Plain, Transport, WindowCursors,
    READ_DATA_TAG_BASE, READ_REQ_TAG_BASE,
};
use crate::hints::TwoPhaseAlgo;
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

/// `MPI_File_read_all`: collective read of this rank's `view`.
pub async fn read_at_all(fd: &AdioFile, view: &FileView) -> ReadAllResult {
    let comm = fd.comm.clone();
    let prof = fd.profiler().clone();
    let me = comm.rank();

    let mut plain = Plain::new(fd);
    let Ok(Some(range)) = exchange_ranges(fd, view, &mut plain).await else {
        return ReadAllResult::default();
    };
    if !range.use_collective(fd.hints().cb_read) {
        return independent_read(fd, view).await;
    }
    let (fds, cb, ntimes) = compute_domains(fd, &range, TwoPhaseAlgo::Extended);
    // Mirrors the write path: borrow the aggregator set, exchange the
    // sizes sparsely, step through the view by the round schedule, and
    // keep every per-round list as scratch hoisted across the rounds —
    // the lists that travel circulate through the communicator's pool.
    let aggregators: &[usize] = fd.aggregators();
    let naggs = aggregators.len();
    let my_agg = fd.my_agg_index();
    let mut local_err: u32 = 0;

    let mut out = ReadAllResult {
        used_collective: true,
        rounds: ntimes,
        ..Default::default()
    };

    let mut cursors = WindowCursors::new(view, fds, cb);
    let mut per_agg_reqs: Vec<Vec<ReqPiece>> = (0..naggs).map(|_| Vec::new()).collect();
    // The aggregators (by index) asked for something this round,
    // ascending.
    let mut asked: Vec<usize> = Vec::new();
    let mut sends: Vec<(usize, u64)> = Vec::new();
    let mut recvs: Vec<(usize, u64)> = Vec::with_capacity(my_agg.map_or(0, |_| comm.size()));
    let mut sreqs: Vec<Request> = Vec::new();
    let mut rreqs: Vec<Request> = Vec::new();
    let mut reply_reqs: Vec<Request> = Vec::new();
    let mut requests: Vec<(usize, Vec<ReqPiece>)> = Vec::new();
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    let mut runs: Vec<(u64, u64)> = Vec::new();

    for round in 0..ntimes {
        let req_tag = round_tag(READ_REQ_TAG_BASE, round);
        let data_tag = round_tag(READ_DATA_TAG_BASE, round);

        // What I want from each aggregator this round.
        asked.clear();
        cursors.for_each_piece(round, |a, vp| {
            if asked.last() != Some(&a) {
                asked.push(a);
            }
            per_agg_reqs[a].push((vp.file_off, vp.len, vp.buf_off));
        });
        sends.clear();
        sends.extend(asked.iter().map(|&a| {
            let bytes: u64 = per_agg_reqs[a].iter().map(|&(_, len, _)| len).sum();
            (aggregators[a], bytes)
        }));

        // `recvs` now holds what each rank asks of me.
        {
            let _t = prof.enter(Phase::ShuffleAlltoall);
            let Ok(()) = plain.exchange_sizes(&sends, &mut recvs).await;
        }

        // Send request lists; keep my own local.
        for &a in &asked {
            let mut reqs = comm.send_buf::<ReqPiece>();
            reqs.append(&mut per_agg_reqs[a]);
            let dst = aggregators[a];
            if dst == me {
                requests.push((me, reqs));
            } else {
                let bytes = 32 + 24 * reqs.len() as u64;
                sreqs.push(comm.isend(dst, req_tag, bytes, reqs));
            }
        }

        // Aggregator: gather requests, read the union, reply.
        if my_agg.is_some() {
            {
                let _t = prof.enter(Phase::ShuffleWaitall);
                let srcs = recvs.iter().map(|&(src, _)| src).filter(|&src| src != me);
                rreqs.extend(srcs.map(|src| comm.irecv(SourceSel::Rank(src), req_tag)));
                for r in rreqs.drain(..) {
                    if let Some(m) = r.wait().await {
                        requests.push((m.src, m.into_data::<Vec<ReqPiece>>()));
                    }
                }
                requests.sort_unstable_by_key(|&(src, _)| src);
            }
            if !requests.is_empty() {
                // Union of requested ranges → merged runs.
                ranges.clear();
                ranges.extend(
                    requests
                        .iter()
                        .flat_map(|(_, rs)| rs.iter().map(|&(o, l, _)| (o, l))),
                );
                ranges.sort_unstable();
                runs.clear();
                for &(o, l) in &ranges {
                    match runs.last_mut() {
                        Some(r) if o <= r.0 + r.1 => r.1 = r.1.max(o + l - r.0),
                        _ => runs.push((o, l)),
                    }
                }
                // Read each run — from the local cache when the
                // extension allows and the run is fully cached there.
                let mut window_data = ExtentMap::new();
                {
                    let _t = prof.enter(Phase::Write); // the data-I/O phase
                    for &(o, l) in &runs {
                        let cached = fd.hints().e10_cache_read
                            && fd
                                .cache()
                                .filter(|c| !c.is_degraded())
                                .is_some_and(|c| c.covers(o, l));
                        // A cache hit is served only after its bytes
                        // pass digest verification (`e10_integrity`);
                        // an unrepairable mismatch is answered from the
                        // in-memory copy and degrades the cache.
                        let pieces = if cached {
                            out.cache_hits += l;
                            fd.cache().unwrap().read_verified(o, l).await
                        } else {
                            match fd.global().read(comm.node(), o, l).await {
                                Ok(pieces) => pieces,
                                Err(e) => {
                                    // Failed reads answer as holes (the
                                    // requesters read back zeroes) and
                                    // flag the collective error.
                                    local_err = 1;
                                    fd.record_io_error(e.into());
                                    Vec::new()
                                }
                            }
                        };
                        for (r, src) in pieces {
                            let len = r.end - r.start;
                            window_data.insert(r.start, len, src.unwrap_or(Source::Zero));
                        }
                    }
                }
                // Scatter the pieces back.
                for (src, mut reqs) in requests.drain(..) {
                    let mut reply = comm.send_buf::<ReadPiece>();
                    let mut bytes = 32u64;
                    for (o, l, buf_off) in reqs.drain(..) {
                        for (r, s) in window_data.lookup(o, l) {
                            let len = r.end - r.start;
                            reply.push(ReadPiece {
                                file_off: r.start,
                                buf_off: buf_off + (r.start - o),
                                payload: Payload {
                                    src: s.unwrap_or(Source::Zero),
                                    len,
                                },
                            });
                            bytes += len + 24;
                        }
                    }
                    comm.recycle_buf(reqs);
                    if src == me {
                        out.take(&mut reply);
                        comm.recycle_buf(reply);
                    } else {
                        reply_reqs.push(comm.isend(src, data_tag, bytes, reply));
                    }
                }
            }
        }

        // Everyone: wait for requested data.
        {
            let _t = prof.enter(Phase::ShuffleWaitall);
            let srcs = asked.iter().map(|&a| aggregators[a]);
            rreqs.extend(
                srcs.filter(|&agg| agg != me)
                    .map(|agg| comm.irecv(SourceSel::Rank(agg), data_tag)),
            );
            for r in rreqs.drain(..) {
                if let Some(m) = r.wait().await {
                    let mut reply = m.into_data::<Vec<ReadPiece>>();
                    out.take(&mut reply);
                    comm.recycle_buf(reply);
                }
            }
            for r in sreqs.drain(..).chain(reply_reqs.drain(..)) {
                r.wait().await;
            }
        }
    }

    {
        let _t = prof.enter(Phase::PostWrite);
        out.error_code = comm.allreduce(local_err, 4, |a, b| (*a).max(*b)).await;
    }
    out.pieces.sort_by_key(|p| p.buf_off);
    out
}

/// Independent strided read: each rank reads its own pieces.
async fn independent_read(fd: &AdioFile, view: &FileView) -> ReadAllResult {
    let mut out = ReadAllResult::default();
    let buf = fd.hints().ind_wr_buffer_size.max(1);
    for vp in view.pieces() {
        let mut off = 0;
        while off < vp.len {
            let n = buf.min(vp.len - off);
            let pieces = match fd.read_contig(vp.file_off + off, n).await {
                Ok(pieces) => pieces,
                Err(e) => {
                    out.error_code = 1;
                    fd.record_io_error(e);
                    Vec::new()
                }
            };
            for (r, s) in pieces {
                let len = r.end - r.start;
                out.pieces.push(ReadPiece {
                    file_off: r.start,
                    buf_off: vp.buf_off + off + (r.start - (vp.file_off + off)),
                    payload: Payload {
                        src: s.unwrap_or(Source::Zero),
                        len,
                    },
                });
                out.bytes += len;
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
    use crate::collective::write_at_all;
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
