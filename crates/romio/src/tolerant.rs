//! Crash-tolerant collective writes (`e10_coll_timeout > 0`).
//!
//! The plain two-phase write deadlocks if a rank dies mid-collective:
//! every `Alltoall`, shuffle receive and error `Allreduce` waits
//! forever for the dead peer. This module is the ULFM-shaped
//! alternative, dispatched by [`crate::collective::write_at_all`] when
//! the `e10_coll_timeout` hint is non-zero (the default `0` keeps the
//! plain path — and its goldens — bit-identical). It holds no write
//! loop of its own: the rounds are
//! [`crate::collective::two_phase_write`], run here under the
//! [`Timed`] transport inside an attempt loop.
//!
//! 1. **Detection** — every coordination step of [`Timed`] is a
//!    fault-tolerant gather-and-broadcast
//!    ([`e10_mpisim::Comm::ft_coordinate`]) and every shuffle or
//!    pre-stage receive a timed receive; a silent peer is convicted on
//!    the shared failure detector.
//! 2. **Abort discipline** — a conviction never makes a rank skip a
//!    coordination step. The coordinator folds "somebody is missing"
//!    into the step's broadcast result, so *all* survivors abort the
//!    attempt at the same step, or none do.
//! 3. **Shrink and redo** — survivors agree on the live-rank list,
//!    build a survivor communicator ([`e10_mpisim::Comm::shrink`]),
//!    re-elect aggregators among the live nodes (for `node_agg`, node
//!    leaders among the live node members) and redo the write from the
//!    top on the sub-communicator.
//! 4. **Write-epoch fencing** — each redo attempt writes at epoch
//!    `base + attempt` and raises the file's fence to match
//!    ([`e10_pfs::PfsHandle::raise_fence`]), so a straggling write
//!    from the aborted attempt can never clobber redone data. Cache
//!    sync threads are fence-exempt: their bytes were acked with
//!    stable content before any redo began.
//!
//! Idempotence of the redo: survivors' pieces are deterministic
//! functions of `(view, data)`, so redone rounds rewrite identical
//! bytes; dead ranks' pieces simply drop out (they were never acked);
//! MPI consistency semantics make concurrent writers disjoint, so the
//! partial writes of an aborted attempt can only occupy byte ranges
//! the redo rewrites identically or ranges owned by dead ranks.
//!
//! Every receive on this path is bounded (timed receive or
//! coordinated with failover), sends complete on arrival regardless
//! of receiver liveness, and the live set shrinks by at least one
//! rank per aborted attempt — so the collective terminates in at most
//! `size` attempts.

use std::rc::Rc;

use e10_mpisim::{Comm, FileView, Request, SourceSel, Tag};
use e10_simcore::trace::counter;
use e10_simcore::SimDuration;

use crate::adio::{elect_aggregators, AdioFile, DataSpec};
use crate::collective::{
    two_phase_write, AccessRange, Transport, WriteAllResult, FT_TAG_BASE, FT_TAG_SPAN,
};
use crate::profile::Phase;

/// Coordination steps an attempt can take before its step numbers
/// wrap (onto its own, long-consumed tags — never the next attempt's).
const FT_STEPS: Tag = 4096;

/// How many attempts' worth of `FT_STEPS` tag blocks fit in the FT tag
/// range on communicators of up to `p` ranks: `ft_coordinate` takes
/// one (contribution, result) tag pair per coordinator-failover
/// candidate, so a block is `2 * p` wide.
fn ft_attempts(p: usize) -> Tag {
    FT_TAG_SPAN / (2 * p as Tag) / FT_STEPS
}

/// Tag block for coordination step `seq` of redo attempt `attempt`
/// (attempts wrap after [`ft_attempts`]).
fn ft_tag(p: usize, attempt: u32, seq: u32) -> Tag {
    let block = (attempt % ft_attempts(p)) * FT_STEPS + seq % FT_STEPS;
    FT_TAG_BASE + block * 2 * p as Tag
}

/// An attempt aborted: at least one rank was convicted; retry on the
/// shrunken communicator.
struct Aborted;

/// Fault-tolerant coordination (the module header's points 1 and 2;
/// step by step in the table on [`Transport`]) of one attempt, on the
/// survivor communicator `fd.comm`.
struct Timed<'a> {
    /// The file as the survivors see it (`fd.comm` is their
    /// communicator: every conviction of the attempt lands there).
    fd: &'a AdioFile,
    timeout: SimDuration,
    /// Rank count the tag blocks are sized for (the file's full
    /// communicator; survivor communicators are no larger).
    p: usize,
    attempt: u32,
    /// Next coordination step of this attempt (step 0 is the
    /// live-list sync).
    seq: u32,
    doomed: bool,
    /// OR of the error bits the settles have agreed on so far.
    global_err: u32,
    /// The size exchange's contribution, hoisted across rounds (see
    /// [`Comm::ft_alltoall_u64_sparse`]).
    row: Rc<Vec<(usize, u64)>>,
}

impl Timed<'_> {
    fn next_tag(&mut self) -> Tag {
        self.seq += 1;
        ft_tag(self.p, self.attempt, self.seq - 1)
    }
}

impl Transport for Timed<'_> {
    type Abort = Aborted;

    async fn gather_ranges(&mut self, mine: (u64, u64)) -> Result<Rc<AccessRange>, Aborted> {
        // The coordinator summarises, every survivor shares the one
        // summary; a missing range is the abort.
        let summarise = |contribs: &mut [Option<(u64, u64)>]| {
            let all_present = contribs.iter().all(Option::is_some);
            all_present.then(|| Rc::new(AccessRange::of(contribs.iter().flatten().copied())))
        };
        let comm = &self.fd.comm;
        let range = comm
            .ft_coordinate(self.next_tag(), mine, 16, self.timeout, summarise)
            .await;
        range.as_deref().cloned().flatten().ok_or(Aborted)
    }

    async fn exchange_sizes(
        &mut self,
        sends: &[(usize, u64)],
        recvs: &mut Vec<(usize, u64)>,
    ) -> Result<(), Aborted> {
        let tag = self.next_tag();
        let comm = &self.fd.comm;
        comm.ft_alltoall_u64_sparse(tag, sends, recvs, &mut self.row, self.timeout)
            .await
            .ok_or(Aborted)
    }

    async fn recv_each<P: 'static>(
        &mut self,
        on: &Comm,
        srcs: impl Iterator<Item = usize>,
        tag: Tag,
        _: &mut Vec<Request>,
        mut got: impl FnMut(usize, Vec<P>),
    ) {
        // A silent sender is convicted without skipping the step's
        // remaining receives or the coordination that follows. `on` is
        // the survivor communicator (for the pre-stage gather too), so
        // the conviction shrinks the next attempt's live list.
        for src in srcs {
            match on
                .recv_timeout(SourceSel::Rank(src), tag, self.timeout)
                .await
            {
                Some(m) => got(src, m.into_data()),
                None => {
                    on.mark_failed(src);
                    self.doomed = true;
                }
            }
        }
    }

    fn doomed(&self) -> bool {
        self.doomed
    }

    async fn settle(&mut self, phase: Option<Phase>, local_err: u32) -> Result<(), Aborted> {
        // OR of (doomed, error) bits, with the usual
        // missing-contributor abort. This replaces the plain
        // transport's single final allreduce.
        let flag = u64::from(self.doomed) | (u64::from(local_err) << 1);
        let _t = phase.map(|p| self.fd.profiler().enter(p));
        let status = self
            .fd
            .comm
            .ft_coordinate(self.next_tag(), flag, 16, self.timeout, |contribs| {
                contribs.iter().try_fold(0, |or, c| Some(or | (*c)?))
            })
            .await;
        match status.as_deref().copied().flatten() {
            Some(f) if f & 1 == 0 => {
                self.global_err |= (f >> 1) as u32 & 1;
                Ok(())
            }
            _ => Err(Aborted),
        }
    }

    async fn finish(&mut self, _: u32) -> u32 {
        self.global_err
    }
}

/// `MPI_File_write_all` with mid-collective crash tolerance. Same
/// result contract as the plain path; ranks that die mid-collective
/// simply never return (their bytes were never acked), and a rank
/// evicted while alive — too slow for the timeout — returns
/// `error_code = 1`, here and from every later collective on `fd`.
pub async fn write_at_all_tolerant(
    fd: &AdioFile,
    view: &FileView,
    data: &DataSpec,
) -> WriteAllResult {
    let timeout = SimDuration::from_millis(fd.hints().e10_coll_timeout);
    let me = fd.comm.rank();
    let p = fd.comm.size();
    assert!(
        ft_attempts(p) >= 2,
        "{p} ranks leave no room for two attempts' tag blocks"
    );
    let base_epoch = fd.global().epoch();
    let mut attempt: u32 = 0;
    loop {
        counter("coll.ft.attempts", 1);
        // Settle the live list: the coordinator's snapshot, not a local
        // read, so every survivor shrinks to exactly the same list.
        let live = fd
            .comm
            .ft_coordinate(ft_tag(p, attempt, 0), (), 16, timeout, |contribs| {
                contribs
                    .iter()
                    .enumerate()
                    .filter_map(|(r, c)| c.map(|()| r))
                    .collect::<Vec<usize>>()
            })
            .await;
        let Some(live) = live.filter(|live| live.contains(&me)) else {
            // Convicted while alive (messages that missed a detection
            // window, in this step or in the attempt just aborted). The
            // group proceeds without us; surface a local failure
            // instead of corrupting the redo.
            counter("coll.ft.self_evicted", 1);
            return WriteAllResult {
                bytes: view.total_bytes(),
                rounds: 0,
                used_collective: true,
                error_code: 1,
            };
        };
        let sub = fd.comm.shrink(&live);
        // Re-elect aggregators among the live nodes (sub numbering),
        // with the placement policy the open used.
        let sfd = fd.with_comm(sub.clone(), elect_aggregators(&sub, fd.hints()));
        let epoch = base_epoch + u64::from(attempt);
        if attempt > 0 {
            counter("coll.ft.redo_attempts", 1);
            // Fence out stragglers from the aborted attempt before any
            // redone write can land.
            sfd.global().set_epoch(epoch);
            sfd.global().raise_fence(epoch);
        }
        let mut timed = Timed {
            fd: &sfd,
            timeout,
            p,
            attempt,
            seq: 1,
            doomed: false,
            global_err: 0,
            row: Rc::default(),
        };
        // The pre-stage gathers over the *survivor* communicator too:
        // its leader is the node's lowest live rank, and a member it
        // finds silent is gone from the next attempt's live list.
        let outcome = two_phase_write(&sfd, view, data, &mut timed, async { sub.clone() }).await;
        // Either way, share what this attempt learned with the parent
        // communicator (idempotent; the sub-comm failure set is shared
        // state, so all survivors propagate the same convictions).
        for j in sub.failed_ranks() {
            fd.comm.mark_failed(live[j]);
        }
        match outcome {
            Ok(res) => {
                // Later operations on this handle must write at (or
                // above) the fence the redo raised.
                fd.global().set_epoch(epoch);
                return res;
            }
            Err(Aborted) => {
                counter("coll.ft.aborted_attempts", 1);
                attempt += 1;
                assert!(
                    (attempt as usize) <= p + 1,
                    "tolerant collective failed to converge: the live set \
                     must shrink on every aborted attempt"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::write_at_all;
    use crate::test_util::{cb_info, strided_view, write_then_read};
    use crate::testbed::TestbedSpec;
    use e10_mpisim::{FlatType, Info};
    use e10_simcore::trace;
    use e10_simcore::{kill_group, new_group, run, sleep, spawn, spawn_in_group, Flag};
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::rc::Rc;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn ft_info(extra: &[(&str, &str)]) -> Info {
        cb_info(&[&[("e10_coll_timeout", "40")], extra].concat())
    }

    /// Run an 8-rank / `nodes`-node collective write of 16
    /// `block`-byte blocks per rank where `victims` are killed
    /// `kill_after` after every rank has opened the file, and the
    /// `evicted` (alive, but too slow for the timeout) must come back
    /// from the write with `error_code == 1`. Survivors must complete
    /// and their own bytes must verify; a second post-crash collective
    /// must also work (the raised fence must not swallow later writes).
    fn crash_scenario(
        victims: &'static [usize],
        evicted: &'static [usize],
        kill_after: SimDuration,
        extra: &'static [(&str, &str)],
        (nodes, block): (usize, u64),
    ) {
        run(async move {
            let tb = TestbedSpec::small(8, nodes).build();
            let crash_gid = new_group();
            let opened = Rc::new(Cell::new(0usize));
            let all_open = Flag::new();
            let survivors: Vec<_> = tb
                .ctxs()
                .into_iter()
                .filter_map(|ctx| {
                    let rank = ctx.comm.rank();
                    let opened = Rc::clone(&opened);
                    let all_open = all_open.clone();
                    let fut = async move {
                        let f = crate::adio::AdioFile::open(
                            &ctx,
                            "/gfs/ftcrash",
                            &ft_info(extra),
                            true,
                        )
                        .await
                        .unwrap();
                        opened.set(opened.get() + 1);
                        if opened.get() == 8 {
                            all_open.set();
                        }
                        let view = strided_view(rank, 8, block, 16);
                        let res = write_at_all(&f, &view, &DataSpec::FileGen { seed: 31 }).await;
                        if evicted.contains(&rank) {
                            // Expelled, not crashed: the write returns,
                            // its bytes unacknowledged.
                            assert_eq!(res.error_code, 1, "rank {rank}: eviction not reported");
                            return None;
                        }
                        assert_eq!(res.error_code, 0, "rank {rank}: first write failed");
                        f.file_sync().await;
                        // The raised fence must not affect post-redo
                        // collectives on the same handle.
                        let shifted = FileView::new(
                            &FlatType::indexed(
                                (0..4u64)
                                    .map(|i| (200 * block + (i * 8 + rank as u64) * 1_000, 1_000))
                                    .collect(),
                            ),
                            0,
                        );
                        let res2 =
                            write_at_all(&f, &shifted, &DataSpec::FileGen { seed: 32 }).await;
                        assert_eq!(res2.error_code, 0, "rank {rank}: post-crash write failed");
                        f.file_sync().await;
                        Some((rank, f))
                    };
                    if victims.contains(&rank) {
                        // Killed tasks' handles never complete: fire and
                        // forget.
                        drop(spawn_in_group(crash_gid, fut));
                        None
                    } else {
                        Some(spawn(fut))
                    }
                })
                .collect();
            spawn(async move {
                all_open.wait().await;
                sleep(kill_after).await;
                kill_group(crash_gid);
            });
            // Verify only after EVERY survivor has flushed: with a
            // cache, an aggregator's flush covers other ranks' bytes.
            let outs: Vec<_> = e10_simcore::join_all(survivors)
                .await
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(outs.len(), 8 - victims.len() - evicted.len());
            let ext = outs[0].1.global().extents();
            for &(rank, _) in &outs {
                // Oracle: every byte a surviving rank was acked for
                // reads back.
                for i in 0..16u64 {
                    let off = (i * 8 + rank as u64) * block;
                    ext.verify_gen(31, off, block)
                        .unwrap_or_else(|e| panic!("rank {rank} block {i}: {e:?}"));
                }
                for i in 0..4u64 {
                    let off = 200 * block + (i * 8 + rank as u64) * 1_000;
                    ext.verify_gen(32, off, 1_000)
                        .unwrap_or_else(|e| panic!("rank {rank} post block {i}: {e:?}"));
                }
            }
        });
    }

    #[test]
    fn mid_collective_crash_survivors_complete_and_verify() {
        // Node 1 (ranks 2, 3) dies shortly into the write.
        crash_scenario(&[2, 3], &[], ms(3), &[], (4, 10_000));
    }

    #[test]
    fn aggregator_and_coordinator_death_fails_over() {
        // Rank 0 is both an aggregator and the lowest rank (the
        // ft-coordination default coordinator); rank 1 shares its node.
        crash_scenario(&[0, 1], &[], ms(3), &[], (4, 10_000));
    }

    #[test]
    fn node_agg_leader_death_reelects_and_completes() {
        // Rank 2 is node 1's leader under node_agg; its partner rank 3
        // survives and must be re-led.
        crash_scenario(
            &[2],
            &[],
            ms(3),
            &[("e10_two_phase", "node_agg")],
            (4, 10_000),
        );
    }

    #[test]
    fn mid_collective_crash_with_cache_survives() {
        crash_scenario(
            &[4, 5],
            &[],
            ms(3),
            &[
                ("e10_cache", "enable"),
                ("e10_cache_flush_flag", "flush_immediate"),
                ("e10_cache_discard_flag", "enable"),
            ],
            (4, 10_000),
        );
    }

    #[test]
    fn node_agg_live_but_slow_members_are_evicted_not_retried() {
        // Two nodes, 100 MB per rank: each leader's first gather receive
        // times out on a member (ranks 1 and 5) that is alive, merely
        // slow. The abort must shrink the live list all the same, so
        // the redo runs without them — and when their gather sends
        // finally land, the evicted find their own conviction at the
        // settle, convict nobody, and return with an error.
        let extra = &[("e10_two_phase", "node_agg"), ("cb_buffer_size", "1048576")];
        let (_, counts) =
            trace::counted(|| crash_scenario(&[], &[1, 5], ms(700), extra, (2, 6_250_000)));
        assert_eq!(counts.counter("coll.ft.self_evicted"), 2);
        assert_eq!(
            counts.counter("ft.convictions"),
            2 + 2,
            "sub + parent, no more"
        );
    }

    /// Transport equivalence: with no failures the plain and the timed
    /// transport are the same write — same bytes, same rounds, same
    /// shuffle traffic, same read-back — under every algorithm.
    #[test]
    fn without_failures_both_transports_write_the_same() {
        for algo in ["stock", "extended", "node_agg"] {
            let (plain, timed) = (write_then_read(algo, "0"), write_then_read(algo, "40"));
            assert_eq!(plain.rounds, timed.rounds, "{algo}: rounds");
            assert_eq!(plain.shuffle, timed.shuffle, "{algo}: shuffle traffic");
            assert!(plain == timed, "{algo}: file bytes or read pieces differ");
        }
    }

    /// The offset exchange as every rank once computed it: a scan of
    /// the whole gathered `(start, end)` vector, `(u64::MAX, 0)` for a
    /// rank with nothing to access — `(min_st, max_end, interleaved)`.
    fn per_rank_scan(st_end: &[(u64, u64)]) -> Option<(u64, u64, bool)> {
        let min_st = st_end
            .iter()
            .filter(|e| e.0 != u64::MAX)
            .map(|e| e.0)
            .min()?;
        let max_end = st_end.iter().map(|e| e.1).max().unwrap_or(0);
        let mut interleaved = false;
        let mut running_end = 0u64;
        for &(st, end) in st_end {
            if st == u64::MAX {
                continue;
            }
            if st < running_end {
                interleaved = true;
            }
            running_end = running_end.max(end);
        }
        Some((min_st, max_end, interleaved))
    }

    /// Every rank's answer to the offset exchange, under the timed
    /// transport or the plain one on `backend`, where rank `r`'s view
    /// is the one contiguous `(start, len)` of `views[r]` or empty.
    fn exchange_on_testbed(
        views: &Rc<Vec<Option<(u64, u64)>>>,
        backend: e10_mpisim::CollBackend,
        timed: bool,
    ) -> Vec<Option<Rc<AccessRange>>> {
        use crate::collective::{exchange_ranges, Plain};
        let (p, views) = (views.len(), Rc::clone(views));
        run(async move {
            let mut spec = TestbedSpec::small(p, p.div_ceil(2));
            spec.backend = backend;
            let tb = spec.build();
            let ranks = tb.ctxs().into_iter().map(|ctx| {
                let views = Rc::clone(&views);
                spawn(async move {
                    let info = cb_info(&[]);
                    let f = AdioFile::open(&ctx, "/gfs/ox", &info, true).await.unwrap();
                    let (disp, len) = views[ctx.comm.rank()].unwrap_or((0, 0));
                    let view = FileView::new(&FlatType::contiguous(len), disp);
                    let range = if timed {
                        let mut t = Timed {
                            fd: &f,
                            timeout: ms(40),
                            p,
                            attempt: 0,
                            seq: 1,
                            doomed: false,
                            global_err: 0,
                            row: Rc::default(),
                        };
                        let range = exchange_ranges(&f, &view, &mut t).await;
                        range.ok().expect("nobody is missing")
                    } else {
                        let Ok(range) = exchange_ranges(&f, &view, &mut Plain::new(&f)).await;
                        range
                    };
                    f.close().await;
                    range
                })
            });
            e10_simcore::join_all(ranks.collect()).await
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Every rank's answer to the offset exchange is the scan it
        /// would have made of every rank's range, under the plain
        /// transport on algorithmic and analytic collectives and under
        /// the timed one — with empty views among the ranges, each range
        /// starting a step before, exactly at or past where the rank's
        /// predecessor ended, and one case in four a collective nobody
        /// accesses a byte in. Where the transport shares one answer
        /// (analytic, timed) every rank holds the same one.
        #[test]
        fn offset_exchange_summary_is_the_per_rank_scan(
            p in 1usize..9,
            ranges in prop::collection::vec(prop::option::of((0u64..4, 1u64..4)), 8..9),
            nobody in 0u8..4,
        ) {
            use crate::hints::CbMode;
            use e10_mpisim::CollBackend;
            let mut end = 1000;
            let mut chain = |&(step, len): &(u64, u64)| {
                let start = (end + step * 1000) - 1000;
                end = start + len * 1000;
                (start, len * 1000)
            };
            let mine: Vec<_> = ranges[..p].iter().map(|r| r.as_ref().map(&mut chain)).collect();
            let mine = Rc::new(if nobody == 0 { vec![None; p] } else { mine });
            let st_end: Vec<(u64, u64)> = mine
                .iter()
                .map(|m| m.map_or((u64::MAX, 0), |(s, len)| (s, s + len)))
                .collect();
            let want = per_rank_scan(&st_end);
            for (timed, backend) in [
                (false, CollBackend::Algorithmic),
                (false, CollBackend::Analytic),
                (true, CollBackend::Analytic),
            ] {
                let answers = exchange_on_testbed(&mine, backend, timed);
                let label = if timed { "timed" } else { "plain" };
                for (rank, range) in answers.iter().enumerate() {
                    let got = range.as_ref().map(|r| {
                        (r.min_st, r.max_end, r.use_collective(CbMode::Automatic))
                    });
                    prop_assert_eq!(got, want, "{} on {:?}, rank {}", label, backend, rank);
                    if timed || backend == CollBackend::Analytic {
                        let (a, b) = (range.as_ref(), answers[0].as_ref());
                        prop_assert!(a.zip(b).is_none_or(|(a, b)| Rc::ptr_eq(a, b)), "not shared");
                    }
                }
            }
        }
    }

    /// Block k is `[tag, tag + 2p)`: a step's tags must end before the
    /// next step's begin — at the benchmark's 256 ranks, across the
    /// attempt boundary — and stay inside the FT range.
    #[test]
    fn ft_tag_blocks_are_disjoint() {
        let p = 256;
        let width = 2 * p as Tag;
        let steps = [(0, 0), (0, 1), (0, FT_STEPS - 1), (1, 0), (1, 1), (2, 0)];
        for w in steps.windows(2) {
            let (a, b) = (ft_tag(p, w[0].0, w[0].1), ft_tag(p, w[1].0, w[1].1));
            assert!(a + width <= b, "{:?} overlaps {:?}", w[0], w[1]);
        }
        assert_eq!(ft_tag(p, 0, 0), FT_TAG_BASE);
        assert!(ft_tag(p, 2, 0) + width <= FT_TAG_BASE + FT_TAG_SPAN);
        // A step past the per-attempt limit wraps inside its own
        // attempt's blocks, never into the next attempt's.
        assert_eq!(ft_tag(p, 0, FT_STEPS + 3), ft_tag(p, 0, 3));
    }
}
