//! ULFM-shaped fault tolerance primitives.
//!
//! Models the User-Level Failure Mitigation proposal's core triad on
//! the simulated MPI: **detection** (timeout-raced receives,
//! [`Comm::recv_timeout`]), **agreement** ([`Comm::agree`], the
//! `MPI_Comm_agree` shape: all live ranks settle on a combined flag
//! and a consistent failure set) and **revocation/shrink**
//! ([`Comm::shrink`], the `MPI_Comm_shrink` shape: a survivor
//! communicator over the live ranks).
//!
//! Failure knowledge lives on the shared communicator state
//! ([`Comm::mark_failed`]): once one rank's timeout convicts a peer,
//! every rank observes the conviction. This makes the simulated
//! detector *perfect* — suspicion propagates for free — while the
//! agreement protocol still exchanges real timed messages so the
//! latency and message cost of consensus are modelled faithfully.
//!
//! The control collectives here are star-shaped with coordinator
//! failover: every live rank sends its contribution to the lowest live
//! rank, which combines and answers; if the coordinator itself dies,
//! participants time out, convict it and retry with the next live
//! rank. That is O(P) messages per operation — and a data-path cost:
//! the crash-tolerant collective write runs two such steps per
//! two-phase round. So a step does no more host work than its messages
//! imply: the coordinator builds one result and every reply is a share
//! of it (`Rc` — the simulation is one address space), scratch is
//! recycled, and a timed receive that completes early leaves no timer
//! in the calendar. O(P) plus `combine` at the coordinator, O(1)
//! elsewhere, no steady-state allocator calls beyond the result.
//!
//! Accuracy caveat: a live-but-slow rank whose contribution misses the
//! timeout is convicted like a dead one. Detection is accurate when
//! the timeout dominates the collective's message latency; callers
//! (the `e10_coll_timeout` hint) pick timeouts accordingly.

use std::rc::Rc;

use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_simcore::SimDuration;

use crate::comm::{Comm, CommState, SourceSel, Tag};

/// What a rank contributes to the fault-tolerant size exchange: a
/// share of its row of the sparse size matrix, `(destination, value)`.
type SharedRow = Rc<Vec<(usize, u64)>>;

impl Comm {
    /// Convict `rank` as failed on this communicator. Idempotent.
    pub fn mark_failed(&self, rank: usize) {
        let mut dead = self.state.dead.borrow_mut();
        if dead.is_empty() {
            dead.resize(self.state.size, false);
        }
        if !dead[rank] {
            dead[rank] = true;
            trace::emit(|| {
                Event::new(Layer::Mpi, "ft.convict", EventKind::Point)
                    .node(self.state.node_of[self.rank])
                    .field("rank", rank as u64)
            });
            trace::counter("ft.convictions", 1);
        }
    }

    /// True if `rank` has been convicted as failed.
    pub fn is_failed(&self, rank: usize) -> bool {
        self.state.dead.borrow().get(rank) == Some(&true)
    }

    /// The convicted ranks, ascending.
    pub fn failed_ranks(&self) -> Vec<usize> {
        let dead = self.state.dead.borrow();
        (0..self.state.size)
            .filter(|&r| dead.get(r) == Some(&true))
            .collect()
    }

    /// The ranks not convicted, ascending.
    pub fn live_ranks(&self) -> Vec<usize> {
        let dead = self.state.dead.borrow();
        (0..self.state.size)
            .filter(|&r| dead.get(r) != Some(&true))
            .collect()
    }

    /// Fault-tolerant gather-and-broadcast over the live ranks — the
    /// building block under [`Comm::agree`] and the crash-tolerant
    /// collective-write coordination.
    ///
    /// Every live rank contributes `v`; the lowest live rank collects
    /// (with `timeout` per missing contributor, convicting silent
    /// peers), applies `combine` once to the per-rank contributions
    /// (`None` for ranks that failed to arrive — their absence is the
    /// caller's abort signal) and sends every surviving contributor a
    /// share of that one result: a reply is billed `bytes` on the wire
    /// whatever `R` holds, and nothing is copied per recipient. If the
    /// coordinator itself dies, participants time out on the result,
    /// convict it and fail over to the next live rank with `v.clone()`
    /// (keep `T` cheap to clone). `tag_base` must be unique per logical
    /// operation and leave `2 * size` tag values free above it (the
    /// failover tags are derived from the coordinator's rank — shared
    /// failure knowledge keeps them consistent even when ranks enter
    /// the operation with different conviction histories).
    ///
    /// `None` on a rank that finds *itself* convicted — alive, but too
    /// slow for somebody's timeout. The group has moved on and will not
    /// answer it; the silence of coordinators that ignore it is no
    /// evidence against them, so it convicts nobody and leaves.
    pub async fn ft_coordinate<T, R>(
        &self,
        tag_base: Tag,
        v: T,
        bytes: u64,
        timeout: SimDuration,
        combine: impl FnOnce(&mut [Option<T>]) -> R,
    ) -> Option<Rc<R>>
    where
        T: Clone + 'static,
        R: 'static,
    {
        let p = self.state.size;
        while !self.is_failed(self.rank) {
            let coord = (0..p)
                .find(|&r| !self.is_failed(r))
                .expect("this rank is live");
            let ctag = tag_base + 2 * coord as Tag;
            let rtag = ctag + 1;
            if self.rank == coord {
                // Scratch from the communicator's recycling pool.
                let mut contribs = self.send_buf::<Option<T>>();
                contribs.resize_with(p, || None);
                contribs[self.rank] = Some(v);
                // `r` is both the peer rank (recv source, conviction
                // target) and the contribution slot; an enumerate()
                // rewrite would obscure that.
                #[allow(clippy::needless_range_loop)]
                for r in 0..p {
                    if r == self.rank || self.is_failed(r) {
                        continue;
                    }
                    // Double the detection window: a live contributor
                    // may enter this operation up to one timeout after
                    // us (it spent its own timeout convicting a peer in
                    // the preceding phase).
                    match self
                        .recv_timeout(SourceSel::Rank(r), ctag, timeout * 2)
                        .await
                    {
                        Some(m) => contribs[r] = Some(m.into_data::<T>()),
                        None => self.mark_failed(r),
                    }
                }
                let res = Rc::new(combine(&mut contribs));
                // Let go of the contributions before anyone is answered:
                // a contributor may be reusing what it shared with us.
                self.recycle_buf(contribs);
                for r in 0..p {
                    if r != self.rank && !self.is_failed(r) {
                        // Fire and forget: completion on arrival, and a
                        // dead recipient's mailbox harmlessly swallows it.
                        drop(self.isend(r, rtag, bytes, Rc::clone(&res)));
                    }
                }
                return Some(res);
            }
            drop(self.isend(coord, ctag, bytes, v.clone()));
            // The coordinator may spend up to two timeouts per silent
            // contributor before answering; wait out the worst case
            // with margin for its own reply.
            let result_wait = timeout * (2 * p as u64 + 4);
            match self
                .recv_timeout(SourceSel::Rank(coord), rtag, result_wait)
                .await
            {
                Some(m) => return Some(m.into_data::<Rc<R>>()),
                // Ignored, not bereaved: the loop condition ends it.
                None if self.is_failed(self.rank) => {}
                None => self.mark_failed(coord),
            }
        }
        None
    }

    /// Fault-tolerant [`Comm::alltoall_u64_sparse`], one
    /// [`Comm::ft_coordinate`] step: `sends` holds this rank's non-zero
    /// entries as `(destination, value)`, and `recvs` comes back holding
    /// the non-zero entries sent here as `(source, value)`, ascending
    /// by source. Every rank contributes its sparse row, the
    /// coordinator counting-sorts the rows by destination into one
    /// buffer — O(P + non-zeros), one allocation — and each survivor
    /// copies out its own slice of that. Either message is billed the
    /// `8 * size` bytes of a dense row. `row` is caller-owned scratch
    /// kept across calls: the contribution is a share of it, refilled
    /// in place once the coordinator has let go of the last. `None`
    /// (`recvs` untouched) is the abort, the same on every survivor: a
    /// row is missing, or this rank is itself convicted.
    pub async fn ft_alltoall_u64_sparse(
        &self,
        tag_base: Tag,
        sends: &[(usize, u64)],
        recvs: &mut Vec<(usize, u64)>,
        row: &mut Rc<Vec<(usize, u64)>>,
        timeout: SimDuration,
    ) -> Option<()> {
        let p = self.state.size;
        let mine = Rc::make_mut(row);
        mine.clear();
        mine.extend(sends.iter().filter(|&&(_, v)| v != 0));
        // The transpose in compressed form, in one buffer: `ends[dst]`
        // is where `dst`'s entries end (they start where `dst - 1`'s
        // end), then the entries as `source, value` word pairs — each
        // destination's ascending by source, because the rows are
        // dealt out in rank order.
        let transpose = |rows: &mut [Option<SharedRow>]| {
            let mut nnz = 0;
            for row in rows.iter() {
                nnz += row.as_ref()?.len();
            }
            let mut out = vec![0u64; p + 2 * nnz];
            let (ends, entries) = out.split_at_mut(p);
            for &(dst, _) in rows.iter().flatten().flat_map(|row| row.iter()) {
                ends[dst] += 1;
            }
            let mut start = 0;
            for e in ends.iter_mut() {
                start += std::mem::replace(e, start);
            }
            for (src, row) in rows.iter().enumerate() {
                for &(dst, v) in row.iter().flat_map(|row| row.iter()) {
                    let at = 2 * ends[dst] as usize;
                    entries[at..at + 2].copy_from_slice(&[src as u64, v]);
                    ends[dst] += 1;
                }
            }
            Some(out)
        };
        let res = self
            .ft_coordinate(tag_base, Rc::clone(row), 8 * p as u64, timeout, transpose)
            .await?;
        let (ends, entries) = (*res).as_ref()?.split_at(p);
        let start = self.rank.checked_sub(1).map_or(0, |r| ends[r]);
        let mine = &entries[2 * start as usize..2 * ends[self.rank] as usize];
        recvs.clear();
        recvs.extend(mine.chunks_exact(2).map(|e| (e[0] as usize, e[1])));
        Some(())
    }

    /// `MPI_Comm_agree` (ULFM): all live ranks agree on the bitwise
    /// AND of their `flag` contributions and on a consistent failure
    /// set, which is returned (and installed locally). Ranks that die
    /// during the agreement are convicted and excluded; the operation
    /// always terminates within a bounded number of timeouts. `None`
    /// on a rank that is itself convicted (see [`Comm::ft_coordinate`]).
    pub async fn agree(
        &self,
        tag_base: Tag,
        flag: u64,
        timeout: SimDuration,
    ) -> Option<(u64, Vec<usize>)> {
        let and = self
            .ft_coordinate(tag_base, flag, 16, timeout, |contribs| {
                contribs.iter().flatten().fold(u64::MAX, |acc, &f| acc & f)
            })
            .await?;
        Some((*and, self.failed_ranks()))
    }

    /// `MPI_Comm_shrink` (ULFM): a communicator over `live` (sorted
    /// parent ranks, which must include this rank), with ranks
    /// renumbered by position. Non-blocking by construction: the first
    /// survivor to ask builds the shared state, later survivors join
    /// it — callers synchronise beforehand ([`Comm::agree`]) so every
    /// survivor asks with the same list. Repeated shrinks to the same
    /// list share one communicator (collective op counters continue,
    /// as with a reused MPI context).
    pub fn shrink(&self, live: &[usize]) -> Comm {
        assert!(
            live.windows(2).all(|w| w[0] < w[1]),
            "shrink wants a sorted, duplicate-free live list"
        );
        let rank = live
            .iter()
            .position(|&r| r == self.rank)
            .expect("shrinking rank must be in the live list");
        assert!(
            live.last().is_none_or(|&r| r < self.state.size),
            "live rank out of range"
        );
        let state = {
            let mut m = self.state.shrunk.borrow_mut();
            match m.get(live) {
                Some(st) => Rc::clone(st),
                None => {
                    let node_of = live.iter().map(|&r| self.state.node_of[r]).collect();
                    let coll = crate::coll::CollShared::new(self.state.coll.backend, live.len());
                    let st = CommState::new_shared(
                        live.len(),
                        node_of,
                        Rc::clone(&self.state.net),
                        coll,
                    );
                    m.insert(live.to_vec(), Rc::clone(&st));
                    st
                }
            }
        };
        Comm { state, rank }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{launch, WorldSpec};
    use e10_simcore::run;

    const T: Tag = 0x5800_0000;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn recv_timeout_expires_without_a_sender_and_passes_with_one() {
        run(async {
            launch(WorldSpec::for_tests(2, 2), |comm| async move {
                if comm.rank() == 0 {
                    // Nobody ever sends on tag 9: timeout.
                    assert!(comm
                        .recv_timeout(SourceSel::Rank(1), 9, ms(5))
                        .await
                        .is_none());
                    // Rank 1 sends on tag 10 after 1ms: arrives in time.
                    let m = comm
                        .recv_timeout(SourceSel::Rank(1), 10, ms(50))
                        .await
                        .expect("message within deadline");
                    assert_eq!(m.into_data::<u32>(), 7);
                } else {
                    e10_simcore::sleep(ms(6)).await;
                    comm.send(0, 10, 16, 7u32).await;
                }
            })
            .await;
        });
    }

    #[test]
    fn agree_convicts_a_silent_rank_and_settles_the_failure_set() {
        run(async {
            let outs = launch(WorldSpec::for_tests(4, 2), |comm| async move {
                if comm.rank() == 2 {
                    // Rank 2 "dies": it never joins the agreement.
                    return (0, vec![]);
                }
                comm.agree(T, !(1 << comm.rank()), ms(10)).await.unwrap()
            })
            .await;
            for (r, (and, dead)) in outs.iter().enumerate() {
                if r == 2 {
                    continue;
                }
                // AND over live contributors 0, 1, 3.
                assert_eq!(*and, !(1u64 | (1 << 1) | (1 << 3)));
                assert_eq!(dead, &vec![2], "rank {r} must convict exactly rank 2");
            }
        });
    }

    #[test]
    fn agree_fails_over_when_the_coordinator_dies() {
        run(async {
            let outs = launch(WorldSpec::for_tests(4, 2), |comm| async move {
                if comm.rank() == 0 {
                    // The would-be coordinator is dead.
                    return (0, vec![]);
                }
                comm.agree(T, u64::MAX, ms(10)).await.unwrap()
            })
            .await;
            for (r, (and, dead)) in outs.iter().enumerate() {
                if r == 0 {
                    continue;
                }
                assert_eq!(*and, u64::MAX);
                assert_eq!(dead, &vec![0], "rank {r} must fail over past rank 0");
            }
        });
    }

    #[test]
    fn shrink_builds_a_working_survivor_communicator() {
        run(async {
            launch(WorldSpec::for_tests(4, 2), |comm| async move {
                if comm.rank() == 1 {
                    return;
                }
                comm.mark_failed(1);
                let live = comm.live_ranks();
                assert_eq!(live, vec![0, 2, 3]);
                let sub = comm.shrink(&live);
                assert_eq!(sub.size(), 3);
                assert_eq!(
                    sub.rank(),
                    live.iter().position(|&r| r == comm.rank()).unwrap()
                );
                // Nodes carry over from the parent mapping.
                assert_eq!(sub.node(), comm.node());
                // Collectives work among the survivors.
                let members = sub.allgather(comm.rank(), 8).await;
                assert_eq!(*members, [0, 2, 3]);
                // p2p works in shrunk numbering.
                if sub.rank() == 0 {
                    sub.send(2, 4, 32, 99u8).await;
                } else if sub.rank() == 2 {
                    assert_eq!(sub.recv_from::<u8>(0, 4).await, 99);
                }
            })
            .await;
        });
    }

    #[test]
    fn shrink_to_the_same_list_shares_one_communicator() {
        run(async {
            launch(WorldSpec::for_tests(3, 1), |comm| async move {
                comm.mark_failed(2);
                if comm.rank() == 2 {
                    return;
                }
                let a = comm.shrink(&[0, 1]);
                let b = comm.shrink(&[0, 1]);
                // Same shared state: a barrier split across the two
                // handles still pairs up.
                let h = e10_simcore::spawn(async move { a.barrier().await });
                b.barrier().await;
                h.await;
            })
            .await;
        });
    }
}
