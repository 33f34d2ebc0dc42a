//! Collective operations.
//!
//! Two interchangeable backends:
//!
//! * [`CollBackend::Algorithmic`] — real message-passing algorithms
//!   (dissemination barrier, binomial broadcast, binomial reduce then
//!   broadcast for allreduce, ring allgather, pairwise size exchange)
//!   built on the point-to-point layer. Costs emerge from
//!   the network model. Used at small scale and to validate the
//!   analytic model.
//! * [`CollBackend::Analytic`] — LogGP-style closed-form cost with
//!   exact synchronisation semantics (no rank proceeds before the last
//!   arrival, results identical to the algorithmic backend). Used for
//!   the 512-rank paper sweeps, where pairwise all-to-all would cost
//!   P² messages per two-phase round.
//!
//! Either way a collective is a true synchronisation point: its cost to
//! each rank includes waiting for the slowest participant — the effect
//! the paper's `shuffle_all2all` / `post_write` breakdown terms measure.
//!
//! # What an analytic collective costs on the host
//!
//! In *virtual* time an analytic collective is two awaits — the
//! rendezvous on the operation's `Slot`, then one `sleep` of the
//! closed-form cost — so it is 1 timer event and P polls whatever it
//! carries. On the *host* it costs what its ranks hand over:
//!
//! * **The rendezvous** (`sync_slot`): each rank drops its
//!   contribution, unboxed, into a table of the collective's
//!   contribution type, the last arrival builds the result into a box
//!   of its type, and the first arrival of the next collective finds
//!   all of it again — the slot and its waiter list (sized for the
//!   communicator) stay with the communicator, the table and the result
//!   box return to its pool. So a rendezvous allocates only the first
//!   time a communicator runs a collective of its types, whatever P.
//! * **Generic collectives** (`bcast`, `allreduce`, `allgather`,
//!   `split`) take their answer from the one result:
//!   a clone for `bcast`/`allreduce` (O(1) per rank); for `allgather`
//!   a shared `Rc` — of the gathered vector, or, through
//!   [`Comm::allgather_with`], of what the last arrival derives from
//!   the contributions once for everyone (the offset exchange's
//!   summary: that `Rc` is the one allocation such a collective makes)
//!   — and for `split` a handle on its group's shared state, the
//!   parent's node map borrowed, not copied: O(1) per rank, no
//!   P-vector.
//! * **[`Comm::barrier_with`]** is a barrier whose last arrival also
//!   derives, once, what every rank would derive alike from one key
//!   they all pass (a collective open's aggregator election), and
//!   hands each rank a clone of it: a shared `Rc`, so per communicator
//!   and call there is one answer, not P. Its virtual cost is
//!   `barrier`'s, which is `barrier_with` of the unit key.
//! * **The size exchange** ([`Comm::alltoall_u64_sparse`]) runs once
//!   per two-phase round on every rank, almost always with nothing to
//!   say (0.49 non-zero entries per rank per round on the paper's
//!   512-rank / 64-aggregator cell), so it is sparse end to end: a rank
//!   hands over the `(destination, value)` pairs it has, each is pushed
//!   onto the destination's row of `CollShared::rows` tagged with its
//!   source, and after the rendezvous the rank moves its own row out —
//!   O(sent + received) per rank, O(1) for a rank with neither, and
//!   nothing boxed. A row has room only for a destination that has been
//!   sent to (the aggregators), and only for the most senders it has
//!   had in one exchange, rounded up by doubling (16 B each; the outer
//!   table is one empty row per rank, 24·P B per communicator), and a
//!   warm exchange allocates nothing. The
//!   modelled `MPI_Alltoall` stays dense: the virtual cost is that of P
//!   words per rank whatever they hold. The dense
//!   [`Comm::alltoall_u64_inplace`] is an adapter over it.

use std::any::Any;
use std::cell::RefCell;
use std::fmt::Debug;
use std::future::poll_fn;
use std::rc::Rc;
use std::task::{Poll, Waker};

use e10_simcore::{sleep, yield_now, SimDuration};

use crate::comm::{Comm, SourceSel, Tag};

/// Which collective implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollBackend {
    /// Message-passing algorithms over p2p.
    #[default]
    Algorithmic,
    /// Closed-form cost model with exact synchronisation semantics.
    Analytic,
}

const COLL_TAG_BASE: Tag = 0x4000_0000;

/// One collective in flight under `Analytic`, or a spare one. Slots are
/// never freed: a finished collective leaves its slot, with the
/// capacity of its waiter list, to the next one, and its contribution
/// table and result box to the communicator's pool.
#[derive(Default)]
struct Slot {
    /// The collective this slot serves; `None` on a spare.
    opid: Option<u64>,
    arrived: usize,
    taken: usize,
    /// The ranks parked until the last one arrives.
    waiters: Vec<Waker>,
    /// A pooled `Vec<Option<T>>` of the collective's contribution type,
    /// indexed by rank.
    contribs: Option<Box<dyn Any>>,
    /// A pooled `Option<R>`: the last arrival's result.
    result: Option<Box<dyn Any>>,
}

pub(crate) struct CollShared {
    pub(crate) backend: CollBackend,
    /// The collectives in flight, and spare slots. Ranks join them in
    /// one order, so there are at most two in flight — the one every
    /// rank is leaving and the one the first are entering: found by
    /// scanning, no hashing.
    slots: RefCell<Vec<Slot>>,
    counters: RefCell<Vec<u64>>,
    /// The analytic size exchange's mailboxes: `rows[dst]` holds the
    /// `(src, value)` pairs sent to `dst` in the exchange in flight, in
    /// arrival order, and is empty between exchanges. No rows until the
    /// first pair is sent; a row grows, by doubling, to hold the most
    /// pairs one exchange has sent its destination, and keeps that
    /// capacity.
    rows: RefCell<Vec<Vec<(usize, u64)>>>,
}

impl CollShared {
    pub(crate) fn new(backend: CollBackend, size: usize) -> Rc<Self> {
        Rc::new(CollShared {
            backend,
            slots: RefCell::new(Vec::new()),
            counters: RefCell::new(vec![0; size]),
            rows: RefCell::new(Vec::new()),
        })
    }
}

fn ceil_log2(n: usize) -> u32 {
    usize::BITS - (n - 1).leading_zeros()
}

impl Comm {
    fn coll(&self) -> &CollShared {
        &self.state.coll
    }

    fn next_op(&self) -> u64 {
        let mut c = self.state.coll.counters.borrow_mut();
        let id = c[self.rank];
        c[self.rank] += 1;
        id
    }

    fn op_tag(&self, opid: u64, phase: u32) -> Tag {
        COLL_TAG_BASE + ((opid % 4096) as Tag) * 64 + phase
    }

    /// Rendezvous all ranks on `opid`: each contributes a value, the
    /// last arrival builds the result from all of them, and every rank
    /// returns — after every rank has arrived (synchronisation
    /// semantics) — with its `answer` from that one result. Once the
    /// communicator has run a collective of the same contribution and
    /// result types, this allocates nothing.
    async fn sync_slot<T: 'static, R: 'static, O>(
        &self,
        opid: u64,
        contrib: T,
        build: impl FnOnce(&mut [Option<T>]) -> R,
        answer: impl FnOnce(&R) -> O,
    ) -> O {
        let (coll, pool, size) = (self.coll(), &self.state.pool, self.size());
        let find = |slots: &[Slot]| slots.iter().position(|s| s.opid == Some(opid));
        {
            let mut slots = coll.slots.borrow_mut();
            let i = find(&slots).unwrap_or_else(|| {
                let spare = slots.iter().position(|s| s.opid.is_none());
                let i = spare.unwrap_or_else(|| {
                    // Room for every rank but the last to park.
                    let waiters = Vec::with_capacity(size - 1);
                    slots.push(Slot {
                        waiters,
                        ..Slot::default()
                    });
                    slots.len() - 1
                });
                let mut contribs: Box<Vec<Option<T>>> = pool.take_box();
                contribs.resize_with(size, || None);
                let slot = &mut slots[i];
                (slot.opid, slot.arrived, slot.taken) = (Some(opid), 0, 0);
                slot.contribs = Some(contribs);
                i
            });
            let slot = &mut slots[i];
            let contribs = slot.contribs.as_mut().and_then(|c| c.downcast_mut());
            let contribs: &mut Vec<Option<T>> = contribs.expect("collective type mismatch");
            assert!(
                contribs[self.rank].is_none(),
                "rank {} joined collective op {opid} twice — mismatched collective order",
                self.rank
            );
            contribs[self.rank] = Some(contrib);
            slot.arrived += 1;
            if slot.arrived == size {
                let mut result: Box<Option<R>> = pool.take_box();
                *result = Some(build(contribs));
                slot.result = Some(result);
                for w in slot.waiters.drain(..) {
                    w.wake();
                }
            }
        }
        poll_fn(|cx| {
            let mut slots = coll.slots.borrow_mut();
            let i = find(&slots).expect("collective slot vanished");
            let slot = &mut slots[i];
            if slot.result.is_some() {
                Poll::Ready(())
            } else {
                slot.waiters.push(cx.waker().clone());
                Poll::Pending
            }
        })
        .await;
        let mut slots = coll.slots.borrow_mut();
        let i = find(&slots).expect("collective slot vanished");
        let slot = &mut slots[i];
        let result = slot.result.as_ref().and_then(|r| r.downcast_ref());
        let result: &Option<R> = result.expect("collective result type mismatch");
        let out = answer(result.as_ref().expect("collective result missing"));
        slot.taken += 1;
        if slot.taken == size {
            slot.opid = None;
            let (contribs, result) = (slot.contribs.take(), slot.result.take());
            drop(slots);
            // Both go back to the pool empty, for the next collective of
            // these types.
            let contribs = contribs.and_then(|c| c.downcast::<Vec<Option<T>>>().ok());
            let mut contribs = contribs.expect("collective contributions vanished");
            contribs.clear();
            pool.put_box(contribs);
            let result = result.and_then(|r| r.downcast::<Option<R>>().ok());
            let mut result = result.expect("collective result vanished");
            *result = None;
            pool.put_box(result);
        }
        out
    }

    // ---- cost model (Analytic backend) -------------------------------

    fn alpha(&self) -> SimDuration {
        let cfg = self.state.net.config();
        cfg.latency + cfg.overhead + cfg.overhead
    }

    fn beta(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.state.net.config().node_bw)
    }

    fn cost_barrier(&self) -> SimDuration {
        self.alpha() * ceil_log2(self.size().max(2)) as u64
    }

    fn cost_bcast(&self, bytes: u64) -> SimDuration {
        (self.alpha() + self.beta(bytes)) * ceil_log2(self.size().max(2)) as u64
    }

    fn cost_allreduce(&self, bytes: u64) -> SimDuration {
        (self.alpha() + self.beta(bytes)) * (2 * ceil_log2(self.size().max(2))) as u64
    }

    fn cost_allgather(&self, bytes_each: u64) -> SimDuration {
        self.alpha() * ceil_log2(self.size().max(2)) as u64
            + self.beta(bytes_each * self.size() as u64)
    }

    fn cost_alltoall(&self, total_bytes_per_rank: u64) -> SimDuration {
        let o = self.state.net.config().overhead;
        o * (self.size() as u64 - 1).max(1)
            + self.state.net.config().latency
            + self.beta(total_bytes_per_rank)
    }

    // ---- public collectives -------------------------------------------

    /// `MPI_Barrier`.
    pub async fn barrier(&self) {
        self.barrier_with((), |&()| ()).await
    }

    /// [`barrier`](Self::barrier), answering every rank with
    /// `derive(&key)`. Every rank must pass an equal `key`; one that
    /// finds another's different panics, naming both. Under `Analytic`
    /// the last arrival derives once and every rank takes a clone of
    /// that one answer (for an `Rc`, the one allocation the collective
    /// makes); under `Algorithmic` the keys ride the dissemination
    /// barrier's messages, still of 0 bytes, and each rank derives
    /// after it. Either way the virtual cost is exactly `barrier`'s.
    pub async fn barrier_with<K, R>(&self, key: K, derive: impl FnOnce(&K) -> R) -> R
    where
        K: Clone + PartialEq + Debug + 'static,
        R: Clone + 'static,
    {
        let opid = self.next_op();
        let disagree = |a: usize, ka: &K, b: usize, kb: &K| -> ! {
            panic!("barrier_with: rank {a} passed {ka:?}, rank {b} passed {kb:?}")
        };
        match self.coll().backend {
            CollBackend::Analytic => {
                let agree = |contribs: &mut [Option<K>]| {
                    let mut keys = contribs.iter().map(|c| c.as_ref().expect("missing key"));
                    let first = keys.next().expect("empty communicator");
                    if let Some((r, k)) = keys.enumerate().find(|(_, k)| *k != first) {
                        disagree(0, first, r + 1, k);
                    }
                    derive(first)
                };
                let out = self.sync_slot(opid, key, agree, R::clone).await;
                sleep(self.cost_barrier()).await;
                out
            }
            CollBackend::Algorithmic => {
                let p = self.size();
                let mut k = 0u32;
                let mut step = 1usize;
                while step < p {
                    let dst = (self.rank + step) % p;
                    let src = (self.rank + p - step) % p;
                    let tag = self.op_tag(opid, k);
                    let s = self.isend(dst, tag, 0, key.clone());
                    let r = self.irecv(SourceSel::Rank(src), tag);
                    s.wait().await;
                    if let Some(m) = r.wait().await {
                        let theirs = m.into_data::<K>();
                        if theirs != key {
                            disagree(src, &theirs, self.rank, &key);
                        }
                    }
                    step <<= 1;
                    k += 1;
                }
                derive(&key)
            }
        }
    }

    /// `MPI_Bcast`: `root` supplies `Some(value)`, everyone returns it.
    pub async fn bcast<T: Clone + 'static>(&self, root: usize, v: Option<T>, bytes: u64) -> T {
        let opid = self.next_op();
        if self.rank == root {
            assert!(v.is_some(), "bcast root must supply the value");
        }
        match self.coll().backend {
            CollBackend::Analytic => {
                let root_value = move |contribs: &mut [Option<Option<T>>]| {
                    let v = contribs[root].take().expect("root contribution missing");
                    v.expect("bcast root must supply the value")
                };
                let out = self.sync_slot(opid, v, root_value, T::clone).await;
                sleep(self.cost_bcast(bytes)).await;
                out
            }
            CollBackend::Algorithmic => {
                let p = self.size();
                let vr = (self.rank + p - root) % p;
                let logp = if p == 1 { 0 } else { ceil_log2(p) };
                let mut val = v;
                // Receive once from the parent (phase = position of the
                // highest set bit of vr).
                if vr != 0 {
                    let k = usize::BITS - 1 - vr.leading_zeros();
                    let parent = (vr - (1 << k) + root) % p;
                    let m = self
                        .recv(SourceSel::Rank(parent), self.op_tag(opid, k))
                        .await;
                    val = Some(m.into_data::<T>());
                }
                let val = val.expect("bcast value must be set after receive");
                // Forward to children.
                let first = if vr == 0 {
                    0
                } else {
                    usize::BITS - vr.leading_zeros()
                };
                for k in first..logp {
                    let child = vr + (1 << k);
                    if child < p {
                        let dst = (child + root) % p;
                        self.send(dst, self.op_tag(opid, k), bytes, val.clone())
                            .await;
                    }
                }
                val
            }
        }
    }

    /// `MPI_Allreduce` with a user combiner (must be associative and
    /// commutative, like the MPI built-in ops it stands in for).
    pub async fn allreduce<T: Clone + 'static>(
        &self,
        v: T,
        bytes: u64,
        op: impl Fn(&T, &T) -> T + Clone + 'static,
    ) -> T {
        let opid = self.next_op();
        match self.coll().backend {
            CollBackend::Analytic => {
                let reduce = |contribs: &mut [Option<T>]| {
                    let mut all = contribs
                        .iter_mut()
                        .map(|c| c.take().expect("missing contribution"));
                    let first = all.next().expect("empty communicator");
                    all.fold(first, |acc, x| op(&acc, &x))
                };
                let out = self.sync_slot(opid, v, reduce, T::clone).await;
                sleep(self.cost_allreduce(bytes)).await;
                out
            }
            CollBackend::Algorithmic => {
                // Binomial reduce to rank 0, then broadcast.
                let p = self.size();
                let mut acc = v;
                let vr = self.rank;
                let logp = if p == 1 { 0 } else { ceil_log2(p) };
                for k in 0..logp {
                    let bit = 1usize << k;
                    if vr & (bit - 1) != 0 {
                        continue; // already sent up in an earlier phase
                    }
                    if vr & bit != 0 {
                        let dst = vr - bit;
                        self.send(dst, self.op_tag(opid, k), bytes, acc.clone())
                            .await;
                        break;
                    } else if vr + bit < p {
                        let m: T = self.recv_from(vr + bit, self.op_tag(opid, k)).await;
                        acc = op(&acc, &m);
                    }
                }
                self.bcast(0, if vr == 0 { Some(acc) } else { None }, bytes)
                    .await
            }
        }
    }

    /// `MPI_Allgather`: every rank contributes one value, everyone gets
    /// the full vector indexed by rank — under `Analytic`, one vector
    /// every rank shares.
    pub async fn allgather<T: Clone + 'static>(&self, v: T, bytes: u64) -> Rc<Vec<T>> {
        self.allgather_with(v, bytes, |all| all.collect()).await
    }

    /// [`allgather`](Self::allgather), answering every rank with
    /// `combine` of the gathered values, in rank order. Under
    /// `Analytic` the last arrival applies it once and every rank
    /// shares the answer, so what each rank would derive from the same
    /// P values is derived once per collective, from the contributions
    /// where they lie; under `Algorithmic` each rank applies it to the
    /// vector its ring built.
    pub async fn allgather_with<T: Clone + 'static, R: 'static>(
        &self,
        v: T,
        bytes: u64,
        combine: impl FnOnce(&mut dyn Iterator<Item = T>) -> R,
    ) -> Rc<R> {
        let opid = self.next_op();
        match self.coll().backend {
            CollBackend::Analytic => {
                let gather = |contribs: &mut [Option<T>]| {
                    let mut all = contribs
                        .iter_mut()
                        .map(|c| c.take().expect("missing contribution"));
                    Rc::new(combine(&mut all))
                };
                let out = self.sync_slot(opid, v, gather, Rc::clone).await;
                sleep(self.cost_allgather(bytes)).await;
                out
            }
            CollBackend::Algorithmic => {
                // Ring allgather: P-1 steps, each forwarding one block.
                let p = self.size();
                let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
                out[self.rank] = Some(v);
                let next = (self.rank + 1) % p;
                let prev = (self.rank + p - 1) % p;
                let tag = self.op_tag(opid, 0);
                for s in 0..p.saturating_sub(1) {
                    let send_idx = (self.rank + p - s) % p;
                    let val = out[send_idx].clone().expect("ring hole");
                    let sreq = self.isend(next, tag, bytes, val);
                    let m: T = self.recv_from(prev, tag).await;
                    let recv_idx = (self.rank + p - s - 1) % p;
                    out[recv_idx] = Some(m);
                    sreq.wait().await;
                }
                let mut all = out.into_iter().map(|x| x.expect("ring hole"));
                Rc::new(combine(&mut all))
            }
        }
    }

    /// `MPI_Alltoall` of one `u64` per rank, the shape of the two-phase
    /// round loop's size dissemination, for a matrix that is almost all
    /// zeroes: `sends` holds this rank's non-zero entries as
    /// `(destination, value)`, at most one per destination, and `recvs`
    /// comes back holding the non-zero entries sent here as
    /// `(source, value)`, ascending by source. A zero value is no entry.
    ///
    /// * `Algorithmic`: a pairwise exchange — P−1 messages of
    ///   `bytes_each` per rank whatever they carry, rank `r` sending to
    ///   `r+1, r+2, …` in turn — with `sreqs` as caller-owned scratch (drained on return), so
    ///   steady-state rounds touch the allocator zero times.
    /// * `Analytic`: two awaits (rendezvous, then the
    ///   `cost_alltoall` sleep of a dense exchange) around
    ///   O(sent + received) host work: a rank pushes its entries onto
    ///   the destinations' shared rows on arrival and moves its own row
    ///   out after the rendezvous. A row grows only to the most senders
    ///   its destination has had in one exchange, not to P; once the
    ///   rows and `recvs` have grown to what an exchange sends and
    ///   receives, an exchange allocates nothing; `sreqs` is unused.
    pub async fn alltoall_u64_sparse(
        &self,
        sends: &[(usize, u64)],
        recvs: &mut Vec<(usize, u64)>,
        bytes_each: u64,
        sreqs: &mut Vec<crate::comm::Request>,
    ) {
        let p = self.size();
        let opid = self.next_op();
        recvs.clear();
        if self.coll().backend == CollBackend::Analytic {
            let rows = &self.coll().rows;
            if !sends.is_empty() {
                let mut rows = rows.borrow_mut();
                if rows.is_empty() {
                    rows.resize_with(p, Vec::new);
                }
                for &(dst, v) in sends.iter().filter(|&&(_, v)| v != 0) {
                    rows[dst].push((self.rank, v));
                }
            }
            self.sync_slot(opid, (), |_| (), |_| ()).await;
            // Take the row *before* the cost sleep. Every rank wakes
            // from the sleep at the same instant, and one with nothing
            // to send or receive runs from there straight into the next
            // exchange's scatter within a single poll — a row read
            // after the sleep could already hold the next round's
            // sizes. Before the sleep it cannot: nobody passes this
            // rendezvous until everybody has scattered, and nobody
            // scatters again until every rank, woken here at this same
            // instant, has been polled through to its suspension.
            if let Some(row) = rows.borrow_mut().get_mut(self.rank) {
                recvs.append(row);
            }
            // Ranks reach the rendezvous in any order; almost always it
            // is rank order and this is one pass.
            recvs.sort_unstable_by_key(|&(src, _)| src);
            // A free network has no sleep to suspend on (`sleep(0)` is
            // ready at once), so the rank that completed the rendezvous
            // would scatter the next exchange before the ranks it just
            // woke have taken their rows: queue behind them instead.
            let cost = self.cost_alltoall(bytes_each * p as u64);
            if cost == SimDuration::ZERO {
                yield_now().await;
            } else {
                sleep(cost).await;
            }
            return;
        }
        let tag = self.op_tag(opid, 0);
        debug_assert!(sreqs.is_empty());
        let sent_to = |dst| {
            let entry = sends.iter().find(|&&(d, _)| d == dst);
            entry.map_or(0, |&(_, v)| v)
        };
        for s in 1..p {
            let dst = (self.rank + s) % p;
            sreqs.push(self.isend(dst, tag, bytes_each, sent_to(dst)));
        }
        recvs.push((self.rank, sent_to(self.rank)));
        for _ in 1..p {
            let m = self.recv(SourceSel::Any, tag).await;
            recvs.push((m.src, m.into_data::<u64>()));
        }
        recvs.retain(|&(_, v)| v != 0);
        recvs.sort_unstable_by_key(|&(src, _)| src);
        for r in sreqs.drain(..) {
            r.wait().await;
        }
    }

    /// The entries the analytic size exchange's rows hold room for,
    /// over the whole communicator ([`Comm::alltoall_u64_sparse`]).
    pub fn exchange_row_capacity(&self) -> usize {
        self.coll().rows.borrow().iter().map(Vec::capacity).sum()
    }

    /// The dense form of [`alltoall_u64_sparse`](Self::alltoall_u64_sparse),
    /// an adapter over it: `buf[i]` is sent to rank `i` and replaced in
    /// place by the value received *from* rank `i`.
    pub async fn alltoall_u64_inplace(
        &self,
        buf: &mut [u64],
        bytes_each: u64,
        sreqs: &mut Vec<crate::comm::Request>,
    ) {
        assert_eq!(
            buf.len(),
            self.size(),
            "alltoall needs one element per rank"
        );
        let entries = buf.iter().copied().enumerate();
        let sends: Vec<(usize, u64)> = entries.filter(|&(_, v)| v != 0).collect();
        let mut recvs = Vec::new();
        self.alltoall_u64_sparse(&sends, &mut recvs, bytes_each, sreqs)
            .await;
        buf.fill(0);
        for (src, v) in recvs {
            buf[src] = v;
        }
    }

    /// `MPI_Comm_split`: partition the communicator by `color`; ranks
    /// with equal color form a new communicator, ordered by
    /// `(key, old rank)`. Collective over the parent communicator.
    ///
    /// The rendezvous uses the shared-slot mechanism (so it works under
    /// both backends) and is charged like a small allgather.
    pub async fn split(&self, color: u32, key: u64) -> Comm {
        use crate::comm::CommState;

        let opid = self.next_op();
        let net = crate::comm::Comm::network(self);
        let node_of_parent = self.node_map();
        let backend = self.coll().backend;
        // Sorted by `(color, key, old rank)`: each run of one color is a
        // group, already in its new rank order.
        let groups = move |contribs: &mut [Option<(u32, u64, usize)>]| {
            let members = contribs
                .iter_mut()
                .map(|c| c.take().expect("missing contribution"));
            let mut members: Vec<(u32, u64, usize)> = members.collect();
            members.sort_unstable();
            let groups = members.chunk_by(|a, b| a.0 == b.0).map(|group| {
                let ranks: Vec<usize> = group.iter().map(|&(_, _, r)| r).collect();
                let node_of = ranks.iter().map(|&r| node_of_parent[r]).collect();
                let coll = CollShared::new(backend, ranks.len());
                let state = CommState::new_shared(ranks.len(), node_of, Rc::clone(&net), coll);
                (group[0].0, ranks, state)
            });
            groups.collect::<Vec<_>>()
        };
        let mine = |groups: &Vec<(u32, Vec<usize>, Rc<CommState>)>| {
            let group = groups.binary_search_by_key(&color, |g| g.0);
            let (_, ranks, state) = &groups[group.expect("split color vanished")];
            let rank = ranks.iter().position(|&r| r == self.rank);
            Comm {
                state: Rc::clone(state),
                rank: rank.expect("rank missing from its own split group"),
            }
        };
        let comm = self
            .sync_slot(opid, (color, key, self.rank), groups, mine)
            .await;
        sleep(self.cost_allgather(16)).await;
        comm
    }

    /// `MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)`: split into
    /// intra-node sub-communicators — ranks sharing a compute node form
    /// one communicator, ordered by their rank in `self`. Rank 0 of
    /// each sub-communicator (the node's lowest parent rank) is the
    /// natural node leader. Collective over the parent communicator.
    pub async fn split_by_node(&self) -> Comm {
        self.split(self.node() as u32, self.rank() as u64).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{launch, WorldSpec};
    use e10_simcore::{now, run};

    fn both_backends(test: impl Fn(CollBackend) + Copy) {
        test(CollBackend::Algorithmic);
        test(CollBackend::Analytic);
    }

    fn spec(p: usize, backend: CollBackend) -> WorldSpec {
        let mut s = WorldSpec::for_tests(p, (p / 2).max(1));
        s.backend = backend;
        s
    }

    #[test]
    fn barrier_synchronises_all_ranks() {
        both_backends(|b| {
            run(async move {
                let outs = launch(spec(7, b), |comm| async move {
                    e10_simcore::sleep(e10_simcore::SimDuration::from_secs(comm.rank() as u64))
                        .await;
                    comm.barrier().await;
                    now().as_secs_f64()
                })
                .await;
                for t in &outs {
                    assert!(*t >= 6.0, "{b:?}: left barrier at {t} before slowest");
                }
            });
        });
    }

    #[test]
    fn bcast_delivers_root_value() {
        both_backends(|b| {
            run(async move {
                for root in [0usize, 3, 6] {
                    let outs = launch(spec(7, b), move |comm| async move {
                        let v = if comm.rank() == root {
                            Some(format!("payload-{root}"))
                        } else {
                            None
                        };
                        comm.bcast(root, v, 100).await
                    })
                    .await;
                    for v in outs {
                        assert_eq!(v, format!("payload-{root}"), "{b:?} root={root}");
                    }
                }
            });
        });
    }

    #[test]
    fn allreduce_min_max_sum() {
        both_backends(|b| {
            run(async move {
                let outs = launch(spec(9, b), |comm| async move {
                    let r = comm.rank() as u64;
                    let mx = comm.allreduce(r, 8, |a, b| *a.max(b)).await;
                    let mn = comm.allreduce(r, 8, |a, b| *a.min(b)).await;
                    let sum = comm.allreduce(r, 8, |a, b| a + b).await;
                    (mx, mn, sum)
                })
                .await;
                for (mx, mn, sum) in outs {
                    assert_eq!((mx, mn, sum), (8, 0, 36), "{b:?}");
                }
            });
        });
    }

    #[test]
    fn allgather_orders_by_rank() {
        both_backends(|b| {
            run(async move {
                let outs = launch(spec(6, b), |comm| async move {
                    comm.allgather(comm.rank() * 10, 8).await
                })
                .await;
                for v in outs {
                    assert_eq!(*v, [0, 10, 20, 30, 40, 50], "{b:?}");
                }
            });
        });
    }

    #[test]
    fn barrier_with_derives_one_answer_at_barrier_cost() {
        both_backends(|b| {
            let leave = |with: bool| {
                run(async move {
                    let outs = launch(spec(7, b), move |comm| async move {
                        let rank = comm.rank() as u64;
                        e10_simcore::sleep(e10_simcore::SimDuration::from_secs(rank)).await;
                        let answer = if with {
                            comm.barrier_with(3usize, |&k| Rc::new(k * 2)).await
                        } else {
                            comm.barrier().await;
                            Rc::new(6)
                        };
                        (now(), answer)
                    })
                    .await;
                    let shared = outs.iter().all(|(_, a)| Rc::ptr_eq(a, &outs[0].1));
                    let times: Vec<_> = outs.iter().map(|&(t, _)| t).collect();
                    assert!(outs.iter().all(|(_, a)| **a == 6), "{b:?}");
                    (times, shared)
                })
            };
            let ((with, shared), (plain, _)) = (leave(true), leave(false));
            assert_eq!(
                with, plain,
                "{b:?}: barrier_with must cost what barrier does"
            );
            assert_eq!(shared, b == CollBackend::Analytic, "{b:?}");
        });
    }

    #[test]
    fn analytic_and_algorithmic_costs_agree_in_magnitude() {
        // The analytic model should land within ~4x of the algorithmic
        // implementation for small control collectives.
        let time = |b: CollBackend| {
            run(async move {
                launch(spec(16, b), |comm| async move {
                    for _ in 0..10 {
                        comm.barrier().await;
                    }
                })
                .await;
                now().as_secs_f64()
            })
        };
        let t_algo = time(CollBackend::Algorithmic);
        let t_ana = time(CollBackend::Analytic);
        let ratio = t_algo / t_ana;
        assert!(
            (0.25..4.0).contains(&ratio),
            "algorithmic {t_algo}s vs analytic {t_ana}s"
        );
    }

    #[test]
    fn single_rank_collectives_are_trivial() {
        both_backends(|b| {
            run(async move {
                launch(spec(1, b), |comm| async move {
                    comm.barrier().await;
                    assert_eq!(comm.bcast(0, Some(5u8), 1).await, 5);
                    assert_eq!(*comm.allgather(1u8, 1).await, [1]);
                    assert_eq!(comm.allreduce(3u8, 1, |a, b| a + b).await, 3);
                })
                .await;
            });
        });
    }

    #[test]
    fn split_partitions_and_reorders() {
        both_backends(|b| {
            run(async move {
                let outs = launch(spec(8, b), |comm| async move {
                    // Even/odd split, keys reversing the rank order.
                    let color = (comm.rank() % 2) as u32;
                    let key = (100 - comm.rank()) as u64;
                    let sub = comm.split(color, key).await;
                    // Collectives on the sub-communicator work.
                    let members = sub.allgather(comm.rank(), 8).await;
                    (color, sub.rank(), sub.size(), members)
                })
                .await;
                for (r, (color, sub_rank, sub_size, members)) in outs.iter().enumerate() {
                    assert_eq!(*color, (r % 2) as u32, "{b:?}");
                    assert_eq!(*sub_size, 4);
                    // Keys reverse the order: highest old rank first.
                    let expect: Vec<usize> = if *color == 0 {
                        vec![6, 4, 2, 0]
                    } else {
                        vec![7, 5, 3, 1]
                    };
                    assert_eq!(**members, expect, "{b:?}");
                    assert_eq!(members[*sub_rank], r);
                }
            });
        });
    }

    #[test]
    fn split_subcomm_p2p_is_isolated() {
        both_backends(|b| {
            run(async move {
                launch(spec(4, b), |comm| async move {
                    let sub = comm.split((comm.rank() / 2) as u32, 0).await;
                    // Ping within each group using sub-ranks 0 <-> 1.
                    if sub.rank() == 0 {
                        sub.send(1, 3, 64, comm.rank()).await;
                    } else {
                        let from: usize = sub.recv_from(0, 3).await;
                        // Groups are {0,1} and {2,3}: partner differs by 1.
                        assert_eq!(from + 1, comm.rank());
                    }
                })
                .await;
            });
        });
    }

    #[test]
    fn power_of_two_and_odd_sizes() {
        both_backends(|b| {
            for p in [2usize, 3, 4, 8, 13] {
                run(async move {
                    let outs = launch(spec(p, b), |comm| async move {
                        comm.allreduce(comm.rank() as u64 + 1, 8, |a, c| a + c)
                            .await
                    })
                    .await;
                    let expect = (p as u64) * (p as u64 + 1) / 2;
                    assert!(outs.iter().all(|&x| x == expect), "p={p} {b:?}");
                });
            }
        });
    }
}
