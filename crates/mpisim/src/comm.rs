//! Communicators and point-to-point messaging.
//!
//! Each simulated MPI process is an async task holding a [`Comm`]. Sends
//! move their byte count across the [`e10_netsim::Network`] (so NIC and
//! switch contention are real), carry an arbitrary typed payload, and
//! match receives by `(source, tag)` with MPI's non-overtaking ordering
//! per `(source, destination)` pair.
//!
//! ## Allocation discipline
//!
//! The per-message machinery is allocation-free in steady state, so
//! two-phase rounds that send a bounded number of messages settle to
//! zero allocator calls per round (gated by `e10-romio`'s
//! `alloc_count` test):
//!
//! * **Requests** live in a generation-checked slab on the communicator
//!   instead of a `Flag` + slot `Rc` pair per operation.
//! * **Couriers** — the tasks that walk a message across the network —
//!   are pooled per task group and parked between messages instead of
//!   spawned per send. Pools are keyed by the sender's task group so a
//!   `kill_group` (node crash, killed tenant) can never hand a dead
//!   courier to a live sender: a group's couriers die with it and its
//!   idle list is simply never drawn from again.
//! * **Payload boxes** are recycled through a [`TypeId`]-keyed pool:
//!   a message's `Box<dyn Any>` wrapper returns to the pool when the
//!   message is consumed or dropped. [`Comm::send_buf`] /
//!   [`Comm::recycle_buf`] circulate payload *vector capacity* through
//!   the same pool, so senders refill from what receivers drained.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::future::poll_fn;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::task::{Poll, Waker};

use e10_netsim::{Network, NodeId};
use e10_simcore::alloc_gauge::FixedState;
use e10_simcore::{current_group, spawn};

/// Message tag.
pub type Tag = u32;

/// The Fx multiply-rotate hash for the maps every message consults:
/// their keys — rank pairs, task-group ids, `TypeId`s — are made by
/// this program, so SipHash's resistance to crafted keys buys nothing
/// here and costs a few percent of a paper-scale run. None of these
/// maps is iterated.
#[derive(Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Type-keyed shelf of reusable boxed scratch objects. `take_box`
/// returns a previously recycled `Box<T>` (or default-constructs one on
/// a cold start); `put_box` shelves it for the next taker. Steady
/// state: every take is served from the shelf and allocates nothing.
pub(crate) struct AnyPool {
    shelves: RefCell<IntMap<TypeId, Vec<Box<dyn Any>>>>,
}

impl AnyPool {
    fn new() -> AnyPool {
        AnyPool {
            shelves: RefCell::default(),
        }
    }

    pub(crate) fn take_box<T: Any + Default>(&self) -> Box<T> {
        let recycled = self
            .shelves
            .borrow_mut()
            .get_mut(&TypeId::of::<T>())
            .and_then(Vec::pop);
        match recycled {
            Some(b) => b.downcast::<T>().expect("pool shelf type confusion"),
            None => Box::<T>::default(),
        }
    }

    pub(crate) fn put_box<T: Any>(&self, b: Box<T>) {
        self.shelves
            .borrow_mut()
            .entry(TypeId::of::<T>())
            .or_default()
            .push(b);
    }

    /// Shelve an already type-erased box under its content's type.
    fn put_box_dyn(&self, b: Box<dyn Any>) {
        self.shelves
            .borrow_mut()
            .entry((*b).type_id())
            .or_default()
            .push(b);
    }
}

/// The pool's spare payload vectors of one element type, most recently
/// recycled last: a stack as deep as the most ever recycled before a
/// sender took them back.
struct Spares<T>(Vec<Vec<T>>);

impl<T> Default for Spares<T> {
    fn default() -> Self {
        Spares(Vec::new())
    }
}

/// A received message. The payload travels as a pooled
/// `Box<Option<T>>`; consuming or dropping the message returns the box
/// to the communicator's pool.
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Tag it was sent with.
    pub tag: Tag,
    /// Wire size in bytes (for accounting; the payload is typed).
    pub bytes: u64,
    data: Option<Box<dyn Any>>,
    pool: Option<Rc<AnyPool>>,
}

impl Message {
    /// Downcast the payload, panicking with a useful message on a type
    /// mismatch (which is always a caller bug, as in real MPI).
    pub fn into_data<T: 'static>(mut self) -> T {
        let mut b = self.data.take().expect("message payload already taken");
        let v = b
            .downcast_mut::<Option<T>>()
            .unwrap_or_else(|| {
                panic!(
                    "message payload type mismatch (src={}, tag={})",
                    self.src, self.tag
                )
            })
            .take()
            .expect("message payload already taken");
        if let Some(pool) = &self.pool {
            pool.put_box_dyn(b);
        }
        v
    }
}

impl Drop for Message {
    fn drop(&mut self) {
        if let (Some(b), Some(pool)) = (self.data.take(), &self.pool) {
            pool.put_box_dyn(b);
        }
    }
}

/// Source selector for receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceSel {
    /// Match a specific rank.
    Rank(usize),
    /// Match any source.
    Any,
}

struct RecvWaiter {
    src: SourceSel,
    tag: Tag,
    slot: u32,
    gen: u32,
}

#[derive(Default)]
struct RankMailbox {
    arrived: Vec<Message>,
    waiters: Vec<RecvWaiter>,
}

/// Per-(src,dst) ordering: messages are delivered in send order even if
/// wire transfers complete out of order.
#[derive(Default)]
struct PairOrder {
    next_send: u64,
    next_deliver: u64,
    stash: IntMap<u64, Message>,
}

// ---- request slab -----------------------------------------------------

enum ReqState {
    Free,
    Pending {
        waker: Option<Waker>,
        abandoned: bool,
    },
    Done(Option<Message>),
}

struct ReqSlot {
    gen: u32,
    state: ReqState,
}

/// Generation-checked request slab: one slot per in-flight operation,
/// recycled on completion. Replaces the historical per-request
/// `Flag` + `Rc<RefCell<Option<Message>>>` pair (three allocations per
/// message) with zero steady-state allocations.
#[derive(Default)]
struct ReqTable {
    slots: RefCell<Vec<ReqSlot>>,
    free: RefCell<Vec<u32>>,
}

impl ReqTable {
    fn alloc(&self) -> (u32, u32) {
        let mut slots = self.slots.borrow_mut();
        let i = match self.free.borrow_mut().pop() {
            Some(i) => i,
            None => {
                slots.push(ReqSlot {
                    gen: 0,
                    state: ReqState::Free,
                });
                (slots.len() - 1) as u32
            }
        };
        let s = &mut slots[i as usize];
        debug_assert!(matches!(s.state, ReqState::Free));
        s.state = ReqState::Pending {
            waker: None,
            abandoned: false,
        };
        (i, s.gen)
    }

    /// Complete a request. A send completes with `None`, a receive with
    /// its message. A stale generation (the owner abandoned the request
    /// and the slot was recycled) is a no-op.
    fn complete(&self, slot: u32, gen: u32, msg: Option<Message>) {
        let mut to_drop = None;
        let mut to_wake = None;
        {
            let mut slots = self.slots.borrow_mut();
            let s = &mut slots[slot as usize];
            if s.gen != gen {
                return;
            }
            match std::mem::replace(&mut s.state, ReqState::Done(msg)) {
                ReqState::Pending { waker, abandoned } => {
                    if abandoned {
                        // The handle is gone: discard the result and
                        // free the slot.
                        let ReqState::Done(m) = std::mem::replace(&mut s.state, ReqState::Free)
                        else {
                            unreachable!()
                        };
                        s.gen = s.gen.wrapping_add(1);
                        to_drop = m;
                        self.free.borrow_mut().push(slot);
                    } else {
                        to_wake = waker;
                    }
                }
                _ => panic!("request completed twice"),
            }
        }
        drop(to_drop);
        if let Some(w) = to_wake {
            w.wake();
        }
    }

    fn poll_wait(
        &self,
        slot: u32,
        gen: u32,
        cx: &mut std::task::Context<'_>,
    ) -> Poll<Option<Message>> {
        let mut slots = self.slots.borrow_mut();
        let s = &mut slots[slot as usize];
        assert_eq!(s.gen, gen, "stale request handle");
        match &mut s.state {
            ReqState::Pending { waker, .. } => {
                match waker {
                    Some(w) => w.clone_from(cx.waker()),
                    none => *none = Some(cx.waker().clone()),
                }
                Poll::Pending
            }
            ReqState::Done(_) => {
                let ReqState::Done(m) = std::mem::replace(&mut s.state, ReqState::Free) else {
                    unreachable!()
                };
                s.gen = s.gen.wrapping_add(1);
                drop(slots);
                self.free.borrow_mut().push(slot);
                Poll::Ready(m)
            }
            ReqState::Free => panic!("request polled after completion"),
        }
    }

    fn test(&self, slot: u32, gen: u32) -> bool {
        let slots = self.slots.borrow();
        let s = &slots[slot as usize];
        s.gen == gen && matches!(s.state, ReqState::Done(_))
    }

    /// The owner dropped the request handle without waiting.
    fn abandon(&self, slot: u32, gen: u32) {
        let mut to_drop = None;
        {
            let mut slots = self.slots.borrow_mut();
            let s = &mut slots[slot as usize];
            if s.gen != gen {
                return;
            }
            match &mut s.state {
                ReqState::Pending { abandoned, .. } => *abandoned = true,
                ReqState::Done(_) => {
                    let ReqState::Done(m) = std::mem::replace(&mut s.state, ReqState::Free) else {
                        unreachable!()
                    };
                    s.gen = s.gen.wrapping_add(1);
                    to_drop = m;
                    self.free.borrow_mut().push(slot);
                }
                ReqState::Free => {}
            }
        }
        drop(to_drop);
    }
}

// ---- courier pool -----------------------------------------------------

struct CourierJob {
    src_node: NodeId,
    dst_node: NodeId,
    bytes: u64,
    dst: usize,
    seq: u64,
    msg: Message,
    slot: u32,
    gen: u32,
}

struct CourierSlot {
    job: Option<CourierJob>,
    waker: Option<Waker>,
}

/// Pool of long-lived sender tasks. A courier carries one message
/// across the network, delivers it, completes its request, then parks
/// until the next [`Comm::isend`] hands it a job — the ready-queue
/// positions are identical to spawning a fresh task per message, but
/// nothing is allocated. Idle lists are keyed by task group (see the
/// module docs for why).
#[derive(Default)]
struct Couriers {
    slots: RefCell<Vec<CourierSlot>>,
    idle: RefCell<IntMap<u64, Vec<u32>>>,
}

async fn courier_loop(st: Rc<CommState>, idx: u32, gid: u64) {
    loop {
        let job = poll_fn(|cx| {
            let mut slots = st.couriers.slots.borrow_mut();
            let cs = &mut slots[idx as usize];
            match cs.job.take() {
                Some(j) => Poll::Ready(j),
                None => {
                    match &mut cs.waker {
                        Some(w) => w.clone_from(cx.waker()),
                        none => *none = Some(cx.waker().clone()),
                    }
                    Poll::Pending
                }
            }
        })
        .await;
        st.net.transfer(job.src_node, job.dst_node, job.bytes).await;
        Comm::deliver(&st, job.dst, job.seq, job.msg);
        st.reqs.complete(job.slot, job.gen, None);
        st.couriers
            .idle
            .borrow_mut()
            .entry(gid)
            .or_default()
            .push(idx);
    }
}

pub(crate) struct CommState {
    pub(crate) size: usize,
    pub(crate) node_of: Vec<NodeId>,
    pub(crate) net: Rc<Network>,
    mailboxes: RefCell<Vec<RankMailbox>>,
    order: RefCell<IntMap<(usize, usize), PairOrder>>,
    pub(crate) coll: Rc<super::coll::CollShared>,
    /// Bytes pushed through point-to-point sends (accounting).
    pub(crate) p2p_bytes: RefCell<u64>,
    pub(crate) p2p_msgs: RefCell<u64>,
    reqs: ReqTable,
    couriers: Couriers,
    pub(crate) pool: Rc<AnyPool>,
    /// Ranks suspected dead (ULFM-style failure knowledge, see
    /// [`crate::ft`]). Shared communicator state plays the role of a
    /// perfect failure detector: once any rank's timeout convicts a
    /// peer, every rank of the communicator observes it — the agreement
    /// protocol still exchanges real timed messages, so the *cost* of
    /// consensus is modelled even though suspicion propagates for free.
    pub(crate) dead: RefCell<Vec<bool>>,
    /// Shrunken survivor communicators, keyed by their sorted live-rank
    /// list ([`Comm::shrink`] is non-blocking: the first survivor to
    /// ask builds the state, the rest share it).
    pub(crate) shrunk: RefCell<HashMap<Vec<usize>, Rc<CommState>, FixedState>>,
}

/// A communicator handle bound to one rank.
///
/// Clones share the communicator; [`Comm::rank`] distinguishes the
/// owning process. All ranks of a communicator must call collective
/// operations in the same order (as in MPI).
#[derive(Clone)]
pub struct Comm {
    pub(crate) state: Rc<CommState>,
    pub(crate) rank: usize,
}

/// A non-blocking operation handle (`MPI_Request`).
///
/// Backed by a slot in the communicator's request slab; dropping an
/// unwaited request abandons the slot (the completion frees it).
pub struct Request {
    st: Option<Rc<CommState>>,
    slot: u32,
    gen: u32,
}

impl Request {
    /// A request that is already complete.
    pub fn ready() -> Self {
        Request {
            st: None,
            slot: 0,
            gen: 0,
        }
    }

    /// Wait for completion; receives yield their message.
    pub async fn wait(mut self) -> Option<Message> {
        let st = self.st.clone()?;
        let msg = poll_fn(|cx| st.reqs.poll_wait(self.slot, self.gen, cx)).await;
        // The slot is freed; disarm the Drop-time abandon.
        self.st = None;
        msg
    }

    /// Non-blocking completion test.
    pub fn test(&self) -> bool {
        match &self.st {
            None => true,
            Some(st) => st.reqs.test(self.slot, self.gen),
        }
    }

    /// Wait for completion, giving up after `d`: `Some(result)` if the
    /// operation completed (a receive yields `Some(Some(msg))`), `None`
    /// on timeout. A timed-out request is abandoned — a late completion
    /// is discarded, never delivered. This is the detection primitive
    /// of the ULFM-shaped crash tolerance ([`crate::ft`]): a peer that
    /// stays silent past the timeout is suspected dead.
    pub async fn wait_timeout(mut self, d: e10_simcore::SimDuration) -> Option<Option<Message>> {
        use std::future::Future;
        let Some(st) = self.st.clone() else {
            return Some(None);
        };
        // On the stack, and cancelled by its drop when the request
        // wins: an early completion leaves nothing in the calendar.
        let mut timer = std::pin::pin!(e10_simcore::sleep(d));
        let out = poll_fn(|cx| {
            // The request wins ties with the timer: a completion at the
            // deadline instant is still a completion.
            if let Poll::Ready(m) = st.reqs.poll_wait(self.slot, self.gen, cx) {
                return Poll::Ready(Some(m));
            }
            match timer.as_mut().poll(cx) {
                Poll::Ready(()) => Poll::Ready(None),
                Poll::Pending => Poll::Pending,
            }
        })
        .await;
        if out.is_some() {
            // Slot already freed by poll_wait; disarm the Drop abandon.
            self.st = None;
        }
        out
    }
}

impl Drop for Request {
    fn drop(&mut self) {
        if let Some(st) = self.st.take() {
            st.reqs.abandon(self.slot, self.gen);
        }
    }
}

/// `MPI_Waitall`: wait for every request, returning any received
/// messages in request order.
pub async fn waitall(reqs: Vec<Request>) -> Vec<Option<Message>> {
    let mut out = Vec::with_capacity(reqs.len());
    for r in reqs {
        out.push(r.wait().await);
    }
    out
}

impl CommState {
    /// Build a shared communicator state (used by `new_world` and
    /// `Comm::split`).
    pub(crate) fn new_shared(
        size: usize,
        node_of: Vec<NodeId>,
        net: Rc<Network>,
        coll: Rc<super::coll::CollShared>,
    ) -> Rc<CommState> {
        assert_eq!(node_of.len(), size);
        Rc::new(CommState {
            size,
            node_of,
            net,
            mailboxes: RefCell::new((0..size).map(|_| RankMailbox::default()).collect()),
            order: RefCell::default(),
            coll,
            p2p_bytes: RefCell::new(0),
            p2p_msgs: RefCell::new(0),
            reqs: ReqTable::default(),
            couriers: Couriers::default(),
            pool: Rc::new(AnyPool::new()),
            // Lazily sized on the first conviction: the default
            // (tolerance off) path must not allocate per communicator.
            dead: RefCell::new(Vec::new()),
            shrunk: RefCell::new(HashMap::default()),
        })
    }
}

impl Comm {
    pub(crate) fn new_world(
        size: usize,
        node_of: Vec<NodeId>,
        net: Rc<Network>,
        coll: Rc<super::coll::CollShared>,
    ) -> Vec<Comm> {
        let state = CommState::new_shared(size, node_of, net, coll);
        (0..size)
            .map(|rank| Comm {
                state: Rc::clone(&state),
                rank,
            })
            .collect()
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processes.
    pub fn size(&self) -> usize {
        self.state.size
    }

    /// Fabric node hosting this rank.
    pub fn node(&self) -> NodeId {
        self.state.node_of[self.rank]
    }

    /// Fabric node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> NodeId {
        self.state.node_of[rank]
    }

    /// The full rank → node mapping (used by aggregator selection),
    /// borrowed from the communicator every rank shares.
    pub fn node_map(&self) -> &[NodeId] {
        &self.state.node_of
    }

    /// The underlying fabric (for I/O layers that need to charge
    /// transfers directly).
    pub fn network(&self) -> Rc<Network> {
        Rc::clone(&self.state.net)
    }

    /// Total point-to-point traffic so far `(messages, bytes)`.
    pub fn p2p_traffic(&self) -> (u64, u64) {
        (
            *self.state.p2p_msgs.borrow(),
            *self.state.p2p_bytes.borrow(),
        )
    }

    /// Take a reusable payload vector from the communicator's pool.
    /// Capacity circulates: what a receiver drained and
    /// [recycled](Comm::recycle_buf) refills the next sender, so
    /// steady-state rounds build their payloads without allocating.
    pub fn send_buf<T: 'static>(&self) -> Vec<T> {
        let mut spares: Box<Spares<T>> = self.state.pool.take_box();
        let v = spares.0.pop().unwrap_or_default();
        self.state.pool.put_box(spares);
        v
    }

    /// Return a spent payload vector's capacity to the pool. Every
    /// vector recycled is kept until a sender takes it, so a rank that
    /// recycles several in a row (an aggregator's request lists, a
    /// rank's replies) loses none of them.
    pub fn recycle_buf<T: 'static>(&self, mut v: Vec<T>) {
        if v.capacity() == 0 {
            return;
        }
        v.clear();
        let mut spares: Box<Spares<T>> = self.state.pool.take_box();
        spares.0.push(v);
        self.state.pool.put_box(spares);
    }

    fn match_waiter(state: &Rc<CommState>, mb: &mut RankMailbox, msg: Message) {
        let pos = mb.waiters.iter().position(|w| {
            (match w.src {
                SourceSel::Rank(r) => r == msg.src,
                SourceSel::Any => true,
            }) && w.tag == msg.tag
        });
        match pos {
            Some(i) => {
                let w = mb.waiters.remove(i);
                state.reqs.complete(w.slot, w.gen, Some(msg));
            }
            None => mb.arrived.push(msg),
        }
    }

    fn deliver(state: &Rc<CommState>, dst: usize, seq: u64, msg: Message) {
        let src = msg.src;
        let mut order = state.order.borrow_mut();
        let pair = order.entry((src, dst)).or_default();
        if seq != pair.next_deliver {
            pair.stash.insert(seq, msg);
            return;
        }
        drop(order);
        let mut mb = state.mailboxes.borrow_mut();
        Self::match_waiter(state, &mut mb[dst], msg);
        // Flush any stashed successors.
        loop {
            let mut order = state.order.borrow_mut();
            let pair = order.entry((src, dst)).or_default();
            pair.next_deliver += 1;
            let next = pair.next_deliver;
            match pair.stash.remove(&next) {
                Some(m) => {
                    drop(order);
                    Self::match_waiter(state, &mut mb[dst], m);
                }
                None => break,
            }
        }
    }

    /// Non-blocking send of a typed payload accounting for `bytes` on
    /// the wire. The request completes when the transfer has fully
    /// arrived (buffered-synchronous semantics).
    pub fn isend<T: 'static>(&self, dst: usize, tag: Tag, bytes: u64, data: T) -> Request {
        assert!(
            dst < self.state.size,
            "isend to rank {dst} of {}",
            self.state.size
        );
        *self.state.p2p_msgs.borrow_mut() += 1;
        *self.state.p2p_bytes.borrow_mut() += bytes;
        let seq = {
            let mut order = self.state.order.borrow_mut();
            let pair = order.entry((self.rank, dst)).or_default();
            let s = pair.next_send;
            pair.next_send += 1;
            s
        };
        let mut payload: Box<Option<T>> = self.state.pool.take_box();
        *payload = Some(data);
        let msg = Message {
            src: self.rank,
            tag,
            bytes,
            data: Some(payload),
            pool: Some(Rc::clone(&self.state.pool)),
        };
        let (slot, gen) = self.state.reqs.alloc();
        let job = CourierJob {
            src_node: self.node(),
            dst_node: self.node_of(dst),
            bytes,
            dst,
            seq,
            msg,
            slot,
            gen,
        };
        let gid = current_group();
        let reused = self
            .state
            .couriers
            .idle
            .borrow_mut()
            .get_mut(&gid)
            .and_then(Vec::pop);
        match reused {
            Some(i) => {
                let waker = {
                    let mut slots = self.state.couriers.slots.borrow_mut();
                    let cs = &mut slots[i as usize];
                    debug_assert!(cs.job.is_none(), "idle courier with a pending job");
                    cs.job = Some(job);
                    cs.waker.take()
                };
                if let Some(w) = waker {
                    w.wake();
                }
            }
            None => {
                let idx = {
                    let mut slots = self.state.couriers.slots.borrow_mut();
                    slots.push(CourierSlot {
                        job: Some(job),
                        waker: None,
                    });
                    (slots.len() - 1) as u32
                };
                spawn(courier_loop(Rc::clone(&self.state), idx, gid));
            }
        }
        Request {
            st: Some(Rc::clone(&self.state)),
            slot,
            gen,
        }
    }

    /// Blocking send (returns when the message has arrived).
    pub async fn send<T: 'static>(&self, dst: usize, tag: Tag, bytes: u64, data: T) {
        self.isend(dst, tag, bytes, data).wait().await;
    }

    /// Non-blocking receive matching `(src, tag)`.
    pub fn irecv(&self, src: SourceSel, tag: Tag) -> Request {
        let (slot, gen) = self.state.reqs.alloc();
        let matched = {
            let mut mbs = self.state.mailboxes.borrow_mut();
            let mb = &mut mbs[self.rank];
            let pos = mb.arrived.iter().position(|m| {
                (match src {
                    SourceSel::Rank(r) => r == m.src,
                    SourceSel::Any => true,
                }) && m.tag == tag
            });
            match pos {
                Some(i) => Some(mb.arrived.remove(i)),
                None => {
                    mb.waiters.push(RecvWaiter {
                        src,
                        tag,
                        slot,
                        gen,
                    });
                    None
                }
            }
        };
        if let Some(m) = matched {
            self.state.reqs.complete(slot, gen, Some(m));
        }
        Request {
            st: Some(Rc::clone(&self.state)),
            slot,
            gen,
        }
    }

    /// Blocking receive with a deadline: `Some(msg)` if a matching
    /// message arrives within `d`, `None` on timeout (the posted
    /// receive is withdrawn; a later match is discarded).
    pub async fn recv_timeout(
        &self,
        src: SourceSel,
        tag: Tag,
        d: e10_simcore::SimDuration,
    ) -> Option<Message> {
        self.irecv(src, tag).wait_timeout(d).await.flatten()
    }

    /// Blocking receive.
    pub async fn recv(&self, src: SourceSel, tag: Tag) -> Message {
        self.irecv(src, tag)
            .wait()
            .await
            .expect("recv request must yield a message")
    }

    /// Convenience: blocking receive of a typed payload from a rank.
    pub async fn recv_from<T: 'static>(&self, src: usize, tag: Tag) -> T {
        self.recv(SourceSel::Rank(src), tag).await.into_data()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{launch, WorldSpec};
    use super::*;
    use e10_simcore::run;

    #[test]
    fn send_recv_roundtrip() {
        run(async {
            let outs = launch(WorldSpec::for_tests(2, 2), |comm| async move {
                if comm.rank() == 0 {
                    comm.send(1, 5, 1024, String::from("hello")).await;
                    0
                } else {
                    let m = comm.recv(SourceSel::Rank(0), 5).await;
                    assert_eq!(m.bytes, 1024);
                    assert_eq!(m.into_data::<String>(), "hello");
                    1
                }
            })
            .await;
            assert_eq!(outs, vec![0, 1]);
        });
    }

    #[test]
    fn messages_from_same_pair_arrive_in_send_order() {
        run(async {
            launch(WorldSpec::for_tests(2, 2), |comm| async move {
                if comm.rank() == 0 {
                    // A big slow message then a tiny fast one: the tiny
                    // one must NOT overtake.
                    let r1 = comm.isend(1, 7, 100 << 20, 1u32);
                    let r2 = comm.isend(1, 7, 8, 2u32);
                    waitall(vec![r1, r2]).await;
                } else {
                    let a: u32 = comm.recv_from(0, 7).await;
                    let b: u32 = comm.recv_from(0, 7).await;
                    assert_eq!((a, b), (1, 2));
                }
            })
            .await;
        });
    }

    #[test]
    fn tags_demultiplex() {
        run(async {
            launch(WorldSpec::for_tests(2, 1), |comm| async move {
                if comm.rank() == 0 {
                    comm.send(1, 1, 8, 10u64).await;
                    comm.send(1, 2, 8, 20u64).await;
                } else {
                    // Receive in reverse tag order.
                    let b: u64 = comm.recv_from(0, 2).await;
                    let a: u64 = comm.recv_from(0, 1).await;
                    assert_eq!((a, b), (10, 20));
                }
            })
            .await;
        });
    }

    #[test]
    fn irecv_before_send_completes_on_arrival() {
        run(async {
            launch(WorldSpec::for_tests(2, 2), |comm| async move {
                if comm.rank() == 1 {
                    let r = comm.irecv(SourceSel::Rank(0), 3);
                    assert!(!r.test());
                    let m = r.wait().await.unwrap();
                    assert_eq!(m.into_data::<u8>(), 42);
                } else {
                    e10_simcore::sleep(e10_simcore::SimDuration::from_secs(1)).await;
                    comm.send(1, 3, 16, 42u8).await;
                }
            })
            .await;
        });
    }

    #[test]
    fn any_source_matches_first_arrival() {
        run(async {
            launch(WorldSpec::for_tests(3, 3), |comm| async move {
                if comm.rank() == 0 {
                    let a = comm.recv(SourceSel::Any, 9).await;
                    let b = comm.recv(SourceSel::Any, 9).await;
                    let mut srcs = vec![a.src, b.src];
                    srcs.sort_unstable();
                    assert_eq!(srcs, vec![1, 2]);
                } else {
                    comm.send(0, 9, 64, comm.rank()).await;
                }
            })
            .await;
        });
    }

    #[test]
    fn traffic_accounting() {
        run(async {
            launch(WorldSpec::for_tests(2, 2), |comm| async move {
                if comm.rank() == 0 {
                    comm.send(1, 0, 1000, ()).await;
                } else {
                    comm.recv(SourceSel::Rank(0), 0).await;
                    let (msgs, bytes) = comm.p2p_traffic();
                    assert_eq!(msgs, 1);
                    assert_eq!(bytes, 1000);
                }
            })
            .await;
        });
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn wrong_downcast_panics() {
        run(async {
            launch(WorldSpec::for_tests(2, 1), |comm| async move {
                if comm.rank() == 0 {
                    comm.send(1, 0, 8, 1u64).await;
                } else {
                    let _: String = comm.recv_from(0, 0).await;
                }
            })
            .await;
        });
    }

    #[test]
    fn couriers_are_pooled_per_group_and_reused() {
        run(async {
            launch(WorldSpec::for_tests(2, 2), |comm| async move {
                if comm.rank() == 0 {
                    // Sequential sends reuse one courier; the payload
                    // box and request slot recycle too.
                    for i in 0..50u32 {
                        comm.send(1, 1, 64, i).await;
                    }
                } else {
                    for i in 0..50u32 {
                        let v: u32 = comm.recv_from(0, 1).await;
                        assert_eq!(v, i);
                    }
                }
            })
            .await;
        });
    }

    #[test]
    fn send_buf_capacity_circulates() {
        run(async {
            launch(WorldSpec::for_tests(2, 1), |comm| async move {
                if comm.rank() == 0 {
                    for round in 0..4u64 {
                        let mut v = comm.send_buf::<u64>();
                        if round > 0 {
                            assert!(v.capacity() >= 100, "recycled capacity must return");
                        }
                        v.extend(0..100);
                        comm.send(1, 2, 800, v).await;
                    }
                } else {
                    for _ in 0..4 {
                        let mut v: Vec<u64> = comm.recv_from(0, 2).await;
                        assert_eq!(v.len(), 100);
                        v.clear();
                        comm.recycle_buf(v);
                    }
                }
            })
            .await;
        });
    }

    /// Back-to-back recycles keep every vector: three recycled in a row
    /// come back as three senders' buffers, none of them empty.
    #[test]
    fn back_to_back_recycles_keep_their_capacity() {
        run(async {
            launch(WorldSpec::for_tests(1, 1), |comm| async move {
                for n in [10, 20, 30] {
                    comm.recycle_buf(Vec::<u8>::with_capacity(n));
                }
                let caps: Vec<usize> = (0..3).map(|_| comm.send_buf::<u8>().capacity()).collect();
                assert_eq!(caps, [30, 20, 10]);
                assert_eq!(comm.send_buf::<u8>().capacity(), 0, "the pool is empty");
            })
            .await;
        });
    }
}
