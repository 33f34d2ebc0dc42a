//! The discrete-event executor.
//!
//! The simulation runs on a single OS thread. Simulated activities are
//! ordinary Rust `async` tasks; whenever a task awaits a timed operation
//! (a [`sleep`], a queueing resource, a message arrival, ...) it parks and
//! the kernel advances the virtual clock to the next scheduled event.
//!
//! Determinism: events are ordered by `(time, sequence-number)` and the
//! ready queue is FIFO, so a run is a pure function of its inputs (including
//! any RNG seeds used by the models).
//!
//! The kernel is installed in a thread-local while [`run`] executes, which
//! lets deeply nested model code call [`now`], [`spawn`] or [`schedule_call`]
//! without threading a handle through every layer — the same pattern a real
//! MPI implementation gets from its process-global runtime state.
//!
//! One thread, so no thread machinery: the ready queue, each task's
//! queued bit and every counter are plain fields of the kernel, and a
//! task's waker is its [`TaskId`], salted per kernel, in a `RawWaker`
//! data word ([`crate::waker`]). What runs next — a ready task or the next event
//! of the current instant — is decided in one place,
//! [`Kernel::next_runnable`], which is also where [`run_perturbed`]
//! permutes delivery.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::task::{Context, Poll, Waker};
use std::thread::{self, ThreadId};

use crate::join::Spawned;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{self, Event, EventKind, Layer};
use crate::waker;

/// Identifier of a spawned task.
pub type TaskId = u64;

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

pub(crate) enum EventAction {
    /// Wake a parked future.
    Wake(Waker),
    /// Run an arbitrary callback.
    Call(Box<dyn FnOnce()>),
    /// A [`crate::resource::FairShare`] completion timer. A dedicated
    /// variant (instead of a boxed closure) so the hottest reschedule
    /// path in the simulator — cancel + re-arm on every job join and
    /// leave — costs two slab operations and an `Rc` clone, no heap
    /// allocation. Staleness is detected by the owner comparing the
    /// firing seq against its recorded pending seq.
    FsTimer(Rc<RefCell<crate::resource::FsState>>),
}

pub(crate) struct ScheduledEvent {
    /// Sequence number of the calendar entry pointing at this slot.
    /// A popped heap entry whose seq doesn't match is stale (the slot
    /// was freed by a cancel and possibly reused) and is skipped.
    seq: u64,
    action: EventAction,
    cancelled: Option<Rc<Cell<bool>>>,
}

/// Distinguishes kernels across nested/sequential/parallel runs so an
/// [`EventHandle`] outliving its simulation can never free a slot of a
/// different kernel that happens to reuse the same indices.
static KERNEL_IDS: AtomicU64 = AtomicU64::new(1);

/// Handle to a scheduled callback; dropping it does NOT cancel the event,
/// call [`EventHandle::cancel`] explicitly.
#[derive(Clone)]
pub struct EventHandle {
    cancelled: Rc<Cell<bool>>,
    kernel: u64,
    slot: u32,
    seq: u64,
}

impl EventHandle {
    /// Prevent the event from firing. Idempotent; has no effect if the
    /// event already fired.
    ///
    /// The event body (boxed callback and its captures) is dropped
    /// *now*, not when the calendar reaches the event's time — a
    /// cancelled timeout scheduled far in the future costs one stale
    /// 16-byte heap entry instead of retaining its closure for the
    /// rest of the run.
    pub fn cancel(&self) {
        if !self.cancelled.replace(true) {
            vacate_event(self.kernel, self.seq, self.slot);
        }
    }
}

/// A spawned task's kernel-side state. Tasks live in a slab indexed by
/// the low 32 bits of their [`TaskId`]; the high 32 bits carry the
/// slot's generation so stale ready-queue entries and wakers of
/// completed tasks are detected by a mismatch instead of a hash lookup.
struct TaskSlot {
    generation: u32,
    /// Whether the task's id sits in the ready queue; a wake that finds
    /// it set is absorbed (`wakes_coalesced`).
    queued: bool,
    /// The parked future. `None` while the task is being polled (the
    /// run loop takes it out) — and permanently for a slot being freed.
    fut: Option<LocalFuture>,
    /// Crash group (0 = ungrouped pool, which can never be killed).
    group: u64,
}

fn task_id(slot: u32, generation: u32) -> TaskId {
    ((generation as u64) << 32) | slot as u64
}

fn task_slot(id: TaskId) -> (u32, u32) {
    (id as u32, (id >> 32) as u32)
}

/// A calendar entry, `(time, seq, slot)` in one word — the instant in
/// the high 64 bits, then 40 bits of sequence number, then 24 of slot —
/// so the heap moves 16 bytes per step and orders them with a single
/// compare. The order is that of `(time, seq)`, the deterministic total
/// order (a `seq` is never issued twice, so `slot` never decides).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry(u128);

impl Entry {
    const SEQ_BITS: u32 = 40;
    const SLOT_BITS: u32 = 24;

    fn new(at: SimTime, seq: u64, slot: u32) -> Entry {
        debug_assert!(seq >> Self::SEQ_BITS == 0 && slot >> Self::SLOT_BITS == 0);
        Entry((at.as_nanos() as u128) << 64 | (seq as u128) << Self::SLOT_BITS | slot as u128)
    }

    fn time(self) -> SimTime {
        SimTime::from_nanos((self.0 >> 64) as u64)
    }

    fn seq(self) -> u64 {
        self.0 as u64 >> Self::SLOT_BITS
    }

    fn slot(self) -> u32 {
        self.0 as u32 & ((1 << Self::SLOT_BITS) - 1)
    }
}

/// What the run loop does next (see [`Kernel::next_runnable`]).
enum Next {
    /// Poll this task; its future has been taken out of its slot.
    Poll(TaskId, LocalFuture),
    /// Fire this calendar event (outside the kernel borrow: its body
    /// re-enters the kernel).
    Fire(ScheduledEvent),
    /// Nothing is runnable or deliverable at the current instant.
    Drained,
}

pub(crate) struct Kernel {
    id: u64,
    /// The thread the kernel was built on, which is the only one that
    /// can reach it (it lives in that thread's `KERNEL`).
    thread: ThreadId,
    /// What a task's id is XORed with to make its waker's data word
    /// (the generation half only), so that a waker which outlives its
    /// run names no task of a later one: run n+1's first task is
    /// `(slot 0, generation 0)` just as run n's was. Multiples of the
    /// golden-ratio constant scatter consecutive kernel ids over the
    /// 32 bits; two runs' salts would have to agree in every bit above
    /// their spawn counts for one's wakers to reach the other's tasks.
    salt: u64,
    seq: u64,
    /// The calendar: a min-heap in `(time, seq)` order (identical to
    /// the pre-slab executor's); an entry's `slot` indexes the event
    /// body in `slots`.
    heap: BinaryHeap<Reverse<Entry>>,
    /// Slab of event bodies; `free_slots` recycles vacancies so the
    /// slab's length is bounded by the peak number of *live* events,
    /// not by the number ever scheduled.
    slots: Vec<Option<ScheduledEvent>>,
    free_slots: Vec<u32>,
    live_events: usize,
    /// Task slab + free list (see [`TaskSlot`]).
    tasks: Vec<Option<TaskSlot>>,
    free_tasks: Vec<u32>,
    /// Ids of the tasks woken and not yet polled, FIFO.
    ready: VecDeque<TaskId>,
    /// Bodies of the events sharing the current instant that have not
    /// fired yet, in reverse seq order (so `pop()` yields FIFO).
    batch: Vec<ScheduledEvent>,
    /// Set once the main task has completed: the ready queue is still
    /// drained, the rest of the batch is not delivered.
    main_done: bool,
    /// Delivery-order perturbation ([`run_perturbed`]); `None` is FIFO.
    perturb: Option<SimRng>,
    events_batched: u64,
    heap_peak: usize,
    /// Wakes that found their task already queued.
    wakes_coalesced: u64,
    tasks_spawned: u64,
    /// Group of the task currently being polled; new spawns inherit it.
    current_group: u64,
    next_group: u64,
}

impl Kernel {
    fn new(perturb: Option<u64>) -> Self {
        let id = KERNEL_IDS.fetch_add(1, Ordering::Relaxed);
        Kernel {
            id,
            thread: thread::current().id(),
            salt: u64::from((id as u32).wrapping_mul(0x9E37_79B1)) << 32,
            seq: 0,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            live_events: 0,
            tasks: Vec::new(),
            free_tasks: Vec::new(),
            ready: VecDeque::new(),
            batch: Vec::new(),
            main_done: false,
            perturb: perturb.map(SimRng::new),
            events_batched: 0,
            heap_peak: 0,
            wakes_coalesced: 0,
            tasks_spawned: 0,
            current_group: 0,
            next_group: 1,
        }
    }

    fn schedule(
        &mut self,
        at: SimTime,
        action: EventAction,
        cancelled: Option<Rc<Cell<bool>>>,
    ) -> (u64, u32) {
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                assert!(
                    self.slots.len() >> Entry::SLOT_BITS == 0,
                    "event slab overflow"
                );
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        let seq = self.push_entry(at, slot);
        self.slots[slot as usize] = Some(ScheduledEvent {
            seq,
            action,
            cancelled,
        });
        self.live_events += 1;
        (seq, slot)
    }

    /// Put the body in `slot` on the calendar at `at` under the next
    /// seq, which it returns.
    fn push_entry(&mut self, at: SimTime, slot: u32) -> u64 {
        debug_assert!(Some(at) >= NOW.get(), "event scheduled in the past");
        let seq = self.seq;
        assert!(seq >> Entry::SEQ_BITS == 0, "calendar sequence overflow");
        self.seq += 1;
        self.heap.push(Reverse(Entry::new(at, seq, slot)));
        if self.heap.len() > self.heap_peak {
            self.heap_peak = self.heap.len();
        }
        seq
    }

    /// Vacate `slot` if it still holds the event scheduled as `seq`,
    /// returning the body for the caller to drop outside any borrow.
    fn free_event(&mut self, slot: u32, seq: u64) -> Option<ScheduledEvent> {
        match self.slots.get(slot as usize)? {
            Some(ev) if ev.seq == seq => {
                let ev = self.slots[slot as usize].take();
                self.free_slots.push(slot);
                self.live_events -= 1;
                ev
            }
            _ => None,
        }
    }

    /// Drop lazily-deleted (stale) calendar entries when they dominate
    /// the heap, so `heap_peak` reflects live load — without this, a
    /// cancel-heavy fault schedule grows the heap without bound even
    /// though every body was vacated eagerly.
    fn purge_stale_heap_entries(&mut self) {
        if self.heap.len() <= 64 || self.heap.len() <= 2 * self.live_events {
            return;
        }
        let slots = &self.slots;
        self.heap.retain(|&Reverse(entry)| {
            slots
                .get(entry.slot() as usize)
                .and_then(|s| s.as_ref())
                .is_some_and(|ev| ev.seq == entry.seq())
        });
    }

    fn spawn_raw(&mut self, fut: LocalFuture) -> TaskId {
        self.tasks_spawned += 1;
        let slot = match self.free_tasks.pop() {
            Some(s) => s,
            None => {
                assert!(self.tasks.len() < u32::MAX as usize, "task slab overflow");
                self.tasks.push(None);
                (self.tasks.len() - 1) as u32
            }
        };
        // The generation only needs to differ from any id a previous
        // occupant of this slot may have left in the ready queue or in
        // a waker; the strictly-increasing spawn counter guarantees
        // that.
        let generation = (self.tasks_spawned - 1) as u32;
        let id = task_id(slot, generation);
        self.tasks[slot as usize] = Some(TaskSlot {
            generation,
            queued: true,
            fut: Some(fut),
            group: self.current_group,
        });
        self.ready.push_back(id);
        id
    }

    /// The one place the ready queue and the same-instant batch are
    /// popped: the next task to poll or event to fire. Ready tasks go
    /// first, FIFO; with none left (and the main task still running)
    /// the next event of the batch is delivered, in seq order, the
    /// clock moving on to the next instant's batch when this one is
    /// spent. A wake event for one of this kernel's tasks is delivered
    /// right here — the task would be pushed onto an empty queue and
    /// popped straight back — and counted in `fired`.
    ///
    /// Under [`run_perturbed`] both pops draw a random element instead
    /// of the first. That reorders only what has no defined order in
    /// the model: tasks runnable at the same instant, and events
    /// scheduled for the same instant (every one of them was scheduled
    /// before any of them fired). Ready tasks still run before the
    /// next event, and the clock never moves with either pending.
    fn next_runnable(&mut self, fired: &mut u64) -> Next {
        loop {
            let tid = match self.ready.pop_front() {
                Some(first) => match &mut self.perturb {
                    None => first,
                    Some(rng) => match rng.below(self.ready.len() as u64 + 1) {
                        0 => first,
                        i => std::mem::replace(&mut self.ready[i as usize - 1], first),
                    },
                },
                None if self.main_done => return Next::Drained,
                None => {
                    if self.batch.is_empty() {
                        self.refill();
                    }
                    if let Some(rng) = &mut self.perturb {
                        if let Some(last) = self.batch.len().checked_sub(1) {
                            self.batch.swap(rng.below(last as u64 + 1) as usize, last);
                        }
                    }
                    let Some(ev) = self.batch.pop() else {
                        return Next::Drained;
                    };
                    match &ev.action {
                        EventAction::Wake(w) if ev.cancelled.is_none() => match waker::word_of(w) {
                            Some(word) => {
                                *fired += 1;
                                word ^ self.salt
                            }
                            None => return Next::Fire(ev),
                        },
                        _ => return Next::Fire(ev),
                    }
                }
            };
            // A stale id (the task completed or was killed) is skipped.
            if let Some(t) = self.task_mut(tid) {
                let fut = t.fut.take().expect("a runnable task is parked");
                t.queued = false;
                self.current_group = t.group;
                return Next::Poll(tid, fut);
            }
        }
    }

    /// Advance the clock to the next live event and drain every event
    /// sharing that instant into the (empty) `batch` in one heap pass,
    /// skipping stale calendar entries (events cancelled since they
    /// were pushed). A body whose cancel flag is set without its slot
    /// having been vacated (the cancel happened outside this kernel's
    /// ambient context) neither moves the clock nor counts: it rides
    /// the batch to the run loop, whose fire-time check drops it where
    /// its captures' destructors may re-enter the kernel.
    fn refill(&mut self) {
        self.purge_stale_heap_entries();
        let mut batch_time: Option<SimTime> = None;
        let mut live = 0;
        while let Some(&Reverse(entry)) = self.heap.peek() {
            let t = entry.time();
            if batch_time.is_some_and(|bt| t != bt) {
                break;
            }
            self.heap.pop();
            let Some(ev) = self.free_event(entry.slot(), entry.seq()) else {
                continue; // cancelled and already vacated
            };
            if !ev.cancelled.as_ref().is_some_and(|c| c.get()) {
                if batch_time.is_none() {
                    batch_time = Some(t);
                    NOW.set(Some(t));
                }
                live += 1;
            }
            self.batch.push(ev);
        }
        if live >= 2 {
            self.events_batched += live;
        }
        // `pop()` must yield ascending seq order.
        self.batch.reverse();
    }

    /// Book a finished poll of `tid`: a completed task gives up its
    /// slot — nothing is left inside a completed future, so dropping it
    /// here runs no model code — and a pending one is parked again.
    fn park(&mut self, tid: TaskId, fut: LocalFuture, done: bool) {
        self.current_group = 0;
        if done {
            self.free_task(tid);
        } else {
            // `kill_group` spares the task being polled, so the slot
            // is still this task's.
            let slot = self.task_mut(tid).expect("a task outlives its own poll");
            slot.fut = Some(fut);
        }
    }

    /// The slot's occupant, if `id`'s generation still matches.
    fn task_mut(&mut self, id: TaskId) -> Option<&mut TaskSlot> {
        let (slot, generation) = task_slot(id);
        self.tasks
            .get_mut(slot as usize)?
            .as_mut()
            .filter(|t| t.generation == generation)
    }

    /// Arm a [`FairShare`](crate::resource::FairShare) completion timer
    /// for `at`, returning `(kernel id, seq, slot)` for the owner's
    /// staleness bookkeeping. The timer it supersedes, `pending`, is
    /// moved instead when it is still on this calendar: its body keeps
    /// its slot under a fresh seq and entry. That is the state vacating
    /// it and scheduling anew leaves — the vacated slot is the next one
    /// handed out — without dropping and cloning the body.
    pub(crate) fn arm_fs_timer(
        &mut self,
        pending: Option<(u64, u64, u32)>,
        at: SimTime,
        fs: &Rc<RefCell<crate::resource::FsState>>,
    ) -> (u64, u64, u32) {
        if let Some((kernel, seq, slot)) = pending {
            let live = kernel == self.id
                && matches!(&self.slots[slot as usize], Some(ev) if ev.seq == seq);
            if live {
                let moved = self.push_entry(at, slot);
                if let Some(ev) = &mut self.slots[slot as usize] {
                    ev.seq = moved;
                }
                return (self.id, moved, slot);
            }
        }
        let (seq, slot) = self.schedule(at, EventAction::FsTimer(Rc::clone(fs)), None);
        (self.id, seq, slot)
    }

    /// Free a task slot (completion or kill).
    fn free_task(&mut self, id: TaskId) -> Option<TaskSlot> {
        let (slot, generation) = task_slot(id);
        match self.tasks.get(slot as usize) {
            Some(Some(t)) if t.generation == generation => {
                let t = self.tasks[slot as usize].take();
                self.free_tasks.push(slot);
                t
            }
            _ => None,
        }
    }
}

thread_local! {
    /// The kernel of the simulation running on this thread, if any.
    /// Whoever works on it takes it out of the cell and puts it back
    /// ([`with_kernel`]) — that is the whole borrow discipline: code
    /// re-entering while it is out finds none, and no kernel method
    /// calls out to model code.
    static KERNEL: Cell<Option<Box<Kernel>>> = const { Cell::new(None) };
    /// Its clock, kept apart so reading it borrows nothing; `None`
    /// outside of [`run`].
    static NOW: Cell<Option<SimTime>> = const { Cell::new(None) };
}

const OUTSIDE_RUN: &str = "simcore primitive used outside of simcore::run()";

pub(crate) fn with_kernel<R>(f: impl FnOnce(&mut Kernel) -> R) -> R {
    let mut k = KERNEL.take().expect(OUTSIDE_RUN);
    let r = f(&mut k);
    put_back(k);
    r
}

/// Return the kernel to the cell it was taken from.
fn put_back(k: Box<Kernel>) {
    let vacant = KERNEL.replace(Some(k));
    debug_assert!(vacant.is_none());
    // Known to be `None`: spare every put-back its drop glue.
    std::mem::forget(vacant);
}

/// Wake the task a waker's data `word` names: queue it unless it is
/// queued already. Called by [`crate::waker`]. The task is looked up
/// in the *calling thread's* kernel, so a waker that outlived its
/// task, its run or left its thread finds no such `(slot, generation)`
/// — or no kernel at all — and does nothing.
pub(crate) fn wake_task(word: u64) {
    let Some(mut k) = KERNEL.take() else { return };
    debug_assert_eq!(k.thread, thread::current().id());
    let id = word ^ k.salt;
    let (slot, generation) = task_slot(id);
    match k.tasks.get_mut(slot as usize) {
        Some(Some(t)) if t.generation == generation => {
            if t.queued {
                k.wakes_coalesced += 1;
            } else {
                t.queued = true;
                k.ready.push_back(id);
            }
        }
        _ => {}
    }
    put_back(k);
}

/// Vacate calendar entry `(seq, slot)` if the ambient kernel is the one
/// that scheduled it, dropping the event body now. Inert outside
/// [`run`], inside another simulation (whose indices may collide) and
/// once the entry has fired. Shared by [`EventHandle::cancel`],
/// fair-share timer cancelling and [`Sleep`]'s drop: it must not panic.
pub(crate) fn vacate_event(kernel: u64, seq: u64, slot: u32) {
    // Drop the body once the kernel is back in its cell: captured
    // values may re-enter the kernel from their own Drop.
    let Some(mut k) = KERNEL.take() else { return };
    let body = (k.id == kernel).then(|| k.free_event(slot, seq));
    put_back(k);
    drop(body);
}

/// Current simulated time. Panics outside of [`run`].
pub fn now() -> SimTime {
    NOW.get().expect(OUTSIDE_RUN)
}

/// Current simulated time, or `None` outside of [`run`] (for drop
/// implementations that must not panic during unwinding).
pub fn try_now() -> Option<SimTime> {
    NOW.get()
}

/// Schedule `f` to run at absolute simulated time `at`.
///
/// Returns a handle that can cancel the callback before it fires.
pub fn schedule_call_at(at: SimTime, f: impl FnOnce() + 'static) -> EventHandle {
    let cancelled = Rc::new(Cell::new(false));
    let (kernel, (seq, slot)) = with_kernel(|k| {
        (
            k.id,
            k.schedule(
                at,
                EventAction::Call(Box::new(f)),
                Some(Rc::clone(&cancelled)),
            ),
        )
    });
    EventHandle {
        cancelled,
        kernel,
        slot,
        seq,
    }
}

/// Schedule `f` to run after `delay`.
pub fn schedule_call(delay: SimDuration, f: impl FnOnce() + 'static) -> EventHandle {
    let at = now() + delay;
    schedule_call_at(at, f)
}

pub(crate) struct JoinState<T> {
    result: Option<T>,
    /// The owner's waker. A handle has one owner, so a re-poll replaces
    /// it instead of queueing a second wake.
    waiter: Option<Waker>,
    finished: bool,
}

impl<T> JoinState<T> {
    /// Store the task's output and wake its joiner.
    pub(crate) fn finish(&mut self, out: T) {
        self.result = Some(out);
        self.finished = true;
        if let Some(w) = self.waiter.take() {
            w.wake();
        }
    }
}

/// Handle to a spawned task; awaiting it yields the task's output.
///
/// Unlike `std::thread::JoinHandle`, dropping it detaches the task (the
/// task keeps running).
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
    id: TaskId,
}

impl<T> JoinHandle<T> {
    /// Identifier of the underlying task.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// True once the task has completed.
    pub fn is_finished(&self) -> bool {
        self.state.borrow().finished
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if st.finished {
            match st.result.take() {
                Some(v) => Poll::Ready(v),
                None => panic!("JoinHandle polled after completion was taken"),
            }
        } else {
            st.waiter = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Spawn a new simulated task. The task starts at the current virtual time.
///
/// Besides the join state it shares with its [`JoinHandle`], a task
/// costs one box the size of its future: the box holds the future once,
/// plus at most 16 bytes (the join state's pointer and the tag that
/// marks the future dropped). The future is dropped as soon as it
/// completes, before its output reaches the handle.
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    let state = Rc::new(RefCell::new(JoinState {
        result: None,
        waiter: None,
        finished: false,
    }));
    let wrapped = Box::pin(Spawned::new(fut, Rc::clone(&state)));
    let id = with_kernel(|k| k.spawn_raw(wrapped));
    // Outside the kernel borrow: event construction reads the clock.
    trace::emit(|| Event::new(Layer::Executor, "task.spawn", EventKind::Point).field("task", id));
    JoinHandle { state, id }
}

/// Allocate a fresh crash-group identifier (never 0).
///
/// Groups model a fault domain: every task spawned (transitively) from a
/// task in group `g` joins `g`, and [`kill_group`] removes the whole tree
/// at once — the simulated equivalent of a node losing power mid-run.
pub fn new_group() -> u64 {
    with_kernel(|k| {
        let g = k.next_group;
        k.next_group += 1;
        g
    })
}

/// Group of the currently running task (0 = ungrouped).
pub fn current_group() -> u64 {
    with_kernel(|k| k.current_group)
}

/// Spawn a task rooted in crash group `gid` (see [`new_group`]); its
/// descendants inherit the group.
pub fn spawn_in_group<F>(gid: u64, fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    let prev = with_kernel(|k| std::mem::replace(&mut k.current_group, gid));
    let h = spawn(fut);
    with_kernel(|k| k.current_group = prev);
    h
}

/// Kill every task in crash group `gid`, returning how many were
/// destroyed. Their futures are dropped immediately, so destructors run
/// (held locks and semaphore permits are released — a crashed client's
/// server-side state is revoked). `JoinHandle`s of killed tasks never
/// complete; a crash harness must not await them. The calling task
/// itself is never killed, even if it belongs to `gid`.
pub fn kill_group(gid: u64) -> usize {
    assert!(
        gid != 0,
        "group 0 is the ungrouped pool and cannot be killed"
    );
    let victims: Vec<LocalFuture> = with_kernel(|k| {
        let mut futs = Vec::new();
        let mut freed: Vec<u32> = Vec::new();
        for (slot, entry) in k.tasks.iter_mut().enumerate() {
            let Some(t) = entry else { continue };
            if t.group != gid {
                continue;
            }
            // A slot without a parked future is the caller itself
            // (mid-poll); it survives by construction but leaves the
            // group.
            match t.fut.take() {
                Some(f) => {
                    futs.push(f);
                    *entry = None;
                    freed.push(slot as u32);
                }
                None => t.group = 0,
            }
        }
        k.free_tasks.extend(freed);
        futs
    });
    let n = victims.len();
    // Drop outside the kernel borrow: destructors may re-enter the
    // kernel (cancel events, wake other tasks, release resources).
    drop(victims);
    trace::emit(|| {
        Event::new(Layer::Executor, "group.kill", EventKind::Point)
            .field("group", gid)
            .field("tasks", n as u64)
    });
    trace::counter("executor.killed_tasks", n as u64);
    n
}

/// Future returned by [`sleep`] / [`sleep_until`].
///
/// Self-cancelling: dropped before its deadline (the losing arm of a
/// timeout race), it vacates its calendar entry at once, so the wake
/// event and the waker it pins do not sit in the calendar until the
/// deadline. A sleep that runs to its deadline pays nothing for this.
/// ([`EventHandle`] is the opposite: dropping it cancels nothing.)
pub struct Sleep {
    deadline: SimTime,
    /// `(kernel, seq, slot)` of the pending wake event — the
    /// allocation-free coordinates fair-share timers cancel by.
    pending: Option<(u64, u64, u32)>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if now() >= self.deadline {
            // The wake was drained from the calendar when the clock
            // reached the deadline: nothing left to cancel.
            self.pending = None;
            return Poll::Ready(());
        }
        if self.pending.is_none() {
            let wake = EventAction::Wake(cx.waker().clone());
            self.pending = Some(with_kernel(|k| {
                let (seq, slot) = k.schedule(self.deadline, wake, None);
                (k.id, seq, slot)
            }));
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some((kernel, seq, slot)) = self.pending {
            vacate_event(kernel, seq, slot);
        }
    }
}

/// Suspend the current task for `d` of simulated time.
pub fn sleep(d: SimDuration) -> Sleep {
    sleep_until(now() + d)
}

/// Suspend the current task until the absolute instant `t` (no-op if in
/// the past).
pub fn sleep_until(t: SimTime) -> Sleep {
    Sleep {
        deadline: t,
        pending: None,
    }
}

/// Yield to other runnable tasks at the same instant.
pub fn yield_now() -> YieldNow {
    YieldNow { polled: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Live-object counts of the ambient kernel — the executor's memory
/// footprint in objects. Used by leak-regression tests and the bench
/// baseline's invariant checks; panics outside of [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveCounts {
    /// Scheduled events whose bodies are still held. Cancelled events
    /// are vacated eagerly and do not count (their stale calendar
    /// entries do not retain the body).
    pub events: usize,
    /// Parked tasks (the currently-polled task is not parked).
    pub tasks: usize,
    /// Registered task wakers (parked tasks + the one being polled).
    pub wakers: usize,
    /// Tasks carrying a crash-group membership entry.
    pub grouped_tasks: usize,
}

/// Snapshot the ambient kernel's [`LiveCounts`].
pub fn live_counts() -> LiveCounts {
    with_kernel(|k| {
        let mut tasks = 0;
        let mut wakers = 0;
        let mut grouped_tasks = 0;
        for t in k.tasks.iter().flatten() {
            wakers += 1;
            if t.fut.is_some() {
                tasks += 1;
            }
            if t.group != 0 {
                grouped_tasks += 1;
            }
        }
        LiveCounts {
            events: k.live_events,
            tasks,
            wakers,
            grouped_tasks,
        }
    })
}

/// Statistics about a completed simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Virtual time at which the main task completed.
    pub end_time: SimTime,
    /// Number of calendar events fired.
    pub events_fired: u64,
    /// Number of tasks spawned over the whole run.
    pub tasks_spawned: u64,
    /// Events delivered as part of a same-instant batch of ≥ 2 (a
    /// measure of how much heap traffic batching amortised).
    pub events_batched: u64,
    /// High-water mark of calendar entries (live + lazily-deleted).
    pub heap_peak: u64,
    /// Wakes that found their task already queued and were absorbed
    /// without touching the ready queue.
    pub wakes_coalesced: u64,
}

/// Run `main` to completion inside a fresh simulation and return its output.
///
/// Panics with a diagnostic if the simulation deadlocks (no runnable task
/// and no pending event while `main` is incomplete). Background tasks still
/// pending when `main` finishes are dropped.
pub fn run<F, T>(main: F) -> T
where
    F: Future<Output = T> + 'static,
    T: 'static,
{
    run_with_stats(main).0
}

/// Like [`run`] but also returns calendar statistics.
pub fn run_with_stats<F, T>(main: F) -> (T, RunStats)
where
    F: Future<Output = T> + 'static,
    T: 'static,
{
    run_perturbed(None, main)
}

/// [`run_with_stats`] under an adversarial schedule, for tests: with
/// `Some(seed)`, tasks runnable at the same instant and events
/// scheduled for the same instant are delivered in a seeded random
/// order instead of FIFO (see [`Kernel::next_runnable`] for what that
/// may and may not reorder). A model whose results depend on such an
/// order has a latent ordering bug. `None` is [`run_with_stats`].
pub fn run_perturbed<F, T>(seed: Option<u64>, main: F) -> (T, RunStats)
where
    F: Future<Output = T> + 'static,
    T: 'static,
{
    assert!(
        NOW.get().is_none(),
        "nested simcore::run() on the same thread is not supported"
    );
    let kernel = Kernel::new(seed);
    let salt = kernel.salt;
    KERNEL.set(Some(Box::new(kernel)));
    NOW.set(Some(SimTime::ZERO));
    // Uninstall the kernel even if the simulation panics, and drop it
    // — with every task still parked — only once it is uninstalled:
    // destructors that reach for the kernel then find none.
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            NOW.set(None);
            drop(KERNEL.take());
        }
    }
    let _uninstall = Uninstall;

    let main_handle = spawn(main);
    let mut events_fired = 0u64;
    let mut next = with_kernel(|k| k.next_runnable(&mut events_fired));
    loop {
        next = match next {
            Next::Poll(tid, mut fut) => {
                let waker = waker::from_word(tid ^ salt);
                let mut cx = Context::from_waker(&waker);
                trace::emit(|| {
                    Event::new(Layer::Executor, "task.wake", EventKind::Point).field("task", tid)
                });
                trace::counter("executor.polls", 1);
                let done = fut.as_mut().poll(&mut cx).is_ready();
                trace::emit(|| {
                    let name = if done { "task.finish" } else { "task.block" };
                    Event::new(Layer::Executor, name, EventKind::Point).field("task", tid)
                });
                with_kernel(|k| {
                    k.park(tid, fut, done);
                    k.main_done |= done && tid == main_handle.id;
                    k.next_runnable(&mut events_fired)
                })
            }
            Next::Fire(ev) => {
                // Every event is re-checked against its cancel flag at
                // fire time: a task woken earlier in the batch may have
                // cancelled an event whose body is already buffered.
                // Either way the body is dropped here, with the kernel
                // in its cell: its captures may re-enter it.
                if !ev.cancelled.as_ref().is_some_and(|c| c.get()) {
                    match ev.action {
                        EventAction::Wake(w) => {
                            events_fired += 1;
                            w.wake();
                        }
                        EventAction::Call(f) => {
                            events_fired += 1;
                            f();
                        }
                        // A superseded fair-share timer (stale seq) must
                        // not count as fired: the unbatched executor
                        // would have found its slot vacated and skipped
                        // it silently.
                        EventAction::FsTimer(fs) => {
                            if crate::resource::fs_timer_fired(fs, ev.seq) {
                                events_fired += 1;
                            }
                        }
                    }
                }
                with_kernel(|k| k.next_runnable(&mut events_fired))
            }
            Next::Drained if main_handle.is_finished() => break,
            Next::Drained => {
                let blocked = live_counts().tasks;
                panic!(
                    "simulation deadlock at {}: main task incomplete, \
                     {blocked} task(s) blocked, no pending events",
                    now()
                );
            }
        }
    }

    let stats = with_kernel(|k| RunStats {
        end_time: now(),
        events_fired,
        tasks_spawned: k.tasks_spawned,
        events_batched: k.events_batched,
        heap_peak: k.heap_peak as u64,
        wakes_coalesced: k.wakes_coalesced,
    });
    // Mirror the run's calendar statistics into the ambient metrics
    // registry (no-ops without a registry), so counter readers see
    // the executor counters next to the I/O ones.
    trace::counter("executor.events_fired", stats.events_fired);
    trace::counter("executor.tasks_spawned", stats.tasks_spawned);
    trace::counter("executor.events_batched", stats.events_batched);
    trace::counter("executor.heap_peak", stats.heap_peak);
    trace::counter("executor.wakes_coalesced", stats.wakes_coalesced);
    let out = {
        let mut st = main_handle.state.borrow_mut();
        st.result.take().expect("main task finished without result")
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_starts_at_zero_and_advances() {
        let (end, stats) = run_with_stats(async {
            assert_eq!(now(), SimTime::ZERO);
            sleep(SimDuration::from_secs(5)).await;
            assert_eq!(now().as_secs_f64(), 5.0);
            sleep(SimDuration::from_millis(250)).await;
            now()
        });
        assert_eq!(end.as_secs_f64(), 5.25);
        assert_eq!(stats.end_time, end);
        assert!(stats.events_fired >= 2);
    }

    #[test]
    fn spawn_and_join() {
        let v = run(async {
            let h1 = spawn(async {
                sleep(SimDuration::from_secs(2)).await;
                21u32
            });
            let h2 = spawn(async {
                sleep(SimDuration::from_secs(1)).await;
                21u32
            });
            h1.await + h2.await
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn join_completes_at_max_of_children() {
        let t = run(async {
            let h1 = spawn(async { sleep(SimDuration::from_secs(3)).await });
            let h2 = spawn(async { sleep(SimDuration::from_secs(7)).await });
            h1.await;
            h2.await;
            now()
        });
        assert_eq!(t.as_secs_f64(), 7.0);
    }

    #[test]
    fn a_handle_polled_repeatedly_wakes_its_owner_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct CountWakes(AtomicUsize);
        impl std::task::Wake for CountWakes {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let wakes = run(async {
            let counter = Arc::new(CountWakes(AtomicUsize::new(0)));
            let waker = Waker::from(Arc::clone(&counter));
            let mut h = spawn(async { sleep(SimDuration::from_secs(1)).await });
            for _ in 0..3 {
                let mut cx = Context::from_waker(&waker);
                assert!(Pin::new(&mut h).poll(&mut cx).is_pending());
            }
            sleep(SimDuration::from_secs(2)).await;
            assert!(h.is_finished());
            h.await;
            counter.0.load(Ordering::Relaxed)
        });
        assert_eq!(wakes, 1, "one owner, one wake");
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        run(async {
            sleep(SimDuration::ZERO).await;
            assert_eq!(now(), SimTime::ZERO);
        });
    }

    #[test]
    fn yield_now_preserves_time() {
        run(async {
            yield_now().await;
            assert_eq!(now(), SimTime::ZERO);
        });
    }

    #[test]
    fn scheduled_call_fires_and_cancel_works() {
        let fired = run(async {
            let fired = Rc::new(Cell::new(0u32));
            let f1 = Rc::clone(&fired);
            schedule_call(SimDuration::from_secs(1), move || {
                f1.set(f1.get() + 1);
            });
            let f2 = Rc::clone(&fired);
            let h = schedule_call(SimDuration::from_secs(2), move || {
                f2.set(f2.get() + 10);
            });
            h.cancel();
            sleep(SimDuration::from_secs(3)).await;
            fired.get()
        });
        assert_eq!(fired, 1);
    }

    #[test]
    fn events_fire_in_deterministic_fifo_order_at_same_time() {
        let order = run(async {
            let order = Rc::new(RefCell::new(Vec::new()));
            for i in 0..10 {
                let o = Rc::clone(&order);
                spawn(async move {
                    sleep(SimDuration::from_secs(1)).await;
                    o.borrow_mut().push(i);
                });
            }
            sleep(SimDuration::from_secs(2)).await;
            Rc::try_unwrap(order).unwrap().into_inner()
        });
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn detached_tasks_are_dropped_at_main_exit() {
        run(async {
            spawn(async {
                sleep(SimDuration::from_secs(1_000_000)).await;
                unreachable!("detached task must not outlive main");
            });
            sleep(SimDuration::from_secs(1)).await;
        });
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        run(async {
            // A future that never wakes.
            struct Never;
            impl Future for Never {
                type Output = ();
                fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
                    Poll::Pending
                }
            }
            Never.await;
        });
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn primitives_panic_outside_run() {
        let _ = now();
    }

    #[test]
    fn kill_group_removes_whole_task_tree() {
        let (killed, touched) = run(async {
            let touched = Rc::new(Cell::new(0u32));
            let gid = new_group();
            let t = Rc::clone(&touched);
            spawn_in_group(gid, async move {
                assert_eq!(current_group(), gid);
                // A child spawned inside the group inherits it.
                let t2 = Rc::clone(&t);
                spawn(async move {
                    sleep(SimDuration::from_secs(10)).await;
                    t2.set(t2.get() + 1);
                });
                sleep(SimDuration::from_secs(10)).await;
                t.set(t.get() + 1);
            });
            // An ungrouped bystander keeps running.
            let t3 = Rc::clone(&touched);
            let bystander = spawn(async move {
                sleep(SimDuration::from_secs(2)).await;
                t3.set(t3.get() + 100);
            });
            sleep(SimDuration::from_secs(1)).await;
            let killed = kill_group(gid);
            bystander.await;
            sleep(SimDuration::from_secs(20)).await;
            (killed, touched.get())
        });
        assert_eq!(killed, 2, "parent and child must both die");
        assert_eq!(touched, 100, "only the bystander may run to completion");
    }

    #[test]
    fn killed_tasks_run_their_destructors() {
        struct Canary(Rc<Cell<bool>>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let dropped = run(async {
            let dropped = Rc::new(Cell::new(false));
            let gid = new_group();
            let d = Rc::clone(&dropped);
            spawn_in_group(gid, async move {
                let _c = Canary(d);
                sleep(SimDuration::from_secs(100)).await;
            });
            sleep(SimDuration::from_secs(1)).await;
            kill_group(gid);
            dropped.get()
        });
        assert!(dropped, "drop glue of a killed task must run at kill time");
    }

    #[test]
    fn stale_wakeups_of_killed_tasks_are_ignored() {
        run(async {
            let gid = new_group();
            spawn_in_group(gid, async {
                sleep(SimDuration::from_secs(5)).await;
                unreachable!("killed task must never resume");
            });
            sleep(SimDuration::from_secs(1)).await;
            assert_eq!(kill_group(gid), 1);
            // The pending sleep event for the dead task still fires at
            // t=5; the executor must skip it without incident.
            sleep(SimDuration::from_secs(10)).await;
        });
    }

    #[test]
    fn cancelled_far_future_event_is_vacated_immediately() {
        run(async {
            let h = schedule_call(SimDuration::from_secs(1_000_000), || {
                unreachable!("cancelled event must never fire")
            });
            assert_eq!(live_counts().events, 1);
            h.cancel();
            assert_eq!(
                live_counts().events,
                0,
                "cancel must drop the event body eagerly"
            );
            h.cancel(); // idempotent
            sleep(SimDuration::from_secs(1)).await;
        });
    }

    #[test]
    fn slot_reuse_preserves_cancel_and_reschedule_ordering() {
        // A (t=10) is cancelled, so B (t=5) reuses A's slot and C
        // (t=20) extends the slab. A's stale calendar entry must be
        // skipped without disturbing B or C, in time order.
        let order = run(async {
            let order = Rc::new(RefCell::new(Vec::new()));
            let o = Rc::clone(&order);
            let a = schedule_call(SimDuration::from_secs(10), move || o.borrow_mut().push("a"));
            a.cancel();
            let o = Rc::clone(&order);
            schedule_call(SimDuration::from_secs(5), move || o.borrow_mut().push("b"));
            let o = Rc::clone(&order);
            schedule_call(SimDuration::from_secs(20), move || o.borrow_mut().push("c"));
            sleep(SimDuration::from_secs(30)).await;
            Rc::try_unwrap(order).unwrap().into_inner()
        });
        assert_eq!(order, vec!["b", "c"]);
    }

    #[test]
    fn cancel_reschedule_cycle_does_not_accumulate_bodies() {
        // The long-fault-sweep pattern: a timeout armed and re-armed
        // thousands of times. Only the live body may be retained.
        run(async {
            let mut h = schedule_call(SimDuration::from_secs(100), || {});
            for _ in 0..10_000 {
                h.cancel();
                h = schedule_call(SimDuration::from_secs(100), || {});
            }
            assert_eq!(live_counts().events, 1);
            sleep(SimDuration::from_secs(200)).await;
            assert_eq!(live_counts().events, 0);
        });
    }

    #[test]
    fn completed_tasks_leave_no_kernel_residue() {
        run(async {
            let gid = new_group();
            for _ in 0..50 {
                spawn_in_group(gid, async {
                    sleep(SimDuration::from_secs(1)).await;
                });
            }
            sleep(SimDuration::from_secs(2)).await;
            let c = live_counts();
            assert_eq!(c.tasks, 0, "all children completed");
            assert_eq!(c.wakers, 1, "only the running main task remains");
            assert_eq!(c.grouped_tasks, 0, "group entries purged on completion");
        });
    }

    #[test]
    fn cancel_outside_run_only_flags() {
        let h = run(async { schedule_call(SimDuration::from_secs(1), || {}) });
        // With no kernel to vacate, cancelling only sets the flag: it
        // must not panic, and a second cancel is a no-op.
        h.cancel();
        h.cancel();
    }

    #[test]
    fn cancel_from_a_different_simulation_is_inert() {
        // The foreign handle's (slot, seq) coordinates collide with the
        // second simulation's first event; only the kernel id check
        // keeps the cancel from vacating the wrong body.
        let h = run(async { schedule_call(SimDuration::from_secs(5), || {}) });
        let fired = run(async move {
            let fired = Rc::new(Cell::new(false));
            let f = Rc::clone(&fired);
            let _mine = schedule_call(SimDuration::from_secs(5), move || f.set(true));
            h.cancel();
            sleep(SimDuration::from_secs(10)).await;
            fired.get()
        });
        assert!(fired, "a foreign cancel must not touch this kernel");
    }

    #[test]
    fn group_ids_are_unique_and_nonzero() {
        run(async {
            let a = new_group();
            let b = new_group();
            assert_ne!(a, 0);
            assert_ne!(a, b);
            assert_eq!(current_group(), 0);
        });
    }
}
