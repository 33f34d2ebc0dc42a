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

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use crate::time::{SimDuration, SimTime};
use crate::trace::{self, Event, EventKind, Layer};

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
    /// 24-byte heap entry instead of retaining its closure for the
    /// rest of the run.
    pub fn cancel(&self) {
        if !self.cancelled.replace(true) {
            vacate_event(self.kernel, self.seq, self.slot);
        }
    }

    /// True if [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.get()
    }
}

struct TaskWaker {
    id: TaskId,
    ready: Arc<Mutex<VecDeque<TaskId>>>,
    queued: AtomicBool,
    /// Shared run-wide tally of redundant wakes (wake on an
    /// already-queued task): the waker is the only place that can see
    /// the coalescing happen.
    coalesced: Arc<AtomicU64>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.queued.swap(true, Ordering::Relaxed) {
            self.ready.lock().unwrap().push_back(self.id);
        } else {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A spawned task's kernel-side state. Tasks live in a slab indexed by
/// the low 32 bits of their [`TaskId`]; the high 32 bits carry the
/// slot's generation so stale ready-queue entries and wakers of
/// completed tasks are detected by a mismatch instead of a hash lookup.
struct TaskSlot {
    generation: u32,
    /// The parked future. `None` while the task is being polled (the
    /// run loop takes it out) — and permanently for a slot being freed.
    fut: Option<LocalFuture>,
    waker: Arc<TaskWaker>,
    /// Crash group (0 = ungrouped pool, which can never be killed).
    group: u64,
}

fn task_id(slot: u32, generation: u32) -> TaskId {
    ((generation as u64) << 32) | slot as u64
}

fn task_slot(id: TaskId) -> (u32, u32) {
    (id as u32, (id >> 32) as u32)
}

pub(crate) struct Kernel {
    id: u64,
    now: SimTime,
    seq: u64,
    /// The calendar: `(time, seq, slot)` min-entries. `(time, seq)` is
    /// the deterministic total order (identical to the pre-slab
    /// executor); `slot` indexes the event body in `slots`.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Slab of event bodies; `free_slots` recycles vacancies so the
    /// slab's length is bounded by the peak number of *live* events,
    /// not by the number ever scheduled.
    slots: Vec<Option<ScheduledEvent>>,
    free_slots: Vec<u32>,
    live_events: usize,
    /// Task slab + free list (see [`TaskSlot`]).
    tasks: Vec<Option<TaskSlot>>,
    free_tasks: Vec<u32>,
    ready: Arc<Mutex<VecDeque<TaskId>>>,
    events_fired: u64,
    events_batched: u64,
    heap_peak: usize,
    wakes_coalesced: Arc<AtomicU64>,
    tasks_spawned: u64,
    /// Group of the task currently being polled; new spawns inherit it.
    current_group: u64,
    next_group: u64,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            id: KERNEL_IDS.fetch_add(1, Ordering::Relaxed),
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            live_events: 0,
            tasks: Vec::new(),
            free_tasks: Vec::new(),
            ready: Arc::new(Mutex::new(VecDeque::new())),
            events_fired: 0,
            events_batched: 0,
            heap_peak: 0,
            wakes_coalesced: Arc::new(AtomicU64::new(0)),
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
        debug_assert!(at >= self.now, "event scheduled in the past");
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event slab overflow");
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[slot as usize] = Some(ScheduledEvent {
            seq,
            action,
            cancelled,
        });
        self.live_events += 1;
        self.heap.push(Reverse((at, seq, slot)));
        if self.heap.len() > self.heap_peak {
            self.heap_peak = self.heap.len();
        }
        (seq, slot)
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
        self.heap.retain(|&Reverse((_, seq, slot))| {
            slots
                .get(slot as usize)
                .and_then(|s| s.as_ref())
                .is_some_and(|ev| ev.seq == seq)
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
        // occupant of this slot may have left in the ready queue; the
        // strictly-increasing spawn counter guarantees that.
        let generation = (self.tasks_spawned - 1) as u32;
        let id = task_id(slot, generation);
        let waker = Arc::new(TaskWaker {
            id,
            ready: Arc::clone(&self.ready),
            queued: AtomicBool::new(true),
            coalesced: Arc::clone(&self.wakes_coalesced),
        });
        self.tasks[slot as usize] = Some(TaskSlot {
            generation,
            fut: Some(fut),
            waker,
            group: self.current_group,
        });
        self.ready.lock().unwrap().push_back(id);
        id
    }

    /// The slot's occupant, if `id`'s generation still matches.
    fn task_mut(&mut self, id: TaskId) -> Option<&mut TaskSlot> {
        let (slot, generation) = task_slot(id);
        self.tasks
            .get_mut(slot as usize)?
            .as_mut()
            .filter(|t| t.generation == generation)
    }

    /// Schedule a [`FairShare`](crate::resource::FairShare) completion
    /// timer, returning `(kernel id, seq, slot)` for the owner's
    /// staleness bookkeeping.
    pub(crate) fn schedule_fs_timer(
        &mut self,
        at: SimTime,
        fs: Rc<RefCell<crate::resource::FsState>>,
    ) -> (u64, u64, u32) {
        let (seq, slot) = self.schedule(at, EventAction::FsTimer(fs), None);
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
    static CTX: RefCell<Option<Rc<RefCell<Kernel>>>> = const { RefCell::new(None) };
}

pub(crate) fn with_kernel<R>(f: impl FnOnce(&mut Kernel) -> R) -> R {
    CTX.with(|ctx| {
        let guard = ctx.borrow();
        let rc = guard
            .as_ref()
            .expect("simcore primitive used outside of simcore::run()");
        let mut k = rc.borrow_mut();
        f(&mut k)
    })
}

/// Vacate calendar entry `(seq, slot)` if the ambient kernel is the one
/// that scheduled it, dropping the event body now. Inert outside
/// [`run`], inside another simulation (whose indices may collide) and
/// once the entry has fired. Shared by [`EventHandle::cancel`],
/// fair-share timer re-arming and [`Sleep`]'s drop: it must not panic.
pub(crate) fn vacate_event(kernel: u64, seq: u64, slot: u32) {
    // Take the body out under the kernel borrow, drop it after:
    // captured values may re-enter the kernel from their own Drop.
    let body = CTX.with(|ctx| {
        let guard = ctx.borrow();
        let mut k = guard.as_ref()?.try_borrow_mut().ok()?;
        if k.id != kernel {
            return None;
        }
        k.free_event(slot, seq)
    });
    drop(body);
}

/// Current simulated time. Panics outside of [`run`].
pub fn now() -> SimTime {
    with_kernel(|k| k.now)
}

/// Current simulated time, or `None` outside of [`run`] (for drop
/// implementations that must not panic during unwinding).
pub fn try_now() -> Option<SimTime> {
    CTX.with(|ctx| ctx.borrow().as_ref().map(|rc| rc.borrow().now))
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

struct JoinState<T> {
    result: Option<T>,
    waiters: Vec<Waker>,
    finished: bool,
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
            st.waiters.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Spawn a new simulated task. The task starts at the current virtual time.
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    let state = Rc::new(RefCell::new(JoinState {
        result: None,
        waiters: Vec::new(),
        finished: false,
    }));
    let st2 = Rc::clone(&state);
    let wrapped = Box::pin(async move {
        let out = fut.await;
        let mut st = st2.borrow_mut();
        st.result = Some(out);
        st.finished = true;
        for w in st.waiters.drain(..) {
            w.wake();
        }
    });
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
    let kernel = Rc::new(RefCell::new(Kernel::new()));
    CTX.with(|ctx| {
        let mut guard = ctx.borrow_mut();
        assert!(
            guard.is_none(),
            "nested simcore::run() on the same thread is not supported"
        );
        *guard = Some(Rc::clone(&kernel));
    });
    // Make sure the TLS slot is cleared even if the simulation panics.
    struct CtxGuard;
    impl Drop for CtxGuard {
        fn drop(&mut self) {
            CTX.with(|ctx| ctx.borrow_mut().take());
        }
    }
    let _guard = CtxGuard;

    let main_handle = spawn(main);
    let ready = kernel.borrow().ready.clone();

    // Reusable dispatch buffers: `batch` holds the bodies of every
    // event sharing the current instant (in reverse seq order, so
    // `pop()` yields FIFO); `skipped` holds cancelled-but-unvacated
    // bodies until they can be dropped outside the kernel borrow.
    let mut batch: Vec<ScheduledEvent> = Vec::new();
    let mut skipped: Vec<ScheduledEvent> = Vec::new();

    loop {
        // Drain all tasks runnable at the current instant.
        loop {
            let tid = ready.lock().unwrap().pop_front();
            let Some(tid) = tid else { break };
            let (fut, waker) = {
                let mut k = kernel.borrow_mut();
                let Some(t) = k.task_mut(tid) else {
                    continue; // task already completed or killed
                };
                let Some(fut) = t.fut.take() else {
                    continue; // stale duplicate entry
                };
                let w = Arc::clone(&t.waker);
                let group = t.group;
                w.queued.store(false, Ordering::Relaxed);
                k.current_group = group;
                (fut, w)
            };
            let mut fut = fut;
            let waker_obj: Waker = waker.into();
            let mut cx = Context::from_waker(&waker_obj);
            trace::emit(|| {
                Event::new(Layer::Executor, "task.wake", EventKind::Point).field("task", tid)
            });
            trace::counter("executor.polls", 1);
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(()) => {
                    trace::emit(|| {
                        Event::new(Layer::Executor, "task.finish", EventKind::Point)
                            .field("task", tid)
                    });
                    let mut k = kernel.borrow_mut();
                    k.free_task(tid);
                    k.current_group = 0;
                }
                Poll::Pending => {
                    trace::emit(|| {
                        Event::new(Layer::Executor, "task.block", EventKind::Point)
                            .field("task", tid)
                    });
                    let mut k = kernel.borrow_mut();
                    // The poll may itself have been the killer of its own
                    // group: only re-park the task if it wasn't killed.
                    if let Some(t) = k.task_mut(tid) {
                        t.fut = Some(fut);
                    }
                    k.current_group = 0;
                }
            }
        }

        if main_handle.is_finished() {
            break;
        }

        // Deliver the next batched event, if the current instant still
        // has undelivered ones. Every event is re-checked against its
        // cancel flag at fire time: a task woken earlier in the batch
        // may have cancelled an event whose body is already buffered.
        if let Some(ev) = batch.pop() {
            if ev.cancelled.as_ref().is_some_and(|c| c.get()) {
                drop(ev);
                continue;
            }
            match ev.action {
                EventAction::Wake(w) => {
                    kernel.borrow_mut().events_fired += 1;
                    w.wake();
                }
                EventAction::Call(f) => {
                    kernel.borrow_mut().events_fired += 1;
                    f();
                }
                // A superseded fair-share timer (stale seq) must not
                // count as fired: the unbatched executor would have
                // found its slot vacated and skipped it silently.
                EventAction::FsTimer(fs) => {
                    if crate::resource::fs_timer_fired(fs, ev.seq) {
                        kernel.borrow_mut().events_fired += 1;
                    }
                }
            }
            continue;
        }

        // Refill: advance virtual time to the next live event and drain
        // every event sharing that instant into the dispatch buffer in
        // one heap pass, skipping stale calendar entries (events
        // cancelled since they were pushed). Skipped bodies are dropped
        // outside the kernel borrow: their captures' destructors may
        // re-enter the kernel.
        {
            let mut k = kernel.borrow_mut();
            k.purge_stale_heap_entries();
            let mut batch_time: Option<SimTime> = None;
            while let Some(&Reverse((t, seq, slot))) = k.heap.peek() {
                if batch_time.is_some_and(|bt| t != bt) {
                    break;
                }
                k.heap.pop();
                let Some(ev) = k.free_event(slot, seq) else {
                    continue; // cancelled and already vacated
                };
                if ev.cancelled.as_ref().is_some_and(|c| c.get()) {
                    // Flagged but not vacated (cancel happened outside
                    // this kernel's ambient context).
                    skipped.push(ev);
                    continue;
                }
                if batch_time.is_none() {
                    batch_time = Some(t);
                    k.now = t;
                }
                batch.push(ev);
            }
            if batch.len() >= 2 {
                k.events_batched += batch.len() as u64;
            }
            // `pop()` must yield ascending seq order.
            batch.reverse();
        }
        skipped.clear();

        if batch.is_empty() {
            let k = kernel.borrow();
            let blocked = k.tasks.iter().flatten().filter(|t| t.fut.is_some()).count();
            panic!(
                "simulation deadlock at {}: main task incomplete, \
                 {blocked} task(s) blocked, no pending events",
                k.now
            );
        }
    }

    let stats = {
        let k = kernel.borrow();
        RunStats {
            end_time: k.now,
            events_fired: k.events_fired,
            tasks_spawned: k.tasks_spawned,
            events_batched: k.events_batched,
            heap_peak: k.heap_peak as u64,
            wakes_coalesced: k.wakes_coalesced.load(Ordering::Relaxed),
        }
    };
    // Mirror the run's calendar statistics into the ambient metrics
    // registry (no-ops without an installed trace sink), so trace
    // consumers see the executor counters next to the I/O ones.
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
        h.cancel();
        assert!(h.is_cancelled());
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
