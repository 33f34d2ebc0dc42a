//! Joining concurrent work: [`join_all`] over spawned tasks,
//! [`FixedJoin`], which polls a bounded fan-out inline without
//! allocating, and `Spawned`, the future a spawned task's box holds.
//! This module holds the `unsafe` outside the waker and the counting
//! allocator: two pin projections, `FixedJoin`'s onto its slots and
//! `Spawned`'s onto its future, each with its `SAFETY` note.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{ready, Context, Poll};

use crate::executor::JoinState;
use crate::JoinHandle;

/// Await all join handles in a vector, returning their outputs in order.
///
/// The await order is sequential but, because tasks run concurrently in
/// virtual time, the completion instant is the max over all handles.
pub async fn join_all<T: 'static>(handles: Vec<JoinHandle<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

/// Join up to `N` same-typed futures without allocating — the shape of
/// a striped request's per-chunk fan-out, of a RAID request's
/// per-member fan-out and of a fabric transfer's three streams, where a spawned task per piece would cost
/// several allocator calls each. Slots are polled in push order,
/// matching the ready-queue order spawned tasks would start in, and a
/// finished slot's future is dropped in place at once.
///
/// Build it, then await it by value (`join.await`, the local moved
/// into the await). Never keep a pinned copy beside the local, as
/// `std::pin::pin!(join).await` does: the enclosing future then holds
/// the join twice, the moved-from local and the pinned one, and a join
/// is `N` futures wide.
pub struct FixedJoin<F: Future, const N: usize> {
    slots: [Option<F>; N],
    results: [Option<F::Output>; N],
    len: usize,
}

impl<F: Future, const N: usize> FixedJoin<F, N> {
    /// An empty join.
    pub fn new() -> Self {
        FixedJoin {
            slots: std::array::from_fn(|_| None),
            results: std::array::from_fn(|_| None),
            len: 0,
        }
    }

    /// Add `f` to the join. Panics past `N` futures.
    pub fn push(&mut self, f: F) {
        self.slots[self.len] = Some(f);
        self.len += 1;
    }
}

impl<F: Future, const N: usize> Default for FixedJoin<F, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: Future, const N: usize> Future for FixedJoin<F, N> {
    /// Each pushed future's output in its push slot; unused slots are
    /// `None`.
    type Output = [Option<F::Output>; N];

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: `slots` is structurally pinned. Nothing here moves a
        // future out of its slot: a slot is only polled through a pin
        // of its place, and a finished one is dropped in that place by
        // the `None` assignment. `push` takes `&mut self`, so it cannot
        // reach a pinned join, and the type implements neither `Drop`
        // nor `Unpin` by hand. `results` and `len` are never pinned.
        let this = unsafe { self.get_unchecked_mut() };
        let mut pending = false;
        for i in 0..this.len {
            if let Some(f) = &mut this.slots[i] {
                // SAFETY: see above; `f` stays in its slot until dropped.
                match unsafe { Pin::new_unchecked(f) }.poll(cx) {
                    Poll::Ready(v) => {
                        this.results[i] = Some(v);
                        this.slots[i] = None;
                    }
                    Poll::Pending => pending = true,
                }
            }
        }
        if pending {
            Poll::Pending
        } else {
            Poll::Ready(std::mem::replace(
                &mut this.results,
                std::array::from_fn(|_| None),
            ))
        }
    }
}

/// What a spawned task's box holds: the task's future, once, and its
/// join state. When the future is ready it is dropped in place first;
/// only then is its output stored, the joiner woken and the join state
/// released. A hand-written future, because an
/// `async move { let out = fut.await; … }` block would keep `fut` twice,
/// as a captured upvar and as the awaitee, doubling every task's box.
pub(crate) struct Spawned<F: Future> {
    fut: Option<F>,
    /// `None` once the output has been handed over: the last reference
    /// to the state (a detached task's) is dropped inside the task's
    /// own poll, where the output's destructor may reach the kernel,
    /// not when the kernel frees the finished box.
    state: Option<Rc<RefCell<JoinState<F::Output>>>>,
}

impl<F: Future> Spawned<F> {
    pub(crate) fn new(fut: F, state: Rc<RefCell<JoinState<F::Output>>>) -> Self {
        Spawned {
            fut: Some(fut),
            state: Some(state),
        }
    }
}

impl<F: Future> Future for Spawned<F> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: `fut` is structurally pinned. Nothing here moves the
        // future out: it is only polled through a pin of its place, and
        // once ready it is dropped in that place by the `None`
        // assignment. The type implements neither `Drop` nor `Unpin` by
        // hand. `state` is never pinned.
        let this = unsafe { self.get_unchecked_mut() };
        let fut = this
            .fut
            .as_mut()
            .expect("a spawned task polled after completion");
        // SAFETY: see above; `fut` stays in its place until dropped.
        let out = ready!(unsafe { Pin::new_unchecked(fut) }.poll(cx));
        this.fut = None;
        if let Some(state) = this.state.take() {
            state.borrow_mut().finish(out);
        }
        Poll::Ready(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_gauge::{self, CountingAlloc};
    use crate::{now, run, sleep, spawn, SimDuration};
    use std::task::Waker;

    #[global_allocator]
    static A: CountingAlloc = CountingAlloc;

    #[test]
    fn join_all_waits_for_slowest() {
        let (vals, end) = run(async {
            let hs = (0..5u64)
                .map(|i| {
                    spawn(async move {
                        sleep(SimDuration::from_secs(i)).await;
                        i * 10
                    })
                })
                .collect();
            let vals = join_all(hs).await;
            (vals, now().as_secs_f64())
        });
        assert_eq!(vals, vec![0, 10, 20, 30, 40]);
        assert_eq!(end, 4.0);
    }

    /// Pending `polls_left` times, then ready with `id`; every poll and
    /// the drop are logged.
    struct Probe<'a> {
        id: u32,
        polls_left: u32,
        log: &'a RefCell<Vec<(u32, &'static str)>>,
    }

    impl Future for Probe<'_> {
        type Output = u32;

        fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<u32> {
            self.log.borrow_mut().push((self.id, "poll"));
            if self.polls_left == 0 {
                return Poll::Ready(self.id);
            }
            self.polls_left -= 1;
            Poll::Pending
        }
    }

    impl Drop for Probe<'_> {
        fn drop(&mut self) {
            self.log.borrow_mut().push((self.id, "drop"));
        }
    }

    fn poll_once<F: Future>(f: Pin<&mut F>) -> Poll<F::Output> {
        f.poll(&mut Context::from_waker(Waker::noop()))
    }

    #[test]
    fn fixed_join_polls_in_push_order_and_drops_finished_slots_in_place() {
        let log = RefCell::new(Vec::with_capacity(64));
        let mut join: FixedJoin<Probe, 4> = FixedJoin::new();
        for (id, polls_left) in [(0, 1), (1, 0), (2, 2)] {
            join.push(Probe {
                id,
                polls_left,
                log: &log,
            });
        }
        let mut join = std::pin::pin!(join);
        assert!(poll_once(join.as_mut()).is_pending());
        // Slot 1 finished on the first pass and was dropped right
        // there, before slot 2 was polled.
        let first: Vec<_> = log.borrow_mut().drain(..).collect();
        assert_eq!(first, [(0, "poll"), (1, "poll"), (1, "drop"), (2, "poll")]);
        assert!(poll_once(join.as_mut()).is_pending());
        let second: Vec<_> = log.borrow_mut().drain(..).collect();
        assert_eq!(second, [(0, "poll"), (0, "drop"), (2, "poll")]);
        let Poll::Ready(out) = poll_once(join.as_mut()) else {
            panic!("every slot is done");
        };
        assert_eq!(out, [Some(0), Some(1), Some(2), None]);
        assert_eq!(log.borrow().as_slice(), [(2, "poll"), (2, "drop")]);
    }

    /// A future holding 4 KiB across an await.
    async fn holds_4_kib() -> u8 {
        let buf = [7u8; 4096];
        sleep(SimDuration::from_secs(1)).await;
        std::hint::black_box(&buf)[4095]
    }

    fn spawned_size<F: Future>(_: &F) -> usize {
        std::mem::size_of::<Spawned<F>>()
    }

    #[test]
    fn a_spawned_task_holds_its_future_once() {
        let fut = holds_4_kib();
        let (inner, boxed) = (std::mem::size_of_val(&fut), spawned_size(&fut));
        eprintln!("future size: Spawned<F> {boxed} B for an F of {inner} B");
        assert!(inner >= 4096, "the array is held across the await");
        assert!(
            boxed <= inner + 16,
            "a spawned task's box ({boxed} B) must not hold its future ({inner} B) twice"
        );
        assert_eq!(run(async { spawn(fut).await }), 7);
    }

    #[test]
    fn fixed_join_makes_no_allocator_calls() {
        let log = RefCell::new(Vec::with_capacity(64));
        let (calls, out) = alloc_gauge::count(|| {
            let mut join: FixedJoin<Probe, 8> = FixedJoin::new();
            for id in 0..8 {
                join.push(Probe {
                    id,
                    polls_left: id % 3,
                    log: &log,
                });
            }
            let mut join = std::pin::pin!(join);
            loop {
                if let Poll::Ready(out) = poll_once(join.as_mut()) {
                    break out;
                }
            }
        });
        assert_eq!(out, std::array::from_fn(|i| Some(i as u32)));
        assert_eq!(calls, 0, "a fixed join must not allocate");
        let (boxed, _) = alloc_gauge::count(|| std::hint::black_box(Box::new(7u64)));
        assert_eq!(boxed, 1, "the gauge counts on this thread");
    }
}
