//! Joining concurrent work: [`join_all`] over spawned tasks, and
//! [`FixedJoin`], which polls a bounded fan-out inline without
//! allocating. This module holds the one `unsafe` outside the waker and
//! the counting allocator: `FixedJoin`'s pin projection.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

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
/// a striped request's per-chunk fan-out and of a RAID request's
/// per-member fan-out, where a spawned task per piece would cost
/// several allocator calls each. Slots are polled in push order,
/// matching the ready-queue order spawned tasks would start in, and a
/// finished slot's future is dropped in place at once.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_gauge::{self, CountingAlloc};
    use crate::{now, run, sleep, spawn, SimDuration};
    use std::cell::RefCell;
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
