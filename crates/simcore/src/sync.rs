//! Synchronisation primitives for simulated tasks.
//!
//! All primitives are single-threaded (the simulation runs on one OS
//! thread) but coordinate *tasks*: waiting parks the task and lets virtual
//! time advance.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// A one-shot, multi-waiter event flag ("manual reset event").
///
/// Tasks `wait()` until some other task calls `set()`. Once set it stays
/// set; later waits resolve immediately. Cloning shares the flag.
#[derive(Clone, Default)]
pub struct Flag {
    inner: Rc<RefCell<FlagState>>,
}

#[derive(Default)]
struct FlagState {
    set: bool,
    waiters: Vec<Waker>,
}

impl Flag {
    /// Create a new, unset flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the flag, waking all current waiters. Idempotent.
    pub fn set(&self) {
        let mut st = self.inner.borrow_mut();
        if !st.set {
            st.set = true;
            for w in st.waiters.drain(..) {
                w.wake();
            }
        }
    }

    /// True if the flag has been set.
    pub fn is_set(&self) -> bool {
        self.inner.borrow().set
    }

    /// Wait until the flag is set.
    pub fn wait(&self) -> FlagWait {
        FlagWait { flag: self.clone() }
    }
}

/// Future returned by [`Flag::wait`].
pub struct FlagWait {
    flag: Flag,
}

impl Future for FlagWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut st = self.flag.inner.borrow_mut();
        if st.set {
            Poll::Ready(())
        } else {
            st.waiters.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// A counting semaphore with FIFO-fair acquisition.
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<RefCell<SemState>>,
}

struct SemState {
    permits: usize,
    waiters: VecDeque<SemWaiter>,
    /// Recycled grant flags: a contended acquire needs an
    /// `Rc<Cell<bool>>` shared with its queue entry; reusing retired
    /// ones keeps steady-state contention allocation-free.
    spare: Vec<Rc<Cell<bool>>>,
}

struct SemWaiter {
    want: usize,
    granted: Rc<Cell<bool>>,
    waker: Waker,
}

impl Semaphore {
    /// Create a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            inner: Rc::new(RefCell::new(SemState {
                permits,
                waiters: VecDeque::new(),
                spare: Vec::new(),
            })),
        }
    }

    /// Acquire `n` permits, waiting FIFO-fairly. The returned guard
    /// releases the permits on drop.
    pub async fn acquire_many(&self, n: usize) -> SemaphoreGuard {
        let wait = {
            let mut st = self.inner.borrow_mut();
            if st.waiters.is_empty() && st.permits >= n {
                st.permits -= n;
                None
            } else {
                let g = st.spare.pop().unwrap_or_else(|| Rc::new(Cell::new(false)));
                g.set(false);
                Some(g)
            }
        };
        if let Some(granted) = wait {
            AcquireWait {
                sem: self.inner.clone(),
                want: n,
                granted,
                registered: false,
                finished: false,
            }
            .await;
        }
        SemaphoreGuard {
            sem: self.inner.clone(),
            held: n,
        }
    }

    /// Acquire a single permit.
    pub async fn acquire(&self) -> SemaphoreGuard {
        self.acquire_many(1).await
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        self.inner.borrow().permits
    }

    /// Number of tasks currently queued.
    pub fn queue_len(&self) -> usize {
        self.inner.borrow().waiters.len()
    }
}

impl SemState {
    /// Hand permits to queued waiters, strictly in FIFO order.
    fn drain(&mut self) {
        while let Some(front) = self.waiters.front() {
            if self.permits >= front.want {
                let w = self.waiters.pop_front().unwrap();
                self.permits -= w.want;
                w.granted.set(true);
                w.waker.wake();
            } else {
                break;
            }
        }
    }
}

struct AcquireWait {
    sem: Rc<RefCell<SemState>>,
    want: usize,
    granted: Rc<Cell<bool>>,
    registered: bool,
    finished: bool,
}

impl Future for AcquireWait {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.granted.get() {
            self.finished = true;
            return Poll::Ready(());
        }
        if !self.registered {
            self.registered = true;
            {
                let mut st = self.sem.borrow_mut();
                st.waiters.push_back(SemWaiter {
                    want: self.want,
                    granted: Rc::clone(&self.granted),
                    waker: cx.waker().clone(),
                });
                // We may be at the head with permits already free.
                st.drain();
            }
            if self.granted.get() {
                self.finished = true;
                return Poll::Ready(());
            }
        }
        Poll::Pending
    }
}

impl Drop for AcquireWait {
    /// Cancel safety: a waiter whose task dies (e.g. its crash group is
    /// killed) must neither leak a queue slot nor swallow permits that
    /// were already handed to it but never observed.
    fn drop(&mut self) {
        if self.finished {
            // Retired cleanly: the queue entry's clone is gone, so the
            // flag can be recycled for the next contended acquire.
            if Rc::strong_count(&self.granted) == 1 {
                self.sem.borrow_mut().spare.push(Rc::clone(&self.granted));
            }
            return;
        }
        let mut st = self.sem.borrow_mut();
        if self.granted.get() {
            // Granted between our last poll and the drop: hand back.
            st.permits += self.want;
        } else if let Some(i) = st
            .waiters
            .iter()
            .position(|w| Rc::ptr_eq(&w.granted, &self.granted))
        {
            st.waiters.remove(i);
        } else {
            return;
        }
        // Our departure may unblock smaller requests behind us.
        st.drain();
    }
}

/// Guard holding semaphore permits; releases on drop.
pub struct SemaphoreGuard {
    sem: Rc<RefCell<SemState>>,
    held: usize,
}

impl Drop for SemaphoreGuard {
    fn drop(&mut self) {
        let mut st = self.sem.borrow_mut();
        st.permits += self.held;
        st.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{now, run, sleep, spawn};
    use crate::time::SimDuration;

    #[test]
    fn flag_wakes_all_waiters() {
        let times = run(async {
            let flag = Flag::new();
            let mut handles = Vec::new();
            for _ in 0..3 {
                let f = flag.clone();
                handles.push(spawn(async move {
                    f.wait().await;
                    now().as_secs_f64()
                }));
            }
            spawn({
                let f = flag.clone();
                async move {
                    sleep(SimDuration::from_secs(4)).await;
                    f.set();
                }
            });
            let mut out = Vec::new();
            for h in handles {
                out.push(h.await);
            }
            assert!(flag.is_set());
            out
        });
        assert_eq!(times, vec![4.0, 4.0, 4.0]);
    }

    #[test]
    fn flag_set_before_wait_resolves_immediately() {
        run(async {
            let flag = Flag::new();
            flag.set();
            flag.set(); // idempotent
            flag.wait().await;
            assert_eq!(now().as_secs_f64(), 0.0);
        });
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let max_seen = run(async {
            let sem = Semaphore::new(2);
            let active = Rc::new(Cell::new(0usize));
            let max_seen = Rc::new(Cell::new(0usize));
            let mut hs = Vec::new();
            for _ in 0..6 {
                let sem = sem.clone();
                let active = Rc::clone(&active);
                let max_seen = Rc::clone(&max_seen);
                hs.push(spawn(async move {
                    let _g = sem.acquire().await;
                    active.set(active.get() + 1);
                    max_seen.set(max_seen.get().max(active.get()));
                    sleep(SimDuration::from_secs(1)).await;
                    active.set(active.get() - 1);
                }));
            }
            for h in hs {
                h.await;
            }
            assert_eq!(now().as_secs_f64(), 3.0); // 6 jobs, 2 at a time, 1s each
            max_seen.get()
        });
        assert_eq!(max_seen, 2);
    }

    #[test]
    fn semaphore_fifo_order_with_acquire_many() {
        let order = run(async {
            let sem = Semaphore::new(3);
            let order = Rc::new(RefCell::new(Vec::new()));
            let g = sem.acquire_many(3).await;
            let mut hs = Vec::new();
            // First waiter wants 2, second wants 1: FIFO means the
            // 1-permit waiter must NOT jump ahead when only 1 is free.
            for (i, want) in [(0, 2usize), (1, 1usize)] {
                let sem = sem.clone();
                let order = Rc::clone(&order);
                hs.push(spawn(async move {
                    let _g = sem.acquire_many(want).await;
                    order.borrow_mut().push(i);
                    sleep(SimDuration::from_secs(1)).await;
                }));
            }
            sleep(SimDuration::from_secs(1)).await;
            drop(g);
            for h in hs {
                h.await;
            }
            Rc::try_unwrap(order).unwrap().into_inner()
        });
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn killed_semaphore_waiter_leaks_nothing() {
        run(async {
            let sem = Semaphore::new(1);
            let holder = sem.acquire().await;
            // A queued waiter in a crash group dies while parked.
            let gid = crate::executor::new_group();
            let s = sem.clone();
            crate::executor::spawn_in_group(gid, async move {
                let _g = s.acquire().await;
                unreachable!("waiter must be killed before acquiring");
            });
            sleep(SimDuration::from_secs(1)).await;
            assert_eq!(sem.queue_len(), 1);
            crate::executor::kill_group(gid);
            assert_eq!(sem.queue_len(), 0, "dead waiter must leave the queue");
            drop(holder);
            // The permit must still be acquirable afterwards.
            let _g = sem.acquire().await;
            assert_eq!(sem.available(), 0);
        });
    }

    #[test]
    fn killed_permit_holder_releases_on_drop() {
        run(async {
            let sem = Semaphore::new(1);
            let gid = crate::executor::new_group();
            let s = sem.clone();
            crate::executor::spawn_in_group(gid, async move {
                let _g = s.acquire().await;
                sleep(SimDuration::from_secs(100)).await;
            });
            sleep(SimDuration::from_secs(1)).await;
            assert_eq!(sem.available(), 0);
            crate::executor::kill_group(gid);
            assert_eq!(sem.available(), 1, "guard drop must return the permit");
        });
    }

    #[test]
    fn dead_waiter_departure_unblocks_smaller_requests() {
        run(async {
            let sem = Semaphore::new(2);
            let holder = sem.acquire_many(2).await;
            let gid = crate::executor::new_group();
            let s = sem.clone();
            // Head of queue wants 2; a later task wants 1.
            crate::executor::spawn_in_group(gid, async move {
                let _g = s.acquire_many(2).await;
                unreachable!();
            });
            sleep(SimDuration::from_secs(1)).await;
            let s2 = sem.clone();
            let small = spawn(async move {
                let _g = s2.acquire().await;
                now().as_secs_f64()
            });
            sleep(SimDuration::from_secs(1)).await;
            drop(holder); // 2 free, but FIFO head still wants 2... then dies:
            crate::executor::kill_group(gid);
            let t = small.await;
            assert_eq!(t, 2.0, "small request must be granted when head dies");
        });
    }
}
