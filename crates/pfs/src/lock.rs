//! Byte-range lock manager.
//!
//! Models the extent-based file locking of parallel file systems
//! (Lustre's DLM, BeeGFS's range locks): writers take exclusive locks on
//! byte ranges, readers shared locks. Grants are FIFO-fair — a request
//! never overtakes an earlier conflicting one — so two aggregators whose
//! file domains share a stripe serialise exactly as on the real system.
//!
//! ROMIO's `ADIOI_WRITE_LOCK` / `ADIOI_READ_LOCK` / `ADIOI_UNLOCK`
//! macros map onto [`RangeLock::lock`] and dropping the returned guard.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use e10_simcore::Flag;

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) — compatible with other shared locks.
    Shared,
    /// Exclusive (write) — compatible with nothing.
    Exclusive,
}

#[derive(Clone)]
struct Held {
    id: u64,
    range: Range<u64>,
    mode: LockMode,
}

struct Waiter {
    id: u64,
    range: Range<u64>,
    mode: LockMode,
    granted: Flag,
}

struct LockState {
    held: Vec<Held>,
    queue: Vec<Waiter>,
    next_id: u64,
    grants: u64,
    contended_grants: u64,
}

/// A byte-range lock table for one file.
#[derive(Clone)]
pub struct RangeLock {
    inner: Rc<RefCell<LockState>>,
}

/// Guard for a held range lock; releases on drop.
pub struct RangeLockGuard {
    inner: Rc<RefCell<LockState>>,
    id: u64,
}

fn overlaps(a: &Range<u64>, b: &Range<u64>) -> bool {
    a.start < b.end && b.start < a.end
}

fn conflicts(am: LockMode, bm: LockMode) -> bool {
    am == LockMode::Exclusive || bm == LockMode::Exclusive
}

impl Default for RangeLock {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeLock {
    /// New, empty lock table.
    pub fn new() -> Self {
        RangeLock {
            inner: Rc::new(RefCell::new(LockState {
                held: Vec::new(),
                queue: Vec::new(),
                next_id: 0,
                grants: 0,
                contended_grants: 0,
            })),
        }
    }

    /// Acquire a lock on `range` in `mode`; waits FIFO-fairly behind
    /// conflicting holders and earlier conflicting waiters.
    pub async fn lock(&self, range: Range<u64>, mode: LockMode) -> RangeLockGuard {
        assert!(range.start < range.end, "empty lock range");
        {
            // Uncontended fast path: the queue only ever holds blocked
            // waiters (try_grant drains grantable ones eagerly), so a
            // request conflicting with neither holders nor the queue is
            // exactly what try_grant would grant on the spot — take the
            // lock without allocating a wait flag. A set flag resolves
            // `wait()` without yielding, so skipping it is invisible to
            // event ordering.
            let mut st = self.inner.borrow_mut();
            let free = !st
                .held
                .iter()
                .any(|h| overlaps(&h.range, &range) && conflicts(h.mode, mode))
                && !st
                    .queue
                    .iter()
                    .any(|w| overlaps(&w.range, &range) && conflicts(w.mode, mode));
            if free {
                let id = st.next_id;
                st.next_id += 1;
                st.grants += 1;
                st.held.push(Held { id, range, mode });
                return RangeLockGuard {
                    inner: Rc::clone(&self.inner),
                    id,
                };
            }
        }
        let (id, flag, contended) = {
            let mut st = self.inner.borrow_mut();
            let id = st.next_id;
            st.next_id += 1;
            let flag = Flag::new();
            let w = Waiter {
                id,
                range: range.clone(),
                mode,
                granted: flag.clone(),
            };
            st.queue.push(w);
            let before = st.grants;
            st.try_grant();
            let contended = !flag.is_set();
            let _ = before;
            (id, flag, contended)
        };
        flag.wait().await;
        if contended {
            self.inner.borrow_mut().contended_grants += 1;
        }
        RangeLockGuard {
            inner: Rc::clone(&self.inner),
            id,
        }
    }

    /// Try to acquire without waiting.
    pub fn try_lock(&self, range: Range<u64>, mode: LockMode) -> Option<RangeLockGuard> {
        let mut st = self.inner.borrow_mut();
        let blocked = st
            .held
            .iter()
            .any(|h| overlaps(&h.range, &range) && conflicts(h.mode, mode))
            || st
                .queue
                .iter()
                .any(|w| overlaps(&w.range, &range) && conflicts(w.mode, mode));
        if blocked {
            return None;
        }
        let id = st.next_id;
        st.next_id += 1;
        st.grants += 1;
        st.held.push(Held { id, range, mode });
        Some(RangeLockGuard {
            inner: Rc::clone(&self.inner),
            id,
        })
    }

    /// Total grants, and how many of them had to wait (a direct measure
    /// of stripe-lock contention).
    pub fn contention_stats(&self) -> (u64, u64) {
        let st = self.inner.borrow();
        (st.grants, st.contended_grants)
    }
}

impl LockState {
    /// Grant queued requests in FIFO order; stop scanning past a waiter
    /// only if later waiters don't conflict with it (no overtaking of
    /// conflicting requests — prevents writer starvation).
    fn try_grant(&mut self) {
        let mut blocked: Vec<(Range<u64>, LockMode)> = Vec::new();
        let mut i = 0;
        while i < self.queue.len() {
            let w = &self.queue[i];
            let conflict_held = self
                .held
                .iter()
                .any(|h| overlaps(&h.range, &w.range) && conflicts(h.mode, w.mode));
            let conflict_earlier = blocked
                .iter()
                .any(|(r, m)| overlaps(r, &w.range) && conflicts(*m, w.mode));
            if conflict_held || conflict_earlier {
                blocked.push((w.range.clone(), w.mode));
                i += 1;
            } else {
                let w = self.queue.remove(i);
                self.grants += 1;
                self.held.push(Held {
                    id: w.id,
                    range: w.range,
                    mode: w.mode,
                });
                w.granted.set();
            }
        }
    }
}

impl Drop for RangeLockGuard {
    fn drop(&mut self) {
        let mut st = self.inner.borrow_mut();
        st.held.retain(|h| h.id != self.id);
        st.try_grant();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e10_simcore::{now, run, sleep, spawn, SimDuration};

    #[test]
    fn exclusive_locks_on_overlapping_ranges_serialise() {
        let t = run(async {
            let rl = RangeLock::new();
            let mut hs = Vec::new();
            for _ in 0..3 {
                let rl = rl.clone();
                hs.push(spawn(async move {
                    let _g = rl.lock(0..100, LockMode::Exclusive).await;
                    sleep(SimDuration::from_secs(1)).await;
                }));
            }
            for h in hs {
                h.await;
            }
            now().as_secs_f64()
        });
        assert_eq!(t, 3.0);
    }

    #[test]
    fn disjoint_ranges_run_in_parallel() {
        let t = run(async {
            let rl = RangeLock::new();
            let mut hs = Vec::new();
            for i in 0..3u64 {
                let rl = rl.clone();
                hs.push(spawn(async move {
                    let _g = rl.lock(i * 100..(i + 1) * 100, LockMode::Exclusive).await;
                    sleep(SimDuration::from_secs(1)).await;
                }));
            }
            for h in hs {
                h.await;
            }
            now().as_secs_f64()
        });
        assert_eq!(t, 1.0);
    }

    #[test]
    fn shared_locks_coexist_but_block_writers() {
        let t = run(async {
            let rl = RangeLock::new();
            let mut hs = Vec::new();
            for _ in 0..4 {
                let rl = rl.clone();
                hs.push(spawn(async move {
                    let _g = rl.lock(0..10, LockMode::Shared).await;
                    sleep(SimDuration::from_secs(2)).await;
                }));
            }
            let rl2 = rl.clone();
            hs.push(spawn(async move {
                sleep(SimDuration::from_secs(1)).await;
                let _g = rl2.lock(5..6, LockMode::Exclusive).await;
                assert_eq!(now().as_secs_f64(), 2.0);
            }));
            for h in hs {
                h.await;
            }
            now().as_secs_f64()
        });
        assert_eq!(t, 2.0);
    }

    #[test]
    fn writer_is_not_starved_by_later_readers() {
        run(async {
            let rl = RangeLock::new();
            // Reader holds the lock.
            let g = rl.lock(0..10, LockMode::Shared).await;
            // Writer queues.
            let rlw = rl.clone();
            let writer = spawn(async move {
                let _g = rlw.lock(0..10, LockMode::Exclusive).await;
                now().as_secs_f64()
            });
            // A later reader must NOT overtake the queued writer.
            let rlr = rl.clone();
            let reader = spawn(async move {
                sleep(SimDuration::from_millis(1)).await;
                let _g = rlr.lock(0..10, LockMode::Shared).await;
                now().as_secs_f64()
            });
            sleep(SimDuration::from_secs(1)).await;
            drop(g);
            let tw = writer.await;
            let tr = reader.await;
            assert!(tw <= tr, "writer at {tw}, reader at {tr}");
        });
    }

    #[test]
    fn try_lock_respects_conflicts() {
        run(async {
            let rl = RangeLock::new();
            let g = rl.try_lock(0..10, LockMode::Exclusive).unwrap();
            assert!(rl.try_lock(5..15, LockMode::Shared).is_none());
            assert!(rl.try_lock(10..20, LockMode::Exclusive).is_some());
            drop(g);
            assert!(rl.try_lock(0..10, LockMode::Shared).is_some());
        });
    }

    #[test]
    fn contention_stats_count_waits() {
        run(async {
            let rl = RangeLock::new();
            {
                let _g = rl.lock(0..10, LockMode::Exclusive).await;
            }
            let g = rl.lock(0..10, LockMode::Exclusive).await;
            let rl2 = rl.clone();
            let h = spawn(async move {
                let _g = rl2.lock(0..10, LockMode::Exclusive).await;
            });
            sleep(SimDuration::from_secs(1)).await;
            drop(g);
            h.await;
            let (grants, contended) = rl.contention_stats();
            assert_eq!(grants, 3);
            assert_eq!(contended, 1);
        });
    }

    #[test]
    #[should_panic(expected = "empty lock range")]
    fn empty_range_panics() {
        run(async {
            let rl = RangeLock::new();
            let _ = rl.lock(5..5, LockMode::Shared).await;
        });
    }
}
