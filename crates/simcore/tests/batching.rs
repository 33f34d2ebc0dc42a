//! Edge-case tests for batched same-instant event delivery.
//!
//! The executor drains every calendar event sharing the current
//! `SimTime` into a reusable dispatch buffer in one heap pass, then
//! fires them one at a time with a full ready-queue drain between
//! fires — so the observable interleaving is byte-identical to the
//! unbatched executor. These tests pin the hazards of that design:
//! FIFO tie-breaks, cancels landing *after* a body is buffered, stale
//! calendar entries under cancel storms, and the counters `RunStats`
//! grew for the batching work — and, at the end, the self-cancelling
//! [`Sleep`](e10_simcore::executor::Sleep): the losing timer of a
//! timeout race vacates its calendar entry when dropped, and every
//! other drop is inert.

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use e10_simcore::executor::Sleep;
use e10_simcore::{
    live_counts, now, run, run_with_stats, schedule_call, schedule_call_at, sleep, sleep_until,
    spawn, EventHandle, FairShare, SimDuration, SimTime,
};

#[test]
fn duplicate_deadlines_fire_in_seq_order_across_event_kinds() {
    // Ten callbacks scheduled synchronously by main, then ten tasks
    // whose sleeps register later (they first run once main parks):
    // at the shared deadline, all twenty events fire in scheduling-seq
    // order — callbacks first, then the task wakes, each FIFO.
    let order = run(async {
        let order = Rc::new(RefCell::new(Vec::new()));
        let t = now() + SimDuration::from_secs(1);
        for i in 0..10u32 {
            let o = Rc::clone(&order);
            schedule_call_at(t, move || o.borrow_mut().push(i));
        }
        for i in 10..20u32 {
            let o = Rc::clone(&order);
            spawn(async move {
                sleep_until(t).await;
                o.borrow_mut().push(i);
            });
        }
        sleep(SimDuration::from_secs(2)).await;
        Rc::try_unwrap(order).unwrap().into_inner()
    });
    assert_eq!(order, (0..20).collect::<Vec<_>>());
}

#[test]
fn same_instant_cancel_of_an_already_batched_body_is_honoured() {
    // Both events share one instant, so the second body is already in
    // the dispatch buffer when the first fires and cancels it. The
    // fire-time flag re-check must suppress it.
    let fired = run(async {
        let fired = Rc::new(Cell::new(0u32));
        let holder: Rc<RefCell<Option<EventHandle>>> = Rc::new(RefCell::new(None));
        let h = Rc::clone(&holder);
        schedule_call(SimDuration::from_secs(1), move || {
            if let Some(h2) = h.borrow_mut().take() {
                h2.cancel();
            }
        });
        let f = Rc::clone(&fired);
        let h2 = schedule_call(SimDuration::from_secs(1), move || f.set(f.get() + 1));
        *holder.borrow_mut() = Some(h2);
        sleep(SimDuration::from_secs(2)).await;
        fired.get()
    });
    assert_eq!(fired, 0, "a mid-batch cancel must still suppress the body");
}

#[test]
fn cancel_storm_interleaved_with_batched_pops_keeps_heap_bounded() {
    // 50 rounds × 100 armed-then-cancelled timeouts leave 5000 stale
    // calendar entries behind; the batched-drain purge must keep the
    // heap near the live population instead of accumulating them.
    let ((), stats) = run_with_stats(async {
        for round in 0..50u64 {
            let handles: Vec<EventHandle> = (0..100)
                .map(|i| {
                    schedule_call(SimDuration::from_secs(1_000 + round * 100 + i), || {
                        unreachable!("cancelled timeout must never fire")
                    })
                })
                .collect();
            for h in &handles {
                h.cancel();
            }
            sleep(SimDuration::from_secs(1)).await;
        }
    });
    assert!(
        stats.heap_peak < 300,
        "stale entries must be purged: heap_peak={}",
        stats.heap_peak
    );
}

#[test]
fn run_stats_count_batched_events() {
    let ((), stats) = run_with_stats(async {
        let hs: Vec<_> = (0..10)
            .map(|_| spawn(async { sleep(SimDuration::from_secs(1)).await }))
            .collect();
        for h in hs {
            h.await;
        }
    });
    // All ten sleep wakes share t=1s and form one batch.
    assert!(
        stats.events_batched >= 10,
        "expected a batch of >= 10, stats={stats:?}"
    );
    assert!(stats.heap_peak >= 10, "stats={stats:?}");
}

#[test]
fn run_stats_count_coalesced_wakes() {
    // A callback that wakes the same parked task twice in one instant:
    // the second wake finds the task already queued and is absorbed.
    struct Park {
        done: Rc<Cell<bool>>,
        waker_out: Rc<RefCell<Option<Waker>>>,
    }
    impl std::future::Future for Park {
        type Output = ();
        fn poll(
            self: std::pin::Pin<&mut Self>,
            cx: &mut std::task::Context<'_>,
        ) -> std::task::Poll<()> {
            if self.done.get() {
                std::task::Poll::Ready(())
            } else {
                *self.waker_out.borrow_mut() = Some(cx.waker().clone());
                std::task::Poll::Pending
            }
        }
    }
    let ((), stats) = run_with_stats(async {
        let done = Rc::new(Cell::new(false));
        let stash: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let d = Rc::clone(&done);
        let s = Rc::clone(&stash);
        let h = spawn(Park {
            done: d,
            waker_out: s,
        });
        let d2 = Rc::clone(&done);
        schedule_call(SimDuration::from_secs(1), move || {
            d2.set(true);
            let w = stash.borrow_mut().take().unwrap();
            w.wake_by_ref();
            w.wake();
        });
        h.await;
    });
    assert!(stats.wakes_coalesced >= 1, "stats={stats:?}");
}

#[test]
fn fair_share_timer_superseded_mid_batch_is_inert() {
    // Task B's sleep wake (earlier seq) and A's completion timer (later
    // seq) share t=1s. B fires first, joins the resource, and its
    // reschedule supersedes the buffered timer; the stale body must be
    // a no-op. A bug here double-settles or re-arms a ghost timer.
    let (ta, tb) = run(async {
        let link = FairShare::new(100.0);
        let l2 = link.clone();
        let hb = spawn(async move {
            sleep(SimDuration::from_secs(1)).await;
            l2.serve(100.0).await;
            now().as_secs_f64()
        });
        let l1 = link.clone();
        let ha = spawn(async move {
            l1.serve(100.0).await;
            now().as_secs_f64()
        });
        (ha.await, hb.await)
    });
    assert!((ta - 1.0).abs() < 1e-9, "ta={ta}");
    assert!((tb - 2.0).abs() < 1e-9, "tb={tb}");
}

#[test]
fn batched_runs_remain_reproducible() {
    // Belt-and-braces determinism anchor over a mixed workload:
    // identical inputs, identical event trace statistics.
    fn experiment() -> (f64, u64, u64) {
        let (end, stats) = run_with_stats(async {
            let link = FairShare::new(1e6);
            let hs: Vec<_> = (0..32)
                .map(|i| {
                    let l = link.clone();
                    spawn(async move {
                        sleep(SimDuration::from_millis(i % 7)).await;
                        l.serve(1e4 * (i + 1) as f64).await;
                    })
                })
                .collect();
            for h in hs {
                h.await;
            }
            now().as_secs_f64()
        });
        (end, stats.events_fired, stats.events_batched)
    }
    assert_eq!(experiment(), experiment());
}

// ---- self-cancelling Sleep ---------------------------------------------

fn secs(n: u64) -> SimDuration {
    SimDuration::from_secs(n)
}

/// A waker that only counts, so a test can poll a `Sleep` by hand and
/// see both who still holds the waker and whether it was ever woken.
struct CountingWaker(AtomicU32);

impl Wake for CountingWaker {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Poll `timer` once with `flag`'s waker; it must park.
fn arm(timer: &mut Sleep, flag: &Arc<CountingWaker>) {
    let waker = Waker::from(Arc::clone(flag));
    let polled = pin!(timer).poll(&mut Context::from_waker(&waker));
    assert!(polled.is_pending());
}

/// The shape of a timed receive: `work` raced against a `timeout`
/// timer that is dropped as soon as the work wins.
async fn finishes_in_time(work: SimDuration, timeout: SimDuration) -> bool {
    let (mut work, mut timer) = (pin!(sleep(work)), pin!(sleep(timeout)));
    poll_fn(|cx| {
        if work.as_mut().poll(cx).is_ready() {
            return Poll::Ready(true);
        }
        timer.as_mut().poll(cx).map(|()| false)
    })
    .await
}

#[test]
fn sleep_dropped_before_its_deadline_frees_its_slot_at_once() {
    let (woken, stats) = run_with_stats(async {
        let flag = Arc::new(CountingWaker(AtomicU32::new(0)));
        let baseline = live_counts().events;
        let mut timer = sleep(secs(20));
        arm(&mut timer, &flag);
        assert_eq!(live_counts().events, baseline + 1);
        assert_eq!(Arc::strong_count(&flag), 2, "the calendar holds the waker");
        drop(timer);
        assert_eq!(live_counts().events, baseline, "slot vacated by the drop");
        assert_eq!(Arc::strong_count(&flag), 1, "waker released by the drop");
        // Run past the dropped deadline: nothing may fire there.
        sleep(secs(30)).await;
        flag.0.load(Ordering::Relaxed)
    });
    assert_eq!(woken, 0, "a dropped sleep must never wake anyone");
    assert_eq!(stats.events_fired, 1, "only the 30 s sleep fires");
    assert_eq!(stats.end_time, SimTime::ZERO + secs(30));
}

#[test]
fn every_other_sleep_drop_is_inert() {
    // Never polled: nothing was scheduled, nothing to vacate.
    run(async {
        let baseline = live_counts();
        drop(sleep(secs(5)));
        drop(sleep_until(now() + secs(5)));
        assert_eq!(live_counts(), baseline);
    });

    // Polled to completion: its entry was drained when it fired.
    run(async {
        let baseline = live_counts();
        sleep(secs(1)).await;
        assert_eq!(live_counts(), baseline);
    });

    // Dropped after firing without being polled again, by which time
    // its slot has a new occupant (slots recycle LIFO) that the stale
    // coordinates must not vacate.
    let fired = run(async {
        let flag = Arc::new(CountingWaker(AtomicU32::new(0)));
        let mut timer = sleep(secs(1));
        arm(&mut timer, &flag);
        sleep(secs(2)).await;
        assert_eq!(flag.0.load(Ordering::Relaxed), 1, "the armed sleep fired");
        let fired = Rc::new(Cell::new(false));
        let f = Rc::clone(&fired);
        schedule_call(secs(1), move || f.set(true));
        let live = live_counts().events;
        drop(timer);
        assert_eq!(live_counts().events, live, "the new occupant stays");
        sleep(secs(2)).await;
        fired.get()
    });
    assert!(fired);

    // Dropped outside `run`: no kernel, no panic.
    let flag = Arc::new(CountingWaker(AtomicU32::new(0)));
    let f = Arc::clone(&flag);
    let armed = move || {
        let f = Arc::clone(&f);
        // (In an `Option`: an async block yielding a future reads as a
        // forgotten `.await`.)
        run(async move {
            let mut timer = sleep(secs(5));
            arm(&mut timer, &f);
            Some(timer)
        })
    };
    drop(armed());

    // Dropped inside a different simulation, where its (slot, seq)
    // coordinates collide with that simulation's first event: only the
    // kernel id keeps the drop from vacating the wrong body.
    let foreign = armed();
    let fired = run(async move {
        let fired = Rc::new(Cell::new(false));
        let f = Rc::clone(&fired);
        schedule_call(secs(5), move || f.set(true));
        let live = live_counts().events;
        drop(foreign);
        assert_eq!(live_counts().events, live);
        sleep(secs(10)).await;
        fired.get()
    });
    assert!(fired, "a foreign sleep's drop must not touch this kernel");
    assert_eq!(flag.0.load(Ordering::Relaxed), 0);
}

#[test]
fn timed_waits_that_complete_early_leave_no_timers_behind() {
    // 10 000 one-millisecond waits, each racing a 20 s timeout it
    // always beats: 10 simulated seconds, so no timeout deadline is
    // ever reached and an executor that kept the losing timers would
    // peak at 10 000 calendar entries. Vacated entries are purged once
    // they outnumber the live ones beyond a 64-entry floor.
    let ((), stats) = run_with_stats(async {
        for _ in 0..10_000 {
            assert!(finishes_in_time(SimDuration::from_millis(1), secs(20)).await);
        }
        assert_eq!(live_counts().events, 0);
    });
    assert!(stats.heap_peak < 100, "heap_peak={}", stats.heap_peak);
    assert_eq!(stats.events_fired, 10_000, "one wake per wait, no timeouts");
    assert_eq!(stats.end_time, SimTime::ZERO + secs(10));
}

#[test]
fn dropping_losing_timers_changes_no_surviving_event() {
    // Eight tasks race waits of 1..=5 ms (same-instant ties included)
    // against a 7.5 ms timeout, with callbacks interleaved. `keep`
    // holds every losing timer until the end instead of dropping it,
    // which is what the executor used to do implicitly: the stale
    // timers then fire as spurious wakes. The log of everything else —
    // what happened, in which order, at which virtual instant — and
    // the end time must not depend on it. (The timeout is off the
    // millisecond grid on purpose: a stale wake landing *on* its
    // task's next deadline instant lets that task see the deadline
    // reached ahead of its own, later-sequenced wake event — an
    // artefact of the stale wake, not an order to preserve.)
    fn experiment(keep: bool) -> (Vec<(u64, u32, u32)>, SimTime, u64) {
        let (log, stats) = run_with_stats(async move {
            let log = Rc::new(RefCell::new(Vec::new()));
            let tasks: Vec<_> = (0..8u32)
                .map(|task| {
                    let log = Rc::clone(&log);
                    spawn(async move {
                        let mut kept = Vec::new();
                        for i in 0..40u32 {
                            let work = SimDuration::from_millis(u64::from((task + i) % 5 + 1));
                            let (mut work, mut timer) = (
                                pin!(sleep(work)),
                                Box::pin(sleep(SimDuration::from_micros(7_500))),
                            );
                            poll_fn(|cx| {
                                let _ = timer.as_mut().poll(cx);
                                work.as_mut().poll(cx)
                            })
                            .await;
                            log.borrow_mut().push((now().as_nanos(), task, i));
                            if keep {
                                kept.push(timer);
                            }
                            if i % 8 == 0 {
                                let log = Rc::clone(&log);
                                schedule_call(SimDuration::from_millis(3), move || {
                                    log.borrow_mut().push((now().as_nanos(), task, 1000 + i));
                                });
                            }
                        }
                    })
                })
                .collect();
            for t in tasks {
                t.await;
            }
            sleep(SimDuration::from_millis(10)).await;
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        (log, stats.end_time, stats.events_fired)
    }
    let (dropped, kept) = (experiment(false), experiment(true));
    assert_eq!(dropped.0, kept.0, "surviving events reordered or retimed");
    assert_eq!(dropped.1, kept.1, "virtual end time moved");
    assert!(
        dropped.2 < kept.2,
        "the kept timers must have fired as extra events: {} vs {}",
        dropped.2,
        kept.2
    );
}
