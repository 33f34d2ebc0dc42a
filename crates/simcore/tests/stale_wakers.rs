//! A task's waker is its `TaskId` in a `RawWaker` data word, looked up
//! on wake in the waking thread's own kernel — so a waker may be held
//! past anything it named. These tests wake one after its task
//! finished, after its slot went to another task, during a later run,
//! outside any run and from another thread: none may panic, and none
//! may change the polls or the `RunStats` (`wakes_coalesced` is the
//! field a stray wake would move) of the run it lands in.

use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::rc::Rc;
use std::task::{Poll, Waker};

use e10_simcore::trace;
use e10_simcore::{
    kill_group, new_group, run, run_with_stats, schedule_call, sleep, spawn, spawn_in_group,
    RunStats, SimDuration,
};

fn secs(n: u64) -> SimDuration {
    SimDuration::from_secs(n)
}

/// Run `main`; returns its polls (the `executor.polls` counter) and
/// its `RunStats`.
fn counted(main: impl Future<Output = ()> + 'static) -> (u64, RunStats) {
    let (((), stats), counts) = trace::counted(|| run_with_stats(main));
    let polls = counts
        .counters
        .iter()
        .find(|(name, _)| *name == "executor.polls")
        .map(|(_, v)| *v)
        .expect("the run polled its main task");
    (polls, stats)
}

/// The polling task's own waker.
async fn my_waker() -> Waker {
    poll_fn(|cx| Poll::Ready(cx.waker().clone())).await
}

/// Wake `w` both ways: were its task live and parked, the first wake
/// would earn it a poll and the second would count as coalesced.
fn wake_twice(w: Waker) {
    w.wake_by_ref();
    w.wake();
}

/// A run for a stray wake to land in: the main task — slot 0, first
/// spawn, exactly what a waker minted by an earlier run's main task
/// names — is parked until t = 2 s, a bystander in slot 1 until 3 s,
/// and `intrude` runs at t = 1 s.
fn host(intrude: impl FnOnce() + 'static) -> (u64, RunStats) {
    counted(async move {
        schedule_call(secs(1), intrude);
        let bystander = spawn(sleep(secs(3)));
        sleep(secs(2)).await;
        bystander.await;
    })
}

/// A waker that has outlived its run: the main task's.
fn waker_of_a_finished_run() -> Waker {
    run(my_waker())
}

#[test]
fn waking_a_finished_task_does_nothing() {
    let scenario = |wake: bool| {
        counted(async move {
            let w = spawn(my_waker()).await;
            sleep(secs(1)).await;
            if wake {
                wake_twice(w);
            }
            sleep(secs(1)).await;
        })
    };
    assert_eq!(scenario(true), scenario(false));
}

#[test]
fn waking_a_killed_task_does_not_reach_the_new_tenant_of_its_slot() {
    let scenario = |wake: bool| {
        counted(async move {
            let stash: Rc<RefCell<Option<Waker>>> = Rc::default();
            let gid = new_group();
            let s = Rc::clone(&stash);
            let victim = spawn_in_group(gid, async move {
                *s.borrow_mut() = Some(my_waker().await);
                sleep(secs(100)).await;
            });
            sleep(secs(1)).await;
            assert_eq!(kill_group(gid), 1);
            let tenant = spawn(sleep(secs(2)));
            assert_eq!(
                tenant.id() as u32,
                victim.id() as u32,
                "the freed slot is reused"
            );
            assert_ne!(tenant.id(), victim.id(), "under a new generation");
            sleep(secs(1)).await; // the tenant is parked in its sleep
            let w = stash.borrow_mut().take().expect("the victim ran");
            if wake {
                wake_twice(w);
            }
            tenant.await;
        })
    };
    assert_eq!(scenario(true), scenario(false));
}

#[test]
fn a_waker_from_an_earlier_run_is_inert_in_a_later_one() {
    // Both main tasks are (slot 0, first spawn): only the kernel-id
    // salt in the generation tells them apart.
    let w = waker_of_a_finished_run();
    assert_eq!(host(move || wake_twice(w)), host(|| {}));
}

#[test]
fn waking_outside_any_run_does_nothing() {
    let w = waker_of_a_finished_run();
    wake_twice(w.clone());
    drop(w);
    // And the thread's next run is none the wiser.
    assert_eq!(host(|| {}), host(|| {}));
}

#[test]
fn waking_from_another_thread_does_nothing() {
    // `Waker` is `Send + Sync`; ours looks its task up in the waking
    // thread's kernel, which is never the one that minted it.
    let w = waker_of_a_finished_run();
    let there = std::thread::spawn(move || {
        wake_twice(w.clone()); // no kernel on that thread
        host(move || wake_twice(w)) // a foreign kernel
    })
    .join()
    .expect("a foreign wake must not panic");
    assert_eq!(there, host(|| {}));
}
