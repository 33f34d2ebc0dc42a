//! When a spawned task's future is dropped, relative to its output and
//! its joiner: a task that finishes drops its future before its output
//! is stored, and so before the joiner resumes; a task killed by
//! `kill_group`, polled or not, drops its future at the kill and its
//! `JoinHandle` never finishes. Public API only, so the pins hold for
//! any way `spawn` may wrap a future.

use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use e10_simcore::executor::Sleep;
use e10_simcore::{
    kill_group, live_counts, new_group, now, run, sleep, spawn, spawn_in_group, JoinHandle,
    LiveCounts, SimDuration,
};

type Log = Rc<RefCell<Vec<&'static str>>>;
/// Where the probe's own handle is kept, for its `drop` to peek at.
type Slot = Rc<RefCell<Option<JoinHandle<u32>>>>;

fn secs(n: u64) -> SimDuration {
    SimDuration::from_secs(n)
}

/// Pending until `wait` is over, then ready with 7. Its polls and its
/// drop are logged; the drop also logs whether its own task already
/// counts as finished.
struct Probe {
    log: Log,
    wait: Sleep,
    slot: Slot,
}

impl Future for Probe {
    type Output = u32;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
        if Pin::new(&mut self.wait).poll(cx).is_pending() {
            self.log.borrow_mut().push("pending");
            return Poll::Pending;
        }
        self.log.borrow_mut().push("ready");
        Poll::Ready(7)
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let finished = self.slot.borrow().as_ref().map(JoinHandle::is_finished);
        self.log.borrow_mut().push(match finished {
            Some(false) => "dropped (unfinished)",
            Some(true) => "dropped (finished)",
            None => "dropped (no handle)",
        });
    }
}

/// Spawn a probe waiting `wait` seconds (in crash group `group`, if
/// any); its handle goes into the returned slot.
fn spawn_probe(log: &Log, wait: u64, group: Option<u64>) -> Slot {
    let slot = Slot::default();
    let probe = Probe {
        log: Rc::clone(log),
        wait: sleep(secs(wait)),
        slot: Rc::clone(&slot),
    };
    let h = match group {
        Some(g) => spawn_in_group(g, probe),
        None => spawn(probe),
    };
    *slot.borrow_mut() = Some(h);
    slot
}

fn is_finished(slot: &Slot) -> bool {
    slot.borrow().as_ref().is_some_and(JoinHandle::is_finished)
}

/// The main task alone, parked nowhere: what a kill must leave behind.
const MAIN_ONLY: LiveCounts = LiveCounts {
    events: 0,
    tasks: 0,
    wakers: 1,
    grouped_tasks: 0,
};

#[test]
fn a_finished_task_drops_its_future_before_its_joiner_resumes() {
    for wait in [0, 1] {
        let log = run(async move {
            let log = Log::default();
            let slot = spawn_probe(&log, wait, None);
            // Await the handle in place, so the probe can still see it.
            let out = poll_fn(|cx| Pin::new(slot.borrow_mut().as_mut().unwrap()).poll(cx)).await;
            log.borrow_mut().push("joiner resumed");
            assert_eq!(out, 7);
            assert!(is_finished(&slot));
            assert_eq!(now().as_secs_f64(), wait as f64);
            assert_eq!(live_counts(), MAIN_ONLY);
            log.take()
        });
        let mut want = vec!["ready", "dropped (unfinished)", "joiner resumed"];
        if wait > 0 {
            want.insert(0, "pending");
        }
        assert_eq!(log, want, "wait {wait} s");
    }
}

#[test]
fn a_task_killed_before_its_first_poll_drops_its_future_at_the_kill() {
    let log = run(async {
        let log = Log::default();
        let g = new_group();
        let slot = spawn_probe(&log, 1, Some(g));
        assert_eq!(
            live_counts(),
            LiveCounts {
                events: 0,
                tasks: 1,
                wakers: 2,
                grouped_tasks: 1,
            }
        );
        log.borrow_mut().push("kill");
        assert_eq!(kill_group(g), 1);
        log.borrow_mut().push("killed");
        assert!(!is_finished(&slot));
        assert_eq!(live_counts(), MAIN_ONLY);
        // Past the probe's wait: nothing of it is left to run.
        sleep(secs(5)).await;
        assert!(!is_finished(&slot));
        assert_eq!(live_counts(), MAIN_ONLY);
        log.take()
    });
    assert_eq!(log, ["kill", "dropped (unfinished)", "killed"]);
}

#[test]
fn a_task_killed_mid_flight_drops_its_future_at_the_kill() {
    let log = run(async {
        let log = Log::default();
        let g = new_group();
        let slot = spawn_probe(&log, 10, Some(g));
        sleep(secs(1)).await;
        // The probe is parked on its 10 s wake.
        assert_eq!(
            live_counts(),
            LiveCounts {
                events: 1,
                tasks: 1,
                wakers: 2,
                grouped_tasks: 1,
            }
        );
        log.borrow_mut().push("kill");
        assert_eq!(kill_group(g), 1);
        log.borrow_mut().push("killed");
        assert!(!is_finished(&slot));
        // Dropping the probe vacated its wake event.
        assert_eq!(live_counts(), MAIN_ONLY);
        sleep(secs(20)).await;
        assert!(!is_finished(&slot));
        assert_eq!(live_counts(), MAIN_ONLY);
        log.take()
    });
    assert_eq!(log, ["pending", "kill", "dropped (unfinished)", "killed"]);
}
