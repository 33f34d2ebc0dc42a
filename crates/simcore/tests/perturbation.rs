//! Schedule perturbation (`run_perturbed`): a seeded permutation of
//! what the executor delivers within one instant — the ready queue and
//! the same-instant event batch. A model that is order-free there must
//! not notice; one that is not must be caught.

use std::cell::RefCell;
use std::rc::Rc;

use e10_simcore::{
    channel, now, run_perturbed, run_with_stats, schedule_call_at, sleep, spawn, FairShare, Flag,
    RunStats, Semaphore, SimDuration, SimTime,
};

const SEEDS: u64 = 64;
const WORKERS: u64 = 24;

/// What the mixed scenario reports: per worker (in worker order) the
/// instant its fair-share transfer completed, and the sum of the
/// values the collector received.
type Outcome = (Vec<(u64, SimTime)>, u64);

/// Sleeps that tie, a fair-share link, a two-permit semaphore with
/// equal hold times and a channel into one collector. Everything it
/// reports is order-free: a processor-sharing completion depends on
/// which jobs are in flight, not on which joined first within an
/// instant; who gets a permit first does, so nothing per-worker is
/// read after the semaphore — only the end time, which equal hold
/// times fix.
fn mixed(seed: Option<u64>) -> (Outcome, RunStats) {
    run_perturbed(seed, async {
        let link = FairShare::new(1e6);
        let sem = Semaphore::new(2);
        let (tx, mut rx) = channel();
        for i in 0..WORKERS {
            let (link, sem, tx) = (link.clone(), sem.clone(), tx.clone());
            spawn(async move {
                sleep(SimDuration::from_millis(i % 4)).await;
                link.serve(1e3 * (1 + i % 6) as f64).await;
                let served = now();
                let _permit = sem.acquire().await;
                sleep(SimDuration::from_millis(1)).await;
                tx.send((i, served)).expect("the collector is listening");
            });
        }
        drop(tx);
        let mut served = Vec::new();
        let mut sum = 0;
        while let Some((i, t)) = rx.recv().await {
            served.push((i, t));
            sum += i;
        }
        served.sort_unstable();
        (served, sum)
    })
}

#[test]
fn perturbation_off_is_run_with_stats() {
    let body = || async {
        let hs: Vec<_> = (0..8u64)
            .map(|i| spawn(sleep(SimDuration::from_millis(i % 3))))
            .collect();
        for h in hs {
            h.await;
        }
    };
    assert_eq!(run_perturbed(None, body()).1, run_with_stats(body()).1);
    assert_eq!(mixed(None), mixed(None));
}

#[test]
fn an_order_free_scenario_is_invariant_under_every_seed() {
    let (expected, fifo) = mixed(None);
    assert_eq!(expected.0.len() as u64, WORKERS);
    for seed in 0..SEEDS {
        let (outcome, stats) = mixed(Some(seed));
        assert_eq!(outcome, expected, "seed {seed}");
        assert_eq!(stats.end_time, fifo.end_time, "seed {seed}");
        assert_eq!(mixed(Some(seed)).1, stats, "seed {seed} repeats exactly");
    }
}

/// How many of the seeds deliver `scenario`'s ten arrivals in an order
/// other than FIFO's.
fn seeds_that_reorder(scenario: fn(Option<u64>) -> Vec<u32>) -> usize {
    assert_eq!(scenario(None), (0..10).collect::<Vec<_>>(), "FIFO when off");
    (0..SEEDS)
        .filter(|&seed| {
            let mut order = scenario(Some(seed));
            let reordered = order != scenario(None);
            order.sort_unstable();
            assert_eq!(order, scenario(None), "a permutation, nothing lost");
            reordered
        })
        .count()
}

#[test]
fn an_order_dependent_batch_is_caught() {
    // Ten callbacks scheduled for one instant: the same-instant batch.
    fn scenario(seed: Option<u64>) -> Vec<u32> {
        run_perturbed(seed, async {
            let order = Rc::new(RefCell::new(Vec::new()));
            let t = now() + SimDuration::from_secs(1);
            for i in 0..10 {
                let o = Rc::clone(&order);
                schedule_call_at(t, move || o.borrow_mut().push(i));
            }
            sleep(SimDuration::from_secs(2)).await;
            order.take()
        })
        .0
    }
    assert!(seeds_that_reorder(scenario) > SEEDS as usize / 2);
}

#[test]
fn an_order_dependent_ready_queue_is_caught() {
    // Ten tasks released by one flag: the ready queue.
    fn scenario(seed: Option<u64>) -> Vec<u32> {
        run_perturbed(seed, async {
            let order = Rc::new(RefCell::new(Vec::new()));
            let go = Flag::new();
            let hs: Vec<_> = (0..10)
                .map(|i| {
                    let (o, go) = (Rc::clone(&order), go.clone());
                    spawn(async move {
                        go.wait().await;
                        o.borrow_mut().push(i);
                    })
                })
                .collect();
            sleep(SimDuration::from_secs(1)).await;
            go.set();
            for h in hs {
                h.await;
            }
            order.take()
        })
        .0
    }
    assert!(seeds_that_reorder(scenario) > SEEDS as usize / 2);
}
