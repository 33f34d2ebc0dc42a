//! simcore (+ faultsim queries, which are calls on the same thread-
//! local fast path): timers, tasks, fair-share, channels, semaphores
//! and the cost of instrumentation that is switched off.

use std::hint::black_box;

use e10_faultsim::{DeviceClass, FaultPlan, FaultSchedule};
use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_simcore::{channel, join_all, sleep, spawn, FairShare, Semaphore, SimDuration, SimTime};

use super::{pure_cost, sim_cost, Cost, Meter};

pub fn all() -> Vec<(&'static str, Cost)> {
    vec![
        // One task, one timer per operation: calendar push + pop, wake, poll.
        sim_cost("simcore.timer_event_ns", 200_000, |ops| async move {
            let m = Meter::start();
            for _ in 0..ops {
                sleep(SimDuration::from_nanos(10)).await;
            }
            m.stop()
        }),
        // Spawn, one timer, join: what every simulated rank and RPC pays once.
        sim_cost("simcore.spawn_join_ns", 20_000, |ops| async move {
            let m = Meter::start();
            let hs: Vec<_> = (0..ops)
                .map(|i| {
                    spawn(async move {
                        sleep(SimDuration::from_nanos(i % 97)).await;
                        i
                    })
                })
                .collect();
            black_box(join_all(hs).await);
            m.stop()
        }),
        // 64 streams contending for one link (a NIC or a PFS target
        // under a collective round); one operation = one `serve`.
        sim_cost("simcore.fairshare_ns", 64 * 400, |ops| async move {
            let fs = FairShare::new(3.2e9);
            let m = Meter::start();
            let hs: Vec<_> = (0..64u64)
                .map(|s| {
                    let fs = fs.clone();
                    spawn(async move {
                        for i in 0..ops / 64 {
                            fs.serve((8192 + 64 * ((s + i) % 7)) as f64).await;
                        }
                    })
                })
                .collect();
            join_all(hs).await;
            m.stop()
        }),
        // Producer/consumer hand-off (the cache's sync-thread queue).
        sim_cost("simcore.channel_ns", 1_000_000, |ops| async move {
            let (tx, mut rx) = channel::<u64>();
            let m = Meter::start();
            let consumer = spawn(async move {
                let mut acc = 0u64;
                while let Some(v) = rx.recv().await {
                    acc = acc.wrapping_add(v);
                }
                acc
            });
            for i in 0..ops {
                tx.send(i).expect("receiver alive");
                if i % 64 == 63 {
                    e10_simcore::yield_now().await;
                }
            }
            drop(tx);
            black_box(consumer.await);
            m.stop()
        }),
        // 64 tasks over 4 permits, each holding its permit across a timer.
        sim_cost("simcore.semaphore_ns", 64 * 800, |ops| async move {
            let sem = Semaphore::new(4);
            let m = Meter::start();
            let hs: Vec<_> = (0..64)
                .map(|_| {
                    let sem = sem.clone();
                    spawn(async move {
                        for _ in 0..ops / 64 {
                            let _g = sem.acquire().await;
                            sleep(SimDuration::from_nanos(100)).await;
                        }
                    })
                })
                .collect();
            join_all(hs).await;
            m.stop()
        }),
        // No sink installed: an emit plus a counter must cost a flag test.
        pure_cost("simcore.trace_off_emit_ns", 20_000_000, |ops| {
            let m = Meter::start();
            for i in 0..ops {
                trace::emit(|| {
                    Event::new(Layer::Executor, "bench", EventKind::Point).field("i", i)
                });
                trace::counter("bench.off", black_box(1));
            }
            m.stop()
        }),
        // The injection-point query every device and RPC makes, with no
        // plan installed ("zero cost when off")...
        sim_cost("faultsim.query_off_ns", 2_000_000, |ops| async move {
            let m = Meter::start();
            let mut hits = 0u64;
            for i in 0..ops {
                let node = black_box(i as usize % 64);
                hits += e10_faultsim::device_failed(node, DeviceClass::Ssd) as u64;
                hits += e10_faultsim::ssd_stall(node).is_some() as u64;
            }
            black_box(hits);
            m.stop()
        }),
        // ...and with a 16-spec plan whose instants lie in the future.
        sim_cost("faultsim.query_on_ns", 500_000, |ops| async move {
            let far = SimTime::ZERO + SimDuration::from_secs(3600);
            let plan = (0..16).fold(FaultPlan::new(7), |p, n| {
                p.device_fail(n, DeviceClass::Ssd, far)
            });
            let _guard = FaultSchedule::install(plan);
            let m = Meter::start();
            let mut hits = 0u64;
            for i in 0..ops {
                let node = black_box(i as usize % 64);
                hits += e10_faultsim::device_failed(node, DeviceClass::Ssd) as u64;
                hits += e10_faultsim::ssd_stall(node).is_some() as u64;
            }
            black_box(hits);
            m.stop()
        }),
    ]
}
