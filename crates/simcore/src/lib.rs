//! # e10-simcore
//!
//! A deterministic, single-threaded, `async`-based discrete-event
//! simulation kernel. It is the substrate on which the rest of the E10
//! reproduction runs: MPI ranks, file-system servers, background flush
//! threads and device models are all ordinary Rust `async` tasks whose
//! awaits advance a virtual clock.
//!
//! Design points:
//!
//! * **Determinism.** Events are ordered by `(virtual time, sequence)`;
//!   wake-ups are FIFO; all randomness flows through explicitly seeded
//!   [`rng::SimRng`] streams. Two runs with the same inputs produce
//!   identical traces.
//! * **Ambient kernel.** While [`run`] executes, the kernel lives in a
//!   thread-local so model code can call [`now`], [`sleep`] or [`spawn`]
//!   without plumbing a handle through ten layers — mirroring how real
//!   MPI/ROMIO code relies on process-global runtime state.
//! * **Queueing resources.** [`resource::FifoServer`] and
//!   [`resource::FairShare`] model request-at-a-time devices and links
//!   or targets whose bandwidth in-flight streams share evenly; device
//!   models in `e10-storesim` and `e10-netsim` compose them.
//!
//! ## Example
//!
//! ```
//! use e10_simcore::{run, spawn, sleep, now, SimDuration};
//!
//! let end = run(async {
//!     let worker = spawn(async {
//!         sleep(SimDuration::from_secs(3)).await;
//!         42
//!     });
//!     assert_eq!(worker.await, 42);
//!     now().as_secs_f64()
//! });
//! assert_eq!(end, 3.0);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloc_gauge;
pub mod chacha;
pub mod channel;
pub mod executor;
mod join;
pub mod pool;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;
pub mod trace;
mod waker;

pub use channel::{channel, Receiver, Sender};
pub use executor::{
    current_group, kill_group, live_counts, new_group, now, run, run_perturbed, run_with_stats,
    schedule_call, schedule_call_at, sleep, sleep_until, spawn, spawn_in_group, yield_now,
    EventHandle, JoinHandle, LiveCounts, RunStats, TaskId,
};
pub use join::{join_all, FixedJoin};
pub use pool::{run_jobs, run_jobs_on, worker_threads, Job};
pub use resource::{FairShare, FifoServer, RoundRobin};
pub use rng::{Jitter, SimRng};
pub use stats::{LogHistogram, Tally};
pub use sync::{Barrier, Flag, Semaphore, SemaphoreGuard};
pub use time::{transfer_time, SimDuration, SimTime};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_reproducible() {
        fn experiment() -> Vec<u64> {
            run(async {
                let mut rng = SimRng::new(99);
                let mut out = Vec::new();
                for _ in 0..20 {
                    let d = SimDuration::from_secs_f64(rng.exponential(0.5));
                    sleep(d).await;
                    out.push(now().as_nanos());
                }
                out
            })
        }
        assert_eq!(experiment(), experiment());
    }
}
