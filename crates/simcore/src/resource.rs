//! Queueing resources: the building blocks for device and network models.
//!
//! Two service disciplines are provided:
//!
//! * [`FifoServer`] — `k` identical servers, one job at a time each,
//!   FIFO queue. Matches request-at-a-time devices (a disk head, an RPC
//!   handler thread).
//! * [`FairShare`] — a capacity shared evenly among all in-flight jobs
//!   (processor sharing). Matches links and storage targets where
//!   concurrent streams split bandwidth. It keeps the least remaining
//!   work over its jobs, so a join at the instant of the last settle
//!   costs O(1) plus re-arming the completion timer.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::{now, vacate_event, with_kernel};
use crate::sync::Semaphore;
use crate::time::{SimDuration, SimTime};

/// A station of `k` identical FIFO servers.
///
/// Service times are supplied by the caller, either up front
/// ([`serve`](FifoServer::serve)) or computed at the moment service
/// begins ([`serve_with`](FifoServer::serve_with)) — the latter matters
/// for devices whose cost depends on state at service start (e.g. disk
/// head position).
#[derive(Clone)]
pub struct FifoServer {
    sem: Semaphore,
    stats: Rc<RefCell<ServerStats>>,
}

/// Usage counters for a [`FifoServer`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerStats {
    /// Jobs fully served.
    pub jobs: u64,
    /// Total busy time across all servers.
    pub busy: SimDuration,
    /// Total time jobs spent queued before service.
    pub queued: SimDuration,
}

impl FifoServer {
    /// Create a station with `servers` parallel servers.
    pub fn new(servers: usize) -> Self {
        FifoServer {
            sem: Semaphore::new(servers),
            stats: Rc::new(RefCell::new(ServerStats::default())),
        }
    }

    /// Queue for a server, then hold it for `service`.
    pub async fn serve(&self, service: SimDuration) {
        self.serve_with(|| service).await;
    }

    /// Queue for a server, then hold it for the duration computed by
    /// `service` *at the instant service begins*.
    pub async fn serve_with(&self, service: impl FnOnce() -> SimDuration) {
        let enq = now();
        let _g = self.sem.acquire().await;
        let start = now();
        let dur = service();
        crate::executor::sleep(dur).await;
        let mut st = self.stats.borrow_mut();
        st.jobs += 1;
        st.busy += dur;
        st.queued += start.since(enq);
    }

    /// Current queue length (jobs waiting, not in service).
    pub fn queue_len(&self) -> usize {
        self.sem.queue_len()
    }

    /// Snapshot of usage counters.
    pub fn stats(&self) -> ServerStats {
        *self.stats.borrow()
    }
}

const WORK_EPS: f64 = 1e-6;

struct FsJob {
    /// Per-resource identifier; the serving [`FsServe`] future finds
    /// its job by id (the job may move as earlier completions shift
    /// the order-preserving `jobs` vector). Ids are handed out in join
    /// order, so `jobs` is always sorted by id.
    id: u64,
    remaining: f64,
    /// Waker of the serving task, stored intrusively — no per-job
    /// `Flag` (and its `Rc<RefCell<..>>` + waiter vector) is allocated.
    /// Waking a task that was killed mid-transfer is a harmless stale
    /// wake; the job itself keeps consuming bandwidth to completion,
    /// matching real hardware draining a DMA a crashed client posted.
    waker: Waker,
}

pub(crate) struct FsState {
    rate: f64,
    jobs: Vec<FsJob>,
    /// The least `remaining` over `jobs`, infinite when there are
    /// none. A join takes the minimum with its work; the two passes
    /// that change remainders — the advance and the completion sweep —
    /// recompute it. The minimum does not depend on join order, so
    /// nothing derived from it does either.
    least: f64,
    last_settle: SimTime,
    /// `(kernel id, seq, slot)` of the armed completion timer (an
    /// unboxed `EventAction::FsTimer` calendar entry). A firing timer
    /// whose seq no longer matches is stale — superseded by a
    /// reschedule after its body was already drained into the
    /// executor's same-instant dispatch batch.
    pending: Option<(u64, u64, u32)>,
    next_job: u64,
    /// Total work units completed (stats).
    work_done: f64,
    jobs_done: u64,
}

/// A processor-sharing resource of fixed total capacity (work units per
/// second — typically bytes/s).
///
/// All in-flight jobs progress simultaneously, each at an equal share
/// of the capacity.
#[derive(Clone)]
pub struct FairShare {
    inner: Rc<RefCell<FsState>>,
}

impl FairShare {
    /// Create a resource with total capacity `rate` work-units/second.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "FairShare capacity must be positive");
        FairShare {
            inner: Rc::new(RefCell::new(FsState::new(rate))),
        }
    }

    /// Process `work` units, sharing capacity with concurrent jobs.
    ///
    /// The returned future registers the job at its first poll (like
    /// any lazy future) and completes when the job's work has drained.
    /// Dropping the future after the first poll does *not* withdraw the
    /// job: the transfer keeps consuming bandwidth to completion, which
    /// is how crash-kill of a client mid-transfer is modelled.
    pub fn serve(&self, work: f64) -> FsServe {
        FsServe {
            fs: Rc::clone(&self.inner),
            work,
            job: None,
        }
    }

    /// Number of in-flight jobs.
    pub fn active(&self) -> usize {
        self.inner.borrow().jobs.len()
    }

    /// Total work completed so far.
    pub fn work_done(&self) -> f64 {
        self.inner.borrow().work_done
    }

    /// Total jobs completed so far.
    pub fn jobs_done(&self) -> u64 {
        self.inner.borrow().jobs_done
    }

    /// Total capacity in work-units/second.
    pub fn rate(&self) -> f64 {
        self.inner.borrow().rate
    }
}

impl FsState {
    fn new(rate: f64) -> Self {
        FsState {
            rate,
            jobs: Vec::new(),
            least: f64::INFINITY,
            last_settle: SimTime::ZERO,
            pending: None,
            next_job: 0,
            work_done: 0.0,
            jobs_done: 0,
        }
    }

    /// Each active job's rate: the capacity split evenly.
    fn share(&self) -> f64 {
        self.rate / self.jobs.len() as f64
    }

    /// Register a job of `work` units; returns its id.
    fn join(&mut self, work: f64, waker: Waker) -> u64 {
        let id = self.next_job;
        self.next_job += 1;
        self.least = self.least.min(work);
        self.jobs.push(FsJob {
            id,
            remaining: work,
            waker,
        });
        id
    }

    /// Advance job progress from `last_settle` to `to`, completing any
    /// jobs that finish in the interval boundary.
    fn settle(&mut self, to: SimTime) {
        let dt = to.since(self.last_settle).as_secs_f64();
        self.last_settle = to;
        if dt > 0.0 && !self.jobs.is_empty() {
            let step = self.share() * dt;
            let mut least = f64::INFINITY;
            for job in &mut self.jobs {
                let used = step.min(job.remaining);
                job.remaining -= used;
                self.work_done += used;
                least = least.min(job.remaining);
            }
            self.least = least;
        }
        // Complete finished jobs (preserving order for determinism);
        // with none down to `WORK_EPS` there is nothing to find.
        if self.least <= WORK_EPS {
            let mut least = f64::INFINITY;
            let done = self.jobs.extract_if(.., |job| {
                let done = job.remaining <= WORK_EPS;
                if !done {
                    least = least.min(job.remaining);
                }
                done
            });
            for job in done {
                self.jobs_done += 1;
                job.waker.wake();
            }
            self.least = least;
        }
    }

    /// Seconds until the first job completes at the current share.
    /// Dividing by a positive rate is monotone, rounding included, so
    /// the least quotient is the quotient of the least remainder.
    fn horizon(&self) -> f64 {
        self.least / self.share()
    }

    /// Schedule the next completion event. The re-arm runs on every
    /// job join/leave, so it is allocation-free: the timer body is an
    /// `Rc` clone carried by a dedicated calendar variant, a live timer
    /// is moved in place, and cancellation is a direct slab vacate.
    fn reschedule(&mut self, me: &Rc<RefCell<FsState>>, t: SimTime) {
        if self.jobs.is_empty() {
            if let Some((kernel, seq, slot)) = self.pending.take() {
                // The vacated body is just an `Rc<RefCell<FsState>>`
                // clone; dropping it under our own borrow is fine (no
                // destructor re-enters this RefCell).
                vacate_event(kernel, seq, slot);
            }
            return;
        }
        let horizon = self.horizon();
        assert!(
            horizon.is_finite(),
            "FairShare stalled: all jobs have zero rate"
        );
        // `from_secs_f64` rounds to the nearest nanosecond; only a zero
        // becomes 1 ns, so virtual time always advances.
        let mut dt = SimDuration::from_secs_f64(horizon);
        if dt.is_zero() {
            dt = SimDuration::from_nanos(1);
        }
        let at = t + dt;
        let pending = self.pending.take();
        self.pending = Some(with_kernel(|k| k.arm_fs_timer(pending, at, me)));
    }
}

/// Executor hook: a [`FsState`] completion timer fired. Returns whether
/// the timer was still live (a stale seq means a reschedule superseded
/// it after its body was drained into the dispatch batch — the event
/// must not count as fired, matching the unbatched executor, which
/// skipped vacated slots before delivery).
pub(crate) fn fs_timer_fired(fs: Rc<RefCell<FsState>>, seq: u64) -> bool {
    let t = now();
    let mut st = fs.borrow_mut();
    match st.pending {
        Some((_, s, _)) if s == seq => {}
        _ => return false,
    }
    st.pending = None;
    st.settle(t);
    st.reschedule(&fs, t);
    true
}

/// Future returned by [`FairShare::serve`].
pub struct FsServe {
    fs: Rc<RefCell<FsState>>,
    work: f64,
    /// Id of the registered job; `None` until first poll.
    job: Option<u64>,
}

impl Future for FsServe {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        match this.job {
            None => {
                if this.work <= 0.0 {
                    return Poll::Ready(());
                }
                let t = now();
                let mut st = this.fs.borrow_mut();
                st.settle(t);
                let id = st.join(this.work, cx.waker().clone());
                st.reschedule(&this.fs, t);
                drop(st);
                this.job = Some(id);
                Poll::Pending
            }
            Some(id) => {
                let mut st = this.fs.borrow_mut();
                match st.jobs.binary_search_by_key(&id, |j| j.id) {
                    Ok(i) => {
                        // Keep the stored waker current (a cheap
                        // vtable-aware clone_from; no allocation).
                        st.jobs[i].waker.clone_from(cx.waker());
                        Poll::Pending
                    }
                    Err(_) => Poll::Ready(()),
                }
            }
        }
    }
}

/// A precomputed round-robin dispatch schedule over a channel group.
///
/// Multi-channel device models pick a channel per command in issue
/// order. The cycle is laid out once at construction (today the
/// identity rotation `0..n`; the table is the extension point for
/// weighted or striped schedules), so the steady-state pick is a table
/// read plus a compare-and-wrap — no modulo and no `RefCell` borrow on
/// the hot path. Clones share the cursor, matching device handles that
/// share the underlying hardware.
#[derive(Clone)]
pub struct RoundRobin {
    inner: Rc<RrInner>,
}

struct RrInner {
    schedule: Box<[u32]>,
    cursor: Cell<u32>,
}

impl RoundRobin {
    /// The identity rotation over `n` channels.
    pub fn new(n: usize) -> Self {
        Self::from_schedule((0..n as u32).collect())
    }

    /// A custom dispatch cycle (entries are channel indices).
    pub fn from_schedule(schedule: Vec<u32>) -> Self {
        assert!(!schedule.is_empty(), "empty dispatch schedule");
        RoundRobin {
            inner: Rc::new(RrInner {
                schedule: schedule.into_boxed_slice(),
                cursor: Cell::new(0),
            }),
        }
    }

    /// Next channel in the cycle.
    pub fn next(&self) -> usize {
        let c = self.inner.cursor.get();
        let pick = self.inner.schedule[c as usize];
        let c1 = c + 1;
        self.inner
            .cursor
            .set(if c1 as usize == self.inner.schedule.len() {
                0
            } else {
                c1
            });
        pick as usize
    }

    /// Length of the dispatch cycle.
    pub fn cycle_len(&self) -> usize {
        self.inner.schedule.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run, sleep, spawn};

    #[test]
    fn fifo_server_serialises_jobs() {
        let end = run(async {
            let srv = FifoServer::new(1);
            let mut hs = Vec::new();
            for _ in 0..4 {
                let srv = srv.clone();
                hs.push(spawn(async move {
                    srv.serve(SimDuration::from_secs(2)).await;
                }));
            }
            for h in hs {
                h.await;
            }
            let st = srv.stats();
            assert_eq!(st.jobs, 4);
            assert_eq!(st.busy.as_secs_f64(), 8.0);
            // Jobs 2..4 queued 2,4,6 seconds respectively.
            assert_eq!(st.queued.as_secs_f64(), 12.0);
            now().as_secs_f64()
        });
        assert_eq!(end, 8.0);
    }

    #[test]
    fn fifo_server_parallelism() {
        let end = run(async {
            let srv = FifoServer::new(2);
            let mut hs = Vec::new();
            for _ in 0..4 {
                let srv = srv.clone();
                hs.push(spawn(async move {
                    srv.serve(SimDuration::from_secs(2)).await;
                }));
            }
            for h in hs {
                h.await;
            }
            now().as_secs_f64()
        });
        assert_eq!(end, 4.0);
    }

    #[test]
    fn fair_share_single_job_runs_at_full_rate() {
        let end = run(async {
            let link = FairShare::new(100.0);
            link.serve(500.0).await;
            now().as_secs_f64()
        });
        assert!((end - 5.0).abs() < 1e-6, "end={end}");
    }

    #[test]
    fn fair_share_two_equal_jobs_halve_throughput() {
        let (t1, t2) = run(async {
            let link = FairShare::new(100.0);
            let l1 = link.clone();
            let h1 = spawn(async move {
                l1.serve(500.0).await;
                now().as_secs_f64()
            });
            let l2 = link.clone();
            let h2 = spawn(async move {
                l2.serve(500.0).await;
                now().as_secs_f64()
            });
            (h1.await, h2.await)
        });
        // Both active the whole time: each gets 50 u/s → 10 s.
        assert!((t1 - 10.0).abs() < 1e-6, "t1={t1}");
        assert!((t2 - 10.0).abs() < 1e-6, "t2={t2}");
    }

    #[test]
    fn fair_share_late_arrival_shares_remaining() {
        let (t1, t2) = run(async {
            let link = FairShare::new(100.0);
            let l1 = link.clone();
            let h1 = spawn(async move {
                l1.serve(1000.0).await;
                now().as_secs_f64()
            });
            let l2 = link.clone();
            let h2 = spawn(async move {
                sleep(SimDuration::from_secs(5)).await;
                l2.serve(250.0).await;
                now().as_secs_f64()
            });
            (h1.await, h2.await)
        });
        // Job1 alone 0-5s (500 done). From t=5 both at 50 u/s; job2
        // finishes at t=10 (250 done), job1 has 250 left at 100 u/s → 12.5.
        assert!((t2 - 10.0).abs() < 1e-5, "t2={t2}");
        assert!((t1 - 12.5).abs() < 1e-5, "t1={t1}");
    }

    #[test]
    fn fair_share_zero_work_is_instant() {
        run(async {
            let link = FairShare::new(1.0);
            link.serve(0.0).await;
            assert_eq!(now(), SimTime::ZERO);
            assert_eq!(link.jobs_done(), 0);
        });
    }

    /// The fair share spelled out, for the production passes to be
    /// held against: one division per job for the horizon, every job
    /// tried for completion at every settle, the least remainder found
    /// by a scan.
    struct Reference {
        rate: f64,
        /// `(id, remaining)` in join order.
        jobs: Vec<(u64, f64)>,
        last_settle: SimTime,
        work_done: f64,
        done: Vec<u64>,
    }

    impl Reference {
        fn rate(&self) -> f64 {
            self.rate / self.jobs.len() as f64
        }

        fn settle(&mut self, to: SimTime) {
            let dt = to.since(self.last_settle).as_secs_f64();
            self.last_settle = to;
            if dt > 0.0 {
                let r = self.rate();
                for job in &mut self.jobs {
                    let used = (r * dt).min(job.1);
                    job.1 -= used;
                    self.work_done += used;
                }
            }
            let (done, live) = self.jobs.iter().partition(|j| j.1 <= WORK_EPS);
            self.jobs = live;
            self.done.extend(done.iter().map(|j: &(u64, f64)| j.0));
        }

        fn horizon(&self) -> f64 {
            let r = self.rate();
            let per_job = self.jobs.iter().map(|j| j.1 / r);
            per_job.fold(f64::INFINITY, f64::min)
        }

        fn least(&self) -> f64 {
            self.jobs.iter().map(|j| j.1).fold(f64::INFINITY, f64::min)
        }
    }

    /// Records the id of the job it is woken for.
    struct Completion(u64, std::sync::Arc<std::sync::Mutex<Vec<u64>>>);

    impl std::task::Wake for Completion {
        fn wake(self: std::sync::Arc<Self>) {
            self.1.lock().unwrap().push(self.0);
        }
    }

    proptest::proptest! {
        /// One division per reschedule, a kept least remainder and a
        /// completion sweep only when due change nothing: over random
        /// job mixes — work from nothing and `WORK_EPS` to millions of
        /// units — joining alone or up to 64 at one instant, at the
        /// instant of a settle or between two, and time stepped to the
        /// horizon or short of it, the least remainder, the horizon,
        /// every job's remaining work and the work done agree bit for
        /// bit with the per-job-division reference after every join
        /// and every step, and jobs complete in the same order. Bursts
        /// of tiny jobs empty the job list and refill it.
        #[test]
        fn fair_share_passes_match_the_per_job_reference(
            works in proptest::collection::vec((0u8..5, 0.0f64..1.0), 1..400),
            steps in proptest::collection::vec((0u8..5, 0.0f64..1.0, 1usize..65), 1..120),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let rate = 256.0;
            let mut works = works.into_iter().map(|(scale, work)| {
                [1e-6 * work, WORK_EPS, 1.0 + work, 1e3 * (work + 0.01), 1e7 * work + 1e-9][scale as usize]
            });
            let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut real = FsState::new(rate);
            let mut reference = Reference {
                rate,
                jobs: Vec::new(),
                last_settle: SimTime::ZERO,
                work_done: 0.0,
                done: Vec::new(),
            };
            for (kind, frac, burst) in steps {
                let mut to = real.last_settle;
                if !real.jobs.is_empty() {
                    let horizon = real.horizon();
                    prop_assert_eq!(horizon.to_bits(), reference.horizon().to_bits());
                    prop_assert!(horizon.is_finite());
                    // Kinds 0 and 1 bring a job, at this instant or
                    // short of the horizon; 2 and 3 are the timer, which
                    // always moves time on, at the horizon or short of
                    // it; 4 brings a burst short of the horizon.
                    let dt = [0.0, horizon * frac, horizon, horizon * frac, horizon * frac][kind as usize];
                    let least = SimDuration::from_nanos(u64::from(kind == 2 || kind == 3));
                    to += SimDuration::from_secs_f64(dt).max(least);
                }
                real.settle(to);
                reference.settle(to);
                let joins = [1, 1, 0, 0, burst][kind as usize];
                for work in works.by_ref().take(joins) {
                    // Each join settles at its instant first, as
                    // `FsServe` does.
                    real.settle(to);
                    reference.settle(to);
                    let id = real.next_job;
                    let waker = Waker::from(std::sync::Arc::new(Completion(id, log.clone())));
                    prop_assert_eq!(real.join(work, waker), id);
                    reference.jobs.push((id, work));
                    prop_assert_eq!(real.least.to_bits(), reference.least().to_bits());
                    prop_assert_eq!(real.horizon().to_bits(), reference.horizon().to_bits());
                }
                let state = |jobs: &mut dyn Iterator<Item = (u64, f64)>| -> Vec<(u64, u64)> {
                    jobs.map(|(id, remaining)| (id, remaining.to_bits())).collect()
                };
                prop_assert_eq!(
                    state(&mut real.jobs.iter().map(|j| (j.id, j.remaining))),
                    state(&mut reference.jobs.iter().copied())
                );
                prop_assert_eq!(real.least.to_bits(), reference.least().to_bits());
                prop_assert_eq!(real.work_done.to_bits(), reference.work_done.to_bits());
                prop_assert_eq!(&*log.lock().unwrap(), &reference.done);
                prop_assert_eq!(real.jobs_done, reference.done.len() as u64);
            }
        }
    }

    #[test]
    fn round_robin_cycles_deterministically_and_shares_cursor() {
        let rr = RoundRobin::new(3);
        let rr2 = rr.clone();
        let picks: Vec<usize> = (0..7)
            .map(|i| if i % 2 == 0 { rr.next() } else { rr2.next() })
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(rr.cycle_len(), 3);
    }

    #[test]
    fn fair_share_counters() {
        run(async {
            let link = FairShare::new(10.0);
            link.serve(30.0).await;
            link.serve(20.0).await;
            assert_eq!(link.jobs_done(), 2);
            assert!((link.work_done() - 50.0).abs() < 1e-6);
            assert_eq!(link.active(), 0);
        });
    }
}
