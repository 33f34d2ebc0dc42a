//! Queueing resources: the building blocks for device and network models.
//!
//! Two service disciplines are provided:
//!
//! * [`FifoServer`] — `k` identical servers, one job at a time each,
//!   FIFO queue. Matches request-at-a-time devices (a disk head, an RPC
//!   handler thread).
//! * [`FairShare`] — a capacity shared among all in-flight jobs
//!   (processor sharing), with optional per-job rate caps resolved by
//!   water-filling. Matches links and storage targets where concurrent
//!   streams split bandwidth.

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
    cap: Option<f64>,
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
    /// Whether some job may be down to `WORK_EPS`: a settle saw one
    /// get there, or one joined with no more than that. The completion
    /// sweep has nothing to find otherwise.
    any_done: bool,
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
    /// Scratch for the general (mixed-caps) water-fill; reused across
    /// settles so the steady state allocates nothing.
    rates: Vec<f64>,
    open: Vec<u32>,
    open_next: Vec<u32>,
}

/// A processor-sharing resource of fixed total capacity (work units per
/// second — typically bytes/s).
///
/// All in-flight jobs progress simultaneously, each at the water-filling
/// fair share of the capacity subject to its optional per-job rate cap.
#[derive(Clone)]
pub struct FairShare {
    inner: Rc<RefCell<FsState>>,
}

impl FairShare {
    /// Create a resource with total capacity `rate` work-units/second.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "FairShare capacity must be positive");
        FairShare {
            inner: Rc::new(RefCell::new(FsState {
                rate,
                jobs: Vec::new(),
                any_done: false,
                last_settle: SimTime::ZERO,
                pending: None,
                next_job: 0,
                work_done: 0.0,
                jobs_done: 0,
                rates: Vec::new(),
                open: Vec::new(),
                open_next: Vec::new(),
            })),
        }
    }

    /// Process `work` units, sharing capacity with concurrent jobs.
    pub fn serve(&self, work: f64) -> FsServe {
        self.serve_capped(work, None)
    }

    /// Process `work` units, never exceeding `cap` units/second for this
    /// job even when spare capacity exists.
    ///
    /// The returned future registers the job at its first poll (like
    /// any lazy future) and completes when the job's work has drained.
    /// Dropping the future after the first poll does *not* withdraw the
    /// job: the transfer keeps consuming bandwidth to completion, which
    /// is how crash-kill of a client mid-transfer is modelled.
    pub fn serve_capped(&self, work: f64, cap: Option<f64>) -> FsServe {
        FsServe {
            fs: Rc::clone(&self.inner),
            work,
            cap,
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
    /// Per-job service rates under water-filling fair sharing.
    ///
    /// Returns `Some(r)` — the **bulk fast path** — when every active
    /// job has the same cap, which is the shape every collective
    /// shuffle round produces (N identical streams joining and leaving
    /// together): the allocation is then the single analytic value
    /// `min(cap, rate/n)` instead of an O(active) water-fill. The
    /// expressions are the very ones [`water_fill`]'s first round
    /// evaluates, so the fast path is bit-identical to the oracle.
    ///
    /// Returns `None` for mixed caps, with `self.rates` filled by a
    /// scratch-buffer water-fill (same arithmetic, same order, no
    /// allocation in steady state).
    fn compute_rates(&mut self) -> Option<f64> {
        let n = self.jobs.len();
        debug_assert!(n > 0);
        let share = self.rate / n as f64;
        let cap0 = self.jobs[0].cap;
        if self.jobs.iter().all(|j| j.cap == cap0) {
            return Some(match cap0 {
                Some(c) if c < share => c,
                _ => share,
            });
        }
        let FsState {
            rate,
            jobs,
            rates,
            open,
            open_next,
            ..
        } = self;
        rates.clear();
        rates.resize(n, 0.0);
        open.clear();
        open.extend(0..n as u32);
        let mut remaining = *rate;
        loop {
            let share = remaining / open.len() as f64;
            open_next.clear();
            let mut any_capped = false;
            // Cap everyone whose limit is below the current equal
            // share; subtraction order matches `water_fill`'s
            // partition order (both preserve job order).
            for &i in open.iter() {
                match jobs[i as usize].cap {
                    Some(c) if c < share => {
                        rates[i as usize] = c;
                        remaining -= c;
                        any_capped = true;
                    }
                    _ => open_next.push(i),
                }
            }
            if !any_capped {
                for &i in open_next.iter() {
                    rates[i as usize] = share;
                }
                break;
            }
            if open_next.is_empty() {
                break;
            }
            std::mem::swap(open, open_next);
        }
        None
    }

    /// Register a job of `work` units; returns its id.
    fn join(&mut self, work: f64, cap: Option<f64>, waker: Waker) -> u64 {
        let id = self.next_job;
        self.next_job += 1;
        self.any_done |= work <= WORK_EPS;
        self.jobs.push(FsJob {
            id,
            remaining: work,
            cap,
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
            let uniform = self.compute_rates();
            let FsState {
                jobs,
                rates,
                work_done,
                any_done,
                ..
            } = self;
            let mut advance = |job: &mut FsJob, r: f64| {
                let step = r * dt;
                let used = step.min(job.remaining);
                job.remaining -= used;
                *work_done += used;
                *any_done |= job.remaining <= WORK_EPS;
            };
            match uniform {
                Some(r) => jobs.iter_mut().for_each(|job| advance(job, r)),
                None => (jobs.iter_mut().zip(rates.iter())).for_each(|(job, &r)| advance(job, r)),
            }
        }
        // Complete finished jobs (preserving order for determinism).
        if std::mem::take(&mut self.any_done) {
            for job in self.jobs.extract_if(.., |job| job.remaining <= WORK_EPS) {
                self.jobs_done += 1;
                job.waker.wake();
            }
        }
    }

    /// Seconds until the first job completes at the current rates.
    fn horizon(&mut self) -> f64 {
        let mut horizon = f64::INFINITY;
        match self.compute_rates() {
            // Dividing by a positive rate is monotone, rounding
            // included, so the least quotient is the quotient of the
            // least remainder: one division, not one per job.
            Some(r) => {
                if r > 0.0 {
                    let least = self.jobs.iter().map(|job| job.remaining);
                    horizon = least.fold(horizon, f64::min) / r;
                }
            }
            None => {
                for (job, r) in self.jobs.iter().zip(self.rates.iter()) {
                    if *r > 0.0 {
                        horizon = horizon.min(job.remaining / r);
                    }
                }
            }
        }
        horizon
    }

    /// Schedule the next completion event. The cancel + re-arm cycle
    /// runs on every job join/leave, so it is allocation-free: the
    /// timer body is an `Rc` clone carried by a dedicated calendar
    /// variant, and cancellation is a direct slab vacate.
    fn reschedule(&mut self, me: &Rc<RefCell<FsState>>, t: SimTime) {
        if let Some((kernel, seq, slot)) = self.pending.take() {
            // The vacated body is just an `Rc<RefCell<FsState>>`
            // clone; dropping it under our own borrow is fine (no
            // destructor re-enters this RefCell).
            vacate_event(kernel, seq, slot);
        }
        if self.jobs.is_empty() {
            return;
        }
        let horizon = self.horizon();
        assert!(
            horizon.is_finite(),
            "FairShare stalled: all jobs have zero rate"
        );
        // Round up to a whole nanosecond so virtual time always advances.
        let mut dt = SimDuration::from_secs_f64(horizon);
        if dt.is_zero() {
            dt = SimDuration::from_nanos(1);
        }
        let at = t + dt;
        self.pending = Some(with_kernel(|k| k.schedule_fs_timer(at, Rc::clone(me))));
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

/// Future returned by [`FairShare::serve`] / [`FairShare::serve_capped`].
pub struct FsServe {
    fs: Rc<RefCell<FsState>>,
    work: f64,
    cap: Option<f64>,
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
                let id = st.join(this.work, this.cap, cx.waker().clone());
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

/// Water-filling allocation: distribute `total` capacity over jobs with
/// optional caps so every job gets `min(cap, fair share)`, with spare
/// capacity from capped jobs re-distributed among the rest.
pub fn water_fill(total: f64, caps: &[Option<f64>]) -> Vec<f64> {
    let n = caps.len();
    let mut rates = vec![0.0; n];
    if n == 0 {
        return rates;
    }
    let mut remaining = total;
    let mut open: Vec<usize> = (0..n).collect();
    loop {
        let share = remaining / open.len() as f64;
        // Cap everyone whose limit is below the current equal share.
        let (capped, uncapped): (Vec<usize>, Vec<usize>) = open
            .iter()
            .partition(|&&i| caps[i].is_some_and(|c| c < share));
        if capped.is_empty() {
            for &i in &open {
                rates[i] = share;
            }
            break;
        }
        for &i in &capped {
            let c = caps[i].unwrap();
            rates[i] = c;
            remaining -= c;
        }
        if uncapped.is_empty() {
            break;
        }
        open = uncapped;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run, sleep, spawn};

    #[test]
    fn water_fill_no_caps_is_equal_split() {
        let r = water_fill(12.0, &[None, None, None]);
        assert_eq!(r, vec![4.0, 4.0, 4.0]);
    }

    #[test]
    fn water_fill_redistributes_capped_slack() {
        let r = water_fill(12.0, &[Some(2.0), None, None]);
        assert_eq!(r, vec![2.0, 5.0, 5.0]);
    }

    #[test]
    fn water_fill_all_capped_below_share() {
        let r = water_fill(100.0, &[Some(1.0), Some(2.0)]);
        assert_eq!(r, vec![1.0, 2.0]);
    }

    #[test]
    fn water_fill_empty() {
        assert!(water_fill(5.0, &[]).is_empty());
    }

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
    fn fair_share_respects_per_job_cap() {
        let end = run(async {
            let link = FairShare::new(1000.0);
            link.serve_capped(100.0, Some(10.0)).await;
            now().as_secs_f64()
        });
        assert!((end - 10.0).abs() < 1e-6, "end={end}");
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

    /// Build a probe state with the given caps (work amounts are
    /// irrelevant to rate computation).
    fn probe_state(rate: f64, caps: &[Option<f64>]) -> FsState {
        FsState {
            rate,
            jobs: caps
                .iter()
                .enumerate()
                .map(|(i, &cap)| FsJob {
                    id: i as u64,
                    remaining: 1.0,
                    cap,
                    waker: Waker::noop().clone(),
                })
                .collect(),
            any_done: false,
            last_settle: SimTime::ZERO,
            pending: None,
            next_job: caps.len() as u64,
            work_done: 0.0,
            jobs_done: 0,
            rates: Vec::new(),
            open: Vec::new(),
            open_next: Vec::new(),
        }
    }

    #[test]
    fn compute_rates_is_bit_identical_to_water_fill_oracle() {
        // Random join/leave sequences over a mixed cap population: at
        // every step the incremental computation (fast path or scratch
        // water-fill) must match the allocating oracle bit for bit —
        // this is the property that keeps every committed golden
        // byte-identical across the fast-path rewrite.
        let mut rng = crate::rng::SimRng::new(0xE10);
        let mut caps: Vec<Option<f64>> = Vec::new();
        let total = 256.0;
        let mut fast = 0u32;
        let mut general = 0u32;
        // Phase 1: uniform populations — the shape every shuffle round
        // produces — must take the O(1) path and still match the oracle.
        for step in 0..300 {
            let n = 1 + rng.below(32) as usize;
            let cap = match rng.below(4) {
                0 => None,
                1 => Some(64.0),
                2 => Some(1e9),
                _ => Some(rng.uniform_range(0.1, 90.0)),
            };
            let uniform = vec![cap; n];
            let oracle = water_fill(total, &uniform);
            let mut st = probe_state(total, &uniform);
            let r = st
                .compute_rates()
                .unwrap_or_else(|| panic!("uniform caps {cap:?} x{n} must take the fast path"));
            fast += 1;
            for (i, o) in oracle.iter().enumerate() {
                assert_eq!(
                    r.to_bits(),
                    o.to_bits(),
                    "fast path diverged at uniform step {step}, job {i}: {r} vs {o}"
                );
            }
        }
        // Phase 2: random join/leave walk over a mixed cap population.
        for step in 0..2_000 {
            if caps.is_empty() || rng.below(100) < 55 {
                caps.push(match rng.below(4) {
                    0 => None,
                    // A uniform candidate below and above the share.
                    1 => Some(64.0),
                    2 => Some(1e9),
                    _ => Some(rng.uniform_range(0.1, 90.0)),
                });
            } else {
                let i = rng.below(caps.len() as u64) as usize;
                caps.remove(i);
            }
            if caps.is_empty() {
                continue;
            }
            let oracle = water_fill(total, &caps);
            let mut st = probe_state(total, &caps);
            match st.compute_rates() {
                Some(r) => {
                    fast += 1;
                    for (i, o) in oracle.iter().enumerate() {
                        assert_eq!(
                            r.to_bits(),
                            o.to_bits(),
                            "fast path diverged at step {step}, job {i}: {r} vs {o} (caps {caps:?})"
                        );
                    }
                }
                None => {
                    general += 1;
                    assert_eq!(st.rates.len(), oracle.len());
                    for (i, (a, o)) in st.rates.iter().zip(&oracle).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            o.to_bits(),
                            "water-fill scratch diverged at step {step}, job {i}: {a} vs {o} (caps {caps:?})"
                        );
                    }
                }
            }
        }
        // The sequence must actually exercise both paths.
        assert!(fast > 100, "fast path untested ({fast})");
        assert!(general > 100, "general path untested ({general})");
    }

    #[test]
    fn uniform_caps_fast_path_applies_to_identical_streams() {
        // The shape every shuffle round produces: N identical streams.
        for cap in [None, Some(10.0), Some(1e9)] {
            let mut st = probe_state(100.0, &[cap; 8]);
            assert!(
                st.compute_rates().is_some(),
                "identical caps {cap:?} must take the O(1) path"
            );
        }
        let mut st = probe_state(100.0, &[Some(10.0), None]);
        assert!(st.compute_rates().is_none(), "mixed caps need water-fill");
    }

    /// The fair share spelled out, for the production passes to be
    /// held against: rates from the allocating [`water_fill`] oracle,
    /// one division per job for the horizon, every job tried for
    /// completion at every settle.
    struct Reference {
        rate: f64,
        /// `(id, remaining, cap)` in join order.
        jobs: Vec<(u64, f64, Option<f64>)>,
        last_settle: SimTime,
        work_done: f64,
        done: Vec<u64>,
    }

    impl Reference {
        fn rates(&self) -> Vec<f64> {
            let caps: Vec<_> = self.jobs.iter().map(|j| j.2).collect();
            water_fill(self.rate, &caps)
        }

        fn settle(&mut self, to: SimTime) {
            let dt = to.since(self.last_settle).as_secs_f64();
            self.last_settle = to;
            if dt > 0.0 {
                let rates = self.rates();
                for (job, r) in self.jobs.iter_mut().zip(rates) {
                    let used = (r * dt).min(job.1);
                    job.1 -= used;
                    self.work_done += used;
                }
            }
            let (done, live) = self.jobs.iter().partition(|j| j.1 <= WORK_EPS);
            self.jobs = live;
            self.done.extend(done.iter().map(|j: &(u64, f64, _)| j.0));
        }

        fn horizon(&self) -> f64 {
            let per_job = self.jobs.iter().zip(self.rates());
            let finite = per_job.filter(|&(_, r)| r > 0.0).map(|(j, r)| j.1 / r);
            finite.fold(f64::INFINITY, f64::min)
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
        /// One division per reschedule and a completion sweep only
        /// when due change nothing: over random job mixes — uniform
        /// caps (the single-rate path) and mixed ones, work from below
        /// `WORK_EPS` to millions of units — joining at the instant of
        /// a settle or between two, and time stepped to the horizon or
        /// short of it, the horizon, every job's remaining work and
        /// the work done agree bit for bit with the per-job-division
        /// reference after every step, and jobs complete in the same
        /// order.
        #[test]
        fn fair_share_passes_match_the_per_job_reference(
            uniform in proptest::any::<bool>(),
            jobs in proptest::collection::vec((0u8..4, 0.0f64..1.0, 0u8..4, 0.1f64..90.0), 1..40),
            steps in proptest::collection::vec((0u8..4, 0.0f64..1.0), 1..120),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let rate = 256.0;
            let mut jobs = jobs.into_iter().map(|(scale, work, kind, cap)| {
                let work = [1e-6 * work, 1.0 + work, 1e3 * (work + 0.01), 1e7 * work + 1e-9][scale as usize];
                let cap = [None, Some(64.0), Some(1e9), Some(cap)][if uniform { 1 } else { kind as usize }];
                (work, cap)
            });
            let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut real = probe_state(rate, &[]);
            let mut reference = Reference {
                rate,
                jobs: Vec::new(),
                last_settle: SimTime::ZERO,
                work_done: 0.0,
                done: Vec::new(),
            };
            for (kind, frac) in steps {
                let mut to = real.last_settle;
                if !real.jobs.is_empty() {
                    let horizon = real.horizon();
                    prop_assert_eq!(horizon.to_bits(), reference.horizon().to_bits());
                    prop_assert!(horizon.is_finite());
                    // Kinds 0 and 1 bring a job, at this instant or
                    // short of the horizon; 2 and 3 are the timer, which
                    // always moves time on, at the horizon or short of it.
                    let dt = [0.0, horizon * frac, horizon, horizon * frac][kind as usize];
                    let least = SimDuration::from_nanos(u64::from(kind >= 2));
                    to += SimDuration::from_secs_f64(dt).max(least);
                }
                real.settle(to);
                reference.settle(to);
                if let Some((work, cap)) = (kind < 2).then(|| jobs.next()).flatten() {
                    let id = real.next_job;
                    let waker = Waker::from(std::sync::Arc::new(Completion(id, log.clone())));
                    prop_assert_eq!(real.join(work, cap, waker), id);
                    reference.jobs.push((id, work, cap));
                }
                let state = |jobs: &mut dyn Iterator<Item = (u64, f64)>| -> Vec<(u64, u64)> {
                    jobs.map(|(id, remaining)| (id, remaining.to_bits())).collect()
                };
                prop_assert_eq!(
                    state(&mut real.jobs.iter().map(|j| (j.id, j.remaining))),
                    state(&mut reference.jobs.iter().map(|j| (j.0, j.1)))
                );
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
