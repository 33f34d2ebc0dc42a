//! Per-node cache arbiter: multi-tenant admission, watermark eviction
//! and fair flush scheduling for the node-local cache.
//!
//! The paper assumes one application owns each node-local SSD. On a
//! shared system many jobs stage through the same device, so each
//! volume carries exactly one [`CacheArbiter`] (attached to the
//! [`LocalFs`] via [`LocalFs::attachment`]) that every managed
//! [`crate::cache::CacheLayer`] on the node registers with. It keeps
//! one record per managed job (a *tenant*) and, per eviction
//! candidate, a weak handle on the cache volume that can evict it:
//!
//! * **Admission.** A job that opted in via `e10_cache_hiwater` gets a
//!   reservation of `capacity * hiwater% / managed_jobs` staged bytes.
//!   Exceeding it permanently degrades the job to write-through
//!   (reusing the cache layer's degrade path). Independently, when
//!   volume occupancy would cross the high watermark the arbiter trips
//!   a pressure latch and refuses admissions (per write, not
//!   permanently) until eviction drains occupancy below the low
//!   watermark — classic hysteresis so the cache doesn't thrash at the
//!   boundary.
//! * **Eviction.** Only extents that are fully synced to the global
//!   file are candidates; their volumes evict them in
//!   least-recently-synced order until occupancy reaches the target. A
//!   synced chunk replaces the candidates it overlaps; a rewrite
//!   overlapping a candidate invalidates it (its bytes are dirty
//!   again), and the cache volume never offers a chunk a write staged
//!   over during its sync. Eviction writes nothing to the volume's
//!   journal: the `Synced` record that made the range a candidate
//!   already keeps it out of recovery.
//! * **Fair flush.** When two or more watermark-managed jobs share the
//!   node, sync-thread chunks pass through a deficit-round-robin gate:
//!   one chunk in flight per node, byte-accounted deficits per job, so
//!   a large job cannot starve a small one's flush path. With fewer
//!   than two managed jobs the gate is a no-op, preserving the exact
//!   single-tenant timing of the committed baselines.
//!
//! Watermarks default to 0 (disabled): a job that never sets
//! `e10_cache_hiwater` never registers, so it is never refused, metered
//! or evicted by the arbiter, and falls back to the pre-existing
//! `fallocate`/`ENOSPC` degrade behaviour.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use e10_localfs::LocalFs;
use e10_netsim::NodeId;
use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_simcore::{channel, Sender};

use crate::cache::Volume;

/// The family of a file name or path: one trailing `.<digits>` is
/// stripped (`chk.3` → `chk`, `/gfs/chk.3` → `/gfs/chk`), so the
/// phase-numbered files of one application stream share a family. It
/// is a cache file's tenant identity here and the key of MPIWRAP's
/// close-on-reopen rule.
pub fn job_family(name: &str) -> &str {
    match name.rsplit_once('.') {
        Some((stem, suffix))
            if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) =>
        {
            stem
        }
        _ => name,
    }
}

/// Verdict of [`CacheArbiter::admit`] for one cache write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Stage the extent in the node-local cache.
    Granted,
    /// Write through this extent (watermark pressure); later writes may
    /// be admitted again once occupancy drains.
    Refused,
    /// The job's staged-byte reservation is exhausted: degrade the job
    /// to write-through for the rest of its run.
    Exhausted,
}

/// One managed job on the node: its reservation state and its place
/// in the fair-flush ring (the ring order is registration order).
#[derive(Default)]
struct Tenant {
    /// The job family ([`job_family`]) later registrations look up.
    name: String,
    /// Open cache files registered under this job.
    files_open: usize,
    /// Bytes currently staged (resident in cache files) for this job.
    staged: u64,
    /// High watermark, percent of volume capacity.
    hi: u64,
    /// Low watermark, percent; refused admissions resume below it.
    lo: u64,
    /// Hysteresis latch: tripped at `hi`, cleared below `lo`.
    pressure: bool,
    /// Sync chunks waiting for a fair-flush grant, and the job's
    /// deficit-round-robin credit.
    queue: VecDeque<Waiter>,
    deficit: u64,
}

/// A fully-synced extent of a cache volume that may be punched under
/// pressure. Weak: the volume holds this arbiter, so a strong handle
/// here would be a reference cycle.
struct Evictable {
    vol: Weak<Volume>,
    offset: u64,
    len: u64,
}

struct Waiter {
    len: u64,
    tx: Sender<()>,
}

/// Per-node multi-tenant cache arbiter. One instance per `LocalFs`
/// volume, obtained with [`CacheArbiter::of`].
pub struct CacheArbiter {
    /// Detached: the volume's attachment slot owns this arbiter.
    localfs: LocalFs,
    node: Cell<NodeId>,
    /// Managed jobs, indexed by the tenant id [`CacheArbiter::register`]
    /// returns.
    tenants: RefCell<Vec<Tenant>>,
    /// Synced extents in least-recently-synced order.
    evictable: RefCell<VecDeque<Evictable>>,
    /// Per-visit deficit replenishment; kept at least as large as any
    /// queued chunk so every job is served within one rotation.
    quantum: Cell<u64>,
    /// The fair-flush ring's position.
    cursor: Cell<usize>,
    /// True when the cursor just arrived at its tenant from elsewhere —
    /// deficits replenish only on arrival, otherwise one job could pump
    /// its own deficit indefinitely.
    fresh: Cell<bool>,
    /// One sync chunk in flight per node when metering is engaged.
    inflight: Cell<bool>,
    admitted: Cell<u64>,
    refused: Cell<u64>,
    evicted: Cell<u64>,
    degrades: Cell<u64>,
}

impl CacheArbiter {
    pub fn new(localfs: &LocalFs) -> CacheArbiter {
        CacheArbiter {
            localfs: localfs.detached(),
            node: Cell::new(0),
            tenants: RefCell::new(Vec::new()),
            evictable: RefCell::new(VecDeque::new()),
            quantum: Cell::new(512 << 10),
            cursor: Cell::new(0),
            fresh: Cell::new(true),
            inflight: Cell::new(false),
            admitted: Cell::new(0),
            refused: Cell::new(0),
            evicted: Cell::new(0),
            degrades: Cell::new(0),
        }
    }

    /// The volume's arbiter, created on first use and shared by every
    /// cache layer whose `LocalFs` clones this volume.
    pub fn of(localfs: &LocalFs) -> Rc<CacheArbiter> {
        localfs.attachment(|| CacheArbiter::new(localfs))
    }

    /// Register one open cache file of the managed job `job`
    /// (`hiwater > 0`) and return the job's tenant id. `chunk` (the
    /// layer's `ind_wr_buffer_size`) seeds the fair-share quantum.
    pub fn register(
        &self,
        job: &str,
        hiwater: u64,
        lowater: u64,
        chunk: u64,
        node: NodeId,
    ) -> usize {
        debug_assert!(hiwater > 0, "only managed caches register");
        self.node.set(node);
        self.quantum.set(self.quantum.get().max(chunk.max(1)));
        let mut tenants = self.tenants.borrow_mut();
        let t = match tenants.iter().position(|t| t.name == job) {
            Some(t) => t,
            None => {
                let name = job.to_string();
                tenants.push(Tenant {
                    name,
                    ..Default::default()
                });
                tenants.len() - 1
            }
        };
        let st = &mut tenants[t];
        st.files_open += 1;
        st.hi = hiwater;
        st.lo = if lowater == 0 { hiwater } else { lowater };
        t
    }

    /// Drop one open cache file from tenant `t`'s registration.
    pub fn unregister(&self, t: usize) {
        let st = &mut self.tenants.borrow_mut()[t];
        st.files_open = st.files_open.saturating_sub(1);
    }

    /// Bytes currently staged by tenant `t`.
    pub fn staged(&self, t: usize) -> u64 {
        self.tenants.borrow()[t].staged
    }

    /// True while tenant `t`'s pressure latch is tripped (hysteresis).
    pub fn under_pressure(&self, t: usize) -> bool {
        self.tenants.borrow()[t].pressure
    }

    /// Managed jobs with a cache file open.
    fn open_tenants(&self) -> usize {
        self.tenants
            .borrow()
            .iter()
            .filter(|t| t.files_open > 0)
            .count()
    }

    /// Synced bytes currently registered as eviction candidates.
    pub fn evictable_bytes(&self) -> u64 {
        self.evictable.borrow().iter().map(|e| e.len).sum()
    }

    /// Total bytes granted / refused / evicted, and Exhausted verdicts.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (
            self.admitted.get(),
            self.refused.get(),
            self.evicted.get(),
            self.degrades.get(),
        )
    }

    /// Decide whether one cache write of `len` bytes by tenant `t` may
    /// stage: check it against the tenant's reservation and the volume
    /// watermarks. Unmanaged caches never ask (the volume's own
    /// `ENOSPC` path backstops them), so a single-tenant run is
    /// untouched.
    pub async fn admit(&self, t: usize, len: u64) -> Admission {
        let (hi, lo, staged, pressure) = {
            let st = &self.tenants.borrow()[t];
            (st.hi, st.lo, st.staged, st.pressure)
        };
        let managed = self.open_tenants().max(1) as u64;
        let (capacity, used) = self.localfs.statfs();
        let hi_bytes = capacity * hi / 100;
        let lo_bytes = capacity * lo / 100;
        let reservation = hi_bytes / managed;
        if staged + len > reservation {
            self.degrades.set(self.degrades.get() + 1);
            trace::counter("cache.degrade", 1);
            trace::emit(|| {
                Event::new(Layer::Romio, "cache.degrade", EventKind::Point)
                    .node(self.node.get())
                    .field("staged", staged)
                    .field("reservation", reservation)
            });
            return Admission::Exhausted;
        }
        // Charge the reservation NOW, before any await: concurrent
        // writes of the same job (e.g. consecutive collective rounds
        // racing their fallocates) must each see the others' grants,
        // or they would all pass admission against the same staged
        // count. The cache layer reconciles the charge down to the
        // bytes actually allocated once its fallocate completes, and
        // the refusal path below un-charges in full.
        self.note_staged(t, len);
        let mut latched = pressure;
        if !latched && used + len > hi_bytes {
            latched = true;
            self.tenants.borrow_mut()[t].pressure = true;
            trace::emit(|| {
                Event::new(Layer::Romio, "cache.pressure", EventKind::Point)
                    .node(self.node.get())
                    .field("used", used)
                    .field("hiwater", hi_bytes)
            });
        }
        if latched {
            // Hysteresis: stay refused until eviction drains occupancy
            // (including this write) below the low watermark.
            self.evict_down_to(lo_bytes.saturating_sub(len)).await;
            let used_now = self.localfs.statfs().1;
            if used_now + len <= lo_bytes {
                self.tenants.borrow_mut()[t].pressure = false;
            } else {
                self.note_freed(t, len); // write-through: un-charge
                self.refused.set(self.refused.get() + len);
                trace::counter("cache.admit_refused", len);
                return Admission::Refused;
            }
        }
        self.admitted.set(self.admitted.get() + len);
        trace::counter("cache.admit", len);
        Admission::Granted
    }

    /// Evict least-recently-synced candidates until volume occupancy is
    /// at or below `target` bytes (or no candidates remain). Public so
    /// property tests can drive eviction schedules directly.
    pub async fn evict_down_to(&self, target: u64) {
        loop {
            if self.localfs.statfs().1 <= target {
                return;
            }
            let Some(v) = self.evictable.borrow_mut().pop_front() else {
                return;
            };
            let Some(vol) = v.vol.upgrade() else { continue };
            if vol.resident(v.offset, v.len) == 0 {
                continue;
            }
            let freed = vol.evict(v.offset, v.len).await;
            self.evicted.set(self.evicted.get() + freed);
            trace::counter("cache.evict_pressure", freed);
            trace::emit(|| {
                Event::new(Layer::Romio, "cache.evict_pressure", EventKind::Point)
                    .node(self.node.get())
                    .field("offset", v.offset)
                    .field("bytes", freed)
            });
        }
    }

    /// Account `bytes` of staging to tenant `t`.
    /// [`CacheArbiter::admit`] calls this itself on every grant
    /// (pre-charging the reservation before any await); it is public
    /// for tests that place bytes without admission.
    pub fn note_staged(&self, t: usize, bytes: u64) {
        self.tenants.borrow_mut()[t].staged += bytes;
    }

    /// Account `bytes` released from tenant `t`'s staging (punch or
    /// unlink).
    pub fn note_freed(&self, t: usize, bytes: u64) {
        let st = &mut self.tenants.borrow_mut()[t];
        st.staged = st.staged.saturating_sub(bytes);
    }

    /// Offer the fully-synced `[offset, offset+len)` of `vol` for
    /// eviction, in place of the candidates it overlaps.
    pub(crate) fn note_synced(&self, vol: &Rc<Volume>, offset: u64, len: u64) {
        self.invalidate(vol, offset, len);
        let vol = Rc::downgrade(vol);
        self.evictable
            .borrow_mut()
            .push_back(Evictable { vol, offset, len });
    }

    /// A rewrite of `[offset, offset+len)` in `vol` makes overlapping
    /// candidates dirty again — drop them (conservatively whole) so
    /// eviction can never punch unsynced bytes.
    pub(crate) fn invalidate(&self, vol: &Volume, offset: u64, len: u64) {
        let end = offset.saturating_add(len);
        self.evictable.borrow_mut().retain(|e| {
            !std::ptr::eq(e.vol.as_ptr(), vol) || e.offset + e.len <= offset || end <= e.offset
        });
    }

    /// Drop every candidate of `vol`. Must run before its cache file is
    /// unlinked: punching after unlink would double-free volume
    /// accounting.
    pub(crate) fn release_file(&self, vol: &Volume) {
        self.evictable
            .borrow_mut()
            .retain(|e| !std::ptr::eq(e.vol.as_ptr(), vol));
    }

    /// Gate one sync-thread chunk of `len` bytes of tenant `t` through
    /// the fair-share scheduler. Returns `true` when the chunk was
    /// metered — the caller must then call [`CacheArbiter::flush_end`]
    /// once the chunk completes. With fewer than two managed
    /// jobs open the gate engages nothing and returns immediately.
    pub async fn flush_begin(&self, t: usize, len: u64) -> bool {
        if self.open_tenants() < 2 {
            return false;
        }
        self.quantum.set(self.quantum.get().max(len.max(1)));
        let (tx, mut rx) = channel::<()>();
        self.tenants.borrow_mut()[t]
            .queue
            .push_back(Waiter { len, tx });
        self.pump();
        rx.recv().await;
        trace::counter("flush.fair_share", len);
        true
    }

    /// Release the in-flight token a metered chunk took and grant the
    /// next waiter.
    pub fn flush_end(&self) {
        self.inflight.set(false);
        self.pump();
    }

    /// Deficit round-robin: grant the next chunk whose job has enough
    /// deficit, replenishing by one quantum per arrival at a job. The
    /// quantum is kept ≥ every queued length, so a bounded scan of two
    /// rotations always finds a grant when one exists.
    fn pump(&self) {
        if self.inflight.get() {
            return;
        }
        let granted = {
            let mut tenants = self.tenants.borrow_mut();
            if tenants.iter().all(|t| t.queue.is_empty()) {
                return;
            }
            let n = tenants.len();
            let (mut cursor, mut fresh) = (self.cursor.get(), self.fresh.get());
            let mut granted = None;
            for _ in 0..2 * n + 2 {
                let st = &mut tenants[cursor];
                match st.queue.front().map(|w| w.len) {
                    None => st.deficit = 0,
                    Some(len) => {
                        if fresh {
                            st.deficit += self.quantum.get();
                            fresh = false;
                        }
                        if len <= st.deficit {
                            st.deficit -= len;
                            granted = st.queue.pop_front();
                            break;
                        }
                    }
                }
                cursor = (cursor + 1) % n;
                fresh = true;
            }
            self.cursor.set(cursor);
            self.fresh.set(fresh);
            granted
        };
        if let Some(w) = granted {
            self.inflight.set(true);
            let _ = w.tx.send(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::TestbedSpec;
    use e10_simcore::{run, sleep, SimDuration};

    fn testbed_fs(capacity: u64) -> LocalFs {
        let mut spec = TestbedSpec::small(1, 1);
        spec.localfs.capacity = capacity;
        spec.build().localfs[0].clone()
    }

    #[test]
    fn job_family_strips_trailing_phase_numbers() {
        assert_eq!(job_family("chk.0"), "chk");
        assert_eq!(job_family("chk.12"), "chk");
        assert_eq!(job_family("chk"), "chk");
        assert_eq!(job_family("data.bin"), "data.bin");
        assert_eq!(job_family("a.b.7"), "a.b");
        assert_eq!(job_family("trailingdot."), "trailingdot.");
        // Whole paths, as MPIWRAP's deferred close keys them.
        assert_eq!(job_family("/gfs/chk.0"), "/gfs/chk");
        assert_eq!(job_family("/gfs/chk.123"), "/gfs/chk");
        assert_eq!(job_family("/gfs/chk.dat"), "/gfs/chk.dat");
        assert_eq!(job_family("/gfs/chk"), "/gfs/chk");
        assert_eq!(job_family("/gfs/chk."), "/gfs/chk.");
    }

    #[test]
    fn attachment_yields_one_arbiter_per_volume() {
        run(async {
            let fs = testbed_fs(1 << 20);
            let a = CacheArbiter::of(&fs);
            let b = CacheArbiter::of(&fs.clone());
            assert!(Rc::ptr_eq(&a, &b), "clones share the volume arbiter");
        });
    }

    #[test]
    fn registration_finds_the_tenant_by_job() {
        run(async {
            let arb = CacheArbiter::of(&testbed_fs(1 << 20));
            let a = arb.register("a", 80, 50, 4096, 0);
            let b = arb.register("b", 80, 50, 4096, 0);
            assert_ne!(a, b);
            // A second file of job a joins its tenant.
            assert_eq!(arb.register("a", 80, 50, 4096, 0), a);
            arb.unregister(a);
            arb.unregister(a);
            assert_eq!(arb.open_tenants(), 1);
        });
    }

    #[test]
    fn reservation_shrinks_with_managed_jobs_and_exhausts() {
        run(async {
            let fs = testbed_fs(1_000_000);
            let arb = CacheArbiter::of(&fs);
            let a = arb.register("a", 80, 60, 4096, 0);
            // Alone, job a owns the whole high-watermark budget.
            assert_eq!(arb.admit(a, 800_000).await, Admission::Granted);
            assert_eq!(arb.admit(a, 800_001).await, Admission::Exhausted);
            // A second managed job halves the reservation.
            let b = arb.register("b", 80, 60, 4096, 0);
            assert_eq!(arb.admit(a, 400_001).await, Admission::Exhausted);
            assert_eq!(arb.admit(b, 400_000).await, Admission::Granted);
            // Admission itself charges the reservation.
            assert_eq!(arb.staged(b), 400_000);
            assert_eq!(arb.admit(b, 1).await, Admission::Exhausted);
            let (_, _, _, degrades) = arb.stats();
            assert_eq!(degrades, 3);
        });
    }

    #[test]
    fn refused_without_candidates_until_space_frees() {
        run(async {
            let fs = testbed_fs(1_000_000);
            let arb = CacheArbiter::of(&fs);
            let a = arb.register("a", 80, 50, 4096, 0);
            let b = arb.register("b", 80, 50, 4096, 0);
            let fa = fs.create("/scratch/a.0.e10").await.unwrap();
            fa.fallocate(0, 790_000).await.unwrap();
            arb.note_staged(a, 790_000);
            // Nothing is synced, so nothing is evictable: every admit
            // under pressure is refused (hysteresis latch holds).
            assert_eq!(arb.admit(b, 100_000).await, Admission::Refused);
            assert_eq!(arb.admit(b, 100_000).await, Admission::Refused);
            assert!(arb.under_pressure(b));
            // Space frees (sync-evict path punches): next admit drains
            // below the low watermark and the latch clears.
            fa.punch(0, 790_000).await;
            arb.note_freed(a, 790_000);
            assert_eq!(arb.admit(b, 100_000).await, Admission::Granted);
            assert!(!arb.under_pressure(b));
        });
    }

    #[test]
    fn drr_alternates_two_managed_jobs_chunk_for_chunk() {
        run(async {
            let fs = testbed_fs(1 << 30);
            let arb = CacheArbiter::of(&fs);
            let a = arb.register("a", 80, 50, 4096, 0);
            let b = arb.register("b", 80, 50, 4096, 0);
            let order = Rc::new(RefCell::new(Vec::new()));
            let chunk = 600_000; // > default quantum → one grant/visit
            let run_job = |t: usize| {
                let arb = Rc::clone(&arb);
                let order = Rc::clone(&order);
                e10_simcore::spawn(async move {
                    for _ in 0..3 {
                        let metered = arb.flush_begin(t, chunk).await;
                        assert!(metered, "two managed jobs must meter");
                        order.borrow_mut().push(t);
                        sleep(SimDuration::from_millis(1)).await;
                        arb.flush_end();
                    }
                })
            };
            let (ja, jb) = (run_job(a), run_job(b));
            ja.await;
            jb.await;
            let order = order.borrow();
            assert_eq!(order.len(), 6);
            // One chunk in flight node-wide, strict alternation: no job
            // is ever granted twice in a row while the other waits.
            for w in order.windows(2) {
                assert_ne!(w[0], w[1], "grant order {:?}", *order);
            }
        });
    }

    #[test]
    fn drr_bypasses_without_two_managed_jobs() {
        run(async {
            let fs = testbed_fs(1 << 30);
            let arb = CacheArbiter::of(&fs);
            let a = arb.register("a", 80, 50, 4096, 0);
            assert!(!arb.flush_begin(a, 1 << 20).await, "single managed job");
            // A closed managed job stops counting toward contention.
            let c = arb.register("c", 80, 50, 4096, 0);
            arb.unregister(c);
            assert!(!arb.flush_begin(a, 1 << 20).await);
        });
    }
}
