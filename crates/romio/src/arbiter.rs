//! Per-node cache arbiter: multi-tenant admission, watermark eviction
//! and fair flush scheduling for the node-local cache.
//!
//! The paper assumes one application owns each node-local SSD. On a
//! shared system many jobs stage through the same device, so each
//! volume carries exactly one [`CacheArbiter`] (attached to the
//! [`LocalFs`] via [`LocalFs::attachment`]) that sees every
//! [`crate::cache::CacheLayer`] on the node:
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
//!   file are candidates; they are punched in least-recently-synced
//!   order until occupancy reaches the target. A rewrite overlapping a
//!   candidate invalidates it (its bytes are dirty again).
//! * **Fair flush.** When two or more watermark-managed jobs share the
//!   node, sync-thread chunks pass through a deficit-round-robin gate:
//!   one chunk in flight per node, byte-accounted deficits per job, so
//!   a large job cannot starve a small one's flush path. With fewer
//!   than two managed jobs the gate is a no-op, preserving the exact
//!   single-tenant timing of the committed baselines.
//!
//! Watermarks default to 0 (disabled): a job that never sets
//! `e10_cache_hiwater` is never refused, metered or evicted by the
//! arbiter, and falls back to the pre-existing `fallocate`/`ENOSPC`
//! degrade behaviour.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use e10_localfs::{LocalFile, LocalFs};
use e10_netsim::NodeId;
use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_simcore::{channel, Sender};
use e10_storesim::ExtentMap;

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

#[derive(Default)]
struct JobState {
    /// Open cache files registered under this job.
    files_open: usize,
    /// Bytes currently staged (resident in cache files) for this job.
    staged: u64,
    /// High watermark, percent of volume capacity; 0 = unmanaged.
    hi: u64,
    /// Low watermark, percent; refused admissions resume below it.
    lo: u64,
    /// Hysteresis latch: tripped at `hi`, cleared below `lo`.
    pressure: bool,
}

/// A fully-synced extent that may be punched under pressure.
struct Evictable {
    job: String,
    file: LocalFile,
    offset: u64,
    len: u64,
    /// Integrity-mode resident mirror to prune on eviction, so scrub
    /// repair does not resurrect punched bytes.
    resident: Option<Rc<RefCell<ExtentMap>>>,
    /// Journal to record the eviction in, when journaling is on.
    journal: Option<LocalFile>,
}

struct Waiter {
    len: u64,
    tx: Sender<()>,
}

struct DrrState {
    /// Jobs in first-registration order; the round-robin ring.
    order: Vec<String>,
    queues: BTreeMap<String, VecDeque<Waiter>>,
    deficit: BTreeMap<String, u64>,
    /// Per-visit deficit replenishment; kept at least as large as any
    /// queued chunk so every job is served within one rotation.
    quantum: u64,
    cursor: usize,
    /// True when the cursor just arrived at `order[cursor]` from
    /// elsewhere — deficits replenish only on arrival, otherwise one
    /// job could pump its own deficit indefinitely.
    fresh: bool,
    /// One sync chunk in flight per node when metering is engaged.
    inflight: bool,
}

/// Per-node multi-tenant cache arbiter. One instance per `LocalFs`
/// volume, obtained with [`CacheArbiter::of`].
pub struct CacheArbiter {
    /// Detached, like every file handle kept below: the volume's
    /// attachment slot owns this arbiter.
    localfs: LocalFs,
    node: Cell<NodeId>,
    jobs: RefCell<BTreeMap<String, JobState>>,
    /// Synced extents in least-recently-synced order (monotonic seq).
    evictable: RefCell<BTreeMap<u64, Evictable>>,
    next_seq: Cell<u64>,
    /// Per-file monotonic write epochs: a sync chunk enqueued at epoch
    /// E only yields an eviction candidate if no write happened since
    /// (conservatively whole-file), so an in-flight sync racing a
    /// rewrite can never make dirty bytes evictable.
    epochs: RefCell<BTreeMap<String, u64>>,
    drr: RefCell<DrrState>,
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
            jobs: RefCell::new(BTreeMap::new()),
            evictable: RefCell::new(BTreeMap::new()),
            next_seq: Cell::new(0),
            epochs: RefCell::new(BTreeMap::new()),
            drr: RefCell::new(DrrState {
                order: Vec::new(),
                queues: BTreeMap::new(),
                deficit: BTreeMap::new(),
                quantum: 512 << 10,
                cursor: 0,
                fresh: true,
                inflight: false,
            }),
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

    /// Register one open cache file under `job`. `chunk` (the layer's
    /// `ind_wr_buffer_size`) seeds the fair-share quantum.
    pub fn register(&self, job: &str, hiwater: u64, lowater: u64, chunk: u64, node: NodeId) {
        self.node.set(node);
        let mut jobs = self.jobs.borrow_mut();
        let st = jobs.entry(job.to_string()).or_default();
        st.files_open += 1;
        if hiwater > 0 {
            st.hi = hiwater;
            st.lo = if lowater == 0 { hiwater } else { lowater };
        }
        let mut drr = self.drr.borrow_mut();
        drr.quantum = drr.quantum.max(chunk.max(1));
        if !drr.order.iter().any(|j| j == job) {
            drr.order.push(job.to_string());
            drr.queues.insert(job.to_string(), VecDeque::new());
            drr.deficit.insert(job.to_string(), 0);
        }
    }

    /// Drop one open cache file from `job`'s registration.
    pub fn unregister(&self, job: &str) {
        if let Some(st) = self.jobs.borrow_mut().get_mut(job) {
            st.files_open = st.files_open.saturating_sub(1);
        }
    }

    /// Bytes currently staged by `job`.
    pub fn staged(&self, job: &str) -> u64 {
        self.jobs.borrow().get(job).map_or(0, |s| s.staged)
    }

    /// True while `job`'s pressure latch is tripped (hysteresis).
    pub fn under_pressure(&self, job: &str) -> bool {
        self.jobs.borrow().get(job).is_some_and(|s| s.pressure)
    }

    /// Synced bytes currently registered as eviction candidates.
    pub fn evictable_bytes(&self) -> u64 {
        self.evictable.borrow().values().map(|e| e.len).sum()
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

    /// Decide whether one cache write of `len` bytes may stage. Managed
    /// jobs (hiwater > 0) are checked against their reservation and the
    /// volume watermarks; unmanaged jobs are always granted (the
    /// volume's own `ENOSPC` path still backstops them) with no
    /// counters and no awaits, so a single-tenant run is untouched.
    pub async fn admit(&self, job: &str, len: u64) -> Admission {
        let (hi, lo, staged, managed, pressure) = {
            let jobs = self.jobs.borrow();
            let st = match jobs.get(job) {
                Some(st) if st.hi > 0 => st,
                _ => return Admission::Granted,
            };
            let managed = jobs
                .values()
                .filter(|s| s.files_open > 0 && s.hi > 0)
                .count()
                .max(1) as u64;
            (st.hi, st.lo, st.staged, managed, st.pressure)
        };
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
        self.note_staged(job, len);
        let mut latched = pressure;
        if !latched && used + len > hi_bytes {
            latched = true;
            self.set_pressure(job, true);
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
                self.set_pressure(job, false);
            } else {
                self.note_freed(job, len); // write-through: un-charge
                self.refused.set(self.refused.get() + len);
                trace::counter("cache.admit_refused", len);
                return Admission::Refused;
            }
        }
        self.admitted.set(self.admitted.get() + len);
        trace::counter("cache.admit", len);
        Admission::Granted
    }

    fn set_pressure(&self, job: &str, on: bool) {
        if let Some(st) = self.jobs.borrow_mut().get_mut(job) {
            st.pressure = on;
        }
    }

    /// Punch least-recently-synced candidates until volume occupancy is
    /// at or below `target` bytes (or no candidates remain). Public so
    /// property tests can drive eviction schedules directly.
    pub async fn evict_down_to(&self, target: u64) {
        loop {
            if self.localfs.statfs().1 <= target {
                return;
            }
            let victim = {
                let mut ev = self.evictable.borrow_mut();
                match ev.keys().next().copied() {
                    Some(seq) => ev.remove(&seq),
                    None => None,
                }
            };
            let Some(v) = victim else { return };
            let freed = v.file.covered_bytes_in(v.offset, v.len);
            if freed == 0 {
                continue;
            }
            v.file.punch(v.offset, v.len).await;
            if let Some(resident) = &v.resident {
                resident.borrow_mut().remove(v.offset, v.len);
            }
            if let Some(jnl) = &v.journal {
                // Best effort: the manifest is advisory for eviction
                // (the extent is already synced), and under pressure the
                // volume may be too full to take the record.
                let _ = jnl
                    .append_bytes(
                        &crate::journal::Record::Evicted {
                            offset: v.offset,
                            len: v.len,
                        }
                        .encode(),
                    )
                    .await;
            }
            self.note_freed(&v.job, freed);
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

    /// Account `bytes` of staging to `job`. [`CacheArbiter::admit`]
    /// calls this itself on every grant (pre-charging the reservation
    /// before any await); it is public for recovery paths and tests
    /// that place bytes without admission.
    pub fn note_staged(&self, job: &str, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let mut jobs = self.jobs.borrow_mut();
        jobs.entry(job.to_string()).or_default().staged += bytes;
    }

    /// Account `bytes` released from `job`'s staging (punch or unlink).
    pub fn note_freed(&self, job: &str, bytes: u64) {
        if let Some(st) = self.jobs.borrow_mut().get_mut(job) {
            st.staged = st.staged.saturating_sub(bytes);
        }
    }

    /// Bump and return `path`'s write epoch. Cache layers call this on
    /// every staged write, before posting the extent to their sync
    /// thread.
    pub fn note_write(&self, path: &str) -> u64 {
        let mut epochs = self.epochs.borrow_mut();
        let e = epochs.entry(path.to_string()).or_insert(0);
        *e += 1;
        *e
    }

    /// `path`'s current write epoch (0 if never written).
    pub fn write_epoch(&self, path: &str) -> u64 {
        self.epochs.borrow().get(path).copied().unwrap_or(0)
    }

    /// Register a fully-synced extent as an eviction candidate. `epoch`
    /// is the file's write epoch when the extent was posted for sync;
    /// if the file has been written since, the candidate is dropped (a
    /// newer sync will re-offer the clean range).
    #[allow(clippy::too_many_arguments)] // mirrors the sync message it consumes
    pub fn note_synced(
        &self,
        job: &str,
        file: &LocalFile,
        offset: u64,
        len: u64,
        epoch: u64,
        resident: Option<Rc<RefCell<ExtentMap>>>,
        journal: Option<LocalFile>,
    ) {
        if len == 0 || epoch != self.write_epoch(file.path()) {
            return;
        }
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        self.evictable.borrow_mut().insert(
            seq,
            Evictable {
                job: job.to_string(),
                file: file.detached(),
                offset,
                len,
                resident,
                journal: journal.map(|j| j.detached()),
            },
        );
    }

    /// A rewrite of `[offset, offset+len)` in `path` makes overlapping
    /// candidates dirty again — drop them (conservatively whole) so
    /// eviction can never punch unsynced bytes.
    pub fn invalidate(&self, path: &str, offset: u64, len: u64) {
        let end = offset.saturating_add(len);
        self.evictable
            .borrow_mut()
            .retain(|_, e| e.file.path() != path || e.offset + e.len <= offset || end <= e.offset);
    }

    /// Drop every candidate belonging to `path`. Must run before the
    /// cache file is unlinked: punching after unlink would double-free
    /// volume accounting.
    pub fn release_file(&self, path: &str) {
        self.evictable
            .borrow_mut()
            .retain(|_, e| e.file.path() != path);
        self.epochs.borrow_mut().remove(path);
    }

    /// Gate one sync-thread chunk of `len` bytes through the fair-share
    /// scheduler. Returns `true` when the chunk was metered — the
    /// caller must then call [`CacheArbiter::flush_end`] with it once
    /// the chunk completes. With fewer than two managed jobs the gate
    /// engages nothing and returns immediately.
    pub async fn flush_begin(&self, job: &str, len: u64) -> bool {
        let contended = {
            let jobs = self.jobs.borrow();
            jobs.get(job).is_some_and(|s| s.hi > 0)
                && jobs
                    .values()
                    .filter(|s| s.files_open > 0 && s.hi > 0)
                    .count()
                    >= 2
        };
        if !contended {
            return false;
        }
        let mut rx = {
            let mut drr = self.drr.borrow_mut();
            drr.quantum = drr.quantum.max(len.max(1));
            let (tx, rx) = channel::<()>();
            drr.queues
                .entry(job.to_string())
                .or_default()
                .push_back(Waiter { len, tx });
            if !drr.order.iter().any(|j| j == job) {
                drr.order.push(job.to_string());
            }
            rx
        };
        self.pump();
        rx.recv().await;
        trace::counter("flush.fair_share", len);
        true
    }

    /// Release the in-flight token taken by a metered chunk and grant
    /// the next waiter. A no-op for unmetered chunks.
    pub fn flush_end(&self, metered: bool) {
        if !metered {
            return;
        }
        self.drr.borrow_mut().inflight = false;
        self.pump();
    }

    /// Deficit round-robin: grant the next chunk whose job has enough
    /// deficit, replenishing by one quantum per arrival at a job. The
    /// quantum is kept ≥ every queued length, so a bounded scan of two
    /// rotations always finds a grant when one exists.
    fn pump(&self) {
        let granted = {
            let mut drr = self.drr.borrow_mut();
            if drr.inflight || drr.order.is_empty() || drr.queues.values().all(|q| q.is_empty()) {
                None
            } else {
                let n = drr.order.len();
                let mut granted = None;
                let mut hops = 0;
                while granted.is_none() && hops < 2 * n + 2 {
                    let job = drr.order[drr.cursor].clone();
                    let front = drr.queues.get(&job).and_then(|q| q.front().map(|w| w.len));
                    match front {
                        None => {
                            drr.deficit.insert(job, 0);
                            drr.cursor = (drr.cursor + 1) % n;
                            drr.fresh = true;
                        }
                        Some(len) => {
                            if drr.fresh {
                                let quantum = drr.quantum;
                                *drr.deficit.entry(job.clone()).or_insert(0) += quantum;
                                drr.fresh = false;
                            }
                            let deficit = drr.deficit.get(&job).copied().unwrap_or(0);
                            if len <= deficit {
                                drr.deficit.insert(job.clone(), deficit - len);
                                let w = drr.queues.get_mut(&job).unwrap().pop_front().unwrap();
                                drr.inflight = true;
                                granted = Some(w.tx);
                            } else {
                                drr.cursor = (drr.cursor + 1) % n;
                                drr.fresh = true;
                            }
                        }
                    }
                    hops += 1;
                }
                granted
            }
        };
        if let Some(tx) = granted {
            let _ = tx.send(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::TestbedSpec;
    use e10_simcore::{run, sleep, SimDuration};
    use e10_storesim::Payload;

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

    /// The volume owns its arbiter and the arbiter holds no share of
    /// the volume's attachment slot, whatever it has been handed: once
    /// the last handle goes, so does the arbiter (and with it the
    /// volume — a cycle here leaked every node's cache volume per run).
    #[test]
    fn arbiter_dies_with_its_volume() {
        run(async {
            let fs = testbed_fs(1 << 20);
            let arb = CacheArbiter::of(&fs);
            arb.register("a", 80, 50, 4096, 0);
            let file = fs.create("/scratch/a.0.e10").await.unwrap();
            let journal = fs.create("/scratch/a.0.e10.jnl").await.unwrap();
            arb.note_synced("a", &file, 0, 4096, 0, None, Some(journal));
            let weak = Rc::downgrade(&arb);
            drop((arb, fs, file));
            assert!(weak.upgrade().is_none(), "the arbiter outlived its volume");
        });
    }

    #[test]
    fn reservation_shrinks_with_managed_jobs_and_exhausts() {
        run(async {
            let fs = testbed_fs(1_000_000);
            let arb = CacheArbiter::of(&fs);
            arb.register("a", 80, 60, 4096, 0);
            // Alone, job a owns the whole high-watermark budget.
            assert_eq!(arb.admit("a", 800_000).await, Admission::Granted);
            assert_eq!(arb.admit("a", 800_001).await, Admission::Exhausted);
            // A second managed job halves the reservation.
            arb.register("b", 80, 60, 4096, 0);
            assert_eq!(arb.admit("a", 400_001).await, Admission::Exhausted);
            assert_eq!(arb.admit("b", 400_000).await, Admission::Granted);
            // Admission itself charges the reservation.
            assert_eq!(arb.staged("b"), 400_000);
            assert_eq!(arb.admit("b", 1).await, Admission::Exhausted);
            // Unmanaged jobs are never checked.
            arb.register("c", 0, 0, 4096, 0);
            assert_eq!(arb.admit("c", u64::MAX / 2).await, Admission::Granted);
            let (_, _, _, degrades) = arb.stats();
            assert_eq!(degrades, 3);
        });
    }

    #[test]
    fn pressure_evicts_synced_lru_then_admits() {
        run(async {
            let fs = testbed_fs(1_000_000);
            let arb = CacheArbiter::of(&fs);
            arb.register("a", 80, 50, 4096, 0);
            arb.register("b", 80, 50, 4096, 0);
            // Job a stages 390k (within its 400k reservation), fully
            // synced and evictable, plus an older 200k extent in a
            // second file to check LRU order.
            let fa = fs.create("/scratch/a.0.e10").await.unwrap();
            fa.fallocate(0, 200_000).await.unwrap();
            fa.write(0, Payload::gen(1, 0, 200_000)).await.unwrap();
            fa.fallocate(200_000, 190_000).await.unwrap();
            fa.write(200_000, Payload::gen(1, 200_000, 190_000))
                .await
                .unwrap();
            arb.note_staged("a", 390_000);
            arb.note_synced("a", &fa, 0, 200_000, 0, None, None);
            arb.note_synced("a", &fa, 200_000, 190_000, 0, None, None);
            // Job b stages 290k unsynced (not evictable), and 200k of
            // non-tenant data occupies the volume besides.
            let fb = fs.create("/scratch/b.0.e10").await.unwrap();
            fb.fallocate(0, 290_000).await.unwrap();
            fb.write(0, Payload::gen(2, 0, 290_000)).await.unwrap();
            arb.note_staged("b", 290_000);
            let junk = fs.create("/scratch/junk.dat").await.unwrap();
            junk.fallocate(0, 200_000).await.unwrap();
            // used = 880k; +100k crosses hi (800k): pressure trips and
            // the arbiter evicts a's synced extents oldest-first, but
            // 490k of unsynced/non-tenant bytes remain — still above
            // the 400k drain target, so this write is refused.
            assert_eq!(arb.admit("b", 100_000).await, Admission::Refused);
            assert!(arb.under_pressure("b"));
            assert_eq!(fs.statfs().1, 490_000);
            assert_eq!(arb.staged("a"), 0);
            // Once the non-tenant bytes go, the latched retry drains
            // below the low watermark and admission resumes.
            junk.punch(0, 200_000).await;
            assert_eq!(arb.admit("b", 100_000).await, Admission::Granted);
            assert!(!arb.under_pressure("b"));
            let (admitted, refused, evicted, _) = arb.stats();
            assert_eq!(admitted, 100_000);
            assert_eq!(refused, 100_000);
            assert_eq!(evicted, 390_000);
        });
    }

    #[test]
    fn refused_without_candidates_until_space_frees() {
        run(async {
            let fs = testbed_fs(1_000_000);
            let arb = CacheArbiter::of(&fs);
            arb.register("a", 80, 50, 4096, 0);
            arb.register("b", 80, 50, 4096, 0);
            let fa = fs.create("/scratch/a.0.e10").await.unwrap();
            fa.fallocate(0, 790_000).await.unwrap();
            arb.note_staged("a", 790_000);
            // Nothing is synced, so nothing is evictable: every admit
            // under pressure is refused (hysteresis latch holds).
            assert_eq!(arb.admit("b", 100_000).await, Admission::Refused);
            assert_eq!(arb.admit("b", 100_000).await, Admission::Refused);
            assert!(arb.under_pressure("b"));
            // Space frees (sync-evict path punches): next admit drains
            // below the low watermark and the latch clears.
            fa.punch(0, 790_000).await;
            arb.note_freed("a", 790_000);
            assert_eq!(arb.admit("b", 100_000).await, Admission::Granted);
            assert!(!arb.under_pressure("b"));
        });
    }

    #[test]
    fn invalidate_and_stale_epochs_protect_dirty_bytes() {
        run(async {
            let fs = testbed_fs(1 << 30);
            let arb = CacheArbiter::of(&fs);
            arb.register("a", 80, 50, 4096, 0);
            let fa = fs.create("/scratch/a.0.e10").await.unwrap();
            fa.fallocate(0, 100_000).await.unwrap();
            fa.write(0, Payload::gen(1, 0, 100_000)).await.unwrap();
            arb.note_synced("a", &fa, 0, 100_000, 0, None, None);
            assert_eq!(arb.evictable_bytes(), 100_000);
            // A rewrite overlapping the candidate drops it whole.
            arb.invalidate(fa.path(), 50_000, 1_000);
            assert_eq!(arb.evictable_bytes(), 0);
            // A sync completion that raced a later write (stale epoch)
            // must not resurrect the candidate.
            let epoch = arb.note_write(fa.path());
            arb.note_synced("a", &fa, 0, 100_000, epoch - 1, None, None);
            assert_eq!(arb.evictable_bytes(), 0);
            arb.note_synced("a", &fa, 0, 100_000, epoch, None, None);
            assert_eq!(arb.evictable_bytes(), 100_000);
            // Eviction really leaves non-candidate bytes alone.
            arb.invalidate(fa.path(), 0, 100_000);
            arb.evict_down_to(0).await;
            assert_eq!(fa.extents().covered_bytes(), 100_000);
        });
    }

    #[test]
    fn release_file_forgets_candidates_and_epochs() {
        run(async {
            let fs = testbed_fs(1 << 30);
            let arb = CacheArbiter::of(&fs);
            arb.register("a", 80, 50, 4096, 0);
            let fa = fs.create("/scratch/a.0.e10").await.unwrap();
            fa.fallocate(0, 10_000).await.unwrap();
            arb.note_write(fa.path());
            arb.note_synced("a", &fa, 0, 10_000, 1, None, None);
            assert_eq!(arb.evictable_bytes(), 10_000);
            arb.release_file(fa.path());
            assert_eq!(arb.evictable_bytes(), 0);
            assert_eq!(arb.write_epoch(fa.path()), 0);
            // Eviction after release is a no-op even at target 0 with
            // the file's bytes still on the volume.
            arb.evict_down_to(0).await;
            assert_eq!(fa.extents().covered_bytes(), 10_000);
        });
    }

    #[test]
    fn drr_alternates_two_managed_jobs_chunk_for_chunk() {
        run(async {
            let fs = testbed_fs(1 << 30);
            let arb = CacheArbiter::of(&fs);
            arb.register("a", 80, 50, 4096, 0);
            arb.register("b", 80, 50, 4096, 0);
            let order = Rc::new(RefCell::new(Vec::new()));
            let chunk = 600_000; // > default quantum → one grant/visit
            let run_job = |name: &'static str| {
                let arb = Rc::clone(&arb);
                let order = Rc::clone(&order);
                e10_simcore::spawn(async move {
                    for _ in 0..3 {
                        let metered = arb.flush_begin(name, chunk).await;
                        assert!(metered, "two managed jobs must meter");
                        order.borrow_mut().push(name);
                        sleep(SimDuration::from_millis(1)).await;
                        arb.flush_end(metered);
                    }
                })
            };
            let (ja, jb) = (run_job("a"), run_job("b"));
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
            arb.register("a", 80, 50, 4096, 0);
            arb.register("b", 0, 0, 4096, 0); // unmanaged
            assert!(!arb.flush_begin("a", 1 << 20).await, "single managed job");
            assert!(!arb.flush_begin("b", 1 << 20).await, "unmanaged job");
            // flush_end on an unmetered chunk is a no-op (no token).
            arb.flush_end(false);
            // A closed managed job stops counting toward contention.
            arb.register("c", 80, 50, 4096, 0);
            arb.unregister("c");
            assert!(!arb.flush_begin("a", 1 << 20).await);
        });
    }
}
