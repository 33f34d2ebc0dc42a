//! The E10 persistent cache layer (§III of the paper).
//!
//! When `e10_cache` is `enable` (or `coherent`), `ADIOI_GEN_OpenColl`
//! opens a per-process cache file on the node-local file system;
//! `ADIOI_GEN_WriteContig` redirects writes to it, allocates space with
//! `fallocate` (`ADIOI_Cache_alloc`) and posts a synchronisation
//! request — a generalized MPI request completed by the dedicated sync
//! thread (`ADIOI_Sync_thread_start`) once the extent has been read
//! back from the cache and written to the global file in
//! `ind_wr_buffer_size` chunks. `ADIOI_GEN_Flush` waits on the
//! outstanding requests (immediately, or at close for `flush_onclose`);
//! `ADIO_Close` flushes, closes and optionally discards the cache file.
//!
//! In `coherent` mode each cached extent takes an exclusive byte-range
//! lock on the global file (`ADIOI_WRITE_LOCK`) that is only dropped
//! when the extent is persistent, so no reader can observe in-transit
//! data.
//!
//! With `e10_cache_journal` enabled, every accepted extent is also
//! recorded in an append-only manifest journal (see [`crate::journal`])
//! before the write returns, and marked synced once persistent
//! globally. After a node crash, [`CacheLayer::recover`] replays the
//! journal against the (durable) cache file and re-queues whatever had
//! not reached the global file.
//!
//! Who owns what (DESIGN.md §16): `tiers` decides where a byte lives;
//! `volume` holds what the foreground and the sync thread share, and
//! the sync thread's loop; `integrity` keeps the resident mirror and
//! the verify → re-read → repair ladder; `recover` replays the journal
//! over re-attached tiers; this file is the foreground — admission,
//! coherent locks, the sync queue's sending end, `flush`, `close`.

mod integrity;
mod recover;
mod tiers;
mod volume;

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use e10_localfs::{FsError, LocalFile, LocalFs};
use e10_netsim::NodeId;
use e10_pfs::lock::LockMode;
use e10_pfs::PfsHandle;
use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_simcore::{channel, Flag, JoinHandle, Semaphore, SemaphoreGuard, Sender, SimTime};
use e10_storesim::Payload;

use crate::arbiter::{job_family, Admission, CacheArbiter};
use crate::error::Error;
use crate::hints::{FlushFlag, RomioHints};
use crate::journal::Record;
use integrity::{Integrity, Stage};
use tiers::{Attach, Pieces, Tiers};
use volume::SyncMsg;
pub(crate) use volume::Volume;

pub use recover::{RecoverError, RecoveryReport};

/// Cache-volume health: the device-failure state machine.
///
/// A permanent device failure (`FaultSpec::DeviceFail`) or a killed
/// sync pipeline (`FaultSpec::SyncThreadKill`) moves the volume
/// `Healthy → Draining`: the foreground degrades to write-through and
/// every queued extent is replayed straight to the global file — from
/// the checksummed resident mirror when the device can no longer be
/// read. Once nothing is pending the volume is `Retired` and a
/// [`Record::Retired`] mark is appended to the journal (best-effort:
/// the journal may share the dead device) so recovery after a later
/// power loss knows the tier is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Normal operation.
    Healthy,
    /// A failure was detected; acked-but-unsynced extents are being
    /// replayed to the global file.
    Draining,
    /// The drain finished and the tier was abandoned for good.
    Retired,
}

/// Everything that shapes one rank's cache layer; built from resolved
/// hints via [`CacheConfig::from_hints`] or field by field in tests.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Directory on the node-local file system (`e10_cache_path`).
    pub cache_path: Cow<'static, str>,
    /// Base name of the global file (cache file name component).
    pub file_basename: String,
    /// Owning rank (cache file name component).
    pub rank: usize,
    /// Compute node hosting the cache.
    pub node: NodeId,
    /// Sync chunk size (`ind_wr_buffer_size`).
    pub ind_wr: u64,
    /// When extents are pushed to the global file.
    pub flush_flag: FlushFlag,
    /// Hold global extent locks until synced (`e10_cache=coherent`).
    pub coherent: bool,
    /// Remove the cache file on close (`e10_cache_discard_flag`).
    pub discard: bool,
    /// Punch synced chunks out of the cache file (`e10_cache_evict`).
    pub evict: bool,
    /// Keep the crash-recovery manifest journal (`e10_cache_journal`).
    pub journal: bool,
    /// Journal file override (`e10_cache_journal_path`); `None` puts it
    /// at `<cache file>.jnl`.
    pub journal_path: Option<String>,
    /// Verify cache-file bytes against write-time digests on every
    /// flush and cached read (`e10_integrity`).
    pub integrity: bool,
    /// Scrub resident extents this often, in simulated milliseconds;
    /// `0` disables scrubbing (`e10_integrity_scrub_ms`).
    pub scrub_ms: u64,
    /// Arbiter high watermark, percent of node-local capacity
    /// (`e10_cache_hiwater`); 0 leaves this job unmanaged. A managed
    /// cache's tenant is its basename's [`job_family`], so the files of
    /// one application stream share a job.
    pub hiwater: u64,
    /// Arbiter low watermark, percent (`e10_cache_lowater`); 0
    /// resolves to `hiwater` (no hysteresis band).
    pub lowater: u64,
    /// Byte budget of the hybrid NVM front tier (`e10_nvm_capacity`);
    /// 0 means "whatever the front mount holds".
    pub nvm_capacity: u64,
    /// Writes of at most this many bytes take the byte-granular
    /// front-end (`e10_nvm_threshold`); 0 disables it.
    pub nvm_threshold: u64,
    /// Bound on extents queued to the sync thread at once
    /// (`e10_cache_sync_depth`); 0 leaves the queue unbounded.
    pub sync_depth: u64,
}

impl CacheConfig {
    /// A config with the hint defaults for `rank` on `node`.
    pub fn new(cache_path: &str, file_basename: &str, rank: usize, node: NodeId) -> CacheConfig {
        let mut cfg = Self::from_hints(&RomioHints::default(), file_basename, rank, node);
        cfg.cache_path = Cow::Owned(cache_path.to_string());
        cfg
    }

    /// The config a resolved hint set asks for.
    pub fn from_hints(
        hints: &RomioHints,
        file_basename: &str,
        rank: usize,
        node: NodeId,
    ) -> CacheConfig {
        CacheConfig {
            cache_path: hints.e10_cache_path.clone(),
            file_basename: file_basename.to_string(),
            rank,
            node,
            ind_wr: hints.ind_wr_buffer_size,
            flush_flag: hints.e10_cache_flush_flag,
            coherent: hints.e10_cache == crate::hints::CacheMode::Coherent,
            discard: hints.e10_cache_discard_flag,
            evict: hints.e10_cache_evict,
            journal: hints.e10_cache_journal,
            journal_path: hints.e10_cache_journal_path.clone(),
            integrity: hints.e10_integrity,
            scrub_ms: hints.e10_integrity_scrub_ms,
            hiwater: hints.e10_cache_hiwater,
            lowater: hints.e10_cache_lowater,
            nvm_capacity: hints.e10_nvm_capacity,
            nvm_threshold: hints.e10_nvm_threshold,
            sync_depth: hints.e10_cache_sync_depth,
        }
    }

    /// Path of this rank's cache file.
    pub fn cache_file_path(&self) -> String {
        self.rank_file_path(".e10")
    }

    /// Path of this rank's manifest journal.
    pub fn journal_file_path(&self) -> String {
        match &self.journal_path {
            Some(path) => path.clone(),
            None => self.rank_file_path(".e10.jnl"),
        }
    }

    /// Path of this rank's hybrid front file (on the front store's own
    /// namespace).
    pub fn front_file_path(&self) -> String {
        self.rank_file_path(".front.e10")
    }

    /// `<cache_path>/<file_basename>.<rank><suffix>`, in one allocation
    /// of exactly its length (`format!` would grow it from a guess).
    fn rank_file_path(&self, suffix: &str) -> String {
        use std::fmt::Write;
        let (dir, base, rank) = (&self.cache_path, &self.file_basename, self.rank);
        let digits = rank.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut path = String::with_capacity(dir.len() + base.len() + digits + suffix.len() + 2);
        write!(path, "{dir}/{base}.{rank}{suffix}").expect("a String takes any write");
        path
    }
}

/// Where a volume's sync thread stands. Under collective buffering
/// most ranks' volumes never receive an extent, so the thread and its
/// queue are made by the first extent posted, not by the open.
enum SyncThread {
    /// Nothing posted yet: no queue, no task. The open instant is kept
    /// because the scrub period runs from it.
    Idle(SimTime),
    /// The sending end of the queue, and the task draining it.
    Running(Sender<SyncMsg>, JoinHandle<()>),
    /// Closed: nothing can be queued any more.
    Stopped,
}

/// The foreground's own state.
struct CacheInner {
    vol: Rc<Volume>,
    /// The sync thread. Held here — not in the [`Volume`] the thread
    /// shares — so that a dropped layer (a crash) closes the channel
    /// and ends the thread.
    sync: RefCell<SyncThread>,
    /// Slot pool bounding the sync queue (`e10_cache_sync_depth`);
    /// `None` when the queue is unbounded.
    sync_slots: Option<Semaphore>,
    bytes_cached: Cell<u64>,
    /// Sync errors already reported by an earlier `flush`, so each
    /// failure surfaces exactly once.
    sync_errors_reported: Cell<u64>,
}

/// One open file's cache state.
#[derive(Clone)]
pub struct CacheLayer {
    inner: Rc<CacheInner>,
}

impl CacheLayer {
    /// Open the cache file; the sync thread starts with the first
    /// extent posted to it. Fails (so the caller can revert to the
    /// standard path, as the paper requires) if the cache file — or,
    /// when requested, its journal — cannot be created.
    pub async fn open(
        localfs: LocalFs,
        global: PfsHandle,
        cfg: CacheConfig,
    ) -> Result<CacheLayer, FsError> {
        Self::open_with_front(localfs, None, global, cfg).await
    }

    /// Like [`open`](Self::open), with an optional distinct front
    /// store (the `hybrid` class): the main cache file stays on
    /// `localfs` (typically the block SSD) while writes up to
    /// `e10_nvm_threshold` bytes go to a byte-granular front file on
    /// `front_fs`, bounded by `e10_nvm_capacity`.
    ///
    /// With `front_fs = None` and a byte-granular `localfs` device
    /// (the pure `nvm` class), small writes take the direct path into
    /// the cache file itself.
    pub async fn open_with_front(
        localfs: LocalFs,
        front_fs: Option<LocalFs>,
        global: PfsHandle,
        cfg: CacheConfig,
    ) -> Result<CacheLayer, FsError> {
        let file = localfs.create(&cfg.cache_file_path()).await?;
        let journal = if cfg.journal {
            Some(localfs.create(&cfg.journal_file_path()).await?)
        } else {
            None
        };
        let tiers = Tiers::attach(file, localfs, front_fs, &cfg, Attach::Create).await?;
        Ok(Self::assemble(global, cfg, tiers, journal))
    }

    /// Wrap attached tiers in an idle volume: no sync thread yet.
    fn assemble(
        global: PfsHandle,
        mut cfg: CacheConfig,
        tiers: Tiers,
        journal: Option<LocalFile>,
    ) -> CacheLayer {
        cfg.ind_wr = cfg.ind_wr.max(1);
        // The cache's private handle (and every sync-thread clone of
        // it) bypasses the collective write-epoch fence: cached bytes
        // were acked with stable content, so their background replay
        // must land even while a crash-tolerant redo has the fence up.
        global.set_fence_exempt(true);
        let tenant = (cfg.hiwater > 0).then(|| {
            let arbiter = CacheArbiter::of(&tiers.block_fs);
            let job = job_family(&cfg.file_basename);
            let t = arbiter.register(job, cfg.hiwater, cfg.lowater, cfg.ind_wr, cfg.node);
            (arbiter, t)
        });
        let sync_slots = (cfg.sync_depth > 0).then(|| Semaphore::new(cfg.sync_depth as usize));
        let vol = Rc::new(Volume {
            integrity: Integrity {
                mirror: cfg.integrity.then(Rc::default),
                ..Integrity::default()
            },
            cfg,
            tiers,
            journal,
            global,
            tenant,
            unoffered: Cell::new(None),
            staging: Cell::new(0),
            degraded: Cell::new(false),
            health: Cell::new(Health::Healthy),
            pending_syncs: Cell::new(0),
            sync_idle: RefCell::new(None),
            bytes_synced: Cell::new(0),
            sync_errors: Cell::new(0),
            deferred: RefCell::new(Vec::new()),
        });
        CacheLayer {
            inner: Rc::new(CacheInner {
                vol,
                sync: RefCell::new(SyncThread::Idle(e10_simcore::now())),
                sync_slots,
                bytes_cached: Cell::new(0),
                sync_errors_reported: Cell::new(0),
            }),
        }
    }

    /// True once the cache has failed and writes go to the global file.
    pub fn is_degraded(&self) -> bool {
        self.inner.vol.degraded.get()
    }

    /// Where the volume stands in the device-failure state machine.
    pub fn health(&self) -> Health {
        self.inner.vol.health.get()
    }

    /// Bytes accepted into the cache so far.
    pub fn bytes_cached(&self) -> u64 {
        self.inner.bytes_cached.get()
    }

    /// Bytes fully synchronised to the global file so far.
    pub fn bytes_synced(&self) -> u64 {
        self.inner.vol.bytes_synced.get()
    }

    /// Global-file write failures hit by the sync thread (the affected
    /// chunks stay staged in the cache file).
    pub fn sync_errors(&self) -> u64 {
        self.inner.vol.sync_errors.get()
    }

    /// Bytes this cache's tenant holds staged on the node, as the
    /// arbiter charges them; 0 for an unmanaged cache.
    pub fn tenant_staged(&self) -> u64 {
        let tenant = self.inner.vol.tenant.as_ref();
        tenant.map_or(0, |(arbiter, t)| arbiter.staged(*t))
    }

    /// Sync requests posted but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.inner.vol.pending_syncs.get() as usize
    }

    /// Path of the cache file on `/scratch`.
    pub fn cache_file_path(&self) -> &str {
        self.inner.vol.tiers.block.path()
    }

    /// Path of the manifest journal; empty when none is kept.
    pub fn journal_file_path(&self) -> &str {
        self.inner.vol.journal.as_ref().map_or("", |j| j.path())
    }

    /// True if a manifest journal is being kept.
    pub fn journal_active(&self) -> bool {
        self.inner.vol.journal.is_some()
    }

    /// True if a byte-granular front tier is active (pure `nvm` on a
    /// byte-granular device, or `hybrid` with a distinct front store).
    pub fn front_active(&self) -> bool {
        self.inner.vol.tiers.front_active()
    }

    /// Bytes currently owned by the byte-granular front tier.
    pub fn front_bytes(&self) -> u64 {
        self.inner.vol.tiers.front_bytes()
    }

    /// True if `[offset, offset+len)` is fully present in this
    /// process's cache (cache-read extension); see `Tiers::covers` for
    /// the empty range.
    pub fn covers(&self, offset: u64, len: u64) -> bool {
        // A draining/retired tier serves nothing: readers must go to
        // the global file, which the drain is making complete.
        self.inner.vol.health.get() == Health::Healthy && self.inner.vol.tiers.covers(offset, len)
    }

    /// Read from the cache (charges local device/page-cache time) with
    /// digest verification (`e10_integrity`): a cached read is served
    /// only after its bytes match the write-time digest, walking the
    /// same re-read → repair-from-memory ladder as the flush path.
    /// When the device keeps corrupting, the in-memory ground truth is
    /// served this time, but the cache degrades and a typed error is
    /// left pending so the caller learns the cache is gone — so there
    /// is always something to serve, and no fall-through to the global
    /// file. With integrity disabled (or no in-memory copy to compare
    /// against: a recovered cache, whose journal digests recovery
    /// already verified) the bytes are served as stored. The pieces go
    /// to `out`, which is cleared first.
    pub async fn read_verified(&self, offset: u64, len: u64, out: &mut Pieces) {
        let vol = &self.inner.vol;
        vol.tiers.read_into(offset, len, out).await;
        if vol
            .integrity
            .verify(&vol.tiers, Stage::Read, offset, len, out)
            .await
        {
            vol.degraded.set(true);
        }
    }

    /// Post one extent to the sync thread, starting the thread — in the
    /// calling rank's kill group — if this is the volume's first. Fails
    /// with a recoverable [`Error::SyncStopped`] when the thread has
    /// already been torn down (flush after close, write racing a
    /// close) — the extent is still staged in the cache file, so
    /// callers can degrade to the global file instead of panicking.
    fn enqueue_sync(&self, msg: SyncMsg) -> Result<(), Error> {
        let mut sync = self.inner.sync.borrow_mut();
        if let SyncThread::Idle(opened) = *sync {
            let (tx, rx) = channel::<SyncMsg>();
            let vol = Rc::clone(&self.inner.vol);
            *sync = SyncThread::Running(tx, e10_simcore::spawn(vol.sync_loop(rx, opened)));
        }
        let SyncThread::Running(tx, _) = &*sync else {
            return Err(Error::SyncStopped);
        };
        let pending = &self.inner.vol.pending_syncs;
        pending.set(pending.get() + 1);
        tx.send(msg).ok();
        Ok(())
    }

    /// Reserve a bounded-queue slot (`e10_cache_sync_depth`), waiting
    /// while the sync thread is `sync_depth` extents behind. `None`
    /// when the queue is unbounded. Callers must not hold range locks
    /// across this wait — a throttled writer blocking the drain path
    /// would deadlock the queue it is waiting on.
    async fn reserve_sync_slot(&self) -> Option<SemaphoreGuard> {
        match &self.inner.sync_slots {
            Some(sem) => Some(sem.acquire().await),
            None => None,
        }
    }

    /// Write one contiguous extent through the cache. Returns `false`
    /// if the cache is (or just became) degraded and the caller must
    /// write to the global file instead.
    pub async fn write(&self, offset: u64, payload: Payload) -> Result<bool, FsError> {
        // The caller is stalled for exactly the duration of this call:
        // that is the cache-write stall time the NVM front-end exists
        // to shrink, so meter it as a counter the benches can gate on.
        let len = payload.len;
        let t0 = e10_simcore::now();
        let out = self.write_inner(offset, payload).await;
        let stalled = e10_simcore::now().since(t0).as_nanos();
        if stalled > 0 {
            trace::counter("cache.write_stall_ns", stalled);
        }
        if matches!(out, Ok(true)) {
            trace::counter("cache.write_bytes", len);
        }
        out
    }

    /// What a failed device operation on the write path means: a dead
    /// device retires the volume and hands the extent back to the
    /// caller, who re-issues it through the global file; anything else
    /// is the caller's error.
    async fn write_failed(&self, e: FsError) -> Result<bool, FsError> {
        if matches!(e, FsError::DeviceFailed { .. }) {
            self.inner.vol.retire("device_fail").await;
            return Ok(false);
        }
        Err(e)
    }

    async fn write_inner(&self, offset: u64, payload: Payload) -> Result<bool, FsError> {
        let vol = &self.inner.vol;
        let cfg = &vol.cfg;
        if vol.degraded.get() {
            return Ok(false);
        }
        let len = payload.len;
        // Zero-length writes are accepted trivially: nothing to stage,
        // journal or sync (and no reason to degrade the cache).
        if len == 0 {
            return Ok(true);
        }
        // A killed sync pipeline is only observable through the fault
        // surface (no device op fails): notice it here so the volume
        // degrades before accepting bytes it could never push.
        if e10_faultsim::sync_thread_killed(cfg.node) && vol.health.get() == Health::Healthy {
            vol.retire("sync_thread_kill").await;
            return Ok(false);
        }
        // Multi-tenant admission. Unmanaged jobs (no watermark hints)
        // skip every arbiter check and pay nothing on this path.
        let mut grow = 0;
        if let Some((arbiter, t)) = &vol.tenant {
            match arbiter.admit(*t, len).await {
                Admission::Granted => {}
                // Watermark pressure: write through this extent only.
                Admission::Refused => return Ok(false),
                // Reservation exhausted: the job degrades for good.
                Admission::Exhausted => {
                    vol.degraded.set(true);
                    return Ok(false);
                }
            }
            // A rewrite makes overlapping candidates dirty again, and no
            // chunk may become one while it stages.
            arbiter.invalidate(vol, offset, len);
            vol.staging.set(vol.staging.get() + 1);
            // Admission pre-charged the full write; only the hole
            // bytes this write actually allocates stay charged
            // (computed before the fallocate await so no concurrent
            // task can skew it).
            grow = len - vol.resident(offset, len);
        }
        // Watermark-managed jobs keep the block path so the arbiter's
        // volume accounting and eviction candidates stay exact. Of
        // their pre-charge, a failed preallocation releases all; a
        // successful one releases the rewritten (already resident)
        // bytes, which admission double-charged.
        let staged = vol.tiers.stage(
            offset,
            payload,
            vol.tenant.is_none(),
            vol.integrity.mirror(),
            |allocated| {
                if let Some((arbiter, t)) = &vol.tenant {
                    let release = if allocated { len - grow } else { len };
                    arbiter.note_freed(*t, release);
                }
            },
        );
        let staged = staged.await;
        if vol.tenant.is_some() {
            vol.staged(offset, len);
        }
        match staged {
            Ok(()) => {}
            Err(FsError::NoSpace { .. }) => {
                vol.degraded.set(true);
                return Ok(false);
            }
            Err(e) => return self.write_failed(e).await,
        }
        // The manifest Add is appended only after the data write
        // completed, and the application's write does not return before
        // the append: every acknowledged byte is in the journal.
        if let Some(jnl) = &vol.journal {
            let mut recs = jnl
                .append_bytes(&Record::Add { offset, len }.encode())
                .await;
            // Format v2: pair the Add with the extent's write-time
            // digest so post-crash recovery can verify staged bytes.
            if let (Ok(_), Some(mirror)) = (&recs, vol.integrity.mirror()) {
                let digest = mirror.borrow().digest(offset, len);
                recs = jnl
                    .append_bytes(&Record::Cksum { offset, digest }.encode())
                    .await;
            }
            // A dead journal device leaves the acked byte un-
            // manifested: stop trusting the tier.
            if let Err(e) = recs {
                return self.write_failed(e).await;
            }
        }
        let cached = &self.inner.bytes_cached;
        cached.set(cached.get() + len);
        trace::emit(|| {
            Event::new(Layer::Romio, "cache.extent_write", EventKind::Point)
                .node(cfg.node)
                .field("offset", offset)
                .field("bytes", len)
        });
        trace::counter("cache.bytes_cached", len);
        // Bounded sync queue: claim the slot before taking the coherent
        // lock, so a throttled writer never blocks the drain path it is
        // waiting on.
        let slot = if cfg.flush_flag == FlushFlag::FlushImmediate {
            self.reserve_sync_slot().await
        } else {
            None
        };
        // Coherent mode: hold an exclusive global-file extent lock until
        // this extent is persistent.
        let lock = if cfg.coherent && cfg.flush_flag != FlushFlag::FlushNone {
            let range = offset..offset + len;
            Some(
                vol.global
                    .lock_extent(cfg.node, range, LockMode::Exclusive)
                    .await,
            )
        } else {
            None
        };
        let msg = SyncMsg {
            lock,
            _slot: slot,
            ..SyncMsg::new(offset, len)
        };
        match cfg.flush_flag {
            FlushFlag::FlushImmediate => {
                if self.enqueue_sync(msg).is_err() {
                    // Sync thread already gone (write raced a close):
                    // degrade so the caller re-issues this extent
                    // through the global file.
                    vol.degraded.set(true);
                    return Ok(false);
                }
            }
            FlushFlag::FlushOnClose => vol.deferred.borrow_mut().push(msg),
            FlushFlag::FlushNone => {}
        }
        Ok(true)
    }

    /// Take the pending unrepairable-integrity error, if any (also
    /// returned by the next [`CacheLayer::flush`]).
    pub fn take_integrity_error(&self) -> Option<Error> {
        self.inner.vol.integrity.error.borrow_mut().take()
    }

    /// Extents that failed digest verification anywhere in the
    /// pipeline (flush, scrub or cached read).
    pub fn integrity_mismatches(&self) -> u64 {
        self.inner.vol.integrity.mismatches.get()
    }

    /// Mismatched extents successfully rewritten from the in-memory
    /// copy.
    pub fn integrity_repairs(&self) -> u64 {
        self.inner.vol.integrity.repairs.get()
    }

    /// `ADIOI_GEN_Flush`: push the deferred extents — `flush_onclose`
    /// writes, and every chunk an earlier sync could not push — to the
    /// sync thread and wait for every outstanding request. `Ok`
    /// therefore means the global file holds everything this cache was
    /// ever handed. Fails with [`Error::SyncStopped`] on
    /// flush-after-close, with the first pending [`Error::Integrity`]
    /// if verification failed beyond repair since the last flush, or
    /// with [`Error::SyncFailed`] if any staged extent could not be
    /// pushed to the global file.
    pub async fn flush(&self) -> Result<(), Error> {
        let vol = &self.inner.vol;
        if vol.cfg.flush_flag != FlushFlag::FlushNone {
            // With the sync thread gone nothing can be queued: the
            // extents stay on the list, where `close` will find them.
            let stopped = matches!(*self.inner.sync.borrow(), SyncThread::Stopped);
            if stopped && !vol.deferred.borrow().is_empty() {
                return Err(Error::SyncStopped);
            }
            let deferred: Vec<_> = vol.deferred.borrow_mut().drain(..).collect();
            for mut msg in deferred {
                // Requeued extents honour the bounded-queue depth too.
                msg._slot = self.reserve_sync_slot().await;
                self.enqueue_sync(msg)?;
            }
            trace::emit(|| {
                Event::new(Layer::Romio, "cache.flush_wait", EventKind::Begin)
                    .node(vol.cfg.node)
                    .field("outstanding", vol.pending_syncs.get())
            });
            while vol.pending_syncs.get() > 0 {
                let f = Flag::new();
                *vol.sync_idle.borrow_mut() = Some(f.clone());
                f.wait().await;
            }
            trace::emit(|| {
                Event::new(Layer::Romio, "cache.flush_wait", EventKind::End).node(vol.cfg.node)
            });
        }
        if let Some(e) = self.take_integrity_error() {
            return Err(e);
        }
        // Global-file writes that exhausted their retries leave the
        // extent staged (and deferred again) but the global file
        // incomplete: that must not pass as a durable flush.
        let errs = vol.sync_errors.get();
        let new = errs - self.inner.sync_errors_reported.get();
        if new > 0 {
            self.inner.sync_errors_reported.set(errs);
            return Err(Error::SyncFailed { failures: new });
        }
        Ok(())
    }

    /// Close-path: flush, stop the sync thread, discard the cache file
    /// (and journal) if requested — unless an extent is still waiting
    /// for its sync: then the cache holds the only copy of acknowledged
    /// bytes, and its files stay for [`CacheLayer::recover`]. Returns
    /// the flush outcome; teardown proceeds either way.
    pub async fn close(&self) -> Result<(), Error> {
        let flushed = self.flush().await;
        // Dropping the sender lets the sync task drain and exit; an
        // idle volume has no task to wait for.
        let sync = self.inner.sync.replace(SyncThread::Stopped);
        if let SyncThread::Running(tx, task) = sync {
            drop(tx);
            task.await;
        }
        let vol = &self.inner.vol;
        if vol.cfg.discard && vol.deferred.borrow().is_empty() {
            let file = &vol.tiers.block;
            // Candidates must go before the unlink: punching an extent
            // of an unlinked file would double-free volume accounting.
            let mut remaining = 0;
            if let Some((arbiter, _)) = &vol.tenant {
                arbiter.release_file(vol);
                remaining = file.extents().covered_bytes();
            }
            let _ = vol.tiers.block_fs.unlink(file.path()).await;
            if let Some((arbiter, t)) = &vol.tenant {
                arbiter.note_freed(*t, remaining);
            }
            if let Some(journal) = &vol.journal {
                let _ = vol.tiers.block_fs.unlink(journal.path()).await;
            }
            vol.tiers.discard_front().await;
        }
        if let Some((arbiter, t)) = &vol.tenant {
            arbiter.unregister(*t);
        }
        flushed
    }
}

#[cfg(test)]
mod tests;
