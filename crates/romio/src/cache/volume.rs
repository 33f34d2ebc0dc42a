//! The cache volume: everything one open file's foreground and its
//! sync thread both touch, behind one `Rc` — and the sync thread
//! itself (`ADIOI_Sync_thread_start`).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use e10_localfs::LocalFile;
use e10_pfs::lock::RangeLockGuard;
use e10_pfs::PfsHandle;
use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_simcore::{Flag, Receiver, SemaphoreGuard, SimDuration, SimTime};
use e10_storesim::Payload;

use super::integrity::{Integrity, Stage};
use super::tiers::{Pieces, Tiers};
use super::{CacheConfig, Health};
use crate::arbiter::CacheArbiter;
use crate::journal::Record;

/// One extent on its way to the global file: queued to the sync
/// thread, or parked on [`Volume::deferred`] until the next flush.
pub(super) struct SyncMsg {
    pub(super) offset: u64,
    pub(super) len: u64,
    /// The coherent-mode range lock, held until the extent is synced.
    pub(super) lock: Option<RangeLockGuard>,
    /// Bounded-queue slot (`e10_cache_sync_depth`), held only for its
    /// drop: releasing it after the extent is drained readmits one
    /// waiting writer.
    pub(super) _slot: Option<SemaphoreGuard>,
}

impl SyncMsg {
    /// A request for `[offset, offset+len)` holding no lock and no
    /// queue slot.
    pub(super) fn new(offset: u64, len: u64) -> SyncMsg {
        SyncMsg {
            offset,
            len,
            lock: None,
            _slot: None,
        }
    }
}

/// State shared by the foreground layer and the sync thread. The
/// channel's sending end is *not* here: it stays with the foreground,
/// so dropping the layer closes the channel and ends the thread.
pub(crate) struct Volume {
    pub(super) cfg: CacheConfig,
    pub(super) tiers: Tiers,
    pub(super) journal: Option<LocalFile>,
    pub(super) global: PfsHandle,
    /// The node's shared multi-tenant arbiter (one per mount) and this
    /// cache's tenant id in it; `None` for an unmanaged cache
    /// (`e10_cache_hiwater = 0`), which never talks to the arbiter.
    pub(super) tenant: Option<(Rc<CacheArbiter>, usize)>,
    /// Managed caches only: the chunk the sync thread read back and has
    /// not yet offered to the arbiter (at most one: the thread is FIFO),
    /// cleared when a write lands over it; and the writes still staging,
    /// of which none may land under a chunk offered before it.
    pub(super) unoffered: Cell<Option<(u64, u64)>>,
    pub(super) staging: Cell<u32>,
    /// The write-through gate: set on any condition that stops the
    /// cache admitting new extents (full, reservation exhausted,
    /// persistently corrupting, sync thread gone, device failed).
    pub(super) degraded: Cell<bool>,
    /// The device-failure state machine (see [`Health`]); additionally
    /// distinguishes a volume that is replaying its unsynced extents
    /// from one that has merely stopped admitting new ones.
    pub(super) health: Cell<Health>,
    pub(super) integrity: Integrity,
    /// Sync requests posted but not yet pushed to the global file.
    /// A counter (not a request list) so the steady-state enqueue →
    /// complete cycle allocates nothing; `flush` waits for it to reach
    /// zero via `sync_idle`.
    pub(super) pending_syncs: Cell<u64>,
    /// Armed by a waiting `flush`; the sync thread sets it when
    /// `pending_syncs` drains to zero.
    pub(super) sync_idle: RefCell<Option<Flag>>,
    pub(super) bytes_synced: Cell<u64>,
    pub(super) sync_errors: Cell<u64>,
    /// Extents the next `flush` queues: writes staged under
    /// `flush_onclose`, and chunks whose global write exhausted its
    /// retries (still staged: no `Synced` record, no punch). `close`
    /// keeps the cache files while any remain.
    pub(super) deferred: RefCell<Vec<SyncMsg>>,
}

impl Volume {
    /// Bytes of `[pos, pos+n)` resident on the block tier.
    pub(crate) fn resident(&self, pos: u64, n: u64) -> u64 {
        self.tiers.block.covered_bytes_in(pos, n)
    }

    /// Drop the synced `[pos, pos+n)` from the cache: punch it out of
    /// the tiers, prune the integrity mirror in lock-step (so later
    /// verifies compare like with like, and scrub repair does not
    /// resurrect the punched bytes) and return the block bytes freed to
    /// the tenant. Returns those bytes. The sync thread's streaming
    /// eviction and the arbiter's pressure eviction both end here.
    pub(crate) async fn evict(&self, pos: u64, n: u64) -> u64 {
        let freed = self.resident(pos, n);
        self.tiers.evict(pos, n).await;
        if let Some(mirror) = self.integrity.mirror() {
            mirror.borrow_mut().remove(pos, n);
        }
        if let Some((arbiter, t)) = &self.tenant {
            arbiter.note_freed(*t, freed);
        }
        freed
    }

    /// A managed write over `[pos, pos+n)` finished staging (or failed
    /// to): a read-back chunk it overlaps is stale.
    pub(super) fn staged(&self, pos: u64, n: u64) {
        self.staging.set(self.staging.get() - 1);
        let window = self.unoffered.get();
        self.unoffered
            .set(window.filter(|&(o, l)| o + l <= pos || pos + n <= o));
    }

    /// `Draining → Retired`: nothing is pending any more.
    /// The journal gains a [`Record::Retired`] mark — best-effort,
    /// since the journal may live on the very device that failed — so
    /// recovery after a later power loss knows there is nothing to
    /// re-queue.
    async fn finish_retire(&self) {
        if self.health.get() != Health::Draining {
            return;
        }
        if let Some(jnl) = &self.journal {
            let _ = jnl.append_bytes(&Record::Retired.encode()).await;
        }
        self.health.set(Health::Retired);
        trace::counter("cache.retired", 1);
        trace::emit(|| {
            Event::new(Layer::Romio, "cache.retire", EventKind::End).node(self.cfg.node)
        });
    }

    /// `Healthy → Draining`, entered when an operation hit a dead
    /// device (or noticed the sync pipeline was killed). The foreground
    /// degrades to write-through immediately and the arbiter forgets
    /// the volume's reservations and eviction candidates — the tier is
    /// gone. Queued extents keep draining in the sync thread; if
    /// nothing is pending the tier retires on the spot.
    pub(super) async fn retire(&self, cause: &'static str) {
        if self.health.get() != Health::Healthy {
            return;
        }
        self.health.set(Health::Draining);
        self.degraded.set(true);
        if let Some((arbiter, t)) = &self.tenant {
            arbiter.release_file(self);
            arbiter.note_freed(*t, self.tiers.block.extents().covered_bytes());
        }
        trace::counter("cache.draining", 1);
        trace::emit(|| {
            Event::new(Layer::Romio, "cache.retire", EventKind::Begin)
                .node(self.cfg.node)
                .field("cause", cause)
        });
        if self.pending_syncs.get() == 0 {
            self.finish_retire().await;
        }
    }

    /// `ADIOI_Sync_thread_start`: one dedicated task per open file that
    /// drains sync requests FIFO. It is started by the first extent
    /// posted to the volume, not by the open, so a volume that never
    /// receives one (a non-aggregator's) never has it; the scrub period
    /// still runs from `opened`, the open instant.
    pub(super) async fn sync_loop(self: Rc<Self>, mut rx: Receiver<SyncMsg>, opened: SimTime) {
        let node = self.cfg.node;
        let mut last_scrub = opened;
        // Scratch for the per-chunk read-back; reaches its high-water
        // mark during warm-up and is reused for every later chunk.
        let mut pieces: Pieces = Vec::new();
        while let Some(msg) = rx.recv().await {
            if self.health.get() == Health::Healthy
                && self.cfg.scrub_ms > 0
                && e10_simcore::now() >= last_scrub + SimDuration::from_millis(self.cfg.scrub_ms)
            {
                last_scrub = e10_simcore::now();
                self.integrity.scrub(&self.tiers).await;
            }
            trace::emit(|| {
                Event::new(Layer::Romio, "cache.sync", EventKind::Begin)
                    .node(node)
                    .field("offset", msg.offset)
                    .field("bytes", msg.len)
            });
            let end = msg.offset + msg.len;
            let mut pos = msg.offset;
            while pos < end {
                pos += self.sync_chunk(pos, end, &mut pieces).await;
            }
            trace::emit(|| {
                Event::new(Layer::Romio, "cache.sync", EventKind::End)
                    .node(node)
                    .field("offset", msg.offset)
                    .field("bytes", msg.len)
            });
            trace::counter("cache.bytes_synced", msg.len);
            self.pending_syncs.set(self.pending_syncs.get() - 1);
            if self.pending_syncs.get() == 0 {
                // Drain complete: the tier is formally retired and the
                // journal (best-effort) records it.
                self.finish_retire().await;
                if let Some(f) = self.sync_idle.borrow_mut().take() {
                    f.set();
                }
            }
            drop(msg.lock);
        }
    }

    /// Push the next chunk of `[pos, end)` to the global file; returns
    /// its length. `pieces` is scratch.
    async fn sync_chunk(self: &Rc<Self>, pos: u64, end: u64, pieces: &mut Pieces) -> u64 {
        let node = self.cfg.node;
        // Degraded-mode survivability: notice a dead cache device or a
        // killed sync pipeline before touching the chunk — from here on
        // queued extents replay from the resident mirror instead of the
        // device.
        if self.health.get() == Health::Healthy {
            if self.tiers.block_fs.device().failed() || e10_faultsim::sync_thread_killed(node) {
                self.retire("device_fail").await;
            } else if self.tiers.front_failed() {
                // A dead hybrid front spills to the block tier when the
                // mirror can replay it; without the mirror its bytes
                // are unrecoverable and the volume drains.
                match self.integrity.mirror() {
                    Some(mirror) => self.tiers.spill_front(mirror).await,
                    None => self.retire("front_fail").await,
                }
            }
        }
        let n = self.cfg.ind_wr.min(end - pos);
        // Fair flush scheduling: with two or more watermark-managed
        // jobs on the node, each chunk takes a deficit-round-robin turn
        // so one job cannot monopolise the sync path.
        let metered = match &self.tenant {
            Some((arbiter, t)) if arbiter.flush_begin(*t, n).await => Some(arbiter),
            _ => None,
        };
        // Read back from the owning tier(s)...
        if self.tenant.is_some() {
            self.unoffered.set(Some((pos, n)));
        }
        self.tiers.read_into(pos, n, pieces).await;
        // Degraded drain: with the volume Draining/Retired the device
        // read above cannot be trusted (a dead device returns nothing
        // at all). Replay the chunk from the checksummed resident
        // mirror when it covers the range; whatever neither the mirror
        // nor a still-readable tier can produce is genuinely lost and
        // is accounted as a sync error — never silently skipped.
        let mut lost = 0u64;
        if self.health.get() != Health::Healthy {
            match self
                .integrity
                .mirror()
                .filter(|m| m.borrow().covered(pos, n))
            {
                Some(mirror) => {
                    let truth: Pieces = mirror.borrow().lookup(pos, n);
                    pieces.clear();
                    pieces.extend(truth);
                    trace::counter("cache.drain_bytes", n);
                }
                None => {
                    let have: u64 = pieces
                        .iter()
                        .filter(|(_, s)| s.is_some())
                        .map(|(r, _)| r.end - r.start)
                        .sum();
                    lost = n - have;
                }
            }
        }
        if lost > 0 {
            self.sync_errors.set(self.sync_errors.get() + 1);
            trace::counter("cache.drain_lost_bytes", lost);
            trace::emit(|| {
                Event::new(Layer::Romio, "cache.drain_loss", EventKind::Point)
                    .node(node)
                    .field("offset", pos)
                    .field("bytes", lost)
            });
        }
        // Verify-on-flush: never push unchecked bytes to the global
        // file. If the device keeps corrupting, this chunk is still
        // streamed from the in-memory copy but the cache degrades and
        // the failure surfaces as a typed error at flush. While
        // draining the ladder is moot: the mirror pieces *are* the
        // ground truth and the device is gone.
        if self.health.get() == Health::Healthy
            && self
                .integrity
                .verify(&self.tiers, Stage::Flush, pos, n, pieces)
                .await
        {
            self.degraded.set(true);
        }
        // ...and stream to the global file.
        let mut chunk_ok = lost == 0;
        for (range, src) in pieces.drain(..) {
            if let Some(src) = src {
                let len = range.end - range.start;
                if let Err(e) = self
                    .global
                    .write(node, range.start, Payload { src, len })
                    .await
                {
                    // Leave the chunk in the cache (no Synced record,
                    // no punch) and on record: the data is still
                    // recoverable from here, and the next flush tries
                    // again.
                    chunk_ok = false;
                    self.deferred.borrow_mut().push(SyncMsg::new(pos, n));
                    self.sync_errors.set(self.sync_errors.get() + 1);
                    trace::emit(|| {
                        Event::new(Layer::Romio, "cache.sync_error", EventKind::Point)
                            .node(node)
                            .field("offset", range.start)
                            .field("error", e.to_string())
                    });
                    trace::counter("cache.sync_errors", 1);
                    break;
                }
            }
        }
        if chunk_ok {
            if let Some(jnl) = &self.journal {
                let synced = Record::Synced {
                    offset: pos,
                    len: n,
                };
                let _ = jnl.append_bytes(&synced.encode()).await;
            }
            // Streaming space management: drop the chunk from the cache
            // as soon as it is persistent globally.
            if self.cfg.evict {
                self.evict(pos, n).await;
            } else if let Some((arbiter, _)) = &self.tenant {
                // The chunk stays resident but is globally persistent:
                // unless a write landed over it since the read-back, one
                // is still staging, or the volume is draining, offer it
                // to the arbiter as an eviction candidate under pressure.
                let clean = self.unoffered.take().is_some() && self.staging.get() == 0;
                if clean && self.health.get() == Health::Healthy {
                    arbiter.note_synced(self, pos, n);
                }
            }
            self.bytes_synced.set(self.bytes_synced.get() + n);
        }
        if let Some(arbiter) = metered {
            arbiter.flush_end();
        }
        n
    }
}
