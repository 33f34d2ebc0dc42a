//! The cache's tier set: the block cache file plus an optional
//! byte-granular front, and the only code that knows which shape the
//! front has, whether its device died, how much budget it has left and
//! which tier owns a byte.
//!
//! For the pure `nvm` class the front wraps the cache file itself
//! (small writes hit the same file through the direct, non-staged
//! path); for `hybrid` it is a distinct file on the NVM store while the
//! block tier keeps the main cache file.
//!
//! Invariant: the front map records exactly which byte ranges are
//! owned by the byte-granular path, and (for `hybrid`) a byte lives in
//! exactly one of the two files — overlapping writes punch the loser.

use std::cell::{Cell, RefCell};

use e10_localfs::{FsError, LocalFile, LocalFs};
use e10_netsim::NodeId;
use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_storesim::{ExtentMap, Payload, Source};

use super::CacheConfig;

/// The stored pieces returned by cache reads.
pub(super) type Pieces = Vec<(std::ops::Range<u64>, Option<Source>)>;

/// How [`Tiers::attach`] finds a distinct front file.
#[derive(Clone, Copy)]
pub(super) enum Attach {
    /// A fresh cache: create (truncate) it.
    Create,
    /// After a crash: re-open it if it survived, adopting its extents.
    Reopen,
}

struct Front {
    file: LocalFile,
    fs: LocalFs,
    /// True for `hybrid`: `file` is distinct from the block-tier file.
    separate: bool,
    /// Ranges whose current bytes live in the byte-granular tier.
    map: RefCell<ExtentMap>,
    /// Remaining front budget in bytes (`u64::MAX` when unbounded).
    budget: Cell<u64>,
    /// Set when the front device failed and its bytes were spilled to
    /// the block tier: the byte-granular path disengages for good.
    dead: Cell<bool>,
}

impl Front {
    /// Reserve `n` budget bytes; false leaves the budget untouched.
    fn take_budget(&self, n: u64) -> bool {
        let b = self.budget.get();
        if b >= n {
            self.budget.set(b - n);
        }
        b >= n
    }

    /// Return `n` budget bytes.
    fn give_budget(&self, n: u64) {
        self.budget.set(self.budget.get().saturating_add(n));
    }

    /// Drop `[offset, offset+len)` from the front tier (overwrite by
    /// the block tier, eviction) and refund its budget.
    async fn release(&self, offset: u64, len: u64) {
        let owned = self.map.borrow().covered_bytes_in(offset, len);
        if owned == 0 {
            return;
        }
        self.map.borrow_mut().remove(offset, len);
        self.give_budget(owned);
        if self.separate {
            self.file.punch(offset, len).await;
        }
    }
}

/// Block cache file + optional byte-granular front (see module docs).
pub(super) struct Tiers {
    /// The block-tier cache file (what the arbiter keys, charges and
    /// evicts) and its mount, which also holds the journal.
    pub(super) block: LocalFile,
    pub(super) block_fs: LocalFs,
    /// `None` on block-only stores or with `e10_nvm_threshold = 0`.
    front: Option<Front>,
    /// Writes of at most this many bytes try the front first.
    threshold: u64,
    pub(super) node: NodeId,
    /// [`read_into`](Self::read_into)'s scratch (empty between reads).
    split: Cell<Pieces>,
}

impl Tiers {
    /// Build the tier set over the already-open block file `block` on
    /// `block_fs`. A distinct `front_fs` (the `hybrid` class) gets a
    /// front file of its own, bounded by `e10_nvm_capacity`; without
    /// one, a byte-granular `block_fs` device (the pure `nvm` class)
    /// fronts the cache file itself.
    ///
    /// On [`Attach::Reopen`] a hybrid front file's surviving extents
    /// say exactly which ranges it owns — every completed direct write
    /// is durable there, and overwrites by the block tier punched the
    /// stale copy before acknowledging. Pure nvm starts with an empty
    /// ownership map: staged bytes read fine through the block path on
    /// a cold page cache, and new writes re-engage the direct path.
    pub(super) async fn attach(
        block: LocalFile,
        block_fs: LocalFs,
        front_fs: Option<LocalFs>,
        cfg: &CacheConfig,
        mode: Attach,
    ) -> Result<Tiers, FsError> {
        let target = if cfg.nvm_threshold == 0 {
            None
        } else if let Some(fs) = front_fs {
            let path = cfg.front_file_path();
            let file = match mode {
                Attach::Create => fs.create(&path).await?,
                Attach::Reopen => match fs.open(&path).await {
                    Err(FsError::NotFound(_)) => fs.create(&path).await?,
                    found => found?,
                },
            };
            Some((file, fs, true))
        } else if block_fs.device().byte_granular() {
            Some((block.clone(), block_fs.clone(), false))
        } else {
            None
        };
        let front = target.map(|(file, fs, separate)| {
            let mut map = ExtentMap::new();
            let mut budget = u64::MAX;
            if separate {
                for (s, e, _) in file.extents().iter() {
                    map.insert(s, e - s, Source::Zero);
                }
                if cfg.nvm_capacity > 0 {
                    budget = cfg.nvm_capacity.saturating_sub(map.covered_bytes());
                }
            }
            Front {
                file,
                fs,
                separate,
                map: RefCell::new(map),
                budget: Cell::new(budget),
                dead: Cell::new(false),
            }
        });
        Ok(Tiers {
            block,
            block_fs,
            front,
            threshold: cfg.nvm_threshold,
            node: cfg.node,
            split: Cell::default(),
        })
    }

    fn live_front(&self) -> Option<&Front> {
        self.front.as_ref().filter(|f| !f.dead.get())
    }

    /// True if a byte-granular front was attached.
    pub(super) fn front_active(&self) -> bool {
        self.front.is_some()
    }

    /// Bytes currently owned by the front.
    pub(super) fn front_bytes(&self) -> u64 {
        self.front
            .as_ref()
            .map_or(0, |f| f.map.borrow().covered_bytes())
    }

    /// What a distinct front file holds on the device (recovery checks
    /// front-resident extents against it).
    pub(super) fn front_extents(&self) -> Option<ExtentMap> {
        let f = self.front.as_ref().filter(|f| f.separate)?;
        Some(f.file.extents())
    }

    /// True when a distinct, still-engaged front sits on a device that
    /// has failed: its bytes must be spilled (or the volume drained).
    pub(super) fn front_failed(&self) -> bool {
        self.live_front()
            .is_some_and(|f| f.separate && f.fs.device().failed())
    }

    /// Stage one extent. Extents up to `e10_nvm_threshold` go straight
    /// to the byte-addressable front when `front_ok` — no fallocate, no
    /// page-cache staging; everything else (and whatever the front
    /// cannot take) is preallocated and written on the block tier.
    /// `mirror` is the integrity ground truth: it captures the intended
    /// content before the block device sees it, so it never passes
    /// through the (corruptible) cache file. `on_alloc` reports whether
    /// the block-tier preallocation succeeded, at the instant it
    /// settles — the arbiter's charge must be reconciled before the
    /// data write yields to other tasks. Errors come back unmapped: the
    /// caller decides what a full or dead device means for the volume.
    pub(super) async fn stage(
        &self,
        offset: u64,
        payload: Payload,
        front_ok: bool,
        mirror: Option<&RefCell<ExtentMap>>,
        on_alloc: impl FnOnce(bool),
    ) -> Result<(), FsError> {
        let len = payload.len;
        if let Some(f) = self
            .live_front()
            .filter(|_| front_ok && len <= self.threshold)
        {
            let grow = len - f.map.borrow().covered_bytes_in(offset, len);
            if f.take_budget(grow) {
                match f.file.write_direct(offset, payload.clone()).await {
                    Ok(()) => {
                        if let Some(m) = mirror {
                            m.borrow_mut().insert(offset, len, payload.src);
                        }
                        f.map.borrow_mut().insert(offset, len, Source::Zero);
                        // Each byte lives in exactly one tier: drop any
                        // stale block-tier copy this write supersedes.
                        if f.separate && self.block.covered_bytes_in(offset, len) > 0 {
                            self.block.punch(offset, len).await;
                        }
                        trace::counter("cache.front_write_bytes", len);
                        return Ok(());
                    }
                    Err(e) => {
                        f.give_budget(grow);
                        match (e, mirror) {
                            // Front mount full: overflow to the block
                            // tier below.
                            (FsError::NoSpace { .. }, _) => {}
                            // Front device gone, but the mirror can
                            // replay it: spill to the still-healthy
                            // block tier and stage there.
                            (FsError::DeviceFailed { .. }, Some(m)) if f.separate => {
                                self.spill_front(m).await;
                            }
                            // Otherwise the front bytes are
                            // unrecoverable.
                            (e, _) => return Err(e),
                        }
                    }
                }
            }
        }
        // ADIOI_Cache_alloc: reserve space first so failure is clean.
        let allocated = self.block.fallocate(offset, len).await;
        on_alloc(allocated.is_ok());
        allocated?;
        if let Some(m) = mirror {
            m.borrow_mut().insert(offset, len, payload.src.clone());
        }
        self.block.write(offset, payload).await?;
        // A block-tier overwrite supersedes any front-tier copy.
        if let Some(f) = self.live_front() {
            f.release(offset, len).await;
        }
        Ok(())
    }

    /// Read `[pos, pos+n)` from the right tier(s) into `out`:
    /// front-owned ranges come through the byte-granular direct path
    /// (direct writes never populate the page cache), everything else
    /// through the block tier's normal read path. Pieces come back in
    /// offset order, holes as `None`; a failed read leaves `out` empty.
    /// The sync thread calls this once per chunk forever, so the steady
    /// state must not allocate.
    pub(super) async fn read_into(&self, pos: u64, n: u64, out: &mut Pieces) {
        out.clear();
        // The split along the front map goes into the tier set's
        // scratch, taken out across the awaits and put back after: a
        // concurrent reader finds it gone and pays for its own.
        let mut split = self.split.take();
        let front = self.live_front();
        if let Some(f) = front {
            f.map.borrow().lookup_into(pos, n, &mut split);
        }
        match front {
            Some(f) if split.iter().any(|(_, owned)| owned.is_some()) => {
                for (range, owned) in split.drain(..) {
                    let len = range.end - range.start;
                    if owned.is_some() {
                        let _ = f.file.read_direct_into(range.start, len, out).await;
                    } else {
                        let _ = self.block.read_into(range.start, len, out).await;
                    }
                }
            }
            _ => {
                split.clear();
                if self.block.read_into(pos, n, out).await.is_err() {
                    out.clear();
                }
            }
        }
        self.split.set(split);
    }

    /// [`read_into`](Self::read_into) a fresh buffer.
    pub(super) async fn read(&self, pos: u64, n: u64) -> Pieces {
        let mut out = Vec::new();
        self.read_into(pos, n, &mut out).await;
        out
    }

    /// Write one repair piece to the tier that owns it. Ranges
    /// straddling the tier boundary are split along the front map so
    /// each byte is rewritten in place.
    pub(super) async fn rewrite(&self, offset: u64, payload: Payload) {
        let Some(f) = self.live_front() else {
            let _ = self.block.write(offset, payload).await;
            return;
        };
        let split = f.map.borrow().lookup(offset, payload.len);
        for (range, owned) in split {
            let piece = payload.slice(range.start - offset, range.end - range.start);
            if owned.is_some() {
                let _ = f.file.write_direct(range.start, piece).await;
            } else {
                let _ = self.block.write(range.start, piece).await;
            }
        }
    }

    /// True if `[offset, offset+len)` is fully present in the union of
    /// the two tiers. The empty range is only "covered" where a tier
    /// has data at all: a zero-length query beyond the staged extents
    /// reports `false`, so callers cannot be lured into serving reads
    /// at offsets the cache has never seen.
    pub(super) fn covers(&self, offset: u64, len: u64) -> bool {
        // The empty range asks about the byte at `offset`.
        let end = offset + len.max(1);
        let in_block = |s: u64, e: u64| self.block.covered_bytes_in(s, e - s) == e - s;
        let Some(f) = self.live_front() else {
            return in_block(offset, end);
        };
        // Front-owned ranges plus whatever the block tier holds in the
        // gaps.
        let fm = f.map.borrow();
        let mut pos = offset;
        while let Some(gap) = fm.next_hole(pos, end) {
            if !in_block(gap.start, gap.end) {
                return false;
            }
            pos = gap.end;
        }
        true
    }

    /// Drop a globally persistent range from both tiers.
    pub(super) async fn evict(&self, pos: u64, n: u64) {
        self.block.punch(pos, n).await;
        if let Some(f) = &self.front {
            f.release(pos, n).await;
        }
    }

    /// Move every front-owned byte to the block tier after the NVM
    /// front device of a `hybrid` cache failed. The front itself can no
    /// longer be read, so the bytes are replayed from the resident
    /// `mirror`. The front is marked dead and the volume stays healthy
    /// on its block tier.
    pub(super) async fn spill_front(&self, mirror: &RefCell<ExtentMap>) {
        let Some(f) = &self.front else { return };
        f.dead.set(true);
        f.budget.set(0);
        let owned = std::mem::take(&mut *f.map.borrow_mut());
        let mut moved = 0u64;
        for (s, e, _) in owned.iter() {
            let truth: Pieces = mirror.borrow().lookup(s, e - s);
            let _ = self.block.fallocate(s, e - s).await;
            for (range, src) in truth {
                if let Some(src) = src {
                    let len = range.end - range.start;
                    let _ = self.block.write(range.start, Payload { src, len }).await;
                }
            }
            moved += e - s;
        }
        trace::counter("cache.front_spill_bytes", moved);
        trace::emit(|| {
            Event::new(Layer::Romio, "cache.front_spill", EventKind::Point)
                .node(self.node)
                .field("bytes", moved)
        });
    }

    /// Unlink a distinct front file.
    pub(super) async fn discard_front(&self) {
        if let Some(f) = self.front.as_ref().filter(|f| f.separate) {
            let _ = f.fs.unlink(f.file.path()).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::TestbedSpec;
    use e10_faultsim::{DeviceClass, FaultPlan, FaultSchedule};
    use e10_simcore::{run, sleep, SimDuration, SimRng, SimTime};

    const KIB: u64 = 1 << 10;
    const SPAN: u64 = 256 * KIB;
    const THRESHOLD: u64 = 16 * KIB;
    const MAX_WRITE: u64 = 2 * THRESHOLD;

    /// Compare the tier set against the reference map: every byte has
    /// exactly one owner, the front budget is conserved, and `covers`
    /// and `read` agree with the model on random probes.
    async fn check(tiers: &Tiers, model: &ExtentMap, rng: &mut SimRng, capacity: u64) {
        let block = tiers.block.extents();
        if let Some(f) = tiers.live_front() {
            let on_device = f.file.extents();
            for (s, e, _) in on_device.iter() {
                assert_eq!(
                    block.covered_bytes_in(s, e - s),
                    0,
                    "two owners in [{s}, {e})"
                );
            }
            assert_eq!(tiers.front_bytes(), on_device.covered_bytes());
            assert_eq!(f.budget.get() + tiers.front_bytes(), capacity);
        }
        assert_eq!(
            block.covered_bytes() + tiers.front_bytes(),
            model.covered_bytes()
        );
        for _ in 0..4 {
            let o = rng.below(SPAN);
            let l = rng.below(MAX_WRITE);
            let expect = match l {
                0 => model.covered_bytes_in(o, 1) == 1,
                _ => model.covered(o, l),
            };
            assert_eq!(tiers.covers(o, l), expect, "covers({o}, {l})");
            let mut got = ExtentMap::new();
            for (range, src) in tiers.read(o, l).await {
                if let Some(src) = src {
                    got.insert(range.start, range.end - range.start, src);
                }
            }
            assert_eq!(got.holes(o, l), model.holes(o, l), "holes of [{o}, +{l})");
            assert_eq!(got.materialize(o, l), model.materialize(o, l));
        }
    }

    /// Model-based property: random writes straddling the threshold,
    /// overwrites across tiers and evictions, under a front budget
    /// smaller than the traffic and (odd seeds) an NVM mount smaller
    /// still, so both budget exhaustion and NoSpace overflow to the
    /// block tier, with the front device dying mid-sequence on every
    /// third seed — checked against a reference `ExtentMap` after
    /// every step.
    #[test]
    fn property_tiers_match_a_reference_extent_map() {
        for seed in 0..24u64 {
            run(async move {
                let mut rng = SimRng::new(seed);
                let tight_mount = seed % 2 == 1;
                let fail_at = (seed % 3 == 0).then(|| 20 + rng.below(20));
                let dies = SimTime::ZERO + SimDuration::from_secs(3600);
                let _fault = fail_at.map(|_| {
                    FaultSchedule::install(FaultPlan::new(seed).device_fail(
                        0,
                        DeviceClass::Nvm,
                        dies,
                    ))
                });
                let mut spec = TestbedSpec::small(2, 1);
                if tight_mount {
                    spec.nvm_localfs.capacity = 40 * KIB;
                }
                let tb = spec.build();
                let mut cfg = CacheConfig::new("/scratch", "model", 0, 0);
                cfg.nvm_threshold = THRESHOLD;
                cfg.nvm_capacity = 64 * KIB;
                let block = tb.localfs[0].create(&cfg.cache_file_path()).await.unwrap();
                let tiers = Tiers::attach(
                    block,
                    tb.localfs[0].clone(),
                    Some(tb.nvmfs[0].clone()),
                    &cfg,
                    Attach::Create,
                )
                .await
                .unwrap();
                let mirror = RefCell::new(ExtentMap::new());
                let mut model = ExtentMap::new();
                let mut front_took = 0;
                for op in 0..60u64 {
                    let mut offset = rng.below(SPAN - MAX_WRITE);
                    let mut len = 1 + rng.below(MAX_WRITE);
                    let mut evict = rng.below(5) == 0;
                    if fail_at == Some(op) {
                        sleep(dies.since(e10_simcore::now())).await;
                        assert!(tiers.front_failed());
                        // A small write finds the front dead and spills
                        // it from the mirror.
                        (offset, len, evict) = (0, KIB, false);
                    }
                    if evict {
                        tiers.evict(offset, len).await;
                        mirror.borrow_mut().remove(offset, len);
                        model.remove(offset, len);
                    } else {
                        let payload = Payload::gen(op, offset, len);
                        model.insert(offset, len, payload.src.clone());
                        tiers
                            .stage(offset, payload, true, Some(&mirror), |_| {})
                            .await
                            .unwrap();
                    }
                    if fail_at.is_some_and(|at| op >= at) {
                        assert_eq!(tiers.front_bytes(), 0, "seed {seed}: spilled front owns");
                        assert!(!tiers.front_failed());
                    }
                    front_took = front_took.max(tiers.front_bytes());
                    check(&tiers, &model, &mut rng, cfg.nvm_capacity).await;
                }
                assert!(front_took > 0, "seed {seed}: front never engaged");
            });
        }
    }
}
