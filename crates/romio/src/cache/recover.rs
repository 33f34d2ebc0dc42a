//! Post-crash recovery: replay the manifest journal against the
//! (durable) tiers and re-queue whatever never reached the global file.

use e10_localfs::{FsError, LocalFs};
use e10_pfs::PfsHandle;
use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_storesim::{ExtentMap, Source};

use super::tiers::{Attach, Tiers};
use super::volume::SyncMsg;
use super::{CacheConfig, CacheLayer};
use crate::error::Error;
use crate::journal::{self, Record};

/// What [`CacheLayer::recover`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Valid journal records replayed.
    pub records: usize,
    /// True if the journal tail was torn by the crash.
    pub torn_tail: bool,
    /// Extents re-queued for synchronisation (offset, len).
    pub requeued: Vec<(u64, u64)>,
    /// Total re-queued bytes.
    pub requeued_bytes: u64,
    /// Staged extents whose cache-file bytes no longer match their
    /// journalled write-time digest; dropped from the re-queue set so
    /// corruption is never pushed to the global file (offset, len).
    pub corrupt: Vec<(u64, u64)>,
    /// Total dropped bytes.
    pub corrupt_bytes: u64,
    /// True if the journal carries a [`Record::Retired`] mark: the
    /// tier was drained to the global file before it was abandoned,
    /// so there is nothing to re-queue.
    pub retired: bool,
}

/// Why a cache could not be recovered.
#[derive(Debug)]
pub enum RecoverError {
    /// No journal was kept (or it did not survive): any bytes still in
    /// the cache file are unaccounted for — report them as data loss.
    NoJournal {
        /// Bytes found staged in the cache file with no manifest.
        cached_bytes: u64,
    },
    /// Local file-system failure during recovery.
    Local(FsError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::NoJournal { cached_bytes } => write!(
                f,
                "cache not recoverable: no manifest journal ({cached_bytes} staged bytes lost)"
            ),
            RecoverError::Local(e) => write!(f, "cache recovery failed: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::NoJournal { .. } => None,
            RecoverError::Local(e) => Some(e),
        }
    }
}

impl CacheLayer {
    /// Re-open a cache left behind by a crashed process: replay the
    /// manifest journal, re-queue every extent that never reached the
    /// global file, and return the running layer plus a report. The
    /// caller typically follows with [`CacheLayer::flush`] to drive the
    /// re-queued extents out.
    ///
    /// Without a journal the staged bytes cannot be attributed and the
    /// cache is *not* recoverable: the error reports how many bytes
    /// were lost.
    pub async fn recover(
        localfs: LocalFs,
        global: PfsHandle,
        cfg: CacheConfig,
    ) -> Result<(CacheLayer, RecoveryReport), RecoverError> {
        Self::recover_with_front(localfs, None, global, cfg).await
    }

    /// [`recover`](Self::recover) with the front store of
    /// [`open_with_front`](Self::open_with_front): a `hybrid` cache
    /// also re-opens the byte-granular front file on `front_fs` (when
    /// it survived) and re-queues front-resident extents from there.
    pub async fn recover_with_front(
        localfs: LocalFs,
        front_fs: Option<LocalFs>,
        global: PfsHandle,
        cfg: CacheConfig,
    ) -> Result<(CacheLayer, RecoveryReport), RecoverError> {
        let cache_file_path = cfg.cache_file_path();
        let journal_file_path = cfg.journal.then(|| cfg.journal_file_path());
        let Some(journal_file_path) = journal_file_path.filter(|p| localfs.exists(p)) else {
            let mut cached_bytes = match localfs.open(&cache_file_path).await {
                Ok(f) => f.extents().covered_bytes(),
                Err(_) => 0,
            };
            if let Some(ffs) = &front_fs {
                if let Ok(f) = ffs.open(&cfg.front_file_path()).await {
                    cached_bytes += f.extents().covered_bytes();
                }
            }
            return Err(RecoverError::NoJournal { cached_bytes });
        };
        let journal_file = localfs
            .open(&journal_file_path)
            .await
            .map_err(RecoverError::Local)?;
        let file = match localfs.open(&cache_file_path).await {
            // Journal without cache file: nothing unsynced can be
            // staged (Adds follow data), start from an empty cache.
            Err(FsError::NotFound(_)) => localfs.create(&cache_file_path).await,
            found => found,
        }
        .map_err(RecoverError::Local)?;
        let tiers = Tiers::attach(file, localfs, front_fs, &cfg, Attach::Reopen)
            .await
            .map_err(RecoverError::Local)?;
        let log = journal_file.read_log().await;
        let rep = journal::replay(&log);
        let mut requeued = rep.unsynced();
        // Format v2: verify staged bytes against their write-time
        // digests before re-queueing. A journal written without
        // integrity checking has no Cksum records and skips this loop
        // entirely — v1 journals recover exactly as before.
        let digests = rep.digests();
        let mut corrupt: Vec<(u64, u64)> = Vec::new();
        if !digests.is_empty() {
            // Digest records describe whole Add extents; where a later
            // Add overwrote an earlier one the old digest no longer
            // applies, so keep only the live (non-overwritten) Adds.
            let mut adds: Vec<(u64, u64)> = Vec::new();
            for r in &rep.records {
                if let Record::Add { offset, len } = *r {
                    adds.retain(|&(o, l)| o + l <= offset || offset + len <= o);
                    adds.push((offset, len));
                }
            }
            let mut unsynced_map = ExtentMap::new();
            for &(o, l) in &requeued {
                unsynced_map.insert(o, l, Source::Zero);
            }
            let ext = tiers.block.extents();
            let front_ext = tiers.front_extents();
            for (o, l) in adds {
                let Some(&digest) = digests.get(&o) else {
                    continue;
                };
                // Only fully-staged, fully-unsynced extents are
                // checkable: partially synced (possibly evicted) ones
                // no longer match a write-time digest by construction.
                // Front-resident extents are checked against the front
                // file, everything else against the block-tier file.
                let owner = match &front_ext {
                    Some(fe) if fe.covered(o, l) => fe,
                    _ => &ext,
                };
                if unsynced_map.covered(o, l) && owner.covered(o, l) && owner.digest(o, l) != digest
                {
                    corrupt.push((o, l));
                }
            }
            if !corrupt.is_empty() {
                for &(o, l) in &corrupt {
                    unsynced_map.remove(o, l);
                }
                requeued = unsynced_map.iter().map(|(s, e, _)| (s, e - s)).collect();
            }
        }
        let requeued_bytes: u64 = requeued.iter().map(|&(_, l)| l).sum();
        let corrupt_bytes: u64 = corrupt.iter().map(|&(_, l)| l).sum();
        let report = RecoveryReport {
            records: rep.records.len(),
            torn_tail: rep.torn,
            requeued: requeued.clone(),
            requeued_bytes,
            corrupt: corrupt.clone(),
            corrupt_bytes,
            retired: rep.retired(),
        };
        let layer = Self::assemble(global, cfg, tiers, Some(journal_file));
        let vol = &layer.inner.vol;
        layer
            .inner
            .bytes_cached
            .set(vol.tiers.block.extents().covered_bytes() + vol.tiers.front_bytes());
        if let Some(&(offset, len)) = corrupt.first() {
            // Never silently drop data: the affected ranges surface as
            // a typed error on the next flush/close.
            let stage = "recover";
            *vol.integrity.error.borrow_mut() = Some(Error::Integrity { offset, len, stage });
            vol.integrity.mismatches.set(corrupt.len() as u64);
            trace::counter("integrity.mismatch", corrupt.len() as u64);
            trace::counter("integrity.recover_dropped_bytes", corrupt_bytes);
        }
        for &(offset, len) in &requeued {
            // The first of these starts the sync thread; a volume
            // `assemble` just made cannot have stopped yet.
            let _ = layer.enqueue_sync(SyncMsg::new(offset, len));
        }
        trace::emit(|| {
            Event::new(Layer::Romio, "cache.recovered", EventKind::Point)
                .node(vol.cfg.node)
                .field("records", report.records as u64)
                .field("torn_tail", report.torn_tail)
                .field("requeued_extents", report.requeued.len() as u64)
                .field("requeued_bytes", report.requeued_bytes)
        });
        trace::counter("cache.recoveries", 1);
        trace::counter("cache.recovered_bytes", report.requeued_bytes);
        Ok((layer, report))
    }
}
