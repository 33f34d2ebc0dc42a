//! The checksum pipeline's state and its one verdict ledger
//! (`e10_integrity`): the resident mirror, the pending typed error and
//! the mismatch/repair counters, shared by the flush, scrub and read
//! stages.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_storesim::{pieces_digest, ExtentMap, Payload, Source};

use super::tiers::{Pieces, Tiers};
use crate::error::Error;

/// Which consumer of cached bytes is verifying a chunk.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Stage {
    /// The sync thread, before pushing the chunk to the global file.
    Flush,
    /// The periodic scrubber. It only reports: degrading is left to
    /// the flush path, which is about to read the same bytes anyway.
    Scrub,
    /// A cached collective read.
    Read,
}

impl Stage {
    fn label(self) -> &'static str {
        match self {
            Stage::Flush => "flush",
            Stage::Scrub => "scrub",
            Stage::Read => "read",
        }
    }
}

/// Outcome of verifying one chunk of cache-file bytes against the
/// resident mirror.
enum Verdict {
    /// Bytes match the write-time digest (possibly after a re-read).
    Clean(Option<Pieces>),
    /// Bytes were wrong; the cache file was rewritten from the mirror
    /// and now verifies. The returned pieces are the repaired copy.
    Repaired(Pieces),
    /// Bytes stay wrong even after rewriting them — the device is
    /// persistently corrupting. The returned pieces are the in-memory
    /// ground truth (still safe to serve), but the cache must degrade.
    Failing(Pieces),
}

#[derive(Default)]
pub(super) struct Integrity {
    /// In-memory mirror of what the cache file *should* contain — the
    /// ground truth the checksum pipeline verifies against and repairs
    /// from. `None` with `e10_integrity` off, so the default path pays
    /// nothing.
    pub(super) mirror: Option<Rc<RefCell<ExtentMap>>>,
    /// First unrepairable integrity failure; surfaced (once) by the
    /// next `flush`/`close`.
    pub(super) error: RefCell<Option<Error>>,
    pub(super) mismatches: Cell<u64>,
    pub(super) repairs: Cell<u64>,
}

impl Integrity {
    /// The resident mirror, when one is kept.
    pub(super) fn mirror(&self) -> Option<&RefCell<ExtentMap>> {
        self.mirror.as_deref()
    }

    /// The verify → re-read → repair-from-memory ladder. `pieces` is
    /// what the tiers currently return for `[pos, pos+n)`. Returns
    /// `None` when the mirror does not fully cover the range (recovered
    /// cache: journal digests were already checked at recovery, nothing
    /// to compare here).
    async fn ladder(
        &self,
        tiers: &Tiers,
        pos: u64,
        n: u64,
        pieces: &[(std::ops::Range<u64>, Option<Source>)],
    ) -> Option<Verdict> {
        let resident = self.mirror()?;
        let (covered, expected) = {
            let r = resident.borrow();
            (r.covered(pos, n), r.digest(pos, n))
        };
        if !covered {
            return None;
        }
        if pieces_digest(pos, pieces) == expected {
            return Some(Verdict::Clean(None));
        }
        // Bounded re-read: rules out a transient read-path glitch
        // before blaming the stored bytes.
        for _ in 0..2 {
            let again = tiers.read(pos, n).await;
            if pieces_digest(pos, &again) == expected {
                return Some(Verdict::Clean(Some(again)));
            }
        }
        // The stored bytes are wrong: rewrite them from the mirror
        // (each piece to the tier that owns it), then check the device
        // accepted the repair.
        let truth: Pieces = resident.borrow().lookup(pos, n);
        for (range, src) in &truth {
            if let Some(src) = src {
                let len = range.end - range.start;
                let src = src.clone();
                tiers.rewrite(range.start, Payload { src, len }).await;
            }
        }
        let reread = tiers.read(pos, n).await;
        if pieces_digest(pos, &reread) == expected {
            Some(Verdict::Repaired(reread))
        } else {
            Some(Verdict::Failing(truth))
        }
    }

    /// Verify `pieces` — what the tiers returned for `[pos, pos+n)` —
    /// and leave bytes that are safe to use in their place: re-read,
    /// repaired, or (when the device keeps corrupting) the in-memory
    /// ground truth. Returns `true` when the volume must degrade to
    /// write-through; the typed error is then pending for the next
    /// `flush`/`close`.
    pub(super) async fn verify(
        &self,
        tiers: &Tiers,
        stage: Stage,
        pos: u64,
        n: u64,
        pieces: &mut Pieces,
    ) -> bool {
        let (good, repaired, failing) = match self.ladder(tiers, pos, n, pieces).await {
            None | Some(Verdict::Clean(None)) => return false,
            // The scrubber is after stored damage only.
            Some(Verdict::Clean(Some(_))) if stage == Stage::Scrub => return false,
            Some(Verdict::Clean(Some(again))) => (again, false, false),
            Some(Verdict::Repaired(fixed)) => (fixed, true, false),
            Some(Verdict::Failing(truth)) => (truth, false, true),
        };
        *pieces = good;
        self.mismatches.set(self.mismatches.get() + 1);
        trace::counter("integrity.mismatch", 1);
        let degrade = failing && stage != Stage::Scrub;
        if degrade {
            trace::counter("integrity.degraded", 1);
            let (offset, len, stage) = (pos, n, stage.label());
            self.error
                .borrow_mut()
                .get_or_insert(Error::Integrity { offset, len, stage });
        }
        if repaired {
            self.repairs.set(self.repairs.get() + 1);
            trace::counter("integrity.repaired", 1);
        }
        // Flush and scrub report their repairs, the flush path its
        // degrade, the read path every mismatch.
        let event = match stage {
            Stage::Read => Some("integrity.read_mismatch"),
            Stage::Flush if repaired => Some("integrity.flush_repair"),
            Stage::Scrub if repaired => Some("integrity.scrub_repair"),
            Stage::Flush if failing => Some("integrity.degrade"),
            _ => None,
        };
        if stage == Stage::Read {
            trace::counter("integrity.read_mismatch", 1);
        }
        if let Some(name) = event {
            trace::emit(|| {
                Event::new(Layer::Romio, name, EventKind::Point)
                    .node(tiers.node)
                    .field("offset", pos)
                    .field("bytes", n)
                    .field("stage", stage.label())
            });
        }
        degrade
    }

    /// One scrubber pass: re-verify (and repair) every resident extent.
    pub(super) async fn scrub(&self, tiers: &Tiers) {
        let Some(resident) = self.mirror() else {
            return;
        };
        let extents: Vec<(u64, u64)> = resident
            .borrow()
            .iter()
            .map(|(s, e, _)| (s, e - s))
            .collect();
        let mut scrubbed = 0;
        for (o, l) in extents {
            let mut pieces = tiers.read(o, l).await;
            self.verify(tiers, Stage::Scrub, o, l, &mut pieces).await;
            scrubbed += l;
        }
        trace::counter("integrity.scrubbed_bytes", scrubbed);
    }
}
