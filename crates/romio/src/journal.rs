//! Crash-consistent cache manifest journal (`e10_cache_journal`).
//!
//! The cache file itself holds the staged data; this journal is the
//! *manifest* that makes it recoverable. Every extent accepted into the
//! cache appends an `Add` record *before* the write call returns to the
//! application, and the sync thread appends a `Synced` record for each
//! chunk once the global file has acknowledged it. After a node crash
//! the journal is replayed: `Add \ Synced` is exactly the set of
//! extents whose data sits in the (durable) cache file but may not have
//! reached the global file, so recovery re-queues them.
//!
//! Records are fixed-size (32 bytes, four little-endian `u64` words:
//! kind, offset, len, checksum). A power loss can tear the journal's
//! own tail mid-record; replay stops at the first short or
//! checksum-invalid record and reports the tail as torn. Because an
//! `Add` is only written after its cache-file data write completed, a
//! torn tail can only lose records for extents the application was
//! never told were accepted — never acknowledged data.
//!
//! The kinds are 1 `Add`, 2 `Synced`, 3 `Cksum` and 5 `Retired`. Kind
//! 4 is retired for good: it marked an arbiter eviction, which replay
//! skipped (only synced extents are evictable). It is never written,
//! decodes as invalid and is not reused; pressure eviction writes
//! nothing here.

/// Bytes per journal record.
pub const RECORD_LEN: usize = 32;

/// XOR'd into every checksum so a zeroed region never validates.
const MAGIC: u64 = 0xe10c_ac4e_0000_0001;

/// One journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// Extent `[offset, offset+len)` was written to the cache file.
    Add {
        /// File offset of the extent.
        offset: u64,
        /// Extent length in bytes.
        len: u64,
    },
    /// Extent `[offset, offset+len)` is persistent in the global file.
    Synced {
        /// File offset of the extent.
        offset: u64,
        /// Extent length in bytes.
        len: u64,
    },
    /// Structural data digest of the extent added at `offset` (format
    /// version 2, `e10_integrity`): recovery verifies the cache-file
    /// bytes against it before re-queueing. Journals written without
    /// integrity checking simply contain no `Cksum` records, so both
    /// formats replay with the same code path.
    Cksum {
        /// File offset of the digested extent.
        offset: u64,
        /// [`e10_storesim::ExtentMap::digest`] over the extent.
        digest: u64,
    },
    /// The cache tier was retired after a permanent device failure
    /// (kind 5): the health state machine drained every
    /// unsynced extent straight to the global file and abandoned the
    /// volume. Recovery after a later power loss must not re-queue
    /// anything — the tier is gone and the drain already made the data
    /// durable. Both words are reserved (zero).
    Retired,
}

impl Record {
    fn words(&self) -> (u64, u64, u64) {
        match *self {
            Record::Add { offset, len } => (1, offset, len),
            Record::Synced { offset, len } => (2, offset, len),
            Record::Cksum { offset, digest } => (3, offset, digest),
            Record::Retired => (5, 0, 0),
        }
    }

    /// Serialise to the fixed 32-byte on-journal form.
    pub fn encode(&self) -> [u8; RECORD_LEN] {
        let (kind, offset, len) = self.words();
        let cksum = MAGIC ^ kind ^ offset ^ len;
        let mut out = [0u8; RECORD_LEN];
        for (i, w) in [kind, offset, len, cksum].into_iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parse one record; `None` for short input, a bad checksum or an
    /// unknown kind (all of which mean: torn/corrupt tail, stop).
    pub fn decode(bytes: &[u8]) -> Option<Record> {
        if bytes.len() < RECORD_LEN {
            return None;
        }
        let word = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            u64::from_le_bytes(b)
        };
        let (kind, offset, len, cksum) = (word(0), word(1), word(2), word(3));
        if cksum != MAGIC ^ kind ^ offset ^ len {
            return None;
        }
        match kind {
            1 => Some(Record::Add { offset, len }),
            2 => Some(Record::Synced { offset, len }),
            3 => Some(Record::Cksum {
                offset,
                digest: len,
            }),
            5 => Some(Record::Retired),
            _ => None,
        }
    }
}

/// Result of scanning a journal image.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Records up to the first invalid one.
    pub records: Vec<Record>,
    /// True if trailing bytes were dropped (torn or corrupt tail).
    pub torn: bool,
}

impl Replay {
    /// Extents added but not (fully) synced, coalesced and sorted —
    /// the set recovery must push to the global file.
    pub fn unsynced(&self) -> Vec<(u64, u64)> {
        let mut map = e10_storesim::ExtentMap::new();
        if self.retired() {
            // A retired tier was drained in full before the Retired
            // record was appended: nothing is recoverable (or needs to
            // be) from this volume.
            return Vec::new();
        }
        for r in &self.records {
            match *r {
                Record::Add { offset, len } => map.insert(offset, len, e10_storesim::Source::Zero),
                Record::Synced { offset, len } => map.remove(offset, len),
                Record::Cksum { .. } | Record::Retired => {}
            }
        }
        map.iter()
            .map(|(start, end, _)| (start, end - start))
            .collect()
    }

    /// True if the journal records the tier's retirement (a permanent
    /// device failure whose drain already completed).
    pub fn retired(&self) -> bool {
        self.records.iter().any(|r| matches!(r, Record::Retired))
    }

    /// Latest recorded data digest per extent offset (format v2; empty
    /// for journals written without `e10_integrity`).
    pub fn digests(&self) -> std::collections::BTreeMap<u64, u64> {
        let mut out = std::collections::BTreeMap::new();
        for r in &self.records {
            if let Record::Cksum { offset, digest } = *r {
                out.insert(offset, digest);
            }
        }
        out
    }
}

/// Scan a raw journal image, stopping at the first invalid record.
pub fn replay(log: &[u8]) -> Replay {
    let mut out = Replay::default();
    let mut pos = 0;
    while pos + RECORD_LEN <= log.len() {
        match Record::decode(&log[pos..pos + RECORD_LEN]) {
            Some(r) => out.records.push(r),
            None => {
                out.torn = true;
                return out;
            }
        }
        pos += RECORD_LEN;
    }
    out.torn = pos < log.len();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for r in [
            Record::Add { offset: 0, len: 1 },
            Record::Add {
                offset: 4 << 20,
                len: 512 << 10,
            },
            Record::Synced {
                offset: u64::MAX / 2,
                len: 7,
            },
        ] {
            assert_eq!(Record::decode(&r.encode()), Some(r));
        }
    }

    #[test]
    fn corrupt_or_short_records_are_rejected() {
        let good = Record::Add {
            offset: 100,
            len: 200,
        }
        .encode();
        assert!(Record::decode(&good[..RECORD_LEN - 1]).is_none(), "short");
        let mut flipped = good;
        flipped[9] ^= 0x40;
        assert!(Record::decode(&flipped).is_none(), "bad checksum");
        assert!(Record::decode(&[0u8; RECORD_LEN]).is_none(), "zeroed");
    }

    #[test]
    fn replay_stops_at_torn_tail() {
        let mut log = Vec::new();
        log.extend_from_slice(&Record::Add { offset: 0, len: 64 }.encode());
        log.extend_from_slice(&Record::Synced { offset: 0, len: 64 }.encode());
        // Torn third record: only half its bytes made it.
        log.extend_from_slice(
            &Record::Add {
                offset: 64,
                len: 64,
            }
            .encode()[..16],
        );
        let rep = replay(&log);
        assert_eq!(rep.records.len(), 2);
        assert!(rep.torn);
        assert!(rep.unsynced().is_empty());
    }

    #[test]
    fn unsynced_is_add_minus_synced_with_partial_sync() {
        let mut log = Vec::new();
        for r in [
            Record::Add {
                offset: 0,
                len: 1024,
            },
            Record::Add {
                offset: 4096,
                len: 1024,
            },
            // First extent synced in two chunks; second untouched.
            Record::Synced {
                offset: 0,
                len: 512,
            },
            Record::Synced {
                offset: 512,
                len: 512,
            },
        ] {
            log.extend_from_slice(&r.encode());
        }
        let rep = replay(&log);
        assert!(!rep.torn);
        assert_eq!(rep.unsynced(), vec![(4096, 1024)]);
    }

    #[test]
    fn cksum_records_roundtrip_and_collect() {
        let r = Record::Cksum {
            offset: 4096,
            digest: 0xDEAD_BEEF_CAFE_F00D,
        };
        assert_eq!(Record::decode(&r.encode()), Some(r));
        let mut log = Vec::new();
        for r in [
            Record::Add {
                offset: 4096,
                len: 512,
            },
            Record::Cksum {
                offset: 4096,
                digest: 7,
            },
            // A re-write of the same extent supersedes the digest.
            Record::Cksum {
                offset: 4096,
                digest: 9,
            },
        ] {
            log.extend_from_slice(&r.encode());
        }
        let rep = replay(&log);
        assert!(!rep.torn);
        assert_eq!(rep.digests().get(&4096), Some(&9));
        assert_eq!(rep.unsynced(), vec![(4096, 512)]);
    }

    #[test]
    fn v1_journals_without_cksum_records_still_replay() {
        // Format-version compatibility: a journal written before data
        // checksumming existed (only Add/Synced records) must replay
        // identically — no digests, same unsynced set.
        let mut log = Vec::new();
        for r in [
            Record::Add {
                offset: 0,
                len: 1024,
            },
            Record::Synced {
                offset: 0,
                len: 256,
            },
        ] {
            log.extend_from_slice(&r.encode());
        }
        let rep = replay(&log);
        assert!(!rep.torn);
        assert!(rep.digests().is_empty());
        assert_eq!(rep.unsynced(), vec![(256, 768)]);
    }

    #[test]
    fn retired_kind_4_decodes_as_invalid() {
        // A well-formed record of the retired eviction kind, checksum
        // and all, ends replay like any unknown kind.
        let (offset, len) = (8192u64, 512u64);
        let mut rec = [0u8; RECORD_LEN];
        for (i, w) in [4, offset, len, MAGIC ^ 4 ^ offset ^ len]
            .into_iter()
            .enumerate()
        {
            rec[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        assert_eq!(Record::decode(&rec), None);
        let mut log = Record::Add { offset, len }.encode().to_vec();
        log.extend_from_slice(&rec);
        let rep = replay(&log);
        assert!(rep.torn);
        assert_eq!(rep.unsynced(), vec![(offset, len)]);
    }

    #[test]
    fn retired_records_roundtrip_and_empty_the_unsynced_set() {
        assert_eq!(
            Record::decode(&Record::Retired.encode()),
            Some(Record::Retired)
        );
        // A tier that failed mid-sync: one extent still unsynced when
        // the drain ran and the Retired record landed. Replay must
        // report retirement and re-queue nothing — the drain already
        // pushed the bytes to the global file.
        let mut log = Vec::new();
        for r in [
            Record::Add {
                offset: 0,
                len: 1024,
            },
            Record::Synced {
                offset: 0,
                len: 512,
            },
            Record::Retired,
        ] {
            log.extend_from_slice(&r.encode());
        }
        let rep = replay(&log);
        assert!(!rep.torn);
        assert!(rep.retired());
        assert!(rep.unsynced().is_empty());
        // Without the Retired record the same journal re-queues the
        // tail, pinning that retirement is what empties the set.
        let rep = replay(&log[..2 * RECORD_LEN]);
        assert!(!rep.retired());
        assert_eq!(rep.unsynced(), vec![(512, 512)]);
    }

    #[test]
    fn adjacent_adds_coalesce_in_unsynced() {
        let mut log = Vec::new();
        for r in [
            Record::Add {
                offset: 0,
                len: 512,
            },
            Record::Add {
                offset: 512,
                len: 512,
            },
        ] {
            log.extend_from_slice(&r.encode());
        }
        assert_eq!(replay(&log).unsynced(), vec![(0, 1024)]);
    }
}
