//! Extent maps: the contents of a simulated file.
//!
//! A file is a set of non-overlapping, sorted extents, each describing
//! its bytes via a [`Source`]. Writes overwrite (later writes win, POSIX
//! style), splitting whatever they overlap; reads return the covered
//! pieces and the holes. Adjacent extents whose sources continue each
//! other are merged, which keeps maps small even after a two-phase run
//! writes a 32 GB file in millions of pieces.

use crate::pattern::{splitmix64, Source};
use e10_faultsim::Corruption;
use std::collections::BTreeMap;
use std::ops::Range;

/// Fold `v` into the running digest `h`.
fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Structural digest of an ordered piece tiling (as returned by
/// [`ExtentMap::lookup`]), relative to `base`.
///
/// The digest covers the *content identity* of the range: piece
/// boundaries plus, per piece, the source descriptor (`Zero`, `Gen`
/// seed/origin) or — for literals — the actual bytes. Two maps built by
/// the same insert sequence produce the same canonical tiling and hence
/// the same digest; any descriptor mutation (a flipped bit stored as a
/// literal patch, a torn sector stored as zeroes, a hole) changes it.
/// O(#pieces) except for literal pieces, which hash their bytes.
pub fn pieces_digest(base: u64, pieces: &[(Range<u64>, Option<Source>)]) -> u64 {
    let mut h: u64 = 0xE10D_16E5_7C4E_C551;
    for (r, src) in pieces {
        h = mix(h, r.start - base);
        h = mix(h, r.end - r.start);
        match src {
            None => h = mix(h, 0),
            Some(Source::Zero) => h = mix(h, 1),
            Some(Source::Gen { seed, origin }) => {
                h = mix(h, 2);
                h = mix(h, *seed);
                h = mix(h, *origin);
            }
            Some(lit @ Source::Literal { .. }) => {
                h = mix(h, 3);
                for i in 0..(r.end - r.start) {
                    h = mix(h, lit.byte_at(i) as u64);
                }
            }
        }
    }
    h
}

/// An extent map storing `(range → Source)` with overwrite semantics.
#[derive(Clone, Debug, Default)]
pub struct ExtentMap {
    /// start → (end, source)
    map: BTreeMap<u64, (u64, Source)>,
}

/// Error from [`ExtentMap::verify_gen`], describing the first mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A byte range with no data.
    Hole(Range<u64>),
    /// A byte range whose content does not come from the expected
    /// generator stream at the identity position.
    WrongContent {
        /// The mismatching range.
        range: Range<u64>,
        /// What was found there.
        found: String,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Hole(r) => write!(f, "hole at [{}, {})", r.start, r.end),
            VerifyError::WrongContent { range, found } => {
                write!(
                    f,
                    "wrong content at [{}, {}): {found}",
                    range.start, range.end
                )
            }
        }
    }
}

impl ExtentMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored extents.
    pub fn extent_count(&self) -> usize {
        self.map.len()
    }

    /// One past the last written byte (0 if empty).
    pub fn high_water(&self) -> u64 {
        self.map
            .iter()
            .next_back()
            .map(|(_, (e, _))| *e)
            .unwrap_or(0)
    }

    /// Total bytes covered.
    pub fn covered_bytes(&self) -> u64 {
        self.map.iter().map(|(s, (e, _))| e - s).sum()
    }

    /// Bytes of `[start, start + len)` that are covered.
    pub fn covered_bytes_in(&self, start: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let end = start + len;
        let mut covered = 0;
        if let Some((&s, &(e, _))) = self.map.range(..=start).next_back() {
            if e > start && s < start {
                covered += e.min(end) - start;
            }
        }
        for (&s, &(e, _)) in self.map.range(start..end) {
            covered += e.min(end) - s;
        }
        covered
    }

    /// Remove every extent but keep the emptied root node, which
    /// `BTreeMap::clear` would free: a map refilled every round with at
    /// most a node's worth of extents (eleven) then allocates nothing.
    pub fn clear(&mut self) {
        self.map.retain(|_, _| false);
    }

    /// Write `src` over `[start, start + len)`.
    pub fn insert(&mut self, start: u64, len: u64, src: Source) {
        if len == 0 {
            return;
        }
        let end = start + len;
        // Remove every extent overlapping [start, end), one re-seek at
        // a time (no scratch list — the hot write path must not
        // allocate). A split-off left remainder ends at `start` and a
        // right remainder begins at `end`, so neither is found again.
        loop {
            let mut hit = None;
            // The first candidate may begin before `start`.
            if let Some((&s, &(e, _))) = self.map.range(..=start).next_back() {
                if e > start {
                    hit = Some(s);
                }
            }
            if hit.is_none() {
                hit = self.map.range(start..end).next().map(|(&s, _)| s);
            }
            let Some(s) = hit else { break };
            let (e, old) = self.map.remove(&s).expect("extent vanished");
            if s < start {
                // Left remainder keeps its prefix.
                self.map.insert(s, (start, old.clone()));
            }
            if e > end {
                // Right remainder keeps its suffix, with the source
                // advanced past the overwritten middle.
                self.map.insert(end, (e, old.advance(end - s)));
            }
        }
        self.map.insert(start, (end, src));
        self.coalesce_around(start, end);
    }

    /// Merge `start`'s extent with compatible neighbours.
    fn coalesce_around(&mut self, start: u64, end: u64) {
        // Try merging with the predecessor.
        let mut start = start;
        if let Some((&ps, &(pe, _))) = self.map.range(..start).next_back() {
            if pe == start {
                let (_, psrc) = self.map.get(&ps).unwrap().clone();
                let (ce, csrc) = self.map.get(&start).unwrap().clone();
                if psrc.continues(start - ps, &csrc) {
                    self.map.remove(&start);
                    self.map.insert(ps, (ce, psrc));
                    start = ps;
                }
            }
        }
        // Try merging with the successor.
        if let Some((&ns, &(ne, _))) = self.map.range(end..).next() {
            if ns == end {
                let (ce, csrc) = self.map.get(&start).unwrap().clone();
                debug_assert_eq!(ce, end);
                let (_, nsrc) = self.map.get(&ns).unwrap().clone();
                if csrc.continues(end - start, &nsrc) {
                    self.map.remove(&ns);
                    self.map.insert(start, (ne, csrc));
                }
            }
        }
    }

    /// Remove coverage of `[start, start + len)` (hole punching),
    /// trimming any extents that straddle the boundary.
    pub fn remove(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = start + len;
        // Remove overlapped extents one at a time: re-seek after each
        // removal instead of collecting the touched keys first, so the
        // common punch (one whole extent) allocates nothing.
        loop {
            let mut hit = None;
            if let Some((&s, &(e, _))) = self.map.range(..=start).next_back() {
                if e > start {
                    hit = Some(s);
                }
            }
            if hit.is_none() {
                hit = self.map.range(start..end).next().map(|(&s, _)| s);
            }
            let Some(s) = hit else { break };
            let (e, old) = self.map.remove(&s).expect("extent vanished");
            if s < start {
                self.map.insert(s, (start, old.clone()));
            }
            if e > end {
                self.map.insert(end, (e, old.advance(end - s)));
            }
        }
    }

    /// Read `[start, start + len)`: returns consecutive pieces, `None`
    /// source for holes. Pieces are returned in order and exactly tile
    /// the requested range.
    pub fn lookup(&self, start: u64, len: u64) -> Vec<(Range<u64>, Option<Source>)> {
        let mut out = Vec::new();
        self.lookup_into(start, len, &mut out);
        out
    }

    /// [`Self::lookup`], appending into a caller-provided buffer
    /// (allocation-free once the buffer reached its high-water mark).
    pub fn lookup_into(&self, start: u64, len: u64, out: &mut Vec<(Range<u64>, Option<Source>)>) {
        let end = start + len;
        if len == 0 {
            return;
        }
        let mut pos = start;
        let mut clip = |s: u64, e: u64, src: &Source, pos: &mut u64| {
            let cs = s.max(start);
            let ce = e.min(end);
            if cs > *pos {
                out.push((*pos..cs, None));
            }
            out.push((cs..ce, Some(src.advance(cs - s))));
            *pos = ce;
        };
        // Candidate extents: the one possibly straddling `start`, plus
        // everything beginning inside the range (skipping the straddler
        // if it begins exactly at `start`).
        let mut straddler = None;
        if let Some((&s, &(e, _))) = self.map.range(..=start).next_back() {
            if e > start {
                let (_, src) = self.map.get(&s).unwrap();
                clip(s, e, src, &mut pos);
                straddler = Some(s);
            }
        }
        for (&s, &(e, _)) in self.map.range(start..end) {
            if straddler != Some(s) {
                let (_, src) = self.map.get(&s).unwrap();
                clip(s, e, src, &mut pos);
            }
        }
        if pos < end {
            out.push((pos..end, None));
        }
    }

    /// True if every byte of `[start, start + len)` is covered.
    pub fn covered(&self, start: u64, len: u64) -> bool {
        self.covered_bytes_in(start, len) == len
    }

    /// The uncovered sub-ranges of `[start, start + len)`.
    pub fn holes(&self, start: u64, len: u64) -> Vec<Range<u64>> {
        self.lookup(start, len)
            .into_iter()
            .filter_map(|(r, s)| if s.is_none() { Some(r) } else { None })
            .collect()
    }

    /// The first uncovered sub-range of `[start, end)` at or after
    /// `start`, without allocating. Callers that fill holes one at a
    /// time loop on this (each fill moves `start` past the hole).
    pub fn next_hole(&self, start: u64, end: u64) -> Option<Range<u64>> {
        let mut pos = start;
        if pos >= end {
            return None;
        }
        // Skip a straddling extent.
        if let Some((&s, &(e, _))) = self.map.range(..=pos).next_back() {
            if e > pos && s <= pos {
                pos = e;
            }
        }
        if pos >= end {
            return None;
        }
        // Walk covered extents until a gap appears.
        for (&s, &(e, _)) in self.map.range(pos..end) {
            if s > pos {
                return Some(pos..s.min(end));
            }
            pos = e;
        }
        if pos < end {
            Some(pos..end)
        } else {
            None
        }
    }

    /// The byte at `pos`, if covered.
    pub fn byte_at(&self, pos: u64) -> Option<u8> {
        if let Some((&s, &(e, _))) = self.map.range(..=pos).next_back() {
            if pos < e {
                let (_, src) = self.map.get(&s).unwrap();
                return Some(src.byte_at(pos - s));
            }
        }
        None
    }

    /// Land one injected corruption on the `len` bytes at `base` it was
    /// sampled for: a flipped bit becomes a one-byte literal patch (over
    /// a covered byte only), a torn sector reads back as zeroes. Either
    /// edit breaks generator identity and the structural digest, like
    /// bit rot under a checksumming reader.
    pub fn corrupt(&mut self, base: u64, len: u64, c: &Corruption) {
        match *c {
            Corruption::BitFlip { offset, mask } => {
                if let Some(b) = self.byte_at(base + offset) {
                    self.insert(base + offset, 1, Source::literal(vec![b ^ mask]));
                }
            }
            Corruption::TornSector { offset, len: torn } => {
                self.insert(base + offset, torn.min(len - offset), Source::Zero);
            }
        }
    }

    /// Materialise `[start, start+len)`; holes read as zero (test sizes
    /// only).
    pub fn materialize(&self, start: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        for (r, src) in self.lookup(start, len) {
            if let Some(src) = src {
                for (i, p) in (r.start..r.end).enumerate() {
                    out[(p - start) as usize] = src.byte_at(i as u64);
                }
            }
        }
        out
    }

    /// Verify that `[start, start + len)` is fully covered by generator
    /// `seed` at the *identity* mapping (file position `p` holds
    /// `gen_byte(seed, p)`). This is the end-to-end correctness oracle
    /// for the whole collective-write pipeline.
    pub fn verify_gen(&self, seed: u64, start: u64, len: u64) -> Result<(), VerifyError> {
        for (r, src) in self.lookup(start, len) {
            match src {
                None => return Err(VerifyError::Hole(r)),
                Some(Source::Gen { seed: s, origin }) if s == seed && origin == r.start => {}
                Some(other) => {
                    return Err(VerifyError::WrongContent {
                        range: r,
                        found: format!("{other:?}"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Iterate over `(start, end, source)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, &Source)> {
        self.map.iter().map(|(&s, (e, src))| (s, *e, src))
    }

    /// Structural digest of `[start, start + len)` — see
    /// [`pieces_digest`]. The digest is relative to `start`, so the
    /// same content at a different absolute offset digests the same
    /// only if its sources translate accordingly.
    pub fn digest(&self, start: u64, len: u64) -> u64 {
        pieces_digest(start, &self.lookup(start, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Payload;

    #[test]
    fn insert_and_lookup_roundtrip() {
        let mut m = ExtentMap::new();
        m.insert(10, 5, Source::gen_at(1, 10));
        assert_eq!(m.extent_count(), 1);
        assert!(m.covered(10, 5));
        assert!(!m.covered(9, 5));
        assert_eq!(m.holes(0, 20), vec![0..10, 15..20]);
        assert_eq!(m.high_water(), 15);
        assert_eq!(m.covered_bytes(), 5);
    }

    #[test]
    fn overwrite_splits_and_wins() {
        let mut m = ExtentMap::new();
        m.insert(0, 100, Source::gen_at(1, 0));
        m.insert(40, 20, Source::gen_at(2, 0));
        let pieces = m.lookup(0, 100);
        assert_eq!(pieces.len(), 3);
        assert_eq!(pieces[0].0, 0..40);
        assert_eq!(pieces[1].0, 40..60);
        assert_eq!(pieces[2].0, 60..100);
        // The suffix must continue the original stream: byte at 60 is
        // gen(1, 60).
        assert_eq!(m.byte_at(60), Some(crate::pattern::gen_byte(1, 60)));
        assert_eq!(m.byte_at(45), Some(crate::pattern::gen_byte(2, 5)));
    }

    #[test]
    fn overwrite_spanning_multiple_extents() {
        let mut m = ExtentMap::new();
        m.insert(0, 10, Source::gen_at(1, 0));
        m.insert(20, 10, Source::gen_at(2, 0));
        m.insert(40, 10, Source::gen_at(3, 0));
        m.insert(5, 40, Source::Zero); // covers tail of 1st, all 2nd, head of 3rd
        assert_eq!(m.byte_at(4), Some(crate::pattern::gen_byte(1, 4)));
        assert_eq!(m.byte_at(5), Some(0));
        assert_eq!(m.byte_at(44), Some(0));
        assert_eq!(m.byte_at(45), Some(crate::pattern::gen_byte(3, 5)));
        // The zero write filled every former hole in [0, 50).
        assert!(m.holes(0, 50).is_empty());
    }

    #[test]
    fn adjacent_gen_extents_merge() {
        let mut m = ExtentMap::new();
        for i in 0..100u64 {
            m.insert(i * 8, 8, Source::gen_at(7, i * 8));
        }
        assert_eq!(m.extent_count(), 1);
        assert!(m.verify_gen(7, 0, 800).is_ok());
    }

    #[test]
    fn out_of_order_writes_still_merge() {
        let mut m = ExtentMap::new();
        let order = [3u64, 0, 2, 1, 5, 4];
        for &i in &order {
            m.insert(i * 10, 10, Source::gen_at(9, i * 10));
        }
        assert_eq!(m.extent_count(), 1);
        assert!(m.verify_gen(9, 0, 60).is_ok());
    }

    #[test]
    fn non_continuing_extents_do_not_merge() {
        let mut m = ExtentMap::new();
        m.insert(0, 8, Source::gen_at(7, 0));
        m.insert(8, 8, Source::gen_at(7, 100)); // wrong origin
        assert_eq!(m.extent_count(), 2);
        assert!(m.verify_gen(7, 0, 16).is_err());
    }

    #[test]
    fn verify_gen_reports_holes_and_wrong_content() {
        let mut m = ExtentMap::new();
        m.insert(0, 10, Source::gen_at(1, 0));
        m.insert(20, 10, Source::gen_at(1, 20));
        match m.verify_gen(1, 0, 30) {
            Err(VerifyError::Hole(r)) => assert_eq!(r, 10..20),
            other => panic!("expected hole, got {other:?}"),
        }
        m.insert(10, 10, Source::gen_at(2, 10));
        match m.verify_gen(1, 0, 30) {
            Err(VerifyError::WrongContent { range, .. }) => assert_eq!(range, 10..20),
            other => panic!("expected wrong content, got {other:?}"),
        }
    }

    #[test]
    fn materialize_matches_payload_semantics() {
        let mut m = ExtentMap::new();
        let p = Payload::gen(4, 0, 32);
        m.insert(0, 16, p.slice(0, 16).src);
        m.insert(16, 16, p.slice(16, 16).src);
        assert_eq!(m.materialize(0, 32), p.materialize());
    }

    #[test]
    fn zero_len_operations_are_noops() {
        let mut m = ExtentMap::new();
        m.insert(5, 0, Source::Zero);
        assert_eq!(m.extent_count(), 0);
        assert!(m.lookup(5, 0).is_empty());
        assert!(m.covered(5, 0));
        assert!(m.verify_gen(1, 5, 0).is_ok());
    }

    #[test]
    fn exact_overwrite_replaces() {
        let mut m = ExtentMap::new();
        m.insert(0, 10, Source::gen_at(1, 0));
        m.insert(0, 10, Source::gen_at(2, 0));
        assert_eq!(m.extent_count(), 1);
        assert_eq!(m.byte_at(3), Some(crate::pattern::gen_byte(2, 3)));
    }

    #[test]
    fn digest_agrees_for_identical_insert_sequences() {
        let mut a = ExtentMap::new();
        let mut b = ExtentMap::new();
        for m in [&mut a, &mut b] {
            m.insert(0, 64, Source::gen_at(3, 0));
            m.insert(16, 8, Source::Zero);
            m.insert(40, 4, Source::literal(vec![1u8, 2, 3, 4]));
        }
        assert_eq!(a.digest(0, 64), b.digest(0, 64));
        assert_eq!(a.digest(8, 32), b.digest(8, 32));
    }

    #[test]
    fn digest_detects_bit_flip_and_torn_sector() {
        let mut clean = ExtentMap::new();
        clean.insert(0, 128, Source::gen_at(5, 0));
        let base = clean.digest(0, 128);
        // Bit flip: one byte replaced by a literal patch.
        let mut flipped = clean.clone();
        let b = flipped.byte_at(77).unwrap();
        flipped.insert(77, 1, Source::literal(vec![b ^ 0x10]));
        assert_ne!(flipped.digest(0, 128), base);
        // Torn sector: a run zeroed out.
        let mut torn = clean.clone();
        torn.insert(64, 32, Source::Zero);
        assert_ne!(torn.digest(0, 128), base);
        // A hole differs from zeroes.
        let mut holed = clean.clone();
        holed.remove(64, 32);
        assert_ne!(holed.digest(0, 128), torn.digest(0, 128));
    }

    #[test]
    fn digest_of_subrange_ignores_outside_content() {
        let mut a = ExtentMap::new();
        a.insert(100, 50, Source::gen_at(9, 100));
        let d = a.digest(100, 50);
        a.insert(0, 50, Source::Zero);
        a.insert(200, 10, Source::gen_at(1, 0));
        assert_eq!(a.digest(100, 50), d);
    }

    #[test]
    fn literal_digest_hashes_content_not_identity() {
        let mut a = ExtentMap::new();
        let mut b = ExtentMap::new();
        a.insert(0, 4, Source::literal(vec![9u8, 8, 7, 6]));
        // Same bytes, different backing allocation and offset.
        b.insert(0, 4, Source::literal(vec![0u8, 9, 8, 7, 6]).advance(1));
        assert_eq!(a.digest(0, 4), b.digest(0, 4));
        let mut c = ExtentMap::new();
        c.insert(0, 4, Source::literal(vec![9u8, 8, 7, 5]));
        assert_ne!(c.digest(0, 4), a.digest(0, 4));
    }
}
