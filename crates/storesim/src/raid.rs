//! RAID array model (the 8+2 RAID6 data targets of the DEEP-ER JBOD).
//!
//! A write is chunked round-robin across the data disks, which service
//! their shares concurrently; parity disks receive a proportional load.
//! Partial-stripe writes pay a read-modify-write penalty on the parity
//! drives — one of the reasons small unaligned requests hurt the global
//! file system so much more than large aligned ones.

use crate::disk::Disk;
use e10_simcore::FixedJoin;

/// Most member disks (data plus parity) an array may have: a request
/// joins one future per member inline, in a fixed set of this many
/// slots. The DEEP-ER targets are 8+2.
const MAX_MEMBERS: usize = 10;

/// RAID geometry.
#[derive(Debug, Clone)]
pub struct RaidParams {
    /// Per-disk chunk size in bytes.
    pub chunk: u64,
    /// Number of parity disks (2 for RAID6).
    pub parity: usize,
}

impl RaidParams {
    /// RAID6 with 128 KiB chunks.
    pub fn raid6() -> Self {
        RaidParams {
            chunk: 128 * 1024,
            parity: 2,
        }
    }
}

/// A RAID array over a set of member disks.
///
/// Cloning shares the underlying disks (handles are reference-counted),
/// so a clone models another client of the same physical array.
#[derive(Clone)]
pub struct Raid {
    params: RaidParams,
    disks: Vec<Disk>,
}

/// One member disk's share of an array write; `rmw` reads the piece
/// first (a parity drive under a partial-stripe write).
async fn member_write(disk: &Disk, (off, len): (u64, u64), rmw: bool) {
    if rmw {
        disk.read(off, len).await;
    }
    disk.write(off, len).await;
}

impl Raid {
    /// Build an array; `disks.len()` must exceed `params.parity` and be
    /// at most ten (the member join's slots).
    pub fn new(params: RaidParams, disks: Vec<Disk>) -> Self {
        assert!(
            disks.len() > params.parity,
            "need at least one data disk ({} disks, {} parity)",
            disks.len(),
            params.parity
        );
        assert!(
            disks.len() <= MAX_MEMBERS,
            "{} member disks, at most {MAX_MEMBERS}",
            disks.len()
        );
        Raid { params, disks }
    }

    /// Number of data disks.
    pub fn data_disks(&self) -> usize {
        self.disks.len() - self.params.parity
    }

    /// Full stripe width in bytes.
    pub fn stripe_bytes(&self) -> u64 {
        self.params.chunk * self.data_disks() as u64
    }

    /// Data disk `disk`'s `(disk_off, len)` piece of `[offset,
    /// offset+len)`, if it holds any byte of it. Chunks go round-robin
    /// over the data disks, so the chunks of a contiguous range that
    /// land on one disk sit back to back there: every disk's share is
    /// one contiguous piece, from its first chunk in the range to its
    /// last.
    fn piece(&self, disk: usize, offset: u64, len: u64) -> Option<(u64, u64)> {
        let (nd, chunk) = (self.data_disks() as u64, self.params.chunk);
        let d = disk as u64;
        let end = offset + len;
        let (c0, c1) = (offset / chunk, (end - 1) / chunk);
        // The disk's first and last chunk inside [c0, c1].
        let first = c0 + (d + nd - c0 % nd) % nd;
        if first > c1 {
            return None;
        }
        let last = c1 - (c1 % nd + nd - d) % nd;
        let disk_off = |c: u64, within: u64| (c / nd) * chunk + within;
        let start = disk_off(first, if first == c0 { offset % chunk } else { 0 });
        let stop = disk_off(last, if last == c1 { end - c1 * chunk } else { chunk });
        Some((start, stop - start))
    }

    /// Write `len` bytes at array offset `offset`.
    pub async fn write(&self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let nd = self.data_disks();
        let stripe = self.stripe_bytes();
        let partial = !offset.is_multiple_of(stripe) || !len.is_multiple_of(stripe);
        {
            let mut join: FixedJoin<_, MAX_MEMBERS> = FixedJoin::new();
            let mut max_piece = 0;
            for d in 0..nd {
                if let Some(piece) = self.piece(d, offset, len) {
                    max_piece = max_piece.max(piece.1);
                    join.push(member_write(&self.disks[d], piece, false));
                }
            }
            // Parity drives mirror the heaviest data drive; partial
            // stripes must read old parity first (RMW).
            let parity_off = (offset / stripe) * self.params.chunk;
            for disk in &self.disks[nd..] {
                join.push(member_write(disk, (parity_off, max_piece), partial));
            }
            join
        }
        .await;
    }

    /// Read `len` bytes at array offset `offset` (data disks only).
    pub async fn read(&self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        {
            let mut join: FixedJoin<_, MAX_MEMBERS> = FixedJoin::new();
            for d in 0..self.data_disks() {
                if let Some((off, l)) = self.piece(d, offset, len) {
                    join.push(self.disks[d].read(off, l));
                }
            }
            join
        }
        .await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskParams;
    use e10_simcore::{now, run, SimRng};

    fn quiet_disk(i: u64) -> Disk {
        Disk::new(
            DiskParams {
                jitter_cv: 0.0,
                ..DiskParams::nearline_sas()
            },
            SimRng::stream(77, i),
        )
    }

    fn array(n: usize) -> Raid {
        Raid::new(RaidParams::raid6(), (0..n as u64).map(quiet_disk).collect())
    }

    /// Every data disk's closed-form piece, as `(disk, disk_off, len)`.
    fn pieces(r: &Raid, offset: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let piece = |d| Some((d, r.piece(d, offset, len)?));
        let on_disks = (0..r.data_disks()).filter_map(piece);
        on_disks.map(|(d, (o, l))| (d, o, l)).collect()
    }

    /// The oracle: walk `[offset, offset+len)` chunk by chunk and merge
    /// the contiguous pieces of each data disk, in disk order.
    fn layout(r: &Raid, offset: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let (nd, chunk) = (r.data_disks() as u64, r.params.chunk);
        let mut per_disk: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nd as usize];
        let (mut pos, end) = (offset, offset + len);
        while pos < end {
            let (c, within) = (pos / chunk, pos % chunk);
            let take = (chunk - within).min(end - pos);
            let disk_off = (c / nd) * chunk + within;
            let v = &mut per_disk[(c % nd) as usize];
            match v.last_mut() {
                Some(last) if last.0 + last.1 == disk_off => last.1 += take,
                _ => v.push((disk_off, take)),
            }
            pos += take;
        }
        let per_disk = per_disk.into_iter().enumerate();
        per_disk
            .flat_map(|(d, v)| v.into_iter().map(move |(o, l)| (d, o, l)))
            .collect()
    }

    #[test]
    fn pieces_round_robin_chunks() {
        let r = array(10); // 8 data + 2 parity
        let chunk = r.params.chunk;
        assert_eq!(
            pieces(&r, 0, chunk * 3),
            vec![(0, 0, chunk), (1, 0, chunk), (2, 0, chunk)]
        );
        // Second full stripe wraps to disk 0 at chunk offset `chunk`.
        assert_eq!(pieces(&r, chunk * 8, chunk), vec![(0, chunk, chunk)]);
    }

    #[test]
    fn pieces_merge_contiguous_same_disk_chunks() {
        let r = array(3); // 1 data disk
        let chunk = r.params.chunk;
        assert_eq!(pieces(&r, 0, chunk * 4), vec![(0, 0, chunk * 4)]);
    }

    #[test]
    fn pieces_handle_unaligned_offsets() {
        let r = array(10);
        let chunk = r.params.chunk;
        let got = pieces(&r, chunk / 2, chunk);
        assert_eq!(got, vec![(0, chunk / 2, chunk / 2), (1, 0, chunk / 2)]);
        let total: u64 = got.iter().map(|p| p.2).sum();
        assert_eq!(total, chunk);
    }

    proptest::proptest! {
        /// The closed-form piece of every data disk is what walking the
        /// range chunk by chunk gives, whatever the disk count, chunk,
        /// offset and length.
        #[test]
        fn closed_form_pieces_are_the_chunk_walk(
            members in 3usize..MAX_MEMBERS + 1,
            chunk in 1u64..64,
            offset in 0u64..4_096,
            len in 1u64..4_096,
        ) {
            let disks = (0..members as u64).map(quiet_disk).collect();
            let r = Raid::new(RaidParams { chunk, parity: 2 }, disks);
            proptest::prop_assert_eq!(pieces(&r, offset, len), layout(&r, offset, len));
        }
    }

    #[test]
    fn array_outpaces_single_disk_on_large_writes() {
        let (t_array, t_disk) = run(async {
            let r = array(10);
            let stripe = r.stripe_bytes();
            let t0 = now();
            r.write(0, stripe * 8).await;
            let t_array = now().since(t0).as_secs_f64();

            let d = quiet_disk(99);
            let t1 = now();
            d.write(0, stripe * 8).await;
            (t_array, now().since(t1).as_secs_f64())
        });
        assert!(t_array < t_disk / 4.0, "array={t_array}s single={t_disk}s");
    }

    #[test]
    fn partial_stripe_write_pays_rmw() {
        let (t_partial, t_full) = run(async {
            let r = array(10);
            let stripe = r.stripe_bytes();
            let t0 = now();
            r.write(0, stripe).await;
            let t_full = now().since(t0).as_secs_f64();

            let r2 = array(10);
            let t1 = now();
            r2.write(r2.params.chunk / 2, stripe).await;
            (now().since(t1).as_secs_f64(), t_full)
        });
        assert!(t_partial > t_full, "partial={t_partial} full={t_full}");
    }

    #[test]
    fn zero_length_io_is_free() {
        let t = run(async {
            let r = array(4);
            r.write(0, 0).await;
            r.read(0, 0).await;
            now().as_secs_f64()
        });
        assert_eq!(t, 0.0);
    }
}
