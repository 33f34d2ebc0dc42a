//! MPI derived datatypes, in flattened form.
//!
//! ROMIO works on *flattened* datatypes — sorted `(offset, length)` run
//! lists — rather than type trees, and so do we. [`FlatType`] offers the
//! constructors the benchmarks need (contiguous, vector, indexed and
//! the `MPI_Type_create_subarray` used by coll_perf's 3-D block
//! distribution); [`FileView`] binds a flattened type to a file
//! displacement and defines the central two-phase query: *which pieces
//! of my buffer fall inside this round's file window?*

/// A flattened datatype: sorted, non-overlapping `(offset, len)` runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatType {
    runs: Vec<(u64, u64)>,
    extent: u64,
}

impl FlatType {
    /// A single contiguous run of `len` bytes.
    pub fn contiguous(len: u64) -> Self {
        FlatType {
            runs: if len == 0 { vec![] } else { vec![(0, len)] },
            extent: len,
        }
    }

    /// `count` blocks of `blocklen` bytes, strided by `stride` bytes
    /// (`stride >= blocklen`).
    pub fn vector(count: u64, blocklen: u64, stride: u64) -> Self {
        assert!(stride >= blocklen, "vector stride smaller than block");
        let runs = (0..count).map(|i| (i * stride, blocklen)).collect();
        FlatType {
            runs,
            extent: if count == 0 {
                0
            } else {
                (count - 1) * stride + blocklen
            },
        }
    }

    /// Explicit `(offset, len)` blocks; must be sorted and disjoint.
    pub fn indexed(blocks: Vec<(u64, u64)>) -> Self {
        for w in blocks.windows(2) {
            assert!(
                w[0].0 + w[0].1 <= w[1].0,
                "indexed blocks must be sorted and disjoint"
            );
        }
        let extent = blocks.last().map(|&(o, l)| o + l).unwrap_or(0);
        FlatType {
            runs: blocks.into_iter().filter(|&(_, l)| l > 0).collect(),
            extent,
        }
    }

    /// The C-order sub-array type (`MPI_Type_create_subarray`): a local
    /// block of `lsizes` starting at `starts` within a global array of
    /// `gsizes`, with `elem` bytes per element. The last dimension is
    /// contiguous; each run is one row of the innermost dimension.
    pub fn subarray(gsizes: &[u64], lsizes: &[u64], starts: &[u64], elem: u64) -> Self {
        assert_eq!(gsizes.len(), lsizes.len());
        assert_eq!(gsizes.len(), starts.len());
        assert!(!gsizes.is_empty());
        for d in 0..gsizes.len() {
            assert!(
                starts[d] + lsizes[d] <= gsizes[d],
                "subarray dim {d} out of bounds"
            );
        }
        let ndim = gsizes.len();
        let run_len = lsizes[ndim - 1] * elem;
        // Byte strides of each dimension in the global array.
        let mut gstride = vec![elem; ndim];
        for d in (0..ndim - 1).rev() {
            gstride[d] = gstride[d + 1] * gsizes[d + 1];
        }
        let outer: u64 = lsizes[..ndim - 1].iter().product();
        let mut runs = Vec::with_capacity(outer as usize);
        let mut idx = vec![0u64; ndim - 1];
        loop {
            let mut off = starts[ndim - 1] * elem;
            for d in 0..ndim - 1 {
                off += (starts[d] + idx[d]) * gstride[d];
            }
            runs.push((off, run_len));
            // Odometer increment over the outer dimensions.
            let mut d = ndim - 1;
            loop {
                if d == 0 {
                    let extent: u64 = gstride[0] * gsizes[0];
                    runs.sort_unstable();
                    return FlatType { runs, extent };
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < lsizes[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    }

    /// The run list.
    pub fn runs(&self) -> &[(u64, u64)] {
        &self.runs
    }

    /// Total bytes covered.
    pub fn total_bytes(&self) -> u64 {
        self.runs.iter().map(|&(_, l)| l).sum()
    }

    /// Distance from first byte to one past the last.
    pub fn extent(&self) -> u64 {
        self.extent
    }
}

/// One piece of a file view: `len` bytes at `file_off` whose data lives
/// at `buf_off` in the process's (logically contiguous) buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewPiece {
    /// Absolute file offset.
    pub file_off: u64,
    /// Length in bytes.
    pub len: u64,
    /// Offset within the flattened local buffer.
    pub buf_off: u64,
}

/// A flattened type bound to a file displacement: the per-rank file
/// view of `MPI_File_set_view`.
#[derive(Debug, Clone)]
pub struct FileView {
    pieces: Vec<ViewPiece>,
}

impl FileView {
    /// Bind `flat` at absolute displacement `disp`.
    pub fn new(flat: &FlatType, disp: u64) -> Self {
        let mut pieces = Vec::with_capacity(flat.runs.len());
        let mut buf = 0;
        for &(off, len) in &flat.runs {
            pieces.push(ViewPiece {
                file_off: disp + off,
                len,
                buf_off: buf,
            });
            buf += len;
        }
        FileView { pieces }
    }

    /// All pieces.
    pub fn pieces(&self) -> &[ViewPiece] {
        &self.pieces
    }

    /// Total buffer bytes.
    pub fn total_bytes(&self) -> u64 {
        self.pieces.iter().map(|p| p.len).sum()
    }

    /// First and one-past-last file offsets touched (`(0, 0)` if empty).
    pub fn file_range(&self) -> (u64, u64) {
        match (self.pieces.first(), self.pieces.last()) {
            (Some(f), Some(l)) => (f.file_off, l.file_off + l.len),
            _ => (0, 0),
        }
    }

    /// The (possibly clipped) pieces intersecting file window
    /// `[lo, hi)`, found from scratch in `O(log n + k)`. This is the
    /// definition of the two-phase round query and the oracle of the
    /// tests; the round loops themselves step through the view with
    /// one cursor per aggregator instead (`e10-romio`'s
    /// `WindowCursors`), because a search per aggregator per round is
    /// what stops two-phase I/O scaling with the rank count.
    pub fn pieces_in_window(&self, lo: u64, hi: u64) -> Vec<ViewPiece> {
        let mut out = Vec::new();
        if lo >= hi {
            return out;
        }
        // First piece that could overlap: binary search by end offset.
        let start = self.pieces.partition_point(|p| p.file_off + p.len <= lo);
        for p in &self.pieces[start..] {
            if p.file_off >= hi {
                break;
            }
            let s = p.file_off.max(lo);
            let e = (p.file_off + p.len).min(hi);
            out.push(ViewPiece {
                file_off: s,
                len: e - s,
                buf_off: p.buf_off + (s - p.file_off),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_and_vector() {
        let c = FlatType::contiguous(100);
        assert_eq!(c.runs(), &[(0, 100)]);
        assert_eq!(c.total_bytes(), 100);

        let v = FlatType::vector(3, 10, 25);
        assert_eq!(v.runs(), &[(0, 10), (25, 10), (50, 10)]);
        assert_eq!(v.extent(), 60);
        assert_eq!(v.total_bytes(), 30);
    }

    #[test]
    fn subarray_2d() {
        // Global 4x6 bytes (elem=1), local 2x3 starting at (1, 2).
        let f = FlatType::subarray(&[4, 6], &[2, 3], &[1, 2], 1);
        assert_eq!(f.runs(), &[(8, 3), (14, 3)]);
        assert_eq!(f.total_bytes(), 6);
        assert_eq!(f.extent(), 24);
    }

    #[test]
    fn subarray_3d_covers_disjointly() {
        // 8 ranks in a 2x2x2 grid over a 4x4x4 array of 8-byte elems:
        // the views must tile the file exactly.
        let mut all: Vec<(u64, u64)> = Vec::new();
        for rz in 0..2u64 {
            for ry in 0..2u64 {
                for rx in 0..2u64 {
                    let f =
                        FlatType::subarray(&[4, 4, 4], &[2, 2, 2], &[rz * 2, ry * 2, rx * 2], 8);
                    assert_eq!(f.total_bytes(), 8 * 8);
                    all.extend_from_slice(f.runs());
                }
            }
        }
        all.sort_unstable();
        let total: u64 = all.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 4 * 4 * 4 * 8);
        // Disjoint and exactly tiling [0, 512).
        let mut pos = 0;
        for (off, len) in all {
            assert_eq!(off, pos, "runs must tile without gaps/overlaps");
            pos = off + len;
        }
        assert_eq!(pos, 512);
    }

    #[test]
    fn subarray_1d_is_contiguous() {
        let f = FlatType::subarray(&[100], &[40], &[10], 4);
        assert_eq!(f.runs(), &[(40, 160)]);
    }

    #[test]
    fn indexed_validates() {
        let f = FlatType::indexed(vec![(0, 5), (10, 5)]);
        assert_eq!(f.total_bytes(), 10);
        assert_eq!(f.extent(), 15);
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn overlapping_indexed_panics() {
        FlatType::indexed(vec![(0, 10), (5, 10)]);
    }

    #[test]
    fn view_maps_buffer_offsets() {
        let v = FlatType::vector(3, 10, 25);
        let view = FileView::new(&v, 1000);
        assert_eq!(view.file_range(), (1000, 1060));
        assert_eq!(view.total_bytes(), 30);
        let ps = view.pieces();
        assert_eq!(
            ps[1],
            ViewPiece {
                file_off: 1025,
                len: 10,
                buf_off: 10
            }
        );
    }

    #[test]
    fn window_query_clips_and_offsets() {
        let v = FlatType::vector(4, 10, 20); // runs at 0,20,40,60
        let view = FileView::new(&v, 0);
        let ps = view.pieces_in_window(5, 45);
        assert_eq!(
            ps,
            vec![
                ViewPiece {
                    file_off: 5,
                    len: 5,
                    buf_off: 5
                },
                ViewPiece {
                    file_off: 20,
                    len: 10,
                    buf_off: 10
                },
                ViewPiece {
                    file_off: 40,
                    len: 5,
                    buf_off: 20
                },
            ]
        );
        assert!(view.pieces_in_window(10, 20).is_empty());
        assert!(view.pieces_in_window(100, 200).is_empty());
        assert!(view.pieces_in_window(20, 20).is_empty());
    }

    #[test]
    fn window_query_matches_linear_scan() {
        let v = FlatType::vector(100, 7, 13);
        let view = FileView::new(&v, 3);
        for (lo, hi) in [(0u64, 50u64), (49, 200), (500, 1400), (3, 4)] {
            let fast = view.pieces_in_window(lo, hi);
            let slow: Vec<ViewPiece> = view
                .pieces()
                .iter()
                .filter_map(|p| {
                    let s = p.file_off.max(lo);
                    let e = (p.file_off + p.len).min(hi);
                    (s < e).then(|| ViewPiece {
                        file_off: s,
                        len: e - s,
                        buf_off: p.buf_off + (s - p.file_off),
                    })
                })
                .collect();
            assert_eq!(fast, slow, "window [{lo}, {hi})");
        }
    }
}
