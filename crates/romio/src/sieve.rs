//! Independent strided writes (`ADIOI_GEN_WriteStrided`), the path
//! taken when collective buffering is disabled or the accesses are not
//! interleaved: each process writes its own pieces, optionally with
//! data sieving (`romio_ds_write`).
//!
//! Integrity note (`e10_integrity`): sieving's read-modify-write reads
//! go to the *global* file (sieving is disabled while the cache is
//! active, see `cache_active` below), so they sit outside the cache
//! checksum domain; cached reads are verified in
//! [`crate::collective_read`] and on the flush path instead.

use e10_mpisim::FileView;

use crate::adio::{AdioFile, DataSpec};
use crate::hints::CbMode;

/// Maximum fraction of a sieving window that may be holes for sieving
/// to still pay off (ROMIO uses a similar density heuristic).
const SIEVE_MAX_HOLE_FRAC: f64 = 0.5;

/// Independent strided write of `view`/`data`. Returns `(bytes
/// written, error code)`; on failure the cause is recorded on `fd`
/// (see [`AdioFile::take_io_error`]) and the remaining pieces are
/// still attempted.
pub async fn write_strided(fd: &AdioFile, view: &FileView, data: &DataSpec) -> (u64, u32) {
    let pieces = view.pieces();
    if pieces.is_empty() {
        return (0, 0);
    }
    let buf = fd.hints().ind_wr_buffer_size.max(1);
    // ROMIO sieves unless the hint says `disable` (`automatic` too).
    let ds = fd.hints().ds_write != CbMode::Disable && !fd.cache_active();

    let mut total = 0u64;
    let mut err: u32 = 0;
    // A sieving read's pieces: written straight back over, so only
    // the read's time counts.
    let mut sieved = Vec::new();
    let mut i = 0;
    while i < pieces.len() {
        if ds {
            // Greedily extend a sieving window while it stays dense and
            // within the sieve buffer.
            let start = pieces[i].file_off;
            let mut j = i;
            let mut covered = 0u64;
            while j < pieces.len() {
                let end = pieces[j].file_off + pieces[j].len;
                let span = end - start;
                if span > buf && j > i {
                    break;
                }
                let new_covered = covered + pieces[j].len;
                if span > 0 && (span - new_covered) as f64 / span as f64 > SIEVE_MAX_HOLE_FRAC {
                    break;
                }
                covered = new_covered;
                j += 1;
            }
            if j > i + 1 {
                // Sieved read-modify-write of the whole window.
                let span_end = pieces[j - 1].file_off + pieces[j - 1].len;
                let span = span_end - start;
                let read = fd
                    .global()
                    .read_into(fd.comm.node(), start, span, &mut sieved)
                    .await;
                fd.io_ok(read, &mut err);
                let payload_pieces: Vec<(u64, e10_storesim::Payload)> = pieces[i..j]
                    .iter()
                    .map(|p| (p.file_off, data.piece(p.buf_off, p.file_off, p.len)))
                    .collect();
                total += covered;
                fd.io_ok(fd.write_span(start, span, payload_pieces).await, &mut err);
                i = j;
                continue;
            }
        }
        // Direct write of one piece, chunked by the write buffer size.
        let p = pieces[i];
        let mut off = 0;
        while off < p.len {
            let n = buf.min(p.len - off);
            let payload = data.piece(p.buf_off + off, p.file_off + off, n);
            fd.io_ok(fd.write_contig(p.file_off + off, payload).await, &mut err);
            off += n;
        }
        total += p.len;
        i += 1;
    }
    (total, err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adio::AdioFile;
    use crate::testbed::TestbedSpec;
    use e10_mpisim::{FlatType, Info};
    use e10_simcore::run;
    use e10_simcore::trace::{install_metrics, MetricsRegistry};
    use std::rc::Rc;

    /// Write `flat` at offset 0 of `path` independently with generator
    /// `seed` and the given hints, and return the open file and the
    /// global-file read chunks the write issued: a sieving
    /// read-modify-write reads, a direct write does not.
    async fn write_counting_reads(
        path: &str,
        hints: &[(&str, &str)],
        flat: &FlatType,
        seed: u64,
    ) -> (AdioFile, u64) {
        let tb = TestbedSpec::small(1, 1).build();
        let info = Info::new();
        for &(k, v) in hints {
            info.set(k, v);
        }
        let f = AdioFile::open(&tb.ctx(0), path, &info, true).await.unwrap();
        let metrics = Rc::new(MetricsRegistry::new());
        let guard = install_metrics(Rc::clone(&metrics));
        let view = FileView::new(flat, 0);
        let (n, err) = write_strided(&f, &view, &DataSpec::FileGen { seed }).await;
        drop(guard);
        assert_eq!((n, err), (flat.total_bytes(), 0));
        f.close().await;
        (f, metrics.snapshot().counter("pfs.read_chunks"))
    }

    #[test]
    fn direct_path_writes_every_piece() {
        run(async {
            let tb = TestbedSpec::small(1, 1).build();
            let ctx = tb.ctx(0);
            let f = AdioFile::open(&ctx, "/gfs/ind", &Info::new(), true)
                .await
                .unwrap();
            let flat = FlatType::vector(8, 1_000, 10_000);
            let view = FileView::new(&flat, 500);
            let (n, err) = write_strided(&f, &view, &DataSpec::FileGen { seed: 5 }).await;
            assert_eq!(n, 8_000);
            assert_eq!(err, 0);
            f.close().await;
            for i in 0..8u64 {
                f.global()
                    .extents()
                    .verify_gen(5, 500 + i * 10_000, 1_000)
                    .unwrap();
            }
            assert!(!f.global().extents().covered(0, 500));
        });
    }

    #[test]
    fn large_piece_is_chunked_by_buffer_size() {
        run(async {
            let tb = TestbedSpec::small(1, 1).build();
            let ctx = tb.ctx(0);
            let info = Info::new();
            info.set("ind_wr_buffer_size", "4096");
            let f = AdioFile::open(&ctx, "/gfs/chunk", &info, true)
                .await
                .unwrap();
            let view = FileView::new(&FlatType::contiguous(20_000), 0);
            write_strided(&f, &view, &DataSpec::FileGen { seed: 6 }).await;
            f.close().await;
            f.global().extents().verify_gen(6, 0, 20_000).unwrap();
        });
    }

    #[test]
    fn sieving_merges_dense_small_pieces() {
        // Dense pattern: 100-byte pieces every 150 bytes. `automatic`
        // sieves like `enable`; only `disable` writes piece by piece.
        for (mode, sieves) in [("enable", true), ("automatic", true), ("disable", false)] {
            run(async move {
                let flat = FlatType::vector(64, 100, 150);
                let hints = [("romio_ds_write", mode), ("ind_wr_buffer_size", "1M")];
                let (f, reads) = write_counting_reads("/gfs/sieve", &hints, &flat, 7).await;
                assert_eq!(reads > 0, sieves, "romio_ds_write = {mode}");
                for i in 0..64u64 {
                    f.global().extents().verify_gen(7, i * 150, 100).unwrap();
                }
                // Holes must remain holes.
                assert!(!f.global().extents().covered(100, 50));
            });
        }
    }

    #[test]
    fn sparse_pattern_avoids_sieving() {
        // 100-byte pieces every 10_000 bytes: sieving would read 99%
        // garbage; the heuristic must fall back to direct writes.
        for mode in ["enable", "automatic"] {
            run(async move {
                let flat = FlatType::vector(4, 100, 10_000);
                let hints = [("romio_ds_write", mode)];
                let (f, reads) = write_counting_reads("/gfs/sparse", &hints, &flat, 8).await;
                assert_eq!(reads, 0, "romio_ds_write = {mode}");
                for i in 0..4u64 {
                    f.global().extents().verify_gen(8, i * 10_000, 100).unwrap();
                }
            });
        }
    }
}
