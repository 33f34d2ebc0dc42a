//! Quickstart: the E10 mechanism in one screen.
//!
//! Eight ranks on four nodes write an interleaved pattern collectively,
//! once straight to the parallel file system and once through the
//! node-local cache, and we compare the collective-write time and show
//! the file-domain decomposition — Fig. 1 of the paper in running code.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! `cargo test` runs it too, and fails unless the cached write is the
//! faster one and both files verify.

use e10_repro::prelude::*;
use e10_repro::romio::FileDomains;

fn hints(cache: bool) -> Info {
    let info = Info::from_pairs([
        ("romio_cb_write", "enable"),
        ("cb_nodes", "2"),
        ("cb_buffer_size", "256K"),
        ("striping_unit", "256K"),
        ("ind_wr_buffer_size", "64K"),
    ]);
    if cache {
        info.set("e10_cache", "enable");
        info.set("e10_cache_flush_flag", "flush_onclose");
        info.set("e10_cache_discard_flag", "enable");
    }
    info
}

/// One collective write of `total` bytes from 8 ranks, interleaved in
/// 64 KiB blocks. Returns (write seconds, close seconds).
async fn one_run(path: &'static str, cache: bool) -> (f64, f64) {
    let tb = TestbedSpec::small(8, 4).build();
    let handles: Vec<_> = tb
        .ctxs()
        .into_iter()
        .map(|ctx| {
            let info = hints(cache);
            e10_simcore::spawn(async move {
                let f = AdioFile::open(&ctx, path, &info, true).await.unwrap();
                if ctx.comm.rank() == 0 {
                    println!("  aggregators: {:?} (one per node first)", f.aggregators());
                }
                let block = 64 << 10;
                let blocks: Vec<(u64, u64)> = (0..32u64)
                    .map(|i| ((i * 8 + ctx.comm.rank() as u64) * block, block))
                    .collect();
                let view = FileView::new(&FlatType::indexed(blocks), 0);
                let t0 = e10_simcore::now();
                write_at_all(&f, &view, &DataSpec::FileGen { seed: 7 }).await;
                let t_write = e10_simcore::now().since(t0).as_secs_f64();
                let t0 = e10_simcore::now();
                f.close().await;
                let t_close = e10_simcore::now().since(t0).as_secs_f64();
                (f, t_write, t_close)
            })
        })
        .collect();
    let outs = e10_simcore::join_all(handles).await;
    let (f0, t_write, t_close) = &outs[0];
    // Byte-accurate verification of the whole two-phase pipeline.
    let total = 8 * 32 * (64 << 10);
    f0.global()
        .extents()
        .verify_gen(7, 0, total)
        .expect("global file must hold exactly the written pattern");
    println!("  file verified: {total} bytes, pattern intact");
    (*t_write, *t_close)
}

fn main() {
    e10_simcore::run(async {
        println!("File domains for [0, 16 MiB) over 4 aggregators (stripe-aligned):");
        let fds = FileDomains::compute(
            0,
            16 << 20,
            4,
            e10_repro::romio::FdStrategy::StripeAligned,
            4 << 20,
        );
        for a in 0..fds.len() {
            println!(
                "  aggregator {a}: [{:>8} KiB, {:>8} KiB)",
                fds.starts[a] >> 10,
                fds.ends[a] >> 10
            );
        }

        println!("\nCollective write WITHOUT the E10 cache:");
        let (w1, c1) = one_run("/gfs/plain", false).await;
        println!("  write_all: {w1:.4}s   close: {c1:.4}s");

        println!("\nCollective write WITH the E10 cache (flush on close):");
        let (w2, c2) = one_run("/gfs/cached", true).await;
        println!("  write_all: {w2:.4}s   close: {c2:.4}s");

        assert!(w2 < w1, "the cached write_all must be the faster one");
        println!(
            "\nThe cached write_all is {:.1}x faster; the deferred flush \
             surfaces in close ({c2:.4}s), which the Fig. 3 workflow hides \
             behind computation.",
            w1 / w2
        );
    });
}

#[test]
fn the_cached_write_is_faster_and_the_file_verifies() {
    main();
}
