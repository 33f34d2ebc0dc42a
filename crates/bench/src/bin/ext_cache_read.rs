//! Extension experiment (paper §VI future work): collective reads
//! served from the aggregator caches (`e10_cache_read = enable`).
//!
//! A coll_perf-shaped checkpoint is written through the E10 cache and
//! synchronised; a matching collective read then runs either against
//! the global file system (standard) or against the node-local caches
//! (extension). The cache-served read scales with the aggregator count
//! instead of the storage servers' ceiling — the read-side mirror of
//! the paper's write result. The runs are
//! [`e10_bench::cache_read_rows`]; `tests/golden.rs` pins the
//! test-scale rows.

use e10_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let rows = e10_bench::cache_read_rows(scale);

    if e10_bench::json_mode() {
        println!("{}", e10_bench::cache_read_json(scale, &rows).render());
        return;
    }

    println!("Cache-read extension: collective re-read of a cached checkpoint");
    println!(
        "{:<8} {:>22} {:>24}",
        "aggs", "global read [GB/s]", "cache-served read [GB/s]"
    );
    for (aggs, global, cached) in rows {
        println!("{:<8} {:>22.2} {:>24.2}", aggs, global, cached);
    }
}
