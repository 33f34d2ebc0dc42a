//! Extension experiment (paper §VI future work): collective reads
//! served from the aggregator caches (`e10_cache_read = enable`).
//!
//! A coll_perf-shaped checkpoint is written through the E10 cache and
//! synchronised; a matching collective read then runs either against
//! the global file system (standard) or against the node-local caches
//! (extension). The cache-served read scales with the aggregator count
//! instead of the storage servers' ceiling — the read-side mirror of
//! the paper's write result. The runs are
//! [`e10_bench::cache_read_report`]; `tests/golden.rs` pins the
//! test-scale rows.

use e10_bench::{cache_read_report, finish, Cli, Scale};

fn main() -> std::process::ExitCode {
    let cli = Cli::parse();
    finish(cache_read_report(cli.scale(Scale::Full)), &cli)
}
