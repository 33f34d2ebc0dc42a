//! Figure 6: coll_perf collective-I/O contribution breakdown with the
//! cache disabled (writes straight to the global file system).
use e10_bench::{figure_main, Case, Scale};

fn main() -> std::process::ExitCode {
    figure_main(
        "fig6",
        "Fig. 6 — coll_perf breakdown, cache DISABLED",
        Scale::collperf,
        &[Case::Disabled],
        false,
    )
}
