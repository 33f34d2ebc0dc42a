//! Figure 5: coll_perf collective-I/O contribution breakdown with the
//! E10 cache enabled.
use e10_bench::{figure_main, Case, Scale};

fn main() -> std::process::ExitCode {
    figure_main(
        "fig5",
        "Fig. 5 — coll_perf breakdown, cache ENABLED",
        Scale::collperf,
        &[Case::Enabled],
        false,
    )
}
