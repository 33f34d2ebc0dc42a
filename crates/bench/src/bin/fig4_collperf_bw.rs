//! Figure 4: coll_perf perceived write bandwidth for all
//! `<aggregators>_<coll_bufsize>` combinations, three cases.
use e10_bench::{figure_main, Case, Scale};

fn main() -> std::process::ExitCode {
    figure_main(
        "fig4",
        "Fig. 4 — coll_perf perceived bandwidth (aggregators_collbuf)",
        Scale::collperf,
        &Case::ALL,
        false,
    )
}
