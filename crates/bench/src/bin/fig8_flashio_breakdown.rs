//! Figure 8: Flash-IO collective-I/O contribution breakdown with the
//! E10 cache enabled.
use e10_bench::{figure_main, Case, Scale};

fn main() -> std::process::ExitCode {
    figure_main(
        "fig8",
        "Fig. 8 — Flash-IO breakdown, cache ENABLED",
        Scale::flashio,
        &[Case::Enabled],
        false,
    )
}
