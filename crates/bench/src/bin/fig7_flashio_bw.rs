//! Figure 7: Flash-IO perceived write bandwidth for all combinations.
use e10_bench::{figure_main, Case, Scale};

fn main() -> std::process::ExitCode {
    figure_main(
        "fig7",
        "Fig. 7 — Flash-IO perceived bandwidth (aggregators_collbuf)",
        Scale::flashio,
        &Case::ALL,
        false,
    )
}
