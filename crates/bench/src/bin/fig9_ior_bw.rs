//! Figure 9: IOR perceived write bandwidth. Unlike coll_perf and
//! Flash-IO, IOR charges the non-hidden synchronisation of the LAST
//! write phase (paper §IV-D), which caps the cache-enabled peak.
use e10_bench::{figure_main, Case, Scale};

fn main() -> std::process::ExitCode {
    figure_main(
        "fig9",
        "Fig. 9 — IOR perceived bandwidth, incl. last-phase sync",
        Scale::ior,
        &Case::ALL,
        true,
    )
}
