//! Figure 10: IOR collective-I/O contribution breakdown with the cache
//! enabled — the `not_hidden_sync` term of the final write phase is
//! clearly visible (the `T_s(k) - C(k+1)` of Eq. 1 with C = 0).
use e10_bench::{figure_main, Case, Scale};

fn main() -> std::process::ExitCode {
    figure_main(
        "fig10",
        "Fig. 10 — IOR breakdown, cache ENABLED",
        Scale::ior,
        &[Case::Enabled],
        true,
    )
}
