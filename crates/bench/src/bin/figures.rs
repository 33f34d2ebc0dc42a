//! Figures 4–10: one kernel's `<aggregators>_<coll_bufsize>` grid,
//! three cases, run once and printed as the paper plots it.
//!
//! * `figures collperf` — Fig. 4 (perceived bandwidth), Fig. 5 and
//!   Fig. 6 (breakdown with the cache enabled and disabled);
//! * `figures flashio` — Fig. 7 and Fig. 8 (breakdown, cache enabled);
//! * `figures ior` — Fig. 9, which charges the last write phase's
//!   non-hidden synchronisation, and Fig. 10 (breakdown, cache enabled).
//!
//! `--json` prints the bandwidth figure's document, which carries every
//! point's breakdown too. The kernels are [`e10_bench::KERNELS`].

fn main() -> std::process::ExitCode {
    e10_bench::figure_main()
}
