//! Sensitivity of the Fig. 4 anchor points to the coll_perf chunk.
//! The experiment is `sensitivity_granularity` in `e10_bench::GATES`.

fn main() -> std::process::ExitCode {
    e10_bench::gate_main("sensitivity_granularity")
}
