//! Multi-job cache contention under the per-node arbiter.
//! The experiment and its gate are `multi_job` in `e10_bench::GATES`.

fn main() -> std::process::ExitCode {
    e10_bench::gate_main("multi_job")
}
