//! The §V related-work baselines against the E10 cache.
//! The experiment is `baseline_comparison` in `e10_bench::GATES`.

fn main() -> std::process::ExitCode {
    e10_bench::gate_main("baseline_comparison")
}
