//! Ablation: per-rank compute jitter against the cache's advantage.
//! The experiment is `ablation_compute_jitter` in `e10_bench::GATES`.

fn main() -> std::process::ExitCode {
    e10_bench::gate_main("ablation_compute_jitter")
}
