//! Ablation: even against stripe-aligned file domains.
//! The experiment is `ablation_fd_strategy` in `e10_bench::GATES`.

fn main() -> std::process::ExitCode {
    e10_bench::gate_main("ablation_fd_strategy")
}
