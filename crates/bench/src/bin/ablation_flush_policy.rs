//! Ablation: `flush_immediate` against `flush_onclose`.
//! The experiment is `ablation_flush_policy` in `e10_bench::GATES`.

fn main() -> std::process::ExitCode {
    e10_bench::gate_main("ablation_flush_policy")
}
