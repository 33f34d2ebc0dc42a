//! Ablation: the `ind_wr_buffer_size` sync buffer.
//! The experiment is `ablation_sync_buffer` in `e10_bench::GATES`.

fn main() -> std::process::ExitCode {
    e10_bench::gate_main("ablation_sync_buffer")
}
