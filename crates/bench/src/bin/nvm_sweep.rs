//! SSD-vs-NVM-vs-hybrid cache-tier sweep on the Fig. 4 grid; committed
//! as `BENCH_nvm.json`.
//! The experiment and its gate are `nvm_sweep` in `e10_bench::GATES`.

fn main() -> std::process::ExitCode {
    e10_bench::gate_main("nvm_sweep")
}
