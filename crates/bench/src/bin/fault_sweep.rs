//! Fault matrix plus one node crash recovered from the cache journal.
//! The experiment and its gate are `fault_sweep` in `e10_bench::GATES`.

fn main() -> std::process::ExitCode {
    e10_bench::gate_main("fault_sweep")
}
