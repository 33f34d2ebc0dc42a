//! Chaos soak: seeded corruption schedules against a fault-free oracle.
//! The experiment and its gate are `chaos_soak` in `e10_bench::GATES`.

fn main() -> std::process::ExitCode {
    e10_bench::gate_main("chaos_soak")
}
