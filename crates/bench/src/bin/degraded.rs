//! Degraded-mode survivability: failure intensity × cache class ×
//! algorithm; committed as `BENCH_degraded.json`.
//! The experiment and its gate are `degraded` in `e10_bench::GATES`.

fn main() -> std::process::ExitCode {
    e10_bench::gate_main("degraded")
}
