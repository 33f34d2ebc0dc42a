//! Raw-speed baseline: host wall-clock and allocator calls per simulated
//! event over the Fig-4 grid; committed as `BENCH_perf.json`.
//! The experiment and its gate are `bench_perf` in `e10_bench::GATES`.

#[global_allocator]
static A: e10_simcore::alloc_gauge::CountingAlloc = e10_simcore::alloc_gauge::CountingAlloc;

fn main() -> std::process::ExitCode {
    e10_bench::gate_main("bench_perf")
}
