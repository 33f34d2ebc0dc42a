//! The three collective-write algorithms' shuffle traffic on the Fig. 4
//! grid; committed as `BENCH_node_agg.json`.
//! The experiment and its gate are `node_agg` in `e10_bench::GATES`.

fn main() -> std::process::ExitCode {
    e10_bench::gate_main("node_agg")
}
