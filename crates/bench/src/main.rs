//! `e10-bench NAME [flags]`: run the experiment NAME, a row of
//! [`e10_bench::GATES`], at the scale the flags pick (the row's own by
//! default) on `E10_JOBS` workers, and finish as [`e10_bench::finish`]
//! says. An unknown NAME lists the rows and exits 2.
//!
//! The counting allocator is installed for every row, but it counts
//! only inside an `alloc_gauge::count` window on the thread that opened
//! it: `bench_perf`'s cells.

use std::process::ExitCode;

use e10_bench::{finish, Cli, GATES};

#[global_allocator]
static A: e10_simcore::alloc_gauge::CountingAlloc = e10_simcore::alloc_gauge::CountingAlloc;

fn main() -> ExitCode {
    let cli = Cli::parse();
    let Some(gate) = GATES.iter().find(|g| cli.row() == Some(g.name)) else {
        let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        eprintln!("usage: e10-bench {} [flags]", names.join("|"));
        return ExitCode::from(2);
    };
    let report = (gate.run)(
        cli.scale(gate.scale),
        e10_simcore::pool::worker_threads(),
        &cli,
    );
    finish(report, &cli)
}
