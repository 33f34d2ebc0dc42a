//! Tables I and II: the ROMIO collective-I/O hints and the proposed
//! E10 MPI-IO hint extensions, as resolved by this implementation.
//!
//! Rendering lives in [`e10_bench::tables`] so the golden regression
//! test pins the same bytes this binary prints.
use e10_bench::tables::{tables_json, tables_text};
use e10_bench::{finish, Cli, Report};

fn main() -> std::process::ExitCode {
    finish(Report::new(tables_json(), tables_text()), &Cli::parse())
}
