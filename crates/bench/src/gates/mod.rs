//! The gated experiments: each is a function `(scale, jobs, &Cli) ->
//! Report` whose report carries gate failures, listed once in
//! [`GATES`]. A gated binary's whole `main` is [`gate_main`] with its
//! name; the determinism test runs every entry at two worker counts.

use std::process::ExitCode;

use crate::{finish, Cli, Report, Scale};

mod bench_perf;
mod chaos_soak;
mod degraded;
mod fault_sweep;
mod multi_job;
mod node_agg;
mod nvm_sweep;

/// One gated experiment.
pub struct Gate {
    /// Its binary's name.
    pub name: &'static str,
    /// The scale it runs at without `--smoke` or `E10_SCALE`.
    scale: Scale,
    /// The experiment, at a scale and a worker count.
    pub run: fn(Scale, usize, &Cli) -> Report,
}

/// Every gated experiment. `BENCH_*.json` files are committed at the
/// default scales of the first four.
pub const GATES: [Gate; 7] = [
    Gate {
        name: "bench_perf",
        scale: Scale::Quick,
        run: bench_perf::run,
    },
    Gate {
        name: "node_agg",
        scale: Scale::Quick,
        run: node_agg::run,
    },
    Gate {
        name: "nvm_sweep",
        scale: Scale::Quick,
        run: nvm_sweep::run,
    },
    Gate {
        name: "degraded",
        scale: Scale::Full,
        run: degraded::run,
    },
    Gate {
        name: "multi_job",
        scale: Scale::Full,
        run: multi_job::run,
    },
    Gate {
        name: "chaos_soak",
        scale: Scale::Full,
        run: chaos_soak::run,
    },
    Gate {
        name: "fault_sweep",
        scale: Scale::Full,
        run: fault_sweep::run,
    },
];

/// The `main` of the gated binary `name`: parse the command line, run
/// the experiment at the scale it picks on `E10_JOBS` workers, finish.
pub fn gate_main(name: &str) -> ExitCode {
    let gate = GATES
        .iter()
        .find(|g| g.name == name)
        .unwrap_or_else(|| panic!("no gate named {name}"));
    let cli = Cli::parse();
    let report = (gate.run)(
        cli.scale(gate.scale),
        e10_simcore::pool::worker_threads(),
        &cli,
    );
    finish(report, &cli)
}

/// `"smoke"` at test scale, `"full"` otherwise: the mode the seeded
/// soaks and the survivability grid record.
fn mode(scale: Scale) -> &'static str {
    if scale == Scale::Test {
        "smoke"
    } else {
        "full"
    }
}

/// A counter of a traced run's metrics snapshot (0 when never bumped).
fn counter(snap: &e10_simcore::trace::MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |&(_, v)| v)
}
