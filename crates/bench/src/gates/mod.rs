//! Every experiment but the figures: each is a function `(scale, jobs,
//! &Cli) -> Report` that runs its points on `jobs` pool workers, listed
//! once in [`GATES`]. A gate's report can carry failures; a study's
//! (the ablations, the sensitivity study, the baselines and the
//! cache-read extension) is a table. Each binary's whole `main` is
//! [`gate_main`] with its name; the determinism test runs every entry
//! at two worker counts.

use std::process::ExitCode;

use e10_simcore::pool::run_jobs_on;
use e10_simcore::Job;

use crate::{finish, Cli, Report, Scale};

mod ablation_compute_jitter;
mod ablation_fd_strategy;
mod ablation_flush_policy;
mod ablation_sync_buffer;
mod baseline_comparison;
mod bench_perf;
mod chaos_soak;
mod degraded;
mod ext_cache_read;
mod fault_sweep;
mod multi_job;
mod node_agg;
mod nvm_sweep;
mod sensitivity_granularity;
mod table;

/// One experiment.
pub struct Gate {
    /// Its binary's name.
    pub name: &'static str,
    /// The scale it runs at without `--smoke` or `E10_SCALE`.
    scale: Scale,
    /// The experiment, at a scale and a worker count.
    pub run: fn(Scale, usize, &Cli) -> Report,
}

/// Every experiment but the figures: the gates, then the studies.
/// `BENCH_*.json` files are committed at the default scales of the
/// first four.
pub const GATES: [Gate; 14] = [
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
    Gate {
        name: "ablation_compute_jitter",
        scale: Scale::Full,
        run: ablation_compute_jitter::run,
    },
    Gate {
        name: "ablation_fd_strategy",
        scale: Scale::Full,
        run: ablation_fd_strategy::run,
    },
    Gate {
        name: "ablation_flush_policy",
        scale: Scale::Full,
        run: ablation_flush_policy::run,
    },
    Gate {
        name: "ablation_sync_buffer",
        scale: Scale::Full,
        run: ablation_sync_buffer::run,
    },
    Gate {
        name: "sensitivity_granularity",
        scale: Scale::Full,
        run: sensitivity_granularity::run,
    },
    Gate {
        name: "baseline_comparison",
        scale: Scale::Full,
        run: baseline_comparison::run,
    },
    Gate {
        name: "ext_cache_read",
        scale: Scale::Full,
        run: ext_cache_read::run,
    },
];

/// The `main` of the binary `name`: parse the command line, run
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

/// Run `points` on `jobs` pool workers, one job each, and return their
/// results in submission order.
fn pooled<T: Send + 'static, F: FnOnce() -> T + Send + 'static>(
    jobs: usize,
    points: impl IntoIterator<Item = F>,
) -> Vec<T> {
    let grid = points.into_iter().map(|f| Box::new(f) as Job<T>);
    run_jobs_on(jobs, grid.collect())
}
