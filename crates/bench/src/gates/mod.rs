//! Every experiment, listed once in [`GATES`]: each is a function
//! `(scale, jobs, &Cli) -> Report` that runs its points on `jobs` pool
//! workers. A gate's report can carry failures; a study's (the
//! ablations, the sensitivity study, the baselines and the cache-read
//! extension) and the paper's tables and figures are text. The crate's
//! binary runs the row its first argument names; the determinism test
//! runs every row at two worker counts.

use e10_simcore::pool::run_jobs_on;
use e10_simcore::Job;

use crate::tables::{tables_json, tables_text};
use crate::{figures, run_grid, Case, Cli, Report, Scale};

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
    /// Its name on the command line.
    pub name: &'static str,
    /// The scale it runs at without `--smoke` or `E10_SCALE`.
    pub scale: Scale,
    /// The experiment, at a scale and a worker count.
    pub run: fn(Scale, usize, &Cli) -> Report,
}

/// Every experiment: Tables I and II, each kernel's figures (one grid
/// run, printed as its bandwidth figure and then its breakdowns), the
/// gates, then the studies. `BENCH_*.json` files are committed at the
/// default scales of the first four gates.
pub const GATES: [Gate; 18] = [
    Gate {
        name: "tables",
        scale: Scale::Full,
        run: |_, _, _| Report::new(tables_json(), tables_text()),
    },
    Gate {
        name: "collperf",
        scale: Scale::Full,
        run: |scale, jobs, _| {
            figures(
                &run_grid(jobs, scale, Scale::collperf, false),
                (
                    "fig4",
                    "Fig. 4 — coll_perf perceived bandwidth (aggregators_collbuf)",
                ),
                &[
                    (Case::Enabled, "Fig. 5 — coll_perf breakdown, cache ENABLED"),
                    (
                        Case::Disabled,
                        "Fig. 6 — coll_perf breakdown, cache DISABLED",
                    ),
                ],
            )
        },
    },
    Gate {
        name: "flashio",
        scale: Scale::Full,
        run: |scale, jobs, _| {
            figures(
                &run_grid(jobs, scale, Scale::flashio, false),
                (
                    "fig7",
                    "Fig. 7 — Flash-IO perceived bandwidth (aggregators_collbuf)",
                ),
                &[(Case::Enabled, "Fig. 8 — Flash-IO breakdown, cache ENABLED")],
            )
        },
    },
    Gate {
        name: "ior",
        scale: Scale::Full,
        // Unlike coll_perf and Flash-IO, IOR charges the non-hidden
        // synchronisation of the last write phase (paper §IV-D): it
        // caps the cache-enabled peak of Fig. 9 and is the visible
        // `not_hidden_sync` term of Fig. 10.
        run: |scale, jobs, _| {
            figures(
                &run_grid(jobs, scale, Scale::ior, true),
                (
                    "fig9",
                    "Fig. 9 — IOR perceived bandwidth, incl. last-phase sync",
                ),
                &[(Case::Enabled, "Fig. 10 — IOR breakdown, cache ENABLED")],
            )
        },
    },
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
