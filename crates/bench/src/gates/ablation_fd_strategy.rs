//! Ablation: file-domain partitioning strategy (DESIGN.md §3.2).
//!
//! Compares the classic even byte split (`e10_fd_partition = even`)
//! against the stripe-aligned partitioning of the paper's BeeGFS ADIO
//! driver (footnote 1: "detect and align file domains to stripe
//! boundaries thus avoiding stripe collisions"). Misaligned domains
//! make neighbouring aggregators contend on the file system's
//! stripe-granular extent locks.
//!
//! Note: the paper's own configuration (32 GB files, 4 MB stripes,
//! power-of-two aggregator counts) divides evenly, so even
//! partitioning is accidentally aligned there. This ablation uses a
//! 5 MB stripe unit, which no power-of-two domain size divides, to
//! expose the contention class the aligned strategy removes.

use e10_simcore::SimDuration;
use e10_workloads::CollPerf;

use super::pooled;
use super::table::Table;
use crate::{hints_for, simulate, Case, Cli, Json, Report, Scale};

const STRATEGIES: [&str; 2] = ["even", "aligned"];

/// One cache-disabled run of `strategy` in a single round per file
/// domain (the collective buffer covers it), with a stripe size that
/// does NOT divide the even domain size (see module docs). `stress`
/// runs the 64-rank contention case instead of the scale's coll_perf.
fn run_strategy(scale: Scale, aggs: usize, strategy: &str, stress: bool) -> (f64, u64) {
    let hints = hints_for(Case::Disabled, aggs, 64 << 30);
    hints.set("e10_fd_partition", strategy);
    hints.set("striping_unit", "5242880");
    let (workload, path) = if stress {
        let w = CollPerf {
            grid: [4, 4, 4],
            side: 4,
            chunk: 64 << 10,
        };
        (w, "/gfs/abl_stress")
    } else {
        (scale.collperf(), "/gfs/abl_fd")
    };
    let sim = simulate(scale, workload, hints, path, |spec, cfg| {
        cfg.files = 2;
        if stress {
            spec.nodes = 8;
            cfg.compute_delay = SimDuration::from_secs(2);
        }
    });
    (sim.outcome.gb_s(), sim.contended_locks)
}

pub(super) fn run(scale: Scale, jobs: usize, _: &Cli) -> Report {
    // Beyond the paper's sweep: denser aggregator sets shrink the file
    // domains, making shared boundary stripes a larger fraction of the
    // work. Last, the stress case (8 aggregators) where boundary-stripe
    // lock contention is visible: at 32 GB scale the fair-share fabric
    // disperses the differently-sized boundary partials so far apart in
    // time that their lock intervals no longer overlap, which is why
    // the main sweep shows zero contention either way.
    let mut sweep = scale.aggregators();
    sweep.extend([scale.procs() / 2, scale.procs()]);
    let points = (sweep.iter().map(|&aggs| (aggs, false)))
        .chain([(8, true)])
        .flat_map(|(aggs, stress)| {
            STRATEGIES.map(|s| move || run_strategy(scale, aggs, s, stress))
        });
    let runs = pooled(jobs, points);
    let (runs, stress) = runs.split_at(2 * sweep.len());
    let rows = sweep.iter().zip(runs.chunks(2)).map(|(&aggs, r)| {
        let [(even_bw, even_locks), (aligned_bw, aligned_locks)] = [r[0], r[1]];
        vec![
            Json::U64(aggs as u64),
            Json::F64(even_bw),
            Json::F64(aligned_bw),
            Json::U64(even_locks),
            Json::U64(aligned_locks),
        ]
    });
    let table = Table {
        cols: &[
            ("aggregators", "combo", "<10_1round"),
            ("even_gb_s", "even [GB/s]", ">14.2"),
            ("aligned_gb_s", "aligned [GB/s]", ">14.2"),
            (
                "even_contended_locks",
                "lock contention even/aligned",
                ">12",
            ),
            ("aligned_contended_locks", "", "/<12"),
        ],
        rows: rows.collect(),
    };
    let stress = Table {
        cols: &[
            ("strategy", "strategy", "<10"),
            ("gb_s", "BW [GB/s]", ">12.2"),
            ("contended_locks", "lock grants contended", ">24"),
        ],
        rows: STRATEGIES
            .iter()
            .zip(stress)
            .map(|(s, &(bw, locks))| vec![Json::str(*s), Json::F64(bw), Json::U64(locks)])
            .collect(),
    };
    let doc = Json::obj([
        ("figure", Json::str("ablation_fd_strategy")),
        ("scale", Json::str(scale.name())),
        ("rows", table.json()),
        ("contention_stress", stress.json()),
    ]);
    let text = "FD-strategy ablation, coll_perf, cache disabled\n\
         (single-round configuration: collective buffer covers the whole\n\
         file domain, so neighbouring aggregators write their shared\n\
         boundary stripes concurrently)\n"
        .to_string()
        + &table.text()
        + "\ncontention stress (64 ranks, 256 MB, 8 aggregators):\n"
        + &stress.text();
    Report::new(doc, text)
}
