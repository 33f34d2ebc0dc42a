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

use std::fmt::Write as _;

use e10_bench::{finish, hints_for, simulate, Case, Cli, Json, Report, Scale, Sim};
use e10_simcore::SimDuration;
use e10_workloads::CollPerf;

/// One cache-disabled run of `strategy` in a single round per file
/// domain (the collective buffer covers it), with a stripe size that
/// does NOT divide the even domain size (see module docs).
fn run_strategy(
    scale: Scale,
    workload: CollPerf,
    aggs: usize,
    strategy: &str,
    path: &str,
    tune: impl FnOnce(&mut e10_romio::TestbedSpec, &mut e10_workloads::RunConfig),
) -> Sim {
    let hints = hints_for(Case::Disabled, aggs, 64 << 30);
    hints.set("e10_fd_partition", strategy);
    hints.set("striping_unit", "5242880");
    simulate(scale, workload, hints, path, |spec, cfg| {
        cfg.files = 2;
        tune(spec, cfg);
    })
}

fn main() -> std::process::ExitCode {
    let cli = Cli::parse();
    let scale = cli.scale(Scale::Full);
    let mut agg_sweep = scale.aggregators();
    // Beyond the paper's sweep: denser aggregator sets shrink the file
    // domains, making shared boundary stripes a larger fraction of the
    // work.
    agg_sweep.push(scale.procs() / 2);
    agg_sweep.push(scale.procs());

    let rows: Vec<(usize, Sim, Sim)> = agg_sweep
        .iter()
        .map(|&aggs| {
            let [even, aligned] = ["even", "aligned"]
                .map(|s| run_strategy(scale, scale.collperf(), aggs, s, "/gfs/abl_fd", |_, _| {}));
            (aggs, even, aligned)
        })
        .collect();
    // A 64-rank stress case where boundary-stripe lock contention is
    // visible: at 32 GB scale the fair-share fabric disperses the
    // differently-sized boundary partials so far apart in time that
    // their lock intervals no longer overlap, which is why the main
    // sweep shows zero contention either way.
    let stress = ["even", "aligned"].map(|s| {
        let w = CollPerf {
            grid: [4, 4, 4],
            side: 4,
            chunk: 64 << 10,
        };
        let sim = run_strategy(scale, w, 8, s, "/gfs/abl_stress", |spec, cfg| {
            spec.nodes = 8;
            cfg.compute_delay = SimDuration::from_secs(2);
        });
        (s, sim)
    });

    let gb_s = |sim: &Sim| sim.outcome.gb_s();
    let doc = Json::obj([
        ("figure", Json::str("ablation_fd_strategy")),
        ("scale", Json::str(scale.name())),
        (
            "rows",
            Json::arr(rows.iter().map(|(aggs, even, aligned)| {
                Json::obj([
                    ("aggregators", Json::U64(*aggs as u64)),
                    ("even_gb_s", Json::F64(gb_s(even))),
                    ("aligned_gb_s", Json::F64(gb_s(aligned))),
                    ("even_contended_locks", Json::U64(even.contended_locks)),
                    (
                        "aligned_contended_locks",
                        Json::U64(aligned.contended_locks),
                    ),
                ])
            })),
        ),
        (
            "contention_stress",
            Json::arr(stress.iter().map(|(s, sim)| {
                Json::obj([
                    ("strategy", Json::str(*s)),
                    ("gb_s", Json::F64(gb_s(sim))),
                    ("contended_locks", Json::U64(sim.contended_locks)),
                ])
            })),
        ),
    ]);
    let mut text = "FD-strategy ablation, coll_perf, cache disabled\n\
         (single-round configuration: collective buffer covers the whole\n\
         file domain, so neighbouring aggregators write their shared\n\
         boundary stripes concurrently)\n"
        .to_string();
    let _ = writeln!(
        text,
        "{:<10} {:>14} {:>14} {:>22}",
        "combo", "even [GB/s]", "aligned [GB/s]", "lock contention even/aligned"
    );
    for (aggs, even, aligned) in &rows {
        let _ = writeln!(
            text,
            "{:<10} {:>14.2} {:>14.2} {:>12}/{:<12}",
            format!("{aggs}_1round"),
            gb_s(even),
            gb_s(aligned),
            even.contended_locks,
            aligned.contended_locks
        );
    }
    text.push_str("\ncontention stress (64 ranks, 256 MB, 8 aggregators):\n");
    let _ = writeln!(
        text,
        "{:<10} {:>12} {:>24}",
        "strategy", "BW [GB/s]", "lock grants contended"
    );
    for (s, sim) in &stress {
        let _ = writeln!(
            text,
            "{:<10} {:>12.2} {:>24}",
            s,
            gb_s(sim),
            sim.contended_locks
        );
    }
    finish(Report::new(doc, text), &cli)
}
