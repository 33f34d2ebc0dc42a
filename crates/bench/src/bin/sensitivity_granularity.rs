//! Sensitivity study defending the DESIGN.md granularity substitution:
//! the real coll_perf writes 8-byte elements (KB-scale runs); we use a
//! configurable chunk (default 128 KiB) to keep 512-rank runs
//! tractable. This sweep re-runs the key Fig. 4 points at several
//! chunk granularities — if the substitution is sound, the bandwidths
//! must be insensitive to the choice.

use std::fmt::Write as _;

use e10_bench::{finish, hints_for, simulate, Case, Cli, Json, Report, Scale};
use e10_workloads::CollPerf;

fn run_one(scale: Scale, chunk: u64, case: Case, aggs: usize) -> f64 {
    // Hold the block size at 64 MB/rank by trading side³ against
    // chunk: side = (64 MiB / chunk)^(1/3).
    let block = 64u64 << 20;
    let side = ((block / chunk) as f64).cbrt().round() as u64;
    assert_eq!(side * side * side * chunk, block, "chunk must cube-divide");
    let w = CollPerf {
        grid: [8, 8, 8],
        side,
        chunk,
    };
    let hints = hints_for(case, aggs, 4 << 20);
    simulate(scale, w, hints, "/gfs/sens", |_, cfg| cfg.files = 2)
        .outcome
        .gb_s()
}

fn main() -> std::process::ExitCode {
    let cli = Cli::parse();
    let scale = cli.scale(Scale::Full);
    // Chunks that cube-divide 64 MiB: side ∈ {16, 8, 4} → 16 KiB,
    // 128 KiB, 1 MiB.
    let chunks: [u64; 3] = [16 << 10, 128 << 10, 1 << 20];
    let points = [
        ("disabled 64_4M", Case::Disabled, 64usize),
        ("enabled 64_4M", Case::Enabled, 64),
        ("enabled 8_4M", Case::Enabled, 8),
    ];
    let rows: Vec<(&str, Vec<(u64, f64)>)> = points
        .into_iter()
        .map(|(label, case, aggs)| {
            let bws = chunks
                .iter()
                .map(|&chunk| (chunk, run_one(scale, chunk, case, aggs)))
                .collect();
            (label, bws)
        })
        .collect();

    let doc = Json::obj([
        ("figure", Json::str("sensitivity_granularity")),
        ("scale", Json::str(scale.name())),
        (
            "rows",
            Json::arr(rows.iter().map(|(label, bws)| {
                Json::obj([
                    ("point", Json::str(*label)),
                    (
                        "chunks",
                        Json::arr(bws.iter().map(|&(chunk, bw)| {
                            Json::obj([("chunk_bytes", Json::U64(chunk)), ("gb_s", Json::F64(bw))])
                        })),
                    ),
                ])
            })),
        ),
    ]);
    let mut text = "coll_perf granularity sensitivity (Fig. 4 anchor points, GB/s):\n".to_string();
    let _ = writeln!(
        text,
        "{:<22} {:>10} {:>10} {:>10}",
        "point", "16K chunks", "128K (used)", "1M chunks"
    );
    for (label, bws) in rows {
        let _ = write!(text, "{label:<22}");
        for (_, bw) in bws {
            let _ = write!(text, " {bw:>10.2}");
        }
        text.push('\n');
    }
    text.push_str(
        "\nMoving FINER than the 128 KiB used for the figures (toward the\n\
         real benchmark's KB-scale runs) leaves every point unchanged,\n\
         so the substitution does not drive the results; only much\n\
         coarser chunks would inflate the cached numbers by cutting\n\
         shuffle message counts.\n",
    );
    finish(Report::new(doc, text), &cli)
}
