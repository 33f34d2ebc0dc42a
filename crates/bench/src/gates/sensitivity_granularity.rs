//! Sensitivity study defending the DESIGN.md granularity substitution:
//! the real coll_perf writes 8-byte elements (KB-scale runs); we use a
//! configurable chunk (128 KiB at paper scale) to keep 512-rank runs
//! tractable. This sweep re-runs the key Fig. 4 points at several
//! chunk granularities — if the substitution is sound, the bandwidths
//! must be insensitive to the choice.

use e10_workloads::CollPerf;

use super::pooled;
use super::table::Table;
use crate::{combo_label, hints_for, simulate, size_label, Case, Cli, Json, Report, Scale};

/// The scale's coll_perf at its chunk ÷ 8, × 1 and × 8, the block side
/// × 2, × 1 and ÷ 2 holding the block (side³ · chunk) fixed.
fn workloads(scale: Scale) -> [CollPerf; 3] {
    let CollPerf { grid, side, chunk } = scale.collperf();
    [(side * 2, chunk / 8), (side, chunk), (side / 2, chunk * 8)].map(|(side, chunk)| CollPerf {
        grid,
        side,
        chunk,
    })
}

pub(super) fn run(scale: Scale, jobs: usize, _: &Cli) -> Report {
    let (aggs, cb) = (scale.aggregators(), scale.cb_sizes()[0]);
    let (many, few) = (*aggs.last().unwrap(), aggs[0]);
    let anchors = [
        ("disabled", Case::Disabled, many),
        ("enabled", Case::Enabled, many),
        ("enabled", Case::Enabled, few),
    ];
    let points = anchors.iter().flat_map(|&(_, case, aggs)| {
        workloads(scale).map(|w| {
            move || {
                let hints = hints_for(case, aggs, cb);
                simulate(scale, w, hints, "/gfs/sens", |_, cfg| cfg.files = 2)
                    .outcome
                    .gb_s()
            }
        })
    });
    let gb_s = pooled(jobs, points);
    let chunks = workloads(scale).map(|w| w.chunk);
    let [finer, used, coarser] = chunks.map(size_label);
    let heads = [
        format!("{finer} chunks"),
        format!("{used} (used)"),
        format!("{coarser} chunks"),
    ];
    let cols: Vec<_> = [("point", "point", "<22")]
        .into_iter()
        .chain(heads.iter().map(|head| ("gb_s", head.as_str(), ">10.2")))
        .collect();
    let table = Table {
        cols: &cols,
        rows: (anchors.iter().zip(gb_s.chunks(3)))
            .map(|(&(case, _, aggs), bws)| {
                let point = Json::str(format!("{case} {}", combo_label(aggs, cb)));
                let bws = bws.iter().map(|&bw| Json::F64(bw));
                [point].into_iter().chain(bws).collect()
            })
            .collect(),
    };
    // The document nests each point's bandwidths under its chunks.
    let rows = table.rows.iter().map(|row| {
        let chunks = chunks.iter().zip(&row[1..]).map(|(&chunk, bw)| {
            Json::obj([("chunk_bytes", Json::U64(chunk)), ("gb_s", bw.clone())])
        });
        Json::obj([("point", row[0].clone()), ("chunks", Json::arr(chunks))])
    });
    let doc = Json::obj([
        ("figure", Json::str("sensitivity_granularity")),
        ("scale", Json::str(scale.name())),
        ("rows", Json::arr(rows)),
    ]);
    let text = "coll_perf granularity sensitivity (Fig. 4 anchor points, GB/s):\n".to_string()
        + &table.text()
        + "\nMoving FINER than the 128 KiB used for the figures (toward the\n\
           real benchmark's KB-scale runs) leaves every point unchanged,\n\
           so the substitution does not drive the results; only much\n\
           coarser chunks would inflate the cached numbers by cutting\n\
           shuffle message counts.\n";
    Report::new(doc, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use e10_workloads::Workload;

    /// Every chunk granularity runs the scale's ranks over the scale's
    /// file: only the chunk and the block side move.
    #[test]
    fn the_workloads_run_the_scales_ranks_and_bytes() {
        for scale in [Scale::Full, Scale::Quick, Scale::Test] {
            for w in workloads(scale) {
                assert_eq!(w.procs(), scale.procs(), "{}", scale.name());
                assert_eq!(w.file_size(), scale.collperf().file_size());
            }
        }
        let chunks = workloads(Scale::Full).map(|w| w.chunk);
        assert_eq!(chunks, [16 << 10, 128 << 10, 1 << 20]);
    }
}
