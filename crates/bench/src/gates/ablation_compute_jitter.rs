//! Ablation: compute-phase jitter (OS noise, load imbalance).
//!
//! The paper observes — discussing its Fig. 8 outlier and the Damaris
//! line of work — that "the effect of global synchronisation when
//! using the cache can be even more severe, due to the much higher
//! bandwidth achievable". With per-rank compute jitter, every rank
//! arrives at the next collective staggered; the arrival spread is a
//! fixed absolute cost, so the faster the I/O itself, the larger the
//! *relative* damage. This sweep quantifies that.

use super::pooled;
use super::table::Table;
use crate::{hints_for, simulate, Case, Cli, Json, Report, Scale};

const CVS: [f64; 4] = [0.0, 0.05, 0.15, 0.3];

pub(super) fn run(scale: Scale, jobs: usize, _: &Cli) -> Report {
    let aggs = *scale.aggregators().last().unwrap();
    let points = CVS.iter().flat_map(|&cv| {
        [Case::Disabled, Case::Enabled].map(|case| {
            move || {
                let hints = hints_for(case, aggs, 4 << 20);
                simulate(scale, scale.collperf(), hints, "/gfs/jitter", |_, cfg| {
                    cfg.files = 3;
                    cfg.compute_jitter_cv = cv;
                })
                .outcome
                .gb_s()
            }
        })
    });
    let gb_s = pooled(jobs, points);
    let rows = CVS.iter().zip(gb_s.chunks(2)).map(|(&cv, bws)| {
        let mut row = vec![Json::F64(cv)];
        for (&bw, base) in bws.iter().zip(&gb_s[..2]) {
            row.extend([Json::F64(bw), Json::F64(100.0 * bw / base)]);
        }
        row
    });
    let table = Table {
        cols: &[
            ("jitter_cv", "jitter cv", "<10"),
            ("disabled_gb_s", "disabled [GB/s]", ">15.2"),
            ("disabled_retained_pct", "retained [%]", ">13.1%"),
            ("enabled_gb_s", "enabled [GB/s]", ">15.2"),
            ("enabled_retained_pct", "retained [%]", ">13.1%"),
        ],
        rows: rows.collect(),
    };
    let doc = Json::obj([
        ("figure", Json::str("ablation_compute_jitter")),
        ("scale", Json::str(scale.name())),
        ("rows", table.json()),
    ]);
    let text = "Compute-jitter ablation, coll_perf, max aggregators:\n".to_string()
        + &table.text()
        + "\nA few percent of compute jitter costs the cached configuration\n\
           a disproportionate share of its advantage: the arrival spread\n\
           is absolute, and the cached write it delays is tiny — exactly\n\
           the paper's warning that global synchronisation bites harder\n\
           at NVM speeds.\n";
    Report::new(doc, text)
}
