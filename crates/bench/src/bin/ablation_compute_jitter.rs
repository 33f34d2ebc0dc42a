//! Ablation: compute-phase jitter (OS noise, load imbalance).
//!
//! The paper observes — discussing its Fig. 8 outlier and the Damaris
//! line of work — that "the effect of global synchronisation when
//! using the cache can be even more severe, due to the much higher
//! bandwidth achievable". With per-rank compute jitter, every rank
//! arrives at the next collective staggered; the arrival spread is a
//! fixed absolute cost, so the faster the I/O itself, the larger the
//! *relative* damage. This sweep quantifies that.

use std::fmt::Write as _;

use e10_bench::{finish, hints_for, simulate, Case, Cli, Json, Report, Scale};

fn run_one(scale: Scale, case: Case, cv: f64) -> f64 {
    let aggs = *scale.aggregators().last().unwrap();
    let hints = hints_for(case, aggs, 4 << 20);
    simulate(scale, scale.collperf(), hints, "/gfs/jitter", |_, cfg| {
        cfg.files = 3;
        cfg.compute_jitter_cv = cv;
    })
    .outcome
    .gb_s()
}

fn main() -> std::process::ExitCode {
    let cli = Cli::parse();
    let scale = cli.scale(Scale::Full);
    let rows = [0.0, 0.05, 0.15, 0.3].map(|cv| {
        (
            cv,
            run_one(scale, Case::Disabled, cv),
            run_one(scale, Case::Enabled, cv),
        )
    });
    let (_, base_disabled, base_enabled) = rows[0];

    let doc = Json::obj([
        ("figure", Json::str("ablation_compute_jitter")),
        ("scale", Json::str(scale.name())),
        (
            "rows",
            Json::arr(rows.iter().map(|&(cv, dis, en)| {
                Json::obj([
                    ("jitter_cv", Json::F64(cv)),
                    ("disabled_gb_s", Json::F64(dis)),
                    (
                        "disabled_retained_pct",
                        Json::F64(100.0 * dis / base_disabled),
                    ),
                    ("enabled_gb_s", Json::F64(en)),
                    ("enabled_retained_pct", Json::F64(100.0 * en / base_enabled)),
                ])
            })),
        ),
    ]);
    let mut text = "Compute-jitter ablation, coll_perf, max aggregators:\n".to_string();
    let _ = writeln!(
        text,
        "{:<10} {:>15} {:>13} {:>15} {:>13}",
        "jitter cv", "disabled [GB/s]", "retained [%]", "enabled [GB/s]", "retained [%]"
    );
    for (cv, dis, en) in rows {
        let _ = writeln!(
            text,
            "{:<10} {:>15.2} {:>12.1}% {:>15.2} {:>12.1}%",
            cv,
            dis,
            100.0 * dis / base_disabled,
            en,
            100.0 * en / base_enabled
        );
    }
    text.push_str(
        "\nA few percent of compute jitter costs the cached configuration\n\
         a disproportionate share of its advantage: the arrival spread\n\
         is absolute, and the cached write it delays is tiny — exactly\n\
         the paper's warning that global synchronisation bites harder\n\
         at NVM speeds.\n",
    );
    finish(Report::new(doc, text), &cli)
}
