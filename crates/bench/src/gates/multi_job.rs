//! Multi-job cache contention figures: N jobs time-sharing the same
//! nodes' cache devices under the per-node arbiter. Three arms:
//!
//! * `single`      — one job on the contended node shape (baseline).
//! * `uncontended` — four jobs, cache sized generously: everything
//!   admits, nothing degrades.
//! * `contended`   — four jobs, cache sized for ~1.5 jobs: the
//!   acceptance scenario. At least one job must degrade to
//!   write-through and at least one watermark eviction must fire, or
//!   the gate fails.
//!
//! Every arm's global files are byte-verified inside the harness
//! before figures are reported, so a passing run proves contention
//! never corrupted any job's output. The arms are already test-sized
//! (sub-second each), so every scale runs the same ones.

use std::fmt::Write as _;

use e10_simcore::pool::run_jobs_on;
use e10_simcore::Job;
use e10_workloads::{run_multi_job, MultiJobOutcome, MultiJobSpec};

use crate::{Cli, Json, Report, Scale};

type Arm = (&'static str, fn() -> MultiJobSpec);

/// The arms, in presentation order.
const ARMS: [Arm; 3] = [
    ("single", MultiJobSpec::single),
    ("uncontended", MultiJobSpec::uncontended),
    ("contended", MultiJobSpec::contended),
];

pub(super) fn run(_: Scale, jobs: usize, _: &Cli) -> Report {
    let host0 = std::time::Instant::now();
    let grid: Vec<Job<MultiJobOutcome>> = ARMS
        .iter()
        .map(|&(_, make)| Box::new(move || run_multi_job(&make())) as Job<MultiJobOutcome>)
        .collect();
    let outcomes = run_jobs_on(jobs, grid);
    let host_secs = host0.elapsed().as_secs_f64();

    let doc = Json::obj([
        ("figure", Json::str("multi_job")),
        (
            "arms",
            Json::arr(ARMS.iter().zip(&outcomes).map(|(&(name, make), out)| {
                let spec = make();
                Json::obj([
                    ("arm", Json::str(name)),
                    ("jobs", Json::U64(spec.jobs as u64)),
                    ("nodes", Json::U64(spec.nodes as u64)),
                    ("capacity", Json::U64(spec.capacity)),
                    ("wall_secs", Json::F64(out.wall_secs)),
                    ("admitted", Json::U64(out.admitted)),
                    ("refused", Json::U64(out.refused)),
                    ("evicted", Json::U64(out.evicted)),
                    ("degrades", Json::U64(out.degrades)),
                    ("fair_grants", Json::U64(out.fair_grants)),
                    ("bytes_cached", Json::U64(out.bytes_cached)),
                    (
                        "per_job",
                        Json::arr(out.jobs.iter().map(|j| {
                            Json::obj([
                                ("job", Json::U64(j.job as u64)),
                                ("bytes", Json::U64(j.bytes)),
                                ("secs", Json::F64(j.secs)),
                                ("gb_s", Json::F64(j.gb_s)),
                            ])
                        })),
                    ),
                ])
            })),
        ),
    ]);
    let mut text = format!("# multi_job arms={}\n", ARMS.len());
    for (&(name, _), out) in ARMS.iter().zip(&outcomes) {
        let _ = writeln!(
            text,
            "arm={name:>12} wall={:.3}s admitted={} refused={} evicted={} degrades={} \
             fair_grants={} cached={}",
            out.wall_secs,
            out.admitted,
            out.refused,
            out.evicted,
            out.degrades,
            out.fair_grants,
            out.bytes_cached,
        );
        for j in &out.jobs {
            let _ = writeln!(
                text,
                "  job{} bytes={} secs={:.3} gb_s={:.4}",
                j.job, j.bytes, j.secs, j.gb_s
            );
        }
    }
    let _ = writeln!(text, "host_secs={host_secs:.1}");

    // The acceptance gate: contention must demonstrably engage the
    // arbiter, and the control arms must stay clean.
    let mut failures = Vec::new();
    let [single, uncontended, contended] = [0, 1, 2].map(|i| &outcomes[i]);
    if contended.degrades == 0 || contended.evicted == 0 {
        failures.push(format!(
            "multi_job: contended arm must degrade (got {}) and evict (got {})",
            contended.degrades, contended.evicted
        ));
    }
    for (arm, out) in [("single", single), ("uncontended", uncontended)] {
        if out.degrades != 0 || out.evicted != 0 {
            failures.push(format!(
                "multi_job: {arm} arm must stay clean: degrades={} evicted={}",
                out.degrades, out.evicted
            ));
        }
    }
    Report {
        doc,
        host: Json::obj([("host_secs", Json::F64(host_secs))]),
        text,
        failures,
    }
}
