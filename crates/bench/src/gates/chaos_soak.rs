//! Chaos soak: randomized seeded corruption schedules, each run judged
//! by the acked-byte oracle. The gold invariant — every acknowledged
//! byte reads back as the generator's, or a typed error reached at
//! least one rank — must hold for every seed; a `diverged` verdict
//! means silent corruption escaped the integrity pipeline and fails the
//! whole soak. Not part of the figure set — this is the integrity gate
//! behind `scripts/ci.sh`.
//!
//! `--seeds N` seeds from `--base N` (default 24 from 1, 8 at test
//! scale). Each seed is an independent simulation built inside its pool
//! job, so every seed is bit-reproducible regardless of worker count. On divergence the
//! harness shrinks the schedule to a minimal reproducing set and
//! reports it.

use std::fmt::Write as _;

use e10_romio::CacheClass;
use e10_simcore::pool::run_jobs_on;
use e10_simcore::Job;
use e10_workloads::{chaos_case, ChaosCase, ChaosReport, ChaosVerdict};

use super::mode;
use crate::{Cli, Json, Report, Scale};

/// Each seed soaks one cache class, cycling through all three so every
/// staging tier (SSD extents, byte-granular NVM front, hybrid split)
/// gets arms at any seed count.
const CLASSES: [CacheClass; 3] = [CacheClass::Ssd, CacheClass::Nvm, CacheClass::Hybrid];

pub(super) fn run(scale: Scale, jobs: usize, cli: &Cli) -> Report {
    let seeds = cli
        .seeds
        .unwrap_or(if scale == Scale::Test { 8 } else { 24 });
    let base = cli.base.unwrap_or(1);
    let host0 = std::time::Instant::now();
    let grid: Vec<Job<(CacheClass, ChaosReport)>> = (0..seeds)
        .map(|i| {
            let class = CLASSES[(i % 3) as usize];
            Box::new(move || (class, chaos_case(&ChaosCase::with_class(base + i, class))))
                as Job<(CacheClass, ChaosReport)>
        })
        .collect();
    let reports = run_jobs_on(jobs, grid);
    let host_secs = host0.elapsed().as_secs_f64();

    let count = |v: ChaosVerdict| reports.iter().filter(|(_, r)| r.verdict == v).count() as u64;
    let (clean, detected, diverged) = (
        count(ChaosVerdict::Clean),
        count(ChaosVerdict::Detected),
        count(ChaosVerdict::Diverged),
    );
    let injected: u64 = reports.iter().map(|(_, r)| r.injected).sum();

    let doc = Json::obj([
        ("figure", Json::str("chaos_soak")),
        ("mode", Json::str(mode(scale))),
        ("seeds", Json::U64(seeds)),
        ("base", Json::U64(base)),
        ("clean", Json::U64(clean)),
        ("detected", Json::U64(detected)),
        ("diverged", Json::U64(diverged)),
        ("injected", Json::U64(injected)),
        (
            "rows",
            Json::arr(reports.iter().map(|(class, r)| {
                Json::obj([
                    ("seed", Json::U64(r.seed)),
                    ("workload", Json::str(r.workload)),
                    ("cache_class", Json::str(class.as_str())),
                    ("verdict", Json::str(r.verdict.name())),
                    ("plan_specs", Json::U64(r.plan_specs as u64)),
                    ("injected", Json::U64(r.injected)),
                    ("rank_errors", Json::U64(r.rank_errors.len() as u64)),
                    (
                        "minimal",
                        r.minimal
                            .as_ref()
                            .map_or(Json::Null, |m| Json::arr(m.iter().map(Json::str))),
                    ),
                ])
            })),
        ),
    ]);
    let mut text = format!(
        "# chaos_soak mode={} seeds={seeds} base={base}\n",
        mode(scale)
    );
    for (class, r) in &reports {
        let errs = r
            .rank_errors
            .first()
            .map_or(String::new(), |(rank, msg)| format!(" rank{rank}: {msg}"));
        let min = r
            .minimal
            .as_ref()
            .map_or(String::new(), |m| format!(" minimal=[{}]", m.join(",")));
        let _ = writeln!(
            text,
            "seed={:>4} {:>8} {:>6} {:>9} specs={} injected={:>4}{errs}{min}",
            r.seed,
            r.workload,
            class.as_str(),
            r.verdict.name(),
            r.plan_specs,
            r.injected,
        );
    }
    let _ = writeln!(
        text,
        "clean={clean} detected={detected} diverged={diverged} injected={injected} \
         host_secs={host_secs:.1}"
    );
    let mut failures = Vec::new();
    if diverged > 0 {
        failures.push(format!(
            "chaos_soak: {diverged} seed(s) DIVERGED — silent corruption escaped"
        ));
    }
    Report {
        doc,
        host: Json::obj([("host_secs", Json::F64(host_secs))]),
        text,
        failures,
    }
}
