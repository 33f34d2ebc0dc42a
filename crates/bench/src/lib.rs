//! # e10-bench
//!
//! The experiment harness regenerating every table and figure of the
//! paper's evaluation (§IV). Each `fig*` binary reruns the paper's
//! parameter sweep — `cb_nodes ∈ {8,16,32,64}` × `cb_buffer_size ∈
//! {4,16,64} MB`, three cases (cache disabled / enabled / theoretical)
//! — on the simulated DEEP-ER testbed and prints the series the paper
//! plots.
//!
//! Every binary shares one command line, report and exit status
//! ([`Cli`], [`Report`], [`finish`]). `--smoke` runs at test scale (8 ranks), otherwise
//! `E10_SCALE=quick` a reduced sweep (64 ranks, smaller files) and
//! `E10_SCALE=test` the smallest; the figures default to the full
//! 512-rank, 32 GB-per-file experiments. `--json` prints the
//! machine-readable document, `--out PATH` writes it, and `--check
//! PATH` requires it to reproduce a committed one exactly. The gated
//! experiments — the ones whose report can fail — are [`GATES`].
//!
//! Sweeps run their grid points on a host-side worker pool
//! ([`e10_simcore::pool`]): every point is an independent,
//! deterministic simulation, so `E10_JOBS=N` runs N of them on
//! separate OS threads while `E10_JOBS=1` forces the old sequential
//! path. Results are keyed by grid index, so every document is
//! identical at any job count, bar its `"host"` object.

mod cli;
mod gates;
mod json;
pub mod tables;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::rc::Rc;

pub use cli::{finish, Cli, Report};
pub use gates::{gate_main, Gate, GATES};
pub use json::Json;

use e10_mpisim::Info;
use e10_romio::{read_at_all, write_at_all, AdioFile, DataSpec, TestbedSpec};
use e10_simcore::SimDuration;
use e10_workloads::{
    run_workload, CollPerf, FlashIo, Ior, RunConfig, RunOutcome, Workload, WorkloadSpec,
};

/// The three measurement cases of Fig. 4/7/9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// "BW Cache Disabled": collective writes straight to the global
    /// file system.
    Disabled,
    /// "BW Cache Enabled": writes to the node-local cache,
    /// asynchronously flushed (`flush_immediate`).
    Enabled,
    /// "TBW Cache Enabled": writes to the cache, never flushed — the
    /// theoretical upper bound when synchronisation is fully hidden.
    Theoretical,
}

impl Case {
    /// All cases, in the paper's legend order.
    pub const ALL: [Case; 3] = [Case::Disabled, Case::Enabled, Case::Theoretical];

    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            Case::Disabled => "BW Cache Disabled",
            Case::Enabled => "BW Cache Enabled",
            Case::Theoretical => "TBW Cache Enabled",
        }
    }
}

/// Experiment scale (full paper sweep or a quick smoke version).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 512 ranks, 64 nodes, 32 GB files, the paper's sweep.
    Full,
    /// 64 ranks, 8 nodes, small files — minutes instead of tens of
    /// minutes; shapes still hold.
    Quick,
    /// 8 ranks, 2 nodes, kilobyte files — seconds; for the test suite
    /// and the `--smoke` CI gates.
    Test,
}

impl Scale {
    /// Lowercase name (matches the `E10_SCALE` values).
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
            Scale::Test => "test",
        }
    }

    /// Ranks at this scale.
    pub fn procs(&self) -> usize {
        match self {
            Scale::Full => 512,
            Scale::Quick => 64,
            Scale::Test => 8,
        }
    }

    /// Compute nodes at this scale.
    pub fn nodes(&self) -> usize {
        match self {
            Scale::Full => 64,
            Scale::Quick => 8,
            Scale::Test => 2,
        }
    }

    /// Aggregator counts to sweep.
    pub fn aggregators(&self) -> Vec<usize> {
        match self {
            Scale::Full => vec![8, 16, 32, 64],
            Scale::Quick => vec![2, 4, 8],
            Scale::Test => vec![2, 4],
        }
    }

    /// Collective buffer sizes (bytes) to sweep.
    pub fn cb_sizes(&self) -> Vec<u64> {
        match self {
            Scale::Full => vec![4 << 20, 16 << 20, 64 << 20],
            Scale::Quick => vec![1 << 20, 4 << 20],
            Scale::Test => vec![8 << 10, 32 << 10],
        }
    }

    /// Files per run (the paper writes 4).
    fn files(&self) -> usize {
        match self {
            Scale::Test => 2,
            _ => 4,
        }
    }

    /// Compute delay between phases.
    fn compute_delay(&self) -> SimDuration {
        match self {
            Scale::Full => SimDuration::from_secs(30),
            Scale::Quick => SimDuration::from_secs(4),
            Scale::Test => SimDuration::from_secs(1),
        }
    }

    /// Any paper workload at this scale, via its [`WorkloadSpec`]
    /// constructors (full → `paper()`, quick → `quick(procs)`, test →
    /// `tiny_for(procs)`).
    fn workload<W: WorkloadSpec>(&self) -> W {
        match self {
            Scale::Full => W::paper(),
            Scale::Quick => W::quick(self.procs()),
            Scale::Test => W::tiny_for(self.procs()),
        }
    }

    /// The coll_perf workload at this scale.
    pub fn collperf(&self) -> CollPerf {
        self.workload()
    }

    /// The Flash-IO checkpoint workload at this scale.
    pub fn flashio(&self) -> FlashIo {
        self.workload()
    }

    /// The IOR workload at this scale.
    pub fn ior(&self) -> Ior {
        self.workload()
    }
}

/// Hints for one `<aggregators>_<coll_bufsize>` combination and case,
/// over the paper's fixed ones: stripe size 4 MB, stripe count 4,
/// `ind_wr_buffer_size` 512 KB, collective writes forced.
pub fn hints_for(case: Case, aggregators: usize, cb_size: u64) -> Info {
    let info = Info::from_pairs([
        ("romio_cb_write", "enable"),
        ("striping_unit", "4194304"),
        ("striping_factor", "4"),
        ("ind_wr_buffer_size", "512K"),
    ]);
    info.set("cb_nodes", &aggregators.to_string());
    info.set("cb_buffer_size", &cb_size.to_string());
    if case != Case::Disabled {
        let flush = match case {
            Case::Theoretical => "flush_none",
            _ => "flush_immediate",
        };
        info.set("e10_cache", "enable");
        info.set("e10_cache_flush_flag", flush);
        info.set("e10_cache_discard_flag", "enable");
    }
    info
}

/// The label the paper uses on its x axes (`K` below 1 MB, used only
/// by the reduced test scale).
pub fn combo_label(aggregators: usize, cb_size: u64) -> String {
    if cb_size >= 1 << 20 {
        format!("{aggregators}_{}M", cb_size >> 20)
    } else {
        format!("{aggregators}_{}K", cb_size >> 10)
    }
}

/// One measured configuration.
pub struct SweepPoint {
    /// `<aggregators>_<coll_bufsize>` label.
    combo: String,
    /// Aggregator count.
    aggregators: usize,
    /// Collective buffer size, bytes.
    cb_size: u64,
    /// Which case.
    case: Case,
    /// The full run outcome.
    outcome: RunOutcome,
}

/// What one [`simulate`] run measured.
pub struct Sim {
    /// The run's outcome.
    pub outcome: RunOutcome,
    /// Calendar events the run fired.
    pub events: u64,
    /// PFS stripe-lock grants that had to wait.
    pub contended_locks: u64,
}

/// Run `workload` once in a fresh simulated DEEP-ER cluster of
/// `scale.nodes()` nodes under `hints`: `scale.files()` files named
/// `<path>.<k>`, `scale.compute_delay()` apart, each byte-verified
/// unless the hints never flush (`flush_none`, the theoretical case).
/// `tune` adjusts the testbed and the run before either exists.
///
/// Call it on the thread that runs the simulation (a pool job builds
/// its workload and hints there too): the `Rc`-based sim state never
/// crosses a thread.
pub fn simulate<W: Workload + 'static>(
    scale: Scale,
    workload: W,
    hints: Info,
    path: &str,
    tune: impl FnOnce(&mut TestbedSpec, &mut RunConfig),
) -> Sim {
    let mut spec = TestbedSpec::deep_er();
    spec.procs = workload.procs();
    spec.nodes = scale.nodes();
    let mut verify = true;
    hints.for_each(|k, v| verify &= (k, v) != ("e10_cache_flush_flag", "flush_none"));
    let mut cfg = RunConfig::paper(hints, path);
    cfg.files = scale.files();
    cfg.compute_delay = scale.compute_delay();
    cfg.verify = verify;
    tune(&mut spec, &mut cfg);
    let ((outcome, contended_locks), stats) = e10_simcore::run_with_stats(async move {
        let tb = spec.build();
        let outcome = run_workload(&tb, Rc::new(workload), &cfg).await;
        (outcome, tb.pfs.lock_contention().1)
    });
    Sim {
        outcome,
        events: stats.events_fired,
        contended_locks,
    }
}

/// Run the `<aggregators>_<coll_bufsize>` grid of `workload` for each
/// of `cases` on `jobs` workers, one pool job per point, submitted in
/// the sequential order (case, then aggregators, then buffer size).
/// [`e10_simcore::pool::run_jobs_on`] returns results keyed by
/// submission index, so the points — and every printed byte — do not
/// depend on how the jobs interleave across threads.
pub fn run_grid<W: Workload + 'static>(
    jobs: usize,
    scale: Scale,
    workload: fn(&Scale) -> W,
    cases: &[Case],
    include_last_sync: bool,
) -> Vec<SweepPoint> {
    let mut grid: Vec<e10_simcore::Job<SweepPoint>> = Vec::new();
    for &case in cases {
        for aggregators in scale.aggregators() {
            for cb_size in scale.cb_sizes() {
                grid.push(Box::new(move || {
                    let combo = combo_label(aggregators, cb_size);
                    eprintln!("  running {combo} {} ...", case.label());
                    let w = workload(&scale);
                    let path = format!("/gfs/{}", w.name());
                    let hints = hints_for(case, aggregators, cb_size);
                    let outcome = simulate(scale, w, hints, &path, |_, cfg| {
                        cfg.include_last_sync = include_last_sync;
                    })
                    .outcome;
                    SweepPoint {
                        combo,
                        aggregators,
                        cb_size,
                        case,
                        outcome,
                    }
                }));
            }
        }
    }
    e10_simcore::pool::run_jobs_on(jobs, grid)
}

/// The breakdown phases the Fig. 5/6/8/10 figures report, in column
/// order.
fn breakdown_phases() -> [e10_romio::Phase; 6] {
    use e10_romio::Phase;
    [
        Phase::ShuffleAlltoall,
        Phase::ShuffleWaitall,
        Phase::CollBufAssembly,
        Phase::Write,
        Phase::PostWrite,
        Phase::NotHiddenSync,
    ]
}

/// Format a Fig. 4/7/9-style bandwidth table: one row per combo, one
/// column per case.
fn format_bandwidth_figure(title: &str, points: &[SweepPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n{title}");
    let _ = writeln!(out, "{}", "=".repeat(title.len()));
    let _ = write!(out, "{:<10}", "combo");
    for case in Case::ALL {
        let _ = write!(out, " {:>20}", case.label());
    }
    let _ = writeln!(out, "   [GB/s, Eq. 2]");
    let mut combos: Vec<String> = Vec::new();
    for p in points {
        if !combos.contains(&p.combo) {
            combos.push(p.combo.clone());
        }
    }
    for combo in combos {
        let _ = write!(out, "{combo:<10}");
        for case in Case::ALL {
            let gb = points
                .iter()
                .find(|p| p.combo == combo && p.case == case)
                .map(|p| p.outcome.gb_s());
            match gb {
                Some(v) => {
                    let _ = write!(out, " {v:>19.2}");
                }
                None => {
                    let _ = write!(out, " {:>20}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Format a Fig. 5/6/8/10-style breakdown: per combo, the aggregator-
/// rank mean seconds in every collective-write phase.
fn format_breakdown_figure(title: &str, points: &[SweepPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n{title}");
    let _ = writeln!(out, "{}", "=".repeat(title.len()));
    let _ = write!(out, "{:<10}", "combo");
    for ph in breakdown_phases() {
        let _ = write!(out, " {:>16}", ph.label());
    }
    let _ = writeln!(out, "   [aggregator-mean seconds]");
    for p in points {
        let _ = write!(out, "{:<10}", p.combo);
        for ph in breakdown_phases() {
            let _ = write!(out, " {:>16.3}", p.outcome.breakdown_aggs.mean(ph));
        }
        let _ = writeln!(out);
    }
    out
}

impl SweepPoint {
    /// Machine-readable form of this point (used by `--json`).
    fn to_json(&self) -> Json {
        Json::obj([
            ("combo", Json::str(&self.combo)),
            ("aggregators", Json::U64(self.aggregators as u64)),
            ("cb_size", Json::U64(self.cb_size)),
            ("case", Json::str(self.case.label())),
            ("gb_s", Json::F64(self.outcome.gb_s())),
            ("sim_wall_secs", Json::F64(self.outcome.wall_time)),
            ("total_bytes", Json::U64(self.outcome.total_bytes)),
            (
                "breakdown_aggs_mean_secs",
                Json::obj(
                    breakdown_phases()
                        .iter()
                        .map(|ph| (ph.label(), Json::F64(self.outcome.breakdown_aggs.mean(*ph)))),
                ),
            ),
        ])
    }
}

/// The `--json` document for a figure: `{figure, title, points}`.
pub fn figure_json(figure: &str, title: &str, points: &[SweepPoint]) -> Json {
    Json::obj([
        ("figure", Json::str(figure)),
        ("title", Json::str(title)),
        ("points", Json::arr(points.iter().map(SweepPoint::to_json))),
    ])
}

/// The whole `main` of a Fig. 4–10 binary: run the figure's grid over
/// `cases` at the command line's scale (default full) on `E10_JOBS`
/// workers, and emit it — as a bandwidth table with a column per case
/// (Fig. 4/7/9), or as one case's phase breakdown (Fig. 5/6/8/10).
pub fn figure_main<W: Workload + 'static>(
    figure: &str,
    title: &str,
    workload: fn(&Scale) -> W,
    cases: &[Case],
    include_last_sync: bool,
) -> ExitCode {
    let cli = Cli::parse();
    let scale = cli.scale(Scale::Full);
    let jobs = e10_simcore::pool::worker_threads();
    let points = run_grid(jobs, scale, workload, cases, include_last_sync);
    let text = match cases {
        [_] => format_breakdown_figure(title, &points),
        _ => format_bandwidth_figure(title, &points),
    };
    finish(Report::new(figure_json(figure, title, &points), text), &cli)
}

/// One run of the cache-read extension (`--bin ext_cache_read`): a
/// coll_perf-shaped checkpoint is written through the E10 cache with
/// `aggs` aggregators and synchronised, then read back collectively —
/// from the global file system, or with `cache_read` from the
/// aggregators' caches. Returns the read bandwidth in GB/s.
fn cache_read_variant(scale: Scale, aggs: usize, cache_read: bool) -> f64 {
    e10_simcore::run(async move {
        let w = Rc::new(scale.collperf());
        let mut spec = TestbedSpec::deep_er();
        spec.procs = w.procs();
        spec.nodes = scale.nodes();
        let tb = spec.build();
        let total = w.file_size();
        let handles: Vec<_> = tb
            .ctxs()
            .into_iter()
            .map(|ctx| {
                let w = Rc::clone(&w);
                e10_simcore::spawn(async move {
                    let info = hints_for(Case::Disabled, aggs, 16 << 20);
                    info.set("romio_cb_read", "enable");
                    info.set("e10_cache", "enable");
                    if cache_read {
                        info.set("e10_cache_read", "enable");
                    }
                    let f = AdioFile::open(&ctx, "/gfs/extread", &info, true)
                        .await
                        .unwrap();
                    let views = w.writes(ctx.comm.rank());
                    for v in &views {
                        write_at_all(&f, v, &DataSpec::FileGen { seed: 71 }).await;
                    }
                    // Make the global copy consistent, keep the cache.
                    f.file_sync().await;
                    ctx.comm.barrier().await;
                    let t0 = e10_simcore::now();
                    let mut hits = 0;
                    for v in &views {
                        let r = read_at_all(&f, v).await;
                        hits += r.cache_hits;
                    }
                    let dt = e10_simcore::now().since(t0).as_secs_f64();
                    f.close().await;
                    (dt, hits)
                })
            })
            .collect();
        let outs = e10_simcore::join_all(handles).await;
        let dt = outs[0].0;
        let hits: u64 = outs.iter().map(|(_, h)| h).sum();
        assert_eq!(hits > 0, cache_read, "only the extension hits the caches");
        total as f64 / dt / 1e9
    })
}

/// The cache-read extension at `scale`: per aggregator count, the
/// global and the cache-served read bandwidth; the document is
/// `{figure, scale, rows}`.
pub fn cache_read_report(scale: Scale) -> Report {
    let rows: Vec<(usize, f64, f64)> = scale
        .aggregators()
        .into_iter()
        .map(|aggs| {
            let global = cache_read_variant(scale, aggs, false);
            let cached = cache_read_variant(scale, aggs, true);
            (aggs, global, cached)
        })
        .collect();
    let doc = Json::obj([
        ("figure", Json::str("ext_cache_read")),
        ("scale", Json::str(scale.name())),
        (
            "rows",
            Json::arr(rows.iter().map(|&(aggs, global, cached)| {
                Json::obj([
                    ("aggregators", Json::U64(aggs as u64)),
                    ("global_read_gb_s", Json::F64(global)),
                    ("cache_served_read_gb_s", Json::F64(cached)),
                ])
            })),
        ),
    ]);
    let mut text = "Cache-read extension: collective re-read of a cached checkpoint\n".to_string();
    let _ = writeln!(
        text,
        "{:<8} {:>22} {:>24}",
        "aggs", "global read [GB/s]", "cache-served read [GB/s]"
    );
    for (aggs, global, cached) in rows {
        let _ = writeln!(text, "{:<8} {:>22.2} {:>24.2}", aggs, global, cached);
    }
    Report::new(doc, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hints_for_cases_differ_only_in_cache_keys() {
        let d = hints_for(Case::Disabled, 8, 4 << 20);
        let e = hints_for(Case::Enabled, 8, 4 << 20);
        let t = hints_for(Case::Theoretical, 8, 4 << 20);
        assert_eq!(d.get("cb_nodes").as_deref(), Some("8"));
        assert!(d.get("e10_cache").is_none());
        assert_eq!(e.get("e10_cache").as_deref(), Some("enable"));
        assert_eq!(
            e.get("e10_cache_flush_flag").as_deref(),
            Some("flush_immediate")
        );
        assert_eq!(t.get("e10_cache_flush_flag").as_deref(), Some("flush_none"));
    }

    #[test]
    fn combo_labels_match_paper_format() {
        assert_eq!(combo_label(8, 4 << 20), "8_4M");
        assert_eq!(combo_label(64, 64 << 20), "64_64M");
        assert_eq!(combo_label(2, 8 << 10), "2_8K");
    }

    #[test]
    fn reduced_scales_are_consistent() {
        for s in [Scale::Quick, Scale::Test] {
            assert_eq!(s.collperf().procs(), s.procs());
            assert_eq!(s.flashio().procs(), s.procs());
            assert_eq!(s.ior().procs(), s.procs());
            assert!(s.aggregators().iter().all(|&a| a <= s.procs()));
        }
    }

    #[test]
    fn full_scale_matches_paper() {
        let s = Scale::Full;
        assert_eq!(s.procs(), 512);
        assert_eq!(s.nodes(), 64);
        assert_eq!(s.aggregators(), vec![8, 16, 32, 64]);
        assert_eq!(s.cb_sizes(), vec![4 << 20, 16 << 20, 64 << 20]);
        assert_eq!(s.files(), 4);
        assert_eq!(s.collperf().file_size(), 32 << 30);
        assert_eq!(s.ior().file_size(), 32 << 30);
    }

    /// A miniature end-to-end run of each case (exercises the whole
    /// harness path in seconds; the theoretical case runs unverified).
    #[test]
    fn simulate_smoke() {
        for case in Case::ALL {
            let w = CollPerf {
                grid: [2, 2, 2],
                side: 2,
                chunk: 4 << 10,
            };
            let sim = simulate(
                Scale::Quick,
                w,
                hints_for(case, 2, 1 << 20),
                "/gfs/s",
                |_, _| {},
            );
            assert!(sim.outcome.bandwidth > 0.0);
            assert_eq!(sim.outcome.phases.len(), 4);
            assert!(sim.events > 0);
        }
    }
}
