//! # e10-bench
//!
//! The experiment harness regenerating every table and figure of the
//! paper's evaluation (§IV). Each `fig*` binary reruns the paper's
//! parameter sweep — `cb_nodes ∈ {8,16,32,64}` × `cb_buffer_size ∈
//! {4,16,64} MB`, three cases (cache disabled / enabled / theoretical)
//! — on the simulated DEEP-ER testbed and prints the series the paper
//! plots.
//!
//! Set `E10_SCALE=quick` to run a reduced sweep (64 ranks, smaller
//! files) for smoke testing; the default regenerates the full
//! 512-rank, 32 GB-per-file experiments.
//!
//! Sweeps run their grid points on a host-side worker pool
//! ([`e10_simcore::pool`]): every point is an independent,
//! deterministic simulation, so `E10_JOBS=N` runs N of them on
//! separate OS threads while `E10_JOBS=1` forces the old sequential
//! path. Results are keyed by grid index, so the printed figures are
//! byte-identical regardless of the job count. Every binary also
//! accepts `--json` for a machine-readable rendition of its output.

pub mod json;
pub mod tables;

use std::rc::Rc;

pub use json::{json_mode, Json};

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

    /// Whether the run's global files can be verified (the theoretical
    /// case never syncs, so there is nothing to verify).
    pub fn verifiable(&self) -> bool {
        !matches!(self, Case::Theoretical)
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
    /// Read `E10_SCALE` (default full).
    pub fn from_env() -> Scale {
        match std::env::var("E10_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("test") => Scale::Test,
            _ => Scale::Full,
        }
    }

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
    pub fn files(&self) -> usize {
        match self {
            Scale::Test => 2,
            _ => 4,
        }
    }

    /// Compute delay between phases.
    pub fn compute_delay(&self) -> SimDuration {
        match self {
            Scale::Full => SimDuration::from_secs(30),
            Scale::Quick => SimDuration::from_secs(4),
            Scale::Test => SimDuration::from_secs(1),
        }
    }

    /// Any paper workload at this scale, via its [`WorkloadSpec`]
    /// constructors (full → `paper()`, quick → `quick(procs)`, test →
    /// `tiny_for(procs)`).
    pub fn workload<W: WorkloadSpec>(&self) -> W {
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

/// The paper's fixed hints: stripe size 4 MB, stripe count 4,
/// `ind_wr_buffer_size` 512 KB, collective writes forced.
pub fn paper_base_hints() -> Info {
    Info::from_pairs([
        ("romio_cb_write", "enable"),
        ("striping_unit", "4194304"),
        ("striping_factor", "4"),
        ("ind_wr_buffer_size", "512K"),
    ])
}

/// Hints for one `<aggregators>_<coll_bufsize>` combination and case.
pub fn hints_for(case: Case, aggregators: usize, cb_size: u64) -> Info {
    let info = paper_base_hints();
    info.set("cb_nodes", &aggregators.to_string());
    info.set("cb_buffer_size", &cb_size.to_string());
    match case {
        Case::Disabled => {}
        Case::Enabled => {
            info.set("e10_cache", "enable");
            info.set("e10_cache_flush_flag", "flush_immediate");
            info.set("e10_cache_discard_flag", "enable");
        }
        Case::Theoretical => {
            info.set("e10_cache", "enable");
            info.set("e10_cache_flush_flag", "flush_none");
            info.set("e10_cache_discard_flag", "enable");
        }
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
    pub combo: String,
    /// Aggregator count.
    pub aggregators: usize,
    /// Collective buffer size, bytes.
    pub cb_size: u64,
    /// Which case.
    pub case: Case,
    /// The full run outcome.
    pub outcome: RunOutcome,
}

/// Run one configuration of `workload` in a fresh simulated cluster.
///
/// `Send` because sweep points run as worker-pool jobs; the workload
/// itself is constructed *inside* the job's simulation, so the
/// `Rc`-based sim state never crosses a thread.
pub fn run_point<W, F>(
    scale: Scale,
    make_workload: F,
    case: Case,
    aggregators: usize,
    cb_size: u64,
    include_last_sync: bool,
) -> SweepPoint
where
    W: Workload + 'static,
    F: FnOnce() -> W + Send + 'static,
{
    let outcome = e10_simcore::run(async move {
        let workload = Rc::new(make_workload());
        let mut spec = TestbedSpec::deep_er();
        spec.procs = workload.procs();
        spec.nodes = scale.nodes();
        let tb = spec.build();
        let mut cfg = RunConfig::paper(
            hints_for(case, aggregators, cb_size),
            &format!("/gfs/{}", workload.name()),
        );
        cfg.files = scale.files();
        cfg.compute_delay = scale.compute_delay();
        cfg.include_last_sync = include_last_sync;
        cfg.verify = case.verifiable();
        run_workload(&tb, workload, &cfg).await
    });
    SweepPoint {
        combo: combo_label(aggregators, cb_size),
        aggregators,
        cb_size,
        case,
        outcome,
    }
}

/// Run the full `<aggregators>_<coll_bufsize>` sweep for one case on
/// the `E10_JOBS` worker pool.
pub fn run_sweep<W, F>(
    scale: Scale,
    make_workload: F,
    case: Case,
    include_last_sync: bool,
) -> Vec<SweepPoint>
where
    W: Workload + 'static,
    F: Fn() -> W + Copy + Send + Sync + 'static,
{
    run_sweep_on(
        e10_simcore::pool::worker_threads(),
        scale,
        make_workload,
        case,
        include_last_sync,
    )
}

/// [`run_sweep`] with an explicit worker count (`1` forces the
/// sequential path; tests use this to compare job counts without
/// touching the environment).
pub fn run_sweep_on<W, F>(
    jobs: usize,
    scale: Scale,
    make_workload: F,
    case: Case,
    include_last_sync: bool,
) -> Vec<SweepPoint>
where
    W: Workload + 'static,
    F: Fn() -> W + Copy + Send + Sync + 'static,
{
    run_grid(jobs, scale, make_workload, &[case], include_last_sync)
}

/// Run all three cases of a Fig. 4/7/9-style figure on the `E10_JOBS`
/// worker pool. Points come back in the sequential order (case, then
/// aggregators, then buffer size), so figures print byte-identically
/// at any job count.
pub fn run_full_sweep<W, F>(
    scale: Scale,
    make_workload: F,
    include_last_sync: bool,
) -> Vec<SweepPoint>
where
    W: Workload + 'static,
    F: Fn() -> W + Copy + Send + Sync + 'static,
{
    run_full_sweep_on(
        e10_simcore::pool::worker_threads(),
        scale,
        make_workload,
        include_last_sync,
    )
}

/// [`run_full_sweep`] with an explicit worker count.
pub fn run_full_sweep_on<W, F>(
    jobs: usize,
    scale: Scale,
    make_workload: F,
    include_last_sync: bool,
) -> Vec<SweepPoint>
where
    W: Workload + 'static,
    F: Fn() -> W + Copy + Send + Sync + 'static,
{
    run_grid(jobs, scale, make_workload, &Case::ALL, include_last_sync)
}

/// Shared sweep driver: one pool job per grid point, submitted in the
/// sequential iteration order. [`e10_simcore::pool::run_jobs_on`]
/// returns results keyed by submission index, which keeps the output
/// order — and therefore every printed byte — independent of how the
/// jobs interleave across threads.
fn run_grid<W, F>(
    jobs: usize,
    scale: Scale,
    make_workload: F,
    cases: &[Case],
    include_last_sync: bool,
) -> Vec<SweepPoint>
where
    W: Workload + 'static,
    F: Fn() -> W + Copy + Send + Sync + 'static,
{
    let mut grid: Vec<e10_simcore::Job<SweepPoint>> = Vec::new();
    for &case in cases {
        for aggs in scale.aggregators() {
            for cb in scale.cb_sizes() {
                grid.push(Box::new(move || {
                    eprintln!("  running {} {} ...", combo_label(aggs, cb), case.label());
                    run_point(scale, make_workload, case, aggs, cb, include_last_sync)
                }));
            }
        }
    }
    e10_simcore::pool::run_jobs_on(jobs, grid)
}

/// The breakdown phases the Fig. 5/6/8/10 figures report, in column
/// order.
pub fn breakdown_phases() -> [e10_romio::Phase; 6] {
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
/// column per case. Returns exactly the bytes the sequential harness
/// has always printed, so job-count determinism can be asserted on
/// the string.
pub fn format_bandwidth_figure(title: &str, points: &[SweepPoint]) -> String {
    use std::fmt::Write as _;
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
pub fn format_breakdown_figure(title: &str, points: &[SweepPoint]) -> String {
    use std::fmt::Write as _;
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

/// Print a Fig. 4/7/9-style bandwidth table.
pub fn print_bandwidth_figure(title: &str, points: &[SweepPoint]) {
    print!("{}", format_bandwidth_figure(title, points));
}

/// Print a Fig. 5/6/8/10-style breakdown table.
pub fn print_breakdown_figure(title: &str, points: &[SweepPoint]) {
    print!("{}", format_breakdown_figure(title, points));
}

impl SweepPoint {
    /// Machine-readable form of this point (used by `--json`).
    pub fn to_json(&self) -> Json {
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

/// Emit a bandwidth figure: JSON when `--json` was passed, the table
/// otherwise.
pub fn emit_bandwidth_figure(figure: &str, title: &str, points: &[SweepPoint]) {
    if json_mode() {
        println!("{}", figure_json(figure, title, points).render());
    } else {
        print_bandwidth_figure(title, points);
    }
}

/// Emit a breakdown figure: JSON when `--json` was passed, the table
/// otherwise.
pub fn emit_breakdown_figure(figure: &str, title: &str, points: &[SweepPoint]) {
    if json_mode() {
        println!("{}", figure_json(figure, title, points).render());
    } else {
        print_breakdown_figure(title, points);
    }
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
                    let info = paper_base_hints();
                    info.set("romio_cb_read", "enable");
                    info.set("cb_buffer_size", "16777216");
                    info.set("e10_cache", "enable");
                    info.set("cb_nodes", &aggs.to_string());
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

/// The cache-read extension's rows at `scale`: `(aggregators, global
/// read GB/s, cache-served read GB/s)` per aggregator count.
pub fn cache_read_rows(scale: Scale) -> Vec<(usize, f64, f64)> {
    scale
        .aggregators()
        .into_iter()
        .map(|aggs| {
            let global = cache_read_variant(scale, aggs, false);
            let cached = cache_read_variant(scale, aggs, true);
            (aggs, global, cached)
        })
        .collect()
}

/// The `--json` document of `ext_cache_read`: `{figure, scale, rows}`.
pub fn cache_read_json(scale: Scale, rows: &[(usize, f64, f64)]) -> Json {
    Json::obj([
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
    ])
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
        assert!(!Case::Theoretical.verifiable());
        assert!(Case::Enabled.verifiable());
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

    /// A miniature end-to-end sweep point (exercises the whole harness
    /// path in seconds).
    #[test]
    fn run_point_smoke() {
        let p = run_point(
            Scale::Quick,
            || CollPerf {
                grid: [2, 2, 2],
                side: 2,
                chunk: 4 << 10,
            },
            Case::Enabled,
            2,
            1 << 20,
            false,
        );
        assert!(p.outcome.bandwidth > 0.0);
        assert_eq!(p.outcome.phases.len(), 4);
    }
}
