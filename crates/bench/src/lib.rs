//! # e10-bench
//!
//! The experiment harness regenerating every table and figure of the
//! paper's evaluation (§IV), and every gate and study beyond it. Each
//! experiment is a row of [`GATES`], and the crate's one binary runs
//! the row its first argument names: `e10-bench collperf` runs the
//! coll_perf parameter sweep — `cb_nodes ∈ {8,16,32,64}` ×
//! `cb_buffer_size ∈ {4,16,64} MB`, three cases (cache disabled /
//! enabled / theoretical) — on the simulated DEEP-ER testbed once, and
//! prints from it Fig. 4 and the breakdowns of Figs. 5 and 6.
//!
//! Every row shares one command line, report and exit status ([`Cli`],
//! [`Report`], [`finish`]). `--smoke` runs at test scale (8 ranks),
//! otherwise `E10_SCALE=quick` a reduced sweep (64 ranks, smaller
//! files) and `E10_SCALE=test` the smallest; the figures default to the
//! full 512-rank, 32 GB-per-file experiments. `--json` prints the
//! machine-readable document, `--out PATH` writes it, and `--check
//! PATH` requires it to reproduce a committed one exactly.
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
use std::rc::Rc;

pub use cli::{finish, Cli, Report};
pub use gates::{Gate, GATES};
pub use json::Json;

use e10_mpisim::Info;
use e10_romio::TestbedSpec;
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

/// The label the paper uses on its x axes.
pub fn combo_label(aggregators: usize, cb_size: u64) -> String {
    format!("{aggregators}_{}", size_label(cb_size))
}

/// A size as the axes write it: `M` from 1 MB, `K` from 1 KB (only the
/// reduced scales go below 1 MB), bytes below that.
fn size_label(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 20 => format!("{}M", b >> 20),
        b if b >= 1 << 10 => format!("{}K", b >> 10),
        b => format!("{b}B"),
    }
}

/// One measured configuration.
struct SweepPoint {
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

/// Run the `<aggregators>_<coll_bufsize>` grid of `workload` for every
/// [`Case`] on `jobs` workers, one pool job per point, submitted in
/// the sequential order (case, then aggregators, then buffer size).
/// [`e10_simcore::pool::run_jobs_on`] returns results keyed by
/// submission index, so the points — and every printed byte — do not
/// depend on how the jobs interleave across threads.
fn run_grid<W: Workload + 'static>(
    jobs: usize,
    scale: Scale,
    workload: fn(&Scale) -> W,
    include_last_sync: bool,
) -> Vec<SweepPoint> {
    let mut grid: Vec<e10_simcore::Job<SweepPoint>> = Vec::new();
    for case in Case::ALL {
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
    // `run_grid`'s points are case-major, each case over the same combos.
    let rows = points.len() / Case::ALL.len();
    for (i, p) in points[..rows].iter().enumerate() {
        let _ = write!(out, "{:<10}", p.combo);
        for case_points in points.chunks(rows) {
            let _ = write!(out, " {:>19.2}", case_points[i].outcome.gb_s());
        }
        let _ = writeln!(out);
    }
    out
}

/// Format a Fig. 5/6/8/10-style breakdown of `case`: per combo, the
/// aggregator-rank mean seconds in every collective-write phase.
fn format_breakdown_figure(title: &str, case: Case, points: &[SweepPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n{title}");
    let _ = writeln!(out, "{}", "=".repeat(title.len()));
    let _ = write!(out, "{:<10}", "combo");
    for ph in breakdown_phases() {
        let _ = write!(out, " {:>16}", ph.label());
    }
    let _ = writeln!(out, "   [aggregator-mean seconds]");
    for p in points.iter().filter(|p| p.case == case) {
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

/// The report of one kernel's grid (Figs. 4–10): the bandwidth figure
/// `(id, title)` with a column per case, then the breakdown of each
/// listed case, in order, all from the same `points`. The document is
/// the bandwidth figure's, `{figure, title, points}`: it holds every
/// point's breakdown too.
fn figures(
    points: &[SweepPoint],
    (figure, title): (&str, &str),
    breakdowns: &[(Case, &str)],
) -> Report {
    let mut text = format_bandwidth_figure(title, points);
    for &(case, title) in breakdowns {
        text += &format_breakdown_figure(title, case, points);
    }
    let doc = Json::obj([
        ("figure", Json::str(figure)),
        ("title", Json::str(title)),
        ("points", Json::arr(points.iter().map(SweepPoint::to_json))),
    ]);
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
