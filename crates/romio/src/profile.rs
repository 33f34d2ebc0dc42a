//! MPE-style profiling of the collective write path.
//!
//! The paper instruments ROMIO with MPE and reports, for every
//! configuration, the time spent in each stage of Fig. 2 (plus the
//! non-hidden cache synchronisation of Eq. 1). [`Phase`] enumerates
//! those stages; [`Profiler`] accumulates per-rank wall time per stage;
//! [`Breakdown`] merges ranks for the Fig. 5/6/8/10 stacked bars.

use std::cell::Cell;
use std::collections::BTreeMap;

use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_simcore::{now, SimDuration, SimTime};

/// The cost categories of the collective write path (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Collective open (global + cache file).
    OpenColl,
    /// Start/end offset exchange (`MPI_Allgather` in
    /// `ADIOI_Calc_file_domains` preamble).
    OffsetExchange,
    /// File-domain and aggregator-mapping computation.
    FdCalc,
    /// The intra-node request-aggregation pre-phase of
    /// `e10_two_phase = node_agg`: gathering the node's piece lists to
    /// the node leader (and staging them into the node-local cache).
    NodeAggGather,
    /// The per-round size dissemination `MPI_Alltoall`
    /// ("shuffle_all2all" in the paper's figures).
    ShuffleAlltoall,
    /// Posting/waiting the point-to-point data exchange
    /// (`MPI_Waitall`).
    ShuffleWaitall,
    /// Packing received pieces into the collective buffer.
    CollBufAssembly,
    /// `ADIO_WriteContig` — to the global file system or the cache.
    Write,
    /// The final error-code `MPI_Allreduce` ("post_write"): the global
    /// synchronisation bottlenecked by the slowest writer.
    PostWrite,
    /// Cache synchronisation not hidden by computation
    /// (`max(0, T_s - C)` of Eq. 1).
    NotHiddenSync,
    /// Waiting in flush/close for outstanding sync requests.
    FlushWait,
    /// Close-path metadata work.
    Close,
}

impl Phase {
    /// All phases in display order.
    pub const ALL: [Phase; 12] = [
        Phase::OpenColl,
        Phase::OffsetExchange,
        Phase::FdCalc,
        Phase::NodeAggGather,
        Phase::ShuffleAlltoall,
        Phase::ShuffleWaitall,
        Phase::CollBufAssembly,
        Phase::Write,
        Phase::PostWrite,
        Phase::NotHiddenSync,
        Phase::FlushWait,
        Phase::Close,
    ];

    /// The label used in the paper's figures where one exists.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::OpenColl => "open",
            Phase::OffsetExchange => "offset_exch",
            Phase::FdCalc => "fd_calc",
            Phase::NodeAggGather => "node_agg_gather",
            Phase::ShuffleAlltoall => "shuffle_all2all",
            Phase::ShuffleWaitall => "shuffle_waitall",
            Phase::CollBufAssembly => "buf_assembly",
            Phase::Write => "write",
            Phase::PostWrite => "post_write",
            Phase::NotHiddenSync => "not_hidden_sync",
            Phase::FlushWait => "flush_wait",
            Phase::Close => "close",
        }
    }
}

/// Per-rank accumulated time per phase, indexed by `phase as usize`.
/// A value: every handle on an open file charges the one its state
/// holds, through a borrow; a clone is a snapshot.
#[derive(Clone, Default)]
pub struct Profiler {
    acc: [Cell<SimDuration>; Phase::ALL.len()],
}

/// RAII timer: charges the elapsed virtual time to a phase on drop.
pub struct PhaseTimer<'a> {
    profiler: &'a Profiler,
    phase: Phase,
    start: SimTime,
}

impl Profiler {
    /// New, empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start timing `phase`; the returned guard charges on drop. The
    /// phase also becomes a `Begin`/`End` span on the ambient trace
    /// sink, so MPE-style breakdowns and traces share one taxonomy.
    pub fn enter(&self, phase: Phase) -> PhaseTimer<'_> {
        trace::emit(|| Event::new(Layer::Romio, phase.label(), EventKind::Begin));
        PhaseTimer {
            profiler: self,
            phase,
            start: now(),
        }
    }

    /// Charge an explicit duration to a phase.
    pub fn add(&self, phase: Phase, d: SimDuration) {
        let acc = &self.acc[phase as usize];
        acc.set(acc.get() + d);
    }

    /// Accumulated time in a phase.
    pub fn get(&self, phase: Phase) -> SimDuration {
        self.acc[phase as usize].get()
    }

    /// Total across all phases.
    pub fn total(&self) -> SimDuration {
        self.acc.iter().fold(SimDuration::ZERO, |a, b| a + b.get())
    }

    /// Reset all counters.
    pub fn reset(&self) {
        self.acc.iter().for_each(|a| a.set(SimDuration::ZERO));
    }

    /// Remove and return a phase's accumulated time.
    pub fn take(&self, phase: Phase) -> SimDuration {
        self.acc[phase as usize].take()
    }

    /// Add all of `other`'s counters into this profiler.
    pub fn merge_from(&self, other: &Profiler) {
        for ph in Phase::ALL {
            self.add(ph, other.get(ph));
        }
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        // Tolerate being dropped outside the simulation (e.g. during
        // unwinding after a test failure) without a double panic.
        if let Some(t) = e10_simcore::executor::try_now() {
            let elapsed = t.since(self.start);
            trace::emit(|| {
                Event::new(Layer::Romio, self.phase.label(), EventKind::End)
                    .field("elapsed_s", elapsed.as_secs_f64())
            });
            self.profiler.add(self.phase, elapsed);
        }
    }
}

/// Per-phase statistics merged over ranks.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    per_phase: BTreeMap<Phase, e10_simcore::Tally>,
    ranks: usize,
}

impl Breakdown {
    /// Merge per-rank profilers (one entry per rank; ranks missing a
    /// phase contribute 0 so means are comparable across phases).
    pub fn from_profilers(profs: &[Profiler]) -> Breakdown {
        let mut per_phase: BTreeMap<Phase, e10_simcore::Tally> = BTreeMap::new();
        for p in profs {
            for ph in Phase::ALL {
                let tally = per_phase.entry(ph).or_default();
                tally.push(p.get(ph).as_secs_f64());
            }
        }
        Breakdown {
            per_phase,
            ranks: profs.len(),
        }
    }

    /// Mean seconds per rank for a phase.
    pub fn mean(&self, phase: Phase) -> f64 {
        self.per_phase.get(&phase).map(|t| t.mean()).unwrap_or(0.0)
    }

    /// Max seconds over ranks for a phase.
    pub fn max(&self, phase: Phase) -> f64 {
        let m = self.per_phase.get(&phase).map(|t| t.max()).unwrap_or(0.0);
        if m.is_finite() {
            m.max(0.0)
        } else {
            0.0
        }
    }

    /// Number of ranks merged.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Render an aligned text table of `(phase, mean, max)` rows —
    /// what the breakdown figure bins print.
    pub fn table(&self) -> String {
        let mut out = format!("{:<16} {:>12} {:>12}\n", "phase", "mean [s]", "max [s]");
        for ph in Phase::ALL {
            let mean = self.mean(ph);
            let max = self.max(ph);
            if mean > 0.0 || max > 0.0 {
                out.push_str(&format!(
                    "{:<16} {:>12.4} {:>12.4}\n",
                    ph.label(),
                    mean,
                    max
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e10_simcore::{run, sleep};

    #[test]
    fn timer_charges_elapsed_virtual_time() {
        run(async {
            let p = Profiler::new();
            {
                let _t = p.enter(Phase::Write);
                sleep(SimDuration::from_secs(2)).await;
            }
            {
                let _t = p.enter(Phase::Write);
                sleep(SimDuration::from_secs(1)).await;
            }
            assert_eq!(p.get(Phase::Write).as_secs_f64(), 3.0);
            assert_eq!(p.get(Phase::PostWrite), SimDuration::ZERO);
            assert_eq!(p.total().as_secs_f64(), 3.0);
        });
    }

    #[test]
    fn explicit_add_and_reset() {
        run(async {
            let p = Profiler::new();
            p.add(Phase::NotHiddenSync, SimDuration::from_secs(5));
            assert_eq!(p.get(Phase::NotHiddenSync).as_secs_f64(), 5.0);
            p.reset();
            assert_eq!(p.total(), SimDuration::ZERO);
        });
    }

    #[test]
    fn breakdown_merges_ranks() {
        run(async {
            let profs: Vec<Profiler> = (0..4)
                .map(|i| {
                    let p = Profiler::new();
                    p.add(Phase::Write, SimDuration::from_secs(i));
                    p
                })
                .collect();
            let b = Breakdown::from_profilers(&profs);
            assert_eq!(b.ranks(), 4);
            assert_eq!(b.mean(Phase::Write), 1.5);
            assert_eq!(b.max(Phase::Write), 3.0);
            assert_eq!(b.mean(Phase::PostWrite), 0.0);
            let table = b.table();
            assert!(table.contains("write"));
            assert!(!table.contains("post_write"));
        });
    }

    #[test]
    fn phases_index_the_profiler_in_display_order() {
        for (i, ph) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(ph as usize, i, "{ph:?}");
        }
    }

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(Phase::ShuffleAlltoall.label(), "shuffle_all2all");
        assert_eq!(Phase::PostWrite.label(), "post_write");
        assert_eq!(Phase::NotHiddenSync.label(), "not_hidden_sync");
    }
}
