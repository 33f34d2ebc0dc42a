//! Layer drivers: benchmark-owned micro-simulations that call one
//! layer's public API at the operation mix of the workloads and are
//! timed from outside.
//!
//! Every driver reports host nanoseconds per operation (minimum over
//! [`REPS`] repetitions), allocator calls per operation and calendar
//! events fired per operation. The operation counts are constants, so
//! the two counts repeat exactly from run to run.

mod localfs;
mod mpisim;
mod netsim;
mod pfs;
mod romio;
mod simcore;
mod storesim;

use std::cell::Cell;
use std::future::Future;
use std::time::Instant;

use e10_simcore::alloc_gauge;

use crate::spans;
use crate::workloads::Inputs;

/// Repetitions per driver; the minimum is reported.
pub const REPS: usize = 7;

thread_local! {
    /// [`REPS`], or 1 under `--smoke`.
    static REPS_NOW: Cell<usize> = const { Cell::new(REPS) };
}

/// One driver's cost per operation.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub ns: f64,
    pub allocs: f64,
    pub events: f64,
    /// Operations per repetition.
    pub ops: u64,
}

/// Host nanoseconds and allocator calls of the metered section.
#[derive(Debug, Clone, Copy)]
pub struct Metered {
    ns: u64,
    allocs: u64,
}

/// Meters exactly the operations, not the set-up around them.
pub struct Meter(Instant);

impl Meter {
    pub fn start() -> Meter {
        alloc_gauge::reset();
        alloc_gauge::enable();
        Meter(Instant::now())
    }

    pub fn stop(self) -> Metered {
        let ns = self.0.elapsed().as_nanos() as u64;
        alloc_gauge::disable();
        Metered {
            ns,
            allocs: alloc_gauge::allocs(),
        }
    }
}

/// A driver whose operations run inside a simulation. `body(ops)`
/// sets up, meters `ops` operations and returns the meter; `body(0)`
/// gives the events the set-up alone fires.
pub fn sim_cost<F, Fut>(name: &'static str, ops: u64, body: F) -> (&'static str, Cost)
where
    F: Fn(u64) -> Fut,
    Fut: Future<Output = Metered> + 'static,
{
    let _s = spans::enter(name, "drivers");
    let base_events = e10_simcore::run_with_stats(body(0)).1.events_fired;
    let mut best: Option<(Metered, u64)> = None;
    for _ in 0..REPS_NOW.get() {
        let (m, stats) = e10_simcore::run_with_stats(body(ops));
        if best.is_none_or(|(b, _)| m.ns < b.ns) {
            best = Some((m, stats.events_fired));
        }
    }
    let (m, events) = best.expect("REPS > 0");
    let per = |x: u64| x as f64 / ops as f64;
    (
        name,
        Cost {
            ns: per(m.ns),
            allocs: per(m.allocs),
            events: per(events - base_events),
            ops,
        },
    )
}

/// A driver that needs no simulation.
pub fn pure_cost(
    name: &'static str,
    ops: u64,
    mut body: impl FnMut(u64) -> Metered,
) -> (&'static str, Cost) {
    let _s = spans::enter(name, "drivers");
    let m = (0..REPS_NOW.get())
        .map(|_| body(ops))
        .min_by_key(|m| m.ns)
        .expect("REPS > 0");
    (
        name,
        Cost {
            ns: m.ns as f64 / ops as f64,
            allocs: m.allocs as f64 / ops as f64,
            events: 0.0,
            ops,
        },
    )
}

/// Run every layer driver. `inp` supplies the workload's own kernel
/// and hint set where a driver is defined on them; `smoke` takes one
/// repetition of each instead of [`REPS`].
pub fn run_all(inp: &Inputs, smoke: bool) -> Vec<(&'static str, Cost)> {
    REPS_NOW.set(if smoke { 1 } else { REPS });
    let mut out = Vec::new();
    out.extend(simcore::all());
    out.extend(netsim::all());
    out.extend(storesim::all());
    out.extend(localfs::all());
    out.extend(pfs::all());
    out.extend(mpisim::all());
    out.extend(romio::all(inp));
    out
}
