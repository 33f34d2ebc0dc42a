//! Eq. 1, end to end: with the cache on, the close of file k waits for
//! the sync that the compute phase C(k+1) did not hide,
//! `max(0, T_s(k) − C(k+1))`, on top of the close's own cost.

use std::rc::Rc;

use e10_mpisim::Info;
use e10_romio::TestbedSpec;
use e10_simcore::SimDuration;
use e10_workloads::{run_workload, CollPerf, RunConfig, Workload};

/// The close wait of the first of two files, in seconds, for a
/// coll_perf run with compute delay `c` and the cache (flushing
/// immediately, the default) on or off.
fn close_wait(c: f64, cache: bool) -> f64 {
    e10_simcore::run(async move {
        let w = Rc::new(CollPerf {
            grid: [2, 2, 2],
            side: 4,
            chunk: 16 << 10,
        });
        let tb = TestbedSpec::small(w.procs(), 2).build();
        let hints = Info::from_pairs([("cb_nodes", "2"), ("striping_unit", "256K")]);
        if cache {
            hints.set("e10_cache", "enable");
        }
        let mut cfg = RunConfig::paper(hints, "/gfs/eq1");
        cfg.files = 2;
        cfg.compute_delay = SimDuration::from_secs_f64(c);
        run_workload(&tb, w as Rc<dyn Workload>, &cfg).await.phases[0].not_hidden
    })
}

/// The cached close waits `max(0, T_s − C)` beyond an uncached close
/// (the PFS close, 2 ms here, whatever C): the wait never rises as C
/// grows, falls by as much as C rises while sync is exposed, and that
/// exposed sync is 0 once C covers the wait at C = 0, all of `T_s`.
#[test]
fn the_close_waits_for_the_sync_the_compute_phase_did_not_hide() {
    let waits = |c| {
        let wait = close_wait(c, true);
        (wait, wait - close_wait(c, false))
    };
    let (mut c0, (mut wait0, mut exposed0)) = (0.0, waits(0.0));
    let t_s = exposed0;
    assert!(t_s > 0.01, "nothing to hide: {t_s} s");
    for c in [0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0].map(|f| f * t_s) {
        let (wait, exposed) = waits(c);
        assert!(
            wait <= wait0,
            "C {c0} → {c} s: the wait rose, {wait0} → {wait} s"
        );
        if c < t_s {
            let (rose, fell) = (c - c0, exposed0 - exposed);
            assert!(
                (fell - rose).abs() <= 0.01 * rose,
                "C rose by {rose} s, the wait fell by {fell} s"
            );
        } else {
            // C is `f * t_s` rounded to the clock's nanosecond.
            assert!(
                exposed < 2e-9,
                "C = {c} s ≥ T_s = {t_s} s, yet {exposed} s exposed"
            );
        }
        (c0, wait0, exposed0) = (c, wait, exposed);
    }
}
