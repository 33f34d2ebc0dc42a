//! Exact pins of both callers of the one node-crash executor,
//! `crash::execute`: `run_crash_recovery` on the SSD, NVM and hybrid
//! cache classes plus the journal-less loss case, and the chaos soak's
//! crash-bearing and crash-free cases. A refactor of the crash harness
//! must leave every value below bit-identical.

use std::rc::Rc;

use e10_mpisim::Info;
use e10_romio::{CacheClass, TestbedSpec};
use e10_workloads::{chaos_case, run_crash_recovery, ChaosCase, CollPerf, CrashConfig, Workload};

fn crash_hints(journal: bool, class: &str) -> Info {
    let h = Info::from_pairs([
        ("cb_buffer_size", "4096"),
        ("striping_unit", "8192"),
        ("e10_cache", "enable"),
        ("e10_cache_flush_flag", "flush_onclose"),
        ("e10_cache_class", class),
    ]);
    if journal {
        h.set("e10_cache_journal", "enable");
    }
    if class == "hybrid" {
        h.set("e10_nvm_capacity", "8K");
    }
    h
}

fn crash_line(journal: bool, class: &'static str, seed: u64) -> String {
    e10_simcore::run(async move {
        let w = Rc::new(CollPerf::tiny([2, 2, 2]));
        let tb = TestbedSpec::small(w.procs(), 2).build();
        let path = format!("/gfs/pin_{class}_{seed}");
        let cfg = CrashConfig::after_writes(crash_hints(journal, class), &path, seed, 1);
        let out = run_crash_recovery(&tb, w as Rc<dyn Workload>, &cfg)
            .await
            .unwrap();
        let (_, crash_time) = out.cuts[0];
        let survived = |rank: usize| out.cuts.iter().all(|c| c.0 != tb.world.comms[rank].node());
        let written: u64 = out
            .acked
            .iter()
            .filter(|a| survived(a.0))
            .map(|a| a.3)
            .sum();
        format!(
            "crash {class} journal={journal}: crash_ns={} killed={} written={} requeued={} \
             lost={} recovery_bits={:#x} verified={}",
            crash_time.as_nanos(),
            out.killed_tasks,
            written,
            out.requeued_bytes(),
            out.lost_bytes(),
            out.recovery_secs.to_bits(),
            out.verified().is_ok(),
        )
    })
}

fn chaos_line(case: ChaosCase) -> String {
    let r = chaos_case(&case);
    format!(
        "chaos {:?} seed {}: {} injected={} errors={} digests={:x?}",
        case.cache_class,
        case.seed,
        r.verdict.name(),
        r.injected,
        r.rank_errors.len(),
        r.file_digests,
    )
}

#[test]
fn crash_recovery_outcomes_are_pinned() {
    let got = [
        crash_line(true, "ssd", 77),
        crash_line(true, "nvm", 81),
        crash_line(true, "hybrid", 82),
        crash_line(false, "ssd", 78),
    ];
    let want = [
        "crash ssd journal=true: crash_ns=2366716 killed=26 written=32768 requeued=32768 \
         lost=0 recovery_bits=0x3f7d446e552e6bdf verified=true",
        "crash nvm journal=true: crash_ns=2126069 killed=26 written=32768 requeued=32768 \
         lost=0 recovery_bits=0x3f7b51716a5917d2 verified=true",
        "crash hybrid journal=true: crash_ns=2323320 killed=26 written=32768 requeued=32768 \
         lost=0 recovery_bits=0x3f8c272c13da277e verified=true",
        "crash ssd journal=false: crash_ns=2336628 killed=26 written=32768 requeued=0 \
         lost=32768 recovery_bits=0x3f1f75104d551d69 verified=false",
    ];
    assert_eq!(got, want);
}

#[test]
fn chaos_cases_are_pinned() {
    let mut cases: Vec<ChaosCase> = (0..6).map(ChaosCase::new).collect();
    for class in [CacheClass::Nvm, CacheClass::Hybrid] {
        cases.extend((0..3).map(|s| ChaosCase::with_class(s, class)));
    }
    let got: Vec<String> = cases.into_iter().map(chaos_line).collect();
    // Digests chain across seeds: file k of seed s is generated from
    // `1000 + s + k`, the same data as file k - 1 of seed s + 1.
    let (d0, d1, d2, d3, d4, d5, d6) = (
        "f88d64206bda2bf5",
        "d27787f443d44566",
        "ad6d688900618dd9",
        "28b6f2f2e156bfe1",
        "e8cf175712ed9714",
        "ae74cf216eb5f44e",
        "eed5a649e73a77e2",
    );
    let mut want = vec![
        format!("chaos Ssd seed 0: clean injected=3 errors=0 digests=[Some({d0}), Some({d1})]"),
        format!("chaos Ssd seed 1: clean injected=10 errors=0 digests=[Some({d1}), Some({d2})]"),
        format!("chaos Ssd seed 2: clean injected=2 errors=0 digests=[Some({d2}), Some({d3})]"),
        format!("chaos Ssd seed 3: clean injected=23 errors=0 digests=[Some({d3}), Some({d4})]"),
        format!("chaos Ssd seed 4: detected injected=11 errors=2 digests=[Some({d4}), Some({d5})]"),
        format!("chaos Ssd seed 5: clean injected=8 errors=0 digests=[Some({d5}), Some({d6})]"),
    ];
    for class in ["Nvm", "Hybrid"] {
        want.extend(
            want[..3]
                .iter()
                .map(|l| l.replacen("Ssd", class, 1))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(got, want);
}
