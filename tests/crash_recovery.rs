//! Crash consistency end-to-end: a node crash in the middle of a
//! cached collective write must be recoverable from the manifest
//! journal — the recovered global file is byte-identical to a
//! fault-free run — and, with the journal disabled, the same crash
//! must be *detected* and reported as data loss, never papered over.

use std::rc::Rc;

use e10_repro::prelude::*;
use e10_repro::simcore::trace::{install_with_metrics, MetricsRegistry, RingSink};

fn crash_hints(journal: bool) -> Info {
    let h = Info::from_pairs([
        ("cb_buffer_size", "4096"),
        ("striping_unit", "8192"),
        ("e10_cache", "enable"),
        // Sync nothing until close/flush: at crash time every cached
        // byte of the crashed node is still unsynced — the worst case
        // the journal has to handle.
        ("e10_cache_flush_flag", "flush_onclose"),
    ]);
    if journal {
        h.set("e10_cache_journal", "enable");
    }
    h
}

/// Coverage and content of the global file after a fault-free run of
/// the same workload — the byte-identity baseline.
fn fault_free_baseline(seed: u64) -> u64 {
    e10_simcore::run(async move {
        let w = Rc::new(CollPerf::tiny([2, 2, 2]));
        let tb = TestbedSpec::small(w.procs(), 2).build();
        let handles: Vec<_> = tb
            .ctxs()
            .into_iter()
            .map(|ctx| {
                let w = Rc::clone(&w);
                e10_simcore::spawn(async move {
                    let f = AdioFile::open(&ctx, "/gfs/ffree", &crash_hints(true), true)
                        .await
                        .unwrap();
                    for view in &w.writes(ctx.comm.rank()) {
                        let r = write_at_all(&f, view, &DataSpec::FileGen { seed }).await;
                        assert_eq!(r.error_code, 0);
                    }
                    f.file_sync().await;
                })
            })
            .collect();
        e10_simcore::join_all(handles).await;
        let ext = tb.pfs.file_extents("/gfs/ffree").unwrap();
        ext.verify_gen(seed, 0, w.file_size()).unwrap();
        ext.covered_bytes()
    })
}

#[test]
fn crashed_run_recovers_to_fault_free_bytes() {
    let seed = 4242;
    let baseline_bytes = fault_free_baseline(seed);
    let (covered, requeued) = e10_simcore::run(async move {
        let w = Rc::new(CollPerf::tiny([2, 2, 2]));
        let tb = TestbedSpec::small(w.procs(), 2).build();
        let cfg = CrashConfig::after_writes(crash_hints(true), "/gfs/crashrec", seed, 1);
        let out = run_crash_recovery(&tb, Rc::clone(&w) as Rc<dyn Workload>, &cfg)
            .await
            .unwrap();
        assert!(out.killed_tasks > 0);
        assert!(out.lost.is_empty() && out.failed.is_empty());
        assert!(
            out.requeued_bytes() > 0,
            "the crash must land before the sync"
        );
        // Byte identity with the fault-free run: same coverage, same
        // generator contents (verified inside the harness).
        out.verified().expect("recovered file must verify");
        let ext = tb.pfs.file_extents("/gfs/crashrec").unwrap();
        (ext.covered_bytes(), out.requeued_bytes())
    });
    assert_eq!(
        covered, baseline_bytes,
        "recovered file must cover exactly the fault-free bytes"
    );
    assert!(requeued <= baseline_bytes);
}

#[test]
fn crash_without_journal_is_detected_data_loss() {
    e10_simcore::run(async {
        let w = Rc::new(CollPerf::tiny([2, 2, 2]));
        let tb = TestbedSpec::small(w.procs(), 2).build();
        let cfg = CrashConfig::after_writes(crash_hints(false), "/gfs/crashloss", 99, 0);
        let out = run_crash_recovery(&tb, w, &cfg).await.unwrap();
        assert!(out.recovered.is_empty(), "no journal, nothing to replay");
        assert!(out.lost_bytes() > 0, "stranded cache bytes must be counted");
        assert!(
            out.verified().is_err(),
            "the loss must fail verification, not pass silently"
        );
    });
}

#[test]
fn crash_run_emits_fault_and_recovery_telemetry() {
    e10_simcore::run(async {
        let metrics = Rc::new(MetricsRegistry::new());
        let sink = Rc::new(RingSink::new(1 << 16));
        let _g = install_with_metrics(Rc::clone(&sink) as _, Rc::clone(&metrics));
        let w = Rc::new(CollPerf::tiny([2, 2, 2]));
        let tb = TestbedSpec::small(w.procs(), 2).build();
        let cfg = CrashConfig::after_writes(crash_hints(true), "/gfs/crashtrace", 7, 1);
        let out = run_crash_recovery(&tb, w, &cfg).await.unwrap();
        out.verified().unwrap();
        let events = sink.events();
        let spans: std::collections::BTreeSet<&'static str> =
            events.iter().map(|e| e.span).collect();
        assert!(spans.contains("fault.injected"), "got {spans:?}");
        assert!(spans.contains("cache.recovered"), "got {spans:?}");
        let snap = metrics.snapshot();
        assert!(snap.counter("faultsim.injected") >= 1);
        assert!(snap.counter("cache.recoveries") >= 1);
        assert!(snap.counter("cache.recovered_bytes") > 0);
    });
}

#[test]
fn exhausted_pfs_retries_surface_as_romio_error_with_source_chain() {
    e10_simcore::run(async {
        // Every RPC fails: the client's 4 retries with backoff are
        // exhausted and the failure must travel PfsError → romio Error
        // with the RPC cause still reachable through source().
        let _g = FaultSchedule::install(FaultPlan::new(3).rpc_fail(None, always(), 1.0));
        let tb = TestbedSpec::small(1, 1).build();
        let ctx = tb.ctx(0);
        let f = AdioFile::open(&ctx, "/gfs/exhaust", &Info::new(), true)
            .await
            .unwrap();
        let err = f
            .write_contig(0, Payload::gen(5, 0, 4096))
            .await
            .expect_err("all RPCs fail, the write cannot succeed");
        match &err {
            Error::Pfs(p) => {
                let msg = p.to_string();
                assert!(msg.contains("attempts"), "unexpected message: {msg}");
            }
            other => panic!("expected Error::Pfs, got: {other}"),
        }
        let source = std::error::Error::source(&err).expect("Error -> PfsError");
        let rpc = source.source().expect("PfsError::RpcExhausted -> RpcError");
        assert!(!rpc.to_string().is_empty());
    });
}

#[test]
fn collective_write_reports_global_error_code_on_every_rank() {
    e10_simcore::run(async {
        // RPCs to the PFS fail for the whole run; with no cache the
        // collective write path hits the failures and EVERY rank must
        // see the same non-zero post-write error code (the paper's
        // final MPI_Allreduce), with the cause retrievable on the
        // failing ranks.
        let _g = FaultSchedule::install(FaultPlan::new(4).rpc_fail(None, always(), 1.0));
        let tb = TestbedSpec::small(4, 2).build();
        let handles: Vec<_> = tb
            .ctxs()
            .into_iter()
            .map(|ctx| {
                e10_simcore::spawn(async move {
                    let info = Info::from_pairs([
                        ("romio_cb_write", "enable"),
                        ("cb_buffer_size", "8192"),
                    ]);
                    let f = AdioFile::open(&ctx, "/gfs/allfail", &info, true)
                        .await
                        .unwrap();
                    let rank = ctx.comm.rank() as u64;
                    let view = FileView::new(&FlatType::contiguous(16 << 10), rank * (16 << 10));
                    let r = write_at_all(&f, &view, &DataSpec::FileGen { seed: 11 }).await;
                    (r.error_code, f.take_io_error().is_some())
                })
            })
            .collect();
        let outs = e10_simcore::join_all(handles).await;
        assert!(
            outs.iter().all(|&(code, _)| code != 0),
            "every rank must see the failure: {outs:?}"
        );
        assert!(
            outs.iter().any(|&(_, cause)| cause),
            "at least one rank must hold the cause"
        );
    });
}
