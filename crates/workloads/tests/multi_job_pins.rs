//! Exact pins of the three multi-job arms (`single`, `uncontended`,
//! `contended`): every counter of the run's metrics snapshot, each
//! job's bytes, and the run's and each job's virtual seconds by their
//! bits. A refactor of the multi-job harness must leave every value
//! below bit-identical.

use e10_workloads::{run_multi_job, MultiJobSpec};

fn arm_lines(spec: &MultiJobSpec) -> Vec<String> {
    let out = run_multi_job(spec);
    let mut lines = vec![format!("wall_bits={:#x}", out.wall_secs.to_bits())];
    lines.extend(out.metrics.counters.iter().map(|(k, v)| format!("{k}={v}")));
    lines.extend(out.jobs.iter().map(|j| {
        format!(
            "job{} bytes={} secs_bits={:#x}",
            j.job,
            j.bytes,
            j.secs.to_bits()
        )
    }));
    lines
}

#[test]
fn single_arm_is_pinned() {
    let want = [
        "wall_bits=0x3fd232644b840cea",
        "cache.admit=4194304",
        "cache.bytes_cached=4194304",
        "cache.bytes_synced=4194304",
        "cache.write_bytes=4194304",
        "cache.write_stall_ns=3028396",
        "executor.polls=715",
        "netsim.bytes=4202368",
        "netsim.messages=120",
        "pfs.write_bytes=4194304",
        "pfs.write_chunks=8",
        "job0 bytes=4194304 secs_bits=0x3fd2324f3d54f525",
    ];
    assert_eq!(arm_lines(&MultiJobSpec::single()), want);
}

#[test]
fn uncontended_arm_is_pinned() {
    let want = [
        "wall_bits=0x3fe77fa328b987a1",
        "cache.admit=16777216",
        "cache.bytes_cached=16777216",
        "cache.bytes_synced=16777216",
        "cache.write_bytes=16777216",
        "cache.write_stall_ns=12113584",
        "executor.polls=2887",
        "flush.fair_share=12582912",
        "netsim.bytes=16809472",
        "netsim.messages=480",
        "pfs.write_bytes=16777216",
        "pfs.write_chunks=32",
        "job0 bytes=4194304 secs_bits=0x3fd22a3b8d74c829",
        "job1 bytes=4194304 secs_bits=0x3fd22a3b8d74c829",
        "job2 bytes=4194304 secs_bits=0x3fd22a3b8d74c829",
        "job3 bytes=4194304 secs_bits=0x3fd2324f3d54f525",
    ];
    assert_eq!(arm_lines(&MultiJobSpec::uncontended()), want);
}

#[test]
fn contended_arm_is_pinned() {
    let want = [
        "wall_bits=0x3fe7f08c8da019c4",
        "cache.admit=10485760",
        "cache.bytes_cached=10485760",
        "cache.bytes_synced=10485760",
        "cache.degrade=12",
        "cache.evict_pressure=2097152",
        "cache.write_bytes=10485760",
        "cache.write_stall_ns=5605552",
        "executor.polls=2801",
        "flush.fair_share=6291456",
        "netsim.bytes=16809472",
        "netsim.messages=480",
        "pfs.write_bytes=16777216",
        "pfs.write_chunks=32",
        "job0 bytes=4194304 secs_bits=0x3fd2213c881300db",
        "job1 bytes=4194304 secs_bits=0x3fd3030f51e02522",
        "job2 bytes=4194304 secs_bits=0x3fd3030f51e02522",
        "job3 bytes=4194304 secs_bits=0x3fd314220722196c",
    ];
    assert_eq!(arm_lines(&MultiJobSpec::contended()), want);
}
