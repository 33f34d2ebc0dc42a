//! Property tests for the local file system: capacity accounting must
//! balance under arbitrary create/write/fallocate/unlink sequences.

use proptest::prelude::*;

use e10_localfs::{FsError, LocalFs, LocalFsParams};
use e10_simcore::{run, SimDuration, SimRng};
use e10_storesim::{PageCache, PageCacheParams, Payload, Ssd, SsdParams};

fn fast_fs(capacity: u64) -> LocalFs {
    let ssd = Ssd::new(
        SsdParams {
            read_bw: 1e9,
            write_bw: 1e9,
            read_latency: SimDuration::ZERO,
            write_latency: SimDuration::ZERO,
            jitter_cv: 0.0,
        },
        SimRng::new(1),
    );
    let pc = PageCache::new(PageCacheParams {
        mem_bw: 1e10,
        dirty_limit: capacity,
        capacity,
        drain_bw: 1e9,
    });
    LocalFs::new(
        LocalFsParams {
            capacity,
            supports_fallocate: true,
            meta_op: SimDuration::ZERO,
        },
        ssd,
        pc,
    )
}

#[derive(Debug, Clone)]
enum Op {
    Write { file: u8, off: u64, len: u64 },
    Falloc { file: u8, off: u64, len: u64 },
    Unlink { file: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3, 0u64..20_000, 1u64..8_000).prop_map(|(file, off, len)| Op::Write {
            file,
            off,
            len
        }),
        (0u8..3, 0u64..20_000, 1u64..8_000).prop_map(|(file, off, len)| Op::Falloc {
            file,
            off,
            len
        }),
        (0u8..3).prop_map(|file| Op::Unlink { file }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// `used` always equals the sum of covered bytes over live files,
    /// never exceeds capacity, and returns to zero after unlinking
    /// everything.
    #[test]
    fn capacity_accounting_balances(ops in prop::collection::vec(op_strategy(), 1..30)) {
        run(async move {
            let cap = 64_000u64;
            let fs = fast_fs(cap);
            let mut files: std::collections::HashMap<String, e10_localfs::LocalFile> =
                std::collections::HashMap::new();
            for op in ops {
                match op {
                    Op::Write { file, off, len } => {
                        let path = format!("/f{file}");
                        let h = match files.entry(path.clone()) {
                            std::collections::hash_map::Entry::Occupied(e) => e.get().clone(),
                            std::collections::hash_map::Entry::Vacant(v) => {
                                v.insert(fs.create(path.as_str()).await.unwrap()).clone()
                            }
                        };
                        match h.write(off, Payload::gen(1, off, len)).await {
                            Ok(()) | Err(FsError::NoSpace { .. }) => {}
                            Err(e) => panic!("unexpected error {e}"),
                        }
                    }
                    Op::Falloc { file, off, len } => {
                        let path = format!("/f{file}");
                        if let Some(h) = files.get(&path) {
                            match h.fallocate(off, len).await {
                                Ok(()) | Err(FsError::NoSpace { .. }) => {}
                                Err(e) => panic!("unexpected error {e}"),
                            }
                        }
                    }
                    Op::Unlink { file } => {
                        let path = format!("/f{file}");
                        if files.remove(&path).is_some() {
                            fs.unlink(&path).await.unwrap();
                        }
                    }
                }
                // Invariant: used == sum of live covered bytes <= cap.
                let live: u64 = files
                    .values()
                    .map(|h: &e10_localfs::LocalFile| h.extents().covered_bytes())
                    .sum();
                let (_, used) = fs.statfs();
                prop_assert_eq!(used, live);
                prop_assert!(used <= cap);
            }
            // Drain: unlink everything → used returns to zero.
            for path in files.keys() {
                fs.unlink(path).await.unwrap();
            }
            prop_assert_eq!(fs.statfs().1, 0);
            Ok(())
        })?;
    }
}
