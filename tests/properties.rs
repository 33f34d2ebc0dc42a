//! Property-based tests (proptest): the central invariants hold for
//! *random* access patterns, write sequences and hint sets — not just
//! the benchmark shapes.

use proptest::prelude::*;

use e10_repro::localfs::LocalFs;
use e10_repro::prelude::*;
use e10_repro::romio::{Admission, CacheArbiter, FdStrategy, FileDomains, RomioHints, HINTS};
use e10_repro::storesim::{ExtentMap, Payload, Source};

/// A one-node testbed's local volume with the given cache capacity —
/// the arbiter property tests drive [`CacheArbiter`] directly on it.
fn arbiter_fs(capacity: u64) -> LocalFs {
    let mut spec = TestbedSpec::small(1, 1);
    spec.localfs.capacity = capacity;
    spec.build().localfs[0].clone()
}

/// Partition `[0, total)` into segments with random owners; returns
/// per-rank sorted block lists that tile the range exactly.
fn random_partition(
    total: u64,
    procs: usize,
    seg_lens: &[u64],
    owners: &[usize],
) -> Vec<Vec<(u64, u64)>> {
    let mut per_rank: Vec<Vec<(u64, u64)>> = vec![Vec::new(); procs];
    let mut pos = 0;
    let mut i = 0;
    while pos < total {
        let len = seg_lens[i % seg_lens.len()].min(total - pos);
        let owner = owners[i % owners.len()] % procs;
        per_rank[owner].push((pos, len));
        pos += len;
        i += 1;
    }
    per_rank
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Whatever the interleaving, a collective write must produce a
    /// byte-perfect file — cache on and off, both FD strategies.
    #[test]
    fn two_phase_write_correct_for_random_patterns(
        seg_lens in prop::collection::vec(1u64..3000, 3..12),
        owners in prop::collection::vec(0usize..8, 4..40),
        procs in 2usize..8,
        cache in any::<bool>(),
        aligned in any::<bool>(),
        cb_shift in 11u32..15, // 2K..16K collective buffer
    ) {
        let total = 200_000u64;
        let per_rank = random_partition(total, procs, &seg_lens, &owners);
        e10_simcore::run(async move {
            let tb = TestbedSpec::small(procs, (procs / 2).max(1)).build();
            let handles: Vec<_> = tb
                .ctxs()
                .into_iter()
                .map(|ctx| {
                    let blocks = per_rank[ctx.comm.rank()].clone();
                    let cb = 1u64 << cb_shift;
                    e10_simcore::spawn(async move {
                        let info = Info::from_pairs([
                            ("romio_cb_write", "enable"),
                            ("striping_unit", "8192"),
                        ]);
                        info.set("cb_buffer_size", &cb.to_string());
                        info.set(
                            "e10_fd_partition",
                            if aligned { "aligned" } else { "even" },
                        );
                        if cache {
                            info.set("e10_cache", "enable");
                            info.set("e10_cache_discard_flag", "enable");
                        }
                        let f = AdioFile::open(&ctx, "/gfs/prop", &info, true)
                            .await
                            .unwrap();
                        let view = FileView::new(&FlatType::indexed(blocks), 0);
                        write_at_all(&f, &view, &DataSpec::FileGen { seed: 77 }).await;
                        f.close().await;
                        f.global().extents().clone()
                    })
                })
                .collect();
            let exts = e10_simcore::join_all(handles).await;
            exts[0].verify_gen(77, 0, total).unwrap();
        });
    }

    /// The three collective-write algorithms (`e10_two_phase = stock |
    /// extended | node_agg`) are interchangeable for correctness:
    /// whatever the partition, rank count or node packing, each must
    /// produce the exact generator bytes — so all three files are
    /// byte-identical.
    #[test]
    fn three_algorithms_agree_for_random_patterns(
        seg_lens in prop::collection::vec(1u64..2500, 3..10),
        owners in prop::collection::vec(0usize..8, 4..30),
        procs in 2usize..8,
        cache in any::<bool>(),
        cb_shift in 11u32..15, // 2K..16K collective buffer
    ) {
        let total = 150_000u64;
        let per_rank = random_partition(total, procs, &seg_lens, &owners);
        for algo in ["stock", "extended", "node_agg"] {
            let per_rank = per_rank.clone();
            e10_simcore::run(async move {
                let tb = TestbedSpec::small(procs, (procs / 2).max(1)).build();
                let handles: Vec<_> = tb
                    .ctxs()
                    .into_iter()
                    .map(|ctx| {
                        let blocks = per_rank[ctx.comm.rank()].clone();
                        let cb = 1u64 << cb_shift;
                        e10_simcore::spawn(async move {
                            let info = Info::from_pairs([
                                ("romio_cb_write", "enable"),
                                ("striping_unit", "8192"),
                                ("e10_two_phase", algo),
                            ]);
                            info.set("cb_buffer_size", &cb.to_string());
                            if cache {
                                info.set("e10_cache", "enable");
                                info.set("e10_cache_discard_flag", "enable");
                            }
                            let f = AdioFile::open(&ctx, "/gfs/tri", &info, true)
                                .await
                                .unwrap();
                            let view = FileView::new(&FlatType::indexed(blocks), 0);
                            write_at_all(&f, &view, &DataSpec::FileGen { seed: 91 }).await;
                            f.close().await;
                            f.global().extents().clone()
                        })
                    })
                    .collect();
                let exts = e10_simcore::join_all(handles).await;
                exts[0]
                    .verify_gen(91, 0, total)
                    .unwrap_or_else(|e| panic!("{algo} wrote wrong bytes: {e}"));
            });
        }
    }

    /// A collective read of what a collective write produced returns
    /// exactly the written bytes, with and without the cache-read
    /// extension.
    #[test]
    fn collective_read_roundtrips_random_patterns(
        seg_lens in prop::collection::vec(1u64..2000, 3..10),
        owners in prop::collection::vec(0usize..6, 4..30),
        procs in 2usize..6,
        cache_read in any::<bool>(),
    ) {
        let total = 120_000u64;
        let per_rank = random_partition(total, procs, &seg_lens, &owners);
        e10_simcore::run(async move {
            let tb = TestbedSpec::small(procs, (procs / 2).max(1)).build();
            let handles: Vec<_> = tb
                .ctxs()
                .into_iter()
                .map(|ctx| {
                    let blocks = per_rank[ctx.comm.rank()].clone();
                    e10_simcore::spawn(async move {
                        let info = Info::from_pairs([
                            ("romio_cb_write", "enable"),
                            ("romio_cb_read", "enable"),
                            ("cb_buffer_size", "8192"),
                            ("striping_unit", "8192"),
                            ("e10_cache", "enable"),
                        ]);
                        if cache_read {
                            info.set("e10_cache_read", "enable");
                        }
                        let f = AdioFile::open(&ctx, "/gfs/rprop", &info, true)
                            .await
                            .unwrap();
                        let view = FileView::new(&FlatType::indexed(blocks), 0);
                        e10_repro::romio::write_at_all(
                            &f,
                            &view,
                            &DataSpec::FileGen { seed: 78 },
                        )
                        .await;
                        f.file_sync().await;
                        let r = e10_repro::romio::read_at_all(&f, &view).await;
                        r.verify_gen(78).unwrap();
                        assert_eq!(r.bytes, view.total_bytes());
                        f.close().await;
                    })
                })
                .collect();
            e10_simcore::join_all(handles).await;
        });
    }

    /// ExtentMap must agree with a naive Vec<u8> shadow model under an
    /// arbitrary write sequence.
    #[test]
    fn extent_map_matches_naive_model(
        writes in prop::collection::vec((0u64..4000, 1u64..700, 0u64..5), 1..40),
    ) {
        let size = 5000usize;
        let mut map = ExtentMap::new();
        let mut shadow: Vec<Option<u8>> = vec![None; size];
        for (off, len, seed) in writes {
            let len = len.min(size as u64 - off);
            if len == 0 { continue; }
            map.insert(off, len, Source::gen_at(seed, off));
            for p in off..off + len {
                shadow[p as usize] = Some(e10_repro::storesim::gen_byte(seed, p));
            }
        }
        for p in 0..size as u64 {
            prop_assert_eq!(map.byte_at(p), shadow[p as usize], "byte {}", p);
        }
        // Coverage accounting must agree too.
        let covered = shadow.iter().filter(|b| b.is_some()).count() as u64;
        prop_assert_eq!(map.covered_bytes(), covered);
    }

    /// File domains: sorted, disjoint, exactly covering, and (aligned
    /// strategy) stripe-aligned at interior boundaries.
    #[test]
    fn file_domains_invariants(
        min_st in 0u64..1_000_000,
        len in 1u64..50_000_000,
        naggs in 1usize..100,
        unit_shift in 10u32..23,
        aligned in any::<bool>(),
    ) {
        let unit = 1u64 << unit_shift;
        let strategy = if aligned { FdStrategy::StripeAligned } else { FdStrategy::Even };
        let fds = FileDomains::compute(min_st, min_st + len, naggs, strategy, unit);
        fds.validate(min_st, min_st + len).unwrap();
        // Every offset maps to exactly the domain containing it.
        for probe in [min_st, min_st + len / 2, min_st + len - 1] {
            let a = fds.aggregator_of(probe).expect("offset inside range");
            prop_assert!(fds.starts[a] <= probe && probe < fds.ends[a]);
        }
        prop_assert_eq!(fds.aggregator_of(min_st + len), None);
        if aligned {
            for a in 0..fds.len() - 1 {
                let b = fds.ends[a];
                if b != min_st && b != min_st + len {
                    prop_assert_eq!(b % unit, 0, "interior boundary {} unaligned", b);
                }
            }
        }
    }

    /// Hint parsing is a fixpoint under render→parse.
    #[test]
    fn hints_roundtrip(
        cb_write in 0usize..3,
        cb_size in 1u64..1_000_000,
        cb_nodes in prop::option::of(1usize..1000),
        cache in 0usize..3,
        flush in 0usize..3,
        discard in any::<bool>(),
    ) {
        let info = Info::new();
        info.set("romio_cb_write", ["enable", "disable", "automatic"][cb_write]);
        info.set("cb_buffer_size", &cb_size.to_string());
        if let Some(n) = cb_nodes {
            info.set("cb_nodes", &n.to_string());
        }
        info.set("e10_cache", ["enable", "disable", "coherent"][cache]);
        info.set(
            "e10_cache_flush_flag",
            ["flush_immediate", "flush_onclose", "flush_none"][flush],
        );
        info.set("e10_cache_discard_flag", if discard { "enable" } else { "disable" });
        let h1 = RomioHints::parse(&info).unwrap();
        let back = Info::new();
        for (k, v) in h1.to_pairs() {
            back.set(&k, &v);
        }
        let h2 = RomioHints::parse(&back).unwrap();
        prop_assert_eq!(h1.cb_write, h2.cb_write);
        prop_assert_eq!(h1.cb_buffer_size, h2.cb_buffer_size);
        prop_assert_eq!(h1.cb_nodes, h2.cb_nodes);
        prop_assert_eq!(h1.e10_cache, h2.e10_cache);
        prop_assert_eq!(h1.e10_cache_flush_flag, h2.e10_cache_flush_flag);
        prop_assert_eq!(h1.e10_cache_discard_flag, h2.e10_cache_discard_flag);
    }

    /// For every Table I/II hint, hints set as typed fields and the
    /// Info string surface resolve identically, the typed set passes
    /// `validate`, and `to_info` inverts `from_info`.
    #[test]
    fn typed_fields_agree_with_from_info(
        cb_write in 0usize..3,
        cb_read in 0usize..3,
        cb_size in 1u64..(1u64 << 32),
        cb_nodes in prop::option::of(1usize..1000),
        striping_factor in prop::option::of(1usize..64),
        striping_unit in prop::option::of(1u64..(1u64 << 26)),
        ind_wr in 1u64..(1u64 << 24),
        cache in 0usize..3,
        flush in 0usize..3,
        discard in any::<bool>(),
        evict in any::<bool>(),
        cache_read in any::<bool>(),
        no_indep in any::<bool>(),
        sync_pol in 0usize..2,
        fd in 0usize..2,
        max_per_node in prop::option::of(1usize..8),
        trace in 0usize..3,
        journal in any::<bool>(),
        journal_path in prop::option::of(0usize..3),
    ) {
        use e10_repro::romio::{CacheMode, CbMode, FlushFlag, SyncPolicy, TraceMode};

        let cb_modes = [CbMode::Enable, CbMode::Disable, CbMode::Automatic];
        let cb_strs = ["enable", "disable", "automatic"];
        let cache_modes = [CacheMode::Enable, CacheMode::Disable, CacheMode::Coherent];
        let cache_strs = ["enable", "disable", "coherent"];
        let flush_flags = [FlushFlag::FlushImmediate, FlushFlag::FlushOnClose, FlushFlag::FlushNone];
        let flush_strs = ["flush_immediate", "flush_onclose", "flush_none"];
        let sync_pols = [SyncPolicy::Greedy, SyncPolicy::Backoff];
        let sync_strs = ["greedy", "backoff"];
        let fds = [FdStrategy::Even, FdStrategy::StripeAligned];
        let fd_strs = ["even", "aligned"];
        let traces = [TraceMode::Off, TraceMode::Ring, TraceMode::Jsonl];
        let trace_strs = ["off", "ring", "jsonl"];
        let jpaths = ["/scratch/a.jnl", "/scratch/deep/b.jnl", "/j"];
        let onoff = |b: bool| if b { "enable" } else { "disable" };

        let typed = RomioHints {
            cb_write: cb_modes[cb_write],
            cb_read: cb_modes[cb_read],
            cb_buffer_size: cb_size,
            ind_wr_buffer_size: ind_wr,
            e10_cache: cache_modes[cache],
            e10_cache_flush_flag: flush_flags[flush],
            e10_cache_discard_flag: discard,
            e10_cache_evict: evict,
            e10_cache_read: cache_read,
            no_indep_rw: no_indep,
            e10_sync_policy: sync_pols[sync_pol],
            fd_strategy: fds[fd],
            e10_trace: traces[trace],
            e10_cache_journal: journal,
            e10_cache_journal_path: journal_path.map(|p| jpaths[p].to_string()),
            cb_nodes,
            striping_factor,
            striping_unit,
            cb_config_max_per_node: max_per_node,
            ..RomioHints::default()
        };
        prop_assert_eq!(typed.validate(), Ok(()));

        // The same configuration spelled as Info strings.
        let info = Info::new();
        info.set("romio_cb_write", cb_strs[cb_write]);
        info.set("romio_cb_read", cb_strs[cb_read]);
        info.set("cb_buffer_size", &cb_size.to_string());
        info.set("ind_wr_buffer_size", &ind_wr.to_string());
        info.set("e10_cache", cache_strs[cache]);
        info.set("e10_cache_flush_flag", flush_strs[flush]);
        info.set("e10_cache_discard_flag", onoff(discard));
        info.set("e10_cache_evict", onoff(evict));
        info.set("e10_cache_read", onoff(cache_read));
        info.set("romio_no_indep_rw", if no_indep { "true" } else { "false" });
        info.set("e10_sync_policy", sync_strs[sync_pol]);
        info.set("e10_fd_partition", fd_strs[fd]);
        info.set("e10_trace", trace_strs[trace]);
        info.set("e10_cache_journal", onoff(journal));
        if let Some(p) = journal_path { info.set("e10_cache_journal_path", jpaths[p]); }
        if let Some(n) = cb_nodes { info.set("cb_nodes", &n.to_string()); }
        if let Some(n) = striping_factor { info.set("striping_factor", &n.to_string()); }
        if let Some(n) = striping_unit { info.set("striping_unit", &n.to_string()); }
        if let Some(n) = max_per_node { info.set("cb_config_list", &format!("*:{n}")); }

        let parsed = RomioHints::from_info(&info).unwrap();
        prop_assert_eq!(&typed, &parsed);
        prop_assert_eq!(typed.to_pairs(), parsed.to_pairs());

        // to_info is the inverse of from_info.
        let back = RomioHints::from_info(&typed.to_info()).unwrap();
        prop_assert_eq!(typed.to_pairs(), back.to_pairs());
    }
}

/// One `(key, value)` pair the fuzz property may draw. Keys come from
/// the hint table and from noise. Half the values are plausible for
/// their key (one of the row's `expected` words, or a number, size,
/// `*:N` or path), so that hint sets resolve often enough to be
/// rendered back; the rest are numbers of every magnitude with every
/// suffix, the values on either side of each range check, and strings
/// that are nobody's syntax.
fn fuzz_pair() -> impl Strategy<Value = (&'static str, String)> {
    let keys: Vec<&'static str> = HINTS
        .iter()
        .map(|spec| spec.key)
        .chain(["", "e10_", "cb_nodes ", "E10_CACHE", "some_vendor_hint"])
        .collect();
    let garbage = vec![
        "",
        " ",
        "-1",
        "+5",
        "0x10",
        "1e3",
        "4 K",
        "K",
        "k4",
        "4kk",
        "Enable",
        "enable ",
        "true",
        "é",
        "\u{0}",
        "18446744073709551615",
        "18446744073709551616",
        "17179869184G",
        "*:0",
        "*:",
        "18446744073709551615K",
        "99999999999999999999999999m",
        "*:18446744073709551616",
        "*:-1",
    ];
    let suffixes = vec!["", "", "k", "K", "m", "M", "g", "G", " ", "q"];
    let anything = prop_oneof![
        (
            0u32..64,
            0u64..u64::MAX,
            prop::sample::select(suffixes),
            any::<bool>()
        )
            .prop_map(|(shift, bits, suffix, pad)| {
                let n = bits >> shift;
                if pad {
                    format!(" {n}{suffix} ")
                } else {
                    format!("{n}{suffix}")
                }
            }),
        prop::sample::select(vec!["0", "1", "100", "101", "4294967296"]).prop_map(String::from),
        prop::sample::select(garbage).prop_map(String::from),
    ];
    (
        prop::sample::select(keys),
        any::<bool>(),
        0usize..64,
        anything,
    )
        .prop_map(|(key, plausible, pick, anything)| {
            let spec = HINTS.iter().find(|spec| spec.key == key);
            let value = match spec.filter(|_| plausible) {
                Some(spec) => {
                    let pool: Vec<&str> = spec
                        .expected()
                        .split('|')
                        .chain(["7", " 64 ", "4M", "*:3", "*: 2 ", "/p"])
                        .collect();
                    pool[pick % pool.len()].to_string()
                }
                None => anything,
            };
            (key, value)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, .. ProptestConfig::default() })]

    /// ROADMAP 2(c): whatever strings an `Info` holds (`fuzz_pair`),
    /// `from_info` never panics. It returns hints, or a non-empty list
    /// of violations naming keys the `Info` holds — all of them: with
    /// exactly those keys deleted, what is left resolves. Resolved
    /// hints are inside every range their consumers rely on, and
    /// `to_info` is a fixed point: it resolves back to the same hints
    /// and renders the same again.
    #[test]
    fn from_info_survives_arbitrary_strings(
        pairs in prop::collection::vec(fuzz_pair(), 0..12),
    ) {
        let info = Info::new();
        for (key, value) in &pairs {
            info.set(key, value);
        }
        let h = match RomioHints::from_info(&info) {
            Ok(hints) => hints,
            Err(errors) => {
                prop_assert!(!errors.is_empty() && errors.len() <= info.len() + 1);
                for e in &errors {
                    prop_assert!(HINTS.iter().any(|spec| spec.key == e.key));
                    prop_assert!(info.get(&e.key).is_some(), "{e} names a key not given");
                }
                for e in &errors {
                    info.delete(&e.key);
                }
                RomioHints::from_info(&info).map_err(|more| {
                    TestCaseError::fail(format!("reported only on the second pass: {more}"))
                })?
            }
        };
        prop_assert!(h.cb_buffer_size > 0 && h.ind_wr_buffer_size > 0);
        prop_assert!(h.cb_nodes != Some(0) && h.cb_config_max_per_node != Some(0));
        prop_assert!(h.striping_factor != Some(0) && h.striping_unit != Some(0));
        prop_assert!(h.e10_pfs_retry_base_us != Some(0));
        prop_assert!(h.e10_cache_hiwater <= 100 && h.e10_cache_lowater <= 100);
        prop_assert!(h.watermarks().is_none_or(|(hi, lo)| lo <= hi));
        prop_assert!(!h.e10_cache_path.is_empty() && !h.e10_trace_path.is_empty());
        prop_assert!(h.e10_cache_journal_path.as_deref() != Some(""));

        let rendered = h.to_info();
        let again = RomioHints::from_info(&rendered);
        prop_assert_eq!(again.as_ref(), Ok(&h));
        prop_assert_eq!(again.unwrap().to_info().entries(), rendered.entries());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Watermark eviction may only ever punch fully-synced extents:
    /// whatever mix of synced and unsynced staging a schedule builds,
    /// after any eviction pass every unsynced extent is still fully
    /// resident in its cache file.
    #[test]
    fn eviction_never_drops_an_unsynced_extent(
        ops in prop::collection::vec((1u64..40_000, any::<bool>()), 1..16),
        target in 0u64..800_000,
    ) {
        e10_simcore::run(async move {
            let fs = arbiter_fs(1 << 20);
            let arb = CacheArbiter::of(&fs);
            arb.register("a", 80, 50, 4096, 0);
            let file = fs.create("/scratch/a.0.e10").await.unwrap();
            // Disjoint slots so the whole-extent candidate model stays
            // exact: extent i lives at i * 50_000.
            let mut unsynced: Vec<(u64, u64)> = Vec::new();
            let mut unsynced_total = 0u64;
            for (i, &(len, synced)) in ops.iter().enumerate() {
                let off = i as u64 * 50_000;
                file.fallocate(off, len).await.unwrap();
                file.write(off, Payload::gen(9, off, len)).await.unwrap();
                arb.note_staged("a", len);
                if synced {
                    arb.note_synced("a", &file, off, len, 0, None, None);
                } else {
                    unsynced.push((off, len));
                    unsynced_total += len;
                }
            }
            let used_before = fs.statfs().1;
            let (_, _, evicted_before, _) = arb.stats();
            arb.evict_down_to(target).await;
            let used_after = fs.statfs().1;
            // Only synced bytes went, and the pass stopped either at
            // the target or when candidates ran out.
            assert!(used_after >= unsynced_total);
            assert!(used_after <= target.max(unsynced_total));
            let (_, _, evicted_after, _) = arb.stats();
            assert_eq!(evicted_after - evicted_before, used_before - used_after);
            for &(off, len) in &unsynced {
                assert_eq!(
                    file.extents().covered_bytes_in(off, len),
                    len,
                    "unsynced extent [{off}, +{len}) lost bytes"
                );
            }
            // Even a drain-to-zero keeps exactly the unsynced bytes.
            arb.evict_down_to(0).await;
            assert_eq!(fs.statfs().1, unsynced_total);
        });
    }

    /// Per-job staged-byte accounting is exact under random admit /
    /// free schedules: the arbiter's count matches a naive model, and
    /// reservation exhaustion fires exactly when the model says.
    #[test]
    fn staged_accounting_matches_model(
        ops in prop::collection::vec(
            (0usize..3, 1u64..150_000, any::<bool>()),
            1..40,
        ),
    ) {
        e10_simcore::run(async move {
            let fs = arbiter_fs(1_000_000);
            let arb = CacheArbiter::of(&fs);
            let names = ["a", "b", "c"];
            for n in names {
                arb.register(n, 80, 50, 4096, 0);
            }
            let reservation = (1_000_000 * 80 / 100) / 3;
            let mut model = [0u64; 3];
            let mut exhausted = 0u64;
            for (j, len, is_free) in ops {
                if is_free {
                    arb.note_freed(names[j], len);
                    model[j] = model[j].saturating_sub(len);
                } else if model[j] + len > reservation {
                    assert_eq!(arb.admit(names[j], len).await, Admission::Exhausted);
                    exhausted += 1;
                } else {
                    assert_eq!(arb.admit(names[j], len).await, Admission::Granted);
                    model[j] += len;
                }
                for (k, n) in names.iter().enumerate() {
                    assert_eq!(arb.staged(n), model[k], "job {n} accounting drifted");
                }
            }
            let (_, _, _, degrades) = arb.stats();
            assert_eq!(degrades, exhausted);
        });
    }

    /// Watermark hysteresis: once the high watermark trips and the
    /// drain target cannot be reached (non-evictable occupancy), every
    /// admit is refused — no admission sneaks in between the trip and
    /// the drain below the low watermark — and refusals never leak
    /// staged-byte charges.
    #[test]
    fn hysteresis_admits_nothing_between_trip_and_drain(
        junk_len in 810_000u64..950_000,
        synced_len in 1u64..50_000,
        admits in prop::collection::vec(1_000u64..50_000, 1..10),
    ) {
        e10_simcore::run(async move {
            let fs = arbiter_fs(1_000_000);
            let arb = CacheArbiter::of(&fs);
            arb.register("a", 80, 50, 4096, 0);
            arb.register("b", 80, 50, 4096, 0);
            // Job a holds a small synced (evictable) extent; the rest
            // of the volume is non-tenant occupancy the arbiter cannot
            // punch, parked above the 800k high watermark.
            let fa = fs.create("/scratch/a.0.e10").await.unwrap();
            fa.fallocate(0, synced_len).await.unwrap();
            arb.note_staged("a", synced_len);
            arb.note_synced("a", &fa, 0, synced_len, 0, None, None);
            let junk = fs.create("/scratch/junk.dat").await.unwrap();
            junk.fallocate(0, junk_len).await.unwrap();

            for &len in &admits {
                assert_eq!(arb.admit("b", len).await, Admission::Refused);
                assert!(arb.under_pressure("b"));
                assert_eq!(arb.staged("b"), 0, "refusal leaked a charge");
            }
            // The first refusal already drained everything evictable.
            assert_eq!(arb.staged("a"), 0);
            assert_eq!(fs.statfs().1, junk_len);

            // Occupancy drops below the low watermark: the latched
            // retry admits again and the pressure flag clears.
            junk.punch(0, junk_len).await;
            let len = admits[0];
            assert_eq!(arb.admit("b", len).await, Admission::Granted);
            assert!(!arb.under_pressure("b"));
            assert_eq!(arb.staged("b"), len);
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Whatever faults a random schedule throws — a node crash at a
    /// random spot, SSD stalls, link delays, occasional RPC failures —
    /// the journal recovery must restore the global file to the exact
    /// generator bytes. Faults may slow the run down arbitrarily; they
    /// may never corrupt recovered data.
    #[test]
    fn random_fault_schedules_never_corrupt_recovered_file(
        fault_seed in 0u64..1_000,
        crash_node in 0usize..2,
        stall_prob in 0.0f64..0.8,
        link_prob in 0.0f64..0.4,
        rpc_prob in 0.0f64..0.05,
    ) {
        use e10_repro::workloads::run_crash_recovery;
        use std::rc::Rc;
        e10_simcore::run(async move {
            let w = Rc::new(CollPerf::tiny([2, 2, 2]));
            let tb = TestbedSpec::small(w.procs(), 2).build();
            let hints = Info::from_pairs([
                ("cb_buffer_size", "4096"),
                ("striping_unit", "8192"),
                ("e10_cache", "enable"),
                ("e10_cache_flush_flag", "flush_onclose"),
                ("e10_cache_journal", "enable"),
            ]);
            let mut cfg = CrashConfig::after_writes(hints, "/gfs/fprop", 555, crash_node);
            cfg.faults = FaultPlan::new(fault_seed)
                .node_crash(crash_node, SimTime::ZERO)
                .ssd_stall(
                    crash_node,
                    always(),
                    stall_prob,
                    SimDuration::from_micros(200),
                )
                .link_fault(None, None, always(), link_prob, SimDuration::from_micros(50))
                .rpc_fail(None, always(), rpc_prob);
            let out = run_crash_recovery(&tb, w as Rc<dyn Workload>, &cfg)
                .await
                .unwrap();
            assert!(out.lost.is_empty() && out.failed.is_empty());
            out.verified.expect("recovered file must match the generator");
        });
    }
}

/// Promoted from `tests/properties.proptest-regressions`: the shrunk
/// counterexample proptest once found for [`file_domains_invariants`]
/// (an unaligned interior boundary with a stripe-aligned strategy).
/// Running it unconditionally keeps the regression covered even when
/// the seed file is ignored (e.g. `PROPTEST_CASES=0` or a checkout
/// that drops dotfile-adjacent artifacts).
#[test]
fn promoted_seed_file_domains_stripe_aligned_interior_boundaries() {
    let (min_st, len, naggs) = (297_613u64, 5_993_844u64, 3usize);
    let unit = 1u64 << 12;
    let fds = FileDomains::compute(min_st, min_st + len, naggs, FdStrategy::StripeAligned, unit);
    fds.validate(min_st, min_st + len).unwrap();
    for probe in [min_st, min_st + len / 2, min_st + len - 1] {
        let a = fds.aggregator_of(probe).expect("offset inside range");
        assert!(fds.starts[a] <= probe && probe < fds.ends[a]);
    }
    assert_eq!(fds.aggregator_of(min_st + len), None);
    for a in 0..fds.len() - 1 {
        let b = fds.ends[a];
        if b != min_st && b != min_st + len {
            assert_eq!(b % unit, 0, "interior boundary {b} unaligned");
        }
    }
}

/// The three collective-write algorithms under adversarial schedules
/// (`run_perturbed`: tasks runnable at one instant and events due at
/// one instant delivered in a seeded random order): virtual times may
/// move, the file may not — eight ranks, cache off and on, write the
/// generator's bytes under every seed. And the collective read, which
/// runs the same round loop the other way, reads them back: after a
/// sync every rank's read of its own view returns the generator's
/// bytes, tiling its buffer exactly — from the global file, and on the
/// cache arm from the aggregators' caches (`e10_cache_read`).
#[test]
fn three_algorithms_write_identical_files_under_perturbed_schedules() {
    let total = 150_000u64;
    let per_rank = random_partition(
        total,
        8,
        &[1200, 37, 2400, 811, 5, 1999, 640],
        &[3, 0, 7, 1, 1, 6, 2, 5, 4, 0, 3],
    );
    for cache in [false, true] {
        for algo in ["stock", "extended", "node_agg"] {
            for seed in 0..8 {
                let per_rank = per_rank.clone();
                let (exts, _) = e10_simcore::run_perturbed(Some(seed), async move {
                    let tb = TestbedSpec::small(8, 4).build();
                    let ranks = tb.ctxs().into_iter().map(|ctx| {
                        let blocks = per_rank[ctx.comm.rank()].clone();
                        e10_simcore::spawn(async move {
                            let info = Info::from_pairs([
                                ("romio_cb_write", "enable"),
                                ("romio_cb_read", "enable"),
                                ("striping_unit", "8192"),
                                ("cb_buffer_size", "8192"),
                                ("e10_two_phase", algo),
                            ]);
                            if cache {
                                info.set("e10_cache", "enable");
                                info.set("e10_cache_discard_flag", "enable");
                                info.set("e10_cache_read", "enable");
                            }
                            let f = AdioFile::open(&ctx, "/gfs/perturbed", &info, true)
                                .await
                                .unwrap();
                            let view = FileView::new(&FlatType::indexed(blocks), 0);
                            write_at_all(&f, &view, &DataSpec::FileGen { seed: 91 }).await;
                            f.file_sync().await;
                            let r = e10_repro::romio::read_at_all(&f, &view).await;
                            let at = format!("{algo}, cache {cache}, perturbation seed {seed}");
                            r.verify_gen(91)
                                .unwrap_or_else(|e| panic!("{at}: wrong bytes read: {e}"));
                            let mut pos = 0;
                            for p in &r.pieces {
                                assert_eq!(p.buf_off, pos, "{at}: buffer not tiled");
                                pos += p.payload.len;
                            }
                            assert_eq!(pos, view.total_bytes(), "{at}: buffer not tiled");
                            f.close().await;
                            f.global().extents().clone()
                        })
                    });
                    e10_simcore::join_all(ranks.collect()).await
                });
                exts[0].verify_gen(91, 0, total).unwrap_or_else(|e| {
                    panic!("{algo}, cache {cache}, perturbation seed {seed}: wrong bytes: {e}")
                });
            }
        }
    }
}
