//! Property tests for the simulated MPI: the two collective backends
//! must be result-equivalent for random inputs, datatypes must flatten
//! consistently, and message matching must respect MPI ordering.

use proptest::prelude::*;

use e10_mpisim::{launch, CollBackend, FileView, FlatType, SourceSel, WorldSpec};

fn spec(p: usize, backend: CollBackend) -> WorldSpec {
    let mut s = WorldSpec::for_tests(p, (p / 2).max(1));
    s.backend = backend;
    s
}

/// What every rank holds after each of three back-to-back size
/// exchanges — on the world communicator, or on the odd/even halves of
/// a `split` that reverses the rank order. `sent(step, world_rank, n)`
/// is the rank's `n`-entry send row of `step`; it goes through the
/// dense in-place call, or (`sparse`) its non-zeros, last destination
/// first, through the sparse one, whose answer — checked to be
/// non-zeros ascending by source — is spread back out.
fn three_size_exchanges(
    spec: WorldSpec,
    split: bool,
    sparse: bool,
    sent: impl Fn(usize, usize, usize) -> Vec<u64> + Clone + 'static,
) -> Vec<Vec<Vec<u64>>> {
    e10_simcore::run(async move {
        launch(spec, move |world| {
            let sent = sent.clone();
            async move {
                let me = world.rank();
                let comm = if split {
                    world
                        .split((me % 2) as u32, (world.size() - me) as u64)
                        .await
                } else {
                    world
                };
                let mut sreqs = Vec::new();
                let mut recvs = vec![(usize::MAX, 0)];
                let mut got = Vec::new();
                for step in 0..3 {
                    let mut buf = sent(step, me, comm.size());
                    if sparse {
                        let entries = buf.iter().copied().enumerate().rev();
                        let sends: Vec<_> = entries.filter(|&(_, v)| v != 0).collect();
                        comm.alltoall_u64_sparse(&sends, &mut recvs, 8, &mut sreqs)
                            .await;
                        assert!(recvs.windows(2).all(|w| w[0].0 < w[1].0), "{recvs:?}");
                        buf.fill(0);
                        for &(src, v) in &recvs {
                            assert_ne!(v, 0, "a zero is no entry");
                            buf[src] = v;
                        }
                    } else {
                        comm.alltoall_u64_inplace(&mut buf, 8, &mut sreqs).await;
                    }
                    got.push(buf);
                }
                got
            }
        })
        .await
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Algorithmic and analytic collectives produce identical results
    /// for random communicator sizes and values.
    #[test]
    fn backends_agree_on_results(p in 1usize..12, salt in 0u64..1000) {
        let results: Vec<_> = [CollBackend::Algorithmic, CollBackend::Analytic]
            .into_iter()
            .map(|b| {
                e10_simcore::run(async move {
                    launch(spec(p, b), move |comm| async move {
                        let me = comm.rank() as u64;
                        let sum = comm
                            .allreduce(me * salt + 1, 8, |a, c| a.wrapping_add(*c))
                            .await;
                        let gath = comm.allgather(me ^ salt, 8).await;
                        let b = comm
                            .bcast((p / 2).min(comm.size() - 1), Some(salt).filter(|_| {
                                comm.rank() == (p / 2).min(comm.size() - 1)
                            }), 8)
                            .await;
                        (sum, gath, b)
                    })
                    .await
                })
            })
            .collect();
        prop_assert_eq!(&results[0], &results[1]);
    }

    /// subarray flattening covers exactly lsizes.product() bytes and
    /// every run stays inside the global array.
    #[test]
    fn subarray_runs_in_bounds(
        g in prop::collection::vec(1u64..12, 1..4),
        frac in prop::collection::vec(0u64..100, 1..4),
        elem in prop::sample::select(vec![1u64, 4, 8]),
    ) {
        let ndim = g.len().min(frac.len());
        let g = &g[..ndim];
        let mut l = Vec::new();
        let mut s = Vec::new();
        for d in 0..ndim {
            let ld = (frac[d] % g[d]) + 1;
            l.push(ld);
            s.push(g[d] - ld);
        }
        let f = FlatType::subarray(g, &l, &s, elem);
        let expect: u64 = l.iter().product::<u64>() * elem;
        prop_assert_eq!(f.total_bytes(), expect);
        let gtotal: u64 = g.iter().product::<u64>() * elem;
        for &(off, len) in f.runs() {
            prop_assert!(off + len <= gtotal);
        }
        // Runs are sorted and disjoint.
        for w in f.runs().windows(2) {
            prop_assert!(w[0].0 + w[0].1 <= w[1].0);
        }
    }

    /// Window queries partition the whole view: querying consecutive
    /// windows returns every piece exactly once.
    #[test]
    fn window_queries_partition_view(
        count in 1u64..60,
        blocklen in 1u64..50,
        gap in 0u64..50,
        disp in 0u64..1000,
        win in 1u64..500,
    ) {
        let stride = blocklen + gap;
        let flat = FlatType::vector(count, blocklen, stride);
        let view = FileView::new(&flat, disp);
        let (lo, hi) = view.file_range();
        let mut covered = 0u64;
        let mut pos = lo;
        while pos < hi {
            let end = (pos + win).min(hi);
            for p in view.pieces_in_window(pos, end) {
                covered += p.len;
            }
            pos = end;
        }
        prop_assert_eq!(covered, view.total_bytes());
    }

    /// The analytic size exchange is the algorithmic one, and the
    /// sparse call the dense one: dense, sparse and all-zero matrices,
    /// three exchanges back to back with some ranks sending nothing
    /// and (on the world communicator) receiving nothing either (such
    /// a rank runs from one exchange's cost sleep straight into the
    /// next one's scatter, so a row taken after the sleep would hold
    /// the wrong round's sizes), on the world and on a `split`
    /// sub-communicator, on the default fabric, a
    /// zero-latency/zero-overhead one, and a free one whose exchange
    /// costs no virtual time at all (no sleep to suspend on).
    #[test]
    fn analytic_size_exchange_is_the_algorithmic_one(
        p in 1usize..10,
        cells in prop::collection::vec(0u64..(1 << 40), 243..244),
        density in prop::collection::vec(0u8..3, 3..4),
        idle in prop::collection::vec(0u16..512, 3..4),
    ) {
        use e10_netsim::NetConfig;
        use e10_simcore::SimDuration;
        let sent = move |step: usize, rank: usize, n: usize| -> Vec<u64> {
            (0..n)
                .map(|dst| {
                    let cell = cells[(step * 9 + rank) * 9 + dst];
                    match density[step] {
                        _ if idle[step] >> rank & 1 == 1 || idle[step] >> dst & 1 == 1 => 0,
                        0 => 0,
                        1 if cell % 4 != 0 => 0,
                        _ => cell | 1,
                    }
                })
                .collect()
        };
        let no_software_cost = NetConfig {
            latency: SimDuration::ZERO,
            overhead: SimDuration::ZERO,
            ..NetConfig::ib_qdr(p)
        };
        let free = NetConfig { node_bw: 1e30, ..no_software_cost.clone() };
        for split in [false, true] {
            let algorithmic = |sparse| {
                three_size_exchanges(spec(p, CollBackend::Algorithmic), split, sparse, sent.clone())
            };
            let want = algorithmic(false);
            prop_assert_eq!(&algorithmic(true), &want, "algorithmic sparse call, split {}", split);
            for net_cfg in [None, Some(no_software_cost.clone()), Some(free.clone())] {
                for sparse in [true, false] {
                    let mut analytic = spec(p, CollBackend::Analytic);
                    analytic.net_cfg = net_cfg.clone();
                    let got = three_size_exchanges(analytic, split, sparse, sent.clone());
                    prop_assert_eq!(
                        &got, &want,
                        "split {}, sparse call {}, fabric {:?}", split, sparse, net_cfg
                    );
                }
            }
        }
    }

    /// The fault-tolerant size exchange is an alltoall: for a random
    /// communicator size and size matrix — an entry for every
    /// destination, then for about half of them, one value in eight an
    /// explicit zero (no entry: it must not come out the other side) —
    /// it leaves every rank with exactly the non-zeros sent to it,
    /// which is what `alltoall_u64_sparse` leaves it, twice in a row on
    /// the same hoisted row. With one rank silent, every survivor gets
    /// the abort instead (what it held untouched) and convicts exactly
    /// the silent rank.
    #[test]
    fn ft_size_exchange_is_an_alltoall(
        p in 2usize..10,
        cells in prop::collection::vec(0u64..(1 << 40), 81..82),
        silent in 0usize..9,
    ) {
        use e10_simcore::SimDuration;
        use std::rc::Rc;
        const TAG: u32 = 0x5800_0000;
        let timeout = SimDuration::from_millis(10);
        let cells = Rc::new(cells);
        let cells2 = Rc::clone(&cells);
        e10_simcore::run(async move {
            launch(spec(p, CollBackend::Algorithmic), move |comm| {
                let cells = Rc::clone(&cells2);
                async move {
                    let me = comm.rank();
                    let sent = |src: usize, step: u32| -> Vec<(usize, u64)> {
                        let value = |dst| Some(cells[src * p + dst]).filter(|c| c % 8 != 0);
                        let row = (0..p).map(|dst| (dst, value(dst).unwrap_or(0)));
                        row.filter(|&(_, v)| step == 0 || v % 4 < 2).collect()
                    };
                    let arriving = |step: u32| -> Vec<(usize, u64)> {
                        let from = |src| sent(src, step).into_iter().find(|&(dst, _)| dst == me);
                        let entries = (0..p).filter_map(|src| Some((src, from(src)?.1)));
                        entries.filter(|&(_, v)| v != 0).collect()
                    };
                    let mut row = Rc::default();
                    let mut sreqs = Vec::new();
                    let (mut ft, mut plain) = (Vec::new(), Vec::new());
                    for step in 0..2u32 {
                        let tag = TAG + step * 2 * p as u32;
                        let sends = sent(me, step);
                        let done =
                            comm.ft_alltoall_u64_sparse(tag, &sends, &mut ft, &mut row, timeout);
                        assert_eq!(done.await, Some(()));
                        comm.alltoall_u64_sparse(&sends, &mut plain, 8, &mut sreqs).await;
                        assert_eq!(ft, arriving(step), "rank {me}, step {step}");
                        assert_eq!(plain, ft, "rank {me}, step {step}");
                    }
                    // Third exchange: one rank never joins.
                    let silent = silent % p;
                    if me == silent {
                        return;
                    }
                    let (tag, sends) = (TAG + 4 * p as u32, sent(me, 0));
                    let done = comm.ft_alltoall_u64_sparse(tag, &sends, &mut ft, &mut row, timeout);
                    assert_eq!(done.await, None, "rank {me} must see the abort");
                    assert_eq!(ft, plain, "an aborted exchange leaves the answer alone");
                    assert_eq!(comm.failed_ranks(), vec![silent]);
                }
            })
            .await;
        });
    }

    /// Per-pair message ordering holds for arbitrary interleavings of
    /// sizes (big messages must not be overtaken by later small ones).
    #[test]
    fn p2p_ordering_random_sizes(sizes in prop::collection::vec(0u64..(1 << 22), 1..20)) {
        let n = sizes.len();
        e10_simcore::run(async move {
            let sizes2 = sizes.clone();
            launch(WorldSpec::for_tests(2, 2), move |comm| {
                let sizes = sizes2.clone();
                async move {
                    if comm.rank() == 0 {
                        let reqs: Vec<_> = sizes
                            .iter()
                            .enumerate()
                            .map(|(i, &b)| comm.isend(1, 5, b, i))
                            .collect();
                        e10_mpisim::waitall(reqs).await;
                    } else {
                        for expect in 0..n {
                            let m = comm.recv(SourceSel::Rank(0), 5).await;
                            assert_eq!(m.into_data::<usize>(), expect);
                        }
                    }
                }
            })
            .await;
        });
    }
}
