//! mpisim: the collectives and point-to-point traffic of a two-phase
//! round at 512 ranks on 64 nodes (the testbed's analytic backend),
//! datatype flattening, world launch and the ULFM shrink.

use std::hint::black_box;

use e10_mpisim::{SourceSel, World, WorldSpec};
use e10_workloads::{CollPerf, Workload, WorkloadSpec};

use super::{pure_cost, sim_cost, Cost, Meter};

const RANKS: usize = 512;
const NODES: usize = 64;

fn world() -> World {
    World::build(&WorldSpec::new(RANKS, NODES))
}

pub fn all() -> Vec<(&'static str, Cost)> {
    vec![
        // The per-round size dissemination; one operation = one
        // collective call (all 512 ranks take part).
        sim_cost("mpisim.alltoall_ns", 24, |ops| async move {
            let w = world();
            let m = Meter::start();
            w.run_ranks(move |comm| async move {
                let mut buf = vec![0u64; comm.size()];
                let mut sreqs = Vec::new();
                for i in 0..ops {
                    buf.fill(i);
                    comm.alltoall_u64_inplace(&mut buf, 8, &mut sreqs).await;
                }
            })
            .await;
            m.stop()
        }),
        // The post-write error-code exchange.
        sim_cost("mpisim.allreduce_ns", 200, |ops| async move {
            let w = world();
            let m = Meter::start();
            w.run_ranks(move |comm| async move {
                for i in 0..ops {
                    black_box(comm.allreduce(i as u32, 4, |a, b| (*a).max(*b)).await);
                }
            })
            .await;
            m.stop()
        }),
        // The start/end offset exchange.
        sim_cost("mpisim.allgather_ns", 100, |ops| async move {
            let w = world();
            let m = Meter::start();
            w.run_ranks(move |comm| async move {
                for i in 0..ops {
                    black_box(comm.allgather((i, i + 1), 16).await.len());
                }
            })
            .await;
            m.stop()
        }),
        // The data shuffle of one round, as `exchange_and_write` posts
        // it: every rank sends one 64 KB piece list to one of the 64
        // aggregators (one per node), each aggregator posts a receive
        // per source, then all wait; one operation = one message.
        sim_cost("mpisim.p2p_ns", RANKS as u64 * 8, |ops| async move {
            let w = world();
            let rounds = ops as usize / RANKS;
            let per_node = RANKS / NODES;
            let m = Meter::start();
            w.run_ranks(move |comm| async move {
                let me = comm.rank();
                for round in 0..rounds {
                    let agg = (me + round) % NODES;
                    let send = comm.isend(agg * per_node, 7, 64 << 10, round);
                    if me % per_node == 0 {
                        let first = (NODES + me / per_node - round % NODES) % NODES;
                        let recvs: Vec<_> = (0..per_node)
                            .map(|k| comm.irecv(SourceSel::Rank(first + k * NODES), 7))
                            .collect();
                        for r in recvs {
                            black_box(r.wait().await.map(|m| m.into_data::<usize>()));
                        }
                    }
                    send.wait().await;
                }
            })
            .await;
            m.stop()
        }),
        // One paper-scale coll_perf rank view: subarray flattening.
        pure_cost("mpisim.flatten_ns", 64, |ops| {
            let kernel = CollPerf::paper();
            let m = Meter::start();
            for r in 0..ops {
                black_box(kernel.writes(r as usize % RANKS).len());
            }
            m.stop()
        }),
        // `MPI_Comm_split_type(SHARED)`: node_agg's first collective.
        sim_cost("mpisim.split_by_node_ns", 1, |ops| async move {
            let w = world();
            let m = Meter::start();
            if ops > 0 {
                w.run_ranks(|comm| async move {
                    black_box(comm.split_by_node().await.size());
                })
                .await;
            }
            m.stop()
        }),
        // Fabric + 512 communicators + one task per rank.
        sim_cost("mpisim.launch_ns", 1, |ops| async move {
            let m = Meter::start();
            if ops > 0 {
                let w = world();
                w.run_ranks(|comm| async move { black_box(comm.rank()) })
                    .await;
            }
            m.stop()
        }),
        // Survivors of one dead node build the shrunken communicator.
        sim_cost("mpisim.ft_shrink_ns", 1, |ops| async move {
            let w = world();
            let live: Vec<usize> = (RANKS / NODES..RANKS).collect();
            let m = Meter::start();
            if ops > 0 {
                for &r in &live {
                    let comm = &w.comms[r];
                    for dead in 0..RANKS / NODES {
                        comm.mark_failed(dead);
                    }
                    black_box(comm.shrink(&live).size());
                }
            }
            m.stop()
        }),
    ]
}
