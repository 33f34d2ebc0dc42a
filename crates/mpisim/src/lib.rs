//! # e10-mpisim
//!
//! A deterministic simulated MPI for the E10 reproduction. Each rank is
//! an async task on the [`e10_simcore`] discrete-event kernel; messages
//! move real byte counts across the [`e10_netsim`] fabric; collectives
//! come in an algorithmic flavour (real message-passing algorithms) and
//! an analytic flavour (LogGP-style costs with exact synchronisation
//! semantics) so 512-rank experiments stay tractable.
//!
//! ```
//! use e10_mpisim::{launch, WorldSpec};
//!
//! let sums = e10_simcore::run(async {
//!     launch(WorldSpec::for_tests(4, 2), |comm| async move {
//!         comm.allreduce(comm.rank() as u64, 8, |a, b| a + b).await
//!     })
//!     .await
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

pub mod coll;
pub mod comm;
pub mod datatype;
pub mod ft;
pub mod info;

use std::future::Future;
use std::rc::Rc;

pub use coll::CollBackend;
pub use comm::{waitall, Comm, Message, Request, SourceSel, Tag};
pub use datatype::{FileView, FlatType, ViewPiece};
pub use info::Info;

use e10_netsim::{NetConfig, Network, NodeId};
use e10_simcore::join_all;

/// Shape of the simulated job: how many ranks on how many nodes, plus
/// extra fabric nodes for servers (MDS, data targets).
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// Number of MPI processes.
    pub procs: usize,
    /// Number of compute nodes; ranks are block-mapped (`rank / ppn`).
    pub nodes: usize,
    /// Additional fabric nodes appended after the compute nodes (used
    /// by the file-system servers).
    pub extra_nodes: usize,
    /// Collective backend.
    pub backend: CollBackend,
    /// Fabric parameters (None → IB-QDR defaults for the node count).
    pub net_cfg: Option<NetConfig>,
}

impl WorldSpec {
    /// A production-shaped spec (analytic collectives).
    pub fn new(procs: usize, nodes: usize) -> Self {
        WorldSpec {
            procs,
            nodes,
            extra_nodes: 0,
            backend: CollBackend::Analytic,
            net_cfg: None,
        }
    }

    /// A small-scale spec for tests (algorithmic collectives, so the
    /// real message-passing paths are exercised).
    pub fn for_tests(procs: usize, nodes: usize) -> Self {
        WorldSpec {
            procs,
            nodes,
            extra_nodes: 0,
            backend: CollBackend::Algorithmic,
            net_cfg: None,
        }
    }

    /// Ranks per node under block mapping.
    pub fn procs_per_node(&self) -> usize {
        self.procs.div_ceil(self.nodes)
    }

    /// Total fabric nodes (compute + extra).
    pub fn total_nodes(&self) -> usize {
        self.nodes + self.extra_nodes
    }
}

/// A built world: the fabric plus one [`Comm`] per rank.
pub struct World {
    /// The fabric shared by ranks and servers.
    pub net: Rc<Network>,
    /// One communicator handle per rank (`MPI_COMM_WORLD`).
    pub comms: Vec<Comm>,
    /// Compute-node count (server nodes come after).
    pub compute_nodes: usize,
}

impl World {
    /// Build fabric + communicators from a spec. Must be called inside
    /// `e10_simcore::run`.
    pub fn build(spec: &WorldSpec) -> World {
        let total = spec.total_nodes();
        let cfg = spec
            .net_cfg
            .clone()
            .unwrap_or_else(|| NetConfig::ib_qdr(total));
        let net = Rc::new(Network::new(cfg, total));
        let ppn = spec.procs_per_node();
        let node_of: Vec<NodeId> = (0..spec.procs).map(|r| r / ppn).collect();
        let coll = coll::CollShared::new(spec.backend, spec.procs);
        let comms = Comm::new_world(spec.procs, node_of, Rc::clone(&net), coll);
        World {
            net,
            comms,
            compute_nodes: spec.nodes,
        }
    }

    /// Fabric node id of the `i`-th extra (server) node.
    pub fn server_node(&self, i: usize) -> NodeId {
        self.compute_nodes + i
    }

    /// Run `f` once per rank concurrently and collect outputs by rank.
    pub async fn run_ranks<F, Fut, T>(&self, f: F) -> Vec<T>
    where
        F: Fn(Comm) -> Fut,
        Fut: Future<Output = T> + 'static,
        T: 'static,
    {
        let handles = self
            .comms
            .iter()
            .map(|c| e10_simcore::spawn(f(c.clone())))
            .collect();
        join_all(handles).await
    }
}

/// Build a world from `spec` and run `f` on every rank (the
/// `mpirun`-shaped entry point). Must be awaited inside
/// `e10_simcore::run`.
pub async fn launch<F, Fut, T>(spec: WorldSpec, f: F) -> Vec<T>
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = T> + 'static,
    T: 'static,
{
    let world = World::build(&spec);
    world.run_ranks(f).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use e10_simcore::run;

    #[test]
    fn block_mapping_places_ranks() {
        run(async {
            let outs = launch(WorldSpec::for_tests(8, 4), |comm| async move {
                (comm.rank(), comm.node())
            })
            .await;
            assert_eq!(
                outs,
                vec![
                    (0, 0),
                    (1, 0),
                    (2, 1),
                    (3, 1),
                    (4, 2),
                    (5, 2),
                    (6, 3),
                    (7, 3)
                ]
            );
        });
    }

    #[test]
    fn server_nodes_follow_compute_nodes() {
        run(async {
            let mut spec = WorldSpec::for_tests(4, 2);
            spec.extra_nodes = 3;
            let world = World::build(&spec);
            assert_eq!(world.server_node(0), 2);
            assert_eq!(world.server_node(2), 4);
            assert_eq!(world.net.nodes(), 5);
        });
    }

    #[test]
    fn intra_node_messages_skip_the_wire() {
        run(async {
            // 2 ranks on 1 node vs 2 ranks on 2 nodes: same payload,
            // intra-node must be at least as fast.
            async fn ping(spec: WorldSpec) -> f64 {
                let t0 = e10_simcore::now();
                launch(spec, |comm| async move {
                    if comm.rank() == 0 {
                        comm.send(1, 0, 10 << 20, ()).await;
                    } else {
                        comm.recv(SourceSel::Rank(0), 0).await;
                    }
                })
                .await;
                e10_simcore::now().since(t0).as_secs_f64()
            }
            let same = ping(WorldSpec::for_tests(2, 1)).await;
            let cross = ping(WorldSpec::for_tests(2, 2)).await;
            assert!(same <= cross, "same={same} cross={cross}");
        });
    }
}
