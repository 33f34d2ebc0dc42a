//! netsim: fabric transfers at the shuffle's shape and local copies.

use std::rc::Rc;

use e10_netsim::{NetConfig, Network};
use e10_simcore::{join_all, spawn};

use super::{sim_cost, Cost, Meter};

/// Compute nodes + MDS + 4 data targets, as the testbed builds it.
const NODES: usize = 69;

pub fn all() -> Vec<(&'static str, Cost)> {
    vec![
        // 64 senders, one per compute node, each streaming 64 KB
        // messages to a rotating set of peers: the data-shuffle shape.
        sim_cost("netsim.transfer_ns", 64 * 200, |ops| async move {
            let net = Rc::new(Network::new(NetConfig::ib_qdr(NODES), NODES));
            let m = Meter::start();
            let hs: Vec<_> = (0..64usize)
                .map(|src| {
                    let net = Rc::clone(&net);
                    spawn(async move {
                        for i in 0..(ops / 64) as usize {
                            net.transfer(src, (src + 1 + i % 63) % 64, 64 << 10).await;
                        }
                    })
                })
                .collect();
            join_all(hs).await;
            m.stop()
        }),
        // Packing a 4 MB collective buffer on 64 aggregator nodes.
        sim_cost("netsim.local_copy_ns", 64 * 800, |ops| async move {
            let net = Rc::new(Network::new(NetConfig::ib_qdr(NODES), NODES));
            let m = Meter::start();
            let hs: Vec<_> = (0..64usize)
                .map(|node| {
                    let net = Rc::clone(&net);
                    spawn(async move {
                        for _ in 0..ops / 64 {
                            net.local_copy(node, 4 << 20).await;
                        }
                    })
                })
                .collect();
            join_all(hs).await;
            m.stop()
        }),
    ]
}
