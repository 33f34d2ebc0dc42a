//! pfs: the global file system's client path as the aggregators (and
//! the cache's sync threads) use it — stripe-sized chunks from 64
//! client nodes onto 4 data targets.

use std::rc::Rc;

use e10_pfs::lock::LockMode;
use e10_pfs::{PfsHandle, Striping};
use e10_romio::{Testbed, TestbedSpec};
use e10_simcore::{join_all, spawn};
use e10_storesim::Payload;

use super::{sim_cost, Cost, Meter};

const MB4: u64 = 4 << 20;
const CLIENTS: u64 = 64;

/// The paper testbed's servers and fabric, with 64 one-rank nodes as
/// clients (the testbed is only the wiring; the calls below go to
/// `e10_pfs` directly).
fn testbed() -> Testbed {
    let mut spec = TestbedSpec::deep_er();
    spec.procs = CLIENTS as usize;
    spec.nodes = CLIENTS as usize;
    spec.build()
}

fn paper_striping() -> Striping {
    Striping {
        unit: Some(MB4),
        count: Some(4),
    }
}

/// Every client writes `per_client` consecutive stripes of its own
/// region; one operation = one chunk.
async fn write_all(h: &PfsHandle, per_client: u64) {
    let hs: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let h = h.clone();
            spawn(async move {
                for i in 0..per_client {
                    let off = (c * per_client + i) * MB4;
                    h.write(c as usize, off, Payload::gen(1, off, MB4))
                        .await
                        .expect("pfs write");
                }
            })
        })
        .collect();
    join_all(hs).await;
}

pub fn all() -> Vec<(&'static str, Cost)> {
    vec![
        sim_cost("pfs.write_chunk_ns", CLIENTS * 32, |ops| async move {
            let tb = testbed();
            let h = tb.pfs.create(0, "/gfs/w", paper_striping()).await;
            let m = Meter::start();
            write_all(&h, ops / CLIENTS).await;
            m.stop()
        }),
        sim_cost("pfs.read_chunk_ns", CLIENTS * 32, |ops| async move {
            let tb = testbed();
            let h = tb.pfs.create(0, "/gfs/r", paper_striping()).await;
            write_all(&h, ops / CLIENTS).await;
            let per_client = ops / CLIENTS;
            let m = Meter::start();
            let hs: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let h = h.clone();
                    spawn(async move {
                        for i in 0..per_client {
                            let off = (c * per_client + i) * MB4;
                            h.read(c as usize, off, MB4).await.expect("pfs read");
                        }
                    })
                })
                .collect();
            join_all(hs).await;
            m.stop()
        }),
        // Coherent-mode extent locks: one metadata RPC + a grant.
        sim_cost("pfs.lock_ns", CLIENTS * 32, |ops| async move {
            let tb = testbed();
            let h = tb.pfs.create(0, "/gfs/l", paper_striping()).await;
            let per_client = ops / CLIENTS;
            let m = Meter::start();
            let hs: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let h = h.clone();
                    spawn(async move {
                        for i in 0..per_client {
                            let off = (c * per_client + i) * MB4;
                            drop(
                                h.lock_extent(c as usize, off..off + MB4, LockMode::Exclusive)
                                    .await,
                            );
                        }
                    })
                })
                .collect();
            join_all(hs).await;
            m.stop()
        }),
        // Open + close of an existing file from every client node.
        sim_cost("pfs.open_ns", CLIENTS * 32, |ops| async move {
            let tb = testbed();
            tb.pfs.create(0, "/gfs/o", paper_striping()).await;
            let per_client = ops / CLIENTS;
            let m = Meter::start();
            let hs: Vec<_> = (0..CLIENTS as usize)
                .map(|c| {
                    let pfs = Rc::clone(&tb.pfs);
                    spawn(async move {
                        for _ in 0..per_client {
                            let h = pfs.open(c, "/gfs/o").await.expect("pfs open");
                            h.close(c).await;
                        }
                    })
                })
                .collect();
            join_all(hs).await;
            m.stop()
        }),
    ]
}
