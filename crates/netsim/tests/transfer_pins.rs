//! Exact pins of the fabric model: a fixed mix of concurrent transfers
//! on four nodes, each one's completion instant by its bits, plus the
//! switch-core bytes and every node's TX job count. The mix covers an
//! intra-node copy, a zero-byte control message, plain inter-node
//! streams, a many-to-one burst onto one RX NIC through a core narrower
//! than the NICs, and one delayed link. A refactor of `transfer` must
//! leave every value below bit-identical.

use std::cell::RefCell;
use std::rc::Rc;

use e10_faultsim::{always, injected_count, FaultPlan, FaultSchedule};
use e10_netsim::{NetConfig, Network};
use e10_simcore::{join_all, now, run, sleep, spawn, SimDuration};

/// `(label, src, dst, bytes, start µs)` of every transfer in the mix.
const MIX: [(&str, usize, usize, u64, u64); 9] = [
    ("intra 2->2", 2, 2, 3 << 20, 0),
    ("zero 0->1", 0, 1, 0, 0),
    ("plain 0->1", 0, 1, 1 << 20, 0),
    ("incast 0->3", 0, 3, 2 << 20, 5),
    ("incast 1->3", 1, 3, 2 << 20, 5),
    ("incast 2->3", 2, 3, 2 << 20, 7),
    ("faulted 1->2", 1, 2, 1 << 20, 10),
    ("late 3->0", 3, 0, 512 << 10, 300),
    ("late zero 2->0", 2, 0, 0, 301),
];

fn mix_lines() -> Vec<String> {
    let _faults = FaultSchedule::install(FaultPlan::new(7).link_fault(
        Some(1),
        Some(2),
        always(),
        1.0,
        SimDuration::from_micros(40),
    ));
    run(async {
        let cfg = NetConfig {
            // Narrower than two NICs, so the incast also queues on the
            // core.
            bisection_bw: 5.0e9,
            ..NetConfig::ib_qdr(4)
        };
        let net = Rc::new(Network::new(cfg, 4));
        let done = Rc::new(RefCell::new(Vec::new()));
        let tasks = MIX
            .iter()
            .map(|&(label, src, dst, bytes, start_us)| {
                let (net, done) = (Rc::clone(&net), Rc::clone(&done));
                spawn(async move {
                    sleep(SimDuration::from_micros(start_us)).await;
                    net.transfer(src, dst, bytes).await;
                    let t = now().as_secs_f64();
                    done.borrow_mut()
                        .push(format!("{label} done_bits={:#x}", t.to_bits()));
                })
            })
            .collect();
        join_all(tasks).await;
        let mut lines = done.take();
        lines.push(format!("core_bytes={}", net.core_bytes()));
        lines.extend((0..4).map(|n| format!("tx_jobs[{n}]={}", net.tx_jobs(n))));
        lines.push(format!("link_faults={}", injected_count()));
        lines
    })
}

#[test]
fn transfer_mix_is_pinned() {
    let want = [
        "zero 0->1 done_bits=0x3ebfe07017c01026",
        "late zero 2->0 done_bits=0x3f33d9d1980da85f",
        "intra 2->2 done_bits=0x3f41331465a3d9f6",
        "late 3->0 done_bits=0x3f4e822e0f7f4654",
        "plain 0->1 done_bits=0x3f52674193da4e26",
        "faulted 1->2 done_bits=0x3f537aaefb5e384d",
        "incast 0->3 done_bits=0x3f60278ab377bc24",
        "incast 1->3 done_bits=0x3f60278ab377bc24",
        "incast 2->3 done_bits=0x3f6029a3926bd2e2",
        "core_bytes=8912896.000000002",
        "tx_jobs[0]=2",
        "tx_jobs[1]=2",
        "tx_jobs[2]=1",
        "tx_jobs[3]=1",
        "link_faults=1",
    ];
    assert_eq!(mix_lines(), want);
}
