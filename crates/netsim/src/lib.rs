//! # e10-netsim
//!
//! Cluster interconnect model for the E10 reproduction: one flat,
//! InfiniBand-like switch abstracted to per-node NIC resources plus a
//! shared switch-core (bisection) resource, with LogGP-style per-message
//! latency and software overhead.
//!
//! A message from node A to node B costs
//! `overhead + latency + max(time on A's TX NIC, core, B's RX NIC)`,
//! where each resource is bandwidth-shared ([`e10_simcore::FairShare`])
//! among concurrent transfers — so an all-to-all burst between 64 nodes
//! experiences realistic NIC saturation, while a single stream gets the
//! full link rate.
//!
//! Intra-node transfers bypass the fabric and are charged to a per-node
//! memory bus resource instead (the paper's point (e): collective I/O
//! stresses node memory bandwidth during the shuffle).

use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_simcore::{FairShare, FixedJoin, SimDuration};

/// Index of a node in the cluster.
pub type NodeId = usize;

/// Fabric and node parameters.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// One-way wire latency per message.
    pub latency: SimDuration,
    /// Per-message CPU/software overhead (LogGP `o`).
    pub overhead: SimDuration,
    /// Per-node NIC bandwidth in bytes/s, each direction.
    pub node_bw: f64,
    /// Switch-core (bisection) bandwidth in bytes/s shared by all
    /// inter-node traffic.
    pub bisection_bw: f64,
    /// Per-node memory-copy bandwidth in bytes/s for intra-node
    /// transfers and buffer packing.
    pub mem_bw: f64,
}

impl NetConfig {
    /// InfiniBand QDR-like defaults matching the DEEP-ER testbed: ~3.2
    /// GB/s per port, 1.3 us latency, non-blocking core.
    pub fn ib_qdr(nodes: usize) -> Self {
        NetConfig {
            latency: SimDuration::from_nanos(1_300),
            overhead: SimDuration::from_nanos(600),
            node_bw: 3.2e9,
            bisection_bw: 3.2e9 * (nodes as f64 / 2.0).max(1.0),
            mem_bw: 6.0e9,
        }
    }
}

/// The simulated fabric: construct once per experiment and share.
pub struct Network {
    cfg: NetConfig,
    tx: Vec<FairShare>,
    rx: Vec<FairShare>,
    core: FairShare,
    mem: Vec<FairShare>,
}

impl Network {
    /// Build a fabric connecting `nodes` nodes.
    pub fn new(cfg: NetConfig, nodes: usize) -> Self {
        assert!(nodes > 0);
        Network {
            tx: (0..nodes).map(|_| FairShare::new(cfg.node_bw)).collect(),
            rx: (0..nodes).map(|_| FairShare::new(cfg.node_bw)).collect(),
            core: FairShare::new(cfg.bisection_bw),
            mem: (0..nodes).map(|_| FairShare::new(cfg.mem_bw)).collect(),
            cfg,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.tx.len()
    }

    /// Fabric parameters.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Move `bytes` from `src` to `dst`, returning when the last byte
    /// has arrived. Zero-byte messages still pay latency + overhead
    /// (they are real control messages).
    pub async fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) {
        trace::emit(|| {
            Event::new(Layer::Netsim, "transfer", EventKind::Begin)
                .node(src)
                .field("dst", dst)
                .field("bytes", bytes)
        });
        trace::counter("netsim.messages", 1);
        trace::counter("netsim.bytes", bytes);
        self.transfer_inner(src, dst, bytes).await;
        trace::emit(|| {
            Event::new(Layer::Netsim, "transfer", EventKind::End)
                .node(src)
                .field("dst", dst)
                .field("bytes", bytes)
                .field("core_bytes", self.core.work_done())
        });
    }

    async fn transfer_inner(&self, src: NodeId, dst: NodeId, bytes: u64) {
        e10_simcore::sleep(self.cfg.overhead).await;
        if src == dst {
            // Intra-node: one memcpy through the node's memory system.
            self.mem[src].serve(bytes as f64).await;
            return;
        }
        // Injected link fault: a dropped-and-retransmitted or delayed
        // message. The transport stays reliable (InfiniBand-style); the
        // fault costs only time.
        if let Some(extra) = e10_faultsim::link_fault(src, dst) {
            e10_simcore::sleep(extra).await;
        }
        e10_simcore::sleep(self.cfg.latency).await;
        if bytes == 0 {
            return;
        }
        // The stream occupies TX NIC, RX NIC and switch core
        // concurrently; completion is gated by the slowest.
        let work = bytes as f64;
        {
            let mut join: FixedJoin<_, 3> = FixedJoin::new();
            join.push(self.tx[src].serve(work));
            join.push(self.rx[dst].serve(work));
            join.push(self.core.serve(work));
            join
        }
        .await;
    }

    /// Charge a local memory copy of `bytes` on `node` (e.g. packing
    /// data into a collective buffer).
    pub async fn local_copy(&self, node: NodeId, bytes: u64) {
        trace::emit(|| {
            Event::new(Layer::Netsim, "local_copy", EventKind::Point)
                .node(node)
                .field("bytes", bytes)
        });
        trace::counter("netsim.local_copy_bytes", bytes);
        self.mem[node].serve(bytes as f64).await;
    }

    /// Total bytes moved through the switch core so far.
    pub fn core_bytes(&self) -> f64 {
        self.core.work_done()
    }

    /// Transfers completed on a node's TX side.
    pub fn tx_jobs(&self, node: NodeId) -> u64 {
        self.tx[node].jobs_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e10_simcore::{join_all, now, run, spawn};

    fn test_cfg() -> NetConfig {
        NetConfig {
            latency: SimDuration::from_micros(1),
            overhead: SimDuration::ZERO,
            node_bw: 1000.0, // bytes per second, easy arithmetic
            bisection_bw: 10_000.0,
            mem_bw: 4000.0,
        }
    }

    #[test]
    fn single_stream_gets_full_link_rate() {
        let t = run(async {
            let net = Network::new(test_cfg(), 4);
            net.transfer(0, 1, 1000).await;
            now().as_secs_f64()
        });
        // 1 us latency + 1000 B at 1000 B/s = 1 s.
        assert!((t - 1.000001).abs() < 1e-5, "t={t}");
    }

    #[test]
    fn incast_shares_receiver_nic() {
        let t = run(async {
            let net = std::rc::Rc::new(Network::new(test_cfg(), 4));
            let mut hs = Vec::new();
            for src in 1..4 {
                let net = std::rc::Rc::clone(&net);
                hs.push(spawn(async move {
                    net.transfer(src, 0, 1000).await;
                }));
            }
            join_all(hs).await;
            now().as_secs_f64()
        });
        // 3 senders into one 1000 B/s RX NIC: 3000 B total → ~3 s.
        assert!((t - 3.0).abs() < 0.01, "t={t}");
    }

    #[test]
    fn disjoint_pairs_do_not_interfere() {
        let t = run(async {
            let net = std::rc::Rc::new(Network::new(test_cfg(), 4));
            let a = {
                let net = std::rc::Rc::clone(&net);
                spawn(async move { net.transfer(0, 1, 1000).await })
            };
            let b = {
                let net = std::rc::Rc::clone(&net);
                spawn(async move { net.transfer(2, 3, 1000).await })
            };
            a.await;
            b.await;
            now().as_secs_f64()
        });
        assert!((t - 1.000001).abs() < 1e-5, "t={t}");
    }

    #[test]
    fn bisection_limits_aggregate() {
        let mut cfg = test_cfg();
        cfg.bisection_bw = 1500.0; // below 2 × node_bw
        let t = run(async {
            let net = std::rc::Rc::new(Network::new(cfg, 4));
            let mut hs = Vec::new();
            for (s, d) in [(0usize, 1usize), (2, 3)] {
                let net = std::rc::Rc::clone(&net);
                hs.push(spawn(async move { net.transfer(s, d, 1500).await }));
            }
            join_all(hs).await;
            now().as_secs_f64()
        });
        // 3000 B through a 1500 B/s core → 2 s (each stream alone would
        // take 1.5 s on its NIC; the core is the gate).
        assert!((t - 2.0).abs() < 0.01, "t={t}");
    }

    #[test]
    fn intra_node_uses_memory_bus() {
        let t = run(async {
            let net = Network::new(test_cfg(), 2);
            net.transfer(1, 1, 4000).await;
            now().as_secs_f64()
        });
        assert!((t - 1.0).abs() < 1e-6, "t={t}"); // 4000 B at 4000 B/s
    }

    #[test]
    fn zero_byte_message_costs_latency_only() {
        let t = run(async {
            let net = Network::new(test_cfg(), 2);
            net.transfer(0, 1, 0).await;
            now().as_secs_f64()
        });
        assert!((t - 1e-6).abs() < 1e-9, "t={t}");
    }

    #[test]
    fn counters_accumulate() {
        run(async {
            let net = Network::new(test_cfg(), 2);
            net.transfer(0, 1, 500).await;
            net.transfer(0, 1, 500).await;
            assert_eq!(net.core_bytes(), 1000.0);
            assert_eq!(net.tx_jobs(0), 2);
        });
    }

    #[test]
    fn link_fault_adds_exactly_the_declared_delay() {
        let base = run(async {
            let net = Network::new(test_cfg(), 4);
            net.transfer(0, 1, 1000).await;
            now().as_secs_f64()
        });
        let faulted = run(async {
            let _g =
                e10_faultsim::FaultSchedule::install(e10_faultsim::FaultPlan::new(3).link_fault(
                    Some(0),
                    Some(1),
                    e10_faultsim::always(),
                    1.0,
                    SimDuration::from_secs(2),
                ));
            let net = Network::new(test_cfg(), 4);
            net.transfer(0, 1, 1000).await;
            now().as_secs_f64()
        });
        assert!(
            (faulted - base - 2.0).abs() < 1e-6,
            "faulted={faulted} base={base}"
        );
    }

    #[test]
    fn intra_node_transfers_never_see_link_faults() {
        let (a, b) = run(async {
            let net = Network::new(test_cfg(), 2);
            net.transfer(1, 1, 4000).await;
            let a = now().as_secs_f64();
            let _g =
                e10_faultsim::FaultSchedule::install(e10_faultsim::FaultPlan::new(3).link_fault(
                    None,
                    None,
                    e10_faultsim::always(),
                    1.0,
                    SimDuration::from_secs(9),
                ));
            net.transfer(1, 1, 4000).await;
            (a, now().as_secs_f64() - a)
        });
        assert!(
            (a - b).abs() < 1e-9,
            "memcpy path must be immune: {a} vs {b}"
        );
    }

    #[test]
    fn ib_qdr_defaults_are_sane() {
        let cfg = NetConfig::ib_qdr(64);
        assert!(cfg.node_bw > 1e9);
        assert!(cfg.bisection_bw >= cfg.node_bw);
    }
}
