//! File-domain partitioning and aggregator selection for the extended
//! two-phase algorithm (`ADIOI_Calc_file_domains` /
//! `ADIOI_Calc_aggregator`).

use crate::hints::FdStrategy;

/// The file domains of one collective operation: aggregator `i` owns
/// `[starts[i], ends[i])` (possibly empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileDomains {
    /// Domain start per aggregator.
    pub starts: Vec<u64>,
    /// Domain end (exclusive) per aggregator.
    pub ends: Vec<u64>,
}

impl FileDomains {
    /// Partition `[min_st, max_end)` over `naggs` aggregators.
    pub fn compute(
        min_st: u64,
        max_end: u64,
        naggs: usize,
        strategy: FdStrategy,
        stripe_unit: u64,
    ) -> FileDomains {
        assert!(naggs > 0);
        assert!(max_end >= min_st);
        let total = max_end - min_st;
        let mut starts = Vec::with_capacity(naggs);
        let mut ends = Vec::with_capacity(naggs);
        match strategy {
            FdStrategy::Even => {
                // ROMIO: fd_size = ceil(total / naggs); trailing domains
                // may be empty.
                let fd = total.div_ceil(naggs as u64).max(1);
                for a in 0..naggs as u64 {
                    let s = (min_st + a * fd).min(max_end);
                    let e = (min_st + (a + 1) * fd).min(max_end);
                    starts.push(s);
                    ends.push(e);
                }
            }
            FdStrategy::StripeAligned => {
                // Boundaries rounded up to stripe-unit multiples
                // (absolute file offsets), so no two domains share a
                // stripe — the Lustre/BeeGFS driver behaviour.
                assert!(stripe_unit > 0, "stripe-aligned FDs need a stripe unit");
                // Align the base down so every boundary is stripe-aligned,
                // and size domains from the *aligned* span so they still
                // cover the whole range.
                let base = (min_st / stripe_unit) * stripe_unit;
                let aligned_total = max_end - base;
                let fd = aligned_total.div_ceil(naggs as u64).max(1);
                let fd = fd.div_ceil(stripe_unit) * stripe_unit;
                for a in 0..naggs as u64 {
                    let s = (base + a * fd).clamp(min_st, max_end);
                    let e = (base + (a + 1) * fd).clamp(min_st, max_end);
                    starts.push(s);
                    ends.push(e);
                }
            }
        }
        FileDomains { starts, ends }
    }

    /// Number of aggregators.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True if there are no domains.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Size of domain `a`.
    pub fn size(&self, a: usize) -> u64 {
        self.ends[a] - self.starts[a]
    }

    /// Largest domain size (drives the number of two-phase rounds).
    pub fn max_size(&self) -> u64 {
        (0..self.len()).map(|a| self.size(a)).max().unwrap_or(0)
    }

    /// Aggregator `a`'s window of two-phase round `round`: the
    /// `round`-th `cb`-byte slice of its domain, clipped to the domain's
    /// end (empty once the domain is used up). A window starts where
    /// the previous round's ended.
    pub fn window(&self, a: usize, cb: u64, round: u64) -> (u64, u64) {
        let ws = (self.starts[a] + round * cb).min(self.ends[a]);
        let we = (self.starts[a] + (round + 1) * cb).min(self.ends[a]);
        (ws, we)
    }

    /// The aggregator whose domain contains file offset `off`, if any.
    pub fn aggregator_of(&self, off: u64) -> Option<usize> {
        // Domains are sorted and disjoint: binary search on starts.
        let idx = self.starts.partition_point(|&s| s <= off);
        if idx == 0 {
            return None;
        }
        let a = idx - 1;
        (off < self.ends[a]).then_some(a)
    }

    /// Check invariants: sorted, disjoint, covering exactly
    /// `[min_st, max_end)`.
    pub fn validate(&self, min_st: u64, max_end: u64) -> Result<(), String> {
        let mut pos = min_st;
        for a in 0..self.len() {
            if self.starts[a] > self.ends[a] {
                return Err(format!("domain {a} inverted"));
            }
            if self.starts[a] != pos {
                return Err(format!(
                    "domain {a} starts at {} expected {pos}",
                    self.starts[a]
                ));
            }
            pos = self.ends[a];
        }
        if pos != max_end {
            return Err(format!("domains end at {pos}, expected {max_end}"));
        }
        Ok(())
    }
}

/// Select which ranks act as aggregators (`cb_nodes` of them), spread
/// one-per-node first in node order, then wrapping — ROMIO's default
/// `cb_config_list` behaviour.
pub fn select_aggregators(node_of: &[usize], cb_nodes: usize) -> Vec<usize> {
    select_aggregators_capped(node_of, cb_nodes, usize::MAX)
}

/// Like [`select_aggregators`], with at most `max_per_node` aggregators
/// placed on any one node (the `cb_config_list = "*:N"` hint).
///
/// Layer `k` is every node's `k`-th rank, nodes ascending; the layers
/// are taken in order until `cb_nodes` ranks are chosen. Every rank of
/// every open elects, so this is one allocation — the answer — and no
/// list of ranks per node: layer 0 is found by one pass over the map,
/// using the answer as the table of each node's lowest rank, and every
/// later pick is the next rank of the node the previous layer's pick
/// (same position, one layer back) sits on.
pub fn select_aggregators_capped(
    node_of: &[usize],
    cb_nodes: usize,
    max_per_node: usize,
) -> Vec<usize> {
    assert!(cb_nodes > 0);
    assert!(max_per_node > 0);
    let nnodes = node_of.iter().copied().max().map_or(0, |m| m + 1);
    let cb_nodes = cb_nodes.min(node_of.len());
    let mut aggs = Vec::with_capacity(nnodes.max(cb_nodes));
    aggs.resize(nnodes, usize::MAX);
    for (rank, &n) in node_of.iter().enumerate().rev() {
        aggs[n] = rank;
    }
    // Nodes without ranks have no layer 0.
    aggs.retain(|&r| r != usize::MAX);
    aggs.truncate(cb_nodes);
    let (mut from, mut layer) = (0, 1);
    while aggs.len() < cb_nodes && layer < max_per_node {
        let to = aggs.len();
        for i in from..to {
            let prev = aggs[i];
            let n = node_of[prev];
            if let Some(gap) = node_of[prev + 1..].iter().position(|&m| m == n) {
                aggs.push(prev + 1 + gap);
                if aggs.len() == cb_nodes {
                    break;
                }
            }
        }
        if aggs.len() == to {
            break;
        }
        (from, layer) = (to, layer + 1);
    }
    aggs
}

/// The node-leader rank of every node — the lowest rank mapped to it,
/// which is rank 0 of the node's intra-node subcommunicator
/// ([`e10_mpisim::Comm::split_by_node`] orders by rank). Indexed by
/// node id; the `e10_two_phase = node_agg` pre-phase gathers to these
/// ranks.
pub fn node_leaders(node_of: &[usize]) -> Vec<usize> {
    let nnodes = node_of.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    let mut leaders = vec![usize::MAX; nnodes];
    for (rank, &n) in node_of.iter().enumerate() {
        if leaders[n] == usize::MAX {
            leaders[n] = rank;
        }
    }
    leaders
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn node_leaders_are_lowest_rank_per_node() {
        // Blocked placement: 2 nodes × 3 ranks.
        assert_eq!(node_leaders(&[0, 0, 0, 1, 1, 1]), vec![0, 3]);
        // Round-robin placement.
        assert_eq!(node_leaders(&[0, 1, 0, 1]), vec![0, 1]);
        assert!(node_leaders(&[]).is_empty());
    }

    #[test]
    fn even_partition_covers_range() {
        let fd = FileDomains::compute(100, 1100, 4, FdStrategy::Even, 64);
        fd.validate(100, 1100).unwrap();
        assert_eq!(fd.size(0), 250);
        assert_eq!(fd.max_size(), 250);
    }

    #[test]
    fn even_partition_with_remainder_and_empties() {
        let fd = FileDomains::compute(0, 10, 4, FdStrategy::Even, 64);
        fd.validate(0, 10).unwrap();
        // ceil(10/4)=3: domains 3,3,3,1.
        assert_eq!(fd.size(0), 3);
        assert_eq!(fd.size(3), 1);
        let fd = FileDomains::compute(0, 2, 4, FdStrategy::Even, 64);
        fd.validate(0, 2).unwrap();
        assert_eq!(fd.size(2) + fd.size(3), 0);
    }

    #[test]
    fn aligned_partition_boundaries_are_stripe_multiples() {
        let unit = 4 << 20;
        let fd = FileDomains::compute(0, 33 * (1u64 << 20), 4, FdStrategy::StripeAligned, unit);
        fd.validate(0, 33 << 20).unwrap();
        for a in 0..fd.len() - 1 {
            // All interior boundaries stripe-aligned.
            if fd.ends[a] != 33 << 20 {
                assert_eq!(fd.ends[a] % unit, 0, "boundary {a} unaligned");
            }
        }
    }

    #[test]
    fn aligned_partition_with_unaligned_min_start() {
        let unit = 100;
        let fd = FileDomains::compute(250, 1250, 3, FdStrategy::StripeAligned, unit);
        fd.validate(250, 1250).unwrap();
        // Interior boundaries must be multiples of the unit.
        for a in 0..fd.len() - 1 {
            if fd.ends[a] != 1250 && fd.ends[a] != 250 {
                assert_eq!(fd.ends[a] % unit, 0);
            }
        }
    }

    #[test]
    fn aggregator_of_maps_offsets() {
        let fd = FileDomains::compute(0, 400, 4, FdStrategy::Even, 1);
        assert_eq!(fd.aggregator_of(0), Some(0));
        assert_eq!(fd.aggregator_of(99), Some(0));
        assert_eq!(fd.aggregator_of(100), Some(1));
        assert_eq!(fd.aggregator_of(399), Some(3));
        assert_eq!(fd.aggregator_of(400), None);
    }

    #[test]
    fn empty_range() {
        let fd = FileDomains::compute(50, 50, 3, FdStrategy::Even, 8);
        fd.validate(50, 50).unwrap();
        assert_eq!(fd.max_size(), 0);
        assert_eq!(fd.aggregator_of(50), None);
    }

    #[test]
    fn aggregators_spread_one_per_node_first() {
        // 8 ranks on 4 nodes, block mapping.
        let node_of = vec![0, 0, 1, 1, 2, 2, 3, 3];
        assert_eq!(select_aggregators(&node_of, 4), vec![0, 2, 4, 6]);
        assert_eq!(select_aggregators(&node_of, 2), vec![0, 2]);
        // Wrapping picks second rank per node.
        assert_eq!(select_aggregators(&node_of, 6), vec![0, 2, 4, 6, 1, 3]);
    }

    #[test]
    fn aggregators_clamped_to_comm_size() {
        let node_of = vec![0, 1];
        assert_eq!(select_aggregators(&node_of, 10), vec![0, 1]);
    }

    /// The election as it was first written — every node's ranks listed
    /// out, then dealt layer by layer — kept as the oracle.
    fn reference_election(node_of: &[usize], cb_nodes: usize, max_per_node: usize) -> Vec<usize> {
        let nnodes = node_of.iter().copied().max().map(|m| m + 1).unwrap_or(0);
        let mut per_node: Vec<Vec<usize>> = vec![Vec::new(); nnodes];
        for (rank, &n) in node_of.iter().enumerate() {
            per_node[n].push(rank);
        }
        let cb_nodes = cb_nodes.min(node_of.len());
        let mut aggs = Vec::with_capacity(cb_nodes);
        let mut layer = 0;
        while aggs.len() < cb_nodes && layer < max_per_node {
            let mut progressed = false;
            for ranks in &per_node {
                if let Some(&r) = ranks.get(layer) {
                    aggs.push(r);
                    progressed = true;
                    if aggs.len() == cb_nodes {
                        break;
                    }
                }
            }
            if !progressed {
                break;
            }
            layer += 1;
        }
        aggs
    }

    proptest! {
        /// The election picks exactly the reference's ranks in the
        /// reference's order, on blocked, round-robin and uneven
        /// placements — some with node ids no rank maps to — for every
        /// `cb_nodes` from one to past the rank count and per-node caps
        /// of one to four or none.
        #[test]
        fn election_is_the_per_node_reference(
            p in 1usize..24,
            nnodes in 1usize..8,
            shape in 0u8..5,
            draws in prop::collection::vec(0usize..8, 24..25),
            cb in 0usize..64,
            cap in 1usize..6,
        ) {
            let node_of: Vec<usize> = match shape {
                0 => (0..p).map(|r| r * nnodes / p).collect(),
                1 => (0..p).map(|r| r % nnodes).collect(),
                // Uneven blocks.
                2 => {
                    let mut m: Vec<usize> = draws[..p].iter().map(|d| d % nnodes).collect();
                    m.sort_unstable();
                    m
                }
                // Scattered, with every other node id (at least) empty.
                3 => draws[..p].iter().map(|d| 2 * (d % nnodes) + 1).collect(),
                _ => draws[..p].iter().map(|d| d % nnodes).collect(),
            };
            let cb_nodes = 1 + cb % (p + 2);
            let max_per_node = if cap == 5 { usize::MAX } else { cap };
            prop_assert_eq!(
                select_aggregators_capped(&node_of, cb_nodes, max_per_node),
                reference_election(&node_of, cb_nodes, max_per_node),
                "map {:?}, cb_nodes {}, cap {}", node_of, cb_nodes, max_per_node
            );
        }
    }
}
