//! Intra-node request aggregation (`e10_two_phase = node_agg`): the
//! third two-phase variant, after Kang et al. (arXiv:1907.12656).
//!
//! The extended two-phase protocol ships every rank's noncontiguous
//! pieces across the network to the aggregators — with many ranks per
//! node, one aggregator window receives one message *per rank per
//! node* even though the ranks of a node usually hold adjacent slices
//! of the file. This module is the **pre-stage**
//! [`crate::collective::two_phase_write`] runs in front of the rounds
//! for this variant — it holds no write loop of its own:
//!
//! 1. the ranks of a node gather their offset/length lists and data
//!    to the **node leader** (the node's lowest rank) over the
//!    intra-node fabric ([`gather_to_leader`]). The communicator comes
//!    from the caller: [`e10_mpisim::Comm::split_by_node`] (MPI's
//!    `MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)`) on the plain path;
//!    the survivor communicator itself on the crash-tolerant one, so
//!    a conviction made during the gather shrinks the redo,
//! 2. the leader sorts the union by file offset and merges adjacent
//!    continuing pieces, in place, into one per-node aggregated request
//!    list ([`crate::collective::merge_continuing`]) — when the E10 cache
//!    is enabled the aggregated buffer is staged straight into the
//!    node-local cache device on the way ([`stage_into_cache`]),
//! 3. the rounds then run over the reduced request set
//!    ([`MergedNode::window_into`]): only leaders feed the shuffle, so
//!    each aggregator window receives at most one message per *node*
//!    instead of one per *rank*, with fewer per-piece headers.
//!
//! Every rank still joins the collective steps (offset exchange,
//! per-round size exchange, settle/finish), so the variant composes
//! with the existing aggregator selection, deferred open, cache
//! machinery and either transport unchanged, and the file bytes
//! produced are identical to the stock and extended algorithms.
//!
//! Telemetry: `coll.node_agg.merged_reqs` counts pieces eliminated by
//! the leader's merge, `coll.node_agg.shuffle_bytes_saved` the
//! inter-node wire bytes (32-byte envelopes + 16-byte piece headers)
//! the aggregation removed relative to the extended algorithm, and
//! `coll.node_agg.staged_bytes` what the leader staged into the
//! node-local cache.

use std::fmt::Write;

use e10_mpisim::{Comm, FileView, Request};
use e10_simcore::trace::counter;
use e10_storesim::Payload;

use crate::adio::{AdioFile, DataSpec};
use crate::collective::{merge_continuing, sort_by_offset, Provenance, Transport, GATHER_TAG};
use crate::fd::FileDomains;

/// The node's aggregated request list, held by the node leader, and
/// the buffers it is built in. Part of the rank's round scratch
/// ([`crate::collective::RoundScratch`]), so a warm call's pre-stage
/// allocates nothing for it.
#[derive(Default)]
pub(crate) struct MergedNode {
    /// Merged `(file_offset, payload)` pieces, sorted by offset.
    pieces: Vec<(u64, Payload)>,
    /// Prefix maximum of merged piece end offsets (window stabbing).
    pmax: Vec<u64>,
    /// Raw pre-merge extents `(offset, length, rank)`, sorted by offset
    /// — the provenance behind the savings counters.
    raw: Vec<(u64, u64, usize)>,
    /// Prefix maximum of raw extent end offsets.
    rmax: Vec<u64>,
    /// What the gather brought in, in gather order, and its sort keys.
    gathered: Vec<(u64, Payload)>,
    order: Vec<(u64, u32)>,
    /// The gather's receives.
    pending: Vec<Request>,
    /// The distinct ranks behind one window ([`MergedNode::window_into`]).
    origins: Vec<usize>,
    /// The staging file's path.
    stage_path: String,
}

/// `out` filled with the running maximum of `ends`.
fn prefix_max_into(out: &mut Vec<u64>, ends: impl Iterator<Item = u64>) {
    let mut max = 0u64;
    out.clear();
    out.extend(ends.map(|e| {
        max = max.max(e);
        max
    }));
}

impl MergedNode {
    /// Empty every buffer, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.pieces.clear();
        self.pmax.clear();
        self.raw.clear();
        self.rmax.clear();
        self.gathered.clear();
        self.order.clear();
        self.pending.clear();
        self.origins.clear();
    }

    /// Sort what was gathered by offset — ties in gather order, so the
    /// merged list is deterministic for any arrival interleaving — and
    /// merge continuing neighbours into the aggregated list; sort the
    /// raw extents and index both lists for window queries. Returns how
    /// many pieces the merge eliminated.
    fn merge(&mut self) -> u64 {
        sort_by_offset(&mut self.gathered, &mut self.order, &mut self.pieces);
        let raw_count = self.pieces.len();
        merge_continuing(&mut self.pieces);
        // Which of two extents at one offset comes first changes no
        // window's provenance.
        self.raw.sort_unstable();
        let pieces = self.pieces.iter();
        prefix_max_into(&mut self.pmax, pieces.map(|&(off, ref p)| off + p.len));
        let raw = self.raw.iter();
        prefix_max_into(&mut self.rmax, raw.map(|&(off, len, _)| off + len));
        (raw_count - self.pieces.len()) as u64
    }

    /// Total payload bytes of the aggregated request.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.pieces.iter().map(|(_, p)| p.len).sum()
    }

    /// How many non-empty domains of `fds` the aggregated pieces meet:
    /// no round has more windows with pieces in them. One search per
    /// domain, as a round's walk over the windows costs.
    pub(crate) fn domains_met(&self, fds: &FileDomains) -> usize {
        let domains = fds.starts.iter().zip(&fds.ends);
        domains
            .filter(|&(&start, &end)| {
                // The first piece ending past `start` starts first of
                // those that do.
                let first = self.pmax.partition_point(|&e| e <= start);
                start < end && self.pieces.get(first).is_some_and(|&(off, _)| off < end)
            })
            .count()
    }

    /// Fill `out` with the aggregated pieces intersecting `[lo, hi)`,
    /// clipped to it, and return the pre-aggregation provenance for the
    /// same window: how many distinct ranks (= shuffle messages under
    /// the extended algorithm) and raw pieces the window's data came
    /// from.
    pub(crate) fn window_into(
        &mut self,
        lo: u64,
        hi: u64,
        out: &mut Vec<(u64, Payload)>,
    ) -> Provenance {
        if lo >= hi {
            return Provenance::default();
        }
        let start = self.pmax.partition_point(|&e| e <= lo);
        for &(off, ref p) in &self.pieces[start..] {
            if off >= hi {
                break;
            }
            let end = off + p.len;
            if end <= lo {
                continue;
            }
            let s = off.max(lo);
            let e = end.min(hi);
            out.push((s, p.slice(s - off, e - s)));
        }
        let mut origin_pieces = 0u64;
        let origins = &mut self.origins;
        origins.clear();
        let start = self.rmax.partition_point(|&e| e <= lo);
        for &(off, len, who) in &self.raw[start..] {
            if off >= hi {
                break;
            }
            if off + len <= lo {
                continue;
            }
            origin_pieces += 1;
            if !origins.contains(&who) {
                origins.push(who);
            }
        }
        Provenance {
            msgs: origins.len() as u64,
            pieces: origin_pieces,
        }
    }
}

/// The pre-stage: ship the piece list of every rank of this node to
/// the node leader over the intra-node fabric. The group is the ranks
/// of `comm` on this rank's node and the lowest of them leads: rank 0
/// and everybody else on a node communicator, the node's lowest *live*
/// rank on a survivor communicator (a leader that died in an earlier
/// attempt is already replaced). True on the leader, once `node` holds
/// the merged request list; false elsewhere — and on a leader whose
/// transport is doomed because a member stayed silent.
pub(crate) async fn gather_to_leader<T: Transport>(
    t: &mut T,
    comm: &Comm,
    view: &FileView,
    data: &DataSpec,
    node: &mut MergedNode,
) -> bool {
    let mine = view
        .pieces()
        .iter()
        .map(|vp| (vp.file_off, data.piece(vp.buf_off, vp.file_off, vp.len)));
    let mut members = (0..comm.size()).filter(|&r| comm.node_of(r) == comm.node());
    let leader = members.next().expect("a rank is on its own node");
    if comm.rank() != leader {
        // Same wire model as the shuffle: payload + 32-byte envelope +
        // 16-byte header per piece — but over the intra-node fabric.
        // The send completes on arrival whatever the leader's fate; the
        // leader recycles the list.
        let mut list = comm.send_buf::<(u64, Payload)>();
        list.extend(mine);
        let bytes: u64 = list.iter().map(|(_, p)| p.len).sum::<u64>() + 32 + 16 * list.len() as u64;
        comm.isend(leader, GATHER_TAG, bytes, list).wait().await;
        return false;
    }
    // Merge only once every member has answered: a silent one dooms
    // the attempt and the lists are dropped unmerged.
    let MergedNode {
        gathered,
        raw,
        pending,
        ..
    } = node;
    gathered.extend(mine);
    let me = comm.rank();
    raw.extend(gathered.iter().map(|&(off, ref p)| (off, p.len, me)));
    let keep = |src, mut list: Vec<(u64, Payload)>| {
        raw.extend(list.iter().map(|&(off, ref p)| (off, p.len, src)));
        gathered.append(&mut list);
        comm.recycle_buf(list);
    };
    t.recv_each(comm, members, GATHER_TAG, pending, keep).await;
    if t.doomed() {
        return false;
    }
    counter("coll.node_agg.merged_reqs", node.merge());
    true
}

/// Stage the leader's aggregated buffer into the node-local cache
/// device (paper §III: the pre-phase feeds the E10 NVM directly).
/// Best-effort: a full or failing device just skips the staging.
pub(crate) async fn stage_into_cache(fd: &AdioFile, merged: &mut MergedNode) {
    if !fd.cache_active() {
        return;
    }
    let total = merged.total_bytes();
    if total == 0 {
        return;
    }
    let path = &mut merged.stage_path;
    path.clear();
    let _ = write!(path, "/scratch/e10_nodeagg_stage.{}", fd.comm.rank());
    let Ok(f) = fd.ctx().my_localfs().create(path.as_str()).await else {
        return;
    };
    let mut cursor = 0u64;
    for (_, p) in &merged.pieces {
        if f.write(cursor, p.clone()).await.is_err() {
            break;
        }
        cursor += p.len;
    }
    counter("coll.node_agg.staged_bytes", cursor);
    let _ = fd.ctx().my_localfs().unlink(path).await;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{cb_info, on_testbed, strided_view, write_then_read};
    use e10_mpisim::FlatType;
    use e10_simcore::run;

    #[test]
    fn node_agg_with_cache_stages_and_stays_correct() {
        run(async {
            on_testbed(8, 2, |ctx| async move {
                let info = cb_info(&[
                    ("e10_two_phase", "node_agg"),
                    ("e10_cache", "enable"),
                    ("e10_cache_flush_flag", "flush_immediate"),
                    ("e10_cache_discard_flag", "enable"),
                ]);
                let f = crate::adio::AdioFile::open(&ctx, "/gfs/nac", &info, true)
                    .await
                    .unwrap();
                let view = strided_view(ctx.comm.rank(), 8, 5_000, 8);
                crate::collective::write_at_all(&f, &view, &DataSpec::FileGen { seed: 22 }).await;
                f.close().await;
                if ctx.comm.rank() == 0 {
                    f.global()
                        .extents()
                        .verify_gen(22, 0, 8 * 8 * 5_000)
                        .unwrap();
                }
            })
            .await;
        });
    }

    #[test]
    fn node_agg_handles_ranks_with_no_data() {
        run(async {
            on_testbed(4, 2, |ctx| async move {
                let f = crate::adio::AdioFile::open(
                    &ctx,
                    "/gfs/nae",
                    &cb_info(&[("e10_two_phase", "node_agg")]),
                    true,
                )
                .await
                .unwrap();
                let view = if ctx.comm.rank() % 2 == 0 {
                    strided_view(ctx.comm.rank() / 2, 2, 3_000, 4)
                } else {
                    FileView::new(&FlatType::contiguous(0), 0)
                };
                crate::collective::write_at_all(&f, &view, &DataSpec::FileGen { seed: 23 }).await;
                f.close().await;
                if ctx.comm.rank() == 0 {
                    f.global()
                        .extents()
                        .verify_gen(23, 0, 2 * 4 * 3_000)
                        .unwrap();
                }
            })
            .await;
        });
    }

    #[test]
    fn merged_node_window_clips_and_counts_origins() {
        // Two ranks' adjacent generator pieces merge into one; the
        // window query clips it and reports the raw provenance.
        let mut m = MergedNode {
            gathered: vec![(10, Payload::gen(5, 10, 10)), (0, Payload::gen(5, 0, 10))],
            raw: vec![(10, 10, 1), (0, 10, 0)],
            ..MergedNode::default()
        };
        assert_eq!(m.merge(), 1, "two pieces merged into one");
        let mut out = Vec::new();
        let w = m.window_into(5, 15, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 5);
        assert_eq!(out[0].1.len, 10);
        assert_eq!(w.msgs, 2, "both ranks' extents touch the window");
        assert_eq!(w.pieces, 2);
        // A window past the data is empty.
        out.clear();
        let e = m.window_into(25, 40, &mut out);
        assert!(out.is_empty());
        assert_eq!(e.msgs, 0);
    }

    /// Byte-identity oracle at module level: the same interleaved
    /// pattern written by all three algorithms lands identically, and
    /// a collective read after each returns the same pieces.
    #[test]
    fn three_algorithms_write_identical_bytes() {
        let stock = write_then_read("stock", "0");
        assert_eq!(stock.rounds, 1, "stock buffers a whole file domain");
        for algo in ["extended", "node_agg"] {
            let other = write_then_read(algo, "0");
            assert!(other.rounds > 1, "{algo} must take multiple rounds");
            assert!(stock.file == other.file, "{algo}: file bytes differ");
            assert_eq!(stock.read, other.read, "{algo}: read pieces differ");
        }
    }
}
