//! The per-layer ledger: every per-layer metric of `BENCHMARK.json`,
//! assembled from the layer drivers (D), the traced repetition's
//! existing counters (C) and its simulated-seconds breakdown (S), plus
//! each layer's estimated share of the untraced repetition's host time.

use e10_romio::{select_aggregators_capped, FileDomains, Phase, RomioHints};
use e10_simcore::Tally;

use crate::drivers::Cost;
use crate::workloads::{Id, Inputs, Rep, Traced};

/// Two-phase rounds the write path must execute for one file: per
/// collective call, the largest file domain over the collective buffer
/// size — the public `FileDomains::compute` on the offsets the ranks
/// exchange.
pub fn write_rounds_per_file(inp: &Inputs) -> u64 {
    let hints = RomioHints::from_info(&inp.cfg.hints).expect("benchmark hints are valid");
    let procs = inp.kernel.procs();
    let ppn = inp.spec.procs.div_ceil(inp.spec.nodes);
    let node_of: Vec<usize> = (0..procs).map(|r| r / ppn).collect();
    let naggs = select_aggregators_capped(
        &node_of,
        hints.cb_nodes.unwrap_or(inp.spec.nodes),
        hints.cb_config_max_per_node.unwrap_or(usize::MAX),
    )
    .len();
    let stripe = hints
        .striping_unit
        .unwrap_or(inp.spec.pfs.default_stripe_unit);
    let views: Vec<_> = (0..procs).map(|r| inp.kernel.writes(r)).collect();
    let calls = views.iter().map(Vec::len).max().unwrap_or(0);
    (0..calls)
        .map(|j| {
            let ranges = views
                .iter()
                .filter_map(|v| v.get(j))
                .filter(|v| v.total_bytes() > 0)
                .map(|v| v.file_range());
            let (min_st, max_end) =
                ranges.fold((u64::MAX, 0), |(lo, hi), (s, e)| (lo.min(s), hi.max(e)));
            if min_st == u64::MAX {
                return 0;
            }
            FileDomains::compute(min_st, max_end, naggs, hints.fd_strategy, stripe)
                .max_size()
                .div_ceil(hints.cb_buffer_size)
        })
        .sum()
}

/// Everything the ledger is computed from.
pub struct Sources<'a> {
    pub inp: &'a Inputs,
    /// Untraced repetition of the same process: the host-time base.
    pub untraced: &'a Rep,
    pub traced: &'a Rep,
    pub drivers: &'a [(&'static str, Cost)],
    /// Two-phase write rounds of the whole repetition.
    pub write_rounds: u64,
}

impl Sources<'_> {
    pub fn traced_data(&self) -> &Traced {
        self.traced
            .sim
            .traced
            .as_ref()
            .expect("the traced repetition recorded metrics")
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.traced_data()
            .metrics
            .counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v)
    }

    fn tally(&self, name: &str) -> Option<&Tally> {
        self.traced_data()
            .metrics
            .tallies
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, t)| t)
    }

    fn tally_count(&self, name: &str) -> f64 {
        self.tally(name).map_or(0.0, |t| t.count() as f64)
    }

    fn tally_mean(&self, name: &str) -> f64 {
        self.tally(name).map_or(0.0, Tally::mean)
    }

    fn driver(&self, name: &str) -> Cost {
        self.drivers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, c)| *c)
            .unwrap_or_else(|| panic!("no layer driver named {name}"))
    }

    /// Two-phase rounds of the whole repetition: the write rounds plus
    /// the read rounds rank 0 saw (on the workload that reads).
    fn rounds(&self) -> u64 {
        self.write_rounds + self.traced.sim.read_rounds
    }
}

/// Host nanoseconds per layer, estimated from outside: each layer's
/// operation count in this workload times its driver's *self* cost —
/// the driver's span minus its child operations at their own unit
/// price. romio (with the workload glue, which cannot be isolated from
/// outside) takes what is left.
fn ledger(s: &Sources) -> Vec<(&'static str, f64)> {
    let timer = s.driver("simcore.timer_event_ns").ns;
    // A driver's cost with its calendar events priced out.
    let own = |name: &str| {
        let c = s.driver(name);
        (c.ns - c.events * timer).max(0.0)
    };
    let transfer = own("netsim.transfer_ns");
    let insert = s.driver("storesim.extent_insert_ns").ns;
    let lookup = s.driver("storesim.extent_lookup_ns").ns;
    let pagecache = own("storesim.pagecache_write_ns");
    // The PFS only calls the RAID model on its read path; reads are
    // priced at the write driver's cost (same stripe fan-out).
    let raid = own("storesim.raid_write_ns");
    let ranks = s.inp.kernel.procs() as f64;
    let files = s.inp.cfg.files as f64;

    let write_chunks = s.counter("pfs.write_chunks") as f64;
    let read_chunks = s.counter("pfs.read_chunks") as f64;
    let ssd_w = s.tally_count("ssd.write_latency_s");
    let ssd_r = s.tally_count("ssd.read_latency_s");
    let nvm_w = s.tally_count("nvm.write_latency_s");
    let nvm_r = s.tally_count("nvm.read_latency_s");
    let hints = RomioHints::from_info(&s.inp.cfg.hints).expect("benchmark hints are valid");
    let block_bytes = s
        .counter("cache.write_bytes")
        .saturating_sub(s.counter("cache.front_write_bytes"));
    let block_writes = block_bytes.div_ceil(hints.cb_buffer_size) as f64;

    let simcore = s.traced.stats.events_fired as f64 * timer
        + s.traced.stats.tasks_spawned as f64 * own("simcore.spawn_join_ns");
    let netsim = s.counter("netsim.messages") as f64 * transfer;
    let storesim = ssd_w * own("storesim.ssd_write_ns")
        + ssd_r * own("storesim.ssd_read_ns")
        + nvm_w * own("storesim.nvm_write_ns")
        + nvm_r * own("storesim.nvm_read_ns")
        + write_chunks * (pagecache + insert)
        + read_chunks * (raid + lookup);
    let localfs = block_writes * (own("localfs.write_ns") - pagecache - insert).max(0.0)
        + nvm_w * (own("localfs.write_direct_ns") - own("storesim.nvm_write_ns") - insert).max(0.0)
        + ssd_r * (own("localfs.read_ns") - lookup).max(0.0);
    let pfs = write_chunks * (own("pfs.write_chunk_ns") - 2.0 * transfer - pagecache - insert).max(0.0)
        + read_chunks * (own("pfs.read_chunk_ns") - 2.0 * transfer - raid - lookup).max(0.0)
        // Every rank opens and closes every file: two metadata RPCs,
        // four fabric messages.
        + ranks * files * (own("pfs.open_ns") - 4.0 * transfer).max(0.0);
    // The drivers run 512 ranks; the analytic collectives cost in
    // proportion to the ranks taking part.
    let scale = ranks / 512.0;
    let calls = s.traced.sim.collective_calls as f64 / ranks;
    let mpisim = scale
        * (s.rounds() as f64 * own("mpisim.alltoall_ns")
            + calls * (own("mpisim.allgather_ns") + own("mpisim.allreduce_ns")))
        + s.counter("coll.shuffle.msgs") as f64 * (own("mpisim.p2p_ns") - transfer).max(0.0);

    let host_ns = s.untraced.host_s * 1e9;
    let mut named = [
        ("simcore.host_share", simcore),
        ("netsim.host_share", netsim),
        ("storesim.host_share", storesim),
        ("localfs.host_share", localfs),
        ("pfs.host_share", pfs),
        ("mpisim.host_share", mpisim),
    ];
    // Unit prices come from drivers running alone with warm caches, so
    // the estimates can overshoot a busy repetition; the shares are
    // then scaled to fit and romio is left with nothing.
    let sum: f64 = named.iter().map(|(_, v)| v).sum();
    let fit = if sum > host_ns { host_ns / sum } else { 1.0 };
    for (_, v) in &mut named {
        *v = *v * fit / host_ns;
    }
    let rest = 1.0 - named.iter().map(|(_, v)| v).sum::<f64>();
    let mut out = named.to_vec();
    out.push(("romio.host_share", rest.max(0.0)));
    out
}

/// Every per-layer metric, in `BENCHMARK.json` order by construction
/// of the caller (which looks values up by name).
pub fn per_layer(s: &Sources) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    // D: host ns per operation, from the layer drivers.
    for (name, cost) in s.drivers {
        put(name, cost.ns);
    }
    put(
        "netsim.events_per_transfer",
        s.driver("netsim.transfer_ns").events,
    );
    put(
        "pfs.events_per_chunk",
        s.driver("pfs.write_chunk_ns").events,
    );
    put(
        "mpisim.events_per_alltoall",
        s.driver("mpisim.alltoall_ns").events,
    );

    // C: exact counts of the traced repetition.
    let (u, t) = (s.untraced, s.traced);
    let events = t.stats.events_fired as f64;
    put("simcore.events", events);
    put("simcore.polls", s.counter("executor.polls") as f64);
    put("simcore.tasks_spawned", t.stats.tasks_spawned as f64);
    put("simcore.heap_peak", t.stats.heap_peak as f64);
    put("simcore.events_batched", t.stats.events_batched as f64);
    put("simcore.ns_per_event", u.host_s * 1e9 / events);
    put("simcore.allocs_per_event", u.allocs as f64 / events);
    put("simcore.trace_overhead_ratio", t.host_s / u.host_s);
    put(
        "simcore.trace_allocs_ratio",
        t.allocs as f64 / u.allocs as f64,
    );
    put("netsim.messages", s.counter("netsim.messages") as f64);
    put("netsim.bytes", s.counter("netsim.bytes") as f64);
    put(
        "netsim.local_copy_bytes",
        s.counter("netsim.local_copy_bytes") as f64,
    );
    put(
        "storesim.ssd_read_bytes",
        s.counter("ssd.read_bytes") as f64,
    );
    put(
        "storesim.nvm_write_bytes",
        s.counter("nvm.write_bytes") as f64,
    );
    put(
        "storesim.nvm_read_bytes",
        s.counter("nvm.read_bytes") as f64,
    );
    put(
        "storesim.sim_nvm_write_latency_mean_s",
        s.tally_mean("nvm.write_latency_s"),
    );
    put(
        "storesim.sim_ssd_read_latency_mean_s",
        s.tally_mean("ssd.read_latency_s"),
    );
    put("pfs.write_chunks", s.counter("pfs.write_chunks") as f64);
    put("pfs.write_bytes", s.counter("pfs.write_bytes") as f64);
    let td = s.traced_data();
    put("pfs.lock_waits", td.pfs_lock_waits as f64);
    put("pfs.server_load", td.pfs_server_load);
    put(
        "pfs.sim_chunk_latency_mean_s",
        s.tally_mean("pfs.write_chunk_latency_s"),
    );
    put(
        "pfs.sim_chunk_latency_max_s",
        s.tally("pfs.write_chunk_latency_s")
            .map_or(0.0, |t| t.max().max(0.0)),
    );
    let rounds = s.rounds() as f64;
    put("romio.rounds", rounds);
    put("romio.host_ns_per_round", u.host_s * 1e9 / rounds);
    put("romio.shuffle_msgs", s.counter("coll.shuffle.msgs") as f64);
    put(
        "romio.shuffle_remote_msgs",
        s.counter("coll.shuffle.remote_msgs") as f64,
    );
    put(
        "romio.shuffle_remote_bytes",
        s.counter("coll.shuffle.remote_bytes") as f64,
    );
    let cache_bytes = s.counter("cache.write_bytes");
    put("romio.cache_write_bytes", cache_bytes as f64);
    put(
        "romio.cache_front_write_bytes",
        s.counter("cache.front_write_bytes") as f64,
    );
    put(
        "romio.cache_bytes_synced",
        s.counter("cache.bytes_synced") as f64,
    );
    put(
        "romio.cache_stall_ns_per_byte",
        s.counter("cache.write_stall_ns") as f64 / cache_bytes.max(1) as f64,
    );
    put(
        "romio.node_agg_merged_reqs",
        s.counter("coll.node_agg.merged_reqs") as f64,
    );
    put(
        "romio.node_agg_staged_bytes",
        s.counter("coll.node_agg.staged_bytes") as f64,
    );
    put("romio.ft_attempts", s.counter("coll.ft.attempts") as f64);
    put("romio.cache_retired", s.counter("cache.retired") as f64);
    put(
        "romio.cache_drain_bytes",
        s.counter("cache.drain_bytes") as f64,
    );
    put(
        "romio.read_cache_hit_bytes",
        t.sim.read_cache_hit_bytes as f64,
    );

    // S: simulated seconds per phase, mean over aggregator ranks.
    for (name, phase) in [
        ("open", Phase::OpenColl),
        ("offset_exch", Phase::OffsetExchange),
        ("node_agg_gather", Phase::NodeAggGather),
        ("shuffle_alltoall", Phase::ShuffleAlltoall),
        ("shuffle_waitall", Phase::ShuffleWaitall),
        ("buf_assembly", Phase::CollBufAssembly),
        ("write", Phase::Write),
        ("post_write", Phase::PostWrite),
        ("not_hidden_sync", Phase::NotHiddenSync),
        ("close", Phase::Close),
    ] {
        put(
            &format!("romio.sim_{name}_s"),
            td.breakdown_aggs.mean(phase),
        );
    }
    put("romio.sim_read_cached_gb_s", t.sim.sim_read_cached_gb_s);
    put("romio.sim_read_global_gb_s", t.sim.sim_read_global_gb_s);
    put("workloads.verify_s", u.sim.verify_s);
    put("faultsim.injected", t.sim.faults_injected as f64);

    for (name, share) in ledger(s) {
        put(name, share);
    }
    out
}

/// The paper's figure for the exact cell a workload reproduces, where
/// EXPERIMENTS.md states one (Fig. 4, `64_4M`, cache enabled).
pub fn paper_gb_s(id: Id) -> Option<f64> {
    (id == Id::CollperfCached).then_some(20.0)
}
