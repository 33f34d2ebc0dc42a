//! # e10-pfs
//!
//! A BeeGFS-like global parallel file system, built from the storage and
//! network models:
//!
//! * one **metadata server** (FIFO service per metadata RPC),
//! * `N` **data targets**, each a RAID array of jittery rotational
//!   disks behind a per-target ingest link and a shared storage
//!   backend (the SAS switch of the DEEP-ER JBOD),
//! * **striping**: files are chunked by `stripe_unit` round-robin over
//!   `stripe_count` targets,
//! * **extent locks** at stripe granularity on each target (the file
//!   system locking protocol that makes unaligned file domains
//!   contend), plus a per-file range-lock service used by the E10
//!   `coherent` cache mode.
//!
//! Clients interact through [`PfsHandle`]; every operation charges
//! network transfer, RPC handling, commit latency and device time on
//! the simulated resources, so aggregate bandwidth, per-stream
//! small-buffer throughput and server-side response-time variance all
//! emerge from the model rather than being dialled in.

pub mod lock;

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

use e10_netsim::{Network, NodeId};
use e10_simcore::alloc_gauge::FixedState;
use e10_simcore::rng::Jitter;
use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_simcore::{join_all, spawn, FairShare, FifoServer, FixedJoin, SimDuration, SimRng, Tally};
use e10_storesim::{
    Disk, DiskParams, ExtentMap, PageCache, PageCacheParams, Payload, Raid, RaidParams, Source,
};
use lock::{LockMode, RangeLock, RangeLockGuard};

/// File-system-wide parameters.
#[derive(Debug, Clone)]
pub struct PfsParams {
    /// Number of data targets.
    pub data_targets: usize,
    /// Default stripe unit in bytes (`striping_unit` hint default).
    pub default_stripe_unit: u64,
    /// Default stripe count (`striping_factor` hint default).
    pub default_stripe_count: usize,
    /// CPU cost of handling one I/O RPC on a target.
    pub rpc_overhead: SimDuration,
    /// Server-side commit latency per write RPC (journal/ack path) —
    /// this is what bounds a single client stream with small buffers.
    pub commit_latency: SimDuration,
    /// Metadata RPC service time.
    pub meta_op: SimDuration,
    /// Per-target ingest bandwidth (server NIC→storage path), bytes/s.
    pub ingest_bw: f64,
    /// Shared backend (SAS switch) bandwidth, bytes/s.
    pub backend_bw: f64,
    /// RPC handler threads per target.
    pub handler_threads: usize,
    /// RAID-controller write-back cache per target, bytes.
    pub controller_cache: u64,
    /// Controller ingest (PCIe/cache-absorb) bandwidth, bytes/s.
    pub controller_absorb_bw: f64,
    /// Sorted destage rate from controller cache to media, bytes/s.
    /// Already accounts for the shared SAS backend split across
    /// targets under full load.
    pub destage_bw: f64,
    /// Coefficient of variation of per-request server jitter (load
    /// imbalance among I/O servers — the paper's variability driver).
    pub server_jitter_cv: f64,
    /// Retries after a failed I/O RPC before the client gives up.
    pub max_retries: u32,
    /// Base client backoff after a failed RPC; doubles per attempt and
    /// is stretched by a uniform jitter factor in `[1, 2)`.
    pub retry_base: SimDuration,
    /// Disk model for target members.
    pub disk: DiskParams,
    /// RAID geometry per target.
    pub raid: RaidParams,
    /// Disks per target (data + parity).
    pub disks_per_target: usize,
}

impl PfsParams {
    /// The DEEP-ER storage system: 4 data targets, each an 8+2 RAID6 of
    /// nearline SAS drives, one shared SAS backend, BeeGFS defaults.
    pub fn deep_er() -> Self {
        PfsParams {
            data_targets: 4,
            default_stripe_unit: 4 * (1 << 20),
            default_stripe_count: 4,
            rpc_overhead: SimDuration::from_micros(100),
            commit_latency: SimDuration::from_micros(6_500),
            meta_op: SimDuration::from_micros(250),
            ingest_bw: 1.1e9,
            backend_bw: 2.6e9,
            handler_threads: 8,
            controller_cache: 512 << 20,
            controller_absorb_bw: 2.5e9,
            destage_bw: 650e6,
            server_jitter_cv: 0.4,
            max_retries: 4,
            retry_base: SimDuration::from_millis(2),
            disk: DiskParams::nearline_sas(),
            raid: RaidParams::raid6(),
            disks_per_target: 10,
        }
    }
}

struct Target {
    node: NodeId,
    handler: FifoServer,
    ingest: FairShare,
    /// Controller write-back cache: foreground writes complete once
    /// accepted here; destaging to media happens at the sorted
    /// sequential rate in the background.
    wbc: PageCache,
    /// Media array, used by the read path (reads miss the small
    /// controller cache for our workloads).
    raid: Raid,
    stripe_locks: RangeLock,
    jitter: RefCell<Jitter>,
    bytes_written: RefCell<Tally>,
    write_latency: RefCell<Tally>,
}

struct PfsFileState {
    stripe_unit: u64,
    stripe_count: usize,
    first_target: usize,
    /// Gives each file a disjoint device region on every target.
    file_index: u64,
    data: ExtentMap,
    size: u64,
    range_lock: RangeLock,
    open_handles: usize,
    /// Write-epoch fence: writes from handles whose epoch is below
    /// this watermark complete (they already paid their I/O time) but
    /// record nothing — the crash-tolerance redo path raises the fence
    /// before re-running a collective round so a straggling write from
    /// the failed round can never clobber the redone data.
    fence: u64,
}

/// The file system instance (one per simulated cluster).
pub struct Pfs {
    params: PfsParams,
    net: Rc<Network>,
    mds_node: NodeId,
    mds: FifoServer,
    backend: FairShare,
    targets: Vec<Target>,
    /// Keyed by the path every [`PfsHandle`] on the file shares.
    files: RefCell<HashMap<Rc<str>, Rc<RefCell<PfsFileState>>, FixedState>>,
    files_created: RefCell<u64>,
    /// Jitter stream for client retry backoff (decorrelates retries of
    /// concurrent clients after a correlated server failure).
    retry_rng: RefCell<SimRng>,
    /// Recycled chunk-list buffers: striped requests split into chunks
    /// every round, and the split must not touch the allocator in
    /// steady state.
    chunk_pool: RefCell<Vec<Vec<Chunk>>>,
}

/// Striping overrides at create time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Striping {
    /// Stripe unit in bytes (None → file-system default).
    pub unit: Option<u64>,
    /// Stripe count (None → default; clamped to the target count).
    pub count: Option<usize>,
}

/// One failed I/O RPC (the underlying cause of [`PfsError::RpcExhausted`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcError {
    /// Operation kind (`"write"` or `"read"`).
    pub op: &'static str,
    /// Data target that failed the request.
    pub target: usize,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} rpc failed on data target {}", self.op, self.target)
    }
}

impl std::error::Error for RpcError {}

/// Errors from PFS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PfsError {
    /// No such file.
    NotFound(String),
    /// An I/O RPC kept failing after every allowed retry.
    RpcExhausted {
        /// Operation kind (`"write"` or `"read"`).
        op: &'static str,
        /// Data target that failed the request.
        target: usize,
        /// Failed attempts, including the initial one.
        attempts: u32,
        /// The final failure.
        source: RpcError,
    },
    /// The bulk-payload checksum of a write kept mismatching on every
    /// allowed retransmission — the link is persistently corrupting.
    WireChecksum {
        /// Data target the payload was bound for.
        target: usize,
        /// Transfer attempts, including the initial one.
        attempts: u32,
    },
}

impl std::fmt::Display for PfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PfsError::NotFound(p) => write!(f, "not found: {p}"),
            PfsError::RpcExhausted {
                op,
                target,
                attempts,
                ..
            } => write!(
                f,
                "{op} rpc to data target {target} failed after {attempts} attempts"
            ),
            PfsError::WireChecksum { target, attempts } => write!(
                f,
                "write payload to data target {target} failed its checksum on \
                 {attempts} consecutive transfers"
            ),
        }
    }
}

impl std::error::Error for PfsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PfsError::NotFound(_) => None,
            PfsError::RpcExhausted { source, .. } => Some(source),
            PfsError::WireChecksum { .. } => None,
        }
    }
}

impl Pfs {
    /// Build the file system. `mds_node` and `target_nodes` are the
    /// fabric node ids of the servers (they must exist in `net`);
    /// `seed` drives all device jitter streams.
    pub fn new(
        params: PfsParams,
        net: Rc<Network>,
        mds_node: NodeId,
        target_nodes: Vec<NodeId>,
        seed: u64,
    ) -> Rc<Self> {
        assert_eq!(
            target_nodes.len(),
            params.data_targets,
            "one fabric node per data target"
        );
        let targets = target_nodes
            .iter()
            .enumerate()
            .map(|(t, &node)| {
                let disks = (0..params.disks_per_target)
                    .map(|d| {
                        Disk::new(
                            params.disk.clone(),
                            SimRng::stream(seed, (t * 1000 + d) as u64),
                        )
                    })
                    .collect();
                Target {
                    node,
                    handler: FifoServer::new(params.handler_threads),
                    ingest: FairShare::new(params.ingest_bw),
                    wbc: PageCache::new(PageCacheParams {
                        mem_bw: params.controller_absorb_bw,
                        dirty_limit: params.controller_cache,
                        capacity: params.controller_cache,
                        drain_bw: params.destage_bw,
                    }),
                    raid: Raid::new(params.raid.clone(), disks),
                    stripe_locks: RangeLock::new(),
                    jitter: RefCell::new(Jitter::new(
                        SimRng::stream(seed, 9_000 + t as u64),
                        params.server_jitter_cv,
                    )),
                    bytes_written: RefCell::new(Tally::new()),
                    write_latency: RefCell::new(Tally::new()),
                }
            })
            .collect();
        Rc::new(Pfs {
            mds: FifoServer::new(1),
            backend: FairShare::new(params.backend_bw),
            params,
            net,
            mds_node,
            targets,
            files: RefCell::default(),
            files_created: RefCell::new(0),
            retry_rng: RefCell::new(SimRng::stream(seed, 20_000)),
            chunk_pool: RefCell::new(Vec::new()),
        })
    }

    /// File-system parameters.
    pub fn params(&self) -> &PfsParams {
        &self.params
    }

    /// Client side of one I/O RPC submission: ship the request to the
    /// target and, if the server fails it (injected via
    /// `e10_faultsim::rpc_fails`), back off exponentially with jitter
    /// and retry per [`PfsParams::max_retries`] and
    /// [`PfsParams::retry_base`].
    async fn submit_rpc(
        &self,
        client: NodeId,
        target: usize,
        op: &'static str,
        req_bytes: u64,
    ) -> Result<(), PfsError> {
        let t = &self.targets[target];
        let mut attempt: u32 = 0;
        loop {
            // Client → server wire transfer (header, plus data for
            // writes).
            self.net.transfer(client, t.node, req_bytes).await;
            if !e10_faultsim::rpc_fails(target) {
                return Ok(());
            }
            // A failed attempt still occupied a handler thread before
            // erroring out, and the error reply rides back to the
            // client.
            t.handler.serve(self.params.rpc_overhead).await;
            self.net.transfer(t.node, client, 64).await;
            attempt += 1;
            if attempt > self.params.max_retries {
                return Err(PfsError::RpcExhausted {
                    op,
                    target,
                    attempts: attempt,
                    source: RpcError { op, target },
                });
            }
            let stretch = 1.0 + self.retry_rng.borrow_mut().uniform();
            let doubling = (1u64 << (attempt - 1)) as f64;
            let backoff = self.params.retry_base.mul_f64(doubling * stretch);
            trace::emit(|| {
                Event::new(Layer::Pfs, "rpc.retry", EventKind::Point)
                    .node(client)
                    .field("op", op)
                    .field("target", target)
                    .field("attempt", attempt)
                    .field("backoff_ns", backoff.as_nanos())
            });
            trace::counter("pfs.rpc_retries", 1);
            e10_simcore::sleep(backoff).await;
        }
    }

    async fn meta_rpc(&self, client: NodeId) {
        self.net.transfer(client, self.mds_node, 256).await;
        self.mds.serve(self.params.meta_op).await;
        self.net.transfer(self.mds_node, client, 128).await;
    }

    /// Create (or truncate) a file. One metadata RPC.
    pub async fn create(
        self: &Rc<Self>,
        client: NodeId,
        path: &str,
        striping: Striping,
    ) -> PfsHandle {
        self.meta_rpc(client).await;
        let unit = striping.unit.unwrap_or(self.params.default_stripe_unit);
        let count = striping
            .count
            .unwrap_or(self.params.default_stripe_count)
            .clamp(1, self.targets.len());
        let idx = *self.files_created.borrow();
        *self.files_created.borrow_mut() += 1;
        let st = Rc::new(RefCell::new(PfsFileState {
            stripe_unit: unit,
            stripe_count: count,
            first_target: (idx as usize) % self.targets.len(),
            file_index: idx,
            data: ExtentMap::new(),
            size: 0,
            range_lock: RangeLock::new(),
            open_handles: 1,
            fence: 0,
        }));
        let path: Rc<str> = Rc::from(path);
        self.files
            .borrow_mut()
            .insert(Rc::clone(&path), Rc::clone(&st));
        PfsHandle {
            pfs: Rc::clone(self),
            path,
            state: st,
            epoch: std::cell::Cell::new(0),
            fence_exempt: std::cell::Cell::new(false),
        }
    }

    /// Open an existing file. One metadata RPC.
    pub async fn open(self: &Rc<Self>, client: NodeId, path: &str) -> Result<PfsHandle, PfsError> {
        self.meta_rpc(client).await;
        self.attach(path)
    }

    /// Attach to an existing file WITHOUT a metadata RPC — the
    /// deferred-open optimisation (`romio_no_indep_rw`): non-aggregator
    /// processes reuse the collectively-established state and only
    /// talk to the MDS if they later do I/O (which, under collective
    /// buffering, they do not).
    pub fn attach(self: &Rc<Self>, path: &str) -> Result<PfsHandle, PfsError> {
        let files = self.files.borrow();
        let (path, st) = files
            .get_key_value(path)
            .ok_or_else(|| PfsError::NotFound(path.to_string()))?;
        st.borrow_mut().open_handles += 1;
        Ok(PfsHandle {
            pfs: Rc::clone(self),
            path: Rc::clone(path),
            state: Rc::clone(st),
            epoch: std::cell::Cell::new(0),
            fence_exempt: std::cell::Cell::new(false),
        })
    }

    /// True if the file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.borrow().contains_key(path)
    }

    /// The logical contents of a file (verification oracle), if it
    /// exists.
    pub fn file_extents(&self, path: &str) -> Option<ExtentMap> {
        self.files
            .borrow()
            .get(path)
            .map(|st| st.borrow().data.clone())
    }

    /// Aggregate bytes written across all targets.
    pub fn bytes_written(&self) -> f64 {
        self.targets
            .iter()
            .map(|t| t.bytes_written.borrow().sum())
            .sum()
    }

    /// Per-target write service-time statistics (jitter visibility).
    pub fn target_write_latencies(&self) -> Vec<Tally> {
        self.targets
            .iter()
            .map(|t| t.write_latency.borrow().clone())
            .collect()
    }

    /// Instantaneous storage load in `[0, 1]`: for each target, the
    /// larger of (a) the controller write-back cache's fill fraction
    /// (destage backlog) and (b) requests queued behind the RPC
    /// handler pool relative to its size (arrival pressure); averaged
    /// over targets. Reported as the repo benchmark's `pfs.server_load`.
    pub fn server_load(&self) -> f64 {
        let per_target = |t: &Target| {
            let backlog = t.wbc.dirty() as f64 / self.params.controller_cache as f64;
            let arrivals = t.handler.queue_len() as f64 / self.params.handler_threads as f64;
            backlog.max(arrivals).min(1.0)
        };
        let sum: f64 = self.targets.iter().map(per_target).sum();
        sum / self.targets.len() as f64
    }

    /// Stripe-lock contention: `(grants, contended)` summed over targets.
    pub fn lock_contention(&self) -> (u64, u64) {
        self.targets
            .iter()
            .map(|t| t.stripe_locks.contention_stats())
            .fold((0, 0), |(a, b), (g, c)| (a + g, b + c))
    }
}

/// A chunk of a file request routed to one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chunk {
    target: usize,
    dev_offset: u64,
    file_offset: u64,
    len: u64,
}

/// Striped requests fan out to this many chunks before the per-chunk
/// futures fall back to spawned tasks (which allocate).
const CHUNK_JOIN_SLOTS: usize = 8;

/// An open file handle.
#[derive(Clone)]
pub struct PfsHandle {
    pfs: Rc<Pfs>,
    path: Rc<str>,
    state: Rc<RefCell<PfsFileState>>,
    /// Write epoch this handle stamps on its requests (see
    /// [`PfsFileState::fence`]). Clones inherit the current value.
    epoch: std::cell::Cell<u64>,
    /// Exempt this handle (and its clones) from the write-epoch fence.
    /// Set by the cache layer before spawning sync threads: a cached
    /// byte was acked to the application and its content is stable, so
    /// replaying it to the PFS is sound in any epoch — fencing it
    /// would silently drop durable data.
    fence_exempt: std::cell::Cell<bool>,
}

impl PfsHandle {
    /// File path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The write epoch this handle stamps on its requests.
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Set the handle's write epoch (crash-tolerance redo path).
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.set(epoch);
    }

    /// Exempt this handle (and handles cloned from it afterwards) from
    /// the write-epoch fence. The cache layer sets this before spawning
    /// sync threads: cached bytes were already acked with stable
    /// content, so their background replay must land regardless of any
    /// fence raised by a collective redo.
    pub fn set_fence_exempt(&self, exempt: bool) {
        self.fence_exempt.set(exempt);
    }

    /// Raise the file's write-epoch fence to at least `epoch`: every
    /// write stamped with an older epoch still completes (its I/O time
    /// is already spent) but records nothing in the file, making a
    /// redone two-phase round idempotent against stragglers from the
    /// failed round. Monotonic — a lower value never lowers the fence.
    pub fn raise_fence(&self, epoch: u64) {
        let mut st = self.state.borrow_mut();
        st.fence = st.fence.max(epoch);
    }

    /// Stripe unit of this file.
    pub fn stripe_unit(&self) -> u64 {
        self.state.borrow().stripe_unit
    }

    /// Stripe count of this file.
    pub fn stripe_count(&self) -> usize {
        self.state.borrow().stripe_count
    }

    /// Current file size.
    pub fn size(&self) -> u64 {
        self.state.borrow().size
    }

    /// Take a recycled chunk buffer from the instance pool (returned
    /// by [`put_chunk_buf`](Self::put_chunk_buf) after the request).
    fn take_chunk_buf(&self) -> Vec<Chunk> {
        self.pfs.chunk_pool.borrow_mut().pop().unwrap_or_default()
    }

    fn put_chunk_buf(&self, mut buf: Vec<Chunk>) {
        buf.clear();
        self.pfs.chunk_pool.borrow_mut().push(buf);
    }

    /// Split `[offset, offset+len)` into per-target chunks following
    /// the striping layout (contiguous same-target pieces merged),
    /// filling `out` (cleared first).
    /// Test convenience: allocate-and-return form of [`Self::chunks_into`].
    #[cfg(test)]
    fn chunks(&self, offset: u64, len: u64) -> Vec<Chunk> {
        let mut out = Vec::new();
        self.chunks_into(offset, len, &mut out);
        out
    }

    fn chunks_into(&self, offset: u64, len: u64, out: &mut Vec<Chunk>) {
        out.clear();
        let st = self.state.borrow();
        let unit = st.stripe_unit;
        let count = st.stripe_count as u64;
        let ntargets = self.pfs.targets.len();
        // Disjoint per-file device regions, aligned to the stripe unit
        // so lock-range rounding never couples unrelated chunks.
        let base = st.file_index * (1u64 << 40).div_ceil(unit) * unit;
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let c = pos / unit;
            let within = pos % unit;
            let take = (unit - within).min(end - pos);
            let target = ((st.first_target as u64 + c % count) % ntargets as u64) as usize;
            let dev_offset = base + (c / count) * unit + within;
            if let Some(last) = out.last_mut() {
                if last.target == target && last.dev_offset + last.len == dev_offset {
                    last.len += take;
                    pos += take;
                    continue;
                }
            }
            out.push(Chunk {
                target,
                dev_offset,
                file_offset: pos,
                len: take,
            });
            pos += take;
        }
    }

    /// Run every chunk's I/O concurrently (chunks on different targets
    /// proceed in parallel) and return the first error in chunk order.
    /// Small fan-outs — the steady-state case — join inline without
    /// allocating; oversized ones fall back to spawned tasks.
    async fn run_write_chunks(&self, client: NodeId, chunks: &[Chunk]) -> Result<(), PfsError> {
        if chunks.len() <= CHUNK_JOIN_SLOTS {
            let results = {
                let mut join: FixedJoin<_, CHUNK_JOIN_SLOTS> = FixedJoin::new();
                for &chunk in chunks {
                    join.push(self.write_chunk(client, chunk));
                }
                join
            }
            .await;
            for r in results.into_iter().flatten() {
                r?;
            }
        } else {
            let mut hs = Vec::with_capacity(chunks.len());
            for &chunk in chunks {
                let this = self.clone();
                hs.push(spawn(async move { this.write_chunk(client, chunk).await }));
            }
            for r in join_all(hs).await {
                r?;
            }
        }
        Ok(())
    }

    async fn write_chunk(&self, client: NodeId, chunk: Chunk) -> Result<(), PfsError> {
        let pfs = &self.pfs;
        let t = &pfs.targets[chunk.target];
        let t0 = e10_simcore::now();
        trace::emit(|| {
            Event::new(Layer::Pfs, "write_chunk", EventKind::Begin)
                .node(client)
                .field("target", chunk.target)
                .field("bytes", chunk.len)
                .field("queue_depth", t.handler.queue_len())
        });
        trace::counter("pfs.write_chunks", 1);
        trace::counter("pfs.write_bytes", chunk.len);
        // Client → server wire transfer (data + header), with retry on
        // injected RPC failures.
        pfs.submit_rpc(client, chunk.target, "write", chunk.len + 128)
            .await?;
        // Bulk-payload checksum (as in Lustre's bulk RPC checksums):
        // injected wire corruption is caught by the server, which asks
        // the client to retransmit the payload. The netsim layer moves
        // only byte counts, so the write path consumes the fault here
        // and pays the extra transfer. A link that corrupts every
        // retransmission surfaces as a typed error — never as silently
        // rotten object data.
        let mut attempts: u32 = 1;
        while !e10_faultsim::link_corrupt(client, t.node, chunk.len).is_empty() {
            trace::emit(|| {
                Event::new(Layer::Pfs, "wire.retransmit", EventKind::Point)
                    .node(client)
                    .field("target", chunk.target)
                    .field("bytes", chunk.len)
                    .field("attempt", attempts)
            });
            trace::counter("pfs.wire_retransmits", 1);
            attempts += 1;
            if attempts > pfs.params.max_retries + 1 {
                return Err(PfsError::WireChecksum {
                    target: chunk.target,
                    attempts,
                });
            }
            // Error reply back, then the payload travels again.
            pfs.net.transfer(t.node, client, 64).await;
            pfs.net.transfer(client, t.node, chunk.len + 128).await;
        }
        // Stripe-granular extent lock (the file-system locking
        // protocol): taken when the server starts processing the
        // request, so conflicting writers serialise for the whole
        // server-side path (ingest + commit + cache acceptance).
        let unit = self.state.borrow().stripe_unit;
        let lstart = (chunk.dev_offset / unit) * unit;
        let lend = (chunk.dev_offset + chunk.len).div_ceil(unit) * unit;
        let _lock = t.stripe_locks.lock(lstart..lend, LockMode::Exclusive).await;
        // Server NIC → storage path.
        t.ingest.serve(chunk.len as f64).await;
        // RPC handling + journal commit on a handler thread; the
        // commit path carries the server-side jitter (load imbalance).
        let j = t.jitter.borrow_mut().sample();
        t.handler
            .serve(pfs.params.rpc_overhead + pfs.params.commit_latency.mul_f64(j))
            .await;
        // Accept into the controller write-back cache: instant-ish when
        // the cache has room, throttled to the destage rate when full.
        t.wbc.write(chunk.len).await;
        // Ack back to the client.
        pfs.net.transfer(t.node, client, 64).await;
        t.bytes_written.borrow_mut().push(chunk.len as f64);
        let latency = e10_simcore::now().since(t0).as_secs_f64();
        t.write_latency.borrow_mut().push(latency);
        trace::emit(|| {
            Event::new(Layer::Pfs, "write_chunk", EventKind::End)
                .node(client)
                .field("target", chunk.target)
                .field("bytes", chunk.len)
                .field("latency_s", latency)
                .field("queue_depth", t.handler.queue_len())
        });
        trace::sample("pfs.write_chunk_latency_s", latency);
        Ok(())
    }

    /// Read-side analogue of [`Self::run_write_chunks`].
    async fn run_read_chunks(&self, client: NodeId, chunks: &[Chunk]) -> Result<(), PfsError> {
        if chunks.len() <= CHUNK_JOIN_SLOTS {
            let results = {
                let mut join: FixedJoin<_, CHUNK_JOIN_SLOTS> = FixedJoin::new();
                for &chunk in chunks {
                    join.push(self.read_chunk(client, chunk));
                }
                join
            }
            .await;
            for r in results.into_iter().flatten() {
                r?;
            }
        } else {
            let mut hs = Vec::with_capacity(chunks.len());
            for &chunk in chunks {
                let this = self.clone();
                hs.push(spawn(async move { this.read_chunk(client, chunk).await }));
            }
            for r in join_all(hs).await {
                r?;
            }
        }
        Ok(())
    }

    async fn read_chunk(&self, client: NodeId, chunk: Chunk) -> Result<(), PfsError> {
        let pfs = &self.pfs;
        let t = &pfs.targets[chunk.target];
        trace::emit(|| {
            Event::new(Layer::Pfs, "read_chunk", EventKind::Begin)
                .node(client)
                .field("target", chunk.target)
                .field("bytes", chunk.len)
                .field("queue_depth", t.handler.queue_len())
        });
        trace::counter("pfs.read_chunks", 1);
        trace::counter("pfs.read_bytes", chunk.len);
        pfs.submit_rpc(client, chunk.target, "read", 128).await?;
        let unit = self.state.borrow().stripe_unit;
        let lstart = (chunk.dev_offset / unit) * unit;
        let lend = (chunk.dev_offset + chunk.len).div_ceil(unit) * unit;
        let _lock = t.stripe_locks.lock(lstart..lend, LockMode::Shared).await;
        t.handler.serve(pfs.params.rpc_overhead).await;
        // The media read is a task of its own, not a future inlined
        // here: inlined, the array's member join would sit inside every
        // rank task's read future (DESIGN §14). The task reaches the
        // array through the shared file system, copying nothing.
        let (fs, target) = (Rc::clone(pfs), chunk.target);
        let (off, l) = (chunk.dev_offset, chunk.len);
        let h = spawn(async move { fs.targets[target].raid.read(off, l).await });
        pfs.backend.serve(chunk.len as f64).await;
        h.await;
        pfs.net.transfer(t.node, client, chunk.len + 64).await;
        trace::emit(|| {
            Event::new(Layer::Pfs, "read_chunk", EventKind::End)
                .node(client)
                .field("target", chunk.target)
                .field("bytes", chunk.len)
        });
        Ok(())
    }

    /// Write `payload` at `offset`; returns when all stripe chunks are
    /// committed. Chunks to different targets proceed in parallel. On
    /// error nothing is recorded in the file map: the client cannot
    /// know which chunks landed, so the whole request counts as failed.
    pub async fn write(
        &self,
        client: NodeId,
        offset: u64,
        payload: Payload,
    ) -> Result<(), PfsError> {
        let len = payload.len;
        if len == 0 {
            return Ok(());
        }
        let mut chunks = self.take_chunk_buf();
        self.chunks_into(offset, len, &mut chunks);
        let outcome = self.run_write_chunks(client, &chunks).await;
        self.put_chunk_buf(chunks);
        outcome?;
        let mut st = self.state.borrow_mut();
        if !self.fence_exempt.get() && self.epoch.get() < st.fence {
            trace::counter("pfs.fenced_writes", 1);
            return Ok(());
        }
        st.data.insert(offset, len, payload.src);
        st.size = st.size.max(offset + len);
        Ok(())
    }

    /// Write a set of disjoint `(offset, payload)` pieces as ONE
    /// spanning I/O of `[span_start, span_start + span_len)` — the
    /// shape of a data-sieving read-modify-write, where the whole
    /// collective-buffer window is written back but only the pieces
    /// carry new content. Timing covers the full span; the extent map
    /// only records the pieces (the rest re-writes old data).
    pub async fn write_span_pieces(
        &self,
        client: NodeId,
        span_start: u64,
        span_len: u64,
        pieces: Vec<(u64, Payload)>,
    ) -> Result<(), PfsError> {
        if span_len == 0 {
            return Ok(());
        }
        let mut chunks = self.take_chunk_buf();
        self.chunks_into(span_start, span_len, &mut chunks);
        let outcome = self.run_write_chunks(client, &chunks).await;
        self.put_chunk_buf(chunks);
        outcome?;
        let mut st = self.state.borrow_mut();
        if !self.fence_exempt.get() && self.epoch.get() < st.fence {
            trace::counter("pfs.fenced_writes", 1);
            return Ok(());
        }
        for (off, p) in pieces {
            debug_assert!(off >= span_start && off + p.len <= span_start + span_len);
            let len = p.len;
            st.data.insert(off, len, p.src);
            st.size = st.size.max(off + len);
        }
        st.size = st.size.max(span_start + span_len);
        Ok(())
    }

    /// Read `[offset, offset+len)`: charges transfer/device time and
    /// returns the stored pieces (holes as `None`).
    pub async fn read(
        &self,
        client: NodeId,
        offset: u64,
        len: u64,
    ) -> Result<Vec<(Range<u64>, Option<Source>)>, PfsError> {
        let mut out = Vec::new();
        self.read_into(client, offset, len, &mut out).await?;
        Ok(out)
    }

    /// [`Self::read`] into `out`, which is cleared first and left empty
    /// on error: a caller that reads every round keeps one buffer.
    pub async fn read_into(
        &self,
        client: NodeId,
        offset: u64,
        len: u64,
        out: &mut Vec<(Range<u64>, Option<Source>)>,
    ) -> Result<(), PfsError> {
        out.clear();
        if len == 0 {
            return Ok(());
        }
        let mut chunks = self.take_chunk_buf();
        self.chunks_into(offset, len, &mut chunks);
        let outcome = self.run_read_chunks(client, &chunks).await;
        self.put_chunk_buf(chunks);
        outcome?;
        // Lazy media rot: corruption of the stored object materialises
        // at read time (undetected until somebody looks), and persists.
        for c in e10_faultsim::pfs_corrupt(len) {
            self.state.borrow_mut().data.corrupt(offset, len, &c);
        }
        self.state.borrow().data.lookup_into(offset, len, out);
        Ok(())
    }

    /// Take a byte-range lock on the file (used by the E10 `coherent`
    /// cache mode). One metadata RPC, then a grant from the per-file
    /// lock service.
    pub async fn lock_extent(
        &self,
        client: NodeId,
        range: Range<u64>,
        mode: LockMode,
    ) -> RangeLockGuard {
        self.pfs.meta_rpc(client).await;
        let rl = self.state.borrow().range_lock.clone();
        rl.lock(range, mode).await
    }

    /// Close the handle (one metadata RPC).
    pub async fn close(&self, client: NodeId) {
        self.pfs.meta_rpc(client).await;
        self.state.borrow_mut().open_handles -= 1;
    }

    /// Release an attached handle without a metadata RPC (the
    /// deferred-open counterpart of [`Pfs::attach`]).
    pub fn detach(&self) {
        self.state.borrow_mut().open_handles -= 1;
    }

    /// The file's logical contents (verification oracle).
    pub fn extents(&self) -> ExtentMap {
        self.state.borrow().data.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e10_netsim::NetConfig;
    use e10_simcore::{now, run};

    /// 8 client nodes (0..8), MDS on node 8, targets on nodes 9..13.
    fn small_cluster() -> (Rc<Network>, Rc<Pfs>) {
        let net = Rc::new(Network::new(NetConfig::ib_qdr(13), 13));
        let mut params = PfsParams::deep_er();
        params.disk.jitter_cv = 0.0;
        let pfs = Pfs::new(params, Rc::clone(&net), 8, (9..13).collect(), 42);
        (net, pfs)
    }

    #[test]
    fn create_write_read_roundtrip() {
        run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs.create(0, "/gfs/out", Striping::default()).await;
            f.write(0, 0, Payload::gen(5, 0, 1 << 20)).await.unwrap();
            assert_eq!(f.size(), 1 << 20);
            let pieces = f.read(1, 0, 1 << 20).await.unwrap();
            assert!(pieces.iter().all(|(_, s)| s.is_some()));
            assert!(f.extents().verify_gen(5, 0, 1 << 20).is_ok());
        });
    }

    /// Every rank task holds a `read` or `write` future across the
    /// request, so their sizes are paid once per rank. Both nest the
    /// per-chunk join (eight chunk futures), not the media read under
    /// each chunk: inlining that read puts the array's member join in
    /// every chunk slot, and the read future grows to 104 936 bytes (a
    /// smaller such join raised peak RSS from 48 to 113 MB on every
    /// benchmark workload). The bound allows a few words of drift.
    #[test]
    fn read_and_write_futures_stay_their_size() {
        const READ: usize = 4_760;
        const WRITE: usize = 4_816;
        const MARGIN: usize = 256;
        run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs.create(0, "/gfs/size", Striping::default()).await;
            let read = size_of_val(&f.read(0, 0, 0));
            let write = size_of_val(&f.write(0, 0, Payload::zero(0)));
            assert!(read <= READ + MARGIN, "read future: {read} bytes");
            assert!(write <= WRITE + MARGIN, "write future: {write} bytes");
        });
    }

    #[test]
    fn chunking_follows_striping() {
        run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs
                .create(
                    0,
                    "/gfs/a",
                    Striping {
                        unit: Some(100),
                        count: Some(4),
                    },
                )
                .await;
            let chunks = f.chunks(50, 300);
            assert_eq!(chunks.len(), 4);
            assert_eq!(chunks[0].len, 50);
            assert_eq!(chunks[1].len, 100);
            let total: u64 = chunks.iter().map(|c| c.len).sum();
            assert_eq!(total, 300);
            let targets: std::collections::BTreeSet<usize> =
                chunks.iter().map(|c| c.target).collect();
            assert_eq!(targets.len(), 4, "round-robin over 4 targets");
        });
    }

    #[test]
    fn stripe_count_one_uses_single_target() {
        run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs
                .create(
                    0,
                    "/gfs/a",
                    Striping {
                        unit: Some(100),
                        count: Some(1),
                    },
                )
                .await;
            let chunks = f.chunks(0, 1000);
            // All on one target, merged into a single contiguous chunk.
            assert_eq!(chunks.len(), 1);
            assert_eq!(chunks[0].len, 1000);
        });
    }

    #[test]
    fn second_file_starts_on_next_target_and_disjoint_region() {
        run(async {
            let (_net, pfs) = small_cluster();
            let a = pfs
                .create(
                    0,
                    "/gfs/a",
                    Striping {
                        unit: Some(100),
                        count: Some(2),
                    },
                )
                .await;
            let b = pfs
                .create(
                    0,
                    "/gfs/b",
                    Striping {
                        unit: Some(100),
                        count: Some(2),
                    },
                )
                .await;
            let ca = a.chunks(0, 100)[0];
            let cb = b.chunks(0, 100)[0];
            assert_ne!(ca.target, cb.target);
            assert_ne!(ca.dev_offset, cb.dev_offset);
        });
    }

    #[test]
    fn open_missing_file_errors() {
        run(async {
            let (_net, pfs) = small_cluster();
            let r = pfs.open(0, "/gfs/none").await;
            assert!(matches!(r, Err(PfsError::NotFound(_))));
        });
    }

    #[test]
    fn parallel_clients_beat_single_client() {
        let (t_single, t_multi) = run(async {
            let (_net, pfs) = small_cluster();
            let size = 64u64 << 20;
            let f = pfs.create(0, "/gfs/s", Striping::default()).await;
            let t0 = now();
            for i in 0..(size / (4 << 20)) {
                f.write(0, i * (4 << 20), Payload::gen(1, i * (4 << 20), 4 << 20))
                    .await
                    .unwrap();
            }
            let t_single = now().since(t0).as_secs_f64();

            let g = pfs.create(0, "/gfs/m", Striping::default()).await;
            let t1 = now();
            let mut hs = Vec::new();
            for c in 0..4u64 {
                let g = g.clone();
                hs.push(spawn(async move {
                    let share = size / 4;
                    for i in 0..(share / (4 << 20)) {
                        let off = c * share + i * (4 << 20);
                        g.write(c as usize, off, Payload::gen(2, off, 4 << 20))
                            .await
                            .unwrap();
                    }
                }));
            }
            join_all(hs).await;
            (t_single, now().since(t1).as_secs_f64())
        });
        assert!(
            t_multi < t_single * 0.7,
            "multi={t_multi} single={t_single}"
        );
    }

    #[test]
    fn small_buffer_stream_is_latency_bound() {
        let bw = run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs.create(0, "/gfs/s", Striping::default()).await;
            let chunk = 512u64 << 10; // the paper's ind_wr_buffer_size
            let total = 64u64 << 20;
            let t0 = now();
            for i in 0..(total / chunk) {
                f.write(0, i * chunk, Payload::gen(1, i * chunk, chunk))
                    .await
                    .unwrap();
            }
            total as f64 / now().since(t0).as_secs_f64()
        });
        // A 512 KB-at-a-time serial stream must land well below the
        // aggregate system bandwidth.
        assert!((50e6..400e6).contains(&bw), "per-stream bw={bw}");
    }

    #[test]
    fn unaligned_writers_contend_on_stripe_locks() {
        run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs
                .create(
                    0,
                    "/gfs/c",
                    Striping {
                        unit: Some(1 << 20),
                        count: Some(1),
                    },
                )
                .await;
            let mut hs = Vec::new();
            // Two clients write halves of the SAME stripe unit.
            for c in 0..2u64 {
                let f = f.clone();
                hs.push(spawn(async move {
                    f.write(c as usize, c * (512 << 10), Payload::zero(512 << 10))
                        .await
                        .unwrap();
                }));
            }
            join_all(hs).await;
            let (_, contended) = pfs.lock_contention();
            assert!(contended >= 1, "expected stripe-lock contention");
        });
    }

    #[test]
    fn aligned_writers_do_not_contend() {
        run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs
                .create(
                    0,
                    "/gfs/c",
                    Striping {
                        unit: Some(1 << 20),
                        count: Some(1),
                    },
                )
                .await;
            let mut hs = Vec::new();
            for c in 0..2u64 {
                let f = f.clone();
                hs.push(spawn(async move {
                    f.write(c as usize, c * (1 << 20), Payload::zero(1 << 20))
                        .await
                        .unwrap();
                }));
            }
            join_all(hs).await;
            let (_, contended) = pfs.lock_contention();
            assert_eq!(contended, 0);
        });
    }

    #[test]
    fn coherent_mode_extent_locks_block_readers() {
        run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs.create(0, "/gfs/l", Striping::default()).await;
            let g = f.lock_extent(0, 0..1024, LockMode::Exclusive).await;
            let f2 = f.clone();
            let h = spawn(async move {
                let _r = f2.lock_extent(1, 0..10, LockMode::Shared).await;
                now().as_secs_f64()
            });
            e10_simcore::sleep(SimDuration::from_secs(1)).await;
            drop(g);
            let t = h.await;
            assert!(t >= 1.0, "reader must wait for the writer, got {t}");
        });
    }

    #[test]
    fn write_latency_statistics_show_jitter() {
        run(async {
            let net = Rc::new(Network::new(NetConfig::ib_qdr(13), 13));
            let pfs = Pfs::new(
                PfsParams::deep_er(),
                Rc::clone(&net),
                8,
                (9..13).collect(),
                7,
            );
            let f = pfs.create(0, "/gfs/j", Striping::default()).await;
            for i in 0..32u64 {
                f.write(0, i * (4 << 20), Payload::zero(4 << 20))
                    .await
                    .unwrap();
            }
            let lat = pfs.target_write_latencies();
            let total: u64 = lat.iter().map(|t| t.count()).sum();
            assert_eq!(total, 32);
            let any_jitter = lat.iter().any(|t| t.count() > 2 && t.cv() > 0.01);
            assert!(any_jitter, "disk jitter must surface in service times");
        });
    }

    #[test]
    fn transient_rpc_failures_are_retried_and_recover() {
        let (t_clean, t_faulty, retried) = run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs.create(0, "/gfs/r", Striping::default()).await;
            let t0 = now();
            f.write(0, 0, Payload::gen(1, 0, 1 << 20)).await.unwrap();
            let t_clean = now().since(t0).as_secs_f64();

            // Every RPC fails for the next 20 ms; the exponential
            // backoff carries the retries past the window.
            let horizon = now() + SimDuration::from_millis(20);
            let _g = e10_faultsim::FaultSchedule::install(
                e10_faultsim::FaultPlan::new(3).rpc_fail(None, now()..horizon, 1.0),
            );
            let t1 = now();
            f.write(0, 1 << 20, Payload::gen(1, 1 << 20, 1 << 20))
                .await
                .unwrap();
            let t_faulty = now().since(t1).as_secs_f64();
            (t_clean, t_faulty, e10_faultsim::injected_count())
        });
        assert!(retried >= 1, "at least one RPC must have failed");
        assert!(
            t_faulty > t_clean,
            "retries must cost time: clean={t_clean} faulty={t_faulty}"
        );
    }

    #[test]
    fn exhausted_retries_surface_with_source_chain() {
        run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs.create(0, "/gfs/x", Striping::default()).await;
            let _g = e10_faultsim::FaultSchedule::install(
                e10_faultsim::FaultPlan::new(3).rpc_fail(None, e10_faultsim::always(), 1.0),
            );
            let err = f
                .write(0, 0, Payload::gen(1, 0, 4096))
                .await
                .expect_err("all retries must be exhausted");
            let PfsError::RpcExhausted { op, attempts, .. } = &err else {
                panic!("unexpected error {err:?}");
            };
            assert_eq!(*op, "write");
            assert_eq!(
                *attempts,
                pfs.params().max_retries + 1,
                "initial attempt plus every retry"
            );
            use std::error::Error;
            let src = err.source().expect("source chain must be intact");
            assert!(src.to_string().contains("rpc failed"), "source={src}");
            // Nothing may be recorded for a failed write.
            assert_eq!(f.size(), 0);
            assert!(f.extents().holes(0, 4096).len() == 1);
        });
    }

    #[test]
    fn wire_corruption_is_caught_and_retransmitted() {
        let (injected, verified) = run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs
                .create(
                    0,
                    "/gfs/w",
                    Striping {
                        unit: Some(1 << 20),
                        count: Some(2),
                    },
                )
                .await;
            let _g =
                e10_faultsim::FaultSchedule::install(e10_faultsim::FaultPlan::new(9).link_corrupt(
                    None,
                    None,
                    e10_faultsim::always(),
                    0.3,
                ));
            f.write(0, 0, Payload::gen(4, 0, 8 << 20)).await.unwrap();
            (
                e10_faultsim::injected_count(),
                f.extents().verify_gen(4, 0, 8 << 20).is_ok(),
            )
        });
        assert!(injected >= 1, "at least one transfer must corrupt");
        assert!(verified, "retransmission must deliver intact data");
    }

    #[test]
    fn persistently_corrupting_link_surfaces_a_typed_error() {
        run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs.create(0, "/gfs/wx", Striping::default()).await;
            let _g =
                e10_faultsim::FaultSchedule::install(e10_faultsim::FaultPlan::new(9).link_corrupt(
                    None,
                    None,
                    e10_faultsim::always(),
                    1.0,
                ));
            let err = f
                .write(0, 0, Payload::gen(4, 0, 4096))
                .await
                .expect_err("every retransmission corrupts");
            assert!(matches!(err, PfsError::WireChecksum { .. }), "{err:?}");
            // Nothing may be recorded for the failed write.
            assert_eq!(f.size(), 0);
        });
    }

    #[test]
    fn reads_retry_too_and_failures_target_only_the_declared_target() {
        run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs
                .create(
                    0,
                    "/gfs/t",
                    Striping {
                        unit: Some(1 << 20),
                        count: Some(1),
                    },
                )
                .await;
            f.write(0, 0, Payload::gen(2, 0, 1 << 20)).await.unwrap();
            let victim = f.chunks(0, 1).pop().unwrap().target;
            // Fail a DIFFERENT target: this file never touches it.
            let other = (victim + 1) % pfs.params().data_targets;
            let _g = e10_faultsim::FaultSchedule::install(
                e10_faultsim::FaultPlan::new(3).rpc_fail(Some(other), e10_faultsim::always(), 1.0),
            );
            f.read(1, 0, 1 << 20).await.unwrap();
            assert_eq!(e10_faultsim::injected_count(), 0);
            drop(_g);
            // Now fail the file's own target: reads must error out.
            let _g = e10_faultsim::FaultSchedule::install(
                e10_faultsim::FaultPlan::new(3).rpc_fail(Some(victim), e10_faultsim::always(), 1.0),
            );
            let err = f.read(1, 0, 1 << 20).await.expect_err("read must fail");
            assert!(matches!(err, PfsError::RpcExhausted { op: "read", .. }));
        });
    }

    #[test]
    fn backoff_grows_exponentially() {
        // With N allowed retries and 100% failure, the total backoff is
        // at least retry_base * (2^N - 1) (jitter only stretches it).
        let elapsed = run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs.create(0, "/gfs/b", Striping::default()).await;
            let t0 = now();
            let _g = e10_faultsim::FaultSchedule::install(
                e10_faultsim::FaultPlan::new(3).rpc_fail(None, e10_faultsim::always(), 1.0),
            );
            let _ = f.write(0, 0, Payload::gen(1, 0, 4096)).await;
            now().since(t0).as_secs_f64()
        });
        let base = 0.002;
        let floor = base * ((1 << 4) - 1) as f64; // 4 retries
        assert!(
            elapsed >= floor,
            "elapsed={elapsed} must include exponential backoff >= {floor}"
        );
    }

    #[test]
    fn retry_params_set_the_exhaustion_point() {
        run(async {
            let net = Rc::new(Network::new(NetConfig::ib_qdr(13), 13));
            let mut params = PfsParams::deep_er();
            params.disk.jitter_cv = 0.0;
            params.max_retries = 1;
            params.retry_base = SimDuration::from_micros(100);
            let pfs = Pfs::new(params, Rc::clone(&net), 8, (9..13).collect(), 42);
            let f = pfs.create(0, "/gfs/rp", Striping::default()).await;
            let _g = e10_faultsim::FaultSchedule::install(
                e10_faultsim::FaultPlan::new(3).rpc_fail(None, e10_faultsim::always(), 1.0),
            );
            let t0 = now();
            let err = f
                .write(0, 0, Payload::gen(1, 0, 4096))
                .await
                .expect_err("retries must be exhausted");
            let PfsError::RpcExhausted { attempts, .. } = err else {
                panic!("unexpected error {err:?}");
            };
            assert_eq!(attempts, 2, "one retry allowed, not the default 4");
            // One backoff of retry_base, stretched by at most 2x.
            let elapsed = now().since(t0);
            assert!(elapsed >= SimDuration::from_micros(100), "{elapsed:?}");
            assert!(elapsed < SimDuration::from_millis(2), "{elapsed:?}");
        });
    }

    #[test]
    fn write_epoch_fence_discards_stale_writes() {
        run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs.create(0, "/gfs/fence", Striping::default()).await;
            f.write(0, 0, Payload::gen(1, 0, 4096)).await.unwrap();
            // A redo begins: the fence rises to epoch 1. The straggler
            // handle still stamps epoch 0, so its write lands nowhere.
            f.raise_fence(1);
            f.write(0, 0, Payload::gen(9, 0, 4096)).await.unwrap();
            assert!(
                f.extents().verify_gen(1, 0, 4096).is_ok(),
                "stale write must not clobber the pre-fence contents"
            );
            // The redoing handle adopts epoch 1 and its write sticks.
            f.set_epoch(1);
            f.write(0, 0, Payload::gen(9, 0, 4096)).await.unwrap();
            assert!(f.extents().verify_gen(9, 0, 4096).is_ok());
            // Fences are monotonic: raising to an older epoch is a no-op.
            f.raise_fence(0);
            assert_eq!(f.state.borrow().fence, 1);
        });
    }

    #[test]
    fn fenced_span_pieces_complete_without_recording() {
        run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs.create(0, "/gfs/fsp", Striping::default()).await;
            f.raise_fence(1);
            f.write_span_pieces(0, 0, 8192, vec![(0, Payload::gen(3, 0, 4096))])
                .await
                .unwrap();
            assert_eq!(f.size(), 0, "fenced span must record neither data nor size");
            assert_eq!(f.extents().holes(0, 4096).len(), 1);
        });
    }

    #[test]
    fn close_decrements_handles() {
        run(async {
            let (_net, pfs) = small_cluster();
            let f = pfs.create(0, "/gfs/h", Striping::default()).await;
            let f2 = pfs.open(1, "/gfs/h").await.unwrap();
            assert_eq!(f.state.borrow().open_handles, 2);
            f2.close(1).await;
            f.close(0).await;
            assert_eq!(f.state.borrow().open_handles, 0);
            assert!(pfs.exists("/gfs/h"));
        });
    }
}
