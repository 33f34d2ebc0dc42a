//! The ADIO file abstraction: open/close/sync/flush and contiguous
//! writes, with the E10 cache redirection of Fig. 2's
//! `ADIOI_GEN_WriteContig`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use e10_mpisim::{Comm, Info};
use e10_pfs::{PfsHandle, Striping};
use e10_storesim::Payload;

use crate::cache::{CacheConfig, CacheLayer};
use crate::error::Error;
use crate::fd::select_aggregators_capped;
use crate::hints::{CacheMode, RomioHints};
use crate::profile::{Phase, Profiler};
use crate::testbed::IoCtx;

/// What a write call's buffer logically contains.
///
/// Benchmarks use [`DataSpec::FileGen`]: the buffer holds the bytes
/// that belong at the target file offsets of generator stream `seed`,
/// which makes the final file self-verifying at any scale. Byte-exact
/// tests use [`DataSpec::Buffer`].
#[derive(Debug, Clone)]
pub enum DataSpec {
    /// Identity-mapped generator data (`file[p] = gen_byte(seed, p)`).
    FileGen {
        /// Stream id (typically one per file).
        seed: u64,
    },
    /// An explicit local buffer.
    Buffer(Payload),
}

impl DataSpec {
    /// The payload for the view piece at `buf_off` that lands at
    /// `file_off`.
    pub fn piece(&self, buf_off: u64, file_off: u64, len: u64) -> Payload {
        match self {
            DataSpec::FileGen { seed } => Payload::gen(*seed, file_off, len),
            DataSpec::Buffer(p) => p.slice(buf_off, len),
        }
    }
}

/// An open MPI file, bound to one rank (`ADIO_File`).
#[derive(Clone)]
pub struct AdioFile {
    /// The communicator the file was opened on.
    pub comm: Comm,
    ctx: IoCtx,
    global: PfsHandle,
    cache: Option<CacheLayer>,
    profiler: Profiler,
    my_agg_index: Option<usize>,
    deferred_open: bool,
    /// What every handle of this rank's open file shares.
    state: Rc<FileState>,
    /// A view's own placement ([`AdioFile::with_comm`]); `None` on the
    /// file itself, whose placement is `state.placement`.
    view: Option<Rc<Placement>>,
}

/// What is bound to the communicator a handle coordinates on.
struct Placement {
    /// The aggregator ranks, in that communicator's numbering: on an
    /// analytic open, one list every rank of the open shares.
    aggregators: Rc<[usize]>,
    /// Intra-node subcommunicator, created lazily by the first
    /// node-agg collective and cached for the handle's lifetime.
    node_comm: RefCell<Option<Comm>>,
}

/// One rank's open file, in one allocation: the resolved hints, the
/// flags every clone and view must agree on, and the placement on the
/// communicator it was opened on.
struct FileState {
    hints: RomioHints,
    atomic: Cell<bool>,
    closed: Cell<bool>,
    io_error: RefCell<Option<Error>>,
    placement: Placement,
}

impl Placement {
    fn new(aggregators: Rc<[usize]>) -> Placement {
        Placement {
            aggregators,
            node_comm: RefCell::new(None),
        }
    }
}

/// The placement hints an aggregator election reads, which every rank
/// of an open must pass alike.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Election {
    cb_nodes: Option<usize>,
    cb_config_max_per_node: Option<usize>,
}

impl Election {
    fn of(hints: &RomioHints) -> Election {
        Election {
            cb_nodes: hints.cb_nodes,
            cb_config_max_per_node: hints.cb_config_max_per_node,
        }
    }

    /// The aggregator ranks of a communicator whose ranks sit on
    /// `node_map` (default: one per node).
    fn elect(&self, node_map: &[usize]) -> Rc<[usize]> {
        let nnodes = node_map.iter().copied().max().map_or(1, |m| m + 1);
        let aggregators = select_aggregators_capped(
            node_map,
            self.cb_nodes.unwrap_or(nnodes),
            self.cb_config_max_per_node.unwrap_or(usize::MAX),
        );
        aggregators.into()
    }
}

/// The aggregator ranks of `comm` under the `cb_nodes` /
/// `cb_config_list` placement hints, elected by this rank alone.
pub(crate) fn elect_aggregators(comm: &Comm, hints: &RomioHints) -> Rc<[usize]> {
    Election::of(hints).elect(comm.node_map())
}

impl AdioFile {
    /// Collective open (`ADIOI_GEN_OpenColl`): creates (or opens) the
    /// global file, resolves hints and aggregators, and — when
    /// `e10_cache` asks for it — opens the node-local cache file,
    /// reverting to the standard path if that fails (paper §III-A).
    pub async fn open(
        ctx: &IoCtx,
        path: &str,
        info: &Info,
        create: bool,
    ) -> Result<AdioFile, Error> {
        let hints = RomioHints::parse(info)?;
        let profiler = Profiler::new();
        let timer = profiler.enter(Phase::OpenColl);
        let comm = ctx.comm.clone();

        let striping = Striping {
            unit: hints.striping_unit,
            count: hints.striping_factor,
        };
        // Rank 0 creates; everyone else opens after the create is
        // globally visible. The barrier that makes it so elects the
        // aggregators, once for the communicator where the collectives
        // are analytic. With `romio_no_indep_rw` (deferred open) only
        // the aggregators pay the metadata RPC; the rest attach.
        let created = if comm.rank() != 0 {
            None
        } else if create || !ctx.pfs.exists(path) {
            Some(ctx.pfs.create(comm.node(), path, striping).await)
        } else {
            Some(ctx.pfs.open(comm.node(), path).await?)
        };
        let node_map = comm.node_map();
        let aggregators = comm
            .barrier_with(Election::of(&hints), |e| e.elect(node_map))
            .await;
        let my_agg_index = aggregators.iter().position(|&r| r == comm.rank());
        let deferred = hints.no_indep_rw && my_agg_index.is_none() && comm.rank() != 0;
        let global = match created {
            Some(h) => h,
            None if deferred => ctx.pfs.attach(path)?,
            None => ctx.pfs.open(comm.node(), path).await?,
        };

        let cache = if hints.cache_requested() {
            let basename = path.rsplit('/').next().unwrap_or(path);
            let cfg = CacheConfig::from_hints(&hints, basename, comm.rank(), comm.node());
            // "If for any reason the open of the cache file fails, the
            // implementation reverts to standard open."
            let (store, front) = ctx.cache_mounts(hints.e10_cache_class);
            CacheLayer::open_with_front(store, front, global.clone(), cfg)
                .await
                .ok()
        } else {
            None
        };
        drop(timer);

        Ok(AdioFile {
            comm,
            ctx: ctx.clone(),
            global,
            cache,
            profiler,
            my_agg_index,
            deferred_open: deferred,
            state: Rc::new(FileState {
                hints,
                atomic: Cell::new(false),
                closed: Cell::new(false),
                io_error: RefCell::new(None),
                placement: Placement::new(aggregators),
            }),
            view: None,
        })
    }

    fn placement(&self) -> &Placement {
        self.view.as_deref().unwrap_or(&self.state.placement)
    }

    /// The intra-node subcommunicator
    /// (`MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)`), used by the
    /// `e10_two_phase = node_agg` pre-phase. Collective on first call
    /// (every rank of the file's communicator must participate);
    /// cached afterwards.
    pub async fn node_comm(&self) -> Comm {
        let slot = &self.placement().node_comm;
        let cached = slot.borrow().clone();
        if let Some(c) = cached {
            return c;
        }
        let c = self.comm.split_by_node().await;
        *slot.borrow_mut() = Some(c.clone());
        c
    }

    /// The resolved hints (`MPI_File_get_info`).
    pub fn hints(&self) -> &RomioHints {
        &self.state.hints
    }

    /// This file's profiler.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The aggregator ranks for collective I/O on this file.
    pub fn aggregators(&self) -> &[usize] {
        &self.placement().aggregators
    }

    /// This rank's index among the aggregators, if it is one.
    pub fn my_agg_index(&self) -> Option<usize> {
        self.my_agg_index
    }

    /// What this rank's round scratch — kept in its [`IoCtx`] — holds
    /// between its collectives on this file and the files it opens
    /// after it, for the aggregators it touches: entries of room per
    /// structure (the schedule, list slots, touched and size-exchange
    /// lists), each sized by the domains this rank's views met, not by
    /// the aggregator count.
    pub fn round_scratch_capacity(&self) -> [(&'static str, usize); 5] {
        let s = self.ctx.take_scratch();
        let capacity = s.per_aggregator_capacity();
        self.ctx.put_scratch(s);
        capacity
    }

    /// True if the E10 cache is active (requested, opened and not
    /// degraded).
    pub fn cache_active(&self) -> bool {
        self.cache.as_ref().is_some_and(|c| !c.is_degraded())
    }

    /// The cache layer, if any.
    pub fn cache(&self) -> Option<&CacheLayer> {
        self.cache.as_ref()
    }

    /// The global file handle (verification / inspection).
    pub fn global(&self) -> &PfsHandle {
        &self.global
    }

    /// The stripe unit in effect for this file.
    pub fn stripe_unit(&self) -> u64 {
        self.global.stripe_unit()
    }

    /// Resolved I/O context.
    pub fn ctx(&self) -> &IoCtx {
        &self.ctx
    }

    /// `MPI_File_set_atomicity` (paper §III-B: "can even enforce
    /// atomicity using MPI_File_set_atomicity()"). In atomic mode every
    /// non-cached write takes an exclusive byte-range lock on the
    /// global file for its whole extent, so concurrent overlapping
    /// writes serialise and readers never observe torn updates. With
    /// the E10 cache, atomic visibility is instead provided by the
    /// `coherent` cache mode.
    pub fn set_atomicity(&self, atomic: bool) {
        self.state.atomic.set(atomic);
    }

    /// Current atomicity flag (`MPI_File_get_atomicity`).
    pub fn atomicity(&self) -> bool {
        self.state.atomic.get()
    }

    /// Remember the first I/O error seen on this file (retrievable with
    /// [`AdioFile::take_io_error`]). Collective operations report
    /// failure through their exchanged error code; the stored error
    /// keeps the full cause chain for inspection.
    pub fn record_io_error(&self, e: Error) {
        let mut slot = self.state.io_error.borrow_mut();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// `outcome`'s value, or `None` if it failed: the error is then
    /// recorded as by [`AdioFile::record_io_error`] and `*code` — the
    /// error code a collective exchanges — set to 1.
    pub(crate) fn io_ok<T>(
        &self,
        outcome: Result<T, impl Into<Error>>,
        code: &mut u32,
    ) -> Option<T> {
        outcome
            .map_err(|e| {
                *code = 1;
                self.record_io_error(e.into());
            })
            .ok()
    }

    /// Take the first recorded I/O error, clearing the slot.
    pub fn take_io_error(&self) -> Option<Error> {
        self.state.io_error.borrow_mut().take()
    }

    /// `ADIOI_GEN_WriteContig` / `ADIO_WriteContig`: one contiguous
    /// extent, through the cache when enabled (falling back to the
    /// global file if the cache has degraded).
    pub async fn write_contig(&self, offset: u64, payload: Payload) -> Result<(), Error> {
        let _t = self.profiler.enter(Phase::Write);
        if let Some(c) = &self.cache {
            match c.write(offset, payload.clone()).await {
                Ok(true) => return Ok(()),
                Ok(false) => {} // degraded → global path below
                Err(_) => {}    // unexpected local error → global path
            }
        }
        let _guard = if self.state.atomic.get() && payload.len > 0 {
            Some(
                self.global
                    .lock_extent(
                        self.comm.node(),
                        offset..offset + payload.len,
                        e10_pfs::lock::LockMode::Exclusive,
                    )
                    .await,
            )
        } else {
            None
        };
        self.global
            .write(self.comm.node(), offset, payload)
            .await
            .map_err(Error::from)
    }

    /// Write disjoint pieces as one spanning I/O (the write half of a
    /// collective-buffer read-modify-write). Only meaningful on the
    /// non-cached path.
    pub async fn write_span(
        &self,
        span_start: u64,
        span_len: u64,
        pieces: Vec<(u64, Payload)>,
    ) -> Result<(), Error> {
        let _t = self.profiler.enter(Phase::Write);
        self.global
            .write_span_pieces(self.comm.node(), span_start, span_len, pieces)
            .await
            .map_err(Error::from)
    }

    /// Contiguous read from the global file. Reads are not served from
    /// the cache (paper §III-B: cache reads unsupported); in `coherent`
    /// mode they take a shared extent lock so in-transit data cannot be
    /// observed.
    pub async fn read_contig(
        &self,
        offset: u64,
        len: u64,
    ) -> Result<Vec<(std::ops::Range<u64>, Option<e10_storesim::Source>)>, Error> {
        let _guard = if self.state.hints.e10_cache == CacheMode::Coherent && len > 0 {
            Some(
                self.global
                    .lock_extent(
                        self.comm.node(),
                        offset..offset + len,
                        e10_pfs::lock::LockMode::Shared,
                    )
                    .await,
            )
        } else {
            None
        };
        self.global
            .read(self.comm.node(), offset, len)
            .await
            .map_err(Error::from)
    }

    /// `MPI_File_sync`: after it returns, all data this process wrote
    /// is visible in the global file.
    pub async fn file_sync(&self) {
        let _t = self.profiler.enter(Phase::FlushWait);
        if let Some(c) = &self.cache {
            if let Err(e) = c.flush().await {
                // Unrepairable integrity failure or flush-after-close:
                // surface to the application through the file's error
                // slot rather than losing it in the background.
                self.record_io_error(e);
            }
        }
    }

    /// `MPI_File_close` (collective): flush the cache, stop the sync
    /// thread, optionally discard the cache file, close the global
    /// handle and synchronise the communicator.
    pub async fn close(&self) {
        if self.state.closed.replace(true) {
            return;
        }
        {
            let _t = self.profiler.enter(Phase::FlushWait);
            if let Some(c) = &self.cache {
                if let Err(e) = c.close().await {
                    self.record_io_error(e);
                }
            }
        }
        let _t = self.profiler.enter(Phase::Close);
        if self.deferred_open {
            self.global.detach();
        } else {
            self.global.close(self.comm.node()).await;
        }
        self.comm.barrier().await;
    }

    /// True once closed.
    pub fn is_closed(&self) -> bool {
        self.state.closed.get()
    }

    /// A view of the same open file bound to a sub-communicator, with
    /// its own aggregator set (in sub-rank numbering). Used by the
    /// partitioned-collective baseline: the global handle, cache layer,
    /// profiler and file state are shared; only the coordination scope
    /// — and with it the placement, node split included — changes.
    pub(crate) fn with_comm(&self, sub: Comm, aggregators: Rc<[usize]>) -> AdioFile {
        let my_agg_index = aggregators.iter().position(|&r| r == sub.rank());
        AdioFile {
            comm: sub,
            ctx: self.ctx.clone(),
            global: self.global.clone(),
            cache: self.cache.clone(),
            profiler: self.profiler.clone(),
            my_agg_index,
            deferred_open: self.deferred_open,
            state: Rc::clone(&self.state),
            view: Some(Rc::new(Placement::new(aggregators))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::TestbedSpec;
    use e10_mpisim::{FileView, FlatType};
    use e10_simcore::run;
    use proptest::prelude::*;

    fn info_with(pairs: &[(&str, &str)]) -> Info {
        let i = Info::new();
        for (k, v) in pairs {
            i.set(k, v);
        }
        i
    }

    /// Run a closure per rank on a small testbed.
    async fn on_testbed<F, Fut>(procs: usize, nodes: usize, f: F)
    where
        F: Fn(IoCtx) -> Fut,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let tb = TestbedSpec::small(procs, nodes).build();
        let handles: Vec<_> = tb
            .ctxs()
            .into_iter()
            .map(|ctx| e10_simcore::spawn(f(ctx)))
            .collect();
        e10_simcore::join_all(handles).await;
    }

    #[test]
    fn open_write_close_without_cache() {
        run(async {
            on_testbed(4, 2, |ctx| async move {
                let f = AdioFile::open(&ctx, "/gfs/plain", &Info::new(), true)
                    .await
                    .unwrap();
                assert!(!f.cache_active());
                let off = ctx.comm.rank() as u64 * 1024;
                f.write_contig(off, Payload::gen(1, off, 1024))
                    .await
                    .unwrap();
                f.close().await;
                assert!(f.is_closed());
                if ctx.comm.rank() == 0 {
                    assert!(f.global().extents().verify_gen(1, 0, 4096).is_ok());
                }
            })
            .await;
        });
    }

    #[test]
    fn cache_enabled_write_is_deferred_until_close() {
        run(async {
            on_testbed(2, 1, |ctx| async move {
                let info = info_with(&[
                    ("e10_cache", "enable"),
                    ("e10_cache_flush_flag", "flush_onclose"),
                    ("e10_cache_discard_flag", "enable"),
                ]);
                let f = AdioFile::open(&ctx, "/gfs/cached", &info, true)
                    .await
                    .unwrap();
                assert!(f.cache_active());
                let off = ctx.comm.rank() as u64 * 4096;
                f.write_contig(off, Payload::gen(2, off, 4096))
                    .await
                    .unwrap();
                // Not yet visible globally.
                assert!(!f.global().extents().covered(off, 1));
                f.close().await;
                assert!(f.global().extents().verify_gen(2, off, 4096).is_ok());
                // Discarded after close.
                let (_, used) = ctx.my_localfs().statfs();
                assert_eq!(used, 0, "cache file must be discarded");
            })
            .await;
        });
    }

    #[test]
    fn file_sync_makes_data_visible() {
        run(async {
            on_testbed(2, 1, |ctx| async move {
                let info = info_with(&[("e10_cache", "enable")]);
                let f = AdioFile::open(&ctx, "/gfs/synced", &info, true)
                    .await
                    .unwrap();
                let off = ctx.comm.rank() as u64 * 1000;
                f.write_contig(off, Payload::gen(3, off, 1000))
                    .await
                    .unwrap();
                f.file_sync().await;
                assert!(f.global().extents().verify_gen(3, off, 1000).is_ok());
                f.close().await;
            })
            .await;
        });
    }

    #[test]
    fn cache_open_failure_reverts_to_standard_path() {
        run(async {
            // Zero-capacity scratch: cache file creation succeeds but
            // the first write degrades... make create itself fail by
            // pointing nothing anywhere — instead verify degraded-write
            // fallback end to end with a tiny scratch.
            let mut spec = TestbedSpec::small(2, 1);
            spec.localfs.capacity = 512; // almost nothing
            let tb = spec.build();
            let handles: Vec<_> = tb
                .ctxs()
                .into_iter()
                .map(|ctx| {
                    e10_simcore::spawn(async move {
                        let info = info_with(&[("e10_cache", "enable")]);
                        let f = AdioFile::open(&ctx, "/gfs/fallback", &info, true)
                            .await
                            .unwrap();
                        let off = ctx.comm.rank() as u64 * 100_000;
                        f.write_contig(off, Payload::gen(4, off, 100_000))
                            .await
                            .unwrap();
                        // Data must land in the global file despite the
                        // cache being unusable.
                        f.close().await;
                        assert!(f.global().extents().verify_gen(4, off, 100_000).is_ok());
                    })
                })
                .collect();
            e10_simcore::join_all(handles).await;
        });
    }

    #[test]
    fn aggregator_resolution_follows_cb_nodes() {
        run(async {
            on_testbed(8, 4, |ctx| async move {
                let info = info_with(&[("cb_nodes", "2")]);
                let f = AdioFile::open(&ctx, "/gfs/aggsel", &info, true)
                    .await
                    .unwrap();
                assert_eq!(f.aggregators(), &[0, 2]);
                match ctx.comm.rank() {
                    0 => assert_eq!(f.my_agg_index(), Some(0)),
                    2 => assert_eq!(f.my_agg_index(), Some(1)),
                    _ => assert_eq!(f.my_agg_index(), None),
                }
                f.close().await;
            })
            .await;
        });
    }

    #[test]
    fn default_aggregators_one_per_node() {
        run(async {
            on_testbed(8, 4, |ctx| async move {
                let f = AdioFile::open(&ctx, "/gfs/defagg", &Info::new(), true)
                    .await
                    .unwrap();
                assert_eq!(f.aggregators(), &[0, 2, 4, 6]);
                f.close().await;
            })
            .await;
        });
    }

    #[test]
    fn cb_config_list_caps_aggregators_per_node() {
        run(async {
            on_testbed(8, 2, |ctx| async move {
                // 8 ranks on 2 nodes; ask for 6 aggregators but at most
                // 2 per node → only 4 can be placed.
                let info = info_with(&[("cb_nodes", "6"), ("cb_config_list", "*:2")]);
                let f = AdioFile::open(&ctx, "/gfs/cbl", &info, true).await.unwrap();
                assert_eq!(f.aggregators(), &[0, 4, 1, 5]);
                f.close().await;
            })
            .await;
        });
    }

    /// Every rank's aggregator list of an open on `procs` ranks over
    /// `nodes` nodes under `info`, with the node map, under `backend`.
    fn elected(
        procs: usize,
        nodes: usize,
        backend: e10_mpisim::CollBackend,
        info: impl Fn(usize) -> Info + 'static,
    ) -> (Vec<Rc<[usize]>>, Vec<usize>) {
        run(async move {
            let mut spec = TestbedSpec::small(procs, nodes);
            spec.backend = backend;
            let tb = spec.build();
            let node_map = tb.ctx(0).comm.node_map().to_vec();
            let info = Rc::new(info);
            let ranks = tb.ctxs().into_iter().map(|ctx| {
                let info = Rc::clone(&info);
                e10_simcore::spawn(async move {
                    let info = info(ctx.comm.rank());
                    let f = AdioFile::open(&ctx, "/gfs/elect", &info, true)
                        .await
                        .unwrap();
                    let aggregators = Rc::clone(&f.placement().aggregators);
                    f.close().await;
                    aggregators
                })
            });
            (e10_simcore::join_all(ranks.collect()).await, node_map)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The open's one election — the last arrival's under
        /// `Analytic`, each rank's after the barrier under
        /// `Algorithmic` — is the per-rank `select_aggregators_capped`
        /// of every rank, whatever `cb_nodes` and `cb_config_list` ask.
        #[test]
        fn the_shared_election_is_every_ranks_own(
            procs in 1usize..13,
            nodes in 1usize..6,
            cb_nodes in 0usize..16,
            cap in 0usize..4,
            analytic in any::<bool>(),
        ) {
            use e10_mpisim::CollBackend;
            // 0 leaves the hint unset, as does a `cap` of 0.
            let nodes = nodes.min(procs);
            let cb_nodes = (cb_nodes > 0).then(|| 1 + cb_nodes % (procs + 2));
            let backend = [CollBackend::Algorithmic, CollBackend::Analytic][analytic as usize];
            let (lists, node_map) = elected(procs, nodes, backend, move |_| {
                let info = Info::new();
                if let Some(n) = cb_nodes {
                    info.set("cb_nodes", &n.to_string());
                }
                if cap > 0 {
                    info.set("cb_config_list", &format!("*:{cap}"));
                }
                info
            });
            let want = select_aggregators_capped(
                &node_map,
                cb_nodes.unwrap_or(nodes),
                if cap > 0 { cap } else { usize::MAX },
            );
            for (rank, list) in lists.iter().enumerate() {
                prop_assert_eq!(&list[..], &want[..], "rank {}", rank);
            }
            let shared = lists.iter().all(|l| Rc::ptr_eq(l, &lists[0]));
            prop_assert_eq!(shared, analytic || procs == 1);
        }
    }

    #[test]
    fn ranks_that_disagree_on_placement_hints_panic_naming_both() {
        use e10_mpisim::CollBackend;
        for backend in [CollBackend::Algorithmic, CollBackend::Analytic] {
            for (key, mine, theirs) in [("cb_nodes", "2", "4"), ("cb_config_list", "*:1", "*:3")] {
                let open = std::panic::catch_unwind(|| {
                    elected(4, 2, backend, move |rank| {
                        info_with(&[(key, if rank == 1 { mine } else { theirs })])
                    })
                });
                let msg = open.expect_err("disagreeing ranks must not open");
                let msg = msg.downcast_ref::<String>().expect("a formatted panic");
                let (a, b) = match key {
                    "cb_nodes" => ("cb_nodes: Some(2)", "cb_nodes: Some(4)"),
                    _ => (
                        "cb_config_max_per_node: Some(1)",
                        "cb_config_max_per_node: Some(3)",
                    ),
                };
                assert!(msg.contains(a) && msg.contains(b), "{backend:?}: {msg}");
            }
        }
    }

    #[test]
    fn deferred_open_skips_metadata_for_non_aggregators() {
        run(async {
            // Measure open duration per rank with/without the hint.
            async fn open_times(defer: bool) -> (f64, f64) {
                let tb = TestbedSpec::small(8, 4).build();
                let handles: Vec<_> = tb
                    .ctxs()
                    .into_iter()
                    .map(|ctx| {
                        e10_simcore::spawn(async move {
                            let info = info_with(&[("cb_nodes", "2")]);
                            if defer {
                                info.set("romio_no_indep_rw", "true");
                            }
                            let t0 = e10_simcore::now();
                            let f = AdioFile::open(&ctx, "/gfs/dop", &info, true).await.unwrap();
                            let dt = e10_simcore::now().since(t0).as_secs_f64();
                            // Correctness is unaffected.
                            let off = ctx.comm.rank() as u64 * 4096;
                            let view = FileView::new(&FlatType::contiguous(4096), off);
                            crate::collective::write_at_all(
                                &f,
                                &view,
                                &DataSpec::FileGen { seed: 55 },
                            )
                            .await;
                            f.close().await;
                            if ctx.comm.rank() == 0 {
                                f.global().extents().verify_gen(55, 0, 8 * 4096).unwrap();
                            }
                            (ctx.comm.rank(), dt, f.my_agg_index().is_some())
                        })
                    })
                    .collect();
                let outs = e10_simcore::join_all(handles).await;
                let non_agg_mean = outs
                    .iter()
                    .filter(|(r, _, agg)| !agg && *r != 0)
                    .map(|(_, t, _)| t)
                    .sum::<f64>()
                    / outs.iter().filter(|(r, _, agg)| !agg && *r != 0).count() as f64;
                let agg_mean = outs
                    .iter()
                    .filter(|(_, _, agg)| *agg)
                    .map(|(_, t, _)| t)
                    .sum::<f64>()
                    / outs.iter().filter(|(_, _, agg)| *agg).count() as f64;
                (non_agg_mean, agg_mean)
            }
            let (plain_non_agg, _) = open_times(false).await;
            let (defer_non_agg, defer_agg) = open_times(true).await;
            assert!(
                defer_non_agg < plain_non_agg,
                "deferred open must be cheaper for non-aggregators:                  {defer_non_agg} vs {plain_non_agg}"
            );
            // Aggregators still pay the full open.
            assert!(defer_agg > defer_non_agg);
        });
    }

    #[test]
    fn atomic_mode_serialises_overlapping_writers() {
        run(async {
            on_testbed(2, 2, |ctx| async move {
                let f = AdioFile::open(&ctx, "/gfs/atomic", &Info::new(), true)
                    .await
                    .unwrap();
                assert!(!f.atomicity());
                f.set_atomicity(true);
                assert!(f.atomicity());
                // Both ranks write the SAME extent with different
                // seeds; atomicity guarantees the result is entirely
                // one or the other, never interleaved.
                let seed = 60 + ctx.comm.rank() as u64;
                f.write_contig(0, Payload::gen(seed, 0, 256 << 10))
                    .await
                    .unwrap();
                f.close().await;
                if ctx.comm.rank() == 0 {
                    let ext = f.global().extents();
                    let a = ext.verify_gen(60, 0, 256 << 10);
                    let b = ext.verify_gen(61, 0, 256 << 10);
                    assert!(
                        a.is_ok() ^ b.is_ok(),
                        "exactly one writer must win wholesale: {a:?} {b:?}"
                    );
                }
            })
            .await;
        });
    }

    #[test]
    fn double_close_is_idempotent() {
        run(async {
            on_testbed(2, 1, |ctx| async move {
                let f = AdioFile::open(&ctx, "/gfs/dc", &Info::new(), true)
                    .await
                    .unwrap();
                f.close().await;
                f.close().await;
            })
            .await;
        });
    }

    #[test]
    fn invalid_hint_fails_open() {
        run(async {
            on_testbed(1, 1, |ctx| async move {
                let info = info_with(&[("e10_cache", "bogus")]);
                let r = AdioFile::open(&ctx, "/gfs/x", &info, true).await;
                assert!(matches!(r, Err(Error::Hint(_))));
            })
            .await;
        });
    }
}
