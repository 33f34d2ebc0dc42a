//! # e10-romio
//!
//! The core of the reproduction: a ROMIO-style MPI-IO implementation
//! over the simulated cluster, containing the paper's contribution —
//! the E10 MPI-IO hint extensions that integrate node-local
//! non-volatile storage as a persistent cache for collective writes.
//!
//! Layer map (mirroring Fig. 2 of the paper):
//!
//! * [`hints`] — Table I (ROMIO collective hints) and Table II (the
//!   `e10_*` extensions) with parsing and validation.
//! * [`adio`] — the ADIO file object: collective open, `write_contig`
//!   with cache redirection, flush/sync/close semantics.
//! * [`collective`] — two-phase collective I/O
//!   (`ADIOI_Exch_and_write`), the one implementation of it: offset
//!   exchange, file domains, per-round `Alltoall` + data shuffle +
//!   collective-buffer I/O, final error `Allreduce`, generic over how
//!   the ranks coordinate and which way the data moves.
//! * [`node_agg`] — the intra-node request-aggregation pre-stage
//!   (`e10_two_phase = node_agg`): node leaders merge their node's
//!   requests before the inter-node exchange.
//! * [`tolerant`] — the crash-tolerant coordination
//!   (`e10_coll_timeout > 0`): the same write under timed,
//!   abortable steps, in a shrink-and-redo attempt loop.
//! * [`collective_read`] — the collective read's direction and results.
//! * [`sieve`] — independent strided writes with optional data sieving.
//! * [`cache`] — the E10 cache layer: cache file, `fallocate`
//!   allocation, sync thread, generalized-request completion, coherent
//!   locking, discard policy.
//! * [`arbiter`] — per-node multi-tenant admission, watermark eviction
//!   and fair flush scheduling across jobs sharing the cache device.
//! * [`fd`] — file-domain partitioning and aggregator selection.
//! * [`profile`] — MPE-style phase accounting (the breakdown figures).
//! * [`bwmodel`] — Equations 1 and 2 (perceived bandwidth).
//! * [`testbed`] — the simulated DEEP-ER cluster assembly.

pub mod adio;
pub mod arbiter;
pub mod baselines;
pub mod bwmodel;
pub mod cache;
pub mod collective;
pub mod collective_read;
pub mod error;
pub mod fd;
pub mod hints;
pub mod journal;
pub mod node_agg;
pub mod profile;
pub mod sieve;
#[cfg(test)]
mod test_util;
pub mod testbed;
pub mod tolerant;

pub use adio::{AdioFile, DataSpec};
pub use arbiter::{job_family, Admission, CacheArbiter};
pub use baselines::{write_at_all_multifile, write_at_all_partitioned};
pub use cache::{CacheConfig, CacheLayer, Health, RecoverError, RecoveryReport};
pub use collective::{read_at_all, write_at_all, WriteAllResult};
pub use collective_read::{ReadAllResult, ReadPiece};
pub use error::Error;
pub use fd::{node_leaders, select_aggregators, select_aggregators_capped, FileDomains};
pub use hints::{
    CacheClass, CacheMode, CbMode, FdStrategy, FlushFlag, HintDoc, HintError, HintErrors, HintSpec,
    RomioHints, TraceMode, TwoPhaseAlgo, HINTS,
};
pub use profile::{Breakdown, Phase, Profiler};
pub use testbed::{IoCtx, Testbed, TestbedSpec};
