//! MPI-IO hints: ROMIO's collective-I/O hints (Table I of the paper)
//! plus the proposed E10 extensions (Table II), with parsing,
//! validation and defaults.
//!
//! Everything that is per hint lives in one table, [`HINTS`]: a row
//! names the key, the [`RomioHints`] field it fills and that field's
//! default, its value kind (the strings accepted, the range check, how
//! the value renders back, the `expected` text of a rejection) and
//! where the hint is documented. Defaults, parsing, validation,
//! rendering and the listings of `results/tables.txt` all walk it, so
//! **adding a hint is one struct field plus one row**.
//!
//! Two ways in, one set of checks, every violation reported at once
//! as [`HintErrors`]: [`RomioHints::from_info`], the MPI surface,
//! parses each `(key, value)` pair of an [`Info`] by its row; the typed
//! path is struct-update syntax over the public fields (`RomioHints {
//! cb_nodes: Some(16), ..Default::default() }`), then
//! [`RomioHints::validate`].

use std::borrow::Cow;
use std::ops::RangeInclusive;

use e10_mpisim::Info;

pub use crate::error::{HintError, HintErrors};

/// An enum-valued field, seen through its hint-string spellings.
trait ChoiceSlot {
    fn spelling(&self) -> &'static str;
    /// Store the variant spelled `s`; `false` if there is none.
    fn set(&mut self, s: &str) -> bool;
}

/// Declares the hint enums with each variant's spelling written once,
/// next to the variant: `as_str`, parsing and the `a|b|c` text a
/// rejected value is answered with all come from that one list.
macro_rules! hint_enums {
    ($($(#[$meta:meta])* $ty:ident {
        $(#[$m0:meta])* $v0:ident = $s0:literal,
        $($(#[$m:meta])* $v:ident = $s:literal,)*
    })*) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub enum $ty {
            $(#[$m0])* $v0,
            $($(#[$m])* $v,)*
        }

        impl $ty {
            const EXPECTED: &'static str = concat!($s0 $(, "|", $s)*);

            /// The hint-string spelling of this value.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $ty::$v0 => $s0,
                    $($ty::$v => $s,)*
                }
            }
        }

        impl ChoiceSlot for $ty {
            fn spelling(&self) -> &'static str {
                self.as_str()
            }

            fn set(&mut self, s: &str) -> bool {
                let all = [$ty::$v0 $(, $ty::$v)*];
                all.into_iter().find(|v| v.as_str() == s).map(|v| *self = v).is_some()
            }
        }
    )*};
}

hint_enums! {
    /// `romio_cb_write` / `romio_cb_read` values.
    CbMode {
        /// Always use collective buffering.
        Enable = "enable",
        /// Never use collective buffering.
        Disable = "disable",
        /// Let ROMIO decide from the access pattern (the default).
        #[default]
        Automatic = "automatic",
    }

    /// `e10_cache` values (Table II).
    CacheMode {
        /// Write collective data to the node-local cache.
        Enable = "enable",
        /// Cache layer off (default).
        #[default]
        Disable = "disable",
        /// Like `Enable`, but written extents stay locked in the global
        /// file until their synchronisation completes.
        Coherent = "coherent",
    }

    /// `e10_cache_class` values (extension): which node-local device
    /// class backs the E10 cache.
    CacheClass {
        /// The paper's setup: the block SSD `/scratch` partition (default).
        #[default]
        Ssd = "ssd",
        /// Byte-addressable NVM mount: asymmetric latency, byte-granular
        /// commands, channel-level concurrency. Small cache writes (at
        /// most `e10_nvm_threshold` bytes) take the byte-granular
        /// front-end, skipping the fallocate/page-cache staging path.
        Nvm = "nvm",
        /// Two-tier cache: pieces at most `e10_nvm_threshold` bytes go to
        /// an NVM front file (capped by `e10_nvm_capacity`), everything
        /// else — and the overflow — to the SSD cache file.
        Hybrid = "hybrid",
    }

    /// `e10_cache_flush_flag` values (Table II), plus the `flush_none`
    /// measurement mode used to obtain the paper's "TBW Cache Enabled"
    /// series (cache writes without any synchronisation to the global
    /// file — an upper bound, not a consistency-preserving
    /// configuration).
    FlushFlag {
        /// Start synchronising each extent right after it is written.
        #[default]
        FlushImmediate = "flush_immediate",
        /// Queue extents and synchronise them when the file is closed.
        FlushOnClose = "flush_onclose",
        /// Never synchronise (theoretical-bandwidth measurement only).
        FlushNone = "flush_none",
    }

    /// `e10_two_phase` values: which collective-write algorithm
    /// `MPI_File_write_all` runs. Replaces the per-variant boolean
    /// toggles older revisions would have needed — one typed knob selects
    /// the algorithm, and the dispatch in [`crate::collective`] switches
    /// on it.
    TwoPhaseAlgo {
        /// The original two-phase algorithm (del Rosario et al.): one
        /// exchange round buffering each aggregator's whole file domain.
        Stock = "stock",
        /// ROMIO's extended two-phase (`ADIOI_Exch_and_write`): rounds
        /// bounded by `cb_buffer_size`. Default.
        #[default]
        Extended = "extended",
        /// Intra-node request aggregation (Kang et al.): ranks sharing a
        /// node merge their requests at a node leader before the
        /// inter-node exchange, cutting shuffle messages by the
        /// ranks-per-node factor.
        NodeAgg = "node_agg",
    }

    /// File-domain partitioning strategy for the two-phase algorithm.
    FdStrategy {
        /// Even byte split of the accessed range (classic UFS driver) —
        /// file domains may straddle stripe boundaries and contend on
        /// file-system locks.
        Even = "even",
        /// Even split with boundaries aligned to `striping_unit` (the
        /// Lustre driver behaviour, and the BeeGFS driver developed in
        /// the course of the paper — its footnote 1). Default.
        #[default]
        StripeAligned = "aligned",
    }

    /// `e10_trace` values: where structured trace events go.
    TraceMode {
        /// No tracing (default; the instrumented paths cost one branch).
        #[default]
        Off = "off",
        /// Bounded in-memory ring, inspectable after the run.
        Ring = "ring",
        /// NDJSON stream under `e10_trace_path`.
        Jsonl = "jsonl",
    }
}

/// All hints relevant to this implementation, resolved with defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RomioHints {
    /// `romio_cb_write` (Table I).
    pub cb_write: CbMode,
    /// `romio_cb_read` (Table I).
    pub cb_read: CbMode,
    /// `cb_buffer_size` in bytes (Table I; ROMIO default 16 MiB).
    pub cb_buffer_size: u64,
    /// `cb_nodes` (Table I; default = number of nodes).
    pub cb_nodes: Option<usize>,
    /// `striping_factor` (stripe count).
    pub striping_factor: Option<usize>,
    /// `striping_unit` in bytes.
    pub striping_unit: Option<u64>,
    /// `ind_wr_buffer_size` in bytes (pre-existing ROMIO hint reused as
    /// the cache synchronisation buffer size; default 512 KiB).
    pub ind_wr_buffer_size: u64,
    /// `e10_cache` (Table II).
    pub e10_cache: CacheMode,
    /// `e10_cache_path` (Table II; default `/scratch`, borrowed, so a
    /// default hint set owns no string).
    pub e10_cache_path: Cow<'static, str>,
    /// `e10_cache_flush_flag` (Table II).
    pub e10_cache_flush_flag: FlushFlag,
    /// `e10_cache_discard_flag` (Table II; `enable` removes the cache
    /// file after close).
    pub e10_cache_discard_flag: bool,
    /// `e10_fd_partition` (this implementation): file-domain strategy.
    pub fd_strategy: FdStrategy,
    /// `romio_ds_write`: data sieving for independent writes (ROMIO
    /// default: disable, because of the locking it requires).
    pub ds_write: CbMode,
    /// `e10_cache_read` (extension; the paper's stated future work):
    /// serve collective reads from the aggregator's local cache when
    /// the requested extent is fully cached there.
    pub e10_cache_read: bool,
    /// `cb_config_list` (subset of ROMIO's syntax): `*:N` caps the
    /// number of aggregators placed per node at `N`.
    pub cb_config_max_per_node: Option<usize>,
    /// `romio_no_indep_rw`: deferred open — only aggregators (and rank
    /// 0, which creates) open the global file, saving a metadata storm
    /// at scale.
    pub no_indep_rw: bool,
    /// `e10_cache_evict` (extension; §III's "more complex" space
    /// management): punch each extent out of the cache file as soon as
    /// it is synchronised, so the cache works as a streaming staging
    /// area and files larger than `/scratch` still fit.
    pub e10_cache_evict: bool,
    /// `e10_cache_journal` (extension): keep an append-only manifest
    /// journal next to the cache file so the cache can be recovered
    /// after a node crash (crash consistency for the staged data).
    pub e10_cache_journal: bool,
    /// `e10_cache_journal_path` (extension): explicit journal file
    /// path; default `None` places it at `<cache file>.jnl`.
    pub e10_cache_journal_path: Option<String>,
    /// `e10_integrity` (extension): end-to-end data integrity for the
    /// cache path. Each extent accepted into the cache is digested at
    /// write time; the sync thread verifies the cache-file bytes
    /// against the digest before pushing them to the global file, and
    /// cached reads verify before serving. Default off: with the hint
    /// disabled no digest is ever computed, so the fast path is
    /// byte-identical to previous releases.
    pub e10_integrity: bool,
    /// `e10_integrity_scrub_ms` (extension): interval, in simulated
    /// milliseconds, at which the sync thread opportunistically
    /// re-verifies resident cache extents between flush rounds.
    /// `0` (the default) disables scrubbing; ignored unless
    /// `e10_integrity` is enabled.
    pub e10_integrity_scrub_ms: u64,
    /// `e10_cache_hiwater` (extension): cache-volume occupancy, in
    /// percent, at which the per-node arbiter trips into pressure and
    /// stops admitting new extents. `0` (the default) disables
    /// watermark management entirely, leaving the single-tenant
    /// behaviour of the paper.
    pub e10_cache_hiwater: u64,
    /// `e10_cache_lowater` (extension): occupancy, in percent, the
    /// arbiter must drain to (by evicting fully-synced extents) before
    /// admitting again after a high-watermark trip. `0` means "same as
    /// hiwater" (no hysteresis). Must not exceed `e10_cache_hiwater`.
    pub e10_cache_lowater: u64,
    /// `e10_cache_class` (extension): device class backing the cache —
    /// `ssd` (default), `nvm`, or `hybrid`.
    pub e10_cache_class: CacheClass,
    /// `e10_nvm_capacity` (extension): byte budget of the NVM front
    /// tier in `hybrid` mode. `0` (the default) means "whatever the
    /// NVM mount holds" — the mount's own capacity is the only limit.
    /// Ignored for the pure classes.
    pub e10_nvm_capacity: u64,
    /// `e10_nvm_threshold` (extension): cache writes of at most this
    /// many bytes take the byte-granular NVM path (`nvm` class: direct
    /// device writes; `hybrid`: routed to the front tier). Default
    /// 1 MiB. `0` disables the byte-granular front entirely, making
    /// the nvm class operation-for-operation identical to ssd (the
    /// determinism anchor relies on this).
    pub e10_nvm_threshold: u64,
    /// `e10_cache_sync_depth` (extension): bound on the number of
    /// extents queued to the sync thread at once. A writer that would
    /// exceed it waits for a slot, so staging can never run unboundedly
    /// ahead of the global-file drain (bounded-memory steady state).
    /// `0` (the default) leaves the queue unbounded — the paper's
    /// original fire-and-forget behaviour.
    pub e10_cache_sync_depth: u64,
    /// `e10_two_phase` (extension): which collective-write algorithm
    /// runs — `stock`, `extended` (default) or `node_agg`.
    pub two_phase: TwoPhaseAlgo,
    /// `e10_coll_timeout` (extension): send/recv timeout, in simulated
    /// milliseconds, after which a rank participating in a collective
    /// declares its peer dead and enters the shrink/agree recovery
    /// protocol. `0` (the default) disables mid-collective crash
    /// tolerance entirely — a dead peer hangs the collective, exactly
    /// the pre-tolerance behaviour (the determinism anchor relies on
    /// this).
    pub e10_coll_timeout: u64,
    /// `e10_trace` (extension): structured-trace destination.
    pub e10_trace: TraceMode,
    /// `e10_trace_path` (extension): directory for `jsonl` traces
    /// (default `results/traces`, borrowed like `e10_cache_path`'s).
    pub e10_trace_path: Cow<'static, str>,
}

/// A numeric field: every integer hint is read and stored as a `u64`.
trait NumSlot {
    /// The value, or `None` for an unset optional hint.
    fn get(&self) -> Option<u64>;
    /// Store `n`; `false` if it does not fit the field's type.
    fn put(&mut self, n: u64) -> bool;
}

impl NumSlot for u64 {
    fn get(&self) -> Option<u64> {
        Some(*self)
    }

    fn put(&mut self, n: u64) -> bool {
        *self = n;
        true
    }
}

impl<T: Copy + TryFrom<u64>> NumSlot for Option<T>
where
    u64: TryFrom<T>,
{
    fn get(&self) -> Option<u64> {
        self.and_then(|n| u64::try_from(n).ok())
    }

    fn put(&mut self, n: u64) -> bool {
        *self = T::try_from(n).ok();
        self.is_some()
    }
}

/// Shared and exclusive access to one [`RomioHints`] field, erased to
/// what its kind reads and writes it through.
struct Lens<T: ?Sized + 'static> {
    get: fn(&RomioHints) -> &T,
    get_mut: fn(&mut RomioHints) -> &mut T,
}

/// A boolean hint's `[on, off, expected]` words.
type Words = [&'static str; 3];
const ON_OFF: Words = ["enable", "disable", "enable|disable"];
const TRUE_FALSE: Words = ["true", "false", "true|false"];

/// A hint's value kind: the field it fills, the strings it accepts
/// (surrounding whitespace is ignored by the numeric kinds and by no
/// other), its range check and the `expected` text of a rejection.
enum Kind {
    /// One of an enum's spellings.
    Choice(Lens<dyn ChoiceSlot>, &'static str),
    /// A byte count with an optional `k`/`m`/`g` suffix.
    Size(Lens<dyn NumSlot>, RangeInclusive<u64>, &'static str),
    /// An integer; a percentage is one with the range `0..=100`.
    Uint(Lens<dyn NumSlot>, RangeInclusive<u64>, &'static str),
    /// `*:N`, the one form of ROMIO's `cb_config_list` supported.
    PerNode(Lens<dyn NumSlot>),
    /// A boolean in these words (`enable`/`disable` always work).
    Flag(Lens<bool>, Words),
    /// A non-empty path.
    Path(Lens<Cow<'static, str>>),
    /// A non-empty path that may stay unset.
    OptPath(Lens<Option<String>>),
}
use Kind::{Choice, Flag, OptPath, Path, PerNode, Size, Uint};

const POSITIVE: RangeInclusive<u64> = 1..=u64::MAX;
const ANY: RangeInclusive<u64> = 0..=u64::MAX;
const PERCENT: RangeInclusive<u64> = 0..=100;

/// Where a hint is documented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintDoc {
    /// The paper's Table I (ROMIO's collective hints): row, description.
    Table1(u8, &'static str),
    /// The paper's Table II (the E10 extensions): row, accepted values.
    Table2(u8, &'static str),
    /// Added by this implementation: accepted values and provenance.
    Extension(&'static str),
    /// A standard MPI-IO hint that none of the listings describes.
    Standard,
}
use HintDoc::{Extension, Standard, Table1, Table2};

/// One row of [`HINTS`]: everything that is particular to one hint.
pub struct HintSpec {
    /// The hint key.
    pub key: &'static str,
    /// Where the hint is documented, with its description.
    pub doc: HintDoc,
    kind: Kind,
}

impl HintSpec {
    /// What a rejected value is told would have been accepted.
    pub fn expected(&self) -> &'static str {
        match &self.kind {
            Choice(_, expected) | Size(_, _, expected) | Uint(_, _, expected) => expected,
            PerNode(_) => "\"*:N\" with N > 0",
            Flag(_, words) => words[2],
            Path(_) | OptPath(_) => "non-empty path",
        }
    }

    /// Parse `value` into this hint's field; `false`, with the field
    /// untouched, if it is not acceptable.
    fn parse_into(&self, hints: &mut RomioHints, value: &str) -> bool {
        let store = |slot: &mut dyn NumSlot, n: Option<u64>, range: &RangeInclusive<u64>| {
            n.is_some_and(|n| range.contains(&n) && slot.put(n))
        };
        match &self.kind {
            Choice(lens, _) => (lens.get_mut)(hints).set(value),
            Size(lens, range, _) => store((lens.get_mut)(hints), parse_size(value), range),
            Uint(lens, range, _) => store((lens.get_mut)(hints), parse_uint(value), range),
            PerNode(lens) => {
                let n = value.strip_prefix("*:").and_then(parse_uint);
                store((lens.get_mut)(hints), n, &POSITIVE)
            }
            Flag(lens, words) => {
                let on = value == words[0] || value == ON_OFF[0];
                let known = on || value == words[1] || value == ON_OFF[1];
                if known {
                    *(lens.get_mut)(hints) = on;
                }
                known
            }
            Path(_) | OptPath(_) if value.is_empty() => false,
            Path(lens) => {
                *(lens.get_mut)(hints) = Cow::Owned(value.to_string());
                true
            }
            OptPath(lens) => {
                *(lens.get_mut)(hints) = Some(value.to_string());
                true
            }
        }
    }

    /// The field's value as a hint string; `None` for an unset
    /// optional hint.
    fn render(&self, hints: &RomioHints) -> Option<String> {
        match &self.kind {
            Choice(lens, _) => Some((lens.get)(hints).spelling().to_string()),
            Size(lens, ..) | Uint(lens, ..) => (lens.get)(hints).get().map(|n| n.to_string()),
            PerNode(lens) => (lens.get)(hints).get().map(|n| format!("*:{n}")),
            Flag(lens, words) => Some(words[!*(lens.get)(hints) as usize].to_string()),
            Path(lens) => Some((lens.get)(hints).to_string()),
            OptPath(lens) => (lens.get)(hints).clone(),
        }
    }
}

fn parse_uint(v: &str) -> Option<u64> {
    v.trim().parse().ok()
}

fn parse_size(v: &str) -> Option<u64> {
    let v = v.trim();
    let (num, mult) = match v.chars().last() {
        Some('k') | Some('K') => (&v[..v.len() - 1], 1 << 10),
        Some('m') | Some('M') => (&v[..v.len() - 1], 1 << 20),
        Some('g') | Some('G') => (&v[..v.len() - 1], 1 << 30),
        _ => (v, 1),
    };
    parse_uint(num)?.checked_mul(mult)
}

/// Builds [`HINTS`], and `RomioHints::default()` with it, from rows of
/// `key => field = default, Kind(range, expected), documentation;` —
/// the field becomes the kind's [`Lens`].
macro_rules! hint_table {
    ($($key:literal => $field:ident = $default:expr, $kind:ident($($arg:expr),*), $doc:expr;)*) => {
        /// The hint table, in the order [`RomioHints::to_pairs`] renders.
        pub const HINTS: &[HintSpec] = &[$(HintSpec {
            key: $key,
            doc: $doc,
            kind: Kind::$kind(
                Lens { get: |h| &h.$field, get_mut: |h| &mut h.$field },
                $($arg),*
            ),
        }),*];

        impl Default for RomioHints {
            fn default() -> Self {
                RomioHints { $($field: $default),* }
            }
        }
    };
}

hint_table! {
    "romio_cb_write" => cb_write = CbMode::Automatic, Choice(CbMode::EXPECTED),
        Table1(1, "enable or disable collective writes");
    "romio_cb_read" => cb_read = CbMode::Automatic, Choice(CbMode::EXPECTED),
        Table1(2, "enable or disable collective reads");
    "cb_buffer_size" => cb_buffer_size = 16 << 20, Size(POSITIVE, "positive byte count"),
        Table1(3, "set the collective buffer size [bytes]");
    "ind_wr_buffer_size" => ind_wr_buffer_size = 512 << 10, Size(POSITIVE, "positive byte count"),
        Table2(5, "synchronisation buffer size [bytes]");
    "e10_cache" => e10_cache = CacheMode::Disable, Choice(CacheMode::EXPECTED),
        Table2(1, "enable, disable, coherent");
    "e10_cache_path" => e10_cache_path = Cow::Borrowed("/scratch"), Path(),
        Table2(2, "cache directory pathname");
    "e10_cache_flush_flag" => e10_cache_flush_flag = FlushFlag::FlushImmediate,
        Choice(FlushFlag::EXPECTED),
        Table2(3, "flush_immediate, flush_onclose");
    "e10_cache_discard_flag" => e10_cache_discard_flag = false, Flag(ON_OFF),
        Table2(4, "enable, disable");
    "cb_nodes" => cb_nodes = None, Uint(POSITIVE, "positive integer"),
        Table1(4, "set the number of aggregator processes");
    "striping_factor" => striping_factor = None, Uint(POSITIVE, "positive integer"), Standard;
    "striping_unit" => striping_unit = None, Size(POSITIVE, "positive byte count"), Standard;
    "romio_ds_write" => ds_write = CbMode::Disable, Choice(CbMode::EXPECTED),
        Extension("enable, disable, automatic (data sieving)");
    "e10_fd_partition" => fd_strategy = FdStrategy::StripeAligned, Choice(FdStrategy::EXPECTED),
        Extension("even, aligned (footnote 1: BeeGFS driver alignment)");
    "e10_cache_read" => e10_cache_read = false, Flag(ON_OFF),
        Extension("enable, disable (§VI future work: cache reads)");
    "e10_cache_evict" => e10_cache_evict = false, Flag(ON_OFF),
        Extension("enable, disable (§III: streaming space management)");
    "e10_cache_journal" => e10_cache_journal = false, Flag(ON_OFF),
        Extension("enable, disable (crash-recoverable cache manifest journal)");
    "e10_cache_journal_path" => e10_cache_journal_path = None, OptPath(),
        Extension("journal file pathname (unset = <cache file>.jnl)");
    "cb_config_list" => cb_config_max_per_node = None, PerNode(),
        Extension("\"*:N\" (aggregators per node)");
    "romio_no_indep_rw" => no_indep_rw = false, Flag(TRUE_FALSE),
        Extension("true, false (deferred open)");
    "e10_integrity" => e10_integrity = false, Flag(ON_OFF),
        Extension("enable, disable (end-to-end checksums on the cache path)");
    "e10_integrity_scrub_ms" => e10_integrity_scrub_ms = 0,
        Uint(ANY, "non-negative integer milliseconds"),
        Extension("milliseconds (background scrub interval; 0 = off)");
    "e10_cache_hiwater" => e10_cache_hiwater = 0, Uint(PERCENT, "percentage 0..=100"),
        Extension("0..=100 percent (§III: multi-job admission high watermark)");
    "e10_cache_lowater" => e10_cache_lowater = 0, Uint(PERCENT, "percentage 0..=100"),
        Extension("0..=100 percent (§III: eviction drains occupancy to here)");
    "e10_two_phase" => two_phase = TwoPhaseAlgo::Extended, Choice(TwoPhaseAlgo::EXPECTED),
        Extension("stock, extended, node_agg (collective-write algorithm)");
    "e10_cache_class" => e10_cache_class = CacheClass::Ssd, Choice(CacheClass::EXPECTED),
        Extension("ssd, nvm, hybrid (device class backing the cache)");
    "e10_nvm_capacity" => e10_nvm_capacity = 0, Size(ANY, "byte count (k/m/g suffixes allowed)"),
        Extension("bytes (hybrid: NVM front-tier budget; 0 = whole mount)");
    "e10_nvm_threshold" => e10_nvm_threshold = 1 << 20,
        Size(ANY, "byte count (k/m/g suffixes allowed)"),
        Extension("bytes (writes at most this take the byte-granular NVM path)");
    "e10_cache_sync_depth" => e10_cache_sync_depth = 0, Uint(ANY, "non-negative extent count"),
        Extension("extent count (bound on queued sync extents; 0 = unbounded)");
    "e10_coll_timeout" => e10_coll_timeout = 0, Uint(ANY, "non-negative integer milliseconds"),
        Extension("milliseconds (crash-tolerant collectives; 0 = off)");
    "e10_trace" => e10_trace = TraceMode::Off, Choice(TraceMode::EXPECTED),
        Extension("off, ring, jsonl (structured-trace destination)");
    "e10_trace_path" => e10_trace_path = Cow::Borrowed("results/traces"), Path(),
        Extension("directory of the jsonl trace files");
}

impl RomioHints {
    /// Resolve an [`Info`] object through [`HINTS`]. Unknown keys are
    /// ignored (MPI semantics); every present-but-invalid value is
    /// reported, in `Info`'s key order.
    pub fn from_info(info: &Info) -> Result<RomioHints, HintErrors> {
        let mut hints = RomioHints::default();
        let mut errors = Vec::new();
        info.for_each(|key, value| {
            let spec = HINTS.iter().find(|spec| spec.key == key);
            if let Some(spec) = spec.filter(|spec| !spec.parse_into(&mut hints, value)) {
                errors.push(HintError {
                    key: key.to_string(),
                    value: value.to_string(),
                    expected: spec.expected(),
                });
            }
        });
        // Cross-field check: a low watermark above the high watermark
        // would make the hysteresis band negative. Only meaningful once
        // both are set; `0` keeps its sentinel meaning.
        if let Some((_, lo)) = hints.watermarks().filter(|(hi, lo)| lo > hi) {
            errors.push(HintError {
                key: "e10_cache_lowater".to_string(),
                value: lo.to_string(),
                expected: "at most e10_cache_hiwater",
            });
        }
        if errors.is_empty() {
            return Ok(hints);
        }
        let first = errors.remove(0);
        Err(HintErrors::new(first, errors))
    }

    /// Compatibility wrapper around [`RomioHints::from_info`] reporting
    /// the first violation only.
    pub fn parse(info: &Info) -> Result<RomioHints, HintError> {
        RomioHints::from_info(info).map_err(HintError::from)
    }

    /// The typed path's check. Hints built by setting the public
    /// fields have bypassed [`RomioHints::from_info`]; this holds them
    /// to it — the same range checks and the same cross-check, every
    /// violation at once — by rendering the fields and resolving them
    /// again.
    pub fn validate(&self) -> Result<(), HintErrors> {
        RomioHints::from_info(&self.to_info()).map(drop)
    }

    /// Render the resolved hints as `(key, value)` pairs (used by the
    /// Table I / Table II regeneration binary and by introspection à la
    /// `MPI_File_get_info`). Every hint this implementation reads is
    /// listed, so [`RomioHints::from_info`] on the output reproduces
    /// `self`.
    pub fn to_pairs(&self) -> Vec<(String, String)> {
        let pair = |spec: &HintSpec| Some((spec.key.to_string(), spec.render(self)?));
        HINTS.iter().filter_map(pair).collect()
    }

    /// Render as an [`Info`] object (`MPI_File_get_info`). The inverse
    /// of [`RomioHints::from_info`] for every hint.
    pub fn to_info(&self) -> Info {
        let info = Info::new();
        for (k, v) in self.to_pairs() {
            info.set(&k, &v);
        }
        info
    }

    /// True if any E10 cache behaviour is requested.
    pub fn cache_requested(&self) -> bool {
        self.e10_cache != CacheMode::Disable
    }

    /// The effective watermark pair `(hiwater, lowater)` in percent,
    /// or `None` when watermark management is disabled
    /// (`e10_cache_hiwater = 0`). A zero low watermark resolves to the
    /// high watermark (admission resumes as soon as occupancy falls
    /// below the trip point — no hysteresis band).
    pub fn watermarks(&self) -> Option<(u64, u64)> {
        if self.e10_cache_hiwater == 0 {
            return None;
        }
        let lo = if self.e10_cache_lowater == 0 {
            self.e10_cache_hiwater
        } else {
            self.e10_cache_lowater
        };
        Some((self.e10_cache_hiwater, lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let h = RomioHints::default();
        assert_eq!(h.cb_buffer_size, 16 << 20);
        assert_eq!(h.ind_wr_buffer_size, 512 << 10);
        assert_eq!(h.e10_cache, CacheMode::Disable);
        assert_eq!(h.e10_cache_flush_flag, FlushFlag::FlushImmediate);
        assert!(!h.e10_cache_discard_flag);
        assert_eq!(h.e10_cache_path, "/scratch");
        assert_eq!(h.e10_trace, TraceMode::Off);
        assert_eq!(h.e10_trace_path, "results/traces");
        assert!(!h.e10_integrity);
        assert_eq!(h.e10_integrity_scrub_ms, 0);
    }

    #[test]
    fn parses_full_paper_configuration() {
        let info = Info::from_pairs([
            ("romio_cb_write", "enable"),
            ("cb_buffer_size", "4M"),
            ("cb_nodes", "16"),
            ("striping_unit", "4194304"),
            ("striping_factor", "4"),
            ("ind_wr_buffer_size", "512K"),
            ("e10_cache", "enable"),
            ("e10_cache_path", "/scratch/e10"),
            ("e10_cache_flush_flag", "flush_onclose"),
            ("e10_cache_discard_flag", "enable"),
        ]);
        let h = RomioHints::parse(&info).unwrap();
        assert_eq!(h.cb_write, CbMode::Enable);
        assert_eq!(h.cb_buffer_size, 4 << 20);
        assert_eq!(h.cb_nodes, Some(16));
        assert_eq!(h.striping_unit, Some(4 << 20));
        assert_eq!(h.striping_factor, Some(4));
        assert_eq!(h.ind_wr_buffer_size, 512 << 10);
        assert_eq!(h.e10_cache, CacheMode::Enable);
        assert_eq!(h.e10_cache_path, "/scratch/e10");
        assert_eq!(h.e10_cache_flush_flag, FlushFlag::FlushOnClose);
        assert!(h.e10_cache_discard_flag);
    }

    #[test]
    fn typed_fields_match_string_parsing() {
        let typed = RomioHints {
            cb_write: CbMode::Enable,
            cb_buffer_size: 4 << 20,
            cb_nodes: Some(16),
            striping_unit: Some(4 << 20),
            striping_factor: Some(4),
            ind_wr_buffer_size: 512 << 10,
            e10_cache: CacheMode::Coherent,
            e10_cache_path: "/scratch/e10".into(),
            e10_cache_flush_flag: FlushFlag::FlushOnClose,
            e10_cache_discard_flag: true,
            e10_trace: TraceMode::Ring,
            ..RomioHints::default()
        };
        typed.validate().unwrap();
        let parsed = RomioHints::from_info(&Info::from_pairs([
            ("romio_cb_write", "enable"),
            ("cb_buffer_size", "4M"),
            ("cb_nodes", "16"),
            ("striping_unit", "4M"),
            ("striping_factor", "4"),
            ("ind_wr_buffer_size", "512K"),
            ("e10_cache", "coherent"),
            ("e10_cache_path", "/scratch/e10"),
            ("e10_cache_flush_flag", "flush_onclose"),
            ("e10_cache_discard_flag", "enable"),
            ("e10_trace", "ring"),
        ]))
        .unwrap();
        assert_eq!(typed.to_pairs(), parsed.to_pairs());
    }

    #[test]
    fn validate_collects_every_violation() {
        let bad = RomioHints {
            cb_buffer_size: 0,
            cb_nodes: Some(0),
            e10_cache_path: "".into(),
            ..RomioHints::default()
        };
        let err = bad.validate().unwrap_err();
        assert_eq!(err.len(), 3);
        assert!(!err.is_empty());
        assert_eq!(err.first().key, "cb_buffer_size");
        let keys: Vec<&str> = err.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, ["cb_buffer_size", "cb_nodes", "e10_cache_path"]);
        // Display joins all of them.
        let msg = err.to_string();
        assert!(msg.contains("cb_nodes") && msg.contains("e10_cache_path"));
    }

    #[test]
    fn from_info_reports_all_bad_values() {
        let info = Info::from_pairs([("cb_buffer_size", "0"), ("e10_cache", "maybe")]);
        let err = RomioHints::from_info(&info).unwrap_err();
        assert_eq!(err.len(), 2);
        // `parse` keeps the old single-error surface.
        let first = RomioHints::parse(&info).unwrap_err();
        assert_eq!(&first, err.first());
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("512K"), Some(512 << 10));
        assert_eq!(parse_size("4m"), Some(4 << 20));
        assert_eq!(parse_size("2G"), Some(2 << 30));
        assert_eq!(parse_size("x"), None);
        // A product past u64 is rejected, not wrapped: this one would
        // wrap to 0, which for `e10_nvm_capacity` means "the whole mount".
        assert_eq!(parse_size("17179869184G"), None);
        assert_eq!(parse_size("18446744073709551615K"), None);
        let info = Info::from_pairs([("e10_nvm_capacity", "17179869184G")]);
        let e = RomioHints::parse(&info).unwrap_err();
        assert_eq!(
            (e.key.as_str(), e.value.as_str()),
            ("e10_nvm_capacity", "17179869184G")
        );
        assert_eq!(e.expected, "byte count (k/m/g suffixes allowed)");
    }

    #[test]
    fn invalid_values_are_rejected_with_context() {
        let info = Info::from_pairs([("e10_cache", "maybe")]);
        let e = RomioHints::parse(&info).unwrap_err();
        assert_eq!(e.key, "e10_cache");
        assert!(e.to_string().contains("coherent"));

        for (k, v) in [
            ("cb_buffer_size", "0"),
            ("cb_nodes", "-3"),
            ("romio_cb_write", "yes"),
            ("e10_cache_flush_flag", "later"),
            ("e10_cache_discard_flag", "1"),
            ("e10_cache_path", ""),
            ("e10_trace", "maybe"),
            ("e10_trace_path", ""),
        ] {
            let info = Info::from_pairs([(k, v)]);
            assert!(RomioHints::parse(&info).is_err(), "{k}={v} must fail");
        }
    }

    #[test]
    fn extension_hints_parse_and_validate() {
        let info = Info::from_pairs([
            ("e10_cache_read", "enable"),
            ("e10_cache_evict", "enable"),
            ("cb_config_list", "*:2"),
            ("romio_no_indep_rw", "true"),
            ("e10_trace", "jsonl"),
            ("e10_trace_path", "results/traces/run1"),
            ("e10_cache_journal", "enable"),
            ("e10_cache_journal_path", "/scratch/manifest.jnl"),
            ("e10_integrity", "enable"),
            ("e10_integrity_scrub_ms", "250"),
        ]);
        let h = RomioHints::parse(&info).unwrap();
        assert!(h.e10_integrity);
        assert_eq!(h.e10_integrity_scrub_ms, 250);
        assert!(h.e10_cache_read);
        assert!(h.e10_cache_evict);
        assert_eq!(h.cb_config_max_per_node, Some(2));
        assert!(h.no_indep_rw);
        assert_eq!(h.e10_trace, TraceMode::Jsonl);
        assert_eq!(h.e10_trace_path, "results/traces/run1");
        assert!(h.e10_cache_journal);
        assert_eq!(
            h.e10_cache_journal_path.as_deref(),
            Some("/scratch/manifest.jnl")
        );
        for (k, v) in [
            ("e10_cache_read", "yes"),
            ("e10_cache_evict", "on"),
            ("cb_config_list", "2"),
            ("cb_config_list", "*:0"),
            ("romio_no_indep_rw", "1"),
            ("e10_cache_journal", "on"),
            ("e10_cache_journal_path", ""),
            ("e10_integrity", "yes"),
            ("e10_integrity_scrub_ms", "-1"),
        ] {
            let info = Info::from_pairs([(k, v)]);
            assert!(RomioHints::parse(&info).is_err(), "{k}={v} must fail");
        }
        // Defaults are all off.
        let d = RomioHints::default();
        assert!(!d.e10_cache_read && !d.e10_cache_evict && !d.no_indep_rw);
        assert_eq!(d.cb_config_max_per_node, None);
        assert!(!d.e10_cache_journal);
        assert_eq!(d.e10_cache_journal_path, None);
    }

    #[test]
    fn degraded_mode_hints_parse_validate_and_default_off() {
        let info = Info::from_pairs([("e10_coll_timeout", "500")]);
        let h = RomioHints::parse(&info).unwrap();
        assert_eq!(h.e10_coll_timeout, 500);

        for v in ["soon", "-1"] {
            let info = Info::from_pairs([("e10_coll_timeout", v)]);
            assert!(
                RomioHints::parse(&info).is_err(),
                "e10_coll_timeout={v} must fail"
            );
        }

        // Default: tolerance off.
        assert_eq!(RomioHints::default().e10_coll_timeout, 0);
    }

    #[test]
    fn watermark_hints_parse_validate_and_resolve() {
        let info = Info::from_pairs([("e10_cache_hiwater", "90"), ("e10_cache_lowater", "70")]);
        let h = RomioHints::parse(&info).unwrap();
        assert_eq!(h.e10_cache_hiwater, 90);
        assert_eq!(h.e10_cache_lowater, 70);
        assert_eq!(h.watermarks(), Some((90, 70)));

        // Defaults: watermark management off.
        let d = RomioHints::default();
        assert_eq!((d.e10_cache_hiwater, d.e10_cache_lowater), (0, 0));
        assert_eq!(d.watermarks(), None);

        // Zero lowater resolves to the hiwater (no hysteresis band).
        let h = RomioHints {
            e10_cache_hiwater: 80,
            ..RomioHints::default()
        };
        assert_eq!(h.validate(), Ok(()));
        assert_eq!(h.watermarks(), Some((80, 80)));

        // Out-of-range and inverted pairs are rejected with context.
        for (k, v) in [
            ("e10_cache_hiwater", "101"),
            ("e10_cache_hiwater", "-1"),
            ("e10_cache_lowater", "200"),
            ("e10_cache_hiwater", "lots"),
        ] {
            let info = Info::from_pairs([(k, v)]);
            assert!(RomioHints::parse(&info).is_err(), "{k}={v} must fail");
        }
        let inverted = RomioHints {
            e10_cache_hiwater: 60,
            e10_cache_lowater: 80,
            ..RomioHints::default()
        };
        let err = inverted.validate().unwrap_err();
        assert_eq!(err.first().key, "e10_cache_lowater");
        assert!(err.first().to_string().contains("at most"));
        // The same inversion through the string surface.
        let info = Info::from_pairs([("e10_cache_hiwater", "60"), ("e10_cache_lowater", "80")]);
        assert!(RomioHints::from_info(&info).is_err());
    }

    #[test]
    fn two_phase_algo_parses_and_roundtrips() {
        assert_eq!(RomioHints::default().two_phase, TwoPhaseAlgo::Extended);
        for (s, algo) in [
            ("stock", TwoPhaseAlgo::Stock),
            ("extended", TwoPhaseAlgo::Extended),
            ("node_agg", TwoPhaseAlgo::NodeAgg),
        ] {
            let info = Info::from_pairs([("e10_two_phase", s)]);
            let h = RomioHints::parse(&info).unwrap();
            assert_eq!(h.two_phase, algo);
            assert_eq!(algo.as_str(), s);
            // The typed field and the string surface agree.
            let typed = RomioHints {
                two_phase: algo,
                ..RomioHints::default()
            };
            assert_eq!(typed.to_pairs(), h.to_pairs());
            // And `to_info` round-trips the algorithm.
            let h2 = RomioHints::from_info(&h.to_info()).unwrap();
            assert_eq!(h2.two_phase, algo);
        }
        for bad in ["", "nodeagg", "two_phase", "enable"] {
            let info = Info::from_pairs([("e10_two_phase", bad)]);
            let e = RomioHints::from_info(&info).unwrap_err();
            assert_eq!(e.first().key, "e10_two_phase");
            assert!(e.first().to_string().contains("node_agg"));
        }
    }

    #[test]
    fn cache_class_parses_and_roundtrips() {
        assert_eq!(RomioHints::default().e10_cache_class, CacheClass::Ssd);
        assert_eq!(RomioHints::default().e10_nvm_capacity, 0);
        assert_eq!(RomioHints::default().e10_nvm_threshold, 1 << 20);
        for (s, class) in [
            ("ssd", CacheClass::Ssd),
            ("nvm", CacheClass::Nvm),
            ("hybrid", CacheClass::Hybrid),
        ] {
            let info = Info::from_pairs([("e10_cache_class", s)]);
            let h = RomioHints::parse(&info).unwrap();
            assert_eq!(h.e10_cache_class, class);
            assert_eq!(class.as_str(), s);
            let typed = RomioHints {
                e10_cache_class: class,
                ..RomioHints::default()
            };
            assert_eq!(typed.to_pairs(), h.to_pairs());
            let h2 = RomioHints::from_info(&h.to_info()).unwrap();
            assert_eq!(h2, h);
        }
        for bad in ["", "NVM", "optane", "enable"] {
            let info = Info::from_pairs([("e10_cache_class", bad)]);
            let e = RomioHints::from_info(&info).unwrap_err();
            assert_eq!(e.first().key, "e10_cache_class");
            assert!(e.first().to_string().contains("hybrid"));
        }
    }

    #[test]
    fn nvm_size_hints_parse_with_suffixes() {
        let info = Info::from_pairs([
            ("e10_cache_class", "hybrid"),
            ("e10_nvm_capacity", "2g"),
            ("e10_nvm_threshold", "256K"),
        ]);
        let h = RomioHints::parse(&info).unwrap();
        assert_eq!(h.e10_cache_class, CacheClass::Hybrid);
        assert_eq!(h.e10_nvm_capacity, 2 << 30);
        assert_eq!(h.e10_nvm_threshold, 256 << 10);
        assert_eq!(RomioHints::from_info(&h.to_info()).unwrap(), h);
        // Threshold 0 (the anchor-test setting) is legal and sticky.
        let info = Info::from_pairs([("e10_nvm_threshold", "0")]);
        assert_eq!(RomioHints::parse(&info).unwrap().e10_nvm_threshold, 0);
        for (k, bad) in [
            ("e10_nvm_capacity", "lots"),
            ("e10_nvm_capacity", "-1"),
            ("e10_nvm_threshold", "4q"),
        ] {
            let info = Info::from_pairs([(k, bad)]);
            let e = RomioHints::from_info(&info).unwrap_err();
            assert_eq!(e.first().key, k);
        }
    }

    #[test]
    fn hint_errors_into_iterator_yields_every_violation() {
        let info = Info::from_pairs([("cb_buffer_size", "0"), ("cb_nodes", "0")]);
        let err = RomioHints::from_info(&info).unwrap_err();
        // By reference.
        let keys: Vec<&str> = (&err).into_iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, ["cb_buffer_size", "cb_nodes"]);
        // By value (and `for` loops work).
        let mut n = 0;
        for e in err {
            assert!(!e.key.is_empty());
            n += 1;
        }
        assert_eq!(n, 2);
    }

    /// The table is sound as data: keys are unique, every row rejects
    /// the empty string under its own key and `expected` text (so no
    /// listed key is one the parser ignores), the defaults satisfy
    /// every row, and exactly the rows that can be unset are absent
    /// from the default rendering.
    #[test]
    fn every_row_of_the_table_is_live() {
        let defaults = RomioHints::default();
        assert_eq!(defaults.validate(), Ok(()));
        let rendered = defaults.to_pairs();
        for (i, spec) in HINTS.iter().enumerate() {
            assert!(
                HINTS[..i].iter().all(|s| s.key != spec.key),
                "{} twice",
                spec.key
            );
            let e = RomioHints::parse(&Info::from_pairs([(spec.key, "")])).unwrap_err();
            assert_eq!((e.key.as_str(), e.expected), (spec.key, spec.expected()));
            let optional = matches!(spec.kind, OptPath(_))
                || matches!(&spec.kind, Size(l, ..) | Uint(l, ..) | PerNode(l)
                    if (l.get)(&defaults).get().is_none());
            assert_eq!(rendered.iter().any(|(k, _)| k == spec.key), !optional);
        }
        assert_eq!(HINTS.len(), 31);
    }

    /// The numeric kinds ignore surrounding whitespace — all of them,
    /// `e10_cache_sync_depth` included — and no other kind does.
    #[test]
    fn whitespace_is_trimmed_by_the_numeric_kinds_only() {
        for spec in HINTS {
            let (padded, numeric) = match &spec.kind {
                Size(_, range, _) | Uint(_, range, _) => (format!(" {} ", range.start()), true),
                PerNode(_) => ("*: 3 ".to_string(), true),
                Choice(_, expected) => {
                    (format!(" {} ", expected.split('|').next().unwrap()), false)
                }
                Flag(_, words) => (format!(" {} ", words[0]), false),
                Path(_) | OptPath(_) => continue, // a path is taken verbatim
            };
            let parsed = RomioHints::parse(&Info::from_pairs([(spec.key, padded.as_str())]));
            assert_eq!(parsed.is_ok(), numeric, "{}={padded:?}", spec.key);
        }
    }

    #[test]
    fn unknown_hints_are_ignored() {
        let info = Info::from_pairs([("some_vendor_hint", "whatever")]);
        assert!(RomioHints::parse(&info).is_ok());
    }

    #[test]
    fn coherent_implies_cache_requested() {
        let info = Info::from_pairs([("e10_cache", "coherent")]);
        let h = RomioHints::parse(&info).unwrap();
        assert_eq!(h.e10_cache, CacheMode::Coherent);
        assert!(h.cache_requested());
        assert!(!RomioHints::default().cache_requested());
    }

    #[test]
    fn to_info_roundtrips_every_hint() {
        let h = RomioHints {
            cb_write: CbMode::Enable,
            cb_nodes: Some(8),
            e10_cache: CacheMode::Coherent,
            e10_cache_flush_flag: FlushFlag::FlushNone,
            cb_config_max_per_node: Some(2),
            no_indep_rw: true,
            e10_cache_evict: true,
            e10_trace: TraceMode::Jsonl,
            e10_trace_path: "results/traces/x".into(),
            e10_cache_journal: true,
            e10_cache_journal_path: Some("/scratch/j.jnl".into()),
            e10_cache_hiwater: 85,
            e10_cache_lowater: 65,
            e10_cache_class: CacheClass::Hybrid,
            e10_nvm_capacity: 1 << 30,
            e10_nvm_threshold: 64 << 10,
            ..RomioHints::default()
        };
        h.validate().unwrap();
        let h2 = RomioHints::from_info(&h.to_info()).unwrap();
        assert_eq!(h2, h);
        assert_eq!(h2.to_pairs(), h.to_pairs());
    }
}
