//! The error types of `e10-romio`.
//!
//! Every fallible surface of the crate — hint resolution, the global
//! parallel file system, the node-local cache file system — converges
//! on [`Error`], so callers match on a single enum instead of juggling
//! the per-layer types. What hint resolution itself reports,
//! [`HintError`] and [`HintErrors`], is defined here too.

use e10_localfs::FsError;
use e10_pfs::PfsError;

/// A hint that was present but malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintError {
    /// Hint key.
    pub key: String,
    /// The rejected value.
    pub value: String,
    /// What would have been accepted.
    pub expected: &'static str,
}

impl std::fmt::Display for HintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid hint {}={:?} (expected {})",
            self.key, self.value, self.expected
        )
    }
}

impl std::error::Error for HintError {}

/// Every violation found while resolving a hint set — checking keeps
/// going after the first bad value so a caller sees the whole list.
///
/// The first violation is a separate field, so an empty error set is
/// unrepresentable by construction: extracting the first error can
/// never fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintErrors {
    first: HintError,
    rest: Vec<HintError>,
}

impl HintErrors {
    /// Build from the first violation plus any further ones.
    pub fn new(first: HintError, rest: Vec<HintError>) -> Self {
        HintErrors { first, rest }
    }

    /// The first violation (MPI callers usually report just one).
    pub fn first(&self) -> &HintError {
        &self.first
    }

    /// Consume, keeping only the first violation.
    pub fn into_first(self) -> HintError {
        self.first
    }

    /// All violations, in the order they were recorded.
    pub fn iter(&self) -> impl Iterator<Item = &HintError> {
        std::iter::once(&self.first).chain(self.rest.iter())
    }

    /// Number of violations (always at least one).
    pub fn len(&self) -> usize {
        1 + self.rest.len()
    }

    /// Always false — the type cannot hold zero violations.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl std::fmt::Display for HintErrors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for HintErrors {}

impl IntoIterator for HintErrors {
    type Item = HintError;
    type IntoIter = std::iter::Chain<std::iter::Once<HintError>, std::vec::IntoIter<HintError>>;

    /// Every violation by value, first one included — `for e in errs`
    /// just works.
    fn into_iter(self) -> Self::IntoIter {
        std::iter::once(self.first).chain(self.rest)
    }
}

impl<'a> IntoIterator for &'a HintErrors {
    type Item = &'a HintError;
    type IntoIter =
        std::iter::Chain<std::iter::Once<&'a HintError>, std::slice::Iter<'a, HintError>>;

    fn into_iter(self) -> Self::IntoIter {
        std::iter::once(&self.first).chain(self.rest.iter())
    }
}

impl From<HintErrors> for HintError {
    fn from(e: HintErrors) -> HintError {
        e.into_first()
    }
}

/// Errors surfaced by ADIO operations.
#[derive(Debug)]
pub enum Error {
    /// A hint was present but invalid.
    Hint(HintError),
    /// Global file-system error.
    Pfs(PfsError),
    /// Local (cache) file-system error.
    Local(FsError),
    /// Data integrity violation: a checksummed cache extent failed
    /// verification and could not be repaired from any copy. The
    /// affected bytes were NOT propagated; the cache degraded to
    /// write-through.
    Integrity {
        /// File offset of the failing extent.
        offset: u64,
        /// Extent length in bytes.
        len: u64,
        /// Pipeline stage that detected the mismatch
        /// (`"flush"`, `"scrub"`, `"read"` or `"recover"`).
        stage: &'static str,
    },
    /// The cache sync thread is not running (flush after close or
    /// after a degrade already tore it down) — the operation is
    /// recoverable by going through the global file directly.
    SyncStopped,
    /// The sync thread could not push every staged extent to the
    /// global file (RPC retries or wire-checksum retransmissions were
    /// exhausted). The affected extents remain staged in the cache
    /// file and its journal and the next flush pushes them again; a
    /// close that still cannot keeps the cache files for recovery even
    /// when asked to discard them. Until a flush returns `Ok` the
    /// global file is incomplete and the caller must not treat it as
    /// durable. (Bytes a *failed cache device* lost before they were
    /// synced are reported the same way but have no copy to retry.)
    SyncFailed {
        /// Global-file write failures since the previous flush.
        failures: u64,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Hint(e) => write!(f, "hint error: {e}"),
            Error::Pfs(e) => write!(f, "global fs error: {e}"),
            Error::Local(e) => write!(f, "local fs error: {e}"),
            Error::Integrity { offset, len, stage } => write!(
                f,
                "integrity error: cache extent [{offset}, {}) failed {stage} verification \
                 and could not be repaired",
                offset + len
            ),
            Error::SyncStopped => write!(f, "cache sync thread is not running"),
            Error::SyncFailed { failures } => write!(
                f,
                "cache sync failed: {failures} global-file write(s) could not be \
                 completed; the extents remain staged in the cache"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Hint(e) => Some(e),
            Error::Pfs(e) => Some(e),
            Error::Local(e) => Some(e),
            Error::Integrity { .. } | Error::SyncStopped | Error::SyncFailed { .. } => None,
        }
    }
}

impl From<HintError> for Error {
    fn from(e: HintError) -> Self {
        Error::Hint(e)
    }
}

impl From<HintErrors> for Error {
    fn from(e: HintErrors) -> Self {
        Error::Hint(HintError::from(e))
    }
}

impl From<PfsError> for Error {
    fn from(e: PfsError) -> Self {
        Error::Pfs(e)
    }
}

impl From<FsError> for Error {
    fn from(e: FsError) -> Self {
        Error::Local(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable_and_source_chains() {
        let e = Error::from(HintError {
            key: "e10_cache".into(),
            value: "maybe".into(),
            expected: "enable|disable|coherent",
        });
        assert_eq!(
            e.to_string(),
            "hint error: invalid hint e10_cache=\"maybe\" (expected enable|disable|coherent)"
        );
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn hint_errors_collapse_to_first() {
        let errs = HintErrors::new(
            HintError {
                key: "a".into(),
                value: "1".into(),
                expected: "x",
            },
            vec![HintError {
                key: "b".into(),
                value: "2".into(),
                expected: "y",
            }],
        );
        match Error::from(errs) {
            Error::Hint(e) => assert_eq!(e.key, "a"),
            other => panic!("wrong variant: {other}"),
        }
    }

    #[test]
    fn integrity_and_sync_stopped_display() {
        let e = Error::Integrity {
            offset: 4096,
            len: 512,
            stage: "flush",
        };
        assert!(e.to_string().contains("[4096, 4608)"));
        assert!(e.to_string().contains("flush"));
        assert!(std::error::Error::source(&e).is_none());
        assert!(Error::SyncStopped.to_string().contains("sync thread"));
    }
}
