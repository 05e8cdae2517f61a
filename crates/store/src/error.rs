//! The typed error taxonomy of the snapshot store.

use obda_budget::BudgetExceeded;
use obda_ndl::storage::HydrateError;
use std::fmt;
use std::sync::Arc;

/// Everything the snapshot store can fail with. Corruption on disk —
/// truncation, bit flips, stale versions — is always reported through
/// this type, never a panic: the open path validates lengths before
/// indexing and verifies the metadata checksum before decoding, and a
/// segment's hydrator verifies its block and returns this type too.
#[derive(Debug, Clone)]
pub enum StoreError {
    /// The underlying file could not be read or written (shared, so the
    /// error clones into every report that carries it).
    Io(Arc<std::io::Error>),
    /// The file does not start with the `OBDB` magic: not a snapshot.
    BadMagic,
    /// The snapshot's format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
    /// The file is shorter than a length field claims (truncation).
    Truncated {
        /// Bytes the decoder needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// The payload checksum does not match the header (bit rot or a
    /// partial overwrite).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum computed over the payload.
        actual: u64,
    },
    /// A structural invariant of the format is violated (bad UTF-8, a
    /// constant id out of dictionary range, a mis-aligned column offset).
    Malformed(String),
    /// A relation segment names a predicate the current ontology does not
    /// declare — the snapshot was built against a different vocabulary.
    UnknownPredicate {
        /// `"class"` or `"property"`.
        kind: &'static str,
        /// The undeclared name.
        name: String,
    },
    /// The shared budget tripped while the snapshot was being decoded.
    Budget(BudgetExceeded),
    /// An injected transient fault interrupted the open path (chaos
    /// testing, `faults` feature); retrying the open may succeed.
    Injected {
        /// The injection site that faulted.
        site: String,
    },
}

impl StoreError {
    /// Whether retrying the same operation may succeed (injected
    /// transient faults only; corruption and refusals are permanent).
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Injected { .. })
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not an .obdb snapshot (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported snapshot version {found} (this build reads version {supported})")
            }
            StoreError::Truncated { needed, available } => {
                write!(f, "truncated snapshot: needed {needed} bytes, found {available}")
            }
            StoreError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            StoreError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            StoreError::UnknownPredicate { kind, name } => {
                write!(f, "snapshot names {kind} '{name}' not declared by the ontology")
            }
            StoreError::Budget(e) => write!(f, "snapshot load interrupted: {e}"),
            StoreError::Injected { site } => write!(f, "transient fault at {site}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(Arc::new(e))
    }
}

impl From<BudgetExceeded> for StoreError {
    fn from(e: BudgetExceeded) -> Self {
        StoreError::Budget(e)
    }
}

impl From<HydrateError> for StoreError {
    /// Recovers the typed error a snapshot segment's hydrator returned
    /// through the [`Database`](obda_ndl::storage::Database) seam. A
    /// hydrator installed by anything else is reported as malformed data.
    fn from(e: HydrateError) -> Self {
        match e.downcast::<StoreError>() {
            Ok(e) => *e,
            Err(other) => StoreError::Malformed(other.to_string()),
        }
    }
}
