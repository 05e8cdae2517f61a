#![warn(missing_docs)]

//! # obda-store
//!
//! Persistent, dictionary-encoded snapshot storage for OBDA data
//! instances, behind a [`StorageBackend`] seam.
//!
//! Every `obda` invocation used to re-parse the textual data, re-intern
//! every constant, and rebuild every [`obda_ndl::storage::Relation`]
//! column before a single join could run. This crate removes that
//! cold-start tax, following oxigraph's architecture of a dense term
//! dictionary in front of persistent indexes:
//!
//! * [`write_snapshot`] serialises a [`DataInstance`] into a versioned,
//!   checksummed `.obdb` file in the one layout of [`mod@format`]: the
//!   constant dictionary in [`ConstId`] order plus one *sorted,
//!   page-aligned segment* per non-empty EDB relation, with per-segment
//!   checksums, statistics and CSR index blocks in the directory;
//! * [`Snapshot::open`] memory-maps the file ([`mod@map`]) and decodes
//!   *only* the metadata: every relation enters the [`Database`] as a
//!   lazy segment hydrated — verified, zero-copy where the platform
//!   allows — on first touch, so open time is O(metadata) and resident
//!   bytes track the columns a query actually joins. Predicates are
//!   resolved *by name* against the current ontology's [`Vocab`], so a
//!   snapshot survives re-interning; constants keep their dense ids
//!   verbatim;
//! * [`StorageBackend`] is the seam the pipeline evaluates through:
//!   [`MemoryBackend`] (parse path) and [`Snapshot`] (open path) expose
//!   the *same* [`Database`], so both share one eval hot path.
//!
//! ## Failure model
//!
//! Everything that can go wrong on disk — truncation, bit flips, a
//! retired format version or layout, an unknown predicate — surfaces as
//! a typed [`StoreError`], never a panic. Open verifies the header and
//! the metadata checksum; a segment's hydrator verifies its data and
//! index blocks and returns the same type through
//! [`Database::hydrate`] (recover it with `StoreError::from`), so a
//! corrupt block found on first touch is a store error too. The open
//! path carries a deterministic fault-injection site (`store::open`,
//! behind the `faults` feature): a transient injected fault is caught at
//! the store boundary and mapped to [`StoreError::Injected`]; a
//! deliberate injected *panic* is re-raised so the pipeline's isolation
//! boundaries above are exercised too.
//!
//! ## Observability
//!
//! [`Snapshot::open_budgeted`] records a `load_data` span with `open`
//! (read + header + checksum), `dict` and `segments` children, observes
//! the `store_open_seconds` histogram, sets the `store_bytes` gauge, and
//! ticks the shared [`obda_budget::Budget`] while decoding, so loading a
//! snapshot respects the pipeline deadline like every other stage.

/// Fault-injection shim: with the `faults` feature the open path calls
/// [`obda_faults::inject`] at the registered site; without it the site is
/// an empty inline function the optimiser erases.
pub(crate) mod fault {
    #[cfg(feature = "faults")]
    pub use obda_faults::{inject, site};

    #[cfg(not(feature = "faults"))]
    #[inline(always)]
    pub fn inject(_site: &'static str) {}

    #[cfg(not(feature = "faults"))]
    pub mod site {
        pub const STORE_OPEN: &str = "store::open";
        pub const STORE_MAP: &str = "store::map";
    }
}

pub mod backend;
pub mod error;
pub mod format;
pub mod map;
pub mod snapshot;

pub use backend::{MemoryBackend, StorageBackend};
pub use error::StoreError;
pub use format::{flag_names, unknown_flags, FLAG_INDEXES, FLAG_STATS};
pub use map::Mapping;
pub use snapshot::{
    read_info, snapshot_bytes, temp_sibling, write_snapshot, RelationInfo, Snapshot, SnapshotInfo,
};

// Re-exported so downstream callers name the dictionary types through one
// crate when working with snapshots.
pub use obda_ndl::storage::Database;
pub use obda_owlql::abox::{ConstId, DataInstance};
pub use obda_owlql::vocab::Vocab;
