//! The `StorageBackend` seam: one trait the pipeline evaluates through,
//! implemented by the in-memory parse path and the snapshot open path.

use obda_ndl::storage::Database;
use obda_owlql::abox::{ConstId, DataInstance};

/// A loaded data instance ready for evaluation. Both implementations
/// expose the *same* [`Database`] type, so every evaluator — bottom-up,
/// linear, parallel engine — runs one hot path regardless of whether the
/// data came from the Turtle parser or an `.obdb` snapshot.
///
/// `Sync` because the parallel engine's workers and the query service
/// share the backend behind `&` during evaluation.
pub trait StorageBackend: Sync {
    /// The loaded, indexed database the evaluators run on.
    fn database(&self) -> &Database;

    /// The name of a constant, for rendering answers.
    ///
    /// # Panics
    /// Panics if `c` was not produced by this backend's dictionary,
    /// mirroring [`DataInstance::constant_name`].
    fn constant_name(&self, c: ConstId) -> &str;

    /// `"memory"` or `"snapshot"`, for spans and reports.
    fn kind(&self) -> &'static str;

    /// Bytes of backing storage actually resident because of this
    /// backend — for a lazily hydrated snapshot, the data and index
    /// bytes touched so far. `None` when the notion does not apply
    /// (the in-memory backend owns its data outright); the pipeline
    /// exports `Some` values as the `store_resident_bytes` gauge.
    fn resident_bytes(&self) -> Option<u64> {
        None
    }
}

/// The in-memory backend: owns a parsed [`DataInstance`] and the
/// [`Database`] built from it, giving parsed data the same seam as
/// snapshots.
#[derive(Debug)]
pub struct MemoryBackend {
    data: DataInstance,
    database: Database,
}

impl MemoryBackend {
    /// Builds the database from a parsed instance (one scan per atom
    /// kind, exactly [`Database::new`]).
    pub fn new(data: DataInstance) -> Self {
        let database = Database::new(&data);
        MemoryBackend { data, database }
    }

    /// The owned instance.
    pub fn data(&self) -> &DataInstance {
        &self.data
    }
}

impl From<DataInstance> for MemoryBackend {
    fn from(data: DataInstance) -> Self {
        MemoryBackend::new(data)
    }
}

impl StorageBackend for MemoryBackend {
    fn database(&self) -> &Database {
        &self.database
    }

    fn constant_name(&self, c: ConstId) -> &str {
        self.data.constant_name(c)
    }

    fn kind(&self) -> &'static str {
        "memory"
    }
}
