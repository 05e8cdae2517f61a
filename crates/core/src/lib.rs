#![warn(missing_docs)]

//! # obda
//!
//! A production-quality reproduction of *“The Complexity of Ontology-Based
//! Data Access with OWL 2 QL and Bounded Treewidth Queries”* (Bienvenu,
//! Kikot, Kontchakov, Podolskii, Ryzhikov, Zakharyaschev — PODS 2017):
//! optimal NDL-rewritings of OWL 2 QL ontology-mediated queries, complete
//! with the chase oracle, a datalog engine, baselines, hardness reductions
//! and the paper's benchmark suite.
//!
//! This crate is the facade: it re-exports the workspace crates and adds
//! the end-to-end [`pipeline::ObdaSystem`] and the Figure 1 complexity
//! classifier ([`complexity`]).
//!
//! ## Quickstart
//!
//! ```
//! use obda::{ObdaSystem, Strategy};
//!
//! let system = ObdaSystem::from_text(
//!     "Professor SubClassOf exists teaches\n\
//!      exists teaches- SubClassOf Course\n",
//! ).unwrap();
//! let query = system
//!     .parse_query("q(x) :- teaches(x, y), Course(y)")
//!     .unwrap();
//! let data = system.parse_data("Professor(ada)").unwrap();
//!
//! // Rewrite into nonrecursive datalog and evaluate: `ada` teaches a
//! // course in every model, even though the data names none.
//! let result = system.answer(&query, &data, Strategy::Tw).unwrap();
//! assert_eq!(result.answers.len(), 1);
//!
//! // The classifier places the OMQ in the Figure 1 landscape.
//! let cell = system.classify(&query);
//! assert_eq!(cell.complexity.to_string(), "NL");
//! ```

pub mod complexity;
pub mod pipeline;
pub mod server;
pub mod service;

pub use complexity::{
    classify, combined_complexity, rewriting_size, Complexity, DepthBound, OmqClassification,
    PeSize, QueryClass, Succinctness,
};
pub use pipeline::{
    AnswerRequest, Attempt, AttemptOutcome, DataSource, ObdaError, ObdaSystem, PipelineReport,
    PreparedOmq, RetryPolicy, Strategy,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use service::breaker::{AttemptClass, BreakerConfig, BreakerSet, CircuitBreaker, Transition};
pub use service::{
    CostAdmissionConfig, OverloadConfig, PreparedRun, QueryService, RejectReason, ServiceConfig,
    ServiceStats, TenantGovernor, TenantPermit, TenantQuota,
};

// The persistent snapshot store: build `.obdb` files with
// [`store::write_snapshot`], reopen them with [`Snapshot::open`], and
// evaluate through the [`StorageBackend`] seam shared with in-memory
// instances.
pub use obda_store as store;
pub use obda_store::{
    read_info, write_snapshot, MemoryBackend, RelationInfo, Snapshot, SnapshotInfo, StorageBackend,
    StoreError,
};

// Substrate re-exports.
pub use obda_budget as budget;
pub use obda_chase as chase;
pub use obda_cq as cq;
pub use obda_datagen as datagen;
/// Deterministic fault-injection registry (only with the `faults` feature).
#[cfg(feature = "faults")]
pub use obda_faults as faults;
pub use obda_ndl as ndl;
pub use obda_owlql as owlql;
pub use obda_rewrite as rewrite;
pub use obda_telemetry as telemetry;
pub use obda_telemetry::{CollectingTracer, MetricsRegistry, NoopTracer, Telemetry, TraceTree};
