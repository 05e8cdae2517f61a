#![warn(missing_docs)]

//! # obda-ndl
//!
//! Nonrecursive datalog (NDL) for ontology-mediated query rewriting:
//!
//! * program representation with OWL 2 QL data-vocabulary EDB bindings
//!   ([`program`]);
//! * structural analysis — nonrecursiveness, depth, linearity, width,
//!   weight functions, skinny depth ([`analysis`], Section 3.1 of Bienvenu
//!   et al., PODS 2017);
//! * the `*`-transformation to arbitrary data instances and Lemma 3's
//!   linearity-preserving variant ([`star`]);
//! * a shared indexed relation storage layer ([`storage`]): columnar
//!   relations with lazy per-column hash indexes, loaded once per data
//!   instance into a [`Database`] reused across evaluations;
//! * one bottom-up materialising engine over that storage ([`engine`]):
//!   demand-driven from the goal, optionally goal-directed through the relevance
//!   pruning pass ([`relevance`]) and parallel on scoped threads under a
//!   shared [`obda_budget`] allowance; at one thread without pruning it is
//!   the stand-in for RDFox in the experiments. Its join kernel, errors
//!   and statistics live in [`eval`];
//! * the original per-call hash-set engine ([`mod@reference`]), kept as
//!   the oracle of differential tests and as the benchmark baseline;
//! * per-relation cardinality statistics ([`stats`]) feeding a
//!   cost-based clause planner ([`planner`]) that the engine consumes:
//!   greedy cost-ordered joins with a dynamic-programming refinement for
//!   small clauses, choosing per-atom access paths (scan, hash probe,
//!   sorted merge) over the columnar storage.

/// Fault-injection shim: with the `faults` feature the substrates call
/// [`obda_faults::inject`] at registered sites; without it every site is
/// an empty inline function the optimiser erases.
pub(crate) mod fault {
    #[cfg(feature = "faults")]
    pub use obda_faults::{inject, site};

    #[cfg(not(feature = "faults"))]
    #[inline(always)]
    pub fn inject(_site: &'static str) {}

    #[cfg(not(feature = "faults"))]
    pub mod site {
        pub const STORAGE_INSERT: &str = "ndl::storage::insert";
        pub const STORAGE_INDEX_BUILD: &str = "ndl::storage::index_build";
        pub const ENGINE_CLAUSE_TASK: &str = "ndl::engine::clause_task";
    }
}

pub mod analysis;
pub mod completion;
pub mod engine;
pub mod eval;
pub mod explain;
pub mod planner;
pub mod program;
pub mod reference;
pub mod relevance;
pub mod star;
pub mod stats;
pub mod storage;

pub use analysis::{analyze, Analysis};
pub use engine::{evaluate_engine_on_traced, evaluate_pruned_planned_on_traced, EngineConfig};
pub use eval::{evaluate, EvalError, EvalResult, EvalStats};
pub use explain::{
    explain_plan, explain_plan_executed, explain_plan_on, explain_plan_with, AtomAccess,
    ClausePlan, PlanExplanation, StratumPlan,
};
pub use planner::{
    plan_query, plans_built, syntactic_query_plan, JoinPlan, PlannedAccess, QueryPlan,
};
pub use program::{BodyAtom, CVar, Clause, NdlQuery, PredId, PredKind, Program, ProgramDisplay};
pub use reference::evaluate_reference;
pub use relevance::{prune_for_goal, PruneStats, PrunedQuery};
pub use star::{linear_star_transform, star_transform};
pub use stats::RelStats;
pub use storage::{ArenaWords, ColumnIndex, Database, HydrateError, LazyRelation, Relation};
