#![warn(missing_docs)]

//! # obda-rewrite
//!
//! NDL-rewritings of OWL 2 QL ontology-mediated queries, implementing the
//! three optimal rewritings of Bienvenu et al. (PODS 2017) plus baselines:
//!
//! * [`lin::LinRewriter`] — linear NDL for `OMQ(d, 1, ℓ)`, NL (§3.3);
//! * [`log::LogRewriter`] — skinny-reducible NDL for `OMQ(d, t, ∞)`,
//!   LOGCFL (§3.2);
//! * [`tw::TwRewriter`] — tree-witness NDL for `OMQ(∞, 1, ℓ)`, LOGCFL
//!   (§3.4);
//! * baselines standing in for the systems compared against in §6:
//!   [`presto::TwUcqRewriter`] (tree-witness UCQ ≈ Rapid/Clipper),
//!   [`presto::PrestoLikeRewriter`] (UCQ over views ≈ Presto) and
//!   [`ucq::UcqRewriter`] (raw PerfectRef).
//!
//! All rewriters produce rewritings over *complete* data instances; use
//! [`omq::rewrite_arbitrary`] to lift them to arbitrary instances via the
//! `*`-transformation (Lemma 3's linear variant when applicable).

/// Fault-injection shim: with the `faults` feature, tree-witness
/// enumeration calls [`obda_faults::inject`] at its registered site;
/// without it the site is an empty inline function the optimiser erases.
pub(crate) mod fault {
    #[cfg(feature = "faults")]
    pub use obda_faults::{inject, site};

    #[cfg(not(feature = "faults"))]
    #[inline(always)]
    pub fn inject(_site: &'static str) {}

    #[cfg(not(feature = "faults"))]
    pub mod site {
        pub const REWRITE_TREE_WITNESS: &str = "rewrite::tree_witness";
    }
}

pub mod lin;
pub mod log;
pub mod omq;
#[cfg(test)]
mod testgen;
pub mod tree_witness;
pub mod tw;
pub mod types;

pub use lin::LinRewriter;
pub use log::LogRewriter;
pub use omq::{
    add_inconsistency_clauses, rewrite_arbitrary, rewrite_arbitrary_budgeted, Omq, RewriteError,
    Rewriter,
};
pub use tree_witness::{tree_witnesses, tree_witnesses_budgeted, TreeWitness};
pub use tw::TwRewriter;
pub mod ucq;
pub use ucq::UcqRewriter;
pub mod adaptive;
pub mod presto;
pub mod twstar;

pub use adaptive::{estimate_cost, AdaptiveRewriter, DataStats};
pub use presto::{PrestoLikeRewriter, TwUcqRewriter};
pub use twstar::inline_single_definitions;
