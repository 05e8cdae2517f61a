//! Ontology-mediated queries and the rewriter interface.

use crate::tree_witness::TreeWitnessMemo;
use obda_budget::{Budget, BudgetExceeded};
use obda_cq::query::Cq;
use obda_ndl::program::{BodyAtom, CVar, Clause, NdlQuery, Program};
use obda_ndl::star::{linear_star_transform, star_transform};
use obda_owlql::axiom::ClassExpr;
use obda_owlql::ontology::Ontology;
use obda_owlql::saturation::Taxonomy;
use obda_owlql::vocab::{Role, Vocab};
use std::fmt;

/// An ontology-mediated query `Q(x) = (T, q(x))`.
#[derive(Debug, Clone, Copy)]
pub struct Omq<'a> {
    /// The ontology `T` (normalised).
    pub ontology: &'a Ontology,
    /// The CQ `q(x)`.
    pub query: &'a Cq,
    /// Tree-witness generators already searched over `T`, shared across
    /// queries; without one every enumeration searches every candidate.
    pub tree_witness_memo: Option<&'a TreeWitnessMemo>,
}

impl<'a> Omq<'a> {
    /// The OMQ `(ontology, query)`, without a tree-witness memo.
    pub fn new(ontology: &'a Ontology, query: &'a Cq) -> Self {
        Omq { ontology, query, tree_witness_memo: None }
    }

    /// The same OMQ, enumerating its tree witnesses through `memo`, which
    /// must only ever serve OMQs over this ontology.
    pub fn with_tree_witness_memo(self, memo: &'a TreeWitnessMemo) -> Self {
        Omq { tree_witness_memo: Some(memo), ..self }
    }
}

/// Why a rewriter refused an OMQ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The rewriter requires a tree-shaped CQ.
    NotTreeShaped,
    /// The rewriter requires a connected CQ.
    NotConnected,
    /// The rewriter requires an ontology of finite depth.
    InfiniteDepth,
    /// A resource cap was exceeded (the baseline rewriters blow up
    /// exponentially by design).
    TooLarge(usize),
    /// The shared pipeline [`Budget`] tripped mid-rewriting; carries the
    /// partial size of the rewriting built so far.
    BudgetExceeded {
        /// The budget trip that interrupted the rewriter.
        exceeded: BudgetExceeded,
        /// Clauses emitted before the trip.
        clauses: usize,
        /// Body atoms emitted before the trip.
        atoms: usize,
    },
}

impl RewriteError {
    /// Wraps a budget trip together with the partial size of the rewriting
    /// at the moment it was interrupted.
    pub fn from_budget(exceeded: BudgetExceeded, clauses: usize, atoms: usize) -> Self {
        RewriteError::BudgetExceeded { exceeded, clauses, atoms }
    }

    /// Whether this error is a budget/resource trip (as opposed to a
    /// structural refusal such as a non-tree-shaped query).
    pub fn is_budget(&self) -> bool {
        matches!(self, RewriteError::TooLarge(_) | RewriteError::BudgetExceeded { .. })
    }
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::NotTreeShaped => write!(f, "query is not tree-shaped"),
            RewriteError::NotConnected => write!(f, "query is not connected"),
            RewriteError::InfiniteDepth => write!(f, "ontology has infinite depth"),
            RewriteError::TooLarge(n) => write!(f, "rewriting exceeded the cap of {n} clauses"),
            RewriteError::BudgetExceeded { exceeded, clauses, atoms } => write!(
                f,
                "rewriting interrupted after {clauses} clauses / {atoms} atoms: {exceeded}"
            ),
        }
    }
}

impl std::error::Error for RewriteError {}

/// A rewriter producing NDL-rewritings over **complete** data instances.
///
/// Use [`rewrite_arbitrary`] to obtain a rewriting over arbitrary instances
/// via the `*`-transformation (Lemma 3's linear variant is applied when the
/// produced program is linear, preserving the NL evaluation bound).
pub trait Rewriter {
    /// A short display name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Produces an NDL-rewriting of `omq` over complete data instances,
    /// ticking the shared [`Budget`] through its work loops and charging
    /// the clauses/atoms it emits. Aborts with
    /// [`RewriteError::BudgetExceeded`] (carrying the partial rewriting
    /// size) when the budget trips.
    fn rewrite_budgeted(
        &self,
        omq: &Omq<'_>,
        budget: &mut Budget,
    ) -> Result<NdlQuery, RewriteError>;

    /// Produces an NDL-rewriting of `omq` over complete data instances,
    /// without resource limits.
    fn rewrite_complete(&self, omq: &Omq<'_>) -> Result<NdlQuery, RewriteError> {
        self.rewrite_budgeted(omq, &mut Budget::unlimited())
    }
}

/// Ticks the budget inside a rewriter work loop, reporting the partial
/// program size on a trip.
pub fn tick_rewrite(budget: &mut Budget, program: &Program) -> Result<(), RewriteError> {
    budget.tick().map_err(|e| {
        let clauses = program.clauses().len();
        let atoms = program.clauses().iter().map(|c| c.body.len()).sum();
        RewriteError::from_budget(e, clauses, atoms)
    })
}

/// Charges one emitted clause against the budget inside a rewriter loop.
pub fn charge_clause(budget: &mut Budget, program: &Program) -> Result<(), RewriteError> {
    budget.charge_clauses(1).map_err(|e| {
        let clauses = program.clauses().len();
        let atoms = program.clauses().iter().map(|c| c.body.len()).sum();
        RewriteError::from_budget(e, clauses, atoms)
    })
}

/// Rewrites over arbitrary data instances: applies the rewriter and then the
/// `*`-transformation (the linear variant when the program is linear).
pub fn rewrite_arbitrary(
    rewriter: &dyn Rewriter,
    omq: &Omq<'_>,
    taxonomy: &Taxonomy,
) -> Result<NdlQuery, RewriteError> {
    rewrite_arbitrary_budgeted(rewriter, omq, taxonomy, &mut Budget::unlimited())
}

/// Budgeted [`rewrite_arbitrary`]: the rewriter itself and the clauses
/// added by the `*`-transformation all charge the shared budget.
pub fn rewrite_arbitrary_budgeted(
    rewriter: &dyn Rewriter,
    omq: &Omq<'_>,
    taxonomy: &Taxonomy,
    budget: &mut Budget,
) -> Result<NdlQuery, RewriteError> {
    let complete = rewriter.rewrite_budgeted(omq, budget)?;
    star_lift(&complete, taxonomy, omq.ontology.vocab(), budget)
}

/// Lifts a rewriting over complete instances to arbitrary ones with the
/// `*`-transformation (Lemma 3's linear variant when the program is
/// linear). Each clause the transformation adds is charged to `budget` as
/// it is built; a trip reports the size of the rewriting being lifted.
pub fn star_lift(
    complete: &NdlQuery,
    taxonomy: &Taxonomy,
    vocab: &Vocab,
    budget: &mut Budget,
) -> Result<NdlQuery, RewriteError> {
    let starred = if obda_ndl::analysis::is_linear(&complete.program) {
        linear_star_transform(complete, taxonomy, vocab, budget)
    } else {
        star_transform(complete, taxonomy, vocab, budget)
    };
    starred.map_err(|e| {
        let clauses = complete.program.num_clauses();
        let atoms = complete.program.clauses().iter().map(|c| c.body.len()).sum();
        RewriteError::from_budget(e, clauses, atoms)
    })
}

/// Adds the inconsistency clauses of Section 2's final remark: if the
/// left-hand side of a `⊥`-axiom holds somewhere in the data, every tuple of
/// constants is an answer. Works on rewritings over **complete** instances
/// (the `*`-transformation then lifts them to arbitrary ones).
pub fn add_inconsistency_clauses(query: &mut NdlQuery, taxonomy: &Taxonomy, omq: &Omq<'_>) {
    let vocab = omq.ontology.vocab();
    let arity = query.arity() as u32;
    let goal = query.goal;
    let program = &mut query.program;
    let top = program.edb_top();

    // Each answer variable ranges over the active domain; one extra variable
    // (or two) witnesses the violated constraint.
    let emit = |program: &mut Program, violation: Vec<BodyAtom>, extra_vars: u32| {
        let head_args: Vec<CVar> = (0..arity).map(CVar).collect();
        let mut body = violation;
        for &v in &head_args {
            body.push(BodyAtom::Pred(top, vec![v]));
        }
        program.add_clause(Clause { head: goal, head_args, body, num_vars: arity + extra_vars });
    };

    let class_atom =
        |program: &mut Program, e: ClassExpr, z: CVar, fresh: CVar| -> Option<(BodyAtom, bool)> {
            match e {
                ClassExpr::Top => Some((BodyAtom::Pred(program.edb_top(), vec![z]), false)),
                ClassExpr::Class(c) => {
                    Some((BodyAtom::Pred(program.edb_class(c, vocab), vec![z]), false))
                }
                ClassExpr::Exists(r) => Some((program.role_atom(r, z, fresh, vocab), true)),
            }
        };

    for ax in omq.ontology.axioms() {
        match *ax {
            obda_owlql::axiom::Axiom::DisjointClasses(e1, e2) => {
                let z = CVar(arity);
                let f1 = CVar(arity + 1);
                let f2 = CVar(arity + 2);
                // Disjointness axioms only mention class expressions, for
                // which `class_atom` always produces an atom.
                #[allow(clippy::expect_used)]
                let (a1, _) = class_atom(program, e1, z, f1).expect("class atom");
                #[allow(clippy::expect_used)]
                let (a2, _) = class_atom(program, e2, z, f2).expect("class atom");
                emit(program, vec![a1, a2], 3);
            }
            obda_owlql::axiom::Axiom::DisjointRoles(r1, r2) => {
                let z1 = CVar(arity);
                let z2 = CVar(arity + 1);
                let a1 = program.role_atom(r1, z1, z2, vocab);
                let a2 = program.role_atom(r2, z1, z2, vocab);
                emit(program, vec![a1, a2], 2);
            }
            obda_owlql::axiom::Axiom::Irreflexive(r) => {
                let z = CVar(arity);
                let a = program.role_atom(r, z, z, vocab);
                emit(program, vec![a], 1);
            }
            _ => {}
        }
    }
    let _ = taxonomy;
}

/// Common helper: map a role to the class expression `∃̺` check used by
/// type-compatibility tests.
pub fn exists(role: Role) -> ClassExpr {
    ClassExpr::Exists(role)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_cq::parse_cq;
    use obda_owlql::parse_ontology;

    #[test]
    fn errors_display() {
        assert!(RewriteError::NotTreeShaped.to_string().contains("tree"));
        assert!(RewriteError::TooLarge(7).to_string().contains('7'));
    }

    #[test]
    fn omq_construction() {
        let o = parse_ontology("Class A\n").unwrap();
        let q = parse_cq("q(x) :- A(x)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        assert_eq!(omq.query.num_atoms(), 1);
    }
}
