//! Per-database memo of completed relations.
//!
//! The paper evaluates its rewritings over *complete* data instances and
//! reaches arbitrary ones through the `*`-transformation
//! ([`crate::star`]): every EDB predicate `S` of the rewriting becomes an
//! IDB predicate `S*` defined by the atoms that imply `S` under the
//! ontology. Such a relation depends only on the ontology and the data —
//! never on the query — so a [`Database`](crate::storage::Database) that
//! serves many queries needs to derive each one only once. The engine
//! ([`crate::engine`]) looks every marked completion predicate
//! ([`crate::program::PredInfo::completion`]) up in the database's
//! [`CompletionMemo`] when it is demanded, before its clauses demand
//! anything, and stores the relation once the whole evaluation finishes
//! without a halt.
//!
//! The memo key is the predicate's canonical definition *after* pruning:
//! its arity plus the sorted set of its clauses, each clause a head
//! pattern and a body over EDB [`PredKind`]s with canonically renamed
//! variables. Equal keys on one immutable database denote equal
//! relations, so a hit is correct by construction; a projected `R*↓`
//! has a different head and therefore a different key. The number of
//! entries is bounded by the ontology's signature times the projections
//! of each symbol, so the memo needs no capacity limit.

use crate::program::{BodyAtom, CVar, PredId, PredKind, Program};
use crate::storage::Relation;
use obda_owlql::util::FxHashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// The canonical definition of a completion predicate (see the module
/// docs). Built by [`CompletionKey::of`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CompletionKey {
    arity: usize,
    /// One word encoding per clause, sorted and deduplicated.
    clauses: Vec<Vec<u32>>,
}

/// Body-atom tags of the clause encoding.
const TAG_CLASS: u32 = 0;
const TAG_PROP: u32 = 1;
const TAG_TOP: u32 = 2;
const TAG_EQ: u32 = 3;

impl CompletionKey {
    /// The key of `p` in `program`, or `None` if `p` is not a marked
    /// completion predicate or one of its clauses leaves the fragment the
    /// key describes: bodies of EDB atoms and variable equalities only.
    /// (A constant would tie the relation to one query's text.)
    pub(crate) fn of(program: &Program, p: PredId) -> Option<CompletionKey> {
        let info = program.pred(p);
        if !info.completion {
            return None;
        }
        let mut clauses = Vec::new();
        for clause in program.clauses_for(p) {
            // Canonical variable numbering: by first occurrence, head first.
            let mut names: Vec<Option<u32>> = vec![None; clause.num_vars as usize];
            let mut next = 0u32;
            let mut name = |v: CVar| -> u32 {
                *names[v.0 as usize].get_or_insert_with(|| {
                    next += 1;
                    next - 1
                })
            };
            let mut words: Vec<u32> = clause.head_args.iter().map(|&v| name(v)).collect();
            for atom in &clause.body {
                match atom {
                    BodyAtom::Pred(q, args) => {
                        match program.pred(*q).kind {
                            PredKind::EdbClass(c) => words.extend([TAG_CLASS, c.0]),
                            PredKind::EdbProp(r) => words.extend([TAG_PROP, r.0]),
                            PredKind::Top => words.push(TAG_TOP),
                            PredKind::Idb => return None,
                        }
                        words.extend(args.iter().map(|&v| name(v)));
                    }
                    BodyAtom::Eq(a, b) => words.extend([TAG_EQ, name(*a), name(*b)]),
                    BodyAtom::EqConst(..) => return None,
                }
            }
            clauses.push(words);
        }
        clauses.sort_unstable();
        clauses.dedup();
        Some(CompletionKey { arity: info.arity, clauses })
    }
}

/// A database's memo of completed relations: at most one entry per
/// distinct completion definition, each relation shared (with its lazily
/// built column indexes and stats) by every later evaluation.
#[derive(Default)]
pub struct CompletionMemo {
    entries: Mutex<FxHashMap<CompletionKey, Arc<Relation>>>,
}

impl CompletionMemo {
    /// The memoised relation for `key`, if a fill has completed.
    pub(crate) fn get(&self, key: &CompletionKey) -> Option<Arc<Relation>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner).get(key).cloned()
    }

    /// Stores a completed relation. Two evaluations that race the first
    /// fill compute equal relations; the first stored one is kept.
    pub(crate) fn insert(&self, key: CompletionKey, rel: Arc<Relation>) {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner).entry(key).or_insert(rel);
    }

    /// Number of memoised relations.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether nothing has been memoised yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for CompletionMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CompletionMemo({} entries)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Clause, NdlQuery};
    use crate::relevance::prune_for_goal;
    use crate::star::star_transform;
    use obda_budget::Budget;
    use obda_owlql::parser::parse_ontology;
    use obda_owlql::Ontology;

    /// Example 11: `P ⊑ S`, `P ⊑ R⁻`.
    fn ontology() -> Ontology {
        parse_ontology("P SubPropertyOf S\nP SubPropertyOf R-\n").unwrap()
    }

    /// The starred, pruned rewriting of the complete-data query
    /// `G(head) ← atoms`, atoms given as (property name, variable pair).
    fn starred(o: &Ontology, head: &[u32], atoms: &[(&str, [u32; 2])]) -> Program {
        let v = o.vocab();
        let mut p = Program::new();
        let g = p.add_pred("G", head.len(), PredKind::Idb);
        let body = atoms
            .iter()
            .map(|(name, [a, b])| {
                BodyAtom::Pred(p.edb_prop(v.get_prop(name).unwrap(), v), vec![CVar(*a), CVar(*b)])
            })
            .collect();
        let num_vars = 1 + atoms.iter().flat_map(|(_, xs)| xs.iter().copied()).max().unwrap();
        p.add_clause(Clause {
            head: g,
            head_args: head.iter().map(|&x| CVar(x)).collect(),
            body,
            num_vars,
        });
        let star = star_transform(&NdlQuery::new(p, g), &o.taxonomy(), v, &mut Budget::unlimited())
            .unwrap();
        prune_for_goal(&star).query.program
    }

    /// The key of the named predicate, if it still has clauses.
    fn key_named(p: &Program, name: &str) -> Option<CompletionKey> {
        let id = p.pred_ids().find(|&q| p.pred(q).name == name && p.clauses_for(q).count() > 0)?;
        CompletionKey::of(p, id)
    }

    #[test]
    fn star_predicates_are_marked_and_keyed_by_definition() {
        let o = ontology();
        let a = starred(&o, &[0, 2], &[("R", [0, 1]), ("S", [1, 2])]);
        let b = starred(&o, &[0, 3], &[("S", [0, 1]), ("R", [1, 2]), ("R", [2, 3])]);
        let (r, s) = (key_named(&a, "R*").unwrap(), key_named(&a, "S*").unwrap());
        assert_ne!(r, s);
        // The same completion in another query's rewriting has the same key.
        assert_eq!(key_named(&b, "R*"), Some(r));
        assert_eq!(key_named(&b, "S*"), Some(s));
        // Query predicates are never keyed.
        let goal = a.pred_ids().find(|&q| a.pred(q).name == "G").unwrap();
        assert!(!a.pred(goal).completion);
        assert_eq!(CompletionKey::of(&a, goal), None);
    }

    #[test]
    fn projected_completion_gets_its_own_key() {
        let o = ontology();
        let full = starred(&o, &[0, 2], &[("R", [0, 1]), ("S", [1, 2])]);
        // `G(x) ← R*(x, y) ∧ S*(x, z)`: the second column of R* is dead.
        let proj = starred(&o, &[0], &[("R", [0, 1]), ("S", [0, 2])]);
        let narrow = key_named(&proj, "R*\u{2193}").expect("projected R* stays a completion");
        assert_ne!(Some(narrow.clone()), key_named(&full, "R*"));
        assert_eq!(narrow.arity, 1);
    }

    #[test]
    fn head_merged_completion_loses_its_mark() {
        let o = ontology();
        // `G(x, y) ← R*(x, y)` is a copy clause: R*'s clauses move to G.
        let p = starred(&o, &[0, 1], &[("R", [0, 1])]);
        let defined: Vec<_> = p.pred_ids().filter(|&q| p.clauses_for(q).count() > 0).collect();
        assert_eq!(defined.len(), 1, "only the goal keeps clauses");
        assert!(!p.pred(defined[0]).completion);
        assert_eq!(CompletionKey::of(&p, defined[0]), None);
    }

    #[test]
    fn clause_order_and_variable_names_do_not_change_the_key() {
        let o = ontology();
        let v = o.vocab();
        let build = |swap: bool, shift: u32| {
            let mut p = Program::new();
            let r = p.edb_prop(v.get_prop("R").unwrap(), v);
            let pp = p.edb_prop(v.get_prop("P").unwrap(), v);
            let star = p.add_pred("R*", 2, PredKind::Idb);
            p.mark_completion(star);
            let (x, y) = (CVar(shift), CVar(1 - shift));
            let mut clauses = vec![
                Clause {
                    head: star,
                    head_args: vec![x, y],
                    body: vec![BodyAtom::Pred(r, vec![x, y])],
                    num_vars: 2,
                },
                Clause {
                    head: star,
                    head_args: vec![x, y],
                    body: vec![BodyAtom::Pred(pp, vec![y, x])],
                    num_vars: 2,
                },
            ];
            if swap {
                clauses.reverse();
            }
            for c in clauses {
                p.add_clause(c);
            }
            CompletionKey::of(&p, star).unwrap()
        };
        assert_eq!(build(false, 0), build(true, 1));
    }
}
