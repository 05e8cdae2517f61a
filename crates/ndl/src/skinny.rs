//! The skinny transformation (Lemma 5).
//!
//! Any NDL query `(Π, G(x))` is equivalent to a *skinny* one (at most two
//! body atoms per clause) with `|Π′| = O(|Π|²)`, `d(Π′, G) ≤ sd(Π, G)` and
//! `w(Π′, G) ≤ w(Π, G)`, where `sd(Π, G) = 2·d(Π, G) + log ν(G) + log e_Π`
//! is the skinny depth for a weight function `ν`.
//!
//! Construction, per clause with more than two atoms:
//! 1. equalities are eliminated up-front by unifying variables (an `x = y`
//!    body atom is the same as substituting `y ↦ x` throughout the clause);
//! 2. the body is split into its EDB and IDB parts via fresh predicates
//!    `Q ← Q_E ∧ Q_I`;
//! 3. the EDB part is binarised as a balanced tree (depth `≤ log e_Π`);
//! 4. the IDB part is binarised along a **Huffman tree** for the weights
//!    `ν(Pᵢ)/ν(Q)`, so the path to `Pᵢ` has length `≤ ⌈log(ν(Q)/ν(Pᵢ))⌉`,
//!    which telescopes to the `d + log ν(G)` depth bound.

use crate::analysis::weight_function;
use crate::program::{BodyAtom, CVar, Clause, NdlQuery, PredId, PredKind, Program};
use obda_owlql::util::FxHashMap;

/// Eliminates equality atoms from a clause by unifying variables.
pub fn eliminate_equalities(clause: &Clause) -> Clause {
    // Union-find over clause variables.
    let n = clause.num_vars as usize;
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], v: u32) -> u32 {
        let mut root = v;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = v;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for atom in &clause.body {
        if let BodyAtom::Eq(a, b) = atom {
            let (ra, rb) = (find(&mut parent, a.0), find(&mut parent, b.0));
            if ra != rb {
                parent[(ra.max(rb)) as usize] = ra.min(rb);
            }
        }
    }
    let subst = |v: CVar, parent: &mut Vec<u32>| CVar(find(parent, v.0));
    let head_args: Vec<CVar> = clause.head_args.iter().map(|&v| subst(v, &mut parent)).collect();
    let body: Vec<BodyAtom> = clause
        .body
        .iter()
        .filter(|a| !matches!(a, BodyAtom::Eq(..)))
        .map(|a| match a {
            BodyAtom::Pred(p, args) => {
                BodyAtom::Pred(*p, args.iter().map(|&v| subst(v, &mut parent)).collect())
            }
            BodyAtom::EqConst(v, c) => BodyAtom::EqConst(subst(*v, &mut parent), *c),
            BodyAtom::Eq(..) => unreachable!("filtered"),
        })
        .collect();
    Clause { head: clause.head, head_args, body, num_vars: clause.num_vars }
}

/// A Huffman-tree item: a body atom with its weight.
struct Item {
    weight: u64,
    atom: BodyAtom,
}

/// Applies Lemma 5: returns an equivalent skinny NDL query.
///
/// Uses the minimal weight function. Panics if the program is recursive.
pub fn to_skinny(query: &NdlQuery) -> NdlQuery {
    // Panicking on recursion is the documented contract above; every
    // caller feeds rewriter output, which is nonrecursive by construction.
    #[allow(clippy::expect_used)]
    let nu = weight_function(&query.program).expect("program must be nonrecursive");
    let out = query.program.clone();
    let clauses: Vec<Clause> = out.clauses().to_vec();
    // We rebuild the clause list from scratch but keep the predicate table
    // (fresh predicates are appended).
    let mut rebuilt = Program::new();
    // Copy predicate declarations.
    let mut pred_map: FxHashMap<PredId, PredId> = FxHashMap::default();
    for p in out.pred_ids() {
        let info = out.pred(p).clone();
        let np = match info.kind {
            PredKind::Idb => rebuilt.add_idb_with_params(info.name, info.arity, info.num_params),
            kind => rebuilt.add_pred(info.name, info.arity, kind),
        };
        pred_map.insert(p, np);
    }
    let map_atom = |a: &BodyAtom, pred_map: &FxHashMap<PredId, PredId>| match a {
        BodyAtom::Pred(p, args) => BodyAtom::Pred(pred_map[p], args.clone()),
        other => other.clone(),
    };

    let mut fresh_counter = 0usize;
    for clause in &clauses {
        let clause = eliminate_equalities(clause);
        if clause.body.len() <= 2 {
            rebuilt.add_clause(Clause {
                head: pred_map[&clause.head],
                head_args: clause.head_args.clone(),
                body: clause.body.iter().map(|a| map_atom(a, &pred_map)).collect(),
                num_vars: clause.num_vars,
            });
            continue;
        }
        let head_name = out.pred(clause.head).name.clone();
        let (edb_atoms, idb_atoms): (Vec<BodyAtom>, Vec<BodyAtom>) = clause
            .body
            .iter()
            .cloned()
            .partition(|a| matches!(a, BodyAtom::Pred(p, _) if !out.is_idb(*p)));

        // Binarise each side; each returns a single replacement atom.
        let build_side = |atoms: Vec<BodyAtom>,
                          weights: Vec<u64>,
                          rebuilt: &mut Program,
                          fresh_counter: &mut usize|
         -> Option<BodyAtom> {
            match atoms.len() {
                0 => None,
                1 => Some(map_atom(&atoms[0], &pred_map)),
                _ => {
                    let items: Vec<Item> = atoms
                        .into_iter()
                        .zip(weights)
                        .map(|(atom, weight)| Item { weight, atom })
                        .collect();
                    Some(huffman_binarise(
                        items,
                        &head_name,
                        &pred_map,
                        rebuilt,
                        fresh_counter,
                        clause.num_vars,
                    ))
                }
            }
        };
        let edb_weights = vec![1u64; edb_atoms.len()];
        let idb_weights: Vec<u64> = idb_atoms
            .iter()
            .map(|a| match a {
                BodyAtom::Pred(p, _) => nu.get(p).copied().unwrap_or(1).max(1),
                BodyAtom::Eq(..) | BodyAtom::EqConst(..) => 1,
            })
            .collect();
        let e_side = build_side(edb_atoms, edb_weights, &mut rebuilt, &mut fresh_counter);
        let i_side = build_side(idb_atoms, idb_weights, &mut rebuilt, &mut fresh_counter);
        let body: Vec<BodyAtom> = [e_side, i_side].into_iter().flatten().collect();
        rebuilt.add_clause(Clause {
            head: pred_map[&clause.head],
            head_args: clause.head_args.clone(),
            body,
            num_vars: clause.num_vars,
        });
    }
    NdlQuery::new(rebuilt, pred_map[&query.goal])
}

/// Binarises `items` along a Huffman tree, emitting internal predicates and
/// clauses into `rebuilt`; returns the atom for the tree root.
fn huffman_binarise(
    items: Vec<Item>,
    head_name: &str,
    pred_map: &FxHashMap<PredId, PredId>,
    rebuilt: &mut Program,
    fresh_counter: &mut usize,
    num_vars: u32,
) -> BodyAtom {
    // Min-heap by weight (ties by insertion order via a counter for
    // determinism).
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<(Reverse<u64>, Reverse<usize>, usize)> = BinaryHeap::new();
    // Node table: each entry is (atom-for-node, weight).
    let mut nodes: Vec<(BodyAtom, u64)> = Vec::new();
    for item in items {
        let idx = nodes.len();
        let mapped = match &item.atom {
            BodyAtom::Pred(p, args) => BodyAtom::Pred(pred_map[p], args.clone()),
            other => other.clone(),
        };
        nodes.push((mapped, item.weight));
        heap.push((Reverse(item.weight), Reverse(idx), idx));
    }
    // Invariant: the loop guard guarantees two pops; the heap is seeded
    // with at least one node, so the final pop cannot fail either.
    #[allow(clippy::expect_used)]
    while heap.len() > 1 {
        let (_, _, i) = heap.pop().expect("len > 1");
        let (_, _, j) = heap.pop().expect("len > 1");
        let (atom_i, w_i) = nodes[i].clone();
        let (atom_j, w_j) = nodes[j].clone();
        // The internal predicate's arguments: all variables of both sides.
        let mut vars: Vec<CVar> = atom_i.vars();
        vars.extend(atom_j.vars());
        vars.sort_unstable();
        vars.dedup();
        let name = format!("{head_name}#{fresh_counter}");
        *fresh_counter += 1;
        let pid = rebuilt.add_pred(name, vars.len(), PredKind::Idb);
        rebuilt.add_clause(Clause {
            head: pid,
            head_args: vars.clone(),
            body: vec![atom_i, atom_j],
            num_vars,
        });
        let idx = nodes.len();
        let w = w_i.saturating_add(w_j);
        nodes.push((BodyAtom::Pred(pid, vars), w));
        heap.push((Reverse(w), Reverse(idx), idx));
    }
    #[allow(clippy::expect_used)] // seeded with >= 1 node, never drained below 1
    let (_, _, root) = heap.pop().expect("nonempty");
    nodes[root].0.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, is_skinny};
    use crate::eval::evaluate;
    use crate::storage::Database;
    use obda_owlql::parser::{parse_data, parse_ontology};
    use obda_owlql::vocab::{ClassId, PropId};

    /// A wide clause: G(x) ← A(x) ∧ A(y) ∧ R(x,y) ∧ Q1(y) ∧ Q2(y) ∧ Q3(x).
    fn wide_query() -> NdlQuery {
        let o = parse_ontology("Class A\nProperty R\n").unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let a = p.edb_class(ClassId(0), v);
        let r = p.edb_prop(PropId(0), v);
        let mut qs = Vec::new();
        for i in 0..3 {
            let q = p.add_pred(format!("Q{i}"), 1, PredKind::Idb);
            p.add_clause(Clause {
                head: q,
                head_args: vec![CVar(0)],
                body: vec![BodyAtom::Pred(a, vec![CVar(0)])],
                num_vars: 1,
            });
            qs.push(q);
        }
        let g = p.add_pred("G", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![
                BodyAtom::Pred(a, vec![CVar(0)]),
                BodyAtom::Pred(a, vec![CVar(1)]),
                BodyAtom::Pred(r, vec![CVar(0), CVar(1)]),
                BodyAtom::Pred(qs[0], vec![CVar(1)]),
                BodyAtom::Pred(qs[1], vec![CVar(1)]),
                BodyAtom::Pred(qs[2], vec![CVar(0)]),
            ],
            num_vars: 2,
        });
        NdlQuery::new(p, g)
    }

    #[test]
    fn produces_skinny_program() {
        let q = wide_query();
        assert!(!is_skinny(&q.program));
        let s = to_skinny(&q);
        assert!(is_skinny(&s.program));
    }

    #[test]
    fn preserves_answers() {
        let o = parse_ontology("Class A\nProperty R\n").unwrap();
        let d = parse_data("A(a)\nA(b)\nA(c)\nR(a, b)\nR(b, c)\nR(c, a)\nR(a, a)\n", &o).unwrap();
        let q = wide_query();
        let s = to_skinny(&q);
        let r1 = evaluate(&q, &Database::new(&d)).unwrap();
        let r2 = evaluate(&s, &Database::new(&d)).unwrap();
        assert_eq!(r1.answers, r2.answers);
        assert!(!r1.answers.is_empty());
    }

    #[test]
    fn respects_skinny_depth_bound() {
        let q = wide_query();
        let before = analyze(&q);
        let s = to_skinny(&q);
        let after = analyze(&s);
        assert!(after.depth <= before.skinny_depth, "{after:?} vs {before:?}");
        assert!(after.width <= before.width);
    }

    #[test]
    fn equality_elimination_unifies() {
        let o = parse_ontology("Class A\n").unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let a = p.edb_class(ClassId(0), v);
        let g = p.add_pred("G", 2, PredKind::Idb);
        // G(x, y) ← A(x) ∧ (x = y)  becomes  G(x, x) ← A(x).
        let clause = Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(a, vec![CVar(0)]), BodyAtom::Eq(CVar(0), CVar(1))],
            num_vars: 2,
        };
        let e = eliminate_equalities(&clause);
        assert_eq!(e.head_args, vec![CVar(0), CVar(0)]);
        assert_eq!(e.body.len(), 1);
        // And it evaluates identically.
        p.add_clause(clause);
        let mut p2 = Program::new();
        let a2 = p2.edb_class(ClassId(0), v);
        let _ = a2;
        let g2 = p2.add_pred("G", 2, PredKind::Idb);
        p2.add_clause(Clause { head: g2, ..e });
        let d = parse_data("A(u)\nA(w)\n", &o).unwrap();
        let r1 = evaluate(&NdlQuery::new(p, g), &Database::new(&d)).unwrap();
        let r2 = evaluate(&NdlQuery::new(p2, g2), &Database::new(&d)).unwrap();
        assert_eq!(r1.answers, r2.answers);
        assert_eq!(r1.answers.len(), 2);
    }

    #[test]
    fn chained_equalities_unify_transitively() {
        let o = parse_ontology("Class A\n").unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let a = p.edb_class(ClassId(0), v);
        let g = p.add_pred("G", 1, PredKind::Idb);
        let clause = Clause {
            head: g,
            head_args: vec![CVar(2)],
            body: vec![
                BodyAtom::Pred(a, vec![CVar(0)]),
                BodyAtom::Eq(CVar(0), CVar(1)),
                BodyAtom::Eq(CVar(1), CVar(2)),
            ],
            num_vars: 3,
        };
        let e = eliminate_equalities(&clause);
        assert_eq!(e.head_args, vec![CVar(0)]);
        assert_eq!(e.body, vec![BodyAtom::Pred(a, vec![CVar(0)])]);
    }
}
