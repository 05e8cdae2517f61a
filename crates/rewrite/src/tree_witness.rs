//! Tree witnesses (Section 3.4, after Kikot, Kontchakov & Zakharyaschev, KR 2012).
//!
//! For an OMQ `Q(x) = (T, q(x))`, a pair `t = (t_r, t_i)` of disjoint
//! variable sets with `t_i ≠ ∅`, `t_i ∩ x = ∅` is a *tree witness generated
//! by ̺* if, with `q_t` the atoms of `q` having a variable in `t_i`, there
//! is a homomorphism `h : q_t → C_{T,{A̺(a)}}` with `h⁻¹(a) = t_r`.
//! Intuitively, `q_t` is a minimal part of `q` that can fold into the
//! anonymous subtree hanging below the individual the `t_r`-variables map
//! to.
//!
//! Tree witnesses are enumerated by growing connected sets of existential
//! variables (`t_i`); for tree-shaped CQs with `ℓ` leaves there are
//! `O(|q|^ℓ)` of them.

use crate::omq::Omq;
use obda_budget::{Budget, BudgetExceeded};
use obda_chase::homomorphism::HomSearch;
use obda_chase::model::{word_bound, CanonicalModel, Element};
use obda_cq::gaifman::Gaifman;
use obda_cq::query::{Atom, Cq, Var};
use obda_owlql::util::FxHashSet;
use obda_owlql::vocab::Role;
use std::collections::BTreeSet;

/// A tree witness with its generating roles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeWitness {
    /// The root variables `t_r` (mapped to an individual).
    pub roots: BTreeSet<Var>,
    /// The interior variables `t_i` (mapped to labelled nulls).
    pub interior: BTreeSet<Var>,
    /// The atom indices of `q_t` in the host query's atom list.
    pub atoms: BTreeSet<usize>,
    /// The roles `̺` generating the witness.
    pub generators: Vec<Role>,
}

/// Enumerates the connected subsets of existential variables of `q`
/// (within the Gaifman graph), up to `cap` subsets.
pub(crate) fn connected_existential_subsets(q: &Cq, cap: usize) -> Vec<BTreeSet<Var>> {
    let g = Gaifman::new(q);
    let existential: FxHashSet<Var> = q.existential_vars().collect();
    let mut seen: FxHashSet<BTreeSet<Var>> = FxHashSet::default();
    let mut queue: Vec<BTreeSet<Var>> = Vec::new();
    for &v in &existential {
        let s = BTreeSet::from([v]);
        if seen.insert(s.clone()) {
            queue.push(s);
        }
    }
    let mut i = 0;
    while i < queue.len() && queue.len() < cap {
        let s = queue[i].clone();
        i += 1;
        // Grow by one adjacent existential variable.
        let frontier: Vec<Var> = s
            .iter()
            .flat_map(|&v| g.neighbours(v))
            .filter(|v| existential.contains(v) && !s.contains(v))
            .collect();
        for v in frontier {
            let mut s2 = s.clone();
            s2.insert(v);
            if seen.insert(s2.clone()) {
                queue.push(s2);
            }
        }
    }
    queue
}

/// Builds the sub-CQ `q_t` as a standalone [`Cq`] whose answer variables are
/// `t_r`; returns it together with the variable correspondence
/// (host variable → sub-CQ variable).
fn build_qt(q: &Cq, atoms: &BTreeSet<usize>, roots: &BTreeSet<Var>) -> (Cq, Vec<(Var, Var)>) {
    let mut sub = Cq::new();
    let mut map: Vec<(Var, Var)> = Vec::new();
    let lookup = |sub: &mut Cq, map: &mut Vec<(Var, Var)>, v: Var, name: &str| -> Var {
        if let Some(&(_, sv)) = map.iter().find(|&&(hv, _)| hv == v) {
            return sv;
        }
        let sv = sub.var(name);
        map.push((v, sv));
        sv
    };
    // Answer variables first (t_r), in order.
    for &v in roots {
        let sv = lookup(&mut sub, &mut map, v, q.var_name(v));
        sub.add_answer_var(sv);
    }
    for &i in atoms {
        match q.atoms()[i] {
            Atom::Class(c, z) => {
                let sz = lookup(&mut sub, &mut map, z, q.var_name(z));
                sub.add_class_atom(c, sz);
            }
            Atom::Prop(p, z, z2) => {
                let sz = lookup(&mut sub, &mut map, z, q.var_name(z));
                let sz2 = lookup(&mut sub, &mut map, z2, q.var_name(z2));
                sub.add_prop_atom(p, sz, sz2);
            }
        }
    }
    (sub, map)
}

#[cfg(test)]
thread_local! {
    /// Interior candidates visited on this thread: tests read it to count
    /// how often a rewriter enumerates tree witnesses.
    pub(crate) static CANDIDATES_VISITED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Enumerates all tree witnesses of the OMQ (with a safety cap on interior
/// candidates; the cap is generous for bounded-leaf queries).
pub fn tree_witnesses(omq: &Omq<'_>, cap: usize) -> Vec<TreeWitness> {
    match tree_witnesses_budgeted(omq, cap, &mut Budget::unlimited()) {
        Ok(tws) => tws,
        Err(_) => unreachable!("an unlimited budget never trips"),
    }
}

/// Budgeted [`tree_witnesses`]: the generator models' materialisation and
/// the folding homomorphism searches all draw on `budget`, so a cyclic
/// ontology whose anonymous subtrees are exponential trips the budget
/// instead of hanging the rewriter.
pub fn tree_witnesses_budgeted(
    omq: &Omq<'_>,
    cap: usize,
    budget: &mut Budget,
) -> Result<Vec<TreeWitness>, BudgetExceeded> {
    let q = omq.query;
    if q.existential_vars().next().is_none() {
        return Ok(Vec::new()); // no interior candidates, skip the models
    }
    let g = Gaifman::new(q);
    let taxonomy = omq.ontology.taxonomy();
    // One generator model per role, shared across all interior subsets
    // (the locality bound for the whole query covers every sub-CQ `q_t`).
    let bound = word_bound(&taxonomy, q.num_vars());
    let models: Vec<(Role, CanonicalModel)> = omq
        .ontology
        .vocab()
        .roles()
        .map(|role| {
            CanonicalModel::for_generator_budgeted(omq.ontology, role, bound, budget)
                .map(|m| (role, m))
                .map_err(|e| e.exceeded)
        })
        .collect::<Result<_, _>>()?;
    let mut out = Vec::new();
    for interior in connected_existential_subsets(q, cap) {
        crate::fault::inject(crate::fault::site::REWRITE_TREE_WITNESS);
        #[cfg(test)]
        CANDIDATES_VISITED.with(|c| c.set(c.get() + 1));
        budget.tick()?;
        // t_r: outside neighbours of the interior.
        let roots: BTreeSet<Var> = interior
            .iter()
            .flat_map(|&v| g.neighbours(v))
            .filter(|v| !interior.contains(v))
            .collect();
        // q_t: atoms with a variable in the interior.
        let atoms: BTreeSet<usize> = (0..q.num_atoms())
            .filter(|&i| q.atoms()[i].vars().any(|v| interior.contains(&v)))
            .collect();
        let (qt, map) = build_qt(q, &atoms, &roots);
        let mut generators = Vec::new();
        for &(role, ref model) in &models {
            // `for_generator` seeds every model with the individual `a`.
            #[allow(clippy::expect_used)]
            let a =
                model.completed().get_constant("a").expect("generator model has the individual a");
            let null_vars: Vec<Var> =
                map.iter().filter(|&&(hv, _)| interior.contains(&hv)).map(|&(_, sv)| sv).collect();
            let fixed: Vec<(Var, Element)> = map
                .iter()
                .filter(|&&(hv, _)| roots.contains(&hv))
                .map(|&(_, sv)| (sv, Element::Const(a)))
                .collect();
            // Interior variables must start below a·̺ — i.e. map to nulls
            // of the generator model (whose anonymous part is exactly the
            // subtree below a·̺ and its `W_T`-continuations).
            let search = HomSearch::new(model, &qt).require_null(null_vars);
            if search.try_exists(&fixed, budget)? {
                generators.push(role);
            }
        }
        if !generators.is_empty() {
            out.push(TreeWitness { roots, interior, atoms, generators });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_cq::parse_cq;
    use obda_owlql::parse_ontology;

    #[test]
    fn example_11_tree_witnesses() {
        // Ontology of Example 11; for the query R(x0,x1), S(x1,x2), R(x2,x3)
        // with answer x0, x3 there is a tree witness t with
        // t_i = {x1}, t_r = {x0, x2} generated by P⁻ (x1 maps to a·P⁻), and
        // one with t_i = {x2}, t_r = {x1, x3} generated by P.
        let o = parse_ontology(
            "P SubPropertyOf S\n\
             P SubPropertyOf R-\n",
        )
        .unwrap();
        let q = parse_cq("q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)", &o).unwrap();
        let omq = Omq { ontology: &o, query: &q };
        let tws = tree_witnesses(&omq, 1024);
        let x1 = q.get_var("x1").unwrap();
        let x2 = q.get_var("x2").unwrap();
        let p = obda_owlql::parser::resolve_role(o.vocab(), "P").unwrap();
        let t1 = tws
            .iter()
            .find(|t| t.interior == BTreeSet::from([x1]))
            .expect("tree witness with interior {x1}");
        assert!(t1.generators.contains(&p.inv()));
        assert_eq!(t1.roots, BTreeSet::from([q.get_var("x0").unwrap(), x2]));
        assert_eq!(t1.atoms.len(), 2); // R(x0,x1) and S(x1,x2)
        let t2 = tws
            .iter()
            .find(|t| t.interior == BTreeSet::from([x2]))
            .expect("tree witness with interior {x2}");
        assert!(t2.generators.contains(&p));
        // {x1, x2} cannot fold: the two-atom path S then R cannot sit in a
        // single anonymous subtree of this depth-1 ontology together with
        // both root edges.
        assert!(!tws.iter().any(|t| t.interior.len() == 2));
    }

    #[test]
    fn no_witness_without_existential_folding() {
        let o = parse_ontology("Class A\nProperty R\n").unwrap();
        let q = parse_cq("q(x) :- R(x, y), A(y)", &o).unwrap();
        let omq = Omq { ontology: &o, query: &q };
        // No axiom generates an anonymous part, so no tree witness.
        assert!(tree_witnesses(&omq, 1024).is_empty());
    }

    #[test]
    fn deep_witness_with_unbounded_ontology() {
        let o = parse_ontology(
            "A SubClassOf exists P\n\
             exists P- SubClassOf exists P\n",
        )
        .unwrap();
        let q = parse_cq("q(x) :- P(x, y), P(y, z)", &o).unwrap();
        let omq = Omq { ontology: &o, query: &q };
        let tws = tree_witnesses(&omq, 1024);
        // {y,z} folds below x via generator P; {z} folds below y via P.
        let y = q.get_var("y").unwrap();
        let z = q.get_var("z").unwrap();
        assert!(tws.iter().any(|t| t.interior == BTreeSet::from([y, z])));
        assert!(tws.iter().any(|t| t.interior == BTreeSet::from([z])));
        // {y} alone is not a witness: q_t = both atoms, and z would also
        // need to map into the tree while being… actually z is existential
        // too, but z ∉ t_i means z ∈ t_r maps to the root individual, and
        // P(y, z) cannot point back at the root.
        assert!(!tws.iter().any(|t| t.interior == BTreeSet::from([y])));
    }
}
