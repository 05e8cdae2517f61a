//! The `Tw*` optimisation (Appendix D.4): inline IDB predicates that are
//! defined by a single clause and used at most twice.
//!
//! The appendix observes that RDFox materialises every predicate, so
//! rewritings speed up dramatically when single-definition helper
//! predicates are substituted into their use sites (e.g. the `P13` example
//! of D.4 went from 28 s to 0.9 s). The pass below is a generic NDL → NDL
//! transformation; applied to `Tw` rewritings it yields the `Tw*` variant
//! of Tables 3–5.

use obda_ndl::program::{BodyAtom, CVar, Clause, NdlQuery, PredId, PredKind, Program};
use obda_owlql::util::FxHashMap;

/// Inlines IDB predicates with a single defining clause used at most
/// `max_uses` times (the paper uses 2), repeating to a fixpoint: each round
/// inlines the lowest eligible `PredId`.
///
/// One ascending pass over the predicates finds the same targets in the
/// same order. Inlining `p` never makes another predicate eligible: its
/// definition's body atoms are copied to `p`'s `uses(p) ≥ 1` use sites, so
/// every other predicate's use count only grows, no clause loses an atom
/// other than a `p`-atom, and the number of definitions of every other
/// predicate stays put. So when `p` is the lowest eligible predicate, every
/// lower one stays ineligible, and the next target is the next eligible
/// predicate above `p`. The pass keeps the definitions and use counts
/// current, rewrites use sites in place and builds the program once.
pub fn inline_single_definitions(query: &NdlQuery, max_uses: usize) -> NdlQuery {
    let program = &query.program;
    let goal = query.goal;
    let n = program.num_preds();
    // Clause slots in program order; an inlined definition leaves `None`.
    let mut clauses: Vec<Option<Clause>> = program.clauses().iter().cloned().map(Some).collect();
    // Per predicate: its defining slots, the slots whose bodies mention it
    // (possibly repeated or stale), and its number of body occurrences.
    let mut defs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut sites: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut uses: Vec<usize> = vec![0; n];
    for (slot, c) in program.clauses().iter().enumerate() {
        defs[c.head.0 as usize].push(slot);
        for q in body_preds(c) {
            uses[q] += 1;
            sites[q].push(slot);
        }
    }
    for p in program.pred_ids() {
        let i = p.0 as usize;
        if p == goal
            || !program.is_idb(p)
            || defs[i].len() != 1
            || !(1..=max_uses).contains(&uses[i])
        {
            continue;
        }
        let def_slot = defs[i][0];
        // Self-recursive definitions cannot be inlined.
        let Some(def) = clauses[def_slot].take_if(|def| body_preds(def).all(|q| q != i)) else {
            continue;
        };
        for q in body_preds(&def) {
            uses[q] -= 1;
        }
        let mut use_sites = std::mem::take(&mut sites[i]);
        use_sites.sort_unstable();
        use_sites.dedup();
        for slot in use_sites {
            let Some(clause) = clauses[slot].as_mut() else {
                continue; // a definition inlined earlier
            };
            let copies = inline_into(clause, p, &def);
            for q in body_preds(&def) {
                uses[q] += copies;
                sites[q].push(slot);
            }
        }
        uses[i] = 0;
        defs[i].clear();
    }
    rebuild(program, clauses, goal)
}

/// Builds `program`'s predicates with the surviving clauses whose heads
/// are reachable from the goal, in slot order. Predicates keep their ids
/// (unreferenced entries are harmless).
fn rebuild(program: &Program, clauses: Vec<Option<Clause>>, goal: PredId) -> NdlQuery {
    let mut by_head: Vec<Vec<usize>> = vec![Vec::new(); program.num_preds()];
    for (slot, c) in clauses.iter().enumerate() {
        if let Some(c) = c {
            by_head[c.head.0 as usize].push(slot);
        }
    }
    let mut reachable = vec![false; program.num_preds()];
    reachable[goal.0 as usize] = true;
    let mut stack = vec![goal.0 as usize];
    while let Some(p) = stack.pop() {
        for &slot in &by_head[p] {
            for q in clauses[slot].iter().flat_map(body_preds) {
                if !reachable[q] {
                    reachable[q] = true;
                    stack.push(q);
                }
            }
        }
    }
    let mut out = clone_preds(program);
    for c in clauses.into_iter().flatten() {
        if reachable[c.head.0 as usize] {
            out.add_clause(c);
        }
    }
    NdlQuery::new(out, goal)
}

/// The predicates of a clause's body atoms, one per occurrence.
fn body_preds(clause: &Clause) -> impl Iterator<Item = usize> + '_ {
    clause.body.iter().filter_map(|a| match a {
        BodyAtom::Pred(q, _) => Some(q.0 as usize),
        _ => None,
    })
}

/// Substitutes `def`, the unique definition of `target`, for every
/// occurrence of `target` in `clause`; returns how many it replaced.
fn inline_into(clause: &mut Clause, target: PredId, def: &Clause) -> usize {
    let mut copies = 0;
    while let Some(pos) =
        clause.body.iter().position(|a| matches!(a, BodyAtom::Pred(q, _) if *q == target))
    {
        copies += 1;
        let BodyAtom::Pred(_, args) = clause.body.remove(pos) else {
            unreachable!("position matched a predicate atom");
        };
        // Substitution for the definition's variables: head args map to
        // the occurrence args; the rest get fresh variables.
        let mut subst: FxHashMap<CVar, CVar> = FxHashMap::default();
        let mut extra_eqs: Vec<BodyAtom> = Vec::new();
        for (k, &hv) in def.head_args.iter().enumerate() {
            match subst.get(&hv) {
                None => {
                    subst.insert(hv, args[k]);
                }
                Some(&prev) if prev != args[k] => {
                    // Repeated head variable bound to two occurrence
                    // variables: keep the first, equate the second.
                    extra_eqs.push(BodyAtom::Eq(prev, args[k]));
                }
                Some(_) => {}
            }
        }
        let mut next_var = clause.num_vars;
        for v in 0..def.num_vars {
            subst.entry(CVar(v)).or_insert_with(|| {
                let c = CVar(next_var);
                next_var += 1;
                c
            });
        }
        clause.num_vars = next_var;
        for atom in &def.body {
            let mapped = match atom {
                BodyAtom::Pred(q, a) => BodyAtom::Pred(*q, a.iter().map(|v| subst[v]).collect()),
                BodyAtom::Eq(a, b) => BodyAtom::Eq(subst[a], subst[b]),
                BodyAtom::EqConst(a, c) => BodyAtom::EqConst(subst[a], *c),
            };
            clause.body.push(mapped);
        }
        clause.body.extend(extra_eqs);
    }
    copies
}

fn clone_preds(program: &Program) -> Program {
    let mut out = Program::new();
    for p in program.pred_ids() {
        let info = program.pred(p).clone();
        match info.kind {
            PredKind::Idb => {
                out.add_idb_with_params(info.name, info.arity, info.num_params);
            }
            kind => {
                out.add_pred(info.name, info.arity, kind);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omq::{Omq, Rewriter};
    use crate::tw::TwRewriter;
    use obda_chase::certain_answers;
    use obda_cq::parse_cq;
    use obda_ndl::eval::evaluate;
    use obda_ndl::storage::Database;
    use obda_owlql::parser::{parse_data, parse_ontology};
    use obda_owlql::vocab::Vocab;
    use proptest::prelude::*;

    /// The D.4 example: G(x,y) ← S(x,z) ∧ P13(z,y); P13(x,y) ← R(x,z) ∧
    /// R(z,y); G(x,y) ← AP(x) ∧ R(x,y) — P13 inlines away.
    #[test]
    fn inlines_the_d4_example() {
        let mut v = Vocab::new();
        let s = v.prop("S");
        let r = v.prop("R");
        let ap = v.class("AP");
        let mut p = Program::new();
        let es = p.edb_prop(s, &v);
        let er = p.edb_prop(r, &v);
        let ea = p.edb_class(ap, &v);
        let p13 = p.add_pred("P13", 2, PredKind::Idb);
        let g = p.add_idb_with_params("G", 2, 2);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![
                BodyAtom::Pred(es, vec![CVar(0), CVar(2)]),
                BodyAtom::Pred(p13, vec![CVar(2), CVar(1)]),
            ],
            num_vars: 3,
        });
        p.add_clause(Clause {
            head: p13,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![
                BodyAtom::Pred(er, vec![CVar(0), CVar(2)]),
                BodyAtom::Pred(er, vec![CVar(2), CVar(1)]),
            ],
            num_vars: 3,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![
                BodyAtom::Pred(ea, vec![CVar(0)]),
                BodyAtom::Pred(er, vec![CVar(0), CVar(1)]),
            ],
            num_vars: 2,
        });
        let q = NdlQuery::new(p, g);
        let inlined = inline_single_definitions(&q, 2);
        // P13 is gone; G has the expanded 3-atom clause.
        assert_eq!(inlined.program.num_clauses(), 2);
        assert!(inlined.program.clauses().iter().all(|c| c.head == inlined.goal));

        // Semantics preserved.
        let o = parse_ontology("Class AP\nProperty S\nProperty R\n").unwrap();
        let d = parse_data("S(a, b)\nR(b, c)\nR(c, d)\nAP(e)\nR(e, f)\n", &o).unwrap();
        // NOTE: predicate ids in `q` were built against the same vocab ids.
        let r1 = evaluate(&q, &Database::new(&d)).unwrap();
        let r2 = evaluate(&inlined, &Database::new(&d)).unwrap();
        assert_eq!(r1.answers, r2.answers);
        assert_eq!(r1.answers.len(), 2);
    }

    #[test]
    fn tw_star_preserves_answers() {
        let o = parse_ontology(
            "P SubPropertyOf S\n\
             P SubPropertyOf R-\n",
        )
        .unwrap();
        let q = parse_cq(
            "q(x0, x7) :- R(x0, x1), S(x1, x2), R(x2, x3), R(x3, x4), S(x4, x5), R(x5, x6), R(x6, x7)",
            &o,
        )
        .unwrap();
        let omq = Omq::new(&o, &q);
        let tw = TwRewriter::default().rewrite_complete(&omq).unwrap();
        let twstar = inline_single_definitions(&tw, 2);
        assert!(twstar.program.num_clauses() <= tw.program.num_clauses());
        let d = parse_data("P(w1, a)\nR(a, b)\nP(w2, b)\nR(b, c)\nR(c, e)\n", &o).unwrap();
        let tx = o.taxonomy();
        let completed = d.complete(&tx);
        let r1 = evaluate(&tw, &Database::new(&completed)).unwrap();
        let r2 = evaluate(&twstar, &Database::new(&completed)).unwrap();
        assert_eq!(r1.answers, r2.answers);
        let oracle = certain_answers(&o, &q, &d);
        assert_eq!(r2.answers, oracle.tuples());
    }

    #[test]
    fn does_not_inline_multi_definition_predicates() {
        let mut v = Vocab::new();
        let a = v.class("A");
        let b = v.class("B");
        let mut p = Program::new();
        let ea = p.edb_class(a, &v);
        let eb = p.edb_class(b, &v);
        let h = p.add_pred("H", 1, PredKind::Idb);
        let g = p.add_idb_with_params("G", 1, 1);
        for pred in [ea, eb] {
            p.add_clause(Clause {
                head: h,
                head_args: vec![CVar(0)],
                body: vec![BodyAtom::Pred(pred, vec![CVar(0)])],
                num_vars: 1,
            });
        }
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(h, vec![CVar(0)])],
            num_vars: 1,
        });
        let q = NdlQuery::new(p, g);
        let inlined = inline_single_definitions(&q, 2);
        assert_eq!(inlined.program.num_clauses(), 3, "H must survive");
    }

    #[test]
    fn repeated_head_variables_generate_equalities() {
        let mut v = Vocab::new();
        let r = v.prop("R");
        let mut p = Program::new();
        let er = p.edb_prop(r, &v);
        let diag = p.add_pred("Diag", 2, PredKind::Idb);
        let g = p.add_idb_with_params("G", 2, 2);
        // Diag(x, x) ← R(x, x); G(u, w) ← Diag(u, w).
        p.add_clause(Clause {
            head: diag,
            head_args: vec![CVar(0), CVar(0)],
            body: vec![BodyAtom::Pred(er, vec![CVar(0), CVar(0)])],
            num_vars: 1,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(diag, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        let q = NdlQuery::new(p, g);
        let inlined = inline_single_definitions(&q, 2);
        let o = parse_ontology("Property R\n").unwrap();
        let d = parse_data("R(a, a)\nR(a, b)\n", &o).unwrap();
        let r1 = evaluate(&q, &Database::new(&d)).unwrap();
        let r2 = evaluate(&inlined, &Database::new(&d)).unwrap();
        assert_eq!(r1.answers, r2.answers);
        assert_eq!(r1.answers.len(), 1); // only (a, a)
    }
    /// The fixpoint loop the one-pass version replaces: each round
    /// recounts everything and inlines the lowest eligible predicate.
    fn fixpoint_reference(query: &NdlQuery, max_uses: usize) -> NdlQuery {
        let program = &query.program;
        let mut clauses: Vec<Option<Clause>> =
            program.clauses().iter().cloned().map(Some).collect();
        loop {
            let live = || clauses.iter().flatten();
            let target = program.pred_ids().find(|&p| {
                let i = p.0 as usize;
                let defs: Vec<&Clause> = live().filter(|c| c.head == p).collect();
                let uses = live().flat_map(body_preds).filter(|&q| q == i).count();
                p != query.goal
                    && program.is_idb(p)
                    && defs.len() == 1
                    && body_preds(defs[0]).all(|q| q != i)
                    && (1..=max_uses).contains(&uses)
            });
            let Some(p) = target else { break };
            let slot = clauses.iter().position(|c| c.as_ref().is_some_and(|c| c.head == p));
            let def = clauses[slot.unwrap()].take().unwrap();
            for clause in clauses.iter_mut().flatten() {
                inline_into(clause, p, &def);
            }
        }
        rebuild(program, clauses, query.goal)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        /// The one-pass inliner produces exactly the fixpoint loop's
        /// program on `Tw` rewritings of random words, Boolean or not, at
        /// every use bound.
        #[test]
        fn one_pass_equals_the_fixpoint_loop(
            letters in prop::collection::vec(any::<bool>(), 1..13),
            boolean in any::<bool>(),
            max_uses in 1usize..4,
        ) {
            let o = parse_ontology("P SubPropertyOf S\nP SubPropertyOf R-\n").unwrap();
            let n = letters.len();
            let atoms: Vec<String> = letters
                .iter()
                .enumerate()
                .map(|(i, &r)| format!("{}(x{i}, x{})", if r { 'R' } else { 'S' }, i + 1))
                .collect();
            let head = if boolean { "q()".to_owned() } else { format!("q(x0, x{n})") };
            let q = parse_cq(&format!("{head} :- {}", atoms.join(", ")), &o).unwrap();
            let tw = TwRewriter::default().rewrite_complete(&Omq::new(&o, &q)).unwrap();
            let one_pass = inline_single_definitions(&tw, max_uses);
            let reference = fixpoint_reference(&tw, max_uses);
            prop_assert_eq!(one_pass.goal, reference.goal);
            prop_assert_eq!(one_pass.program.num_preds(), reference.program.num_preds());
            prop_assert_eq!(one_pass.program.clauses(), reference.program.clauses());
        }
    }
}
