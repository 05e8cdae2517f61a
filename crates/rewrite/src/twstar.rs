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
/// `max_uses` times (the paper uses 2), repeating to a fixpoint.
pub fn inline_single_definitions(query: &NdlQuery, max_uses: usize) -> NdlQuery {
    let mut program = query.program.clone();
    let goal = query.goal;
    while let Some(target) = find_inline_target(&program, goal, max_uses) {
        program = inline_pred(&program, target);
    }
    // Drop predicates that became unreachable from the goal.
    let program = garbage_collect(&program, goal);
    NdlQuery::new(program.0, program.1)
}

fn find_inline_target(program: &Program, goal: PredId, max_uses: usize) -> Option<PredId> {
    for p in program.pred_ids() {
        if p == goal || !program.is_idb(p) {
            continue;
        }
        let defs: Vec<&Clause> = program.clauses_for(p).collect();
        if defs.len() != 1 {
            continue;
        }
        // Self-recursive definitions cannot be inlined.
        if defs[0].body.iter().any(|a| matches!(a, BodyAtom::Pred(q, _) if *q == p)) {
            continue;
        }
        let uses: usize = program
            .clauses()
            .iter()
            .map(|c| c.body.iter().filter(|a| matches!(a, BodyAtom::Pred(q, _) if *q == p)).count())
            .sum();
        if uses >= 1 && uses <= max_uses {
            return Some(p);
        }
    }
    None
}

/// Substitutes the unique definition of `target` into every use site.
fn inline_pred(program: &Program, target: PredId) -> Program {
    // `inline_single_definitions` only calls this for predicates it has
    // verified to have exactly one defining clause.
    #[allow(clippy::expect_used)]
    let def = program.clauses_for(target).next().expect("target has a definition").clone();
    let mut out = clone_preds(program);
    for clause in program.clauses() {
        if clause.head == target {
            continue; // the definition itself disappears
        }
        let mut new_clause = clause.clone();
        while let Some(pos) =
            new_clause.body.iter().position(|a| matches!(a, BodyAtom::Pred(q, _) if *q == target))
        {
            let BodyAtom::Pred(_, args) = new_clause.body.remove(pos) else {
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
            let mut next_var = new_clause.num_vars;
            for v in 0..def.num_vars {
                subst.entry(CVar(v)).or_insert_with(|| {
                    let c = CVar(next_var);
                    next_var += 1;
                    c
                });
            }
            new_clause.num_vars = next_var;
            for atom in &def.body {
                let mapped = match atom {
                    BodyAtom::Pred(q, a) => {
                        BodyAtom::Pred(*q, a.iter().map(|v| subst[v]).collect())
                    }
                    BodyAtom::Eq(a, b) => BodyAtom::Eq(subst[a], subst[b]),
                    BodyAtom::EqConst(a, c) => BodyAtom::EqConst(subst[a], *c),
                };
                new_clause.body.push(mapped);
            }
            new_clause.body.extend(extra_eqs);
        }
        out.add_clause(new_clause);
    }
    out
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

/// Removes clauses whose head is unreachable from the goal. Predicates keep
/// their ids (unreferenced entries are harmless).
fn garbage_collect(program: &Program, goal: PredId) -> (Program, PredId) {
    let mut reachable = vec![false; program.num_preds()];
    reachable[goal.0 as usize] = true;
    let mut stack = vec![goal];
    while let Some(p) = stack.pop() {
        for c in program.clauses_for(p) {
            for a in &c.body {
                if let BodyAtom::Pred(q, _) = a {
                    if !reachable[q.0 as usize] {
                        reachable[q.0 as usize] = true;
                        stack.push(*q);
                    }
                }
            }
        }
    }
    let mut out = clone_preds(program);
    for c in program.clauses() {
        if reachable[c.head.0 as usize] {
            out.add_clause(c.clone());
        }
    }
    (out, goal)
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
        let omq = Omq { ontology: &o, query: &q };
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
}
