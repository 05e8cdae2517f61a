//! A Presto-style NDL baseline: the tree-witness UCQ over atom views.
//!
//! Presto (Rosati & Almatelli, 2010) factors atom-level rewritings into
//! nonrecursive view predicates but still enumerates exponentially many top
//! clauses on the paper's `OMQ(1,1,2)` sequences — the behaviour the
//! `Presto` bars of Figure 2 document. We reproduce that shape with the
//! classical *tree-witness UCQ* of Kikot, Kontchakov & Zakharyaschev
//! (KR 2012) factored through views:
//!
//! * a view predicate `V_S` per data predicate `S`, defined by the atoms
//!   that imply `S` under `T` (so the program evaluates over arbitrary
//!   instances);
//! * a predicate `W_t` per tree witness `t`, one clause per generator `̺`:
//!   `W_t(t_r) ← A̺(z₀) ∧ (z = z₀ …)`;
//! * one top clause per **independent set** `Θ` of compatible tree
//!   witnesses: `G(x) ← ⋀_{t∈Θ} W_t ∧ ⋀_{uncovered atoms} V_S`.
//!
//! Boolean queries additionally get the fully-anonymous clauses
//! `G ← A(z)` for `T, {A(a)} ⊨ q`.

use crate::omq::{charge_clause, tick_rewrite, Omq, RewriteError, Rewriter};
use crate::tree_witness::{tree_witnesses_budgeted, TreeWitness};
use obda_budget::Budget;
use obda_chase::answer::{certain_answers_budgeted, CertainAnswers};
use obda_cq::query::{Atom, Var};
use obda_ndl::program::{BodyAtom, CVar, Clause, NdlQuery, PredId, PredKind, Program};
use obda_owlql::axiom::ClassExpr;
use obda_owlql::util::FxHashMap;
use obda_owlql::vocab::Role;
use std::collections::BTreeSet;

/// The Presto-like rewriter (tree-witness UCQ over views).
#[derive(Debug, Clone, Copy)]
pub struct PrestoLikeRewriter {
    /// Abort with [`RewriteError::TooLarge`] past this many clauses.
    pub cap: usize,
}

impl Default for PrestoLikeRewriter {
    fn default() -> Self {
        PrestoLikeRewriter { cap: 100_000 }
    }
}

/// The pure tree-witness **UCQ** rewriter over complete data instances
/// (Kikot, Kontchakov & Zakharyaschev, KR 2012): one clause per independent
/// set of tree witnesses and per combination of their generators, with
/// uncovered atoms kept as plain data atoms. On the Appendix A.6 example it
/// produces exactly the 9 CQs of A.6.1; it is the stand-in for the
/// optimised UCQ engines (Rapid, Clipper) in the Figure 2 experiment.
#[derive(Debug, Clone, Copy)]
pub struct TwUcqRewriter {
    /// Abort with [`RewriteError::TooLarge`] past this many clauses.
    pub cap: usize,
}

impl Default for TwUcqRewriter {
    fn default() -> Self {
        TwUcqRewriter { cap: 100_000 }
    }
}

impl Rewriter for TwUcqRewriter {
    fn name(&self) -> &'static str {
        "TwUCQ"
    }

    fn rewrite_budgeted(
        &self,
        omq: &Omq<'_>,
        budget: &mut Budget,
    ) -> Result<NdlQuery, RewriteError> {
        let q = omq.query;
        let vocab = omq.ontology.vocab();
        let mut program = Program::new();
        let num_answer = q.answer_vars().len();
        let goal = program.add_idb_with_params("G", num_answer, num_answer);

        let tws: Vec<TreeWitness> = tree_witnesses_budgeted(omq, self.cap, budget)
            .map_err(|e| {
                RewriteError::from_budget(
                    e,
                    program.num_clauses(),
                    program.clauses().iter().map(|c| c.body.len()).sum(),
                )
            })?
            .into_iter()
            .filter(|t| !t.roots.is_empty())
            .collect();

        // Enumerate independent sets, then all generator combinations.
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(0, Vec::new())];
        let mut emitted = 0usize;
        while let Some((from, chosen)) = stack.pop() {
            let chosen_tws: Vec<&TreeWitness> = chosen.iter().map(|&i| &tws[i]).collect();
            let mut combo = vec![0usize; chosen.len()];
            loop {
                emitted += 1;
                if emitted > self.cap {
                    return Err(RewriteError::TooLarge(self.cap));
                }
                charge_clause(budget, &program)?;
                emit_ucq_clause(&mut program, goal, omq, &chosen_tws, &combo);
                // Next generator combination (odometer).
                let mut pos = 0;
                while pos < combo.len() {
                    combo[pos] += 1;
                    if combo[pos] < chosen_tws[pos].generators.len() {
                        break;
                    }
                    combo[pos] = 0;
                    pos += 1;
                }
                if pos == combo.len() {
                    break;
                }
            }
            for next in from..tws.len() {
                let compatible = chosen
                    .iter()
                    .all(|&j| tws[j].atoms.intersection(&tws[next].atoms).next().is_none());
                if compatible {
                    let mut c2 = chosen.clone();
                    c2.push(next);
                    stack.push((next + 1, c2));
                }
            }
        }

        if q.is_boolean() {
            for class in vocab.class_ids().collect::<Vec<_>>() {
                tick_rewrite(budget, &program)?;
                let mut data = obda_owlql::DataInstance::new();
                let a = data.constant("a");
                data.add_class_atom(class, a);
                let entailed =
                    certain_answers_budgeted(omq.ontology, q, &data, budget).map_err(|e| {
                        let clauses = program.clauses().len();
                        let atoms = program.clauses().iter().map(|c| c.body.len()).sum();
                        RewriteError::from_budget(e.exceeded, clauses, atoms)
                    })?;
                if entailed == CertainAnswers::Boolean(true) {
                    charge_clause(budget, &program)?;
                    let p = program.edb_class(class, vocab);
                    program.add_clause(Clause {
                        head: goal,
                        head_args: vec![],
                        body: vec![BodyAtom::Pred(p, vec![CVar(0)])],
                        num_vars: 1,
                    });
                }
            }
        }
        Ok(NdlQuery::new(program, goal))
    }
}

/// Emits one UCQ clause: uncovered atoms as data atoms; each chosen tree
/// witness contributes `A̺(z₀)` (for the combination's generator) plus root
/// equalities.
fn emit_ucq_clause(
    program: &mut Program,
    goal: PredId,
    omq: &Omq<'_>,
    chosen: &[&TreeWitness],
    combo: &[usize],
) {
    let q = omq.query;
    let vocab = omq.ontology.vocab().clone();
    let covered: BTreeSet<usize> = chosen.iter().flat_map(|t| t.atoms.iter().copied()).collect();
    let mut cvars: FxHashMap<Var, CVar> = FxHashMap::default();
    let mut next = 0u32;
    let alloc = |v: Var, cvars: &mut FxHashMap<Var, CVar>, next: &mut u32| -> CVar {
        *cvars.entry(v).or_insert_with(|| {
            let c = CVar(*next);
            *next += 1;
            c
        })
    };
    for &v in q.answer_vars() {
        alloc(v, &mut cvars, &mut next);
    }
    let mut body = Vec::new();
    for (i, &atom) in q.atoms().iter().enumerate() {
        if covered.contains(&i) {
            continue;
        }
        match atom {
            Atom::Class(c, z) => {
                let cz = alloc(z, &mut cvars, &mut next);
                let p = program.edb_class(c, &vocab);
                body.push(BodyAtom::Pred(p, vec![cz]));
            }
            Atom::Prop(p, z, z2) => {
                let cz = alloc(z, &mut cvars, &mut next);
                let cz2 = alloc(z2, &mut cvars, &mut next);
                let pe = program.edb_prop(p, &vocab);
                body.push(BodyAtom::Pred(pe, vec![cz, cz2]));
            }
        }
    }
    for (t, &gen_idx) in chosen.iter().zip(combo) {
        let rho = t.generators[gen_idx];
        let a_rho = omq.ontology.exists_class(rho);
        let p = program.edb_class(a_rho, &vocab);
        let mut roots = t.roots.iter();
        // Root-less witnesses are filtered out at collection time.
        #[allow(clippy::expect_used)]
        let z0 = *roots.next().expect("t_r nonempty");
        let cz0 = alloc(z0, &mut cvars, &mut next);
        body.push(BodyAtom::Pred(p, vec![cz0]));
        for &z in roots {
            let cz = alloc(z, &mut cvars, &mut next);
            body.push(BodyAtom::Eq(cz, cz0));
        }
    }
    let bound: Vec<CVar> = body.iter().flat_map(|a| a.vars()).collect();
    let head_args: Vec<CVar> = q.answer_vars().iter().map(|&v| cvars[&v]).collect();
    if body.is_empty() || head_args.iter().any(|c| !bound.contains(c)) {
        return;
    }
    program.add_clause(Clause { head: goal, head_args, body, num_vars: next });
}

impl Rewriter for PrestoLikeRewriter {
    fn name(&self) -> &'static str {
        "PrestoLike"
    }

    fn rewrite_budgeted(
        &self,
        omq: &Omq<'_>,
        budget: &mut Budget,
    ) -> Result<NdlQuery, RewriteError> {
        // The views make the program a rewriting over arbitrary instances,
        // hence in particular over complete ones.
        let q = omq.query;
        let taxonomy = omq
            .ontology
            .taxonomy_budgeted(budget)
            .map_err(|e| RewriteError::from_budget(e, 0, 0))?;
        let vocab = omq.ontology.vocab();
        let mut program = Program::new();
        let num_answer = q.answer_vars().len();
        let goal = program.add_idb_with_params("G", num_answer, num_answer);

        // Views: V_A(x) / V_P(x, y) from the implying atoms.
        let mut class_views: FxHashMap<obda_owlql::ClassId, PredId> = FxHashMap::default();
        let mut prop_views: FxHashMap<obda_owlql::PropId, PredId> = FxHashMap::default();
        let used_classes: BTreeSet<_> = q
            .atoms()
            .iter()
            .filter_map(|a| match a {
                Atom::Class(c, _) => Some(*c),
                _ => None,
            })
            .collect();
        let used_props: BTreeSet<_> = q
            .atoms()
            .iter()
            .filter_map(|a| match a {
                Atom::Prop(p, _, _) => Some(*p),
                _ => None,
            })
            .collect();

        // Tree-witness predicates also consult the generator classes A̺,
        // which must be derived over arbitrary instances — route them
        // through views as well.
        let tws: Vec<TreeWitness> = tree_witnesses_budgeted(omq, self.cap, budget)
            .map_err(|e| {
                RewriteError::from_budget(
                    e,
                    program.num_clauses(),
                    program.clauses().iter().map(|c| c.body.len()).sum(),
                )
            })?
            .into_iter()
            .filter(|t| !t.roots.is_empty())
            .collect();
        let mut used_classes = used_classes;
        for t in &tws {
            for &rho in &t.generators {
                used_classes.insert(omq.ontology.exists_class(rho));
            }
        }

        for c in used_classes {
            let view = program.add_pred(format!("V_{}", vocab.class_name(c)), 1, PredKind::Idb);
            class_views.insert(c, view);
            for sub in taxonomy.sub_classes(ClassExpr::Class(c)).collect::<Vec<_>>() {
                let (body, num_vars) = match sub {
                    ClassExpr::Class(b) => {
                        let p = program.edb_class(b, vocab);
                        (vec![BodyAtom::Pred(p, vec![CVar(0)])], 1)
                    }
                    ClassExpr::Exists(r) => {
                        (vec![program.role_atom(r, CVar(0), CVar(1), vocab)], 2)
                    }
                    ClassExpr::Top => continue,
                };
                charge_clause(budget, &program)?;
                program.add_clause(Clause { head: view, head_args: vec![CVar(0)], body, num_vars });
            }
        }
        for p in used_props {
            let view = program.add_pred(format!("V_{}", vocab.prop_name(p)), 2, PredKind::Idb);
            prop_views.insert(p, view);
            for sub in taxonomy.sub_roles(Role::direct(p)).collect::<Vec<_>>() {
                let body = vec![program.role_atom(sub, CVar(0), CVar(1), vocab)];
                charge_clause(budget, &program)?;
                program.add_clause(Clause {
                    head: view,
                    head_args: vec![CVar(0), CVar(1)],
                    body,
                    num_vars: 2,
                });
            }
            if taxonomy.is_reflexive(Role::direct(p)) {
                let top = program.edb_top();
                program.add_clause(Clause {
                    head: view,
                    head_args: vec![CVar(0), CVar(1)],
                    body: vec![BodyAtom::Pred(top, vec![CVar(0)]), BodyAtom::Eq(CVar(0), CVar(1))],
                    num_vars: 2,
                });
            }
        }

        // Tree-witness predicates W_t.
        let mut tw_preds: Vec<(PredId, Vec<Var>)> = Vec::new();
        for (i, t) in tws.iter().enumerate() {
            let roots: Vec<Var> = t.roots.iter().copied().collect();
            let w = program.add_pred(format!("W{i}"), roots.len(), PredKind::Idb);
            let z0 = 0usize; // first root position
            for &rho in &t.generators {
                let a_rho = omq.ontology.exists_class(rho);
                let p = class_views[&a_rho];
                let mut body = vec![BodyAtom::Pred(p, vec![CVar(z0 as u32)])];
                for k in 1..roots.len() {
                    body.push(BodyAtom::Eq(CVar(k as u32), CVar(z0 as u32)));
                }
                charge_clause(budget, &program)?;
                program.add_clause(Clause {
                    head: w,
                    head_args: (0..roots.len() as u32).map(CVar).collect(),
                    body,
                    num_vars: roots.len() as u32,
                });
            }
            tw_preds.push((w, roots));
        }

        // Independent sets of tree witnesses (pairwise disjoint atom sets),
        // one top clause each.
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(0, Vec::new())];
        let mut emitted = 0usize;
        while let Some((from, chosen)) = stack.pop() {
            // Emit the clause for `chosen`.
            emitted += 1;
            if emitted > self.cap {
                return Err(RewriteError::TooLarge(self.cap));
            }
            charge_clause(budget, &program)?;
            self.emit_top_clause(
                &mut program,
                goal,
                omq,
                &chosen.iter().map(|&i| &tws[i]).collect::<Vec<_>>(),
                &chosen.iter().map(|&i| tw_preds[i].clone()).collect::<Vec<_>>(),
                &class_views,
                &prop_views,
            );
            for next in from..tws.len() {
                let compatible = chosen
                    .iter()
                    .all(|&j| tws[j].atoms.intersection(&tws[next].atoms).next().is_none());
                if compatible {
                    let mut c2 = chosen.clone();
                    c2.push(next);
                    stack.push((next + 1, c2));
                }
            }
        }

        // Boolean fully-anonymous matches.
        if q.is_boolean() {
            for class in vocab.class_ids().collect::<Vec<_>>() {
                tick_rewrite(budget, &program)?;
                let mut data = obda_owlql::DataInstance::new();
                let a = data.constant("a");
                data.add_class_atom(class, a);
                let entailed =
                    certain_answers_budgeted(omq.ontology, q, &data, budget).map_err(|e| {
                        let clauses = program.clauses().len();
                        let atoms = program.clauses().iter().map(|c| c.body.len()).sum();
                        RewriteError::from_budget(e.exceeded, clauses, atoms)
                    })?;
                if entailed == CertainAnswers::Boolean(true) {
                    charge_clause(budget, &program)?;
                    let p = program.edb_class(class, vocab);
                    program.add_clause(Clause {
                        head: goal,
                        head_args: vec![],
                        body: vec![BodyAtom::Pred(p, vec![CVar(0)])],
                        num_vars: 1,
                    });
                }
            }
        }

        Ok(NdlQuery::new(program, goal))
    }
}

impl PrestoLikeRewriter {
    #[allow(clippy::too_many_arguments)]
    fn emit_top_clause(
        &self,
        program: &mut Program,
        goal: PredId,
        omq: &Omq<'_>,
        chosen: &[&TreeWitness],
        chosen_preds: &[(PredId, Vec<Var>)],
        class_views: &FxHashMap<obda_owlql::ClassId, PredId>,
        prop_views: &FxHashMap<obda_owlql::PropId, PredId>,
    ) {
        let q = omq.query;
        let covered: BTreeSet<usize> =
            chosen.iter().flat_map(|t| t.atoms.iter().copied()).collect();
        let mut cvars: FxHashMap<Var, CVar> = FxHashMap::default();
        let mut next = 0u32;
        let alloc = |v: Var, cvars: &mut FxHashMap<Var, CVar>, next: &mut u32| -> CVar {
            *cvars.entry(v).or_insert_with(|| {
                let c = CVar(*next);
                *next += 1;
                c
            })
        };
        for &v in q.answer_vars() {
            alloc(v, &mut cvars, &mut next);
        }
        let mut body = Vec::new();
        for (i, &atom) in q.atoms().iter().enumerate() {
            if covered.contains(&i) {
                continue;
            }
            match atom {
                Atom::Class(c, z) => {
                    let cz = alloc(z, &mut cvars, &mut next);
                    body.push(BodyAtom::Pred(class_views[&c], vec![cz]));
                }
                Atom::Prop(p, z, z2) => {
                    let cz = alloc(z, &mut cvars, &mut next);
                    let cz2 = alloc(z2, &mut cvars, &mut next);
                    body.push(BodyAtom::Pred(prop_views[&p], vec![cz, cz2]));
                }
            }
        }
        for (w, roots) in chosen_preds {
            let args: Vec<CVar> = roots.iter().map(|&v| alloc(v, &mut cvars, &mut next)).collect();
            body.push(BodyAtom::Pred(*w, args));
        }
        // Every answer variable must be bound: tree-witness interiors never
        // contain answer variables, so each answer variable occurs in an
        // uncovered atom or as a tree-witness root.
        let bound: Vec<CVar> = body.iter().flat_map(|a| a.vars()).collect();
        let head_args: Vec<CVar> = q.answer_vars().iter().map(|&v| cvars[&v]).collect();
        if (body.is_empty() || head_args.iter().any(|c| !bound.contains(c)))
            && (!q.is_boolean() || body.is_empty())
        {
            return; // degenerate combination, contributes nothing new
        }
        program.add_clause(Clause { head: goal, head_args, body, num_vars: next });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_chase::certain_answers;
    use obda_cq::parse_cq;
    use obda_ndl::eval::evaluate;
    use obda_ndl::storage::Database;
    use obda_owlql::parser::{parse_data, parse_ontology};

    fn example_11_ontology() -> obda_owlql::Ontology {
        parse_ontology(
            "P SubPropertyOf S\n\
             P SubPropertyOf R-\n",
        )
        .unwrap()
    }

    #[test]
    fn matches_oracle() {
        let o = example_11_ontology();
        let q = parse_cq(
            "q(x0, x7) :- R(x0, x1), S(x1, x2), R(x2, x3), R(x3, x4), S(x4, x5), R(x5, x6), R(x6, x7)",
            &o,
        )
        .unwrap();
        let omq = Omq::new(&o, &q);
        let rw = PrestoLikeRewriter::default().rewrite_complete(&omq).unwrap();
        let d = parse_data("P(w1, a)\nR(a, b)\nP(w2, b)\nR(b, c)\nR(c, e)\nR(e, f)\nS(f, g)\n", &o)
            .unwrap();
        let res = evaluate(&rw, &Database::new(&d)).unwrap();
        let oracle = certain_answers(&o, &q, &d);
        assert_eq!(res.answers, oracle.tuples());
        assert!(!res.answers.is_empty());
    }

    #[test]
    fn top_clauses_grow_with_witness_count() {
        let o = example_11_ontology();
        let short = parse_cq("q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)", &o).unwrap();
        let long = parse_cq(
            "q(x0, x6) :- R(x0, x1), S(x1, x2), R(x2, x3), R(x3, x4), S(x4, x5), R(x5, x6)",
            &o,
        )
        .unwrap();
        let n_short = PrestoLikeRewriter::default()
            .rewrite_complete(&Omq::new(&o, &short))
            .unwrap()
            .program
            .num_clauses();
        let n_long = PrestoLikeRewriter::default()
            .rewrite_complete(&Omq::new(&o, &long))
            .unwrap()
            .program
            .num_clauses();
        assert!(n_long > n_short, "{n_long} vs {n_short}");
    }

    #[test]
    fn boolean_query() {
        let o = parse_ontology(
            "A SubClassOf exists P\n\
             exists P- SubClassOf B\n",
        )
        .unwrap();
        let q = parse_cq("q() :- P(x, y), B(y)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let rw = PrestoLikeRewriter::default().rewrite_complete(&omq).unwrap();
        let d = parse_data("A(a)\n", &o).unwrap();
        let res = evaluate(&rw, &Database::new(&d)).unwrap();
        assert_eq!(res.answers.len(), 1);
    }
}

#[cfg(test)]
mod tw_ucq_tests {
    use super::*;
    use obda_chase::certain_answers;
    use obda_cq::parse_cq;
    use obda_ndl::eval::evaluate;
    use obda_ndl::storage::Database;
    use obda_owlql::parser::{parse_data, parse_ontology};

    #[test]
    fn reproduces_the_nine_cqs_of_appendix_a61() {
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
        let rw = TwUcqRewriter::default().rewrite_complete(&omq).unwrap();
        assert_eq!(rw.program.num_clauses(), 9, "Appendix A.6.1 lists exactly 9 CQs");
    }

    #[test]
    fn matches_oracle_over_completed_data() {
        let o = parse_ontology(
            "P SubPropertyOf S\n\
             P SubPropertyOf R-\n",
        )
        .unwrap();
        let q = parse_cq("q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let rw = TwUcqRewriter::default().rewrite_complete(&omq).unwrap();
        let d = parse_data("P(w1, a)\nR(a, b)\nP(b, c)\nS(c, d)\n", &o).unwrap();
        let tx = o.taxonomy();
        let res = evaluate(&rw, &Database::new(&d.complete(&tx))).unwrap();
        let oracle = certain_answers(&o, &q, &d);
        assert_eq!(res.answers, oracle.tuples());
    }
}
