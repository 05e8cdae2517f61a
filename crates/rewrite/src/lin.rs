//! The `Lin` rewriting (Section 3.3, Theorem 12): linear polynomial-size
//! NDL-rewritings of OMQs from `OMQ(d, 1, ℓ)` — ontologies of finite depth
//! `d` with tree-shaped CQs with `ℓ` leaves — evaluable in NL.
//!
//! The CQ is rooted and cut into *slices* `z⁰, z¹, …, z^M` by distance from
//! the root; a predicate `G^w_n(z^n_∃, x^n)` per slice `n` and type `w`
//! (a map from the slice's variables to `W_T`-words) asserts that the
//! sub-query below slice `n` matches with `z^n` placed as `w` prescribes.
//! Each clause links one slice to the next, so the program is linear of
//! width `≤ 2ℓ` with `≤ |q|·|T|^{2dℓ}` predicates.

use crate::omq::{charge_clause, tick_rewrite, Omq, RewriteError, Rewriter};
use crate::types::{TypeCtx, TypeMap};
use obda_budget::Budget;
use obda_cq::gaifman::Gaifman;
use obda_cq::query::Var;
use obda_ndl::program::{BodyAtom, CVar, Clause, NdlQuery, Program};
use obda_owlql::util::FxHashMap;
use obda_owlql::words::{ontology_depth, WordArena};

/// The `Lin` rewriter. Requires a connected tree-shaped CQ and a
/// finite-depth ontology.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinRewriter {
    /// Optional root override (defaults to the first answer variable, then
    /// to the first variable).
    pub root: Option<Var>,
}

impl Rewriter for LinRewriter {
    fn name(&self) -> &'static str {
        "Lin"
    }

    fn rewrite_budgeted(
        &self,
        omq: &Omq<'_>,
        budget: &mut Budget,
    ) -> Result<NdlQuery, RewriteError> {
        let q = omq.query;
        let g = Gaifman::new(q);
        if !g.is_connected() {
            return Err(RewriteError::NotConnected);
        }
        if !g.is_tree() {
            return Err(RewriteError::NotTreeShaped);
        }
        let taxonomy = omq
            .ontology
            .taxonomy_budgeted(budget)
            .map_err(|e| RewriteError::from_budget(e, 0, 0))?;
        let Some(depth) = ontology_depth(&taxonomy) else {
            return Err(RewriteError::InfiniteDepth);
        };
        let arena = WordArena::new_budgeted(&taxonomy, depth, budget)
            .map_err(|e| RewriteError::from_budget(e, 0, 0))?;
        let ctx = TypeCtx { ontology: omq.ontology, taxonomy: &taxonomy, arena: &arena, q };

        // Slices by BFS distance from the root.
        let root = self.root.or_else(|| q.answer_vars().first().copied()).unwrap_or(Var(0));
        let dist = g.bfs_distances(root);
        let max_dist = dist.iter().copied().max().unwrap_or(0) as usize;
        let slices: Vec<Vec<Var>> = (0..=max_dist)
            .map(|n| q.vars().filter(|v| dist[v.0 as usize] == n as u32).collect())
            .collect();

        // x^n: answer variables occurring in q_n (the atoms whose variables
        // all lie at distance ≥ n).
        let answer_in_qn = |n: usize| -> Vec<Var> {
            q.answer_vars()
                .iter()
                .copied()
                .filter(|&x| {
                    q.atoms().iter().any(|a| {
                        a.vars().any(|v| v == x)
                            && a.vars().all(|v| dist[v.0 as usize] as usize >= n)
                    })
                })
                .collect()
        };
        let xs: Vec<Vec<Var>> = (0..=max_dist).map(answer_in_qn).collect();

        let mut program = Program::new();
        // Per slice: the types that have a defined predicate, with their ids.
        let mut defined: Vec<FxHashMap<TypeMap, obda_ndl::program::PredId>> =
            vec![FxHashMap::default(); max_dist + 1];

        // Head arguments of G^w_n: the slice's existential variables then
        // the answer variables of q_n (parameters).
        let head_vars = |n: usize| -> Vec<Var> {
            let mut vars: Vec<Var> =
                slices[n].iter().copied().filter(|v| !q.is_answer_var(*v)).collect();
            vars.extend(xs[n].iter().copied());
            vars
        };

        // Bottom slice M: G^w_M(z^M_∃, x^M) ← At^w(z^M).
        for t in ctx.enumerate_types(&slices[max_dist], &TypeMap::empty()) {
            tick_rewrite(budget, &program)?;
            let heads = head_vars(max_dist);
            let pid = program.add_idb_with_params(
                format!("G{}_{}", max_dist, t.display(q, &arena, omq.ontology)),
                heads.len(),
                xs[max_dist].len(),
            );
            let clause = build_clause(&ctx, &mut program, pid, &heads, &t, None);
            charge_clause(budget, &program)?;
            program.add_clause(clause);
            defined[max_dist].insert(t, pid);
        }

        // Upper slices: G^w_n ← At^{w∪s}(z^n, z^{n+1}) ∧ G^s_{n+1}.
        for n in (0..max_dist).rev() {
            let candidates = ctx.enumerate_types(&slices[n], &TypeMap::empty());
            let child_types: Vec<(TypeMap, obda_ndl::program::PredId)> =
                defined[n + 1].iter().map(|(t, &p)| (t.clone(), p)).collect();
            for w in candidates {
                let mut pid = None;
                for (s, child_pid) in &child_types {
                    tick_rewrite(budget, &program)?;
                    let union = w.union(s);
                    let mut both: Vec<Var> = slices[n].clone();
                    both.extend(slices[n + 1].iter().copied());
                    if !ctx.compatible_on(&union, &both) {
                        continue;
                    }
                    let heads = head_vars(n);
                    let id = *pid.get_or_insert_with(|| {
                        program.add_idb_with_params(
                            format!("G{}_{}", n, w.display(q, &arena, omq.ontology)),
                            heads.len(),
                            xs[n].len(),
                        )
                    });
                    let child_heads = head_vars(n + 1);
                    let clause = build_clause(
                        &ctx,
                        &mut program,
                        id,
                        &heads,
                        &union,
                        Some((*child_pid, &child_heads)),
                    );
                    charge_clause(budget, &program)?;
                    program.add_clause(clause);
                }
                if let Some(id) = pid {
                    defined[n].insert(w, id);
                }
            }
        }

        // Goal: G(x) ← G^w_0(z⁰_∃, x) for every defined w.
        let goal = program.add_idb_with_params(
            "G".to_owned(),
            q.answer_vars().len(),
            q.answer_vars().len(),
        );
        let top_types: Vec<obda_ndl::program::PredId> = defined[0].values().copied().collect();
        for pid in top_types {
            charge_clause(budget, &program)?;
            let heads = head_vars(0);
            // Clause variables: answer vars ∪ slice-0 heads.
            let mut cvars: FxHashMap<Var, CVar> = FxHashMap::default();
            let mut next = 0u32;
            let cv = |v: Var, cvars: &mut FxHashMap<Var, CVar>, next: &mut u32| -> CVar {
                *cvars.entry(v).or_insert_with(|| {
                    let c = CVar(*next);
                    *next += 1;
                    c
                })
            };
            let head_args: Vec<CVar> =
                q.answer_vars().iter().map(|&v| cv(v, &mut cvars, &mut next)).collect();
            let child_args: Vec<CVar> =
                heads.iter().map(|&v| cv(v, &mut cvars, &mut next)).collect();
            program.add_clause(Clause {
                head: goal,
                head_args,
                body: vec![BodyAtom::Pred(pid, child_args)],
                num_vars: next,
            });
        }
        Ok(NdlQuery::new(program, goal))
    }
}

/// Builds one slice clause: head `pid(head_vars)`, body `At^t` plus the
/// optional child predicate atom, with a `⊤` fallback for otherwise-unbound
/// head variables.
fn build_clause(
    ctx: &TypeCtx<'_>,
    program: &mut Program,
    pid: obda_ndl::program::PredId,
    head_vars: &[Var],
    t: &TypeMap,
    child: Option<(obda_ndl::program::PredId, &[Var])>,
) -> Clause {
    let mut cvars: FxHashMap<Var, CVar> = FxHashMap::default();
    let mut next = 0u32;
    // Deterministic allocation: head vars first, then child vars, then the
    // type domain.
    let alloc = |v: Var, cvars: &mut FxHashMap<Var, CVar>, next: &mut u32| -> CVar {
        *cvars.entry(v).or_insert_with(|| {
            let c = CVar(*next);
            *next += 1;
            c
        })
    };
    for &v in head_vars {
        alloc(v, &mut cvars, &mut next);
    }
    if let Some((_, child_vars)) = child {
        for &v in child_vars {
            alloc(v, &mut cvars, &mut next);
        }
    }
    for v in t.domain() {
        alloc(v, &mut cvars, &mut next);
    }
    let lookup = cvars.clone();
    let mut body = ctx.type_atoms(program, t, &|v| lookup[&v]);
    if let Some((child_pid, child_vars)) = child {
        let args: Vec<CVar> = child_vars.iter().map(|&v| lookup[&v]).collect();
        body.push(BodyAtom::Pred(child_pid, args));
    }
    // ⊤ fallback for head variables not occurring in the body.
    let bound: Vec<CVar> = body.iter().flat_map(|a| a.vars()).collect();
    let top = program.edb_top();
    let head_args: Vec<CVar> = head_vars.iter().map(|&v| lookup[&v]).collect();
    for &c in &head_args {
        if !bound.contains(&c) {
            body.push(BodyAtom::Pred(top, vec![c]));
        }
    }
    if body.is_empty() {
        // Degenerate slice (no constraints): true over nonempty domains.
        body.push(BodyAtom::Pred(top, vec![CVar(next)]));
        next += 1;
    }
    Clause { head: pid, head_args, body, num_vars: next }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omq::rewrite_arbitrary;
    use obda_chase::certain_answers;
    use obda_cq::parse_cq;
    use obda_ndl::analysis::{is_linear, width};
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
    fn produces_linear_program() {
        let o = example_11_ontology();
        let q = parse_cq("q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let rw = LinRewriter::default().rewrite_complete(&omq).unwrap();
        assert!(is_linear(&rw.program));
        // Width ≤ 2ℓ = 4 for a linear query.
        assert!(width(&rw.program) <= 4, "width {}", width(&rw.program));
    }

    #[test]
    fn matches_oracle_on_example_8() {
        let o = example_11_ontology();
        let q = parse_cq(
            "q(x0, x7) :- R(x0, x1), S(x1, x2), R(x2, x3), R(x3, x4), S(x4, x5), R(x5, x6), R(x6, x7)",
            &o,
        )
        .unwrap();
        let omq = Omq::new(&o, &q);
        let tx = o.taxonomy();
        let rw = rewrite_arbitrary(&LinRewriter::default(), &omq, &tx).unwrap();
        assert!(is_linear(&rw.program), "Lemma 3 preserves linearity");
        let d = parse_data("P(w1, a)\nR(a, b)\nP(w2, b)\nR(b, c)\nR(c, e)\nR(e, f)\nS(f, g)\n", &o)
            .unwrap();
        let res = evaluate(&rw, &Database::new(&d)).unwrap();
        let oracle = certain_answers(&o, &q, &d);
        assert_eq!(res.answers, oracle.tuples());
        assert!(!res.answers.is_empty());
    }

    #[test]
    fn boolean_tree_query() {
        let o = parse_ontology(
            "A SubClassOf exists P\n\
             exists P- SubClassOf B\n",
        )
        .unwrap();
        let q = parse_cq("q() :- P(x, y), B(y)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let tx = o.taxonomy();
        let rw = rewrite_arbitrary(&LinRewriter::default(), &omq, &tx).unwrap();
        let d = parse_data("A(a)\n", &o).unwrap();
        let res = evaluate(&rw, &Database::new(&d)).unwrap();
        assert_eq!(res.answers.len(), 1, "Boolean true = the empty tuple");
        let d2 = parse_data("B(a)\n", &o).unwrap();
        let res2 = evaluate(&rw, &Database::new(&d2)).unwrap();
        assert!(res2.answers.is_empty());
    }

    #[test]
    fn star_query_with_three_leaves() {
        let o = parse_ontology(
            "A SubClassOf exists P\n\
             exists P- SubClassOf B\n\
             Class C\n",
        )
        .unwrap();
        let q = parse_cq("q(c) :- P(c, l1), P(c, l2), B(l1), C(l2)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let tx = o.taxonomy();
        let rw = rewrite_arbitrary(&LinRewriter::default(), &omq, &tx).unwrap();
        // u: anonymous witness covers l1 but not l2 (C is not implied).
        let d = parse_data("A(u)\nP(u, v)\nC(v)\nA(w)\n", &o).unwrap();
        let res = evaluate(&rw, &Database::new(&d)).unwrap();
        let oracle = certain_answers(&o, &q, &d);
        assert_eq!(res.answers, oracle.tuples());
        assert_eq!(res.answers.len(), 1);
    }

    #[test]
    fn rejects_cyclic_query() {
        let o = example_11_ontology();
        let q = parse_cq("q() :- R(x, y), R(y, z), R(z, x)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        assert_eq!(
            LinRewriter::default().rewrite_complete(&omq).unwrap_err(),
            RewriteError::NotTreeShaped
        );
    }

    #[test]
    fn rejects_infinite_depth() {
        let o = parse_ontology(
            "A SubClassOf exists P\n\
             exists P- SubClassOf exists P\n",
        )
        .unwrap();
        let q = parse_cq("q(x) :- P(x, y)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        assert_eq!(
            LinRewriter::default().rewrite_complete(&omq).unwrap_err(),
            RewriteError::InfiniteDepth
        );
    }
}
