//! The `Log` rewriting (Section 3.2, Theorem 9): skinny-reducible
//! NDL-rewritings of OMQs from `OMQ(d, t, ∞)` — ontologies of finite depth
//! `d` with CQs of treewidth `t` — evaluable in LOGCFL.
//!
//! A tree decomposition of the CQ is split recursively via Lemma 10 into
//! the family `𝔇` of subtrees; a predicate `G^w_D(∂D, x_D)` per subtree `D`
//! and boundary type `w` asserts that the sub-CQ `q_D` matches with the
//! boundary variables placed as `w` prescribes. Each clause instantiates a
//! type `s` over the splitting bag `λ(σ(D))` and recurses into the subtrees
//! `D′ ≺ D`.

use crate::omq::{charge_clause, Omq, RewriteError, Rewriter};
use crate::types::{TypeCtx, TypeMap};
use obda_budget::Budget;
use obda_cq::gaifman::Gaifman;
use obda_cq::query::Var;
use obda_cq::split::{boundary, split_decomposition, SplitNode};
use obda_cq::treedec::TreeDecomposition;
use obda_ndl::program::{BodyAtom, CVar, Clause, NdlQuery, PredId, Program};
use obda_owlql::util::FxHashMap;
use obda_owlql::words::{ontology_depth, WordArena};

/// The `Log` rewriter. Requires a finite-depth ontology; works for CQs of
/// any shape (the achieved width depends on the query's treewidth).
#[derive(Debug, Clone, Copy)]
pub struct LogRewriter {
    /// Use the natural width-1 decomposition for tree-shaped queries
    /// (default); otherwise always run the min-fill heuristic.
    pub natural_tree_decomposition: bool,
}

impl Default for LogRewriter {
    fn default() -> Self {
        LogRewriter { natural_tree_decomposition: true }
    }
}

/// Precomputed facts about one subtree `D ∈ 𝔇`.
struct NodeInfo {
    /// The boundary variables `∂D`, sorted.
    boundary_vars: Vec<Var>,
    /// The answer variables `x_D` of `q_D`, sorted.
    answer_vars: Vec<Var>,
    /// Indices of child `SplitNode`s in the flattened pre-order numbering.
    children: Vec<usize>,
    /// The splitting bag `λ(σ(D))`, sorted.
    bag: Vec<Var>,
}

struct Builder<'a> {
    ctx: &'a TypeCtx<'a>,
    info: Vec<NodeInfo>,
    program: Program,
    memo: FxHashMap<(usize, TypeMap), Option<PredId>>,
    arena_display: &'a WordArena,
    budget: &'a mut Budget,
}

impl Rewriter for LogRewriter {
    fn name(&self) -> &'static str {
        "Log"
    }

    fn rewrite_budgeted(
        &self,
        omq: &Omq<'_>,
        budget: &mut Budget,
    ) -> Result<NdlQuery, RewriteError> {
        let q = omq.query;
        let taxonomy = omq
            .ontology
            .taxonomy_budgeted(budget)
            .map_err(|e| RewriteError::from_budget(e, 0, 0))?;
        let Some(depth) = ontology_depth(&taxonomy) else {
            return Err(RewriteError::InfiniteDepth);
        };
        let arena = WordArena::new_budgeted(&taxonomy, depth, budget)
            .map_err(|e| RewriteError::from_budget(e, 0, 0))?;
        let ctx = TypeCtx::new(omq.ontology, &taxonomy, &arena, q);

        let g = Gaifman::new(q);
        let td = if self.natural_tree_decomposition && g.is_tree() {
            TreeDecomposition::for_tree(q)
        } else {
            TreeDecomposition::min_fill(q)
        };
        let split = split_decomposition(td.num_nodes(), td.tree_adj());

        // Flatten the split tree in pre-order and precompute per-node facts.
        let flattened: Vec<&SplitNode> = split.iter();
        // Every node handed to `index_of` comes from `flattened` itself.
        #[allow(clippy::expect_used)]
        let index_of = |node: &SplitNode| -> usize {
            flattened.iter().position(|&n| std::ptr::eq(n, node)).expect("node from the same tree")
        };
        let mut info = Vec::with_capacity(flattened.len());
        for node in &flattened {
            // ∂D: bag-intersections with outside neighbours of boundary
            // tree-nodes.
            let mut in_d = vec![false; td.num_nodes()];
            for &t in &node.nodes {
                in_d[t] = true;
            }
            let mut bvars: Vec<Var> = Vec::new();
            for &t in boundary(td.tree_adj(), &in_d, &node.nodes).iter() {
                for &t2 in &td.tree_adj()[t] {
                    if !in_d[t2] {
                        for v in td.bag(t) {
                            if td.bag(t2).contains(v) {
                                bvars.push(*v);
                            }
                        }
                    }
                }
            }
            bvars.sort();
            bvars.dedup();
            // q_D and x_D: atoms inside bags of σ-nodes of the subtree.
            let mut qd_vars: Vec<Var> = Vec::new();
            for sub in node.iter() {
                let bag = td.bag(sub.sigma);
                for &atom in q.atoms() {
                    if atom.vars().all(|v| bag.contains(&v)) {
                        qd_vars.extend(atom.vars());
                    }
                }
            }
            qd_vars.sort();
            qd_vars.dedup();
            let answer_vars: Vec<Var> =
                qd_vars.iter().copied().filter(|&v| q.is_answer_var(v)).collect();
            let children: Vec<usize> = node.children.iter().map(&index_of).collect();
            let mut bag: Vec<Var> = td.bag(node.sigma).to_vec();
            bag.sort();
            info.push(NodeInfo { boundary_vars: bvars, answer_vars, children, bag });
        }

        let mut builder = Builder {
            ctx: &ctx,
            info,
            program: Program::new(),
            memo: FxHashMap::default(),
            arena_display: &arena,
            budget,
        };

        // The root subtree is T itself with ∂T = ∅ and x_T = x; its
        // predicate is the goal.
        let root_pid = builder.generate(0, &TypeMap::empty(), omq)?;
        let goal = match root_pid {
            Some(p) => p,
            None => {
                // No derivation is possible at all: an empty goal predicate.
                builder.program.add_idb_with_params(
                    "G_unsat".to_owned(),
                    q.answer_vars().len(),
                    q.answer_vars().len(),
                )
            }
        };
        Ok(NdlQuery::new(builder.program, goal))
    }
}

impl Builder<'_> {
    /// Head variables of `G^w_D`: `∂D` then `x_D` (possibly overlapping).
    fn head_vars(&self, node: usize) -> Vec<Var> {
        let mut vars = self.info[node].boundary_vars.clone();
        vars.extend(self.info[node].answer_vars.iter().copied());
        vars
    }

    /// Generates (memoised) the predicate `G^w_D`, returning `Ok(None)`
    /// when no clause can define it and an error when the budget trips.
    fn generate(
        &mut self,
        node: usize,
        w: &TypeMap,
        omq: &Omq<'_>,
    ) -> Result<Option<PredId>, RewriteError> {
        if let Some(&cached) = self.memo.get(&(node, w.clone())) {
            return Ok(cached);
        }
        // Break potential reentrancy (there is none — the recursion follows
        // the finite split tree — but the memo entry also dedups names).
        self.memo.insert((node, w.clone()), None);

        let bag = self.info[node].bag.clone();
        let children = self.info[node].children.clone();
        let q = omq.query;
        let ctx = self.ctx;
        let mut types = ctx.types(&bag, w);
        let mut pid: Option<PredId> = None;
        while let Some(s) = types.next(self.budget, &self.program)? {
            let union = s.union(&w.restrict_outside(&bag));
            // Resolve children first.
            let mut child_atoms: Vec<(PredId, Vec<Var>)> = Vec::new();
            let mut ok = true;
            for &c in &children {
                let cw = union.restrict(&self.info[c].boundary_vars);
                match self.generate(c, &cw, omq)? {
                    Some(cp) => child_atoms.push((cp, self.head_vars(c))),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let heads = self.head_vars(node);
            let id = *pid.get_or_insert_with(|| {
                self.program.add_idb_with_params(
                    format!("L{}_{}", node, w.display(q, self.arena_display, omq.ontology)),
                    heads.len(),
                    self.info[node].answer_vars.len(),
                )
            });
            let clause = self.build_clause(id, &heads, &s, &child_atoms, omq);
            charge_clause(self.budget, &self.program)?;
            self.program.add_clause(clause);
        }
        self.memo.insert((node, w.clone()), pid);
        Ok(pid)
    }

    fn build_clause(
        &mut self,
        pid: PredId,
        head_vars: &[Var],
        s: &TypeMap,
        children: &[(PredId, Vec<Var>)],
        _omq: &Omq<'_>,
    ) -> Clause {
        let mut cvars: FxHashMap<Var, CVar> = FxHashMap::default();
        let mut next = 0u32;
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
        for (_, vars) in children {
            for &v in vars {
                alloc(v, &mut cvars, &mut next);
            }
        }
        for v in s.domain() {
            alloc(v, &mut cvars, &mut next);
        }
        let lookup = cvars.clone();
        let mut body = self.ctx.type_atoms(&mut self.program, s, &|v| lookup[&v]);
        for (cp, vars) in children {
            let args: Vec<CVar> = vars.iter().map(|&v| lookup[&v]).collect();
            body.push(BodyAtom::Pred(*cp, args));
        }
        let bound: Vec<CVar> = body.iter().flat_map(|a| a.vars()).collect();
        let top = self.program.edb_top();
        let head_args: Vec<CVar> = head_vars.iter().map(|&v| lookup[&v]).collect();
        for &c in &head_args {
            if !bound.contains(&c) {
                body.push(BodyAtom::Pred(top, vec![c]));
            }
        }
        if body.is_empty() {
            body.push(BodyAtom::Pred(top, vec![CVar(next)]));
            next += 1;
        }
        Clause { head: pid, head_args, body, num_vars: next }
    }
}

/// `TypeMap` helper used only here: the part of `w` outside `vars`.
trait RestrictOutside {
    fn restrict_outside(&self, vars: &[Var]) -> TypeMap;
}

impl RestrictOutside for TypeMap {
    fn restrict_outside(&self, vars: &[Var]) -> TypeMap {
        let outside: Vec<Var> = self.domain().filter(|v| !vars.contains(v)).collect();
        self.restrict(&outside)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omq::rewrite_arbitrary;
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
    fn matches_oracle_on_example_8() {
        let o = example_11_ontology();
        let q = parse_cq(
            "q(x0, x7) :- R(x0, x1), S(x1, x2), R(x2, x3), R(x3, x4), S(x4, x5), R(x5, x6), R(x6, x7)",
            &o,
        )
        .unwrap();
        let omq = Omq::new(&o, &q);
        let tx = o.taxonomy();
        let rw = rewrite_arbitrary(&LogRewriter::default(), &omq, &tx).unwrap();
        let d = parse_data("P(w1, a)\nR(a, b)\nP(w2, b)\nR(b, c)\nR(c, e)\nR(e, f)\nS(f, g)\n", &o)
            .unwrap();
        let res = evaluate(&rw, &Database::new(&d)).unwrap();
        let oracle = certain_answers(&o, &q, &d);
        assert_eq!(res.answers, oracle.tuples());
    }

    #[test]
    fn handles_cyclic_queries() {
        // Treewidth-2 query: a 4-cycle.
        let o = parse_ontology(
            "A SubClassOf exists P\n\
             P SubPropertyOf R\n",
        )
        .unwrap();
        let q = parse_cq("q(x) :- R(x, y), R(y, z), R(z, w), R(w, x)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let tx = o.taxonomy();
        let rw = rewrite_arbitrary(&LogRewriter::default(), &omq, &tx).unwrap();
        let d = parse_data("R(a, b)\nR(b, c)\nR(c, d)\nR(d, a)\nR(e, e)\n", &o).unwrap();
        let res = evaluate(&rw, &Database::new(&d)).unwrap();
        let oracle = certain_answers(&o, &q, &d);
        assert_eq!(res.answers, oracle.tuples());
        assert_eq!(res.answers.len(), 5); // a, b, c, d around the cycle + e
    }

    #[test]
    fn boolean_query_folding_into_tree() {
        let o = parse_ontology(
            "A SubClassOf exists P\n\
             exists P- SubClassOf exists S\n\
             exists S- SubClassOf B\n",
        )
        .unwrap();
        let q = parse_cq("q() :- P(x, y), S(y, z), B(z)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let tx = o.taxonomy();
        let rw = rewrite_arbitrary(&LogRewriter::default(), &omq, &tx).unwrap();
        let d = parse_data("A(a)\n", &o).unwrap();
        let res = evaluate(&rw, &Database::new(&d)).unwrap();
        assert_eq!(res.answers.len(), 1);
        let d2 = parse_data("B(b)\n", &o).unwrap();
        let res2 = evaluate(&rw, &Database::new(&d2)).unwrap();
        assert!(res2.answers.is_empty());
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
            LogRewriter::default().rewrite_complete(&omq).unwrap_err(),
            RewriteError::InfiniteDepth
        );
    }
}
