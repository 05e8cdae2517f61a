//! Goal-directed relevance pruning of NDL queries (magic-set lite).
//!
//! The bottom-up engine of [`crate::eval`] materialises every
//! goal-reachable IDB predicate in full — faithful to how the paper runs
//! rewritings on RDFox, but wasteful as a production engine: the
//! structure-sharing rewritings (Lin/Log/Tw/Presto-like) introduce many
//! *definitional* predicates that are mere renamings of other relations
//! or are consumed exactly once. This module rewrites an [`NdlQuery`]
//! into an answer-equivalent one that materialises strictly fewer
//! tuples, in the goal-directed spirit of Presto's nonrecursive
//! rewritings (Rosati & Almatelli):
//!
//! 1. **Reachability** — drop clauses whose head the goal cannot reach.
//! 2. **Alias elimination** — a predicate defined by the single clause
//!    `P(x̄) ← Q(ȳ)` with `x̄` distinct and `vars(ȳ) ⊆ x̄` is a renaming
//!    of `Q`; calls to `P` are rewritten to call `Q` directly.
//! 3. **Used-once unfolding** — a predicate with one defining clause,
//!    consumed by exactly one body atom, whose definition introduces no
//!    existential variables, is inlined at its call site. (The
//!    existential guard keeps projections materialised: unfolding them
//!    would trade a small deduplicated relation for a larger join.)
//! 4. **Head merging** — a copy clause `H(x̄) ← P(ȳ)` with `ȳ` distinct
//!    where `P` is consumed only here retargets `P`'s defining clauses
//!    to derive `H` directly, skipping the intermediate relation.
//! 5. **Dead-column projection** — argument positions of an IDB
//!    predicate whose bindings are never consumed (not joined, not
//!    equated, not answered at a live head position) are dropped,
//!    shrinking the materialised relation to its live columns.
//!
//! All passes preserve the certain answers exactly (the differential
//! suite in `tests/props.rs` checks this against the unpruned engines
//! and the chase oracle); only `generated_tuples` — the paper's Tables
//! 3–5 metric — shrinks.

use crate::program::{BodyAtom, CVar, Clause, NdlQuery, PredId, PredInfo, PredKind, Program};

/// What the pruning passes did, for logs and `BENCH_eval.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Clauses in the input program.
    pub clauses_before: usize,
    /// Clauses in the pruned program.
    pub clauses_after: usize,
    /// Goal-reachable IDB predicates before pruning (what the baseline
    /// engine would materialise).
    pub preds_before: usize,
    /// Goal-reachable IDB predicates after pruning.
    pub preds_after: usize,
    /// Renaming predicates eliminated (pass 2).
    pub aliases_inlined: usize,
    /// Used-once predicates unfolded into their call site (pass 3).
    pub unfolded: usize,
    /// Copy clauses collapsed by retargeting heads (pass 4).
    pub heads_merged: usize,
    /// Dead argument positions projected away (pass 5).
    pub dead_columns: usize,
}

/// An answer-equivalent, relevance-pruned query plus the bookkeeping to
/// map its statistics back onto the original program.
#[derive(Debug, Clone)]
pub struct PrunedQuery {
    /// The pruned query. Predicate ids of the original program are
    /// preserved (pruned-away predicates simply lose their clauses);
    /// dead-column projection may append fresh predicates at the end.
    pub query: NdlQuery,
    /// For every predicate of the pruned program, the predicate of the
    /// *original* program its tuples account to. Identity for surviving
    /// predicates; projections map to the predicate they project.
    pub origin: Vec<PredId>,
    /// Pass-by-pass summary.
    pub stats: PruneStats,
}

/// Working state shared by the passes: a mutable copy of the program's
/// predicate table and clause list.
struct Pruner {
    preds: Vec<PredInfo>,
    clauses: Vec<Clause>,
    goal: PredId,
    origin: Vec<PredId>,
    stats: PruneStats,
}

/// Runs the pruning pipeline on `query` until a fixpoint.
pub fn prune_for_goal(query: &NdlQuery) -> PrunedQuery {
    let program = &query.program;
    let mut pruner = Pruner {
        preds: program.pred_ids().map(|p| program.pred(p).clone()).collect(),
        clauses: program.clauses().to_vec(),
        goal: query.goal,
        origin: program.pred_ids().collect(),
        stats: PruneStats {
            clauses_before: program.num_clauses(),
            preds_before: 0, // filled below
            ..PruneStats::default()
        },
    };
    pruner.stats.preds_before = pruner.reachable_idb_count();
    // Each pass strictly shrinks the program (clauses, predicate uses or
    // live columns), so the fixpoint terminates; the bound is a
    // belt-and-braces guard against a pass miscounting "changed".
    for _ in 0..64 {
        let mut changed = pruner.drop_unreachable();
        changed |= pruner.eliminate_aliases();
        changed |= pruner.unfold_used_once();
        changed |= pruner.merge_heads();
        changed |= pruner.project_dead_columns();
        if !changed {
            break;
        }
    }
    pruner.drop_unreachable();
    pruner.stats.clauses_after = pruner.clauses.len();
    pruner.stats.preds_after = pruner.reachable_idb_count();
    pruner.into_pruned()
}

impl Pruner {
    fn is_idb(&self, p: PredId) -> bool {
        matches!(self.preds[p.0 as usize].kind, PredKind::Idb)
    }

    /// A predicate the passes may touch: IDB, not the goal, and not an
    /// ordered-NDL predicate with trailing parameters (those keep the
    /// bound pattern of an ordered program as written).
    fn prunable(&self, p: PredId) -> bool {
        p != self.goal && self.is_idb(p) && self.preds[p.0 as usize].num_params == 0
    }

    /// Number of body atoms over each predicate.
    fn use_counts(&self) -> Vec<usize> {
        let mut uses = vec![0usize; self.preds.len()];
        for c in &self.clauses {
            for a in &c.body {
                if let BodyAtom::Pred(p, _) = a {
                    uses[p.0 as usize] += 1;
                }
            }
        }
        uses
    }

    fn reachable(&self) -> Vec<bool> {
        let mut reachable = vec![false; self.preds.len()];
        reachable[self.goal.0 as usize] = true;
        let mut stack = vec![self.goal];
        while let Some(p) = stack.pop() {
            for c in self.clauses.iter().filter(|c| c.head == p) {
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
        reachable
    }

    fn reachable_idb_count(&self) -> usize {
        let reachable = self.reachable();
        (0..self.preds.len())
            .filter(|&i| reachable[i] && matches!(self.preds[i].kind, PredKind::Idb))
            .count()
    }

    /// Pass 1: drops clauses whose head the goal cannot reach.
    fn drop_unreachable(&mut self) -> bool {
        let reachable = self.reachable();
        let before = self.clauses.len();
        self.clauses.retain(|c| reachable[c.head.0 as usize]);
        self.clauses.len() != before
    }

    /// Pass 2: eliminates renaming predicates. `P(x̄) ← Q(ȳ)` with `P`
    /// defined by this single clause, `x̄` distinct and `vars(ȳ) ⊆ x̄`
    /// makes `P` a (possibly permuted, possibly diagonal) renaming of
    /// `Q`: every call `P(t̄)` is replaced by `Q(ȳ[x̄ ↦ t̄])` and the
    /// defining clause is dropped, saving `|P|` materialised tuples.
    fn eliminate_aliases(&mut self) -> bool {
        let mut changed = false;
        loop {
            let Some((def_idx, callee, pos_map)) = self.find_alias() else {
                return changed;
            };
            let alias = self.clauses[def_idx].head;
            let callee_args_of =
                |call: &[CVar]| -> Vec<CVar> { pos_map.iter().map(|&j| call[j]).collect() };
            for c in &mut self.clauses {
                for a in &mut c.body {
                    if let BodyAtom::Pred(p, args) = a {
                        if *p == alias {
                            let new_args = callee_args_of(args);
                            *p = callee;
                            *args = new_args;
                        }
                    }
                }
            }
            self.clauses.remove(def_idx);
            self.stats.aliases_inlined += 1;
            changed = true;
        }
    }

    /// Finds a renaming definition: returns the defining clause index,
    /// the callee, and for each callee position the head position whose
    /// variable fills it.
    fn find_alias(&self) -> Option<(usize, PredId, Vec<usize>)> {
        for (i, c) in self.clauses.iter().enumerate() {
            if !self.prunable(c.head)
                || self.clauses.iter().filter(|d| d.head == c.head).count() != 1
            {
                continue;
            }
            let [BodyAtom::Pred(q, args)] = c.body.as_slice() else { continue };
            if *q == c.head || !distinct(&c.head_args) {
                continue;
            }
            let pos_map: Option<Vec<usize>> =
                args.iter().map(|v| c.head_args.iter().position(|h| h == v)).collect();
            if let Some(pos_map) = pos_map {
                return Some((i, *q, pos_map));
            }
        }
        None
    }

    /// Pass 3: unfolds a predicate with exactly one defining clause and
    /// exactly one call site into that call site, provided the
    /// definition has no existential variables (`vars(body) ⊆ head
    /// vars`) — otherwise materialising the deduplicated projection is
    /// the cheaper plan — and a distinct-variable head.
    fn unfold_used_once(&mut self) -> bool {
        let mut changed = false;
        'outer: loop {
            let uses = self.use_counts();
            for def_idx in 0..self.clauses.len() {
                let def = &self.clauses[def_idx];
                let p = def.head;
                if !self.prunable(p)
                    || uses[p.0 as usize] != 1
                    || self.clauses.iter().filter(|d| d.head == p).count() != 1
                    || !distinct(&def.head_args)
                {
                    continue;
                }
                let head_vars = &def.head_args;
                let no_existentials =
                    def.body.iter().all(|a| a.vars().iter().all(|v| head_vars.contains(v)));
                if !no_existentials {
                    continue;
                }
                let Some((call_idx, atom_idx)) = self.find_call_site(p, def_idx) else { continue };
                let def = self.clauses[def_idx].clone();
                let call = &mut self.clauses[call_idx];
                let BodyAtom::Pred(_, call_args) = call.body.remove(atom_idx) else {
                    unreachable!("find_call_site returns a Pred atom")
                };
                let image = |v: CVar| -> CVar {
                    // Invariant: the `no_existentials` guard above admits
                    // only definitions whose body variables all occur in
                    // the head, so the position always exists.
                    #[allow(clippy::expect_used)]
                    let k = def
                        .head_args
                        .iter()
                        .position(|&h| h == v)
                        .expect("no_existentials puts every body variable in the head");
                    call_args[k]
                };
                for a in &def.body {
                    call.body.push(match a {
                        BodyAtom::Pred(q, args) => {
                            BodyAtom::Pred(*q, args.iter().map(|&v| image(v)).collect())
                        }
                        BodyAtom::Eq(a, b) => BodyAtom::Eq(image(*a), image(*b)),
                        BodyAtom::EqConst(a, c) => BodyAtom::EqConst(image(*a), *c),
                    });
                }
                self.clauses.remove(def_idx);
                self.stats.unfolded += 1;
                changed = true;
                continue 'outer;
            }
            return changed;
        }
    }

    /// The unique clause and body-atom index calling `p`, excluding the
    /// defining clause itself (which cannot call `p`: the program is
    /// nonrecursive).
    fn find_call_site(&self, p: PredId, def_idx: usize) -> Option<(usize, usize)> {
        for (ci, c) in self.clauses.iter().enumerate() {
            if ci == def_idx {
                continue;
            }
            for (ai, a) in c.body.iter().enumerate() {
                if matches!(a, BodyAtom::Pred(q, _) if *q == p) {
                    return Some((ci, ai));
                }
            }
        }
        None
    }

    /// Pass 4: collapses copy clauses. For `H(x̄) ← P(ȳ)` with `ȳ`
    /// distinct and `P` consumed by no other atom, `P`'s defining
    /// clauses are retargeted to derive `H` directly (projecting /
    /// permuting their heads through the copy), and both the copy
    /// clause and `P` disappear. This is the caller-side dual of
    /// pass 3 and handles multi-clause `P` (e.g. the `G ← G~k` goal
    /// clauses of the tree-witness UCQ rewriting).
    fn merge_heads(&mut self) -> bool {
        let mut changed = false;
        'outer: loop {
            let uses = self.use_counts();
            for copy_idx in 0..self.clauses.len() {
                let copy = &self.clauses[copy_idx];
                let [BodyAtom::Pred(p, args)] = copy.body.as_slice() else { continue };
                let (p, args) = (*p, args.clone());
                if !self.prunable(p)
                    || p == copy.head
                    || uses[p.0 as usize] != 1
                    || !distinct(&args)
                {
                    continue;
                }
                // For each head position of the copy, the position of
                // `P` that supplies its value.
                let pos_map: Option<Vec<usize>> = self.clauses[copy_idx]
                    .head_args
                    .iter()
                    .map(|h| args.iter().position(|a| a == h))
                    .collect();
                let Some(pos_map) = pos_map else { continue };
                let new_head = self.clauses[copy_idx].head;
                let retargeted: Vec<Clause> = self
                    .clauses
                    .iter()
                    .filter(|d| d.head == p)
                    .map(|d| Clause {
                        head: new_head,
                        head_args: pos_map.iter().map(|&i| d.head_args[i]).collect(),
                        body: d.body.clone(),
                        num_vars: d.num_vars,
                    })
                    .collect();
                self.stats.heads_merged += 1;
                self.clauses.remove(copy_idx);
                self.clauses.retain(|d| d.head != p);
                self.clauses.extend(retargeted);
                changed = true;
                continue 'outer;
            }
            return changed;
        }
    }

    /// Pass 5: projects away dead argument positions. Position `k` of
    /// an IDB predicate `P` is *live* iff some call `P(ȳ)` consumes
    /// `ȳₖ`: the variable is repeated inside the atom, occurs in
    /// another body atom or equality of the same clause, or reaches a
    /// live head position. Liveness is a least fixpoint seeded by the
    /// goal (whose columns are the answer). Dead columns are dropped by
    /// introducing a fresh narrower predicate, shrinking both the
    /// materialised relation and the dedup work.
    fn project_dead_columns(&mut self) -> bool {
        let num = self.preds.len();
        let mut live: Vec<Vec<bool>> = (0..num)
            .map(|i| {
                let p = &self.preds[i];
                let all = PredId(i as u32) == self.goal
                    || !self.prunable(PredId(i as u32))
                    || p.arity == 0;
                vec![all; p.arity]
            })
            .collect();
        loop {
            let mut grew = false;
            for c in &self.clauses {
                for (ai, a) in c.body.iter().enumerate() {
                    let BodyAtom::Pred(p, args) = a else { continue };
                    for (k, v) in args.iter().enumerate() {
                        if live[p.0 as usize][k] {
                            continue;
                        }
                        let consumed = args.iter().enumerate().any(|(k2, v2)| k2 != k && v2 == v)
                            || c.body
                                .iter()
                                .enumerate()
                                .any(|(aj, other)| aj != ai && other.vars().contains(v))
                            || c.head_args
                                .iter()
                                .enumerate()
                                .any(|(j, h)| h == v && live[c.head.0 as usize][j]);
                        if consumed {
                            live[p.0 as usize][k] = true;
                            grew = true;
                        }
                    }
                }
            }
            if grew {
                continue;
            }
            // A predicate whose columns are all dead still carries a
            // boolean fact; keep one column so the relation has rows. What
            // feeds that column is consumed too, so the fixpoint goes on:
            // projecting its source away would leave the head variable
            // unbound.
            for lv in &mut live {
                if !lv.is_empty() && lv.iter().all(|&b| !b) {
                    lv[0] = true;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        let mut proj: Vec<Option<(PredId, Vec<usize>)>> = vec![None; num];
        let reachable = self.reachable();
        for i in 0..num {
            let p = PredId(i as u32);
            if !reachable[i] || live[i].iter().all(|&b| b) || !self.prunable(p) {
                continue;
            }
            let keep: Vec<usize> = (0..live[i].len()).filter(|&k| live[i][k]).collect();
            let id = PredId(self.preds.len() as u32);
            self.preds.push(PredInfo {
                name: format!("{}\u{2193}", self.preds[i].name),
                arity: keep.len(),
                kind: PredKind::Idb,
                num_params: 0,
                // A projected completion is still query-independent; its
                // narrower head gives it its own memo key.
                completion: self.preds[i].completion,
            });
            self.origin.push(self.origin[i]);
            self.stats.dead_columns += live[i].len() - keep.len();
            proj[i] = Some((id, keep));
        }
        if proj.iter().all(|p| p.is_none()) {
            return false;
        }
        for c in &mut self.clauses {
            if let Some((id, keep)) = &proj[c.head.0 as usize] {
                c.head = *id;
                c.head_args = keep.iter().map(|&k| c.head_args[k]).collect();
            }
            for a in &mut c.body {
                if let BodyAtom::Pred(p, args) = a {
                    if let Some((id, keep)) = &proj[p.0 as usize] {
                        *p = *id;
                        *args = keep.iter().map(|&k| args[k]).collect();
                    }
                }
            }
        }
        true
    }

    /// Rebuilds a [`Program`] (re-running clause validation as a sanity
    /// gate) and packages the result.
    fn into_pruned(self) -> PrunedQuery {
        let mut program = Program::new();
        for info in &self.preds {
            let id = match info.kind {
                PredKind::Idb if info.num_params > 0 => {
                    program.add_idb_with_params(info.name.clone(), info.arity, info.num_params)
                }
                kind => program.add_pred(info.name.clone(), info.arity, kind),
            };
            if info.completion {
                program.mark_completion(id);
            }
        }
        for clause in self.clauses {
            program.add_clause(clause);
        }
        PrunedQuery {
            query: NdlQuery::new(program, self.goal),
            origin: self.origin,
            stats: self.stats,
        }
    }
}

fn distinct(vars: &[CVar]) -> bool {
    vars.iter().enumerate().all(|(i, v)| !vars[..i].contains(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::storage::Database;
    use obda_owlql::parser::{parse_data, parse_ontology};
    use obda_owlql::Ontology;

    fn setup() -> (Ontology, obda_owlql::abox::DataInstance) {
        let o = parse_ontology("Class A\nClass B\nProperty R\nProperty S\n").unwrap();
        let d = parse_data("R(a, b)\nR(b, c)\nR(c, a)\nS(c, d)\nS(a, b)\nA(b)\nA(c)\nB(d)\n", &o)
            .unwrap();
        (o, d)
    }

    /// Pruning must preserve answers while never generating more tuples.
    fn check_equivalent(query: &NdlQuery, data: &obda_owlql::abox::DataInstance) -> PrunedQuery {
        let pruned = prune_for_goal(query);
        let base = evaluate(query, &Database::new(data)).unwrap();
        let opt = evaluate(&pruned.query, &Database::new(data)).unwrap();
        assert_eq!(base.answers, opt.answers, "pruning changed the answers");
        assert!(
            opt.stats.generated_tuples <= base.stats.generated_tuples,
            "pruning increased materialisation: {} > {}",
            opt.stats.generated_tuples,
            base.stats.generated_tuples
        );
        pruned
    }

    #[test]
    fn alias_chain_collapses_to_the_edb() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let t1 = p.add_pred("T1", 2, PredKind::Idb);
        let t2 = p.add_pred("T2", 2, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // T1 renames R, T2 renames T1 with swapped columns, G consumes T2.
        p.add_clause(Clause {
            head: t1,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        p.add_clause(Clause {
            head: t2,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(t1, vec![CVar(1), CVar(0)])],
            num_vars: 2,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(t2, vec![CVar(0), CVar(0)])],
            num_vars: 1,
        });
        let query = NdlQuery::new(p, g);
        let pruned = check_equivalent(&query, &d);
        assert_eq!(pruned.stats.aliases_inlined, 2);
        // Only the goal itself is materialised now.
        let body = &pruned.query.program.clauses()[0].body;
        assert!(matches!(body.as_slice(), [BodyAtom::Pred(q, _)] if *q == r));
    }

    #[test]
    fn diagonal_alias_preserves_repeated_columns() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let t = p.add_pred("T", 1, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // T(x) ← R(x, x) is a diagonal selection, still a renaming.
        p.add_clause(Clause {
            head: t,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(0)])],
            num_vars: 1,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(t, vec![CVar(0)])],
            num_vars: 1,
        });
        let query = NdlQuery::new(p, g);
        let pruned = check_equivalent(&query, &d);
        assert_eq!(pruned.stats.aliases_inlined, 1);
    }

    #[test]
    fn projection_is_not_an_alias() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let t = p.add_pred("T", 1, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // T(x) ← R(x, y) projects away y: must stay materialised
        // (used twice, so unfolding is also off the table).
        p.add_clause(Clause {
            head: t,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        for _ in 0..2 {
            p.add_clause(Clause {
                head: g,
                head_args: vec![CVar(0)],
                body: vec![BodyAtom::Pred(t, vec![CVar(0)])],
                num_vars: 1,
            });
        }
        let query = NdlQuery::new(p, g);
        let pruned = check_equivalent(&query, &d);
        assert_eq!(pruned.stats.aliases_inlined, 0);
        assert_eq!(pruned.stats.unfolded, 0);
    }

    #[test]
    fn used_once_view_is_unfolded() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let w = p.add_pred("W", 2, PredKind::Idb);
        let g = p.add_pred("G", 2, PredKind::Idb);
        // W(x, y) ← A(x) ∧ (y = x): the Presto-like W-view shape.
        p.add_clause(Clause {
            head: w,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(a, vec![CVar(0)]), BodyAtom::Eq(CVar(1), CVar(0))],
            num_vars: 2,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(w, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        let query = NdlQuery::new(p, g);
        let pruned = check_equivalent(&query, &d);
        assert_eq!(pruned.stats.unfolded, 1);
        assert_eq!(pruned.stats.preds_after, 1, "only the goal survives");
    }

    #[test]
    fn existential_view_stays_materialised() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let t = p.add_pred("T", 1, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // T(x) ← R(x, y): existential y means T deduplicates; keep it.
        p.add_clause(Clause {
            head: t,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(t, vec![CVar(0)]), BodyAtom::Pred(s, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        let query = NdlQuery::new(p, g);
        let pruned = check_equivalent(&query, &d);
        assert_eq!(pruned.stats.unfolded, 0);
    }

    #[test]
    fn copy_clause_retargets_multi_clause_definition() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let u = p.add_pred("U", 2, PredKind::Idb);
        let g = p.add_pred("G", 2, PredKind::Idb);
        // U has two clauses; G ← U is a pure copy (the TwUCQ shape).
        for e in [r, s] {
            p.add_clause(Clause {
                head: u,
                head_args: vec![CVar(0), CVar(1)],
                body: vec![BodyAtom::Pred(e, vec![CVar(0), CVar(1)])],
                num_vars: 2,
            });
        }
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(1), CVar(0)],
            body: vec![BodyAtom::Pred(u, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        let query = NdlQuery::new(p, g);
        let pruned = check_equivalent(&query, &d);
        assert_eq!(pruned.stats.heads_merged, 1);
        assert_eq!(pruned.stats.preds_after, 1);
        assert_eq!(pruned.query.program.num_clauses(), 2);
    }

    #[test]
    fn dead_column_is_projected() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let t = p.add_pred("T", 2, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // T's second column is never consumed by either call site.
        for e in [r, s] {
            p.add_clause(Clause {
                head: t,
                head_args: vec![CVar(0), CVar(1)],
                body: vec![BodyAtom::Pred(e, vec![CVar(0), CVar(1)])],
                num_vars: 2,
            });
        }
        for e in [r, s] {
            p.add_clause(Clause {
                head: g,
                head_args: vec![CVar(0)],
                body: vec![
                    BodyAtom::Pred(t, vec![CVar(0), CVar(1)]),
                    BodyAtom::Pred(e, vec![CVar(2), CVar(0)]),
                ],
                num_vars: 3,
            });
        }
        let query = NdlQuery::new(p, g);
        let pruned = check_equivalent(&query, &d);
        assert_eq!(pruned.stats.dead_columns, 1);
        // The projection accounts to the original T.
        let narrow = pruned
            .query
            .program
            .pred_ids()
            .find(|&i| {
                pruned.query.program.pred(i).name.starts_with('T')
                    && pruned.query.program.pred(i).arity == 1
            })
            .expect("projected T↓ exists");
        assert_eq!(pruned.origin[narrow.0 as usize], t);
    }

    /// A predicate whose columns are all dead keeps its first one, and so
    /// does the column that feeds it: `T`'s only source of `x0` is `U`'s
    /// otherwise dead first column.
    #[test]
    fn the_column_kept_for_a_boolean_view_keeps_its_source() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let u = p.add_pred("U", 2, PredKind::Idb);
        let t = p.add_pred("T", 2, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // Two clauses: `U` is no alias, so pruning keeps it.
        for e in [r, s] {
            p.add_clause(Clause {
                head: u,
                head_args: vec![CVar(0), CVar(1)],
                body: vec![BodyAtom::Pred(e, vec![CVar(0), CVar(1)])],
                num_vars: 2,
            });
        }
        // T(x0, x2) ← A(x1), U(x3, x2), U(x0, x1): both of T's columns are
        // dead at the goal, and x0 occurs only in U's first column.
        p.add_clause(Clause {
            head: t,
            head_args: vec![CVar(0), CVar(2)],
            body: vec![
                BodyAtom::Pred(a, vec![CVar(1)]),
                BodyAtom::Pred(u, vec![CVar(3), CVar(2)]),
                BodyAtom::Pred(u, vec![CVar(0), CVar(1)]),
            ],
            num_vars: 4,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![
                BodyAtom::Pred(u, vec![CVar(1), CVar(0)]),
                BodyAtom::Pred(t, vec![CVar(2), CVar(3)]),
            ],
            num_vars: 4,
        });
        check_equivalent(&NdlQuery::new(p, g), &d);
    }

    #[test]
    fn unreachable_clauses_are_dropped() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let dead = p.add_pred("DEAD", 1, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: dead,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(a, vec![CVar(0)])],
            num_vars: 1,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(a, vec![CVar(0)])],
            num_vars: 1,
        });
        let query = NdlQuery::new(p, g);
        let pruned = check_equivalent(&query, &d);
        assert_eq!(pruned.query.program.num_clauses(), 1);
        assert_eq!(pruned.stats.preds_after, 1);
    }

    #[test]
    fn goal_is_never_pruned_away() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let g = p.add_pred("G", 2, PredKind::Idb);
        // The goal itself is alias-shaped; it must stay.
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        let query = NdlQuery::new(p, g);
        let pruned = check_equivalent(&query, &d);
        assert_eq!(pruned.stats.aliases_inlined, 0);
        assert_eq!(pruned.query.goal, g);
        assert_eq!(pruned.query.program.num_clauses(), 1);
    }
}
