//! Reachability-based evaluation of *linear* NDL queries (Theorem 2).
//!
//! Theorem 2 of the paper shows that evaluating linear NDL queries of
//! bounded width is NL-complete: deciding `Π, A ⊨ G(a)` reduces to finding
//! a path in the *grounding graph* `G` from the set `X` of ground IDB atoms
//! derivable by IDB-free clauses to `G(a)`, where `G` has an edge from
//! `Q(c)` to `Q′(c′)` whenever a ground clause instance derives the latter
//! from the former using EDB atoms of the instance.
//!
//! This module implements that evaluation strategy directly as a forward
//! breadth-first search over derived ground atoms (the worklist never holds
//! more than the ground atoms of the grounding graph). EDB atoms are
//! resolved against the same shared [`Database`] as the bottom-up engine,
//! probing the lazy per-column indexes when a join position is already
//! bound. It is cross-checked against the bottom-up materialising evaluator
//! in tests and used as an evaluator ablation in the benchmark suite.

use crate::analysis::is_linear;
use crate::eval::{EvalError, EvalResult, EvalStats, Halt, Row, UNBOUND};
use crate::program::{BodyAtom, Clause, NdlQuery, PredId, Program};
use crate::storage::Database;
use obda_budget::Budget;
use obda_owlql::abox::ConstId;
use obda_owlql::util::{FxHashMap, FxHashSet};
use std::collections::VecDeque;
use std::time::Instant;

/// Evaluates a linear NDL query by forward reachability over ground IDB
/// atoms (Theorem 2's strategy), resolving EDB atoms against a pre-built
/// [`Database`] and drawing on a caller-supplied [`Budget`] that may be
/// shared with other pipeline stages.
///
/// Returns [`EvalError::Unsafe`] if the program is not linear.
pub fn evaluate_linear_on_budgeted(
    query: &NdlQuery,
    db: &Database,
    budget: &mut Budget,
) -> Result<EvalResult, EvalError> {
    if !is_linear(&query.program) {
        return Err(EvalError::Unsafe("program is not linear".into()));
    }
    let start = Instant::now();
    let program = &query.program;

    // Derived ground atoms per IDB predicate, plus a worklist.
    let mut derived: FxHashMap<PredId, FxHashSet<Row>> = FxHashMap::default();
    let mut queue: VecDeque<(PredId, Row)> = VecDeque::new();
    let mut generated = 0usize;
    let mut per_pred = vec![0usize; program.num_preds()];

    let push = |p: PredId,
                row: Row,
                derived: &mut FxHashMap<PredId, FxHashSet<Row>>,
                queue: &mut VecDeque<(PredId, Row)>,
                generated: &mut usize,
                per_pred: &mut [usize],
                budget: &mut Budget|
     -> Result<(), Halt> {
        if derived.entry(p).or_default().insert(row.clone()) {
            *generated += 1;
            per_pred[p.0 as usize] += 1;
            queue.push_back((p, row));
            budget.charge_tuples(1)?;
        }
        Ok(())
    };

    let stats_at = |generated: usize, per_pred: &[usize], num_answers: usize| EvalStats {
        generated_tuples: generated,
        num_answers,
        duration: start.elapsed(),
        per_predicate: per_pred.to_vec(),
    };
    let interrupt = |halt: Halt, generated: usize, per_pred: &[usize]| {
        crate::eval::halt_to_error(halt, stats_at(generated, per_pred, 0))
    };

    // Seed: clauses without IDB body atoms.
    for clause in program.clauses() {
        let idb_atom = clause
            .body
            .iter()
            .position(|a| matches!(a, BodyAtom::Pred(p, _) if program.is_idb(*p)));
        if idb_atom.is_none() {
            let rows = ground_clause(program, clause, None, db, budget)
                .map_err(|h| interrupt(h, generated, &per_pred))?;
            for row in rows {
                push(
                    clause.head,
                    row,
                    &mut derived,
                    &mut queue,
                    &mut generated,
                    &mut per_pred,
                    budget,
                )
                .map_err(|h| interrupt(h, generated, &per_pred))?;
            }
        }
    }

    // Propagate: a derived atom Q(c) fires every clause with Q in the body.
    while let Some((p, row)) = queue.pop_front() {
        if let Err(h) = budget.tick() {
            return Err(interrupt(h.into(), generated, &per_pred));
        }
        for clause in program.clauses() {
            let has_p = clause
                .body
                .iter()
                .any(|a| matches!(a, BodyAtom::Pred(q, _) if *q == p && program.is_idb(*q)));
            if !has_p {
                continue;
            }
            let rows = ground_clause(program, clause, Some((p, &row)), db, budget)
                .map_err(|h| interrupt(h, generated, &per_pred))?;
            for out in rows {
                push(
                    clause.head,
                    out,
                    &mut derived,
                    &mut queue,
                    &mut generated,
                    &mut per_pred,
                    budget,
                )
                .map_err(|h| interrupt(h, generated, &per_pred))?;
            }
        }
    }

    let mut answers: Vec<Vec<ConstId>> = derived
        .remove(&query.goal)
        .unwrap_or_default()
        .into_iter()
        .map(|row| row.into_iter().map(ConstId).collect())
        .collect();
    answers.sort();
    let stats = stats_at(generated, &per_pred, answers.len());
    Ok(EvalResult { answers, stats })
}

/// Grounds one clause: if `idb_fact` is provided, the clause's (unique) IDB
/// atom is bound to it; all remaining atoms are EDB or equalities and are
/// joined against the database, probing the relation's column index when a
/// position is already bound. Returns the derived head rows.
fn ground_clause(
    program: &Program,
    clause: &Clause,
    idb_fact: Option<(PredId, &Row)>,
    db: &Database,
    budget: &mut Budget,
) -> Result<Vec<Row>, Halt> {
    let mut bindings: Vec<Row> = vec![vec![UNBOUND; clause.num_vars as usize]];
    // Bind the IDB atom first, if any.
    let mut skip_index = usize::MAX;
    if let Some((p, fact)) = idb_fact {
        // Invariant: `ground_clause` is only called with `(p, fact)` pairs
        // discovered by scanning this clause's body for `p`.
        #[allow(clippy::expect_used)]
        let pos = clause
            .body
            .iter()
            .position(|a| matches!(a, BodyAtom::Pred(q, _) if *q == p))
            .expect("caller checked the clause uses p");
        skip_index = pos;
        if let BodyAtom::Pred(_, args) = &clause.body[pos] {
            let mut binding = vec![UNBOUND; clause.num_vars as usize];
            let mut ok = true;
            for (k, &var) in args.iter().enumerate() {
                let slot = &mut binding[var.0 as usize];
                if *slot == UNBOUND {
                    *slot = fact[k];
                } else if *slot != fact[k] {
                    ok = false;
                    break;
                }
            }
            bindings = if ok { vec![binding] } else { Vec::new() };
        }
    }

    // Remaining atoms, equalities deferred until a side is bound.
    let mut remaining: Vec<usize> = (0..clause.body.len()).filter(|&i| i != skip_index).collect();
    while !remaining.is_empty() && !bindings.is_empty() {
        budget.tick()?;
        // Prefer an equality with a bound side (a constant side is always
        // bound), then any predicate atom.
        let next = remaining
            .iter()
            .position(|&i| match &clause.body[i] {
                BodyAtom::Eq(a, b) => {
                    bindings[0][a.0 as usize] != UNBOUND || bindings[0][b.0 as usize] != UNBOUND
                }
                BodyAtom::EqConst(..) => true,
                _ => false,
            })
            .or_else(|| {
                remaining.iter().position(|&i| matches!(clause.body[i], BodyAtom::Pred(..)))
            });
        let Some(pos) = next else {
            return Err(Halt::Unsafe("equality between variables that are never bound".into()));
        };
        let i = remaining.remove(pos);
        match &clause.body[i] {
            BodyAtom::Eq(a, b) => {
                let mut next_b = Vec::with_capacity(bindings.len());
                for mut binding in bindings {
                    let va = binding[a.0 as usize];
                    let vb = binding[b.0 as usize];
                    match (va == UNBOUND, vb == UNBOUND) {
                        (false, false) if va == vb => next_b.push(binding),
                        (false, false) => {}
                        (false, true) => {
                            binding[b.0 as usize] = va;
                            next_b.push(binding);
                        }
                        (true, false) => {
                            binding[a.0 as usize] = vb;
                            next_b.push(binding);
                        }
                        (true, true) => unreachable!("a side is bound by choice of atom"),
                    }
                }
                bindings = next_b;
            }
            BodyAtom::EqConst(a, c) => {
                let c = c.0;
                let mut next_b = Vec::with_capacity(bindings.len());
                for mut binding in bindings {
                    let va = binding[a.0 as usize];
                    if va == UNBOUND {
                        binding[a.0 as usize] = c;
                        next_b.push(binding);
                    } else if va == c {
                        next_b.push(binding);
                    }
                }
                bindings = next_b;
            }
            BodyAtom::Pred(p, args) => {
                debug_assert!(
                    !program.is_idb(*p),
                    "linear clause has a single IDB atom, already consumed"
                );
                let rel = db.relation(program.pred(*p).kind);
                // All bindings at this stage share the same bound-variable
                // pattern, so probe on the first position bound in any.
                let probe_col =
                    (0..args.len()).find(|&k| bindings[0][args[k].0 as usize] != UNBOUND);
                let mut next_b = Vec::new();
                let extend = |binding: &Row, row: &[u32], next_b: &mut Vec<Row>| {
                    let mut extended = binding.clone();
                    for (k, &var) in args.iter().enumerate() {
                        let slot = &mut extended[var.0 as usize];
                        if *slot == UNBOUND {
                            *slot = row[k];
                        } else if *slot != row[k] {
                            return;
                        }
                    }
                    next_b.push(extended);
                };
                match probe_col {
                    None => {
                        for binding in &bindings {
                            budget.tick()?;
                            for row in rel.rows() {
                                budget.tick()?;
                                extend(binding, row, &mut next_b);
                            }
                        }
                    }
                    Some(col) => {
                        let index = rel.column_index(col);
                        for binding in &bindings {
                            budget.tick()?;
                            let key = binding[args[col].0 as usize];
                            for &row_id in index.probe(key) {
                                budget.tick()?;
                                extend(binding, rel.row(row_id as usize), &mut next_b);
                            }
                        }
                    }
                }
                bindings = next_b;
            }
        }
    }

    Ok(bindings
        .into_iter()
        .map(|binding| clause.head_args.iter().map(|&v| binding[v.0 as usize]).collect())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{evaluate_engine_on_traced, EngineConfig};
    use crate::eval::evaluate;
    use crate::program::{CVar, Clause, PredKind};
    use obda_owlql::parser::{parse_data, parse_ontology};
    use obda_telemetry::Telemetry;

    /// A linear program computing 2-step R-reachability into A.
    fn linear_query(o: &obda_owlql::Ontology) -> NdlQuery {
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let q1 = p.add_pred("Q1", 1, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // Q1(x) ← R(x, y) ∧ A(y);  G(x) ← R(x, y) ∧ Q1(y).
        p.add_clause(Clause {
            head: q1,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)]), BodyAtom::Pred(a, vec![CVar(1)])],
            num_vars: 2,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![
                BodyAtom::Pred(r, vec![CVar(0), CVar(1)]),
                BodyAtom::Pred(q1, vec![CVar(1)]),
            ],
            num_vars: 2,
        });
        NdlQuery::new(p, g)
    }

    #[test]
    fn agrees_with_bottom_up() {
        let o = parse_ontology("Class A\nProperty R\n").unwrap();
        let d = parse_data("R(a, b)\nR(b, c)\nR(c, c)\nA(c)\n", &o).unwrap();
        let q = linear_query(&o);
        let db = Database::new(&d);
        let lin = evaluate_linear_on_budgeted(&q, &db, &mut Budget::unlimited()).unwrap();
        let bu = evaluate(&q, &db).unwrap();
        assert_eq!(lin.answers, bu.answers);
        assert!(!lin.answers.is_empty());
        assert_eq!(lin.stats.generated_tuples, bu.stats.generated_tuples);
    }

    #[test]
    fn both_evaluators_share_one_database() {
        let o = parse_ontology("Class A\nProperty R\n").unwrap();
        let d = parse_data("R(a, b)\nR(b, c)\nR(c, c)\nA(c)\n", &o).unwrap();
        let q = linear_query(&o);
        let db = Database::new(&d);
        let before = Database::build_count();
        let lin = evaluate_linear_on_budgeted(&q, &db, &mut Budget::unlimited()).unwrap();
        let cfg = EngineConfig::unpruned();
        let bu = evaluate_engine_on_traced(
            &q,
            &db,
            &mut Budget::unlimited(),
            &cfg,
            Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(Database::build_count(), before, "no rebuild for either engine");
        assert_eq!(lin.answers, bu.answers);
        assert_eq!(lin.stats.per_predicate, bu.stats.per_predicate);
    }

    #[test]
    fn rejects_nonlinear() {
        let o = parse_ontology("Class A\n").unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let q1 = p.add_pred("Q1", 1, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: q1,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(a, vec![CVar(0)])],
            num_vars: 1,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(q1, vec![CVar(0)]), BodyAtom::Pred(q1, vec![CVar(0)])],
            num_vars: 1,
        });
        let d = parse_data("A(a)\n", &o).unwrap();
        let db = Database::new(&d);
        let res = evaluate_linear_on_budgeted(&NdlQuery::new(p, g), &db, &mut Budget::unlimited());
        assert!(matches!(res, Err(EvalError::Unsafe(_))));
    }
}
