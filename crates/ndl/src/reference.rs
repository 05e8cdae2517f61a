//! The original per-call hash-set evaluator, kept as a reference.
//!
//! This is the engine the shared-storage engine ([`crate::engine`])
//! replaced: relations are `FxHashSet<Vec<u32>>`, every `evaluate_reference`
//! call re-scans the [`DataInstance`] to materialise EDB relations, and
//! every predicate atom builds a fresh join index. It is retained for
//! differential testing (the property tests check the two engines agree)
//! and as the baseline of the `substrates` benchmark comparing the indexed
//! join path against the seed hash-set path.

use crate::analysis::topological_order;
use crate::eval::{
    halt_to_error, reachable_from_goal, EvalError, EvalResult, EvalStats, Halt, Row, UNBOUND,
};
use crate::program::{BodyAtom, CVar, Clause, NdlQuery, PredId, PredKind, Program};
use obda_budget::Budget;
use obda_owlql::abox::{ConstId, DataInstance};
use obda_owlql::util::{FxHashMap, FxHashSet};
use std::time::Instant;

type Relation = FxHashSet<Row>;

/// Materialises the EDB relation of a predicate from the data instance.
fn edb_relation(kind: PredKind, data: &DataInstance) -> Relation {
    let mut rel = Relation::default();
    match kind {
        PredKind::EdbClass(c) => {
            for (class, a) in data.class_atoms() {
                if class == c {
                    rel.insert(vec![a.0]);
                }
            }
        }
        PredKind::EdbProp(p) => {
            for (prop, a, b) in data.prop_atoms() {
                if prop == p {
                    rel.insert(vec![a.0, b.0]);
                }
            }
        }
        PredKind::Top => {
            for a in data.individuals() {
                rel.insert(vec![a.0]);
            }
        }
        PredKind::Idb => unreachable!("IDB relations are computed, not loaded"),
    }
    rel
}

struct Engine<'a> {
    program: &'a Program,
    data: &'a DataInstance,
    relations: Vec<Option<Relation>>,
    budget: &'a mut Budget,
    generated: usize,
    per_pred: Vec<usize>,
}

impl<'a> Engine<'a> {
    fn check_budget(&mut self) -> Result<(), Halt> {
        Ok(self.budget.tick()?)
    }

    /// Takes the relation of `p` out of the engine (materialising an EDB
    /// relation on first use); the caller must put it back with
    /// [`Engine::restore`].
    fn take_relation(&mut self, p: PredId) -> Relation {
        let idx = p.0 as usize;
        match self.relations[idx].take() {
            Some(rel) => rel,
            // IDB predicates are evaluated in dependency order, so an
            // untouched slot can only mean "no clauses" (empty relation).
            None => match self.program.pred(p).kind {
                PredKind::Idb => Relation::default(),
                kind => edb_relation(kind, self.data),
            },
        }
    }

    fn restore(&mut self, p: PredId, rel: Relation) {
        self.relations[p.0 as usize] = Some(rel);
    }

    /// Evaluates one clause, inserting derived head rows into `out`.
    fn eval_clause(&mut self, clause: &Clause, out: &mut Relation) -> Result<(), Halt> {
        let order = crate::eval::join_order(clause).map_err(Halt::Unsafe)?;
        let mut bindings: Vec<Row> = vec![vec![UNBOUND; clause.num_vars as usize]];
        let mut bound: FxHashSet<CVar> = FxHashSet::default();
        for &i in &order {
            if bindings.is_empty() {
                break;
            }
            match &clause.body[i] {
                BodyAtom::Eq(a, b) => {
                    let (a, b) = (*a, *b);
                    let mut next = Vec::with_capacity(bindings.len());
                    for mut binding in bindings {
                        self.check_budget()?;
                        let va = binding[a.0 as usize];
                        let vb = binding[b.0 as usize];
                        match (va == UNBOUND, vb == UNBOUND) {
                            (false, false) => {
                                if va == vb {
                                    next.push(binding);
                                }
                            }
                            (false, true) => {
                                binding[b.0 as usize] = va;
                                next.push(binding);
                            }
                            (true, false) => {
                                binding[a.0 as usize] = vb;
                                next.push(binding);
                            }
                            (true, true) => unreachable!("join order binds one side first"),
                        }
                    }
                    bindings = next;
                    bound.insert(a);
                    bound.insert(b);
                }
                BodyAtom::EqConst(a, c) => {
                    let (a, c) = (*a, c.0);
                    let mut next = Vec::with_capacity(bindings.len());
                    for mut binding in bindings {
                        self.check_budget()?;
                        let va = binding[a.0 as usize];
                        if va == UNBOUND {
                            binding[a.0 as usize] = c;
                            next.push(binding);
                        } else if va == c {
                            next.push(binding);
                        }
                    }
                    bindings = next;
                    bound.insert(a);
                }
                BodyAtom::Pred(p, args) => {
                    let p = *p;
                    let args = args.clone();
                    let bound_positions: Vec<usize> =
                        (0..args.len()).filter(|&k| bound.contains(&args[k])).collect();
                    // Index the relation on the bound positions.
                    let rel = self.take_relation(p);
                    let mut index: FxHashMap<Vec<u32>, Vec<&Row>> = FxHashMap::default();
                    for row in rel.iter() {
                        let key: Vec<u32> = bound_positions.iter().map(|&k| row[k]).collect();
                        index.entry(key).or_default().push(row);
                    }
                    let mut next = Vec::new();
                    let mut failure = None;
                    for binding in &bindings {
                        if let Err(e) = self.check_budget() {
                            failure = Some(e);
                            break;
                        }
                        // Intermediate join results count against the tuple
                        // budget too — a join can explode without ever
                        // reaching the head.
                        if let Err(e) = self.budget.check_tuple_headroom(next.len() as u64) {
                            failure = Some(Halt::Budget(e));
                            break;
                        }
                        let key: Vec<u32> =
                            bound_positions.iter().map(|&k| binding[args[k].0 as usize]).collect();
                        let Some(rows) = index.get(&key) else { continue };
                        'rows: for row in rows {
                            let mut extended = binding.clone();
                            for (k, &var) in args.iter().enumerate() {
                                let slot = &mut extended[var.0 as usize];
                                if *slot == UNBOUND {
                                    *slot = row[k];
                                } else if *slot != row[k] {
                                    continue 'rows;
                                }
                            }
                            next.push(extended);
                        }
                    }
                    drop(index);
                    self.restore(p, rel);
                    if let Some(e) = failure {
                        return Err(e);
                    }
                    bindings = next;
                    for &v in &args {
                        bound.insert(v);
                    }
                }
            }
        }
        for binding in bindings {
            let row: Row = clause
                .head_args
                .iter()
                .map(|&v| {
                    let val = binding[v.0 as usize];
                    debug_assert_ne!(val, UNBOUND, "head variable left unbound");
                    val
                })
                .collect();
            if out.insert(row) {
                self.generated += 1;
                self.per_pred[clause.head.0 as usize] += 1;
                self.budget.charge_tuples(1)?;
            }
            self.check_budget()?;
        }
        Ok(())
    }
}

/// Evaluates `(Π, G)` over `data` with the seed hash-set engine: EDB
/// relations are re-materialised from the data instance on every call and
/// every predicate atom builds a fresh join index. Draws on `budget` like
/// the engine does.
pub fn evaluate_reference(
    query: &NdlQuery,
    data: &DataInstance,
    budget: &mut Budget,
) -> Result<EvalResult, EvalError> {
    let start = Instant::now();
    let order = topological_order(&query.program).ok_or(EvalError::Recursive)?;
    let reachable = reachable_from_goal(query);
    let mut engine = Engine {
        program: &query.program,
        data,
        relations: vec![None; query.program.num_preds()],
        budget,
        generated: 0,
        per_pred: vec![0; query.program.num_preds()],
    };
    let stats_at = |engine: &Engine, num_answers: usize| EvalStats {
        generated_tuples: engine.generated,
        num_answers,
        duration: start.elapsed(),
        per_predicate: engine.per_pred.clone(),
    };
    for p in order {
        if !reachable[p.0 as usize] {
            continue;
        }
        let mut rel = Relation::default();
        for clause in query.program.clauses() {
            if clause.head == p {
                if let Err(halt) = engine.eval_clause(clause, &mut rel) {
                    let goal_answers = engine.per_pred[query.goal.0 as usize];
                    return Err(halt_to_error(halt, stats_at(&engine, goal_answers)));
                }
            }
        }
        engine.relations[p.0 as usize] = Some(rel);
    }
    let goal_rel = engine.relations[query.goal.0 as usize].take().unwrap_or_default();
    let mut answers: Vec<Vec<ConstId>> =
        goal_rel.into_iter().map(|row| row.into_iter().map(ConstId).collect()).collect();
    answers.sort();
    let stats = stats_at(&engine, answers.len());
    Ok(EvalResult { answers, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::program::Clause;
    use crate::storage::Database;
    use obda_owlql::parser::{parse_data, parse_ontology};

    #[test]
    fn agrees_with_indexed_engine() {
        let o = parse_ontology("Class A\nProperty R\n").unwrap();
        let d = parse_data("R(a, b)\nR(b, c)\nR(c, a)\nA(b)\nA(c)\n", &o).unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let q = p.add_pred("Q", 1, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: q,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)]), BodyAtom::Pred(a, vec![CVar(1)])],
            num_vars: 2,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)]), BodyAtom::Pred(q, vec![CVar(1)])],
            num_vars: 2,
        });
        let query = NdlQuery::new(p, g);
        let reference = evaluate_reference(&query, &d, &mut Budget::unlimited()).unwrap();
        let indexed = evaluate(&query, &Database::new(&d)).unwrap();
        assert_eq!(reference.answers, indexed.answers);
        assert_eq!(reference.stats.per_predicate, indexed.stats.per_predicate);
        assert_eq!(reference.stats.generated_tuples, indexed.stats.generated_tuples);
    }
}
