//! The `*`-transformation: rewritings over complete data instances become
//! rewritings over arbitrary data instances (Section 2), plus Lemma 3's
//! linearity-preserving variant.
//!
//! Given an NDL-rewriting `(Π, G(x))` over complete instances, `Π*` replaces
//! every predicate `S` with a fresh IDB predicate `S*` and adds
//!
//! ```text
//! A*(x)   ← τ(x)      if T ⊨ τ(x) → A(x)
//! P*(x,y) ← ̺(x,y)    if T ⊨ ̺(x,y) → P(x,y)
//! P*(x,x) ← ⊤(x)      if T ⊨ P(x,x)
//! ```
//!
//! with `⊤` the active-domain predicate, so `|Π*| ≤ |Π| + |T|²`.
//!
//! The naive transformation destroys linearity (the derived `A*`/`P*`
//! predicates are IDB, so clause bodies may gain several IDB atoms).
//! Lemma 3 instead rewrites each clause `Q(z) ← I ∧ EQ ∧ E₁ ∧ … ∧ Eₙ` into a
//! chain `Q₀ ← I`, `Qᵢ₊₁ ← Qᵢ ∧ E′ᵢ` with `E′ᵢ ∈ υ(Eᵢ)` ranging over the
//! atoms that imply `Eᵢ` under `T`, keeping the program linear at width
//! `≤ w + 1`.

use crate::program::{BodyAtom, CVar, Clause, NdlQuery, PredId, PredKind, Program};
use obda_budget::{Budget, BudgetExceeded};
use obda_owlql::axiom::ClassExpr;
use obda_owlql::saturation::Taxonomy;
use obda_owlql::util::FxHashMap;
use obda_owlql::vocab::{Role, Vocab};

/// The atoms `υ(E)` that imply an EDB atom `E` under the ontology, as
/// (body-atom templates, fresh-variable count) pairs. A template uses the
/// original atom's variables plus possibly one fresh variable slot.
fn implying_atoms(
    program: &mut Program,
    kind: PredKind,
    args: &[CVar],
    fresh: CVar,
    taxonomy: &Taxonomy,
    vocab: &Vocab,
) -> Vec<(Vec<BodyAtom>, bool)> {
    let mut out: Vec<(Vec<BodyAtom>, bool)> = Vec::new();
    match kind {
        PredKind::EdbClass(a) => {
            let target = ClassExpr::Class(a);
            for sub in taxonomy.sub_classes(target).collect::<Vec<_>>() {
                match sub {
                    ClassExpr::Class(b) => {
                        let p = program.edb_class(b, vocab);
                        out.push((vec![BodyAtom::Pred(p, vec![args[0]])], false));
                    }
                    ClassExpr::Exists(r) => {
                        let atom = program.role_atom(r, args[0], fresh, vocab);
                        out.push((vec![atom], true));
                    }
                    ClassExpr::Top => {
                        // ⊤ ⊑ A only for trivial ontologies; keep soundness
                        // by using the active domain.
                        if taxonomy.sub_class(ClassExpr::Top, target) {
                            let top = program.edb_top();
                            out.push((vec![BodyAtom::Pred(top, vec![args[0]])], false));
                        }
                    }
                }
            }
        }
        PredKind::EdbProp(p) => {
            let target = Role::direct(p);
            for sub in taxonomy.sub_roles(target).collect::<Vec<_>>() {
                let atom = program.role_atom(sub, args[0], args[1], vocab);
                out.push((vec![atom], false));
            }
            if taxonomy.is_reflexive(target) {
                let top = program.edb_top();
                out.push((
                    vec![BodyAtom::Pred(top, vec![args[0]]), BodyAtom::Eq(args[0], args[1])],
                    false,
                ));
            }
        }
        PredKind::Top => {
            let top = program.edb_top();
            out.push((vec![BodyAtom::Pred(top, vec![args[0]])], false));
        }
        PredKind::Idb => unreachable!("only EDB atoms are expanded"),
    }
    out
}

/// Adds a clause the transformation introduced, charging it to `budget`
/// first, so a clause cap trips as soon as it is crossed.
fn add_charged(
    program: &mut Program,
    clause: Clause,
    budget: &mut Budget,
) -> Result<(), BudgetExceeded> {
    budget.charge_clauses(1)?;
    program.add_clause(clause);
    Ok(())
}

/// The naive `*`-transformation: every EDB predicate `S` of the rewriting
/// becomes an IDB predicate `S*` defined from the atoms that imply it.
/// Each defining clause is charged to `budget` as it is added (the input's
/// own clauses were charged by whoever built them).
pub fn star_transform(
    query: &NdlQuery,
    taxonomy: &Taxonomy,
    vocab: &Vocab,
    budget: &mut Budget,
) -> Result<NdlQuery, BudgetExceeded> {
    let mut out = Program::new();
    let mut pred_map: FxHashMap<PredId, PredId> = FxHashMap::default();
    // Recreate predicates: EDB → starred IDB; IDB → as-is.
    for p in query.program.pred_ids() {
        let info = query.program.pred(p).clone();
        let np = match info.kind {
            PredKind::Idb => out.add_idb_with_params(info.name, info.arity, info.num_params),
            PredKind::EdbClass(_) | PredKind::EdbProp(_) | PredKind::Top => {
                let star = out.add_idb_with_params(format!("{}*", info.name), info.arity, 0);
                out.mark_completion(star);
                star
            }
        };
        pred_map.insert(p, np);
    }
    // Original clauses, with every predicate replaced by its image.
    for c in query.program.clauses() {
        out.add_clause(Clause {
            head: pred_map[&c.head],
            head_args: c.head_args.clone(),
            body: c
                .body
                .iter()
                .map(|a| match a {
                    BodyAtom::Pred(p, args) => BodyAtom::Pred(pred_map[p], args.clone()),
                    other => other.clone(),
                })
                .collect(),
            num_vars: c.num_vars,
        });
    }
    // Defining clauses for the starred predicates.
    for p in query.program.pred_ids() {
        let info = query.program.pred(p).clone();
        if matches!(info.kind, PredKind::Idb) {
            continue;
        }
        let arity = info.arity as u32;
        let args: Vec<CVar> = (0..arity).map(CVar).collect();
        let fresh = CVar(arity);
        for (body, uses_fresh) in implying_atoms(&mut out, info.kind, &args, fresh, taxonomy, vocab)
        {
            let head = pred_map[&p];
            let num_vars = arity + u32::from(uses_fresh);
            add_charged(
                &mut out,
                Clause { head, head_args: args.clone(), body, num_vars },
                budget,
            )?;
        }
    }
    Ok(NdlQuery::new(out, pred_map[&query.goal]))
}

/// Lemma 3: the linearity-preserving `*`-transformation.
///
/// Each clause `Q(z) ← I ∧ EQ ∧ E₁ ∧ … ∧ Eₙ` (with `I` the unique IDB atom,
/// if any) becomes a chain of fresh predicates threading the bound variables
/// forward, with each `Eᵢ` replaced by one of the atoms in `υ(Eᵢ)`.
///
/// Each chain clause is charged to `budget` as it is added; the final
/// clause of a chain stands for the input clause, which is already paid
/// for.
///
/// # Panics
/// Panics if the input program is not linear.
pub fn linear_star_transform(
    query: &NdlQuery,
    taxonomy: &Taxonomy,
    vocab: &Vocab,
    budget: &mut Budget,
) -> Result<NdlQuery, BudgetExceeded> {
    assert!(crate::analysis::is_linear(&query.program), "input must be linear");
    let mut out = Program::new();
    let mut pred_map: FxHashMap<PredId, PredId> = FxHashMap::default();
    for p in query.program.pred_ids() {
        let info = query.program.pred(p).clone();
        if matches!(info.kind, PredKind::Idb) {
            let np = out.add_idb_with_params(info.name, info.arity, info.num_params);
            pred_map.insert(p, np);
        }
    }
    let mut fresh_counter = 0usize;
    for c in query.program.clauses() {
        // Partition the body.
        let mut idb_atom: Option<BodyAtom> = None;
        let mut equalities: Vec<BodyAtom> = Vec::new();
        let mut edb_atoms: Vec<(PredKind, Vec<CVar>)> = Vec::new();
        for a in &c.body {
            match a {
                BodyAtom::Pred(p, args) if query.program.is_idb(*p) => {
                    idb_atom = Some(BodyAtom::Pred(pred_map[p], args.clone()));
                }
                BodyAtom::Pred(p, args) => {
                    edb_atoms.push((query.program.pred(*p).kind, args.clone()));
                }
                eq @ (BodyAtom::Eq(..) | BodyAtom::EqConst(..)) => equalities.push(eq.clone()),
            }
        }

        // Variables needed strictly after EDB position i: later EDB atoms,
        // the equalities, and the head.
        let n = edb_atoms.len();
        let mut needed_after: Vec<Vec<CVar>> = vec![Vec::new(); n + 1];
        let mut acc: Vec<CVar> = c.head_args.clone();
        acc.extend(equalities.iter().flat_map(|e| e.vars()));
        needed_after[n] = sorted_dedup(acc.clone());
        for i in (0..n).rev() {
            acc.extend(edb_atoms[i].1.iter().copied());
            needed_after[i] = sorted_dedup(acc.clone());
        }

        // Parameter variables of the clause (trailing head positions of an
        // ordered query); chain predicates keep them as parameters so that
        // the width bound `w + 1` of Lemma 3 holds.
        let head_info = query.program.pred(c.head).clone();
        let param_vars: Vec<CVar> = c.head_args[head_info.arity - head_info.num_params..].to_vec();

        // The chain starts from the IDB atom (or from the first EDB atom).
        let mut num_vars = c.num_vars;
        let mut prev: Option<(BodyAtom, Vec<CVar>)> = idb_atom.map(|atom| {
            let bound = sorted_dedup(atom.vars());
            (atom, bound)
        });
        for (i, (kind, args)) in edb_atoms.iter().enumerate() {
            let fresh = CVar(num_vars);
            let variants = implying_atoms(&mut out, *kind, args, fresh, taxonomy, vocab);
            let uses_fresh = variants.iter().any(|&(_, f)| f);
            if uses_fresh {
                num_vars += 1;
            }
            // Bound variables after this stage.
            let mut bound: Vec<CVar> = prev.as_ref().map(|(_, b)| b.clone()).unwrap_or_default();
            bound.extend(args.iter().copied());
            let bound = sorted_dedup(bound);
            // The stage predicate keeps the bound variables needed later,
            // non-parameters first so that parameters stay trailing.
            let mut keep: Vec<CVar> = bound
                .iter()
                .copied()
                .filter(|v| needed_after[i + 1].contains(v) && !param_vars.contains(v))
                .collect();
            let stage_params: Vec<CVar> =
                param_vars.iter().copied().filter(|v| bound.contains(v)).collect();
            let num_stage_params = stage_params.len();
            keep.extend(stage_params);
            let name = format!("{}~{}", query.program.pred(c.head).name, fresh_counter);
            fresh_counter += 1;
            let stage = out.add_idb_with_params(name, keep.len(), num_stage_params);
            for (variant, _) in variants {
                let mut body: Vec<BodyAtom> = Vec::with_capacity(2);
                if let Some((prev_atom, _)) = &prev {
                    body.push(prev_atom.clone());
                }
                body.extend(variant);
                let clause = Clause { head: stage, head_args: keep.clone(), body, num_vars };
                add_charged(&mut out, clause, budget)?;
            }
            prev = Some((BodyAtom::Pred(stage, keep.clone()), keep));
        }

        // Final clause: head from the last stage plus the equalities.
        let mut body: Vec<BodyAtom> = Vec::new();
        if let Some((prev_atom, _)) = prev {
            body.push(prev_atom);
        }
        body.extend(equalities);
        out.add_clause(Clause {
            head: pred_map[&c.head],
            head_args: c.head_args.clone(),
            body,
            num_vars,
        });
    }
    Ok(NdlQuery::new(out, pred_map[&query.goal]))
}

fn sorted_dedup(mut v: Vec<CVar>) -> Vec<CVar> {
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{is_linear, width};
    use crate::eval::evaluate;
    use crate::storage::Database;
    use obda_owlql::parser::{parse_data, parse_ontology};
    use obda_owlql::Ontology;

    /// Π: G(x) ← R(x, y) ∧ B(y) over complete instances.
    fn sample(o: &Ontology) -> NdlQuery {
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let b = p.edb_class(v.get_class("B").unwrap(), v);
        let g = p.add_idb_with_params("G", 1, 1);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)]), BodyAtom::Pred(b, vec![CVar(1)])],
            num_vars: 2,
        });
        NdlQuery::new(p, g)
    }

    fn fixture() -> (Ontology, obda_owlql::DataInstance) {
        // B is implied by A and by having an incoming S-edge; S implies R.
        let o = parse_ontology(
            "A SubClassOf B\n\
             exists S- SubClassOf B\n\
             S SubPropertyOf R\n",
        )
        .unwrap();
        // Raw (incomplete) data: neither B nor R appear explicitly.
        let d = parse_data("S(u, w)\nA(z)\nS(z, z2)\n", &o).unwrap();
        (o, d)
    }

    #[test]
    fn star_matches_evaluation_over_completed_data() {
        let (o, d) = fixture();
        let tx = o.taxonomy();
        let q = sample(&o);
        let starred = star_transform(&q, &tx, o.vocab(), &mut Budget::unlimited()).unwrap();
        let r_star = evaluate(&starred, &Database::new(&d)).unwrap();
        let r_complete = evaluate(&q, &Database::new(&d.complete(&tx))).unwrap();
        assert_eq!(r_star.answers, r_complete.answers);
        // u has an S-edge to w which implies R(u, w) and B(w); likewise z.
        assert_eq!(r_star.answers.len(), 2);
    }

    #[test]
    fn linear_star_matches_and_stays_linear() {
        let (o, d) = fixture();
        let tx = o.taxonomy();
        let q = sample(&o);
        assert!(is_linear(&q.program));
        let starred = linear_star_transform(&q, &tx, o.vocab(), &mut Budget::unlimited()).unwrap();
        assert!(is_linear(&starred.program), "Lemma 3 must preserve linearity");
        let r_lin = evaluate(&starred, &Database::new(&d)).unwrap();
        let r_complete = evaluate(&q, &Database::new(&d.complete(&tx))).unwrap();
        assert_eq!(r_lin.answers, r_complete.answers);
        // Width grows by at most one (Lemma 3).
        assert!(width(&starred.program) <= width(&q.program) + 1);
    }

    #[test]
    fn naive_star_is_not_linear_in_general() {
        let (o, _) = fixture();
        let tx = o.taxonomy();
        let q = sample(&o);
        let starred = star_transform(&q, &tx, o.vocab(), &mut Budget::unlimited()).unwrap();
        // R* and B* are IDB, so the main clause has two IDB atoms.
        assert!(!is_linear(&starred.program));
    }

    #[test]
    fn reflexive_roles_add_diagonal() {
        let o = parse_ontology("Reflexive R\nClass B\n").unwrap();
        let tx = o.taxonomy();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let g = p.add_idb_with_params("G", 2, 2);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        let q = NdlQuery::new(p, g);
        let starred = star_transform(&q, &tx, v, &mut Budget::unlimited()).unwrap();
        let d = parse_data("B(a)\nB(b)\n", &o).unwrap();
        let res = evaluate(&starred, &Database::new(&d)).unwrap();
        // R*(x,x) holds for every individual.
        assert_eq!(res.answers.len(), 2);
        for t in &res.answers {
            assert_eq!(t[0], t[1]);
        }
    }

    #[test]
    fn equalities_survive_linear_transform() {
        let (o, d) = fixture();
        let tx = o.taxonomy();
        let v = o.vocab();
        let mut p = Program::new();
        let b = p.edb_class(v.get_class("B").unwrap(), v);
        let g = p.add_idb_with_params("G", 2, 2);
        // G(x, y) ← B(x) ∧ (x = y).
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(b, vec![CVar(0)]), BodyAtom::Eq(CVar(0), CVar(1))],
            num_vars: 2,
        });
        let q = NdlQuery::new(p, g);
        let starred = linear_star_transform(&q, &tx, v, &mut Budget::unlimited()).unwrap();
        let r_lin = evaluate(&starred, &Database::new(&d)).unwrap();
        let r_complete = evaluate(&q, &Database::new(&d.complete(&tx))).unwrap();
        assert_eq!(r_lin.answers, r_complete.answers);
        assert!(!r_lin.answers.is_empty());
    }
}
