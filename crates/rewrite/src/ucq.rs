//! A PerfectRef-style UCQ rewriter (the baseline standing in for the
//! UCQ-producing systems — Rapid, Clipper — compared against in Section 6).
//!
//! Implements the classical two-rule saturation of Calvanese et al. (2007)
//! on the normalised OWL 2 QL language:
//!
//! * **atom rewriting** — replace an atom by the left-hand side of an
//!   applicable axiom (`τ ⊑ A` applies to `A(t)`; `r ⊑ s` applies to an
//!   `s`-atom; `τ ⊑ ∃̺` applies to `̺(t, t′)` when `t′` is *unbound*, i.e.
//!   occurs nowhere else);
//! * **reduction** — unify two atoms of a CQ and continue from the smaller
//!   CQ (needed so that variables become unbound).
//!
//! The result is exponential in general — exactly the behaviour Figure 2
//! documents for these systems — so the rewriter takes a clause cap.
//!
//! The produced UCQ is a rewriting over **arbitrary** data instances.

use crate::omq::{Omq, RewriteError, Rewriter};
use obda_budget::Budget;
use obda_cq::query::{Atom, Var};
use obda_ndl::program::{BodyAtom, CVar, Clause, NdlQuery, Program};
use obda_owlql::axiom::{Axiom, ClassExpr};
use obda_owlql::util::FxHashSet;
use obda_owlql::vocab::{ClassId, Role};
use std::collections::BTreeSet;

/// An atom of a UCQ disjunct; terms are variable numbers, answer variables
/// keeping their original numbers and existential variables renamed
/// canonically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum UAtom {
    Class(ClassId, u32),
    Prop(obda_owlql::vocab::PropId, u32, u32),
}

impl UAtom {
    fn vars(self) -> impl Iterator<Item = u32> {
        let (a, b) = match self {
            UAtom::Class(_, t) => (t, None),
            UAtom::Prop(_, t, t2) => (t, Some(t2)),
        };
        std::iter::once(a).chain(b)
    }

    fn rename(self, f: &mut impl FnMut(u32) -> u32) -> UAtom {
        match self {
            UAtom::Class(c, t) => UAtom::Class(c, f(t)),
            UAtom::Prop(p, t, t2) => UAtom::Prop(p, f(t), f(t2)),
        }
    }

    /// The role atom view: `̺(x, y)` for `̺ = P` / `P⁻`.
    fn as_role(self, role: Role) -> Option<(u32, u32)> {
        match self {
            UAtom::Prop(p, t, t2) if p == role.prop => {
                Some(if role.inverse { (t2, t) } else { (t, t2) })
            }
            _ => None,
        }
    }
}

/// One disjunct: a sorted atom set (answer variables are `0..num_answer`,
/// existential variables canonically renamed above that).
type Disjunct = BTreeSet<UAtom>;

/// The PerfectRef-style rewriter.
#[derive(Debug, Clone, Copy)]
pub struct UcqRewriter {
    /// Abort with [`RewriteError::TooLarge`] past this many disjuncts.
    pub cap: usize,
}

impl Default for UcqRewriter {
    fn default() -> Self {
        UcqRewriter { cap: 20_000 }
    }
}

fn canonicalise(atoms: &BTreeSet<UAtom>, num_answer: u32) -> Disjunct {
    // Rename existential variables by first occurrence in the sorted atom
    // sequence; repeat until stable (two passes suffice in practice).
    let mut current: Vec<UAtom> = atoms.iter().copied().collect();
    for _ in 0..3 {
        current.sort();
        let mut map: Vec<(u32, u32)> = Vec::new();
        let mut next = num_answer;
        let rename = |v: u32, map: &mut Vec<(u32, u32)>, next: &mut u32| -> u32 {
            if v < num_answer {
                return v;
            }
            if let Some(&(_, n)) = map.iter().find(|&&(o, _)| o == v) {
                return n;
            }
            let n = *next;
            *next += 1;
            map.push((v, n));
            n
        };
        current =
            current.iter().map(|a| a.rename(&mut |v| rename(v, &mut map, &mut next))).collect();
    }
    current.into_iter().collect()
}

fn budget_err(e: obda_budget::BudgetExceeded, seen: &FxHashSet<Disjunct>) -> RewriteError {
    RewriteError::from_budget(e, seen.len(), seen.iter().map(|d| d.len()).sum())
}

fn push_disjunct(
    atoms: BTreeSet<UAtom>,
    num_answer: u32,
    seen: &mut FxHashSet<Disjunct>,
    queue: &mut Vec<Disjunct>,
) {
    let canon = canonicalise(&atoms, num_answer);
    if seen.insert(canon.clone()) {
        queue.push(canon);
    }
}

impl Rewriter for UcqRewriter {
    fn name(&self) -> &'static str {
        "UCQ"
    }

    fn rewrite_budgeted(
        &self,
        omq: &Omq<'_>,
        budget: &mut Budget,
    ) -> Result<NdlQuery, RewriteError> {
        // The produced UCQ is a rewriting over arbitrary instances, hence in
        // particular over complete ones.
        let q = omq.query;
        let num_answer = q.answer_vars().len() as u32;
        // Variable numbering: answer variables first.
        let var_num = |v: Var| -> u32 {
            if let Some(pos) = q.answer_vars().iter().position(|&x| x == v) {
                pos as u32
            } else {
                num_answer + v.0
            }
        };
        let initial: BTreeSet<UAtom> = q
            .atoms()
            .iter()
            .map(|&a| match a {
                Atom::Class(c, z) => UAtom::Class(c, var_num(z)),
                Atom::Prop(p, z, z2) => UAtom::Prop(p, var_num(z), var_num(z2)),
            })
            .collect();
        let initial = canonicalise(&initial, num_answer);

        let axioms: Vec<Axiom> = omq.ontology.axioms().to_vec();
        let mut seen: FxHashSet<Disjunct> = FxHashSet::default();
        let mut queue: Vec<Disjunct> = vec![initial.clone()];
        seen.insert(initial);
        let mut i = 0;
        let mut charged = 0usize;
        while i < queue.len() {
            if seen.len() > self.cap {
                return Err(RewriteError::TooLarge(self.cap));
            }
            // Charge the disjuncts minted since the last iteration: the
            // saturation is exponential by design, so the budget must see
            // growth as it happens, not at the end.
            budget
                .charge_clauses((seen.len() - charged) as u64)
                .map_err(|e| budget_err(e, &seen))?;
            charged = seen.len();
            let cq = queue[i].clone();
            i += 1;
            let max_var = cq.iter().flat_map(|a| a.vars()).max().unwrap_or(0);
            let fresh = max_var + 1;
            let unbound = |v: u32, without: UAtom| -> bool {
                v >= num_answer
                    && cq.iter().filter(|&&a| a != without).all(|a| a.vars().all(|u| u != v))
                    && without.vars().filter(|&u| u == v).count() == 1
            };

            // Atom-rewriting steps.
            for &g in cq.iter() {
                for &ax in &axioms {
                    budget.tick().map_err(|e| budget_err(e, &seen))?;
                    let apply = |replacement: Vec<UAtom>,
                                 seen: &mut FxHashSet<Disjunct>,
                                 queue: &mut Vec<Disjunct>| {
                        let mut next: BTreeSet<UAtom> = cq.clone();
                        next.remove(&g);
                        next.extend(replacement);
                        push_disjunct(next, num_answer, seen, queue);
                    };
                    match ax {
                        Axiom::SubClass(lhs, ClassExpr::Class(a)) => {
                            if let UAtom::Class(c, t) = g {
                                if c == a {
                                    match lhs {
                                        ClassExpr::Class(b) => {
                                            apply(vec![UAtom::Class(b, t)], &mut seen, &mut queue);
                                        }
                                        ClassExpr::Exists(r) => {
                                            let atom = role_atom(r, t, fresh);
                                            apply(vec![atom], &mut seen, &mut queue);
                                        }
                                        ClassExpr::Top => {}
                                    }
                                }
                            }
                        }
                        Axiom::SubClass(lhs, ClassExpr::Exists(r)) => {
                            // Applicable to an ̺-atom whose object is unbound.
                            if let Some((t, t2)) = g.as_role(r) {
                                if unbound(t2, g) {
                                    match lhs {
                                        ClassExpr::Class(b) => {
                                            apply(vec![UAtom::Class(b, t)], &mut seen, &mut queue);
                                        }
                                        ClassExpr::Exists(r2) => {
                                            let atom = role_atom(r2, t, fresh);
                                            apply(vec![atom], &mut seen, &mut queue);
                                        }
                                        ClassExpr::Top => {}
                                    }
                                }
                            }
                        }
                        Axiom::SubRole(r, s) => {
                            if let Some((t, t2)) = g.as_role(s) {
                                let atom = role_atom(r, t, t2);
                                apply(vec![atom], &mut seen, &mut queue);
                            }
                        }
                        Axiom::Reflexive(r) => {
                            // ̺(t, t′) with ∀x ̺(x,x) can collapse t′ into t.
                            if let Some((t, t2)) = g.as_role(r) {
                                if t != t2 {
                                    let mut next: BTreeSet<UAtom> = cq
                                        .iter()
                                        .map(|a| {
                                            a.rename(&mut |v| {
                                                if v == t2.max(t) {
                                                    t2.min(t)
                                                } else {
                                                    v
                                                }
                                            })
                                        })
                                        .collect();
                                    if t2.max(t) < num_answer {
                                        continue; // cannot merge two answer vars
                                    }
                                    next.remove(&role_atom(
                                        Role::direct(r.prop),
                                        t2.min(t),
                                        t2.min(t),
                                    ));
                                    push_disjunct(next, num_answer, &mut seen, &mut queue);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }

            // Reduction: unify pairs of atoms.
            let atoms: Vec<UAtom> = cq.iter().copied().collect();
            for (ai, &g1) in atoms.iter().enumerate() {
                for &g2 in &atoms[ai + 1..] {
                    budget.tick().map_err(|e| budget_err(e, &seen))?;
                    if let Some(unifier) = mgu(g1, g2, num_answer) {
                        let next: BTreeSet<UAtom> =
                            cq.iter().map(|a| a.rename(&mut |v| resolve(&unifier, v))).collect();
                        push_disjunct(next, num_answer, &mut seen, &mut queue);
                    }
                }
            }
        }

        // Emit as an NDL program: one clause per disjunct.
        let vocab = omq.ontology.vocab();
        let mut program = Program::new();
        let goal = program.add_idb_with_params("G", num_answer as usize, num_answer as usize);
        let mut disjuncts: Vec<Disjunct> = seen.into_iter().collect();
        disjuncts.sort();
        for cq in disjuncts {
            let num_vars = cq.iter().flat_map(|a| a.vars()).max().unwrap_or(0) + 1;
            let num_vars = num_vars.max(num_answer);
            let head_args: Vec<CVar> = (0..num_answer).map(CVar).collect();
            let mut body: Vec<BodyAtom> = Vec::new();
            for &a in &cq {
                match a {
                    UAtom::Class(c, t) => {
                        let p = program.edb_class(c, vocab);
                        body.push(BodyAtom::Pred(p, vec![CVar(t)]));
                    }
                    UAtom::Prop(p, t, t2) => {
                        let pe = program.edb_prop(p, vocab);
                        body.push(BodyAtom::Pred(pe, vec![CVar(t), CVar(t2)]));
                    }
                }
            }
            // An answer variable can disappear from a disjunct only via
            // reduction with another answer variable, which `mgu` forbids,
            // so bodies always bind the head — except for empty bodies.
            if body.is_empty() {
                continue;
            }
            let bound: Vec<CVar> = body.iter().flat_map(|a| a.vars()).collect();
            if head_args.iter().any(|c| !bound.contains(c)) {
                // Defensive: ⊤-pad rather than emit an unsafe clause.
                let top = program.edb_top();
                for &c in &head_args {
                    if !bound.contains(&c) {
                        body.push(BodyAtom::Pred(top, vec![c]));
                    }
                }
            }
            program.add_clause(Clause { head: goal, head_args, body, num_vars });
        }
        Ok(NdlQuery::new(program, goal))
    }
}

fn role_atom(role: Role, x: u32, y: u32) -> UAtom {
    if role.inverse {
        UAtom::Prop(role.prop, y, x)
    } else {
        UAtom::Prop(role.prop, x, y)
    }
}

/// Most general unifier of two atoms over the same predicate; answer
/// variables (below `num_answer`) unify only with themselves or with
/// existential variables.
fn mgu(g1: UAtom, g2: UAtom, num_answer: u32) -> Option<Vec<(u32, u32)>> {
    let pairs: Vec<(u32, u32)> = match (g1, g2) {
        (UAtom::Class(c1, t1), UAtom::Class(c2, t2)) if c1 == c2 => vec![(t1, t2)],
        (UAtom::Prop(p1, a1, b1), UAtom::Prop(p2, a2, b2)) if p1 == p2 => {
            vec![(a1, a2), (b1, b2)]
        }
        _ => return None,
    };
    let mut subst: Vec<(u32, u32)> = Vec::new();
    for (x, y) in pairs {
        let rx = resolve(&subst, x);
        let ry = resolve(&subst, y);
        if rx == ry {
            continue;
        }
        // Orient: replace the existential variable by the other.
        let (from, to) = if rx >= num_answer {
            (rx, ry)
        } else if ry >= num_answer {
            (ry, rx)
        } else {
            return None; // two distinct answer variables
        };
        subst.push((from, to));
    }
    Some(subst)
}

fn resolve(subst: &[(u32, u32)], mut v: u32) -> u32 {
    loop {
        match subst.iter().find(|&&(f, _)| f == v) {
            Some(&(_, t)) => v = t,
            None => return v,
        }
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

    #[test]
    fn matches_oracle_on_short_query() {
        let o = parse_ontology(
            "P SubPropertyOf S\n\
             P SubPropertyOf R-\n",
        )
        .unwrap();
        let q = parse_cq("q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let rw = UcqRewriter::default().rewrite_complete(&omq).unwrap();
        let d = parse_data("P(w1, a)\nR(a, b)\nP(b, c)\nS(c, d)\n", &o).unwrap();
        let res = evaluate(&rw, &Database::new(&d)).unwrap();
        let oracle = certain_answers(&o, &q, &d);
        assert_eq!(res.answers, oracle.tuples());
    }

    #[test]
    fn existential_witness_rewrites_away() {
        let o = parse_ontology(
            "A SubClassOf exists P\n\
             exists P- SubClassOf B\n",
        )
        .unwrap();
        let q = parse_cq("q(x) :- P(x, y), B(y)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let rw = UcqRewriter::default().rewrite_complete(&omq).unwrap();
        // A(a) alone suffices: the disjunct A(x) must be produced (P(x,y)
        // with unbound y after B(y) is rewritten into ∃P⁻, reduced, etc.).
        let d = parse_data("A(a)\n", &o).unwrap();
        let res = evaluate(&rw, &Database::new(&d)).unwrap();
        assert_eq!(res.answers.len(), 1);
        let oracle = certain_answers(&o, &q, &d);
        assert_eq!(res.answers, oracle.tuples());
    }

    #[test]
    fn grows_exponentially_on_the_paper_sequences() {
        // On OMQ(1,1,2) prefixes of sequence 1 the UCQ size must grow
        // super-linearly (the motivation for the paper's rewritings).
        let o = parse_ontology(
            "P SubPropertyOf S\n\
             P SubPropertyOf R-\n",
        )
        .unwrap();
        let sizes: Vec<usize> = [
            "q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)",
            "q(x0, x6) :- R(x0, x1), S(x1, x2), R(x2, x3), R(x3, x4), S(x4, x5), R(x5, x6)",
        ]
        .iter()
        .map(|src| {
            let q = parse_cq(src, &o).unwrap();
            let omq = Omq::new(&o, &q);
            UcqRewriter::default().rewrite_complete(&omq).unwrap().program.num_clauses()
        })
        .collect();
        assert!(sizes[1] > 2 * sizes[0], "{sizes:?}");
    }

    #[test]
    fn cap_triggers() {
        let o = parse_ontology(
            "P SubPropertyOf S\n\
             P SubPropertyOf R-\n",
        )
        .unwrap();
        let q = parse_cq(
            "q(x0, x6) :- R(x0, x1), S(x1, x2), R(x2, x3), R(x3, x4), S(x4, x5), R(x5, x6)",
            &o,
        )
        .unwrap();
        let omq = Omq::new(&o, &q);
        let r = UcqRewriter { cap: 3 }.rewrite_complete(&omq);
        assert_eq!(r.unwrap_err(), RewriteError::TooLarge(3));
    }
}
