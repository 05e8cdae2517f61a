//! The succinctness machinery of Theorems 20, 21 and Lemma 26
//! (Appendix C.2–C.3): the tree instances `A^α_m`, the queries `q̄_φ(x)`,
//! and the PE-query `q_m` whose evaluation over trees is NP-hard.
//!
//! * `A^α_m` is the full binary tree of depth `ℓ = log₂ m` over `P₋`
//!   (left) and `P₊` (right), with `A` at the root and `B₀` at the `i`-th
//!   leaf iff `α_i = 1`.
//! * `q̄_φ(x)` extends the Theorem 17 query with *address rays*: clause
//!   `j`'s ray, after the usual `k` polarity atoms, descends `ℓ` more
//!   steps along the binary encoding of `j − 1` and ends in `B₀`; so
//!   `T†, A^α_m ⊨ q̄_φ(a)` iff `f_φ(α) = 1` iff `φ^{−α}` (the clauses `j`
//!   with `α_j = 0`) is satisfiable (Lemma 26).
//! * `q_m` (Theorem 21 / 28) is a fixed PE-query, encoded here as an NDL
//!   program with one auxiliary predicate per disjunction, such that
//!   `A^α_m ⊨ q_m(a)` iff the 3-CNF `φ_k^{−α}` is satisfiable — so PE
//!   evaluation over the tree class `T` is NP-hard.

use crate::sat::Cnf;
use obda_cq::query::Cq;
use obda_ndl::program::{BodyAtom, CVar, Clause, NdlQuery, PredKind, Program};
use obda_owlql::abox::{ConstId, DataInstance};
use obda_owlql::Ontology;

/// Builds the tree instance `A^α_m` over the `T†` vocabulary.
///
/// # Panics
/// Panics unless `alpha.len()` is a power of two (at least 2).
pub fn tree_instance(ontology: &Ontology, alpha: &[bool]) -> DataInstance {
    let m = alpha.len();
    assert!(m >= 2 && m.is_power_of_two(), "m must be a power of two");
    let ell = m.trailing_zeros() as usize;
    let vocab = ontology.vocab();
    let a_class = vocab.get_class("A").expect("A exists");
    let b0 = vocab.get_class("Bzero").expect("Bzero exists");
    let p_minus = vocab.get_prop("Pminus").expect("Pminus exists");
    let p_plus = vocab.get_prop("Pplus").expect("Pplus exists");

    let mut data = DataInstance::new();
    // Heap-indexed nodes 1..2m−1; node 1 is the root `a`.
    let consts: Vec<ConstId> = (1..2 * m)
        .map(|i| data.constant(if i == 1 { "a".into() } else { format!("n{i}") }.as_str()))
        .collect();
    let node = |i: usize| consts[i - 1];
    data.add_class_atom(a_class, node(1));
    for i in 1..m {
        data.add_prop_atom(p_minus, node(i), node(2 * i));
        data.add_prop_atom(p_plus, node(i), node(2 * i + 1));
    }
    // Leaf i (0-based) is heap node m + i; bit `l` of i selects the child
    // taken at depth l (0 = left = P₋).
    for (i, &marked) in alpha.iter().enumerate() {
        if marked {
            data.add_class_atom(b0, node(m + i));
        }
    }
    let _ = ell;
    data
}

/// `f_φ(α) = 1` iff `φ^{−α}` — `φ` with the clauses `j` having `α_j = 1`
/// removed — is satisfiable.
pub fn f_phi(cnf: &Cnf, alpha: &[bool]) -> bool {
    assert_eq!(cnf.clauses.len(), alpha.len());
    let remaining: Vec<Vec<i32>> = cnf
        .clauses
        .iter()
        .zip(alpha)
        .filter(|&(_, &removed)| !removed)
        .map(|(c, _)| c.clone())
        .collect();
    Cnf { num_vars: cnf.num_vars, clauses: remaining }.satisfiable()
}

/// The query `q̄_φ(x)` of Appendix C.2: the Theorem 17 star with one
/// answer variable `x` at the end of a `P₀`-chain of length `k` from the
/// centre, and each clause ray extended by `ℓ` address atoms spelling the
/// binary encoding of its clause index, ending in `B₀`.
pub fn q_bar_phi(ontology: &Ontology, cnf: &Cnf) -> Cq {
    let m = cnf.clauses.len();
    assert!(m.is_power_of_two(), "pad the clause list to a power of two");
    let ell = m.trailing_zeros() as usize;
    let k = cnf.num_vars;
    let vocab = ontology.vocab();
    let b0 = vocab.get_class("Bzero").expect("Bzero exists");
    let p_plus = vocab.get_prop("Pplus").expect("Pplus exists");
    let p_minus = vocab.get_prop("Pminus").expect("Pminus exists");
    let p_zero = vocab.get_prop("Pzero").expect("Pzero exists");

    let mut q = Cq::new();
    let x = q.var("x");
    q.add_answer_var(x);
    // The spine P₀(y¹, x), P₀(y², y¹), …, P₀(yᵏ, yᵏ⁻¹): the assignment
    // point yᵏ sits k anonymous levels above x.
    let mut upper = x;
    let mut spine = Vec::with_capacity(k);
    for l in 1..=k {
        let y = q.var(&format!("y{l}"));
        q.add_prop_atom(p_zero, y, upper);
        spine.push(y);
        upper = y;
    }
    let centre = *spine.last().expect("k ≥ 1");

    for (j, clause) in cnf.clauses.iter().enumerate() {
        // Clause part, as in Theorem 17 (z^k_j = yᵏ).
        let mut upper = centre;
        for l in (0..k).rev() {
            let var_1based = (l + 1) as i32;
            let prop = if clause.contains(&var_1based) {
                p_plus
            } else if clause.contains(&-var_1based) {
                p_minus
            } else {
                p_zero
            };
            let lower = q.var(&format!("z{l}_{j}"));
            q.add_prop_atom(prop, upper, lower);
            upper = lower;
        }
        // Address part: descend the data tree along the bits of j, most
        // significant bit first (matching `tree_instance`'s leaf layout).
        for l in 0..ell {
            let bit = (j >> (ell - 1 - l)) & 1;
            let prop = if bit == 0 { p_minus } else { p_plus };
            let lower = q.var(&format!("w{l}_{j}"));
            q.add_prop_atom(prop, upper, lower);
            upper = lower;
        }
        q.add_class_atom(b0, upper);
    }
    q
}

/// All `8·C(k,3)` three-literal clauses over `k ≥ 3` variables, in a fixed
/// order, padded with repeats of the first clause up to a power of two.
/// This is the fixed CNF `φ_k` of Theorem 28 (padding clauses are expected
/// to be removed via `α`).
pub fn phi_k(k: usize) -> Cnf {
    assert!(k >= 3);
    let mut clauses = Vec::new();
    for i in 1..=k as i32 {
        for j in i + 1..=k as i32 {
            for l in j + 1..=k as i32 {
                for signs in 0..8u8 {
                    let s = |v: i32, bit: u8| if signs & bit != 0 { -v } else { v };
                    clauses.push(vec![s(i, 1), s(j, 2), s(l, 4)]);
                }
            }
        }
    }
    let m = clauses.len().next_power_of_two();
    while clauses.len() < m {
        clauses.push(clauses[0].clone());
    }
    Cnf { num_vars: k, clauses }
}

/// The `α` selecting a sub-CNF `ψ ⊆ φ_k`: `α_i = 0` iff clause `i` of
/// `φ_k` occurs in `ψ` (padding clauses are always removed).
pub fn alpha_for(phi: &Cnf, psi: &Cnf) -> Vec<bool> {
    let keep: Vec<Vec<i32>> = psi
        .clauses
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.sort_by_key(|l| (l.abs(), *l));
            c
        })
        .collect();
    let mut used = vec![false; keep.len()];
    phi.clauses
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.sort_by_key(|l| (l.abs(), *l));
            // Keep the first unused occurrence of each ψ-clause (φ_k has
            // no duplicates before the padding).
            match keep.iter().position(|k| *k == c) {
                Some(pos) if !used[pos] => {
                    used[pos] = true;
                    false // α = 0: clause kept
                }
                _ => true, // α = 1: clause removed
            }
        })
        .collect()
}

/// The PE-query `q_m(x)` of Theorem 28, as an NDL program (each `∨` of the
/// positive-existential matrix becomes an auxiliary predicate with one
/// clause per disjunct). `A^α_m ⊨ q_m(a)` iff `φ_k^{−α}` is satisfiable.
pub fn theorem_28_pe_query(ontology: &Ontology, k: usize) -> NdlQuery {
    let phi = phi_k(k);
    let m = phi.clauses.len();
    let ell = m.trailing_zeros() as usize;
    let vocab = ontology.vocab();
    let b0 = vocab.get_class("Bzero").expect("Bzero exists");
    let p_plus = vocab.get_prop("Pplus").expect("Pplus exists");
    let p_minus = vocab.get_prop("Pminus").expect("Pminus exists");

    let mut program = Program::new();
    let eb0 = program.edb_class(b0, vocab);
    let eplus = program.edb_prop(p_plus, vocab);
    let eminus = program.edb_prop(p_minus, vocab);
    let top = program.edb_top();

    // P±(u, v) := P₋(u, v) ∨ P₊(u, v).
    let pm = program.add_pred("Pboth", 2, PredKind::Idb);
    for e in [eplus, eminus] {
        program.add_clause(Clause {
            head: pm,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(e, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
    }
    // Assign_j(x, xj, x'j): a root-to-leaf P±-path of length ℓ from x whose
    // last step places the B₀ leaf on xj or on x'j (the inner disjunction
    // of the s-subqueries). Variables: 0 = x, 1 = xj, 2 = x'j, 3.. = path.
    let assign = program.add_pred("Assign", 3, PredKind::Idb);
    for leaf_first in [true, false] {
        let mut body = Vec::new();
        let mut prev = CVar(0);
        let mut next_var = 3u32;
        for _ in 0..ell.saturating_sub(1) {
            let nxt = CVar(next_var);
            next_var += 1;
            body.push(BodyAtom::Pred(pm, vec![prev, nxt]));
            prev = nxt;
        }
        let (leaf, parent) = if leaf_first { (CVar(1), CVar(2)) } else { (CVar(2), CVar(1)) };
        body.push(BodyAtom::Pred(pm, vec![prev, leaf]));
        body.push(BodyAtom::Pred(pm, vec![parent, prev]));
        body.push(BodyAtom::Pred(eb0, vec![leaf]));
        program.add_clause(Clause {
            head: assign,
            head_args: vec![CVar(0), CVar(1), CVar(2)],
            body,
            num_vars: next_var,
        });
    }

    // Goal: G(x) ← ⋀ᵢ rᵢ ∧ ⋀ⱼ Assign(x, xⱼ, x'ⱼ) ∧ ⋀ᵢ Tᵢ, with
    // Tᵢ(zᵢ, l₁, l₂, l₃) := B₀(zᵢ) ∨ B₀(l₁) ∨ B₀(l₂) ∨ B₀(l₃).
    let t_pred = program.add_pred("ClauseOk", 4, PredKind::Idb);
    for pos in 0..4u32 {
        program.add_clause(Clause {
            head: t_pred,
            head_args: vec![CVar(0), CVar(1), CVar(2), CVar(3)],
            body: std::iter::once(BodyAtom::Pred(eb0, vec![CVar(pos)]))
                // The other variables still need bindings; `⊤` them.
                .chain((0..4u32).filter(|&v| v != pos).map(|v| BodyAtom::Pred(top, vec![CVar(v)])))
                .collect(),
            num_vars: 4,
        });
    }

    let goal = program.add_idb_with_params("G", 1, 1);
    let mut body = Vec::new();
    let mut next_var = 1u32;
    let fresh = |next_var: &mut u32| {
        let v = CVar(*next_var);
        *next_var += 1;
        v
    };
    // Literal variables: x_j at slots, x'_j following.
    let xj: Vec<CVar> = (0..k).map(|_| fresh(&mut next_var)).collect();
    let xpj: Vec<CVar> = (0..k).map(|_| fresh(&mut next_var)).collect();
    for j in 0..k {
        body.push(BodyAtom::Pred(assign, vec![CVar(0), xj[j], xpj[j]]));
    }
    for (i, clause) in phi.clauses.iter().enumerate() {
        // r_i: the address path from x to z_i.
        let mut prev = CVar(0);
        for l in 0..ell {
            let bit = (i >> (ell - 1 - l)) & 1;
            let e = if bit == 0 { eminus } else { eplus };
            let nxt = fresh(&mut next_var);
            body.push(BodyAtom::Pred(e, vec![prev, nxt]));
            prev = nxt;
        }
        let zi = prev;
        // t_i over z_i and the three literal variables.
        let lits: Vec<CVar> = clause
            .iter()
            .map(|&lit| {
                let v = (lit.unsigned_abs() as usize) - 1;
                if lit > 0 {
                    xj[v]
                } else {
                    xpj[v]
                }
            })
            .collect();
        body.push(BodyAtom::Pred(t_pred, vec![zi, lits[0], lits[1], lits[2]]));
    }
    program.add_clause(Clause { head: goal, head_args: vec![CVar(0)], body, num_vars: next_var });
    NdlQuery::new(program, goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::t_dagger;
    use obda_chase::homomorphism::HomSearch;
    use obda_chase::model::{CanonicalModel, Element};
    use obda_ndl::eval::evaluate;
    use obda_ndl::storage::Database;

    fn entails_qbar(cnf: &Cnf, alpha: &[bool]) -> bool {
        let o = t_dagger();
        let data = tree_instance(&o, alpha);
        let q = q_bar_phi(&o, cnf);
        let bound = 2 * cnf.num_vars + 2;
        let model = CanonicalModel::new(&o, &data, bound);
        let a = data.get_constant("a").expect("root");
        let x = q.get_var("x").expect("answer variable");
        HomSearch::new(&model, &q).exists(&[(x, Element::Const(a))])
    }

    #[test]
    fn tree_instance_shape() {
        let o = t_dagger();
        let d = tree_instance(&o, &[true, false, false, true]);
        assert_eq!(d.num_individuals(), 7);
        // 6 edges + A(a) + two B₀ leaves.
        assert_eq!(d.num_atoms(), 9);
    }

    #[test]
    fn lemma_26_on_paper_figure() {
        // Figure 3: φ = χ₁ ∧ χ₂ ∧ χ₃ ∧ χ₄ with χ₁ = p₁ ∨ ¬p₃ ∨ p₄,
        // χ₂ = ¬p₃ ∨ p₄ (the figure's ∧ is a typo for a clause), χ₃ = p₁,
        // χ₄ = ¬p₃ ∨ ¬p₄, and α = (0,1,1,0).
        let cnf =
            Cnf { num_vars: 4, clauses: vec![vec![1, -3, 4], vec![-3, 4], vec![1], vec![-3, -4]] };
        let alpha = [false, true, true, false];
        assert!(f_phi(&cnf, &alpha)); // χ₁ ∧ χ₄ is satisfiable
        assert!(entails_qbar(&cnf, &alpha));
        // Removing nothing: φ itself is satisfiable (p₁ = t, p₃ = f).
        assert!(f_phi(&cnf, &[false; 4]));
        assert!(entails_qbar(&cnf, &[false; 4]));
    }

    #[test]
    fn lemma_26_detects_unsatisfiable_remainders() {
        // φ = p₁ ∧ ¬p₁ ∧ (p₁ ∨ p₂) ∧ ¬p₂: any α keeping both χ₁ and χ₂
        // is unsatisfiable.
        let cnf = Cnf { num_vars: 2, clauses: vec![vec![1], vec![-1], vec![1, 2], vec![-2]] };
        assert!(!f_phi(&cnf, &[false; 4]));
        assert!(!entails_qbar(&cnf, &[false, false, true, true]));
        // Removing only χ₁ still leaves ¬p₁ ∧ (p₁ ∨ p₂) ∧ ¬p₂ — unsat.
        assert!(!f_phi(&cnf, &[true, false, false, false]));
        assert!(!entails_qbar(&cnf, &[true, false, false, false]));
        // Removing χ₁ and χ₂ leaves (p₁ ∨ p₂) ∧ ¬p₂ — satisfiable.
        assert!(f_phi(&cnf, &[true, true, false, false]));
        assert!(entails_qbar(&cnf, &[true, true, false, false]));
    }

    #[test]
    fn lemma_26_random_sweep() {
        for seed in 0..6 {
            let cnf = Cnf::random(2, 4, 400 + seed);
            let alpha: Vec<bool> = (0..4).map(|i| (seed >> i) & 1 == 1).collect();
            assert_eq!(
                entails_qbar(&cnf, &alpha),
                f_phi(&cnf, &alpha),
                "seed {seed}, clauses {:?}, α {alpha:?}",
                cnf.clauses
            );
        }
    }

    #[test]
    fn theorem_28_pe_query_decides_3sat() {
        let k = 3;
        let o = t_dagger();
        let phi = phi_k(k);
        let q = theorem_28_pe_query(&o, k);
        // ψ₁ = (p₁∨p₂∨p₃) ∧ (¬p₁∨¬p₂∨¬p₃): satisfiable.
        let psi_sat = Cnf { num_vars: 3, clauses: vec![vec![1, 2, 3], vec![-1, -2, -3]] };
        // ψ₂ = all eight sign patterns: unsatisfiable.
        let psi_unsat = Cnf { num_vars: 3, clauses: phi.clauses[..8].to_vec() };
        for (psi, expected) in [(&psi_sat, true), (&psi_unsat, false)] {
            assert_eq!(psi.satisfiable(), expected);
            let alpha = alpha_for(&phi, psi);
            let data = tree_instance(&o, &alpha);
            let res = evaluate(&q, &Database::new(&data)).unwrap();
            let a = data.get_constant("a").unwrap();
            assert_eq!(res.answers.contains(&vec![a]), expected, "ψ = {:?}", psi.clauses);
        }
    }
}
