//! Random ontologies and tree-shaped CQs for the crate's property tests.

use obda_cq::query::{Cq, Var};
use obda_owlql::axiom::{Axiom, ClassExpr};
use obda_owlql::vocab::{Role, Vocab};
use obda_owlql::{ClassId, Ontology, PropId};

pub(crate) const NC: u32 = 3;
pub(crate) const NP: u32 = 2;

/// A random ontology over `A0..A2`, `P0, P1`; `cyclic` adds
/// `A0 ⊑ ∃P0` and `∃P0⁻ ⊑ ∃P0`, an infinite `P0`-chain whose
/// witnesses have interiors as long as the query's `P0`-paths.
pub(crate) fn random_ontology(specs: &[(u8, u8, u8, bool)], cyclic: bool) -> Ontology {
    let mut vocab = Vocab::new();
    for i in 0..NC {
        vocab.class(&format!("A{i}"));
    }
    for i in 0..NP {
        vocab.prop(&format!("P{i}"));
    }
    let role = |i: u8, inverse| Role { prop: PropId(u32::from(i) % NP), inverse };
    let class = |i: u8, inverse| {
        if i.is_multiple_of(2) {
            ClassExpr::Class(ClassId(u32::from(i / 2) % NC))
        } else {
            ClassExpr::Exists(role(i / 2, inverse))
        }
    };
    let mut axioms: Vec<Axiom> = specs
        .iter()
        .map(|&(kind, a, b, flip)| match kind % 3 {
            0 => Axiom::SubClass(class(a, flip), class(b, !flip)),
            1 => Axiom::SubRole(role(a, flip), role(b, !flip)),
            _ => Axiom::SubClass(class(a, flip), ClassExpr::Exists(role(b, !flip))),
        })
        .collect();
    if cyclic {
        axioms.push(Axiom::SubClass(class(0, false), ClassExpr::Exists(role(0, false))));
        axioms.push(Axiom::SubClass(
            ClassExpr::Exists(role(0, true)),
            ClassExpr::Exists(role(0, false)),
        ));
    }
    Ontology::new(vocab, axioms)
}

/// A random tree-shaped CQ: edge `i` joins variable `i + 1` to an
/// earlier one (half the time the previous one, so paths are common);
/// half the edges are `P0` pointing away from `v0`, the shape the
/// `cyclic` ontology folds; class atoms sit on top; the first
/// `answers` variables are answer variables (none: a Boolean query).
pub(crate) fn random_tree_cq(edges: &[(u8, u8)], classes: &[(u8, u8)], answers: u8) -> Cq {
    let mut q = Cq::new();
    let n = edges.len() + 1;
    let vars: Vec<Var> = (0..n).map(|i| q.var(&format!("v{i}"))).collect();
    for (i, &(parent, kind)) in edges.iter().enumerate() {
        let parent = if parent < 128 { i } else { parent as usize % (i + 1) };
        let (child, parent) = (vars[i + 1], vars[parent]);
        match kind % 4 {
            0 | 1 => q.add_prop_atom(PropId(0), parent, child),
            2 => q.add_prop_atom(PropId(1), parent, child),
            _ => q.add_prop_atom(PropId(u32::from(kind / 4) % NP), child, parent),
        }
    }
    for &(var, c) in classes {
        q.add_class_atom(ClassId(u32::from(c) % NC), vars[var as usize % n]);
    }
    for &v in vars.iter().take(answers as usize % (n + 1)) {
        q.add_answer_var(v);
    }
    q
}
