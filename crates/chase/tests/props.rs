//! Property tests for the chase: canonical-model internal consistency and
//! monotonicity of certain answers in both the ontology and the data.

use obda_chase::answer::certain_answers;
use obda_chase::model::CanonicalModel;
use obda_cq::parse_cq;
use obda_owlql::axiom::{Axiom, ClassExpr};
use obda_owlql::vocab::{Role, Vocab};
use obda_owlql::{DataInstance, Ontology};
use proptest::prelude::*;

fn vocab() -> Vocab {
    let mut v = Vocab::new();
    for i in 0..3 {
        v.class(&format!("A{i}"));
    }
    for i in 0..2 {
        v.prop(&format!("P{i}"));
    }
    v
}

fn axiom(spec: (u8, u8, u8, bool)) -> Axiom {
    let (kind, a, b, flip) = spec;
    let class = |i: u8| ClassExpr::Class(obda_owlql::ClassId(i as u32 % 3));
    let role = |i: u8, f: bool| Role { prop: obda_owlql::PropId(i as u32 % 2), inverse: f };
    match kind % 3 {
        0 => Axiom::SubClass(class(a), class(b)),
        1 => Axiom::SubClass(class(a), ClassExpr::Exists(role(b, flip))),
        _ => Axiom::SubClass(ClassExpr::Exists(role(a, flip)), class(b)),
    }
}

fn data(atoms: &[(u8, u8, u8)]) -> DataInstance {
    let mut d = DataInstance::new();
    let cs: Vec<_> = (0..3).map(|i| d.constant(&format!("c{i}"))).collect();
    for &(kind, s, t) in atoms {
        if kind % 2 == 0 {
            d.add_class_atom(obda_owlql::ClassId((kind as u32 / 2) % 3), cs[s as usize % 3]);
        } else {
            d.add_prop_atom(
                obda_owlql::PropId((kind as u32 / 2) % 2),
                cs[s as usize % 3],
                cs[t as usize % 3],
            );
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// `role_successors` agrees with `satisfies_role` on the materialised
    /// elements.
    #[test]
    fn successors_agree_with_satisfaction(
        specs in prop::collection::vec((0u8..3, any::<u8>(), any::<u8>(), any::<bool>()), 0..5),
        atoms in prop::collection::vec((0u8..6, 0u8..3, 0u8..3), 0..6),
    ) {
        let o = Ontology::new(vocab(), specs.iter().copied().map(axiom).collect());
        let d = data(&atoms);
        let model = CanonicalModel::new(&o, &d, 2);
        let elements = model.elements();
        for r in o.vocab().roles() {
            for &u in &elements {
                let succ = model.role_successors(r, u);
                for &v in &elements {
                    prop_assert_eq!(
                        succ.contains(&v),
                        model.satisfies_role(r, u, v),
                        "role {:?} between {:?} and {:?}", r, u, v
                    );
                }
            }
        }
    }

    /// Certain answers are monotone in the ontology and the data.
    #[test]
    fn certain_answers_are_monotone(
        specs in prop::collection::vec((0u8..3, any::<u8>(), any::<u8>(), any::<bool>()), 1..5),
        atoms in prop::collection::vec((0u8..6, 0u8..3, 0u8..3), 2..8),
    ) {
        let all: Vec<Axiom> = specs.iter().copied().map(axiom).collect();
        let o_small = Ontology::new(vocab(), all[..all.len() - 1].to_vec());
        let o_big = Ontology::new(vocab(), all);
        let q = parse_cq("q(x) :- P0(x, y), A0(y)", &o_big).unwrap();
        let d_small = data(&atoms[..atoms.len() / 2]);
        let d_big = data(&atoms);

        // More axioms → no fewer answers.
        let small = certain_answers(&o_small, &q, &d_big).tuples();
        let big = certain_answers(&o_big, &q, &d_big).tuples();
        for t in &small {
            prop_assert!(big.contains(t), "ontology monotonicity");
        }
        // More data → no fewer answers (constants are shared by
        // construction: both instances intern c0..c2 up front).
        let small_d = certain_answers(&o_big, &q, &d_small).tuples();
        let big_d = certain_answers(&o_big, &q, &d_big).tuples();
        for t in &small_d {
            prop_assert!(big_d.contains(t), "data monotonicity");
        }
    }
}
