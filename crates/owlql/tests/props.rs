//! Property tests for the OWL 2 QL substrate: saturation is a closure,
//! completion is idempotent and monotone, and the word arena only contains
//! valid `W_T` words.

use obda_owlql::axiom::{Axiom, ClassExpr};
use obda_owlql::vocab::{Role, Vocab};
use obda_owlql::words::{ontology_depth, word_transition, WordArena};
use obda_owlql::{DataInstance, Ontology};
use proptest::prelude::*;

const NC: u32 = 3;
const NP: u32 = 3;

fn vocab() -> Vocab {
    let mut v = Vocab::new();
    for i in 0..NC {
        v.class(&format!("A{i}"));
    }
    for i in 0..NP {
        v.prop(&format!("P{i}"));
    }
    v
}

fn expr(i: u8, flip: bool) -> ClassExpr {
    match i % 3 {
        0 => ClassExpr::Class(obda_owlql::ClassId((i as u32 / 3) % NC)),
        1 => {
            ClassExpr::Exists(Role { prop: obda_owlql::PropId((i as u32 / 3) % NP), inverse: flip })
        }
        _ => ClassExpr::Top,
    }
}

fn ontology(specs: &[(u8, u8, u8, bool)]) -> Ontology {
    let axioms = specs
        .iter()
        .map(|&(kind, a, b, flip)| match kind % 4 {
            0 => Axiom::SubClass(expr(a, flip), expr(b, !flip)),
            1 => Axiom::SubRole(
                Role { prop: obda_owlql::PropId(a as u32 % NP), inverse: flip },
                Role { prop: obda_owlql::PropId(b as u32 % NP), inverse: !flip },
            ),
            2 => Axiom::Reflexive(Role::direct(obda_owlql::PropId(a as u32 % NP))),
            _ => Axiom::SubClass(
                expr(a, flip),
                ClassExpr::Exists(Role { prop: obda_owlql::PropId(b as u32 % NP), inverse: flip }),
            ),
        })
        .collect();
    Ontology::new(vocab(), axioms)
}

fn data(atoms: &[(u8, u8, u8)], o: &Ontology) -> DataInstance {
    let v = o.vocab();
    let mut d = DataInstance::new();
    let cs: Vec<_> = (0..4).map(|i| d.constant(&format!("c{i}"))).collect();
    for &(kind, s, t) in atoms {
        if kind % 2 == 0 {
            d.add_class_atom(obda_owlql::ClassId((kind as u32 / 2) % NC), cs[s as usize % 4]);
        } else {
            d.add_prop_atom(
                obda_owlql::PropId((kind as u32 / 2) % NP),
                cs[s as usize % 4],
                cs[t as usize % 4],
            );
        }
    }
    let _ = v;
    d
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn saturation_is_transitive_and_reflexive(
        specs in prop::collection::vec((0u8..8, any::<u8>(), any::<u8>(), any::<bool>()), 0..8),
    ) {
        let o = ontology(&specs);
        let tx = o.taxonomy();
        let n_classes = o.vocab().num_classes();
        let n_props = o.vocab().num_props();
        let exprs: Vec<ClassExpr> = (0..ClassExpr::index_count(n_classes, n_props))
            .map(|i| ClassExpr::from_index(i, n_classes))
            .collect();
        for &e in &exprs {
            prop_assert!(tx.sub_class(e, e), "reflexivity");
            prop_assert!(tx.sub_class(e, ClassExpr::Top), "top is universal");
        }
        for &a in &exprs {
            for &b in &exprs {
                if !tx.sub_class(a, b) { continue; }
                for &c in &exprs {
                    if tx.sub_class(b, c) {
                        prop_assert!(tx.sub_class(a, c), "transitivity");
                    }
                }
            }
        }
        // Role closure under inverses.
        for r in o.vocab().roles() {
            for s in o.vocab().roles() {
                if tx.sub_role(r, s) {
                    prop_assert!(tx.sub_role(r.inv(), s.inv()));
                    prop_assert!(tx.sub_class(ClassExpr::Exists(r), ClassExpr::Exists(s)));
                }
            }
        }
    }

    #[test]
    fn completion_is_idempotent_and_monotone(
        specs in prop::collection::vec((0u8..8, any::<u8>(), any::<u8>(), any::<bool>()), 0..6),
        atoms in prop::collection::vec((0u8..8, 0u8..4, 0u8..4), 0..10),
    ) {
        let o = ontology(&specs);
        let tx = o.taxonomy();
        let d = data(&atoms, &o);
        let c1 = d.complete(&tx);
        let c2 = c1.complete(&tx);
        prop_assert_eq!(c1.num_atoms(), c2.num_atoms(), "idempotence");
        prop_assert!(c1.num_atoms() >= d.num_atoms(), "monotone");
        prop_assert!(c1.is_complete(&tx));
    }

    #[test]
    fn word_arena_contains_only_valid_words(
        specs in prop::collection::vec((0u8..8, any::<u8>(), any::<u8>(), any::<bool>()), 0..8),
    ) {
        let o = ontology(&specs);
        let tx = o.taxonomy();
        let arena = WordArena::new(&tx, 3);
        for w in arena.iter() {
            let letters = arena.letters_of(w);
            for &l in &letters {
                prop_assert!(!tx.is_reflexive(l), "letters are irreflexive");
            }
            for pair in letters.windows(2) {
                prop_assert!(word_transition(&tx, pair[0], pair[1]), "transitions hold");
            }
        }
        // Depth agreement: if the depth is finite and ≤ 3, the arena's
        // longest word matches it.
        if let Some(d) = ontology_depth(&tx) {
            if d <= 3 {
                let max_len = arena.iter().map(|w| arena.word_len(w)).max().unwrap_or(0);
                prop_assert_eq!(max_len, d);
            }
        }
    }

    #[test]
    fn consistency_is_antitone_in_data(
        specs in prop::collection::vec((0u8..8, any::<u8>(), any::<u8>(), any::<bool>()), 0..6),
        atoms in prop::collection::vec((0u8..8, 0u8..4, 0u8..4), 1..10),
        disjoint in (0u8..3, 0u8..3),
    ) {
        // Add one disjointness axiom, then: if a data instance is
        // inconsistent, every superset is inconsistent too.
        let _ = &specs;
        let axioms = vec![Axiom::DisjointClasses(
            ClassExpr::Class(obda_owlql::ClassId(disjoint.0 as u32)),
            ClassExpr::Class(obda_owlql::ClassId(disjoint.1 as u32)),
        )];
        let o = Ontology::new(vocab(), axioms);
        let tx = o.taxonomy();
        let smaller = data(&atoms[..atoms.len() / 2], &o);
        let larger = data(&atoms, &o);
        if !smaller.is_consistent(&tx) {
            prop_assert!(!larger.is_consistent(&tx));
        }
    }
}
