//! Property-based cross-validation: for random (ontology, query, data)
//! triples, every rewriting strategy must compute exactly the certain
//! answers of the chase oracle — the central correctness invariant of the
//! reproduction.

use obda::{ObdaSystem, Strategy as Rewriting};
use obda_cq::query::Cq;
use obda_owlql::abox::DataInstance;
use obda_owlql::axiom::{Axiom, ClassExpr};
use obda_owlql::vocab::{Role, Vocab};
use obda_owlql::Ontology;
use proptest::prelude::*;

const NUM_CLASSES: u8 = 3;
const NUM_PROPS: u8 = 3;

fn base_vocab() -> Vocab {
    let mut v = Vocab::new();
    for i in 0..NUM_CLASSES {
        v.class(&format!("A{i}"));
    }
    for i in 0..NUM_PROPS {
        v.prop(&format!("P{i}"));
    }
    v
}

/// A compact encoding of a random axiom.
#[derive(Debug, Clone, Copy)]
struct AxiomSpec {
    kind: u8,
    a: u8,
    b: u8,
    flip: bool,
}

fn class_expr(idx: u8, flip: bool) -> ClassExpr {
    // Alternate between named classes and existentials.
    if idx.is_multiple_of(2) {
        ClassExpr::Class(obda_owlql::ClassId((idx / 2 % NUM_CLASSES) as u32))
    } else {
        ClassExpr::Exists(Role {
            prop: obda_owlql::PropId((idx / 2 % NUM_PROPS) as u32),
            inverse: flip,
        })
    }
}

fn build_ontology(specs: &[AxiomSpec]) -> Ontology {
    let axioms = specs
        .iter()
        .map(|s| match s.kind % 3 {
            0 => Axiom::SubClass(class_expr(s.a, s.flip), class_expr(s.b, !s.flip)),
            1 => Axiom::SubRole(
                Role { prop: obda_owlql::PropId((s.a % NUM_PROPS) as u32), inverse: s.flip },
                Role { prop: obda_owlql::PropId((s.b % NUM_PROPS) as u32), inverse: !s.flip },
            ),
            _ => Axiom::SubClass(
                class_expr(s.a, s.flip),
                ClassExpr::Exists(Role {
                    prop: obda_owlql::PropId((s.b % NUM_PROPS) as u32),
                    inverse: !s.flip,
                }),
            ),
        })
        .collect();
    Ontology::new(base_vocab(), axioms)
}

/// A random tree-shaped query: `parents[i]` < i+1 gives the tree over
/// variables v0..=n; each edge carries a property and an orientation;
/// class atoms and answer variables are sprinkled on top.
#[derive(Debug, Clone)]
struct QuerySpec {
    edges: Vec<(u8, u8, bool)>, // (parent choice, prop, orientation)
    class_atoms: Vec<(u8, u8)>, // (var choice, class)
    num_answer: u8,
}

fn build_query(spec: &QuerySpec, ontology: &Ontology) -> Cq {
    let vocab = ontology.vocab();
    let mut q = Cq::new();
    let n = spec.edges.len() + 1;
    let vars: Vec<_> = (0..n).map(|i| q.var(&format!("v{i}"))).collect();
    for (i, &(parent, prop, orient)) in spec.edges.iter().enumerate() {
        let child = vars[i + 1];
        let parent = vars[parent as usize % (i + 1)];
        let p = vocab.get_prop(&format!("P{}", prop % NUM_PROPS)).expect("prop");
        if orient {
            q.add_prop_atom(p, parent, child);
        } else {
            q.add_prop_atom(p, child, parent);
        }
    }
    for &(var, class) in &spec.class_atoms {
        let c = vocab.get_class(&format!("A{}", class % NUM_CLASSES)).expect("class");
        q.add_class_atom(c, vars[var as usize % n]);
    }
    for &v in vars.iter().take(spec.num_answer as usize % (n + 1)) {
        q.add_answer_var(v);
    }
    q
}

fn build_data(atoms: &[(u8, u8, u8)], ontology: &Ontology) -> DataInstance {
    let vocab = ontology.vocab();
    let mut d = DataInstance::new();
    let consts: Vec<_> = (0..4).map(|i| d.constant(&format!("c{i}"))).collect();
    for &(kind, s, o) in atoms {
        if kind % 3 == 0 {
            let c = vocab.get_class(&format!("A{}", kind / 3 % NUM_CLASSES)).expect("class");
            d.add_class_atom(c, consts[s as usize % 4]);
        } else {
            let p = vocab.get_prop(&format!("P{}", kind / 3 % NUM_PROPS)).expect("prop");
            d.add_prop_atom(p, consts[s as usize % 4], consts[o as usize % 4]);
        }
    }
    d
}

fn axiom_spec() -> impl Strategy<Value = AxiomSpec> {
    (0u8..6, 0u8..12, 0u8..12, any::<bool>()).prop_map(|(kind, a, b, flip)| AxiomSpec {
        kind,
        a,
        b,
        flip,
    })
}

fn query_spec() -> impl Strategy<Value = QuerySpec> {
    (
        prop::collection::vec((any::<u8>(), 0u8..NUM_PROPS, any::<bool>()), 1..5),
        prop::collection::vec((any::<u8>(), 0u8..NUM_CLASSES), 0..3),
        any::<u8>(),
    )
        .prop_map(|(edges, class_atoms, num_answer)| QuerySpec {
            edges,
            class_atoms,
            num_answer,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    /// Every strategy that accepts the OMQ computes the oracle's answers.
    #[test]
    fn all_strategies_match_the_oracle(
        axioms in prop::collection::vec(axiom_spec(), 0..6),
        qspec in query_spec(),
        data_atoms in prop::collection::vec((0u8..9, 0u8..4, 0u8..4), 0..10),
    ) {
        let ontology = build_ontology(&axioms);
        let query = build_query(&qspec, &ontology);
        let data = build_data(&data_atoms, &ontology);
        let system = ObdaSystem::new(ontology);
        let oracle = system.certain_answers(&query, &data).tuples();
        for strategy in Rewriting::ALL {
            match system.answer(&query, &data, strategy) {
                Ok(result) => prop_assert_eq!(
                    &result.answers, &oracle,
                    "strategy {} disagrees with the oracle on q = {}",
                    strategy, query.to_text(system.ontology().vocab())
                ),
                // Lin/Log refuse infinite-depth ontologies; baselines can
                // hit their caps. Tw and the oracle always apply to trees.
                Err(obda::ObdaError::Rewrite(_)) => {}
                Err(e) => return Err(TestCaseError::fail(format!("{strategy}: {e}"))),
            }
        }
        // Tw accepts every generated OMQ (tree-shaped, any depth), so at
        // least one strategy was actually exercised.
        prop_assert!(system.answer(&query, &data, Rewriting::Tw).is_ok());
    }

    /// The parallel, goal-directed engine matches the chase oracle end to
    /// end: relevance-pruned, demand-driven evaluation at every thread
    /// count of the matrix (`OBDA_TEST_THREADS`, default `1,2,4`) computes
    /// the certain answers on random OMQs, closing the differential chain
    /// parallel = sequential = reference = oracle.
    #[test]
    fn parallel_engine_matches_the_oracle(
        axioms in prop::collection::vec(axiom_spec(), 0..6),
        qspec in query_spec(),
        data_atoms in prop::collection::vec((0u8..9, 0u8..4, 0u8..4), 0..10),
    ) {
        use obda::budget::BudgetSpec;
        use obda_ndl::engine::EngineConfig;

        let ontology = build_ontology(&axioms);
        let query = build_query(&qspec, &ontology);
        let data = build_data(&data_atoms, &ontology);
        let system = ObdaSystem::new(ontology);
        let oracle = system.certain_answers(&query, &data).tuples();
        let threads: Vec<usize> = match std::env::var("OBDA_TEST_THREADS") {
            Ok(spec) => spec.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
            Err(_) => vec![1, 2, 4],
        };
        let spec = BudgetSpec::unlimited();
        for n in threads {
            for prune in [false, true] {
                let cfg = EngineConfig { threads: n, prune, ..EngineConfig::default() };
                let res = system
                    .answer_with_budget_engine(&query, &data, Rewriting::Tw, &spec, &cfg)
                    .unwrap();
                prop_assert_eq!(
                    &res.answers, &oracle,
                    "engine (threads={}, prune={}) disagrees with the oracle on q = {}",
                    n, prune, query.to_text(system.ontology().vocab())
                );
            }
        }
    }
}
