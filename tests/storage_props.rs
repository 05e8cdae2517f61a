//! Property test for the full OBDA pipeline over the shared storage layer:
//! for random ontologies, data and chain queries, every strategy's
//! [`PreparedOmq`] executed on one shared [`Database`] returns exactly the
//! chase oracle's certain answers.

use obda::budget::Budget;
use obda::ndl::engine::EngineConfig;
use obda::ndl::storage::Database;
use obda::{ObdaSystem, Strategy, Telemetry};
use proptest::prelude::*;

const NUM_CLASSES: u8 = 3;
const NUM_PROPS: u8 = 2;

/// Renders a random ontology: fixed declarations plus random inclusions of
/// the three OWL 2 QL shapes `A ⊑ B`, `A ⊑ ∃R`, `∃R ⊑ B`.
fn ontology_text(specs: &[(u8, u8, u8, bool)]) -> String {
    let mut text = String::new();
    for i in 0..NUM_CLASSES {
        text.push_str(&format!("Class A{i}\n"));
    }
    for i in 0..NUM_PROPS {
        text.push_str(&format!("Property P{i}\n"));
    }
    for &(kind, a, b, flip) in specs {
        let ca = a % NUM_CLASSES;
        let cb = b % NUM_CLASSES;
        let role = format!("P{}{}", b % NUM_PROPS, if flip { "-" } else { "" });
        match kind % 3 {
            0 => text.push_str(&format!("A{ca} SubClassOf A{cb}\n")),
            1 => text.push_str(&format!("A{ca} SubClassOf exists {role}\n")),
            _ => text.push_str(&format!("exists {role} SubClassOf A{cb}\n")),
        }
    }
    text
}

fn data_text(atoms: &[(u8, u8, u8)]) -> String {
    let mut text = String::new();
    for &(kind, s, t) in atoms {
        if kind % 2 == 0 {
            text.push_str(&format!("A{}(c{})\n", (kind / 2) % NUM_CLASSES, s % 4));
        } else {
            text.push_str(&format!("P{}(c{}, c{})\n", (kind / 2) % NUM_PROPS, s % 4, t % 4));
        }
    }
    // Ensure at least one atom so the instance is non-degenerate.
    if text.is_empty() {
        text.push_str("A0(c0)\n");
    }
    text
}

/// A chain query `q(x0, xn) :- P(x0, x1), ..., P(x{n-1}, xn), [A(xm)]`.
fn query_text(props: &[u8], class_atom: Option<(u8, u8)>, binary: bool) -> String {
    let n = props.len();
    let mut atoms: Vec<String> = props
        .iter()
        .enumerate()
        .map(|(i, p)| format!("P{}(x{}, x{})", p % NUM_PROPS, i, i + 1))
        .collect();
    if let Some((c, at)) = class_atom {
        atoms.push(format!("A{}(x{})", c % NUM_CLASSES, at as usize % (n + 1)));
    }
    let head = if binary { format!("q(x0, x{n})") } else { "q(x0)".to_owned() };
    format!("{head} :- {}", atoms.join(", "))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Every strategy that produces a rewriting computes the oracle's
    /// certain answers when executed over a single shared `Database`.
    #[test]
    fn prepared_strategies_match_chase_oracle(
        axioms in prop::collection::vec((0u8..3, any::<u8>(), any::<u8>(), any::<bool>()), 0..5),
        atoms in prop::collection::vec((0u8..6, 0u8..4, 0u8..4), 1..8),
        props in prop::collection::vec(any::<u8>(), 1..4),
        class_atom in (any::<bool>(), any::<u8>(), any::<u8>()),
        binary in any::<bool>(),
    ) {
        let sys = ObdaSystem::from_text(&ontology_text(&axioms)).unwrap();
        let data = sys.parse_data(&data_text(&atoms)).unwrap();
        let class_atom = class_atom.0.then_some((class_atom.1, class_atom.2));
        let q = sys.parse_query(&query_text(&props, class_atom, binary)).unwrap();
        let oracle = sys.certain_answers(&q, &data).tuples();

        let db = Database::new(&data);
        let before = Database::build_count();
        let (unpruned, off) = (EngineConfig::unpruned(), Telemetry::disabled());
        for strategy in Strategy::ALL {
            let Ok(prepared) = sys.prepare(&q, strategy) else { continue };
            let mut budget = Budget::unlimited();
            let res = prepared.execute_engine_traced(&db, &mut budget, &unpruned, off).unwrap();
            prop_assert_eq!(&res.answers, &oracle, "strategy {}", strategy);
        }
        prop_assert_eq!(Database::build_count(), before, "database built once per instance");
    }
}
