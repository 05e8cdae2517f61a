//! Property test: an arbitrary ABox survives save → open byte-exactly —
//! the reopened [`Database`] has exactly the relations, universe and atom
//! count of the in-memory build, and the lazily materialised instance
//! view is atom-for-atom the original.

use obda_ndl::program::PredKind;
use obda_ndl::storage::{Database, Relation};
use obda_owlql::parser::{parse_data, parse_ontology};
use obda_store::{write_snapshot, Snapshot};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

const NUM_CLASSES: u8 = 3;
const NUM_PROPS: u8 = 2;

fn decls() -> String {
    let mut text = String::new();
    for i in 0..NUM_CLASSES {
        text.push_str(&format!("Class A{i}\n"));
    }
    for i in 0..NUM_PROPS {
        text.push_str(&format!("Property P{i}\n"));
    }
    text
}

fn data_text(atoms: &[(u8, u8, u8)]) -> String {
    let mut text = String::new();
    for &(kind, s, t) in atoms {
        if kind % 2 == 0 {
            text.push_str(&format!("A{}(c{})\n", (kind / 2) % NUM_CLASSES, s % 8));
        } else {
            text.push_str(&format!("P{}(c{}, c{})\n", (kind / 2) % NUM_PROPS, s % 8, t % 8));
        }
    }
    if text.is_empty() {
        text.push_str("A0(c0)\n");
    }
    text
}

fn temp_path() -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "obda-store-prop-{}-{}.obdb",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn sorted_rows(rel: &Relation) -> Vec<Vec<u32>> {
    let mut rows: Vec<Vec<u32>> = rel.rows().map(<[u32]>::to_vec).collect();
    rows.sort_unstable();
    rows
}

type Fingerprint = (Vec<(u32, Vec<Vec<u32>>)>, Vec<(u32, Vec<Vec<u32>>)>, Vec<Vec<u32>>, usize);

fn fingerprint(db: &Database) -> Fingerprint {
    let mut classes: Vec<_> = db.class_relations().map(|(c, r)| (c.0, sorted_rows(r))).collect();
    classes.sort_unstable_by_key(|&(c, _)| c);
    let mut props: Vec<_> = db.prop_relations().map(|(p, r)| (p.0, sorted_rows(r))).collect();
    props.sort_unstable_by_key(|&(p, _)| p);
    (classes, props, sorted_rows(db.relation(PredKind::Top)), db.num_atoms())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    #[test]
    fn save_open_reconstructs_the_database(
        atoms in prop::collection::vec((0u8..6, any::<u8>(), any::<u8>()), 0..24),
    ) {
        let ontology = parse_ontology(&decls()).unwrap();
        let data = parse_data(&data_text(&atoms), &ontology).unwrap();
        let path = temp_path();
        let info = write_snapshot(&path, ontology.vocab(), &data).unwrap();
        prop_assert_eq!(info.num_consts, data.num_individuals());
        prop_assert_eq!(info.num_atoms as usize, data.num_atoms());

        let snap = Snapshot::open(&path, ontology.vocab()).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(fingerprint(snap.database()), fingerprint(&Database::new(&data)));
        prop_assert_eq!(snap.data_instance().unwrap().to_text(&ontology), data.to_text(&ontology));
        for c in data.individuals() {
            prop_assert_eq!(snap.constant_name(c), data.constant_name(c));
        }
    }
}
