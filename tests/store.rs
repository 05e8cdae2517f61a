//! Differential tests for the snapshot store: an `.obdb`-backed
//! [`StorageBackend`] must be answer-for-answer indistinguishable from
//! the in-memory parse path, and both must match the chase oracle — on
//! the paper's own Table-2 workload (Appendix D.2), scaled down so the
//! oracle stays cheap.
//!
//! The chain pinned here is `snapshot ≡ memory ≡ oracle`, closed over
//! every Table-2 dataset, the fallback ladder, the parallel engine and
//! the query service.

use obda::budget::{Budget, BudgetSpec};
use obda::datagen::erdos::TABLE_2;
use obda::datagen::sequences::{example_11_ontology, word_query};
use obda::ndl::engine::EngineConfig;
use obda::ndl::eval::EvalResult;
use obda::owlql::abox::{ConstId, DataInstance};
use obda::{
    append_snapshot, read_info, write_snapshot, write_snapshot_footer, MemoryBackend, ObdaSystem,
    PreparedOmq, QueryService, ServiceConfig, Snapshot, StorageBackend, Strategy, Telemetry,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Small enough that the chase oracle answers in milliseconds, large
/// enough that every dataset has edges, markers and nonempty answers.
const SCALE: f64 = 0.003;

/// Query words over `{R, S}`: the shortest prefixes of Sequence 1 plus
/// two `S`-leading words, so both the concrete `R`-part and the
/// anonymous-witness `S`-part of the rewriting are exercised.
const WORDS: [&str; 5] = ["R", "S", "RR", "SR", "RRS"];

fn temp_path() -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "obda-store-diff-{}-{}.obdb",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn paper_system() -> ObdaSystem {
    ObdaSystem::new(example_11_ontology())
}

fn table2_dataset(sys: &ObdaSystem, idx: usize) -> DataInstance {
    TABLE_2[idx].scaled(SCALE).generate(sys.ontology())
}

/// Writes `data` to a fresh temp snapshot and reopens it.
fn snapshot_of(sys: &ObdaSystem, data: &DataInstance) -> Snapshot {
    let path = temp_path();
    write_snapshot(&path, sys.ontology().vocab(), data).unwrap();
    let snap = Snapshot::open(&path, sys.ontology().vocab()).unwrap();
    std::fs::remove_file(&path).ok();
    snap
}

/// The tentpole differential: on every Table-2 dataset and every query
/// word, the snapshot-backed ladder, the parse-backed ladder and the
/// chase oracle produce identical answer sets.
#[test]
fn table2_snapshot_memory_and_oracle_agree() {
    let sys = paper_system();
    let spec = BudgetSpec::unlimited();
    for idx in 0..TABLE_2.len() {
        let data = table2_dataset(&sys, idx);
        assert!(data.num_atoms() > 0, "dataset {idx} is empty at scale {SCALE}");
        let snap = snapshot_of(&sys, &data);
        for word in WORDS {
            let q = word_query(sys.ontology(), word);
            let oracle = sys.certain_answers(&q, &data).tuples();
            let memory = sys.answer_with_fallback(&q, &data, Strategy::Tw, &spec);
            let backed = sys.answer_with_fallback_backend(&q, &snap, Strategy::Tw, &spec);
            assert_eq!(
                memory.result().map(|r| &r.answers),
                Some(&oracle),
                "dataset {idx} word {word}: parse path vs oracle"
            );
            assert_eq!(
                backed.result().map(|r| &r.answers),
                Some(&oracle),
                "dataset {idx} word {word}: snapshot path vs oracle"
            );
        }
    }
}

/// The parallel engine runs the same hot path on a snapshot database as
/// on a parsed one: identical answers at one and four threads.
#[test]
fn parallel_engine_on_snapshot_matches_oracle() {
    let sys = paper_system();
    let spec = BudgetSpec::unlimited();
    let data = table2_dataset(&sys, 0);
    let snap = snapshot_of(&sys, &data);
    for word in WORDS {
        let q = word_query(sys.ontology(), word);
        let oracle = sys.certain_answers(&q, &data).tuples();
        for threads in [1usize, 4] {
            let cfg = EngineConfig { threads, ..EngineConfig::default() };
            let res = sys
                .answer_with_budget_engine_backend_traced(
                    &q,
                    &snap,
                    Strategy::Tw,
                    &spec,
                    &cfg,
                    obda::Telemetry::disabled(),
                )
                .unwrap();
            assert_eq!(res.answers, oracle, "threads={threads} word={word}");
        }
    }
}

/// Forward compatibility with pre-stats snapshots: a legacy file (no
/// stats section, flags 0) opens cleanly, derives its relation
/// statistics on first use, and the cost-based planner over those
/// derived stats answers exactly like the chase oracle.
#[test]
fn pre_stats_snapshot_opens_and_derives_statistics() {
    let sys = paper_system();
    let data = table2_dataset(&sys, 0);
    let vocab = sys.ontology().vocab();

    let legacy = obda::store::snapshot_bytes_legacy(vocab, &data);
    let current = obda::store::snapshot_bytes(vocab, &data);
    assert!(legacy.len() < current.len(), "the stats section must be optional");

    let path = temp_path();
    std::fs::write(&path, &legacy).unwrap();
    let info = read_info(&path).unwrap();
    assert_eq!(info.flags, 0, "legacy snapshots set no format flags");
    assert_eq!(info.stats_source(), "derived", "dbinfo must report derived stats");

    let snap = Snapshot::open(&path, vocab).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(snap.info().stats_source(), "derived");

    let spec = BudgetSpec::unlimited();
    for word in WORDS {
        let q = word_query(sys.ontology(), word);
        let oracle = sys.certain_answers(&q, &data).tuples();
        let res = sys
            .answer_with_budget_engine_backend_traced(
                &q,
                &snap,
                Strategy::Tw,
                &spec,
                &EngineConfig::default(),
                obda::Telemetry::disabled(),
            )
            .unwrap();
        assert_eq!(res.answers, oracle, "legacy snapshot, word {word}");
    }

    // The current writer embeds the stats section and reports so.
    let path = temp_path();
    std::fs::write(&path, &current).unwrap();
    assert_eq!(read_info(&path).unwrap().stats_source(), "embedded");
    std::fs::remove_file(&path).ok();
}

/// The service's backend entry points answer exactly like its parse
/// entry points, for both prepared (`submit_backend`) and one-shot
/// (`answer_backend`) requests.
#[test]
fn service_backend_requests_match_parse_requests() {
    let sys = paper_system();
    let data = table2_dataset(&sys, 1);
    let snap = snapshot_of(&sys, &data);
    let svc = QueryService::new(
        sys,
        ServiceConfig { max_concurrency: 2, max_queue: 4, ..ServiceConfig::default() },
    );
    let q = word_query(svc.system().ontology(), "RS");
    let id = svc.prepare(&q, Strategy::Tw).unwrap();

    let parsed = svc.submit(id, &data).unwrap();
    let backed = svc.submit_backend(id, &snap).unwrap();
    let answers = parsed.result().expect("parse path answers").answers.clone();
    assert_eq!(backed.result().expect("snapshot path answers").answers, answers);

    let oneshot = svc.answer_backend(&q, &snap, Strategy::Tw).unwrap();
    assert_eq!(oneshot.result().expect("one-shot answers").answers, answers);
    assert_eq!(svc.stats().succeeded, 3);
}

/// `MemoryBackend` gives parsed data the same seam as snapshots: the
/// backend-routed ladder equals the parse-routed ladder, and the two
/// backend kinds agree on every accessor the pipeline uses.
#[test]
fn memory_backend_is_the_parse_path_behind_the_seam() {
    let sys = paper_system();
    let spec = BudgetSpec::unlimited();
    let data = table2_dataset(&sys, 2);
    let snap = snapshot_of(&sys, &data);
    let mem = MemoryBackend::new(data.clone());
    assert_eq!(mem.kind(), "memory");
    assert_eq!(snap.kind(), "snapshot");
    assert_eq!(mem.database().num_atoms(), snap.database().num_atoms());
    for c in data.individuals() {
        assert_eq!(mem.constant_name(c), snap.constant_name(c), "dictionary ids must agree");
    }
    assert_eq!(
        snap.data_instance().to_text(sys.ontology()),
        data.to_text(sys.ontology()),
        "the lazy instance view must reconstruct the original"
    );
    for word in WORDS {
        let q = word_query(sys.ontology(), word);
        let via_mem = sys.answer_with_fallback_backend(&q, &mem, Strategy::Tw, &spec);
        let via_parse = sys.answer_with_fallback(&q, &data, Strategy::Tw, &spec);
        assert_eq!(
            via_mem.result().map(|r| &r.answers),
            via_parse.result().map(|r| &r.answers),
            "word {word}"
        );
    }
}

/// The mmap differential, closed over every on-disk layout: for the
/// lazily hydrated open (`--mmap`, the default), the eager A/B open
/// (`--eager`), and the v2-inline / v2-footer / v1-stats / v1-legacy
/// forms of the *same* instance, the fallback ladder answers exactly
/// the chase oracle — and the lazy open never hydrates more than the
/// eager one.
#[test]
fn lazy_eager_and_every_layout_agree_with_oracle() {
    let sys = paper_system();
    let vocab = sys.ontology().vocab();
    let spec = BudgetSpec::unlimited();
    let data = table2_dataset(&sys, 0);
    let queries: Vec<_> = WORDS
        .iter()
        .map(|w| {
            let q = word_query(sys.ontology(), w);
            let oracle = sys.certain_answers(&q, &data).tuples();
            (*w, q, oracle)
        })
        .collect();
    let variants: [(&str, Vec<u8>); 4] = [
        ("v2-inline", obda::store::snapshot_bytes(vocab, &data)),
        ("v2-footer", obda::store::snapshot_bytes_footer(vocab, &data)),
        ("v1-stats", obda::store::snapshot_bytes_v1(vocab, &data)),
        ("v1-legacy", obda::store::snapshot_bytes_legacy(vocab, &data)),
    ];
    for (tag, bytes) in &variants {
        let path = temp_path();
        std::fs::write(&path, bytes).unwrap();
        let lazy = Snapshot::open(&path, vocab).unwrap();
        let eager = Snapshot::open_eager(&path, vocab).unwrap();
        std::fs::remove_file(&path).ok();
        for (word, q, oracle) in &queries {
            for (mode, snap) in [("lazy", &lazy), ("eager", &eager)] {
                let report = sys.answer_with_fallback_backend(q, snap, Strategy::Tw, &spec);
                assert_eq!(
                    report.result().map(|r| &r.answers),
                    Some(oracle),
                    "{tag} {mode} word {word}"
                );
            }
        }
        assert!(
            lazy.bytes_touched() <= eager.bytes_touched(),
            "{tag}: lazy hydration ({}) must not exceed the eager footprint ({})",
            lazy.bytes_touched(),
            eager.bytes_touched()
        );
        assert_eq!(
            lazy.resident_bytes(),
            Some(lazy.bytes_touched()),
            "{tag}: the backend seam must export the hydrated footprint"
        );
    }
}

/// With every backend's completion memo warm, the engine still answers
/// exactly the chase oracle for every strategy: lazy ≡ eager ≡ memory ≡
/// oracle on every Table-2 dataset, for words whose rewritings keep `R*`
/// and `S*` as completion predicates. Each (word, strategy) runs twice
/// per backend, so later runs reuse what earlier ones derived.
#[test]
fn warm_completion_memo_keeps_every_backend_on_the_oracle() {
    let sys = paper_system();
    let cfg = EngineConfig::default();
    let prepared: Vec<_> = ["SRRS", "RRS", "SR"]
        .iter()
        .flat_map(|word| {
            let q = word_query(sys.ontology(), word);
            Strategy::ALL.map(|st| (*word, st, q.clone(), sys.prepare(&q, st).unwrap()))
        })
        .collect();
    for idx in 0..TABLE_2.len() {
        let data = table2_dataset(&sys, idx);
        let path = temp_path();
        write_snapshot(&path, sys.ontology().vocab(), &data).unwrap();
        let lazy = Snapshot::open(&path, sys.ontology().vocab()).unwrap();
        let eager = Snapshot::open_eager(&path, sys.ontology().vocab()).unwrap();
        std::fs::remove_file(&path).ok();
        let memory = MemoryBackend::new(data.clone());
        let backends: [(&str, &dyn StorageBackend); 3] =
            [("lazy", &lazy), ("eager", &eager), ("memory", &memory)];
        let mut oracle = std::collections::HashMap::new();
        for (word, strategy, q, omq) in &prepared {
            let oracle =
                oracle.entry(word).or_insert_with(|| sys.certain_answers(q, &data).tuples());
            for (tag, backend) in backends {
                for run in ["first", "second"] {
                    let res = execute(omq, backend.database(), &cfg);
                    assert_eq!(
                        &res.answers, oracle,
                        "dataset {idx} word {word} {strategy} {tag} ({run} run)"
                    );
                }
            }
        }
        for (tag, backend) in backends {
            assert!(!backend.database().completions().is_empty(), "dataset {idx} {tag}: cold");
        }
    }
}

/// Every Table-1 prefix, rewritten by each strategy that keeps
/// completion predicates, evaluated on one database: the memo never
/// exceeds one entry per (symbol, projection) of the ontology's
/// signature — one per class (including the `∃R` classes) and `⊤`,
/// three per property (both columns, or either one alone).
#[test]
fn completion_memo_stays_within_the_ontology_bound() {
    use obda::datagen::sequences::{sequence_prefixes, SEQUENCES};
    use obda::ndl::storage::Database;

    let sys = paper_system();
    let data = table2_dataset(&sys, 0);
    let db = Database::new(&data);
    let cfg = EngineConfig::default();
    for seq in SEQUENCES {
        for q in sequence_prefixes(sys.ontology(), seq) {
            for strategy in [Strategy::Log, Strategy::Tw, Strategy::Adaptive] {
                let prepared = sys.prepare(&q, strategy).unwrap();
                let engine = execute(&prepared, &db, &cfg);
                let plain = execute(&prepared, &db, &EngineConfig::unpruned());
                assert_eq!(engine.answers, plain.answers, "{seq} prefix, {strategy}");
            }
        }
    }
    let vocab = sys.ontology().vocab();
    let bound = vocab.class_ids().count() + 1 + 3 * vocab.prop_ids().count();
    let entries = db.completions().len();
    assert!(entries > 0, "the prefixes use completions");
    assert!(entries <= bound, "{entries} memo entries exceed the signature bound {bound}");
}

/// Executes `omq` over `db` under `cfg`, unbudgeted and untraced.
fn execute(omq: &PreparedOmq, db: &obda::ndl::storage::Database, cfg: &EngineConfig) -> EvalResult {
    omq.execute_engine_traced(db, &mut Budget::unlimited(), cfg, Telemetry::disabled()).unwrap()
}

/// Renders answer tuples as name tuples, so answer sets from backends
/// with *different* constant dictionaries can be compared.
fn named_answers(
    tuples: &[Vec<ConstId>],
    name: impl Fn(ConstId) -> String,
) -> BTreeSet<Vec<String>> {
    tuples.iter().map(|t| t.iter().map(|&c| name(c)).collect()).collect()
}

/// The appendable footer form end to end: a base snapshot of the
/// property atoms grown by [`append_snapshot`] with the class markers
/// answers exactly like the monolithic instance, lazy and eager — the
/// delta's constants are remapped by name, so answers are compared as
/// name tuples.
#[test]
fn appended_snapshot_answers_like_the_monolithic_instance() {
    let sys = paper_system();
    let vocab = sys.ontology().vocab();
    let spec = BudgetSpec::unlimited();

    // Split by predicate — the appender refuses to merge into an
    // existing segment, so the base gets one property wholesale and the
    // delta gets every other predicate. Not every Table-2 dataset has
    // two predicates at this scale; take the first that splits.
    let (data, base, delta) = (0..TABLE_2.len())
        .find_map(|idx| {
            let data = table2_dataset(&sys, idx);
            let first_prop = data.prop_atoms().next().map(|(p, _, _)| p)?;
            let mut base = DataInstance::new();
            let mut delta = DataInstance::new();
            for (p, a, b) in data.prop_atoms() {
                let tgt = if p == first_prop { &mut base } else { &mut delta };
                let x = tgt.constant(data.constant_name(a));
                let y = tgt.constant(data.constant_name(b));
                tgt.add_prop_atom(p, x, y);
            }
            for (c, a) in data.class_atoms() {
                let x = delta.constant(data.constant_name(a));
                delta.add_class_atom(c, x);
            }
            (base.num_atoms() > 0 && delta.num_atoms() > 0).then_some((data, base, delta))
        })
        .expect("some Table-2 dataset must split into two nonempty halves");

    let path = temp_path();
    write_snapshot_footer(&path, vocab, &base).unwrap();
    let info = append_snapshot(&path, vocab, &delta).unwrap();
    assert!(info.footer && info.appended, "the grown file stays appendable and says so");
    assert_eq!(info.num_atoms as usize, data.num_atoms());

    let lazy = Snapshot::open(&path, vocab).unwrap();
    let eager = Snapshot::open_eager(&path, vocab).unwrap();
    std::fs::remove_file(&path).ok();
    for word in WORDS {
        let q = word_query(sys.ontology(), word);
        let oracle = named_answers(&sys.certain_answers(&q, &data).tuples(), |c| {
            data.constant_name(c).to_owned()
        });
        for (mode, snap) in [("lazy", &lazy), ("eager", &eager)] {
            let report = sys.answer_with_fallback_backend(&q, snap, Strategy::Tw, &spec);
            let result = report.result().unwrap_or_else(|| panic!("{mode} word {word} failed"));
            assert_eq!(
                named_answers(&result.answers, |c| snap.constant_name(c).to_owned()),
                oracle,
                "{mode} word {word}: appended snapshot vs oracle"
            );
        }
    }
}

/// Lazy hydration through the query service: prepared and one-shot
/// backend requests over a lazily opened snapshot answer exactly like
/// the eagerly opened one, and only the touched columns hydrate.
#[test]
fn service_requests_hydrate_lazily_and_match_eager() {
    let sys = paper_system();
    let vocab = sys.ontology().vocab();
    let data = table2_dataset(&sys, 2);
    let path = temp_path();
    write_snapshot(&path, vocab, &data).unwrap();
    let lazy = Snapshot::open(&path, vocab).unwrap();
    let eager = Snapshot::open_eager(&path, vocab).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(lazy.columns_touched(), 0, "opening alone must hydrate nothing");

    let svc = QueryService::new(
        sys,
        ServiceConfig { max_concurrency: 2, max_queue: 4, ..ServiceConfig::default() },
    );
    let q = word_query(svc.system().ontology(), "RS");
    let id = svc.prepare(&q, Strategy::Tw).unwrap();
    let via_lazy = svc.submit_backend(id, &lazy).unwrap();
    let via_eager = svc.submit_backend(id, &eager).unwrap();
    assert_eq!(
        via_lazy.result().expect("lazy answers").answers,
        via_eager.result().expect("eager answers").answers,
    );
    let oneshot = svc.answer_backend(&q, &lazy, Strategy::Tw).unwrap();
    assert_eq!(
        oneshot.result().expect("one-shot answers").answers,
        via_eager.result().expect("eager answers").answers,
    );
    assert!(lazy.columns_touched() > 0, "answering must have hydrated the joined columns");
    assert!(
        lazy.bytes_touched() <= eager.bytes_touched(),
        "the service path must not hydrate past the full footprint"
    );
}

/// `read_info` (the `dbinfo` entry point) reports the structure the
/// writer recorded, without loading any segment data.
#[test]
fn read_info_matches_the_written_snapshot() {
    let sys = paper_system();
    let data = table2_dataset(&sys, 3);
    let path = temp_path();
    let written = write_snapshot(&path, sys.ontology().vocab(), &data).unwrap();
    let info = read_info(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(info.num_consts, data.num_individuals());
    assert_eq!(info.num_atoms as usize, data.num_atoms());
    assert_eq!(info.num_consts, written.num_consts);
    assert_eq!(info.num_atoms, written.num_atoms);
    assert_eq!(info.relations.len(), written.relations.len());
    assert_eq!(info.relations.iter().map(|r| r.rows).sum::<u64>(), info.num_atoms);
}

fn run_dbinfo(path: &std::path::Path) -> (i32, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_obda"))
        .arg("dbinfo")
        .arg(path)
        .output()
        .unwrap();
    (
        out.status.code().expect("dbinfo must exit, not die on a signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Pins `obda dbinfo`'s flag reporting: known bits are printed by name,
/// an unknown-but-optional bit from a future writer is called out as
/// tolerated (and still exits 0), an unknown *required* bit refuses with
/// the snapshot exit code, and the layout/index lines track the form.
#[test]
fn dbinfo_prints_known_and_unknown_flags_layout_and_index_source() {
    let sys = paper_system();
    let vocab = sys.ontology().vocab();
    let data = table2_dataset(&sys, 0);
    let path = temp_path();

    // The default v2 inline writer: stats + indexes, no unknown bits.
    write_snapshot(&path, vocab, &data).unwrap();
    let (code, out, err) = run_dbinfo(&path);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("(known: stats, indexes)"), "stdout: {out}");
    assert!(!out.contains("unknown:"), "no unknown bits to report: {out}");
    assert!(out.contains("layout:         inline"), "stdout: {out}");
    assert!(out.contains("indexes:        embedded"), "stdout: {out}");

    // The footer form grown by the appender names both extra bits.
    write_snapshot_footer(&path, vocab, &data).unwrap();
    let mut delta = DataInstance::new();
    let c = delta.constant("dbinfo-fresh-constant");
    let class = data.class_atoms().next().map(|(cl, _)| cl);
    if let Some(class) = class {
        // Appending needs a predicate absent from the base file: drop the
        // class segments from the base by rebuilding it property-only.
        let mut base = DataInstance::new();
        for (p, a, b) in data.prop_atoms() {
            let x = base.constant(data.constant_name(a));
            let y = base.constant(data.constant_name(b));
            base.add_prop_atom(p, x, y);
        }
        write_snapshot_footer(&path, vocab, &base).unwrap();
        delta.add_class_atom(class, c);
        append_snapshot(&path, vocab, &delta).unwrap();
        let (code, out, _) = run_dbinfo(&path);
        assert_eq!(code, 0);
        assert!(out.contains("(known: stats, indexes, footer, appended)"), "stdout: {out}");
        assert!(out.contains("layout:         footer (appendable, has appended segments)"));
    }

    // An unknown *optional* (upper-half) flag bit — a future writer's
    // hint — is tolerated and reported. Flags live at header bytes 8..12.
    write_snapshot(&path, vocab, &data).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[10] |= 0x02; // bit 17
    std::fs::write(&path, &bytes).unwrap();
    let (code, out, err) = run_dbinfo(&path);
    assert_eq!(code, 0, "optional bits must not refuse the file, stderr: {err}");
    assert!(out.contains("unknown: 0x00020000"), "stdout: {out}");
    assert!(out.contains("optional bits tolerated"), "stdout: {out}");
    assert!(out.contains("(known: stats, indexes;"), "known names still print: {out}");

    // An unknown *required* (lower-half) bit refuses with the snapshot
    // exit code (3), naming the bit.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[10] &= !0x02;
    bytes[8] |= 0x08; // bit 3: required, unknown
    std::fs::write(&path, &bytes).unwrap();
    let (code, _, err) = run_dbinfo(&path);
    assert_eq!(code, 3, "unknown required bits are incompatibility, stderr: {err}");

    // A v1 file: flat layout, no flags, everything derived on open.
    std::fs::write(&path, obda::store::snapshot_bytes_legacy(vocab, &data)).unwrap();
    let (code, out, _) = run_dbinfo(&path);
    assert_eq!(code, 0);
    assert!(out.contains("(known: none)"), "stdout: {out}");
    assert!(out.contains("layout:         flat (v1)"), "stdout: {out}");
    assert!(out.contains("stats:          derived"), "stdout: {out}");
    assert!(out.contains("indexes:        derived"), "stdout: {out}");
    std::fs::remove_file(&path).ok();
}
