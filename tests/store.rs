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
use obda::cq::query::Cq;
use obda::datagen::erdos::TABLE_2;
use obda::datagen::sequences::{example_11_ontology, word_query};
use obda::ndl::engine::EngineConfig;
use obda::ndl::eval::EvalResult;
use obda::owlql::abox::DataInstance;
use obda::{
    read_info, write_snapshot, AnswerRequest, DataSource, MemoryBackend, ObdaError, ObdaSystem,
    PreparedOmq, QueryService, RetryPolicy, ServiceConfig, Snapshot, StorageBackend, StoreError,
    Strategy, Telemetry,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The fallback ladder from `Tw` over `data` under `spec`, with the
/// default retry policy and the unpruned engine.
fn tw_ladder<'a>(q: &'a Cq, data: DataSource<'a>, spec: BudgetSpec) -> AnswerRequest<'a> {
    AnswerRequest {
        fallback: true,
        spec,
        retry: RetryPolicy::default(),
        ..AnswerRequest::new(q, data, Strategy::Tw)
    }
}

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
            let memory = sys.run(&tw_ladder(&q, DataSource::Parse(&data), spec));
            let backed = sys.run(&tw_ladder(&q, DataSource::Backend(&snap), spec));
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
                .run(&AnswerRequest {
                    spec,
                    engine: cfg,
                    ..AnswerRequest::new(&q, DataSource::Backend(&snap), Strategy::Tw)
                })
                .into_result()
                .unwrap();
            assert_eq!(res.answers, oracle, "threads={threads} word={word}");
        }
    }
}

/// The service answers from a snapshot exactly like from parsed data in
/// memory, and so does the one-shot ladder (`obda answer`) over either.
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
    let spec = BudgetSpec::unlimited();
    let omq = svc.prepare(&q, Strategy::Tw, &spec).unwrap();

    let memory = MemoryBackend::new(data.clone());
    let parsed = svc.answer(&omq, &memory, &spec, Telemetry::disabled()).unwrap();
    let backed = svc.answer(&omq, &snap, &spec, Telemetry::disabled()).unwrap();
    let answers = parsed.result.answers;
    assert_eq!(backed.result.answers, answers);
    assert_eq!(svc.stats().succeeded, 2);

    for source in [DataSource::Parse(&data), DataSource::Backend(&snap)] {
        let oneshot = svc
            .system()
            .run(&AnswerRequest { engine: EngineConfig::default(), ..tw_ladder(&q, source, spec) });
        assert_eq!(oneshot.result().expect("one-shot answers").answers, answers);
    }
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
        snap.data_instance().unwrap().to_text(sys.ontology()),
        data.to_text(sys.ontology()),
        "the lazy instance view must reconstruct the original"
    );
    for word in WORDS {
        let q = word_query(sys.ontology(), word);
        let via_mem = sys.run(&tw_ladder(&q, DataSource::Backend(&mem), spec));
        let via_parse = sys.run(&tw_ladder(&q, DataSource::Parse(&data), spec));
        assert_eq!(
            via_mem.result().map(|r| &r.answers),
            via_parse.result().map(|r| &r.answers),
            "word {word}"
        );
    }
}

/// The lazy-hydration differential: a lazily opened snapshot, the
/// in-memory backend (which shares no decode code with the store) and
/// the chase oracle agree on every query word through the fallback
/// ladder, and the lazy open hydrates no more than a full hydrate of the
/// same file.
#[test]
fn lazy_snapshot_memory_and_oracle_agree() {
    let sys = paper_system();
    let vocab = sys.ontology().vocab();
    let spec = BudgetSpec::unlimited();
    let data = table2_dataset(&sys, 0);
    let path = temp_path();
    write_snapshot(&path, vocab, &data).unwrap();
    let lazy = Snapshot::open(&path, vocab).unwrap();
    let full = Snapshot::open(&path, vocab).unwrap();
    std::fs::remove_file(&path).ok();
    full.database().hydrate_all().unwrap();
    let memory = MemoryBackend::new(data.clone());
    for word in WORDS {
        let q = word_query(sys.ontology(), word);
        let oracle = sys.certain_answers(&q, &data).tuples();
        for (tag, backend) in [("lazy", &lazy as &dyn StorageBackend), ("memory", &memory)] {
            let report = sys.run(&tw_ladder(&q, DataSource::Backend(backend), spec));
            assert_eq!(report.result().map(|r| &r.answers), Some(&oracle), "{tag} word {word}");
        }
    }
    assert!(
        lazy.bytes_touched() <= full.bytes_touched(),
        "lazy hydration ({}) must not exceed the full footprint ({})",
        lazy.bytes_touched(),
        full.bytes_touched()
    );
    assert_eq!(
        lazy.resident_bytes(),
        Some(lazy.bytes_touched()),
        "the backend seam must export the hydrated footprint"
    );
}

/// With every backend's completion memo warm, the engine still answers
/// exactly the chase oracle for every strategy: lazy ≡ memory ≡
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
        std::fs::remove_file(&path).ok();
        let memory = MemoryBackend::new(data.clone());
        let backends: [(&str, &dyn StorageBackend); 2] = [("lazy", &lazy), ("memory", &memory)];
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

/// Lazy hydration through the query service and the one-shot ladder:
/// requests over a lazily opened snapshot answer exactly like the
/// in-memory backend, and only the touched columns hydrate.
#[test]
fn service_requests_hydrate_lazily_and_match_memory() {
    let sys = paper_system();
    let vocab = sys.ontology().vocab();
    let data = table2_dataset(&sys, 2);
    let path = temp_path();
    write_snapshot(&path, vocab, &data).unwrap();
    let lazy = Snapshot::open(&path, vocab).unwrap();
    let full = Snapshot::open(&path, vocab).unwrap();
    std::fs::remove_file(&path).ok();
    full.database().hydrate_all().unwrap();
    assert_eq!(lazy.columns_touched(), 0, "opening alone must hydrate nothing");
    let memory = MemoryBackend::new(data);

    let svc = QueryService::new(
        sys,
        ServiceConfig { max_concurrency: 2, max_queue: 4, ..ServiceConfig::default() },
    );
    let q = word_query(svc.system().ontology(), "RS");
    let spec = BudgetSpec::unlimited();
    let omq = svc.prepare(&q, Strategy::Tw, &spec).unwrap();
    let via_lazy = svc.answer(&omq, &lazy, &spec, Telemetry::disabled()).unwrap();
    let via_memory = svc.answer(&omq, &memory, &spec, Telemetry::disabled()).unwrap();
    let answers = &via_memory.result.answers;
    assert_eq!(&via_lazy.result.answers, answers);
    let oneshot = svc.system().run(&AnswerRequest {
        engine: EngineConfig::default(),
        ..tw_ladder(&q, DataSource::Backend(&lazy), spec)
    });
    assert_eq!(&oneshot.result().expect("one-shot answers").answers, answers);
    assert!(lazy.columns_touched() > 0, "answering must have hydrated the joined columns");
    assert!(
        lazy.bytes_touched() <= full.bytes_touched(),
        "the service path must not hydrate past the full footprint"
    );
}

/// A request over a snapshot with a corrupt data block gets the typed
/// store error from the prepared path, the fallback ladder and the
/// one-engine entry point alike, before anything plans; the data still
/// opens, and the untouched relations are never read.
#[test]
fn corrupt_segment_fails_every_entry_point_typed() {
    let sys = paper_system();
    let vocab = sys.ontology().vocab();
    let data = table2_dataset(&sys, 0);
    let path = temp_path();
    write_snapshot(&path, vocab, &data).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Data blocks start on page boundaries after the metadata (which
    // fits the first page here): flip the first byte of every page past
    // it, so every block the query joins is corrupt.
    assert!(bytes.len() > 4096, "the fixture has a data region");
    for page in (4096..bytes.len()).step_by(4096) {
        bytes[page] ^= 0x01;
    }
    std::fs::write(&path, &bytes).unwrap();
    let snap = Snapshot::open(&path, vocab).expect("open reads only the metadata");
    std::fs::remove_file(&path).ok();
    let q = word_query(sys.ontology(), "RS");
    let is_store =
        |e: &ObdaError| matches!(e, ObdaError::Store(StoreError::ChecksumMismatch { .. }));

    let spec = BudgetSpec::unlimited();
    let cfg = EngineConfig::default();
    let err = sys
        .run(&AnswerRequest {
            spec,
            engine: cfg.clone(),
            ..AnswerRequest::new(&q, DataSource::Backend(&snap), Strategy::Tw)
        })
        .into_result()
        .unwrap_err();
    assert!(is_store(&err), "{err}");
    let report = sys.run(&tw_ladder(&q, DataSource::Backend(&snap), spec));
    assert_eq!(report.attempts.len(), 1, "the ladder stops on corrupt data:\n{report}");
    assert!(report.final_error().is_some_and(|e| is_store(&e)), "{report}");
    let omq = sys.prepare(&q, Strategy::Tw).unwrap();
    let err = omq.hydrate(snap.database(), &cfg, Telemetry::disabled()).unwrap_err();
    assert!(is_store(&err), "{err}");
    assert_eq!(snap.bytes_touched(), 0, "nothing that failed verification counts as resident");
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
/// tolerated (and still exits 0), and an unknown *required* bit — the
/// retired footer bit among them — or a retired version refuses with the
/// snapshot exit code.
#[test]
fn dbinfo_prints_known_and_unknown_flags() {
    let sys = paper_system();
    let vocab = sys.ontology().vocab();
    let data = table2_dataset(&sys, 0);
    let path = temp_path();

    // The writer: stats + indexes, no unknown bits.
    write_snapshot(&path, vocab, &data).unwrap();
    let (code, out, err) = run_dbinfo(&path);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("format version: 2"), "stdout: {out}");
    assert!(out.contains("(known: stats, indexes)"), "stdout: {out}");
    assert!(!out.contains("unknown:"), "no unknown bits to report: {out}");

    // An unknown *optional* (upper-half) flag bit — a future writer's
    // hint — is tolerated and reported. Flags live at header bytes 8..12.
    let pristine = std::fs::read(&path).unwrap();
    let mut bytes = pristine.clone();
    bytes[10] |= 0x02; // bit 17
    std::fs::write(&path, &bytes).unwrap();
    let (code, out, err) = run_dbinfo(&path);
    assert_eq!(code, 0, "optional bits must not refuse the file, stderr: {err}");
    assert!(out.contains("unknown: 0x00020000"), "stdout: {out}");
    assert!(out.contains("optional bits tolerated"), "stdout: {out}");
    assert!(out.contains("(known: stats, indexes;"), "known names still print: {out}");

    // Unknown *required* (lower-half) bits refuse with the snapshot exit
    // code (3), naming the bit: bit 3, and bit 2 (the retired footer form).
    for (bit, name) in [(0x08u8, "0x8"), (0x04, "0x4")] {
        let mut bytes = pristine.clone();
        bytes[8] |= bit;
        std::fs::write(&path, &bytes).unwrap();
        let (code, _, err) = run_dbinfo(&path);
        assert_eq!(code, 3, "unknown required bits are incompatibility, stderr: {err}");
        assert!(err.contains(&format!("unknown required flags set: {name}")), "stderr: {err}");
    }

    // A retired version-1 header refuses the same way.
    let mut bytes = pristine;
    bytes[4] = 1;
    std::fs::write(&path, &bytes).unwrap();
    let (code, _, err) = run_dbinfo(&path);
    assert_eq!(code, 3, "stderr: {err}");
    assert!(err.contains("unsupported snapshot version 1"), "stderr: {err}");
    std::fs::remove_file(&path).ok();
}
