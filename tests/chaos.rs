//! Chaos suite (requires `--features faults`): deterministic fault
//! injection across every registered site, asserting the system-wide
//! robustness invariants:
//!
//! 1. **Never a wrong answer** — under arbitrary injected faults, a
//!    request returns either exactly the chase-oracle answer or a typed
//!    error.
//! 2. **Never an escaped panic** — injected panics (and the transient
//!    faults raised by unwinding) are always caught at an isolation
//!    boundary; nothing unwinds out of the public API.
//! 3. **The service survives** — the admission gate keeps accepting and
//!    answering after any number of consecutive failed requests.
//!
//! The sweeps run the one-shot path (`ObdaSystem::run`, the fallback
//! ladder of `obda answer`); the service tests run the served path
//! (`QueryService::answer` over a prepared OMQ, as `obda serve` does).
//!
//! Plans are process-global, so every step that needs *no* fault — the
//! fixtures, the oracles, the recovery checks — holds the install lock
//! with nothing armed ([`quiet`] or [`obda::faults::InstalledPlan::disarm`]);
//! no other test's plan can fire inside it.

use obda::budget::BudgetSpec;
use obda::cq::query::Cq;
use obda::faults::{quiet, site, FaultKind, FaultPlan, FaultSpec, Trigger};
use obda::ndl::engine::EngineConfig;
use obda::owlql::abox::ConstId;
use obda::owlql::abox::DataInstance;
use obda::{
    AnswerRequest, AttemptOutcome, DataSource, MemoryBackend, ObdaError, ObdaSystem,
    OverloadConfig, PreparedOmq, QueryService, RetryPolicy, ServiceConfig, Strategy, Telemetry,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

const ONTOLOGY: &str = "Professor SubClassOf exists teaches\n\
                        exists teaches- SubClassOf Course\n";
const QUERY: &str = "q(x) :- teaches(x, y), Course(y)";
const DATA: &str = "Professor(ada)\nProfessor(bob)\nteaches(carol, logic)\nCourse(logic)\n";

/// Routes injected-fault panics to silence (they are the *point* of this
/// suite) while forwarding genuine panics — assertion failures included —
/// to the previous hook. Installed once for the whole test binary.
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            let deliberate = p.downcast_ref::<obda::faults::FaultError>().is_some()
                || p.downcast_ref::<String>().is_some_and(|s| s.starts_with("injected panic at"));
            if !deliberate {
                prev(info);
            }
        }));
    });
}

/// A fast retry policy so full-sweep tests do not sleep their time away.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(1),
        seed: 0x0bda_5eed,
    }
}

fn system() -> ObdaSystem {
    let _quiet = quiet();
    ObdaSystem::from_text(ONTOLOGY).unwrap()
}

fn service(engine: EngineConfig) -> QueryService {
    QueryService::new(
        system(),
        ServiceConfig {
            max_concurrency: 2,
            max_queue: 8,
            retry: fast_retry(),
            engine,
            overload: OverloadConfig::default(),
        },
    )
}

/// The fixture query prepared with `Tw` by `svc`, and the fixture data
/// loaded into a backend — both built with nothing armed.
fn served_fixture(svc: &QueryService) -> (Arc<PreparedOmq>, MemoryBackend) {
    let _quiet = quiet();
    let query = svc.system().parse_query(QUERY).unwrap();
    let omq = svc.prepare(&query, Strategy::Tw, &BudgetSpec::unlimited()).unwrap();
    (omq, MemoryBackend::new(svc.system().parse_data(DATA).unwrap()))
}

fn engine_cfg(threads: usize) -> EngineConfig {
    EngineConfig { threads, prune: true, chunk_min_rows: 16, plan: true }
}

/// The fallback ladder from `Tw` over `d`, unbudgeted, on `engine`, with
/// the fast retry policy.
fn ladder<'a>(q: &'a Cq, d: &'a DataInstance, engine: EngineConfig) -> AnswerRequest<'a> {
    AnswerRequest {
        fallback: true,
        engine,
        retry: fast_retry(),
        ..AnswerRequest::new(q, DataSource::Parse(d), Strategy::Tw)
    }
}

/// Runs one request — the fallback ladder from `Tw` on `engine`, parsed
/// data, the fast retry policy — under the *currently armed* plan and
/// asserts the core invariants: no escaped panic, and either the oracle
/// answer or a typed error. Returns whether the request succeeded.
fn assert_sound(
    sys: &ObdaSystem,
    engine: &EngineConfig,
    oracle: &[Vec<ConstId>],
    ctx: &str,
) -> bool {
    let query = sys.parse_query(QUERY).unwrap();
    let data = sys.parse_data(DATA).unwrap();
    let caught = catch_unwind(AssertUnwindSafe(|| sys.run(&ladder(&query, &data, engine.clone()))));
    let Ok(report) = caught else {
        panic!("{ctx}: a fault escaped every isolation boundary");
    };
    match report.result() {
        Some(res) => {
            assert_eq!(res.answers, oracle, "{ctx}: wrong answers under faults");
            true
        }
        None => {
            assert!(
                report.final_error().is_some(),
                "{ctx}: failed request must carry a typed error:\n{report}"
            );
            false
        }
    }
}

fn oracle() -> Vec<Vec<ConstId>> {
    let _quiet = quiet();
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let tuples = sys.certain_answers(&q, &d).tuples();
    assert!(!tuples.is_empty(), "the fixture must have answers");
    tuples
}

// ---------------------------------------------------------------------------
// Pinned-seed sweep: every site × kind × trigger × engine configuration.
// ---------------------------------------------------------------------------

#[test]
fn pinned_seed_sweep_is_sound_at_every_site() {
    quiet_injected_panics();
    let oracle = oracle();
    let rigs = [EngineConfig::unpruned(), engine_cfg(1), engine_cfg(4)].map(|e| (system(), e));
    for &seed in &[7u64, 42, 0x0bda_5eed] {
        for &site in site::ALL.iter() {
            for kind in [FaultKind::Transient, FaultKind::Panic] {
                for trigger in [
                    Trigger::Always,
                    Trigger::Nth(2),
                    Trigger::EveryNth(3),
                    Trigger::Probability(0.4),
                ] {
                    let plan = FaultPlan::new(seed).with(site, FaultSpec { kind, trigger });
                    for (i, (sys, engine)) in rigs.iter().enumerate() {
                        let ctx = format!(
                            "seed={seed} site={site} kind={kind:?} trigger={trigger:?} rig={i}"
                        );
                        let guard = plan.install();
                        assert_sound(sys, engine, &oracle, &ctx);
                        drop(guard);
                    }
                }
            }
        }
    }
    // Every system still answers correctly with all plans disarmed.
    let _quiet = quiet();
    for (i, (sys, engine)) in rigs.iter().enumerate() {
        assert!(assert_sound(sys, engine, &oracle, &format!("disarmed rig={i}")));
    }
}

// ---------------------------------------------------------------------------
// Retry semantics
// ---------------------------------------------------------------------------

#[test]
fn oneshot_transient_fault_is_retried_to_success_in_order() {
    quiet_injected_panics();
    let oracle = oracle();
    for threads in [1usize, 4] {
        let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
        let q = sys.parse_query(QUERY).unwrap();
        let d = sys.parse_data(DATA).unwrap();
        let plan = FaultPlan::new(1).with(
            site::ENGINE_CLAUSE_TASK,
            FaultSpec { kind: FaultKind::Transient, trigger: Trigger::Nth(1) },
        );
        let guard = plan.install();
        let report = sys.run(&ladder(&q, &d, engine_cfg(threads)));
        drop(guard);
        assert_eq!(report.winning_strategy(), Some(Strategy::Tw), "threads={threads}\n{report}");
        assert_eq!(report.result().unwrap().answers, oracle, "threads={threads}");
        // Attempt 0: the injected fault, typed and site-tagged. Attempt 1:
        // the successful retry of the *same* strategy, recorded in order.
        assert_eq!(report.num_retries(), 1, "threads={threads}\n{report}");
        assert_eq!(report.attempts[0].retry, 0);
        assert!(
            matches!(
                &report.attempts[0].outcome,
                AttemptOutcome::Transient { site } if site == site::ENGINE_CLAUSE_TASK
            ),
            "threads={threads}\n{report}"
        );
        assert_eq!(report.attempts[1].retry, 1);
        assert_eq!(report.attempts[1].strategy, Strategy::Tw);
        assert!(matches!(&report.attempts[1].outcome, AttemptOutcome::Success(_)));
    }
}

/// `fallback: false` (the `--no-fallback` request) never retries: a
/// transient fault that a retry would get past is one attempt and the
/// request's typed error.
#[test]
fn one_rung_ladder_does_not_retry_a_transient() {
    quiet_injected_panics();
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let plan = FaultPlan::new(1).with(
        site::ENGINE_CLAUSE_TASK,
        FaultSpec { kind: FaultKind::Transient, trigger: Trigger::Nth(1) },
    );
    let bare = AnswerRequest {
        engine: engine_cfg(1),
        ..AnswerRequest::new(&q, DataSource::Parse(&d), Strategy::Tw)
    };
    let guard = plan.install();
    let report = sys.run(&bare);
    drop(guard);
    assert_eq!(report.attempts.len(), 1, "{report}");
    assert_eq!(report.num_retries(), 0);
    assert!(report.into_result().is_err_and(|e| e.is_transient()));
    let guard = plan.install();
    let err = sys
        .answer_with_budget_engine(&q, &d, Strategy::Tw, &BudgetSpec::unlimited(), &engine_cfg(1))
        .unwrap_err();
    drop(guard);
    assert!(err.is_transient(), "got {err}");
}

#[test]
fn injected_panics_are_never_retried() {
    quiet_injected_panics();
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let plan = FaultPlan::always(3, site::ENGINE_CLAUSE_TASK, FaultKind::Panic);
    let guard = plan.install();
    let report = sys.run(&ladder(&q, &d, engine_cfg(4)));
    drop(guard);
    assert!(report.winner.is_none());
    assert_eq!(report.num_retries(), 0, "panics are bugs, not resource problems:\n{report}");
    assert!(!report.all_exhausted(), "panics must not masquerade as budget trips");
    assert!(report
        .attempts
        .iter()
        .all(|a| matches!(&a.outcome, AttemptOutcome::Panicked { site, .. } if site == site::ENGINE_CLAUSE_TASK)));
    let err = report.final_error().unwrap();
    assert!(matches!(err, ObdaError::Internal { .. }), "got {err}");
}

#[test]
fn exhausted_retries_degrade_with_a_transient_error() {
    quiet_injected_panics();
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let plan = FaultPlan::always(5, site::ENGINE_CLAUSE_TASK, FaultKind::Transient);
    let guard = plan.install();
    let retry = fast_retry();
    let report = sys.run(&ladder(&q, &d, engine_cfg(1)));
    drop(guard);
    assert!(report.winner.is_none());
    // Every rung of the ladder: one first try plus max_retries retries.
    let per_strategy = 1 + retry.max_retries as usize;
    assert_eq!(report.attempts.len() % per_strategy, 0, "{report}");
    assert!(report.num_retries() > 0);
    for chunk in report.attempts.chunks(per_strategy) {
        for (i, a) in chunk.iter().enumerate() {
            assert_eq!(a.retry, i as u32, "retries recorded in order:\n{report}");
            assert_eq!(a.strategy, chunk[0].strategy);
        }
    }
    let err = report.final_error().unwrap();
    assert!(err.is_transient(), "got {err}");
}

#[test]
fn identical_plans_produce_identical_reports() {
    quiet_injected_panics();
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let plan = FaultPlan::new(0xfeed).with(
        site::STORAGE_INSERT,
        FaultSpec { kind: FaultKind::Transient, trigger: Trigger::Probability(0.3) },
    );
    let mut renders = Vec::new();
    for _ in 0..2 {
        let guard = plan.install();
        let report = sys.run(&ladder(&q, &d, engine_cfg(1)));
        drop(guard);
        // Strip the timing column: determinism covers outcomes, not clocks.
        let render: Vec<String> = report
            .to_string()
            .lines()
            .map(|l| l.split(" [").next().unwrap_or(l).to_owned())
            .collect();
        renders.push(render);
    }
    assert_eq!(renders[0], renders[1], "a reinstalled plan must replay identically");
}

// ---------------------------------------------------------------------------
// Telemetry under faults: injected failures must appear as error-tagged
// spans without corrupting the span tree.
// ---------------------------------------------------------------------------

#[test]
fn injected_faults_appear_as_error_tagged_spans() {
    use obda::CollectingTracer;

    quiet_injected_panics();
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    for kind in [FaultKind::Transient, FaultKind::Panic] {
        let tracer = CollectingTracer::new();
        let plan = FaultPlan::always(21, site::ENGINE_CLAUSE_TASK, kind);
        let guard = plan.install();
        let report = sys.run(&AnswerRequest {
            telem: Telemetry::new(&tracer, None),
            ..ladder(&q, &d, engine_cfg(4))
        });
        drop(guard);
        assert!(report.winner.is_none(), "{kind:?}: an always-fault cannot succeed");

        let tree = tracer.snapshot();
        // The unwind must not corrupt the tree: every span was closed (the
        // RAII guards run during unwinding), and both renderers still work.
        assert!(
            tree.iter().all(|s| s.ended),
            "{kind:?}: a fault left an unfinished span:\n{}",
            tree.render_pretty()
        );
        assert!(!tree.render_pretty().is_empty());
        assert!(tree.render_json().starts_with('['));

        // One attempt span per recorded ladder attempt, each error-tagged
        // with the outcome the report shows (none of them succeeded).
        let attempts: Vec<_> = tree.iter().filter(|s| s.name == "attempt").collect();
        assert_eq!(
            attempts.len(),
            report.attempts.len(),
            "{kind:?}: the trace and the report disagree on attempts:\n{}",
            tree.render_pretty()
        );
        assert!(
            attempts.iter().all(|s| s.error.is_some()),
            "{kind:?}: every failed attempt must be error-tagged:\n{}",
            tree.render_pretty()
        );
        // The injection site surfaces in the error tags.
        assert!(
            tree.iter()
                .filter_map(|s| s.error.as_deref())
                .any(|e| e.contains(site::ENGINE_CLAUSE_TASK)),
            "{kind:?}: no error tag names the faulted site:\n{}",
            tree.render_pretty()
        );
    }
}

// ---------------------------------------------------------------------------
// Service liveness under sustained failure
// ---------------------------------------------------------------------------

#[test]
fn service_keeps_answering_after_sustained_failures() {
    quiet_injected_panics();
    let oracle = oracle();
    let svc = service(engine_cfg(1));
    let (omq, data) = served_fixture(&svc);
    let spec = BudgetSpec::unlimited();

    // Every evaluation faults: 60 consecutive requests fail with a typed
    // error once their retries are spent, each leaving the gate clean.
    let plan = FaultPlan::always(11, site::ENGINE_CLAUSE_TASK, FaultKind::Transient);
    let guard = plan.install();
    for i in 0..60 {
        let err = svc.answer(&omq, &data, &spec, Telemetry::disabled()).unwrap_err();
        assert!(err.is_transient(), "request {i}: got {err}");
        let (active, queued) = svc.load();
        assert_eq!((active, queued), (0, 0), "request {i} leaked a gate slot");
    }
    guard.disarm();
    assert_eq!(svc.stats().failed, 60);

    // The very next request — same service, same prepared query — answers.
    let run = svc.answer(&omq, &data, &spec, Telemetry::disabled()).unwrap();
    assert_eq!(run.result.answers, oracle);
    assert_eq!(svc.stats().succeeded, 1);
}

/// A served retry pauses at most until the request's deadline: an
/// always-transient evaluation with a 300 ms backoff under a 50 ms
/// deadline returns near the deadline, not a whole backoff past it, and
/// starts no second attempt once its pause has used the deadline up.
#[test]
fn served_retry_never_sleeps_past_the_deadline() {
    quiet_injected_panics();
    let pause = Duration::from_millis(300);
    let svc = QueryService::new(
        system(),
        ServiceConfig {
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: pause,
                max_backoff: pause,
                seed: 0x0bda_5eed,
            },
            engine: engine_cfg(1),
            ..ServiceConfig::default()
        },
    );
    let (omq, data) = served_fixture(&svc);
    let spec = BudgetSpec { timeout: Some(Duration::from_millis(50)), ..BudgetSpec::unlimited() };
    let guard = FaultPlan::always(29, site::ENGINE_CLAUSE_TASK, FaultKind::Transient).install();
    let start = Instant::now();
    let err = svc.answer(&omq, &data, &spec, Telemetry::disabled()).unwrap_err();
    let took = start.elapsed();
    let attempts = obda::faults::hits(site::ENGINE_CLAUSE_TASK);
    guard.disarm();
    assert!(err.is_transient(), "the last transient stands: got {err}");
    assert!(took < Duration::from_millis(150), "returned {took:?} after arrival");
    assert_eq!(attempts, 1, "no attempt runs after the pause reached the deadline");
    assert_eq!(svc.metrics().counter("service_transient_retries_total").get(), 0);
}

#[test]
fn prepare_under_faults_fails_typed_then_recovers() {
    quiet_injected_panics();
    let svc = service(EngineConfig::unpruned());
    let query = svc.system().parse_query(QUERY).unwrap();
    let spec = BudgetSpec::unlimited();
    let plan = FaultPlan::always(13, site::REWRITE_TREE_WITNESS, FaultKind::Panic);
    let guard = plan.install();
    let err = svc.prepare(&query, Strategy::Tw, &spec).unwrap_err();
    assert!(matches!(err, ObdaError::Internal { .. }), "got {err}");
    guard.disarm();
    // Preparing works once the fault is gone.
    assert!(svc.prepare(&query, Strategy::Tw, &spec).is_ok());
}

/// A fault injected partway through a tree-witness enumeration leaves the
/// system's memo as it was, and the next prepare rewrites exactly like a
/// system that never saw the fault.
#[test]
fn tree_witness_fault_leaves_the_memo_untouched() {
    quiet_injected_panics();
    const EXAMPLE_11: &str = "P SubPropertyOf S\nP SubPropertyOf R-\n";
    const TEXT: &str = "q(x0, x5) :- S(x0, x1), R(x1, x2), R(x2, x3), S(x3, x4), R(x4, x5)";
    let (svc, query, reference) = {
        let _quiet = quiet();
        let svc = QueryService::new(ObdaSystem::from_text(EXAMPLE_11).unwrap(), Default::default());
        let warm =
            svc.system().parse_query("q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)").unwrap();
        svc.prepare(&warm, Strategy::Tw, &BudgetSpec::unlimited()).unwrap();
        let query = svc.system().parse_query(TEXT).unwrap();
        let fresh = ObdaSystem::from_text(EXAMPLE_11).unwrap();
        (svc, query, fresh.rewrite(&fresh.parse_query(TEXT).unwrap(), Strategy::Tw).unwrap())
    };
    let memo = svc.system().tree_witness_memo();
    let entries = memo.len();
    assert!(entries > 0);
    for (nth, kind) in [(2, FaultKind::Transient), (6, FaultKind::Panic)] {
        let plan = FaultPlan::new(17)
            .with(site::REWRITE_TREE_WITNESS, FaultSpec { kind, trigger: Trigger::Nth(nth) });
        let guard = plan.install();
        let err = svc.prepare(&query, Strategy::Tw, &BudgetSpec::unlimited()).unwrap_err();
        assert!(
            matches!(err, ObdaError::Transient { .. } | ObdaError::Internal { .. }),
            "{kind:?} at candidate {nth}: got {err}"
        );
        guard.disarm();
        assert_eq!(memo.len(), entries, "{kind:?} at candidate {nth} stored a shape");
    }
    let _quiet = quiet();
    let omq = svc.prepare(&query, Strategy::Tw, &BudgetSpec::unlimited()).unwrap();
    assert_eq!(omq.rewriting().program.clauses(), reference.program.clauses());
    assert!(memo.len() > entries, "the completed prepare stores its shapes");
}

// ---------------------------------------------------------------------------
// Snapshot store chaos: injected faults on the `.obdb` open path, plus
// systematically truncated and bit-flipped files. The invariants mirror
// the pipeline's: typed errors, no escaped panics (except the deliberate
// injected-panic stand-in, which must unwind cleanly), full recovery
// once the fault is gone.
// ---------------------------------------------------------------------------

fn store_temp_path() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "obda-chaos-{}-{}.obdb",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Writes the fixture data as a snapshot and returns the system that owns
/// the vocabulary it was written against.
fn store_fixture(path: &std::path::Path) -> ObdaSystem {
    let _quiet = quiet();
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let data = sys.parse_data(DATA).unwrap();
    obda::write_snapshot(path, sys.ontology().vocab(), &data).unwrap();
    sys
}

#[test]
fn store_open_transient_fault_is_typed_then_recovers() {
    use obda::{Snapshot, StoreError};

    quiet_injected_panics();
    let path = store_temp_path();
    let sys = store_fixture(&path);
    let plan = FaultPlan::always(17, site::STORE_OPEN, FaultKind::Transient);
    let guard = plan.install();
    let err = Snapshot::open(&path, sys.ontology().vocab()).unwrap_err();
    assert!(matches!(&err, StoreError::Injected { site } if site == site::STORE_OPEN), "got {err}");
    guard.disarm();

    // Disarmed, the very same file opens and answers exactly the oracle.
    let snap = Snapshot::open(&path, sys.ontology().vocab()).unwrap();
    std::fs::remove_file(&path).ok();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let report = sys.run(&AnswerRequest {
        fallback: true,
        retry: RetryPolicy::default(),
        ..AnswerRequest::new(&q, DataSource::Backend(&snap), Strategy::Tw)
    });
    assert_eq!(
        report.result().expect("recovered open must answer").answers,
        sys.certain_answers(&q, &d).tuples()
    );
}

#[test]
fn store_open_injected_panic_unwinds_cleanly() {
    use obda::Snapshot;

    quiet_injected_panics();
    let path = store_temp_path();
    let sys = store_fixture(&path);
    let plan = FaultPlan::always(19, site::STORE_OPEN, FaultKind::Panic);
    let guard = plan.install();
    // The store deliberately re-raises injected *panics* (they model bugs,
    // not I/O failures) so the caller's isolation boundary is exercised;
    // the unwind must not poison the file or the vocabulary.
    let caught = catch_unwind(AssertUnwindSafe(|| Snapshot::open(&path, sys.ontology().vocab())));
    assert!(caught.is_err(), "an always-panic plan must unwind out of open");
    guard.disarm();
    let snap = Snapshot::open(&path, sys.ontology().vocab()).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(snap.database().num_atoms() > 0);
}

/// Every truncation point and a sweep of single-bit flips. The invariant
/// is *never a wrong tuple, never an unwind*:
///
/// * any truncation fails typed at open — every declared byte range is
///   pre-validated against the mapped length, so a short file can never
///   SIGBUS a later column touch;
/// * a bit flip either fails typed (at open, or when the segment
///   hydrates) or lands in dead padding bytes, in which case the decoded
///   instance must be byte-identical to the original.
#[test]
fn truncated_and_bit_flipped_snapshots_fail_typed() {
    use obda::{Snapshot, StoreError};

    quiet_injected_panics();
    let path = store_temp_path();
    let sys = store_fixture(&path);
    let _quiet = quiet();
    let original = std::fs::read(&path).unwrap();
    let expected = sys.parse_data(DATA).unwrap().to_text(sys.ontology());

    let assert_typed = |err: &StoreError, ctx: &str| {
        assert!(
            !matches!(err, StoreError::Injected { .. } | StoreError::Io(_)),
            "{ctx}: corruption must surface as a format error, got {err}"
        );
    };
    // Opens the bytes and hydrates every segment (the instance view
    // verifies all of them). Returns whether anything succeeded end to
    // end — in which case the data must be pristine.
    let open_and_touch = |bytes: &[u8], ctx: &str| -> bool {
        std::fs::write(&path, bytes).unwrap();
        let vocab = sys.ontology().vocab();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let snap = Snapshot::open(&path, vocab)?;
            snap.data_instance().map(|data| data.to_text(sys.ontology()))
        }));
        match caught
            .unwrap_or_else(|_| panic!("{ctx}: corruption unwound instead of failing typed"))
        {
            Ok(text) => {
                assert_eq!(text, expected, "{ctx}: corrupted bytes decoded to wrong data");
                true
            }
            Err(err) => {
                assert_typed(&err, ctx);
                false
            }
        }
    };

    // Truncations fail typed at open: range pre-validation runs before
    // any segment is touched.
    for len in 0..original.len() {
        let ctx = format!("truncated to {len} bytes");
        std::fs::write(&path, &original[..len]).unwrap();
        let vocab = sys.ontology().vocab();
        let caught = catch_unwind(AssertUnwindSafe(|| Snapshot::open(&path, vocab)));
        let result = caught.unwrap_or_else(|_| panic!("{ctx}: open panicked"));
        let err = result.err().unwrap_or_else(|| panic!("{ctx}: truncated snapshot opened"));
        assert_typed(&err, &ctx);
    }
    // Bit flips: typed failure or provably-harmless (dead padding).
    for pos in (0..original.len()).step_by(7) {
        for bit in [0u8, 3, 7] {
            let mut flipped = original.clone();
            flipped[pos] ^= 1 << bit;
            open_and_touch(&flipped, &format!("bit {bit} at byte {pos}"));
        }
    }

    // The pristine bytes still open: corruption detection has no memory.
    assert!(open_and_touch(&original, "pristine bytes"));
    std::fs::remove_file(&path).ok();
}

/// The `store::map` site: a transient fault at the mapping boundary is
/// the typed [`StoreError::Injected`], and the very same file maps and
/// answers once the plan is disarmed.
#[test]
fn store_map_transient_fault_is_typed_then_recovers() {
    use obda::{Snapshot, StoreError};

    quiet_injected_panics();
    let path = store_temp_path();
    let sys = store_fixture(&path);
    let plan = FaultPlan::always(23, site::STORE_MAP, FaultKind::Transient);
    let guard = plan.install();
    let err = Snapshot::open(&path, sys.ontology().vocab()).unwrap_err();
    assert!(matches!(&err, StoreError::Injected { site } if site == site::STORE_MAP), "got {err}");
    guard.disarm();

    let snap = Snapshot::open(&path, sys.ontology().vocab()).unwrap();
    std::fs::remove_file(&path).ok();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let report = sys.run(&AnswerRequest {
        fallback: true,
        retry: RetryPolicy::default(),
        ..AnswerRequest::new(&q, DataSource::Backend(&snap), Strategy::Tw)
    });
    assert_eq!(
        report.result().expect("recovered map must answer").answers,
        sys.certain_answers(&q, &d).tuples()
    );
}

/// A corrupted segment reached through the *pipeline*: the request
/// hydrates its program's relations before it plans, so the bad block is
/// a typed store error — one attempt, the ladder stops, nothing panics,
/// and on the served path no strategy breaker records a failure (a
/// threshold of one would open on the first). The failed slot stays
/// pending, so the same snapshot fails the same way on the next request,
/// on the ladder path and the prepared (served) path alike; a pristine
/// reopen answers.
#[test]
fn corrupt_segment_is_a_typed_store_error_in_the_pipeline() {
    use obda::{BreakerConfig, Snapshot, StoreError};

    quiet_injected_panics();
    let path = store_temp_path();
    let sys = store_fixture(&path);
    let _quiet = quiet();
    let pristine = std::fs::read(&path).unwrap();
    let mut bytes = pristine.clone();
    // Data blocks are page-aligned after the metadata (which fits the
    // first page): flip the first byte of every later page, so whatever
    // the pruned program joins is corrupt.
    assert!(bytes.len() > 4096, "fixture must have a page-aligned data region");
    for page in (4096..bytes.len()).step_by(4096) {
        bytes[page] ^= 0xff;
    }
    std::fs::write(&path, &bytes).unwrap();
    let snap = Snapshot::open(&path, sys.ontology().vocab()).expect("open reads only meta");
    std::fs::remove_file(&path).ok();
    // A fresh file: rewriting the mapped one in place would repair `snap`.
    let path = store_temp_path();
    std::fs::write(&path, &pristine).unwrap();
    let healthy = Snapshot::open(&path, sys.ontology().vocab()).unwrap();
    std::fs::remove_file(&path).ok();

    let svc = QueryService::new(
        ObdaSystem::from_text(ONTOLOGY).unwrap(),
        ServiceConfig {
            max_concurrency: 1,
            max_queue: 0,
            retry: fast_retry(),
            engine: engine_cfg(1),
            overload: OverloadConfig {
                breaker: Some(BreakerConfig {
                    window: 2,
                    threshold: 1,
                    cooldown: Duration::from_secs(60),
                    probes: 1,
                    seed: 1,
                }),
                ..OverloadConfig::default()
            },
        },
    );
    let q = svc.system().parse_query(QUERY).unwrap();
    // The one-shot ladder over `data`, with the service's options.
    let ladder_over = |data| AnswerRequest {
        fallback: true,
        engine: engine_cfg(1),
        retry: fast_retry(),
        ..AnswerRequest::new(&q, data, Strategy::Tw)
    };
    for round in 0..2 {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            svc.system().run(&ladder_over(DataSource::Backend(&snap)))
        }));
        let report = caught.expect("corruption must not unwind");
        assert!(report.result().is_none(), "round {round}: corrupted segments cannot answer");
        assert_eq!(report.attempts.len(), 1, "round {round}: the ladder stops:\n{report}");
        assert!(
            matches!(
                &report.attempts[0].outcome,
                AttemptOutcome::StoreFailed(StoreError::ChecksumMismatch { .. })
            ),
            "round {round}: the store error must be the attempt's outcome:\n{report}"
        );
        assert!(!report
            .attempts
            .iter()
            .any(|a| matches!(a.outcome, AttemptOutcome::Panicked { .. })));
        let err = report.final_error().unwrap();
        assert!(matches!(err, ObdaError::Store(StoreError::ChecksumMismatch { .. })), "{err}");
    }
    // The prepared (served) path hydrates before cost admission and
    // planning, and fails the same typed way.
    let spec = BudgetSpec::unlimited();
    let omq = svc.prepare(&q, Strategy::Tw, &spec).unwrap();
    for _ in 0..2 {
        let err = svc.answer(&omq, &snap, &spec, Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, ObdaError::Store(StoreError::ChecksumMismatch { .. })), "{err}");
    }
    assert_eq!(svc.metrics().counter("service_breaker_opened_total_tw").get(), 0);
    assert_eq!(svc.metrics().counter("service_breaker_skipped_total_tw").get(), 0);

    // A pristine snapshot answers through the same service.
    let d = svc.system().parse_data(DATA).unwrap();
    let oracle = svc.system().certain_answers(&q, &d).tuples();
    let report = svc.system().run(&ladder_over(DataSource::Backend(&healthy)));
    assert_eq!(report.result().expect("pristine snapshot answers").answers, oracle);
    let run = svc.answer(&omq, &healthy, &spec, Telemetry::disabled()).unwrap();
    assert_eq!(run.result.answers, oracle);
}

// ---------------------------------------------------------------------------
// Completion memo: a fill halted by a fault, the tuple cap or the
// deadline stores nothing, and the same database answers exactly the
// oracle on the next evaluation.
// ---------------------------------------------------------------------------

#[test]
fn halted_completion_fills_store_nothing() {
    use obda::budget::Budget;
    use obda::datagen::erdos::TABLE_2;
    use obda::datagen::sequences::{example_11_ontology, word_query};
    use obda::ndl::storage::Database;

    quiet_injected_panics();
    let off = Telemetry::disabled();
    let (data, prepared, oracle, fresh) = {
        let _quiet = quiet();
        let sys = ObdaSystem::new(example_11_ontology());
        let mut data = TABLE_2[0].scaled(0.003).generate(sys.ontology());
        // Log keeps `R*` and `S*` as completion predicates for this word.
        // The generated data has no `P` atoms, which would leave `R*` one
        // live clause, a renaming of `R` filled without inserts. A few `P`
        // atoms give it a second clause, so its fill runs the join kernel
        // and inserts, and the insert faults below halt that fill.
        let p = sys.ontology().vocab().get_prop("P").unwrap();
        for i in 0..6 {
            let (a, b) = (data.constant(&format!("v{i}")), data.constant(&format!("v{}", i + 1)));
            data.add_prop_atom(p, a, b);
        }
        let q = word_query(sys.ontology(), "SRRS");
        let prepared = sys.prepare(&q, Strategy::Log).unwrap();
        let oracle = sys.certain_answers(&q, &data).tuples();
        let db = Database::new(&data);
        let fresh =
            prepared.execute_engine_traced(&db, &mut Budget::unlimited(), &engine_cfg(1), off);
        let fresh = fresh.unwrap();
        assert_eq!(fresh.answers, oracle);
        (data, prepared, oracle, fresh)
    };
    // A named halt: what stops the fill, and the budget it runs under.
    type Halt = (&'static str, Option<FaultPlan>, fn() -> Budget);
    let transient = FaultKind::Transient;
    let halts: [Halt; 6] = [
        (
            "clause_task always",
            Some(FaultPlan::always(1, site::ENGINE_CLAUSE_TASK, transient)),
            Budget::unlimited,
        ),
        (
            "clause_task panic on the first task",
            Some(FaultPlan::new(2).with(
                site::ENGINE_CLAUSE_TASK,
                FaultSpec { kind: FaultKind::Panic, trigger: Trigger::Nth(1) },
            )),
            Budget::unlimited,
        ),
        (
            "insert always",
            Some(FaultPlan::always(3, site::STORAGE_INSERT, transient)),
            Budget::unlimited,
        ),
        (
            "third insert",
            Some(FaultPlan::new(4).with(
                site::STORAGE_INSERT,
                FaultSpec { kind: transient, trigger: Trigger::Nth(3) },
            )),
            Budget::unlimited,
        ),
        ("tuple cap", None, || Budget::unlimited().max_tuples(5)),
        ("deadline", None, || Budget::with_timeout(Duration::ZERO)),
    ];
    for threads in [1usize, 4] {
        let cfg = engine_cfg(threads);
        for (name, plan, budget) in &halts {
            let ctx = format!("{name}, threads={threads}");
            let db = Database::new(&data);
            let guard = plan.as_ref().map_or_else(quiet, FaultPlan::install);
            let halted = prepared.execute_engine_traced(&db, &mut budget(), &cfg, off);
            guard.disarm();
            assert!(halted.is_err(), "{ctx}: the evaluation must halt");
            assert!(db.completions().is_empty(), "{ctx}: a halted fill stored a relation");
            for run in ["first", "warm"] {
                let res = prepared.execute_engine_traced(&db, &mut Budget::unlimited(), &cfg, off);
                let res = res.unwrap();
                assert_eq!(res.answers, oracle, "{ctx}: {run} run after the halt");
                assert_eq!(res.stats.per_predicate, fresh.stats.per_predicate, "{ctx}: {run} run");
                assert!(!db.completions().is_empty(), "{ctx}: the clean run fills the memo");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property-based chaos: arbitrary plans over arbitrary sites.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    /// For an arbitrary seeded plan over any site, kind and trigger, at
    /// one or four engine threads (or unpruned on one thread), the
    /// system returns either the oracle answer or a typed error — never a
    /// wrong answer, never an escaped panic.
    #[test]
    fn arbitrary_fault_plans_are_sound(
        seed in any::<u64>(),
        site_idx in 0usize..site::ALL.len(),
        panic_kind in any::<bool>(),
        trigger_sel in 0u8..4,
        n in 1u64..5,
        p_mil in 0u32..1000,
        engine_sel in 0u8..3,
    ) {
        quiet_injected_panics();
        let oracle = oracle();
        let kind = if panic_kind { FaultKind::Panic } else { FaultKind::Transient };
        let trigger = match trigger_sel {
            0 => Trigger::Always,
            1 => Trigger::Nth(n),
            2 => Trigger::EveryNth(n),
            _ => Trigger::Probability(f64::from(p_mil) / 1000.0),
        };
        let engine = match engine_sel {
            0 => EngineConfig::unpruned(),
            1 => engine_cfg(1),
            _ => engine_cfg(4),
        };
        let sys = system();
        let fault_site = site::ALL[site_idx];
        let plan = FaultPlan::new(seed)
            .with(fault_site, FaultSpec { kind, trigger });
        let ctx = format!(
            "seed={seed} site={fault_site} kind={kind:?} trigger={trigger:?} engine={engine_sel}"
        );
        let guard = plan.install();
        assert_sound(&sys, &engine, &oracle, &ctx);
        guard.disarm();
        // And the same system answers correctly immediately afterwards.
        prop_assert!(assert_sound(&sys, &engine, &oracle, &format!("{ctx} (disarmed)")));
    }
}
