//! Fail-safe pipeline tests: unified budgets, typed errors and graceful
//! degradation, exercised end-to-end — including an adversarial run of the
//! `obda` binary that must always terminate with a typed exit code, never
//! panic and never hang.

use obda::budget::{Budget, BudgetSpec, Resource};
use obda::ndl::engine::EngineConfig;
use obda::ndl::eval::EvalError;
use obda::ndl::storage::Database;
use obda::{AnswerRequest, DataSource, ObdaError, ObdaSystem, RetryPolicy, Strategy, Telemetry};
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

/// An ontology whose canonical model is an infinite `R`-path (harmless
/// here: with one property the word arena stays small).
const CYCLIC_ONTOLOGY: &str = "A SubClassOf exists R\nexists R- SubClassOf A\n";

/// A cyclic ontology whose anonymous part branches over six properties:
/// the word tree is exponential in the arena bound (`#roles + #vars`), so
/// unbudgeted materialisation would exhaust memory.
fn deep_cyclic_ontology() -> String {
    let mut text = String::from("A SubClassOf exists R1\n");
    for i in 1..=6 {
        for j in 1..=6 {
            text.push_str(&format!("exists R{i}- SubClassOf exists R{j}\n"));
        }
    }
    text
}

/// A role hierarchy making PerfectRef-style UCQ rewriting exponential:
/// every chain atom `R(x_i, x_{i+1})` can independently be specialised to
/// any of the five subproperties, giving `6^8` disjuncts.
const EXPONENTIAL_ONTOLOGY: &str = "P1 SubPropertyOf R\n\
                                    P2 SubPropertyOf R\n\
                                    P3 SubPropertyOf R\n\
                                    P4 SubPropertyOf R\n\
                                    P5 SubPropertyOf R\n";

const EXPONENTIAL_QUERY: &str = "q(x0, x8) :- R(x0, x1), R(x1, x2), R(x2, x3), R(x3, x4), \
                                 R(x4, x5), R(x5, x6), R(x6, x7), R(x7, x8)";

/// A chain matching [`EXPONENTIAL_QUERY`] through the subproperties.
const EXPONENTIAL_DATA: &str = "P1(c0, c1)\nR(c1, c2)\nP2(c2, c3)\nR(c3, c4)\n\
                                P3(c4, c5)\nR(c5, c6)\nP4(c6, c7)\nR(c7, c8)\n";

// ---------------------------------------------------------------------------
// Chase divergence guard
// ---------------------------------------------------------------------------

#[test]
fn cyclic_chase_trips_budget_with_partial_stats() {
    let sys = ObdaSystem::from_text(&deep_cyclic_ontology()).unwrap();
    let q = sys.parse_query("q() :- A(x)").unwrap();
    let d = sys.parse_data("A(a)\n").unwrap();
    let mut budget = BudgetSpec { max_chase_elements: Some(50), ..BudgetSpec::unlimited() }.start();
    let err = sys.certain_answers_budgeted(&q, &d, &mut budget).unwrap_err();
    let ObdaError::Chase(chase) = err else {
        panic!("expected a chase budget error, got {err}");
    };
    assert_eq!(chase.exceeded.resource, Resource::ChaseElements);
    assert!(chase.elements > 0, "partial element count must be reported");
    assert!(ObdaError::Chase(chase).is_budget());
}

#[test]
fn cyclic_chase_respects_wall_clock() {
    let sys = ObdaSystem::from_text(&deep_cyclic_ontology()).unwrap();
    let q = sys.parse_query("q() :- A(x)").unwrap();
    let d = sys.parse_data("A(a)\n").unwrap();
    let start = std::time::Instant::now();
    let mut budget = Budget::with_timeout(Duration::from_millis(200));
    let res = sys.certain_answers_budgeted(&q, &d, &mut budget);
    assert!(res.is_err(), "the exponential word tree must trip the deadline");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "the guard must fire promptly, took {:?}",
        start.elapsed()
    );
}

#[test]
fn harmless_cyclic_ontology_still_answers() {
    // One property: the depth bound keeps the arena small, so the same
    // budgeted path completes and agrees with the rewriting.
    let sys = ObdaSystem::from_text(CYCLIC_ONTOLOGY).unwrap();
    let q = sys.parse_query("q(x) :- A(x)").unwrap();
    let d = sys.parse_data("A(a)\nR(b, a)\n").unwrap();
    let mut budget = Budget::with_timeout(Duration::from_secs(30));
    let oracle = sys.certain_answers_budgeted(&q, &d, &mut budget).unwrap().tuples();
    let res = sys.answer(&q, &d, Strategy::Tw).unwrap();
    assert_eq!(res.answers, oracle);
    assert!(!oracle.is_empty());
}

// ---------------------------------------------------------------------------
// Evaluation budgets are consistent across engines and strategies
// ---------------------------------------------------------------------------

#[test]
fn eval_budget_returns_partial_stats_across_strategies() {
    let sys = ObdaSystem::from_text("P SubPropertyOf S\nP SubPropertyOf R-\n").unwrap();
    let q = sys.parse_query("q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)").unwrap();
    let d = sys.parse_data("P(w, a)\nR(a, b)\nR(b, c)\nS(c, d)\nR(d, e)\n").unwrap();
    let db = Database::new(&d);
    let oracle = sys.certain_answers(&q, &d).tuples();
    let (unpruned, off) = (EngineConfig::unpruned(), Telemetry::disabled());
    for strategy in [Strategy::Lin, Strategy::Log, Strategy::Tw, Strategy::TwStar] {
        let prepared = sys.prepare(&q, strategy).unwrap();
        let mut budget = BudgetSpec { max_tuples: Some(1), ..BudgetSpec::unlimited() }.start();
        let err = prepared.execute_engine_traced(&db, &mut budget, &unpruned, off).unwrap_err();
        let EvalError::TupleLimit(stats) = &err else {
            panic!("strategy {strategy}: expected TupleLimit, got {err}");
        };
        assert_eq!(stats.num_answers, 0, "strategy {strategy}: interrupted before the goal");
        // The same prepared query still answers correctly with a fresh,
        // unconstrained budget: tripping leaves no poisoned state.
        let res = prepared.execute_engine_traced(&db, &mut Budget::unlimited(), &unpruned, off);
        let res = res.unwrap();
        assert_eq!(res.answers, oracle, "strategy {strategy}");
    }
}

// ---------------------------------------------------------------------------
// Fallback ladder
// ---------------------------------------------------------------------------

#[test]
fn fallback_ladder_degrades_from_exponential_to_polynomial() {
    let sys = ObdaSystem::from_text(EXPONENTIAL_ONTOLOGY).unwrap();
    let q = sys.parse_query(EXPONENTIAL_QUERY).unwrap();
    let d = sys.parse_data(EXPONENTIAL_DATA).unwrap();
    // A clause budget the 6^8-disjunct UCQ cannot fit but Tw easily can.
    let spec = BudgetSpec { max_clauses: Some(5_000), ..BudgetSpec::unlimited() };
    let report = sys.run(&AnswerRequest {
        fallback: true,
        spec,
        retry: RetryPolicy::default(),
        ..AnswerRequest::new(&q, DataSource::Parse(&d), Strategy::Ucq)
    });
    assert!(report.winner.is_some(), "a polynomial strategy must win:\n{report}");
    assert!(report.attempts.len() >= 2, "UCQ must have been tried and failed first");
    assert!(
        matches!(
            report.attempts[0].outcome,
            obda::AttemptOutcome::RewriteFailed(ref e) if e.is_budget()
        ),
        "the UCQ attempt must fail on the clause budget:\n{report}"
    );
    let oracle = sys.certain_answers(&q, &d).tuples();
    assert!(!oracle.is_empty());
    assert_eq!(report.result().unwrap().answers, oracle, "fallback answers must be correct");
    assert_ne!(report.winning_strategy(), Some(Strategy::Ucq));
}

#[test]
fn fallback_report_all_exhausted_when_nothing_fits() {
    let sys = ObdaSystem::from_text("A SubClassOf exists P\n").unwrap();
    let q = sys.parse_query("q(x) :- P(x, y)").unwrap();
    let d = sys.parse_data("A(a)\n").unwrap();
    let spec = BudgetSpec { max_clauses: Some(1), ..BudgetSpec::unlimited() };
    let report = sys.run(&AnswerRequest {
        fallback: true,
        spec,
        retry: RetryPolicy::default(),
        ..AnswerRequest::new(&q, DataSource::Parse(&d), Strategy::Adaptive)
    });
    assert!(report.winner.is_none());
    assert!(report.all_exhausted(), "every attempt tripped the clause budget:\n{report}");
    assert!(report.final_error().is_some_and(|e| e.is_budget()));
}

#[test]
fn adaptive_rewriter_survives_per_candidate_budget_trips() {
    // Adaptive renews the budget per candidate: one candidate blowing its
    // counters must not starve the next.
    let sys = ObdaSystem::from_text(EXPONENTIAL_ONTOLOGY).unwrap();
    let q = sys.parse_query(EXPONENTIAL_QUERY).unwrap();
    let d = sys.parse_data(EXPONENTIAL_DATA).unwrap();
    let spec = BudgetSpec { max_clauses: Some(5_000), ..BudgetSpec::unlimited() };
    let cfg = EngineConfig::unpruned();
    let res = sys.answer_with_budget_engine(&q, &d, Strategy::Adaptive, &spec, &cfg).unwrap();
    assert_eq!(res.answers, sys.certain_answers(&q, &d).tuples());
}

// ---------------------------------------------------------------------------
// Panic isolation: a clause task that panics must surface as a typed
// internal error, never as a process-level panic.
// ---------------------------------------------------------------------------

#[test]
fn panicking_clause_task_is_a_typed_internal_error() {
    use obda::ndl::engine::evaluate_engine_on_traced;
    use obda::ndl::program::{BodyAtom, CVar, Clause, NdlQuery, PredKind, Program};
    use obda::owlql::parser::{parse_data, parse_ontology};

    // The EDB property `R` stores width-2 rows, but this hand-built
    // program declares it with arity 3 — so the clause task indexes past
    // the row at runtime. The engine must catch the panic at the task
    // boundary, cancel any sibling workers and return the typed
    // `Internal` error.
    let o = parse_ontology("Property R\n").unwrap();
    let d = parse_data("R(a, b)\nR(b, c)\n", &o).unwrap();
    let v = o.vocab();
    let mut p = Program::new();
    let r = p.add_pred("R", 3, PredKind::EdbProp(v.get_prop("R").unwrap()));
    let g = p.add_pred("G", 1, PredKind::Idb);
    p.add_clause(Clause {
        head: g,
        head_args: vec![CVar(0)],
        body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1), CVar(2)])],
        num_vars: 3,
    });
    let q = NdlQuery::new(p, g);
    let db = Database::new(&d);
    for threads in [1, 4] {
        let cfg = EngineConfig { threads, prune: false, chunk_min_rows: 1, plan: true };
        let err = evaluate_engine_on_traced(
            &q,
            &db,
            &mut Budget::unlimited(),
            &cfg,
            Telemetry::disabled(),
        )
        .unwrap_err();
        let EvalError::Internal { site, .. } = &err else {
            panic!("threads={threads}: expected Internal, got {err}");
        };
        assert_eq!(site, "ndl::engine::clause_task", "threads={threads}");
        // Lifting into the pipeline taxonomy keeps it typed and
        // non-retryable: a panic is a bug, not a resource problem.
        let lifted: ObdaError = err.into();
        assert!(matches!(lifted, ObdaError::Internal { .. }), "threads={threads}");
        assert!(!lifted.is_budget() && !lifted.is_transient(), "threads={threads}");
    }
}

// ---------------------------------------------------------------------------
// PipelineReport error paths: mixed retry/degrade attempts expose typed,
// ordered outcomes through every report helper.
// ---------------------------------------------------------------------------

#[test]
fn report_error_paths_expose_typed_outcomes_in_order() {
    use obda::{Attempt, AttemptOutcome, PipelineReport};

    // A ladder run as the service would record it: Tw faults transiently,
    // is retried once, faults again; Log then panics. No winner.
    let attempt = |strategy, retry, outcome| Attempt {
        strategy,
        retry,
        outcome,
        clauses: Some(12),
        duration: Duration::from_millis(3),
    };
    let report = PipelineReport {
        attempts: vec![
            attempt(
                Strategy::Tw,
                0,
                AttemptOutcome::Transient { site: "ndl::storage::insert".into() },
            ),
            attempt(
                Strategy::Tw,
                1,
                AttemptOutcome::Transient { site: "ndl::storage::insert".into() },
            ),
            attempt(
                Strategy::Log,
                0,
                AttemptOutcome::Panicked {
                    site: "ndl::engine::clause_task".into(),
                    payload: "index out of bounds".into(),
                },
            ),
        ],
        winner: None,
    };
    assert_eq!(report.winning_strategy(), None);
    assert!(report.result().is_none());
    assert_eq!(report.num_retries(), 1);
    // Faults and panics are NOT "the instance is too big for the budget".
    assert!(!report.all_exhausted());
    // The decisive error is the last attempt's, fully typed.
    let err = report.final_error().unwrap();
    let ObdaError::Internal { site, payload } = &err else {
        panic!("expected Internal, got {err}");
    };
    assert_eq!(site, "ndl::engine::clause_task");
    assert_eq!(payload, "index out of bounds");
    // Retries are recorded in order and rendered with their retry number.
    assert_eq!(report.attempts[0].retry, 0);
    assert_eq!(report.attempts[1].retry, 1);
    let text = report.to_string();
    assert!(text.contains("(retry 1)"), "report: {text}");
    assert!(text.contains("transient fault at ndl::storage::insert"), "report: {text}");
    assert!(text.contains("panicked at ndl::engine::clause_task"), "report: {text}");
}

#[test]
fn report_budget_failures_still_count_as_exhausted() {
    // A pure budget-trip ladder (no faults) keeps the "all exhausted"
    // verdict even with retries recorded on other paths.
    let sys = ObdaSystem::from_text("A SubClassOf exists P\n").unwrap();
    let q = sys.parse_query("q(x) :- P(x, y)").unwrap();
    let d = sys.parse_data("A(a)\n").unwrap();
    let spec = BudgetSpec { max_clauses: Some(1), ..BudgetSpec::unlimited() };
    let report = sys.run(&AnswerRequest {
        fallback: true,
        spec,
        retry: RetryPolicy::default(),
        ..AnswerRequest::new(&q, DataSource::Parse(&d), Strategy::Adaptive)
    });
    assert!(report.all_exhausted());
    assert_eq!(report.num_retries(), 0, "budget trips are never retried:\n{report}");
    assert!(report.final_error().is_some_and(|e| !e.is_transient() && e.is_budget()));
}

// ---------------------------------------------------------------------------
// Adversarial CLI suite: 1-second budgets, malformed inputs, cyclic and
// exponential instances. Every run must terminate with a typed exit code.
// ---------------------------------------------------------------------------

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("obda_failsafe_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Fixture { dir }
    }

    fn file(&self, name: &str, contents: &str) -> String {
        let path = self.dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn run_cli(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_obda")).args(args).output().unwrap();
    (
        out.status.code().expect("CLI must exit, not die on a signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_threads_and_pruning_flags_answer_identically() {
    let fx = Fixture::new("threads");
    let o = fx.file("o.owlql", "A SubClassOf exists R\nP SubPropertyOf R\n");
    let q = fx.file("q.cq", "q(x) :- R(x, y)");
    let d = fx.file("d.abox", "A(a)\nP(b, c)\nR(c, d)\n");
    let base = ["answer", "--ontology", &o, "--query", &q, "--data", &d, "--oracle"];
    let mut outputs = Vec::new();
    for extra in [&[][..], &["--threads", "4"][..], &["--threads", "0", "--no-prune"][..]] {
        let mut args: Vec<&str> = base.to_vec();
        args.extend_from_slice(extra);
        let (code, out, err) = run_cli(&args);
        assert_eq!(code, 0, "args {args:?}, stderr: {err}");
        assert!(err.contains("oracle agrees"), "stderr: {err}");
        outputs.push(out);
    }
    assert!(outputs.iter().all(|o| o == &outputs[0]), "answers differ across engines");
    // A malformed thread count is a usage error.
    let (code, _, _) = run_cli(&["answer", "--threads", "many"]);
    assert_eq!(code, 2);
}

#[test]
fn cli_rejects_unknown_commands_and_flags_with_usage() {
    let (code, _, err) = run_cli(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(err.contains("usage:"));
    let (code, _, err) = run_cli(&["answer", "--frobnicate"]);
    assert_eq!(code, 2);
    assert!(err.contains("usage:"));
    let (code, _, _) = run_cli(&["answer", "--budget-secs", "not-a-number"]);
    assert_eq!(code, 2);
    for (flag, value) in [
        ("--brownout-queue-ms", "50"),
        ("--brownout-shed-below", "1"),
        ("--watchdog-stall-ms", "2000"),
        ("--tenant-priority", "greedy=0"),
    ] {
        let (code, _, err) = run_cli(&["serve", flag, value]);
        assert_eq!(code, 2);
        assert!(err.contains("usage:"));
    }
}

/// A quota that can never admit anything is a configuration mistake, not
/// a valid hardening choice: the CLI must refuse it up front with a clear
/// message, not boot a server that 429s every request forever.
#[test]
fn cli_rejects_unadmittable_quotas_with_a_clear_error() {
    for (flag, value, hint) in [
        ("--quota-rate", "0", "--quota-rate must be a positive number"),
        ("--quota-rate", "-3", "--quota-rate must be a positive number"),
        ("--quota-burst", "0", "--quota-burst must be at least 1"),
        ("--quota-burst", "0.5", "--quota-burst must be at least 1"),
    ] {
        let (code, _, err) = run_cli(&["serve", flag, value]);
        assert_eq!(code, 2, "{flag} {value} must be a usage error, stderr: {err}");
        assert!(err.contains(hint), "{flag} {value} needs a clear message, got: {err}");
        assert!(err.contains("admit nothing"), "{flag} {value} should say why: {err}");
        assert!(err.contains("usage:"), "the usage line still prints: {err}");
    }
    // Positive values still parse (the server then fails later only for
    // the missing --ontology, which is not a usage error).
    let (code, _, err) = run_cli(&["serve", "--quota-rate", "5", "--quota-burst", "10"]);
    assert_ne!(code, 2, "valid quotas must not be usage errors, stderr: {err}");
}

/// The drift guard for the CLI's exit-code contract: `--help` must exit 0
/// and its exit-code table must name every code 0–8 with the right
/// meaning, so a new `CliError` variant cannot ship undocumented.
#[test]
fn cli_help_names_every_exit_code() {
    let (code, out, _) = run_cli(&["--help"]);
    assert_eq!(code, 0, "--help must exit 0, not be treated as a usage error");
    assert!(out.contains("exit codes:"), "help lacks the exit-code table:\n{out}");
    let table: Vec<&str> = out.lines().skip_while(|l| !l.contains("exit codes:")).collect();
    for (digit, hint) in [
        ("0", "success"),
        ("1", "internal"),
        ("2", "usage"),
        ("3", "parse"),
        ("4", "rewriting"),
        ("5", "evaluation"),
        ("6", "budget"),
        ("7", "oracle"),
        ("8", "panic"),
    ] {
        let row = table
            .iter()
            .find(|l| l.trim_start().starts_with(&format!("{digit} ")))
            .unwrap_or_else(|| panic!("help does not document exit code {digit}:\n{out}"));
        assert!(row.contains(hint), "exit code {digit} row should mention '{hint}': {row}");
    }
    // `answer` never goes through an admission gate, so no code is
    // documented past 8.
    assert!(
        !table.iter().any(|l| l.trim_start().starts_with("9 ")),
        "help documents an exit code the CLI cannot return:\n{out}"
    );
    // Every subcommand is listed, including the server.
    for cmd in ["classify", "rewrite", "explain", "answer", "build", "dbinfo", "serve"] {
        assert!(out.contains(cmd), "help does not mention the '{cmd}' command:\n{out}");
    }
    // `-h` is the same door, and `--help` wins even next to other args.
    let (code, short, _) = run_cli(&["-h"]);
    assert_eq!(code, 0);
    assert_eq!(short, out);
    let (code, _, _) = run_cli(&["serve", "--help"]);
    assert_eq!(code, 0);
}

/// A snapshot whose data block is corrupt opens (open reads only the
/// metadata), and the request that hydrates the bad block fails with the
/// snapshot exit code and the checksum message — served, bare
/// (`--no-fallback`) and through `explain` alike — never an isolated panic
/// (exit 8).
#[test]
fn cli_corrupt_snapshot_segment_exits_with_the_snapshot_code() {
    use obda::datagen::erdos::TABLE_2;

    let fx = Fixture::new("corrupt");
    let onto_text = "P SubPropertyOf S\nP SubPropertyOf R-\n";
    let o = fx.file("o.owlql", onto_text);
    let q = fx.file("q.cq", "q(x0, x2) :- R(x0, x1), R(x1, x2)");
    let sys = obda::ObdaSystem::from_text(onto_text).unwrap();
    let data = TABLE_2[0].scaled(0.003).generate(sys.ontology());
    let d = fx.file("d.abox", &data.to_text(sys.ontology()));
    let db = fx.dir.join("d.obdb").to_string_lossy().into_owned();
    let (code, _, err) = run_cli(&["build", "--ontology", &o, "--data", &d, "-o", &db]);
    assert_eq!(code, 0, "stderr: {err}");
    let answer = ["answer", "--ontology", &o, "--query", &q, "--db", &db];
    let (code, pristine, err) = run_cli(&answer);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(!pristine.is_empty(), "the fixture query has answers");

    let mut bytes = std::fs::read(&db).unwrap();
    assert!(bytes.len() > 4096, "the fixture has a page-aligned data region");
    bytes[4096] ^= 0x01;
    std::fs::write(&db, &bytes).unwrap();
    let bare = [&answer[..], &["--no-fallback"]].concat();
    let explain = ["explain", "--ontology", &o, "--query", &q, "--db", &db];
    for args in [&answer[..], &bare[..], &explain[..]] {
        let (code, _, err) = run_cli(args);
        assert_eq!(code, 3, "{args:?}: corrupt data is a snapshot error, stderr: {err}");
        assert!(err.contains("snapshot checksum mismatch"), "{args:?}: stderr: {err}");
        assert!(!err.contains("panic"), "{args:?}: no panic may be involved: {err}");
    }
}

#[test]
fn cli_reports_malformed_inputs_as_parse_errors() {
    let fx = Fixture::new("malformed");
    let good_onto = fx.file("o.owlql", "A SubClassOf exists R\n");
    let good_query = fx.file("q.cq", "q(x) :- R(x, y)");
    let good_data = fx.file("d.abox", "A(a)\n");
    let bad_onto = fx.file("bad.owlql", "A SubClassOf SubClassOf ((\n");
    let bad_query = fx.file("bad.cq", "q)x( :- R(x, y)");
    let bad_data = fx.file("bad.abox", ") R(a\n");

    for (o, q, d) in [
        (&bad_onto, &good_query, &good_data),
        (&good_onto, &bad_query, &good_data),
        (&good_onto, &good_query, &bad_data),
    ] {
        let (code, _, err) =
            run_cli(&["answer", "--ontology", o, "--query", q, "--data", d, "--budget-secs", "1"]);
        assert_eq!(code, 3, "stderr: {err}");
        assert!(err.contains("parse error"), "stderr: {err}");
    }
}

#[test]
fn cli_exponential_ucq_terminates_within_budget() {
    let fx = Fixture::new("exponential");
    let o = fx.file("o.owlql", EXPONENTIAL_ONTOLOGY);
    let q = fx.file("q.cq", EXPONENTIAL_QUERY);
    let d = fx.file("d.abox", EXPONENTIAL_DATA);
    // Pinned to the exponential strategy with no fallback: budget exhaustion.
    let start = std::time::Instant::now();
    let (code, _, err) = run_cli(&[
        "answer",
        "--ontology",
        &o,
        "--query",
        &q,
        "--data",
        &d,
        "--strategy",
        "ucq",
        "--no-fallback",
        "--budget-secs",
        "1",
        "--budget-clauses",
        "5000",
    ]);
    assert_eq!(code, 6, "stderr: {err}");
    assert!(start.elapsed() < Duration::from_secs(30), "took {:?}", start.elapsed());
    // Same instance with the fallback ladder: a polynomial strategy answers.
    let (code, out, err) = run_cli(&[
        "answer",
        "--ontology",
        &o,
        "--query",
        &q,
        "--data",
        &d,
        "--strategy",
        "ucq",
        "--budget-secs",
        "30",
        "--budget-clauses",
        "5000",
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("(c0, c8)"), "stdout: {out}");
    assert!(err.contains("rewrite failed"), "the UCQ attempt must appear in the report: {err}");
}

#[test]
fn cli_cyclic_ontology_terminates_with_typed_outcome() {
    let fx = Fixture::new("cyclic");
    let o = fx.file("o.owlql", CYCLIC_ONTOLOGY);
    let q = fx.file("q.cq", "q(x) :- A(x)");
    let d = fx.file("d.abox", "A(a)\n");
    // The harmless single-property cycle answers normally.
    let (code, out, err) =
        run_cli(&["answer", "--ontology", &o, "--query", &q, "--data", &d, "--budget-secs", "5"]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("(a)"));
    // The six-property cycle makes the chase oracle's word tree exponential:
    // the chase-element budget trips (in the oracle, or already in a
    // rewriter's generator models) instead of exhausting memory.
    let deep = fx.file("deep.owlql", &deep_cyclic_ontology());
    let start = std::time::Instant::now();
    let (code, _, err) = run_cli(&[
        "answer",
        "--ontology",
        &deep,
        "--query",
        &q,
        "--data",
        &d,
        "--oracle",
        "--budget-secs",
        "1",
        "--budget-chase",
        "100",
    ]);
    assert_eq!(code, 6, "stderr: {err}");
    assert!(start.elapsed() < Duration::from_secs(30), "took {:?}", start.elapsed());
}

#[test]
fn cli_trace_preserves_exit_codes_across_failure_classes() {
    let fx = Fixture::new("trace_codes");
    let o = fx.file("o.owlql", "A SubClassOf exists R\n");
    let q = fx.file("q.cq", "q(x) :- R(x, y)");
    let d = fx.file("d.abox", "A(a)\n");

    // Success (0): the span tree covers the whole request on stderr and the
    // answers stay on stdout.
    let (code, out, err) =
        run_cli(&["answer", "--ontology", &o, "--query", &q, "--data", &d, "--oracle", "--trace"]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("(a)"), "stdout: {out}");
    for span in ["request", "parse:ontology", "attempt", "eval", "oracle-check"] {
        assert!(err.contains(span), "missing {span} span in trace:\n{err}");
    }
    assert!(!err.contains("!error"), "a clean run must not tag errors:\n{err}");

    // Usage error (2): rejected before a request span can exist.
    let (code, _, err) = run_cli(&["answer", "--frobnicate", "--trace"]);
    assert_eq!(code, 2);
    assert!(err.contains("usage:"));
    let (code, _, _) = run_cli(&["answer", "--trace=yaml"]);
    assert_eq!(code, 2, "unknown trace formats are usage errors");

    // Parse error (3): the request root is error-tagged, exit code unchanged.
    let bad = fx.file("bad.owlql", "A SubClassOf SubClassOf ((\n");
    let (code, _, err) =
        run_cli(&["answer", "--ontology", &bad, "--query", &q, "--data", &d, "--trace"]);
    assert_eq!(code, 3, "stderr: {err}");
    assert!(err.contains("request"), "stderr: {err}");
    assert!(err.contains("!error"), "the failure must be span-tagged: {err}");

    // Budget exhaustion (6) with --trace=json: a machine-readable span tree
    // still lands on stderr, error field set on the root.
    let eo = fx.file("eo.owlql", EXPONENTIAL_ONTOLOGY);
    let eq = fx.file("eq.cq", EXPONENTIAL_QUERY);
    let ed = fx.file("ed.abox", EXPONENTIAL_DATA);
    let (code, _, err) = run_cli(&[
        "answer",
        "--ontology",
        &eo,
        "--query",
        &eq,
        "--data",
        &ed,
        "--strategy",
        "ucq",
        "--no-fallback",
        "--budget-secs",
        "1",
        "--budget-clauses",
        "5000",
        "--trace=json",
    ]);
    assert_eq!(code, 6, "stderr: {err}");
    let json = err
        .lines()
        .find(|l| l.starts_with('['))
        .unwrap_or_else(|| panic!("no JSON span tree on stderr:\n{err}"));
    assert!(json.contains("\"name\":\"request\""), "json: {json}");
    assert!(json.contains(",\"error\":\""), "the root must carry the failure: {json}");
}

#[test]
fn cli_timeout_covers_the_rewriting_stage() {
    // Tw's tree-witness computation materialises generator models; on the
    // deep cyclic ontology only the wall clock can interrupt it, so a
    // completed run proves `--timeout-secs` now gates rewriting.
    let fx = Fixture::new("rewrite_timeout");
    let o = fx.file("deep.owlql", &deep_cyclic_ontology());
    let q = fx.file("q.cq", "q(x) :- R1(x, y), R1(y, z)");
    let start = std::time::Instant::now();
    let (code, _, err) = run_cli(&[
        "rewrite",
        "--ontology",
        &o,
        "--query",
        &q,
        "--strategy",
        "tw",
        "--timeout-secs",
        "1",
    ]);
    assert_eq!(code, 6, "--timeout-secs must interrupt rewriting; stderr: {err}");
    assert!(start.elapsed() < Duration::from_secs(30), "took {:?}", start.elapsed());
}
