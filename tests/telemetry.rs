//! Telemetry differential suite: the spans a [`CollectingTracer`] records
//! must agree *exactly* with the [`EvalStats`] the engines report — the
//! trace is an account of the evaluation, not an approximation of it.
//!
//! * the `eval` span's `tuples`/`answers` attributes equal the stats;
//! * the per-task join spans (`clause_task`) sum to the same tuple total,
//!   at one thread and at every thread count of the `OBDA_TEST_THREADS`
//!   matrix;
//! * the `ndl_tuples_generated` counter agrees with both;
//! * traced and untraced runs return identical answers.

use obda::budget::BudgetSpec;
use obda::ndl::engine::{evaluate_engine_on_traced, EngineConfig};
use obda::ndl::storage::Database;
use obda::telemetry::{TraceSpan, TraceTree};
use obda::{CollectingTracer, MetricsRegistry, ObdaSystem, Strategy, Telemetry};

const ONTOLOGY: &str = "Professor SubClassOf exists teaches\n\
                        AssistantProfessor SubClassOf Professor\n\
                        exists teaches- SubClassOf Course\n\
                        GradCourse SubClassOf Course\n";
const QUERY: &str = "q(x) :- teaches(x, y), Course(y)";
const DATA: &str = "Professor(ada)\n\
                    AssistantProfessor(bob)\n\
                    teaches(carol, logic)\n\
                    Course(logic)\n\
                    GradCourse(sem)\n\
                    teaches(dan, sem)\n";

/// Thread counts for the engine, from the same matrix variable the other
/// differential suites honour; one thread is always included.
fn thread_matrix() -> Vec<usize> {
    let mut threads: Vec<usize> = match std::env::var("OBDA_TEST_THREADS") {
        Ok(spec) => spec.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1, 4],
    };
    if !threads.contains(&1) {
        threads.insert(0, 1);
    }
    threads
}

/// Sum of the `tuples` attributes over every per-task join span.
fn clause_tuple_sum(tree: &TraceTree) -> u64 {
    tree.iter().filter(|s| s.name == "clause_task").filter_map(|s| s.attr("tuples")).sum()
}

/// Every span ended, and every child's duration fits inside its parent's.
fn assert_well_nested(tree: &TraceTree) {
    fn walk(span: &TraceSpan) {
        assert!(span.ended, "span {} never ended", span.name);
        for child in &span.children {
            assert!(
                child.duration <= span.duration,
                "child {} ({:?}) outlives parent {} ({:?})",
                child.name,
                child.duration,
                span.name,
                span.duration,
            );
            walk(child);
        }
    }
    for root in &tree.roots {
        walk(root);
    }
}

/// The engine on one thread, unpruned (the evaluation tables'
/// configuration), accounts for every generated tuple.
#[test]
fn sequential_span_counts_match_eval_stats() {
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let rewriting = sys.rewrite(&q, Strategy::Tw).unwrap();
    let db = Database::new(&d);

    let tracer = CollectingTracer::new();
    let registry = MetricsRegistry::new();
    let mut budget = BudgetSpec::unlimited().start();
    let res = evaluate_engine_on_traced(
        &rewriting,
        &db,
        &mut budget,
        &EngineConfig::unpruned(),
        Telemetry::new(&tracer, Some(&registry)),
    )
    .unwrap();
    assert!(res.stats.generated_tuples > 0, "the fixture must generate tuples");

    let tree = tracer.snapshot();
    assert_well_nested(&tree);
    assert!(tree.iter().all(|s| s.error.is_none()), "no span may fail:\n{}", tree.render_pretty());

    let eval = tree.iter().find(|s| s.name == "eval").expect("an eval span");
    assert_eq!(eval.attr("threads"), Some(1));
    assert_eq!(eval.attr("tuples"), Some(res.stats.generated_tuples as u64));
    assert_eq!(eval.attr("answers"), Some(res.stats.num_answers as u64));
    assert_eq!(
        clause_tuple_sum(&tree),
        res.stats.generated_tuples as u64,
        "clause_task spans must account for every generated tuple:\n{}",
        tree.render_pretty()
    );
    assert_eq!(
        registry.counter("ndl_tuples_generated").get(),
        res.stats.generated_tuples as u64,
        "the counter and the stats must agree"
    );
}

#[test]
fn parallel_span_counts_match_eval_stats_at_every_thread_count() {
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let rewriting = sys.rewrite(&q, Strategy::Tw).unwrap();
    let db = Database::new(&d);
    let oracle = sys.certain_answers(&q, &d).tuples();

    for threads in thread_matrix() {
        for prune in [false, true] {
            let cfg = EngineConfig { threads, prune, ..EngineConfig::default() };
            let tracer = CollectingTracer::new();
            let registry = MetricsRegistry::new();
            let mut budget = BudgetSpec::unlimited().start();
            let res = evaluate_engine_on_traced(
                &rewriting,
                &db,
                &mut budget,
                &cfg,
                Telemetry::new(&tracer, Some(&registry)),
            )
            .unwrap();
            let ctx = format!("threads={threads} prune={prune}");
            assert_eq!(res.answers, oracle, "{ctx}: traced run disagrees with the oracle");

            assert!(res.stats.generated_tuples > 0, "{ctx}: the fixture must generate tuples");

            let tree = tracer.snapshot();
            assert_well_nested(&tree);
            assert!(
                tree.iter().all(|s| s.error.is_none()),
                "{ctx}: no span may fail:\n{}",
                tree.render_pretty()
            );
            let eval = tree.iter().find(|s| s.name == "eval").expect("an eval span");
            assert_eq!(eval.attr("threads"), Some(threads as u64), "{ctx}");
            assert_eq!(eval.attr("tuples"), Some(res.stats.generated_tuples as u64), "{ctx}");
            assert_eq!(eval.attr("answers"), Some(res.stats.num_answers as u64), "{ctx}");
            assert_eq!(
                clause_tuple_sum(&tree),
                res.stats.generated_tuples as u64,
                "{ctx}: clause_task spans must account for every generated tuple:\n{}",
                tree.render_pretty()
            );
            assert_eq!(
                registry.counter("ndl_tuples_generated").get(),
                res.stats.generated_tuples as u64,
                "{ctx}: the counter and the stats must agree"
            );
            if prune {
                let prune_span = tree.iter().find(|s| s.name == "prune").expect("a prune span");
                let before = prune_span.attr("clauses_before").unwrap();
                let after = prune_span.attr("clauses_after").unwrap();
                assert!(after <= before, "{ctx}: pruning may only shrink the program");
            }
            // The schedule ran, every demanded predicate not installed
            // from the memo got a batch, and the batches cover the clause
            // tasks.
            let sched = tree.iter().find(|s| s.name == "demand-schedule").expect("a schedule span");
            assert!(sched.attr("preds").unwrap() >= 1, "{ctx}");
            let batches: Vec<_> = tree.iter().filter(|s| s.name == "batch").collect();
            assert!(!batches.is_empty(), "{ctx}");
            assert_eq!(
                batches.len() as u64 + eval.attr("completions_reused").unwrap(),
                eval.attr("preds_demanded").unwrap(),
                "{ctx}"
            );
            let batched: usize = batches
                .iter()
                .map(|b| b.children.iter().filter(|c| c.name == "clause_task").count())
                .sum();
            assert_eq!(batched, tree.iter().filter(|s| s.name == "clause_task").count(), "{ctx}");
        }
    }
}

/// The engine on one thread (the tables' unpruned configuration) and on
/// every thread count of the matrix account for the same tuples.
#[test]
fn sequential_and_parallel_traces_agree_on_totals() {
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let rewriting = sys.rewrite(&q, Strategy::Tw).unwrap();
    let db = Database::new(&d);

    let seq_tracer = CollectingTracer::new();
    let seq = evaluate_engine_on_traced(
        &rewriting,
        &db,
        &mut BudgetSpec::unlimited().start(),
        &EngineConfig::unpruned(),
        Telemetry::new(&seq_tracer, None),
    )
    .unwrap();

    for threads in thread_matrix() {
        let cfg = EngineConfig { threads, prune: false, ..EngineConfig::default() };
        let par_tracer = CollectingTracer::new();
        let par = evaluate_engine_on_traced(
            &rewriting,
            &db,
            &mut BudgetSpec::unlimited().start(),
            &cfg,
            Telemetry::new(&par_tracer, None),
        )
        .unwrap();
        assert_eq!(par.answers, seq.answers, "threads={threads}");
        // Same unpruned program, same data: both engines generate the same
        // tuples, and both traces account for all of them.
        assert_eq!(par.stats.generated_tuples, seq.stats.generated_tuples, "threads={threads}");
        assert_eq!(
            clause_tuple_sum(&par_tracer.snapshot()),
            clause_tuple_sum(&seq_tracer.snapshot()),
            "threads={threads}: the two engines' traces account differently"
        );
    }
}

#[test]
fn service_request_produces_a_complete_span_tree_and_metrics() {
    use obda::{MemoryBackend, OverloadConfig, QueryService, RetryPolicy, ServiceConfig};

    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let svc = QueryService::new(
        sys,
        ServiceConfig {
            max_concurrency: 2,
            max_queue: 4,
            retry: RetryPolicy::default(),
            engine: EngineConfig { threads: 2, prune: true, ..EngineConfig::default() },
            overload: OverloadConfig::default(),
        },
    );
    let q = svc.system().parse_query(QUERY).unwrap();
    let d = MemoryBackend::new(svc.system().parse_data(DATA).unwrap());
    let spec = BudgetSpec::unlimited();
    let omq = svc.prepare(&q, Strategy::Tw, &spec).unwrap();

    let tracer = CollectingTracer::new();
    let registry = MetricsRegistry::new();
    let telem = Telemetry::new(&tracer, Some(&registry));
    let run = svc.answer(&omq, &d, &spec, telem).unwrap();

    let tree = tracer.snapshot();
    assert_well_nested(&tree);
    let names: Vec<&str> = tree.iter().map(|s| s.name).collect();
    for expected in ["queue_wait", "hydrate", "eval"] {
        assert!(names.contains(&expected), "missing {expected} span in {names:?}");
    }
    let eval = tree.iter().find(|s| s.name == "eval").unwrap();
    assert_eq!(eval.attr("answers"), Some(run.result.answers.len() as u64));
    assert!(eval.error.is_none(), "the answering evaluation must not be error-tagged");

    // The caller's registry received the service metrics: one admitted
    // request, its latency observed overall and under the winning strategy.
    assert_eq!(registry.histogram("service_queue_wait_seconds").count(), 1);
    assert_eq!(registry.histogram("service_latency_seconds").count(), 1);
    assert_eq!(registry.histogram("service_latency_seconds_tw").count(), 1);
    assert_eq!(registry.gauge("service_active").get(), 0, "the gate slot was released");
    // A caller-supplied registry *overrides* the service's own (one
    // exposition covers gate and engines together), so the service registry
    // saw nothing — until an untraced request records into it.
    assert_eq!(svc.metrics().histogram("service_latency_seconds").count(), 0);
    svc.answer(&omq, &d, &spec, Telemetry::disabled()).unwrap();
    assert_eq!(svc.metrics().histogram("service_latency_seconds").count(), 1);
}
