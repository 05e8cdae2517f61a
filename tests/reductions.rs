//! Larger randomized runs of the Section 4/5 hardness reductions against
//! their brute-force oracles: through the chase, and through the pipeline
//! (every strategy, over a snapshot).

use obda::budget::{BudgetSpec, Resource};
use obda::cq::query::Cq;
use obda::ndl::engine::EngineConfig;
use obda::owlql::abox::DataInstance;
use obda::owlql::Ontology;
use obda::rewrite::RewriteError;
use obda::{write_snapshot, ObdaError, ObdaSystem, Snapshot, Strategy, Telemetry};
use obda_chase::answer::{certain_answers, CertainAnswers};
use obda_chase::homomorphism::HomSearch;
use obda_chase::linear_walk::linear_boolean_entails;
use obda_chase::model::CanonicalModel;
use obda_datagen::clique::{clique_to_omq, PartitionedGraph};
use obda_datagen::hitting_set::{hitting_set_to_omq, Hypergraph};
use obda_datagen::logcfl::{in_l, logcfl_data, parse_word, t_double_dagger, word_to_query};
use obda_datagen::sat::{sat_data, sat_query, t_dagger, Cnf};
use std::time::Duration;

#[test]
fn theorem_15_hitting_set_sweep() {
    for seed in 0..10 {
        let h = Hypergraph::random(5, 4, 3, 100 + seed);
        for k in 1..=3 {
            let r = hitting_set_to_omq(&h, k);
            let entailed =
                certain_answers(&r.ontology, &r.query, &r.data) == CertainAnswers::Boolean(true);
            assert_eq!(entailed, h.has_hitting_set(k), "seed {seed} k {k}");
        }
    }
}

#[test]
fn theorem_16_partitioned_clique_sweep() {
    for seed in 0..6 {
        let g = PartitionedGraph::random(4, 2, 0.4, 200 + seed);
        let r = clique_to_omq(&g);
        let bound = (2 * g.num_vertices + 2) * g.num_parts + 2;
        let model = CanonicalModel::new(&r.ontology, &r.data, bound);
        let entailed = HomSearch::new(&model, &r.query).exists(&[]);
        assert_eq!(entailed, g.has_partitioned_clique(), "seed {seed}");
    }
}

#[test]
fn theorem_17_sat_sweep() {
    for seed in 0..10 {
        let cnf = Cnf::random(4, 4, 300 + seed);
        let o = t_dagger();
        let q = sat_query(&o, &cnf);
        let d = sat_data(&o);
        let model = CanonicalModel::new(&o, &d, 2 * cnf.num_vars + 2);
        let entailed = HomSearch::new(&model, &q).exists(&[]);
        assert_eq!(entailed, cnf.satisfiable(), "seed {seed} {:?}", cnf.clauses);
    }
}

#[test]
fn theorem_22_logcfl_words() {
    let o = t_double_dagger();
    let d = logcfl_data(&o);
    for word in [
        "[a1b1][a2b2]",
        "[a1#a2][b1#b2]",
        "[a1a1][b1b1]",
        "[a1a1][b1b2]",
        "[a1#][#b1]",
        "[#a1b1a2#][a2#b2][b2#a1b1]",
    ] {
        let w = parse_word(word);
        let q = word_to_query(&o, &w);
        let anchor = q.get_var("u0").unwrap();
        let entailed = linear_boolean_entails(&o, &q, &d, anchor);
        assert_eq!(entailed, in_l(&w), "word {word}");
    }
}

// ---------------------------------------------------------------------------
// The same reductions through the pipeline: every strategy's rewriting,
// evaluated by the engine over a `.obdb` snapshot of the instance, against
// the brute-force solvers. Those oracles share no saturation, chase or
// store code with the pipeline. A strategy may refuse with a typed error
// (a structural refusal, a budget trip); it may never answer wrongly.
// ---------------------------------------------------------------------------

/// Answers the Boolean OMQ `(ontology, query)` over a snapshot of `data`
/// with every strategy and asserts each answer equals `expected`.
/// Returns how many strategies answered (the rest refused, typed).
fn pipeline_agrees(
    ontology: &Ontology,
    query: &Cq,
    data: &DataInstance,
    expected: bool,
    ctx: &str,
) -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let sys = ObdaSystem::new(ontology.clone());
    let path = std::env::temp_dir().join(format!(
        "obda-reductions-{}-{}.obdb",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    write_snapshot(&path, sys.ontology().vocab(), data).unwrap();
    let snap = Snapshot::open(&path, sys.ontology().vocab()).unwrap();
    std::fs::remove_file(&path).ok();
    let spec = BudgetSpec {
        timeout: Some(Duration::from_secs(1)),
        max_clauses: Some(20_000),
        max_tuples: Some(200_000),
        ..BudgetSpec::unlimited()
    };
    let mut answered = 0;
    for strategy in Strategy::ALL {
        let outcome = sys.answer_with_budget_engine_backend_traced(
            query,
            &snap,
            strategy,
            &spec,
            &EngineConfig::default(),
            Telemetry::disabled(),
        );
        match outcome {
            Ok(res) => {
                answered += 1;
                assert_eq!(!res.answers.is_empty(), expected, "{ctx}: {strategy} answered wrongly");
            }
            Err(e) => assert!(
                matches!(e, obda::ObdaError::Rewrite(_) | obda::ObdaError::Eval(_)),
                "{ctx}: {strategy} must refuse with a typed rewrite or evaluation error, got {e}"
            ),
        }
    }
    answered
}

/// Hitting sets at `k = 1` and `k = 2`: at `k = 2` the Lin rewriting of
/// the depth-`Θ(k)` ontology outgrows the budget, and must trip it with a
/// typed error rather than allocate without bound.
#[test]
fn theorem_15_and_16_through_the_pipeline() {
    for k in 1..=2 {
        for seed in 0..4 {
            let h = Hypergraph::random(5, 4, 3, 100 + seed);
            let r = hitting_set_to_omq(&h, k);
            let ctx = format!("Thm 15 seed {seed} k {k}");
            let expected = h.has_hitting_set(k);
            let answered = pipeline_agrees(&r.ontology, &r.query, &r.data, expected, &ctx);
            assert!(answered > 0, "{ctx}: some strategy must answer");
        }
    }
    for seed in 0..2 {
        let g = PartitionedGraph::random(3, 2, 0.5, 200 + seed);
        let r = clique_to_omq(&g);
        let ctx = format!("Thm 16 seed {seed}");
        let answered =
            pipeline_agrees(&r.ontology, &r.query, &r.data, g.has_partitioned_clique(), &ctx);
        assert!(answered > 0, "{ctx}: some strategy must answer");
    }
}

/// Adaptive runs `Lin`, `Log` and `Tw` on shares of one budget. On these
/// instances `Lin`'s program outgrows the clause cap once lifted to
/// arbitrary data and `Log` needs about its whole share or more, but `Tw`
/// answers alone in tens of milliseconds: Adaptive must still answer,
/// within the deadline and the cap.
#[test]
fn adaptive_keeps_to_its_budget_on_theorem_16() {
    use std::time::Instant;
    // Unoptimised builds run the rewriters about ten times slower.
    let timeout = Duration::from_secs(if cfg!(debug_assertions) { 10 } else { 1 });
    for seed in 200..=201 {
        let g = PartitionedGraph::random(3, 2, 0.5, seed);
        let r = clique_to_omq(&g);
        let sys = ObdaSystem::new(r.ontology.clone());
        let spec = BudgetSpec {
            timeout: Some(timeout),
            max_clauses: Some(20_000),
            ..BudgetSpec::unlimited()
        };
        let mut budget = spec.start();
        let started = Instant::now();
        let rewriting = sys.rewrite_budgeted(&r.query, Strategy::Adaptive, &mut budget);
        let elapsed = started.elapsed();
        let rewriting = rewriting.unwrap_or_else(|e| panic!("seed {seed}: Adaptive refused: {e}"));
        // The deadline gate of ROADMAP item 10: 5% or 100 ms, whichever
        // is larger, so a scheduling stall on a shared runner is not a
        // failure.
        let slack = (timeout / 20).max(Duration::from_millis(100));
        assert!(elapsed <= timeout + slack, "seed {seed}: returned after {elapsed:?}");
        // `Tw*` wins with 434 and 293 clauses; on seed 201 `Log` sometimes
        // finishes within its share and wins with 648.
        let clauses = rewriting.program.num_clauses();
        assert!(clauses <= 648, "seed {seed}: {clauses} clauses");
        assert!(budget.spent_clauses() <= 20_000, "seed {seed}: the cap holds");
    }
}

/// `T†` and `T‡` have infinite depth: Lin and Log refuse them outright,
/// and every other strategy's rewriting outgrows the one-second budget on
/// these instances, so here the sweep checks only that each refusal is
/// typed — no strategy answers, and none answers wrongly.
#[test]
fn theorem_17_and_22_through_the_pipeline() {
    let o = t_dagger();
    let d = sat_data(&o);
    let cnf = Cnf::random(2, 3, 300);
    let q = sat_query(&o, &cnf);
    pipeline_agrees(&o, &q, &d, cnf.satisfiable(), &format!("Thm 17 {:?}", cnf.clauses));
    let o = t_double_dagger();
    let d = logcfl_data(&o);
    for word in ["[a1b1][a2b2]", "[a1a1][b1b2]"] {
        let w = parse_word(word);
        let q = word_to_query(&o, &w);
        pipeline_agrees(&o, &q, &d, in_l(&w), &format!("Thm 22 word {word}"));
    }
}

/// The `*`-transformation charges each clause as it adds it. The Thm 15
/// TwUCQ rewriting at `k = 2` fits a 50 000-clause cap over complete
/// instances, but Lemma 3's linear star chain outgrows it by an order of
/// magnitude; the budget must stop it within one clause of the cap.
#[test]
fn star_transformation_trips_the_clause_cap_as_it_builds() {
    let h = Hypergraph::random(5, 4, 3, 100);
    let r = hitting_set_to_omq(&h, 2);
    let sys = ObdaSystem::new(r.ontology.clone());
    let cap = 50_000;
    let complete = sys.rewrite_complete(&r.query, Strategy::TwUcq).unwrap();
    assert!(complete.program.num_clauses() < cap as usize, "the complete rewriting fits the cap");
    let spec = BudgetSpec { max_clauses: Some(cap), ..BudgetSpec::unlimited() };
    match sys.rewrite_budgeted(&r.query, Strategy::TwUcq, &mut spec.start()) {
        Err(ObdaError::Rewrite(RewriteError::BudgetExceeded { exceeded, .. })) => {
            assert_eq!(exceeded.resource, Resource::Clauses);
            assert!(exceeded.spent <= cap + 1, "{} clauses spent of {cap}", exceeded.spent);
        }
        other => {
            panic!("expected a clause-cap trip, got {:?}", other.map(|q| q.program.num_clauses()))
        }
    }
}
