#![warn(missing_docs)]

//! # obda-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! experimental section (Section 6 and Appendix D), plus Criterion
//! micro-benchmarks and ablations. The `experiments` binary prints the
//! tables; the benches in `benches/` measure the same workloads.

use obda::budget::BudgetSpec;
use obda::{ObdaSystem, Strategy, Telemetry};
use obda_cq::query::Cq;
use obda_datagen::erdos::ErdosRenyi;
use obda_datagen::sequences::{example_11_ontology, word_query, SEQUENCES};
use obda_ndl::engine::EngineConfig;
use obda_ndl::eval::EvalError;
use obda_ndl::storage::Database;
use obda_owlql::abox::DataInstance;
use std::time::{Duration, Instant};

/// The rewriting algorithms compared in Figure 2 / Table 1 (column order of
/// the paper, with our stand-ins: `TwUCQ` ≈ Rapid/Clipper, `Presto-like` ≈
/// Presto).
pub const FIG2_STRATEGIES: [Strategy; 5] =
    [Strategy::TwUcq, Strategy::PrestoLike, Strategy::Lin, Strategy::Log, Strategy::Tw];

/// The algorithms evaluated in Tables 3–5 (Appendix D.3).
pub const EVAL_STRATEGIES: [Strategy; 6] = [
    Strategy::TwUcq,
    Strategy::PrestoLike,
    Strategy::Lin,
    Strategy::Log,
    Strategy::Tw,
    Strategy::TwStar,
];

/// How a table cell's pipeline run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// Rewriting and evaluation both finished within the budget.
    Completed,
    /// The rewriter tripped the resource budget (size or wall clock).
    RewriteBudget,
    /// The rewriter refused structurally (cap, unsupported shape).
    RewriteRefused,
    /// Evaluation tripped the resource budget (timeout or tuple cap).
    EvalBudget,
    /// Evaluation failed for a non-budget reason.
    EvalFailed,
}

impl CellOutcome {
    /// Short tag for tables and CSV.
    pub fn tag(self) -> &'static str {
        match self {
            CellOutcome::Completed => "ok",
            CellOutcome::RewriteBudget => "rw>budget",
            CellOutcome::RewriteRefused => "rw-fail",
            CellOutcome::EvalBudget => ">limit",
            CellOutcome::EvalFailed => "eval-fail",
        }
    }
}

/// One measured cell of an evaluation table.
#[derive(Debug, Clone)]
pub struct EvalCell {
    /// Wall-clock evaluation time.
    pub time: Duration,
    /// Number of answers, or `None` on timeout/limit.
    pub answers: Option<usize>,
    /// Number of generated tuples, or `None` on timeout/limit.
    pub generated: Option<usize>,
    /// Rewriting size in clauses, or `None` if the rewriter gave up.
    pub clauses: Option<usize>,
    /// How the run ended (budget exhaustion is recorded, never panicked).
    pub outcome: CellOutcome,
}

impl EvalCell {
    /// Renders the cell like `0.123/42/1001`, or the outcome tag when the
    /// strategy did not complete (`rw>budget`, `rw-fail`, `>limit`, …).
    pub fn render(&self) -> String {
        match (self.answers, self.generated) {
            (Some(a), Some(g)) => format!("{:.3}/{a}/{g}", self.time.as_secs_f64()),
            _ => self.outcome.tag().to_owned(),
        }
    }
}

/// The shared experiment fixture: the Example 11 system.
pub fn paper_system() -> ObdaSystem {
    ObdaSystem::new(example_11_ontology())
}

/// The `n`-atom prefix query of sequence `seq` (0-based index).
pub fn prefix_query(system: &ObdaSystem, seq: usize, n: usize) -> Cq {
    word_query(system.ontology(), &SEQUENCES[seq][..n])
}

/// Number of clauses of the strategy's rewriting (over complete instances,
/// as the paper counts them), or `None` if the rewriter refuses/overflows.
pub fn rewriting_clauses(system: &ObdaSystem, query: &Cq, strategy: Strategy) -> Option<usize> {
    system.rewrite_complete(query, strategy).ok().map(|rw| rw.program.num_clauses())
}

/// Rewrites (over arbitrary instances) and evaluates with limits over a
/// pre-built [`Database`], measuring wall-clock evaluation time. The
/// database is built once per dataset by the caller and shared across every
/// strategy and query size. It memoises the `*`-completions the engine
/// derives, so each cell first runs once untimed under a budget of its own:
/// the timed run then reuses every completion it needs, whichever cells ran
/// before it, under what the rewriting left of the cell's budget.
pub fn evaluate_cell(
    system: &ObdaSystem,
    query: &Cq,
    db: &Database,
    strategy: Strategy,
    timeout: Duration,
    max_tuples: usize,
) -> EvalCell {
    evaluate_cell_with(system, query, db, strategy, timeout, max_tuples, &EngineConfig::unpruned())
}

/// [`evaluate_cell`] under another [`EngineConfig`] than the tables'
/// [`EngineConfig::unpruned`]: pruning and worker threads per `engine`,
/// all workers drawing on the cell's shared budget.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_cell_with(
    system: &ObdaSystem,
    query: &Cq,
    db: &Database,
    strategy: Strategy,
    timeout: Duration,
    max_tuples: usize,
    engine: &EngineConfig,
) -> EvalCell {
    // One budget covers the whole cell: a rewriter that blows up is recorded
    // as `rw>budget` instead of hanging the table run.
    let spec = BudgetSpec {
        timeout: Some(timeout),
        max_tuples: Some(max_tuples as u64),
        ..BudgetSpec::unlimited()
    };
    let mut budget = spec.start();
    let start = Instant::now();
    let prepared = match system.prepare_budgeted(query, strategy, &mut budget) {
        Ok(p) => p,
        Err(e) => {
            let outcome = if e.is_budget() {
                CellOutcome::RewriteBudget
            } else {
                CellOutcome::RewriteRefused
            };
            return EvalCell {
                time: start.elapsed(),
                answers: None,
                generated: None,
                clauses: None,
                outcome,
            };
        }
    };
    let clauses = Some(prepared.num_clauses());
    // The timed run gets what the rewriting left of the cell's budget; the
    // untimed run before it has a budget of its own.
    let left = BudgetSpec {
        timeout: Some(timeout.saturating_sub(budget.elapsed())),
        max_tuples: Some((max_tuples as u64).saturating_sub(budget.spent_tuples())),
        ..BudgetSpec::unlimited()
    };
    let _ = prepared.execute_engine_traced(db, &mut spec.start(), engine, Telemetry::disabled());
    let mut budget = left.start();
    let start = Instant::now();
    match prepared.execute_engine_traced(db, &mut budget, engine, Telemetry::disabled()) {
        Ok(res) => EvalCell {
            time: start.elapsed(),
            answers: Some(res.stats.num_answers),
            generated: Some(res.stats.generated_tuples),
            clauses,
            outcome: CellOutcome::Completed,
        },
        Err(EvalError::Timeout(_) | EvalError::TupleLimit(_)) => EvalCell {
            time: start.elapsed(),
            answers: None,
            generated: None,
            clauses,
            outcome: CellOutcome::EvalBudget,
        },
        Err(_) => EvalCell {
            time: start.elapsed(),
            answers: None,
            generated: None,
            clauses,
            outcome: CellOutcome::EvalFailed,
        },
    }
}

/// Generates dataset `idx` (0-based, Table 2 row) scaled by `scale`.
pub fn dataset(system: &ObdaSystem, idx: usize, scale: f64) -> DataInstance {
    obda_datagen::erdos::TABLE_2[idx].scaled(scale).generate(system.ontology())
}

/// The scaled dataset configurations.
pub fn dataset_configs(scale: f64) -> Vec<ErdosRenyi> {
    obda_datagen::erdos::TABLE_2.iter().map(|c| c.scaled(scale)).collect()
}

/// Renders a fixed-width table.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_cell_reproduces_a61() {
        let sys = paper_system();
        let q = prefix_query(&sys, 0, 7); // close cousin of Example 8
        assert!(rewriting_clauses(&sys, &q, Strategy::TwUcq).is_some());
    }

    #[test]
    fn evaluation_cell_runs() {
        let sys = paper_system();
        let q = prefix_query(&sys, 0, 3);
        let d = dataset(&sys, 0, 0.02);
        let db = Database::new(&d);
        let before = Database::build_count();
        let cell = evaluate_cell(&sys, &q, &db, Strategy::Tw, Duration::from_secs(20), 10_000_000);
        assert!(cell.answers.is_some());
        assert!(cell.render().contains('/'));
        // Evaluating more cells over the same database must not reload it.
        let cell2 =
            evaluate_cell(&sys, &q, &db, Strategy::Lin, Duration::from_secs(20), 10_000_000);
        assert_eq!(cell.answers, cell2.answers);
        assert_eq!(Database::build_count(), before, "database built once per dataset");
    }

    #[test]
    fn budget_trips_are_recorded_not_panicked() {
        let sys = paper_system();
        let q = prefix_query(&sys, 0, 3);
        let d = dataset(&sys, 0, 0.02);
        let db = Database::new(&d);
        // Zero wall clock: the rewriter trips before emitting anything.
        let cell = evaluate_cell(&sys, &q, &db, Strategy::Tw, Duration::ZERO, 10_000_000);
        assert_eq!(cell.outcome, CellOutcome::RewriteBudget);
        assert_eq!(cell.render(), "rw>budget");
        // Tiny tuple cap: rewriting fits, evaluation trips.
        let cell = evaluate_cell(&sys, &q, &db, Strategy::Tw, Duration::from_secs(30), 1);
        assert_eq!(cell.outcome, CellOutcome::EvalBudget);
        assert_eq!(cell.render(), ">limit");
    }

    #[test]
    fn engine_cell_agrees_with_sequential_cell() {
        let sys = paper_system();
        let q = prefix_query(&sys, 0, 3);
        let d = dataset(&sys, 0, 0.02);
        let db = Database::new(&d);
        let seq = evaluate_cell(&sys, &q, &db, Strategy::Tw, Duration::from_secs(20), 10_000_000);
        for cfg in [
            EngineConfig { threads: 1, prune: true, ..EngineConfig::default() },
            EngineConfig { threads: 4, prune: true, ..EngineConfig::default() },
            EngineConfig { threads: 4, prune: false, ..EngineConfig::default() },
        ] {
            let cell = evaluate_cell_with(
                &sys,
                &q,
                &db,
                Strategy::Tw,
                Duration::from_secs(20),
                10_000_000,
                &cfg,
            );
            assert_eq!(cell.outcome, CellOutcome::Completed);
            assert_eq!(cell.answers, seq.answers);
            if cfg.prune {
                assert!(cell.generated <= seq.generated, "pruning must not add work");
            } else {
                assert_eq!(cell.generated, seq.generated);
            }
        }
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a".into(), "bb".into()],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "200".into()]],
        );
        assert_eq!(t.lines().count(), 4);
    }
}
