//! Bottom-up evaluation: the crate's one materialising engine.
//!
//! The engine materialises the IDB predicates the goal demands, joining
//! clause bodies with the shared kernel of [`crate::eval`].
//! [`EngineConfig`] selects how much it does on top:
//!
//! 1. **Relevance pruning** ([`crate::relevance`], `prune`): the program
//!    is rewritten goal-directedly before evaluation, eliminating
//!    renaming predicates, used-once views, copy clauses and dead
//!    columns, so strictly fewer tuples are materialised.
//! 2. **Demand-driven materialisation**: starting from the goal, a
//!    predicate is evaluated only when a live clause demands it. A clause
//!    with an empty EDB relation is dead before it demands anything;
//!    otherwise it demands its IDB atoms in ascending estimated rows
//!    ([`QueryPlan::est_pred_rows`], ties by body position) and dies at
//!    the first one that comes out empty. The estimates come from the
//!    costed plan whatever join order runs (`plan: false` computes them
//!    too), so the demands, and the generated tuples, do not depend on the
//!    join order. The traversal keeps its path on an explicit stack and
//!    materialises each predicate at most once. Without pruning, or when
//!    a join sink observes the run, every goal-reachable predicate is
//!    demanded: full materialisation.
//! 3. **Per-predicate batches** (`threads`): once a predicate's demands
//!    are met, its live clauses, with large outer scans split into
//!    row-range chunks, form a task queue drained by a scoped-thread
//!    worker pool (`std::thread::scope`; no external dependencies), or
//!    inline at one thread. A predicate whose one live clause is a
//!    renaming (`renaming`) gets its source's rows without the join
//!    kernel: the source relation itself, or a column permutation of it.
//! 4. **Shared budgets** ([`obda_budget::SharedBudget`]): the pool
//!    races one atomic allowance; the first deadline/step/tuple trip
//!    poisons every worker, and the engine reports one typed
//!    [`EvalError`] taxonomy at every thread count.
//!
//! At [`EngineConfig::unpruned`] (`threads: 1, prune: false`) the engine
//! materialises the rewriting as written, the naive strategy the paper
//! attributes to RDFox; the evaluation tables use it as that stand-in.
//! Entry points: [`evaluate_engine_on_traced`] for a query, and
//! [`evaluate_pruned_planned_on_traced`] for an already-pruned query with
//! an optional cached plan (the served path).
//!
//! Concurrency model: relations already materialised (and the EDB
//! [`Database`]) are only read — their lazy `OnceLock` column indexes
//! make concurrent probing safe — while the current batch's output
//! relation is mutated behind a mutex that workers only take to merge a
//! finished task's buffered rows. Statistics are deterministic across
//! thread counts: every relation is deduplicated exactly, so
//! per-predicate counts equal the relation sizes, and answers are
//! sorted.

use crate::completion::CompletionKey;
use crate::eval::{
    error_stats, eval_clause_into, halt_from_panic, halt_to_error, relation, EmitFn, EvalError,
    EvalResult, EvalStats, Halt, JoinCounters,
};
use crate::planner::{plan_query, syntactic_query_plan, JoinPlan, PlannedAccess, QueryPlan};
use crate::program::{BodyAtom, Clause, NdlQuery, PredId, PredKind};
use crate::relevance::{prune_for_goal, PrunedQuery};
use crate::storage::{Database, Relation};
use obda_budget::{Budget, BudgetOps, SharedBudget, WorkerBudget};
use obda_owlql::abox::ConstId;
use obda_telemetry::Telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Tuning knobs for the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads; `0` = one per available CPU, `1` = run the same
    /// pruned, demand-driven plan inline without spawning.
    pub threads: usize,
    /// Run the [`crate::relevance`] pruning pass first.
    pub prune: bool,
    /// Minimum relation size before a clause's outer scan is split into
    /// per-worker row ranges. Tests lower this to exercise chunking on
    /// small data.
    pub chunk_min_rows: usize,
    /// Use the cost-based [`crate::planner`] (`true`, the default) or
    /// fall back to syntactic join order. Answers are identical either
    /// way; this knob exists for benchmarking and differential tests.
    pub plan: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { threads: 1, prune: true, chunk_min_rows: 1024, plan: true }
    }
}

impl EngineConfig {
    /// One thread, no pruning: the rewriting materialised as written, the
    /// RDFox stand-in of the evaluation tables.
    pub fn unpruned() -> Self {
        EngineConfig { threads: 1, prune: false, ..EngineConfig::default() }
    }

    /// Resolves `threads = 0` to the available parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }
}

/// Evaluates `(Π, G)` over a pre-built [`Database`] under `budget`,
/// recording spans and metrics through `telem`: with `cfg.prune` a
/// `prune` span (clause counts before/after), then an `eval` span whose
/// children are `demand-schedule`, per-predicate `batch` spans and
/// per-task `clause_task` spans with join counters. The budget may be
/// shared with other pipeline stages: time, steps and tuples charged
/// here count against the same allowance.
pub fn evaluate_engine_on_traced(
    query: &NdlQuery,
    db: &Database,
    budget: &mut Budget,
    cfg: &EngineConfig,
    telem: Telemetry<'_>,
) -> Result<EvalResult, EvalError> {
    if cfg.prune {
        let pruned = prune_traced(query, telem);
        evaluate_pruned_planned_on_traced(&pruned, db, budget, cfg, None, telem)
    } else {
        run(query, None, query.program.num_preds(), db, budget, cfg, None, telem, None)
    }
}

/// [`prune_for_goal`] recording a `prune` span with the clause and
/// predicate counts before and after.
pub fn prune_traced(query: &NdlQuery, telem: Telemetry<'_>) -> PrunedQuery {
    let span = telem.span("prune");
    let pruned = prune_for_goal(query);
    span.attr("clauses_before", pruned.stats.clauses_before as u64);
    span.attr("clauses_after", pruned.stats.clauses_after as u64);
    span.attr("preds_before", pruned.stats.preds_before as u64);
    span.attr("preds_after", pruned.stats.preds_after as u64);
    span.end();
    pruned
}

/// Evaluates an already-pruned query (callers that cache the
/// [`prune_for_goal`] result across executions, e.g. `PreparedOmq`),
/// optionally reusing a [`QueryPlan`] computed earlier for the *pruned*
/// program (such callers cache plans per database alongside the pruned
/// query, amortising planning across repeated executions). With
/// `qplan = None` the engine plans per [`EngineConfig::plan`].
/// Statistics are reported against the *original* program's predicate
/// ids via [`PrunedQuery::origin`]. A lazily loaded `db` should have the
/// program's EDB relations hydrated first ([`Database::hydrate`]), which
/// is where a corrupt segment becomes a typed error; a slot still
/// pending here hydrates on first touch.
pub fn evaluate_pruned_planned_on_traced(
    pruned: &PrunedQuery,
    db: &Database,
    budget: &mut Budget,
    cfg: &EngineConfig,
    qplan: Option<&QueryPlan>,
    telem: Telemetry<'_>,
) -> Result<EvalResult, EvalError> {
    let orig = pruned.origin.iter().map(|p| p.0 as usize + 1).max().unwrap_or(0);
    run(&pruned.query, Some(&pruned.origin), orig, db, budget, cfg, qplan, telem, None)
}

/// One unit of a predicate's batch: a clause (optionally restricted to a
/// row range of its outer scan) whose derived rows merge into the
/// predicate's output relation.
struct Task<'p> {
    /// Position of `clause` in the program (the join-counter sink's index).
    index: usize,
    clause: &'p Clause,
    plan: &'p JoinPlan,
    range: Option<(usize, usize)>,
}

/// Evaluates one task, merging its derived rows into the batch's output
/// relation and charging each newly inserted tuple (only distinct new tuples
/// count against the cap). Returns the number of fresh (previously
/// unseen) rows this task contributed. Inline (`buf: None`), rows are
/// inserted as the kernel emits them, so the deadline checks of its
/// emission loop cover the inserts. In the worker pool, rows are buffered
/// in `buf` and merged in one go, so a worker holds the output's mutex only
/// briefly. The buffer needs no headroom check of its own: it holds at
/// most one row per binding of the kernel's last batch, which the kernel
/// already checked against the cap (a clause without predicate atoms
/// emits at most one row). Generic over [`BudgetOps`] so the inline path
/// (exclusive [`Budget`]) and the worker pool ([`WorkerBudget`]) share
/// the code.
#[allow(clippy::too_many_arguments)] // mirrors eval_clause_into
fn eval_task<B: BudgetOps>(
    query: &NdlQuery,
    db: &Database,
    idb: &[Arc<Relation>],
    budget: &mut B,
    task: &Task<'_>,
    out: &Mutex<(Relation, usize)>,
    buf: Option<&mut Vec<u32>>,
    join: &mut JoinCounters,
) -> Result<usize, Halt> {
    crate::fault::inject(crate::fault::site::ENGINE_CLAUSE_TASK);
    let mut new = 0usize;
    let mut merge = |rel: &mut Relation, fresh: &mut usize, row: &[u32], budget: &mut B| {
        if rel.insert_if_new(row) {
            *fresh += 1;
            new += 1;
            budget.charge_tuples(1)?;
        }
        Ok::<(), Halt>(())
    };
    let run = |budget: &mut B, join: &mut JoinCounters, emit: &mut EmitFn<'_, B>| {
        let program = &query.program;
        eval_clause_into(program, db, idb, budget, task.clause, task.plan, task.range, join, emit)
    };
    let Some(buf) = buf else {
        let mut guard = out.lock().unwrap_or_else(PoisonError::into_inner);
        let (rel, fresh) = &mut *guard;
        run(budget, join, &mut |row, budget| merge(rel, fresh, row, budget))?;
        return Ok(new);
    };
    // Derived rows are buffered flat (head-arity strided) so the hot
    // emit path is a memcpy, not a per-row heap allocation.
    let arity = task.clause.head_args.len();
    buf.clear();
    let mut rows = 0u64;
    run(budget, join, &mut |row, _| {
        rows += 1;
        buf.extend_from_slice(row);
        Ok(())
    })?;
    if rows == 0 {
        return Ok(0);
    }
    let mut guard = out.lock().unwrap_or_else(PoisonError::into_inner);
    let (rel, fresh) = &mut *guard;
    if arity == 0 {
        // Boolean heads buffer no columns; every derived row is the
        // empty tuple, so a single merge settles all of them.
        merge(rel, fresh, &[], budget)?;
    } else {
        for row in buf.chunks_exact(arity) {
            merge(rel, fresh, row, budget)?;
        }
    }
    Ok(new)
}

/// Runs one task behind a panic-isolation boundary: an unwind out of the
/// join kernel — an injected fault or a genuine bug — is converted into a
/// typed [`Halt`] instead of tearing down `std::thread::scope` (which
/// would re-raise the panic at the join and take the process down with no
/// typed error). `AssertUnwindSafe` is sound here because a halted task's
/// partial state is discarded: the budget only ever undercounts, the
/// output relations are merged row-at-a-time behind their mutex (whose
/// poison every lock site clears), and the whole attempt is abandoned.
/// The task's join counters also accumulate into `sink`, when given.
#[allow(clippy::too_many_arguments)] // mirrors eval_task
fn eval_task_isolated<B: BudgetOps>(
    query: &NdlQuery,
    db: &Database,
    idb: &[Arc<Relation>],
    budget: &mut B,
    task: &Task<'_>,
    out: &Mutex<(Relation, usize)>,
    buf: Option<&mut Vec<u32>>,
    telem: &Telemetry<'_>,
    sink: Option<&JoinSink>,
) -> Result<(), Halt> {
    let span = telem.tracer.enabled().then(|| telem.span("clause_task"));
    let mut join = JoinCounters::default();
    let result = match catch_unwind(AssertUnwindSafe(|| {
        eval_task(query, db, idb, budget, task, out, buf, &mut join)
    })) {
        Ok(result) => result,
        Err(payload) => Err(halt_from_panic("ndl::engine::clause_task", payload)),
    };
    if let Some(span) = &span {
        span.attr_str("head", &query.program.pred(task.clause.head).name);
        if let Some((lo, hi)) = task.range {
            span.attr("range_lo", lo as u64);
            span.attr("range_hi", hi as u64);
        }
        span.attr("rows_scanned", join.scanned);
        span.attr("index_hits", join.index_hits);
        span.attr("rows_emitted", join.emitted);
        if task.plan.costed {
            span.attr("est_rows", task.plan.est_out.round().max(0.0) as u64);
            span.attr("actual_rows", join.emitted);
        }
        match &result {
            Ok(new) => span.attr("tuples", *new as u64),
            Err(halt) => span.error(&format!("{halt:?}")),
        }
    }
    if let Some(sink) = sink {
        sink.lock().unwrap_or_else(PoisonError::into_inner)[task.index].absorb(&join);
    }
    result.map(|_| ())
}

/// Per-clause join counters (indexed by clause position) accumulated
/// across a run's tasks; the costed `explain` reads its actual
/// cardinalities from one.
pub(crate) type JoinSink = Mutex<Vec<JoinCounters>>;

/// Scheduling observability: how many predicates were demanded (filled
/// by a batch or installed from the memo), how many tasks actually ran,
/// how many clauses were dropped because a body relation was empty, how
/// many completion predicates were installed from the database's memo
/// (`reused`) or derived and stored there (`built`), and how many
/// predicates were filled by a renaming clause (`renamed`).
#[derive(Default)]
struct SchedStats {
    demanded: u64,
    executed: u64,
    skipped: u64,
    reused: u64,
    built: u64,
    renamed: u64,
}

/// The source and column permutation of a renaming clause
/// `H(x_π1,…,x_πn) ← Q(x1,…,xn)`: one predicate atom with distinct
/// variables, no equality, and a head that lists those same variables
/// once each. `π` is `None` when it is the identity. Such a clause derives
/// exactly `Q`'s rows with their columns permuted, and since `Q` is a set
/// and `π` a bijection, those rows are already distinct.
fn renaming(clause: &Clause) -> Option<(PredId, Option<Vec<usize>>)> {
    let [BodyAtom::Pred(q, args)] = clause.body.as_slice() else { return None };
    let head = &clause.head_args;
    // `n` distinct head variables, each found among the `n` body
    // arguments: the body's variables are then distinct too.
    if head.len() != args.len() || head.iter().enumerate().any(|(i, v)| head[..i].contains(v)) {
        return None;
    }
    let perm: Vec<usize> =
        head.iter().map(|h| args.iter().position(|a| a == h)).collect::<Option<_>>()?;
    let identity = perm.iter().enumerate().all(|(i, &c)| i == c);
    Some((*q, (!identity).then_some(perm)))
}

/// Rows a permuted copy moves between two deadline checks.
const RENAME_BATCH_ROWS: usize = 1 << 14;

/// Fills one renamed predicate behind the same fault site and
/// panic-isolation boundary as a task ([`eval_task_isolated`]), recording
/// a `clause_task` span whose `tuples` is the relation's size and whose
/// `renamed` attribute says how it was filled. The predicate was charged
/// its tuples already; a permuted copy checks the deadline every
/// [`RENAME_BATCH_ROWS`] rows.
fn fill_renamed(
    head: &str,
    source: &Arc<Relation>,
    perm: Option<&[usize]>,
    budget: &Budget,
    telem: &Telemetry<'_>,
) -> Result<Arc<Relation>, Halt> {
    let span = telem.tracer.enabled().then(|| telem.span("clause_task"));
    let copy = || {
        crate::fault::inject(crate::fault::site::ENGINE_CLAUSE_TASK);
        let Some(perm) = perm else { return Ok(Arc::clone(source)) };
        let n = source.len();
        let mut rel = Relation::with_capacity(source.arity(), n);
        let mut lo = 0;
        while lo < n {
            budget.check_time().map_err(Halt::Budget)?;
            let hi = (lo + RENAME_BATCH_ROWS).min(n);
            rel.extend_permuted(source, perm, lo..hi);
            lo = hi;
        }
        Ok(Arc::new(rel))
    };
    let result = catch_unwind(AssertUnwindSafe(copy))
        .unwrap_or_else(|payload| Err(halt_from_panic("ndl::engine::clause_task", payload)));
    if let Some(span) = &span {
        span.attr_str("head", head);
        span.attr_str("renamed", if perm.is_some() { "permute" } else { "alias" });
        match &result {
            Ok(rel) => span.attr("tuples", rel.len() as u64),
            Err(halt) => span.error(&format!("{halt:?}")),
        }
    }
    result
}

#[allow(clippy::too_many_arguments)] // internal driver; bundling would just rename the args
pub(crate) fn run(
    query: &NdlQuery,
    origin: Option<&[PredId]>,
    orig_num_preds: usize,
    db: &Database,
    budget: &mut Budget,
    cfg: &EngineConfig,
    qplan: Option<&QueryPlan>,
    telem: Telemetry<'_>,
    sink: Option<&JoinSink>,
) -> Result<EvalResult, EvalError> {
    let span = telem.span("eval");
    span.attr("threads", cfg.effective_threads() as u64);
    let ticks_before = budget.spent_steps();
    let mut sched = SchedStats::default();
    let result = run_inner(
        query,
        origin,
        orig_num_preds,
        db,
        budget,
        cfg,
        qplan,
        telem.under(&span),
        &mut sched,
        sink,
    );
    let tuples = match &result {
        Ok(res) => res.stats.generated_tuples,
        Err(e) => error_stats(e).map_or(0, |s| s.generated_tuples),
    };
    match &result {
        Ok(res) => {
            span.attr("tuples", tuples as u64);
            span.attr("answers", res.stats.num_answers as u64);
        }
        Err(e) => span.error(&e.to_string()),
    }
    span.attr("preds_demanded", sched.demanded);
    span.attr("tasks_executed", sched.executed);
    span.attr("clauses_skipped", sched.skipped);
    span.attr("completions_reused", sched.reused);
    span.attr("completions_built", sched.built);
    span.attr("clauses_renamed", sched.renamed);
    if let Some(metrics) = telem.metrics {
        metrics.counter("ndl_tuples_generated").add(tuples as u64);
        metrics.counter("ndl_budget_ticks").add(budget.spent_steps().saturating_sub(ticks_before));
        metrics.counter("engine_tasks_executed").add(sched.executed);
        metrics.counter("engine_clauses_skipped").add(sched.skipped);
        metrics.counter("engine_completions_reused_total").add(sched.reused);
        metrics.counter("engine_completions_built_total").add(sched.built);
        metrics.counter("engine_clauses_renamed_total").add(sched.renamed);
    }
    result
}

/// Where a predicate stands in the demand traversal.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Demand {
    Unseen,
    /// On the stack: its clauses' demands are being met.
    Open,
    /// Materialised (or installed from the memo).
    Done,
}

/// A demanded predicate on the traversal stack.
struct Frame {
    pred: PredId,
    /// Its completion-memo key, if it is a completion predicate.
    key: Option<CompletionKey>,
    /// Its clauses (program positions) not yet visited, next last.
    todo: Vec<usize>,
    /// The clause being visited and its IDB atoms still to demand, next
    /// last.
    current: Option<(usize, Vec<PredId>)>,
    /// The visited clauses that no empty relation killed.
    live: Vec<usize>,
}

#[allow(clippy::too_many_arguments)] // internal driver; bundling would just rename the args
fn run_inner(
    query: &NdlQuery,
    origin: Option<&[PredId]>,
    orig_num_preds: usize,
    db: &Database,
    budget: &mut Budget,
    cfg: &EngineConfig,
    qplan: Option<&QueryPlan>,
    telem: Telemetry<'_>,
    sched: &mut SchedStats,
    sink: Option<&JoinSink>,
) -> Result<EvalResult, EvalError> {
    let start = Instant::now();
    let program = &query.program;
    let clauses = program.clauses();
    let num_preds = program.num_preds();
    // Resolve the query plan: a caller-cached plan wins; otherwise plan
    // here (cost-based by default, syntactic when `cfg.plan` is off).
    let computed;
    let qplan = match qplan {
        Some(p) => p,
        None => {
            computed = if cfg.plan { plan_query(query, db) } else { syntactic_query_plan(query) };
            &computed
        }
    };
    // Without pruning (the RDFox stand-in) or under a join sink (the
    // executed explain) every goal-reachable predicate is demanded, so
    // per-predicate counts are those of full materialisation.
    let demand_all = !cfg.prune || sink.is_some();

    let sched_span = telem.span("demand-schedule");
    // A clause demands its IDB atoms in ascending estimated rows. The
    // estimates come from the costed plan whatever join order runs, so a
    // syntactic-order run demands, and generates, exactly what a planned
    // run does.
    let estimated;
    let est: &[f64] = if demand_all || qplan.costed {
        &qplan.est_pred_rows
    } else {
        estimated = plan_query(query, db).est_pred_rows;
        &estimated
    };
    let mut by_head: Vec<Vec<usize>> = vec![Vec::new(); num_preds];
    for (ci, clause) in clauses.iter().enumerate() {
        by_head[clause.head.0 as usize].push(ci);
    }
    sched_span.attr("preds", program.pred_ids().filter(|&p| program.is_idb(p)).count() as u64);
    sched_span.attr("demand_all", u64::from(demand_all));
    sched_span.end();

    let mut idb: Vec<Arc<Relation>> = program
        .pred_ids()
        .map(|p| match program.pred(p).kind {
            PredKind::Idb => Arc::new(Relation::new(program.pred(p).arity)),
            _ => Arc::new(Relation::new(0)),
        })
        .collect();
    // Relations known to be empty: EDB ones up front, IDB ones once
    // materialised. A clause over one derives nothing, so it is dropped
    // before its joins (or, when demands are pruned, its demands) run.
    let mut empty: Vec<bool> = program
        .pred_ids()
        .map(|p| match program.pred(p).kind {
            PredKind::Idb => false,
            kind => db.relation(kind).is_empty(),
        })
        .collect();
    let over_empty = |clause: &Clause, empty: &[bool]| {
        clause.body.iter().any(|a| matches!(a, BodyAtom::Pred(q, _) if empty[q.0 as usize]))
    };

    let mut per_pred = vec![0usize; num_preds];
    let map_stats = |per_pred: &[usize], num_answers: usize| {
        let mut mapped = vec![0usize; orig_num_preds];
        for (i, &n) in per_pred.iter().enumerate() {
            let o = origin.map_or(i, |m| m[i].0 as usize);
            mapped[o] += n;
        }
        EvalStats {
            generated_tuples: per_pred.iter().sum(),
            num_answers,
            duration: start.elapsed(),
            per_predicate: mapped,
        }
    };
    let halted = |halt: Halt, per_pred: &[usize]| {
        halt_to_error(halt, map_stats(per_pred, per_pred[query.goal.0 as usize]))
    };

    // The demand traversal: depth-first from the goal on an explicit
    // stack (a deep program never deepens the thread's own stack). Each
    // predicate is demanded at most once, then materialised as one batch
    // once every live clause's demands are met.
    let mut state = vec![Demand::Unseen; num_preds];
    let mut stack: Vec<Frame> = Vec::new();
    // Completion predicates derived here, stored in the memo at the end.
    let mut built: Vec<(CompletionKey, PredId)> = Vec::new();
    let mut next = program.is_idb(query.goal).then_some(query.goal);
    loop {
        if let Some(p) = next.take() {
            state[p.0 as usize] = Demand::Open;
            // A completion predicate this database has already derived is
            // installed from its memo, charged exactly as a derivation
            // would be (one tuple per row); its clauses demand nothing. A
            // run that observes its joins (`sink`) derives every predicate
            // instead, so each clause reports its actual cardinalities: it
            // neither reads nor fills the memo, renames nothing, and drops
            // no clause over an empty relation.
            let key = sink.is_none().then(|| CompletionKey::of(program, p)).flatten();
            if let Some(rel) = key.as_ref().and_then(|k| db.completions().get(k)) {
                sched.reused += 1;
                sched.demanded += 1;
                let rows = rel.len();
                per_pred[p.0 as usize] += rows;
                empty[p.0 as usize] = rows == 0;
                idb[p.0 as usize] = rel;
                state[p.0 as usize] = Demand::Done;
                if let Err(e) = budget.charge_tuples(rows as u64) {
                    return Err(halted(Halt::Budget(e), &per_pred));
                }
            } else {
                let mut todo = std::mem::take(&mut by_head[p.0 as usize]);
                todo.reverse();
                stack.push(Frame { pred: p, key, todo, current: None, live: Vec::new() });
            }
        }
        let Some(frame) = stack.last_mut() else { break };
        // Advance the top predicate to its next unmet demand.
        let demand = loop {
            if let Some((ci, pending)) = &mut frame.current {
                let Some(&q) = pending.last() else {
                    frame.live.push(*ci);
                    frame.current = None;
                    continue;
                };
                match state[q.0 as usize] {
                    Demand::Unseen => break Some(q),
                    // A predicate that demands itself, however indirectly:
                    // the engine evaluates nonrecursive programs only.
                    Demand::Open => return Err(EvalError::Recursive),
                    Demand::Done => {
                        pending.pop();
                        // The first demand that comes out empty kills the
                        // clause: the rest of its demands are never made.
                        if !demand_all && empty[q.0 as usize] {
                            sched.skipped += 1;
                            frame.current = None;
                        }
                    }
                }
                continue;
            }
            let Some(ci) = frame.todo.pop() else { break None };
            let clause = &clauses[ci];
            if !demand_all && over_empty(clause, &empty) {
                sched.skipped += 1;
                continue;
            }
            let mut atoms: Vec<PredId> = clause
                .body
                .iter()
                .filter_map(|a| match a {
                    BodyAtom::Pred(q, _) if program.is_idb(*q) => Some(*q),
                    _ => None,
                })
                .collect();
            if !demand_all {
                // Stable: equal estimates keep body order.
                atoms.sort_by(|a, b| est[a.0 as usize].total_cmp(&est[b.0 as usize]));
            }
            atoms.reverse();
            frame.current = Some((ci, atoms));
        };
        if demand.is_some() {
            next = demand;
            continue;
        }
        let Some(Frame { pred: p, key, live, .. }) = stack.pop() else { break };
        // Every live clause's demands are met: materialise `p`. Under full
        // materialisation a clause over an empty relation is dropped here,
        // before its joins run (unless a sink observes them).
        let live: Vec<usize> = live
            .into_iter()
            .filter(|&ci| {
                let dead = sink.is_none() && over_empty(&clauses[ci], &empty);
                sched.skipped += u64::from(dead);
                !dead
            })
            .collect();
        let batch_span = telem.tracer.enabled().then(|| {
            let s = telem.span("batch");
            s.attr_str("head", &program.pred(p).name);
            s.attr("clauses", live.len() as u64);
            s
        });
        let batch_telem = batch_span.as_ref().map_or(telem, |s| telem.under(s));
        let result = materialise(
            query,
            db,
            budget,
            cfg,
            qplan,
            batch_telem,
            sink,
            p,
            &live,
            &mut idb,
            &mut per_pred,
            sched,
        );
        // Ticks amortise their cap and clock checks, so a small batch can
        // finish without any worker consulting them; re-check both on the
        // exclusive budget at the batch barrier.
        let result = result
            .and_then(|()| budget.tick().and_then(|()| budget.check_time()).map_err(Halt::Budget));
        empty[p.0 as usize] = idb[p.0 as usize].is_empty();
        if let Err(halt) = result {
            if let Some(span) = &batch_span {
                span.error(&format!("{halt:?}"));
            }
            return Err(halted(halt, &per_pred));
        }
        if let Some(key) = key {
            built.push((key, p));
        }
        sched.demanded += 1;
        state[p.0 as usize] = Demand::Done;
    }

    // Only a run that finished without any halt — budget, fault or panic
    // — fills the memo, so a halted request leaves it as it found it.
    for (key, p) in built {
        db.completions().insert(key, Arc::clone(&idb[p.0 as usize]));
        sched.built += 1;
    }
    #[cfg(test)]
    tests::LAST_IDB.with(|last| *last.borrow_mut() = idb.clone());
    let goal_rel = &idb[query.goal.0 as usize];
    let mut answers: Vec<Vec<ConstId>> =
        goal_rel.rows().map(|row| row.iter().copied().map(ConstId).collect()).collect();
    answers.sort();
    let stats = map_stats(&per_pred, answers.len());
    Ok(EvalResult { answers, stats })
}

/// Materialises `p` from its live clauses (program positions) as one
/// batch: a lone renaming installs its source's rows without the join
/// kernel; otherwise the clauses, with large outer scans split into
/// row-range chunks, form a task queue drained inline or by the worker
/// pool. Each new tuple is charged and counted in `per_pred`; on a halt
/// the rows derived so far stay installed, for the error's statistics.
#[allow(clippy::too_many_arguments)] // the driver's state, lent per batch
fn materialise(
    query: &NdlQuery,
    db: &Database,
    budget: &mut Budget,
    cfg: &EngineConfig,
    qplan: &QueryPlan,
    telem: Telemetry<'_>,
    sink: Option<&JoinSink>,
    p: PredId,
    live: &[usize],
    idb: &mut [Arc<Relation>],
    per_pred: &mut [usize],
    sched: &mut SchedStats,
) -> Result<(), Halt> {
    let program = &query.program;
    let clauses = program.clauses();
    let renamed = match live {
        [ci] if sink.is_none() => renaming(&clauses[*ci]),
        _ => None,
    };
    if let Some((q, perm)) = renamed {
        sched.renamed += 1;
        let source = match program.pred(q).kind {
            PredKind::Idb => Arc::clone(&idb[q.0 as usize]),
            kind => Arc::clone(db.shared_relation(kind)),
        };
        // Charged exactly as a derivation would be, before anything is
        // copied.
        per_pred[p.0 as usize] += source.len();
        budget.charge_tuples(source.len() as u64)?;
        let head = &program.pred(p).name;
        idb[p.0 as usize] = fill_renamed(head, &source, perm.as_deref(), budget, &telem)?;
        return Ok(());
    }
    let threads = cfg.effective_threads().max(1);
    let mut tasks: Vec<Task<'_>> = Vec::new();
    for &ci in live {
        let clause = &clauses[ci];
        let plan = qplan.clauses[ci].as_ref().map_err(|e| Halt::Unsafe(e.clone()))?;
        // Split a large outer scan into per-worker row ranges — only when
        // the plan opens with a full scan (a probe or merge first step
        // seeds from the single empty binding).
        let outer_rows = match (plan.order.first(), plan.access.first()) {
            (Some(&i), Some(PlannedAccess::Scan)) => match &clause.body[i] {
                BodyAtom::Pred(q, _) => Some(relation(program, db, idb, *q).len()),
                _ => None,
            },
            _ => None,
        };
        match outer_rows {
            Some(n) if threads > 1 && n >= cfg.chunk_min_rows.max(1) => {
                let chunk = n.div_ceil(threads * 2).max(1);
                let mut lo = 0;
                while lo < n {
                    let hi = (lo + chunk).min(n);
                    tasks.push(Task { index: ci, clause, plan, range: Some((lo, hi)) });
                    lo = hi;
                }
            }
            _ => tasks.push(Task { index: ci, clause, plan, range: None }),
        }
    }
    let out = Mutex::new((Relation::new(program.pred(p).arity), 0usize));
    let idb_view: &[Arc<Relation>] = idb;
    let halt = if threads <= 1 || tasks.len() <= 1 {
        let mut halt = None;
        for t in &tasks {
            sched.executed += 1;
            if let Err(h) =
                eval_task_isolated(query, db, idb_view, budget, t, &out, None, &telem, sink)
            {
                halt = Some(h);
                break;
            }
        }
        halt
    } else {
        let shared: SharedBudget = budget.share();
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let first_halt: Mutex<Option<Halt>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(tasks.len()) {
                scope.spawn(|| {
                    let mut wb = WorkerBudget::new(&shared);
                    let mut buf = Vec::new();
                    while !abort.load(Ordering::Relaxed) {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(t) else { break };
                        if let Err(h) = eval_task_isolated(
                            query,
                            db,
                            idb_view,
                            &mut wb,
                            task,
                            &out,
                            Some(&mut buf),
                            &telem,
                            sink,
                        ) {
                            // Budget halts already poisoned the shared
                            // budget; a caught panic has not, so cancel
                            // the pool explicitly — siblings deep in a
                            // join observe it at their next budget check.
                            // Record the halt *first* so the Cancelled
                            // trips it provokes can never be reported as
                            // the cause.
                            let cancel = matches!(h, Halt::Fault(_) | Halt::Panic { .. });
                            let mut slot =
                                first_halt.lock().unwrap_or_else(PoisonError::into_inner);
                            slot.get_or_insert(h);
                            drop(slot);
                            if cancel {
                                shared.cancel();
                            }
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                });
            }
        });
        budget.absorb(&shared);
        sched.executed += next.load(Ordering::Relaxed).min(tasks.len()) as u64;
        first_halt.into_inner().unwrap_or_else(PoisonError::into_inner)
    };
    // Install the (possibly partial, on halt) output.
    let (rel, fresh) = out.into_inner().unwrap_or_else(PoisonError::into_inner);
    per_pred[p.0 as usize] += fresh;
    idb[p.0 as usize] = Arc::new(rel);
    halt.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::program::{CVar, Program};
    use crate::reference::evaluate_reference;
    use obda_budget::Resource;
    use obda_owlql::abox::DataInstance;
    use obda_owlql::parser::{parse_data, parse_ontology};
    use std::cell::RefCell;
    use std::time::Duration;

    thread_local! {
        /// The IDB relations of this thread's last successful run, so a
        /// test can check which relations were installed by reference.
        pub(super) static LAST_IDB: RefCell<Vec<Arc<Relation>>> = const { RefCell::new(Vec::new()) };
    }

    /// The relation the last successful run on this thread installed for `p`.
    fn installed(p: PredId) -> Arc<Relation> {
        LAST_IDB.with(|last| Arc::clone(&last.borrow()[p.0 as usize]))
    }

    fn clause(head: PredId, head_args: &[u32], body: Vec<BodyAtom>) -> Clause {
        let num_vars = 1 + body
            .iter()
            .flat_map(|a| a.vars())
            .chain(head_args.iter().map(|&v| CVar(v)))
            .map(|v| v.0)
            .max()
            .unwrap_or(0);
        Clause { head, head_args: head_args.iter().map(|&v| CVar(v)).collect(), body, num_vars }
    }

    fn atom(p: PredId, args: &[u32]) -> BodyAtom {
        BodyAtom::Pred(p, args.iter().map(|&v| CVar(v)).collect())
    }

    /// Evaluates untraced under `budget`.
    fn eval(
        q: &NdlQuery,
        db: &Database,
        mut budget: Budget,
        cfg: &EngineConfig,
    ) -> Result<EvalResult, EvalError> {
        evaluate_engine_on_traced(q, db, &mut budget, cfg, Telemetry::disabled())
    }

    /// The seed hash-set engine's result, the oracle of these tests.
    fn oracle(q: &NdlQuery, d: &DataInstance) -> EvalResult {
        evaluate_reference(q, d, &mut Budget::unlimited()).unwrap()
    }

    fn chain_query() -> (NdlQuery, DataInstance) {
        let o = parse_ontology("Class A\nProperty R\nProperty S\n").unwrap();
        let mut text = String::new();
        for i in 0..200 {
            text.push_str(&format!("R(a{}, a{})\n", i, i + 1));
            text.push_str(&format!("S(a{}, b{})\n", i, i % 7));
        }
        text.push_str("A(a0)\nA(a5)\nA(a50)\n");
        let d = parse_data(&text, &o).unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let t1 = p.add_pred("T1", 2, PredKind::Idb);
        let t2 = p.add_pred("T2", 2, PredKind::Idb);
        let g = p.add_pred("G", 2, PredKind::Idb);
        // Two independent level-1 predicates joined at the goal.
        p.add_clause(Clause {
            head: t1,
            head_args: vec![CVar(0), CVar(2)],
            body: vec![
                BodyAtom::Pred(r, vec![CVar(0), CVar(1)]),
                BodyAtom::Pred(r, vec![CVar(1), CVar(2)]),
            ],
            num_vars: 3,
        });
        p.add_clause(Clause {
            head: t2,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(s, vec![CVar(0), CVar(1)]), BodyAtom::Pred(a, vec![CVar(0)])],
            num_vars: 2,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(2)],
            body: vec![
                BodyAtom::Pred(t1, vec![CVar(0), CVar(1)]),
                BodyAtom::Pred(t2, vec![CVar(1), CVar(2)]),
            ],
            num_vars: 3,
        });
        (NdlQuery::new(p, g), d)
    }

    #[test]
    fn engine_matches_sequential_at_every_thread_count() {
        let (q, d) = chain_query();
        let db = Database::new(&d);
        let base = oracle(&q, &d);
        for threads in [1, 2, 4, 8] {
            for prune in [false, true] {
                for plan in [false, true] {
                    let cfg = EngineConfig { threads, prune, chunk_min_rows: 16, plan };
                    let res = eval(&q, &db, Budget::unlimited(), &cfg).unwrap();
                    assert_eq!(
                        res.answers, base.answers,
                        "threads={threads} prune={prune} plan={plan}"
                    );
                    assert!(res.stats.generated_tuples <= base.stats.generated_tuples);
                    if !prune {
                        assert_eq!(res.stats.generated_tuples, base.stats.generated_tuples);
                        assert_eq!(res.stats.per_predicate, base.stats.per_predicate);
                    }
                }
            }
        }
    }

    #[test]
    fn stats_are_deterministic_across_thread_counts() {
        let (q, d) = chain_query();
        let db = Database::new(&d);
        let cfg = EngineConfig { threads: 1, prune: true, chunk_min_rows: 8, plan: true };
        let reference = eval(&q, &db, Budget::unlimited(), &cfg).unwrap();
        for threads in [2, 3, 4, 7] {
            let cfg = EngineConfig { threads, prune: true, chunk_min_rows: 8, plan: true };
            let res = eval(&q, &db, Budget::unlimited(), &cfg).unwrap();
            assert_eq!(res.answers, reference.answers);
            assert_eq!(res.stats.generated_tuples, reference.stats.generated_tuples);
            assert_eq!(res.stats.per_predicate, reference.stats.per_predicate);
        }
    }

    #[test]
    fn shared_deadline_stops_all_workers_with_typed_error() {
        let (q, d) = chain_query();
        let db = Database::new(&d);
        let cfg = EngineConfig { threads: 4, prune: false, chunk_min_rows: 8, plan: true };
        let err = eval(&q, &db, Budget::with_timeout(Duration::ZERO), &cfg).unwrap_err();
        assert!(matches!(err, EvalError::Timeout(_)), "got {err:?}");
    }

    #[test]
    fn shared_tuple_cap_trips_the_pool() {
        let (q, d) = chain_query();
        let db = Database::new(&d);
        let cfg = EngineConfig { threads: 4, prune: false, chunk_min_rows: 8, plan: true };
        let err = eval(&q, &db, Budget::unlimited().max_tuples(5), &cfg).unwrap_err();
        match err {
            EvalError::TupleLimit(stats) => {
                // Concurrent charges can each overshoot by the row they
                // were inserting when the pool tripped: cap + 1 per worker.
                assert!(stats.generated_tuples <= 5 + 4, "cap honoured: {stats:?}")
            }
            other => panic!("expected TupleLimit, got {other:?}"),
        }
    }

    #[test]
    fn pruned_stats_map_back_to_original_predicates() {
        let o = parse_ontology("Property R\n").unwrap();
        let d = parse_data("R(a, b)\nR(b, c)\n", &o).unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let alias = p.add_pred("ALIAS", 2, PredKind::Idb);
        let g = p.add_pred("G", 2, PredKind::Idb);
        p.add_clause(Clause {
            head: alias,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(alias, vec![CVar(1), CVar(0)])],
            num_vars: 2,
        });
        let q = NdlQuery::new(p, g);
        let db = Database::new(&d);
        let base = evaluate(&q, &db).unwrap();
        assert_eq!(base.stats.generated_tuples, 4, "alias doubles the work");
        let res = eval(&q, &db, Budget::unlimited(), &EngineConfig::default()).unwrap();
        assert_eq!(res.answers, base.answers);
        assert_eq!(res.stats.generated_tuples, 2, "alias is pruned away");
        assert_eq!(res.stats.per_predicate.len(), q.program.num_preds());
        assert_eq!(res.stats.per_predicate[g.0 as usize], 2);
        assert_eq!(res.stats.per_predicate[alias.0 as usize], 0);
    }

    #[test]
    fn empty_relation_skips_clause_bodies() {
        let o = parse_ontology("Class A\nProperty R\nProperty S\n").unwrap();
        let d = parse_data("R(a, b)\n", &o).unwrap(); // S is empty
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let g = p.add_pred("G", 2, PredKind::Idb);
        for e in [r, s] {
            p.add_clause(Clause {
                head: g,
                head_args: vec![CVar(0), CVar(1)],
                body: vec![BodyAtom::Pred(e, vec![CVar(0), CVar(1)])],
                num_vars: 2,
            });
        }
        let q = NdlQuery::new(p, g);
        let db = Database::new(&d);
        let res = eval(&q, &db, Budget::unlimited(), &EngineConfig::default()).unwrap();
        assert_eq!(res.answers.len(), 1);
    }

    /// `G(x, z) ← E(x) ∧ X(x, z)`, where `E` is estimated small and comes
    /// out empty and `X` is a two-step path over a 200-edge chain. Pruned,
    /// the goal clause demands `E` first and dies there, so `X` is never
    /// materialised; unpruned, both are, tuple for tuple like the
    /// reference.
    #[test]
    fn an_empty_demand_kills_its_clause_before_the_expensive_one() {
        let o = parse_ontology("Class A\nProperty R\nProperty S\n").unwrap();
        let mut text = String::from("A(b0)\n");
        for i in 0..200 {
            text.push_str(&format!("R(a{}, a{})\nS(a{i}, c{})\n", i, i + 1, i % 3));
        }
        let d = parse_data(&text, &o).unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let e = p.add_pred("E", 1, PredKind::Idb);
        let x = p.add_pred("X", 2, PredKind::Idb);
        let g = p.add_pred("G", 2, PredKind::Idb);
        // Both views keep an existential variable, so pruning leaves them
        // materialised rather than unfolding them into the goal.
        p.add_clause(clause(e, &[0], vec![atom(a, &[0]), atom(s, &[0, 1])]));
        p.add_clause(clause(x, &[0, 2], vec![atom(r, &[0, 1]), atom(r, &[1, 2])]));
        p.add_clause(clause(g, &[0, 2], vec![atom(x, &[0, 2]), atom(e, &[0])]));
        let q = NdlQuery::new(p, g);
        let oracle = oracle(&q, &d);
        assert_eq!(oracle.stats.per_predicate[x.0 as usize], 199);
        let db = Database::new(&d);
        for threads in [1, 4] {
            let pruned = EngineConfig { threads, chunk_min_rows: 16, ..EngineConfig::default() };
            for cfg in [pruned.clone(), EngineConfig { plan: false, ..pruned }] {
                let res = eval(&q, &db, Budget::unlimited(), &cfg).unwrap();
                assert_eq!(res.answers, oracle.answers, "{cfg:?}");
                assert_eq!(res.stats.per_predicate[e.0 as usize], 0, "{cfg:?}");
                assert_eq!(
                    res.stats.per_predicate[x.0 as usize], 0,
                    "X is never demanded: {cfg:?}"
                );
            }
        }
        let full = eval(&q, &db, Budget::unlimited(), &EngineConfig::unpruned()).unwrap();
        assert_eq!(full.answers, oracle.answers);
        assert_eq!(full.stats.per_predicate, oracle.stats.per_predicate);
    }

    /// A chain of predicates deeper than a thread's stack could recurse
    /// through is demanded on the traversal's own stack.
    #[test]
    fn a_deep_chain_is_demanded_without_recursion() {
        let o = parse_ontology("Property R\n").unwrap();
        let d = parse_data("R(a, b)\nR(b, c)\n", &o).unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let depth = 5_000;
        let preds: Vec<PredId> =
            (0..depth).map(|i| p.add_pred(format!("L{i}"), 2, PredKind::Idb)).collect();
        p.add_clause(clause(preds[0], &[0, 1], vec![atom(r, &[0, 1])]));
        for w in preds.windows(2) {
            p.add_clause(clause(w[1], &[0, 2], vec![atom(w[0], &[0, 1]), atom(r, &[1, 2])]));
        }
        let q = NdlQuery::new(p, preds[depth - 1]);
        let db = Database::new(&d);
        // A small stack: a frame per predicate would overflow it.
        let res = std::thread::Builder::new()
            .stack_size(128 * 1024)
            .spawn(move || {
                let cfg = EngineConfig { prune: true, ..EngineConfig::default() };
                run(
                    &q,
                    None,
                    q.program.num_preds(),
                    &db,
                    &mut Budget::unlimited(),
                    &cfg,
                    None,
                    Telemetry::disabled(),
                    None,
                )
                .map(|r| {
                    (r.answers.len(), r.stats.per_predicate.iter().filter(|&&n| n > 0).count())
                })
            })
            .unwrap()
            .join()
            .unwrap()
            .unwrap();
        // L0 = R, L1 = R∘R = {(a, c)}, and L2 onwards is empty.
        assert_eq!(res, (0, 2));
    }

    #[test]
    fn recursive_program_is_rejected() {
        let mut p = Program::new();
        let g = p.add_pred("G", 1, PredKind::Idb);
        let h = p.add_pred("H", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(h, vec![CVar(0)])],
            num_vars: 1,
        });
        p.add_clause(Clause {
            head: h,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(g, vec![CVar(0)])],
            num_vars: 1,
        });
        let o = parse_ontology("Class A\n").unwrap();
        let d = parse_data("A(a)\n", &o).unwrap();
        let db = Database::new(&d);
        // Pruning must not mask recursion detection.
        let err = eval(&NdlQuery::new(p, g), &db, Budget::unlimited(), &EngineConfig::default())
            .unwrap_err();
        assert!(matches!(err, EvalError::Recursive));
    }

    /// The starred rewriting of `G(x0, x3) ← R(x0, x1) ∧ S(x1, x2) ∧
    /// R(x2, x3)` under Example 11 (`P ⊑ S`, `P ⊑ R⁻`), over a chain of
    /// `R`, `S` and `P` edges. Pruning keeps `R*` and `S*` as completion
    /// predicates.
    fn star_fixture() -> (NdlQuery, DataInstance) {
        let o = parse_ontology("P SubPropertyOf S\nP SubPropertyOf R-\n").unwrap();
        let mut text = String::new();
        for i in 0..120 {
            text.push_str(&format!("R(a{}, a{})\n", i, i + 1));
            text.push_str(&format!("S(a{}, a{})\n", i, (i * 7) % 120));
            text.push_str(&format!("P(a{}, a{})\n", (i * 5) % 120, i));
        }
        let d = parse_data(&text, &o).unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let g = p.add_pred("G", 2, PredKind::Idb);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(3)],
            body: vec![
                BodyAtom::Pred(r, vec![CVar(0), CVar(1)]),
                BodyAtom::Pred(s, vec![CVar(1), CVar(2)]),
                BodyAtom::Pred(r, vec![CVar(2), CVar(3)]),
            ],
            num_vars: 4,
        });
        let starred = crate::star::star_transform(
            &NdlQuery::new(p, g),
            &o.taxonomy(),
            v,
            &mut Budget::unlimited(),
        )
        .unwrap();
        (starred, d)
    }

    /// Evaluates with the engine under `budget`, returning the result and
    /// the `[reused, built, renamed]` counters it recorded.
    fn eval_counting(
        q: &NdlQuery,
        db: &Database,
        mut budget: Budget,
        cfg: &EngineConfig,
    ) -> (Result<EvalResult, EvalError>, [u64; 3]) {
        let registry = obda_telemetry::MetricsRegistry::new();
        let telem = Telemetry::new(&obda_telemetry::NoopTracer, Some(&registry));
        let res = evaluate_engine_on_traced(q, db, &mut budget, cfg, telem);
        let counters = [
            "engine_completions_reused_total",
            "engine_completions_built_total",
            "engine_clauses_renamed_total",
        ]
        .map(|name| registry.counter(name).get());
        (res, counters)
    }

    #[test]
    fn warm_memo_gives_identical_answers_and_stats() {
        let (q, d) = star_fixture();
        let oracle = oracle(&q, &d);
        for threads in [1, 4] {
            let cfg = EngineConfig { threads, chunk_min_rows: 16, ..EngineConfig::default() };
            let db = Database::new(&d);
            let (cold, [reused, built, _]) = eval_counting(&q, &db, Budget::unlimited(), &cfg);
            let cold = cold.unwrap();
            assert_eq!((reused, built), (0, 2), "R* and S* are built on the cold run");
            assert_eq!(db.completions().len(), 2);
            let (warm, [reused, built, _]) = eval_counting(&q, &db, Budget::unlimited(), &cfg);
            let warm = warm.unwrap();
            assert_eq!((reused, built), (2, 0), "the warm run derives no completion");
            assert_eq!(db.completions().len(), 2, "one entry per definition");
            assert_eq!(cold.answers, oracle.answers);
            assert_eq!(warm.answers, cold.answers);
            assert_eq!(warm.stats.generated_tuples, cold.stats.generated_tuples);
            assert_eq!(warm.stats.per_predicate, cold.stats.per_predicate);
            assert_eq!(warm.stats.num_answers, cold.stats.num_answers);
        }
    }

    #[test]
    fn a_hit_charges_the_tuple_cap_like_a_miss() {
        let (q, d) = star_fixture();
        let cfg = EngineConfig::default();
        let total = {
            let db = Database::new(&d);
            eval(&q, &db, Budget::unlimited(), &cfg).unwrap().stats
        }
        .generated_tuples;
        let db = Database::new(&d);
        eval(&q, &db, Budget::unlimited(), &cfg).unwrap();
        assert_eq!(db.completions().len(), 2);
        // A hit charges its whole relation, so every cap below the total
        // trips on both runs. (Right at the total, the kernel's headroom
        // check on a batch of bindings, duplicates included, may trip
        // either run.)
        for cap in [total / 4, total / 2, total - 1, 2 * total] {
            let cap = cap as u64;
            let cold = eval(&q, &Database::new(&d), Budget::unlimited().max_tuples(cap), &cfg);
            let warm = eval(&q, &db, Budget::unlimited().max_tuples(cap), &cfg);
            assert_eq!(cold.is_ok(), cap > total as u64, "cold run at cap {cap}");
            assert_eq!(warm.is_ok(), cap > total as u64, "warm run at cap {cap}");
        }
        assert_eq!(db.completions().len(), 2);
    }

    /// The cap counts distinct tuples: re-deriving a tuple already in its
    /// relation charges nothing, even with the cap used up. Inside a
    /// clause, the kernel's batch of bindings (duplicates included) must
    /// fit the headroom.
    #[test]
    fn the_tuple_cap_charges_distinct_tuples_only() {
        let o = parse_ontology("Class A\n").unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let g = p.add_pred("G", 0, PredKind::Idb);
        p.add_clause(Clause {
            head: g,
            head_args: vec![],
            body: vec![BodyAtom::Pred(a, vec![CVar(0)])],
            num_vars: 1,
        });
        // No body: derives the empty tuple once more.
        p.add_clause(Clause { head: g, head_args: vec![], body: vec![], num_vars: 0 });
        let q = NdlQuery::new(p, g);
        let cfg = EngineConfig::unpruned();
        let run = |data: &str, cap: u64| {
            let db = Database::new(&parse_data(data, &o).unwrap());
            eval(&q, &db, Budget::unlimited().max_tuples(cap), &cfg)
        };
        // Two rows emitted, one tuple: the second row fits a used-up cap.
        let res = run("A(a)\n", 1).unwrap();
        assert_eq!((res.stats.generated_tuples, res.stats.num_answers), (1, 1));
        assert!(matches!(run("A(a)\n", 0), Err(EvalError::TupleLimit(_))));
        // Four rows emitted, one tuple: a cap of three holds them, one
        // below the first clause's three bindings does not.
        let res = run("A(a)\nA(b)\nA(c)\n", 3).unwrap();
        assert_eq!(res.stats.generated_tuples, 1);
        assert!(matches!(run("A(a)\nA(b)\nA(c)\n", 2), Err(EvalError::TupleLimit(_))));
    }

    #[test]
    fn halted_fills_store_nothing() {
        let (q, d) = star_fixture();
        let cfg = EngineConfig { threads: 4, chunk_min_rows: 16, ..EngineConfig::default() };
        let oracle = oracle(&q, &d);
        let db = Database::new(&d);
        let err = eval(&q, &db, Budget::unlimited().max_tuples(10), &cfg).unwrap_err();
        assert!(matches!(err, EvalError::TupleLimit(_)), "got {err:?}");
        let err = eval(&q, &db, Budget::with_timeout(Duration::ZERO), &cfg).unwrap_err();
        assert!(matches!(err, EvalError::Timeout(_)), "got {err:?}");
        assert!(db.completions().is_empty(), "a halted batch must not fill the memo");
        let res = eval(&q, &db, Budget::unlimited(), &cfg).unwrap();
        assert_eq!(res.answers, oracle.answers);
        assert_eq!(db.completions().len(), 2);
    }

    #[test]
    fn corrupted_hydration_stores_nothing() {
        use crate::storage::LazyRelation;
        use obda_owlql::util::FxHashMap;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Arc;

        let (q, d) = star_fixture();
        let oracle = oracle(&q, &d);
        // A lazily hydrated copy of the data whose first hydration of each
        // property fails, as a corrupted segment would.
        let eager = Database::new(&d);
        let failed = Arc::new(AtomicBool::new(false));
        let props: FxHashMap<_, _> = eager
            .prop_relations()
            .map(|(p, rel)| {
                let cols: Vec<Vec<u32>> =
                    (0..2).map(|c| rel.rows().map(|r| r[c]).collect()).collect();
                let failed = Arc::clone(&failed);
                let slot = LazyRelation::lazy(move || {
                    if !failed.swap(true, Ordering::Relaxed) {
                        return Err("corrupted segment".into());
                    }
                    Ok(Relation::from_sorted_columns(2, &cols))
                });
                (p, slot)
            })
            .collect();
        let universe = Relation::from_sorted_columns(
            1,
            &[eager.relation(PredKind::Top).rows().map(|r| r[0]).collect()],
        );
        let db =
            Database::from_lazy_relations(FxHashMap::default(), props, universe, eager.num_atoms());
        let cfg = EngineConfig::default();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = catch_unwind(AssertUnwindSafe(|| eval(&q, &db, Budget::unlimited(), &cfg)));
        std::panic::set_hook(hook);
        assert!(caught.is_err(), "the failed hydration unwinds");
        assert!(db.completions().is_empty());
        let res = eval(&q, &db, Budget::unlimited(), &cfg).unwrap();
        assert_eq!(res.answers, oracle.answers);
        assert_eq!(db.completions().len(), 2);
    }

    #[test]
    fn racing_first_fills_both_get_the_oracle_answer() {
        let (q, d) = star_fixture();
        let cfg = EngineConfig::default();
        let oracle = oracle(&q, &d);
        let cold = eval(&q, &Database::new(&d), Budget::unlimited(), &cfg).unwrap();
        let db = Database::new(&d);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..2)
                .map(|i| {
                    let (q, db, barrier) = (&q, &db, &barrier);
                    scope.spawn(move || {
                        let cfg = EngineConfig { threads: 1 + i, ..EngineConfig::default() };
                        barrier.wait();
                        eval(q, db, Budget::unlimited(), &cfg).unwrap()
                    })
                })
                .collect();
            for run in runs {
                let res = run.join().unwrap();
                assert_eq!(res.answers, oracle.answers);
                assert_eq!(res.stats.per_predicate, cold.stats.per_predicate);
            }
        });
        assert_eq!(db.completions().len(), 2, "a race still leaves one entry per key");
    }

    #[test]
    fn projected_and_merged_completions_never_share_an_entry() {
        let (full, d) = star_fixture();
        let o = parse_ontology("P SubPropertyOf S\nP SubPropertyOf R-\n").unwrap();
        let v = o.vocab();
        let starred = |head: Vec<CVar>, body: Vec<(&str, [u32; 2])>| {
            let mut p = Program::new();
            let g = p.add_pred("G", head.len(), PredKind::Idb);
            let body = body
                .into_iter()
                .map(|(name, [a, b])| {
                    let e = p.edb_prop(v.get_prop(name).unwrap(), v);
                    BodyAtom::Pred(e, vec![CVar(a), CVar(b)])
                })
                .collect();
            p.add_clause(Clause { head: g, head_args: head, body, num_vars: 3 });
            crate::star::star_transform(
                &NdlQuery::new(p, g),
                &o.taxonomy(),
                v,
                &mut Budget::unlimited(),
            )
            .unwrap()
        };
        // R*'s second column is dead here, so the engine sees R*↓.
        let projected = starred(vec![CVar(0)], vec![("R", [0, 1]), ("S", [0, 2])]);
        // A lone R atom: R* is head-merged into the goal.
        let merged = starred(vec![CVar(0), CVar(1)], vec![("R", [0, 1])]);
        let db = Database::new(&d);
        let cfg = EngineConfig::default();
        let mut entries = Vec::new();
        for q in [&full, &projected, &merged, &full] {
            let expected = oracle(q, &d);
            let res = eval(q, &db, Budget::unlimited(), &cfg).unwrap();
            assert_eq!(res.answers, expected.answers);
            entries.push(db.completions().len());
        }
        // R*, S*; then their projections R*↓ and S*↓; nothing for the
        // merged goal; nothing new on the rerun.
        assert_eq!(entries, vec![2, 4, 4, 4]);
    }

    #[test]
    fn step_cap_maps_to_timeout_error() {
        let (q, d) = chain_query();
        let db = Database::new(&d);
        let cfg = EngineConfig { threads: 4, prune: false, chunk_min_rows: 8, plan: true };
        let err = eval(&q, &db, Budget::unlimited().max_steps(10), &cfg).unwrap_err();
        assert!(matches!(err, EvalError::Timeout(_)));
        let _ = Resource::Steps; // taxonomy documented in eval::halt_to_error
    }

    /// `R(a_i, a_{i+1})`, `S(a_i, b_{i%5})` and `A(a_{2i})` over a chain.
    fn rename_data() -> (obda_owlql::Ontology, DataInstance) {
        let o = parse_ontology("Class A\nProperty R\nProperty S\n").unwrap();
        let mut text = String::new();
        for i in 0..60 {
            text.push_str(&format!("R(a{}, a{})\nS(a{i}, b{})\n", i, i + 1, i % 5));
            if i % 2 == 0 {
                text.push_str(&format!("A(a{i})\n"));
            }
        }
        let d = parse_data(&text, &o).unwrap();
        (o, d)
    }

    #[test]
    fn renaming_recognises_exactly_the_permutations() {
        let mut p = Program::new();
        let q = p.add_pred("Q", 2, PredKind::Idb);
        let q3 = p.add_pred("Q3", 3, PredKind::Idb);
        let h = p.add_pred("H", 2, PredKind::Idb);
        let h1 = p.add_pred("H1", 1, PredKind::Idb);
        let h3 = p.add_pred("H3", 3, PredKind::Idb);
        assert_eq!(renaming(&clause(h, &[0, 1], vec![atom(q, &[0, 1])])), Some((q, None)));
        assert_eq!(
            renaming(&clause(h, &[1, 0], vec![atom(q, &[0, 1])])),
            Some((q, Some(vec![1, 0])))
        );
        assert_eq!(
            renaming(&clause(h3, &[2, 0, 1], vec![atom(q3, &[0, 1, 2])])),
            Some((q3, Some(vec![2, 0, 1])))
        );
        // A projection, a repeated head variable, a repeated body variable.
        assert_eq!(renaming(&clause(h1, &[0], vec![atom(q, &[0, 1])])), None);
        assert_eq!(renaming(&clause(h, &[0, 0], vec![atom(q, &[0, 1])])), None);
        assert_eq!(renaming(&clause(h1, &[0], vec![atom(q, &[0, 0])])), None);
        // Equalities, alone or next to the atom.
        let eq = BodyAtom::Eq(CVar(0), CVar(1));
        assert_eq!(renaming(&clause(h, &[0, 1], vec![atom(q, &[0, 1]), eq])), None);
        let eq_const = BodyAtom::EqConst(CVar(0), ConstId(0));
        assert_eq!(renaming(&clause(h, &[0, 1], vec![atom(q, &[0, 1]), eq_const])), None);
        // Two atoms, or none.
        let two = vec![atom(q, &[0, 1]), atom(q, &[1, 0])];
        assert_eq!(renaming(&clause(h, &[0, 1], two)), None);
        assert_eq!(renaming(&clause(h, &[0, 1], vec![])), None);
    }

    #[test]
    fn an_identity_rename_shares_its_source() {
        use crate::storage::LazyRelation;
        use obda_owlql::util::FxHashMap;

        let (o, d) = rename_data();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let t = p.add_pred("T", 2, PredKind::Idb);
        let from_idb = p.add_pred("FROM_IDB", 2, PredKind::Idb);
        let from_edb = p.add_pred("FROM_EDB", 2, PredKind::Idb);
        let g = p.add_pred("G", 2, PredKind::Idb);
        p.add_clause(clause(t, &[0, 2], vec![atom(r, &[0, 1]), atom(s, &[1, 2])]));
        p.add_clause(clause(from_idb, &[0, 1], vec![atom(t, &[0, 1])]));
        p.add_clause(clause(from_edb, &[0, 1], vec![atom(r, &[0, 1])]));
        p.add_clause(clause(g, &[0, 2], vec![atom(from_idb, &[0, 1]), atom(from_edb, &[1, 2])]));
        let q = NdlQuery::new(p, g);
        let oracle = oracle(&q, &d);
        let cfg = EngineConfig::unpruned();

        // An eagerly loaded database.
        let eager = Database::new(&d);
        let (res, [_, _, renamed]) = eval_counting(&q, &eager, Budget::unlimited(), &cfg);
        let res = res.unwrap();
        assert_eq!(res.answers, oracle.answers);
        assert_eq!(res.stats.per_predicate, oracle.stats.per_predicate);
        assert_eq!(renamed, 2);
        assert!(Arc::ptr_eq(&installed(from_idb), &installed(t)), "IDB source");
        let r_kind = q.program.pred(r).kind;
        assert!(Arc::ptr_eq(&installed(from_edb), eager.shared_relation(r_kind)), "eager EDB");

        // A snapshot-style database whose slots hydrate on first touch.
        let lazy = |rel: &Relation| {
            let cols: Vec<Vec<u32>> =
                (0..2).map(|c| rel.rows().map(|row| row[c]).collect()).collect();
            LazyRelation::lazy(move || Ok(Relation::from_sorted_columns(2, &cols)))
        };
        let props: FxHashMap<_, _> =
            eager.prop_relations().map(|(id, rel)| (id, lazy(rel))).collect();
        let universe = Relation::from_sorted_columns(
            1,
            &[eager.relation(PredKind::Top).rows().map(|row| row[0]).collect()],
        );
        let db =
            Database::from_lazy_relations(FxHashMap::default(), props, universe, eager.num_atoms());
        let (res, [_, _, renamed]) = eval_counting(&q, &db, Budget::unlimited(), &cfg);
        assert_eq!(res.unwrap().answers, oracle.answers);
        assert_eq!(renamed, 2);
        assert!(Arc::ptr_eq(&installed(from_edb), db.shared_relation(r_kind)), "lazy slot");
    }

    #[test]
    fn a_permuted_rename_matches_the_reference() {
        let (o, d) = rename_data();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let t = p.add_pred("T", 3, PredKind::Idb);
        let rot = p.add_pred("ROT", 3, PredKind::Idb);
        let inv = p.add_pred("INV", 2, PredKind::Idb);
        let g = p.add_pred("G", 3, PredKind::Idb);
        p.add_clause(clause(t, &[0, 1, 2], vec![atom(r, &[0, 1]), atom(s, &[1, 2])]));
        p.add_clause(clause(rot, &[2, 0, 1], vec![atom(t, &[0, 1, 2])]));
        p.add_clause(clause(inv, &[1, 0], vec![atom(r, &[0, 1])]));
        p.add_clause(clause(
            g,
            &[0, 1, 2],
            vec![atom(rot, &[0, 1, 2]), atom(inv, &[2, 3]), atom(a, &[3])],
        ));
        let q = NdlQuery::new(p, g);
        let oracle = oracle(&q, &d);
        assert!(!oracle.answers.is_empty(), "the fixture must have answers");
        for threads in [1, 4] {
            let cfg = EngineConfig { threads, prune: false, chunk_min_rows: 8, plan: true };
            let (res, [_, _, renamed]) =
                eval_counting(&q, &Database::new(&d), Budget::unlimited(), &cfg);
            let res = res.unwrap();
            assert_eq!(renamed, 2, "threads={threads}");
            assert_eq!(res.answers, oracle.answers, "threads={threads}");
            assert_eq!(res.stats.per_predicate, oracle.stats.per_predicate);
            let (rot, t) = (installed(rot), installed(t));
            assert_eq!(rot.len(), t.len());
            assert!(
                t.rows().all(|x| rot.contains(&[x[2], x[0], x[1]])),
                "ROT(z, x, y) :- T(x, y, z)"
            );
        }
    }

    /// Each renamed predicate gets a `clause_task` span of its own, so the
    /// clause spans still account for every generated tuple.
    #[test]
    fn renamed_predicates_are_traced_like_tasks() {
        let (o, d) = rename_data();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let copy = p.add_pred("COPY", 2, PredKind::Idb);
        let inv = p.add_pred("INV", 2, PredKind::Idb);
        let g = p.add_pred("G", 2, PredKind::Idb);
        p.add_clause(clause(copy, &[0, 1], vec![atom(r, &[0, 1])]));
        p.add_clause(clause(inv, &[1, 0], vec![atom(r, &[0, 1])]));
        p.add_clause(clause(g, &[0, 2], vec![atom(copy, &[0, 1]), atom(inv, &[2, 1])]));
        let q = NdlQuery::new(p, g);
        let db = Database::new(&d);
        let tracer = obda_telemetry::CollectingTracer::new();
        let telem = Telemetry::new(&tracer, None);
        let cfg = EngineConfig::unpruned();
        let res =
            evaluate_engine_on_traced(&q, &db, &mut Budget::unlimited(), &cfg, telem).unwrap();
        let tree = tracer.snapshot();
        let tasks: Vec<_> = tree.iter().filter(|s| s.name == "clause_task").collect();
        let renamed = |how: &str| {
            tasks.iter().find(|s| s.attr_str("renamed") == Some(how)).and_then(|s| s.attr("tuples"))
        };
        let rows = db.relation(q.program.pred(r).kind).len() as u64;
        assert_eq!(renamed("alias"), Some(rows));
        assert_eq!(renamed("permute"), Some(rows));
        let sum: u64 = tasks.iter().filter_map(|s| s.attr("tuples")).sum();
        assert_eq!(sum, res.stats.generated_tuples as u64);
        let eval = tree.iter().find(|s| s.name == "eval").unwrap();
        assert_eq!(eval.attr("clauses_renamed"), Some(2));
    }

    #[test]
    fn projections_equalities_and_two_live_clauses_are_not_renamed() {
        let (o, d) = rename_data();
        let v = o.vocab();
        let db = Database::new(&d);
        let cfg = EngineConfig::unpruned();
        // Each program defines `H` from `R`/`S` in a way that is not a
        // renaming, and consumes it in a goal that is not one either.
        type Shape = fn(&mut Program, PredId, PredId, PredId);
        let shapes: [(&str, usize, Shape); 6] = [
            ("projection", 1, |p, h, r, _| {
                p.add_clause(clause(h, &[0], vec![atom(r, &[0, 1])]));
            }),
            ("repeated head variable", 2, |p, h, r, _| {
                p.add_clause(clause(h, &[0, 0], vec![atom(r, &[0, 1])]));
            }),
            ("repeated body variable", 1, |p, h, r, _| {
                p.add_clause(clause(h, &[0], vec![atom(r, &[0, 0])]));
            }),
            ("equality", 2, |p, h, r, _| {
                p.add_clause(clause(
                    h,
                    &[0, 1],
                    vec![atom(r, &[0, 1]), BodyAtom::Eq(CVar(0), CVar(1))],
                ));
            }),
            ("constant", 2, |p, h, r, _| {
                let eq = BodyAtom::EqConst(CVar(0), ConstId(0));
                p.add_clause(clause(h, &[0, 1], vec![atom(r, &[0, 1]), eq]));
            }),
            ("two live clauses", 2, |p, h, r, s| {
                p.add_clause(clause(h, &[0, 1], vec![atom(r, &[0, 1])]));
                p.add_clause(clause(h, &[0, 1], vec![atom(s, &[0, 1])]));
            }),
        ];
        for (name, arity, define) in shapes {
            let mut p = Program::new();
            let r = p.edb_prop(v.get_prop("R").unwrap(), v);
            let s = p.edb_prop(v.get_prop("S").unwrap(), v);
            let a = p.edb_class(v.get_class("A").unwrap(), v);
            let h = p.add_pred("H", arity, PredKind::Idb);
            let g = p.add_pred("G", arity, PredKind::Idb);
            define(&mut p, h, r, s);
            let args: Vec<u32> = (0..arity as u32).collect();
            p.add_clause(clause(g, &args, vec![atom(h, &args), atom(a, &[0])]));
            let q = NdlQuery::new(p, g);
            let (res, [_, _, renamed]) = eval_counting(&q, &db, Budget::unlimited(), &cfg);
            assert_eq!(renamed, 0, "{name}");
            assert_eq!(res.unwrap().answers, oracle(&q, &d).answers, "{name}");
        }
    }

    #[test]
    fn a_completion_whose_other_clause_is_skipped_is_renamed() {
        // Example 11's ontology over data without `P`: `R*` keeps one live
        // clause, the copy of `R`.
        let o = parse_ontology("P SubPropertyOf S\nP SubPropertyOf R-\n").unwrap();
        let mut text = String::new();
        for i in 0..50 {
            text.push_str(&format!("R(a{}, a{})\nS(a{i}, a{})\n", i, i + 1, (i * 3) % 50));
        }
        let d = parse_data(&text, &o).unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let g = p.add_pred("G", 2, PredKind::Idb);
        p.add_clause(clause(g, &[0, 2], vec![atom(r, &[0, 1]), atom(s, &[1, 2])]));
        let q = crate::star::star_transform(
            &NdlQuery::new(p, g),
            &o.taxonomy(),
            v,
            &mut Budget::unlimited(),
        )
        .unwrap();
        let db = Database::new(&d);
        let oracle = oracle(&q, &d);
        for cfg in [EngineConfig::unpruned(), EngineConfig::default()] {
            let (res, [_, _, renamed]) =
                eval_counting(&q, &Database::new(&d), Budget::unlimited(), &cfg);
            let res = res.unwrap();
            assert_eq!(renamed, 2, "R* and S* copy R and S: {cfg:?}");
            assert_eq!(res.answers, oracle.answers);
            assert_eq!(res.stats.generated_tuples, oracle.stats.generated_tuples);
        }
        // The copy is the data's own relation, stored in the memo as is.
        let r_star = q.program.pred_ids().find(|&x| q.program.pred(x).name == "R*").unwrap();
        let (res, _) = eval_counting(&q, &db, Budget::unlimited(), &EngineConfig::unpruned());
        res.unwrap();
        let r_kind = PredKind::EdbProp(v.get_prop("R").unwrap());
        assert!(Arc::ptr_eq(&installed(r_star), db.shared_relation(r_kind)));
        let key = CompletionKey::of(&q.program, r_star).unwrap();
        assert!(Arc::ptr_eq(&db.completions().get(&key).unwrap(), db.shared_relation(r_kind)));
        // A warm run reuses it from the memo and renames nothing.
        let (warm, [_, _, renamed]) =
            eval_counting(&q, &db, Budget::unlimited(), &EngineConfig::unpruned());
        assert_eq!(renamed, 0);
        assert_eq!(warm.unwrap().answers, oracle.answers);
    }

    #[test]
    fn a_tuple_cap_below_the_source_trips_a_rename() {
        let (o, d) = rename_data();
        let v = o.vocab();
        for perm in [[0, 1], [1, 0]] {
            let mut p = Program::new();
            let r = p.edb_prop(v.get_prop("R").unwrap(), v);
            let g = p.add_pred("G", 2, PredKind::Idb);
            p.add_clause(clause(g, &perm, vec![atom(r, &[0, 1])]));
            let q = NdlQuery::new(p, g);
            let db = Database::new(&d);
            let rows = db.relation(q.program.pred(r).kind).len() as u64;
            let cfg = EngineConfig::unpruned();
            let (res, [_, _, renamed]) =
                eval_counting(&q, &db, Budget::unlimited().max_tuples(rows - 1), &cfg);
            assert!(matches!(res, Err(EvalError::TupleLimit(_))), "{perm:?}: got {res:?}");
            assert_eq!(renamed, 1);
            let (res, _) = eval_counting(&q, &db, Budget::unlimited().max_tuples(rows), &cfg);
            assert_eq!(res.unwrap().stats.generated_tuples as u64, rows, "{perm:?}");
            let (res, _) = eval_counting(&q, &db, Budget::with_timeout(Duration::ZERO), &cfg);
            assert!(matches!(res, Err(EvalError::Timeout(_))), "{perm:?}: got {res:?}");
        }
    }
}
