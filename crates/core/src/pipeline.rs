//! The end-to-end OBDA pipeline: parse, classify, rewrite, evaluate.

use crate::complexity::{classify, OmqClassification};
use obda_budget::{Budget, BudgetSpec};
use obda_chase::answer::{certain_answers, certain_answers_budgeted, CertainAnswers};
use obda_chase::model::ChaseError;
use obda_cq::query::Cq;
use obda_ndl::engine::{
    evaluate_engine_on_traced, evaluate_pruned_planned_on_traced, prune_traced, EngineConfig,
};
use obda_ndl::eval::{EvalError, EvalResult, EvalStats};
use obda_ndl::explain::{explain_plan_with, PlanExplanation};
use obda_ndl::planner::{plan_query, QueryPlan};
use obda_ndl::program::{NdlQuery, Program};
use obda_ndl::relevance::{prune_for_goal, PruneStats, PrunedQuery};
use obda_ndl::storage::{Database, HydrateError};
use obda_owlql::abox::DataInstance;
use obda_owlql::parser::ParseError;
use obda_owlql::saturation::Taxonomy;
use obda_owlql::Ontology;
use obda_rewrite::adaptive::AdaptiveRewriter;
use obda_rewrite::omq::{add_inconsistency_clauses, star_lift, Omq, RewriteError, Rewriter};
use obda_rewrite::tree_witness::TreeWitnessMemo;
use obda_rewrite::twstar::inline_single_definitions;
use obda_rewrite::{
    LinRewriter, LogRewriter, PrestoLikeRewriter, TwRewriter, TwUcqRewriter, UcqRewriter,
};
use obda_store::{StorageBackend, StoreError};
use obda_telemetry::Telemetry;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Renders a panic payload for error reports: string payloads verbatim,
/// anything else a placeholder.
fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Classifies a payload caught by `catch_unwind` at the isolation
/// boundary `site`: an injected transient fault becomes
/// [`ObdaError::Transient`] (retryable), everything else
/// [`ObdaError::Internal`] (a bug).
fn error_from_panic(site: &'static str, payload: Box<dyn std::any::Any + Send>) -> ObdaError {
    #[cfg(feature = "faults")]
    if let Some(fault) = payload.downcast_ref::<obda_faults::FaultError>() {
        return ObdaError::Transient { site: fault.site.to_owned() };
    }
    ObdaError::Internal { site: site.to_owned(), payload: describe_panic(payload.as_ref()) }
}

/// Runs one pipeline request behind a panic-isolation boundary. An unwind
/// out of any stage — an injected fault, or a genuine bug anywhere in
/// rewriting or evaluation — becomes a typed [`ObdaError`] instead of
/// propagating into the caller (for a service worker, that would mean
/// taking the whole process down). `AssertUnwindSafe` is sound because
/// every structure the request was building is discarded with the
/// request: the shared [`Database`] is only read, and mutable state
/// (budgets, relations under construction) dies with the closure.
pub(crate) fn isolate<T>(
    site: &'static str,
    f: impl FnOnce() -> Result<T, ObdaError>,
) -> Result<T, ObdaError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(error_from_panic(site, payload)),
    }
}

/// Where a request gets its data: both arms evaluate on the same
/// [`Database`] type, so the ladder's hot path is identical either way.
#[derive(Clone, Copy)]
pub enum DataSource<'a> {
    /// A freshly parsed instance: the ladder builds the database itself,
    /// inside the pipeline's isolation boundary (the build exercises the
    /// faultable storage-insert path).
    Parse(&'a DataInstance),
    /// A pre-loaded backend (in-memory or `.obdb` snapshot): the database
    /// is already built and validated, so the ladder evaluates in place.
    Backend(&'a dyn StorageBackend),
}

/// One request to answer an OMQ, the input of [`ObdaSystem::run`]: the
/// query and its data, the strategy to start from, and how to run it.
pub struct AnswerRequest<'a> {
    /// The conjunctive query of the OMQ (over the system's ontology).
    pub query: &'a Cq,
    /// Where the data comes from.
    pub data: DataSource<'a>,
    /// The strategy tried first.
    pub strategy: Strategy,
    /// Whether a failed `strategy` degrades down its
    /// [`Strategy::fallback_ladder`]; `false` is a ladder of one rung.
    pub fallback: bool,
    /// The resource budget of the whole request, every rung included.
    pub spec: BudgetSpec,
    /// The evaluation engine's configuration.
    pub engine: EngineConfig,
    /// How transient faults are retried before a rung is given up.
    pub retry: RetryPolicy,
    /// Where spans and metrics go.
    pub telem: Telemetry<'a>,
}

impl<'a> AnswerRequest<'a> {
    /// A request for `strategy` alone: no fallback, no retries, no budget,
    /// the unpruned engine and no telemetry. Override fields with
    /// struct-update syntax.
    pub fn new(query: &'a Cq, data: DataSource<'a>, strategy: Strategy) -> Self {
        AnswerRequest {
            query,
            data,
            strategy,
            fallback: false,
            spec: BudgetSpec::unlimited(),
            engine: EngineConfig::unpruned(),
            retry: RetryPolicy::none(),
            telem: Telemetry::disabled(),
        }
    }
}

/// Exports a backend's resident footprint as the `store_resident_bytes`
/// gauge after an evaluation. For a lazily hydrated snapshot this is the
/// data and index bytes the run actually faulted in — cumulative per
/// backend, so repeated queries show the working set growing towards (at
/// most) the file size. Backends without the notion (in-memory) export
/// nothing.
fn export_resident_bytes(backend: &dyn StorageBackend, telem: Telemetry<'_>) {
    if let (Some(metrics), Some(bytes)) = (telem.metrics, backend.resident_bytes()) {
        metrics.gauge("store_resident_bytes").set(bytes as i64);
    }
}

/// Hydrates the EDB relations `program` mentions — a request's pruned
/// program — before anything plans or evaluates over `db`, under a
/// `hydrate` span. A corrupt snapshot segment surfaces here as
/// [`ObdaError::Store`]; already-resident relations cost nothing.
pub(crate) fn hydrate_program(
    program: &Program,
    db: &Database,
    telem: Telemetry<'_>,
) -> Result<(), ObdaError> {
    let span = telem.span("hydrate");
    match db.hydrate(program.pred_ids().map(|p| program.pred(p).kind)) {
        Ok((relations, columns)) => {
            span.attr("relations", relations);
            span.attr("columns", columns);
            span.end();
            Ok(())
        }
        Err(e) => {
            let e = ObdaError::from(e);
            span.error(&e.to_string());
            Err(e)
        }
    }
}

/// Evaluates `rewriting` over `db` with the engine configured by `cfg`,
/// hydrating the EDB relations of the program it evaluates (the pruned
/// one under `cfg.prune`) first, before the engine plans.
fn evaluate_hydrated(
    rewriting: &NdlQuery,
    db: &Database,
    budget: &mut Budget,
    cfg: &EngineConfig,
    telem: Telemetry<'_>,
) -> Result<EvalResult, ObdaError> {
    if cfg.prune {
        let pruned = prune_traced(rewriting, telem);
        hydrate_program(&pruned.query.program, db, telem)?;
        Ok(evaluate_pruned_planned_on_traced(&pruned, db, budget, cfg, None, telem)?)
    } else {
        hydrate_program(&rewriting.program, db, telem)?;
        Ok(evaluate_engine_on_traced(rewriting, db, budget, cfg, telem)?)
    }
}

/// Deterministic 64-bit mix (splitmix64 finaliser) driving the retry
/// backoff jitter — no global RNG, so a seeded run backs off identically
/// every time.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Retry policy for transient faults, on the fallback ladder and on the
/// service's prepared path: an attempt that fails with
/// [`ObdaError::Transient`] is retried up to `max_retries` times with
/// decorrelated-jitter backoff (each sleep drawn uniformly from
/// `[base_backoff, 3 × previous]`, capped at `max_backoff` and at the
/// remaining shared deadline) before the request gives up, or the ladder
/// degrades to the next strategy. Budget trips, refusals and panics are
/// never retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per strategy beyond the first try.
    pub max_retries: u32,
    /// Lower bound (and first sleep) of the backoff range.
    pub base_backoff: Duration,
    /// Upper cap on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            seed: 0x0bda_5eed,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (fail straight down the ladder).
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
    }

    /// A default policy with the given retry count.
    pub fn with_retries(max_retries: u32) -> Self {
        RetryPolicy { max_retries, ..RetryPolicy::default() }
    }

    /// The `attempt_index`-th backoff sleep given the previous one:
    /// deterministic decorrelated jitter in `[base, min(cap, 3·prev)]`.
    fn next_backoff(&self, attempt_index: u64, prev: Duration) -> Duration {
        let cap = self.max_backoff.as_nanos() as u64;
        let lo = (self.base_backoff.as_nanos() as u64).min(cap);
        let hi = (prev.as_nanos() as u64).saturating_mul(3).clamp(lo, cap);
        if hi <= lo {
            return Duration::from_nanos(lo);
        }
        let r = splitmix64(self.seed ^ attempt_index.wrapping_mul(0x9e3779b97f4a7c15));
        Duration::from_nanos(lo + r % (hi - lo + 1))
    }

    /// Advances `backoff` to the `attempt_index`-th jittered sleep and
    /// returns the pause to take before the retry: that sleep, cut short
    /// at `deadline` so a retry never starts past the request's deadline.
    pub(crate) fn pause(
        &self,
        attempt_index: u64,
        backoff: &mut Duration,
        deadline: Option<Instant>,
    ) -> Duration {
        *backoff = self.next_backoff(attempt_index, *backoff);
        deadline.map_or(*backoff, |d| (*backoff).min(d.saturating_duration_since(Instant::now())))
    }
}

/// The rewriting strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Linear NDL (Section 3.3) — `OMQ(d, 1, ℓ)`, NL.
    Lin,
    /// Log-depth NDL (Section 3.2) — `OMQ(d, t, ∞)`, LOGCFL.
    Log,
    /// Tree-witness NDL (Section 3.4) — `OMQ(∞, 1, ℓ)`, LOGCFL.
    Tw,
    /// `Tw` followed by the inlining pass of Appendix D.4.
    TwStar,
    /// Raw PerfectRef-style UCQ baseline (worst-case UCQ behaviour).
    Ucq,
    /// Tree-witness UCQ over complete instances (stands in for the
    /// optimised UCQ engines Rapid and Clipper).
    TwUcq,
    /// Tree-witness UCQ over views (stands in for Presto).
    PrestoLike,
    /// Cost-guided choice among the optimal strategies (Section 6).
    Adaptive,
}

impl Strategy {
    /// All strategies, in experiment-table order.
    pub const ALL: [Strategy; 8] = [
        Strategy::Ucq,
        Strategy::TwUcq,
        Strategy::PrestoLike,
        Strategy::Lin,
        Strategy::Log,
        Strategy::Tw,
        Strategy::TwStar,
        Strategy::Adaptive,
    ];

    /// Whether the strategy's output is already a rewriting over arbitrary
    /// data instances (the baselines rewrite atoms internally).
    pub fn produces_arbitrary(self) -> bool {
        matches!(self, Strategy::Ucq | Strategy::PrestoLike)
    }

    /// Parses a strategy name as accepted by the CLI (`--strategy`) and
    /// the HTTP server (`"strategy"` request field): case-insensitive,
    /// with the aliases `tw*` (Tw*), `perfectref` (UCQ) and `prestolike`
    /// (Presto-like). Returns `None` for unknown names.
    pub fn parse(name: &str) -> Option<Strategy> {
        Some(match name.to_ascii_lowercase().as_str() {
            "lin" => Strategy::Lin,
            "log" => Strategy::Log,
            "tw" => Strategy::Tw,
            "twstar" | "tw*" => Strategy::TwStar,
            "ucq" | "perfectref" => Strategy::Ucq,
            "twucq" => Strategy::TwUcq,
            "presto" | "prestolike" => Strategy::PrestoLike,
            "adaptive" => Strategy::Adaptive,
            _ => return None,
        })
    }

    /// The degradation ladder starting from this strategy: the strategy
    /// itself, then the polynomial strategies in decreasing generality
    /// (`Tw`, `Tw*`, `Log`, `Lin`), deduplicated. The exponential baselines
    /// never appear as fallbacks — they are what the ladder degrades *away*
    /// from.
    pub fn fallback_ladder(self) -> Vec<Strategy> {
        let mut ladder = vec![self];
        for s in [Strategy::Tw, Strategy::TwStar, Strategy::Log, Strategy::Lin] {
            if !ladder.contains(&s) {
                ladder.push(s);
            }
        }
        ladder
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Strategy::Lin => "Lin",
            Strategy::Log => "Log",
            Strategy::Tw => "Tw",
            Strategy::TwStar => "Tw*",
            Strategy::Ucq => "UCQ",
            Strategy::TwUcq => "TwUCQ",
            Strategy::PrestoLike => "Presto-like",
            Strategy::Adaptive => "Adaptive",
        };
        write!(f, "{name}")
    }
}

/// Errors of the end-to-end pipeline.
#[derive(Debug)]
pub enum ObdaError {
    /// Parsing failed.
    Parse(ParseError),
    /// Rewriting failed or was refused.
    Rewrite(RewriteError),
    /// Evaluation failed.
    Eval(EvalError),
    /// The chase oracle was interrupted by a resource budget.
    Chase(ChaseError),
    /// The data could not be read: a snapshot segment found corrupt when
    /// the request hydrated it (a checksum mismatch, an out-of-dictionary
    /// constant, unsorted rows). The data is at fault, not the strategy,
    /// so the fallback ladder stops and no circuit breaker records it.
    Store(StoreError),
    /// A transient fault interrupted the request; retrying the same
    /// request may succeed. Raised by `obda-faults` injection sites (and
    /// reserved for recoverable substrate hiccups).
    Transient {
        /// The injection site (or substrate component) that faulted.
        site: String,
    },
    /// A panic escaped a pipeline stage and was caught at an isolation
    /// boundary: a bug, not a resource problem. Never retried.
    Internal {
        /// The isolation boundary that caught the panic.
        site: String,
        /// The panic message, when it was a string payload.
        payload: String,
    },
    /// The [`crate::service::QueryService`] refused admission: capacity
    /// and wait queue are full. Shed load and retry later.
    Overloaded {
        /// Requests being answered when admission was refused.
        active: usize,
        /// Requests already waiting when admission was refused.
        queued: usize,
    },
    /// A per-tenant quota refused the request (token bucket drained or
    /// tenant concurrency cap reached) while the service as a whole still
    /// has capacity. Retry after the indicated pause.
    QuotaExceeded {
        /// The tenant whose quota was exhausted.
        tenant: String,
        /// How long until the token bucket refills enough to admit one
        /// request (zero when a concurrency cap, not the bucket, refused).
        retry_after: std::time::Duration,
    },
    /// Cost-based admission refused the request *before* evaluation: the
    /// planner's calibrated estimate of the work exceeds what the
    /// remaining deadline could absorb, so running it would only burn a
    /// slot into a guaranteed timeout. Retry with a longer deadline, a
    /// cheaper query, or after load subsides.
    CostRejected {
        /// The planner's total cost estimate (cost-model units).
        estimated_cost: f64,
        /// The estimated wall-clock the work would take.
        estimated: std::time::Duration,
        /// The deadline allowance that was left at admission time.
        remaining: std::time::Duration,
    },
    /// A circuit breaker is open for `scope` (a strategy or tenant whose
    /// recent attempts kept failing on budget or panics), so the request
    /// was refused without burning any budget. Retry after the cooldown.
    BreakerOpen {
        /// What the breaker guards: a strategy name or tenant.
        scope: String,
        /// Time left until the breaker half-opens for a probe.
        retry_after: std::time::Duration,
    },
}

impl ObdaError {
    /// Whether this error reports resource-budget exhaustion (as opposed to
    /// malformed input, a structural refusal, or an internal invariant).
    pub fn is_budget(&self) -> bool {
        match self {
            ObdaError::Parse(_) => false,
            ObdaError::Rewrite(e) => e.is_budget(),
            ObdaError::Eval(e) => {
                matches!(e, EvalError::Timeout(_) | EvalError::TupleLimit(_))
            }
            ObdaError::Chase(_) => true,
            ObdaError::Store(e) => matches!(e, StoreError::Budget(_)),
            ObdaError::Transient { .. } => false,
            ObdaError::Internal { .. } => false,
            ObdaError::Overloaded { .. } => false,
            ObdaError::QuotaExceeded { .. } => false,
            // Admission refusals are load-control verdicts, not "the
            // instance is too big for the budget".
            ObdaError::CostRejected { .. } => false,
            ObdaError::BreakerOpen { .. } => false,
        }
    }

    /// Whether retrying the same request may succeed: transient faults
    /// are retryable, everything else (budget trips, refusals, panics,
    /// overload) is not.
    pub fn is_transient(&self) -> bool {
        matches!(self, ObdaError::Transient { .. })
    }
}

impl fmt::Display for ObdaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObdaError::Parse(e) => write!(f, "{e}"),
            ObdaError::Rewrite(e) => write!(f, "{e}"),
            ObdaError::Eval(e) => write!(f, "{e}"),
            ObdaError::Chase(e) => write!(f, "{e}"),
            ObdaError::Store(e) => write!(f, "{e}"),
            ObdaError::Transient { site } => write!(f, "transient fault at {site}"),
            ObdaError::Internal { site, payload } => {
                write!(f, "internal error: panic caught at {site}: {payload}")
            }
            ObdaError::Overloaded { active, queued } => {
                write!(f, "overloaded: {active} active and {queued} queued requests")
            }
            ObdaError::QuotaExceeded { tenant, retry_after } => {
                write!(
                    f,
                    "quota exceeded for tenant '{tenant}': retry after {:.3}s",
                    retry_after.as_secs_f64()
                )
            }
            ObdaError::CostRejected { estimated_cost, estimated, remaining } => {
                write!(
                    f,
                    "cost admission refused: estimated {:.3}s of work (cost {estimated_cost:.0}) \
                     against {:.3}s of remaining deadline",
                    estimated.as_secs_f64(),
                    remaining.as_secs_f64()
                )
            }
            ObdaError::BreakerOpen { scope, retry_after } => {
                write!(
                    f,
                    "circuit breaker open for {scope}: retry after {:.3}s",
                    retry_after.as_secs_f64()
                )
            }
        }
    }
}

impl std::error::Error for ObdaError {}

impl From<ParseError> for ObdaError {
    fn from(e: ParseError) -> Self {
        ObdaError::Parse(e)
    }
}
impl From<RewriteError> for ObdaError {
    fn from(e: RewriteError) -> Self {
        ObdaError::Rewrite(e)
    }
}
impl From<EvalError> for ObdaError {
    fn from(e: EvalError) -> Self {
        // Lift the evaluator's fault/panic classes into the pipeline's
        // own, so callers see one taxonomy regardless of which isolation
        // boundary (engine worker or pipeline entry) caught the unwind.
        match e {
            EvalError::Transient(site) => ObdaError::Transient { site: site.to_owned() },
            EvalError::Internal { site, payload } => ObdaError::Internal { site, payload },
            other => ObdaError::Eval(other),
        }
    }
}
impl From<ChaseError> for ObdaError {
    fn from(e: ChaseError) -> Self {
        ObdaError::Chase(e)
    }
}
impl From<StoreError> for ObdaError {
    fn from(e: StoreError) -> Self {
        ObdaError::Store(e)
    }
}
impl From<HydrateError> for ObdaError {
    fn from(e: HydrateError) -> Self {
        ObdaError::Store(StoreError::from(e))
    }
}

/// One strategy attempt inside [`ObdaSystem::run`].
#[derive(Debug)]
pub struct Attempt {
    /// The strategy tried.
    pub strategy: Strategy,
    /// Which try of the strategy this was: `0` for the first, `n` for
    /// the `n`-th transient-fault retry.
    pub retry: u32,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// Clauses of the rewriting (final on success, partial on a budgeted
    /// rewrite failure, absent otherwise).
    pub clauses: Option<usize>,
    /// Wall-clock time spent on this attempt.
    pub duration: Duration,
}

/// The outcome of one fallback-ladder attempt.
#[derive(Debug)]
pub enum AttemptOutcome {
    /// The strategy produced answers within its budget.
    Success(EvalResult),
    /// Rewriting failed (refusal or budget trip).
    RewriteFailed(RewriteError),
    /// Rewriting succeeded but evaluation failed.
    EvalFailed(EvalError),
    /// Rewriting succeeded but the data its program joins could not be
    /// hydrated (a corrupt snapshot segment). Not the strategy's fault:
    /// the ladder stops here.
    StoreFailed(StoreError),
    /// A transient fault interrupted the attempt; the [`RetryPolicy`]
    /// decides whether it is retried before the ladder degrades.
    Transient {
        /// The injection site that faulted.
        site: String,
    },
    /// A panic was caught at an isolation boundary during the attempt.
    /// Never retried — it indicates a bug, not a resource problem.
    Panicked {
        /// The isolation boundary that caught the panic.
        site: String,
        /// The panic message, when it was a string payload.
        payload: String,
    },
}

/// A structured account of a fallback run: every strategy attempted, in
/// order, and which one (if any) won.
#[derive(Debug)]
pub struct PipelineReport {
    /// The attempts, in ladder order.
    pub attempts: Vec<Attempt>,
    /// Index into `attempts` of the successful one, if any.
    pub winner: Option<usize>,
}

impl PipelineReport {
    /// The winning attempt's evaluation result, if any strategy succeeded.
    pub fn result(&self) -> Option<&EvalResult> {
        let w = self.winner?;
        match &self.attempts[w].outcome {
            AttemptOutcome::Success(res) => Some(res),
            _ => None,
        }
    }

    /// Consumes the report, returning the winning attempt's evaluation
    /// result, or else the [`PipelineReport::final_error`]. A report with
    /// no attempt at all (the deadline passed before the first rung of a
    /// degrading ladder) is a wall-clock trip with empty statistics.
    pub fn into_result(mut self) -> Result<EvalResult, ObdaError> {
        if let Some(w) = self.winner {
            if let AttemptOutcome::Success(res) = self.attempts.swap_remove(w).outcome {
                return Ok(res);
            }
        }
        Err(self.final_error().unwrap_or(ObdaError::Eval(EvalError::Timeout(EvalStats::default()))))
    }

    /// The winning strategy, if any.
    pub fn winning_strategy(&self) -> Option<Strategy> {
        Some(self.attempts[self.winner?].strategy)
    }

    /// Whether every attempt failed on a resource budget (no structural
    /// refusal, no fault, no panic and no success) — the "the problem
    /// instance is too big for the budget" verdict.
    pub fn all_exhausted(&self) -> bool {
        self.winner.is_none()
            && self.attempts.iter().all(|a| match &a.outcome {
                AttemptOutcome::Success(_) => false,
                AttemptOutcome::RewriteFailed(e) => e.is_budget(),
                AttemptOutcome::EvalFailed(e) => {
                    matches!(e, EvalError::Timeout(_) | EvalError::TupleLimit(_))
                }
                AttemptOutcome::StoreFailed(_)
                | AttemptOutcome::Transient { .. }
                | AttemptOutcome::Panicked { .. } => false,
            })
    }

    /// Number of transient-fault retries across the whole run (attempts
    /// with `retry > 0`).
    pub fn num_retries(&self) -> usize {
        self.attempts.iter().filter(|a| a.retry > 0).count()
    }

    /// The last attempt's error as an [`ObdaError`], when no strategy won.
    pub fn final_error(&self) -> Option<ObdaError> {
        if self.winner.is_some() {
            return None;
        }
        match &self.attempts.last()?.outcome {
            AttemptOutcome::Success(_) => None,
            AttemptOutcome::RewriteFailed(e) => Some(ObdaError::Rewrite(e.clone())),
            AttemptOutcome::EvalFailed(e) => Some(ObdaError::Eval(e.clone())),
            AttemptOutcome::StoreFailed(e) => Some(ObdaError::Store(e.clone())),
            AttemptOutcome::Transient { site } => Some(ObdaError::Transient { site: site.clone() }),
            AttemptOutcome::Panicked { site, payload } => {
                Some(ObdaError::Internal { site: site.clone(), payload: payload.clone() })
            }
        }
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.attempts.iter().enumerate() {
            let verdict = match &a.outcome {
                AttemptOutcome::Success(res) => {
                    format!("ok ({} answers)", res.answers.len())
                }
                AttemptOutcome::RewriteFailed(e) => format!("rewrite failed: {e}"),
                AttemptOutcome::EvalFailed(e) => format!("eval failed: {e}"),
                AttemptOutcome::StoreFailed(e) => format!("store failed: {e}"),
                AttemptOutcome::Transient { site } => format!("transient fault at {site}"),
                AttemptOutcome::Panicked { site, payload } => {
                    format!("panicked at {site}: {payload}")
                }
            };
            let marker = if Some(i) == self.winner { "*" } else { " " };
            let retry = if a.retry > 0 { format!(" (retry {})", a.retry) } else { String::new() };
            writeln!(
                f,
                "{marker} {}{retry}: {verdict} [{:.1} ms]",
                a.strategy,
                a.duration.as_secs_f64() * 1e3
            )?;
        }
        Ok(())
    }
}

/// An OBDA system: an ontology with its saturation, ready to rewrite and
/// answer ontology-mediated queries.
pub struct ObdaSystem {
    ontology: Ontology,
    taxonomy: Taxonomy,
    /// Tree-witness generators by candidate shape, shared by every
    /// rewriting over `ontology` (DESIGN §16).
    tree_witness_memo: TreeWitnessMemo,
}

impl ObdaSystem {
    /// Builds a system from a normalised ontology.
    pub fn new(ontology: Ontology) -> Self {
        let taxonomy = ontology.taxonomy();
        ObdaSystem { ontology, taxonomy, tree_witness_memo: TreeWitnessMemo::new() }
    }

    /// Parses the ontology from the textual syntax.
    pub fn from_text(text: &str) -> Result<Self, ObdaError> {
        Self::from_text_traced(text, Telemetry::disabled())
    }

    /// Like [`ObdaSystem::from_text`], recording `parse:ontology` and
    /// `saturate` spans through `telem`.
    pub fn from_text_traced(text: &str, telem: Telemetry<'_>) -> Result<Self, ObdaError> {
        let span = telem.span("parse:ontology");
        let ontology = match obda_owlql::parse_ontology(text) {
            Ok(o) => o,
            Err(e) => {
                span.error(&e.to_string());
                return Err(e.into());
            }
        };
        span.attr("axioms", ontology.num_axioms() as u64);
        span.end();
        let sat = telem.span("saturate");
        let taxonomy = ontology.taxonomy();
        sat.end();
        Ok(ObdaSystem { ontology, taxonomy, tree_witness_memo: TreeWitnessMemo::new() })
    }

    /// The ontology.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The saturated taxonomy.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// The tree-witness memo every rewriting of this system shares.
    pub fn tree_witness_memo(&self) -> &TreeWitnessMemo {
        &self.tree_witness_memo
    }

    /// The OMQ `(T, query)`, enumerating tree witnesses through the
    /// system's memo.
    fn omq<'a>(&'a self, query: &'a Cq) -> Omq<'a> {
        Omq::new(&self.ontology, query).with_tree_witness_memo(&self.tree_witness_memo)
    }

    /// Parses a CQ against the ontology's vocabulary.
    pub fn parse_query(&self, text: &str) -> Result<Cq, ObdaError> {
        Ok(obda_cq::parse_cq(text, &self.ontology)?)
    }

    /// Parses a data instance against the ontology's vocabulary.
    pub fn parse_data(&self, text: &str) -> Result<DataInstance, ObdaError> {
        Ok(obda_owlql::parse_data(text, &self.ontology)?)
    }

    /// Classifies the OMQ into its Figure 1 cell.
    pub fn classify(&self, query: &Cq) -> OmqClassification {
        classify(&self.ontology, query)
    }

    /// Produces an NDL-rewriting over **complete** data instances.
    pub fn rewrite_complete(&self, query: &Cq, strategy: Strategy) -> Result<NdlQuery, ObdaError> {
        self.rewrite_complete_budgeted(query, strategy, &mut Budget::unlimited())
    }

    /// Budgeted [`ObdaSystem::rewrite_complete`]: the chosen rewriter ticks
    /// and charges the shared [`Budget`] as it works.
    fn rewrite_complete_budgeted(
        &self,
        query: &Cq,
        strategy: Strategy,
        budget: &mut Budget,
    ) -> Result<NdlQuery, ObdaError> {
        // Fail fast when the deadline has already passed, instead of letting
        // a small rewriting slip through before the first amortised check.
        budget.check_time().map_err(|e| RewriteError::from_budget(e, 0, 0))?;
        let omq = self.omq(query);
        let rewritten = match strategy {
            Strategy::Lin => LinRewriter::default().rewrite_budgeted(&omq, budget)?,
            Strategy::Log => LogRewriter::default().rewrite_budgeted(&omq, budget)?,
            Strategy::Tw => TwRewriter::default().rewrite_budgeted(&omq, budget)?,
            Strategy::TwStar => {
                let tw = TwRewriter::default().rewrite_budgeted(&omq, budget)?;
                inline_single_definitions(&tw, 2)
            }
            Strategy::Ucq => UcqRewriter::default().rewrite_budgeted(&omq, budget)?,
            Strategy::TwUcq => TwUcqRewriter::default().rewrite_budgeted(&omq, budget)?,
            Strategy::PrestoLike => PrestoLikeRewriter::default().rewrite_budgeted(&omq, budget)?,
            Strategy::Adaptive => AdaptiveRewriter::default().rewrite_budgeted(&omq, budget)?,
        };
        Ok(rewritten)
    }

    /// Produces an NDL-rewriting over **arbitrary** data instances,
    /// including the inconsistency clauses for `⊥`-axioms.
    pub fn rewrite(&self, query: &Cq, strategy: Strategy) -> Result<NdlQuery, ObdaError> {
        self.rewrite_budgeted(query, strategy, &mut Budget::unlimited())
    }

    /// Budgeted [`ObdaSystem::rewrite`]: the rewriter and the
    /// `*`-transformation's clause growth both draw on the budget.
    pub fn rewrite_budgeted(
        &self,
        query: &Cq,
        strategy: Strategy,
        budget: &mut Budget,
    ) -> Result<NdlQuery, ObdaError> {
        let omq = self.omq(query);
        let lift = |mut complete: NdlQuery, budget: &mut Budget| {
            if self.ontology.has_negative_axioms() {
                add_inconsistency_clauses(&mut complete, &self.taxonomy, &omq);
            } else if strategy.produces_arbitrary() {
                return Ok(complete);
            }
            star_lift(&complete, &self.taxonomy, self.ontology.vocab(), budget)
        };
        if strategy == Strategy::Adaptive {
            // Adaptive lifts its candidates cheapest first and keeps the
            // first whose lifted program fits the budget.
            budget.check_time().map_err(|e| RewriteError::from_budget(e, 0, 0))?;
            return Ok(AdaptiveRewriter::default().rewrite_then_budgeted(&omq, budget, lift)?.0);
        }
        let complete = self.rewrite_complete_budgeted(query, strategy, budget)?;
        Ok(lift(complete, budget)?)
    }

    /// Answers the OMQ over a data instance by rewriting and evaluating:
    /// `strategy` alone, unbudgeted, on the unpruned engine.
    pub fn answer(
        &self,
        query: &Cq,
        data: &DataInstance,
        strategy: Strategy,
    ) -> Result<EvalResult, ObdaError> {
        self.run(&AnswerRequest::new(query, DataSource::Parse(data), strategy)).into_result()
    }

    /// Answers the OMQ with `strategy` alone under a unified resource
    /// budget covering *both* the rewriting and the evaluation stage,
    /// evaluated by the engine configured by `cfg` (relevance pruning and
    /// worker threads). A trip in either stage surfaces as a typed
    /// [`ObdaError`] carrying partial statistics; with several workers the
    /// budget is shared across all of them, so a deadline or cap trips the
    /// whole pool with one typed error.
    pub fn answer_with_budget_engine(
        &self,
        query: &Cq,
        data: &DataInstance,
        strategy: Strategy,
        spec: &BudgetSpec,
        cfg: &EngineConfig,
    ) -> Result<EvalResult, ObdaError> {
        self.run(&AnswerRequest {
            spec: *spec,
            engine: cfg.clone(),
            ..AnswerRequest::new(query, DataSource::Parse(data), strategy)
        })
        .into_result()
    }

    /// Answers one [`AnswerRequest`]: gets the data (building the database
    /// of a parsed instance), then walks the request's ladder —
    /// `req.strategy` alone, or with `req.fallback` the whole
    /// [`Strategy::fallback_ladder`] — until a rung answers. Each rung
    /// rewrites and evaluates behind its own panic-isolation boundary, and
    /// a transient fault is retried per `req.retry` before the ladder
    /// degrades. Every try gets fresh counters but the *same* absolute
    /// wall-clock deadline, so the whole run respects the spec's timeout.
    /// Always terminates;
    /// the report lists every attempt (retries included) and the winner,
    /// if any. With telemetry on, each try is an `attempt` span (strategy
    /// and retry number attached, error-tagged on failure) whose children
    /// are the stage spans of rewriting and evaluation.
    pub fn run(&self, req: &AnswerRequest<'_>) -> PipelineReport {
        let telem = req.telem;
        let master = req.spec.start();
        // Loading parsed data into the shared store is itself a faultable
        // step (it exercises the storage insert path); an unwind here
        // becomes a single failed pseudo-attempt instead of escaping the
        // pipeline. A pre-loaded backend already paid (and traced) its
        // load at open time, so that arm only records where the data
        // came from.
        let load_start = Instant::now();
        let load_span = telem.span("load_data");
        let built;
        let db: &Database = match req.data {
            DataSource::Backend(backend) => {
                load_span.attr_str("backend", backend.kind());
                load_span.end();
                backend.database()
            }
            DataSource::Parse(data) => {
                load_span.attr_str("backend", "memory");
                match isolate("pipeline::load_data", || Ok(Database::new(data))) {
                    Ok(db) => {
                        load_span.end();
                        built = db;
                        &built
                    }
                    Err(e) => {
                        load_span.error(&e.to_string());
                        let outcome = match e {
                            ObdaError::Transient { site } => AttemptOutcome::Transient { site },
                            ObdaError::Internal { site, payload } => {
                                AttemptOutcome::Panicked { site, payload }
                            }
                            other => AttemptOutcome::Panicked {
                                site: "pipeline::load_data".to_owned(),
                                payload: other.to_string(),
                            },
                        };
                        let attempt = Attempt {
                            strategy: req.strategy,
                            retry: 0,
                            outcome,
                            clauses: None,
                            duration: load_start.elapsed(),
                        };
                        return PipelineReport { attempts: vec![attempt], winner: None };
                    }
                }
            }
        };
        let ladder = if req.fallback { req.strategy.fallback_ladder() } else { vec![req.strategy] };
        let mut attempts: Vec<Attempt> = Vec::new();
        let mut winner = None;
        'ladder: for strategy in ladder {
            let mut retry_no = 0u32;
            let mut backoff = req.retry.base_backoff;
            loop {
                let mut budget = master.renew();
                // Past the global deadline a degrading ladder stops trying.
                // A one-rung ladder still runs its rung once, so a passed
                // deadline is its rewrite's typed trip, not an empty report.
                if (req.fallback || retry_no > 0) && budget.check_time().is_err() {
                    break 'ladder;
                }
                let start = Instant::now();
                let attempt_span = telem.span("attempt");
                attempt_span.attr_str("strategy", &strategy.to_string());
                attempt_span.attr("retry", u64::from(retry_no));
                let (outcome, clauses) = self.run_attempt(
                    req.query,
                    db,
                    strategy,
                    &mut budget,
                    &req.engine,
                    telem.under(&attempt_span),
                );
                let success = matches!(outcome, AttemptOutcome::Success(_));
                let transient = matches!(outcome, AttemptOutcome::Transient { .. });
                let store_failed = matches!(outcome, AttemptOutcome::StoreFailed(_));
                match &outcome {
                    AttemptOutcome::Success(_) => {}
                    AttemptOutcome::RewriteFailed(e) => {
                        attempt_span.error(&format!("rewrite failed: {e}"));
                    }
                    AttemptOutcome::EvalFailed(e) => {
                        attempt_span.error(&format!("eval failed: {e}"));
                    }
                    AttemptOutcome::StoreFailed(e) => {
                        attempt_span.error(&format!("store failed: {e}"));
                    }
                    AttemptOutcome::Transient { site } => {
                        attempt_span.error(&format!("transient fault at {site}"));
                    }
                    AttemptOutcome::Panicked { site, payload } => {
                        attempt_span.error(&format!("panicked at {site}: {payload}"));
                    }
                }
                attempt_span.end();
                attempts.push(Attempt {
                    strategy,
                    retry: retry_no,
                    outcome,
                    clauses,
                    duration: start.elapsed(),
                });
                if success {
                    winner = Some(attempts.len() - 1);
                    break 'ladder;
                }
                if store_failed {
                    // The data is at fault, not the strategy: degrading
                    // would only re-read it.
                    break 'ladder;
                }
                if !(transient && retry_no < req.retry.max_retries) {
                    break; // not retryable (or retries spent): degrade
                }
                retry_no += 1;
                let pause = req.retry.pause(attempts.len() as u64, &mut backoff, master.deadline());
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
        }
        if let DataSource::Backend(backend) = req.data {
            export_resident_bytes(backend, telem);
        }
        PipelineReport { attempts, winner }
    }

    /// One isolated try of one strategy: rewrite + evaluate behind a
    /// `catch_unwind` boundary, classified into an [`AttemptOutcome`].
    fn run_attempt(
        &self,
        query: &Cq,
        db: &Database,
        strategy: Strategy,
        budget: &mut Budget,
        engine: &EngineConfig,
        telem: Telemetry<'_>,
    ) -> (AttemptOutcome, Option<usize>) {
        let mut clauses = None;
        let result = {
            let clauses = &mut clauses;
            isolate("pipeline::attempt", || {
                let span = telem.span("rewrite");
                let rewriting = match self.rewrite_budgeted(query, strategy, budget) {
                    Ok(r) => {
                        span.attr("clauses", r.program.num_clauses() as u64);
                        span.end();
                        r
                    }
                    Err(e) => {
                        span.error(&e.to_string());
                        return Err(e);
                    }
                };
                *clauses = Some(rewriting.program.num_clauses());
                evaluate_hydrated(&rewriting, db, budget, engine, telem)
            })
        };
        let outcome = match result {
            Ok(res) => AttemptOutcome::Success(res),
            Err(ObdaError::Rewrite(re)) => {
                if let RewriteError::BudgetExceeded { clauses: c, .. } = &re {
                    clauses = Some(*c);
                }
                AttemptOutcome::RewriteFailed(re)
            }
            Err(ObdaError::Eval(e)) => AttemptOutcome::EvalFailed(e),
            Err(ObdaError::Store(e)) => AttemptOutcome::StoreFailed(e),
            Err(ObdaError::Transient { site }) => AttemptOutcome::Transient { site },
            Err(ObdaError::Internal { site, payload }) => {
                AttemptOutcome::Panicked { site, payload }
            }
            // Parse/Chase/Overloaded cannot arise from rewrite+evaluate;
            // represent them as a zero-size refusal to keep the report
            // total, matching the pre-retry behaviour.
            Err(_) => AttemptOutcome::RewriteFailed(RewriteError::TooLarge(0)),
        };
        (outcome, clauses)
    }

    /// Certain answers via the chase oracle (ground truth; slow on large
    /// data).
    pub fn certain_answers(&self, query: &Cq, data: &DataInstance) -> CertainAnswers {
        certain_answers(&self.ontology, query, data)
    }

    /// Budgeted chase oracle: a cyclic ontology or large instance trips the
    /// budget instead of hanging or exhausting memory.
    pub fn certain_answers_budgeted(
        &self,
        query: &Cq,
        data: &DataInstance,
        budget: &mut Budget,
    ) -> Result<CertainAnswers, ObdaError> {
        Ok(certain_answers_budgeted(&self.ontology, query, data, budget)?)
    }

    /// Rewrites once and caches the rewriting for repeated execution over
    /// pre-built [`Database`]s.
    pub fn prepare(&self, query: &Cq, strategy: Strategy) -> Result<PreparedOmq, ObdaError> {
        self.prepare_budgeted(query, strategy, &mut Budget::unlimited())
    }

    /// Budgeted [`ObdaSystem::prepare`]: the rewriting stage draws on the
    /// budget; the prepared query can then be executed with
    /// [`PreparedOmq::execute_engine_traced`] against the same (renewed)
    /// budget.
    pub fn prepare_budgeted(
        &self,
        query: &Cq,
        strategy: Strategy,
        budget: &mut Budget,
    ) -> Result<PreparedOmq, ObdaError> {
        let rewriting = self.rewrite_budgeted(query, strategy, budget)?;
        Ok(PreparedOmq {
            query: query.clone(),
            strategy,
            rewriting,
            pruned: OnceLock::new(),
            plans: Mutex::new(Vec::new()),
            plans_built: AtomicUsize::new(0),
        })
    }
}

/// A rewritten OMQ ready for repeated evaluation: the NDL rewriting,
/// computed once by [`ObdaSystem::prepare`], with its lazily cached
/// pruning and per-database plans, reused across data instances.
#[derive(Debug)]
pub struct PreparedOmq {
    query: Cq,
    strategy: Strategy,
    rewriting: NdlQuery,
    /// Goal-directed pruning of the rewriting, computed lazily on the
    /// first engine execution and then reused across data instances.
    pruned: OnceLock<PrunedQuery>,
    /// Cost-based plans of the *pruned* rewriting keyed by
    /// [`Database::id`]: a plan is a pure function of (program, data), so
    /// it is computed once per database and reused across executions.
    /// Small LRU — prepared queries typically serve a handful of live
    /// databases at a time.
    plans: Mutex<Vec<(u64, Arc<QueryPlan>)>>,
    /// Number of plans actually computed (cache misses), for tests and
    /// the server's `/explain` endpoint.
    plans_built: AtomicUsize,
}

/// How many per-database plans a [`PreparedOmq`] keeps before evicting
/// the least recently used one.
const PLAN_CACHE_CAP: usize = 4;

impl Clone for PreparedOmq {
    /// Clones the cached rewriting and pruning; the per-database plan
    /// cache starts empty (plans are cheap to recompute and keyed by
    /// database identity, which the clone may never see again).
    fn clone(&self) -> Self {
        PreparedOmq {
            query: self.query.clone(),
            strategy: self.strategy,
            rewriting: self.rewriting.clone(),
            pruned: self.pruned.clone(),
            plans: Mutex::new(Vec::new()),
            plans_built: AtomicUsize::new(0),
        }
    }
}

impl PreparedOmq {
    /// The original conjunctive query.
    pub fn query(&self) -> &Cq {
        &self.query
    }

    /// The strategy that produced the rewriting.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The cached NDL rewriting (over arbitrary instances).
    pub fn rewriting(&self) -> &NdlQuery {
        &self.rewriting
    }

    /// Number of clauses of the rewriting.
    pub fn num_clauses(&self) -> usize {
        self.rewriting.program.num_clauses()
    }

    /// The goal-directed pruning of the cached rewriting, computed on
    /// first use and cached for the lifetime of the prepared query.
    pub fn pruned(&self) -> &PrunedQuery {
        self.pruned.get_or_init(|| prune_for_goal(&self.rewriting))
    }

    /// Statistics of the cached pruning pass (forces the pruning).
    pub fn prune_stats(&self) -> PruneStats {
        self.pruned().stats
    }

    /// Hydrates the EDB relations of the program
    /// [`PreparedOmq::execute_engine_traced`] evaluates under `cfg` (the
    /// pruned rewriting when `cfg.prune`, whose relations
    /// [`PreparedOmq::query_plan`] reads too). A request over a lazily
    /// opened snapshot calls this once, before it plans: a corrupt
    /// segment is the typed [`ObdaError::Store`] here, and a slot that
    /// failed stays pending for the next request to verify again.
    pub fn hydrate(
        &self,
        db: &Database,
        cfg: &EngineConfig,
        telem: Telemetry<'_>,
    ) -> Result<(), ObdaError> {
        let program =
            if cfg.prune { &self.pruned().query.program } else { &self.rewriting.program };
        hydrate_program(program, db, telem)
    }

    /// The cost-based join plan of the pruned rewriting for `db`,
    /// computed on first use per database and cached (a small LRU keyed
    /// by [`Database::id`]). Reads the relation statistics of a lazily
    /// opened snapshot, so hydrate first ([`PreparedOmq::hydrate`]).
    pub fn query_plan(&self, db: &Database) -> Arc<QueryPlan> {
        let mut cache = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = cache.iter().position(|(id, _)| *id == db.id()) {
            let entry = cache.remove(pos);
            let plan = Arc::clone(&entry.1);
            cache.push(entry);
            return plan;
        }
        // Planning is a few passes over relation stats — cheap enough to
        // hold the lock, which keeps the built-plan count deterministic.
        let plan = Arc::new(plan_query(&self.pruned().query, db));
        self.plans_built.fetch_add(1, Ordering::Relaxed);
        if cache.len() >= PLAN_CACHE_CAP {
            cache.remove(0);
        }
        cache.push((db.id(), Arc::clone(&plan)));
        plan
    }

    /// Number of cost-based plans this prepared query has computed so
    /// far (i.e. plan-cache misses across all executions).
    pub fn plans_built(&self) -> usize {
        self.plans_built.load(Ordering::Relaxed)
    }

    /// The plan explanation (access paths and estimated cardinalities)
    /// of the pruned rewriting for `db`, built from the cached plan.
    pub fn plan_explanation(&self, db: &Database) -> PlanExplanation {
        explain_plan_with(&self.pruned().query, &self.query_plan(db))
    }

    /// Evaluates the cached rewriting over a pre-built [`Database`] with
    /// the engine configured by `cfg`, drawing on `budget` and recording
    /// engine spans through `telem`. When `cfg.prune` is set the pruning
    /// pass runs once per prepared query (cached, so no `prune` span
    /// appears on this path) and the cost-based plan once per database;
    /// per-predicate statistics are reported against the *original*
    /// rewriting's predicate ids either way.
    pub fn execute_engine_traced(
        &self,
        db: &Database,
        budget: &mut Budget,
        cfg: &EngineConfig,
        telem: Telemetry<'_>,
    ) -> Result<EvalResult, EvalError> {
        if cfg.prune {
            let plan = cfg.plan.then(|| self.query_plan(db));
            evaluate_pruned_planned_on_traced(
                self.pruned(),
                db,
                budget,
                cfg,
                plan.as_deref(),
                telem,
            )
        } else {
            evaluate_engine_on_traced(&self.rewriting, db, budget, cfg, telem)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Executes `prepared` over `db` under `cfg`, unbudgeted and untraced.
    fn run(prepared: &PreparedOmq, db: &Database, cfg: &EngineConfig) -> EvalResult {
        prepared
            .execute_engine_traced(db, &mut Budget::unlimited(), cfg, Telemetry::disabled())
            .unwrap()
    }

    fn system() -> ObdaSystem {
        ObdaSystem::from_text(
            "P SubPropertyOf S\n\
             P SubPropertyOf R-\n",
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_all_strategies_agree() {
        let sys = system();
        let q = sys.parse_query("q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)").unwrap();
        let d = sys.parse_data("P(w, a)\nR(a, b)\nR(b, c)\nS(c, d)\nR(d, e)\n").unwrap();
        let oracle = sys.certain_answers(&q, &d).tuples();
        for strategy in Strategy::ALL {
            let res = sys.answer(&q, &d, strategy).unwrap();
            assert_eq!(res.answers, oracle, "strategy {strategy}");
        }
        assert!(!oracle.is_empty());
    }

    /// Preparing an alpha-renamed query a second time on the same system
    /// answers every tree-witness candidate from the system's memo: no
    /// candidate misses, so no homomorphism search runs and no generator
    /// model is built, and the rewriting is the same.
    #[test]
    fn alpha_renamed_prepare_is_answered_by_the_tree_witness_memo() {
        let sys = system();
        let memo = sys.tree_witness_memo();
        let text = "q(x0, x5) :- S(x0, x1), R(x1, x2), R(x2, x3), S(x3, x4), R(x4, x5)";
        let first = sys.prepare(&sys.parse_query(text).unwrap(), Strategy::Adaptive).unwrap();
        let (hits, misses, entries) = (memo.hits(), memo.misses(), memo.len());
        assert!(misses > 0 && entries > 0);
        let renamed = sys.parse_query(&text.replace('x', "fresh_")).unwrap();
        let second = sys.prepare(&renamed, Strategy::Adaptive).unwrap();
        assert_eq!(memo.misses(), misses, "a renamed query must not search");
        assert!(memo.hits() > hits);
        assert_eq!(memo.len(), entries);
        assert_eq!(
            second.rewriting().program.clauses(),
            first.rewriting().program.clauses(),
            "same rewriting"
        );
    }

    #[test]
    fn inconsistency_returns_all_tuples() {
        let sys = ObdaSystem::from_text(
            "A DisjointWith B\n\
             Property R\n",
        )
        .unwrap();
        let q = sys.parse_query("q(x) :- R(x, y)").unwrap();
        let d = sys.parse_data("A(u)\nB(u)\nR(u, w)\n").unwrap();
        let res = sys.answer(&q, &d, Strategy::Tw).unwrap();
        // Inconsistent KB: every constant is an answer.
        assert_eq!(res.answers.len(), 2);
        let oracle = sys.certain_answers(&q, &d).tuples();
        assert_eq!(res.answers, oracle);
    }

    #[test]
    fn classify_reports_the_cell() {
        let sys = system();
        let q = sys.parse_query("q(x0, x2) :- R(x0, x1), R(x1, x2)").unwrap();
        let c = sys.classify(&q);
        assert_eq!(c.complexity.to_string(), "NL");
    }

    #[test]
    fn prepared_omq_executes_on_shared_database() {
        let sys = system();
        let q = sys.parse_query("q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)").unwrap();
        let d = sys.parse_data("P(w, a)\nR(a, b)\nR(b, c)\nS(c, d)\nR(d, e)\n").unwrap();
        let db = Database::new(&d);
        let before = Database::build_count();
        let oracle = sys.certain_answers(&q, &d).tuples();
        for strategy in Strategy::ALL {
            let prepared = sys.prepare(&q, strategy).unwrap();
            assert_eq!(prepared.strategy(), strategy);
            assert!(prepared.num_clauses() > 0);
            assert!(obda_ndl::analysis::analyze(prepared.rewriting()).nonrecursive);
            let res = run(&prepared, &db, &EngineConfig::unpruned());
            assert_eq!(res.answers, oracle, "strategy {strategy}");
        }
        assert_eq!(Database::build_count(), before, "execute must not rebuild");
    }

    #[test]
    fn prepared_omq_plans_once_per_database() {
        let sys = system();
        let q = sys.parse_query("q(x0, x2) :- R(x0, x1), S(x1, x2)").unwrap();
        let d = sys.parse_data("P(w, a)\nR(a, b)\nS(b, c)\n").unwrap();
        let prepared = sys.prepare(&q, Strategy::Tw).unwrap();
        assert_eq!(prepared.plans_built(), 0, "planning is lazy");

        let db = Database::new(&d);
        let cfg = EngineConfig::default();
        let oracle = sys.certain_answers(&q, &d).tuples();
        for _ in 0..3 {
            let res = run(&prepared, &db, &cfg);
            assert_eq!(res.answers, oracle);
        }
        assert_eq!(prepared.plans_built(), 1, "same database reuses the cached plan");

        // A different database (even over the same instance) gets its own
        // plan — stats are a property of the database, not the query.
        let db2 = Database::new(&d);
        run(&prepared, &db2, &cfg);
        assert_eq!(prepared.plans_built(), 2);
        run(&prepared, &db, &cfg);
        assert_eq!(prepared.plans_built(), 2, "older entry still cached");

        // The explanation is built from the same cached plan.
        let expl = prepared.plan_explanation(&db);
        let text = expl.display(&prepared.pruned().query.program).to_string();
        assert!(text.contains("est\u{2248}"), "{text}");
        assert_eq!(prepared.plans_built(), 2);

        // Clones start with an empty cache.
        let cloned = prepared.clone();
        assert_eq!(cloned.plans_built(), 0);

        // Disabling planning skips the cache entirely.
        let fresh = sys.prepare(&q, Strategy::Tw).unwrap();
        let noplan = EngineConfig { plan: false, ..EngineConfig::default() };
        let res = run(&fresh, &db, &noplan);
        assert_eq!(res.answers, oracle);
        assert_eq!(fresh.plans_built(), 0);
    }

    #[test]
    fn engine_paths_agree_with_oracle_for_all_strategies() {
        let sys = system();
        let q = sys.parse_query("q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)").unwrap();
        let d = sys.parse_data("P(w, a)\nR(a, b)\nR(b, c)\nS(c, d)\nR(d, e)\n").unwrap();
        let db = Database::new(&d);
        let oracle = sys.certain_answers(&q, &d).tuples();
        let spec = BudgetSpec::default();
        for strategy in Strategy::ALL {
            for threads in [1, 4] {
                for prune in [false, true] {
                    let cfg = EngineConfig { threads, prune, ..EngineConfig::default() };
                    let res = sys.answer_with_budget_engine(&q, &d, strategy, &spec, &cfg).unwrap();
                    assert_eq!(res.answers, oracle, "{strategy} t={threads} prune={prune}");
                    let prepared = sys.prepare(&q, strategy).unwrap();
                    let pre = run(&prepared, &db, &cfg);
                    assert_eq!(pre.answers, oracle, "{strategy} prepared");
                    // Pruning never *increases* work, and stats stay
                    // indexed by the original rewriting's predicates.
                    let plain = run(&prepared, &db, &EngineConfig::unpruned());
                    assert!(pre.stats.generated_tuples <= plain.stats.generated_tuples);
                    assert_eq!(
                        pre.stats.per_predicate.len(),
                        prepared.rewriting().program.num_preds()
                    );
                }
            }
        }
        assert!(!oracle.is_empty());
    }

    #[test]
    fn prepared_pruning_is_computed_once_and_reduces_clauses() {
        let sys = system();
        let q = sys.parse_query("q(x0, x2) :- R(x0, x1), S(x1, x2)").unwrap();
        let prepared = sys.prepare(&q, Strategy::Tw).unwrap();
        let stats = prepared.prune_stats();
        assert!(stats.clauses_after <= stats.clauses_before);
        // The cached pruning is the same object on every access.
        assert!(std::ptr::eq(prepared.pruned(), prepared.pruned()));
    }

    #[test]
    fn fallback_engine_report_matches_plain_fallback() {
        let sys = system();
        let q = sys.parse_query("q(x0, x2) :- R(x0, x1), S(x1, x2)").unwrap();
        let d = sys.parse_data("P(w, a)\nR(a, b)\nS(b, c)\n").unwrap();
        let ladder = AnswerRequest {
            fallback: true,
            retry: RetryPolicy::default(),
            ..AnswerRequest::new(&q, DataSource::Parse(&d), Strategy::Tw)
        };
        let plain = sys.run(&ladder);
        let cfg = EngineConfig { threads: 2, prune: true, ..EngineConfig::default() };
        let engine = sys.run(&AnswerRequest { engine: cfg, ..ladder });
        assert_eq!(plain.winning_strategy(), engine.winning_strategy());
        assert_eq!(
            plain.result().map(|r| r.answers.clone()),
            engine.result().map(|r| r.answers.clone())
        );
    }

    /// `fallback: false` is a ladder of one rung: a budget trip is one
    /// attempt and the typed rewrite trip the bare path always returned,
    /// where the degrading ladder goes on to the next rungs. A deadline
    /// that has already passed still runs the rung, so it too is a typed
    /// trip rather than an empty report.
    #[test]
    fn one_rung_ladder_never_degrades() {
        let sys = system();
        let q = sys.parse_query("q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)").unwrap();
        let d = sys.parse_data("P(w, a)\nR(a, b)\nR(b, c)\nS(c, d)\nR(d, e)\n").unwrap();
        let tripped =
            |e: &ObdaError| matches!(e, ObdaError::Rewrite(RewriteError::BudgetExceeded { .. }));
        let passed = BudgetSpec { timeout: Some(Duration::ZERO), ..BudgetSpec::unlimited() };
        let capped = BudgetSpec { max_clauses: Some(1), ..BudgetSpec::unlimited() };
        for spec in [capped, passed] {
            let bare = AnswerRequest {
                spec,
                ..AnswerRequest::new(&q, DataSource::Parse(&d), Strategy::Tw)
            };
            let report = sys.run(&bare);
            assert_eq!(report.attempts.len(), 1, "{report}");
            assert_eq!(report.attempts[0].strategy, Strategy::Tw);
            assert!(report.into_result().is_err_and(|e| tripped(&e)));
            let err = sys
                .answer_with_budget_engine(&q, &d, Strategy::Tw, &spec, &EngineConfig::default())
                .unwrap_err();
            assert!(tripped(&err), "{err}");
            let ladder = sys.run(&AnswerRequest { fallback: true, ..bare });
            assert!(ladder.attempts.len() != 1, "{ladder}");
        }
    }

    #[test]
    fn strategy_display_names() {
        assert_eq!(Strategy::TwStar.to_string(), "Tw*");
        assert_eq!(Strategy::PrestoLike.to_string(), "Presto-like");
        assert_eq!(Strategy::ALL.len(), 8);
    }
}
