//! A concurrency-limited query service over prepared OMQs.
//!
//! [`QueryService`] wraps an [`ObdaSystem`] behind an *admission gate*: at
//! most `max_concurrency` requests evaluate at once, at most `max_queue`
//! more may wait for a slot, and anything beyond that is rejected
//! immediately with the typed [`ObdaError::Overloaded`] — the service
//! sheds load instead of piling it up. An OMQ is rewritten once
//! ([`QueryService::prepare`]) and evaluated per request
//! ([`QueryService::answer`]): each admitted evaluation is
//! panic-isolated, retries transient faults per the configured
//! [`RetryPolicy`] and runs under a fresh per-request
//! [`Budget`](obda_budget::Budget), so a
//! request that faults, panics or exhausts its budget fails *alone*: the
//! gate slot is released on every exit path and the service keeps
//! answering.
//!
//! The gate is a plain `Mutex` + `Condvar` semaphore with an explicit
//! waiter count — no async runtime, no extra dependencies — and the wait
//! is bounded by the request's own wall-clock deadline, so a queued
//! request can never outlive the budget it would run under.

pub mod breaker;

use crate::pipeline::{ObdaError, ObdaSystem, PreparedOmq, RetryPolicy, Strategy};
use breaker::{AttemptClass, BreakerConfig, BreakerSet};
use obda_budget::BudgetSpec;
use obda_cq::query::Cq;
use obda_ndl::engine::EngineConfig;
use obda_ndl::eval::EvalResult;
use obda_store::StorageBackend;
use obda_telemetry::{Ewma, MetricsRegistry, Telemetry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Registry-key suffix for per-strategy metrics (lowercase, no symbols).
fn strategy_key(s: Strategy) -> &'static str {
    match s {
        Strategy::Lin => "lin",
        Strategy::Log => "log",
        Strategy::Tw => "tw",
        Strategy::TwStar => "tw_star",
        Strategy::Ucq => "ucq",
        Strategy::TwUcq => "tw_ucq",
        Strategy::PrestoLike => "presto_like",
        Strategy::Adaptive => "adaptive",
    }
}

/// Cost-based admission control: calibrate plan-cost units against
/// observed wall time and refuse requests whose estimated work cannot
/// fit their remaining deadline (typed [`ObdaError::CostRejected`]).
#[derive(Debug, Clone)]
pub struct CostAdmissionConfig {
    /// Completed calibration samples required before anything is
    /// refused — a cold model admits everything.
    pub min_samples: u64,
    /// Refuse when the estimate exceeds `headroom ×` the remaining
    /// deadline; values above 1 tolerate estimation error in the
    /// request's favour.
    pub headroom: f64,
    /// EWMA smoothing factor for the seconds-per-cost-unit calibration.
    pub alpha: f64,
}

impl Default for CostAdmissionConfig {
    fn default() -> Self {
        CostAdmissionConfig { min_samples: 16, headroom: 2.0, alpha: 0.2 }
    }
}

/// The overload-control switchboard: each mechanism is independently
/// optional and `None` disables it. The all-`None` default keeps the
/// library behaviour identical to a service without overload control;
/// `obda serve` runs [`OverloadConfig::enabled`].
#[derive(Debug, Clone, Default)]
pub struct OverloadConfig {
    /// Per-strategy circuit breakers.
    pub breaker: Option<BreakerConfig>,
    /// Cost-based admission against the remaining deadline.
    pub cost: Option<CostAdmissionConfig>,
}

impl OverloadConfig {
    /// Every mechanism on, with default tuning.
    pub fn enabled() -> Self {
        OverloadConfig {
            breaker: Some(BreakerConfig::default()),
            cost: Some(CostAdmissionConfig::default()),
        }
    }
}

/// Configuration of a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Requests evaluating concurrently; `0` is coerced to `1`.
    pub max_concurrency: usize,
    /// Requests allowed to *wait* for a slot beyond the concurrent ones;
    /// a request arriving with the queue full is rejected immediately.
    pub max_queue: usize,
    /// How a request retries transient faults.
    pub retry: RetryPolicy,
    /// Engine configuration of every evaluation.
    pub engine: EngineConfig,
    /// Adaptive overload control (breakers, cost admission); everything
    /// off by default.
    pub overload: OverloadConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_concurrency: 2,
            max_queue: 8,
            retry: RetryPolicy::default(),
            engine: EngineConfig::default(),
            overload: OverloadConfig::default(),
        }
    }
}

/// Outcome of one request through the gate ([`QueryService::answer`]):
/// the evaluation result and where the time went.
#[derive(Debug)]
pub struct PreparedRun {
    /// The evaluation result.
    pub result: EvalResult,
    /// Time spent waiting for an execution slot.
    pub queue_wait: Duration,
    /// Total latency: queue wait plus evaluation (retries included).
    pub latency: Duration,
    /// Transient-fault retries consumed before the result.
    pub retries: u32,
}

/// Cumulative service counters (monotone; useful for liveness checks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests that answered.
    pub succeeded: u64,
    /// Requests that ran (or began hydrating) and failed.
    pub failed: u64,
    /// Requests rejected at the gate ([`ObdaError::Overloaded`]): the sum
    /// of the by-reason breakdown below (kept as a total so existing
    /// liveness checks stay valid).
    pub rejected: u64,
    /// Rejections because every slot was busy and the wait queue full.
    pub rejected_overloaded: u64,
    /// Rejections because the request's own deadline expired while it
    /// waited in the queue (a slot never freed in time).
    pub rejected_deadline: u64,
    /// Rejections because the service was draining for shutdown.
    pub rejected_draining: u64,
}

/// Why the admission gate refused a request (carried alongside the load
/// observed at rejection time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Every slot busy and the bounded wait queue full.
    QueueFull,
    /// The request's deadline passed while it waited for a slot.
    DeadlineExpired,
    /// The service is draining: no new admissions.
    Draining,
}

/// The admission gate: a counting semaphore with a bounded waiter queue.
/// Plain `Mutex` + `Condvar`; both counters live under the one lock so
/// admission decisions are atomic.
struct Gate {
    state: Mutex<GateState>,
    freed: Condvar,
}

#[derive(Debug, Clone, Copy)]
struct GateState {
    active: usize,
    queued: usize,
    draining: bool,
}

/// RAII execution slot; dropping it (on any exit path, unwinds included)
/// frees the slot and wakes every waiter — queued acquirers *and* a
/// drainer blocked in [`Gate::drain`] both listen on the same condvar.
struct Permit<'a> {
    gate: &'a Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut s = self.gate.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.active = s.active.saturating_sub(1);
        drop(s);
        self.gate.freed.notify_all();
    }
}

impl Gate {
    fn new() -> Self {
        Gate {
            state: Mutex::new(GateState { active: 0, queued: 0, draining: false }),
            freed: Condvar::new(),
        }
    }

    /// Acquires an execution slot, waiting (up to `deadline`) in the
    /// bounded queue when all slots are busy. `Err` carries the load
    /// observed at rejection time and the reason admission was refused.
    fn acquire(
        &self,
        max_active: usize,
        max_queue: usize,
        deadline: Option<Instant>,
    ) -> Result<Permit<'_>, (GateState, RejectReason)> {
        let max_active = max_active.max(1);
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.draining {
            return Err((*s, RejectReason::Draining));
        }
        if s.active < max_active {
            s.active += 1;
            return Ok(Permit { gate: self });
        }
        if s.queued >= max_queue {
            return Err((*s, RejectReason::QueueFull));
        }
        s.queued += 1;
        loop {
            s = match deadline {
                None => self.freed.wait(s).unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        s.queued = s.queued.saturating_sub(1);
                        self.freed.notify_all(); // a drainer may be waiting on us
                        return Err((*s, RejectReason::DeadlineExpired));
                    }
                    let (guard, _timed_out) =
                        self.freed.wait_timeout(s, d - now).unwrap_or_else(PoisonError::into_inner);
                    guard
                }
            };
            if s.draining {
                s.queued = s.queued.saturating_sub(1);
                self.freed.notify_all();
                return Err((*s, RejectReason::Draining));
            }
            if s.active < max_active {
                s.queued = s.queued.saturating_sub(1);
                s.active += 1;
                return Ok(Permit { gate: self });
            }
        }
    }

    /// Flips the gate into draining mode (idempotent): new acquisitions
    /// are refused and queued waiters are woken to bail out, then waits
    /// up to `timeout` for every in-flight request to finish. Returns
    /// `true` when the gate emptied within the timeout.
    fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.draining = true;
        self.freed.notify_all();
        loop {
            if s.active == 0 && s.queued == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _timed_out) =
                self.freed.wait_timeout(s, deadline - now).unwrap_or_else(PoisonError::into_inner);
            s = guard;
        }
    }

    fn load(&self) -> GateState {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Adaptive plan-cost calibration: an EWMA of observed seconds per
/// cost-model unit over successful requests, consulted at admission to
/// turn a plan's [`total_cost`](obda_ndl::planner::QueryPlan::total_cost)
/// into a wall-time estimate.
#[derive(Debug)]
struct CostModel {
    cfg: CostAdmissionConfig,
    secs_per_unit: Ewma,
    samples: AtomicU64,
}

impl CostModel {
    fn new(cfg: CostAdmissionConfig) -> Self {
        let alpha = cfg.alpha;
        CostModel { cfg, secs_per_unit: Ewma::new(alpha), samples: AtomicU64::new(0) }
    }

    /// Folds one completed request into the calibration.
    fn observe(&self, cost: f64, latency: Duration) {
        if cost > 0.0 {
            self.secs_per_unit.observe(latency.as_secs_f64() / cost);
            self.samples.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Estimated wall time for a plan of the given cost; `None` while
    /// the model is cold (under `min_samples` calibration points).
    fn estimate(&self, cost: f64) -> Option<Duration> {
        if self.samples.load(Ordering::Relaxed) < self.cfg.min_samples {
            return None;
        }
        let secs = cost.max(0.0) * self.secs_per_unit.get()?;
        Some(Duration::from_secs_f64(secs.min(3600.0)))
    }
}

/// The overload-control runtime built from an [`OverloadConfig`].
struct OverloadState {
    strategy_breakers: Option<BreakerSet>,
    cost: Option<CostModel>,
}

impl OverloadState {
    fn new(cfg: &OverloadConfig) -> Self {
        OverloadState {
            strategy_breakers: cfg.breaker.clone().map(BreakerSet::new),
            cost: cfg.cost.clone().map(CostModel::new),
        }
    }
}

/// Books one breaker transition as a per-scope counter.
fn book_transition(metrics: &MetricsRegistry, key: &str, tr: breaker::Transition) {
    metrics.counter(&format!("service_breaker_{}_total_{key}", tr.name())).inc();
}

/// The failure classes that trip a *strategy* breaker: budget
/// exhaustion and panics — evidence the strategy itself is unhealthy on
/// this workload. Transient faults, semantic errors and
/// corrupt data are neutral.
fn breaker_class(e: &ObdaError) -> AttemptClass {
    if e.is_budget() || matches!(e, ObdaError::Internal { .. }) {
        AttemptClass::Failure
    } else {
        AttemptClass::Neutral
    }
}

/// A concurrency-limited, panic-isolated query-answering service.
///
/// ```
/// use obda::budget::BudgetSpec;
/// use obda::{MemoryBackend, ObdaSystem, QueryService, ServiceConfig, Strategy, Telemetry};
///
/// let system = ObdaSystem::from_text("A SubClassOf B\n").unwrap();
/// let service = QueryService::new(system, ServiceConfig::default());
/// let query = service.system().parse_query("q(x) :- B(x)").unwrap();
/// let spec = BudgetSpec::unlimited();
/// let omq = service.prepare(&query, Strategy::Tw, &spec).unwrap();
/// let data = MemoryBackend::new(service.system().parse_data("A(a)").unwrap());
/// let run = service.answer(&omq, &data, &spec, Telemetry::disabled()).unwrap();
/// assert_eq!(run.result.answers.len(), 1);
/// ```
pub struct QueryService {
    system: ObdaSystem,
    cfg: ServiceConfig,
    gate: Gate,
    succeeded: AtomicU64,
    failed: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_deadline: AtomicU64,
    rejected_draining: AtomicU64,
    metrics: MetricsRegistry,
    overload: OverloadState,
}

impl QueryService {
    /// Builds a service over `system` with the given gate configuration.
    pub fn new(system: ObdaSystem, cfg: ServiceConfig) -> Self {
        let overload = OverloadState::new(&cfg.overload);
        QueryService {
            system,
            cfg,
            gate: Gate::new(),
            succeeded: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected_overloaded: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            metrics: MetricsRegistry::new(),
            overload,
        }
    }

    /// The service's metrics registry: queue-wait and per-strategy latency
    /// histograms, overload/retry counters, active/queued gauges, plus
    /// whatever the engines record when requests run with the registry
    /// attached. Render with [`MetricsRegistry::render_text`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The underlying system (for parsing, classification, oracles).
    pub fn system(&self) -> &ObdaSystem {
        &self.system
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Rewrites `query` once for `strategy` under `spec` (classification,
    /// rewriting and the tree-witness memo), panic-isolated like any
    /// request, for any number of [`QueryService::answer`] calls.
    pub fn prepare(
        &self,
        query: &Cq,
        strategy: Strategy,
        spec: &BudgetSpec,
    ) -> Result<Arc<PreparedOmq>, ObdaError> {
        crate::pipeline::isolate("service::prepare", || {
            Ok(Arc::new(self.system.prepare_budgeted(query, strategy, &mut spec.start())?))
        })
    }

    /// Answers a prepared OMQ over a pre-loaded backend (in-memory build
    /// or opened `.obdb` snapshot) under a *per-request* budget. Nothing
    /// is re-rewritten: the cached rewriting (and its cached pruning)
    /// evaluates directly, so the per-OMQ cost of classification,
    /// rewriting and pruning is paid once per [`PreparedOmq`], not per
    /// request. The strategy's circuit breaker and cost admission may
    /// refuse the request first; the gate admits it (bounded by
    /// `spec.timeout` as the queue-wait deadline, [`ObdaError::Overloaded`]
    /// when refused), the evaluation is panic-isolated, and transient
    /// faults are retried per the configured [`RetryPolicy`] as long as
    /// the request's own deadline has not passed.
    pub fn answer(
        &self,
        omq: &PreparedOmq,
        backend: &dyn StorageBackend,
        spec: &BudgetSpec,
        telem: Telemetry<'_>,
    ) -> Result<PreparedRun, ObdaError> {
        // Metrics are always on; a caller-supplied registry overrides the
        // service's own so one exposition covers the gate and the engines.
        let telem = Telemetry { metrics: telem.metrics.or(Some(&self.metrics)), ..telem };
        let metrics = telem.metrics.unwrap_or(&self.metrics);
        let arrival = Instant::now();
        let deadline = spec.timeout.map(|t| arrival + t);
        let skey = strategy_key(omq.strategy());
        // Circuit breaker first: a strategy that keeps dying on this
        // workload fails fast, before any queueing or planning.
        let brk = self.overload.strategy_breakers.as_ref().map(|set| set.breaker(skey));
        if let Some(b) = &brk {
            match b.admit(arrival) {
                Ok(Some(tr)) => book_transition(metrics, skey, tr),
                Ok(None) => {}
                Err(retry_after) => {
                    metrics.counter(&format!("service_breaker_skipped_total_{skey}")).inc();
                    return Err(ObdaError::BreakerOpen {
                        scope: format!("strategy {}", omq.strategy()),
                        retry_after,
                    });
                }
            }
        }
        // From here the breaker admitted us: every early exit must report
        // back (Neutral when the request never actually ran).
        // Hydrate the program's relations before anything plans over them:
        // a corrupt snapshot segment is a store error here, and the data,
        // not the strategy, is at fault.
        if let Err(e) = omq.hydrate(backend.database(), &self.cfg.engine, telem) {
            if let Some(b) = &brk {
                b.record(AttemptClass::Neutral, Instant::now());
            }
            self.failed.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        // Cost admission: refuse work the calibrated model says cannot fit
        // the remaining deadline, instead of burning a slot to time out.
        let plan_cost = self
            .overload
            .cost
            .as_ref()
            .and_then(|_| omq.query_plan(backend.database()).total_cost());
        if let (Some(model), Some(cost), Some(d)) = (&self.overload.cost, plan_cost, deadline) {
            if let Some(estimated) = model.estimate(cost) {
                let remaining = d.saturating_duration_since(Instant::now());
                if estimated > remaining.mul_f64(model.cfg.headroom) {
                    metrics.counter("service_cost_rejected_total").inc();
                    if let Some(b) = &brk {
                        b.record(AttemptClass::Neutral, Instant::now());
                    }
                    return Err(ObdaError::CostRejected {
                        estimated_cost: cost,
                        estimated,
                        remaining,
                    });
                }
            }
        }
        let qspan = telem.span("queue_wait");
        let permit = match self.gate.acquire(self.cfg.max_concurrency, self.cfg.max_queue, deadline)
        {
            Ok(p) => {
                qspan.end();
                p
            }
            Err((seen, reason)) => {
                qspan.error(&format!(
                    "admission refused ({reason:?}): {} active, {} queued",
                    seen.active, seen.queued
                ));
                if let Some(b) = &brk {
                    b.record(AttemptClass::Neutral, Instant::now());
                }
                return Err(self.book_rejection(seen, reason, metrics));
            }
        };
        self.publish_load(metrics);
        let queue_wait = arrival.elapsed();
        metrics.histogram("service_queue_wait_seconds").observe(queue_wait);
        let mut retries = 0u32;
        let mut backoff = self.cfg.retry.base_backoff;
        let outcome = loop {
            // The request's wall clock keeps running across queue wait and
            // retries: every attempt gets the *remaining* allowance, never
            // a fresh one.
            let mut attempt_spec = *spec;
            if let Some(d) = deadline {
                attempt_spec.timeout = Some(d.saturating_duration_since(Instant::now()));
            }
            let attempt = crate::pipeline::isolate("service::prepared", || {
                Ok(omq.execute_engine_traced(
                    backend.database(),
                    &mut attempt_spec.start(),
                    &self.cfg.engine,
                    telem,
                )?)
            });
            match attempt {
                Err(e)
                    if e.is_transient()
                        && retries < self.cfg.retry.max_retries
                        && deadline.is_none_or(|d| Instant::now() < d) =>
                {
                    let next = retries + 1;
                    std::thread::sleep(self.cfg.retry.pause(
                        u64::from(next),
                        &mut backoff,
                        deadline,
                    ));
                    // The pause ends at the deadline at the latest; an
                    // attempt started there would only trip its 0 ms
                    // allowance, so the last transient stands, as on the
                    // ladder.
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break Err(e);
                    }
                    retries = next;
                }
                other => break other,
            }
        };
        drop(permit);
        self.publish_load(metrics);
        if retries > 0 {
            metrics.counter("service_transient_retries_total").add(u64::from(retries));
        }
        let latency = arrival.elapsed();
        if let Some(b) = &brk {
            let class = match &outcome {
                Ok(_) => AttemptClass::Success,
                Err(e) => breaker_class(e),
            };
            if let Some(tr) = b.record(class, Instant::now()) {
                book_transition(metrics, skey, tr);
            }
        }
        match outcome {
            Ok(result) => {
                if let (Some(model), Some(cost)) = (&self.overload.cost, plan_cost) {
                    model.observe(cost, latency);
                }
                self.succeeded.fetch_add(1, Ordering::Relaxed);
                metrics.histogram("service_latency_seconds").observe(latency);
                metrics
                    .histogram(&format!("service_latency_seconds_{}", strategy_key(omq.strategy())))
                    .observe(latency);
                Ok(PreparedRun { result, queue_wait, latency, retries })
            }
            Err(e) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Cumulative counters since construction.
    pub fn stats(&self) -> ServiceStats {
        let rejected_overloaded = self.rejected_overloaded.load(Ordering::Relaxed);
        let rejected_deadline = self.rejected_deadline.load(Ordering::Relaxed);
        let rejected_draining = self.rejected_draining.load(Ordering::Relaxed);
        ServiceStats {
            succeeded: self.succeeded.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected: rejected_overloaded + rejected_deadline + rejected_draining,
            rejected_overloaded,
            rejected_deadline,
            rejected_draining,
        }
    }

    /// Requests currently evaluating and currently queued.
    pub fn load(&self) -> (usize, usize) {
        let s = self.gate.load();
        (s.active, s.queued)
    }

    /// Whether [`QueryService::drain`] has begun: a draining service
    /// refuses every new request with [`ObdaError::Overloaded`].
    pub fn is_draining(&self) -> bool {
        self.gate.load().draining
    }

    /// Begins graceful shutdown (idempotent): the gate stops admitting —
    /// queued requests are woken and rejected, in-flight requests finish
    /// under their own deadlines — and this call blocks up to `timeout`
    /// for the gate to empty. Returns `true` when every in-flight request
    /// completed within the timeout, `false` when stragglers remain.
    pub fn drain(&self, timeout: Duration) -> bool {
        let drained = self.gate.drain(timeout);
        self.publish_load(&self.metrics);
        drained
    }

    /// Books one gate rejection: per-reason counter, total, metric, and
    /// the typed error the caller returns.
    fn book_rejection(
        &self,
        seen: GateState,
        reason: RejectReason,
        metrics: &MetricsRegistry,
    ) -> ObdaError {
        let (cell, metric) = match reason {
            RejectReason::QueueFull => (&self.rejected_overloaded, "service_overloaded_total"),
            RejectReason::DeadlineExpired => {
                (&self.rejected_deadline, "service_rejected_deadline_total")
            }
            RejectReason::Draining => (&self.rejected_draining, "service_rejected_draining_total"),
        };
        cell.fetch_add(1, Ordering::Relaxed);
        metrics.counter(metric).inc();
        ObdaError::Overloaded { active: seen.active, queued: seen.queued }
    }

    /// Publishes the gate's current load to the `service_active` /
    /// `service_queued` gauges.
    fn publish_load(&self, metrics: &MetricsRegistry) {
        let s = self.gate.load();
        metrics.gauge("service_active").set(s.active as i64);
        metrics.gauge("service_queued").set(s.queued as i64);
    }
}

/// Per-tenant admission limits: a token bucket (sustained rate plus
/// burst) and a concurrency cap, layered *in front of* the service's
/// global gate by the HTTP server. `f64::INFINITY` rate/burst and
/// `usize::MAX` concurrency make a tenant effectively unlimited.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// Sustained admissions per second (token-bucket refill rate).
    pub rate_per_sec: f64,
    /// Bucket capacity: how many requests may arrive at once after idle.
    pub burst: f64,
    /// Requests of this tenant evaluating concurrently.
    pub max_concurrency: usize,
}

impl TenantQuota {
    /// A quota that never refuses (the default for unknown tenants).
    pub fn unlimited() -> Self {
        TenantQuota {
            rate_per_sec: f64::INFINITY,
            burst: f64::INFINITY,
            max_concurrency: usize::MAX,
        }
    }
}

impl Default for TenantQuota {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// A tenant's live admission state: the token bucket under a mutex, the
/// concurrency count as an atomic (decremented by [`TenantPermit`] drop).
#[derive(Debug)]
struct TenantState {
    quota: TenantQuota,
    /// `(tokens, last_refill)` — tokens are fractional so sub-second
    /// rates refill smoothly.
    bucket: Mutex<(f64, Instant)>,
    active: AtomicUsize,
}

/// RAII tenant-concurrency slot; dropping it (on any exit path) releases
/// the tenant's concurrency count.
#[derive(Debug)]
pub struct TenantPermit {
    state: Arc<TenantState>,
}

impl Drop for TenantPermit {
    fn drop(&mut self) {
        self.state.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Per-tenant admission control: one token bucket and concurrency cap
/// per tenant name, with a configurable quota for tenants that were
/// never explicitly registered. Layered in front of the global gate by
/// `obda serve`, so one noisy tenant is refused (typed
/// [`ObdaError::QuotaExceeded`] → HTTP 429) while the others keep their
/// share of the service's capacity.
#[derive(Debug)]
pub struct TenantGovernor {
    tenants: RwLock<HashMap<String, Arc<TenantState>>>,
    default_quota: TenantQuota,
}

impl Default for TenantGovernor {
    fn default() -> Self {
        Self::new(TenantQuota::unlimited())
    }
}

impl TenantGovernor {
    /// A governor applying `default_quota` to tenants not explicitly
    /// registered with [`TenantGovernor::set_quota`].
    pub fn new(default_quota: TenantQuota) -> Self {
        TenantGovernor { tenants: RwLock::new(HashMap::new()), default_quota }
    }

    /// Registers (or replaces) `tenant`'s quota. The bucket starts full.
    pub fn set_quota(&self, tenant: &str, quota: TenantQuota) {
        let state = Arc::new(TenantState {
            quota,
            bucket: Mutex::new((quota.burst, Instant::now())),
            active: AtomicUsize::new(0),
        });
        self.tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(tenant.to_owned(), state);
    }

    /// The quota currently applied to `tenant`.
    pub fn quota(&self, tenant: &str) -> TenantQuota {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(tenant)
            .map(|s| s.quota)
            .unwrap_or(self.default_quota)
    }

    /// Requests of `tenant` currently holding a [`TenantPermit`].
    pub fn active(&self, tenant: &str) -> usize {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(tenant)
            .map(|s| s.active.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    fn state_of(&self, tenant: &str) -> Arc<TenantState> {
        if let Some(s) = self.tenants.read().unwrap_or_else(PoisonError::into_inner).get(tenant) {
            return Arc::clone(s);
        }
        let mut w = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(w.entry(tenant.to_owned()).or_insert_with(|| {
            Arc::new(TenantState {
                quota: self.default_quota,
                bucket: Mutex::new((self.default_quota.burst, Instant::now())),
                active: AtomicUsize::new(0),
            })
        }))
    }

    /// Admits one request of `tenant`, or refuses with the typed
    /// [`ObdaError::QuotaExceeded`]. Refusal reasons, in check order: the
    /// tenant's concurrency cap is reached (`retry_after` zero — retry as
    /// soon as one of its own requests finishes), or its token bucket is
    /// empty (`retry_after` = the refill time until one whole token).
    /// The returned permit must be held for the request's whole lifetime.
    pub fn admit(&self, tenant: &str) -> Result<TenantPermit, ObdaError> {
        let state = self.state_of(tenant);
        // Concurrency first: a tenant at its cap should not also drain
        // its bucket for a request that will not run.
        let prev = state.active.fetch_add(1, Ordering::Relaxed);
        if prev >= state.quota.max_concurrency {
            state.active.fetch_sub(1, Ordering::Relaxed);
            return Err(ObdaError::QuotaExceeded {
                tenant: tenant.to_owned(),
                retry_after: Duration::ZERO,
            });
        }
        let mut bucket = state.bucket.lock().unwrap_or_else(PoisonError::into_inner);
        let now = Instant::now();
        let (ref mut tokens, ref mut last) = *bucket;
        *tokens = (*tokens + now.duration_since(*last).as_secs_f64() * state.quota.rate_per_sec)
            .min(state.quota.burst);
        *last = now;
        if *tokens < 1.0 {
            let deficit = 1.0 - *tokens;
            drop(bucket);
            state.active.fetch_sub(1, Ordering::Relaxed);
            let retry_after = if state.quota.rate_per_sec > 0.0 {
                Duration::from_secs_f64((deficit / state.quota.rate_per_sec).min(3600.0))
            } else {
                Duration::from_secs(3600)
            };
            return Err(ObdaError::QuotaExceeded { tenant: tenant.to_owned(), retry_after });
        }
        *tokens -= 1.0;
        drop(bucket);
        Ok(TenantPermit { state })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use obda_store::MemoryBackend;
    use std::sync::Barrier;

    fn service(cfg: ServiceConfig) -> QueryService {
        let system = ObdaSystem::from_text(
            "Professor SubClassOf exists teaches\n\
             exists teaches- SubClassOf Course\n",
        )
        .unwrap();
        QueryService::new(system, cfg)
    }

    /// Prepares `query` with `Tw` and loads `data` into a backend.
    fn fixture(svc: &QueryService, query: &str, data: &str) -> (Arc<PreparedOmq>, MemoryBackend) {
        let q = svc.system().parse_query(query).unwrap();
        let omq = svc.prepare(&q, Strategy::Tw, &BudgetSpec::unlimited()).unwrap();
        (omq, MemoryBackend::new(svc.system().parse_data(data).unwrap()))
    }

    /// One request for `omq` over `data`, untraced.
    fn ask(
        svc: &QueryService,
        omq: &PreparedOmq,
        data: &MemoryBackend,
        spec: &BudgetSpec,
    ) -> Result<PreparedRun, ObdaError> {
        svc.answer(omq, data, spec, Telemetry::disabled())
    }

    #[test]
    fn prepared_query_answers_through_the_gate() {
        let svc = service(ServiceConfig::default());
        let (omq, data) = fixture(&svc, "q(x) :- teaches(x, y), Course(y)", "Professor(ada)");
        let run = ask(&svc, &omq, &data, &BudgetSpec::unlimited()).unwrap();
        assert_eq!(run.result.answers.len(), 1);
        assert_eq!(run.retries, 0);
        assert!(run.latency >= run.queue_wait);
        assert_eq!(svc.stats(), ServiceStats { succeeded: 1, ..ServiceStats::default() });
    }

    #[test]
    fn gate_rejects_beyond_capacity_and_queue() {
        // One slot, no queue: while a request holds the slot, a second
        // request must be rejected with the typed Overloaded error.
        let svc = Arc::new(service(ServiceConfig {
            max_concurrency: 1,
            max_queue: 0,
            ..ServiceConfig::default()
        }));
        let permit = svc.gate.acquire(1, 0, None).unwrap();
        let (omq, data) = fixture(&svc, "q(x) :- Course(x)", "Course(c)");
        let err = ask(&svc, &omq, &data, &BudgetSpec::unlimited()).unwrap_err();
        match err {
            ObdaError::Overloaded { active, queued } => {
                assert_eq!((active, queued), (1, 0));
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        assert_eq!(svc.stats().rejected, 1);
        drop(permit);
        // The slot is free again: the same request now succeeds.
        assert!(ask(&svc, &omq, &data, &BudgetSpec::unlimited()).is_ok());
    }

    #[test]
    fn queued_request_waits_for_a_slot() {
        let svc = Arc::new(service(ServiceConfig {
            max_concurrency: 1,
            max_queue: 4,
            ..ServiceConfig::default()
        }));
        let (omq, data) = fixture(&svc, "q(x) :- Course(x)", "Course(c)");
        let gate_held = Arc::new(Barrier::new(2));
        let holder = {
            let svc = Arc::clone(&svc);
            let gate_held = Arc::clone(&gate_held);
            std::thread::spawn(move || {
                let permit = svc.gate.acquire(1, 4, None).unwrap();
                gate_held.wait();
                std::thread::sleep(Duration::from_millis(30));
                drop(permit);
            })
        };
        gate_held.wait();
        // The slot is busy, so this request queues until the holder lets
        // go — and then runs to completion.
        let run = ask(&svc, &omq, &data, &BudgetSpec::unlimited()).unwrap();
        assert_eq!(run.result.answers.len(), 1);
        assert!(run.queue_wait >= Duration::from_millis(10));
        holder.join().unwrap();
    }

    #[test]
    fn queued_request_times_out_against_its_deadline() {
        let svc =
            service(ServiceConfig { max_concurrency: 1, max_queue: 4, ..ServiceConfig::default() });
        let _slot = svc.gate.acquire(1, 4, None).unwrap();
        let (omq, data) = fixture(&svc, "q(x) :- Course(x)", "Course(c)");
        let spec = BudgetSpec { timeout: Some(Duration::from_millis(20)), ..BudgetSpec::default() };
        let err = ask(&svc, &omq, &data, &spec).unwrap_err();
        assert!(matches!(err, ObdaError::Overloaded { .. }));
    }

    #[test]
    fn rejection_reasons_are_broken_out_in_stats() {
        let svc =
            service(ServiceConfig { max_concurrency: 1, max_queue: 0, ..ServiceConfig::default() });
        let (omq, data) = fixture(&svc, "q(x) :- Course(x)", "Course(c)");
        // Queue full while the one slot is held.
        {
            let _slot = svc.gate.acquire(1, 0, None).unwrap();
            ask(&svc, &omq, &data, &BudgetSpec::unlimited()).unwrap_err();
        }
        // Deadline expires while queued.
        let svc2 =
            service(ServiceConfig { max_concurrency: 1, max_queue: 4, ..ServiceConfig::default() });
        {
            let _slot = svc2.gate.acquire(1, 4, None).unwrap();
            let spec =
                BudgetSpec { timeout: Some(Duration::from_millis(10)), ..BudgetSpec::default() };
            ask(&svc2, &omq, &data, &spec).unwrap_err();
        }
        assert_eq!(svc.stats().rejected_overloaded, 1);
        assert_eq!(svc.stats().rejected, 1);
        assert_eq!(svc2.stats().rejected_deadline, 1);
        assert_eq!(svc2.stats().rejected, 1);
    }

    #[test]
    fn drain_refuses_new_requests_and_waits_for_inflight() {
        let svc = Arc::new(service(ServiceConfig {
            max_concurrency: 2,
            max_queue: 4,
            ..ServiceConfig::default()
        }));
        let (omq, data) = fixture(&svc, "q(x) :- Course(x)", "Course(c)");
        // An in-flight permit is held while drain begins: drain must wait
        // for it, then report the gate empty.
        let holder = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let permit = svc.gate.acquire(2, 4, None).unwrap();
                std::thread::sleep(Duration::from_millis(40));
                drop(permit);
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        assert!(!svc.is_draining());
        assert!(svc.drain(Duration::from_secs(5)), "in-flight must finish inside the timeout");
        assert!(svc.is_draining());
        // After drain: every new request is refused, typed, and counted.
        let err = ask(&svc, &omq, &data, &BudgetSpec::unlimited()).unwrap_err();
        assert!(matches!(err, ObdaError::Overloaded { .. }));
        assert_eq!(svc.stats().rejected_draining, 1);
        holder.join().unwrap();
        // Draining again is idempotent and immediate.
        assert!(svc.drain(Duration::from_millis(1)));
    }

    #[test]
    fn prepared_execution_reuses_the_rewriting() {
        let svc = service(ServiceConfig::default());
        let q = svc.system().parse_query("q(x) :- teaches(x, y), Course(y)").unwrap();
        let omq = svc.system().prepare(&q, Strategy::Tw).unwrap();
        let data = svc.system().parse_data("Professor(ada)").unwrap();
        let backend = MemoryBackend::new(data);
        let run = ask(&svc, &omq, &backend, &BudgetSpec::unlimited()).unwrap();
        assert_eq!(run.result.answers.len(), 1);
        assert_eq!(run.retries, 0);
        assert!(run.latency >= run.queue_wait);
        assert_eq!(svc.stats().succeeded, 1);
        assert_eq!(svc.metrics().histogram("service_latency_seconds").count(), 1);
    }

    #[test]
    fn tenant_governor_enforces_burst_and_refills() {
        let gov =
            TenantGovernor::new(TenantQuota { rate_per_sec: 5.0, burst: 2.0, max_concurrency: 8 });
        // The burst admits two immediately; the third is refused with a
        // refill hint below one second (deficit 1 token at 5/s = 200ms).
        let _a = gov.admit("t").unwrap();
        let _b = gov.admit("t").unwrap();
        let err = gov.admit("t").unwrap_err();
        match err {
            ObdaError::QuotaExceeded { tenant, retry_after } => {
                assert_eq!(tenant, "t");
                assert!(retry_after > Duration::ZERO && retry_after <= Duration::from_secs(1));
            }
            other => panic!("expected QuotaExceeded, got {other}"),
        }
        // Another tenant is unaffected (default quota = unlimited).
        assert!(gov.admit("other").is_ok());
        // After the refill interval a token is back.
        std::thread::sleep(Duration::from_millis(250));
        assert!(gov.admit("t").is_ok());
    }

    #[test]
    fn tenant_concurrency_cap_is_released_by_permit_drop() {
        let gov = TenantGovernor::default();
        gov.set_quota(
            "t",
            TenantQuota { rate_per_sec: f64::INFINITY, burst: f64::INFINITY, max_concurrency: 1 },
        );
        let permit = gov.admit("t").unwrap();
        assert_eq!(gov.active("t"), 1);
        let err = gov.admit("t").unwrap_err();
        assert!(
            matches!(err, ObdaError::QuotaExceeded { ref tenant, retry_after } if tenant == "t" && retry_after == Duration::ZERO),
            "{err}"
        );
        drop(permit);
        assert_eq!(gov.active("t"), 0);
        assert!(gov.admit("t").is_ok());
    }

    #[test]
    fn concurrent_submissions_respect_the_limit() {
        let svc = Arc::new(service(ServiceConfig {
            max_concurrency: 2,
            max_queue: 64,
            ..ServiceConfig::default()
        }));
        let q = svc.system().parse_query("q(x) :- teaches(x, y), Course(y)").unwrap();
        let omq = svc.prepare(&q, Strategy::Tw, &BudgetSpec::unlimited()).unwrap();
        let peak = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let svc = Arc::clone(&svc);
                let omq = Arc::clone(&omq);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    let data = svc.system().parse_data(&format!("Professor(p{i})")).unwrap();
                    let run = ask(&svc, &omq, &MemoryBackend::new(data), &BudgetSpec::unlimited());
                    let (active, _) = svc.load();
                    peak.fetch_max(active, Ordering::Relaxed);
                    assert_eq!(run.unwrap().result.answers.len(), 1);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(peak.load(Ordering::Relaxed) <= 2);
        assert_eq!(svc.stats().succeeded, 8);
        let (active, queued) = svc.load();
        assert_eq!((active, queued), (0, 0));
    }

    #[test]
    fn strategy_breaker_fails_fast_on_the_prepared_path() {
        let svc = service(ServiceConfig {
            overload: OverloadConfig {
                breaker: Some(breaker::BreakerConfig {
                    window: 2,
                    threshold: 1,
                    cooldown: Duration::from_secs(60),
                    probes: 1,
                    seed: 1,
                }),
                ..OverloadConfig::default()
            },
            ..ServiceConfig::default()
        });
        let (omq, backend) = fixture(&svc, "q(x) :- teaches(x, y), Course(y)", "Professor(ada)");
        // A zero-tuple allowance trips the budget on the first derived
        // tuple; one failure in a window of two crosses the threshold.
        let strict = BudgetSpec { max_tuples: Some(0), ..BudgetSpec::unlimited() };
        let err = ask(&svc, &omq, &backend, &strict).unwrap_err();
        assert!(err.is_budget(), "{err}");
        // The breaker is now open: the next request fails fast with the
        // typed refusal, without burning a slot.
        let err = ask(&svc, &omq, &backend, &BudgetSpec::unlimited()).unwrap_err();
        match err {
            ObdaError::BreakerOpen { scope, retry_after } => {
                assert_eq!(scope, "strategy Tw");
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected BreakerOpen, got {other}"),
        }
        assert_eq!(svc.metrics().counter("service_breaker_opened_total_tw").get(), 1);
        assert_eq!(svc.metrics().counter("service_breaker_skipped_total_tw").get(), 1);
    }

    #[test]
    fn cost_admission_sheds_expensive_requests_once_calibrated() {
        let svc = service(ServiceConfig {
            overload: OverloadConfig {
                cost: Some(CostAdmissionConfig { min_samples: 1, headroom: 1.0, alpha: 1.0 }),
                ..OverloadConfig::default()
            },
            ..ServiceConfig::default()
        });
        let data = (0..64).map(|i| format!("Professor(p{i})")).collect::<Vec<_>>().join("\n");
        let (omq, backend) = fixture(&svc, "q(x) :- teaches(x, y), Course(y)", &data);
        // Calibration: one successful run with no deadline teaches the
        // model this plan's seconds-per-cost-unit.
        ask(&svc, &omq, &backend, &BudgetSpec::unlimited()).unwrap();
        // A one-nanosecond deadline cannot fit the calibrated estimate:
        // the request is shed before queueing, typed.
        let strict =
            BudgetSpec { timeout: Some(Duration::from_nanos(1)), ..BudgetSpec::unlimited() };
        let err = ask(&svc, &omq, &backend, &strict).unwrap_err();
        match err {
            ObdaError::CostRejected { estimated_cost, estimated, remaining } => {
                assert!(estimated_cost > 0.0);
                assert!(estimated > remaining);
            }
            other => panic!("expected CostRejected, got {other}"),
        }
        assert_eq!(svc.metrics().counter("service_cost_rejected_total").get(), 1);
    }
}
