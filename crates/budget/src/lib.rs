//! Shared resource budgets for every stage of the OBDA pipeline.
//!
//! The paper's central message is that the *size* of rewritings varies
//! wildly with the OMQ class: UCQ-rewritings are exponential in general
//! while the Lin/Log/Tw NDL-rewritings are polynomial. A production
//! system therefore cannot assume any single stage terminates quickly —
//! saturation, chase materialisation, rewriting and evaluation all need
//! a way to stop early and report *how far they got*. This crate is the
//! bottom of the dependency graph: a [`Budget`] couples a wall-clock
//! deadline with per-resource caps and is threaded by `&mut` through
//! `obda-owlql`, `obda-chase`, `obda-rewrite` and `obda-ndl`.
//!
//! Checking is amortised: [`Budget::tick`] only consults the clock every
//! `TICK_CHECK_INTERVAL` calls, so it is cheap enough for inner loops.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How many [`Budget::tick`] calls go between wall-clock checks.
pub const TICK_CHECK_INTERVAL: u64 = 1024;

/// The kind of resource whose cap was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The wall-clock deadline passed.
    Time,
    /// The cap on abstract work steps (loop iterations) was hit.
    Steps,
    /// The cap on emitted clauses/disjuncts (rewriting) was hit.
    Clauses,
    /// The cap on derived tuples (evaluation) was hit.
    Tuples,
    /// The cap on materialised chase elements (canonical model) was hit.
    ChaseElements,
    /// The run was cancelled cooperatively (e.g. a sibling worker
    /// panicked and the pool must stop); not a resource cap at all, but
    /// carried in the same channel so every budget check doubles as a
    /// cancellation point.
    Cancelled,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Time => write!(f, "wall-clock time"),
            Resource::Steps => write!(f, "work steps"),
            Resource::Clauses => write!(f, "clauses"),
            Resource::Tuples => write!(f, "tuples"),
            Resource::ChaseElements => write!(f, "chase elements"),
            Resource::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A typed "out of budget" signal, carrying how much was spent on the
/// exhausted resource and what the cap was. For [`Resource::Time`] the
/// numbers are milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    pub resource: Resource,
    /// Amount spent when the budget tripped (ms for `Time`).
    pub spent: u64,
    /// The configured cap (ms for `Time`).
    pub limit: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::Time => {
                write!(f, "budget exceeded: {}ms elapsed of {}ms allowed", self.spent, self.limit)
            }
            Resource::Cancelled => write!(f, "evaluation cancelled after a sibling failure"),
            r => write!(f, "budget exceeded: {} {} of {} allowed", self.spent, r, self.limit),
        }
    }
}

impl std::error::Error for BudgetExceeded {}

/// A declarative budget: what the caps *are*, independent of when the
/// clock starts. Produced by CLI flags or API callers; call
/// [`BudgetSpec::start`] to begin the countdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Wall-clock allowance across the whole pipeline run.
    pub timeout: Option<Duration>,
    /// Cap on abstract work steps (inner-loop iterations).
    pub max_steps: Option<u64>,
    /// Cap on clauses emitted by a rewriter.
    pub max_clauses: Option<u64>,
    /// Cap on tuples derived by an evaluator.
    pub max_tuples: Option<u64>,
    /// Cap on chase elements materialised by the canonical model.
    pub max_chase_elements: Option<u64>,
}

impl BudgetSpec {
    /// A spec with no caps at all.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True when no cap is configured.
    pub fn is_unlimited(&self) -> bool {
        *self == Self::default()
    }

    /// Starts the countdown: converts the relative timeout into an
    /// absolute deadline and zeroes all counters.
    pub fn start(&self) -> Budget {
        let mut b = Budget::unlimited();
        b.deadline = self.timeout.map(|t| Instant::now() + t);
        b.timeout = self.timeout;
        b.max_steps = self.max_steps;
        b.max_clauses = self.max_clauses;
        b.max_tuples = self.max_tuples;
        b.max_chase_elements = self.max_chase_elements;
        b
    }
}

/// A running budget: an optional absolute deadline plus per-resource
/// caps and spent counters. Pass `&mut Budget` down through pipeline
/// stages; each stage charges the resources it consumes.
#[derive(Debug, Clone)]
pub struct Budget {
    deadline: Option<Instant>,
    /// The original relative allowance, kept for error reporting.
    timeout: Option<Duration>,
    started: Instant,
    steps: u64,
    max_steps: Option<u64>,
    clauses: u64,
    max_clauses: Option<u64>,
    tuples: u64,
    max_tuples: Option<u64>,
    chase_elements: u64,
    max_chase_elements: Option<u64>,
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Budget {
    /// A budget that never trips. All budgeted entry points degrade to
    /// their unbudgeted behaviour when handed this.
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            timeout: None,
            started: Instant::now(),
            steps: 0,
            max_steps: None,
            clauses: 0,
            max_clauses: None,
            tuples: 0,
            max_tuples: None,
            chase_elements: 0,
            max_chase_elements: None,
        }
    }

    /// A budget with only a wall-clock allowance.
    pub fn with_timeout(timeout: Duration) -> Self {
        BudgetSpec { timeout: Some(timeout), ..BudgetSpec::default() }.start()
    }

    /// Builder-style cap setters.
    pub fn max_steps(mut self, cap: u64) -> Self {
        self.max_steps = Some(cap);
        self
    }

    pub fn max_clauses(mut self, cap: u64) -> Self {
        self.max_clauses = Some(cap);
        self
    }

    pub fn max_tuples(mut self, cap: u64) -> Self {
        self.max_tuples = Some(cap);
        self
    }

    pub fn max_chase_elements(mut self, cap: u64) -> Self {
        self.max_chase_elements = Some(cap);
        self
    }

    /// True when nothing can ever trip this budget.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_steps.is_none()
            && self.max_clauses.is_none()
            && self.max_tuples.is_none()
            && self.max_chase_elements.is_none()
    }

    /// A fresh budget with the *same absolute deadline* but zeroed
    /// size counters. Used by the fallback ladder: each strategy
    /// attempt gets the full clause/tuple caps while all attempts race
    /// the one shared wall clock.
    pub fn renew(&self) -> Self {
        Budget {
            deadline: self.deadline,
            timeout: self.timeout,
            started: self.started,
            steps: 0,
            max_steps: self.max_steps,
            clauses: 0,
            max_clauses: self.max_clauses,
            tuples: 0,
            max_tuples: self.max_tuples,
            chase_elements: 0,
            max_chase_elements: self.max_chase_elements,
        }
    }

    /// A fresh budget for the first of `parts` sequential attempts that
    /// share what is left of this one: zeroed counters, the clause cap
    /// lowered to the clauses this budget has left, and a deadline
    /// `1/parts` of the remaining time away, so the attempts after it
    /// still get their share when this one runs long.
    pub fn share_of_rest(&self, parts: u32) -> Self {
        let mut b = self.renew();
        b.max_clauses = self.max_clauses.map(|cap| cap.saturating_sub(self.clauses));
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            b.deadline = Some(now + deadline.saturating_duration_since(now) / parts.max(1));
        }
        b
    }

    fn time_error(&self) -> BudgetExceeded {
        BudgetExceeded {
            resource: Resource::Time,
            spent: self.started.elapsed().as_millis() as u64,
            limit: self.timeout.map_or(0, |t| t.as_millis() as u64),
        }
    }

    /// Checks the wall clock *now*, regardless of the tick counter.
    pub fn check_time(&self) -> Result<(), BudgetExceeded> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(self.time_error()),
            _ => Ok(()),
        }
    }

    /// Counts one unit of abstract work. Checks the step cap on every
    /// call and the wall clock every [`TICK_CHECK_INTERVAL`] calls, so
    /// this is cheap enough for inner loops.
    #[inline]
    pub fn tick(&mut self) -> Result<(), BudgetExceeded> {
        self.steps += 1;
        if let Some(cap) = self.max_steps {
            if self.steps > cap {
                return Err(BudgetExceeded {
                    resource: Resource::Steps,
                    spent: self.steps,
                    limit: cap,
                });
            }
        }
        if self.deadline.is_some() && self.steps.is_multiple_of(TICK_CHECK_INTERVAL) {
            self.check_time()?;
        }
        Ok(())
    }

    /// Charges `n` emitted clauses/disjuncts against the clause cap.
    pub fn charge_clauses(&mut self, n: u64) -> Result<(), BudgetExceeded> {
        self.clauses += n;
        match self.max_clauses {
            Some(cap) if self.clauses > cap => {
                Err(BudgetExceeded { resource: Resource::Clauses, spent: self.clauses, limit: cap })
            }
            _ => Ok(()),
        }
    }

    /// Charges `n` derived tuples against the tuple cap.
    pub fn charge_tuples(&mut self, n: u64) -> Result<(), BudgetExceeded> {
        self.tuples += n;
        match self.max_tuples {
            Some(cap) if self.tuples > cap => {
                Err(BudgetExceeded { resource: Resource::Tuples, spent: self.tuples, limit: cap })
            }
            _ => Ok(()),
        }
    }

    /// Errors (without charging) when `pending` more tuples would trip
    /// the cap. Lets join loops bail out before materialising an
    /// oversized intermediate delta.
    pub fn check_tuple_headroom(&self, pending: u64) -> Result<(), BudgetExceeded> {
        match self.max_tuples {
            Some(cap) if self.tuples + pending > cap => Err(BudgetExceeded {
                resource: Resource::Tuples,
                spent: self.tuples + pending,
                limit: cap,
            }),
            _ => Ok(()),
        }
    }

    /// Would charging `pending` more tuples trip the cap?
    pub fn tuples_would_exceed(&self, pending: u64) -> bool {
        self.check_tuple_headroom(pending).is_err()
    }

    /// Charges `n` materialised chase elements against the chase cap.
    pub fn charge_chase_elements(&mut self, n: u64) -> Result<(), BudgetExceeded> {
        self.chase_elements += n;
        match self.max_chase_elements {
            Some(cap) if self.chase_elements > cap => Err(BudgetExceeded {
                resource: Resource::ChaseElements,
                spent: self.chase_elements,
                limit: cap,
            }),
            _ => Ok(()),
        }
    }

    /// Spent-so-far accessors, used for partial statistics in errors.
    pub fn spent_steps(&self) -> u64 {
        self.steps
    }

    pub fn spent_clauses(&self) -> u64 {
        self.clauses
    }

    pub fn spent_tuples(&self) -> u64 {
        self.tuples
    }

    pub fn spent_chase_elements(&self) -> u64 {
        self.chase_elements
    }

    /// Time elapsed since this budget (or its ancestor, for
    /// [`Budget::renew`]) was started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Snapshots this budget into an atomic [`SharedBudget`] that worker
    /// threads can charge concurrently through [`WorkerBudget`] handles.
    /// The shared counters are seeded with this budget's spent amounts,
    /// so caps stay cumulative across the sequential/parallel boundary.
    /// Fold the spend back with [`Budget::absorb`] once the workers join.
    pub fn share(&self) -> SharedBudget {
        SharedBudget {
            deadline: self.deadline,
            timeout: self.timeout,
            started: self.started,
            max_steps: self.max_steps,
            max_tuples: self.max_tuples,
            steps: AtomicU64::new(self.steps),
            tuples: AtomicU64::new(self.tuples),
            poisoned: AtomicBool::new(false),
            first_trip: Mutex::new(None),
        }
    }

    /// Copies the steps/tuples spent through `shared` back into this
    /// budget, completing a [`Budget::share`] round-trip.
    pub fn absorb(&mut self, shared: &SharedBudget) {
        self.steps = shared.spent_steps();
        self.tuples = shared.spent_tuples();
    }
}

/// How many locally buffered [`WorkerBudget::tick`] calls go between
/// flushes to the shared atomic counters.
pub const WORKER_FLUSH_INTERVAL: u64 = 64;

/// An atomic snapshot of a [`Budget`] for a scoped worker pool: the
/// deadline plus step/tuple caps enforced through shared counters, so the
/// whole pool races one allowance. Clause and chase-element caps are not
/// carried — parallel evaluation only charges steps and tuples.
///
/// The first cap trip *poisons* the pool: every subsequent check on any
/// worker returns that same [`BudgetExceeded`], so all threads stop with
/// one consistent typed error.
#[derive(Debug)]
pub struct SharedBudget {
    deadline: Option<Instant>,
    timeout: Option<Duration>,
    started: Instant,
    max_steps: Option<u64>,
    max_tuples: Option<u64>,
    steps: AtomicU64,
    tuples: AtomicU64,
    poisoned: AtomicBool,
    first_trip: Mutex<Option<BudgetExceeded>>,
}

impl SharedBudget {
    fn time_error(&self) -> BudgetExceeded {
        BudgetExceeded {
            resource: Resource::Time,
            spent: self.started.elapsed().as_millis() as u64,
            limit: self.timeout.map_or(0, |t| t.as_millis() as u64),
        }
    }

    /// Records the first budget trip and poisons the pool. Later trips
    /// keep the original error so every worker reports the same cause.
    pub fn trip(&self, e: BudgetExceeded) -> BudgetExceeded {
        let mut slot = match self.first_trip.lock() {
            Ok(s) => s,
            // A worker panicked holding the lock; the pool is going down
            // anyway, so just report the local error.
            Err(_) => return e,
        };
        let first = *slot.get_or_insert(e);
        self.poisoned.store(true, Ordering::Release);
        first
    }

    /// Cancels the pool cooperatively: poisons it with a
    /// [`Resource::Cancelled`] trip so every worker's next budget check
    /// fails fast. Used by the panic-isolation path — a worker that
    /// catches a sibling's panic calls this so the rest of the pool
    /// stops instead of finishing doomed work. Like [`SharedBudget::trip`],
    /// an earlier trip wins: cancelling an already-poisoned pool keeps
    /// the original error.
    pub fn cancel(&self) -> BudgetExceeded {
        self.trip(BudgetExceeded { resource: Resource::Cancelled, spent: 0, limit: 0 })
    }

    /// The error another worker tripped on, if any.
    pub fn tripped(&self) -> Option<BudgetExceeded> {
        if !self.poisoned.load(Ordering::Acquire) {
            return None;
        }
        self.first_trip.lock().ok().and_then(|s| *s)
    }

    /// Checks the wall clock *now*; a deadline miss poisons the pool.
    pub fn check_time(&self) -> Result<(), BudgetExceeded> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(self.trip(self.time_error())),
            _ => Ok(()),
        }
    }

    /// Charges `n` work steps against the shared step cap and, on
    /// [`TICK_CHECK_INTERVAL`] boundaries, the wall clock. Also fails
    /// fast when another worker already poisoned the pool.
    pub fn charge_steps(&self, n: u64) -> Result<(), BudgetExceeded> {
        if let Some(e) = self.tripped() {
            return Err(e);
        }
        let before = self.steps.fetch_add(n, Ordering::Relaxed);
        let after = before + n;
        if let Some(cap) = self.max_steps {
            if after > cap {
                return Err(self.trip(BudgetExceeded {
                    resource: Resource::Steps,
                    spent: after,
                    limit: cap,
                }));
            }
        }
        if self.deadline.is_some() && before / TICK_CHECK_INTERVAL != after / TICK_CHECK_INTERVAL {
            self.check_time()?;
        }
        Ok(())
    }

    /// Charges `n` derived tuples against the shared tuple cap.
    pub fn charge_tuples(&self, n: u64) -> Result<(), BudgetExceeded> {
        if let Some(e) = self.tripped() {
            return Err(e);
        }
        let after = self.tuples.fetch_add(n, Ordering::Relaxed) + n;
        match self.max_tuples {
            Some(cap) if after > cap => Err(self.trip(BudgetExceeded {
                resource: Resource::Tuples,
                spent: after,
                limit: cap,
            })),
            _ => Ok(()),
        }
    }

    /// Errors (without charging) when `pending` more tuples would trip
    /// the cap. The check is advisory under concurrency — the hard stop
    /// is [`SharedBudget::charge_tuples`] — but it still bounds how far
    /// past the cap an oversized intermediate delta can grow.
    pub fn check_tuple_headroom(&self, pending: u64) -> Result<(), BudgetExceeded> {
        if let Some(e) = self.tripped() {
            return Err(e);
        }
        match self.max_tuples {
            Some(cap) if self.tuples.load(Ordering::Relaxed) + pending > cap => {
                Err(self.trip(BudgetExceeded {
                    resource: Resource::Tuples,
                    spent: self.tuples.load(Ordering::Relaxed) + pending,
                    limit: cap,
                }))
            }
            _ => Ok(()),
        }
    }

    pub fn spent_steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    pub fn spent_tuples(&self) -> u64 {
        self.tuples.load(Ordering::Relaxed)
    }
}

/// A per-thread facade over a [`SharedBudget`] that amortises the atomic
/// traffic: ticks accumulate in a plain local counter and are flushed to
/// the shared counters every [`WORKER_FLUSH_INTERVAL`] calls (and on
/// drop), so the hot join loop pays one relaxed `fetch_add` per batch.
#[derive(Debug)]
pub struct WorkerBudget<'a> {
    shared: &'a SharedBudget,
    local_steps: u64,
}

impl<'a> WorkerBudget<'a> {
    pub fn new(shared: &'a SharedBudget) -> Self {
        WorkerBudget { shared, local_steps: 0 }
    }

    /// Pushes locally buffered ticks to the shared counters and runs the
    /// cap/clock/poison checks.
    pub fn flush(&mut self) -> Result<(), BudgetExceeded> {
        let n = std::mem::take(&mut self.local_steps);
        // Flush even when n == 0: the poison check must still run so a
        // worker spinning without ticking notices a tripped pool.
        self.shared.charge_steps(n)
    }

    /// The shared budget this worker charges against.
    pub fn shared(&self) -> &'a SharedBudget {
        self.shared
    }
}

impl Drop for WorkerBudget<'_> {
    fn drop(&mut self) {
        if self.local_steps > 0 {
            self.shared.charge_steps(self.local_steps).ok();
        }
    }
}

/// The budget surface evaluation inner loops need, implemented both by
/// the exclusive [`Budget`] and by the per-thread [`WorkerBudget`]. Lets
/// one generic join kernel serve the engine inline and on its worker pool.
pub trait BudgetOps {
    /// Counts one unit of abstract work; see [`Budget::tick`].
    fn tick(&mut self) -> Result<(), BudgetExceeded>;
    /// Charges `n` derived tuples against the tuple cap.
    fn charge_tuples(&mut self, n: u64) -> Result<(), BudgetExceeded>;
    /// Errors when `pending` more tuples would trip the cap.
    fn check_tuple_headroom(&self, pending: u64) -> Result<(), BudgetExceeded>;
}

impl BudgetOps for Budget {
    #[inline]
    fn tick(&mut self) -> Result<(), BudgetExceeded> {
        Budget::tick(self)
    }

    fn charge_tuples(&mut self, n: u64) -> Result<(), BudgetExceeded> {
        Budget::charge_tuples(self, n)
    }

    fn check_tuple_headroom(&self, pending: u64) -> Result<(), BudgetExceeded> {
        Budget::check_tuple_headroom(self, pending)
    }
}

impl BudgetOps for WorkerBudget<'_> {
    #[inline]
    fn tick(&mut self) -> Result<(), BudgetExceeded> {
        self.local_steps += 1;
        if self.local_steps >= WORKER_FLUSH_INTERVAL {
            self.flush()?;
        }
        Ok(())
    }

    fn charge_tuples(&mut self, n: u64) -> Result<(), BudgetExceeded> {
        self.shared.charge_tuples(n)
    }

    fn check_tuple_headroom(&self, pending: u64) -> Result<(), BudgetExceeded> {
        self.shared.check_tuple_headroom(pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let mut b = Budget::unlimited();
        for _ in 0..10_000 {
            b.tick().unwrap();
        }
        b.charge_clauses(1 << 40).unwrap();
        b.charge_tuples(1 << 40).unwrap();
        b.charge_chase_elements(1 << 40).unwrap();
        assert!(b.is_unlimited());
    }

    #[test]
    fn share_of_rest_splits_the_remaining_time_and_clauses() {
        let mut b = BudgetSpec {
            timeout: Some(Duration::from_secs(30)),
            max_clauses: Some(100),
            ..BudgetSpec::unlimited()
        }
        .start();
        b.charge_clauses(40).unwrap();
        let mut first = b.share_of_rest(3);
        let deadline = first.deadline().unwrap();
        let left = b.deadline().unwrap().saturating_duration_since(Instant::now());
        assert!(deadline <= Instant::now() + left / 3 + Duration::from_millis(5));
        assert!(deadline >= Instant::now() + Duration::from_secs(9));
        assert_eq!(first.spent_clauses(), 0);
        first.charge_clauses(60).unwrap();
        assert!(first.charge_clauses(1).is_err(), "the share caps at the 60 clauses left");
        let last = b.share_of_rest(1);
        assert_eq!(last.deadline(), b.deadline());
        assert!(Budget::unlimited().share_of_rest(2).is_unlimited());
    }

    #[test]
    fn step_cap_trips_with_partial_spend() {
        let mut b = Budget::unlimited().max_steps(10);
        for _ in 0..10 {
            b.tick().unwrap();
        }
        let err = b.tick().unwrap_err();
        assert_eq!(err.resource, Resource::Steps);
        assert_eq!(err.limit, 10);
        assert_eq!(err.spent, 11);
    }

    #[test]
    fn clause_cap_trips() {
        let mut b = Budget::unlimited().max_clauses(100);
        b.charge_clauses(60).unwrap();
        let err = b.charge_clauses(60).unwrap_err();
        assert_eq!(err.resource, Resource::Clauses);
        assert_eq!(err.spent, 120);
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        let b = Budget::with_timeout(Duration::from_secs(0));
        let err = b.check_time().unwrap_err();
        assert_eq!(err.resource, Resource::Time);
    }

    #[test]
    fn renew_resets_counters_but_keeps_deadline() {
        let mut b = Budget::with_timeout(Duration::from_secs(3600)).max_clauses(10);
        b.charge_clauses(10).unwrap();
        assert!(b.charge_clauses(1).is_err());
        let mut fresh = b.renew();
        assert_eq!(fresh.spent_clauses(), 0);
        assert_eq!(fresh.deadline(), b.deadline());
        fresh.charge_clauses(10).unwrap();
    }

    #[test]
    fn tuples_would_exceed_is_a_dry_run() {
        let mut b = Budget::unlimited().max_tuples(5);
        b.charge_tuples(3).unwrap();
        assert!(!b.tuples_would_exceed(2));
        assert!(b.tuples_would_exceed(3));
        assert_eq!(b.spent_tuples(), 3);
    }

    #[test]
    fn shared_tuple_cap_is_cumulative_across_workers() {
        let mut b = Budget::unlimited().max_tuples(100);
        b.charge_tuples(40).unwrap();
        let shared = b.share();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut w = WorkerBudget::new(&shared);
                        let mut charged = 0u64;
                        while w.charge_tuples(1).is_ok() {
                            charged += 1;
                        }
                        charged
                    })
                })
                .collect();
            let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(total, 60, "exactly the remaining headroom is granted");
        });
        let trip = shared.tripped().expect("pool is poisoned after the cap");
        assert_eq!(trip.resource, Resource::Tuples);
        b.absorb(&shared);
        assert!(b.spent_tuples() > 100, "overshoot recorded, cap enforced");
    }

    #[test]
    fn poisoned_pool_stops_every_worker_with_the_first_error() {
        let b = Budget::unlimited().max_tuples(10);
        let shared = b.share();
        let mut w1 = WorkerBudget::new(&shared);
        let first = w1.charge_tuples(11).unwrap_err();
        assert_eq!(first.resource, Resource::Tuples);
        // A different worker that never charged anything now fails fast
        // with the *same* typed error on its next flush boundary.
        let mut w2 = WorkerBudget::new(&shared);
        let seen = w2.flush().unwrap_err();
        assert_eq!(seen, first);
        let mut w3 = WorkerBudget::new(&shared);
        assert_eq!(w3.charge_tuples(1).unwrap_err(), first);
    }

    #[test]
    fn shared_deadline_trips_workers() {
        let b = Budget::with_timeout(Duration::from_secs(0));
        let shared = b.share();
        assert_eq!(shared.check_time().unwrap_err().resource, Resource::Time);
        // Ticks notice the deadline at the next flush boundary.
        let mut w = WorkerBudget::new(&shared);
        let mut tripped = false;
        for _ in 0..=(WORKER_FLUSH_INTERVAL * TICK_CHECK_INTERVAL) {
            if BudgetOps::tick(&mut w).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "worker ticks observe the shared deadline");
    }

    #[test]
    fn worker_ticks_flush_into_shared_steps_on_drop() {
        let mut b = Budget::unlimited().max_steps(1_000_000);
        b.tick().unwrap();
        let shared = b.share();
        {
            let mut w = WorkerBudget::new(&shared);
            for _ in 0..10 {
                BudgetOps::tick(&mut w).unwrap();
            }
        } // drop flushes the 10 buffered ticks
        assert_eq!(shared.spent_steps(), 11);
        b.absorb(&shared);
        assert_eq!(b.spent_steps(), 11);
    }

    #[test]
    fn shared_step_cap_trips_with_typed_error() {
        let b = Budget::unlimited().max_steps(WORKER_FLUSH_INTERVAL);
        let shared = b.share();
        let mut w = WorkerBudget::new(&shared);
        let mut result = Ok(());
        for _ in 0..=(2 * WORKER_FLUSH_INTERVAL) {
            result = BudgetOps::tick(&mut w);
            if result.is_err() {
                break;
            }
        }
        assert_eq!(result.unwrap_err().resource, Resource::Steps);
    }

    #[test]
    fn cancel_poisons_the_pool_for_every_worker() {
        let b = Budget::unlimited();
        let shared = b.share();
        assert!(shared.tripped().is_none());
        let e = shared.cancel();
        assert_eq!(e.resource, Resource::Cancelled);
        // Every budget check on any worker now fails fast with Cancelled.
        let mut w = WorkerBudget::new(&shared);
        assert_eq!(w.flush().unwrap_err().resource, Resource::Cancelled);
        assert_eq!(w.charge_tuples(1).unwrap_err().resource, Resource::Cancelled);
        assert_eq!(shared.check_tuple_headroom(0).unwrap_err().resource, Resource::Cancelled);
    }

    #[test]
    fn cancel_does_not_overwrite_an_earlier_trip() {
        let b = Budget::unlimited().max_tuples(1);
        let shared = b.share();
        let first = shared.charge_tuples(2).unwrap_err();
        assert_eq!(first.resource, Resource::Tuples);
        // Cancelling afterwards reports — and preserves — the first trip.
        assert_eq!(shared.cancel(), first);
        assert_eq!(shared.tripped(), Some(first));
    }

    #[test]
    fn spec_roundtrip() {
        let spec = BudgetSpec {
            timeout: Some(Duration::from_secs(5)),
            max_clauses: Some(7),
            ..BudgetSpec::default()
        };
        assert!(!spec.is_unlimited());
        let b = spec.start();
        assert!(b.deadline().is_some());
        assert!(!b.is_unlimited());
        assert!(BudgetSpec::unlimited().is_unlimited());
    }
}
