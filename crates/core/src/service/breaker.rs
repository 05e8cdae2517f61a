//! Circuit breakers for the overload-control subsystem.
//!
//! A [`CircuitBreaker`] tracks the recent outcomes of one failure domain —
//! a prepared query's strategy or a tenant — in a rolling window and trips
//! **open** when failures dominate, so the next requests are refused
//! immediately instead of re-burning a deadline on work that is known to
//! fail. After a cooldown the breaker turns **half-open** and admits a
//! single probe: a success closes it, a failure re-opens it with an
//! exponentially longer, jittered cooldown.
//!
//! Every public method takes an explicit `now: Instant` so tests drive the
//! clock deterministically, and the reopen jitter comes from a seeded
//! [`splitmix64`](crate::pipeline) stream — two runs with the same seed
//! produce the same schedule, which keeps the chaos suite reproducible.
//!
//! Outcome classification is the caller's job (see
//! [`AttemptClass`]): only failures that
//! indicate the domain itself is unhealthy (budget exhaustion, panics,
//! stalls) should be recorded as [`AttemptClass::Failure`]; transient
//! infrastructure noise is [`AttemptClass::Neutral`] and never moves the
//! breaker.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::pipeline::splitmix64;

/// How one request counts towards a breaker, as the caller classified
/// its outcome for [`CircuitBreaker::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptClass {
    /// The request produced answers.
    Success,
    /// The request burned its budget or died (budget trip, stall,
    /// panic) — the signal that trips a breaker.
    Failure,
    /// Outcomes that say nothing about the domain's health:
    /// structural refusals (a per-query property) and injected
    /// transients (substrate hiccups, retried anyway).
    Neutral,
}

/// Tuning knobs for one breaker (and, via [`BreakerSet`], for every
/// breaker in a keyed family).
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Rolling outcome window (requests) inspected for the trip decision.
    pub window: usize,
    /// Failures within the window that trip the breaker open.
    pub threshold: usize,
    /// Base cooldown before an open breaker admits a probe; doubles on
    /// each consecutive reopen (capped at `2^5`) plus seeded jitter.
    pub cooldown: Duration,
    /// Consecutive half-open probe successes required to close.
    pub probes: usize,
    /// Seed for the deterministic reopen jitter stream.
    pub seed: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 16,
            threshold: 8,
            cooldown: Duration::from_millis(500),
            probes: 2,
            seed: 0x0bda_5eed,
        }
    }
}

/// A state-machine transition reported by [`CircuitBreaker::record`] /
/// [`CircuitBreaker::admit`], for metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// Closed → open: the rolling window crossed the failure threshold.
    Opened,
    /// Open → half-open: the cooldown elapsed and a probe was admitted.
    HalfOpened,
    /// Half-open → closed: enough probes succeeded.
    Closed,
    /// Half-open → open: a probe failed; cooldown doubled.
    Reopened,
}

impl Transition {
    /// Metric-suffix name for the transition.
    pub fn name(self) -> &'static str {
        match self {
            Transition::Opened => "opened",
            Transition::HalfOpened => "half_opened",
            Transition::Closed => "closed",
            Transition::Reopened => "reopened",
        }
    }
}

#[derive(Debug)]
enum State {
    /// Healthy: ring buffer of the last `window` outcomes (true = failure).
    Closed { ring: Vec<bool>, next: usize, filled: usize },
    /// Tripped: refuse until the deadline; `trips` counts consecutive
    /// reopens for the exponential backoff.
    Open { until: Instant, trips: u32 },
    /// Probing: one request in flight at a time; `successes` consecutive
    /// good probes close the breaker.
    HalfOpen { successes: usize, inflight: usize, trips: u32 },
}

#[derive(Debug)]
struct Inner {
    state: State,
    /// Monotone jitter-stream position (distinct value per reopen).
    jitter_calls: u64,
}

/// A single closed / open / half-open circuit breaker. Cheap to share
/// (`Arc` it); all methods lock one small mutex.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<Inner>,
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl CircuitBreaker {
    /// A closed breaker with the given configuration (window and
    /// threshold are clamped to at least 1).
    pub fn new(cfg: BreakerConfig) -> Self {
        let cfg = BreakerConfig {
            window: cfg.window.max(1),
            threshold: cfg.threshold.max(1),
            probes: cfg.probes.max(1),
            ..cfg
        };
        let ring = vec![false; cfg.window];
        CircuitBreaker {
            cfg,
            inner: Mutex::new(Inner {
                state: State::Closed { ring, next: 0, filled: 0 },
                jitter_calls: 0,
            }),
        }
    }

    /// Ask to send one request through this domain. `Ok(transition)` means
    /// admitted (with `Some(HalfOpened)` when this request is the probe
    /// that moved the breaker out of open); `Err(retry_after)` means the
    /// breaker is refusing and the caller should fail fast.
    pub fn admit(&self, now: Instant) -> Result<Option<Transition>, Duration> {
        let mut inner = locked(&self.inner);
        match &mut inner.state {
            State::Closed { .. } => Ok(None),
            State::Open { until, trips } => {
                if now < *until {
                    return Err(until.saturating_duration_since(now));
                }
                let trips = *trips;
                inner.state = State::HalfOpen { successes: 0, inflight: 1, trips };
                Ok(Some(Transition::HalfOpened))
            }
            State::HalfOpen { inflight, .. } => {
                if *inflight > 0 {
                    // One probe at a time; everyone else waits a beat.
                    return Err(self.cfg.cooldown / 4);
                }
                *inflight = 1;
                Ok(None)
            }
        }
    }

    /// Record the outcome of an admitted request. Returns the transition
    /// it caused, if any.
    pub fn record(&self, class: AttemptClass, now: Instant) -> Option<Transition> {
        let mut inner = locked(&self.inner);
        match &mut inner.state {
            State::Closed { ring, next, filled } => {
                if class == AttemptClass::Neutral {
                    return None;
                }
                ring[*next] = class == AttemptClass::Failure;
                *next = (*next + 1) % ring.len();
                *filled = (*filled + 1).min(ring.len());
                let failures = ring.iter().filter(|&&f| f).count();
                if failures >= self.cfg.threshold {
                    let until = now + self.open_for(&mut inner, 0);
                    inner.state = State::Open { until, trips: 0 };
                    return Some(Transition::Opened);
                }
                None
            }
            State::Open { .. } => None, // late record from before the trip
            State::HalfOpen { successes, inflight, trips } => {
                *inflight = inflight.saturating_sub(1);
                match class {
                    AttemptClass::Neutral => None,
                    AttemptClass::Success => {
                        *successes += 1;
                        if *successes >= self.cfg.probes {
                            inner.state = State::Closed {
                                ring: vec![false; self.cfg.window],
                                next: 0,
                                filled: 0,
                            };
                            return Some(Transition::Closed);
                        }
                        None
                    }
                    AttemptClass::Failure => {
                        let trips = trips.saturating_add(1);
                        let until = now + self.open_for(&mut inner, trips);
                        inner.state = State::Open { until, trips };
                        Some(Transition::Reopened)
                    }
                }
            }
        }
    }

    /// Cooldown for the `trips`-th consecutive open: base × 2^min(trips, 5)
    /// plus jitter in `[0, base/2]` from the seeded stream.
    fn open_for(&self, inner: &mut Inner, trips: u32) -> Duration {
        inner.jitter_calls += 1;
        let base = self.cfg.cooldown.max(Duration::from_millis(1));
        let scaled = base.saturating_mul(1 << trips.min(5));
        let span = (base.as_millis() as u64 / 2).max(1);
        let jitter = splitmix64(self.cfg.seed ^ inner.jitter_calls) % span;
        scaled + Duration::from_millis(jitter)
    }

    /// The current state's name, for metrics and diagnostics. An expired
    /// open still reports as `open` — the transition to half-open only
    /// happens on `admit`.
    pub fn state_name(&self) -> &'static str {
        match locked(&self.inner).state {
            State::Closed { .. } => "closed",
            State::Open { .. } => "open",
            State::HalfOpen { .. } => "half_open",
        }
    }
}

/// A lazily-populated family of breakers sharing one configuration,
/// keyed by an arbitrary string (strategy name, tenant name).
#[derive(Clone)]
pub struct BreakerSet {
    cfg: BreakerConfig,
    members: Arc<Mutex<HashMap<String, Arc<CircuitBreaker>>>>,
}

impl BreakerSet {
    /// An empty set; members are created on first access.
    pub fn new(cfg: BreakerConfig) -> Self {
        BreakerSet { cfg, members: Arc::new(Mutex::new(HashMap::new())) }
    }

    /// The breaker for `key`, creating a closed one on first use. Each
    /// member derives its jitter seed from the set seed and the key so
    /// sibling breakers don't trip and reopen in lockstep.
    pub fn breaker(&self, key: &str) -> Arc<CircuitBreaker> {
        let mut members = locked(&self.members);
        if let Some(b) = members.get(key) {
            return Arc::clone(b);
        }
        let mut seed = self.cfg.seed;
        for byte in key.bytes() {
            seed = splitmix64(seed ^ u64::from(byte));
        }
        let b = Arc::new(CircuitBreaker::new(BreakerConfig { seed, ..self.cfg.clone() }));
        members.insert(key.to_string(), Arc::clone(&b));
        b
    }

    /// Snapshot of `(key, state_name)` pairs, sorted by key, for metrics.
    pub fn states(&self) -> Vec<(String, &'static str)> {
        let members = locked(&self.members);
        let mut out: Vec<_> = members.iter().map(|(k, b)| (k.clone(), b.state_name())).collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            threshold: 2,
            cooldown: Duration::from_millis(100),
            probes: 2,
            seed: 7,
        }
    }

    #[test]
    fn opens_at_the_failure_threshold_and_refuses_until_cooldown() {
        let b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        assert_eq!(b.admit(t0), Ok(None));
        assert_eq!(b.record(AttemptClass::Failure, t0), None, "1 failure < threshold");
        assert_eq!(b.state_name(), "closed");
        let tr = b.record(AttemptClass::Failure, t0);
        assert_eq!(tr, Some(Transition::Opened), "2nd failure in window of 4 trips");
        assert_eq!(b.state_name(), "open");
        // Refused while the (jittered ≥ base) cooldown runs.
        let retry = b.admit(t0).unwrap_err();
        assert!(retry >= Duration::from_millis(100), "retry_after = {retry:?}");
        assert!(retry <= Duration::from_millis(150), "jitter ≤ base/2: {retry:?}");
        // Late records from requests admitted before the trip are ignored.
        assert_eq!(b.record(AttemptClass::Failure, t0), None);
        assert_eq!(b.state_name(), "open");
    }

    #[test]
    fn half_open_probe_success_closes_and_failure_reopens_doubled() {
        let b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        for _ in 0..2 {
            b.record(AttemptClass::Failure, t0);
        }
        let after = t0 + Duration::from_millis(200); // past cooldown + jitter
        assert_eq!(b.admit(after), Ok(Some(Transition::HalfOpened)));
        assert_eq!(b.state_name(), "half_open");
        // A second caller can't pile onto the probe.
        assert!(b.admit(after).is_err(), "one probe at a time");
        // Probe fails → reopen with doubled cooldown.
        assert_eq!(b.record(AttemptClass::Failure, after), Some(Transition::Reopened));
        let retry = b.admit(after).unwrap_err();
        assert!(retry >= Duration::from_millis(200), "doubled cooldown: {retry:?}");
        // Next probe round: two successes close it.
        let later = after + Duration::from_secs(1);
        assert_eq!(b.admit(later), Ok(Some(Transition::HalfOpened)));
        assert_eq!(b.record(AttemptClass::Success, later), None, "1 of 2 probes");
        assert_eq!(b.admit(later), Ok(None));
        assert_eq!(b.record(AttemptClass::Success, later), Some(Transition::Closed));
        assert_eq!(b.state_name(), "closed");
        assert_eq!(b.admit(later), Ok(None));
    }

    #[test]
    fn neutral_outcomes_never_move_the_state_machine() {
        let b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        for _ in 0..16 {
            assert_eq!(b.record(AttemptClass::Neutral, t0), None);
        }
        assert_eq!(b.state_name(), "closed");
        // In half-open, a neutral outcome releases the probe slot without
        // counting for or against closing.
        for _ in 0..2 {
            b.record(AttemptClass::Failure, t0);
        }
        let after = t0 + Duration::from_millis(200);
        assert_eq!(b.admit(after), Ok(Some(Transition::HalfOpened)));
        assert_eq!(b.record(AttemptClass::Neutral, after), None);
        assert_eq!(b.state_name(), "half_open");
        assert_eq!(b.admit(after), Ok(None), "slot released for the next probe");
    }

    #[test]
    fn successes_age_failures_out_of_the_rolling_window() {
        let b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        // failure, success, success, success, failure: the window of 4
        // holds [success ×3, failure] — only 1 failure, stays closed.
        b.record(AttemptClass::Failure, t0);
        for _ in 0..3 {
            b.record(AttemptClass::Success, t0);
        }
        assert_eq!(b.record(AttemptClass::Failure, t0), None);
        assert_eq!(b.state_name(), "closed");
    }

    #[test]
    fn jitter_is_deterministic_for_a_seed_and_varies_across_seeds() {
        let retry_at = |seed: u64| {
            let b = CircuitBreaker::new(BreakerConfig { seed, ..cfg() });
            let t0 = Instant::now();
            b.record(AttemptClass::Failure, t0);
            b.record(AttemptClass::Failure, t0);
            b.admit(t0).unwrap_err()
        };
        // Instant::now differs between constructions, so compare the
        // duration directly: same seed → same jittered cooldown.
        assert_eq!(retry_at(7), retry_at(7));
        let distinct: std::collections::HashSet<_> =
            (0..8).map(|s| retry_at(s).as_millis()).collect();
        assert!(distinct.len() > 1, "jitter must vary across seeds: {distinct:?}");
    }

    #[test]
    fn breaker_set_members_are_shared_and_seeded_per_key() {
        let set = BreakerSet::new(cfg());
        let a = set.breaker("ucq");
        a.record(AttemptClass::Failure, Instant::now());
        a.record(AttemptClass::Failure, Instant::now());
        assert_eq!(set.breaker("ucq").state_name(), "open", "same Arc on re-access");
        assert_eq!(set.breaker("tw").state_name(), "closed");
        assert_eq!(set.states(), vec![("tw".to_string(), "closed"), ("ucq".to_string(), "open")]);
    }
}
