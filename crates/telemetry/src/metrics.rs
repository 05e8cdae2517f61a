//! A small metrics registry: named atomic counters, gauges, and fixed-bucket
//! latency histograms, with Prometheus-style text exposition.
//!
//! Handles returned by the registry are `Arc`-backed and cheap to clone into
//! engine workers; updates are single atomic operations, so recording a
//! metric is safe anywhere, though instrumented code only does so at stage
//! boundaries, never per row.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Upper bounds (in microseconds) of the latency histogram buckets, from
/// 100 µs to 10 s; a final implicit `+Inf` bucket catches the rest.
pub const LATENCY_BUCKETS_MICROS: [u64; 15] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 10_000_000,
];

/// A monotonically increasing counter.
#[derive(Clone, Default, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Raise the value to `total` if it is below: mirrors a monotone total
    /// kept elsewhere, safely under concurrent calls.
    pub fn raise_to(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }
}

/// A signed instantaneous value (queue depths, active workers).
#[derive(Clone, Default, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An exponentially-weighted moving average over an arbitrary `f64`
/// signal (queue waits, per-cost-unit latencies). The value is stored as
/// `f64` bits in an `AtomicU64` and updated with a CAS loop, so readers
/// and writers never block; `None` until the first observation.
#[derive(Clone, Debug)]
pub struct Ewma {
    bits: Arc<AtomicU64>,
    alpha: f64,
}

/// Sentinel for "no observation yet": a quiet NaN payload no real
/// observation can produce (observations are finite by construction).
const EWMA_EMPTY: u64 = f64::NAN.to_bits() ^ 0x0bda;

impl Ewma {
    /// A fresh average with smoothing factor `alpha` in `(0, 1]`; larger
    /// values weight recent observations more heavily.
    pub fn new(alpha: f64) -> Self {
        Ewma { bits: Arc::new(AtomicU64::new(EWMA_EMPTY)), alpha: alpha.clamp(1e-6, 1.0) }
    }

    /// Fold one observation into the average. Non-finite samples are
    /// ignored so a pathological input cannot poison the signal.
    pub fn observe(&self, sample: f64) {
        if !sample.is_finite() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = if cur == EWMA_EMPTY {
                sample
            } else {
                let prev = f64::from_bits(cur);
                prev + self.alpha * (sample - prev)
            };
            match self.bits.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The current average, or `None` before the first observation.
    pub fn get(&self) -> Option<f64> {
        let bits = self.bits.load(Ordering::Relaxed);
        (bits != EWMA_EMPTY).then(|| f64::from_bits(bits))
    }

    /// Forget all observations (used when leaving a degraded mode so the
    /// next episode starts from fresh evidence).
    pub fn reset(&self) {
        self.bits.store(EWMA_EMPTY, Ordering::Relaxed);
    }
}

impl Default for Ewma {
    /// `alpha = 0.2`: roughly a 5-sample memory, the registry default.
    fn default() -> Self {
        Ewma::new(0.2)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; LATENCY_BUCKETS_MICROS.len() + 1],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

/// A fixed-bucket latency histogram (bounds: [`LATENCY_BUCKETS_MICROS`]).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Record one duration.
    pub fn observe(&self, d: Duration) {
        self.observe_micros(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Record one duration given in microseconds.
    pub fn observe_micros(&self, micros: u64) {
        let idx = LATENCY_BUCKETS_MICROS
            .iter()
            .position(|&b| micros <= b)
            .unwrap_or(LATENCY_BUCKETS_MICROS.len());
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.0.sum_micros.load(Ordering::Relaxed)
    }

    /// Per-bucket observation counts (not cumulative); the final entry is
    /// the `+Inf` overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Estimated `q`-quantile in seconds (`q` in `[0, 1]`), by linear
    /// interpolation inside the bucket that holds the `q`-th observation —
    /// the standard Prometheus `histogram_quantile` estimate. Returns
    /// `None` when the histogram is empty. Observations in the `+Inf`
    /// overflow bucket are reported as the largest finite bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut seen = 0u64;
        for (i, count) in self.bucket_counts().into_iter().enumerate() {
            if count == 0 {
                continue;
            }
            let before = seen;
            seen += count;
            if (seen as f64) < rank {
                continue;
            }
            let Some(&upper) = LATENCY_BUCKETS_MICROS.get(i) else {
                // +Inf bucket: the best finite statement is the last bound.
                return Some(*LATENCY_BUCKETS_MICROS.last()? as f64 / 1e6);
            };
            let lower = if i == 0 { 0 } else { LATENCY_BUCKETS_MICROS[i - 1] };
            let within = (rank - before as f64) / count as f64;
            return Some((lower as f64 + (upper - lower) as f64 * within) / 1e6);
        }
        Some(*LATENCY_BUCKETS_MICROS.last()? as f64 / 1e6)
    }
}

/// Sanitises `raw` into a metric-name suffix: every run of characters
/// outside `[a-zA-Z0-9_]` collapses to one `_`, uppercase folds to
/// lowercase, and the result is capped at 48 characters — so untrusted
/// strings (tenant names, strategy labels) can be embedded in registry
/// keys without producing unparseable exposition lines.
pub fn metric_suffix(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len().min(48));
    let mut last_was_sep = false;
    for c in raw.chars() {
        if out.len() >= 48 {
            break;
        }
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c.to_ascii_lowercase());
            last_was_sep = false;
        } else if !last_was_sep {
            out.push('_');
            last_was_sep = true;
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    ewmas: Mutex<BTreeMap<String, Ewma>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A shared registry of named metrics. Cloning is cheap (one `Arc`); all
/// clones observe the same cells.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        locked(&self.inner.counters).entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        locked(&self.inner.gauges).entry(name.to_string()).or_default().clone()
    }

    /// The EWMA named `name`, registering it on first use with smoothing
    /// factor `alpha` (ignored for an already-registered name).
    pub fn ewma(&self, name: &str, alpha: f64) -> Ewma {
        locked(&self.inner.ewmas)
            .entry(name.to_string())
            .or_insert_with(|| Ewma::new(alpha))
            .clone()
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        locked(&self.inner.histograms).entry(name.to_string()).or_default().clone()
    }

    /// Render every metric as Prometheus-style text, sorted by name.
    /// Histogram buckets are cumulative with `le` labels in seconds.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, c) in locked(&self.inner.counters).iter() {
            out.push_str(&format!("{name} {}\n", c.get()));
        }
        for (name, g) in locked(&self.inner.gauges).iter() {
            out.push_str(&format!("{name} {}\n", g.get()));
        }
        for (name, e) in locked(&self.inner.ewmas).iter() {
            out.push_str(&format!("{name} {}\n", e.get().unwrap_or(0.0)));
        }
        for (name, h) in locked(&self.inner.histograms).iter() {
            let mut cumulative = 0u64;
            for (i, count) in h.bucket_counts().iter().enumerate() {
                cumulative += count;
                let le = match LATENCY_BUCKETS_MICROS.get(i) {
                    Some(&bound) => format!("{}", bound as f64 / 1e6),
                    None => "+Inf".to_string(),
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_count {}\n", h.count()));
            out.push_str(&format!("{name}_sum {}\n", h.sum_micros() as f64 / 1e6));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_shared_across_clones() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("requests");
        c.inc();
        reg.clone().counter("requests").add(2);
        assert_eq!(reg.counter("requests").get(), 3);
        c.raise_to(7);
        c.raise_to(5);
        assert_eq!(reg.counter("requests").get(), 7, "raise_to never lowers");
        let g = reg.gauge("active");
        g.set(4);
        g.add(-1);
        assert_eq!(reg.gauge("active").get(), 3);
    }

    #[test]
    fn histogram_buckets_cover_range() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(50)); // first bucket (<= 100us)
        h.observe(Duration::from_millis(3)); // <= 5ms bucket
        h.observe(Duration::from_secs(60)); // +Inf overflow
        assert_eq!(h.count(), 3);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[LATENCY_BUCKETS_MICROS.len()], 1);
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        // 100 observations at ~200µs: they all land in the (100, 250]µs
        // bucket, so every quantile interpolates inside it.
        for _ in 0..100 {
            h.observe(Duration::from_micros(200));
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((0.0001..=0.00025).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= p50 && p99 <= 0.00025, "p99 = {p99}");
        // A tail observation beyond the last bound clamps to it.
        h.observe(Duration::from_secs(100));
        let p100 = h.quantile(1.0).unwrap();
        assert!((p100 - 10.0).abs() < 1e-9, "overflow clamps to 10s: {p100}");
    }

    #[test]
    fn ewma_smooths_and_shares_across_clones() {
        let e = Ewma::new(0.5);
        assert_eq!(e.get(), None, "no observation yet");
        e.observe(100.0);
        assert_eq!(e.get(), Some(100.0), "first observation seeds the average");
        e.clone().observe(0.0);
        assert_eq!(e.get(), Some(50.0), "clones share the same cell");
        e.observe(f64::NAN);
        e.observe(f64::INFINITY);
        assert_eq!(e.get(), Some(50.0), "non-finite samples are ignored");
        e.reset();
        assert_eq!(e.get(), None);
        // Registry path: alpha is fixed on first registration.
        let reg = MetricsRegistry::new();
        reg.ewma("queue_wait", 0.5).observe(10.0);
        reg.ewma("queue_wait", 0.9).observe(20.0);
        assert_eq!(reg.ewma("queue_wait", 0.5).get(), Some(15.0));
        assert!(reg.render_text().contains("queue_wait 15\n"));
    }

    #[test]
    fn metric_suffix_sanitises_untrusted_names() {
        assert_eq!(metric_suffix("tenant-a"), "tenant_a");
        assert_eq!(metric_suffix("Hot Tenant!!"), "hot_tenant_");
        assert_eq!(metric_suffix("ok_name9"), "ok_name9");
        assert_eq!(metric_suffix(""), "_");
        assert_eq!(metric_suffix("é£é"), "_");
        assert!(metric_suffix(&"x".repeat(200)).len() <= 48);
    }

    #[test]
    fn text_exposition_is_sorted_and_cumulative() {
        let reg = MetricsRegistry::new();
        reg.counter("b_count").inc();
        reg.counter("a_count").inc();
        let h = reg.histogram("latency_seconds");
        h.observe(Duration::from_micros(10));
        h.observe(Duration::from_micros(10));
        let text = reg.render_text();
        let a = text.find("a_count 1").unwrap_or(usize::MAX);
        let b = text.find("b_count 1").unwrap_or(usize::MAX);
        assert!(a < b, "names must be sorted: {text}");
        assert!(text.contains("latency_seconds_bucket{le=\"0.0001\"} 2"));
        assert!(text.contains("latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("latency_seconds_count 2"));
    }
}
