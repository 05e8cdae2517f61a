//! Structured tracing and metrics for the OBDA pipeline.
//!
//! Two independent facilities share this crate:
//!
//! * **Tracing** — the [`Tracer`] trait receives *spans* (named, nested,
//!   timed regions: parse → saturate → rewrite → prune → eval →
//!   demand-schedule → batch → oracle-check, plus per-attempt and per-clause spans). The
//!   default sink is [`NoopTracer`], whose `start` returns `None` so every
//!   downstream call is skipped; [`CollectingTracer`] records spans into a
//!   mutex-guarded vector and renders them as a pretty tree or JSON.
//! * **Metrics** — [`MetricsRegistry`] hands out shared atomic
//!   [`metrics::Counter`]s, [`metrics::Gauge`]s and fixed-bucket latency
//!   [`metrics::Histogram`]s, and renders the whole registry as
//!   Prometheus-style text.
//!
//! The zero-cost contract: instrumented code pays one virtual `start` call
//! per *span* (never per row) when tracing is off, and metric handles are
//! pre-registered `Arc<Atomic*>` cells updated outside hot loops.
//! `experiments benchguard` holds the pipeline to this contract.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;

pub use metrics::{metric_suffix, Counter, Ewma, Gauge, Histogram, MetricsRegistry};

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Opaque identifier of a live span within one tracer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SpanId(u64);

/// A sink for nested, timed spans.
///
/// Implementations must be `Sync`: engine workers start clause spans from
/// several threads under one shared parent.
pub trait Tracer: Sync {
    /// Whether this tracer records anything. Callers may use this to skip
    /// building expensive attribute values.
    fn enabled(&self) -> bool;

    /// Open a span. Returns `None` when the tracer discards it, in which
    /// case the caller never calls [`Tracer::end`] or the attribute methods.
    fn start(&self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId>;

    /// Close a span, fixing its duration.
    fn end(&self, span: SpanId);

    /// Attach a numeric attribute (row counts, clause counts, …).
    fn attr(&self, span: SpanId, key: &'static str, value: u64);

    /// Attach a string attribute (strategy names, predicate names, …).
    fn attr_str(&self, span: SpanId, key: &'static str, value: &str);

    /// Tag the span as failed with a short message.
    fn error(&self, span: SpanId, message: &str);
}

/// The do-nothing tracer: `start` returns `None`, so instrumented code pays
/// a single virtual call per span and nothing per attribute or row.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
    #[inline]
    fn start(&self, _name: &'static str, _parent: Option<SpanId>) -> Option<SpanId> {
        None
    }
    #[inline]
    fn end(&self, _span: SpanId) {}
    #[inline]
    fn attr(&self, _span: SpanId, _key: &'static str, _value: u64) {}
    #[inline]
    fn attr_str(&self, _span: SpanId, _key: &'static str, _value: &str) {}
    #[inline]
    fn error(&self, _span: SpanId, _message: &str) {}
}

/// RAII guard for one span: closes it on drop, forwards attributes, and
/// carries the tracer reference so call sites stay one-liners.
pub struct Span<'a> {
    tracer: &'a dyn Tracer,
    id: Option<SpanId>,
}

impl<'a> Span<'a> {
    /// The underlying span id, if the tracer kept the span.
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }

    /// Attach a numeric attribute.
    pub fn attr(&self, key: &'static str, value: u64) {
        if let Some(id) = self.id {
            self.tracer.attr(id, key, value);
        }
    }

    /// Attach a string attribute.
    pub fn attr_str(&self, key: &'static str, value: &str) {
        if let Some(id) = self.id {
            self.tracer.attr_str(id, key, value);
        }
    }

    /// Tag the span as failed.
    pub fn error(&self, message: &str) {
        if let Some(id) = self.id {
            self.tracer.error(id, message);
        }
    }

    /// Close the span now instead of at end of scope.
    pub fn end(mut self) {
        if let Some(id) = self.id.take() {
            self.tracer.end(id);
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id.take() {
            self.tracer.end(id);
        }
    }
}

/// The telemetry context threaded through the pipeline: a tracer, the span
/// to parent new spans under, and an optional metrics registry. `Copy`, so
/// it is cheap to hand to every stage and worker.
#[derive(Clone, Copy)]
pub struct Telemetry<'a> {
    /// Span sink; [`NoopTracer`] when tracing is off.
    pub tracer: &'a dyn Tracer,
    /// Parent for spans opened through [`Telemetry::span`].
    pub parent: Option<SpanId>,
    /// Metrics registry, when the caller wants counters recorded.
    pub metrics: Option<&'a MetricsRegistry>,
}

impl<'a> Telemetry<'a> {
    /// A context that records nothing; the default for untraced entry points.
    pub fn disabled() -> Telemetry<'static> {
        Telemetry { tracer: &NoopTracer, parent: None, metrics: None }
    }

    /// A root context over `tracer` with optional metrics.
    pub fn new(tracer: &'a dyn Tracer, metrics: Option<&'a MetricsRegistry>) -> Self {
        Telemetry { tracer, parent: None, metrics }
    }

    /// Open a span under the current parent.
    pub fn span(&self, name: &'static str) -> Span<'a> {
        Span { tracer: self.tracer, id: self.tracer.start(name, self.parent) }
    }

    /// A child context whose spans nest under `span`. If the tracer dropped
    /// `span`, the parent is unchanged.
    pub fn under(&self, span: &Span<'a>) -> Telemetry<'a> {
        Telemetry { tracer: self.tracer, parent: span.id().or(self.parent), metrics: self.metrics }
    }
}

/// One recorded span, as stored by [`CollectingTracer`].
struct SpanRec {
    name: &'static str,
    parent: Option<u64>,
    start: Duration,
    end: Option<Duration>,
    attrs: Vec<(&'static str, u64)>,
    str_attrs: Vec<(&'static str, String)>,
    error: Option<String>,
}

/// A tracer that records every span into memory for later rendering or
/// programmatic inspection (see [`CollectingTracer::snapshot`]).
pub struct CollectingTracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for CollectingTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl CollectingTracer {
    /// An empty tracer; the epoch for span timestamps is `now`.
    pub fn new() -> Self {
        CollectingTracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Assemble the recorded spans into a tree. Spans still open at snapshot
    /// time get `ended = false` and a duration up to the snapshot instant.
    pub fn snapshot(&self) -> TraceTree {
        let now = self.epoch.elapsed();
        let spans = self.lock();
        // children[i] lists the record indices whose parent is i, in start
        // order (records are pushed in start order).
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, rec) in spans.iter().enumerate() {
            match rec.parent {
                Some(p) if (p as usize) < spans.len() && (p as usize) != i => {
                    children[p as usize].push(i);
                }
                _ => roots.push(i),
            }
        }
        fn build(spans: &[SpanRec], children: &[Vec<usize>], i: usize, now: Duration) -> TraceSpan {
            let rec = &spans[i];
            TraceSpan {
                name: rec.name,
                duration: rec.end.unwrap_or(now).saturating_sub(rec.start),
                ended: rec.end.is_some(),
                attrs: rec.attrs.clone(),
                str_attrs: rec.str_attrs.clone(),
                error: rec.error.clone(),
                children: children[i].iter().map(|&c| build(spans, children, c, now)).collect(),
            }
        }
        TraceTree { roots: roots.iter().map(|&r| build(&spans, &children, r, now)).collect() }
    }
}

impl Tracer for CollectingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn start(&self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let start = self.epoch.elapsed();
        let mut spans = self.lock();
        let id = spans.len() as u64;
        spans.push(SpanRec {
            name,
            parent: parent.map(|p| p.0),
            start,
            end: None,
            attrs: Vec::new(),
            str_attrs: Vec::new(),
            error: None,
        });
        Some(SpanId(id))
    }

    fn end(&self, span: SpanId) {
        let end = self.epoch.elapsed();
        let mut spans = self.lock();
        if let Some(rec) = spans.get_mut(span.0 as usize) {
            if rec.end.is_none() {
                rec.end = Some(end);
            }
        }
    }

    fn attr(&self, span: SpanId, key: &'static str, value: u64) {
        if let Some(rec) = self.lock().get_mut(span.0 as usize) {
            rec.attrs.push((key, value));
        }
    }

    fn attr_str(&self, span: SpanId, key: &'static str, value: &str) {
        if let Some(rec) = self.lock().get_mut(span.0 as usize) {
            rec.str_attrs.push((key, value.to_string()));
        }
    }

    fn error(&self, span: SpanId, message: &str) {
        if let Some(rec) = self.lock().get_mut(span.0 as usize) {
            rec.error = Some(message.to_string());
        }
    }
}

/// One span in a finished [`TraceTree`].
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Span name (`"eval"`, `"clause"`, `"attempt"`, …).
    pub name: &'static str,
    /// Wall-clock duration; up to the snapshot instant if never ended.
    pub duration: Duration,
    /// Whether [`Tracer::end`] was called before the snapshot.
    pub ended: bool,
    /// Numeric attributes in attachment order.
    pub attrs: Vec<(&'static str, u64)>,
    /// String attributes in attachment order.
    pub str_attrs: Vec<(&'static str, String)>,
    /// Error tag, if the span failed.
    pub error: Option<String>,
    /// Child spans in start order.
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    /// First numeric attribute named `key`.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// First string attribute named `key`.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.str_attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }
}

/// A forest of finished spans, ready to render or inspect.
#[derive(Clone, Debug, Default)]
pub struct TraceTree {
    /// Top-level spans in start order.
    pub roots: Vec<TraceSpan>,
}

impl TraceTree {
    /// Depth-first iteration over every span in the tree.
    pub fn iter(&self) -> impl Iterator<Item = &TraceSpan> {
        let mut stack: Vec<&TraceSpan> = self.roots.iter().rev().collect();
        std::iter::from_fn(move || {
            let span = stack.pop()?;
            stack.extend(span.children.iter().rev());
            Some(span)
        })
    }

    /// Human-readable indented tree with durations and attributes.
    pub fn render_pretty(&self) -> String {
        fn fmt_span(out: &mut String, span: &TraceSpan, depth: usize) {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(span.name);
            for (k, v) in &span.str_attrs {
                out.push_str(&format!(" {k}={v}"));
            }
            for (k, v) in &span.attrs {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push_str(&format!("  {:.3} ms", span.duration.as_secs_f64() * 1e3));
            if !span.ended {
                out.push_str(" (unfinished)");
            }
            if let Some(err) = &span.error {
                out.push_str(&format!("  !error: {err}"));
            }
            out.push('\n');
            for child in &span.children {
                fmt_span(out, child, depth + 1);
            }
        }
        let mut out = String::new();
        for root in &self.roots {
            fmt_span(&mut out, root, 0);
        }
        out
    }

    /// Compact JSON: an array of root spans, each
    /// `{"name","ms","ended","attrs":{...},"error","children":[...]}`.
    pub fn render_json(&self) -> String {
        fn fmt_span(out: &mut String, span: &TraceSpan) {
            out.push_str(&format!(
                "{{\"name\":{},\"ms\":{:.3},\"ended\":{}",
                json_string(span.name),
                span.duration.as_secs_f64() * 1e3,
                span.ended
            ));
            out.push_str(",\"attrs\":{");
            let mut first = true;
            for (k, v) in &span.str_attrs {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("{}:{}", json_string(k), json_string(v)));
            }
            for (k, v) in &span.attrs {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("{}:{v}", json_string(k)));
            }
            out.push('}');
            match &span.error {
                Some(err) => out.push_str(&format!(",\"error\":{}", json_string(err))),
                None => out.push_str(",\"error\":null"),
            }
            out.push_str(",\"children\":[");
            for (i, child) in span.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                fmt_span(out, child);
            }
            out.push_str("]}");
        }
        let mut out = String::from("[");
        for (i, root) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            fmt_span(&mut out, root);
        }
        out.push(']');
        out
    }
}

/// Escape `s` as a JSON string literal (with surrounding quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_discards_spans() {
        let tracer = NoopTracer;
        assert!(!tracer.enabled());
        assert!(tracer.start("x", None).is_none());
        let telem = Telemetry::new(&tracer, None);
        let span = telem.span("root");
        assert!(span.id().is_none());
        span.attr("k", 1);
    }

    #[test]
    fn collecting_builds_nested_tree() {
        let tracer = CollectingTracer::new();
        let telem = Telemetry::new(&tracer, None);
        let root = telem.span("root");
        root.attr("n", 7);
        let inner = telem.under(&root);
        {
            let child = inner.span("child");
            child.attr_str("kind", "left");
        }
        {
            let child = inner.span("child");
            child.error("boom");
        }
        root.end();
        let tree = tracer.snapshot();
        assert_eq!(tree.roots.len(), 1);
        let root = &tree.roots[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.attr("n"), Some(7));
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].attr_str("kind"), Some("left"));
        assert_eq!(root.children[1].error.as_deref(), Some("boom"));
        assert!(tree.iter().all(|s| s.ended));
        assert_eq!(tree.iter().count(), 3);
    }

    #[test]
    fn unended_spans_survive_snapshot() {
        let tracer = CollectingTracer::new();
        let telem = Telemetry::new(&tracer, None);
        let root = telem.span("root");
        let tree = tracer.snapshot();
        assert_eq!(tree.roots.len(), 1);
        assert!(!tree.roots[0].ended);
        drop(root);
        assert!(tracer.snapshot().roots[0].ended);
    }

    #[test]
    fn json_rendering_escapes_and_nests() {
        let tracer = CollectingTracer::new();
        let telem = Telemetry::new(&tracer, None);
        let root = telem.span("req\"uest");
        root.attr("rows", 3);
        root.end();
        let json = tracer.snapshot().render_json();
        assert!(json.starts_with("[{\"name\":\"req\\\"uest\""));
        assert!(json.contains("\"rows\":3"));
        assert!(json.contains("\"children\":[]"));
    }

    #[test]
    fn pretty_rendering_indents_children() {
        let tracer = CollectingTracer::new();
        let telem = Telemetry::new(&tracer, None);
        let root = telem.span("request");
        {
            let _child = telem.under(&root).span("eval");
        }
        root.end();
        let text = tracer.snapshot().render_pretty();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("request"));
        assert!(lines[1].starts_with("  eval"));
    }
}
