//! The traced run: each workload's request stream replayed in-process
//! through the layers' public entry points, with spans recorded here in
//! the benchmark and never inside the program.

use crate::workload::{self, Digest, Mode, ONTOLOGY};
use obda::budget::Budget;
use obda::ndl::engine::{evaluate_pruned_planned_on_traced, EngineConfig};
use obda::ndl::planner::{plan_query, QueryPlan};
use obda::ndl::relevance::{prune_for_goal, PrunedQuery};
use obda::telemetry::Telemetry;
use obda::{ObdaSystem, Snapshot, Strategy};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// Spans kept in memory for the whole run and written out at the end.
pub struct Recorder {
    /// A disabled recorder runs every span's body untimed.
    pub enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end = end;
        }
    }

    /// Times `f` as a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                    s.name,
                    s.request,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.start,
                    s.end
                )
            })
            .collect()
    }
}

/// Per-request layer figures of one traced request: self time per span
/// name (ns) plus the counts the layers report.
#[derive(Debug, Default, Clone)]
pub struct Traced {
    pub wall_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Clauses of the rewriting, and of it after pruning.
    pub clauses: usize,
    pub clauses_kept: usize,
    pub tuples: usize,
    pub answers: usize,
    pub bytes_touched: u64,
    pub columns_touched: u64,
}

/// Self time of every span in `spans[first..]` (its duration minus the
/// durations of its direct children), keyed by span index.
fn self_times(spans: &[Span], first: usize) -> Vec<(usize, u64)> {
    let mut child_ns = vec![0u64; spans.len() - first];
    for s in &spans[first..] {
        if let Some(p) = s.parent.filter(|&p| p >= first) {
            child_ns[p - first] += s.end - s.start;
        }
    }
    spans[first..]
        .iter()
        .enumerate()
        .map(|(i, s)| (first + i, (s.end - s.start) - child_ns[i]))
        .collect()
}

/// A prepared entry of the in-process replay, as the server's cache
/// would hold it.
struct Prepared {
    pruned: PrunedQuery,
    plan: QueryPlan,
    clauses: usize,
}

/// The in-process replay of one workload over its snapshot.
pub struct Replay<'a> {
    mode: Mode,
    snapshot_path: &'a Path,
    system: ObdaSystem,
    snapshot: Snapshot,
    cache: BTreeMap<String, Prepared>,
}

impl<'a> Replay<'a> {
    pub fn new(mode: Mode, snapshot_path: &'a Path) -> Result<Replay<'a>, String> {
        let system = workload::system()?;
        let snapshot = Snapshot::open(snapshot_path, system.ontology().vocab())
            .map_err(|e| format!("open snapshot: {e}"))?;
        Ok(Replay { mode, snapshot_path, system, snapshot, cache: BTreeMap::new() })
    }

    /// parse → rewrite (prepare) → prune → plan, each its own span, with
    /// classification timed beside the request (the served path never
    /// classifies, so it stays outside the request's wall time).
    fn prepare(
        rec: &mut Recorder,
        system: &ObdaSystem,
        snapshot: &Snapshot,
        text: &str,
    ) -> Result<Prepared, String> {
        let query =
            rec.span("cq.parse", |_| system.parse_query(text)).map_err(|e| e.to_string())?;
        let omq = rec
            .span("rewrite.rewrite", |_| {
                system.prepare_budgeted(&query, Strategy::Adaptive, &mut Budget::unlimited())
            })
            .map_err(|e| e.to_string())?;
        let pruned = rec.span("ndl.relevance.prune", |_| prune_for_goal(omq.rewriting()));
        let plan = rec.span("ndl.planner.plan", |_| plan_query(&pruned.query, snapshot.database()));
        Ok(Prepared { pruned, plan, clauses: omq.num_clauses() })
    }

    fn classify(rec: &mut Recorder, system: &ObdaSystem, text: &str) -> Result<(), String> {
        let query = system.parse_query(text).map_err(|e| e.to_string())?;
        rec.span("pipeline.classify", |_| std::hint::black_box(system.classify(&query)));
        Ok(())
    }

    /// Fills the replay's prepared cache, as `hot_cached`'s warm-up fills
    /// the server's.
    pub fn warm(&mut self, rec: &mut Recorder, text: &str) -> Result<(), String> {
        rec.request += 1;
        let p = rec.span("warmup", |rec| Self::prepare(rec, &self.system, &self.snapshot, text))?;
        self.cache.insert(text.to_owned(), p);
        Ok(())
    }

    /// Replays one request and checks its answers. On a disabled
    /// recorder nothing but the request's wall time is taken.
    pub fn request(
        &mut self,
        rec: &mut Recorder,
        text: &str,
        expect: Digest,
    ) -> Result<Traced, String> {
        rec.request += 1;
        if rec.enabled && self.mode != Mode::Hot {
            Self::classify(rec, &self.system, text)?;
        }
        let first = rec.spans.len();
        let start = Instant::now();
        rec.open("request");
        let out = self.run(rec, text);
        rec.close();
        let wall = start.elapsed();
        let (mut t, body) = out?;
        let got = Digest::of_lines(body.lines());
        if got != expect {
            return Err(format!("in-process answers {got:?} differ from the oracle's {expect:?}"));
        }
        if !rec.enabled {
            t.wall_ns = wall.as_nanos() as u64;
            return Ok(t);
        }
        let root = &rec.spans[first];
        t.wall_ns = root.end - root.start;
        let mut sum = 0u64;
        for (i, ns) in self_times(&rec.spans, first) {
            *t.self_ns.entry(rec.spans[i].name).or_insert(0) += ns;
            sum += ns;
        }
        if sum != t.wall_ns {
            return Err(format!("self times sum to {sum} ns, request wall is {} ns", t.wall_ns));
        }
        Ok(t)
    }

    /// The request's path through the layers; returns its figures and the
    /// response body the server would send.
    fn run(&mut self, rec: &mut Recorder, text: &str) -> Result<(Traced, String), String> {
        let mut t = Traced::default();
        // cli_oneshot pays ontology load and snapshot open on every
        // operation; the served workloads did both once at boot.
        let fresh;
        let (system, snapshot) = if self.mode == Mode::Cli {
            let system = rec
                .span("owlql.load", |_| ObdaSystem::from_text(ONTOLOGY))
                .map_err(|e| e.to_string())?;
            let snapshot = rec
                .span("store.open", |_| {
                    Snapshot::open(self.snapshot_path, system.ontology().vocab())
                })
                .map_err(|e| format!("open snapshot: {e}"))?;
            fresh = (system, snapshot);
            (&fresh.0, &fresh.1)
        } else {
            (&self.system, &self.snapshot)
        };
        let owned;
        let prepared = if self.mode == Mode::Hot {
            self.cache.get(text).ok_or("hot request missed the replay cache")?
        } else {
            owned = Self::prepare(rec, system, snapshot, text)?;
            &owned
        };
        let result = rec
            .span("ndl.engine.eval", |_| {
                evaluate_pruned_planned_on_traced(
                    &prepared.pruned,
                    snapshot.database(),
                    &mut Budget::unlimited(),
                    &EngineConfig::default(),
                    Some(&prepared.plan),
                    Telemetry::disabled(),
                )
            })
            .map_err(|e| e.to_string())?;
        let body = rec.span("server.serialise", |_| {
            let mut body = String::new();
            for tuple in &result.answers {
                let names: Vec<&str> = tuple.iter().map(|&c| snapshot.constant_name(c)).collect();
                body.push('(');
                body.push_str(&names.join(", "));
                body.push_str(")\n");
            }
            body
        });
        t.clauses = prepared.clauses;
        t.clauses_kept = prepared.pruned.stats.clauses_after;
        t.tuples = result.stats.generated_tuples;
        t.answers = result.answers.len();
        t.bytes_touched = snapshot.bytes_touched();
        t.columns_touched = snapshot.columns_touched();
        Ok((t, body))
    }
}
