//! `omqbench`: the end-to-end OMQ-serving benchmark.
//!
//! ```text
//! omqbench run  --workload W --seed N --seconds S --trace 0|1 --obda BIN --work DIR
//! omqbench pool --workload W --work DIR
//! ```
//!
//! `run` drives the `obda` binary from outside (`obda serve` over HTTP,
//! or one `obda answer` process per operation), checks every answer
//! against an in-process oracle and the exact-count invariants, and prints
//! one JSON result as its last stdout line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `pool` measures
//! every Table-1 prefix under Adaptive on a workload's data, the evidence
//! behind each pool and the known-defects table in README.md.

mod drive;
mod trace;
mod workload;

use drive::{Env, Server};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Recorder, Replay, Traced};
use workload::{Digest, Mode, Workload};

/// Set-ups per run; `setup_s` is their median. One runs before the timed
/// phase and one after each of its `SETUPS - 1` segments, so a burst of
/// host contention (seconds long on a shared VM) shifts only some of them.
const SETUPS: usize = 5;

/// `/metrics` counters that record a refused, shed, degraded or failed
/// request: on a healthy run every one of them stays put.
const REFUSAL_COUNTERS: &[&str] = &[
    "server_errors_total",
    "server_panics_total",
    "server_rejected_draining_total",
    "server_rejected_quota_total",
    "server_shed_total",
    "server_brownout_forced_total",
    "server_tenant_breaker_rejected_total",
    "service_cost_rejected_total",
    "service_overloaded_total",
    "service_rejected_deadline_total",
    "service_rejected_draining_total",
    "service_brownout_entered_total",
    "service_watchdog_stalls_total",
];

/// Counter-name prefixes of per-strategy breaker events, refusals too.
const REFUSAL_PREFIXES: &[&str] =
    &["service_breaker_opened_total", "service_breaker_skipped_total"];

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    obda: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command (run | pool)")?;
    let mut flags = BTreeMap::new();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |f: &str| flags.get(f).cloned().ok_or_else(|| format!("missing {f}"));
    let name = get("--workload")?;
    let workload = workload::workload(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |f: &str, default: &str| {
        flags.get(f).map_or(default, String::as_str).parse::<f64>().map_err(|_| format!("bad {f}"))
    };
    let args = Args {
        workload,
        seed: flags.get("--seed").map_or("0", String::as_str).parse().map_err(|_| "bad --seed")?,
        seconds: num("--seconds", "10")?,
        trace: num("--trace", "0")? != 0.0,
        obda: PathBuf::from(flags.get("--obda").map_or("", String::as_str)),
        work: PathBuf::from(get("--work")?),
        command,
    };
    if args.command == "run" && args.obda.as_os_str().is_empty() {
        return Err("run needs --obda".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omqbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A run that printed its result exits 0, also with `"correct": false`;
    // a run that could not finish prints no result and exits 1.
    let outcome = match args.command.as_str() {
        "run" => run(&args),
        "pool" => pool(&args),
        other => Err(format!("unknown command {other}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("omqbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// One pool entry: its word, canonical text and oracle digest.
struct Entry {
    word: &'static str,
    text: String,
    digest: Digest,
    query_file: PathBuf,
}

/// What the timed phase saw, per operation and in total.
#[derive(Default)]
struct Phase {
    attempted: u64,
    ok: u64,
    wrong: u64,
    failures: BTreeMap<String, u64>,
    latency_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    read_ms: Vec<f64>,
    body_bytes: Vec<f64>,
    queue_ms: Vec<f64>,
    retries: u64,
    /// Per round: correct operations per second, median latency, and the
    /// share of the round's wall time the hypervisor stole from the VM.
    round_rps: Vec<f64>,
    round_p50_ms: Vec<f64>,
    round_steal: Vec<f64>,
    /// `latency_ms` with each entry scaled by its round's unstolen share.
    steady_ms: Vec<f64>,
    cpu_s: f64,
    peak_rss_mb: f64,
    rounds: u64,
    counters: BTreeMap<String, f64>,
}

impl Phase {
    /// Books one operation's outcome against the oracle.
    fn book(
        &mut self,
        status: Result<u16, String>,
        got: Digest,
        expect: Digest,
        latency: Duration,
    ) {
        self.attempted += 1;
        match status {
            Ok(200) if got == expect => {
                self.ok += 1;
                self.latency_ms.push(ms(latency));
            }
            Ok(200) => {
                self.wrong += 1;
                self.latency_ms.push(f64::INFINITY);
            }
            other => {
                let key = match other {
                    Ok(code) => format!("status {code}"),
                    Err(e) => e,
                };
                *self.failures.entry(key).or_insert(0) += 1;
                self.latency_ms.push(f64::INFINITY);
            }
        }
    }

    /// Books a finished round that began at `start`, when `ok` operations
    /// had succeeded, `seen` latencies had been recorded and the host's
    /// steal clock read `steal0` seconds.
    fn end_round(&mut self, start: Instant, ok: u64, seen: usize, steal0: f64) {
        let wall = start.elapsed().as_secs_f64();
        let steal = (drive::host_steal_seconds() - steal0) / wall;
        self.round_rps.push((self.ok - ok) as f64 / wall);
        self.round_p50_ms.push(median(&self.latency_ms[seen..]));
        self.round_steal.push(steal);
        let keep = unstolen(steal);
        self.steady_ms.extend(self.latency_ms[seen..].iter().map(|l| l * keep));
        self.rounds += 1;
    }

    /// Per round, its throughput with the stolen time taken out of the wall.
    fn steady_rps(&self) -> Vec<f64> {
        self.round_rps.iter().zip(&self.round_steal).map(|(r, &s)| r / unstolen(s)).collect()
    }

    /// Per round, its median latency scaled by the unstolen share.
    fn steady_p50_ms(&self) -> Vec<f64> {
        self.round_p50_ms.iter().zip(&self.round_steal).map(|(l, &s)| l * unstolen(s)).collect()
    }
}

/// The share of a stretch of wall time the VM kept, given the share the
/// hypervisor stole (summed over its CPUs, so it can pass 1 when both
/// were busy); never below 0.1.
fn unstolen(steal: f64) -> f64 {
    (1.0 - steal).clamp(0.1, 1.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The highest percentile of a fixed ladder with at least ten samples
/// beyond it: (percentile, value, samples beyond). The rungs are a decade
/// apart, so a run-to-run change of the sample count within a factor of
/// ten (p99: 1 000–9 999 samples, p90: 100–999) keeps the same rung.
fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];
    let n = sorted.len();
    for p in LADDER {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n.saturating_sub(rank) >= 10 {
            return (p, percentile(sorted, p), n - rank);
        }
    }
    (50.0, percentile(sorted, 50.0), n / 2)
}

fn counter_delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// The refusal counters that moved, with their deltas.
fn refusals(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    after
        .keys()
        .filter(|k| {
            REFUSAL_COUNTERS.contains(&k.as_str())
                || REFUSAL_PREFIXES.iter().any(|p| k.starts_with(p))
        })
        .map(|k| (k.clone(), counter_delta(before, after, k)))
        .filter(|&(_, d)| d != 0.0)
        .collect()
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let dir = args.work.join(w.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let dir = dir.canonicalize().map_err(|e| e.to_string())?;
    let system = workload::system()?;
    let data = workload::dataset(&system, &w);
    let env = Env {
        obda: args.obda.canonicalize().map_err(|e| format!("{}: {e}", args.obda.display()))?,
        ontology: dir.join("ontology.owlql"),
        data: dir.join("data.abox"),
        snapshot: dir.join("data.obdb"),
    };
    let write = |path: &PathBuf, text: &str| {
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(&env.ontology, workload::ONTOLOGY)?;
    write(&env.data, &data.to_text(system.ontology()))?;
    let mut pool = Vec::new();
    for (i, &(word, reference)) in w.pool.iter().enumerate() {
        let text = workload::canonical_text(word);
        let query_file = dir.join(format!("q{i:02}.cq"));
        write(&query_file, &text)?;
        let digest = workload::oracle(&system, &data, word, reference)?;
        pool.push(Entry { word, text, digest, query_file });
    }

    // The spare set-ups build and boot their own snapshot and server, so
    // the measured ones stay untouched between the timed segments.
    let spare = Env {
        obda: env.obda.clone(),
        ontology: env.ontology.clone(),
        data: env.data.clone(),
        snapshot: dir.join("spare.obdb"),
    };
    let mut warm = Phase::default();
    let mut parts = Vec::new();
    let (server, first) = set_up(&w, &env, &pool, args.seed, &mut warm)?;
    parts.push(first);

    let timed = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let segment_s = timed / (SETUPS - 1) as f64;
    let host0 = drive::host_cpu_ticks();
    let before = match &server {
        Some(s) => s.metrics()?,
        None => BTreeMap::new(),
    };
    let mut phase = Phase::default();
    for _ in 1..SETUPS {
        match &server {
            Some(s) => served_segment(&w, s, &pool, args.seed, segment_s, &mut phase)?,
            None => cli_segment(&env, &pool, args.seed, segment_s, &mut phase)?,
        }
        let (spare_server, t) = set_up(&w, &spare, &pool, args.seed, &mut warm)?;
        if let Some(s) = spare_server {
            s.shutdown()?;
        }
        parts.push(t);
    }
    if let Some(s) = server {
        phase.peak_rss_mb = drive::proc_peak_rss_mb(s.pid())?;
        served_counts(&mut phase, &before, &s.metrics()?);
        s.shutdown()?;
    }
    let host1 = drive::host_cpu_ticks();
    let setups: Vec<f64> = parts
        .iter()
        .map(|p| {
            let wall: f64 = p[..3].iter().sum();
            wall * unstolen(p[3] / wall)
        })
        .collect();

    let mut violations = Vec::new();
    if warm.ok != (SETUPS * pool.len()) as u64 {
        violations.push(format!(
            "warm-up: {} of {} answered correctly ({} wrong, failures {:?})",
            warm.ok,
            SETUPS * pool.len(),
            warm.wrong,
            warm.failures
        ));
    }
    check_invariants(&w, &phase, &mut violations);

    let mut metrics: Metrics = Vec::new();
    let mut detail = Vec::new();
    let mut attempted = warm.attempted + phase.attempted;
    let failed: u64 = warm.failures.values().chain(phase.failures.values()).sum();
    if args.trace {
        let (layers, replayed, spans) = traced_phase(&w, &env, &pool, args.seed, timed)?;
        attempted += replayed;
        let trace_file = dir.join("trace.jsonl");
        write(&trace_file, &spans)?;
        detail.push(format!("\"trace_file\": {}", json_str(&trace_file.display().to_string())));
        let hits = phase.counters.get("hits").copied().unwrap_or(0.0);
        let misses = phase.counters.get("misses").copied().unwrap_or(0.0);
        metrics.extend([
            ("server.connect_ms", median(&phase.connect_ms), "ms"),
            ("server.wait_ms", median(&phase.wait_ms), "ms"),
            ("server.read_ms", median(&phase.read_ms), "ms"),
            ("server.body_bytes", mean(&phase.body_bytes), "bytes"),
            ("service.queue_wait_ms", median(&phase.queue_ms), "ms"),
            ("service.retries", phase.retries as f64, "count"),
            ("service.refusals", phase.counters.get("refusals").copied().unwrap_or(0.0), "count"),
            (
                "cache.hit_ratio",
                if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
                "ratio",
            ),
            ("cache.evictions", phase.counters.get("evictions").copied().unwrap_or(0.0), "count"),
        ]);
        metrics.extend(layers);
    } else {
        let sorted = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            v
        };
        let (p, tail_ms, beyond) = tail(&sorted(&phase.steady_ms));
        let raw_tail_ms = tail(&sorted(&phase.latency_ms)).1;
        detail.push(format!(
            "\"latency_tail\": {{\"percentile\": {p}, \"samples_beyond\": {beyond}, \"samples\": {}}}",
            phase.steady_ms.len()
        ));
        // The same figures from wall time alone, stolen time included.
        detail.push(format!(
            "\"wall_clock\": {{\"setup_s\": {:.6}, \"throughput_rps\": {:.4}, \"latency_p50_ms\": {:.4}, \"latency_tail_ms\": {:.4}}}",
            median(&parts.iter().map(|p| p[..3].iter().sum()).collect::<Vec<f64>>()),
            median(&phase.round_rps),
            median(&phase.round_p50_ms),
            raw_tail_ms
        ));
        metrics.extend([
            ("setup_s", median(&setups), "s"),
            ("throughput_rps", median(&phase.steady_rps()), "1/s"),
            ("latency_p50_ms", median(&phase.steady_p50_ms()), "ms"),
            ("latency_tail_ms", tail_ms, "ms"),
            ("success_rate", phase.ok as f64 / phase.attempted.max(1) as f64, "ratio"),
            ("server_cpu_ms_per_req", phase.cpu_s * 1e3 / phase.attempted.max(1) as f64, "ms"),
            ("server_peak_rss_mb", phase.peak_rss_mb, "MiB"),
        ]);
    }

    let snapshot_bytes = std::fs::metadata(&env.snapshot).map(|m| m.len()).unwrap_or(0);
    let words: Vec<String> = pool.iter().map(|e| json_str(e.word)).collect();
    let counts: Vec<String> =
        phase.counters.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    let failures: Vec<String> = warm
        .failures
        .iter()
        .chain(&phase.failures)
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let setups_s: Vec<String> = setups.iter().map(|s| format!("{s:.6}")).collect();
    detail.extend([
        format!("\"workload\": {}", json_str(w.name)),
        format!("\"seed\": {}", args.seed),
        "\"clients\": 1".to_owned(),
        format!(
            "\"available_parallelism\": {}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
        format!("\"cpu_model\": {}", json_str(&cpu_model())),
        format!(
            "\"dataset\": {{\"file\": \"{}.ttl\", \"scale\": {}, \"individuals\": {}, \"atoms\": {}, \"snapshot_bytes\": {snapshot_bytes}}}",
            w.dataset + 1,
            w.scale,
            data.num_individuals(),
            data.num_atoms()
        ),
        format!("\"pool\": [{}]", words.join(", ")),
        format!("\"setups_s\": [{}]", setups_s.join(", ")),
        format!(
            "\"setup_parts_median_s\": {{\"build\": {:.6}, \"boot\": {:.6}, \"warm_up\": {:.6}, \"stolen\": {:.6}}}",
            median(&parts.iter().map(|p| p[0]).collect::<Vec<_>>()),
            median(&parts.iter().map(|p| p[1]).collect::<Vec<_>>()),
            median(&parts.iter().map(|p| p[2]).collect::<Vec<_>>()),
            median(&parts.iter().map(|p| p[3]).collect::<Vec<_>>())
        ),
        format!("\"rounds\": {}", phase.rounds),
        format!(
            "\"host_steal_share\": {:.4}",
            (host1.1 - host0.1) / (host1.0 - host0.0).max(1.0)
        ),
        format!("\"requests_sent\": {}", phase.attempted),
        format!("\"counts\": {{{}}}", counts.join(", ")),
        format!("\"failures\": {{{}}}", failures.join(", ")),
        format!("\"violations\": [{}]", violations.iter().map(|v| json_str(v)).collect::<Vec<_>>().join(", ")),
    ]);
    let correct = violations.is_empty();
    for v in &violations {
        eprintln!("omqbench: invariant violated: {v}");
    }
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { -1.0 };
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect();
    println!("{{\"detail\": {{{}}}}}", detail.join(", "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        rendered.join(", ")
    );
    Ok(())
}

/// One set-up from cold: snapshot build, boot to `/readyz` (served modes)
/// and a warm-up pass over the pool, each answer booked in `warm`.
/// Returns the booted server and the (build, boot, warm-up, stolen)
/// seconds, the last being what the hypervisor took from the VM meanwhile.
fn set_up(
    w: &Workload,
    env: &Env,
    pool: &[Entry],
    seed: u64,
    warm: &mut Phase,
) -> Result<(Option<Server>, [f64; 4]), String> {
    let steal0 = drive::host_steal_seconds();
    let start = Instant::now();
    drive::build_snapshot(env)?;
    let build_s = start.elapsed().as_secs_f64();
    let mut boot_s = 0.0;
    let mut server = None;
    if w.mode == Mode::Cli {
        for e in pool {
            let op = drive::oneshot(env, &e.query_file)?;
            warm.book(op.status(), Digest::of_lines(op.stdout.lines()), e.digest, op.total);
        }
    } else {
        let s = Server::boot(env)?;
        boot_s = start.elapsed().as_secs_f64() - build_s;
        for (k, e) in pool.iter().enumerate() {
            let r = drive::http(s.addr, "POST", "/query", &request_text(w, e, seed, k as u64))?;
            warm.book(r.outcome(), Digest::of_lines(r.body.lines()), e.digest, r.total);
        }
        server = Some(s);
    }
    let total = start.elapsed().as_secs_f64();
    let stolen = drive::host_steal_seconds() - steal0;
    Ok((server, [build_s, boot_s, total - build_s - boot_s, stolen]))
}

/// The text of request `k` for pool entry `e`: canonical on `hot_cached`
/// and `cli_oneshot`, fresh variable names on `cold_misses`.
fn request_text(w: &Workload, e: &Entry, seed: u64, k: u64) -> String {
    match w.mode {
        Mode::Cold => workload::query_text(e.word, &workload::fresh_stem(seed, k)),
        Mode::Hot | Mode::Cli => e.text.clone(),
    }
}

/// One segment of the closed loop against `obda serve`: whole seeded
/// rounds of the pool until `seconds` have passed, one client, one
/// request in flight.
fn served_segment(
    w: &Workload,
    server: &Server,
    pool: &[Entry],
    seed: u64,
    seconds: f64,
    phase: &mut Phase,
) -> Result<(), String> {
    let cpu0 = drive::proc_cpu_seconds(server.pid())?;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let (round, ok, seen) = (Instant::now(), phase.ok, phase.latency_ms.len());
        let steal0 = drive::host_steal_seconds();
        for i in workload::round_order(pool.len(), seed, phase.rounds) {
            let e = &pool[i];
            // Warm-up sent requests 0..pool.len(), so names never repeat.
            let text = request_text(w, e, seed, pool.len() as u64 + phase.attempted);
            match drive::http(server.addr, "POST", "/query", &text) {
                Ok(r) => {
                    phase.book(r.outcome(), Digest::of_lines(r.body.lines()), e.digest, r.total);
                    phase.connect_ms.push(ms(r.connect));
                    phase.wait_ms.push(ms(r.wait));
                    phase.read_ms.push(ms(r.read));
                    phase.body_bytes.push(r.body.len() as f64);
                    let num = |h: &str| r.header(h).and_then(|v| v.parse::<f64>().ok());
                    if let Some(q) = num("X-Obda-Queue-Ms") {
                        phase.queue_ms.push(q);
                    }
                    phase.retries += num("X-Obda-Retries").unwrap_or(0.0) as u64;
                }
                Err(err) => {
                    phase.book(Err(err), Digest { count: 0, sum: 0 }, e.digest, Duration::ZERO)
                }
            }
        }
        phase.end_round(round, ok, seen, steal0);
    }
    phase.cpu_s += drive::proc_cpu_seconds(server.pid())? - cpu0;
    Ok(())
}

/// The measured server's `/metrics` deltas over the timed phase.
fn served_counts(phase: &mut Phase, before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) {
    let c = &mut phase.counters;
    c.insert("requests".into(), counter_delta(before, after, "server_requests_total"));
    c.insert("hits".into(), counter_delta(before, after, "server_cache_hits_total"));
    c.insert("misses".into(), counter_delta(before, after, "server_cache_misses_total"));
    c.insert("evictions".into(), counter_delta(before, after, "server_cache_evictions_total"));
    c.insert("cache_size_before".into(), before.get("server_cache_size").copied().unwrap_or(0.0));
    c.insert("cache_size_after".into(), after.get("server_cache_size").copied().unwrap_or(0.0));
    let moved = refusals(before, after);
    c.insert("refusals".into(), moved.values().sum());
    c.extend(moved);
    c.insert(
        "transient_retries".into(),
        counter_delta(before, after, "service_transient_retries_total"),
    );
}

/// One segment of whole seeded rounds, one `obda answer --db` process per
/// operation.
fn cli_segment(
    env: &Env,
    pool: &[Entry],
    seed: u64,
    seconds: f64,
    phase: &mut Phase,
) -> Result<(), String> {
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let (round, ok, seen) = (Instant::now(), phase.ok, phase.latency_ms.len());
        let steal0 = drive::host_steal_seconds();
        for i in workload::round_order(pool.len(), seed, phase.rounds) {
            let e = &pool[i];
            let op = drive::oneshot(env, &e.query_file)?;
            // Exit code 9: the query service refused admission.
            if op.exit_code == 9 {
                *phase.counters.entry("refusals".into()).or_insert(0.0) += 1.0;
            }
            phase.book(op.status(), Digest::of_lines(op.stdout.lines()), e.digest, op.total);
            phase.connect_ms.push(ms(op.spawn));
            phase.wait_ms.push(ms(op.wait));
            phase.read_ms.push(ms(op.read));
            phase.body_bytes.push(op.stdout.len() as f64);
            let queued = op
                .stderr
                .lines()
                .find_map(|l| l.strip_prefix("# queued "))
                .and_then(|l| l.split(' ').next())
                .and_then(|v| v.parse::<f64>().ok());
            if let Some(q) = queued {
                phase.queue_ms.push(q);
            }
            phase.retries += op.stderr.lines().filter(|l| l.contains("retry")).count() as u64;
            phase.cpu_s += op.cpu_seconds;
            phase.peak_rss_mb = phase.peak_rss_mb.max(op.max_rss_mb);
        }
        phase.end_round(round, ok, seen, steal0);
    }
    Ok(())
}

/// Exact-count invariants: counts that repeat exactly on every run, so a
/// mismatch means the run did different work, never noise.
fn check_invariants(w: &Workload, phase: &Phase, violations: &mut Vec<String>) {
    let sent = phase.attempted as f64;
    let c = |k: &str| phase.counters.get(k).copied().unwrap_or(0.0);
    let mut expect = |what: &str, got: f64, want: f64| {
        if got != want {
            violations.push(format!("{what}: {got}, expected {want}"));
        }
    };
    expect("wrong answers", phase.wrong as f64, 0.0);
    expect("refusals", c("refusals"), 0.0);
    expect("retries", phase.retries as f64, 0.0);
    match w.mode {
        Mode::Hot => {
            expect("server requests", c("requests"), sent);
            expect("cache hits", c("hits"), sent);
            expect("cache misses", c("misses"), 0.0);
            expect("cache evictions", c("evictions"), 0.0);
        }
        Mode::Cold => {
            expect("server requests", c("requests"), sent);
            expect("cache hits", c("hits"), 0.0);
            expect("cache misses", c("misses"), sent);
            // Each insert either grows the cache or evicts one entry.
            let evictions = c("cache_size_before") + sent - c("cache_size_after");
            expect("cache evictions", c("evictions"), evictions);
        }
        Mode::Cli => {}
    }
    expect("transient retries", c("transient_retries"), 0.0);
}

/// Per-layer metrics as (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The traced run's in-process replay: the same seeded rounds through the
/// layers' public calls, each request once untraced and once traced.
/// Returns the per-layer metrics, the requests replayed and the spans.
fn traced_phase(
    w: &Workload,
    env: &Env,
    pool: &[Entry],
    seed: u64,
    seconds: f64,
) -> Result<(Metrics, u64, String), String> {
    let mut replay = Replay::new(w.mode, &env.snapshot)?;
    let mut rec = Recorder::new(true);
    let mut plain = Recorder::new(false);
    if w.mode == Mode::Hot {
        for e in pool {
            replay.warm(&mut rec, &e.text)?;
        }
    }
    let mut traced: Vec<Traced> = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut classify_ms = Vec::new();
    let start = Instant::now();
    let mut k = pool.len() as u64;
    let mut round = 0;
    while start.elapsed().as_secs_f64() < seconds {
        for i in workload::round_order(pool.len(), seed, round) {
            let e = &pool[i];
            let text = request_text(w, e, seed, k);
            k += 1;
            // Alternate which variant runs first, so neither always gets
            // the other's warm caches.
            let (t, u) = if k.is_multiple_of(2) {
                let t = replay.request(&mut rec, &text, e.digest)?;
                (t, replay.request(&mut plain, &text, e.digest)?)
            } else {
                let u = replay.request(&mut plain, &text, e.digest)?;
                (replay.request(&mut rec, &text, e.digest)?, u)
            };
            untraced_ms.push(t_ms(u.wall_ns));
            traced.push(t);
        }
        round += 1;
    }
    for s in rec.spans.iter().filter(|s| s.name == "pipeline.classify") {
        classify_ms.push(t_ms(s.end - s.start));
    }
    let layer = |name: &str| -> Vec<f64> {
        traced.iter().map(|t| t_ms(t.self_ns.get(name).copied().unwrap_or(0))).collect()
    };
    let sum = |f: &dyn Fn(&Traced) -> f64| -> f64 { traced.iter().map(f).sum() };
    let per_request = |f: &dyn Fn(&Traced) -> f64| sum(f) / traced.len().max(1) as f64;
    let walls: Vec<f64> = traced.iter().map(|t| t_ms(t.wall_ns)).collect();
    let metrics = vec![
        ("cq.parse_ms", median(&layer("cq.parse")), "ms"),
        ("pipeline.classify_ms", median(&classify_ms), "ms"),
        ("rewrite.rewrite_ms", median(&layer("rewrite.rewrite")), "ms"),
        ("rewrite.clauses", per_request(&|t| t.clauses as f64), "count"),
        ("ndl.relevance.prune_ms", median(&layer("ndl.relevance.prune")), "ms"),
        (
            "ndl.relevance.kept_ratio",
            sum(&|t| t.clauses_kept as f64) / sum(&|t| t.clauses as f64).max(1.0),
            "ratio",
        ),
        ("ndl.planner.plan_ms", median(&layer("ndl.planner.plan")), "ms"),
        ("owlql.load_ms", median(&layer("owlql.load")), "ms"),
        ("store.open_ms", median(&layer("store.open")), "ms"),
        ("store.bytes_touched", per_request(&|t| t.bytes_touched as f64), "bytes"),
        ("store.columns_touched", per_request(&|t| t.columns_touched as f64), "count"),
        ("ndl.engine.eval_ms", median(&layer("ndl.engine.eval")), "ms"),
        ("ndl.engine.tuples", per_request(&|t| t.tuples as f64), "count"),
        (
            "ndl.engine.answer_yield",
            sum(&|t| t.answers as f64) / sum(&|t| t.tuples as f64).max(1.0),
            "ratio",
        ),
        ("server.serialise_ms", median(&layer("server.serialise")), "ms"),
        ("trace.unattributed_ms", median(&layer("request")), "ms"),
        ("trace.request_ms", median(&walls), "ms"),
        ("trace.overhead_ratio", median(&walls) / median(&untraced_ms), "ratio"),
    ];
    Ok((metrics, 2 * traced.len() as u64, rec.to_jsonl()))
}

fn t_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `omqbench pool`: every Table-1 prefix under Adaptive, in-process, on
/// the workload's data, with a 3 s deadline per prefix.
fn pool(args: &Args) -> Result<(), String> {
    use obda::budget::BudgetSpec;
    use obda::ndl::engine::{evaluate_pruned_planned_on_traced, EngineConfig};
    let w = args.workload;
    let system = workload::system()?;
    let data = workload::dataset(&system, &w);
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    let path = args.work.join(format!("{}.obdb", w.name));
    let info =
        obda::write_snapshot(&path, system.ontology().vocab(), &data).map_err(|e| e.to_string())?;
    let snapshot =
        obda::Snapshot::open(&path, system.ontology().vocab()).map_err(|e| e.to_string())?;
    println!(
        "# {}: {}.ttl at scale {}, {} individuals, {} atoms, {} snapshot bytes",
        w.name,
        w.dataset + 1,
        w.scale,
        data.num_individuals(),
        data.num_atoms(),
        info.file_bytes
    );
    println!("word\tin_pool\tprepare_ms\teval_ms\tplan_cost\tanswers\ttuples\toutcome");
    for word in workload::table1_prefixes() {
        let in_pool = w.pool.iter().any(|(p, _)| *p == word);
        let mut spec = BudgetSpec::unlimited();
        spec.timeout = Some(Duration::from_secs(3));
        spec.max_tuples = Some(20_000_000);
        let mut budget = spec.start();
        let t0 = Instant::now();
        let query =
            system.parse_query(&workload::canonical_text(&word)).map_err(|e| e.to_string())?;
        let prepared = system.prepare_budgeted(&query, obda::Strategy::Adaptive, &mut budget);
        let t1 = Instant::now();
        let mut cost = f64::NAN;
        let outcome = prepared.map_err(|e| e.to_string()).and_then(|omq| {
            let pruned = obda::ndl::relevance::prune_for_goal(omq.rewriting());
            let plan = obda::ndl::planner::plan_query(&pruned.query, snapshot.database());
            cost = plan.total_cost().unwrap_or(f64::NAN);
            evaluate_pruned_planned_on_traced(
                &pruned,
                snapshot.database(),
                &mut budget,
                &EngineConfig::default(),
                Some(&plan),
                obda::telemetry::Telemetry::disabled(),
            )
            .map_err(|e| e.to_string())
        });
        let eval_ms = ms(t1.elapsed());
        match outcome {
            Ok(r) => println!(
                "{word}\t{in_pool}\t{:.1}\t{eval_ms:.1}\t{cost:.0}\t{}\t{}\tok",
                ms(t1 - t0),
                r.answers.len(),
                r.stats.generated_tuples
            ),
            Err(e) => {
                println!("{word}\t{in_pool}\t{:.1}\t{eval_ms:.1}\t{cost:.0}\t-\t-\t{e}", ms(t1 - t0))
            }
        }
    }
    Ok(())
}
