//! End-to-end tests of the hardened HTTP query server (`obda serve`):
//! real TCP sockets, concurrent multi-tenant traffic, oracle-verified
//! answers, quota shedding, deadline propagation, graceful drain — plus
//! an adversarial run of the compiled binary and, with `--features
//! faults`, a 200+-request soak under injected faults at the
//! `server::handle` site.
//!
//! Invariants pinned here mirror the chaos suite's, lifted to HTTP:
//!
//! 1. **Never a wrong 200** — a `200 OK` body is exactly the chase
//!    oracle's answer set; anything else is a typed HTTP error.
//! 2. **Typed shedding** — tenant quota refusals are `429` with
//!    `Retry-After`; overload is `503`; budget trips are `504`; HTTP
//!    abuse is `400`/`408`/`413`.
//! 3. **The accept loop survives** — after any storm (including injected
//!    panics) `/healthz` still answers `200`.

use obda::budget::BudgetSpec;
use obda::datagen::erdos::TABLE_2;
use obda::ndl::engine::EngineConfig;
use obda::owlql::abox::DataInstance;
use obda::server::client::{self, HttpResponse};
use obda::{
    write_snapshot, MemoryBackend, ObdaSystem, OverloadConfig, QueryService, RetryPolicy, Server,
    ServerConfig, ServerHandle, ServiceConfig, Snapshot, Strategy, Telemetry, TenantQuota,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The Example 11 ontology (`P ⊑ S`, `P ⊑ R⁻`) as text, identical to
/// `obda::datagen::sequences::example_11_ontology()`.
const ONTOLOGY: &str = "P SubPropertyOf S\nP SubPropertyOf R-\n";

/// Small enough that the chase oracle answers in milliseconds.
const SCALE: f64 = 0.003;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// The linear CQ for a word over `{R, S}` as parseable text (the textual
/// twin of `obda::datagen::sequences::word_query`).
fn word_query_text(word: &str) -> String {
    let n = word.len();
    let atoms: Vec<String> =
        word.chars().enumerate().map(|(i, c)| format!("{c}(x{i}, x{})", i + 1)).collect();
    format!("q(x0, x{n}) :- {}", atoms.join(", "))
}

fn paper_system() -> ObdaSystem {
    ObdaSystem::from_text(ONTOLOGY).unwrap()
}

fn table2_data(sys: &ObdaSystem, idx: usize, scale: f64) -> DataInstance {
    TABLE_2[idx].scaled(scale).generate(sys.ontology())
}

/// The chase-certain answers rendered exactly as the server renders a
/// `200` body, sorted for set comparison.
fn oracle_lines(sys: &ObdaSystem, data: &DataInstance, query_text: &str) -> Vec<String> {
    let q = sys.parse_query(query_text).unwrap();
    let mut lines: Vec<String> = sys
        .certain_answers(&q, data)
        .tuples()
        .iter()
        .map(|t| {
            let names: Vec<&str> = t.iter().map(|&c| data.constant_name(c)).collect();
            format!("({})", names.join(", "))
        })
        .collect();
    lines.sort();
    lines
}

fn body_lines(resp: &HttpResponse) -> Vec<String> {
    let mut lines: Vec<String> = resp.body.lines().map(str::to_owned).collect();
    lines.sort();
    lines
}

/// Boots an in-process server over a scaled Table-2 dataset, applying
/// `tweak` to the config and registering `quotas` before serving.
fn start_server(
    scale: f64,
    tweak: impl FnOnce(&mut ServerConfig),
    quotas: &[(&str, TenantQuota)],
) -> (ServerHandle, ObdaSystem, DataInstance) {
    let sys = paper_system();
    let data = table2_data(&sys, 0, scale);
    let service = QueryService::new(
        paper_system(),
        ServiceConfig {
            max_concurrency: 2,
            max_queue: 8,
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_millis(1),
                seed: 0x0bda_5eed,
            },
            engine: EngineConfig::default(),
            overload: OverloadConfig::default(),
        },
    );
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_timeout: Duration::from_secs(5),
        drain_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    let server = Server::bind(service, Box::new(MemoryBackend::new(data.clone())), cfg).unwrap();
    for (tenant, quota) in quotas {
        server.governor().set_quota(tenant, *quota);
    }
    (server.start(), sys, data)
}

/// With `--features faults`, the soak in `mod faulted` arms a
/// process-wide `server::handle` plan; every other in-process test holds
/// the install lock with nothing armed, so that plan never fires inside
/// it.
#[cfg(feature = "faults")]
fn quiet() -> obda::faults::InstalledPlan {
    obda::faults::quiet()
}

/// Without the `faults` feature there is no plan to wait for.
#[cfg(not(feature = "faults"))]
fn quiet() -> std::marker::PhantomData<()> {
    std::marker::PhantomData
}

fn post_query(addr: SocketAddr, tenant: &str, query: &str) -> HttpResponse {
    client::request(addr, "POST", "/query", &[("X-Obda-Tenant", tenant)], query, CLIENT_TIMEOUT)
        .unwrap()
}

fn get(addr: SocketAddr, path: &str) -> HttpResponse {
    client::request(addr, "GET", path, &[], "", CLIENT_TIMEOUT).unwrap()
}

// ---------------------------------------------------------------------------
// Routing, health and HTTP abuse
// ---------------------------------------------------------------------------

#[test]
fn health_routing_and_http_abuse_are_typed() {
    let _quiet = quiet();
    let (handle, _, _) = start_server(SCALE, |cfg| cfg.max_body_bytes = 256, &[]);
    let addr = handle.addr();

    assert_eq!(get(addr, "/healthz").status, 200);
    assert_eq!(get(addr, "/readyz").status, 200);
    assert_eq!(get(addr, "/nope").status, 404);
    // Known route, wrong method.
    assert_eq!(get(addr, "/query").status, 405);
    assert_eq!(
        client::request(addr, "POST", "/metrics", &[], "", CLIENT_TIMEOUT).unwrap().status,
        405
    );

    // Typed request rejections: empty body, bad strategy, bad timeout,
    // non-UTF-8-free oversized body.
    assert_eq!(post_query(addr, "t", "").status, 400);
    let bad_strategy = client::request(
        addr,
        "POST",
        "/query",
        &[("X-Obda-Strategy", "nonsense")],
        "q(x) :- S(x, y)",
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(bad_strategy.status, 400);
    let bad_timeout = client::request(
        addr,
        "POST",
        "/query",
        &[("X-Obda-Timeout-Ms", "never")],
        "q(x) :- S(x, y)",
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(bad_timeout.status, 400);
    let oversized = post_query(addr, "t", &"R(x, y), ".repeat(100));
    assert_eq!(oversized.status, 413);
    // A query that fails to parse is a 400, not a 500.
    assert_eq!(post_query(addr, "t", "this is not a query").status, 400);

    // After all that abuse the server still answers.
    assert_eq!(get(addr, "/healthz").status, 200);
    handle.trigger().shutdown();
    assert!(handle.join());
}

#[test]
fn metrics_explain_and_cache_are_observable() {
    let _quiet = quiet();
    let (handle, _, _) = start_server(SCALE, |_| {}, &[]);
    let addr = handle.addr();
    let query = word_query_text("RS");

    // Twice the same OMQ: the second request must hit the prepared cache.
    assert_eq!(post_query(addr, "alpha", &query).status, 200);
    assert_eq!(post_query(addr, "alpha", &query).status, 200);

    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    for needle in [
        "server_requests_total",
        "server_requests_total_alpha",
        "server_cache_hits_total",
        "server_cache_misses_total",
        "server_latency_seconds",
    ] {
        assert!(metrics.body.contains(needle), "metrics exposition lacks {needle}");
    }

    let explain = get(addr, &format!("/explain?query={}", percent_encode(&query)));
    assert_eq!(explain.status, 200, "explain failed: {}", explain.body);
    assert!(explain.body.contains("strategy:"), "unexpected explain body: {}", explain.body);
    assert!(explain.body.contains("memory"), "explain should name the backend kind");
    assert_eq!(get(addr, "/explain").status, 400, "missing ?query= must be typed");

    handle.trigger().shutdown();
    assert!(handle.join());
}

/// One sample of a Prometheus text exposition: name, labels, value.
type Sample = (String, Vec<(String, String)>, f64);

/// Parses the Prometheus text exposition format (version 0.0.4): every
/// line is blank, a `#` comment, or `name[{label="value",…}] value
/// [timestamp]`, with names matching `[a-zA-Z_:][a-zA-Z0-9_:]*` and label
/// names `[a-zA-Z_][a-zA-Z0-9_]*`.
fn parse_exposition(body: &str) -> Result<Vec<Sample>, String> {
    fn is_name(s: &str, colon: bool) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || c == '_' || (colon && c == ':');
        s.chars().next().is_some_and(|c| !c.is_ascii_digit() && ok(c)) && s.chars().all(ok)
    }
    let mut samples = Vec::new();
    for line in body.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let end = if line.contains('{') { line.find('}').map(|c| c + 1) } else { line.find(' ') };
        let (series, rest) = line.split_at(end.ok_or(format!("no value: {line}"))?);
        let (name, labels) = match series.split_once('{') {
            Some((name, labels)) => (name, labels.strip_suffix('}').unwrap_or(labels)),
            None => (series, ""),
        };
        if !is_name(name, true) {
            return Err(format!("bad metric name {name:?}"));
        }
        let mut parsed = Vec::new();
        for pair in labels.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').ok_or(format!("bad label {pair:?}"))?;
            let v = v.strip_prefix('"').and_then(|v| v.strip_suffix('"'));
            match v {
                Some(v) if is_name(k, false) && !v.contains(['"', '\\', '\n']) => {
                    parsed.push((k.to_owned(), v.to_owned()))
                }
                _ => return Err(format!("bad label {pair:?}")),
            }
        }
        let mut fields = rest.split(' ').filter(|f| !f.is_empty());
        let value = match fields.next() {
            Some("+Inf") => f64::INFINITY,
            Some("-Inf") => f64::NEG_INFINITY,
            Some(v) => v.parse::<f64>().map_err(|_| format!("bad value in {line:?}"))?,
            None => return Err(format!("no value: {line}")),
        };
        if let Some(ts) = fields.next() {
            ts.parse::<i64>().map_err(|_| format!("bad timestamp in {line:?}"))?;
        }
        if fields.next().is_some() {
            return Err(format!("trailing fields: {line}"));
        }
        samples.push((name.to_owned(), parsed, value));
    }
    Ok(samples)
}

/// `GET /metrics` is a valid Prometheus text exposition: every line
/// parses, no series repeats, each family's lines are contiguous, and
/// every histogram's buckets are cumulative up to a `+Inf` bucket equal
/// to its `_count`.
#[test]
fn metrics_parse_as_prometheus_text() {
    let _quiet = quiet();
    let (handle, _, _) = start_server(SCALE, |_| {}, &[]);
    let addr = handle.addr();
    for tenant in ["alpha", "team-b.example", "t 3"] {
        assert_eq!(post_query(addr, tenant, &word_query_text("RS")).status, 200);
    }
    assert_eq!(post_query(addr, "alpha", "not a query").status, 400);
    let body = get(addr, "/metrics").body;
    let samples = parse_exposition(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));

    let family = |name: &str| {
        ["_bucket", "_count", "_sum"]
            .iter()
            .find_map(|s| name.strip_suffix(s))
            .filter(|base| samples.iter().any(|(n, _, _)| n == &format!("{base}_count")))
            .unwrap_or(name)
            .to_owned()
    };
    let mut seen_series = std::collections::HashSet::new();
    let mut finished_families = std::collections::HashSet::new();
    let mut current = String::new();
    for (name, labels, _) in &samples {
        assert!(seen_series.insert((name, labels)), "series {name}{labels:?} repeats");
        let f = family(name);
        if f != current {
            assert!(finished_families.insert(current.clone()), "family {current} split");
            assert!(!finished_families.contains(&f), "family {f} is not contiguous");
            current = f;
        }
    }
    for (name, _, count) in samples.iter().filter(|(n, _, _)| n.ends_with("_count")) {
        let base = name.strip_suffix("_count").unwrap();
        let buckets: Vec<(&str, f64)> = samples
            .iter()
            .filter(|(n, _, _)| n == &format!("{base}_bucket"))
            .map(|(_, l, v)| (l.iter().find(|(k, _)| k == "le").unwrap().1.as_str(), *v))
            .collect();
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1), "{base} buckets not cumulative");
        assert_eq!(buckets.last(), Some(&("+Inf", *count)), "{base}: +Inf bucket != _count");
    }
    for name in [
        "server_requests_total",
        "server_handler_threads",
        "server_handler_spawns_total",
        "server_open_connections",
        "server_latency_seconds_count",
        "rewrite_tree_witness_memo_hits_total",
        "rewrite_tree_witness_memo_misses_total",
        "rewrite_tree_witness_memo_entries",
    ] {
        assert!(samples.iter().any(|(n, _, _)| n == name), "no {name} in\n{body}");
    }
    handle.trigger().shutdown();
    assert!(handle.join());
}

/// The tree-witness memo's counters: the first prepare of a query misses
/// and stores shapes; an alpha-renamed text, a new prepared-cache entry,
/// finds every shape and searches nothing.
#[test]
fn tree_witness_memo_metrics_count_hits_and_misses() {
    let _quiet = quiet();
    let (handle, _, _) = start_server(SCALE, |_| {}, &[]);
    let addr = handle.addr();
    let memo = || {
        let body = get(addr, "/metrics").body;
        let samples = parse_exposition(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
        let value = |name: &str| {
            samples.iter().find(|(n, _, _)| n == name).map(|s| s.2).unwrap_or_else(|| {
                panic!("no {name} in\n{body}");
            })
        };
        (
            value("rewrite_tree_witness_memo_hits_total"),
            value("rewrite_tree_witness_memo_misses_total"),
            value("rewrite_tree_witness_memo_entries"),
        )
    };
    let text = word_query_text("SRRSR");
    assert_eq!(post_query(addr, "t", &text).status, 200);
    let (hits, misses, entries) = memo();
    assert!(misses > 0.0 && entries > 0.0, "first prepare: {misses} misses, {entries} entries");
    assert_eq!(post_query(addr, "t", &text.replace('x', "renamed_")).status, 200);
    let (hits2, misses2, entries2) = memo();
    assert_eq!((misses2, entries2), (misses, entries), "a renamed query must not search");
    assert!(hits2 > hits, "a renamed query is answered by the memo");
    handle.trigger().shutdown();
    assert!(handle.join());
}

#[test]
fn explain_surfaces_cached_join_plan() {
    let _quiet = quiet();
    let (handle, _, _) = start_server(SCALE, |_| {}, &[]);
    let addr = handle.addr();
    let query = word_query_text("RS");
    let path = format!("/explain?query={}", percent_encode(&query));

    // The first /explain costs the join plan against the served database.
    let first = get(addr, &path);
    assert_eq!(first.status, 200, "explain failed: {}", first.body);
    assert!(first.body.contains("plans built: 1"), "body: {}", first.body);
    assert!(
        first.body.contains("est\u{2248}"),
        "plan steps must carry cardinality estimates: {}",
        first.body
    );
    assert!(first.body.contains("stratum"), "body: {}", first.body);

    // Answering the same OMQ and explaining again reuse the cached
    // PreparedOmq *and* its per-database plan: the miss count stays 1.
    assert_eq!(post_query(addr, "t", &query).status, 200);
    let second = get(addr, &path);
    assert_eq!(second.status, 200);
    assert!(
        second.body.contains("plans built: 1"),
        "the plan must be computed once and reused: {}",
        second.body
    );

    handle.trigger().shutdown();
    assert!(handle.join());
}

/// Minimal percent-encoding for test URLs (everything non-alphanumeric).
fn percent_encode(s: &str) -> String {
    s.bytes()
        .map(
            |b| {
                if b.is_ascii_alphanumeric() {
                    (b as char).to_string()
                } else {
                    format!("%{b:02X}")
                }
            },
        )
        .collect()
}

// ---------------------------------------------------------------------------
// Oracle-verified answers across tenants
// ---------------------------------------------------------------------------

#[test]
fn concurrent_tenants_get_oracle_answers() {
    let _quiet = quiet();
    let (handle, sys, data) = start_server(SCALE, |_| {}, &[]);
    let addr = handle.addr();
    let words = ["R", "S", "RR", "SR", "RRS"];
    let expected: Vec<Vec<String>> =
        words.iter().map(|w| oracle_lines(&sys, &data, &word_query_text(w))).collect();

    let threads: Vec<_> = ["alice", "bob", "carol"]
        .into_iter()
        .map(|tenant| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                for (word, want) in words.iter().zip(&expected) {
                    let resp = post_query(addr, tenant, &word_query_text(word));
                    assert_eq!(resp.status, 200, "{tenant}/{word}: {}", resp.body);
                    assert_eq!(&body_lines(&resp), want, "{tenant}/{word} answers differ");
                    let count: usize = resp.header("x-obda-answers").unwrap().parse().unwrap();
                    assert_eq!(count, want.len());
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    handle.trigger().shutdown();
    assert!(handle.join());
}

/// The value of an unlabelled counter in a `/metrics` body (0 if absent).
fn counter(metrics: &str, name: &str) -> u64 {
    metrics.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok()).unwrap_or(0)
}

/// The engine derives each `*`-completion once per served database: a
/// second request for a cached OMQ builds none and reuses them all.
#[test]
fn second_request_reuses_completed_relations() {
    let _quiet = quiet();
    let sys = paper_system();
    let data = table2_data(&sys, 0, SCALE);
    let service = QueryService::new(paper_system(), ServiceConfig::default());
    let cfg = ServerConfig { addr: "127.0.0.1:0".to_owned(), ..ServerConfig::default() };
    let server = Server::bind(service, Box::new(MemoryBackend::new(data.clone())), cfg).unwrap();
    let handle = server.start();
    let addr = handle.addr();
    // Adaptive rewrites this word with `R*` and `S*` completions.
    let query = word_query_text("SRRS");
    let want = oracle_lines(&sys, &data, &query);
    let mut seen = Vec::new();
    for _ in 0..2 {
        let resp = post_query(addr, "alpha", &query);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(body_lines(&resp), want);
        let metrics = get(addr, "/metrics").body;
        seen.push((
            counter(&metrics, "engine_completions_built_total"),
            counter(&metrics, "engine_completions_reused_total"),
        ));
    }
    let [(built1, reused1), (built2, reused2)] = seen[..] else { unreachable!() };
    assert!(built1 >= 1, "the first request fills the memo: {seen:?}");
    assert_eq!(built2, built1, "the second request builds no completion: {seen:?}");
    assert!(reused2 > reused1, "the second request reuses the completions: {seen:?}");

    handle.trigger().shutdown();
    assert!(handle.join());
}

/// Over a snapshot, `/metrics` reports the bytes the served requests
/// hydrated as the `store_resident_bytes` gauge; over in-memory data
/// there is no such gauge.
#[test]
fn metrics_report_the_snapshot_resident_bytes() {
    let _quiet = quiet();
    let sys = paper_system();
    let data = table2_data(&sys, 0, SCALE);
    let path =
        std::env::temp_dir().join(format!("obda-server-resident-{}.obdb", std::process::id()));
    write_snapshot(&path, sys.ontology().vocab(), &data).unwrap();
    let served = Snapshot::open(&path, sys.ontology().vocab()).unwrap();
    let twin = Snapshot::open(&path, sys.ontology().vocab()).unwrap();
    std::fs::remove_file(&path).ok();
    let service = QueryService::new(paper_system(), ServiceConfig::default());
    let cfg = ServerConfig { addr: "127.0.0.1:0".to_owned(), ..ServerConfig::default() };
    let handle = Server::bind(service, Box::new(served), cfg).unwrap().start();
    let query = word_query_text("RS");
    assert_eq!(post_query(handle.addr(), "alpha", &query).status, 200);
    // The twin hydrates exactly the columns the served request joined.
    let omq = sys.prepare(&sys.parse_query(&query).unwrap(), Strategy::Adaptive).unwrap();
    omq.hydrate(twin.database(), &EngineConfig::default(), Telemetry::disabled()).unwrap();
    let resident = counter(&get(handle.addr(), "/metrics").body, "store_resident_bytes");
    assert!(resident > 0, "a served request hydrates some columns");
    assert_eq!(resident, twin.bytes_touched());
    handle.trigger().shutdown();
    assert!(handle.join());

    let (handle, _, _) = start_server(SCALE, |_| {}, &[]);
    assert_eq!(post_query(handle.addr(), "alpha", &query).status, 200);
    assert!(!get(handle.addr(), "/metrics").body.contains("store_resident_bytes"));
    handle.trigger().shutdown();
    assert!(handle.join());
}

// ---------------------------------------------------------------------------
// Connection handler threads
// ---------------------------------------------------------------------------

/// Polls a gauge of the in-process server until it reads `want`.
fn await_gauge(handle: &ServerHandle, name: &str, want: i64) {
    let deadline = Instant::now() + CLIENT_TIMEOUT;
    while handle.metrics().gauge(name).get() != want {
        assert!(Instant::now() < deadline, "{name} never reached {want}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A slow-loris occupies one handler; sequential requests beside it are
/// served at once, by one reused handler, not queued behind it.
#[test]
fn slow_loris_does_not_hold_up_sequential_requests() {
    use std::io::Write;
    let _quiet = quiet();
    let read_timeout = Duration::from_secs(4);
    let (handle, sys, data) = start_server(SCALE, |cfg| cfg.read_timeout = read_timeout, &[]);
    let addr = handle.addr();
    let mut loris = std::net::TcpStream::connect(addr).unwrap();
    loris.write_all(b"POST /query HTTP/1.1\r\nContent-Len").unwrap();
    await_gauge(&handle, "server_open_connections", 1);

    let query = word_query_text("RS");
    let want = oracle_lines(&sys, &data, &query);
    let started = Instant::now();
    for i in 0..50 {
        let resp = post_query(addr, "t", &query);
        assert_eq!(resp.status, 200, "request {i}: {}", resp.body);
        assert_eq!(body_lines(&resp), want, "request {i}");
    }
    assert!(
        started.elapsed() < read_timeout / 2,
        "50 requests took {:?}: they waited on the loris",
        started.elapsed()
    );
    let metrics = handle.metrics();
    assert_eq!(metrics.counter("server_handler_spawns_total").get(), 2, "the loris's and one more");
    assert_eq!(metrics.gauge("server_handler_threads").get(), 2);

    drop(loris);
    handle.trigger().shutdown();
    assert!(handle.join());
}

/// A closed loop (each request sent once the previous response is read)
/// is served by the handler that finished the previous request: it parks
/// before closing the socket, so the next connection finds it idle.
#[test]
fn closed_loop_reuses_its_handler() {
    let _quiet = quiet();
    let (handle, _, _) = start_server(SCALE, |_| {}, &[]);
    let addr = handle.addr();
    for (i, word) in ["R", "S", "RR", "SR", "RRS"].iter().cycle().take(30).enumerate() {
        let resp = post_query(addr, "t", &word_query_text(word));
        assert_eq!(resp.status, 200, "request {i}: {}", resp.body);
        assert_eq!(get(addr, "/healthz").status, 200);
    }
    let metrics = handle.metrics();
    let spawns = metrics.counter("server_handler_spawns_total").get();
    assert!(spawns <= 2, "60 closed-loop requests spawned {spawns} handlers");
    assert!(metrics.gauge("server_handler_threads").get() <= 2);
    handle.trigger().shutdown();
    assert!(handle.join());
}

/// A burst of overlapping connections spawns one handler each; once it
/// ends, at most `max_concurrency` of them stay parked.
#[test]
fn idle_handlers_above_max_concurrency_exit() {
    use std::io::Write;
    let _quiet = quiet();
    const BURST: usize = 6;
    let max_concurrency = 2; // `start_server`'s service config
    let (handle, _, _) = start_server(SCALE, |_| {}, &[]);
    let addr = handle.addr();
    let mut slow: Vec<std::net::TcpStream> = (0..BURST)
        .map(|_| {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
            s
        })
        .collect();
    // Every connection is accepted (and so owns a handler) before any
    // of them completes its request.
    await_gauge(&handle, "server_open_connections", BURST as i64);
    for s in &mut slow {
        s.write_all(b"\r\n").unwrap();
        let mut response = String::new();
        std::io::Read::read_to_string(s, &mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    }
    let metrics = handle.metrics();
    assert_eq!(metrics.counter("server_handler_spawns_total").get(), BURST as u64);
    await_gauge(&handle, "server_open_connections", 0);
    assert_eq!(metrics.gauge("server_handler_threads").get(), max_concurrency);

    // The parked handlers serve what comes next without spawning.
    assert_eq!(get(addr, "/healthz").status, 200);
    assert_eq!(metrics.counter("server_handler_spawns_total").get(), BURST as u64);
    handle.trigger().shutdown();
    assert!(handle.join());
}

// ---------------------------------------------------------------------------
// Tenant quotas and deadline propagation
// ---------------------------------------------------------------------------

#[test]
fn quota_starved_tenant_is_shed_while_others_answer() {
    let _quiet = quiet();
    let starved = TenantQuota { rate_per_sec: 0.001, burst: 1.0, max_concurrency: 8 };
    let (handle, sys, data) = start_server(SCALE, |_| {}, &[("starved", starved)]);
    let addr = handle.addr();
    let query = word_query_text("R");
    let want = oracle_lines(&sys, &data, &query);

    // One token in the bucket: the first request answers, the second is
    // shed with a Retry-After reflecting the (glacial) refill rate.
    let first = post_query(addr, "starved", &query);
    assert_eq!(first.status, 200);
    assert_eq!(body_lines(&first), want);
    let second = post_query(addr, "starved", &query);
    assert_eq!(second.status, 429, "expected quota shed: {}", second.body);
    let retry_after: u64 = second.header("retry-after").unwrap().parse().unwrap();
    assert!(retry_after >= 1);
    assert!(second.body.contains("starved"), "429 body should name the tenant");

    // Other tenants are unaffected — including after the starved 429s.
    for _ in 0..3 {
        let resp = post_query(addr, "patient", &query);
        assert_eq!(resp.status, 200);
        assert_eq!(body_lines(&resp), want);
    }
    let metrics = get(addr, "/metrics").body;
    assert!(metrics.contains("server_rejected_quota_total_starved"));

    handle.trigger().shutdown();
    assert!(handle.join());
}

#[test]
fn client_deadline_is_clamped_and_propagated() {
    let _quiet = quiet();
    // A 1 ms deadline on a fresh (uncached) query must trip the budget
    // inside the pipeline and come back as a 504, not hang or 200. The
    // query has answers here and evaluates in several milliseconds; one
    // whose answer is empty can be settled within the deadline.
    let (handle, _, _) = start_server(SCALE, |_| {}, &[]);
    let addr = handle.addr();
    let resp = client::request(
        addr,
        "POST",
        "/query",
        &[("X-Obda-Timeout-Ms", "1")],
        &word_query_text("RRRRRRRR"),
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 504, "expected a budget trip: {}", resp.body);

    // A generous client deadline is clamped by the server ceiling, not
    // trusted: the request still answers fine.
    let resp = client::request(
        addr,
        "POST",
        "/query",
        &[("X-Obda-Timeout-Ms", "999999999")],
        &word_query_text("R"),
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 200);

    handle.trigger().shutdown();
    assert!(handle.join());
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

#[test]
fn drain_flips_readyz_refuses_new_work_and_finishes() {
    let _quiet = quiet();
    let (handle, sys, data) = start_server(SCALE, |_| {}, &[]);
    let addr = handle.addr();
    let query = word_query_text("RR");
    let want = oracle_lines(&sys, &data, &query);

    // Admitted-before-drain work completes with the oracle answer even
    // when the drain begins while it is in flight.
    let inflight = std::thread::spawn(move || post_query(addr, "steady", &query));
    std::thread::sleep(Duration::from_millis(5));
    handle.trigger().shutdown();
    assert!(handle.is_draining());

    // During the drain the accept loop still serves health/readiness —
    // readiness now refusing — and sheds new queries with a typed 503.
    let ready = get(addr, "/readyz");
    assert_eq!(ready.status, 503);
    assert!(ready.header("retry-after").is_some());
    assert_eq!(get(addr, "/healthz").status, 200);
    let shed = post_query(addr, "latecomer", &word_query_text("R"));
    assert_eq!(shed.status, 503, "post-drain query must be shed: {}", shed.body);

    let resp = inflight.join().unwrap();
    assert!(
        resp.status == 200 || resp.status == 503,
        "in-flight request must complete or be shed, got {}",
        resp.status
    );
    if resp.status == 200 {
        assert_eq!(body_lines(&resp), want);
    }
    assert!(handle.join(), "drain must finish inside its timeout");
}

#[test]
fn shutdown_endpoint_triggers_the_drain() {
    let _quiet = quiet();
    let (handle, _, _) = start_server(SCALE, |_| {}, &[]);
    let addr = handle.addr();
    let resp = client::request(addr, "POST", "/shutdown", &[], "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 202);
    assert!(handle.is_draining());
    assert!(handle.join());
}

#[test]
fn concurrent_shutdown_requests_drain_exactly_once() {
    let _quiet = quiet();
    let (handle, sys, data) = start_server(SCALE, |_| {}, &[]);
    let addr = handle.addr();
    let query = word_query_text("RS");
    let want = oracle_lines(&sys, &data, &query);
    assert_eq!(get(addr, "/readyz").status, 200);

    // A request in flight while two shutdown triggers race.
    let inflight = std::thread::spawn(move || post_query(addr, "steady", &query));
    std::thread::sleep(Duration::from_millis(5));
    let shutdowns: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                client::request(addr, "POST", "/shutdown", &[], "", CLIENT_TIMEOUT).unwrap()
            })
        })
        .collect();
    for t in shutdowns {
        // The trigger is idempotent: both racers are accepted.
        assert_eq!(t.join().unwrap().status, 202);
    }
    assert!(handle.is_draining());

    // Readiness has flipped exactly once — it refuses now and keeps
    // refusing; liveness is unaffected; the metrics counter shows both
    // triggers were seen while the drain began only once.
    assert_eq!(get(addr, "/readyz").status, 503);
    assert_eq!(get(addr, "/healthz").status, 200);
    assert_eq!(get(addr, "/readyz").status, 503);
    let metrics = get(addr, "/metrics").body;
    assert!(
        metrics.contains("server_shutdown_requests_total 2"),
        "both shutdown requests must be counted: {metrics}"
    );

    // The in-flight request still completes correctly (or is shed typed).
    let resp = inflight.join().unwrap();
    assert!(resp.status == 200 || resp.status == 503, "got {}", resp.status);
    if resp.status == 200 {
        assert_eq!(body_lines(&resp), want);
    }
    // One clean drain; `join` consumes the handle, so a double-join
    // cannot even compile.
    assert!(handle.join(), "concurrent triggers must still drain cleanly");
}

// ---------------------------------------------------------------------------
// Overload control over HTTP: tenant breakers
// ---------------------------------------------------------------------------

#[test]
fn tenant_circuit_breaker_isolates_the_abusive_tenant() {
    let _quiet = quiet();
    use obda::BreakerConfig;
    // Every query trips the budget on its first derived tuple, and one
    // failure inside the window opens a tenant's breaker.
    let (handle, _, _) = start_server(
        SCALE,
        |cfg| {
            cfg.budget = BudgetSpec { max_tuples: Some(0), ..BudgetSpec::unlimited() };
            cfg.tenant_breaker = Some(BreakerConfig {
                window: 2,
                threshold: 1,
                cooldown: Duration::from_secs(60),
                probes: 1,
                seed: 7,
            });
        },
        &[],
    );
    let addr = handle.addr();
    // A query with answers on this data: one whose answer is empty may be
    // settled without deriving a tuple, and would never trip.
    let query = word_query_text("RR");

    // greedy's first request burns its budget: a typed 504.
    assert_eq!(post_query(addr, "greedy", &query).status, 504);
    // Its breaker is open now: the next request fails fast with 503 and
    // a jittered Retry-After, without burning anything.
    let refused = post_query(addr, "greedy", &query);
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert!(refused.header("retry-after").is_some());
    assert!(refused.body.contains("circuit breaker"), "{}", refused.body);
    // Breakers are per tenant: alpha's first request reaches evaluation
    // (and trips the shared budget as a 504) instead of being refused.
    assert_eq!(post_query(addr, "alpha", &query).status, 504);

    let metrics = get(addr, "/metrics").body;
    assert!(metrics.contains("server_tenant_breaker_rejected_total_greedy 1"), "{metrics}");
    assert!(metrics.contains("server_tenant_breaker_opened_total_greedy 1"), "{metrics}");
    handle.trigger().shutdown();
    assert!(handle.join());
}

// ---------------------------------------------------------------------------
// Soak: sustained three-tenant traffic (hot, quota-starved, well-behaved)
// ---------------------------------------------------------------------------

/// Issues `rounds` requests as `tenant` and asserts every response obeys
/// the soak invariant: oracle-correct 200 or a typed error — never a
/// wrong answer, never an untyped failure. Returns (ok, shed) counts.
fn soak_tenant(
    addr: SocketAddr,
    tenant: &str,
    rounds: usize,
    pause: Duration,
    expected: &[(String, Vec<String>)],
) -> (usize, usize) {
    let mut ok = 0;
    let mut shed = 0;
    for i in 0..rounds {
        let (query, want) = &expected[i % expected.len()];
        let resp = post_query(addr, tenant, query);
        match resp.status {
            200 => {
                assert_eq!(&body_lines(&resp), want, "{tenant}: wrong 200 body");
                ok += 1;
            }
            429 => {
                assert!(resp.header("retry-after").is_some(), "429 without Retry-After");
                shed += 1;
            }
            500 | 503 | 504 => {
                assert!(resp.body.starts_with("error:"), "untyped error body: {}", resp.body);
                shed += 1;
            }
            other => panic!("{tenant}: unexpected status {other}: {}", resp.body),
        }
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
    }
    (ok, shed)
}

#[test]
fn soak_three_tenant_traffic_stays_sound() {
    let _quiet = quiet();
    let starved = TenantQuota { rate_per_sec: 5.0, burst: 3.0, max_concurrency: 2 };
    let (handle, sys, data) = start_server(SCALE, |_| {}, &[("starved", starved)]);
    let addr = handle.addr();
    let expected: Vec<(String, Vec<String>)> = ["R", "S", "RR", "SR"]
        .iter()
        .map(|w| {
            let q = word_query_text(w);
            let want = oracle_lines(&sys, &data, &q);
            (q, want)
        })
        .collect();

    // ≥200 requests across the three profiles, concurrently.
    let hot = {
        let expected = expected.clone();
        std::thread::spawn(move || soak_tenant(addr, "hot", 100, Duration::ZERO, &expected))
    };
    let starved = {
        let expected = expected.clone();
        std::thread::spawn(move || soak_tenant(addr, "starved", 60, Duration::ZERO, &expected))
    };
    let steady = {
        let expected = expected.clone();
        std::thread::spawn(move || {
            soak_tenant(addr, "steady", 60, Duration::from_millis(2), &expected)
        })
    };

    let (hot_ok, _) = hot.join().unwrap();
    let (starved_ok, starved_shed) = starved.join().unwrap();
    let (steady_ok, steady_shed) = steady.join().unwrap();

    // The unthrottled tenants are never starved by the starved tenant's
    // shedding; the starved tenant is genuinely throttled but not dead.
    assert_eq!(hot_ok, 100, "hot tenant should complete every request");
    assert_eq!(steady_ok + steady_shed, 60);
    assert!(starved_ok >= 1, "burst admits at least the first request");
    assert!(starved_shed >= 1, "a 5 rps bucket cannot absorb 60 back-to-back requests");

    // The accept loop survived the storm.
    assert_eq!(get(addr, "/healthz").status, 200);
    handle.trigger().shutdown();
    assert!(handle.join());
}

// ---------------------------------------------------------------------------
// Faulted soak (requires `--features faults`): injected transients and
// panics at the `server::handle` site.
// ---------------------------------------------------------------------------

#[cfg(feature = "faults")]
mod faulted {
    use super::*;
    use obda::faults::{site, FaultKind, FaultPlan, FaultSpec, Trigger};
    use std::sync::Once;

    /// Routes injected-fault panics to silence (they are the *point* of
    /// this suite) while forwarding genuine panics to the previous hook.
    fn quiet_injected_panics() {
        static QUIET: Once = Once::new();
        QUIET.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let p = info.payload();
                let injected = p.downcast_ref::<obda::faults::FaultError>().is_some()
                    || p.downcast_ref::<String>()
                        .is_some_and(|s| s.starts_with("injected panic at"));
                if !injected {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn soak_under_injected_faults_never_lies_and_never_dies() {
        quiet_injected_panics();
        let starved = TenantQuota { rate_per_sec: 10.0, burst: 3.0, max_concurrency: 2 };
        let (handle, sys, data) = start_server(SCALE, |_| {}, &[("starved", starved)]);
        let addr = handle.addr();
        let expected: Vec<(String, Vec<String>)> = ["R", "S", "RR"]
            .iter()
            .map(|w| {
                let q = word_query_text(w);
                let want = oracle_lines(&sys, &data, &q);
                (q, want)
            })
            .collect();

        // Phase 1: a transient fault every 5th handled request.
        {
            let _guard = FaultPlan::new(0xfeed)
                .with(
                    site::SERVER_HANDLE,
                    FaultSpec { kind: FaultKind::Transient, trigger: Trigger::EveryNth(5) },
                )
                .install();
            let threads: Vec<_> = ["hot", "starved", "steady"]
                .into_iter()
                .map(|tenant| {
                    let expected = expected.clone();
                    std::thread::spawn(move || {
                        soak_tenant(addr, tenant, 40, Duration::ZERO, &expected)
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
        }

        // Phase 2: an injected panic every 7th handled request.
        {
            let _guard = FaultPlan::new(0xdead)
                .with(
                    site::SERVER_HANDLE,
                    FaultSpec { kind: FaultKind::Panic, trigger: Trigger::EveryNth(7) },
                )
                .install();
            let threads: Vec<_> = ["hot", "steady"]
                .into_iter()
                .map(|tenant| {
                    let expected = expected.clone();
                    std::thread::spawn(move || {
                        soak_tenant(addr, tenant, 40, Duration::ZERO, &expected)
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
        }

        // Faults disarmed: the accept loop is alive and answers are
        // exact again — no residual poisoning.
        assert_eq!(get(addr, "/healthz").status, 200);
        let (query, want) = &expected[0];
        let resp = post_query(addr, "after", query);
        assert_eq!(resp.status, 200, "post-fault request failed: {}", resp.body);
        assert_eq!(&body_lines(&resp), want);

        handle.trigger().shutdown();
        assert!(handle.join());
    }
}

// ---------------------------------------------------------------------------
// The compiled binary, end to end: snapshot-backed Table-2 dataset,
// concurrent tenants, quota shedding, drain on stdin, exit 0.
// ---------------------------------------------------------------------------

/// Spawns `obda serve` with `args` and returns the child and the address
/// from its banner.
fn spawn_serve(args: &[&str]) -> (std::process::Child, SocketAddr) {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_obda"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .parse()
        .unwrap();
    (child, addr)
}

/// Asks a spawned `obda serve` to drain over stdin and waits for a clean
/// exit.
fn shutdown_serve(mut child: std::process::Child) {
    use std::io::Write;
    child.stdin.take().unwrap().write_all(b"shutdown\n").unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "serve must exit 0 after a clean drain, got {status:?}");
}

/// A snapshot whose data block is corrupt still boots `obda serve` (open
/// reads only the metadata), and a query that joins the bad block gets a
/// typed `500` naming the checksum mismatch — every time, since the failed
/// segment stays pending — while the server keeps serving. A server over
/// the pristine file answers the same query with the oracle's set.
#[test]
fn serve_binary_reports_a_corrupt_segment_typed() {
    let tag = std::process::id();
    let dir = std::env::temp_dir();
    let ontology_path = dir.join(format!("obda-serve-corrupt-{tag}.owlql"));
    let db_path = dir.join(format!("obda-serve-corrupt-{tag}.obdb"));
    std::fs::write(&ontology_path, ONTOLOGY).unwrap();
    let sys = paper_system();
    let data = table2_data(&sys, 0, SCALE);
    write_snapshot(&db_path, sys.ontology().vocab(), &data).unwrap();
    let pristine = std::fs::read(&db_path).unwrap();
    let mut corrupt = pristine.clone();
    // Data blocks start on page boundaries after the metadata: corrupt the
    // first byte of every page past the first, so whatever the query joins
    // is bad.
    for page in (4096..corrupt.len()).step_by(4096) {
        corrupt[page] ^= 0x01;
    }
    std::fs::write(&db_path, &corrupt).unwrap();
    let query = word_query_text("RR");
    let want = oracle_lines(&sys, &data, &query);
    let args = [
        "--ontology",
        ontology_path.to_str().unwrap(),
        "--db",
        db_path.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ];

    let (child, addr) = spawn_serve(&args);
    for _ in 0..2 {
        let resp = post_query(addr, "alice", &query);
        assert_eq!(resp.status, 500, "corrupt data must be a typed error: {}", resp.body);
        assert!(resp.body.contains("snapshot checksum mismatch"), "body: {}", resp.body);
    }
    assert_eq!(get(addr, "/healthz").status, 200, "the server survives corrupt data");
    shutdown_serve(child);

    std::fs::write(&db_path, &pristine).unwrap();
    let (child, addr) = spawn_serve(&args);
    let resp = post_query(addr, "alice", &query);
    assert_eq!(resp.status, 200, "a pristine reopen answers: {}", resp.body);
    assert_eq!(body_lines(&resp), want);
    shutdown_serve(child);

    std::fs::remove_file(&ontology_path).ok();
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn serve_binary_end_to_end() {
    use std::io::Write;

    let tag = std::process::id();
    let dir = std::env::temp_dir();
    let ontology_path = dir.join(format!("obda-serve-{tag}.owlql"));
    let db_path = dir.join(format!("obda-serve-{tag}.obdb"));
    std::fs::write(&ontology_path, ONTOLOGY).unwrap();
    let sys = paper_system();
    let data = table2_data(&sys, 0, SCALE);
    write_snapshot(&db_path, sys.ontology().vocab(), &data).unwrap();

    // A default tenant quota small enough that a greedy tenant is shed:
    // 2 rps with a burst of 3 tokens, each tenant with its own bucket.
    let (mut child, addr) = spawn_serve(&[
        "--ontology",
        ontology_path.to_str().unwrap(),
        "--db",
        db_path.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--quota-rate",
        "2",
        "--quota-burst",
        "3",
        "--drain-secs",
        "8",
    ]);

    let expected: Vec<(String, Vec<String>)> = ["R", "RR"]
        .iter()
        .map(|w| {
            let q = word_query_text(w);
            let want = oracle_lines(&sys, &data, &q);
            (q, want)
        })
        .collect();

    // Concurrent tenants: greedy hammers (bucket: 3 tokens, 2 rps) and
    // must see at least one 200 and at least one 429; the two polite
    // tenants see only oracle-correct 200s.
    let greedy = {
        let expected = expected.clone();
        std::thread::spawn(move || soak_tenant(addr, "greedy", 12, Duration::ZERO, &expected))
    };
    let polite: Vec<_> = ["alice", "bob"]
        .into_iter()
        .map(|tenant| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                for (query, want) in &expected {
                    let resp = post_query(addr, tenant, query);
                    assert_eq!(resp.status, 200, "{tenant}: {}", resp.body);
                    assert_eq!(&body_lines(&resp), want);
                }
            })
        })
        .collect();
    let (greedy_ok, greedy_shed) = greedy.join().unwrap();
    assert!(greedy_ok >= 1, "the burst admits the first greedy requests");
    assert!(greedy_shed >= 1, "12 back-to-back requests must overrun a 3-token bucket");
    for t in polite {
        t.join().unwrap();
    }

    // Hold a connection open (a slow-loris that will be shed by the read
    // timeout) so the drain window is observable, then ask for shutdown
    // on stdin. During the drain: readyz 503, healthz 200, new queries
    // shed — the accept loop must still be serving.
    let loris = std::net::TcpStream::connect(addr).unwrap();
    // `connect` can return before the accept loop counts the loris, and
    // a shutdown that overtook the count would drain at once. The loop
    // counts each connection before it accepts the next, so a later
    // request that sees two open connections (the loris and itself)
    // proves the drain must wait for the loris.
    let counted = std::time::Instant::now() + CLIENT_TIMEOUT;
    while counter(&get(addr, "/metrics").body, "server_open_connections") < 2 {
        assert!(std::time::Instant::now() < counted, "the loris was never counted");
        std::thread::sleep(Duration::from_millis(2));
    }
    child.stdin.take().unwrap().write_all(b"shutdown\n").unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let ready = get(addr, "/readyz");
    assert_eq!(ready.status, 503, "draining server must fail readiness");
    assert_eq!(get(addr, "/healthz").status, 200);
    let shed = post_query(addr, "late", &expected[0].0);
    assert_eq!(shed.status, 503, "late query must be shed: {}", shed.body);
    drop(loris);

    let status = child.wait().unwrap();
    assert!(status.success(), "serve must exit 0 after a clean drain, got {status:?}");
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(stderr.contains("drained cleanly"), "stderr: {stderr}");

    std::fs::remove_file(&ontology_path).ok();
    std::fs::remove_file(&db_path).ok();
}
