//! Regenerates every table and figure of the paper's experimental section.
//!
//! ```text
//! experiments [fig1] [fig2] [table2] [table3] [table4] [table5]
//!             [bencheval] [benchguard] [benchjoin] [benchstore]
//!             [benchserve] [benchsoak] [all]
//!             [--scale S] [--max-atoms N] [--timeout-secs T] [--csv DIR]
//!             [--threads N] [--quick] [--sweep]
//! ```
//!
//! * `fig1`   — the complexity landscape of Figure 1(a);
//! * `fig2`   — rewriting sizes (Figure 2 / Table 1): number of clauses
//!   per algorithm for prefixes 1–15 of the three sequences;
//! * `table2` — the generated datasets (scaled by `--scale`);
//! * `table3/4/5` — evaluation time / #answers / #generated-tuples per
//!   algorithm per dataset for sequences 1/2/3;
//! * `bencheval` — the engine comparison at three configurations: one
//!   thread without pruning (the tables' RDFox stand-in) vs pruned on one
//!   thread vs pruned on `--threads` workers, over the Table 2 datasets,
//!   written as
//!   JSON to `BENCH_eval.json` in the current directory, with every row
//!   cross-checked against the budgeted chase oracle;
//! * `benchguard` — re-measures the `BENCH_eval.json` cells on the current
//!   build and fails (exit 1) if any cell derives a different tuple count
//!   or regresses measurably in time — the guard that the compiled-out
//!   fault-injection sites really are no-ops (run **without**
//!   `--features faults`; not part of `all`);
//! * `benchjoin` — the join-planning comparison: the pruned engine with
//!   the cost-based join order vs the syntactic order (`plan: false`),
//!   asserting identical answers and tuple counts, with per-clause
//!   estimated-vs-actual cardinalities from one executed explain;
//!   spliced into `BENCH_eval.json` as a `"benchjoin"` section next to
//!   the bencheval rows (part of the CI quality gate alongside
//!   `benchguard`; not part of `all`);
//! * `benchstore` — the snapshot-store load benchmark: for every Table 2
//!   dataset at scales 0.05 and 0.5, measures text-parse-plus-index time
//!   against `.obdb` snapshot open time (best of 5, same `Database`
//!   either way), records each phase's peak RSS in a child process that
//!   runs only that phase (`experiments store-phase idle|parse|open
//!   FILE`), asserts the two loads hold identical atom counts, and writes
//!   `BENCH_store.json` in the current directory (not part of `all`).
//!   With `--sweep` it first runs the lazy-hydration scale sweep on the
//!   largest dataset at scales 0.05/0.5/2.0: lazy open vs open plus a
//!   full `hydrate` (every predicate decoded and verified, the eager
//!   column) time, bytes/columns hydrated after touching a single predicate, and
//!   the RSS delta across a lazy open, with in-binary gates that fail
//!   (exit ≠ 0) on super-linear open time or a resident footprint beyond
//!   the touched-columns budget — the CI scale gate;
//! * `benchserve` — the HTTP serving benchmark: boots the in-process
//!   `obda serve` server over the scale-0.05 Table 2 dataset, drives it
//!   with three concurrent tenants over real TCP, and writes per-query
//!   throughput plus p50/p95/p99 client-observed latency (and the
//!   first-request cache-miss cost) to `BENCH_serve.json` (timing-noise
//!   sensitive, so not part of `all`);
//! * `benchsoak` — the sustained-load soak: the server with the full
//!   adaptive overload stack (cost admission, circuit breakers) driven
//!   over TCP by two well-behaved tenants and
//!   one abusive tenant while deterministic faults fire server-side;
//!   asserts every `200` body is oracle-exact and the server survives,
//!   and writes per-tenant status/latency breakdowns, per-second
//!   trajectories and the overload counters to `BENCH_soak.json`
//!   (needs `--features faults`; ~2 min, or seconds with `--quick`;
//!   never part of `all`);
//! * defaults: `--scale 0.05 --max-atoms 15 --timeout-secs 10 --threads 4`.
//!
//! Absolute numbers differ from the paper (different machine, a naive
//! in-process datalog engine instead of RDFox, scaled data); the *shapes*
//! — who blows up, who stays linear, who wins where — are the target.

use obda::budget::{Budget, BudgetSpec};
use obda::telemetry::{CollectingTracer, Telemetry};
use obda::Strategy;
use obda_bench::{
    dataset, dataset_configs, evaluate_cell, paper_system, prefix_query, render_table,
    rewriting_clauses, EVAL_STRATEGIES, FIG2_STRATEGIES,
};
use obda_datagen::sequences::SEQUENCES;
use obda_ndl::engine::EngineConfig;
use obda_ndl::eval::EvalResult;
use obda_ndl::storage::Database;
use std::time::{Duration, Instant};

struct Config {
    scale: f64,
    max_atoms: usize,
    timeout: Duration,
    csv_dir: Option<String>,
    sections: Vec<String>,
    threads: usize,
    quick: bool,
    sweep: bool,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        scale: 0.05,
        max_atoms: 15,
        timeout: Duration::from_secs(10),
        csv_dir: None,
        sections: Vec::new(),
        threads: 4,
        quick: false,
        sweep: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--sweep" => cfg.sweep = true,
            "--scale" => cfg.scale = numeric_arg(&mut args, "--scale"),
            "--max-atoms" => cfg.max_atoms = numeric_arg(&mut args, "--max-atoms"),
            "--timeout-secs" => {
                cfg.timeout = Duration::from_secs(numeric_arg(&mut args, "--timeout-secs"));
            }
            "--csv" => cfg.csv_dir = Some(args.next().expect("--csv takes a directory")),
            "--threads" => cfg.threads = numeric_arg(&mut args, "--threads"),
            section => cfg.sections.push(section.to_owned()),
        }
    }
    if cfg.sections.is_empty() {
        cfg.sections.push("all".to_owned());
    }
    cfg
}

fn numeric_arg<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(value) = args.next() else {
        eprintln!("error: {flag} takes a value");
        std::process::exit(2);
    };
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid value `{value}` for {flag}");
        std::process::exit(2);
    })
}

fn wants(cfg: &Config, section: &str) -> bool {
    cfg.sections.iter().any(|s| s == section || s == "all")
}

fn main() {
    // The child side of benchstore's per-phase RSS readings.
    if std::env::args().nth(1).as_deref() == Some("store-phase") {
        store_phase();
        return;
    }
    let cfg = parse_args();
    if let Some(dir) = &cfg.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    if wants(&cfg, "fig1") {
        fig1();
    }
    if wants(&cfg, "fig2") {
        fig2(&cfg);
    }
    if wants(&cfg, "table2") {
        table2(&cfg);
    }
    for (i, name) in ["table3", "table4", "table5"].iter().enumerate() {
        if wants(&cfg, name) {
            evaluation_table(&cfg, i);
        }
    }
    if wants(&cfg, "bencheval") {
        bencheval(&cfg);
    }
    // Deliberately not part of `all`: the guard asserts (and can exit
    // non-zero), while `all` regenerates documentation artefacts.
    if cfg.sections.iter().any(|s| s == "benchguard") {
        benchguard(&cfg);
    }
    // Splices into (and asserts against) the committed BENCH_eval.json,
    // so it runs on request like benchguard, not under `all`.
    if cfg.sections.iter().any(|s| s == "benchjoin") {
        benchjoin(&cfg);
    }
    // Also not part of `all`: RSS readings only mean something in a
    // process that has not already run every other section.
    if cfg.sections.iter().any(|s| s == "benchstore") {
        benchstore(&cfg);
    }
    // Wall-clock-sensitive like the other two: run alone.
    if cfg.sections.iter().any(|s| s == "benchserve") {
        benchserve(&cfg);
    }
    // The sustained-load soak under injected faults; needs `--features
    // faults` and runs for minutes (seconds with `--quick`), so never
    // under `all`.
    if cfg.sections.iter().any(|s| s == "benchsoak") {
        benchsoak(&cfg);
    }
}

/// The HTTP serving benchmark behind `BENCH_serve.json`: an in-process
/// `obda serve` server over the Table 2 dataset, driven by three
/// concurrent tenants over real TCP. Per query word it reports
/// throughput and the client-observed latency distribution (via the
/// telemetry histogram's quantile estimator, the same estimator the
/// serving metrics expose), plus the first-request cost — the cache miss
/// that pays for classification, rewriting and pruning once.
fn benchserve(cfg: &Config) {
    use obda::server::client;
    use obda::telemetry::Histogram;
    use obda::{MemoryBackend, QueryService, Server, ServerConfig, ServiceConfig};

    const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];
    const REQUESTS_PER_TENANT: usize = 60;
    const WORDS: [&str; 3] = ["R", "RR", "RRS"];

    let sys = paper_system();
    let data = dataset(&sys, 0, cfg.scale);
    let service = QueryService::new(
        paper_system(),
        ServiceConfig {
            max_concurrency: cfg.threads.max(1),
            max_queue: 64,
            budget: BudgetSpec::unlimited(),
            retry: obda::RetryPolicy::default(),
            engine: EngineConfig::default(),
            overload: obda::OverloadConfig::default(),
        },
    );
    let server = Server::bind(
        service,
        Box::new(MemoryBackend::new(data)),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_timeout: cfg.timeout,
            ..ServerConfig::default()
        },
    )
    .expect("bind benchserve server");
    let handle = server.start();
    let addr = handle.addr();

    println!(
        "== obda serve: {} tenants x {REQUESTS_PER_TENANT} requests over TCP \
         (scale {}, {} worker slots) ==\n",
        TENANTS.len(),
        cfg.scale,
        cfg.threads.max(1)
    );
    let header: Vec<String> =
        ["word", "requests", "first ms", "p50 ms", "p95 ms", "p99 ms", "req/s"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
    let mut table_rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();
    for word in WORDS {
        let query = {
            let n = word.len();
            let atoms: Vec<String> =
                word.chars().enumerate().map(|(i, c)| format!("{c}(x{i}, x{})", i + 1)).collect();
            format!("q(x0, x{n}) :- {}", atoms.join(", "))
        };
        // The cache-miss request: classification + rewriting + pruning.
        let first = Instant::now();
        let warm = client::request(addr, "POST", "/query", &[], &query, cfg.timeout)
            .expect("warm-up request");
        let first_ms = first.elapsed().as_secs_f64() * 1e3;
        assert_eq!(warm.status, 200, "warm-up failed: {}", warm.body);
        let answers: usize = warm.header("x-obda-answers").unwrap_or("0").parse().unwrap_or(0);

        let hist = Histogram::default();
        let wall = Instant::now();
        std::thread::scope(|scope| {
            for tenant in TENANTS {
                let query = &query;
                let hist = &hist;
                scope.spawn(move || {
                    for _ in 0..REQUESTS_PER_TENANT {
                        let start = Instant::now();
                        let resp = client::request(
                            addr,
                            "POST",
                            "/query",
                            &[("X-Obda-Tenant", tenant)],
                            query,
                            cfg.timeout,
                        )
                        .expect("benchserve request");
                        assert_eq!(resp.status, 200, "request failed: {}", resp.body);
                        hist.observe(start.elapsed());
                    }
                });
            }
        });
        let wall = wall.elapsed();
        let total = TENANTS.len() * REQUESTS_PER_TENANT;
        let throughput = total as f64 / wall.as_secs_f64().max(1e-9);
        let q_ms = |q: f64| hist.quantile(q).unwrap_or(0.0) * 1e3;
        table_rows.push(vec![
            word.to_owned(),
            total.to_string(),
            format!("{first_ms:.3}"),
            format!("{:.3}", q_ms(0.5)),
            format!("{:.3}", q_ms(0.95)),
            format!("{:.3}", q_ms(0.99)),
            format!("{throughput:.0}"),
        ]);
        json_rows.push(format!(
            "    {{\"word\": \"{word}\", \"requests\": {total}, \"answers\": {answers}, \
             \"first_request_seconds\": {:.6}, \"p50_seconds\": {:.6}, \
             \"p95_seconds\": {:.6}, \"p99_seconds\": {:.6}, \
             \"wall_seconds\": {:.6}, \"throughput_rps\": {throughput:.1}}}",
            first_ms / 1e3,
            q_ms(0.5) / 1e3,
            q_ms(0.95) / 1e3,
            q_ms(0.99) / 1e3,
            wall.as_secs_f64(),
        ));
    }
    handle.trigger().shutdown();
    assert!(handle.join(), "benchserve server must drain cleanly");
    println!("{}", render_table(&header, &table_rows));
    let json = format!(
        "{{\n  \"config\": {{\"tenants\": {}, \"requests_per_tenant\": {REQUESTS_PER_TENANT}, \
         \"scale\": {}, \"worker_slots\": {}, \"transport\": \"HTTP/1.1 over loopback TCP, \
         connection per request\"}},\n  \"rows\": [\n{}\n  ]\n}}\n",
        TENANTS.len(),
        cfg.scale,
        cfg.threads.max(1),
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_serve.json", json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json ({} rows)", table_rows.len());
}

/// `benchsoak` without `--features faults` refuses loudly: a soak that
/// cannot inject faults would not exercise the overload machinery it
/// exists to prove.
#[cfg(not(feature = "faults"))]
fn benchsoak(_cfg: &Config) {
    eprintln!(
        "error: benchsoak needs the deterministic fault registry; \
         rebuild with `--features faults`"
    );
    std::process::exit(2);
}

/// The sustained-load soak behind `BENCH_soak.json`: the in-process
/// server with the full adaptive overload stack enabled (cost admission,
/// strategy and tenant circuit breakers), driven
/// over real TCP by two well-behaved tenants and one abusive tenant
/// whose requests carry deadlines their queries cannot meet — all while
/// deterministic faults (transient evaluation failures plus handler
/// panics) fire server-side.
///
/// Phase 1 measures the *unloaded* latency profile of the well-behaved
/// tenants; phase 2 is the soak. The harness asserts the two hard
/// invariants (every `200` body is oracle-exact; the accept loop
/// survives to answer `/healthz`) and records per-tenant status
/// breakdowns, per-second trajectories and the overload counters so the
/// committed JSON shows the abusive tenant being shed with typed
/// `429`/`503` while the well-behaved tenants' tail latency holds.
#[cfg(feature = "faults")]
fn benchsoak(cfg: &Config) {
    use obda::faults::{site, FaultKind, FaultPlan, FaultSpec, Trigger};
    use obda::server::client;
    use obda::telemetry::Histogram;
    use obda::{
        BreakerConfig, CostAdmissionConfig, MemoryBackend, OverloadConfig, QueryService, Server,
        ServerConfig, ServiceConfig,
    };
    use std::collections::BTreeMap;

    // Injected panics are the point of the soak: keep them off stderr
    // while letting genuine panics (assertion failures) through.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let p = info.payload();
        let injected = p.downcast_ref::<obda::faults::FaultError>().is_some()
            || p.downcast_ref::<String>().is_some_and(|s| s.starts_with("injected panic at"));
        if !injected {
            prev(info);
        }
    }));

    let (baseline_requests, soak) = if cfg.quick {
        (100usize, Duration::from_secs(6))
    } else {
        (400, Duration::from_secs(120))
    };
    let good_pause = Duration::from_millis(if cfg.quick { 5 } else { 10 });
    let client_timeout = Duration::from_secs(10);

    let sys = paper_system();
    let data = dataset(&sys, 0, cfg.scale);
    let service = QueryService::new(
        paper_system(),
        ServiceConfig {
            max_concurrency: cfg.threads.max(2),
            max_queue: 32,
            budget: BudgetSpec::unlimited(),
            retry: obda::RetryPolicy::default(),
            engine: EngineConfig::default(),
            overload: OverloadConfig {
                breaker: Some(BreakerConfig::default()),
                cost: Some(CostAdmissionConfig::default()),
            },
        },
    );
    let server = Server::bind(
        service,
        Box::new(MemoryBackend::new(data.clone())),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_timeout: cfg.timeout,
            tenant_breaker: Some(BreakerConfig::default()),
            ..ServerConfig::default()
        },
    )
    .expect("bind benchsoak server");
    let handle = server.start();
    let addr = handle.addr();

    // (tenant, query word, client deadline header, pause between sends).
    // greedy's one-millisecond deadline is one its six-atom query cannot
    // meet: every admitted attempt burns its budget, so the typed
    // overload machinery — tenant breaker, cost admission — is what
    // keeps it from starving everyone else.
    let word_query = |word: &str| {
        let n = word.len();
        let atoms: Vec<String> =
            word.chars().enumerate().map(|(i, c)| format!("{c}(x{i}, x{})", i + 1)).collect();
        format!("q(x0, x{n}) :- {}", atoms.join(", "))
    };
    let oracle_of = |query: &str| -> Vec<String> {
        let q = sys.parse_query(query).expect("parse soak query");
        let mut lines: Vec<String> = sys
            .certain_answers(&q, &data)
            .tuples()
            .iter()
            .map(|t| {
                let names: Vec<&str> = t.iter().map(|&c| data.constant_name(c)).collect();
                format!("({})", names.join(", "))
            })
            .collect();
        lines.sort();
        lines
    };
    struct Lane {
        tenant: &'static str,
        query: String,
        oracle: Vec<String>,
        timeout_ms: Option<&'static str>,
        pause: Duration,
    }
    let lanes: Vec<Lane> = vec![
        Lane {
            tenant: "alpha",
            query: word_query("RR"),
            oracle: oracle_of(&word_query("RR")),
            timeout_ms: None,
            pause: good_pause,
        },
        Lane {
            tenant: "beta",
            query: word_query("RRS"),
            oracle: oracle_of(&word_query("RRS")),
            timeout_ms: None,
            pause: good_pause,
        },
        Lane {
            tenant: "greedy",
            query: word_query("RSRSRS"),
            oracle: oracle_of(&word_query("RSRSRS")),
            timeout_ms: Some("1"),
            pause: Duration::from_millis(2),
        },
    ];

    #[derive(Default)]
    struct LaneStats {
        requests: u64,
        statuses: BTreeMap<u16, u64>,
        wrong_200: u64,
        io_errors: u64,
        hist: Histogram,
        // Per-second [200, 429, 503, 504, other] counts.
        trajectory: Vec<[u64; 5]>,
    }
    let drive = |lane: &Lane, stats: &mut LaneStats, epoch: Instant| {
        let mut headers: Vec<(&str, &str)> = vec![("X-Obda-Tenant", lane.tenant)];
        if let Some(ms) = lane.timeout_ms {
            headers.push(("X-Obda-Timeout-Ms", ms));
        }
        let second = epoch.elapsed().as_secs() as usize;
        let start = Instant::now();
        let resp =
            match client::request(addr, "POST", "/query", &headers, &lane.query, client_timeout) {
                Ok(resp) => resp,
                Err(_) => {
                    stats.io_errors += 1;
                    return;
                }
            };
        stats.requests += 1;
        *stats.statuses.entry(resp.status).or_insert(0) += 1;
        if stats.trajectory.len() <= second {
            stats.trajectory.resize(second + 1, [0; 5]);
        }
        let slot = match resp.status {
            200 => 0,
            429 => 1,
            503 => 2,
            504 => 3,
            _ => 4,
        };
        stats.trajectory[second][slot] += 1;
        if resp.status == 200 {
            stats.hist.observe(start.elapsed());
            let mut lines: Vec<String> = resp.body.lines().map(str::to_owned).collect();
            lines.sort();
            if lines != lane.oracle {
                stats.wrong_200 += 1;
            }
        }
    };

    // Both phases drive their lanes concurrently with the lane's own
    // pacing; each worker stops after `requests` sends or when the
    // deadline passes, whichever comes first.
    let run_lanes = |subset: Vec<&Lane>, requests: usize, deadline: Duration| {
        let epoch = Instant::now();
        std::thread::scope(|scope| {
            let workers: Vec<_> = subset
                .into_iter()
                .map(|lane| {
                    let drive = &drive;
                    scope.spawn(move || {
                        let mut stats = LaneStats::default();
                        while stats.requests + stats.io_errors < requests as u64
                            && epoch.elapsed() < deadline
                        {
                            drive(lane, &mut stats, epoch);
                            std::thread::sleep(lane.pause);
                        }
                        (lane.tenant, stats)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("soak worker"))
                .collect::<Vec<(&str, LaneStats)>>()
        })
    };

    // Phase 1: the unloaded baseline — the well-behaved tenants run
    // concurrently at their soak pacing, but with no abusive tenant and
    // no faults. The p99 ratio below then isolates what the overloaded,
    // faulted soak costs them, not what mere co-tenancy costs.
    println!(
        "== obda serve soak: 2 well-behaved + 1 abusive tenant, faulted, \
         {}s (scale {}, {} slots) ==\n",
        soak.as_secs(),
        cfg.scale,
        cfg.threads.max(2)
    );
    let baseline = run_lanes(
        lanes.iter().filter(|l| l.timeout_ms.is_none()).collect(),
        baseline_requests,
        soak,
    );
    for (tenant, stats) in &baseline {
        assert_eq!(stats.wrong_200, 0, "baseline for {tenant} must be oracle-exact");
    }

    // Phase 2: the soak. Deterministic server-side faults fire while all
    // three tenants hammer concurrently until the clock runs out.
    let plan = FaultPlan::new(0x0bda_5eed)
        .with(
            site::ENGINE_CLAUSE_TASK,
            FaultSpec { kind: FaultKind::Transient, trigger: Trigger::Probability(0.02) },
        )
        .with(
            site::SERVER_HANDLE,
            FaultSpec { kind: FaultKind::Panic, trigger: Trigger::Probability(0.002) },
        );
    let guard = plan.install();
    let soak_stats = run_lanes(lanes.iter().collect(), usize::MAX, soak);
    drop(guard);

    // The accept loop must have survived everything the soak threw at it.
    let health = client::request(addr, "GET", "/healthz", &[], "", client_timeout);
    let alive = health.map(|r| r.status).unwrap_or(0) == 200;
    let metrics_text = client::request(addr, "GET", "/metrics", &[], "", client_timeout)
        .map(|r| r.body)
        .unwrap_or_default();
    handle.trigger().shutdown();
    let drained = handle.join();
    let metric = |name: &str| -> u64 {
        metrics_text
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
            .unwrap_or(0)
    };

    // Render + JSON.
    let header: Vec<String> =
        ["tenant", "phase", "requests", "200", "429", "503", "504", "other", "p50 ms", "p99 ms"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();
    let count = |s: &LaneStats, code: u16| s.statuses.get(&code).copied().unwrap_or(0);
    let other = |s: &LaneStats| {
        s.statuses.iter().filter(|(c, _)| ![200, 429, 503, 504].contains(*c)).map(|(_, n)| n).sum()
    };
    let mut wrong_total = 0u64;
    let mut io_total = 0u64;
    for (phase, set) in [("baseline", &baseline), ("soak", &soak_stats)] {
        for (tenant, s) in set.iter() {
            let q_ms = |q: f64| s.hist.quantile(q).unwrap_or(0.0) * 1e3;
            wrong_total += s.wrong_200;
            io_total += s.io_errors;
            let other: u64 = other(s);
            rows.push(vec![
                (*tenant).to_owned(),
                phase.to_owned(),
                s.requests.to_string(),
                count(s, 200).to_string(),
                count(s, 429).to_string(),
                count(s, 503).to_string(),
                count(s, 504).to_string(),
                other.to_string(),
                format!("{:.3}", q_ms(0.5)),
                format!("{:.3}", q_ms(0.99)),
            ]);
            json_rows.push(format!(
                "    {{\"tenant\": \"{tenant}\", \"phase\": \"{phase}\", \
                 \"requests\": {}, \"ok\": {}, \"r429\": {}, \"r503\": {}, \
                 \"r504\": {}, \"other\": {other}, \"wrong_200\": {}, \
                 \"io_errors\": {}, \"p50_seconds\": {:.6}, \"p99_seconds\": {:.6}}}",
                s.requests,
                count(s, 200),
                count(s, 429),
                count(s, 503),
                count(s, 504),
                s.wrong_200,
                s.io_errors,
                q_ms(0.5) / 1e3,
                q_ms(0.99) / 1e3,
            ));
        }
    }
    println!("{}", render_table(&header, &rows));

    // The headline ratio: well-behaved p99 under faulted overload vs
    // unloaded, per tenant.
    let mut ratios: Vec<String> = Vec::new();
    for (tenant, base) in &baseline {
        if let Some((_, loaded)) = soak_stats.iter().find(|(t, _)| t == tenant) {
            let b = base.hist.quantile(0.99).unwrap_or(0.0);
            let l = loaded.hist.quantile(0.99).unwrap_or(0.0);
            let ratio = if b > 0.0 { l / b } else { 0.0 };
            println!(
                "tenant {tenant}: p99 {:.3} ms unloaded -> {:.3} ms soaked ({ratio:.2}x)",
                b * 1e3,
                l * 1e3
            );
            ratios.push(format!("    {{\"tenant\": \"{tenant}\", \"p99_ratio\": {ratio:.3}}}"));
        }
    }
    let trajectory: Vec<String> = soak_stats
        .iter()
        .flat_map(|(tenant, s)| {
            s.trajectory.iter().enumerate().map(move |(sec, b)| {
                format!(
                    "    {{\"second\": {sec}, \"tenant\": \"{tenant}\", \"ok\": {}, \
                     \"r429\": {}, \"r503\": {}, \"r504\": {}, \"other\": {}}}",
                    b[0], b[1], b[2], b[3], b[4]
                )
            })
        })
        .collect();
    let escaped_panics = u64::from(!(alive && drained));
    let json = format!(
        "{{\n  \"config\": {{\"scale\": {}, \"soak_seconds\": {}, \"quick\": {}, \
         \"worker_slots\": {}, \"fault_seed\": 195948269, \
         \"faults\": \"engine transient p=0.02, handler panic p=0.002\"}},\n  \
         \"phases\": [\n{}\n  ],\n  \"p99_ratios\": [\n{}\n  ],\n  \
         \"overload_counters\": {{\"tenant_breaker_opened_greedy\": {}, \
         \"tenant_breaker_rejected_greedy\": {}, \"cost_rejected\": {}, \
         \"panics_past_isolation\": {}}},\n  \
         \"invariants\": {{\"wrong_200s\": {wrong_total}, \"io_errors\": {io_total}, \
         \"escaped_panics\": {escaped_panics}}},\n  \"trajectory\": [\n{}\n  ]\n}}\n",
        cfg.scale,
        soak.as_secs(),
        cfg.quick,
        cfg.threads.max(2),
        json_rows.join(",\n"),
        ratios.join(",\n"),
        metric("server_tenant_breaker_opened_total_greedy "),
        metric("server_tenant_breaker_rejected_total_greedy "),
        metric("service_cost_rejected_total "),
        metric("server_panics_total "),
        trajectory.join(",\n"),
    );
    std::fs::write("BENCH_soak.json", json).expect("write BENCH_soak.json");
    println!("wrote BENCH_soak.json");

    // The hard invariants the CI smoke greps for: zero wrong 200s, and
    // no escaped panic (the accept loop answered /healthz and drained).
    assert_eq!(wrong_total, 0, "a 200 body disagreed with the chase oracle");
    assert!(alive, "/healthz must answer 200 after the soak");
    assert!(drained, "the soaked server must still drain cleanly");
}

/// `VmRSS` and `VmHWM` in kB from `/proc/self/status`, `(0, 0)` when the
/// file or the fields are unavailable (non-Linux).
fn rss_kb() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |name: &str| -> u64 {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// `experiments store-phase idle|parse|open FILE`: runs exactly one
/// benchstore phase in a fresh process and prints its peak RSS in KiB, so
/// each phase's footprint is read without the allocator high-water marks
/// of every phase before it. `idle` loads only the ontology (the
/// baseline), `parse` parses the data text in FILE and builds its
/// `Database`, `open` opens the `.obdb` snapshot FILE.
fn store_phase() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let sys = paper_system();
    let atoms = match (args.first().map(String::as_str), args.get(1)) {
        (Some("idle"), _) => 0,
        (Some("parse"), Some(file)) => {
            let text = std::fs::read_to_string(file).expect("read data text");
            Database::new(&sys.parse_data(&text).expect("parse data")).num_atoms()
        }
        (Some("open"), Some(file)) => {
            let snap = obda::Snapshot::open(std::path::Path::new(file), sys.ontology().vocab())
                .expect("open snapshot");
            snap.database().num_atoms()
        }
        _ => {
            eprintln!("usage: experiments store-phase idle|parse|open FILE");
            std::process::exit(2);
        }
    };
    println!("{} {atoms}", rss_kb().1);
}

/// Runs `experiments store-phase <phase> <file>` in a child process and
/// returns its peak RSS in KiB.
fn child_peak_rss_kb(phase: &str, file: &std::path::Path) -> u64 {
    let exe = std::env::current_exe().expect("locate the experiments binary");
    let out = std::process::Command::new(exe)
        .arg("store-phase")
        .arg(phase)
        .arg(file)
        .output()
        .expect("run the store-phase child");
    assert!(
        out.status.success(),
        "store-phase {phase} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.split_whitespace().next().and_then(|v| v.parse().ok()).expect("peak RSS from the child")
}

/// One measured point of the lazy-hydration scale sweep.
struct SweepPoint {
    scale: f64,
    atoms: usize,
    file_bytes: u64,
    lazy_seconds: f64,
    eager_seconds: f64,
    touched_predicate: String,
    touched_columns: u64,
    touched_bytes: u64,
    touched_budget_bytes: u64,
    full_bytes: u64,
    rss_delta_kb: u64,
    rss_budget_kb: u64,
}

/// The lazy-hydration scale sweep and its CI gates: the largest Table 2
/// dataset at scales 0.05 → 0.5 → 2.0, measuring lazy open time against
/// open plus a full `hydrate` of every predicate (the eager column; best
/// of 5), the bytes/columns hydrated after touching exactly one
/// predicate, and the RSS delta across a lazy open. Asserts (so the
/// process exits non-zero and fails CI) that
///
/// * open time stays O(file bytes): between consecutive scales the lazy
///   open and the open-plus-hydrate time may each grow at most `1.6×`
///   faster than the file, with a 1 ms noise floor on both sides of the
///   ratio;
/// * resident bytes stay O(touched columns): touching one predicate
///   hydrates no more than that predicate's column + index blocks
///   (plus slack), and strictly less than a full hydrate touches;
/// * the RSS delta across a lazy open plus a one-predicate touch stays
///   under half the file size plus an 8 MiB allocator/page-cache slack.
///
/// Returns the rendered `"sweep"` JSON object for `BENCH_store.json`.
fn store_sweep(sys: &obda::ObdaSystem) -> String {
    use obda_ndl::program::PredKind;

    const SWEEP_SCALES: [f64; 3] = [0.05, 0.5, 2.0];
    const RUNS: usize = 5;
    // The largest Table 2 dataset: 20 000 vertices at scale 1, so scale
    // 2.0 is 4× the previous benchmark maximum (dataset 4 at 0.5).
    const DATASET: usize = 3;

    let vocab = sys.ontology().vocab();
    println!("== Lazy-hydration scale sweep: dataset {}.ttl (best of {RUNS}) ==\n", DATASET + 1);
    let header: Vec<String> = [
        "scale",
        "atoms",
        "file KiB",
        "lazy open ms",
        "open+hydrate ms",
        "touched",
        "touched KiB",
        "full KiB",
        "rss delta KiB",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let mut table_rows: Vec<Vec<String>> = Vec::new();
    let mut points: Vec<SweepPoint> = Vec::new();
    for scale in SWEEP_SCALES {
        let data = dataset(sys, DATASET, scale);
        let path = std::env::temp_dir()
            .join(format!("obda-benchsweep-{}-{scale}.obdb", std::process::id()));
        let info = obda::write_snapshot(&path, vocab, &data).expect("write snapshot");
        drop(data);

        // The smallest relation is the one-predicate touch target: its
        // budget is the exact column bytes plus the CSR index blocks'
        // upper bound (num_keys + keys + starts + rowids words per
        // column) plus a page of slack.
        let smallest = info
            .relations
            .iter()
            .min_by_key(|r| r.rows * r.arity as u64)
            .expect("snapshot holds at least one relation");
        let arity = smallest.arity as u64;
        let touched_budget_bytes =
            smallest.rows * arity * 4 + arity * 4 * (3 * smallest.rows + 2) + 4096;
        let kind = if smallest.arity == 1 {
            PredKind::EdbClass(vocab.get_class(&smallest.name).expect("class in vocab"))
        } else {
            PredKind::EdbProp(vocab.get_prop(&smallest.name).expect("property in vocab"))
        };

        let mut lazy_best = Duration::MAX;
        for _ in 0..RUNS {
            let start = Instant::now();
            let snap = obda::Snapshot::open(&path, vocab).expect("lazy open");
            lazy_best = lazy_best.min(start.elapsed());
            drop(snap);
        }

        let (rss_before, _) = rss_kb();
        let snap = obda::Snapshot::open(&path, vocab).expect("lazy open");
        let _ = snap.database().relation(kind);
        let (rss_after, _) = rss_kb();
        let (touched_bytes, touched_columns) = (snap.bytes_touched(), snap.columns_touched());
        drop(snap);
        let rss_delta_kb = rss_after.saturating_sub(rss_before);
        let rss_budget_kb = (info.file_bytes / 2 + 8 * 1024 * 1024) / 1024;

        let mut eager_best = Duration::MAX;
        let (mut full_bytes, mut atoms) = (0u64, 0usize);
        for _ in 0..RUNS {
            let start = Instant::now();
            let eager = obda::Snapshot::open(&path, vocab).expect("open");
            eager.database().hydrate_all().expect("hydrate every predicate");
            eager_best = eager_best.min(start.elapsed());
            full_bytes = eager.bytes_touched();
            atoms = eager.database().num_atoms();
        }
        std::fs::remove_file(&path).ok();

        assert!(
            touched_bytes <= touched_budget_bytes,
            "touching one predicate ('{}') hydrated {touched_bytes} bytes, over its \
             column+index budget of {touched_budget_bytes}",
            smallest.name,
        );
        assert!(
            touched_bytes < full_bytes,
            "lazy hydration of one predicate ('{}') touched as much as a full hydrate \
             ({touched_bytes} of {full_bytes} bytes)",
            smallest.name,
        );
        assert!(
            rss_delta_kb <= rss_budget_kb,
            "RSS grew {rss_delta_kb} KiB across a lazy open + one-predicate touch, \
             over the budget of {rss_budget_kb} KiB (file is {} bytes)",
            info.file_bytes,
        );

        table_rows.push(vec![
            format!("{scale}"),
            atoms.to_string(),
            format!("{:.1}", info.file_bytes as f64 / 1024.0),
            format!("{:.3}", lazy_best.as_secs_f64() * 1e3),
            format!("{:.3}", eager_best.as_secs_f64() * 1e3),
            smallest.name.clone(),
            format!("{:.1}", touched_bytes as f64 / 1024.0),
            format!("{:.1}", full_bytes as f64 / 1024.0),
            rss_delta_kb.to_string(),
        ]);
        points.push(SweepPoint {
            scale,
            atoms,
            file_bytes: info.file_bytes,
            lazy_seconds: lazy_best.as_secs_f64(),
            eager_seconds: eager_best.as_secs_f64(),
            touched_predicate: smallest.name.clone(),
            touched_columns,
            touched_bytes,
            touched_budget_bytes,
            full_bytes,
            rss_delta_kb,
            rss_budget_kb,
        });
    }
    println!("{}", render_table(&header, &table_rows));

    // The super-linearity gate: with a 1 ms noise floor, open time may
    // grow at most 1.6× faster than the file between consecutive scales.
    const FLOOR: f64 = 1e-3;
    const SLACK: f64 = 1.6;
    for pair in points.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let bytes_ratio = b.file_bytes as f64 / a.file_bytes as f64;
        for (label, ta, tb) in [
            ("lazy", a.lazy_seconds, b.lazy_seconds),
            ("open+hydrate", a.eager_seconds, b.eager_seconds),
        ] {
            let time_ratio = tb.max(FLOOR) / ta.max(FLOOR);
            assert!(
                time_ratio <= bytes_ratio * SLACK,
                "super-linear {label} time between scales {} and {}: time grew \
                 {time_ratio:.2}x while the file grew {bytes_ratio:.2}x",
                a.scale,
                b.scale,
            );
        }
    }
    println!("sweep gates passed: open time O(bytes), residency O(touched columns)\n");

    let json_points: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "      {{\"scale\": {}, \"atoms\": {}, \"file_bytes\": {}, \
                 \"open_lazy_seconds\": {:.6}, \"open_eager_seconds\": {:.6}, \
                 \"touched_predicate\": \"{}\", \"touched_columns\": {}, \
                 \"touched_bytes\": {}, \"touched_budget_bytes\": {}, \
                 \"full_bytes\": {}, \"rss_delta_kb\": {}, \"rss_budget_kb\": {}}}",
                p.scale,
                p.atoms,
                p.file_bytes,
                p.lazy_seconds,
                p.eager_seconds,
                p.touched_predicate,
                p.touched_columns,
                p.touched_bytes,
                p.touched_budget_bytes,
                p.full_bytes,
                p.rss_delta_kb,
                p.rss_budget_kb,
            )
        })
        .collect();
    format!(
        "{{\n    \"dataset\": \"{}.ttl\", \"runs\": {RUNS}, \
         \"gates\": {{\"open_time_slack\": {SLACK}, \"noise_floor_seconds\": {FLOOR}}},\n    \
         \"rows\": [\n{}\n    ]\n  }}",
        DATASET + 1,
        json_points.join(",\n")
    )
}

/// The snapshot-store load benchmark behind `BENCH_store.json`: parse
/// path (text → `DataInstance` → `Database`) vs open path (`.obdb` →
/// `Database`), best of five each, per Table 2 dataset per scale, with
/// each phase's peak RSS read in a child process that runs only that
/// phase (and an idle child's as the baseline). With
/// `--sweep`, runs [`store_sweep`] first (while RSS is clean) and
/// splices its rows and gate parameters into the JSON.
fn benchstore(cfg: &Config) {
    const SCALES: [f64; 2] = [0.05, 0.5];
    const RUNS: usize = 5;
    let sys = paper_system();
    let sweep_json = cfg.sweep.then(|| store_sweep(&sys));
    let text_path =
        std::env::temp_dir().join(format!("obda-benchstore-{}.abox", std::process::id()));
    let idle_rss = child_peak_rss_kb("idle", &text_path);
    println!("== Snapshot store: parse+index vs .obdb open (best of {RUNS}) ==\n");
    let header: Vec<String> = [
        "scale",
        "dataset",
        "atoms",
        "file KiB",
        "parse ms",
        "open ms",
        "speedup",
        "parse/open RSS KiB",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let mut table_rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();
    for scale in SCALES {
        for idx in 0..obda_datagen::erdos::TABLE_2.len() {
            let data = dataset(&sys, idx, scale);
            let text = data.to_text(sys.ontology());
            let path = std::env::temp_dir()
                .join(format!("obda-benchstore-{}-{idx}.obdb", std::process::id()));
            let info =
                obda::write_snapshot(&path, sys.ontology().vocab(), &data).expect("write snapshot");

            let mut parse_best = Duration::MAX;
            let mut parsed_atoms = 0;
            for _ in 0..RUNS {
                let start = Instant::now();
                let reparsed = sys.parse_data(&text).expect("reparse generated data");
                let db = Database::new(&reparsed);
                parse_best = parse_best.min(start.elapsed());
                parsed_atoms = db.num_atoms();
            }

            let mut open_best = Duration::MAX;
            let mut opened_atoms = 0;
            for _ in 0..RUNS {
                let start = Instant::now();
                let snap =
                    obda::Snapshot::open(&path, sys.ontology().vocab()).expect("open snapshot");
                open_best = open_best.min(start.elapsed());
                opened_atoms = snap.database().num_atoms();
            }
            std::fs::write(&text_path, &text).expect("write data text");
            let parse_rss = child_peak_rss_kb("parse", &text_path);
            let open_rss = child_peak_rss_kb("open", &path);
            std::fs::remove_file(&text_path).ok();
            std::fs::remove_file(&path).ok();
            assert_eq!(
                parsed_atoms, opened_atoms,
                "snapshot open derived a different atom count than the parse path"
            );

            let speedup = parse_best.as_secs_f64() / open_best.as_secs_f64().max(1e-9);
            table_rows.push(vec![
                format!("{scale}"),
                format!("{}.ttl", idx + 1),
                parsed_atoms.to_string(),
                format!("{:.1}", info.file_bytes as f64 / 1024.0),
                format!("{:.3}", parse_best.as_secs_f64() * 1e3),
                format!("{:.3}", open_best.as_secs_f64() * 1e3),
                format!("{speedup:.1}x"),
                format!("{parse_rss}/{open_rss}"),
            ]);
            json_rows.push(format!(
                "    {{\"scale\": {scale}, \"dataset\": \"{}.ttl\", \"individuals\": {}, \
                 \"atoms\": {parsed_atoms}, \"file_bytes\": {}, \"parse_seconds\": {:.6}, \
                 \"open_seconds\": {:.6}, \"speedup\": {speedup:.2}, \
                 \"parse_peak_rss_kb\": {parse_rss}, \"open_peak_rss_kb\": {open_rss}}}",
                idx + 1,
                data.num_individuals(),
                info.file_bytes,
                parse_best.as_secs_f64(),
                open_best.as_secs_f64(),
            ));
        }
    }
    println!("{}", render_table(&header, &table_rows));
    let sweep_section = match &sweep_json {
        Some(sweep) => format!(",\n  \"sweep\": {sweep}"),
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"config\": {{\"scales\": [0.05, 0.5], \"runs\": {RUNS}, \
         \"parse_path\": \"parse_data + Database::new\", \
         \"open_path\": \"Snapshot::open (.obdb v2, mmap lazy hydration)\", \
         \"rss\": \"peak RSS of a child process running one phase\", \
         \"idle_peak_rss_kb\": {idle_rss}}},\n  \
         \"rows\": [\n{}\n  ]{sweep_section}\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_store.json", json).expect("write BENCH_store.json");
    println!("wrote BENCH_store.json ({} rows)", table_rows.len());
}

/// One committed `BENCH_eval.json` cell, keyed by (dataset, sequence,
/// atoms, strategy), with the baseline numbers of the `pruned` engine.
struct BaselineCell {
    dataset: String,
    sequence: usize,
    atoms: usize,
    strategy: String,
    pruned_secs: f64,
    pruned_generated: u64,
}

/// Extracts the text of `"key": <value>` from `chunk` (the value up to the
/// next `,` or closing brace). The JSON is our own `bencheval` output, so
/// a scanner is enough — no parser dependency.
fn json_value<'a>(chunk: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = chunk.find(&pat)? + pat.len();
    let rest = &chunk[start..];
    if let Some(inner) = rest.strip_prefix('{') {
        return Some(&inner[..inner.find('}')?]);
    }
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn parse_baseline(json: &str) -> Vec<BaselineCell> {
    let mut cells = Vec::new();
    // Row chunks start at every `"dataset"` key; the config header has none.
    for chunk in json.split("\"dataset\"").skip(1) {
        let chunk = format!("\"dataset\"{chunk}");
        let parse = || -> Option<BaselineCell> {
            let pruned = json_value(&chunk, "pruned")?;
            if pruned.trim() == "null" {
                return None;
            }
            Some(BaselineCell {
                dataset: json_value(&chunk, "dataset")?.trim_matches('"').to_owned(),
                sequence: json_value(&chunk, "sequence")?.parse().ok()?,
                atoms: json_value(&chunk, "atoms")?.parse().ok()?,
                strategy: json_value(&chunk, "strategy")?.trim_matches('"').to_owned(),
                pruned_secs: json_value(pruned, "seconds")?.parse().ok()?,
                pruned_generated: json_value(pruned, "generated_tuples")?.parse().ok()?,
            })
        };
        if let Some(cell) = parse() {
            cells.push(cell);
        }
    }
    cells
}

/// Re-measures every committed `BENCH_eval.json` cell with the pruned
/// goal-directed engine and compares against the baseline: tuple counts
/// must match exactly (the injection sites must not change semantics) and
/// the best-of-3 time must stay within a generous regression bound
/// (`2.5× + 50 ms`, absorbing machine noise while catching a forgotten
/// always-on fault check in a hot loop).
fn benchguard(cfg: &Config) {
    let json = std::fs::read_to_string("BENCH_eval.json").unwrap_or_else(|e| {
        eprintln!("error: benchguard needs the committed BENCH_eval.json in the cwd: {e}");
        std::process::exit(2);
    });
    let baseline = parse_baseline(&json);
    if baseline.is_empty() {
        eprintln!("error: no baseline cells found in BENCH_eval.json");
        std::process::exit(2);
    }
    // Cells are only comparable at the scale and deadline they were
    // recorded at.
    let scale = json_value(&json, "scale").and_then(|s| s.parse().ok()).unwrap_or(cfg.scale);
    let timeout = json_value(&json, "timeout_secs")
        .and_then(|s| s.parse().ok())
        .map_or(cfg.timeout, Duration::from_secs);
    let sys = paper_system();
    let pruned_cfg = EngineConfig { threads: 1, ..EngineConfig::default() };
    println!(
        "== benchguard: current build vs committed BENCH_eval.json \
         (pruned engine, scale {scale}) ==\n"
    );
    let header: Vec<String> =
        ["dataset", "query", "strategy", "base s", "now s", "ratio", "tuples", "verdict"]
            .map(String::from)
            .to_vec();
    let mut rows = Vec::new();
    let mut failures = 0usize;
    let mut worst_ratio = 0.0f64;
    for cell in &baseline {
        let ds = cell.dataset.trim_end_matches(".ttl").parse::<usize>().unwrap_or(1) - 1;
        let data = dataset(&sys, ds, scale);
        let db = Database::new(&data);
        let q = prefix_query(&sys, cell.sequence - 1, cell.atoms);
        let strategy = EVAL_STRATEGIES
            .iter()
            .chain(FIG2_STRATEGIES.iter())
            .find(|s| s.to_string() == cell.strategy)
            .copied();
        let Some(strategy) = strategy else {
            eprintln!("skipping unknown strategy {}", cell.strategy);
            continue;
        };
        let Ok(prepared) = sys.prepare(&q, strategy) else {
            continue;
        };
        let Some((secs, res)) = time_engine(&mut || execute(&prepared, &db, timeout, &pruned_cfg))
        else {
            failures += 1;
            rows.push(vec![
                cell.dataset.clone(),
                format!("s{}:{}", cell.sequence, cell.atoms),
                cell.strategy.clone(),
                format!("{:.3}", cell.pruned_secs),
                ">limit".into(),
                "-".into(),
                "-".into(),
                "BUDGET".into(),
            ]);
            continue;
        };
        let ratio = secs / cell.pruned_secs.max(1e-9);
        worst_ratio = worst_ratio.max(ratio);
        let tuples_ok = res.stats.generated_tuples as u64 == cell.pruned_generated;
        let time_ok = secs <= cell.pruned_secs * 2.5 + 0.05;
        if !(tuples_ok && time_ok) {
            failures += 1;
        }
        rows.push(vec![
            cell.dataset.clone(),
            format!("s{}:{}", cell.sequence, cell.atoms),
            cell.strategy.clone(),
            format!("{:.3}", cell.pruned_secs),
            format!("{secs:.3}"),
            format!("{ratio:.2}x"),
            if tuples_ok { "match".into() } else { "DIFFER".into() },
            if tuples_ok && time_ok { "ok".into() } else { "REGRESSION".into() },
        ]);
    }
    println!("{}", render_table(&header, &rows));
    if failures > 0 {
        eprintln!("benchguard: {failures} of {} cells regressed", rows.len());
        std::process::exit(1);
    }
    println!(
        "benchguard: ok — {} cells, worst time ratio {worst_ratio:.2}x, all tuple counts match",
        rows.len()
    );
}

/// The CPUs this process may run on, recorded next to thread counts so a
/// parallel speedup can be read against the cores that were there.
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One engine measurement: best-of-3 wall clock plus the result stats.
/// `None` means the engine tripped its budget (recorded as `null`, not a
/// dropped row: an unpruned timeout that the pruned engine survives is
/// exactly the comparison worth reporting).
fn time_engine(run: &mut dyn FnMut() -> Option<EvalResult>) -> Option<(f64, EvalResult)> {
    let mut best: Option<(f64, EvalResult)> = None;
    for _ in 0..3 {
        let start = Instant::now();
        let res = run()?;
        let secs = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(b, _)| secs < *b) {
            best = Some((secs, res));
        }
    }
    best
}

/// Executes `prepared` over `db` under `engine`, untraced, within
/// `timeout`; `None` when the budget trips or evaluation fails.
fn execute(
    prepared: &obda::PreparedOmq,
    db: &Database,
    timeout: Duration,
    engine: &EngineConfig,
) -> Option<EvalResult> {
    let mut budget = Budget::with_timeout(timeout);
    prepared.execute_engine_traced(db, &mut budget, engine, Telemetry::disabled()).ok()
}

/// Runs the engine once untimed, filling the database's memo of
/// `*`-completions, so every timed engine arm after it reuses them alike
/// instead of the first arm paying for the derivation the others reuse.
fn warm_completions(prepared: &obda::PreparedOmq, db: &Database, timeout: Duration) {
    let _ = execute(prepared, db, timeout, &EngineConfig::default());
}

fn json_engine(timed: &Option<(f64, EvalResult)>) -> String {
    match timed {
        Some((secs, res)) => format!(
            "{{\"seconds\": {secs:.6}, \"answers\": {}, \"generated_tuples\": {}}}",
            res.answers.len(),
            res.stats.generated_tuples
        ),
        None => "null".to_owned(),
    }
}

/// Per-stage wall-clock breakdown of one traced engine run, extracted
/// from the collected span tree (milliseconds, summed per span name).
struct StageBreakdown {
    eval_ms: f64,
    schedule_ms: f64,
    strata_ms: f64,
    clause_tasks_ms: f64,
    spans: usize,
    pretty: String,
}

/// Runs the pruned engine once with a [`CollectingTracer`] attached and
/// folds the span tree into a per-stage breakdown. One extra run per row:
/// the timed measurements above stay untraced.
fn trace_breakdown(
    prepared: &obda::PreparedOmq,
    db: &Database,
    timeout: Duration,
    engine_cfg: &EngineConfig,
) -> Option<StageBreakdown> {
    let tracer = CollectingTracer::new();
    let mut budget = Budget::with_timeout(timeout);
    prepared
        .execute_engine_traced(db, &mut budget, engine_cfg, Telemetry::new(&tracer, None))
        .ok()?;
    let tree = tracer.snapshot();
    let mut b = StageBreakdown {
        eval_ms: 0.0,
        schedule_ms: 0.0,
        strata_ms: 0.0,
        clause_tasks_ms: 0.0,
        spans: 0,
        pretty: tree.render_pretty(),
    };
    for span in tree.iter() {
        b.spans += 1;
        let ms = span.duration.as_secs_f64() * 1e3;
        match span.name {
            "eval" => b.eval_ms += ms,
            "stratum-schedule" => b.schedule_ms += ms,
            "stratum" => b.strata_ms += ms,
            "clause" | "clause_task" => b.clause_tasks_ms += ms,
            _ => {}
        }
    }
    Some(b)
}

/// The join-planning benchmark behind the `"benchjoin"` section of
/// `BENCH_eval.json`: for every bencheval cell it times the pruned
/// goal-directed engine (1 thread) with the cost-based join order
/// against the syntactic order (`plan: false`), asserts that answers
/// and generated tuples are identical either way, and records
/// per-clause estimated vs actual cardinalities from one executed
/// explain of the pruned rewriting. A cell where either order times out
/// is still a row, with `null` for what did not finish (`>limit` in the
/// table). The section is spliced into the committed `BENCH_eval.json`
/// without touching the bencheval rows (benchguard's baseline);
/// re-running replaces a previous section.
fn benchjoin(cfg: &Config) {
    let sys = paper_system();
    println!(
        "== Join planning: cost-based vs syntactic order (pruned engine, 1 thread, scale {}) ==\n",
        cfg.scale
    );
    let combos: [(usize, usize, Strategy); 4] = [
        (0, 6, Strategy::Tw),
        (0, 6, Strategy::Log),
        (1, 5, Strategy::TwUcq),
        (1, 5, Strategy::PrestoLike),
    ];
    let planned_cfg = EngineConfig { threads: 1, ..EngineConfig::default() };
    let syntactic_cfg = EngineConfig { threads: 1, plan: false, ..EngineConfig::default() };
    let mut rows_json: Vec<String> = Vec::new();
    let mut table_rows = Vec::new();
    for ds in 0..4 {
        let data = dataset(&sys, ds, cfg.scale);
        let db = Database::new(&data);
        for &(seq, n, strategy) in &combos {
            let q = prefix_query(&sys, seq, n);
            let Ok(prepared) = sys.prepare(&q, strategy) else {
                continue;
            };
            warm_completions(&prepared, &db, cfg.timeout);
            let planned = time_engine(&mut || execute(&prepared, &db, cfg.timeout, &planned_cfg));
            let syntactic =
                time_engine(&mut || execute(&prepared, &db, cfg.timeout, &syntactic_cfg));
            let cell = format!("{}.ttl s{}:{n} {strategy}", ds + 1, seq + 1);
            let (Some((plan_secs, plan_res)), Some((syn_secs, syn_res))) = (&planned, &syntactic)
            else {
                // A timed-out cell is a row too: leaving it out would keep
                // whatever an older run measured there.
                let secs = |t: &Option<(f64, EvalResult)>| t.as_ref().map(|(s, _)| *s);
                let text = |v: Option<f64>| v.map_or(">limit".to_owned(), |s| format!("{s:.3}"));
                let json = |v: Option<f64>| {
                    v.map_or("null".to_owned(), |s| format!("{{\"seconds\": {s:.6}}}"))
                };
                let (syn, plan) = (secs(&syntactic), secs(&planned));
                table_rows.push(vec![
                    format!("{}.ttl", ds + 1),
                    format!("s{}:{}", seq + 1, n),
                    strategy.to_string(),
                    text(syn),
                    text(plan),
                    "-".into(),
                    ">limit".into(),
                    "-".into(),
                ]);
                rows_json.push(format!(
                    "      {{\n        \"cell\": \"{cell}\",\n        \
                     \"syntactic\": {},\n        \"planned\": {},\n        \
                     \"speedup_planned_vs_syntactic\": null,\n        \
                     \"answers\": null, \"generated_tuples\": null,\n        \
                     \"joins\": []\n      }}",
                    json(syn),
                    json(plan),
                ));
                continue;
            };
            // The planner may only change the order, never the semantics.
            assert_eq!(plan_res.answers, syn_res.answers, "join order changed the answers");
            assert_eq!(
                plan_res.stats.generated_tuples, syn_res.stats.generated_tuples,
                "join order changed the generated tuples"
            );
            let speedup = syn_secs / plan_secs.max(1e-9);
            // Per-join estimated vs actual cardinalities, from one
            // executed explain of the pruned rewriting (multi-atom
            // clauses only; single-atom clauses have no order to choose).
            let pruned_query = &prepared.pruned().query;
            let mut joins = Vec::new();
            if let Ok((expl, _)) = obda_ndl::explain_plan_executed(
                pruned_query,
                &db,
                &mut Budget::with_timeout(cfg.timeout),
            ) {
                for stratum in &expl.strata {
                    for clause in &stratum.clauses {
                        if clause.order.len() < 2 {
                            continue;
                        }
                        let est: Vec<String> =
                            clause.est_rows.iter().map(|e| format!("{e:.1}")).collect();
                        let actual: Vec<String> =
                            clause.actual_rows.iter().map(u64::to_string).collect();
                        joins.push(format!(
                            "{{\"head\": \"{}\", \"est\": [{}], \"actual\": [{}]}}",
                            pruned_query.program.pred(clause.head).name,
                            est.join(", "),
                            actual.join(", ")
                        ));
                    }
                }
            }
            table_rows.push(vec![
                format!("{}.ttl", ds + 1),
                format!("s{}:{}", seq + 1, n),
                strategy.to_string(),
                format!("{syn_secs:.3}"),
                format!("{plan_secs:.3}"),
                format!("{speedup:.2}x"),
                plan_res.stats.generated_tuples.to_string(),
                joins.len().to_string(),
            ]);
            rows_json.push(format!(
                "      {{\n        \"cell\": \"{cell}\",\n        \
                 \"syntactic\": {{\"seconds\": {syn_secs:.6}}},\n        \
                 \"planned\": {{\"seconds\": {plan_secs:.6}}},\n        \
                 \"speedup_planned_vs_syntactic\": {speedup:.3},\n        \
                 \"answers\": {}, \"generated_tuples\": {},\n        \
                 \"joins\": [{}]\n      }}",
                plan_res.answers.len(),
                plan_res.stats.generated_tuples,
                joins.join(", ")
            ));
        }
    }
    let header: Vec<String> =
        ["dataset", "query", "strategy", "syn s", "plan s", "speedup", "tuples", "joins"]
            .map(String::from)
            .to_vec();
    println!("{}", render_table(&header, &table_rows));
    let base = std::fs::read_to_string("BENCH_eval.json").unwrap_or_else(|e| {
        eprintln!("error: benchjoin splices into BENCH_eval.json (run bencheval first): {e}");
        std::process::exit(2);
    });
    // Idempotence: drop a previously spliced section before re-adding.
    let base = match base.find(",\n  \"benchjoin\":") {
        Some(i) => format!("{}\n}}\n", base[..i].trim_end()),
        None => base,
    };
    let Some(idx) = base.rfind('}') else {
        eprintln!("error: malformed BENCH_eval.json");
        std::process::exit(2);
    };
    let out = format!(
        "{},\n  \"benchjoin\": {{\n    \"config\": {{\"scale\": {}, \"threads\": 1, \
         \"available_parallelism\": {}, \"timeout_secs\": {}, \"runs_per_engine\": 3, \
         \"engine\": \"goal-directed, relevance pruning\"}},\n    \
         \"rows\": [\n{}\n    ]\n  }}\n}}\n",
        base[..idx].trim_end(),
        cfg.scale,
        available_parallelism(),
        cfg.timeout.as_secs(),
        rows_json.join(",\n")
    );
    std::fs::write("BENCH_eval.json", out).expect("write BENCH_eval.json");
    println!("spliced \"benchjoin\" into BENCH_eval.json ({} rows)", table_rows.len());
}

/// The engine-comparison benchmark behind `BENCH_eval.json`: for each
/// Table 2 dataset and a spread of (sequence, strategy) rewritings,
/// measures the engine unpruned on one thread (the tables' configuration)
/// against pruning only (1 thread) and pruning + `--threads` workers,
/// checking all three against the budgeted chase oracle. Each row also
/// records a per-stage breakdown (schedule/strata/clause-task times) from
/// one traced pruned-engine run; the full span trees go to
/// `BENCH_eval_trace.txt` next to the JSON.
fn bencheval(cfg: &Config) {
    let sys = paper_system();
    println!(
        "== Engine comparison: sequential vs pruned vs parallel(x{}) (scale {}) ==\n",
        cfg.threads, cfg.scale
    );
    let combos: [(usize, usize, Strategy); 4] = [
        (0, 6, Strategy::Tw),
        (0, 6, Strategy::Log),
        (1, 5, Strategy::TwUcq),
        (1, 5, Strategy::PrestoLike),
    ];
    let sequential_cfg = EngineConfig::unpruned();
    let pruned_cfg = EngineConfig { threads: 1, ..EngineConfig::default() };
    let parallel_cfg = EngineConfig { threads: cfg.threads, ..EngineConfig::default() };
    let mut rows_json: Vec<String> = Vec::new();
    let mut table_rows = Vec::new();
    let mut trace_log = String::from(
        "Per-row span trees of one traced pruned-engine run each\n\
         (see BENCH_eval.json \"stages\" for the folded numbers)\n",
    );
    for ds in 0..4 {
        let data = dataset(&sys, ds, cfg.scale);
        let db = Database::new(&data);
        for &(seq, n, strategy) in &combos {
            let q = prefix_query(&sys, seq, n);
            let Ok(prepared) = sys.prepare(&q, strategy) else {
                continue;
            };
            let seq_run =
                time_engine(&mut || execute(&prepared, &db, cfg.timeout, &sequential_cfg));
            warm_completions(&prepared, &db, cfg.timeout);
            let pruned_run = time_engine(&mut || execute(&prepared, &db, cfg.timeout, &pruned_cfg));
            let par_run = time_engine(&mut || execute(&prepared, &db, cfg.timeout, &parallel_cfg));
            // The goal-directed runs are the subject of the benchmark; a
            // timeout of any engine is recorded as `null` (`>limit` in the
            // table), not skipped.
            let (Some((pruned_secs, pruned_res)), Some((par_secs, par_res))) =
                (&pruned_run, &par_run)
            else {
                let text = |t: &Option<(f64, EvalResult)>| {
                    t.as_ref().map_or(">limit".to_owned(), |(s, _)| format!("{s:.3}"))
                };
                let tuples = |t: &Option<(f64, EvalResult)>| {
                    t.as_ref()
                        .map_or(">limit".to_owned(), |(_, r)| r.stats.generated_tuples.to_string())
                };
                table_rows.push(vec![
                    format!("{}.ttl", ds + 1),
                    format!("s{}:{}", seq + 1, n),
                    strategy.to_string(),
                    text(&seq_run),
                    text(&pruned_run),
                    text(&par_run),
                    "-".into(),
                    tuples(&seq_run),
                    tuples(&pruned_run),
                    "-".into(),
                ]);
                rows_json.push(format!(
                    "    {{\n      \"dataset\": \"{}.ttl\", \"sequence\": {}, \"atoms\": {n}, \"strategy\": \"{strategy}\",\n      \"sequential\": {},\n      \"pruned\": {},\n      \"parallel\": {},\n      \"stages\": null,\n      \"speedup_parallel_vs_sequential\": null,\n      \"tuples_saved_by_pruning\": null,\n      \"answers_match\": null,\n      \"oracle\": \">limit\"\n    }}",
                    ds + 1,
                    seq + 1,
                    json_engine(&seq_run),
                    json_engine(&pruned_run),
                    json_engine(&par_run),
                ));
                continue;
            };
            let answers_match =
                seq_run.as_ref().is_none_or(|(_, seq_res)| seq_res.answers == pruned_res.answers)
                    && pruned_res.answers == par_res.answers;
            // Ground truth: the budgeted chase oracle on the same instance.
            let oracle_spec =
                BudgetSpec { timeout: Some(Duration::from_secs(60)), ..BudgetSpec::unlimited() };
            let oracle = sys
                .certain_answers_budgeted(&q, &data, &mut oracle_spec.start())
                .ok()
                .map(|ca| ca.tuples());
            let oracle_tag = match &oracle {
                Some(tuples) if *tuples == par_res.answers => "agree",
                Some(_) => "DISAGREE",
                None => "budget",
            };
            let speedup = seq_run.as_ref().map(|(seq_secs, _)| seq_secs / par_secs);
            let saved = seq_run.as_ref().map(|(_, seq_res)| {
                seq_res.stats.generated_tuples.saturating_sub(pruned_res.stats.generated_tuples)
            });
            let fmt_opt = |v: Option<String>| v.unwrap_or_else(|| ">limit".to_owned());
            table_rows.push(vec![
                format!("{}.ttl", ds + 1),
                format!("s{}:{}", seq + 1, n),
                strategy.to_string(),
                fmt_opt(seq_run.as_ref().map(|(s, _)| format!("{s:.3}"))),
                format!("{pruned_secs:.3}"),
                format!("{par_secs:.3}"),
                fmt_opt(speedup.map(|x| format!("{x:.2}x"))),
                fmt_opt(seq_run.as_ref().map(|(_, r)| r.stats.generated_tuples.to_string())),
                pruned_res.stats.generated_tuples.to_string(),
                oracle_tag.to_owned(),
            ]);
            let breakdown = trace_breakdown(&prepared, &db, cfg.timeout, &pruned_cfg);
            let stages_json = match &breakdown {
                Some(b) => format!(
                    "{{\"eval_ms\": {:.3}, \"schedule_ms\": {:.3}, \"strata_ms\": {:.3}, \"clause_tasks_ms\": {:.3}, \"spans\": {}}}",
                    b.eval_ms, b.schedule_ms, b.strata_ms, b.clause_tasks_ms, b.spans
                ),
                None => "null".to_owned(),
            };
            if let Some(b) = &breakdown {
                trace_log.push_str(&format!(
                    "\n## {}.ttl s{}:{n} {strategy}\n{}",
                    ds + 1,
                    seq + 1,
                    b.pretty
                ));
            }
            let json_opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_owned());
            rows_json.push(format!(
                "    {{\n      \"dataset\": \"{}.ttl\", \"sequence\": {}, \"atoms\": {n}, \"strategy\": \"{strategy}\",\n      \"sequential\": {},\n      \"pruned\": {},\n      \"parallel\": {},\n      \"stages\": {stages_json},\n      \"speedup_parallel_vs_sequential\": {},\n      \"tuples_saved_by_pruning\": {},\n      \"answers_match\": {answers_match},\n      \"oracle\": \"{oracle_tag}\"\n    }}",
                ds + 1,
                seq + 1,
                json_engine(&seq_run),
                json_engine(&pruned_run),
                json_engine(&par_run),
                json_opt(speedup.map(|x| format!("{x:.3}"))),
                json_opt(saved.map(|v| v.to_string())),
            ));
        }
    }
    let header: Vec<String> = [
        "dataset",
        "query",
        "strategy",
        "seq s",
        "pruned s",
        "par s",
        "speedup",
        "gen seq",
        "gen pruned",
        "oracle",
    ]
    .map(String::from)
    .to_vec();
    println!("{}", render_table(&header, &table_rows));
    let json = format!(
        "{{\n  \"config\": {{\"scale\": {}, \"threads\": {}, \"available_parallelism\": {}, \"timeout_secs\": {}, \"runs_per_engine\": 3}},\n  \"engines\": {{\n    \"sequential\": \"engine, no pruning, 1 thread\",\n    \"pruned\": \"engine, relevance pruning, 1 thread\",\n    \"parallel\": \"engine, relevance pruning, shared-budget worker pool\"\n  }},\n  \"rows\": [\n{}\n  ]\n}}\n",
        cfg.scale,
        cfg.threads,
        available_parallelism(),
        cfg.timeout.as_secs(),
        rows_json.join(",\n")
    );
    std::fs::write("BENCH_eval.json", json).expect("write BENCH_eval.json");
    std::fs::write("BENCH_eval_trace.txt", trace_log).expect("write BENCH_eval_trace.txt");
    println!("wrote BENCH_eval.json ({} rows) and BENCH_eval_trace.txt", table_rows.len());
}

fn fig1() {
    println!("== Figure 1(a): combined complexity of OMQ answering ==\n");
    println!("{}", obda::complexity::landscape_table());
}

fn fig2(cfg: &Config) {
    let sys = paper_system();
    println!("== Figure 2 / Table 1: rewriting sizes (number of clauses) ==");
    println!("   (TwUCQ ≈ Rapid/Clipper, Presto-like ≈ Presto; “-” = cap exceeded)\n");
    for (s, word) in SEQUENCES.iter().enumerate() {
        println!("Sequence {}: {word}", s + 1);
        let mut header: Vec<String> = vec!["atoms".into()];
        header.extend(FIG2_STRATEGIES.iter().map(|st| st.to_string()));
        let mut rows = Vec::new();
        let mut csv = String::from("atoms,TwUCQ,PrestoLike,Lin,Log,Tw\n");
        for n in 1..=cfg.max_atoms.min(word.len()) {
            let q = prefix_query(&sys, s, n);
            let mut row = vec![n.to_string()];
            let mut csv_row = vec![n.to_string()];
            for strategy in FIG2_STRATEGIES {
                let cell = match rewriting_clauses(&sys, &q, strategy) {
                    Some(c) => c.to_string(),
                    None => "-".to_owned(),
                };
                row.push(cell.clone());
                csv_row.push(cell);
            }
            csv.push_str(&csv_row.join(","));
            csv.push('\n');
            rows.push(row);
        }
        println!("{}", render_table(&header, &rows));
        if let Some(dir) = &cfg.csv_dir {
            std::fs::write(format!("{dir}/fig2_seq{}.csv", s + 1), csv).expect("write csv");
        }
    }
}

fn table2(cfg: &Config) {
    let sys = paper_system();
    println!("== Table 2: Erdős–Rényi datasets (scale {} of the paper's sizes) ==\n", cfg.scale);
    let header: Vec<String> =
        ["dataset", "V", "p", "q", "avg degree", "atoms"].map(String::from).to_vec();
    let mut rows = Vec::new();
    for (i, c) in dataset_configs(cfg.scale).iter().enumerate() {
        let d = c.generate(sys.ontology());
        rows.push(vec![
            format!("{}.ttl", i + 1),
            c.vertices.to_string(),
            format!("{:.3}", c.edge_prob),
            format!("{:.3}", c.label_prob),
            format!("{:.1}", c.avg_degree()),
            d.num_atoms().to_string(),
        ]);
    }
    println!("{}", render_table(&header, &rows));
}

fn evaluation_table(cfg: &Config, seq: usize) {
    let sys = paper_system();
    println!(
        "== Table {}: evaluation over the datasets, sequence {} ({}) ==",
        seq + 3,
        seq + 1,
        SEQUENCES[seq]
    );
    println!("   cells: seconds/answers/generated-tuples; “>limit” = timeout or tuple cap\n");
    let max_tuples = 50_000_000;
    for ds in 0..4 {
        let data = dataset(&sys, ds, cfg.scale);
        // One Database per dataset, shared across every strategy and query
        // size; the build counter asserts the loading is amortised.
        let builds_before = Database::build_count();
        let db = Database::new(&data);
        println!(
            "dataset {}.ttl (scaled: {} individuals, {} atoms)",
            ds + 1,
            data.num_individuals(),
            data.num_atoms()
        );
        let mut header: Vec<String> = vec!["atoms".into()];
        header.extend(EVAL_STRATEGIES.iter().map(|st| st.to_string()));
        let mut rows = Vec::new();
        let mut csv = String::from("atoms,strategy,seconds,answers,generated,clauses,outcome\n");
        for n in 1..=cfg.max_atoms.min(SEQUENCES[seq].len()) {
            let q = prefix_query(&sys, seq, n);
            let mut row = vec![n.to_string()];
            for strategy in EVAL_STRATEGIES {
                let cell = evaluate_cell(&sys, &q, &db, strategy, cfg.timeout, max_tuples);
                row.push(cell.render());
                csv.push_str(&format!(
                    "{n},{strategy},{:.6},{},{},{},{}\n",
                    cell.time.as_secs_f64(),
                    cell.answers.map_or("-".into(), |v| v.to_string()),
                    cell.generated.map_or("-".into(), |v| v.to_string()),
                    cell.clauses.map_or("-".into(), |v| v.to_string()),
                    cell.outcome.tag(),
                ));
            }
            rows.push(row);
        }
        println!("{}", render_table(&header, &rows));
        assert_eq!(
            Database::build_count(),
            builds_before + 1,
            "the database must be built exactly once per dataset"
        );
        if let Some(dir) = &cfg.csv_dir {
            std::fs::write(format!("{dir}/table{}_ds{}.csv", seq + 3, ds + 1), csv)
                .expect("write csv");
        }
    }
}
