//! The `obda` command-line tool: classify, rewrite and answer
//! ontology-mediated queries from text files.
//!
//! ```text
//! obda classify --ontology o.owlql --query q.cq
//! obda rewrite  --ontology o.owlql --query q.cq [--strategy tw]
//! obda explain  --ontology o.owlql --query q.cq [--strategy tw]
//!               [--data d.abox | --db db.obdb]
//! obda answer   --ontology o.owlql --query q.cq --data d.abox | --db db.obdb
//!               [--strategy adaptive] [--oracle] [--timeout-secs N]
//!               [--budget-secs N] [--budget-clauses N] [--budget-tuples N]
//!               [--budget-steps N] [--budget-chase N] [--no-fallback]
//!               [--threads N] [--no-prune] [--no-plan] [--retries N]
//!               [--trace[=pretty|json]] [--stats]
//! obda build    --ontology o.owlql --data d.abox -o db.obdb
//! obda dbinfo   db.obdb
//! obda serve    --ontology o.owlql (--db db.obdb | --data d.abox)
//!               [--addr HOST:PORT] [--max-concurrency N] [--max-queue N]
//!               [--timeout-secs N] [--quota-rate N] [--quota-burst N]
//!               [--quota-concurrency N] [--drain-secs N] [--cache-capacity N]
//!               [--breaker-window N] [--breaker-threshold N]
//! obda --help
//! ```
//!
//! `build` parses a data file once and writes a dictionary-encoded
//! `.obdb` snapshot; `answer --db` (and `explain --db`) then reopen it
//! memory-mapped — no text parsing, no re-interning — and evaluate
//! through the same [`obda::StorageBackend`] seam as parsed data.
//! Segments hydrate *lazily*: a request hydrates — and verifies — the
//! columns its pruned program joins before it plans, so a corrupt
//! segment is a typed snapshot error (exit 3), and the rest of the file
//! is never read. `dbinfo` prints a snapshot's header, flag bits,
//! dictionary size and per-relation row counts without needing the
//! ontology.
//!
//! `answer` evaluates with the goal-directed engine: the rewriting is
//! relevance-pruned towards the goal (disable with `--no-prune`), each
//! clause's joins run in the cost-based order chosen from relation
//! statistics (disable with `--no-plan` to keep the syntactic order),
//! and a predicate is materialised only when the goal demands it, its
//! clauses running as one batch on `--threads N` workers (default 1;
//! `0` = one per CPU) sharing one resource budget. Each strategy attempt
//! is panic-isolated: a transient fault is retried up to `--retries N`
//! times (default 2) before the request degrades down the fallback
//! ladder; `--no-fallback` runs the one strategy once.
//!
//! `explain` dumps the classification, the rewriting, the
//! relevance-pruned program and its clause plans, grouped by dependency
//! level, with per-clause join orders and access paths (scan, index probe, merge).
//! Given `--data` or `--db` the schedule is the cost-based plan and the
//! query is executed once so every step reports its estimated *and*
//! actual cardinality; without data the syntactic order is shown.
//!
//! Observability: `--trace` collects nested spans across every pipeline
//! stage (parse → saturate → rewrite → prune → eval → demand-schedule,
//! plus per-attempt spans) and prints the tree to stderr,
//! pretty by default or as JSON with `--trace=json`; `--stats` prints the
//! metrics registry (counters, gauges, latency histograms) to stderr in
//! text exposition format after the command finishes.
//!
//! `serve` runs the hardened multi-tenant HTTP query server over a
//! snapshot (`--db`) or parsed data file (`--data`): `POST /query` with
//! the OMQ text as the body (headers `X-Obda-Tenant`, `X-Obda-Timeout-Ms`,
//! `X-Obda-Strategy`), plus `GET /explain`, `GET /metrics`,
//! `GET /healthz`, `GET /readyz` and `POST /shutdown`. Per-tenant
//! token-bucket quotas (`--quota-rate`/`--quota-burst`, requests per
//! second) and concurrency caps (`--quota-concurrency`) answer 429 with
//! `Retry-After`; the global admission gate answers 503. Shutdown drains
//! gracefully on `POST /shutdown`, stdin EOF or a `shutdown` stdin line.
//!
//! The server runs the adaptive overload stack by default: cost-based
//! admission (429 when the estimated work exceeds the remaining
//! deadline) and per-strategy and per-tenant circuit breakers
//! (`--breaker-window`/`--breaker-threshold`).
//!
//! Strategies: `lin`, `log`, `tw`, `twstar`, `ucq`, `twucq`, `presto`,
//! `adaptive` (default).
//!
//! Exit codes:
//!
//! | code | meaning                                                   |
//! |------|-----------------------------------------------------------|
//! | 0    | success                                                   |
//! | 1    | internal error (I/O, invariant violation)                 |
//! | 2    | usage error (unknown command, flag or flag value)         |
//! | 3    | parse error in the ontology, query or data file — or a    |
//! |      | corrupt/incompatible `.obdb` snapshot (truncation, bit    |
//! |      | flips at open or when a segment hydrates, bad magic,      |
//! |      | retired version or layout, foreign vocabulary)            |
//! | 4    | rewriting refused structurally (not a budget trip)        |
//! | 5    | evaluation failed (not a budget trip)                     |
//! | 6    | resource budget exhausted (every fallback attempt, too)   |
//! | 7    | oracle disagreement (`--oracle`)                          |
//! | 8    | a panic was caught and isolated inside the pipeline       |

use obda::budget::BudgetSpec;
use obda::cq::query::Cq;
use obda::store::{flag_names, unknown_flags};
use obda::telemetry::{CollectingTracer, MetricsRegistry, Telemetry};
use obda::{
    read_info, write_snapshot, AnswerRequest, BreakerConfig, DataSource, MemoryBackend, ObdaError,
    ObdaSystem, OverloadConfig, QueryService, RetryPolicy, Server, ServerConfig, ServiceConfig,
    Snapshot, StorageBackend, StoreError, Strategy, TenantQuota,
};
use obda_ndl::engine::EngineConfig;
use obda_ndl::program::ProgramDisplay;
use obda_ndl::relevance::prune_for_goal;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::time::Duration;

/// Output format of the collected span tree (`--trace`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Pretty,
    Json,
}

struct Args {
    command: String,
    ontology: Option<String>,
    query: Option<String>,
    data: Option<String>,
    db: Option<String>,
    out: Option<String>,
    strategy: Strategy,
    oracle: bool,
    no_fallback: bool,
    spec: BudgetSpec,
    engine: EngineConfig,
    retries: Option<u32>,
    max_concurrency: Option<usize>,
    trace: Option<TraceFormat>,
    stats: bool,
    addr: Option<String>,
    max_queue: Option<usize>,
    quota_rate: Option<f64>,
    quota_burst: Option<f64>,
    quota_concurrency: Option<usize>,
    drain_secs: Option<f64>,
    cache_capacity: Option<usize>,
    breaker_window: Option<usize>,
    breaker_threshold: Option<usize>,
}

const USAGE: &str = "usage: obda <classify|rewrite|explain|answer> --ontology FILE --query FILE\n\
    \x20      [--data FILE | --db FILE] [--strategy NAME] [--oracle] [--timeout-secs N]\n\
    \x20      [--budget-secs N] [--budget-clauses N] [--budget-tuples N]\n\
    \x20      [--budget-steps N] [--budget-chase N] [--no-fallback]\n\
    \x20      [--threads N] [--no-prune] [--no-plan] [--retries N]\n\
    \x20      [--trace[=pretty|json]] [--stats]\n\
    \x20      obda build --ontology FILE --data FILE (-o|--out) FILE\n\
    \x20      obda dbinfo FILE\n\
    \x20      obda serve --ontology FILE (--db FILE | --data FILE) [--addr HOST:PORT]\n\
    \x20      [--max-concurrency N] [--max-queue N] [--timeout-secs N]\n\
    \x20      [--quota-rate N] [--quota-burst N] [--quota-concurrency N]\n\
    \x20      [--drain-secs N] [--cache-capacity N] [--breaker-window N]\n\
    \x20      [--breaker-threshold N]\n\
    \x20      obda --help";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// `obda --help`: the full flag reference plus the complete exit-code
/// table. The failsafe suite asserts this text names every code 0–9, so
/// a new `CliError` variant cannot ship without documenting its code.
fn print_help() {
    println!("{USAGE}");
    println!(
        "\ncommands:\n\
         \x20 classify   place the OMQ in the Figure 1 complexity landscape\n\
         \x20 rewrite    print the NDL rewriting for a strategy\n\
         \x20 explain    classification, rewriting, pruned program, stratum plan\n\
         \x20 answer     rewrite and evaluate over --data or a --db snapshot\n\
         \x20 build      compile a data file into a dictionary-encoded .obdb snapshot\n\
         \x20 dbinfo     print a snapshot's header, flags and row counts\n\
         \x20 serve      hardened multi-tenant HTTP query server over --db/--data\n\
         \nserve endpoints: POST /query (headers X-Obda-Tenant, X-Obda-Timeout-Ms,\n\
         X-Obda-Strategy), GET /explain?query=..., GET /metrics, GET /healthz,\n\
         GET /readyz, POST /shutdown. Tenant quota refusals answer 429 with\n\
         Retry-After; overload answers 503; budget exhaustion answers 504.\n\
         \nserve overload control (on by default, tuned with the flags below):\n\
         cost-based admission rejects requests whose estimated work exceeds\n\
         the remaining deadline (429), and per-strategy and per-tenant\n\
         circuit breakers fail fast after repeated failures (503);\n\
         --breaker-window/--breaker-threshold tune how many failures in the\n\
         rolling window trip a breaker.\n\
         \nsnapshot hydration (answer with --db): a request hydrates and verifies\n\
         the segments its pruned program joins before it plans, so resident\n\
         bytes track the columns a query actually joins and a corrupt segment\n\
         fails the request with exit 3.\n\
         \nstrategies: lin, log, tw, twstar, ucq, twucq, presto, adaptive (default)\n\
         \nexit codes:\n\
         \x20 0  success\n\
         \x20 1  internal error (I/O, invariant violation)\n\
         \x20 2  usage error (unknown command, flag or flag value)\n\
         \x20 3  parse error in the ontology, query or data file, or a corrupt\n\
         \x20    or incompatible .obdb snapshot (at open or when a segment hydrates)\n\
         \x20 4  rewriting refused structurally (not a budget trip)\n\
         \x20 5  evaluation failed (not a budget trip)\n\
         \x20 6  resource budget exhausted (every fallback attempt, too)\n\
         \x20 7  oracle disagreement (--oracle)\n\
         \x20 8  a panic was caught and isolated inside the pipeline"
    );
}

fn parse_args() -> Option<Args> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next()?;
    if !matches!(
        command.as_str(),
        "classify" | "rewrite" | "explain" | "answer" | "build" | "dbinfo" | "serve"
    ) {
        return None;
    }
    let mut args = Args {
        command,
        ontology: None,
        query: None,
        data: None,
        db: None,
        out: None,
        strategy: Strategy::Adaptive,
        oracle: false,
        no_fallback: false,
        spec: BudgetSpec::unlimited(),
        engine: EngineConfig::default(),
        retries: None,
        max_concurrency: None,
        trace: None,
        stats: false,
        addr: None,
        max_queue: None,
        quota_rate: None,
        quota_burst: None,
        quota_concurrency: None,
        drain_secs: None,
        cache_capacity: None,
        breaker_window: None,
        breaker_threshold: None,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--ontology" => args.ontology = Some(argv.next()?),
            "--query" => args.query = Some(argv.next()?),
            "--data" => args.data = Some(argv.next()?),
            "--db" => args.db = Some(argv.next()?),
            "-o" | "--out" => args.out = Some(argv.next()?),
            "--strategy" => args.strategy = Strategy::parse(&argv.next()?)?,
            "--oracle" => args.oracle = true,
            "--no-fallback" => args.no_fallback = true,
            // Both spellings feed the unified budget: the wall clock covers
            // rewriting as well as evaluation.
            "--timeout-secs" | "--budget-secs" => {
                let secs: f64 = argv.next()?.parse().ok()?;
                if !secs.is_finite() || secs < 0.0 {
                    return None;
                }
                args.spec.timeout = Some(Duration::from_secs_f64(secs));
            }
            "--budget-clauses" => args.spec.max_clauses = Some(argv.next()?.parse().ok()?),
            "--budget-tuples" => args.spec.max_tuples = Some(argv.next()?.parse().ok()?),
            "--budget-steps" => args.spec.max_steps = Some(argv.next()?.parse().ok()?),
            "--budget-chase" => args.spec.max_chase_elements = Some(argv.next()?.parse().ok()?),
            "--threads" => args.engine.threads = argv.next()?.parse().ok()?,
            "--no-prune" => args.engine.prune = false,
            "--no-plan" => args.engine.plan = false,
            "--retries" => args.retries = Some(argv.next()?.parse().ok()?),
            "--max-concurrency" => {
                let n: usize = argv.next()?.parse().ok()?;
                if n == 0 {
                    return None; // a zero-slot service could admit nothing
                }
                args.max_concurrency = Some(n);
            }
            "--addr" => args.addr = Some(argv.next()?),
            "--max-queue" => args.max_queue = Some(argv.next()?.parse().ok()?),
            "--quota-rate" => {
                let rate: f64 = argv.next()?.parse().ok()?;
                if !rate.is_finite() || rate <= 0.0 {
                    // A zero (or negative) refill rate would starve every
                    // tenant forever; say so instead of a bare usage line.
                    eprintln!(
                        "error: --quota-rate must be a positive number of requests \
                         per second (got {rate}); a rate of 0 would admit nothing"
                    );
                    return None;
                }
                args.quota_rate = Some(rate);
            }
            "--quota-burst" => {
                let burst: f64 = argv.next()?.parse().ok()?;
                if !burst.is_finite() || burst < 1.0 {
                    // A bucket that cannot hold one whole token can never
                    // admit a request.
                    eprintln!(
                        "error: --quota-burst must be at least 1 token (got {burst}); \
                         a burst below 1 would admit nothing"
                    );
                    return None;
                }
                args.quota_burst = Some(burst);
            }
            "--quota-concurrency" => {
                let n: usize = argv.next()?.parse().ok()?;
                if n == 0 {
                    return None;
                }
                args.quota_concurrency = Some(n);
            }
            "--drain-secs" => {
                let secs: f64 = argv.next()?.parse().ok()?;
                if !secs.is_finite() || secs < 0.0 {
                    return None;
                }
                args.drain_secs = Some(secs);
            }
            "--cache-capacity" => {
                let n: usize = argv.next()?.parse().ok()?;
                if n == 0 {
                    return None;
                }
                args.cache_capacity = Some(n);
            }
            "--breaker-window" => {
                let n: usize = argv.next()?.parse().ok()?;
                if n == 0 {
                    return None;
                }
                args.breaker_window = Some(n);
            }
            "--breaker-threshold" => {
                let n: usize = argv.next()?.parse().ok()?;
                if n == 0 {
                    return None;
                }
                args.breaker_threshold = Some(n);
            }
            "--trace" | "--trace=pretty" => args.trace = Some(TraceFormat::Pretty),
            "--trace=json" => args.trace = Some(TraceFormat::Json),
            "--stats" => args.stats = true,
            // `dbinfo` takes its snapshot path positionally.
            other if args.command == "dbinfo" && !other.starts_with('-') && args.db.is_none() => {
                args.db = Some(other.to_owned());
            }
            _ => return None,
        }
    }
    Some(args)
}

/// A CLI failure, classified for the exit code.
enum CliError {
    /// I/O or other internal failure — exit 1.
    Internal(String),
    /// Malformed ontology/query/data input — exit 3.
    Parse(String),
    /// Rewriting refused structurally — exit 4.
    Rewrite(String),
    /// Evaluation failed for a non-budget reason — exit 5.
    Eval(String),
    /// A resource budget was exhausted — exit 6.
    Budget(String),
    /// The rewriting disagrees with the chase oracle — exit 7.
    Oracle(String),
    /// A panic was caught and isolated inside the pipeline — exit 8.
    Panic(String),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        ExitCode::from(match self {
            CliError::Internal(_) => 1,
            CliError::Parse(_) => 3,
            CliError::Rewrite(_) => 4,
            CliError::Eval(_) => 5,
            CliError::Budget(_) => 6,
            CliError::Oracle(_) => 7,
            CliError::Panic(_) => 8,
        })
    }

    fn message(&self) -> &str {
        match self {
            CliError::Internal(m)
            | CliError::Parse(m)
            | CliError::Rewrite(m)
            | CliError::Eval(m)
            | CliError::Budget(m)
            | CliError::Oracle(m)
            | CliError::Panic(m) => m,
        }
    }
}

impl From<StoreError> for CliError {
    fn from(e: StoreError) -> Self {
        let msg = e.to_string();
        match e {
            // File-system trouble is environmental, not a bad snapshot.
            StoreError::Io(_) => CliError::Internal(msg),
            // A budget trip during the load is an exhaustion like any other.
            StoreError::Budget(_) => CliError::Budget(msg),
            // An injected transient fault that reached the CLI behaves like
            // a transient evaluation failure.
            StoreError::Injected { .. } => CliError::Eval(msg),
            // Corruption and incompatibility (bad magic, truncation, bit
            // flips, unknown version, foreign vocabulary) are the snapshot
            // analogue of a malformed data file.
            _ => CliError::Parse(msg),
        }
    }
}

impl From<ObdaError> for CliError {
    fn from(e: ObdaError) -> Self {
        let msg = e.to_string();
        if e.is_budget() {
            return CliError::Budget(msg);
        }
        match e {
            ObdaError::Parse(_) => CliError::Parse(msg),
            ObdaError::Rewrite(_) => CliError::Rewrite(msg),
            ObdaError::Eval(_) => CliError::Eval(msg),
            ObdaError::Chase(_) => CliError::Budget(msg),
            ObdaError::Store(e) => CliError::from(e),
            // A transient fault that survived every retry behaves like an
            // exhausted evaluation; the dedicated codes cover the other two.
            ObdaError::Transient { .. } => CliError::Eval(msg),
            ObdaError::Internal { .. } => CliError::Panic(msg),
            // Admission refusals come only from a configured query service,
            // which `ObdaSystem::run` never consults; the mapping stays
            // total all the same.
            ObdaError::Overloaded { .. }
            | ObdaError::QuotaExceeded { .. }
            | ObdaError::CostRejected { .. }
            | ObdaError::BreakerOpen { .. } => CliError::Internal(msg),
        }
    }
}

fn run(args: &Args, telem: Telemetry<'_>) -> Result<(), CliError> {
    let read = |path: &Option<String>, what: &str| -> Result<String, CliError> {
        let path = path.as_ref().ok_or_else(|| CliError::Internal(format!("missing --{what}")))?;
        std::fs::read_to_string(path)
            .map_err(|e| CliError::Internal(format!("cannot read {path}: {e}")))
    };
    if args.command == "dbinfo" {
        return run_dbinfo(args);
    }
    let system = ObdaSystem::from_text_traced(&read(&args.ontology, "ontology")?, telem)?;
    if args.command == "build" {
        return run_build(args, &system, &read(&args.data, "data")?, telem);
    }
    if args.command == "serve" {
        return run_serve(args, system, telem);
    }
    let qspan = telem.span("parse:query");
    let query = match system.parse_query(read(&args.query, "query")?.trim()) {
        Ok(q) => {
            qspan.end();
            q
        }
        Err(e) => {
            qspan.error(&e.to_string());
            return Err(e.into());
        }
    };

    match args.command.as_str() {
        "classify" => {
            let cell = system.classify(&query);
            println!("depth:       {:?}", cell.depth);
            println!("query class: {:?}", cell.query);
            println!("complexity:  {}", cell.complexity);
            println!(
                "rewritings:  poly NDL = {}, PE = {:?}, poly FO iff {}",
                cell.succinctness.poly_ndl, cell.succinctness.pe, cell.succinctness.poly_fo_iff
            );
            Ok(())
        }
        "rewrite" => {
            let mut budget = args.spec.start();
            let rewriting = system.rewrite_budgeted(&query, args.strategy, &mut budget)?;
            eprintln!(
                "# strategy {}: {} clauses, {} predicates",
                args.strategy,
                rewriting.program.num_clauses(),
                rewriting.program.num_preds()
            );
            print!("{}", ProgramDisplay { program: &rewriting.program });
            Ok(())
        }
        "explain" => run_explain(args, &system, &query, telem),
        "answer" => {
            let data = if let Some(db) = &args.db {
                AnswerData::Snapshot(Box::new(Snapshot::open_budgeted(
                    std::path::Path::new(db),
                    system.ontology().vocab(),
                    &mut obda::budget::Budget::unlimited(),
                    telem,
                )?))
            } else {
                let dspan = telem.span("parse:data");
                match system.parse_data(&read(&args.data, "data")?) {
                    Ok(d) => {
                        dspan.end();
                        AnswerData::Parsed(d)
                    }
                    Err(e) => {
                        dspan.error(&e.to_string());
                        return Err(e.into());
                    }
                }
            };
            run_answer(args, &system, &query, &data, telem)
        }
        _ => unreachable!("parse_args admits only known commands"),
    }
}

/// `obda build`: parse the data once and persist the dictionary-encoded
/// snapshot.
fn run_build(
    args: &Args,
    system: &ObdaSystem,
    data_text: &str,
    telem: Telemetry<'_>,
) -> Result<(), CliError> {
    let out = args
        .out
        .as_ref()
        .ok_or_else(|| CliError::Internal("missing --out (snapshot path)".into()))?;
    let dspan = telem.span("parse:data");
    let data = match system.parse_data(data_text) {
        Ok(d) => {
            dspan.end();
            d
        }
        Err(e) => {
            dspan.error(&e.to_string());
            return Err(e.into());
        }
    };
    let wspan = telem.span("write_snapshot");
    let info = match write_snapshot(std::path::Path::new(out), system.ontology().vocab(), &data) {
        Ok(info) => {
            wspan.attr("file_bytes", info.file_bytes);
            wspan.end();
            info
        }
        Err(e) => {
            wspan.error(&e.to_string());
            return Err(e.into());
        }
    };
    println!(
        "wrote {out}: format v{}, {} constants, {} atoms in {} relations, {} bytes",
        info.version,
        info.num_consts,
        info.num_atoms,
        info.relations.len(),
        info.file_bytes
    );
    Ok(())
}

/// `obda dbinfo`: decode and print a snapshot's self-description without
/// needing the ontology.
fn run_dbinfo(args: &Args) -> Result<(), CliError> {
    let path = args
        .db
        .as_ref()
        .ok_or_else(|| CliError::Internal("missing snapshot path (obda dbinfo FILE)".into()))?;
    let info = read_info(std::path::Path::new(path))?;
    // Name every flag bit we understand and call out the ones we do not:
    // optional (upper-half) bits from a newer writer still open here, and
    // the operator deserves to see them rather than a bare hex word.
    let named = flag_names(info.flags);
    let known = if named.is_empty() { "none".to_owned() } else { named.join(", ") };
    let unknown = unknown_flags(info.flags);
    println!("snapshot:       {path}");
    println!("format version: {}", info.version);
    if unknown == 0 {
        println!("flags:          {:#010x} (known: {known})", info.flags);
    } else {
        println!(
            "flags:          {:#010x} (known: {known}; unknown: {unknown:#010x}, \
             optional bits tolerated)",
            info.flags
        );
    }
    println!("file bytes:     {}", info.file_bytes);
    println!("payload bytes:  {}", info.payload_bytes);
    println!("checksum:       {:#018x} (word-folded FNV-1a 64, verified)", info.checksum);
    println!("dictionary:     {} constants, {} bytes", info.num_consts, info.dict_bytes);
    println!("atoms:          {}", info.num_atoms);
    println!("relations:      {}", info.relations.len());
    for rel in &info.relations {
        let kind = if rel.arity == 1 { "class" } else { "property" };
        println!("  {:<10} {} ({} rows)", kind, rel.name, rel.rows);
    }
    Ok(())
}

/// The data a CLI `answer` evaluates over: parsed from text, or reopened
/// from a snapshot.
enum AnswerData {
    Parsed(obda::owlql::abox::DataInstance),
    Snapshot(Box<Snapshot>),
}

impl AnswerData {
    /// Renders a constant id from either dictionary.
    fn constant_name(&self, c: obda::owlql::abox::ConstId) -> &str {
        match self {
            AnswerData::Parsed(d) => d.constant_name(c),
            AnswerData::Snapshot(s) => s.constant_name(c),
        }
    }

    /// Where a request reads this data from.
    fn source(&self) -> DataSource<'_> {
        match self {
            AnswerData::Parsed(d) => DataSource::Parse(d),
            AnswerData::Snapshot(s) => DataSource::Backend(s.as_ref()),
        }
    }

    /// The instance view (snapshots materialise it lazily, verifying
    /// every segment; only the chase oracle needs it).
    fn instance(&self) -> Result<&obda::owlql::abox::DataInstance, StoreError> {
        match self {
            AnswerData::Parsed(d) => Ok(d),
            AnswerData::Snapshot(s) => s.data_instance(),
        }
    }
}

/// `obda explain`: classification, rewriting, pruned program, and its
/// per-clause join plans grouped by dependency level. Without data
/// the plan is syntactic; with `--data` or `--db` the cost-based plan
/// is shown with estimated *and* actual per-atom cardinalities (the
/// query is executed once, by the engine at one thread without pruning).
fn run_explain(
    args: &Args,
    system: &ObdaSystem,
    query: &Cq,
    telem: Telemetry<'_>,
) -> Result<(), CliError> {
    let cell = system.classify(query);
    println!("== classification ==");
    println!(
        "depth {:?}, query class {:?}, complexity {}",
        cell.depth, cell.query, cell.complexity
    );

    let mut budget = args.spec.start();
    let rewriting = system.rewrite_budgeted(query, args.strategy, &mut budget)?;
    println!();
    println!(
        "== rewriting (strategy {}, {} clauses, {} predicates) ==",
        args.strategy,
        rewriting.program.num_clauses(),
        rewriting.program.num_preds()
    );
    print!("{}", ProgramDisplay { program: &rewriting.program });

    let pruned = prune_for_goal(&rewriting);
    println!();
    println!(
        "== pruned program ({} -> {} clauses, {} -> {} predicates) ==",
        pruned.stats.clauses_before,
        pruned.stats.clauses_after,
        pruned.stats.preds_before,
        pruned.stats.preds_after
    );
    print!("{}", ProgramDisplay { program: &pruned.query.program });

    // With data on hand the planner can cost the joins against real
    // relation statistics, and one single-thread execution annotates every
    // step with the cardinality it actually produced. Without data the
    // schedule falls back to the syntactic join order.
    let backend: Option<Box<dyn StorageBackend>> = if let Some(db) = &args.db {
        Some(Box::new(Snapshot::open_budgeted(
            std::path::Path::new(db),
            system.ontology().vocab(),
            &mut obda::budget::Budget::unlimited(),
            telem,
        )?))
    } else if let Some(path) = &args.data {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Internal(format!("cannot read {path}: {e}")))?;
        Some(Box::new(MemoryBackend::new(system.parse_data(&text)?)))
    } else {
        None
    };
    println!();
    match &backend {
        Some(backend) => {
            let program = &pruned.query.program;
            let kinds = program.pred_ids().map(|p| program.pred(p).kind);
            backend.database().hydrate(kinds).map_err(StoreError::from)?;
            let (plan, result) =
                obda_ndl::explain_plan_executed(&pruned.query, backend.database(), &mut budget)
                    .map_err(|e| CliError::from(ObdaError::from(e)))?;
            println!(
                "== stratum plan (cost-based, executed: {} answers, {} tuples) ==",
                result.answers.len(),
                result.stats.generated_tuples
            );
            print!("{}", plan.display(&pruned.query.program));
        }
        None => {
            let plan = obda_ndl::explain_plan(&pruned.query);
            println!("== stratum plan (syntactic; add --data or --db for cost-based) ==");
            print!("{}", plan.display(&pruned.query.program));
        }
    }

    // With `--db`, also describe the snapshot the plan ran over — the
    // structural header decode (dictionary, per-relation row counts).
    if let Some(db) = &args.db {
        let info = read_info(std::path::Path::new(db))?;
        println!();
        println!("== snapshot {db} (format v{}, {} bytes) ==", info.version, info.file_bytes);
        println!(
            "{} constants, {} atoms, {} relations:",
            info.num_consts,
            info.num_atoms,
            info.relations.len()
        );
        for rel in &info.relations {
            println!("  {}/{} ({} rows)", rel.name, rel.arity, rel.rows);
        }
    }
    Ok(())
}

/// `obda serve`: the hardened multi-tenant HTTP query server. Binds,
/// prints the resolved address on stdout (so scripts binding `:0` can
/// discover the port), then serves until a shutdown signal — `POST
/// /shutdown`, stdin EOF, or a literal `shutdown` line on stdin — and
/// drains gracefully.
fn run_serve(args: &Args, system: ObdaSystem, telem: Telemetry<'_>) -> Result<(), CliError> {
    use std::io::BufRead;
    use std::io::Write as _;

    let backend: Box<dyn StorageBackend + Send + Sync> = if let Some(db) = &args.db {
        Box::new(Snapshot::open_budgeted(
            std::path::Path::new(db),
            system.ontology().vocab(),
            &mut obda::budget::Budget::unlimited(),
            telem,
        )?)
    } else if let Some(path) = &args.data {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Internal(format!("cannot read {path}: {e}")))?;
        Box::new(MemoryBackend::new(system.parse_data(&text)?))
    } else {
        return Err(CliError::Internal("serve needs --db or --data".into()));
    };
    let retry = retry_policy(args);
    // The server gets the full adaptive overload stack by default; the
    // flags only retune it. One shared breaker shape serves both the
    // per-strategy and the per-tenant breaker sets.
    let breaker = BreakerConfig {
        window: args.breaker_window.unwrap_or(BreakerConfig::default().window),
        threshold: args.breaker_threshold.unwrap_or(BreakerConfig::default().threshold),
        ..BreakerConfig::default()
    };
    let mut overload = OverloadConfig::enabled();
    overload.breaker = Some(breaker.clone());
    let service = QueryService::new(
        system,
        ServiceConfig {
            max_concurrency: args.max_concurrency.unwrap_or(4),
            max_queue: args.max_queue.unwrap_or(16),
            retry,
            engine: args.engine.clone(),
            overload,
        },
    );
    let defaults = ServerConfig::default();
    let quota = TenantQuota {
        rate_per_sec: args.quota_rate.unwrap_or(f64::INFINITY),
        // An explicit rate without a burst gets a burst of the same size:
        // one second of credit, the least surprising default.
        burst: args.quota_burst.or(args.quota_rate).unwrap_or(f64::INFINITY),
        max_concurrency: args.quota_concurrency.unwrap_or(usize::MAX),
    };
    let cfg = ServerConfig {
        addr: args.addr.clone().unwrap_or(defaults.addr),
        max_timeout: args.spec.timeout.unwrap_or(defaults.max_timeout),
        budget: args.spec,
        drain_timeout: args
            .drain_secs
            .map(Duration::from_secs_f64)
            .unwrap_or(defaults.drain_timeout),
        cache_capacity: args.cache_capacity.unwrap_or(defaults.cache_capacity),
        default_quota: quota,
        tenant_breaker: Some(breaker),
        ..defaults
    };
    let server = Server::bind(service, backend, cfg)
        .map_err(|e| CliError::Internal(format!("cannot bind: {e}")))?;
    println!("listening on http://{}", server.local_addr());
    let _ = std::io::stdout().flush();
    let handle = server.start();
    let trigger = handle.trigger();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match stdin.lock().read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) if line.trim() == "shutdown" => break,
                Ok(_) => {}
            }
        }
        trigger.shutdown();
    });
    if handle.join() {
        eprintln!("# drained cleanly");
        Ok(())
    } else {
        Err(CliError::Internal("drain timed out with requests still in flight".into()))
    }
}

/// The `--retries N` policy (default 2 retries).
fn retry_policy(args: &Args) -> RetryPolicy {
    args.retries.map_or_else(RetryPolicy::default, RetryPolicy::with_retries)
}

fn run_answer(
    args: &Args,
    system: &ObdaSystem,
    query: &Cq,
    data: &AnswerData,
    telem: Telemetry<'_>,
) -> Result<(), CliError> {
    // `--no-fallback` is the bare strategy: one rung, no retries.
    let fallback = !args.no_fallback;
    let retry = if fallback { retry_policy(args) } else { RetryPolicy::none() };
    let report = system.run(&AnswerRequest {
        fallback,
        spec: args.spec,
        engine: args.engine.clone(),
        retry,
        telem,
        ..AnswerRequest::new(query, data.source(), args.strategy)
    });
    if fallback {
        eprint!("{report}");
        if report.all_exhausted() {
            return Err(CliError::Budget(format!(
                "budget exhausted: all {} strategies tripped the budget",
                report.attempts.len()
            )));
        }
    }
    let strategy_used = report.winning_strategy().unwrap_or(args.strategy);
    let result = report.into_result()?;
    // Through one buffer on the locked handle: stdout is line-buffered,
    // so a `println!` per answer would cost one write(2) each.
    let mut out = BufWriter::new(std::io::stdout().lock());
    let written = result.answers.iter().try_for_each(|tuple| {
        out.write_all(b"(")?;
        for (i, &c) in tuple.iter().enumerate() {
            if i > 0 {
                out.write_all(b", ")?;
            }
            out.write_all(data.constant_name(c).as_bytes())?;
        }
        out.write_all(b")\n")
    });
    written
        .and_then(|()| out.flush())
        .map_err(|e| CliError::Internal(format!("writing answers: {e}")))?;
    drop(out);
    eprintln!(
        "# {} answers, {} tuples materialised, strategy {}",
        result.stats.num_answers, result.stats.generated_tuples, strategy_used
    );
    // The lazy snapshot's whole point, made visible: how much of the file
    // this query actually faulted in.
    if let AnswerData::Snapshot(s) = data {
        eprintln!(
            "# snapshot resident: {} bytes across {} hydrated columns",
            s.bytes_touched(),
            s.columns_touched()
        );
    }
    if args.oracle {
        let ospan = telem.span("oracle-check");
        let mut budget = args.spec.start();
        let oracle = match data
            .instance()
            .map_err(ObdaError::from)
            .and_then(|instance| system.certain_answers_budgeted(query, instance, &mut budget))
        {
            Ok(ans) => ans.tuples(),
            Err(e) => {
                ospan.error(&e.to_string());
                return Err(e.into());
            }
        };
        if oracle == result.answers {
            ospan.end();
            eprintln!("# oracle agrees ✓");
        } else {
            let msg = format!(
                "oracle DISAGREES with the rewriting: {} answers vs {} certain",
                result.answers.len(),
                oracle.len()
            );
            ospan.error(&msg);
            return Err(CliError::Oracle(msg));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        print_help();
        return ExitCode::SUCCESS;
    }
    let Some(args) = parse_args() else {
        return usage();
    };
    let tracer = CollectingTracer::new();
    let registry = MetricsRegistry::new();
    let telem = match (args.trace.is_some(), args.stats) {
        (false, false) => Telemetry::disabled(),
        (true, _) => Telemetry::new(&tracer, Some(&registry)),
        (false, true) => Telemetry { metrics: Some(&registry), ..Telemetry::disabled() },
    };
    let root = telem.span("request");
    let outcome = run(&args, telem.under(&root));
    if let Err(e) = &outcome {
        root.error(e.message());
    }
    root.end();
    if let Some(format) = args.trace {
        let tree = tracer.snapshot();
        match format {
            TraceFormat::Pretty => eprint!("{}", tree.render_pretty()),
            TraceFormat::Json => eprintln!("{}", tree.render_json()),
        }
    }
    if args.stats {
        eprint!("{}", registry.render_text());
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            e.exit_code()
        }
    }
}
