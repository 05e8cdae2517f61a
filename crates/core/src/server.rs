//! `obda serve`: a hardened multi-tenant HTTP/1.1 query server over a
//! loaded [`StorageBackend`].
//!
//! Dependency-free by design — a threaded accept loop on
//! [`std::net::TcpListener`], no async runtime — matching the repo's
//! zero-external-deps discipline. Each connection carries one request;
//! the threads that serve them are kept across connections (`Handlers`).
//! The long-running process is what makes the paper's dichotomy pay off operationally: the expensive per-OMQ
//! work (classification, rewriting, goal-directed pruning) runs **once**
//! per distinct query text and is cached in a bounded LRU of
//! [`PreparedOmq`]; every subsequent request evaluates the cached
//! rewriting directly.
//!
//! ## Endpoints
//!
//! | route            | method | behaviour                                        |
//! |------------------|--------|--------------------------------------------------|
//! | `/query`         | POST   | body = OMQ text; answers one tuple per line      |
//! | `/explain`       | GET    | `?query=<pct-encoded>[&strategy=<name>]`         |
//! | `/metrics`       | GET    | Prometheus-style text exposition                 |
//! | `/healthz`       | GET    | 200 while the process is alive                   |
//! | `/readyz`        | GET    | 200 when admitting; 503 while draining           |
//! | `/shutdown`      | POST   | begins graceful drain; 202                       |
//!
//! `POST /query` honours three request headers: `X-Obda-Tenant` (the
//! quota key; `anonymous` when absent), `X-Obda-Timeout-Ms` (client
//! deadline, clamped by the server ceiling and threaded into the
//! per-request [`BudgetSpec`] so queue wait + evaluation never outlive
//! the client), and `X-Obda-Strategy` (a [`Strategy::parse`] name).
//!
//! ## Robustness model
//!
//! Admission is layered: per-tenant token-bucket + concurrency quotas
//! ([`TenantGovernor`], typed [`ObdaError::QuotaExceeded`] → HTTP 429
//! with `Retry-After`) in front of the service's global gate (typed
//! [`ObdaError::Overloaded`] → 503). Sockets carry read/write timeouts
//! and a request-size cap, so slow-loris and oversized bodies are shed
//! with typed responses (408/413) instead of holding threads forever. Every
//! connection handler is panic-isolated: a poisoned request produces a
//! 500 and a `server_panics_total` tick, never a dead accept loop. On
//! shutdown the server drains gracefully: `/readyz` flips to 503 and new
//! queries are refused, the gate stops admitting, in-flight requests
//! finish under their own deadlines, then the listener closes.
//!
//! ## HTTP status ↔ [`ObdaError`] mapping
//!
//! | condition                                   | status                  |
//! |---------------------------------------------|-------------------------|
//! | `Parse`                                     | 400                     |
//! | `Rewrite` (structural refusal)              | 422                     |
//! | `Eval` (non-budget) / `Internal`            | 500                     |
//! | budget exhausted (`is_budget`) / `Chase`    | 504                     |
//! | `Transient` (retries exhausted)             | 503 + `Retry-After`     |
//! | `Overloaded` (gate)                         | 503 + `Retry-After`     |
//! | `QuotaExceeded` (tenant)                    | 429 + `Retry-After`     |
//! | `CostRejected` (admission estimate)         | 429 + `Retry-After`     |
//! | `BreakerOpen` (strategy or tenant breaker)  | 503 + `Retry-After`     |
//! | draining                                    | 503 + `Retry-After`     |
//! | oversized body / slow read / malformed HTTP | 413 / 408 / 400         |
//!
//! `Retry-After` values that stem from a typed refusal carry
//! deterministic seeded jitter (base + up to 50%), so a herd of
//! synchronized clients spreads its retries instead of re-spiking the
//! governor in lockstep.

use crate::pipeline::{ObdaError, PreparedOmq, Strategy};
use crate::service::breaker::{AttemptClass, BreakerConfig, BreakerSet};
use crate::service::{QueryService, TenantGovernor, TenantQuota};
use obda_budget::BudgetSpec;
use obda_store::StorageBackend;
use obda_telemetry::{metric_suffix, Telemetry};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Fault-injection shim for the `server::handle` site: active with the
/// `faults` feature, an empty inline function otherwise.
mod fault {
    #[cfg(feature = "faults")]
    pub fn inject() {
        obda_faults::inject(obda_faults::site::SERVER_HANDLE);
    }

    #[cfg(not(feature = "faults"))]
    #[inline(always)]
    pub fn inject() {}
}

/// Configuration of [`Server::bind`]. Everything has a production-lean
/// default; tests override `addr` with port `0` and shrink the limits.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7079` (`:0` picks a free port).
    pub addr: String,
    /// Ceiling on the per-request deadline: `X-Obda-Timeout-Ms` is
    /// clamped to this, and requests without the header get exactly this.
    pub max_timeout: Duration,
    /// Base per-request resource caps (tuples, steps, clauses, chase);
    /// the `timeout` field is ignored — the clamped client deadline is
    /// threaded in per request.
    pub budget: BudgetSpec,
    /// Socket read timeout: header + body must arrive within roughly
    /// this window or the request is shed with 408 (slow-loris guard).
    pub read_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Cap on request body bytes; larger bodies are shed with 413.
    pub max_body_bytes: usize,
    /// Bounded LRU capacity of the [`PreparedOmq`] cache (≥ 1).
    pub cache_capacity: usize,
    /// How long a graceful drain waits for in-flight requests.
    pub drain_timeout: Duration,
    /// Quota applied to tenants never registered explicitly.
    pub default_quota: TenantQuota,
    /// Per-tenant circuit breakers: a tenant whose requests keep burning
    /// budget is refused fast instead of re-occupying slots. `None`
    /// disables.
    pub tenant_breaker: Option<BreakerConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7079".to_owned(),
            max_timeout: Duration::from_secs(10),
            budget: BudgetSpec::unlimited(),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_body_bytes: 64 * 1024,
            cache_capacity: 128,
            drain_timeout: Duration::from_secs(5),
            default_quota: TenantQuota::unlimited(),
            tenant_breaker: None,
        }
    }
}

/// A bounded LRU of prepared OMQs keyed by `(strategy, query text)`.
/// Hits bump a logical clock; inserts at capacity evict the
/// least-recently-used entry. Preparation happens *outside* the lock, so
/// two racing first requests for the same text may both prepare — the
/// loser's work is discarded, which is harmless and keeps the lock cheap.
struct PreparedCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<String, (Arc<PreparedOmq>, u64)>,
}

impl PreparedCache {
    fn new(capacity: usize) -> Self {
        PreparedCache { capacity: capacity.max(1), tick: 0, entries: HashMap::new() }
    }

    fn get(&mut self, key: &str) -> Option<Arc<PreparedOmq>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(omq, used)| {
            *used = tick;
            Arc::clone(omq)
        })
    }

    fn insert(&mut self, key: String, omq: Arc<PreparedOmq>) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(lru) =
                self.entries.iter().min_by_key(|(_, (_, used))| *used).map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
                evicted = true;
            }
        }
        self.entries.insert(key, (omq, self.tick));
        evicted
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Connection handler threads, kept across connections. The accept loop
/// hands each stream to a parked handler and spawns one only when none is
/// idle; a handler that finishes a connection parks again unless
/// `max_concurrency` handlers are idle already, in which case it exits.
/// Reuse keeps the thread count (and with it glibc's per-thread malloc
/// arenas, hence peak RSS) at the number of connections that really
/// overlap; DESIGN.md, "Handler threads outlive their connection".
#[derive(Default)]
struct Handlers {
    pool: Mutex<HandlerPool>,
    wake: Condvar,
}

#[derive(Default)]
struct HandlerPool {
    /// Parked handlers not yet promised a stream: the accept loop takes
    /// one (decrements) for every stream it queues.
    idle: usize,
    /// Streams handed to parked handlers, not yet picked up.
    queue: VecDeque<TcpStream>,
    /// Live handler threads, busy or parked.
    threads: usize,
    /// Set when the accept loop ends: parked handlers exit.
    stopped: bool,
}

impl Handlers {
    fn lock(&self) -> MutexGuard<'_, HandlerPool> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Everything the accept loop, the handlers and the drain sequence
/// share. `draining` gates `/readyz` and new queries; `stopped` ends the
/// accept loop; `open_conns` counts open connections.
struct ServerInner {
    service: QueryService,
    backend: Box<dyn StorageBackend + Send + Sync>,
    governor: TenantGovernor,
    cache: Mutex<PreparedCache>,
    cfg: ServerConfig,
    draining: AtomicBool,
    stopped: AtomicBool,
    open_conns: AtomicUsize,
    handlers: Handlers,
    shutdown: (Mutex<bool>, Condvar),
    /// Per-tenant circuit breakers (when `cfg.tenant_breaker` is set).
    tenant_breakers: Option<BreakerSet>,
    /// Monotone salt for the seeded `Retry-After` jitter: each refusal
    /// draws a fresh position in the jitter stream, so a herd of
    /// rejected clients gets *different* hints deterministically.
    retry_salt: AtomicU64,
}

/// A bound-but-not-yet-serving server: [`Server::bind`] reserves the
/// port (so callers can learn the address before any request can
/// arrive), [`Server::start`] spawns the accept loop.
pub struct Server {
    inner: Arc<ServerInner>,
    listener: TcpListener,
    addr: SocketAddr,
}

/// A running server: the accept-loop thread plus the shared state.
/// Obtain with [`Server::start`]; shut down with
/// [`ServerHandle::trigger`] + [`ServerHandle::join`].
pub struct ServerHandle {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    accept: std::thread::JoinHandle<()>,
}

/// A cloneable remote control that begins graceful shutdown — handed to
/// signal watchers (stdin, `POST /shutdown`) while [`ServerHandle::join`]
/// blocks elsewhere.
#[derive(Clone)]
pub struct ShutdownTrigger {
    inner: Arc<ServerInner>,
}

impl ShutdownTrigger {
    /// Begins graceful drain (idempotent): `/readyz` flips to 503 and new
    /// queries are refused immediately; [`ServerHandle::join`] wakes and
    /// runs the drain sequence.
    pub fn shutdown(&self) {
        self.inner.request_shutdown();
    }
}

impl ServerInner {
    fn request_shutdown(&self) {
        // Readiness flips *first*: load balancers stop routing before the
        // gate starts refusing.
        self.draining.store(true, Ordering::SeqCst);
        let (lock, cv) = &self.shutdown;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cv.notify_all();
    }

    fn await_shutdown(&self) {
        let (lock, cv) = &self.shutdown;
        let mut requested = lock.lock().unwrap_or_else(PoisonError::into_inner);
        while !*requested {
            requested = cv.wait(requested).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Server {
    /// Binds the listener and assembles the shared state. `service` must
    /// wrap the same ontology the `backend` was built against.
    pub fn bind(
        service: QueryService,
        backend: Box<dyn StorageBackend + Send + Sync>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let governor = TenantGovernor::new(cfg.default_quota);
        let cache = Mutex::new(PreparedCache::new(cfg.cache_capacity));
        let tenant_breakers = cfg.tenant_breaker.clone().map(BreakerSet::new);
        let inner = Arc::new(ServerInner {
            service,
            backend,
            governor,
            cache,
            cfg,
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            handlers: Handlers::default(),
            shutdown: (Mutex::new(false), Condvar::new()),
            tenant_breakers,
            retry_salt: AtomicU64::new(0),
        });
        Ok(Server { inner, listener, addr })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Per-tenant quotas, for registration before serving starts (they
    /// can also be left to `cfg.default_quota`).
    pub fn governor(&self) -> &TenantGovernor {
        &self.inner.governor
    }

    /// Spawns the accept loop and returns the running server's handle.
    pub fn start(self) -> ServerHandle {
        let inner = Arc::clone(&self.inner);
        let listener = self.listener;
        let accept = std::thread::spawn(move || accept_loop(&listener, &inner));
        ServerHandle { inner: self.inner, addr: self.addr, accept }
    }
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable shutdown control (see [`ShutdownTrigger`]).
    pub fn trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger { inner: Arc::clone(&self.inner) }
    }

    /// Whether graceful drain has begun.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// The server's metrics registry (shared with the query service).
    pub fn metrics(&self) -> &obda_telemetry::MetricsRegistry {
        self.inner.service.metrics()
    }

    /// Blocks until shutdown is requested (via [`ShutdownTrigger`] or
    /// `POST /shutdown`), then runs the drain sequence: the gate stops
    /// admitting and queued requests bail, in-flight requests finish
    /// under their own deadlines (bounded by `drain_timeout`), open
    /// connections close, and the listener shuts. Returns `true` when
    /// everything drained inside the timeout.
    pub fn join(self) -> bool {
        self.inner.await_shutdown();
        let drained = self.inner.service.drain(self.inner.cfg.drain_timeout);
        // Wait for connection handlers (requests already admitted have
        // finished; what remains is response writing and slow readers).
        let deadline = Instant::now() + self.inner.cfg.drain_timeout;
        let mut conns_closed = true;
        while self.inner.open_conns.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline {
                conns_closed = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Stop the accept loop: flag it, then poke it awake with a
        // loopback connection (accept() has no timeout in std).
        self.inner.stopped.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        drained && conns_closed
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<ServerInner>) {
    let metrics = inner.service.metrics();
    for stream in listener.incoming() {
        if inner.stopped.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let open = inner.open_conns.fetch_add(1, Ordering::SeqCst) + 1;
        metrics.gauge("server_open_connections").set(open as i64);
        let mut pool = inner.handlers.lock();
        if pool.idle > 0 {
            pool.idle -= 1;
            pool.queue.push_back(stream);
            drop(pool);
            inner.handlers.wake.notify_one();
        } else {
            pool.threads += 1;
            metrics.gauge("server_handler_threads").set(pool.threads as i64);
            drop(pool);
            metrics.counter("server_handler_spawns_total").inc();
            let inner = Arc::clone(inner);
            std::thread::spawn(move || handler_thread(stream, &inner));
        }
    }
    inner.handlers.lock().stopped = true;
    inner.handlers.wake.notify_all();
}

/// A connection handler: serves its first stream, then parks for the
/// next one until the accept loop stops or enough handlers are idle.
fn handler_thread(mut stream: TcpStream, inner: &ServerInner) {
    let max_idle = inner.service.config().max_concurrency.max(1);
    'serve: loop {
        serve_connection(&stream, inner);
        // Park *before* closing: a closed-loop client connects again as
        // soon as it sees the close, and that connection should find this
        // handler idle rather than spawn a new thread.
        let mut pool = inner.handlers.lock();
        if pool.stopped || pool.idle >= max_idle {
            break;
        }
        pool.idle += 1;
        drop(pool);
        drop(stream);
        let mut pool = inner.handlers.lock();
        stream = loop {
            if let Some(next) = pool.queue.pop_front() {
                break next;
            }
            if pool.stopped {
                pool.idle -= 1;
                break 'serve;
            }
            pool = inner.handlers.wake.wait(pool).unwrap_or_else(PoisonError::into_inner);
        };
    }
    let mut pool = inner.handlers.lock();
    pool.threads -= 1;
    inner.service.metrics().gauge("server_handler_threads").set(pool.threads as i64);
}

/// Serves one connection behind the HTTP layer's panic backstop: nothing
/// that unwinds out of parsing, routing or response writing can reach the
/// handler loop. (Query evaluation has its own inner isolation so faults
/// become typed responses; this boundary exists for bugs in the HTTP
/// layer itself.)
fn serve_connection(stream: &TcpStream, inner: &ServerInner) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle_connection(stream, inner);
    }));
    if outcome.is_err() {
        inner.service.metrics().counter("server_panics_total").inc();
        let _ = respond(stream, 500, "Internal Server Error", &[], "error: handler panicked\n");
    }
    let open = inner.open_conns.fetch_sub(1, Ordering::SeqCst) - 1;
    inner.service.metrics().gauge("server_open_connections").set(open as i64);
}

// ---------------------------------------------------------------------
// Minimal HTTP/1.1 plumbing (request parsing, response writing).
// ---------------------------------------------------------------------

/// A parsed request. Header names are lowercased; the query string is
/// percent-decoded into pairs.
struct Request {
    method: String,
    path: String,
    params: Vec<(String, String)>,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Request {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    fn param(&self, name: &str) -> Option<&str> {
        self.params.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Typed HTTP-layer failures, each with its own status.
enum HttpError {
    /// Body (or header block) exceeds the configured cap — 413.
    TooLarge,
    /// The socket went quiet before the request completed — 408.
    Timeout,
    /// Not parseable as HTTP/1.1 — 400.
    Malformed(String),
}

const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Reads and parses one request. `deadline` bounds the *whole* read (the
/// slow-loris guard): per-read socket timeouts make each `read` return,
/// and the deadline check between reads sheds clients that trickle.
fn read_request(
    stream: &mut impl Read,
    max_body: usize,
    deadline: Instant,
) -> Result<Request, HttpError> {
    let mut buf = Vec::with_capacity(1024);
    let mut tmp = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(HttpError::TooLarge);
        }
        if Instant::now() >= deadline {
            return Err(HttpError::Timeout);
        }
        match stream.read(&mut tmp) {
            Ok(0) => return Err(HttpError::Malformed("connection closed mid-header".to_owned())),
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(HttpError::Timeout)
            }
            Err(e) => return Err(HttpError::Malformed(format!("read failed: {e}"))),
        }
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| HttpError::Malformed("non-UTF-8 header block".to_owned()))?
        .to_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_owned();
    let target = parts.next().unwrap_or_default().to_owned();
    let version = parts.next().unwrap_or_default();
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad request line '{request_line}'")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line '{line}'")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let content_length: usize = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => {
            v.parse().map_err(|_| HttpError::Malformed(format!("bad Content-Length '{v}'")))?
        }
        None => 0,
    };
    if content_length > max_body {
        return Err(HttpError::TooLarge);
    }
    let mut body: Vec<u8> = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        if Instant::now() >= deadline {
            return Err(HttpError::Timeout);
        }
        match stream.read(&mut tmp) {
            Ok(0) => return Err(HttpError::Malformed("connection closed mid-body".to_owned())),
            Ok(n) => body.extend_from_slice(&tmp[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(HttpError::Timeout)
            }
            Err(e) => return Err(HttpError::Malformed(format!("read failed: {e}"))),
        }
    }
    body.truncate(content_length);
    let (path, params) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), parse_query_string(q)),
        None => (target, Vec::new()),
    };
    Ok(Request { method, path, params, headers, body })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Splits and percent-decodes a query string (`+` decodes to a space).
fn parse_query_string(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// Decodes `%XX` escapes and `+`; invalid escapes pass through verbatim.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                (Some(h), Some(l)) => {
                    out.push(h * 16 + l);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    match b? {
        c @ b'0'..=b'9' => Some(c - b'0'),
        c @ b'a'..=b'f' => Some(c - b'a' + 10),
        c @ b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

/// One response: status, extra headers, and a text body. Every response
/// closes the connection — the server deliberately skips keep-alive to
/// keep the connection lifecycle trivially correct under drain.
fn respond(
    mut stream: &TcpStream,
    status: u16,
    reason: &str,
    extra: &[(String, String)],
    body: &str,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nConnection: close\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (k, v) in extra {
        out.push_str(k);
        out.push_str(": ");
        out.push_str(v);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// A route handler's result, rendered by [`respond`].
struct HttpOut {
    status: u16,
    reason: &'static str,
    extra: Vec<(String, String)>,
    body: String,
}

impl HttpOut {
    fn new(status: u16, reason: &'static str, body: impl Into<String>) -> Self {
        HttpOut { status, reason, extra: Vec::new(), body: body.into() }
    }

    fn with(mut self, name: &str, value: impl std::fmt::Display) -> Self {
        self.extra.push((name.to_owned(), value.to_string()));
        self
    }
}

/// Seed of the `Retry-After` jitter stream (xored with a per-refusal
/// salt so consecutive refusals walk the stream deterministically).
const RETRY_JITTER_SEED: u64 = 0x0bda_5eed;

/// `Retry-After` rendering with deterministic seeded jitter: the base is
/// the hint in whole seconds (rounded up, at least 1), plus up to 50%
/// drawn from a [`splitmix64`](crate::pipeline) stream keyed by `salt`.
/// A bare ceil would tell every rejected client the same number and
/// their synchronized retries would re-spike the governor; the jitter
/// spreads the herd while staying reproducible for tests.
fn jittered_retry_after(d: Duration, salt: u64) -> u64 {
    let base = (d.as_secs_f64().ceil() as u64).max(1);
    base + crate::pipeline::splitmix64(RETRY_JITTER_SEED ^ salt) % (base / 2 + 1)
}

/// Maps a typed pipeline error onto the documented HTTP status table.
/// `salt` positions refusal hints in the `Retry-After` jitter stream.
fn error_response(e: &ObdaError, salt: u64) -> HttpOut {
    let body = format!("error: {e}\n");
    if e.is_budget() {
        return HttpOut::new(504, "Gateway Timeout", body);
    }
    match e {
        ObdaError::Parse(_) => HttpOut::new(400, "Bad Request", body),
        ObdaError::Rewrite(_) => HttpOut::new(422, "Unprocessable Entity", body),
        ObdaError::Chase(_) => HttpOut::new(504, "Gateway Timeout", body),
        ObdaError::Eval(_) | ObdaError::Store(_) | ObdaError::Internal { .. } => {
            HttpOut::new(500, "Internal Server Error", body)
        }
        ObdaError::Transient { .. } | ObdaError::Overloaded { .. } => {
            HttpOut::new(503, "Service Unavailable", body).with("Retry-After", 1)
        }
        ObdaError::QuotaExceeded { retry_after, .. } => {
            HttpOut::new(429, "Too Many Requests", body)
                .with("Retry-After", jittered_retry_after(*retry_after, salt))
        }
        ObdaError::CostRejected { .. } => HttpOut::new(429, "Too Many Requests", body)
            .with("Retry-After", jittered_retry_after(Duration::from_secs(1), salt)),
        ObdaError::BreakerOpen { retry_after, .. } => {
            HttpOut::new(503, "Service Unavailable", body)
                .with("Retry-After", jittered_retry_after(*retry_after, salt))
        }
    }
}

fn handle_connection(stream: &TcpStream, inner: &ServerInner) {
    let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    let deadline = Instant::now() + inner.cfg.read_timeout;
    let mut reader = stream;
    let request = match read_request(&mut reader, inner.cfg.max_body_bytes, deadline) {
        Ok(r) => r,
        Err(e) => {
            let metrics = inner.service.metrics();
            let out = match e {
                HttpError::TooLarge => {
                    metrics.counter("server_oversized_total").inc();
                    HttpOut::new(413, "Payload Too Large", "error: request too large\n")
                }
                HttpError::Timeout => {
                    metrics.counter("server_read_timeouts_total").inc();
                    HttpOut::new(408, "Request Timeout", "error: request read timed out\n")
                }
                HttpError::Malformed(msg) => {
                    metrics.counter("server_malformed_total").inc();
                    HttpOut::new(400, "Bad Request", format!("error: {msg}\n"))
                }
            };
            let _ = respond(stream, out.status, out.reason, &out.extra, &out.body);
            return;
        }
    };
    let out = route(inner, &request);
    let _ = respond(stream, out.status, out.reason, &out.extra, &out.body);
}

fn route(inner: &ServerInner, req: &Request) -> HttpOut {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => HttpOut::new(200, "OK", "ok\n"),
        ("GET", "/readyz") => {
            if inner.draining.load(Ordering::SeqCst) {
                HttpOut::new(503, "Service Unavailable", "draining\n").with("Retry-After", 1)
            } else {
                HttpOut::new(200, "OK", "ready\n")
            }
        }
        ("GET", "/metrics") => {
            publish_scrape_metrics(inner);
            HttpOut::new(200, "OK", inner.service.metrics().render_text())
        }
        ("GET", "/explain") => handle_explain(inner, req),
        ("POST", "/query") => handle_query(inner, req),
        ("POST", "/shutdown") => {
            inner.service.metrics().counter("server_shutdown_requests_total").inc();
            inner.request_shutdown();
            HttpOut::new(202, "Accepted", "draining\n")
        }
        (
            "GET" | "POST",
            "/healthz" | "/readyz" | "/metrics" | "/explain" | "/query" | "/shutdown",
        ) => HttpOut::new(405, "Method Not Allowed", "error: method not allowed\n"),
        _ => HttpOut::new(404, "Not Found", "error: no such route\n"),
    }
}

/// The request's effective deadline: `X-Obda-Timeout-Ms` clamped by the
/// server ceiling; the ceiling itself when the header is absent.
fn effective_timeout(req: &Request, ceiling: Duration) -> Result<Duration, HttpOut> {
    match req.header("x-obda-timeout-ms") {
        None => Ok(ceiling),
        Some(v) => match v.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => Ok(Duration::from_millis(ms).min(ceiling)),
            _ => Err(HttpOut::new(
                400,
                "Bad Request",
                format!("error: bad X-Obda-Timeout-Ms '{v}'\n"),
            )),
        },
    }
}

fn requested_strategy(req: &Request, from: Option<&str>) -> Result<Strategy, HttpOut> {
    let name = match from {
        Some(name) => Some(name),
        None => req.header("x-obda-strategy"),
    };
    match name {
        None => Ok(Strategy::Adaptive),
        Some(name) => Strategy::parse(name).ok_or_else(|| {
            HttpOut::new(400, "Bad Request", format!("error: unknown strategy '{name}'\n"))
        }),
    }
}

/// Copies the system's tree-witness memo totals and the backend's
/// resident bytes (a snapshot's hydrated columns) into the registry.
fn publish_scrape_metrics(inner: &ServerInner) {
    let memo = inner.service.system().tree_witness_memo();
    let metrics = inner.service.metrics();
    metrics.counter("rewrite_tree_witness_memo_hits_total").raise_to(memo.hits());
    metrics.counter("rewrite_tree_witness_memo_misses_total").raise_to(memo.misses());
    metrics.gauge("rewrite_tree_witness_memo_entries").set(memo.len() as i64);
    if let Some(bytes) = inner.backend.resident_bytes() {
        metrics.gauge("store_resident_bytes").set(bytes as i64);
    }
}

/// The server's per-request budget, its wall clock cut to what remains
/// before `deadline`.
fn spec_until(inner: &ServerInner, deadline: Instant) -> BudgetSpec {
    BudgetSpec {
        timeout: Some(deadline.saturating_duration_since(Instant::now())),
        ..inner.cfg.budget
    }
}

/// Looks the OMQ up in the bounded LRU or prepares it (classify +
/// rewrite) under the remaining request deadline.
fn prepared_omq(
    inner: &ServerInner,
    text: &str,
    strategy: Strategy,
    deadline: Instant,
) -> Result<Arc<PreparedOmq>, ObdaError> {
    let key = format!("{strategy:?}|{text}");
    let metrics = inner.service.metrics();
    if let Some(hit) = inner.cache.lock().unwrap_or_else(PoisonError::into_inner).get(&key) {
        metrics.counter("server_cache_hits_total").inc();
        return Ok(hit);
    }
    metrics.counter("server_cache_misses_total").inc();
    let query = inner.service.system().parse_query(text)?;
    let omq = inner.service.prepare(&query, strategy, &spec_until(inner, deadline))?;
    let mut cache = inner.cache.lock().unwrap_or_else(PoisonError::into_inner);
    if cache.insert(key, Arc::clone(&omq)) {
        metrics.counter("server_cache_evictions_total").inc();
    }
    metrics.gauge("server_cache_size").set(cache.len() as i64);
    Ok(omq)
}

/// The failures a tenant *caused* — budget exhaustion and cost
/// rejections — count against its breaker; infrastructure noise (transients,
/// injected panics) does not, so chaos testing cannot shed a
/// well-behaved tenant.
fn tenant_breaker_class(e: &ObdaError) -> AttemptClass {
    if e.is_budget() || matches!(e, ObdaError::CostRejected { .. }) {
        AttemptClass::Failure
    } else {
        AttemptClass::Neutral
    }
}

fn handle_query(inner: &ServerInner, req: &Request) -> HttpOut {
    let arrival = Instant::now();
    let metrics = inner.service.metrics();
    metrics.counter("server_requests_total").inc();
    let salt = inner.retry_salt.fetch_add(1, Ordering::Relaxed);
    if inner.draining.load(Ordering::SeqCst) {
        metrics.counter("server_rejected_draining_total").inc();
        return HttpOut::new(503, "Service Unavailable", "error: draining\n")
            .with("Retry-After", 1);
    }
    let tenant = req.header("x-obda-tenant").unwrap_or("anonymous").to_owned();
    let suffix = metric_suffix(&tenant);
    metrics.counter(&format!("server_requests_total_{suffix}")).inc();
    let timeout = match effective_timeout(req, inner.cfg.max_timeout) {
        Ok(t) => t,
        Err(out) => return out,
    };
    let strategy = match requested_strategy(req, None) {
        Ok(s) => s,
        Err(out) => return out,
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return HttpOut::new(400, "Bad Request", "error: body is not UTF-8\n");
    };
    let text = text.trim();
    if text.is_empty() {
        return HttpOut::new(400, "Bad Request", "error: empty query body\n");
    }
    // Tenant circuit breaker: a tenant whose requests keep burning their
    // budget is refused *before* its token bucket is charged — failing
    // fast here keeps its tokens for when the breaker half-opens.
    let brk = inner.tenant_breakers.as_ref().map(|set| set.breaker(&tenant));
    if let Some(b) = &brk {
        match b.admit(Instant::now()) {
            Ok(Some(tr)) => {
                metrics
                    .counter(&format!("server_tenant_breaker_{}_total_{suffix}", tr.name()))
                    .inc();
            }
            Ok(None) => {}
            Err(retry_after) => {
                metrics.counter("server_tenant_breaker_rejected_total").inc();
                metrics.counter(&format!("server_tenant_breaker_rejected_total_{suffix}")).inc();
                let e = ObdaError::BreakerOpen { scope: format!("tenant {tenant}"), retry_after };
                return error_response(&e, salt);
            }
        }
    }
    // Tenant admission: the token bucket charges *before* any expensive
    // work, so a starved tenant cannot occupy a slot, and the permit is
    // held until the response is assembled so the concurrency cap covers
    // the whole evaluation.
    let _tenant_permit = match inner.governor.admit(&tenant) {
        Ok(p) => p,
        Err(e) => {
            if let Some(b) = &brk {
                b.record(AttemptClass::Neutral, Instant::now());
            }
            metrics.counter("server_rejected_quota_total").inc();
            metrics.counter(&format!("server_rejected_quota_total_{suffix}")).inc();
            return error_response(&e, salt);
        }
    };
    let deadline = arrival + timeout;
    let inflight = metrics.gauge("server_inflight");
    inflight.add(1);
    // The handler-level isolation boundary: the injected `server::handle`
    // fault (and any panic below it that slipped an inner boundary)
    // surfaces as a typed error here, never an unwound handler thread.
    let outcome = crate::pipeline::isolate("server::handle", || {
        fault::inject();
        let omq = prepared_omq(inner, text, strategy, deadline)?;
        let spec = spec_until(inner, deadline);
        inner.service.answer(&omq, inner.backend.as_ref(), &spec, Telemetry::disabled())
    });
    inflight.add(-1);
    if let Some(b) = &brk {
        let class = match &outcome {
            Ok(_) => AttemptClass::Success,
            Err(e) => tenant_breaker_class(e),
        };
        if let Some(tr) = b.record(class, Instant::now()) {
            metrics.counter(&format!("server_tenant_breaker_{}_total_{suffix}", tr.name())).inc();
        }
    }
    let latency = arrival.elapsed();
    metrics.histogram("server_latency_seconds").observe(latency);
    metrics.histogram(&format!("server_latency_seconds_{suffix}")).observe(latency);
    match outcome {
        Ok(run) => {
            // One line `(a, b)` per answer, written straight into a body
            // sized exactly in a first pass over the names.
            let answers = &run.result.answers;
            let name = |c| inner.backend.constant_name(c);
            let len: usize = answers
                .iter()
                .map(|t| {
                    3 + 2 * t.len().saturating_sub(1)
                        + t.iter().map(|&c| name(c).len()).sum::<usize>()
                })
                .sum();
            let mut body = String::with_capacity(len);
            for tuple in answers {
                body.push('(');
                for (i, &c) in tuple.iter().enumerate() {
                    if i > 0 {
                        body.push_str(", ");
                    }
                    body.push_str(name(c));
                }
                body.push_str(")\n");
            }
            debug_assert_eq!(body.len(), len, "the answer body is sized exactly");
            HttpOut::new(200, "OK", body)
                .with("X-Obda-Answers", run.result.answers.len())
                .with("X-Obda-Strategy", strategy)
                .with("X-Obda-Retries", run.retries)
                .with("X-Obda-Queue-Ms", format!("{:.1}", run.queue_wait.as_secs_f64() * 1e3))
        }
        Err(e) => {
            metrics.counter("server_errors_total").inc();
            error_response(&e, salt)
        }
    }
}

fn handle_explain(inner: &ServerInner, req: &Request) -> HttpOut {
    let Some(text) = req.param("query") else {
        return HttpOut::new(400, "Bad Request", "error: missing ?query=\n");
    };
    let strategy = match requested_strategy(req, req.param("strategy")) {
        Ok(s) => s,
        Err(out) => return out,
    };
    let deadline = Instant::now() + inner.cfg.max_timeout;
    let outcome = crate::pipeline::isolate("server::handle", || {
        let omq = prepared_omq(inner, text.trim(), strategy, deadline)?;
        let query = omq.query().clone();
        let cell = inner.service.system().classify(&query);
        let stats = omq.prune_stats();
        // The cost-based plan for the served database comes from the
        // prepared query's plan cache, so repeated /explain (and /query)
        // requests reuse one plan; `plans built` exposes the miss count.
        omq.hydrate(
            inner.backend.database(),
            &inner.service.config().engine,
            Telemetry::disabled(),
        )?;
        let plan = omq.plan_explanation(inner.backend.database());
        let mut body = format!(
            "strategy:    {}\ndepth:       {:?}\nquery class: {:?}\ncomplexity:  {}\nclauses:     {}\npruned:      {} -> {} clauses, {} -> {} predicates\nbackend:     {} ({} atoms)\nplans built: {}\n",
            omq.strategy(),
            cell.depth,
            cell.query,
            cell.complexity,
            omq.num_clauses(),
            stats.clauses_before,
            stats.clauses_after,
            stats.preds_before,
            stats.preds_after,
            inner.backend.kind(),
            inner.backend.database().num_atoms(),
            omq.plans_built(),
        );
        body.push_str(&plan.display(&omq.pruned().query.program).to_string());
        Ok(body)
    });
    match outcome {
        Ok(body) => HttpOut::new(200, "OK", body),
        Err(e) => error_response(&e, inner.retry_salt.fetch_add(1, Ordering::Relaxed)),
    }
}

// ---------------------------------------------------------------------
// A minimal blocking HTTP client, shared by the integration tests and
// the `benchserve` soak driver (and handy for quick manual pokes).
// ---------------------------------------------------------------------

/// Tiny HTTP/1.1 client for the server's own tests and bench driver.
pub mod client {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    /// A parsed response: status line code, lowercased headers, body.
    #[derive(Debug)]
    pub struct HttpResponse {
        /// The status code from the status line.
        pub status: u16,
        /// Lowercased header name/value pairs.
        pub headers: Vec<(String, String)>,
        /// The response body as text.
        pub body: String,
    }

    impl HttpResponse {
        /// The value of a (lowercase) header, when present.
        pub fn header(&self, name: &str) -> Option<&str> {
            self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
        }
    }

    /// Issues one request and reads the response to EOF (the server
    /// closes every connection). `headers` are sent verbatim.
    pub fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
        timeout: Duration,
    ) -> std::io::Result<HttpResponse> {
        let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let mut out = format!("{method} {path} HTTP/1.1\r\nHost: obda\r\n");
        for (k, v) in headers {
            out.push_str(&format!("{k}: {v}\r\n"));
        }
        out.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
        stream.write_all(out.as_bytes())?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        parse_response(&raw)
    }

    fn parse_response(raw: &[u8]) -> std::io::Result<HttpResponse> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_owned());
        let pos = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(|| bad("no header terminator"))?;
        let head = std::str::from_utf8(&raw[..pos]).map_err(|_| bad("non-UTF-8 headers"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let headers = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
            .collect();
        let body = String::from_utf8_lossy(&raw[pos + 4..]).into_owned();
        Ok(HttpResponse { status, headers, body })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_handles_escapes_and_plus() {
        assert_eq!(percent_decode("q(x)+%3A-+R(x%2Cy)"), "q(x) :- R(x,y)");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("bad%2"), "bad%2");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn request_parsing_roundtrips() {
        let raw = b"POST /query?a=1&b=x%20y HTTP/1.1\r\nHost: h\r\nX-Obda-Tenant: t1\r\nContent-Length: 4\r\n\r\nbody";
        let mut cursor = &raw[..];
        let req =
            read_request(&mut cursor, 1024, Instant::now() + Duration::from_secs(1)).ok().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.param("b"), Some("x y"));
        assert_eq!(req.header("x-obda-tenant"), Some("t1"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn oversized_and_malformed_requests_are_typed() {
        let raw = b"POST /query HTTP/1.1\r\nContent-Length: 999\r\n\r\n";
        let mut cursor = &raw[..];
        assert!(matches!(
            read_request(&mut cursor, 10, Instant::now() + Duration::from_secs(1)),
            Err(HttpError::TooLarge)
        ));
        let raw = b"NONSENSE\r\n\r\n";
        let mut cursor = &raw[..];
        assert!(matches!(
            read_request(&mut cursor, 10, Instant::now() + Duration::from_secs(1)),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn lru_cache_evicts_least_recently_used() {
        let mut cache = PreparedCache::new(2);
        let omq = |s: &str| {
            let system = crate::ObdaSystem::from_text("A SubClassOf B\n").unwrap();
            let q = system.parse_query(s).unwrap();
            Arc::new(system.prepare(&q, Strategy::Tw).unwrap())
        };
        assert!(!cache.insert("a".into(), omq("q(x) :- B(x)")));
        assert!(!cache.insert("b".into(), omq("q(x) :- A(x)")));
        assert!(cache.get("a").is_some()); // refresh "a": "b" becomes LRU
        assert!(cache.insert("c".into(), omq("q(x) :- B(x)")), "at capacity: one eviction");
        assert!(cache.get("b").is_none(), "LRU entry evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn error_mapping_matches_the_documented_table() {
        let quota = ObdaError::QuotaExceeded {
            tenant: "t".into(),
            retry_after: Duration::from_millis(1500),
        };
        let out = error_response(&quota, 0);
        assert_eq!(out.status, 429);
        // Base ceil(1.5s) = 2, plus seeded jitter of at most 50%.
        let hint: u64 = out.extra[0].1.parse().unwrap();
        assert_eq!(out.extra[0].0, "Retry-After");
        assert!((2..=3).contains(&hint), "jittered hint out of range: {hint}");
        let overload = ObdaError::Overloaded { active: 1, queued: 0 };
        assert_eq!(error_response(&overload, 0).status, 503);
        let internal = ObdaError::Internal { site: "x".into(), payload: "y".into() };
        assert_eq!(error_response(&internal, 0).status, 500);
        let transient = ObdaError::Transient { site: "x".into() };
        let out = error_response(&transient, 0);
        assert_eq!(out.status, 503);
        assert!(out.extra.iter().any(|(k, _)| k == "Retry-After"));
        let cost = ObdaError::CostRejected {
            estimated_cost: 10.0,
            estimated: Duration::from_secs(3),
            remaining: Duration::from_millis(10),
        };
        let out = error_response(&cost, 0);
        assert_eq!(out.status, 429);
        assert!(out.extra.iter().any(|(k, _)| k == "Retry-After"));
        let breaker = ObdaError::BreakerOpen {
            scope: "tenant t".into(),
            retry_after: Duration::from_secs(4),
        };
        let out = error_response(&breaker, 0);
        assert_eq!(out.status, 503);
        let hint: u64 = out.extra[0].1.parse().unwrap();
        assert!((4..=6).contains(&hint), "base 4 + up to 50%: {hint}");
    }

    #[test]
    fn retry_after_jitter_is_deterministic_and_spreads_the_herd() {
        let d = Duration::from_millis(1500); // base = ceil(1.5) = 2
        let hint = jittered_retry_after(d, 7);
        assert_eq!(hint, jittered_retry_after(d, 7), "same salt → same hint");
        assert!((2..=3).contains(&hint));
        // Different salts must not all agree — that lockstep is the bug
        // this jitter fixes.
        let spread: std::collections::HashSet<u64> =
            (0..16).map(|salt| jittered_retry_after(d, salt)).collect();
        assert!(spread.len() > 1, "sixteen salts all in lockstep: {spread:?}");
        // Sub-second hints floor at 1 with no room to jitter (base/2 = 0).
        assert_eq!(jittered_retry_after(Duration::from_millis(10), 3), 1);
    }
}
