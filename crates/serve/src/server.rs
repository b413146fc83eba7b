//! The HTTP front-end: accept loop, connection worker pool, request
//! routing, and the fault-to-status mapping.
//!
//! # Architecture
//!
//! ```text
//!            accept thread                 connection workers
//!  TcpListener ──────────▶ JobQueue<TcpStream> ──────────▶ handle_connection
//!  (nonblocking poll)      (bounded backlog;               (parse → route →
//!                           overflow ⇒ 503 + close)         QueryEngine → write)
//! ```
//!
//! The connection queue reuses [`bear_core::engine::queue::JobQueue`] —
//! the same bounded two-condvar queue the query engine itself runs on —
//! so admission control composes: a connection is shed with `503` when
//! the *connection* backlog is full, and an accepted request is shed
//! with `429` when the *query* queue is full.
//!
//! Per-request deadlines arrive as an `X-Deadline-Ms` header and map
//! onto [`QueryOptions::deadline`], which the engine enforces at
//! admission, dequeue, and reply-wait. An already-expired budget
//! (`X-Deadline-Ms: 0`) fails fast at admission with
//! [`Error::Timeout`] → `504` without ever occupying a queue slot.
//!
//! # Lifecycle
//!
//! `/healthz` is liveness (200 whenever the process can answer) while
//! `/readyz` is readiness: 503 during warm-up (no graph published) and
//! from the instant a graceful drain begins. [`ServerHandle::shutdown`]
//! drains: the listener stops, already-queued connections are still
//! served, and workers get [`ServerConfig::drain`] to finish before
//! being force-detached.

use crate::float::push_f64;
use crate::http::{read_request, HttpError, Request, Response};
use crate::registry::{Registry, Tenant};
use bear_core::engine::queue::JobQueue;
use bear_core::{Bear, DegradedInfo, EngineConfig, QueryEngine, QueryOptions};
use bear_sparse::{Error, Result};
use std::fmt::Write as _;
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (`:0` picks a free port).
    pub addr: String,
    /// Connection worker threads (each handles one connection at a
    /// time; keep-alive connections hold a worker between requests).
    pub http_threads: usize,
    /// Bound on accepted-but-unserviced connections; overflow is
    /// answered with a best-effort `503` and closed.
    pub conn_backlog: usize,
    /// Engine configuration used when `/admin/load` builds the engine
    /// for a newly published index version.
    pub engine_config: EngineConfig,
    /// Maximum seeds accepted by one `/v1/batch` request.
    pub max_batch: usize,
    /// Graceful-drain grace period for [`ServerHandle::shutdown`]: after
    /// draining begins, in-flight and already-admitted requests get this
    /// long to finish before still-busy workers are force-detached.
    pub drain: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            http_threads: 4,
            conn_backlog: 128,
            engine_config: EngineConfig::default(),
            max_batch: 1024,
            drain: Duration::from_secs(5),
        }
    }
}

impl ServerConfig {
    /// Rejects configurations the server cannot honor.
    pub fn validate(&self) -> Result<()> {
        if self.http_threads == 0 {
            return Err(Error::InvalidConfig {
                param: "http_threads",
                reason: "the connection pool needs at least one thread".into(),
            });
        }
        if self.conn_backlog == 0 {
            return Err(Error::InvalidConfig {
                param: "conn_backlog",
                reason: "a backlog that admits nothing rejects every connection".into(),
            });
        }
        if self.max_batch == 0 {
            return Err(Error::InvalidConfig {
                param: "max_batch",
                reason: "a zero batch bound rejects every batch request".into(),
            });
        }
        self.engine_config.validate()
    }
}

/// Server-level counters, exposed through `/metrics` alongside each
/// tenant engine's [`bear_core::MetricsSnapshot`].
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests parsed off the wire.
    pub http_requests: AtomicU64,
    /// Responses with a 2xx status.
    pub responses_2xx: AtomicU64,
    /// Responses with a 4xx status (429 included).
    pub responses_4xx: AtomicU64,
    /// Responses with a 5xx status (503/504 included).
    pub responses_5xx: AtomicU64,
    /// Overloaded requests answered `429 Too Many Requests`.
    pub responses_429: AtomicU64,
    /// Deadline-exceeded requests answered `504 Gateway Timeout`.
    pub responses_504: AtomicU64,
    /// Connections shed because the connection backlog was full.
    pub rejected_connections: AtomicU64,
    /// Connections admitted into the connection queue. Together with
    /// the response counters this lets the drain test prove every
    /// admitted request was answered.
    pub accepted_connections: AtomicU64,
    /// Connections dropped because the wire tore mid-request or
    /// mid-response (read timeout after partial bytes, failed write).
    pub torn_connections: AtomicU64,
    /// Successful `/admin/load` publishes.
    pub hot_swaps: AtomicU64,
}

impl ServerMetrics {
    fn record_response(&self, status: u16) {
        match status {
            200..=299 => self.responses_2xx.fetch_add(1, Ordering::Relaxed),
            429 => {
                self.responses_4xx.fetch_add(1, Ordering::Relaxed);
                self.responses_429.fetch_add(1, Ordering::Relaxed)
            }
            400..=499 => self.responses_4xx.fetch_add(1, Ordering::Relaxed),
            504 => {
                self.responses_5xx.fetch_add(1, Ordering::Relaxed);
                self.responses_504.fetch_add(1, Ordering::Relaxed)
            }
            _ => self.responses_5xx.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// Shared state every connection worker routes against.
struct ServerCtx {
    registry: Arc<Registry>,
    config: ServerConfig,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    /// Set when a graceful drain begins: `/readyz` flips to 503 (load
    /// balancers stop routing here) while `/healthz` stays 200 (the
    /// process is alive and finishing admitted work).
    draining: AtomicBool,
    /// Connection workers that have exited their pop loop. The drain
    /// waits on this (std threads cannot be joined with a timeout).
    workers_exited: AtomicU64,
}

/// A running server. Dropping the handle shuts it down; use
/// [`ServerHandle::shutdown`] for an explicit, joined stop.
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServerCtx>,
    conns: Arc<JobQueue<TcpStream>>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry this server routes against — publish on it to
    /// hot-swap an index version while the server keeps answering.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.ctx.registry
    }

    /// Point-in-time server-level counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.ctx.metrics
    }

    /// Gracefully drains and stops the server with the configured
    /// [`ServerConfig::drain`] grace period. Returns `true` when every
    /// worker finished within the grace (a clean drain).
    ///
    /// Drain protocol: `/readyz` flips to 503 immediately, the listener
    /// stops accepting, already-queued connections are still dequeued
    /// and served, keep-alive connections are told `Connection: close`
    /// after their in-flight response, and idle ones close at their
    /// next read-timeout tick. Workers that are still busy when the
    /// grace expires are force-detached (their sockets die with the
    /// process), never blocking shutdown indefinitely.
    pub fn shutdown(mut self) -> bool {
        let grace = self.ctx.config.drain;
        self.stop(grace)
    }

    /// [`ServerHandle::shutdown`] with an explicit grace period.
    pub fn shutdown_within(mut self, grace: Duration) -> bool {
        self.stop(grace)
    }

    fn stop(&mut self, grace: Duration) -> bool {
        self.ctx.draining.store(true, Ordering::SeqCst);
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        self.conns.close();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let total = self.workers.len() as u64;
        let deadline = std::time::Instant::now() + grace;
        // Poll-with-sleep instead of a timed join: std threads offer no
        // join-with-timeout, and the workers' 200ms read timeout bounds
        // how long an *idle* worker can lag; only a genuinely stuck
        // in-flight request can exhaust the grace.
        while self.ctx.workers_exited.load(Ordering::SeqCst) < total
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let clean = self.ctx.workers_exited.load(Ordering::SeqCst) >= total;
        if clean {
            for t in self.workers.drain(..) {
                let _ = t.join();
            }
        } else {
            // Force-close: detach the stragglers. They hold no lock the
            // process needs, and their connections are abandoned by
            // design once the grace is spent.
            self.workers.clear();
        }
        clean
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let grace = self.ctx.config.drain;
        self.stop(grace);
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("graphs", &self.ctx.registry.names())
            .finish()
    }
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Binds `config.addr`, spawns the accept thread and
    /// `config.http_threads` connection workers, and returns a handle.
    /// The server answers queries for every graph in `registry`,
    /// including versions published after startup.
    pub fn start(registry: Arc<Registry>, config: ServerConfig) -> Result<ServerHandle> {
        config.validate()?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| Error::InvalidStructure(format!("bind {}: {e}", config.addr)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::InvalidStructure(format!("set_nonblocking: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::InvalidStructure(format!("local_addr: {e}")))?;

        let ctx = Arc::new(ServerCtx {
            registry,
            metrics: ServerMetrics::default(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            workers_exited: AtomicU64::new(0),
            config,
        });
        let conns = Arc::new(JobQueue::bounded(ctx.config.conn_backlog));

        let accept_thread = {
            let ctx = Arc::clone(&ctx);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("bear-http-accept".into())
                .spawn(move || accept_loop(&listener, &conns, &ctx))
                .map_err(|e| Error::InvalidStructure(format!("spawn accept thread: {e}")))?
        };
        let workers = (0..ctx.config.http_threads)
            .map(|i| {
                let ctx = Arc::clone(&ctx);
                let conns = Arc::clone(&conns);
                std::thread::Builder::new()
                    .name(format!("bear-http-{i}"))
                    .spawn(move || {
                        // `pop` keeps returning already-queued
                        // connections after `close()`, so every admitted
                        // connection is served during a drain.
                        while let Some(stream) = conns.pop() {
                            handle_connection(stream, &ctx);
                        }
                        ctx.workers_exited.fetch_add(1, Ordering::SeqCst);
                    })
                    .map_err(|e| Error::InvalidStructure(format!("spawn http worker: {e}")))
            })
            .collect::<Result<Vec<_>>>()?;

        Ok(ServerHandle { addr, ctx, conns, accept_thread: Some(accept_thread), workers })
    }
}

/// Polls the nonblocking listener so shutdown is observed within one
/// tick even when no connection ever arrives.
fn accept_loop(listener: &TcpListener, conns: &JobQueue<TcpStream>, ctx: &ServerCtx) {
    while !ctx.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if conns.push(stream).is_ok() {
                    ctx.metrics.accepted_connections.fetch_add(1, Ordering::Relaxed);
                } else {
                    // Either backlog overflow (QueueFull) or shutdown
                    // racing the accept; the pushed stream was dropped
                    // (= connection reset), which is the correct signal
                    // for a client to back off and retry.
                    ctx.metrics.rejected_connections.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serves one connection until the peer closes, a request asks for
/// `Connection: close`, the wire breaks, or shutdown begins.
fn handle_connection(stream: TcpStream, ctx: &ServerCtx) {
    // The read timeout doubles as the shutdown poll interval for idle
    // keep-alive connections. With Nagle's algorithm off, the last
    // partial segment of a response leaves at once instead of waiting
    // for the peer's delayed ACK of the segment before it.
    if stream.set_read_timeout(Some(Duration::from_millis(200))).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader) {
            Ok(None) => return,
            Ok(Some(req)) => {
                ctx.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
                let resp = route(ctx, &req);
                ctx.metrics.record_response(resp.status);
                let keep = req.keep_alive && !ctx.shutdown.load(Ordering::SeqCst);
                if resp.write_to(&mut writer, keep).is_err() {
                    // The wire broke mid-response: the peer would see a
                    // truncated body, and any further response on this
                    // socket could be misattributed. Count it and tear
                    // the connection down both ways.
                    ctx.metrics.torn_connections.fetch_add(1, Ordering::Relaxed);
                    let _ = writer.shutdown(std::net::Shutdown::Both);
                    return;
                }
                if !keep {
                    return;
                }
            }
            // Idle timeout with *zero* request bytes consumed: safe to
            // keep waiting (this is also the shutdown poll tick).
            Err(HttpError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            // Timeout or failure *mid-request*: bytes were consumed and
            // lost, so looping back into the parser would read from the
            // middle of a torn request. Close, never retry.
            Err(HttpError::TornRead(_)) => {
                ctx.metrics.torn_connections.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(HttpError::Io(_)) => return,
            Err(err) => {
                let status = match err {
                    HttpError::TooLarge => 413,
                    _ => 400,
                };
                ctx.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
                ctx.metrics.record_response(status);
                let _ = Response::json(status, error_body(&format!("{err}"), "bad_request"))
                    .write_to(&mut writer, false);
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Routing and handlers
// ---------------------------------------------------------------------------

fn route(ctx: &ServerCtx, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(ctx),
        ("GET", "/readyz") => handle_readyz(ctx),
        ("GET", "/metrics") => handle_metrics(ctx),
        ("GET", "/v1/query") => handle_query(ctx, req),
        ("GET", "/v1/topk") => handle_topk(ctx, req),
        ("GET", "/v1/batch") => handle_batch(ctx, req),
        ("POST", "/admin/load") => handle_admin_load(ctx, req),
        (_, "/healthz" | "/readyz" | "/metrics" | "/v1/query" | "/v1/topk" | "/v1/batch") => {
            Response::json(405, error_body("use GET for this endpoint", "method_not_allowed"))
                .header("Allow", "GET")
        }
        (_, "/admin/load") => {
            Response::json(405, error_body("use POST for this endpoint", "method_not_allowed"))
                .header("Allow", "POST")
        }
        _ => Response::json(404, error_body(&format!("no route '{}'", req.path), "not_found")),
    }
}

/// Maps the engine/persistence error taxonomy onto HTTP statuses. The
/// overload and deadline faults get dedicated codes so clients can
/// implement retry policy without parsing bodies — the HTTP mirror of
/// the CLI's exit codes 3 and 4.
fn error_response(e: &Error) -> Response {
    // Every `Error` variant is named (no `_` arm) so adding a variant
    // forces a status decision here — the L5 lint checks exactly that.
    let (status, kind) = match e {
        Error::Timeout { .. } => (504, "timeout"),
        Error::QueueFull { .. } => (429, "overloaded"),
        Error::PoolShutDown => (503, "shutting_down"),
        Error::IndexOutOfBounds { .. } => (400, "bad_seed"),
        Error::InvalidConfig { .. } | Error::InvalidStructure(_) => (400, "bad_request"),
        // A corrupt on-disk artifact is a server-side data fault; the
        // admin-load handler downgrades it to a 400 operator error and
        // reports the quarantine.
        Error::CorruptIndex { .. } => (500, "corrupt_index"),
        Error::DimensionMismatch { .. }
        | Error::SingularMatrix { .. }
        | Error::OutOfBudget { .. }
        | Error::DidNotConverge { .. }
        | Error::NonFiniteValue { .. }
        | Error::WorkerPanicked { .. }
        | Error::Cancelled
        | Error::KernelPanicked { .. } => (500, "internal"),
    };
    let resp = Response::json(status, error_body(&format!("{e}"), kind));
    match status {
        429 | 503 => resp.header("Retry-After", "1"),
        _ => resp,
    }
}

fn error_body(message: &str, kind: &str) -> String {
    format!("{{\"error\":{},\"kind\":{}}}", json_string(message), json_string(kind))
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Resolves the tenant for a request: explicit `graph` parameter, or
/// the single registered graph when unambiguous.
fn resolve_tenant(ctx: &ServerCtx, req: &Request) -> std::result::Result<Arc<Tenant>, Response> {
    let names = ctx.registry.names();
    let name = match (req.query_param("graph"), names.as_slice()) {
        (Some(name), _) => name.to_string(),
        (None, [only]) => only.clone(),
        (None, _) => {
            return Err(Response::json(
                400,
                error_body(
                    &format!("graph parameter required (registered: {})", names.join(", ")),
                    "bad_request",
                ),
            ))
        }
    };
    ctx.registry.get(&name).ok_or_else(|| {
        Response::json(404, error_body(&format!("unknown graph '{name}'"), "not_found"))
    })
}

/// Parses the `X-Deadline-Ms` header into [`QueryOptions`].
fn query_options(req: &Request) -> std::result::Result<QueryOptions, Response> {
    let deadline = match req.header("x-deadline-ms") {
        None => None,
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) => Some(Duration::from_millis(ms)),
            Err(_) => {
                return Err(Response::json(
                    400,
                    error_body(&format!("bad X-Deadline-Ms '{raw}'"), "bad_request"),
                ))
            }
        },
    };
    Ok(QueryOptions { deadline, cancel: None })
}

fn parse_usize(req: &Request, name: &str) -> std::result::Result<usize, Response> {
    match req.query_param(name) {
        Some(raw) => raw.parse().map_err(|_| {
            Response::json(
                400,
                error_body(&format!("parameter {name}='{raw}' is not a node count"), "bad_request"),
            )
        }),
        None => Err(Response::json(
            400,
            error_body(&format!("parameter {name} required"), "bad_request"),
        )),
    }
}

/// Tags a response with the serving version and, for degraded answers,
/// the full degradation ladder context (`X-Degraded` reason plus the
/// fallback's residual / error bound / iteration count).
fn tag(resp: Response, tenant: &Tenant, degraded: Option<&DegradedInfo>) -> Response {
    let resp = resp.header("X-Graph-Version", tenant.version.to_string());
    match degraded {
        None => resp,
        Some(info) => resp
            .header("X-Degraded", format!("{}", info.reason))
            .header("X-Residual", format!("{:e}", info.residual))
            .header("X-Error-Bound", format!("{:e}", info.error_bound))
            .header("X-Iterations", info.iterations.to_string()),
    }
}

fn handle_healthz(ctx: &ServerCtx) -> Response {
    Response::text(200, format!("ok {} graph(s)\n", ctx.registry.len()))
}

/// `GET /readyz`: readiness, distinct from liveness. 503 while the
/// server is draining (shutdown in progress: finish in-flight work but
/// route no new traffic here) or warming (no graph published yet), 200
/// once it can usefully answer queries. `/healthz` stays 200 through
/// both states — the process is alive; restarting it would not help.
fn handle_readyz(ctx: &ServerCtx) -> Response {
    if ctx.draining.load(Ordering::SeqCst) {
        return Response::text(503, "draining\n".to_string()).header("Retry-After", "1");
    }
    if ctx.registry.is_empty() {
        return Response::text(503, "warming: no graph published\n".to_string())
            .header("Retry-After", "1");
    }
    Response::text(200, format!("ready {} graph(s)\n", ctx.registry.len()))
}

fn handle_query(ctx: &ServerCtx, req: &Request) -> Response {
    let tenant = match resolve_tenant(ctx, req) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let seed = match parse_usize(req, "seed") {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let opts = match query_options(req) {
        Ok(o) => o,
        Err(resp) => return resp,
    };
    match tenant.engine.serve(seed, &opts) {
        Ok(served) => {
            let mut body = Vec::with_capacity(64 + served.scores.len() * SCORE_BYTES);
            // Writing into a `Vec<u8>` cannot fail.
            let _ = write!(body, "{{\"version\":{},\"seed\":{seed},\"scores\":[", tenant.version);
            push_scores(&mut body, &served.scores);
            body.extend_from_slice(b"]}");
            tag(Response::json(200, body), &tenant, served.degraded.as_ref())
        }
        Err(e) => tag(error_response(&e), &tenant, None),
    }
}

fn handle_topk(ctx: &ServerCtx, req: &Request) -> Response {
    let tenant = match resolve_tenant(ctx, req) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let seed = match parse_usize(req, "seed") {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let k = match req.query_param("k") {
        None => 10,
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) => k,
            Err(_) => {
                return Response::json(
                    400,
                    error_body(&format!("parameter k='{raw}' is not a count"), "bad_request"),
                )
            }
        },
    };
    // k = 0 used to be accepted and answered with an empty 200, which
    // hid typoed requests (`k=` → 0). An empty ranking is never what a
    // client meant, so it is a request error.
    if k == 0 {
        return Response::json(400, error_body("parameter k must be >= 1", "bad_request"));
    }
    let opts = match query_options(req) {
        Ok(o) => o,
        Err(resp) => return resp,
    };
    // Route through the engine's top-k path: same admission control,
    // deadline enforcement, and degradation ladder as `/v1/query`, plus
    // the pruned solver and the prefix-aware top-k cache.
    match tenant.engine.query_top_k(seed, k, &opts) {
        Ok(served) => {
            let mut body = Vec::with_capacity(64 + served.nodes.len() * (24 + SCORE_BYTES));
            let _ = write!(
                body,
                "{{\"version\":{},\"seed\":{seed},\"k\":{k},\"nodes\":[",
                tenant.version
            );
            for (i, s) in served.nodes.iter().enumerate() {
                if i > 0 {
                    body.push(b',');
                }
                let _ = write!(body, "{{\"node\":{},\"score\":", s.node);
                push_f64(&mut body, s.score);
                body.push(b'}');
            }
            body.extend_from_slice(b"]}");
            tag(Response::json(200, body), &tenant, served.degraded.as_ref())
        }
        Err(e) => tag(error_response(&e), &tenant, None),
    }
}

fn handle_batch(ctx: &ServerCtx, req: &Request) -> Response {
    let tenant = match resolve_tenant(ctx, req) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let raw = match req.query_param("seeds") {
        Some(raw) if !raw.is_empty() => raw,
        _ => {
            return Response::json(
                400,
                error_body("parameter seeds required, e.g. seeds=0,3,7", "bad_request"),
            )
        }
    };
    let mut seeds = Vec::new();
    for tok in raw.split(',') {
        match tok.trim().parse::<usize>() {
            Ok(s) => seeds.push(s),
            Err(_) => {
                return Response::json(
                    400,
                    error_body(&format!("seed '{tok}' is not a node id"), "bad_request"),
                )
            }
        }
    }
    if seeds.len() > ctx.config.max_batch {
        return Response::json(
            400,
            error_body(
                &format!("batch of {} exceeds the bound of {}", seeds.len(), ctx.config.max_batch),
                "bad_request",
            ),
        );
    }
    let opts = match query_options(req) {
        Ok(o) => o,
        Err(resp) => return resp,
    };
    match tenant.engine.serve_batch(&seeds, &opts) {
        Ok(answers) => {
            let degraded = answers.iter().filter(|s| !s.is_exact()).count();
            let floats: usize = answers.iter().map(|s| s.scores.len()).sum();
            let mut body = Vec::with_capacity(64 + answers.len() * 32 + floats * SCORE_BYTES);
            let _ = write!(
                body,
                "{{\"version\":{},\"count\":{},\"degraded\":{degraded},\"results\":[",
                tenant.version,
                seeds.len()
            );
            for (i, (seed, served)) in seeds.iter().zip(&answers).enumerate() {
                if i > 0 {
                    body.push(b',');
                }
                let _ = write!(body, "{{\"seed\":{seed},\"scores\":[");
                push_scores(&mut body, &served.scores);
                body.extend_from_slice(b"]}");
            }
            body.extend_from_slice(b"]}");
            let first_degraded = answers.iter().find_map(|s| s.degraded.as_ref());
            tag(Response::json(200, body), &tenant, first_degraded)
                .header("X-Degraded-Count", degraded.to_string())
        }
        Err(e) => tag(error_response(&e), &tenant, None),
    }
}

/// Bytes reserved per encoded score: a comma plus the shortest
/// round-trip form of a typical RWR score (`0.000012345678901234567`;
/// a 16-seed `batch_paged` answer averages 23.3). Only a capacity hint:
/// longer numbers grow the body as usual.
const SCORE_BYTES: usize = 24;

/// Appends `scores` as comma-separated JSON numbers, each the shortest
/// round-trip decimal or `null` (see [`push_f64`]), so a client that
/// parses them back recovers the exact bits — the property the
/// save→load→serve differential test pins.
fn push_scores(body: &mut Vec<u8>, scores: &[f64]) {
    for (i, &v) in scores.iter().enumerate() {
        if i > 0 {
            body.push(b',');
        }
        push_f64(body, v);
    }
}

/// `POST /admin/load?graph=NAME&index=PATH`: loads a persisted index
/// from the server's filesystem, builds a fresh engine with the
/// server's engine configuration, and atomically publishes it as the
/// graph's next version. Queries keep flowing on the previous version
/// for the whole load; in-flight queries finish on it even after the
/// swap.
fn handle_admin_load(ctx: &ServerCtx, req: &Request) -> Response {
    let Some(name) = req.query_param("graph") else {
        return Response::json(400, error_body("graph parameter required", "bad_request"));
    };
    let Some(index) = req.query_param("index") else {
        return Response::json(400, error_body("index parameter required", "bad_request"));
    };
    // `load_or_quarantine`: a checksum/structure failure renames the
    // artifact to `<path>.corrupt` so a crash-looping operator script
    // cannot keep re-publishing a damaged file.
    let engine = Bear::load_or_quarantine(Path::new(index))
        .and_then(|bear| QueryEngine::new(Arc::new(bear), ctx.config.engine_config.clone()));
    match engine {
        Ok(engine) => {
            let nodes = engine.bear().num_nodes();
            let version = ctx.registry.publish(name, Arc::new(engine));
            ctx.metrics.hot_swaps.fetch_add(1, Ordering::Relaxed);
            Response::json(
                200,
                format!(
                    "{{\"graph\":{},\"version\":{version},\"nodes\":{nodes}}}",
                    json_string(name)
                ),
            )
        }
        Err(e) => {
            // A bad path or corrupt index is an operator error; the
            // currently published version keeps serving untouched.
            let resp = error_response(&e);
            match resp.status {
                // Don't let persistence-layer taxonomy leak 5xx here.
                500 => Response::json(400, error_body(&format!("{e}"), "bad_index")),
                _ => resp,
            }
        }
    }
}

/// `GET /metrics`: a flat text exposition (Prometheus-style lines) of
/// the server counters plus every tenant engine's snapshot.
fn handle_metrics(ctx: &ServerCtx) -> Response {
    let m = &ctx.metrics;
    let mut out = String::new();
    let _ = writeln!(out, "bear_http_requests_total {}", m.http_requests.load(Ordering::Relaxed));
    for (class, v) in
        [("2xx", &m.responses_2xx), ("4xx", &m.responses_4xx), ("5xx", &m.responses_5xx)]
    {
        let _ = writeln!(
            out,
            "bear_http_responses_total{{class=\"{class}\"}} {}",
            v.load(Ordering::Relaxed)
        );
    }
    let _ =
        writeln!(out, "bear_http_responses_429_total {}", m.responses_429.load(Ordering::Relaxed));
    let _ =
        writeln!(out, "bear_http_responses_504_total {}", m.responses_504.load(Ordering::Relaxed));
    let _ = writeln!(
        out,
        "bear_http_rejected_connections_total {}",
        m.rejected_connections.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        out,
        "bear_http_accepted_connections_total {}",
        m.accepted_connections.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        out,
        "bear_http_torn_connections_total {}",
        m.torn_connections.load(Ordering::Relaxed)
    );
    let _ = writeln!(out, "bear_hot_swaps_total {}", m.hot_swaps.load(Ordering::Relaxed));
    for name in ctx.registry.names() {
        let Some(tenant) = ctx.registry.get(&name) else { continue };
        let s = tenant.engine.metrics();
        let label = format!("{{graph={}}}", json_string(&name));
        let _ = writeln!(out, "bear_graph_version{label} {}", tenant.version);
        for (metric, v) in [
            ("bear_queries_total", s.queries),
            ("bear_cache_hits_total", s.cache_hits),
            ("bear_timeouts_total", s.timeouts),
            ("bear_queue_rejections_total", s.queue_rejections),
            ("bear_shed_jobs_total", s.shed_jobs),
            ("bear_degraded_total", s.degraded),
            ("bear_worker_panics_total", s.worker_panics),
            ("bear_block_solves_total", s.block_solves),
            ("bear_topk_pruned_queries_total", s.topk_pruned_queries),
            ("bear_topk_certified_total", s.topk_certified),
            ("bear_topk_fallbacks_total", s.topk_fallbacks),
            ("bear_topk_candidates_total", s.topk_candidates),
            ("bear_topk_nodes_pruned_total", s.topk_nodes_pruned),
            ("bear_pager_hits_total", s.pager_hits),
            ("bear_pager_misses_total", s.pager_misses),
            ("bear_pager_evictions_total", s.pager_evictions),
            ("bear_pager_resident_bytes", s.pager_resident_bytes),
            ("bear_pager_resident_blocks", s.pager_resident_blocks),
        ] {
            let _ = writeln!(out, "{metric}{label} {v}");
        }
        let _ = writeln!(out, "bear_topk_prune_ratio{label} {}", s.topk_prune_ratio());
        for (metric, d) in [
            ("bear_latency_p50_seconds", s.p50),
            ("bear_latency_p99_seconds", s.p99),
            ("bear_latency_p50_amortized_seconds", s.p50_amortized),
        ] {
            let _ = writeln!(out, "{metric}{label} {}", d.as_secs_f64());
        }
        let _ = writeln!(out, "bear_cache_hit_rate{label} {}", s.cache_hit_rate());
        let _ = writeln!(out, "bear_avg_block_width{label} {}", s.avg_block_width());
    }
    Response::text(200, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(v: f64) -> String {
        let mut body = Vec::new();
        push_f64(&mut body, v);
        String::from_utf8(body).unwrap()
    }

    #[test]
    fn scores_encode_as_shortest_round_trip_or_null() {
        let subnormal = f64::from_bits(1);
        for v in [0.0, -0.0, subnormal, f64::MIN_POSITIVE, 1e-300, 1.0 / 3.0, 1e300] {
            let text = encoded(v);
            assert_eq!(text, format!("{v}"));
            let back: f64 = text.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text} must parse back to the same bits");
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(encoded(v), "null");
        }
        let mut body = Vec::new();
        push_scores(&mut body, &[0.5, f64::NAN, 1.0 / 3.0]);
        assert_eq!(body, b"0.5,null,0.3333333333333333");
    }
}
