//! The daemon: a TCP accept loop routing HTTP requests onto the
//! micro-batching queue(s).
//!
//! # Endpoints
//!
//! Every request is served through one [`Registry`]. `iim serve MODEL.iim`
//! binds a registry without a directory whose one tenant, `default`, is
//! the loaded model ([`Registry::single`]); `iim serve --models-dir DIR`
//! binds a registry over a directory of `<name>.iim` snapshots. Routes
//! marked *dir* need `--models-dir`; without it they answer `404` with a
//! hint.
//!
//! | Method | Path | Body | Response |
//! |---|---|---|---|
//! | `GET`  | `/healthz` | — | `200 ok` once the daemon is accepting |
//! | `GET`  | `/info`    | — | `200` JSON. Single-model: mode, method name, arity, worker threads, absorb support, absorbed-tuple count, snapshot format version. With a directory: model count, resident count, cap, worker threads. Both: connections accepted and the overload limits and counters below |
//! | `POST` | `/impute`  | CSV with header (the `iim-data` row wire format: missing cells empty/`?`/`NA`) | `200` the completed CSV from model `default` — **byte-identical** to `iim impute` on the same queries with the same model |
//! | `POST` | `/learn`   | CSV with header, every cell present | `200` JSON: tuples absorbed into model `default` by this request and in total |
//! | `GET`    | `/models` (*dir*) | — | `200` JSON: every model's card (name, method, snapshot version, resident, absorbed) |
//! | `PUT`    | `/models/{name}` (*dir*) | raw snapshot bytes | `200` staged; a resident model is **hot-swapped atomically** (see below) |
//! | `DELETE` | `/models/{name}` (*dir*) | — | `200` model removed (in-flight requests drain first) |
//! | `GET`    | `/models/{name}/info` (*dir*) | — | `200` JSON card incl. schema |
//! | `POST`   | `/models/{name}/impute` (*dir*) | CSV | as `/impute`, against that model (activates it if cold) |
//! | `POST`   | `/models/{name}/learn` (*dir*) | CSV | as `/learn`, against that model; each tuple is checkpointed to its snapshot before the reply |
//!
//! With a directory, `/impute` and `/learn` serve `DIR/default.iim` exactly
//! as `/models/default/…` does, and answer `404` `unknown_model` when
//! there is no such file.
//!
//! Unknown routes answer `404` and known routes with the wrong method
//! answer `405` (with an `Allow` header), both with a structured JSON
//! body `{"error":...,"detail":...}` so load balancers and scripts can
//! tell a typo from a down backend.
//!
//! Per-connection parse failures return `400`; a query the model cannot
//! serve (e.g. an attribute outside the fitted target set) returns `422`
//! with the typed error message. Either way the daemon keeps serving —
//! only the offending connection sees the error.
//!
//! # Keep-alive
//!
//! Connections are **persistent by default** (HTTP/1.1 semantics): each
//! connection thread loops over [`crate::http::RequestReader`], serving
//! requests in order — pipelined requests included — until the client
//! sends `Connection: close`, speaks HTTP/1.0 without
//! `Connection: keep-alive`, closes its end, or idles past the read
//! timeout ([`ServeConfig::read_timeout`], 60 s by default). An
//! interactive client that holds its connection open pays the
//! TCP + thread-spawn setup once, not per query — that setup dominated
//! the single-tuple latency floor when every request opened a fresh
//! connection. `GET /info` reports the number of connections accepted
//! since startup (`"connections"`), so load tests can assert their
//! traffic actually reused connections. Responses are assembled in a
//! per-connection buffer and shipped with one `write_all` (plus
//! `TCP_NODELAY`), so a pipelined burst never stalls on Nagle/delayed-ACK
//! interactions. Requests on one connection are served strictly in order;
//! concurrency comes from many connections, which still coalesce in the
//! micro-batcher.
//!
//! # Atomicity
//!
//! `/learn` rides the same micro-batching queue as `/impute`, so learns
//! and imputes **serialize deterministically**: a fill served after a
//! learn's response arrived reflects that learn, and no fill ever
//! observes a half-absorbed batch (see [`crate::batch`]). A method
//! without incremental learning (most baselines) answers `422`.
//!
//! Hot swap extends the same guarantee across versions: every response is
//! served by **exactly one model version** — the fills in one response are
//! bitwise those of the pre-swap or the post-swap model, never a mixture —
//! and no request is dropped by a swap, an eviction, or a graceful
//! shutdown (see [`crate::registry`] and [`crate::shutdown`]).
//!
//! # Overload protection
//!
//! Degradation is deliberate, fast, and visible rather than emergent:
//!
//! - **Connection cap** ([`ServeConfig::max_connections`]): an accept
//!   beyond the cap is answered with a canned `503` + `Retry-After: 1`
//!   and closed on the accept thread — no connection thread is spawned,
//!   so saturating the daemon with connections costs it almost nothing.
//! - **Bounded queue** ([`Registry::max_queue`], per tenant): a request
//!   that would push the micro-batch queue past its cap is shed with
//!   `503` + `Retry-After: 1` instead of queueing unboundedly (see
//!   [`crate::batch::SubmitRejected`]).
//! - **Write timeouts** ([`ServeConfig::write_timeout`]): a peer that
//!   stops draining its socket fails the response write instead of
//!   pinning the connection thread forever, and the connection is
//!   evicted.
//! - Every degradation increments a counter surfaced by `GET /info`
//!   (`"shed"`, `"evicted"`, `"recovered"`), so operators can see load
//!   shedding and crash recovery happening instead of inferring them
//!   from tail latencies. Shedding never corrupts an answer: a request
//!   is either refused up front or served bitwise-correctly.

use crate::batch::QueryBlock;
use crate::http::{write_response, HttpError, Request, RequestReader};
use crate::registry::{Registry, RegistryConfig, RegistryError, DEFAULT_MODEL};
use iim_data::csv;
use iim_data::FittedImputer;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon configuration: the listener and its connection-level limits.
/// Only [`Server::bind`] reads `threads` and `schema`; a registry passed
/// to [`Server::bind_registry`] carries its models' schemas, worker
/// threads, queue cap and checkpointing itself.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port `0` picks an ephemeral
    /// port — see [`Server::local_addr`]).
    pub addr: String,
    /// Impute-pool worker threads of the model [`Server::bind`] serves
    /// (`0` = the process default).
    pub threads: usize,
    /// Training column names of the model [`Server::bind`] serves (e.g.
    /// from the snapshot's `SnapshotInfo::schema`). Non-empty: request
    /// headers must match exactly — a reordered or unrelated header would
    /// silently impute from transposed features. Empty: only arity is
    /// checked.
    pub schema: Vec<String>,
    /// Open-connection cap, enforced at accept: a connection beyond the
    /// cap gets a canned `503` + `Retry-After` and is closed without
    /// spawning a thread. `0` = unlimited (the default).
    pub max_connections: usize,
    /// Per-connection socket read timeout: an idle keep-alive connection
    /// past it closes cleanly between requests. `0` disables. Default
    /// 60 s.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout: a peer that stops draining
    /// its socket fails the response write and is evicted instead of
    /// pinning the connection thread. `0` disables. Default 60 s.
    pub write_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            threads: 0,
            schema: Vec::new(),
            max_connections: 0,
            read_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(60),
        }
    }
}

/// Operational state shared by the accept loop and every connection
/// thread: the connection-level counters surfaced by `GET /info`, plus
/// the limits they enforce. Queue-level limits and counters live in the
/// [`Registry`].
struct Ops {
    /// Connections accepted and admitted since startup.
    accepted: AtomicUsize,
    /// Currently open connections (the accept-time cap's gauge).
    active: AtomicUsize,
    /// Connections and requests shed with a fast `503` + `Retry-After`
    /// (accept-time cap plus queue-cap rejections).
    shed: AtomicUsize,
    /// Connections evicted because a response write failed or timed out.
    evicted: AtomicUsize,
    max_connections: usize,
    read_timeout: Duration,
    write_timeout: Duration,
}

impl Ops {
    fn new(cfg: &ServeConfig) -> Arc<Self> {
        Arc::new(Self {
            accepted: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
            evicted: AtomicUsize::new(0),
            max_connections: cfg.max_connections,
            read_timeout: cfg.read_timeout,
            write_timeout: cfg.write_timeout,
        })
    }
}

/// `Duration` → socket-timeout option: zero means "no timeout" (passing
/// a zero `Duration` to the socket setters is an error).
fn timeout_opt(d: Duration) -> Option<Duration> {
    (!d.is_zero()).then_some(d)
}

/// A bound (but not yet accepting) daemon.
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    ops: Arc<Ops>,
}

/// Handle to a daemon running on a background thread (tests, benches,
/// and the signal-driven CLI shutdown path).
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    join: JoinHandle<()>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the daemon thread. In-flight
    /// batches finish and buffered checkpoint deltas flush before this
    /// returns (the registry's tenants drain on drop).
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the (blocking) accept loop awake.
        let _ = TcpStream::connect(self.addr);
        let _ = self.join.join();
    }
}

impl Server {
    /// Binds a daemon serving `model` alone, without checkpointing: a
    /// [`Registry::single`] with `cfg.threads`, `cfg.schema` and the
    /// default queue cap, then [`Server::bind_registry`]. The model is
    /// ready to serve as soon as this returns; `run`/`spawn` only accept
    /// sockets.
    pub fn bind(model: Box<dyn FittedImputer>, cfg: &ServeConfig) -> std::io::Result<Self> {
        let registry = Registry::single(
            model,
            cfg.schema.clone(),
            iim_persist::FORMAT_VERSION,
            0,
            None,
            &RegistryConfig {
                threads: cfg.threads,
                ..RegistryConfig::default()
            },
        )?;
        Self::bind_registry(registry, cfg)
    }

    /// Binds the daemon over `registry`. With a directory, requests
    /// address models by name under `/models/{name}/…`, the admin surface
    /// is live, and models activate lazily — binding costs nothing per
    /// model.
    pub fn bind_registry(registry: Arc<Registry>, cfg: &ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Self {
            listener,
            registry,
            stop: Arc::new(AtomicBool::new(false)),
            ops: Ops::new(cfg),
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the calling thread until `stop` is set
    /// (never, unless a [`Server::spawn`]ed handle shuts it down).
    pub fn run(self) {
        let stop = Arc::clone(&self.stop);
        for stream in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if iim_faults::check("serve.accept.err").is_some() {
                // Injected accept failure: the accepted connection dies
                // before a thread touches it, as a handshake error would.
                drop(stream);
                continue;
            }
            if self.ops.max_connections > 0
                && self.ops.active.load(Ordering::SeqCst) >= self.ops.max_connections
            {
                shed_connection(stream, &self.ops);
                continue;
            }
            self.ops.accepted.fetch_add(1, Ordering::Relaxed);
            self.ops.active.fetch_add(1, Ordering::SeqCst);
            let registry = Arc::clone(&self.registry);
            let ops = Arc::clone(&self.ops);
            // Thread-per-connection: with keep-alive, one thread serves a
            // client's whole request stream; the heavy lifting happens on
            // the shared pool, so this stays cheap and simple.
            let spawned = std::thread::Builder::new()
                .name("iim-serve-conn".into())
                .spawn(move || {
                    // Decrement on every exit path, panics included — a
                    // leaked gauge slot would eat into the connection cap
                    // forever.
                    struct ActiveGuard(Arc<Ops>);
                    impl Drop for ActiveGuard {
                        fn drop(&mut self) {
                            self.0.active.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    let _guard = ActiveGuard(Arc::clone(&ops));
                    handle_connection(stream, registry, ops);
                });
            if spawned.is_err() {
                self.ops.active.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.registry.shutdown();
        // Dropping `self.registry` (last ref once connections finish)
        // joins the batcher threads: queues drain, checkpoints flush.
    }

    /// Runs the accept loop on a background thread, returning a handle
    /// with the bound address and a shutdown switch.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::clone(&self.stop);
        let join = std::thread::Builder::new()
            .name("iim-serve-accept".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle { addr, stop, join })
    }
}

/// Answers an over-cap connection with a canned `503` + `Retry-After`
/// and closes it on the accept thread — no connection thread is spawned,
/// so a connection flood costs the daemon one small write (plus a
/// time-bounded drain) per reject.
fn shed_connection(mut stream: TcpStream, ops: &Ops) {
    ops.shed.fetch_add(1, Ordering::Relaxed);
    let mut out = Vec::with_capacity(160);
    write_response(
        &mut out,
        503,
        "Service Unavailable",
        "text/plain",
        false,
        &[("Retry-After", "1")],
        b"connection capacity reached; retry shortly\n",
    );
    let _ = stream.set_write_timeout(timeout_opt(ops.write_timeout));
    if stream.write_all(&out).is_err() {
        return;
    }
    // Closing with unread request bytes in the receive buffer would send
    // an RST that can discard the 503 before the client reads it. Signal
    // end-of-response, then briefly drain whatever the client already
    // sent so the close is a clean FIN. Bounded: a slow trickler costs
    // the accept thread at most the short read timeout.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    use std::io::Read as _;
    for _ in 0..256 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// One live connection: the socket, the keep-alive disposition of the
/// response being built, and a reusable assembly buffer so every response
/// ships as a single `write_all` (the keep-alive hot path is one read and
/// one write syscall per request).
struct Conn {
    stream: TcpStream,
    keep_alive: bool,
    out: Vec<u8>,
    ops: Arc<Ops>,
}

impl Conn {
    fn respond(&mut self, status: u16, reason: &str, content_type: &str, body: &[u8]) {
        self.respond_ext(status, reason, content_type, &[], body);
    }

    fn respond_ext(
        &mut self,
        status: u16,
        reason: &str,
        content_type: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) {
        self.out.clear();
        write_response(
            &mut self.out,
            status,
            reason,
            content_type,
            self.keep_alive,
            extra_headers,
            body,
        );
        if iim_faults::check("serve.write.stall").is_some() {
            // Injected slow write: hold the response briefly, as a
            // saturated peer or disk would. The bytes are already
            // assembled, so a stall can delay an answer but never
            // change it.
            std::thread::sleep(Duration::from_millis(50));
        }
        if self
            .stream
            .write_all(&self.out)
            .and_then(|()| self.stream.flush())
            .is_err()
        {
            // The client is gone, or stopped draining past the write
            // timeout: evict it by ending the request loop.
            self.ops.evicted.fetch_add(1, Ordering::Relaxed);
            self.keep_alive = false;
        }
    }
}

/// Minimal JSON string literal (quotes + escapes) for error details and
/// schema names.
fn json_str(s: &str) -> String {
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

fn not_found(conn: &mut Conn, detail: &str) {
    let body = format!(
        "{{\"error\":\"not_found\",\"detail\":{}}}\n",
        json_str(detail)
    );
    conn.respond(404, "Not Found", "application/json", body.as_bytes());
}

fn method_not_allowed(conn: &mut Conn, allow: &str, detail: &str) {
    let body = format!(
        "{{\"error\":\"method_not_allowed\",\"detail\":{},\"allow\":{}}}\n",
        json_str(detail),
        json_str(allow)
    );
    conn.respond_ext(
        405,
        "Method Not Allowed",
        "application/json",
        &[("Allow", allow)],
        body.as_bytes(),
    );
}

fn handle_connection(stream: TcpStream, registry: Arc<Registry>, ops: Arc<Ops>) {
    // A stalled client must not pin the thread forever: an idle
    // keep-alive connection past the read timeout closes cleanly between
    // requests, and a peer that stops draining its socket fails the
    // response write past the write timeout (and is counted as evicted).
    let _ = stream.set_read_timeout(timeout_opt(ops.read_timeout));
    let _ = stream.set_write_timeout(timeout_opt(ops.write_timeout));
    // Responses are single write_all calls, so disabling Nagle cannot
    // cause small-packet storms — it just stops pipelined responses from
    // waiting on delayed ACKs.
    let _ = stream.set_nodelay(true);
    let mut conn = Conn {
        stream,
        keep_alive: false,
        out: Vec::with_capacity(512),
        ops,
    };
    let mut reader = RequestReader::new();
    loop {
        let request = match reader.read_request(&mut conn.stream) {
            Ok(Some(r)) => r,
            // Clean end of stream (or idle timeout) at a request boundary.
            Ok(None) => return,
            Err(HttpError::TooLarge) => {
                conn.keep_alive = false;
                conn.respond(
                    413,
                    "Payload Too Large",
                    "text/plain",
                    b"request body too large\n",
                );
                return;
            }
            Err(e) => {
                // A parse failure poisons the framing — any buffered
                // pipelined bytes are untrustworthy — so answer and close.
                conn.keep_alive = false;
                conn.respond(
                    400,
                    "Bad Request",
                    "text/plain",
                    format!("{e}\n").as_bytes(),
                );
                return;
            }
        };
        conn.keep_alive = request.keep_alive;
        handle_request(&mut conn, &request, &registry);
        if !conn.keep_alive {
            return;
        }
    }
}

fn handle_request(conn: &mut Conn, request: &Request, reg: &Registry) {
    // Route on path segments (query strings ignored); unknown paths are
    // 404, known paths with the wrong method are 405 + Allow.
    let path = request.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => {
            conn.respond(200, "OK", "text/plain", b"ok\n");
        }
        (_, ["healthz"]) => method_not_allowed(conn, "GET", "/healthz is GET-only"),
        ("GET", ["info"]) => handle_info(conn, reg),
        (_, ["info"]) => method_not_allowed(conn, "GET", "/info is GET-only"),
        ("POST", ["impute"]) => handle_registry_impute(conn, request, reg, DEFAULT_MODEL),
        (_, ["impute"]) => method_not_allowed(conn, "POST", "/impute is POST-only"),
        ("POST", ["learn"]) => handle_registry_learn(conn, request, reg, DEFAULT_MODEL),
        (_, ["learn"]) => method_not_allowed(conn, "POST", "/learn is POST-only"),
        (_, ["models", ..]) if reg.dir().is_none() => not_found(
            conn,
            "model registry routes need registry mode (iim serve --models-dir)",
        ),
        (m, ["models", ..]) => handle_models(conn, request, m, &segments, reg),
        _ => not_found(conn, &format!("no route for {method} {path}")),
    }
}

fn handle_info(conn: &mut Conn, reg: &Registry) {
    let ops = &conn.ops;
    // The operational tail every mode reports: the admission limits in
    // force and the degradation counters they feed, so a load test can
    // assert its traffic was shed (or wasn't) instead of guessing from
    // latencies.
    let ops_json = format!(
        "\"connections\":{},\"active_connections\":{},\"max_connections\":{},\
         \"max_queue\":{},\"read_timeout_secs\":{},\"write_timeout_secs\":{},\
         \"shed\":{},\"evicted\":{},\"recovered\":{}",
        ops.accepted.load(Ordering::Relaxed),
        ops.active.load(Ordering::SeqCst),
        ops.max_connections,
        reg.max_queue(),
        ops.read_timeout.as_secs(),
        ops.write_timeout.as_secs(),
        ops.shed.load(Ordering::Relaxed),
        ops.evicted.load(Ordering::Relaxed),
        reg.recovered(),
    );
    let body = if reg.dir().is_none() {
        let card = match reg.info(DEFAULT_MODEL) {
            Ok(card) => card,
            Err(e) => return registry_error(conn, &e),
        };
        format!(
            "{{\"mode\":\"single\",\"method\":\"{}\",\"arity\":{},\"threads\":{},\
             \"can_absorb\":{},\"absorbed\":{},\"snapshot_version\":{},{ops_json}}}\n",
            card.method,
            card.arity.unwrap_or(0),
            reg.threads(),
            card.can_absorb,
            card.absorbed,
            card.snapshot_version,
        )
    } else {
        let (models, resident) = reg.summary();
        format!(
            "{{\"mode\":\"registry\",\"models\":{models},\"resident\":{resident},\
             \"max_resident\":{},\"threads\":{},{ops_json}}}\n",
            reg.max_resident(),
            reg.threads(),
        )
    };
    conn.respond(200, "OK", "application/json", body.as_bytes());
}

/// Routes `/models…` (registry mode only).
fn handle_models(
    conn: &mut Conn,
    request: &Request,
    method: &str,
    segments: &[&str],
    reg: &Registry,
) {
    match (method, segments) {
        ("GET", ["models"]) => match reg.list() {
            Ok(cards) => {
                let items: Vec<String> = cards.iter().map(|c| model_card_json(c, false)).collect();
                let body = format!("{{\"models\":[{}]}}\n", items.join(","));
                conn.respond(200, "OK", "application/json", body.as_bytes());
            }
            Err(e) => registry_error(conn, &e),
        },
        (_, ["models"]) => method_not_allowed(conn, "GET", "/models is GET-only"),
        ("PUT", ["models", name]) => match reg.stage(name, &request.body) {
            Ok(out) => {
                let body = format!(
                    "{{\"staged\":{},\"method\":{},\"swapped\":{}}}\n",
                    json_str(name),
                    json_str(&out.method),
                    out.swapped
                );
                conn.respond(200, "OK", "application/json", body.as_bytes());
            }
            Err(e) => registry_error(conn, &e),
        },
        ("DELETE", ["models", name]) => match reg.delete(name) {
            Ok(()) => {
                let body = format!("{{\"deleted\":{}}}\n", json_str(name));
                conn.respond(200, "OK", "application/json", body.as_bytes());
            }
            Err(e) => registry_error(conn, &e),
        },
        (_, ["models", _]) => method_not_allowed(
            conn,
            "PUT, DELETE",
            "/models/{name} accepts PUT (stage) and DELETE",
        ),
        ("GET", ["models", name, "info"]) => match reg.info(name) {
            Ok(card) => {
                let body = format!("{}\n", model_card_json(&card, true));
                conn.respond(200, "OK", "application/json", body.as_bytes());
            }
            Err(e) => registry_error(conn, &e),
        },
        (_, ["models", _, "info"]) => {
            method_not_allowed(conn, "GET", "/models/{name}/info is GET-only")
        }
        ("POST", ["models", name, "impute"]) => handle_registry_impute(conn, request, reg, name),
        (_, ["models", _, "impute"]) => {
            method_not_allowed(conn, "POST", "/models/{name}/impute is POST-only")
        }
        ("POST", ["models", name, "learn"]) => handle_registry_learn(conn, request, reg, name),
        (_, ["models", _, "learn"]) => {
            method_not_allowed(conn, "POST", "/models/{name}/learn is POST-only")
        }
        _ => not_found(conn, &format!("no route for {method} {}", request.path)),
    }
}

fn model_card_json(card: &crate::registry::ModelInfo, with_schema: bool) -> String {
    let mut out = format!(
        "{{\"name\":{},\"method\":{},\"snapshot_version\":{},\"resident\":{},\
         \"can_absorb\":{},\"absorbed\":{}",
        json_str(&card.name),
        json_str(&card.method),
        card.snapshot_version,
        card.resident,
        card.can_absorb,
        card.absorbed,
    );
    if with_schema {
        let names: Vec<String> = card.schema.iter().map(|s| json_str(s)).collect();
        out.push_str(&format!(",\"schema\":[{}]", names.join(",")));
    }
    out.push('}');
    out
}

/// Maps a [`RegistryError`] to its HTTP response.
fn registry_error(conn: &mut Conn, e: &RegistryError) {
    let (status, reason, label) = match e {
        // Queue-cap shedding keeps its plain-text Retry-After answer.
        RegistryError::Overloaded => return overloaded(conn),
        RegistryError::BadName(_) => (400, "Bad Request", "bad_name"),
        RegistryError::UnknownModel(_) => (404, "Not Found", "unknown_model"),
        RegistryError::SchemaMismatch { .. } => (400, "Bad Request", "schema_mismatch"),
        RegistryError::Load(_) => (422, "Unprocessable Entity", "snapshot_rejected"),
        RegistryError::StageFailed(_) => (500, "Internal Server Error", "stage_failed"),
        RegistryError::Io(_) => (500, "Internal Server Error", "io"),
        RegistryError::Unavailable => (503, "Service Unavailable", "unavailable"),
    };
    let body = format!(
        "{{\"error\":{},\"detail\":{}}}\n",
        json_str(label),
        json_str(&e.to_string())
    );
    conn.respond(status, reason, "application/json", body.as_bytes());
}

fn bad_request(conn: &mut Conn, msg: String) {
    conn.respond(
        400,
        "Bad Request",
        "text/plain",
        format!("{msg}\n").as_bytes(),
    );
}

/// The micro-batch queue is at its cap: shed the request with a
/// `Retry-After` hint instead of queueing unboundedly. Nothing ran, so
/// retrying is always safe.
fn overloaded(conn: &mut Conn) {
    conn.ops.shed.fetch_add(1, Ordering::Relaxed);
    conn.respond_ext(
        503,
        "Service Unavailable",
        "text/plain",
        &[("Retry-After", "1")],
        b"imputation queue full; retry shortly\n",
    );
}

/// Parses a request body shared by `/impute` and `/learn`: a CSV header
/// plus the data lines with their original line numbers (blank lines
/// skipped). The registry checks the header against the model's schema.
fn parse_csv_body<'a>(
    conn: &mut Conn,
    request: &'a Request,
) -> Option<(Vec<String>, &'a str, Vec<(usize, &'a str)>)> {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        bad_request(conn, "body is not UTF-8".into());
        return None;
    };
    let mut lines = text.lines();
    let Some(header) = lines.next() else {
        bad_request(conn, "empty body: missing CSV header".into());
        return None;
    };
    let names = csv::parse_header(header);
    let data: Vec<(usize, &str)> = lines
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| (idx + 2, line))
        .collect();
    Some((names, header, data))
}

/// Serves `/impute` against model `name`. The query rows parse into one
/// flat [`QueryBlock`] — cells go straight from the wire text into the
/// block's buffer, no per-row allocation.
fn handle_registry_impute(conn: &mut Conn, request: &Request, reg: &Registry, name: &str) {
    let Some((names, header, data)) = parse_csv_body(conn, request) else {
        return;
    };
    // Parse all rows up front so a syntax error rejects the request
    // before any imputation runs. Original body line numbers ride along
    // (blank lines are skipped) so errors point at the client's input.
    let mut rows = QueryBlock::with_capacity(names.len(), data.len());
    let mut linenos: Vec<usize> = Vec::with_capacity(data.len());
    for (lineno, line) in data {
        if let Err(e) = csv::parse_row_into(line, names.len(), lineno, rows.cells_mut()) {
            return bad_request(conn, e.to_string());
        }
        linenos.push(lineno);
    }
    let results = match reg.impute_block(name, &names, rows) {
        Ok(results) => results,
        Err(e) => return registry_error(conn, &e),
    };
    // One failing row fails the request (mirroring the CLI, which aborts
    // on the first impute error) — but with the row number attached.
    let mut body = Vec::with_capacity(request.body.len());
    let _ = writeln!(body, "{header}");
    for (result, lineno) in results.iter().zip(&linenos) {
        match result {
            Ok(values) => {
                let _ = writeln!(body, "{}", csv::format_row(values));
            }
            Err(e) => {
                return conn.respond(
                    422,
                    "Unprocessable Entity",
                    "text/plain",
                    format!("imputation failed on line {lineno}: {e}\n").as_bytes(),
                );
            }
        }
    }
    conn.respond(200, "OK", "text/csv", &body);
}

/// Serves `/learn` against model `name`.
fn handle_registry_learn(conn: &mut Conn, request: &Request, reg: &Registry, name: &str) {
    let Some((names, _, data)) = parse_csv_body(conn, request) else {
        return;
    };
    // Learning rows must be complete — a missing cell has no value to
    // absorb. All rows are validated before any absorb runs, so a 400
    // never leaves the model partially updated.
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(data.len());
    let mut linenos: Vec<usize> = Vec::with_capacity(data.len());
    for (lineno, line) in data {
        let parsed = match csv::parse_row(line, names.len(), lineno) {
            Ok(row) => row,
            Err(e) => return bad_request(conn, e.to_string()),
        };
        let mut row = Vec::with_capacity(parsed.len());
        for (col, cell) in parsed.into_iter().enumerate() {
            let Some(v) = cell else {
                return bad_request(
                    conn,
                    format!(
                        "line {lineno}, column {}: learning rows must be complete \
                         (missing cell)",
                        col + 1
                    ),
                );
            };
            row.push(v);
        }
        rows.push(row);
        linenos.push(lineno);
    }
    if rows.is_empty() {
        return bad_request(conn, "no learning rows in body".into());
    }
    let absorbed_here = rows.len();
    match reg.learn(name, &names, rows) {
        Ok(Ok(total)) => {
            let body = format!("{{\"absorbed\":{absorbed_here},\"total_absorbed\":{total}}}\n");
            conn.respond(200, "OK", "application/json", body.as_bytes());
        }
        Ok(Err((i, e))) => {
            conn.respond(
                422,
                "Unprocessable Entity",
                "text/plain",
                format!(
                    "learning failed on line {}: {e} ({i} earlier rows were absorbed)\n",
                    linenos[i]
                )
                .as_bytes(),
            );
        }
        Err(e) => registry_error(conn, &e),
    }
}
