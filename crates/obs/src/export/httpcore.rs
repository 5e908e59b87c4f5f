//! The one HTTP/1.1 server of the workspace.
//!
//! Every network surface — the observability exporter
//! ([`super::http::ObsServer`]), the forecast-serving subsystem
//! (`fdc-serve`) and the routing tier (`fdc-router`) — is an
//! [`HttpServer`] with its own [`Handler`]. The handler maps a parsed
//! [`Request`] and the time left of its deadline to a [`Response`]
//! (route label, status, content type, body bytes, extra headers);
//! everything around that call belongs to the server:
//!
//! * **bind and accept** — `127.0.0.1:<port>`, one accept thread;
//! * **admission** — a bounded connection queue; a connection arriving
//!   at a full queue is answered `429 Too Many Requests` with
//!   `Retry-After: 1` by the accept thread and closed;
//! * **a fixed worker pool** popping connections off the queue;
//! * **the queued deadline** — a connection that waited in the queue
//!   longer than the deadline is answered `503` without being read;
//! * **request reading** — a deliberately tiny slice of HTTP/1.1:
//!   explicit `Content-Length` bodies, no chunked transfer encoding,
//!   the head bounded at 16 KiB and the body by the server's
//!   `max_body`. A malformed request is answered `400`, an oversized
//!   body `413`;
//! * **trace ingress** — a valid `traceparent` header continues the
//!   caller's trace with the caller's sampling decision; anything else
//!   mints a fresh root, head-sampled at the server's rate. The context
//!   is active on the worker while the handler runs;
//! * **metrics** (optional, under each server's own names) — the
//!   `{route,status}` request counter, counted before the answer is
//!   written; the per-route latency histogram, measured from the end of
//!   the request read to the end of the answer's write, with the trace
//!   id of sampled requests as exemplar; a `{reason}` rejection counter
//!   (`queue_full`, `deadline`) and a queue-depth gauge;
//! * **drain** — [`HttpServer::shutdown`] stops accepting, answers
//!   every queued connection, joins the threads and reports how many
//!   connections the drain answered.
//!
//! The parser is hand-rolled because the surface is small enough that
//! parsing by hand is simpler and safer than a dependency: read until
//! the blank line, split the request line, lower-case header names,
//! then read exactly `Content-Length` more bytes.
//!
//! ## Connections
//!
//! Each server fixes one of two [`Connections`] models when it starts:
//!
//! * **One request per connection** ([`Connections::OneRequest`]) —
//!   every answer carries `Connection: close` and the worker closes the
//!   connection after it. `fdc-serve` and the exporter work this way.
//! * **Persistent connections** ([`Connections::KeepAlive`]) — HTTP/1.1
//!   keep-alive, used by `fdc-router`. The connection owns a read
//!   buffer, so bytes that arrive past one request's body (a pipelined
//!   next request) are kept for the next read and requests are answered
//!   in order. Between requests the worker waits for the next
//!   request's first byte in slices of at most [`IDLE_SLICE`], bounded
//!   by the read timeout. The wait only *peeks*, so a connection closed
//!   while idle has consumed no byte of an unanswered request: a client
//!   may safely retry, once and on a fresh connection, a request that
//!   failed on a reused connection before any response byte arrived —
//!   even a non-idempotent `POST`. The worker closes the connection when
//!   the client asks ([`Request::wants_close`]: `Connection: close`, or
//!   HTTP/1.0), after the server's own `400`/`413`/`503`, after an
//!   answer while the server drains or another connection waits in the
//!   queue, and while idle — once the read timeout passes, or as soon as
//!   the server drains or a connection waits. So neither idle nor busy
//!   clients hold every worker while others wait. A later request's
//!   deadline counts from its first byte; the `429` admission happens
//!   per connection, at accept. An answer carries `Connection: close`
//!   exactly when the worker closes after it, and `TCP_NODELAY` is set
//!   on accepted sockets, so an answer never waits on the client's ACK.
//!
//! Every response goes out in one write (head and body in one buffer).
//!
//! ## Closing and lingering
//!
//! Closing a socket with unread bytes in its receive buffer sends a
//! reset, and a reset makes the client's kernel drop the response before
//! the client reads it. So whenever unread bytes may remain — after a
//! `429`, `503`, `400` or `413` the server sent without reading the
//! request to its end, and after the closing answer on a persistent
//! connection, whose client may have pipelined more — the worker closes
//! by *lingering*: it shuts its write side, then reads and drops what
//! the client still sends until the client closes, at most 250 ms
//! and 4 MiB. After an answer on a one-request connection the request
//! was read to its end, and the socket is simply closed. A connection
//! closed while idle had no answer pending and is closed at once.

use crate::{trace, TraceContext};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Longest single wait for a kept connection's next request before the
/// worker checks whether to give the connection up.
pub const IDLE_SLICE: Duration = Duration::from_millis(10);

/// Longest a closing connection waits for the client to close its side.
const LINGER: Duration = Duration::from_millis(250);

/// The reason phrase of every status code a server of this workspace
/// answers with (its own and those `fdc-router` forwards from a shard);
/// empty for any other code, which goes out as the bare number.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        421 => "Misdirected Request",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// A parsed HTTP/1.1 request: the request line, lower-cased header
/// names, and the raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, …).
    pub method: String,
    /// The raw request target, e.g. `/events?n=10`.
    pub target: String,
    /// The protocol token of the request line, e.g. `HTTP/1.1`; empty
    /// when the request line carries none.
    pub version: String,
    /// Headers in arrival order; names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target split into `(path, query)`; the query is `""` when
    /// the target carries none.
    pub fn path_query(&self) -> (&str, &str) {
        split_target(&self.target)
    }

    /// Whether the client wants the connection closed after this
    /// request: a `Connection` header listing `close`, or any protocol
    /// older than HTTP/1.1 (HTTP/1.0 `keep-alive` is not supported).
    pub fn wants_close(&self) -> bool {
        let asked = self.headers.iter().any(|(n, v)| {
            n == "connection" && v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"))
        });
        asked || !self.version.eq_ignore_ascii_case("HTTP/1.1")
    }

    /// The caller's [`TraceContext`], parsed from the `traceparent`
    /// header. `None` when the header is absent *or malformed* — a bad
    /// caller gets a fresh root trace, never an error.
    pub fn trace_context(&self) -> Option<TraceContext> {
        TraceContext::parse_traceparent(self.header(trace::TRACEPARENT_HEADER)?)
    }
}

/// Splits a request target into `(path, query)`.
pub fn split_target(target: &str) -> (&str, &str) {
    match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    }
}

/// Errors a request read can fail with.
#[derive(Debug)]
pub enum RequestError {
    /// Socket-level failure (timeout, reset, EOF mid-head).
    Io(std::io::Error),
    /// The request line or headers were not parseable HTTP/1.1.
    Malformed(&'static str),
    /// The declared `Content-Length` exceeds the server's bound.
    BodyTooLarge(usize),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Io(e) => write!(f, "i/o error: {e}"),
            RequestError::Malformed(m) => write!(f, "malformed request: {m}"),
            RequestError::BodyTooLarge(n) => write!(f, "body of {n} bytes exceeds the limit"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// A handler's answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Bounded-cardinality route label for the server's metrics.
    pub route: &'static str,
    /// HTTP status code; the reason phrase comes from one table.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The body, sent verbatim with its exact `Content-Length`.
    pub body: Vec<u8>,
    /// Headers beyond `Content-Type`, `Content-Length` and `Connection`.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A response without extra headers.
    pub fn new(
        route: &'static str,
        status: u16,
        content_type: &'static str,
        body: impl Into<Vec<u8>>,
    ) -> Response {
        Response {
            route,
            status,
            content_type,
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// An `application/json` `{"error": msg}` response.
    pub fn error(route: &'static str, status: u16, msg: &str) -> Response {
        let mut body = String::from("{\"error\":\"");
        for c in msg.chars() {
            match c {
                '"' | '\\' => {
                    body.push('\\');
                    body.push(c);
                }
                c if (c as u32) < 0x20 => body.push_str(&format!("\\u{:04x}", c as u32)),
                c => body.push(c),
            }
        }
        body.push_str("\"}");
        Response::new(route, status, "application/json", body)
    }

    /// Adds one extra header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// The complete HTTP/1.1 response — status line,
    /// `Content-Type`/`Content-Length`, `Connection: close` when
    /// `close`, the extra headers, the blank line and the body — in one
    /// buffer.
    fn encode(&self, close: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        let connection = if close { "Connection: close\r\n" } else { "" };
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{connection}",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )
        .expect("writing to a Vec cannot fail");
        for (name, value) in &self.headers {
            write!(out, "{name}: {value}\r\n").expect("writing to a Vec cannot fail");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// What a server does with each request; the server around it is
/// described in the module doc.
pub trait Handler: Send + Sync + 'static {
    /// Answers `request`; `remaining` is what is left of the server's
    /// deadline after the connection's time in the queue. Runs on a
    /// worker with the request's trace context active.
    fn handle(&self, request: &Request, remaining: Duration) -> Response;

    /// Runs after `response` was written and its latency (`elapsed`)
    /// recorded, still on the worker and under the request's trace
    /// context — for work that must not delay the client.
    fn after(&self, _request: &Request, _response: &Response, _elapsed: Duration) {}
}

/// How a server treats a connection after an answer (see the module
/// doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connections {
    /// One request per connection, every answer `Connection: close`.
    OneRequest,
    /// HTTP/1.1 keep-alive, yielding to queued connections.
    KeepAlive,
}

/// Metric names a server records under.
#[derive(Debug, Clone, Copy)]
pub struct ServerMetrics {
    /// Request counter labelled `{route,status}`.
    pub requests: &'static str,
    /// Request latency histogram labelled `{route}`.
    pub latency: &'static str,
    /// Rejection counter labelled `{reason}`, if the server has one.
    pub rejected: Option<&'static str>,
    /// Gauge of connections waiting in the queue, if the server has one.
    pub queue_depth: Option<&'static str>,
}

/// What each server fixes when it starts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Thread-name prefix.
    pub name: &'static str,
    /// Worker threads (at least one runs).
    pub workers: usize,
    /// Connections queued for a worker before the next is answered `429`.
    pub queue_depth: usize,
    /// Per-request deadline; time in the queue counts against it.
    pub deadline: Duration,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// Bound on every socket read, and on a kept connection's idle wait.
    pub read_timeout: Duration,
    /// Head-sampling rate for traces minted at ingress.
    pub trace_sample: f64,
    /// Where requests are counted and timed; `None` records nothing.
    pub metrics: Option<ServerMetrics>,
}

/// A connection waiting for a worker.
struct Queued {
    stream: TcpStream,
    enqueued: Instant,
}

/// The connection queue shared by the accept thread and the workers.
struct Queue {
    conns: Mutex<VecDeque<Queued>>,
    ready: Condvar,
    stopping: AtomicBool,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, VecDeque<Queued>> {
        self.conns
            .lock()
            .expect("a server thread panicked holding the connection queue")
    }
}

/// Read access to a server's connection queue, for handlers that report
/// its depth.
#[derive(Clone)]
pub struct Backlog(Arc<Queue>);

impl Backlog {
    /// Connections accepted and waiting for a worker.
    pub fn queued(&self) -> usize {
        self.0.lock().len()
    }
}

struct Core<H> {
    queue: Arc<Queue>,
    handler: Arc<H>,
    connections: Connections,
    config: ServerConfig,
    drained: AtomicU64,
}

/// A running server. Stop it with [`HttpServer::shutdown`]; dropping it
/// without one leaves the threads parked on the queue.
pub struct HttpServer<H> {
    addr: SocketAddr,
    core: Arc<Core<H>>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl<H: Handler> HttpServer<H> {
    /// Binds `127.0.0.1:port` (`0` picks an ephemeral port) and starts
    /// the accept thread and the workers. `make_handler` receives the
    /// server's [`Backlog`].
    pub fn start(
        port: u16,
        connections: Connections,
        config: ServerConfig,
        make_handler: impl FnOnce(Backlog) -> H,
    ) -> std::io::Result<HttpServer<H>> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(Queue {
            conns: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stopping: AtomicBool::new(false),
        });
        let core = Arc::new(Core {
            handler: Arc::new(make_handler(Backlog(Arc::clone(&queue)))),
            queue,
            connections,
            config,
            drained: AtomicU64::new(0),
        });
        let thread =
            |role: &str| std::thread::Builder::new().name(format!("{}-{role}", core.config.name));
        let accept = {
            let core = Arc::clone(&core);
            thread("accept").spawn(move || core.accept_loop(listener))?
        };
        let workers = (0..core.config.workers.max(1))
            .map(|_| {
                let core = Arc::clone(&core);
                thread("worker").spawn(move || core.worker_loop())
            })
            .collect::<std::io::Result<_>>()?;
        Ok(HttpServer {
            addr,
            core,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The handler this server runs.
    pub fn handler(&self) -> &Arc<H> {
        &self.core.handler
    }

    /// Stops accepting, answers every queued connection, joins the
    /// threads and returns how many connections the drain answered.
    /// Idempotent.
    pub fn shutdown(&mut self) -> u64 {
        self.core.queue.stopping.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            // Wake the blocking accept so the loop observes the flag.
            drop(TcpStream::connect_timeout(
                &self.addr,
                Duration::from_millis(200),
            ));
            accept.join().expect("accept thread panicked");
        }
        self.core.queue.ready.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread panicked");
        }
        self.core.drained.load(Ordering::SeqCst)
    }
}

impl<H: Handler> Core<H> {
    fn stopping(&self) -> bool {
        self.queue.stopping.load(Ordering::SeqCst)
    }

    fn set_queue_gauge(&self, len: usize) {
        if let Some(gauge) = self.config.metrics.and_then(|m| m.queue_depth) {
            crate::gauge(gauge).set(len as i64);
        }
    }

    fn count_rejected(&self, reason: &str) {
        if let Some(rejected) = self.config.metrics.and_then(|m| m.rejected) {
            crate::counter_with(rejected, &[("reason", reason)]).incr();
        }
    }

    fn accept_loop(&self, listener: TcpListener) {
        for stream in listener.incoming() {
            if self.stopping() {
                // The shutdown wake-up connection (or a late client);
                // the listener closes when this loop returns.
                return;
            }
            let Ok(stream) = stream else { continue };
            if self.connections == Connections::KeepAlive {
                stream.set_nodelay(true).ok();
            }
            let mut conns = self.queue.lock();
            if conns.len() >= self.config.queue_depth {
                drop(conns);
                self.count_rejected("queue_full");
                stream
                    .set_write_timeout(Some(Duration::from_millis(500)))
                    .ok();
                let mut conn = Connection::new(stream);
                let full = Response::error("admission", 429, "connection queue full")
                    .with_header("Retry-After", "1");
                self.write(&mut conn, &full, true).ok();
                conn.close();
                continue;
            }
            conns.push_back(Queued {
                stream,
                enqueued: Instant::now(),
            });
            self.set_queue_gauge(conns.len());
            drop(conns);
            self.queue.ready.notify_one();
        }
    }

    fn worker_loop(&self) {
        while let Some(queued) = self.next_connection() {
            self.serve_connection(queued);
        }
    }

    /// The next queued connection; `None` once the server drains and the
    /// queue is empty.
    fn next_connection(&self) -> Option<Queued> {
        let mut conns = self.queue.lock();
        loop {
            if let Some(queued) = conns.pop_front() {
                self.set_queue_gauge(conns.len());
                if self.stopping() {
                    self.drained.fetch_add(1, Ordering::SeqCst);
                }
                return Some(queued);
            }
            if self.stopping() {
                return None;
            }
            conns = self
                .queue
                .ready
                .wait_timeout(conns, Duration::from_millis(50))
                .expect("a server thread panicked holding the connection queue")
                .0;
        }
    }

    /// Whether a worker should give its kept connection up: the server
    /// drains, or another connection waits in the queue.
    fn must_yield(&self) -> bool {
        self.stopping() || !self.queue.lock().is_empty()
    }

    /// Serves one connection until it closes, under the close rules of
    /// the module doc.
    fn serve_connection(&self, queued: Queued) {
        let mut conn = Connection::new(queued.stream);
        // The first request's deadline counts from its enqueueing, a
        // later one's from the moment its first byte was seen.
        let mut arrived = queued.enqueued;
        loop {
            match self.serve_request(&mut conn, arrived) {
                Some(true) => {}
                Some(false) if self.connections == Connections::OneRequest => return,
                _ => return conn.close(),
            }
            if !conn.await_request(self.config.read_timeout, || self.must_yield()) {
                return;
            }
            arrived = Instant::now();
        }
    }

    /// Reads, handles and answers one request. `Some(keep)` after the
    /// handler's answer, `None` after the server's own `503`/`400`/`413`.
    fn serve_request(&self, conn: &mut Connection, arrived: Instant) -> Option<bool> {
        let waited = arrived.elapsed();
        if waited > self.config.deadline {
            self.count_rejected("deadline");
            let late = Response::error("admission", 503, "deadline exceeded while queued");
            self.write(conn, &late, true).ok();
            return None;
        }
        let request = match conn.read_request(self.config.max_body, self.config.read_timeout) {
            Ok(request) => request,
            Err(e) => {
                let bad = match e {
                    RequestError::BodyTooLarge(_) => {
                        Response::error("malformed", 413, "request body too large")
                    }
                    e => Response::error("malformed", 400, &e.to_string()),
                };
                self.write(conn, &bad, true).ok();
                return None;
            }
        };
        let started = Instant::now();
        let ctx = request
            .trace_context()
            .unwrap_or_else(|| TraceContext::root(trace::should_sample(self.config.trace_sample)));
        let _ctx_guard = trace::activate(ctx);
        let response = self
            .handler
            .handle(&request, self.config.deadline.saturating_sub(waited));
        let keep = self.connections == Connections::KeepAlive
            && !request.wants_close()
            && !self.must_yield();
        let written = self.write(conn, &response, !keep);
        let elapsed = started.elapsed();
        if let Some(metrics) = &self.config.metrics {
            let h = crate::histogram_with(metrics.latency, &[("route", response.route)]);
            if ctx.sampled {
                h.record_duration_with_trace(elapsed, ctx.trace_id);
            } else {
                h.record_duration(elapsed);
            }
        }
        self.handler.after(&request, &response, elapsed);
        Some(keep && written.is_ok())
    }

    /// Counts the answer under `{route,status}`, then writes it.
    fn write(
        &self,
        conn: &mut Connection,
        response: &Response,
        close: bool,
    ) -> std::io::Result<()> {
        if let Some(metrics) = &self.config.metrics {
            crate::counter_with(
                metrics.requests,
                &[
                    ("route", response.route),
                    ("status", &response.status.to_string()),
                ],
            )
            .incr();
        }
        conn.stream.write_all(&response.encode(close))
    }
}

/// A server-side connection: the stream plus the bytes received past
/// the last request read from it.
#[derive(Debug)]
struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Connection {
    fn new(stream: TcpStream) -> Connection {
        Connection {
            stream,
            buf: Vec::new(),
        }
    }

    /// Reads the next request: buffered bytes first, then the socket,
    /// `timeout` bounding every socket read. Bytes past the request's
    /// body stay buffered for the next call.
    fn read_request(
        &mut self,
        max_body: usize,
        timeout: Duration,
    ) -> Result<Request, RequestError> {
        self.stream.set_read_timeout(Some(timeout))?;
        let (stream, buf) = (&mut self.stream, &mut self.buf);
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if buf.len() > MAX_HEAD_BYTES {
                return Err(RequestError::Malformed("request head too large"));
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(RequestError::Malformed("connection closed mid-head"));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let mut lines = head.lines();
        let mut parts = lines.next().unwrap_or("").split_whitespace();
        let method = parts
            .next()
            .ok_or(RequestError::Malformed("empty request line"))?
            .to_ascii_uppercase();
        let target = parts
            .next()
            .ok_or(RequestError::Malformed("request line has no target"))?
            .to_string();
        let version = parts.next().unwrap_or("").to_string();
        let mut headers = Vec::new();
        for line in lines.filter(|l| !l.is_empty()) {
            let (name, value) = line
                .split_once(':')
                .ok_or(RequestError::Malformed("header line without a colon"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let content_length = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .map(|(_, v)| {
                v.parse::<usize>()
                    .map_err(|_| RequestError::Malformed("unparseable content-length"))
            })
            .transpose()?
            .unwrap_or(0);
        if content_length > max_body {
            return Err(RequestError::BodyTooLarge(content_length));
        }
        let end = head_end + 4 + content_length;
        while buf.len() < end {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(RequestError::Malformed("connection closed mid-body"));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        let body = buf[head_end + 4..end].to_vec();
        buf.drain(..end);
        Ok(Request {
            method,
            target,
            version,
            headers,
            body,
        })
    }

    /// Waits up to `idle` for the next request's first byte, in slices
    /// of at most [`IDLE_SLICE`]; after each empty slice `give_up()` may
    /// end the wait early. `true` when a byte is buffered or readable;
    /// `false` when the peer closed, the socket failed, `idle` passed or
    /// the caller gave up. Never consumes a byte.
    fn await_request(&mut self, idle: Duration, mut give_up: impl FnMut() -> bool) -> bool {
        if !self.buf.is_empty() {
            return true;
        }
        let deadline = Instant::now().checked_add(idle);
        loop {
            // An `idle` too large for an `Instant` waits without bound.
            let left = deadline.map_or(IDLE_SLICE, |d| d.saturating_duration_since(Instant::now()));
            if left.is_zero()
                || self
                    .stream
                    .set_read_timeout(Some(left.min(IDLE_SLICE)))
                    .is_err()
            {
                return false;
            }
            match self.stream.peek(&mut [0u8; 1]) {
                Ok(n) => return n > 0,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => return false,
            }
            if give_up() {
                return false;
            }
        }
    }

    /// Closes by lingering (see the module doc): shut the write side,
    /// then read and drop what the client still sends until it closes,
    /// at most [`LINGER`] and 4 MiB.
    fn close(mut self) {
        self.stream.shutdown(Shutdown::Write).ok();
        self.stream.set_read_timeout(Some(LINGER)).ok();
        let mut buf = [0u8; 8192];
        let mut total = 0usize;
        while let Ok(n) = self.stream.read(&mut buf) {
            if n == 0 || total > (4 << 20) {
                break;
            }
            total += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trips raw request bytes through a real socket pair.
    fn parse(raw: &[u8]) -> Result<Request, RequestError> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.flush().unwrap();
            // Keep the write half open until the reader is done parsing;
            // shutdown would race a reader still waiting on body bytes.
            s
        });
        let mut conn = Connection::new(listener.accept().unwrap().0);
        let result = conn.read_request(4096, Duration::from_millis(500));
        drop(writer.join().unwrap());
        result
    }

    #[test]
    fn parses_request_with_body() {
        let req = parse(
            b"POST /insert?sync=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/insert?sync=1");
        assert_eq!(req.path_query(), ("/insert", "sync=1"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("Content-Length"), Some("11"));
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/metrics");
        assert!(req.body.is_empty());
        assert_eq!(req.path_query(), ("/metrics", ""));
    }

    #[test]
    fn rejects_oversized_body() {
        let err = parse(b"POST /q HTTP/1.1\r\nContent-Length: 100000\r\n\r\n").unwrap_err();
        assert!(matches!(err, RequestError::BodyTooLarge(100000)), "{err}");
    }

    #[test]
    fn rejects_malformed_head() {
        assert!(matches!(
            parse(b"\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn connection_keeps_pipelined_bytes_for_the_next_request() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client
            .write_all(
                b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
                  GET /b HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let mut conn = Connection::new(listener.accept().unwrap().0);
        let timeout = Duration::from_millis(500);
        let first = conn.read_request(64, timeout).unwrap();
        assert_eq!(
            (first.target.as_str(), first.body.as_slice()),
            ("/a", &b"abc"[..])
        );
        assert!(!first.wants_close());
        assert!(
            conn.await_request(timeout, || false),
            "pipelined bytes kept"
        );
        let second = conn.read_request(64, timeout).unwrap();
        assert_eq!(second.target, "/b");
        assert!(second.wants_close());
        // Idle: the wait peeks, and reports the client's close.
        let mut gave_up = 0;
        assert!(!conn.await_request(Duration::from_millis(30), || {
            gave_up += 1;
            gave_up == 2
        }));
        assert_eq!(gave_up, 2, "asked between slices, stopped when told");
        drop(client);
        assert!(!conn.await_request(timeout, || false), "EOF ends the wait");
    }

    #[test]
    fn http_1_0_and_connection_tokens_decide_close() {
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.version, "HTTP/1.0");
        assert!(req.wants_close());
        let req = parse(b"GET / HTTP/1.1\r\nConnection: Keep-Alive, CLOSE\r\n\r\n").unwrap();
        assert!(req.wants_close());
        let req = parse(b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!req.wants_close());
    }

    #[test]
    fn responses_name_close_only_when_closing() {
        let ok = Response::new("r", 200, "text/plain", "hi").with_header("X-A", "1");
        assert_eq!(
            ok.encode(false),
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\nX-A: 1\r\n\r\nhi"
        );
        assert_eq!(
            Response::new("r", 200, "text/plain", "hi").encode(true),
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\nConnection: close\r\n\r\nhi"
        );
    }

    #[test]
    fn status_lines_carry_the_answered_code() {
        for code in [
            200, 202, 400, 404, 405, 409, 410, 413, 421, 429, 500, 502, 503,
        ] {
            let head = Response::new("r", code, "text/plain", "").encode(true);
            let line = format!("HTTP/1.1 {code} {}\r\n", reason(code));
            assert!(head.starts_with(line.as_bytes()), "{code}");
            assert!(!reason(code).is_empty(), "{code} has no reason phrase");
        }
        let odd = Response::new("r", 418, "text/plain", "").encode(true);
        assert!(odd.starts_with(b"HTTP/1.1 418 \r\n"));
    }

    #[test]
    fn error_bodies_are_escaped_json() {
        let r = Response::error("x", 400, "bad \"q\"\\\n");
        assert_eq!(r.body, b"{\"error\":\"bad \\\"q\\\"\\\\\\u000a\"}");
        assert_eq!(r.content_type, "application/json");
    }

    #[test]
    fn split_target_handles_bare_paths() {
        assert_eq!(split_target("/a/b"), ("/a/b", ""));
        assert_eq!(split_target("/a?x=1&y=2"), ("/a", "x=1&y=2"));
    }

    #[test]
    fn trace_context_parses_valid_and_ignores_malformed() {
        let good = parse(
            b"GET /q HTTP/1.1\r\ntraceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01\r\n\r\n",
        )
        .unwrap();
        let ctx = good.trace_context().unwrap();
        assert_eq!(ctx.trace_id, 0x4bf9_2f35_77b3_4da6_a3ce_929d_0e0e_4736);
        assert!(ctx.sampled);
        let bad = parse(b"GET /q HTTP/1.1\r\ntraceparent: junk-header\r\n\r\n").unwrap();
        assert_eq!(bad.trace_context(), None);
        let none = parse(b"GET /q HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(none.trace_context(), None);
    }
}
