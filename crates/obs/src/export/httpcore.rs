//! The one hand-rolled HTTP/1.1 request reader and response writer of
//! the workspace.
//!
//! Every network surface — the observability exporter
//! ([`super::http::ObsServer`]), the forecast-serving subsystem
//! (`fdc-serve`) and the routing tier (`fdc-router`) — speaks a
//! deliberately tiny slice of HTTP/1.1: explicit `Content-Length`
//! bodies, no chunked transfer encoding. Sharing the reader here means
//! the servers cannot drift apart in how they parse a request line,
//! fold headers or bound a body.
//!
//! The surface is small enough that parsing by hand is simpler and
//! safer than a dependency: read until the blank line, split the
//! request line, lower-case header names, then read exactly
//! `Content-Length` more bytes (bounded by the caller's `max_body`).
//!
//! ## Connections
//!
//! A server picks one of two connection models:
//!
//! * **One request per connection** — [`read_request`] on the raw
//!   stream, then [`write_response`] / [`write_response_bytes`], which
//!   always send `Connection: close`; the caller then closes. The
//!   exporter and `fdc-serve` work this way.
//! * **Persistent connections** (keep-alive) — wrap the stream in a
//!   [`Connection`], which owns a connection-scoped read buffer, so
//!   bytes that arrive past one request's body (a pipelined next
//!   request) are kept for the next [`Connection::read_request`]
//!   instead of being dropped. Between requests,
//!   [`Connection::await_request`] waits for the next request's first
//!   byte in slices of at most [`IDLE_SLICE`], bounded by the idle
//!   limit the caller passes (its read timeout), and gives up early
//!   when the caller asks it to. It only *peeks*, so a connection
//!   closed while idle has consumed no byte of an unanswered request:
//!   a client may safely retry, once and on a fresh connection, a
//!   request that failed on a reused connection before any response
//!   byte arrived — even a non-idempotent `POST`. A connection closes
//!   when the client asks ([`Request::wants_close`]: `Connection:
//!   close`, or HTTP/1.0), after a malformed request, or when the
//!   server decides so while idle; the response carries `Connection:
//!   close` exactly when the server will close after it.
//!
//! Every response goes out in one write (head and body in one buffer),
//! so a kept connection never stalls on Nagle's algorithm between the
//! head and the body.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Longest single wait of [`Connection::await_request`] before it asks
/// the caller whether to give up.
pub const IDLE_SLICE: Duration = Duration::from_millis(10);

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
    pub fn trace_context(&self) -> Option<crate::trace::TraceContext> {
        crate::trace::TraceContext::parse_traceparent(
            self.header(crate::trace::TRACEPARENT_HEADER)?,
        )
    }
}

/// Splits a request target into `(path, query)`.
pub fn split_target(target: &str) -> (&str, &str) {
    match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    }
}

/// Errors a request read can fail with — mapped to a status code by the
/// caller so the servers can answer malformed traffic uniformly.
#[derive(Debug)]
pub enum RequestError {
    /// Socket-level failure (timeout, reset, EOF mid-head).
    Io(std::io::Error),
    /// The request line or headers were not parseable HTTP/1.1.
    Malformed(&'static str),
    /// The declared `Content-Length` exceeds the caller's bound.
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

/// Reads one HTTP/1.1 request from `stream`: the head up to the blank
/// line, then exactly `Content-Length` body bytes (rejected beyond
/// `max_body`). `timeout` bounds every socket read. For a connection
/// that answers one request and closes; bytes past the body are
/// dropped.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    timeout: Duration,
) -> Result<Request, RequestError> {
    stream.set_read_timeout(Some(timeout))?;
    read_buffered(stream, &mut Vec::with_capacity(512), max_body)
}

/// Reads one request from `buf` (bytes already received) topped up from
/// `stream`, and removes exactly that request's bytes from `buf`.
fn read_buffered(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    max_body: usize,
) -> Result<Request, RequestError> {
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(buf) {
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
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(RequestError::Malformed("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(RequestError::Malformed("request line has no target"))?
        .to_string();
    let version = parts.next().unwrap_or("").to_string();
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
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

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A server-side persistent connection: the stream plus the bytes
/// received past the last request read from it (see the module doc).
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Connection {
    /// Wraps an accepted stream.
    pub fn new(stream: TcpStream) -> Connection {
        Connection {
            stream,
            buf: Vec::new(),
        }
    }

    /// Reads the next request: buffered bytes first, then the socket,
    /// `timeout` bounding every socket read. Bytes past the request's
    /// body stay buffered for the next call.
    pub fn read_request(
        &mut self,
        max_body: usize,
        timeout: Duration,
    ) -> Result<Request, RequestError> {
        self.stream.set_read_timeout(Some(timeout))?;
        read_buffered(&mut self.stream, &mut self.buf, max_body)
    }

    /// Waits up to `idle` for the next request's first byte, in slices
    /// of at most [`IDLE_SLICE`]; after each empty slice `give_up()` may
    /// end the wait early. `true` when a byte is buffered or readable;
    /// `false` when the peer closed, the socket failed, `idle` passed or
    /// the caller gave up. Never consumes a byte.
    pub fn await_request(&mut self, idle: Duration, mut give_up: impl FnMut() -> bool) -> bool {
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

    /// Writes a complete response in one write; `close` adds
    /// `Connection: close` and must be set exactly when the caller
    /// closes the connection after it.
    pub fn write_response(
        &mut self,
        status: &str,
        content_type: &str,
        body: &[u8],
        extra_headers: &[(&str, &str)],
        close: bool,
    ) -> std::io::Result<()> {
        self.stream.write_all(&encode_response(
            status,
            content_type,
            body,
            extra_headers,
            close,
        ))
    }

    /// Closes after a `Connection: close` response: see [`close_unread`].
    pub fn close(self, linger: Duration) {
        close_unread(self.stream, linger);
    }
}

/// Closes `stream` without discarding the response just written: shuts
/// the write side, then reads and drops whatever the client still sends
/// (bounded by `linger` and 4 MiB) until it closes. Closing with unread
/// bytes in the receive buffer would send a reset, and a reset makes
/// the client's kernel drop the response before the client reads it.
pub fn close_unread(mut stream: TcpStream, linger: Duration) {
    stream.shutdown(Shutdown::Write).ok();
    stream.set_read_timeout(Some(linger)).ok();
    let mut buf = [0u8; 8192];
    let mut total = 0usize;
    while let Ok(n) = stream.read(&mut buf) {
        if n == 0 {
            break;
        }
        total += n;
        if total > (4 << 20) {
            break;
        }
    }
}

/// Encodes a complete HTTP/1.1 response — status line,
/// `Content-Type`/`Content-Length`, `Connection: close` when `close`,
/// any `extra_headers`, the blank line and the body — into one buffer.
fn encode_response(
    status: &str,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
    close: bool,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    let connection = if close { "Connection: close\r\n" } else { "" };
    write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{connection}",
        body.len()
    )
    .expect("writing to a Vec cannot fail");
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n").expect("writing to a Vec cannot fail");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// Writes a complete HTTP/1.1 response with `Connection: close`,
/// `Content-Type`/`Content-Length` and any `extra_headers`, then the
/// body, in one write. `status` is the full status line tail, e.g.
/// `"200 OK"`.
pub fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    write_response_bytes(stream, status, content_type, body.as_bytes(), extra_headers)
}

/// [`write_response`] for binary payloads (e.g. WAL ship chunks): the
/// body goes out verbatim with its exact `Content-Length`, no string
/// conversion.
pub fn write_response_bytes(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    stream.write_all(&encode_response(
        status,
        content_type,
        body,
        extra_headers,
        true,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, TcpListener};

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
        let (mut stream, _) = listener.accept().unwrap();
        let result = read_request(&mut stream, 4096, Duration::from_millis(500));
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
        let kept = encode_response("200 OK", "text/plain", b"hi", &[("X-A", "1")], false);
        assert_eq!(
            kept,
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\nX-A: 1\r\n\r\nhi"
        );
        let closing = encode_response("200 OK", "text/plain", b"hi", &[], true);
        assert_eq!(
            closing,
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\nConnection: close\r\n\r\nhi"
        );
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
