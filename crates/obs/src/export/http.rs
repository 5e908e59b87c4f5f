//! A minimal std-only HTTP/1.1 exporter.
//!
//! [`ObsServer`] serves four fixed GET routes:
//!
//! | route          | body                                            |
//! |----------------|-------------------------------------------------|
//! | `/metrics`     | Prometheus text exposition of the registry      |
//! | `/healthz`     | `{"status":"ok"}`                               |
//! | `/events?n=N`  | last `N` journal events as a JSON array         |
//! | `/snapshot`    | the registry snapshot as JSON                   |
//!
//! It is the workspace's one server ([`crate::export::httpcore`]) with
//! a single worker, one request per connection and short read timeouts
//! — this is a scrape endpoint, not a web server. Each scrape is counted
//! under `obs.http.requests{path}`.

use crate::events::{journal, Event};
use crate::export::httpcore::{Connections, Handler, HttpServer, Request, Response, ServerConfig};
use crate::export::prom::encode_prometheus;
use crate::metrics::registry;
use crate::names;
use std::net::SocketAddr;
use std::time::Duration;

/// Default number of events returned by `/events` without a `n=` query.
const DEFAULT_EVENT_COUNT: usize = 64;

/// The running exporter. Dropping (or calling [`ObsServer::shutdown`])
/// stops the server and joins its threads.
pub struct ObsServer {
    http: HttpServer<Exporter>,
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("addr", &self.addr())
            .finish()
    }
}

impl ObsServer {
    /// Binds `127.0.0.1:port` (`port` 0 picks an ephemeral port) and
    /// starts serving on background threads.
    pub fn bind(port: u16) -> std::io::Result<ObsServer> {
        let config = ServerConfig {
            name: "fdc-obs-http",
            workers: 1,
            queue_depth: 64,
            deadline: Duration::from_secs(5),
            // The exporter accepts no bodies; 1 KiB covers any scrape.
            max_body: 1024,
            read_timeout: Duration::from_millis(500),
            trace_sample: 0.0,
            metrics: None,
        };
        let http = HttpServer::start(port, Connections::OneRequest, config, |_| Exporter)?;
        journal().publish(Event::ServeStart {
            addr: http.addr().to_string(),
        });
        Ok(ObsServer { http })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr().port()
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(mut self) {
        self.http.shutdown();
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.http.shutdown();
    }
}

/// Parses `n=<count>` out of a query string, tolerating other params.
fn parse_event_count(query: &str) -> usize {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("n="))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEFAULT_EVENT_COUNT)
}

/// The exporter's route table.
struct Exporter;

impl Handler for Exporter {
    fn handle(&self, request: &Request, _remaining: Duration) -> Response {
        if request.method != "GET" {
            return Response::new("method", 405, "text/plain", "only GET is supported\n")
                .with_header("Allow", "GET");
        }
        let (path, query) = request.path_query();
        // One bounded-cardinality label: the route (or "other" for misses).
        let route = match path {
            "/metrics" => "/metrics",
            "/healthz" => "/healthz",
            "/events" => "/events",
            "/snapshot" => "/snapshot",
            _ => "other",
        };
        registry()
            .counter_with(names::OBS_HTTP_REQUESTS, &[("path", route)])
            .incr();
        let json = "application/json";
        match route {
            "/metrics" => Response::new(
                route,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                encode_prometheus(&registry().snapshot()),
            ),
            "/healthz" => Response::new(route, 200, json, "{\"status\":\"ok\"}\n"),
            "/events" => Response::new(
                route,
                200,
                json,
                journal().recent_json(parse_event_count(query)),
            ),
            "/snapshot" => Response::new(route, 200, json, registry().snapshot().to_json()),
            _ => Response::new(route, 404, "text/plain", "not found\n"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// Raw one-shot HTTP GET against the server, returning the full
    /// response (head + body).
    fn get(addr: SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_healthz_and_404() {
        let server = ObsServer::bind(0).unwrap();
        let addr = server.addr();
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains("{\"status\":\"ok\"}"), "{health}");
        let missing = get(addr, "/no-such-route");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        server.shutdown();
    }

    #[test]
    fn parse_event_count_tolerates_garbage() {
        assert_eq!(parse_event_count(""), DEFAULT_EVENT_COUNT);
        assert_eq!(parse_event_count("n=12"), 12);
        assert_eq!(parse_event_count("a=b&n=3"), 3);
        assert_eq!(parse_event_count("n=x"), DEFAULT_EVENT_COUNT);
    }
}
