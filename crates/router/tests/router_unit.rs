//! Router behavior against scripted fake shards: backpressure
//! forwarding (`Retry-After` survives the hop instead of collapsing
//! into an opaque 502), `traceparent` propagation on every shard call,
//! `/healthz` quorum transitions with their journal events, persistent
//! client connections and their close rules, and the scatter of empty,
//! single-group and two-group plans.

use fdc_router::{Router, RouterOptions, ShardSpec, Topology};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU16, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Scripted `200` answers: given a raw request, the body to answer
/// with, or `None` for the shard's default answer.
type Routes = Arc<dyn Fn(&str) -> Option<String> + Send + Sync>;

/// A scripted shard: answers every request its [`Routes`] do not
/// script with the current status (plus an optional `Retry-After`) and
/// records the raw requests it saw.
struct FakeShard {
    addr: SocketAddr,
    status: Arc<AtomicU16>,
    requests: Arc<Mutex<Vec<String>>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FakeShard {
    fn start(status: u16, retry_after: Option<&str>) -> FakeShard {
        FakeShard::with_routes(status, retry_after, Arc::new(|_: &str| None))
    }

    fn with_routes(status: u16, retry_after: Option<&str>, routes: Routes) -> FakeShard {
        FakeShard::serve(bind(), status, retry_after, routes)
    }

    fn serve(
        listener: TcpListener,
        status: u16,
        retry_after: Option<&str>,
        routes: Routes,
    ) -> FakeShard {
        let addr = listener.local_addr().unwrap();
        let status = Arc::new(AtomicU16::new(status));
        let requests = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let retry_after = retry_after.map(str::to_string);
        let handle = {
            let (status, requests, stop) = (status.clone(), requests.clone(), stop.clone());
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(mut stream) = stream else { continue };
                    stream
                        .set_read_timeout(Some(Duration::from_millis(500)))
                        .ok();
                    let raw = read_http_request(&mut stream).unwrap_or_default();
                    let scripted = routes(&raw);
                    requests.lock().unwrap().push(raw);
                    let status = match scripted {
                        Some(_) => 200,
                        None => status.load(Ordering::SeqCst),
                    };
                    let body = match scripted {
                        Some(body) => body,
                        None if status < 400 => "{\"status\":\"ok\"}".to_string(),
                        None => "{\"error\":\"shard overloaded\"}".to_string(),
                    };
                    let retry = retry_after
                        .as_deref()
                        .map(|v| format!("Retry-After: {v}\r\n"))
                        .unwrap_or_default();
                    stream
                        .write_all(
                            format!(
                                "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n\
                                 {retry}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                                body.len()
                            )
                            .as_bytes(),
                        )
                        .ok();
                }
            })
        };
        FakeShard {
            addr,
            status,
            requests,
            stop,
            handle: Some(handle),
        }
    }

    fn saw_request_containing(&self, needle: &str) -> bool {
        self.count_requests_containing(needle) > 0
    }

    fn count_requests_containing(&self, needle: &str) -> usize {
        self.requests
            .lock()
            .unwrap()
            .iter()
            .filter(|r| r.contains(needle))
            .count()
    }
}

impl Drop for FakeShard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(self.addr));
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

fn bind() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").unwrap()
}

fn read_http_request(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    break pos + 4;
                }
                if buf.len() > 1 << 20 {
                    return None;
                }
            }
            Err(_) => return None,
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (n, v) = l.split_once(':')?;
            n.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    while buf.len() < head_end + content_length {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    Some(String::from_utf8_lossy(&buf).into_owned())
}

fn topology_of(shards: &[(&str, SocketAddr)]) -> Topology {
    Topology {
        version: 1,
        key_dims: 1,
        shards: shards
            .iter()
            .map(|(id, addr)| ShardSpec {
                id: id.to_string(),
                addr: addr.to_string(),
                replica: None,
            })
            .collect(),
    }
}

fn router_http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> fdc_router::client::ShardResponse {
    fdc_router::client::request(
        &addr.to_string(),
        method,
        path,
        body,
        Duration::from_secs(10),
    )
    .expect("router answers")
}

#[test]
fn insert_forwards_shard_backpressure_with_retry_after() {
    let shard = FakeShard::start(503, Some("7"));
    let router = Router::start(
        topology_of(&[("bp-insert", shard.addr)]),
        0,
        RouterOptions {
            probe_interval: Duration::from_secs(3600),
            ..RouterOptions::default()
        },
    )
    .unwrap();

    let resp = router_http(
        router.addr(),
        "POST",
        "/insert",
        Some("{\"dims\":[\"k\"],\"value\":1.5}"),
    );
    assert_eq!(resp.status, 503);
    assert_eq!(
        resp.header("retry-after"),
        Some("7"),
        "shard Retry-After was not forwarded"
    );
    let text = resp.text();
    assert!(
        text.contains("partial write failure") && text.contains("shard overloaded"),
        "not the typed partial-failure answer: {text}"
    );
    router.shutdown();
}

#[test]
fn query_forwards_plan_backpressure_and_propagates_traceparent() {
    let shard = FakeShard::start(429, Some("3"));
    let router = Router::start(
        topology_of(&[("bp-query", shard.addr)]),
        0,
        RouterOptions {
            probe_interval: Duration::from_secs(3600),
            ..RouterOptions::default()
        },
    )
    .unwrap();

    let resp = router_http(
        router.addr(),
        "POST",
        "/query",
        Some("{\"sql\":\"SELECT time, v FROM facts AS OF now() + '1 quarter'\"}"),
    );
    assert_eq!(resp.status, 429);
    assert_eq!(
        resp.header("retry-after"),
        Some("3"),
        "planning shard's Retry-After was not forwarded"
    );

    // The router minted a trace at ingress and carried it on the shard
    // hop: the /plan request the fake saw has a traceparent header.
    assert!(
        shard.saw_request_containing("/plan"),
        "router never asked the shard to plan"
    );
    assert!(
        shard.saw_request_containing("traceparent: 00-"),
        "shard hop carried no traceparent"
    );
    router.shutdown();
}

#[test]
fn healthz_tracks_quorum_transitions() {
    let shard_a = FakeShard::start(200, None);
    let shard_b = FakeShard::start(200, None);
    let router = Router::start(
        topology_of(&[("quorum-a", shard_a.addr), ("quorum-b", shard_b.addr)]),
        0,
        RouterOptions {
            probe_interval: Duration::from_millis(50),
            ..RouterOptions::default()
        },
    )
    .unwrap();
    let await_health = |status: u16| {
        for _ in 0..100 {
            if router_http(router.addr(), "GET", "/healthz", None).status == status {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("/healthz never reached {status}");
    };

    await_health(200);

    // One of two shards failing breaks the majority quorum...
    shard_b.status.store(500, Ordering::SeqCst);
    await_health(503);
    let text = router_http(router.addr(), "GET", "/healthz", None).text();
    assert!(
        text.contains("\"degraded\""),
        "not the degraded body: {text}"
    );

    // ...and recovery restores it.
    shard_b.status.store(200, Ordering::SeqCst);
    await_health(200);

    let events = fdc_obs::journal().recent(256);
    let down = events
        .iter()
        .filter(
            |e| matches!(&e.event, fdc_obs::Event::ShardDown { shard, .. } if shard == "quorum-b"),
        )
        .count();
    let up = events
        .iter()
        .filter(|e| {
            matches!(&e.event, fdc_obs::Event::ShardRecovered { shard, .. } if shard == "quorum-b")
        })
        .count();
    assert!(down >= 1, "no ShardDown event for the failed shard");
    assert!(up >= 1, "no ShardRecovered event after recovery");
    router.shutdown();
}

// ---------------------------------------------------------------------------
// Persistent client connections and the scatter
// ---------------------------------------------------------------------------

/// A planning shard: `POST /plan` answers `sites` (each `(node, key)`),
/// and `POST /query` answers a row per requested node, in descending
/// node order so reassembly in plan order is observable.
fn planner_routes(sites: &[(u64, &str)]) -> Routes {
    let sites: Vec<(u64, String)> = sites.iter().map(|(n, k)| (*n, k.to_string())).collect();
    Arc::new(move |raw: &str| {
        if raw.starts_with("POST /plan ") {
            let sites: Vec<String> = sites
                .iter()
                .map(|(node, key)| {
                    format!("{{\"node\":{node},\"label\":\"n{node}\",\"keys\":[\"{key}\"]}}")
                })
                .collect();
            return Some(format!("{{\"sites\":[{}]}}", sites.join(",")));
        }
        if raw.starts_with("POST /query ") {
            let list = raw.split_once("\"nodes\":[")?.1.split_once(']')?.0;
            let mut nodes: Vec<u64> = list.split(',').filter_map(|n| n.parse().ok()).collect();
            nodes.sort_unstable_by(|a, b| b.cmp(a));
            let rows: Vec<String> = nodes
                .iter()
                .map(|n| format!("{{\"node\":{n},\"label\":\"n{n}\",\"values\":[{n}.5]}}"))
                .collect();
            return Some(format!("{{\"horizon\":1,\"rows\":[{}]}}", rows.join(",")));
        }
        None
    })
}

fn quiet_options() -> RouterOptions {
    RouterOptions {
        probe_interval: Duration::from_secs(3600),
        ..RouterOptions::default()
    }
}

/// The raw bytes of one HTTP request with a JSON body.
fn raw_request(method: &str, path: &str, body: &str, extra: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n{extra}\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One response read off a kept connection: status code, lower-cased
/// headers and body.
struct Answer {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Answer {
    fn closes(&self) -> bool {
        self.headers
            .iter()
            .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"))
    }
}

/// Reads exactly one response (by its `Content-Length`) so the
/// connection stays usable for the next.
fn read_answer(reader: &mut BufReader<TcpStream>) -> Answer {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut headers = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(':').expect("header has a colon");
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse().unwrap())
        .expect("content-length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    Answer {
        status,
        headers,
        body: String::from_utf8(body).unwrap(),
    }
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    BufReader::new(stream)
}

/// `true` once the server has closed the connection (EOF or reset).
fn server_closed(reader: &mut BufReader<TcpStream>) -> bool {
    let mut byte = [0u8; 1];
    matches!(reader.read(&mut byte), Ok(0) | Err(_))
}

const SINGLE_GROUP: &[(u64, &str)] = &[(7, "k"), (3, "k"), (5, "k")];

#[test]
fn kept_connection_answers_100_requests_like_fresh_connections() {
    let shard = FakeShard::with_routes(200, None, planner_routes(SINGLE_GROUP));
    let router = Router::start(topology_of(&[("ka", shard.addr)]), 0, quiet_options()).unwrap();
    let queries: Vec<String> = (0..4)
        .map(|i| format!("{{\"sql\":\"SELECT time, v FROM facts AS OF now() + '{i} steps'\"}}"))
        .collect();
    let fresh: Vec<(u16, String)> = queries
        .iter()
        .map(|q| {
            let r = router_http(router.addr(), "POST", "/query", Some(q));
            (r.status, r.text())
        })
        .collect();
    assert_eq!(fresh[0].0, 200, "{}", fresh[0].1);

    let mut conn = connect(router.addr());
    for i in 0..100 {
        let q = &queries[i % queries.len()];
        conn.get_mut()
            .write_all(&raw_request("POST", "/query", q, ""))
            .unwrap();
        let answer = read_answer(&mut conn);
        assert!(!answer.closes(), "request {i} closed the kept connection");
        assert_eq!(
            (answer.status, answer.body),
            fresh[i % queries.len()],
            "request {i} answered differently on a kept connection"
        );
    }
    router.shutdown();
}

#[test]
fn connection_close_and_http_1_0_are_honoured() {
    let shard = FakeShard::start(200, None);
    let router = Router::start(topology_of(&[("cc", shard.addr)]), 0, quiet_options()).unwrap();
    let mut asked = connect(router.addr());
    asked
        .get_mut()
        .write_all(&raw_request(
            "GET",
            "/topology",
            "",
            "Connection: close\r\n",
        ))
        .unwrap();
    let answer = read_answer(&mut asked);
    assert_eq!(answer.status, 200);
    assert!(answer.closes(), "no Connection: close on the last answer");
    assert!(
        server_closed(&mut asked),
        "router kept an asked-to-close connection"
    );

    let mut old = connect(router.addr());
    old.get_mut()
        .write_all(b"GET /topology HTTP/1.0\r\nHost: t\r\n\r\n")
        .unwrap();
    let answer = read_answer(&mut old);
    assert_eq!(answer.status, 200);
    assert!(
        answer.closes(),
        "HTTP/1.0 answer does not announce the close"
    );
    assert!(
        server_closed(&mut old),
        "router kept an HTTP/1.0 connection"
    );

    // A malformed request is answered, then the connection closes.
    let mut bad = connect(router.addr());
    bad.get_mut().write_all(b"GET\r\n\r\n").unwrap();
    let answer = read_answer(&mut bad);
    assert_eq!(answer.status, 400);
    assert!(answer.closes() && server_closed(&mut bad));
    router.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let shard = FakeShard::with_routes(200, None, planner_routes(SINGLE_GROUP));
    let router = Router::start(topology_of(&[("pl", shard.addr)]), 0, quiet_options()).unwrap();
    let mut conn = connect(router.addr());
    let mut wire = raw_request(
        "POST",
        "/query",
        "{\"sql\":\"SELECT time, v FROM facts AS OF now() + '1 step'\"}",
        "",
    );
    wire.extend(raw_request("GET", "/topology", "", ""));
    wire.extend(raw_request("POST", "/nowhere", "{}", ""));
    conn.get_mut().write_all(&wire).unwrap();
    let first = read_answer(&mut conn);
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(
        first.body.starts_with("{\"horizon\":1,\"rows\":["),
        "{}",
        first.body
    );
    let second = read_answer(&mut conn);
    assert_eq!(second.status, 200);
    assert!(second.body.contains("\"shards\""), "{}", second.body);
    let third = read_answer(&mut conn);
    assert_eq!(third.status, 404);
    assert!(!third.closes());
    router.shutdown();
}

#[test]
fn idle_kept_connection_does_not_starve_a_second_client() {
    let shard = FakeShard::start(200, None);
    let read_timeout = Duration::from_secs(5);
    let router = Router::start(
        topology_of(&[("idle", shard.addr)]),
        0,
        RouterOptions {
            workers: 1,
            read_timeout,
            ..quiet_options()
        },
    )
    .unwrap();
    let mut idle = connect(router.addr());
    idle.get_mut()
        .write_all(&raw_request("GET", "/topology", "", ""))
        .unwrap();
    assert_eq!(read_answer(&mut idle).status, 200);

    // The only worker now waits on `idle`; a second client must still
    // be answered, well inside the idle bound.
    let started = Instant::now();
    let mut second = connect(router.addr());
    second
        .get_mut()
        .write_all(&raw_request("GET", "/topology", "", ""))
        .unwrap();
    assert_eq!(read_answer(&mut second).status, 200);
    let waited = started.elapsed();
    assert!(
        waited < read_timeout / 4,
        "second client waited {waited:?} behind an idle connection"
    );
    // The idle connection was closed without an answer to anything.
    assert!(server_closed(&mut idle));
    router.shutdown();
}

#[test]
fn busy_kept_connection_yields_to_a_waiting_client() {
    // Planning takes a while, so the second client queues up while the
    // only worker is still answering the first.
    let slow = planner_routes(SINGLE_GROUP);
    let shard = FakeShard::with_routes(
        200,
        None,
        Arc::new(move |raw: &str| {
            if raw.starts_with("POST /plan ") {
                std::thread::sleep(Duration::from_millis(300));
            }
            slow(raw)
        }),
    );
    let router = Router::start(
        topology_of(&[("busy", shard.addr)]),
        0,
        RouterOptions {
            workers: 1,
            ..quiet_options()
        },
    )
    .unwrap();
    let mut busy = connect(router.addr());
    busy.get_mut()
        .write_all(&raw_request(
            "POST",
            "/query",
            "{\"sql\":\"SELECT time, v FROM facts AS OF now() + '1 step'\"}",
            "",
        ))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let mut second = connect(router.addr());
    second
        .get_mut()
        .write_all(&raw_request("GET", "/topology", "", ""))
        .unwrap();
    let answer = read_answer(&mut busy);
    assert_eq!(answer.status, 200, "{}", answer.body);
    assert!(
        answer.closes(),
        "a waiting client did not end the kept connection"
    );
    assert!(server_closed(&mut busy));
    assert_eq!(read_answer(&mut second).status, 200);
    router.shutdown();
}

#[test]
fn shutdown_with_an_idle_kept_connection_returns_promptly() {
    let shard = FakeShard::start(200, None);
    let router = Router::start(
        topology_of(&[("drain", shard.addr)]),
        0,
        RouterOptions {
            read_timeout: Duration::from_secs(10),
            ..quiet_options()
        },
    )
    .unwrap();
    let mut idle = connect(router.addr());
    idle.get_mut()
        .write_all(&raw_request("GET", "/topology", "", ""))
        .unwrap();
    assert_eq!(read_answer(&mut idle).status, 200);
    let started = Instant::now();
    router.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    assert!(server_closed(&mut idle));
}

#[test]
fn empty_single_group_and_two_group_plans_route_correctly() {
    // Empty plan: no shard call, an empty rows array.
    let empty = FakeShard::with_routes(200, None, planner_routes(&[]));
    let router = Router::start(topology_of(&[("e", empty.addr)]), 0, quiet_options()).unwrap();
    let q = "{\"sql\":\"SELECT time, v FROM facts AS OF now() + '1 step'\"}";
    let resp = router_http(router.addr(), "POST", "/query", Some(q));
    assert_eq!((resp.status, resp.text().as_str()), (200, "{\"rows\":[]}"));
    assert_eq!(empty.count_requests_containing("POST /query "), 0);
    router.shutdown();

    // One group: one shard call carrying every node, rows in plan order.
    let one = FakeShard::with_routes(200, None, planner_routes(SINGLE_GROUP));
    let router = Router::start(topology_of(&[("o", one.addr)]), 0, quiet_options()).unwrap();
    let resp = router_http(router.addr(), "POST", "/query", Some(q));
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(
        resp.text(),
        "{\"horizon\":1,\"rows\":[{\"node\":7,\"label\":\"n7\",\"values\":[7.5]},\
         {\"node\":3,\"label\":\"n3\",\"values\":[3.5]},\
         {\"node\":5,\"label\":\"n5\",\"values\":[5.5]}]}"
    );
    assert_eq!(one.count_requests_containing("POST /query "), 1);
    assert!(one.saw_request_containing("\"nodes\":[7,3,5]"));
    router.shutdown();

    // Two groups: keys placed on different shards, rows interleaved
    // back into plan order. The first group is the one the worker runs.
    let (la, lb) = (bind(), bind());
    let topology = topology_of(&[
        ("two-a", la.local_addr().unwrap()),
        ("two-b", lb.local_addr().unwrap()),
    ]);
    let key_on = |id: &str| {
        (0..)
            .map(|i| format!("k{i}"))
            .find(|k| topology.place(k).id == id)
            .unwrap()
    };
    let (ka, kb) = (key_on("two-b"), key_on("two-a"));
    let sites = [
        (1, ka.as_str()),
        (2, kb.as_str()),
        (3, ka.as_str()),
        (4, kb.as_str()),
    ];
    let a = FakeShard::serve(la, 200, None, planner_routes(&sites));
    let b = FakeShard::serve(lb, 200, None, planner_routes(&sites));
    let router = Router::start(topology, 0, quiet_options()).unwrap();
    let resp = router_http(router.addr(), "POST", "/query", Some(q));
    let rows: Vec<String> = (1..=4)
        .map(|n| format!("{{\"node\":{n},\"label\":\"n{n}\",\"values\":[{n}.5]}}"))
        .collect();
    assert_eq!(
        (resp.status, resp.text()),
        (
            200,
            format!("{{\"horizon\":1,\"rows\":[{}]}}", rows.join(","))
        )
    );
    assert!(b.saw_request_containing("\"nodes\":[1,3]"));
    assert!(a.saw_request_containing("\"nodes\":[2,4]"));
    assert_eq!(a.count_requests_containing("POST /query "), 1);
    assert_eq!(b.count_requests_containing("POST /query "), 1);
    router.shutdown();
}

#[test]
fn forwarded_shard_conflict_keeps_its_status_line() {
    // A read-only follower answers a write `409`; the router forwards
    // the status, and its status line must name it, not a generic 500.
    let shard = FakeShard::start(409, None);
    let router =
        Router::start(topology_of(&[("conflict", shard.addr)]), 0, quiet_options()).unwrap();
    let mut conn = connect(router.addr());
    conn.get_mut()
        .write_all(&raw_request(
            "POST",
            "/insert",
            "{\"dims\":[\"k\"],\"value\":1.5}",
            "Connection: close\r\n",
        ))
        .unwrap();
    let mut status_line = String::new();
    conn.read_line(&mut status_line).unwrap();
    assert_eq!(status_line, "HTTP/1.1 409 Conflict\r\n");
    router.shutdown();
}
