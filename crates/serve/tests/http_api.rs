//! Route-level integration tests: every endpoint over a real socket,
//! plus the two admission-control rejections (`429` queue-full, `503`
//! deadline) provoked deterministically with artificially slow queries.

mod common;

use common::{base_dims, full_round_body, http, row_json, small_db};
use fdc_forecast::FitOptions;
use fdc_serve::{ServeOptions, Server};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn routes_answer_over_a_real_socket() {
    let db = small_db();
    let dims = base_dims(&db);
    let len_before = db.dataset().series_len();
    let server = Server::start(
        Arc::clone(&db),
        0,
        ServeOptions {
            max_body: 64 * 1024,
            coalesce_window: Duration::from_millis(1),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Health and stats.
    let r = http(addr, "GET", "/healthz", "").unwrap();
    assert_eq!((r.status, r.body.as_str()), (200, "{\"status\":\"ok\"}"));
    let r = http(addr, "GET", "/stats", "").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"series_len\""), "{}", r.body);

    // Forecast query.
    let r = http(
        addr,
        "POST",
        "/query",
        r#"{"sql": "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '3 quarters'"}"#,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.starts_with("{\"rows\":[{\"node\":"), "{}", r.body);
    assert!(r.body.contains("\"values\":[[32,"), "{}", r.body);

    // Explain, static and analyzed.
    let r = http(
        addr,
        "POST",
        "/explain",
        r#"{"sql": "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '2 quarters'"}"#,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"analyzed\":false"), "{}", r.body);
    assert!(r.body.contains("\"scheme\":"), "{}", r.body);
    let r = http(
        addr,
        "POST",
        "/explain",
        r#"{"sql": "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '2 quarters'", "analyze": true}"#,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"analyzed\":true"), "{}", r.body);
    assert!(r.body.contains("\"elapsed_ns\":"), "{}", r.body);

    // Single-row insert: acknowledged but no advance yet.
    let r = http(addr, "POST", "/insert", &row_json(&dims[0], 42.0)).unwrap();
    assert_eq!((r.status, r.body.as_str()), (202, "{\"accepted\":1}"));
    assert_eq!(db.pending_inserts(), 1);

    // Batch insert completing the round: the time stamp advances.
    let rest: Vec<String> = dims[1..].iter().map(|d| row_json(d, 42.0)).collect();
    let r = http(
        addr,
        "POST",
        "/insert",
        &format!("{{\"rows\":[{}]}}", rest.join(",")),
    )
    .unwrap();
    assert_eq!(r.status, 202, "{}", r.body);
    assert_eq!(db.dataset().series_len(), len_before + 1);
    assert_eq!(db.pending_inserts(), 0);

    // A full round in one request advances again.
    let r = http(addr, "POST", "/insert", &full_round_body(&dims, 43.0)).unwrap();
    assert_eq!(r.status, 202);
    assert_eq!(db.dataset().series_len(), len_before + 2);

    // Maintain.
    let r = http(addr, "POST", "/maintain", "").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body.starts_with("{\"refitted\":"), "{}", r.body);

    // Error paths.
    let r = http(addr, "POST", "/query", "{not json").unwrap();
    assert_eq!(r.status, 400);
    let r = http(addr, "POST", "/query", r#"{"sql": "SELECT nonsense"}"#).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("error"), "{}", r.body);
    let r = http(addr, "POST", "/insert", r#"{"rows": []}"#).unwrap();
    assert_eq!(r.status, 400);
    let r = http(
        addr,
        "POST",
        "/insert",
        r#"{"dims": ["nope", "NSW"], "value": 1.0}"#,
    )
    .unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    let r = http(addr, "GET", "/no/such/route", "").unwrap();
    assert_eq!(r.status, 404);
    let r = http(addr, "GET", "/query", "").unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("POST"));
    let r = http(addr, "POST", "/stats", "").unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("GET"));
    let oversized = format!("{{\"sql\": \"{}\"}}", "x".repeat(80 * 1024));
    let r = http(addr, "POST", "/query", &oversized).unwrap();
    assert_eq!(r.status, 413);

    // Batch metrics: the full-round request committed all its rows in
    // one engine commit — more than one row per advance-lock trip.
    let stats = db.stats();
    assert!(stats.insert_batches >= 2);
    assert!(stats.inserts / stats.insert_batches > 1);

    // After real traffic, /stats carries digest-backed per-route
    // latency quantiles and a drift summary (null: monitoring is off).
    let r = http(addr, "GET", "/stats", "").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"latency\":{"), "{}", r.body);
    assert!(r.body.contains("\"query\":{\"count\":"), "{}", r.body);
    assert!(r.body.contains("\"p999\":"), "{}", r.body);
    assert!(r.body.contains("\"drift\":null"), "{}", r.body);

    let report = server.shutdown().unwrap();
    assert_eq!(report.flushed_rows, 0);
    assert!(!report.saved_catalog);
}

#[test]
fn metrics_route_serves_the_registry_exposition() {
    let server = Server::start(small_db(), 0, ServeOptions::default()).unwrap();
    let addr = server.addr();
    let r = http(
        addr,
        "POST",
        "/query",
        r#"{"sql": "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '1 quarter'"}"#,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);

    let r = http(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("content-type"), Some("text/plain; version=0.0.4"));
    assert_eq!(r.header("connection"), Some("close"));
    assert!(
        r.body.contains("# TYPE serve_request_ns histogram"),
        "{}",
        r.body
    );
    assert!(
        r.body.contains("serve_request_ns_count{route=\"query\"}"),
        "{}",
        r.body
    );
    let r = http(addr, "POST", "/metrics", "").unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("GET"));
    server.shutdown().unwrap();
}

/// A database whose queries are artificially slow: every model is
/// invalid and each lazy re-fit stalls, so one `/query` holds a worker
/// for hundreds of milliseconds — long enough to fill a depth-1 queue
/// deterministically.
fn slow_db(stall_us: u64) -> Arc<fdc_f2db::F2db> {
    Arc::new(common::small_db_raw().with_fit_options(FitOptions {
        artificial_stall_us: stall_us,
        ..FitOptions::default()
    }))
}

const SLOW_QUERY: &str =
    r#"{"sql": "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '1 quarter'"}"#;

#[test]
fn queue_overflow_answers_429_with_retry_after() {
    let db = slow_db(400_000);
    let server = Server::start(
        Arc::clone(&db),
        0,
        ServeOptions {
            workers: 1,
            queue_depth: 1,
            deadline: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    db.invalidate_all();
    // First request: picked up by the only worker, stalls in lazy
    // re-estimation.
    let first = std::thread::spawn(move || http(addr, "POST", "/query", SLOW_QUERY).unwrap());
    std::thread::sleep(Duration::from_millis(150));
    // Second request: sits in the (now full) queue.
    let second = std::thread::spawn(move || http(addr, "POST", "/query", SLOW_QUERY).unwrap());
    std::thread::sleep(Duration::from_millis(100));
    // Third request: queue full → immediate 429 from the accept thread.
    let r = http(addr, "POST", "/query", SLOW_QUERY).unwrap();
    assert_eq!(r.status, 429, "{}", r.body);
    assert_eq!(r.header("retry-after"), Some("1"));

    assert_eq!(first.join().unwrap().status, 200);
    assert_eq!(second.join().unwrap().status, 200);
    server.shutdown().unwrap();
}

#[test]
fn stale_queued_request_answers_503() {
    let db = slow_db(500_000);
    let server = Server::start(
        Arc::clone(&db),
        0,
        ServeOptions {
            workers: 1,
            queue_depth: 8,
            deadline: Duration::from_millis(200),
            // The oracle below counts engine query executions; keep the
            // slow log's auto-`EXPLAIN ANALYZE` (which re-runs the
            // statement) out of the tally.
            slow_threshold: Duration::MAX,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    db.invalidate_all();
    // Occupy the only worker for well over the deadline.
    let first = std::thread::spawn(move || http(addr, "POST", "/query", SLOW_QUERY).unwrap());
    std::thread::sleep(Duration::from_millis(100));
    // This one will wait in the queue longer than the deadline and must
    // be answered 503 without running the query.
    let queries_before = db.stats().queries;
    let r = http(addr, "POST", "/query", SLOW_QUERY).unwrap();
    assert_eq!(r.status, 503, "{}", r.body);
    let first = first.join().unwrap();
    assert_eq!(first.status, 200);
    // The 503 request never reached the query processor.
    assert_eq!(db.stats().queries, queries_before + 1);
    server.shutdown().unwrap();
}
