//! # fdc-serve — the network forecast-serving subsystem
//!
//! Wraps an embedded [`F2db`] in a small, std-only HTTP/1.1 server so a
//! deployed model configuration can be queried and maintained over the
//! network:
//!
//! * the server is the workspace's one [`fdc_obs::httpcore::HttpServer`]
//!   — accept thread, bounded connection queue answering `429` (with
//!   `Retry-After`) when full, a fixed worker pool from
//!   [`ServeOptions::workers`], the queued-deadline `503`, request
//!   reading (`400`/`413`), trace ingress, the
//!   `serve.http.requests{route,status}` counter and the
//!   `serve.request.ns{route}` latency histogram. It answers one request
//!   per connection: every answer carries `Connection: close`. This
//!   crate supplies the route table below as its handler;
//! * a **flusher thread** micro-batches writes: concurrent `POST
//!   /insert` requests deposit resolved rows into the [`Batcher`] and
//!   block; after one coalescing window the flusher commits everything
//!   deposited in a single [`F2db::insert_batch`] call, so `n`
//!   concurrent inserts cost one pass over the engine's write path
//!   instead of `n`. A `202 Accepted` is only sent *after* the commit.
//!
//! ## Routes
//!
//! | Route | Body | Answer |
//! |---|---|---|
//! | `POST /query` | `{"sql": "...", "nodes": [ids]?, "approx": {...}?}` | `200` forecast rows |
//! | `POST /explain` | `{"sql": "...", "analyze": bool?, "nodes": [ids]?, "approx": {...}?}` | `200` plan |
//! | `POST /insert` | `{"dims": [...], "value": v}` or `{"rows": [...]}` | `202` after commit |
//! | `POST /maintain` | — | `200` re-fit count |
//! | `POST /plan` | `{"sql": "...", "key_dims": n?}` | `200` per-node placement keys |
//! | `GET /sketch` | — | `200` binary mergeable-sketch bundle |
//! | `GET /stats` | — | `200` engine + server counters |
//! | `GET /metrics` | — | `200` Prometheus text exposition of the registry |
//! | `GET /healthz` | — | `200` (`503` on a lagging follower) |
//! | `GET /slow` | — | `200` slow-query journal (auto-`EXPLAIN` capture) |
//! | `GET /wal/fetch?after=N` | — | `200` binary ship chunk (primary side of replication) |
//! | `POST /promote` | `{"tail_wal_dir": "..."}?` | `200` promotion report (follower only) |
//!
//! ## Distributed tracing
//!
//! Every request runs under a [`fdc_obs::TraceContext`]: adopted from
//! the caller's `traceparent` header when present (malformed headers
//! are ignored and a fresh root is minted — a bad caller cannot break
//! ingress), otherwise minted at ingress with head sampling at
//! [`ServeOptions::trace_sample`]. Spans opened while the context is
//! active carry trace/span ids into the Chrome-trace export, the
//! insert path embeds the context into its WAL record so the
//! follower's apply joins the same trace, and the per-route latency
//! histograms record the trace id of the worst observation per window
//! as an OpenMetrics exemplar. Requests slower than
//! [`ServeOptions::slow_threshold`] are captured — with `EXPLAIN
//! ANALYZE` output for query routes and a WAL/batcher wait breakdown
//! for writes — into the bounded [`slow::SlowLog`] served at `GET
//! /slow`.
//!
//! ## Replication
//!
//! With [`ServeOptions::replica_of`] set the server runs as a
//! **read-only follower**: [`open_follower`] builds the engine from the
//! local log, a fetch loop ships the primary's WAL over `GET
//! /wal/fetch`, writes answer `409` with a redirect-to-the-primary
//! error, and `POST /promote` turns the follower into a writable
//! primary (see [`replica`] for the protocol and the promotion state
//! machine).
//!
//! ## Graceful drain
//!
//! [`Server::shutdown`] stops accepting, answers everything already
//! queued, joins the workers, commits any still-buffered insert rows,
//! runs [`F2db::maintain`], and — when a catalog path is configured —
//! persists the catalog (crash-safely) plus a *pending sidecar* holding
//! the rows of the incomplete next time stamp, so **every acknowledged
//! write survives a restart** ([`restore_pending`] re-applies the
//! sidecar after [`F2db::open_catalog`]). The drain is observable: a
//! `ServeShutdown` journal event records what was drained and flushed.
//!
//! ## Durability
//!
//! With [`ServeOptions::wal_dir`] set, [`open_engine`] attaches a
//! write-ahead log ([`fdc_wal`]) under the engine: an insert's `202` is
//! only sent after its rows are fsynced (group-committed — concurrent
//! requests coalesce into one fsync via the [`Batcher`] *and* one WAL
//! append), so acknowledged writes survive a SIGKILL, not just a
//! graceful drain. `save_catalog` then writes an `F2CK` checkpoint
//! container (catalog + base series + pending rows + WAL position) and
//! truncates the log behind it; on restart [`open_engine`] replays the
//! suffix. The legacy pending sidecar is consulted read-only, exactly
//! once, on the migration boot. `GET /stats` reports the log's
//! position under the `"wal"` key.

pub mod batcher;
pub mod json;
pub mod replica;
pub mod slow;

pub use batcher::{Batcher, DepositOutcome};
pub use replica::{open_follower, replica_marker_path, PromotionReport, Replica};
pub use slow::{SlowEntry, SlowLog};

use fdc_cube::NodeId;
use fdc_f2db::{ApproxQuerySpec, F2db, F2dbError, WalRecord};
use fdc_obs::httpcore::{
    Backlog, Connections, Handler, HttpServer, Request, Response, ServerConfig, ServerMetrics,
};
use fdc_obs::{journal, names, trace, Event, TraceContext};
use std::io::Read as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads answering requests.
    pub workers: usize,
    /// Bound on connections queued for a worker; beyond it the accept
    /// thread answers `429`.
    pub queue_depth: usize,
    /// How long the flusher lingers after the first deposited row so
    /// concurrent inserts coalesce into one engine commit.
    pub coalesce_window: Duration,
    /// Per-request deadline: time in the queue counts against it, and an
    /// insert waits at most this long for its flush.
    pub deadline: Duration,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// Socket read timeout while parsing a request.
    pub read_timeout: Duration,
    /// When set, [`Server::shutdown`] persists the catalog here and the
    /// pending rows next to it (see [`pending_sidecar_path`]).
    pub catalog_path: Option<PathBuf>,
    /// When set, [`open_engine`] attaches a write-ahead log in this
    /// directory: every acknowledged insert is durable *before* its
    /// `202`, and a SIGKILL loses nothing. Without it the server falls
    /// back to the graceful-drain-only contract.
    pub wal_dir: Option<PathBuf>,
    /// Whether the write-ahead log fsyncs (group-committed) before
    /// acknowledging. `false` trades the crash guarantee for speed —
    /// useful for benchmarks quantifying exactly that trade.
    pub wal_fsync: bool,
    /// When set, this server is a read-only follower replica of the
    /// primary at this address (`host:port`): [`open_follower`] builds
    /// the engine, a fetch loop ships the primary's WAL into
    /// [`ServeOptions::wal_dir`], and writes answer `409` until `POST
    /// /promote`.
    pub replica_of: Option<String>,
    /// How long the follower's fetch loop sleeps between polls once it
    /// is caught up (it drains without sleeping while behind).
    pub replica_poll: Duration,
    /// On a follower, `GET /healthz` degrades to `503` when replication
    /// lag exceeds this many sequences.
    pub replica_lag_bound: u64,
    /// Head-sampling rate for traces minted at ingress (requests
    /// arriving *with* a `traceparent` header keep the caller's
    /// sampling decision). `1.0` traces everything, `0.0` nothing.
    pub trace_sample: f64,
    /// Requests slower than this are captured into the slow-query log
    /// (`GET /slow`) with auto-`EXPLAIN` / wait-breakdown context.
    /// `Duration::ZERO` captures every request.
    pub slow_threshold: Duration,
    /// Bound on slow-query-log entries kept; the newest win.
    pub slow_log_cap: usize,
    /// When set, this server is one shard of a partitioned deployment
    /// and owns exactly these base nodes: [`open_engine`] applies
    /// [`F2db::with_base_partition`] *before* WAL replay (the replayed
    /// rows advance on the owned count), inserts for foreign bases
    /// answer `421 Misdirected Request`, and queries are limited to
    /// resident nodes. A router fronts several such shards.
    pub partition_bases: Option<Vec<NodeId>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            queue_depth: 64,
            coalesce_window: Duration::from_millis(2),
            deadline: Duration::from_secs(5),
            max_body: 1 << 20,
            read_timeout: Duration::from_secs(2),
            catalog_path: None,
            wal_dir: None,
            wal_fsync: true,
            replica_of: None,
            replica_poll: Duration::from_millis(10),
            replica_lag_bound: 10_000,
            trace_sample: 1.0,
            slow_threshold: Duration::from_millis(250),
            slow_log_cap: 64,
            partition_bases: None,
        }
    }
}

/// What the graceful drain accomplished, returned by
/// [`Server::shutdown`].
#[derive(Debug)]
pub struct ShutdownReport {
    /// The address the server was bound to.
    pub addr: SocketAddr,
    /// Queued requests answered after the listener stopped accepting.
    pub drained_requests: u64,
    /// Buffered insert rows committed by the final flush.
    pub flushed_rows: u64,
    /// Models re-estimated by the shutdown `maintain` pass.
    pub refitted: usize,
    /// Whether a catalog (and pending sidecar) was persisted.
    pub saved_catalog: bool,
    /// Rows of the incomplete next time stamp persisted — in the
    /// checkpoint container when a WAL is attached, in the sidecar
    /// otherwise.
    pub saved_pending_rows: usize,
    /// The WAL position the persisted checkpoint covers; `None` when no
    /// write-ahead log is attached.
    pub wal_checkpoint_seq: Option<u64>,
}

/// What [`open_engine`] recovered on the way to a servable engine.
#[derive(Debug)]
pub struct EngineRecovery {
    /// Whether a persisted catalog was found and opened (otherwise the
    /// caller's freshly configured engine was used).
    pub opened_catalog: bool,
    /// WAL replay report, when [`ServeOptions::wal_dir`] is set.
    pub wal: Option<fdc_f2db::RecoveryReport>,
    /// Rows re-applied from a legacy pending sidecar (migration only —
    /// once the WAL owns the rows the sidecar is never consulted again).
    pub sidecar_rows: usize,
    /// Whether a [`replica::REPLICA_MARKER`] was found in the WAL
    /// directory: the engine opened read-only and every write answers
    /// [`F2dbError::ReadOnly`] until the follower is promoted.
    pub replica_marker: bool,
}

/// Builds the engine a server should front, according to `opts`:
///
/// 1. when [`ServeOptions::catalog_path`] points at an existing file it
///    is opened (either format — a legacy plain catalog or an `F2CK`
///    checkpoint container) in place of the caller's `fresh` engine;
/// 2. when [`ServeOptions::wal_dir`] is set the write-ahead log there is
///    replayed and attached, so every previously acknowledged insert is
///    recovered and every future one is durable before its `202`;
/// 3. a legacy pending sidecar is re-applied **read-only and only while
///    the WAL is still empty** — the one migration boot. After that the
///    log (or the container) owns every acknowledged row, and replaying
///    the sidecar again would duplicate them.
pub fn open_engine(
    fresh: F2db,
    opts: &ServeOptions,
) -> Result<(Arc<F2db>, EngineRecovery), F2dbError> {
    let mut opened_catalog = false;
    let mut db = match &opts.catalog_path {
        Some(path) if path.exists() => {
            opened_catalog = true;
            F2db::open_catalog(fresh.dataset().clone(), path)?
        }
        _ => fresh,
    };
    // Partition before WAL replay: a shard's log only carries owned
    // rows, and replaying them must advance on the owned count.
    if let Some(owned) = &opts.partition_bases {
        db = db.with_base_partition(owned)?;
    }
    let wal = match &opts.wal_dir {
        Some(dir) => {
            let wal_opts = fdc_wal::WalOptions {
                fsync: opts.wal_fsync,
                ..fdc_wal::WalOptions::default()
            };
            let (recovered, report) = db.attach_wal(dir, wal_opts)?;
            db = recovered;
            Some(report)
        }
        None => None,
    };
    // The sidecar predates the WAL: it only carries rows neither the
    // log nor a checkpoint container has seen, which is exactly "the
    // log is empty and the catalog is the legacy format". Re-applying
    // it past that point would insert the rows a second time.
    let wal_is_fresh = wal.as_ref().is_none_or(|r| r.wal.last_seq == 0);
    let sidecar_rows = match &opts.catalog_path {
        Some(path) if wal_is_fresh && !catalog_is_container(path) => restore_pending(&db, path)?,
        _ => 0,
    };
    // A WAL directory still carrying a follower's REPLICA marker must
    // not come up writable: its log is a replicated prefix owned by the
    // promotion protocol, and writing past it here would fork history.
    // The engine serves reads; writes answer a typed ReadOnly error.
    let replica_marker = opts
        .wal_dir
        .as_deref()
        .is_some_and(|d| replica_marker_path(d).exists());
    if replica_marker {
        db.set_read_only(true);
    }
    Ok((
        Arc::new(db),
        EngineRecovery {
            opened_catalog,
            wal,
            sidecar_rows,
            replica_marker,
        },
    ))
}

/// The route table's state, shared by the workers and the flusher.
struct Shared {
    db: Arc<F2db>,
    opts: ServeOptions,
    /// The server's connection queue, reported by `/stats`.
    backlog: Backlog,
    batcher: Batcher,
    /// The slow-request ring behind `GET /slow`.
    slow: SlowLog,
    /// Present when this server fronts a follower replica; routes
    /// consult it for lag, write rejection and promotion.
    replica: Option<Arc<Replica>>,
}

/// The running server: a bound listener plus its thread pool. Stop it
/// with [`Server::shutdown`] — dropping without a shutdown leaks the
/// threads (they park on the queue) but keeps the process safe.
pub struct Server {
    http: HttpServer<Shared>,
    flusher_handle: Option<JoinHandle<(u64, u64)>>,
}

impl Server {
    /// Binds `127.0.0.1:port` (`0` picks an ephemeral port — read it
    /// back with [`Server::addr`]) and starts the accept thread, the
    /// worker pool and the insert flusher.
    pub fn start(db: Arc<F2db>, port: u16, opts: ServeOptions) -> std::io::Result<Server> {
        Server::start_inner(db, port, opts, None)
    }

    /// [`Server::start`] for a follower replica built by
    /// [`open_follower`]: the same worker pool, plus the replica state
    /// the routes consult (`/healthz` lag, write rejection, `POST
    /// /promote`).
    pub fn start_with_replica(
        db: Arc<F2db>,
        port: u16,
        opts: ServeOptions,
        replica: Arc<Replica>,
    ) -> std::io::Result<Server> {
        Server::start_inner(db, port, opts, Some(replica))
    }

    fn start_inner(
        db: Arc<F2db>,
        port: u16,
        opts: ServeOptions,
        replica: Option<Arc<Replica>>,
    ) -> std::io::Result<Server> {
        let config = ServerConfig {
            name: "fdc-serve",
            workers: opts.workers,
            queue_depth: opts.queue_depth,
            deadline: opts.deadline,
            max_body: opts.max_body,
            read_timeout: opts.read_timeout,
            trace_sample: opts.trace_sample,
            metrics: Some(ServerMetrics {
                requests: names::SERVE_REQUESTS,
                latency: names::SERVE_REQUEST_NS,
                rejected: Some(names::SERVE_REJECTED),
                queue_depth: Some(names::SERVE_QUEUE_DEPTH),
            }),
        };
        let slow = SlowLog::new(opts.slow_threshold, opts.slow_log_cap);
        // One request per connection: keep-alive saves CPU per query but
        // raised peak memory 37–62 % under the dashboard benchmark's
        // capacity phase (ROADMAP item 2).
        let http = HttpServer::start(port, Connections::OneRequest, config, |backlog| Shared {
            db,
            opts,
            backlog,
            batcher: Batcher::default(),
            slow,
            replica,
        })?;
        let shared = Arc::clone(http.handler());
        journal().publish(Event::ServeStart {
            addr: http.addr().to_string(),
        });
        let flusher_handle = std::thread::spawn(move || {
            shared
                .batcher
                .run_flusher(&shared.db, shared.opts.coalesce_window)
        });
        Ok(Server {
            http,
            flusher_handle: Some(flusher_handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The engine this server fronts.
    pub fn db(&self) -> &Arc<F2db> {
        &self.http.handler().db
    }

    /// The slow-query log backing `GET /slow` — the shell's `\slow`
    /// meta command reads it in-process instead of scraping itself.
    pub fn slow_log(&self) -> &SlowLog {
        &self.http.handler().slow
    }

    /// Gracefully drains and stops the server: stop accepting → answer
    /// every queued request → join the workers → commit buffered insert
    /// rows → `maintain` → persist catalog + pending sidecar (when
    /// configured) → publish the `ServeShutdown` journal event.
    pub fn shutdown(mut self) -> Result<ShutdownReport, F2dbError> {
        let addr = self.addr();
        let drained_requests = self.http.shutdown();
        let shared = Arc::clone(self.http.handler());
        // No depositor is left; whatever is still buffered commits now.
        let flushed_rows = shared.batcher.flush_once(&shared.db);
        shared.batcher.stop();
        if let Some(h) = self.flusher_handle.take() {
            h.join().expect("flusher thread panicked");
        }
        // An unpromoted follower stops its fetch loop and leaves its
        // state exactly as replicated: no maintain, no catalog save —
        // the local log *is* the state, and a restart replays it.
        if let Some(replica) = &shared.replica {
            replica.seal();
        }
        if shared.db.is_read_only() {
            journal().publish(Event::ServeShutdown {
                addr: addr.to_string(),
                drained_requests,
                flushed_rows,
            });
            return Ok(ShutdownReport {
                addr,
                drained_requests,
                flushed_rows,
                refitted: 0,
                saved_catalog: false,
                saved_pending_rows: 0,
                wal_checkpoint_seq: None,
            });
        }
        let refitted = shared.db.maintain()?;
        let mut saved_catalog = false;
        let mut saved_pending_rows = 0;
        if let Some(path) = shared.opts.catalog_path.clone() {
            shared.db.save_catalog(&path)?;
            let pending = shared.db.pending_rows();
            saved_pending_rows = pending.len();
            if shared.db.wal().is_some() {
                // The checkpoint container already carries the pending
                // rows; a sidecar would only invite a double apply. An
                // old one left over from the pre-WAL era is folded into
                // this save, so it can go.
                std::fs::remove_file(pending_sidecar_path(&path)).ok();
            } else {
                write_pending_sidecar(&pending_sidecar_path(&path), &pending)
                    .map_err(|e| F2dbError::Storage(e.to_string()))?;
            }
            saved_catalog = true;
        }
        let wal_checkpoint_seq = shared.db.wal_stats().map(|s| s.checkpoint_seq);
        journal().publish(Event::ServeShutdown {
            addr: addr.to_string(),
            drained_requests,
            flushed_rows,
        });
        Ok(ShutdownReport {
            addr,
            drained_requests,
            flushed_rows,
            refitted,
            saved_catalog,
            saved_pending_rows,
            wal_checkpoint_seq,
        })
    }
}

// ---------------------------------------------------------------------------
// Pending-rows sidecar
// ---------------------------------------------------------------------------

/// Where the pending rows of an incomplete time stamp are persisted,
/// next to the catalog: `<catalog>.pending`.
pub fn pending_sidecar_path(catalog: &Path) -> PathBuf {
    let mut p = catalog.as_os_str().to_owned();
    p.push(".pending");
    PathBuf::from(p)
}

/// Writes pending rows to the sidecar (atomically *and* durably: temp
/// sibling, fsync, rename, parent-directory fsync). Values are stored
/// as f64 bit patterns so the restore is exact.
pub fn write_pending_sidecar(path: &Path, rows: &[(NodeId, f64)]) -> std::io::Result<()> {
    let mut text = String::from("fdc-pending v1\n");
    for &(node, value) in rows {
        text.push_str(&format!("{node} {:016x}\n", value.to_bits()));
    }
    fdc_wal::atomic_write_durable(path, text.as_bytes())
}

/// Whether the catalog file at `path` is an `F2CK` checkpoint container
/// (as opposed to a legacy plain catalog, or missing/unreadable).
fn catalog_is_container(path: &Path) -> bool {
    let mut magic = [0u8; 4];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .map(|()| fdc_f2db::durability::is_checkpoint_container(&magic))
        .unwrap_or(false)
}

/// Reads a pending sidecar back. A missing file is an empty pending set
/// (a pre-sidecar shutdown or a clean one).
pub fn read_pending_sidecar(path: &Path) -> std::io::Result<Vec<(NodeId, f64)>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut lines = text.lines();
    if lines.next() != Some("fdc-pending v1") {
        return Err(bad("bad pending sidecar header"));
    }
    let mut rows = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (node, bits) = line
            .split_once(' ')
            .ok_or_else(|| bad("malformed pending sidecar line"))?;
        let node: NodeId = node
            .parse()
            .map_err(|_| bad("bad node id in pending sidecar"))?;
        let bits =
            u64::from_str_radix(bits, 16).map_err(|_| bad("bad value bits in pending sidecar"))?;
        rows.push((node, f64::from_bits(bits)));
    }
    Ok(rows)
}

/// Re-applies the pending sidecar written by a graceful shutdown to a
/// freshly re-opened database: the counterpart of [`F2db::open_catalog`]
/// for the rows of the incomplete next time stamp. Returns how many rows
/// were restored.
pub fn restore_pending(db: &F2db, catalog_path: &Path) -> Result<usize, F2dbError> {
    let rows = read_pending_sidecar(&pending_sidecar_path(catalog_path))
        .map_err(|e| F2dbError::Storage(e.to_string()))?;
    if !rows.is_empty() {
        db.insert_batch(&rows)?;
    }
    Ok(rows.len())
}

// ---------------------------------------------------------------------------
// The handler
// ---------------------------------------------------------------------------

impl Handler for Shared {
    fn handle(&self, request: &Request, remaining: Duration) -> Response {
        let _span = fdc_obs::span!("serve.request");
        route_request(self, request, remaining)
    }

    /// When the request ran past the slow threshold, capture the
    /// investigation context — re-running `EXPLAIN ANALYZE` for
    /// statement routes (off the client's critical path, on the worker
    /// that just went slow), or snapshotting the WAL/batcher wait state
    /// for writes — into the bounded slow log.
    fn after(&self, request: &Request, response: &Response, elapsed: Duration) {
        if elapsed < self.slow.threshold() {
            return;
        }
        let route = response.route;
        let sql = matches!(route, "query" | "explain")
            .then(|| sql_of(&request.body).ok())
            .flatten()
            .map(|(sql, _)| sql);
        let explain = sql
            .as_deref()
            .and_then(|s| self.db.explain_analyze(s).ok())
            .map(|report| report.to_masked_string());
        let wait = (route == "insert").then(|| {
            let wal = match self.db.wal_stats() {
                Some(w) => format!(
                    "{{\"last_seq\":{},\"durable_seq\":{}}}",
                    w.last_seq, w.durable_seq
                ),
                None => "null".to_string(),
            };
            format!(
                "{{\"buffered_rows\":{},\"queue_depth\":{},\"wal\":{wal}}}",
                self.batcher.buffered(),
                self.backlog.queued()
            )
        });
        let ctx = trace::current().filter(|c| c.sampled);
        self.slow.push(SlowEntry {
            unix_ms: slow::unix_ms(),
            route,
            status: response.status,
            latency_ns: elapsed.as_nanos() as u64,
            trace_id: ctx.map(|c| c.trace_id),
            sql,
            explain,
            wait,
        });
        fdc_obs::counter(names::SERVE_SLOW_CAPTURED).incr();
    }
}

fn err_body(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", json::escape(msg))
}

// ---------------------------------------------------------------------------
// Routing and handlers
// ---------------------------------------------------------------------------

/// A JSON route's answer: route label, status, body, extra headers.
type Routed = (&'static str, u16, String, Vec<(&'static str, String)>);

/// `Content-Type` of the Prometheus text exposition.
const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4";

fn route_request(shared: &Shared, request: &Request, remaining: Duration) -> Response {
    let (path, query) = request.path_query();
    let no_extra = Vec::new;
    let (route, status, body, headers) = match (request.method.as_str(), path) {
        ("GET", "/wal/fetch") => return handle_wal_fetch(shared, query),
        ("GET", "/sketch") => return handle_sketch(shared),
        ("GET", "/metrics") => {
            let body = fdc_obs::encode_prometheus(&fdc_obs::snapshot());
            return Response::new("metrics", 200, PROMETHEUS_TEXT, body);
        }
        ("POST", "/query") => {
            let (status, body) = handle_query(shared, &request.body);
            ("query", status, body, no_extra())
        }
        ("POST", "/explain") => {
            let (status, body) = handle_explain(shared, &request.body);
            ("explain", status, body, no_extra())
        }
        ("POST", "/insert") => match follower_write_rejection(shared, "insert") {
            Some(routed) => routed,
            None => handle_insert(shared, &request.body, remaining),
        },
        ("POST", "/maintain") => match follower_write_rejection(shared, "maintain") {
            Some(routed) => routed,
            None => {
                let (status, body) = match shared.db.maintain() {
                    Ok(refitted) => (200, format!("{{\"refitted\":{refitted}}}")),
                    Err(e) => (500, err_body(&e.to_string())),
                };
                ("maintain", status, body, no_extra())
            }
        },
        ("POST", "/promote") => handle_promote(shared, &request.body),
        ("POST", "/plan") => {
            let (status, body) = handle_plan(shared, &request.body);
            ("plan", status, body, no_extra())
        }
        ("GET", "/stats") => ("stats", 200, stats_body(shared), no_extra()),
        ("GET", "/healthz") => handle_healthz(shared),
        ("GET", "/slow") => ("slow", 200, shared.slow.to_json(), no_extra()),
        (_, "/query" | "/explain" | "/insert" | "/maintain" | "/promote" | "/plan") => (
            "method",
            405,
            err_body("use POST"),
            vec![("Allow", "POST".to_string())],
        ),
        (_, "/stats" | "/healthz" | "/slow" | "/wal/fetch" | "/sketch" | "/metrics") => (
            "method",
            405,
            err_body("use GET"),
            vec![("Allow", "GET".to_string())],
        ),
        _ => ("unknown", 404, err_body("no such route"), no_extra()),
    };
    Response {
        route,
        status,
        content_type: "application/json",
        body: body.into_bytes(),
        headers,
    }
}

/// HTTP status for an engine error: wrong-shard errors are routing
/// mistakes (`421 Misdirected Request` — a router must not retry them
/// against this shard), everything else the client's fault.
fn f2db_status(e: &F2dbError) -> u16 {
    match e {
        F2dbError::WrongShard(_) => 421,
        _ => 400,
    }
}

/// Parses the optional `"nodes"` filter of `/query` and `/explain`
/// bodies: the scatter half of a routed query, restricting execution
/// to the node ids this shard was asked for.
fn nodes_of(doc: &json::Value) -> Result<Option<Vec<NodeId>>, String> {
    let Some(v) = doc.get("nodes") else {
        return Ok(None);
    };
    let arr = v
        .as_array()
        .ok_or("\"nodes\" must be an array of node ids")?;
    let mut out = Vec::with_capacity(arr.len());
    for item in arr {
        let n = item
            .as_f64()
            .filter(|f| f.fract() == 0.0 && *f >= 0.0 && *f <= (1u64 << 53) as f64)
            .ok_or("\"nodes\" must be an array of non-negative integers")?;
        out.push(n as NodeId);
    }
    Ok(Some(out))
}

/// Parses the optional `"approx"` object of `/query` and `/explain`
/// bodies: per-request approximation controls
/// (`{"budget": cells?, "target_ci": rel?, "confidence": level?}`).
/// Absent → the exact path, byte-identical to a plain query.
fn approx_of(doc: &json::Value) -> Result<Option<ApproxQuerySpec>, String> {
    let Some(v) = doc.get("approx") else {
        return Ok(None);
    };
    if !matches!(v, json::Value::Obj(_)) {
        return Err("\"approx\" must be an object".into());
    }
    let mut spec = ApproxQuerySpec::default();
    if let Some(b) = v.get("budget") {
        let n = b
            .as_f64()
            .filter(|f| f.fract() == 0.0 && *f >= 1.0 && *f <= (1u64 << 32) as f64)
            .ok_or("\"approx.budget\" must be a positive integer")?;
        spec.budget = Some(n as usize);
    }
    if let Some(t) = v.get("target_ci") {
        let f = t
            .as_f64()
            .filter(|f| f.is_finite() && *f > 0.0)
            .ok_or("\"approx.target_ci\" must be a positive number")?;
        spec.target_ci = Some(f);
    }
    if let Some(c) = v.get("confidence") {
        let f = c
            .as_f64()
            .filter(|f| f.is_finite() && *f > 0.0 && *f < 1.0)
            .ok_or("\"approx.confidence\" must be in (0, 1)")?;
        spec.confidence = Some(f);
    }
    Ok(Some(spec))
}

/// Parses a `{"sql": "..."}` body.
fn sql_of(body: &[u8]) -> Result<(String, json::Value), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = json::parse(text)?;
    let sql = doc
        .get("sql")
        .and_then(json::Value::as_str)
        .ok_or_else(|| "body must be a JSON object with a \"sql\" string".to_string())?
        .to_string();
    Ok((sql, doc))
}

fn handle_query(shared: &Shared, body: &[u8]) -> (u16, String) {
    let (sql, doc) = match sql_of(body) {
        Ok(v) => v,
        Err(m) => return (400, err_body(&m)),
    };
    let nodes = match nodes_of(&doc) {
        Ok(n) => n,
        Err(m) => return (400, err_body(&m)),
    };
    let approx = match approx_of(&doc) {
        Ok(a) => a,
        Err(m) => return (400, err_body(&m)),
    };
    match shared
        .db
        .query_filtered_with(&sql, nodes.as_deref(), approx.as_ref())
    {
        Ok(result) => {
            let rows: Vec<String> = result
                .rows
                .iter()
                .map(|r| {
                    let values: Vec<String> = r
                        .values
                        .iter()
                        .map(|(t, v)| format!("[{t},{}]", json::num(*v)))
                        .collect();
                    let approx = match &r.approx {
                        None => String::new(),
                        Some(a) => {
                            let half: Vec<String> =
                                a.ci_half.iter().map(|h| json::num(*h)).collect();
                            format!(
                                ",\"approx\":{{\"sampled\":{},\"population\":{},\"confidence\":{},\"ci_half\":[{}]}}",
                                a.sampled,
                                a.population,
                                json::num(a.confidence),
                                half.join(",")
                            )
                        }
                    };
                    format!(
                        "{{\"node\":{},\"label\":\"{}\",\"values\":[{}]{approx}}}",
                        r.node,
                        json::escape(&r.label),
                        values.join(",")
                    )
                })
                .collect();
            (200, format!("{{\"rows\":[{}]}}", rows.join(",")))
        }
        Err(e) => (f2db_status(&e), err_body(&e.to_string())),
    }
}

fn handle_explain(shared: &Shared, body: &[u8]) -> (u16, String) {
    let (sql, doc) = match sql_of(body) {
        Ok(v) => v,
        Err(m) => return (400, err_body(&m)),
    };
    let analyze = doc
        .get("analyze")
        .and_then(json::Value::as_bool)
        .unwrap_or(false);
    let nodes = match nodes_of(&doc) {
        Ok(n) => n,
        Err(m) => return (400, err_body(&m)),
    };
    let approx = match approx_of(&doc) {
        Ok(a) => a,
        Err(m) => return (400, err_body(&m)),
    };
    if approx.is_some() && analyze {
        return (
            400,
            err_body("\"approx\" and \"analyze\" cannot be combined"),
        );
    }
    let report = if analyze {
        shared.db.explain_analyze_filtered(&sql, nodes.as_deref())
    } else if let Some(spec) = &approx {
        shared.db.explain_with(&sql, Some(spec)).and_then(|mut r| {
            if let Some(f) = &nodes {
                let keep: std::collections::HashSet<NodeId> = f.iter().copied().collect();
                r.rows.retain(|row| keep.contains(&row.node));
                if r.rows.is_empty() {
                    return Err(F2dbError::Semantic(
                        "node filter excludes every node the query resolves to".into(),
                    ));
                }
            }
            Ok(r)
        })
    } else {
        shared.db.explain_filtered(&sql, nodes.as_deref())
    };
    match report {
        Ok(report) => {
            let rows: Vec<String> = report
                .rows
                .iter()
                .map(|r| {
                    let sources: Vec<String> = r
                        .sources
                        .iter()
                        .map(|s| {
                            format!(
                                "{{\"label\":\"{}\",\"invalid\":{}}}",
                                json::escape(&s.label),
                                s.invalid
                            )
                        })
                        .collect();
                    let analysis = match &r.analysis {
                        None => String::new(),
                        Some(a) => {
                            let values: Vec<String> =
                                a.values.iter().map(|v| json::num(*v)).collect();
                            format!(
                                ",\"elapsed_ns\":{},\"values\":[{}]",
                                a.elapsed.as_nanos(),
                                values.join(",")
                            )
                        }
                    };
                    let sampling = match &r.approx {
                        None => String::new(),
                        Some(ap) => {
                            let budget = ap
                                .budget
                                .map_or(String::from("null"), |b| b.to_string());
                            let target =
                                ap.target_ci.map_or(String::from("null"), json::num);
                            format!(
                                ",\"approx\":{{\"population\":{},\"sampled\":{},\"strata\":{},\"budget\":{budget},\"target_ci\":{target}}}",
                                ap.population, ap.sampled, ap.strata
                            )
                        }
                    };
                    format!(
                        "{{\"node\":{},\"label\":\"{}\",\"scheme\":\"{}\",\"weight\":{},\"sources\":[{}]{analysis}{sampling}}}",
                        r.node,
                        json::escape(&r.label),
                        r.scheme_kind,
                        json::num(r.weight),
                        sources.join(",")
                    )
                })
                .collect();
            (
                200,
                format!(
                    "{{\"horizon\":{},\"analyzed\":{},\"rows\":[{}]}}",
                    report.horizon,
                    report.total_elapsed.is_some(),
                    rows.join(",")
                ),
            )
        }
        Err(e) => (f2db_status(&e), err_body(&e.to_string())),
    }
}

fn handle_insert(shared: &Shared, body: &[u8], remaining: Duration) -> Routed {
    let no_extra = Vec::new;
    let parsed = (|| -> Result<Vec<(NodeId, f64)>, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let doc = json::parse(text)?;
        let row_of = |v: &json::Value| -> Result<(NodeId, f64), String> {
            let dims = v
                .get("dims")
                .and_then(json::Value::as_array)
                .ok_or("row needs a \"dims\" array")?;
            let dims: Vec<String> = dims
                .iter()
                .map(|d| d.as_str().map(str::to_string).ok_or("dims must be strings"))
                .collect::<Result<_, _>>()?;
            let value = v
                .get("value")
                .and_then(json::Value::as_f64)
                .ok_or("row needs a numeric \"value\"")?;
            let node = shared.db.base_node_for(&dims).map_err(|e| e.to_string())?;
            Ok((node, value))
        };
        match doc.get("rows").and_then(json::Value::as_array) {
            Some(rows) => {
                if rows.is_empty() {
                    return Err("\"rows\" must not be empty".into());
                }
                rows.iter().map(row_of).collect()
            }
            None => Ok(vec![row_of(&doc)?]),
        }
    })();
    let rows = match parsed {
        Ok(rows) => rows,
        Err(m) => return ("insert", 400, err_body(&m), no_extra()),
    };
    // A misrouted row is rejected *before* the batcher: mixing it into
    // the coalesced commit would fail everyone's flush, and the router
    // needs the typed 421 to fix its placement rather than retry here.
    if let Some(&(node, _)) = rows.iter().find(|(n, _)| !shared.db.owns_base(*n)) {
        return (
            "insert",
            421,
            err_body(&format!(
                "base node {node} is owned by another shard of this partitioned deployment"
            )),
            no_extra(),
        );
    }
    let accepted = rows.len();
    match shared.batcher.deposit_and_wait(&rows, remaining) {
        DepositOutcome::Committed => (
            "insert",
            202,
            format!("{{\"accepted\":{accepted}}}"),
            no_extra(),
        ),
        DepositOutcome::Failed(msg) => ("insert", 500, err_body(&msg), no_extra()),
        DepositOutcome::TimedOut => {
            fdc_obs::counter_with(names::SERVE_REJECTED, &[("reason", "deadline")]).incr();
            (
                "insert",
                503,
                err_body("insert flush deadline exceeded"),
                vec![("Retry-After", "1".to_string())],
            )
        }
    }
}

/// On an unpromoted follower, every write route answers `409` with an
/// explicit redirect-to-the-primary error instead of reaching the
/// engine's read-only guard through the batcher. `None` means the
/// write may proceed (not a replica, or already promoted).
fn follower_write_rejection(shared: &Shared, route: &'static str) -> Option<Routed> {
    let replica = shared.replica.as_ref()?;
    if replica.is_promoted() {
        return None;
    }
    Some((
        route,
        409,
        err_body(&format!(
            "read-only follower replica of {}; write to the primary or POST /promote first",
            replica.primary()
        )),
        Vec::new(),
    ))
}

/// `POST /promote` — runs the follower's promotion state machine. The
/// optional JSON body names the dead primary's WAL directory for the
/// tail replay: `{"tail_wal_dir": "/path/to/primary/wal"}`.
fn handle_promote(shared: &Shared, body: &[u8]) -> Routed {
    let no_extra = Vec::new;
    let Some(replica) = shared.replica.as_ref() else {
        return (
            "promote",
            400,
            err_body("this server is not a replica"),
            no_extra(),
        );
    };
    let tail = if body.is_empty() {
        None
    } else {
        let parsed = std::str::from_utf8(body)
            .map_err(|_| "body is not UTF-8".to_string())
            .and_then(json::parse);
        match parsed {
            Ok(doc) => doc
                .get("tail_wal_dir")
                .and_then(json::Value::as_str)
                .map(PathBuf::from),
            Err(m) => return ("promote", 400, err_body(&m), no_extra()),
        }
    };
    match replica.promote(tail.as_deref()) {
        Ok(report) => (
            "promote",
            200,
            format!(
                "{{\"promoted\":true,\"applied_seq\":{},\"tail_records\":{},\
                 \"last_seq\":{},\"promotion_ns\":{}}}",
                report.applied_seq, report.tail_records, report.last_seq, report.promotion_ns
            ),
            no_extra(),
        ),
        Err(e) => ("promote", 409, err_body(&e.to_string()), no_extra()),
    }
}

/// `POST /plan` — the placement plan of a query: for every node the
/// query resolves to, the consistent-hash placement keys of its
/// derivation closure under `key_dims` leading dimensions. A router
/// calls this once per distinct query, then scatters the node ids to
/// the shards those keys place; a node whose keys straddle shards is a
/// *split node* the partition cannot serve.
fn handle_plan(shared: &Shared, body: &[u8]) -> (u16, String) {
    let (sql, doc) = match sql_of(body) {
        Ok(v) => v,
        Err(m) => return (400, err_body(&m)),
    };
    let key_dims = match doc.get("key_dims") {
        None => 0usize,
        Some(v) => match v.as_f64().filter(|f| f.fract() == 0.0 && *f >= 0.0) {
            Some(f) => f as usize,
            None => return (400, err_body("\"key_dims\" must be a non-negative integer")),
        },
    };
    let sites = match shared.db.query_derivation(&sql) {
        Ok(s) => s,
        Err(e) => return (f2db_status(&e), err_body(&e.to_string())),
    };
    let mut rendered = Vec::with_capacity(sites.len());
    for site in &sites {
        let mut keys: Vec<String> = Vec::new();
        for &b in &site.closure_base {
            match shared.db.partition_key(b, key_dims) {
                Ok(k) => {
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
                Err(e) => return (500, err_body(&e.to_string())),
            }
        }
        keys.sort_unstable();
        let keys: Vec<String> = keys
            .iter()
            .map(|k| format!("\"{}\"", json::escape(k)))
            .collect();
        rendered.push(format!(
            "{{\"node\":{},\"label\":\"{}\",\"keys\":[{}]}}",
            site.node,
            json::escape(&site.label),
            keys.join(",")
        ));
    }
    (
        200,
        format!(
            "{{\"key_dims\":{key_dims},\"sites\":[{}]}}",
            rendered.join(",")
        ),
    )
}

/// `GET /sketch` — this process's mergeable observability state as one
/// binary [`SketchBundle`]: the drift monitor's per-key accuracy
/// partials (restricted to resident nodes, so a fleet-wide fold is a
/// disjoint union) and the t-digest behind every per-route latency
/// histogram. The router folds one bundle per shard into `/stats` and
/// `/metrics` views no single process could compute from quantiles.
fn handle_sketch(shared: &Shared) -> Response {
    let accuracy = match shared.db.drift_monitor() {
        Some(acc) => acc
            .summaries()
            .into_iter()
            .filter(|s| shared.db.is_resident(s.key as NodeId))
            .collect(),
        None => Vec::new(),
    };
    let prefix = format!("{}{{", names::SERVE_REQUEST_NS);
    let snap = fdc_obs::snapshot();
    let mut digests = Vec::new();
    for (key, _) in &snap.histograms {
        if key.starts_with(&prefix) {
            // The registry interns labeled series under their full key,
            // so the lookup lands on the live histogram, not a new one.
            digests.push((
                key.clone(),
                fdc_obs::registry().histogram(key).merged_digest(),
            ));
        }
    }
    let bundle = fdc_obs::SketchBundle { accuracy, digests };
    Response::new("sketch", 200, "application/octet-stream", bundle.encode())
}

/// `GET /healthz` — degrades to `503` on a follower whose replication
/// lag exceeds [`ServeOptions::replica_lag_bound`], so a load balancer
/// stops routing reads at a replica serving stale forecasts.
fn handle_healthz(shared: &Shared) -> Routed {
    let no_extra = Vec::new;
    match shared.replica.as_ref().filter(|r| !r.is_promoted()) {
        Some(replica) => {
            let lag = replica.lag();
            let (status, state) = if lag > shared.opts.replica_lag_bound {
                (503, "degraded")
            } else {
                (200, "ok")
            };
            (
                "healthz",
                status,
                format!("{{\"status\":\"{state}\",\"replication_lag_seq\":{lag}}}"),
                no_extra(),
            )
        }
        None => ("healthz", 200, "{\"status\":\"ok\"}".into(), no_extra()),
    }
}

/// Largest chunk `GET /wal/fetch` will build, whatever the follower
/// asks for.
const SHIP_MAX_BYTES_CAP: usize = 4 << 20;

/// `GET /wal/fetch?after=N&max_bytes=M` — the primary side of log
/// shipping. Answers a binary [`fdc_wal::ShipChunk`] of durable frames
/// past `after`; a fetch below the checkpoint watermark is `410 Gone`
/// (the frames were truncated — re-bootstrap the follower).
fn handle_wal_fetch(shared: &Shared, query: &str) -> Response {
    let Some(wal) = shared.db.wal() else {
        return Response::error("wal_fetch", 404, "no write-ahead log attached");
    };
    let (after, max_bytes) = match (query_u64(query, "after"), query_u64(query, "max_bytes")) {
        (Ok(after), Ok(max)) => (
            after.unwrap_or(0),
            (max.unwrap_or(256 << 10) as usize).clamp(1, SHIP_MAX_BYTES_CAP),
        ),
        (Err(m), _) | (_, Err(m)) => return Response::error("wal_fetch", 400, &m),
    };
    match wal.ship_chunk(after, max_bytes) {
        Ok(chunk) => {
            // A traced frame carries the originating insert's context;
            // adopting the first one puts this ship span in the *same
            // trace* as the insert's serve/WAL-commit spans, so the
            // merged timeline shows the write leaving the primary.
            let _ship_ctx = chunk
                .frames
                .iter()
                .find_map(|(_, payload)| WalRecord::peek_trace(payload))
                .map(|(trace_id, span_id)| {
                    trace::activate(TraceContext {
                        trace_id,
                        span_id,
                        sampled: true,
                    })
                });
            let _ship_span = fdc_obs::span!("serve.wal_ship");
            fdc_obs::gauge(names::WAL_DURABLE_SEQ).set(chunk.durable_seq as i64);
            let body = fdc_wal::encode_chunk(&chunk);
            Response::new("wal_fetch", 200, "application/octet-stream", body)
        }
        Err(e @ fdc_wal::ShipError::WatermarkGap { .. }) => {
            Response::error("wal_fetch", 410, &e.to_string())
        }
        Err(e) => Response::error("wal_fetch", 500, &e.to_string()),
    }
}

/// Parses an optional `name=<u64>` pair out of a query string.
fn query_u64(query: &str, name: &str) -> Result<Option<u64>, String> {
    for pair in query.split('&') {
        let Some((k, v)) = pair.split_once('=') else {
            continue;
        };
        if k == name {
            return v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("query parameter {name:?} must be an unsigned integer"));
        }
    }
    Ok(None)
}

/// Per-route request-latency quantiles from the digest-backed
/// `serve.request.ns{route=...}` histograms, as a JSON object keyed by
/// route. Empty object until the first request is recorded.
fn latency_json() -> String {
    let snap = fdc_obs::snapshot();
    let prefix = format!("{}{{route=\"", names::SERVE_REQUEST_NS);
    let mut out = String::from("{");
    for (key, h) in &snap.histograms {
        let Some(rest) = key.strip_prefix(&prefix) else {
            continue;
        };
        let Some(route) = rest.strip_suffix("\"}") else {
            continue;
        };
        if out.len() > 1 {
            out.push(',');
        }
        // The exemplar ties the route's worst recent observation to a
        // trace id — the "what was that p999 spike" jump-off point.
        let exemplar = match h.exemplar {
            Some(ex) => format!(
                "{{\"trace_id\":\"{:032x}\",\"value\":{}}}",
                ex.trace_id, ex.value
            ),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "\"{route}\":{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"p999\":{},\
             \"exemplar\":{exemplar}}}",
            h.count, h.p50, h.p95, h.p99, h.p999
        ));
    }
    out.push('}');
    out
}

/// Drift-monitor summary: totals plus per-key rows keyed by the
/// dimension-value coordinate (not the raw catalog node id, which is
/// meaningless without a graph dump). Rows are capped at 50; the
/// `"more"` member counts what was cut, so the footer renders as
/// `… (N more)`. `null` when drift monitoring is disabled.
fn drift_json(shared: &Shared) -> String {
    const MAX_ROWS: usize = 50;
    match shared.db.drift_monitor() {
        Some(acc) => {
            let summaries = acc.summaries();
            let drifting = summaries.iter().filter(|s| s.drifting).count();
            let ds = shared.db.dataset();
            let g = ds.graph();
            let keys: Vec<String> = summaries
                .iter()
                .take(MAX_ROWS)
                .map(|s| {
                    let label = if (s.key as usize) < ds.node_count() {
                        g.coord(s.key as usize).display(g.schema())
                    } else {
                        format!("node {}", s.key)
                    };
                    format!(
                        "{{\"cell\":\"{}\",\"n\":{},\"mae\":{},\"smape\":{},\"drifting\":{}}}",
                        json::escape(&label),
                        s.total(),
                        json::num(s.err.abs_mean()),
                        json::num(s.smape.mean()),
                        s.drifting
                    )
                })
                .collect();
            format!(
                "{{\"tracked\":{},\"drifting\":{},\"keys\":[{}],\"more\":{}}}",
                summaries.len(),
                drifting,
                keys.join(","),
                summaries.len().saturating_sub(MAX_ROWS)
            )
        }
        None => "null".to_string(),
    }
}

fn stats_body(shared: &Shared) -> String {
    let stats = shared.db.stats();
    let queue_len = shared.backlog.queued();
    let wal = match shared.db.wal_stats() {
        Some(w) => format!(
            "{{\"last_seq\":{},\"durable_seq\":{},\"checkpoint_seq\":{},\"segments\":{},\
             \"appends\":{},\"fsyncs\":{}}}",
            w.last_seq, w.durable_seq, w.checkpoint_seq, w.segments, w.appends, w.fsyncs,
        ),
        None => "null".to_string(),
    };
    let replication = match &shared.replica {
        Some(r) => {
            let last_error = match r.last_error() {
                Some(e) => format!("\"{}\"", json::escape(&e)),
                None => "null".to_string(),
            };
            format!(
                "{{\"role\":\"{}\",\"primary\":\"{}\",\"applied_seq\":{},\
                 \"primary_durable_seq\":{},\"lag_seq\":{},\"fetch_errors\":{},\
                 \"last_error\":{last_error}}}",
                if r.is_promoted() {
                    "promoted"
                } else {
                    "follower"
                },
                json::escape(r.primary()),
                r.applied_seq(),
                r.primary_durable_seq(),
                r.lag(),
                r.fetch_errors(),
            )
        }
        None => "null".to_string(),
    };
    let partition = match shared.db.partition_summary() {
        Some((owned, resident)) => {
            format!("{{\"owned_bases\":{owned},\"resident_nodes\":{resident}}}")
        }
        None => "null".to_string(),
    };
    format!(
        "{{\"queries\":{},\"inserts\":{},\"insert_batches\":{},\"time_advances\":{},\
         \"model_updates\":{},\"invalidations\":{},\"reestimations\":{},\
         \"pending_inserts\":{},\"buffered_rows\":{},\"queue_depth\":{},\
         \"series_len\":{},\"models\":{},\"wal\":{},\"replication\":{},\"latency\":{},\
         \"drift\":{},\"partition\":{partition}}}",
        stats.queries,
        stats.inserts,
        stats.insert_batches,
        stats.time_advances,
        stats.model_updates,
        stats.invalidations,
        stats.reestimations,
        shared.db.pending_inserts(),
        shared.batcher.buffered(),
        queue_len,
        shared.db.dataset().series_len(),
        shared.db.model_count(),
        wal,
        replication,
        latency_json(),
        drift_json(shared),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sidecar_round_trips_exact_bits() {
        let dir = std::env::temp_dir().join(format!("fdc_sidecar_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let catalog = dir.join("catalog.bin");
        let sidecar = pending_sidecar_path(&catalog);
        // The third value's decimal rendering would lose bits if the
        // sidecar stored decimals instead of bit patterns.
        let rows = vec![
            (3usize, 1.5),
            (7, -0.0),
            (11, f64::from_bits(0x3FF0_0000_0000_0001)),
        ];
        write_pending_sidecar(&sidecar, &rows).unwrap();
        let restored = read_pending_sidecar(&sidecar).unwrap();
        assert_eq!(restored.len(), rows.len());
        for ((n1, v1), (n2, v2)) in rows.iter().zip(&restored) {
            assert_eq!(n1, n2);
            assert_eq!(v1.to_bits(), v2.to_bits());
        }
        // Missing sidecar reads as empty, malformed one errors.
        assert!(read_pending_sidecar(&dir.join("nope")).unwrap().is_empty());
        std::fs::write(&sidecar, "not a sidecar\n").unwrap();
        assert!(read_pending_sidecar(&sidecar).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
