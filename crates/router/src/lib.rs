//! # fdc-router — consistent-hash partitioned serving
//!
//! A stateless routing tier in front of N [`fdc-serve`] shard
//! processes, each owning a disjoint set of base cells of the data
//! cube (see `F2db::with_base_partition`). The router holds no cube
//! state at all — only the [`Topology`] (shard id → address, optional
//! replica) and pure functions:
//!
//! * **placement** — a base cell's key (its leading `key_dims`
//!   dimension values) is mapped to a shard by rendezvous hashing
//!   ([`placement`]), deterministically: any process with the same
//!   topology computes the same owner, across restarts and machines;
//! * **inserts** are routed whole to the owning shard (single-shard
//!   writes — no distributed transaction), preserving the row bytes
//!   verbatim so values survive bit-exactly;
//! * **forecast queries** scatter-gather: the router asks any shard
//!   for the query's *placement plan* (`POST /plan` — which node each
//!   row resolves to and which base cells its derivation needs), maps
//!   each node to its owning shard, fans `POST /query {sql, nodes}`
//!   out, and reassembles the per-shard row chunks **byte-identically**
//!   in plan order — the router never re-serializes a float;
//! * **sketch folding** — each shard's `GET /sketch` bundle (accuracy
//!   partials + latency t-digests) is folded with the sketches' own
//!   merge operations ([`fold`]), so the router's `/stats` and
//!   `/metrics` expose *fleet-wide* quantiles and per-node accuracy no
//!   single process could compute from percentiles;
//! * **degradation** — a health prober marks shards down/up
//!   (`ShardDown`/`ShardRecovered` journal events); reads fail over to
//!   the shard's replica, writes answer a typed partial-failure error
//!   naming what committed, `429`/`503` shard answers are forwarded
//!   with their `Retry-After`, and `GET /healthz` reflects quorum.
//!
//! ## Routes
//!
//! | Route | Body | Answer |
//! |---|---|---|
//! | `POST /query` | `{"sql": "..."}` | `200` rows, byte-identical to one process |
//! | `POST /explain` | `{"sql": "...", "analyze": bool?}` | `200` plan, scatter-gathered |
//! | `POST /insert` | `{"dims": [...], "value": v}` or `{"rows": [...]}` | `202` after owning shard commits |
//! | `GET /stats` | — | `200` router + folded fleet + per-shard stats |
//! | `GET /metrics` | — | `200` Prometheus text with fleet-folded series |
//! | `GET /healthz` | — | `200` quorum, `503` degraded |
//! | `GET /topology` | — | `200` the serving topology + live flags |
//!
//! The router is the workspace's one [`fdc_obs::httpcore::HttpServer`],
//! the same server the shards run, with this crate's route table as its
//! handler. Client connections to the router persist (HTTP/1.1
//! keep-alive, with the close rules and the retry-safety rule described
//! in [`fdc_obs::httpcore`]); every router→shard hop is still one
//! request per connection. The server adopts `traceparent` at ingress
//! and the router propagates it on every shard hop, so one trace spans
//! the whole fan-out.

pub mod client;
pub mod fold;
pub mod placement;
pub mod topology;

pub use topology::{ShardSpec, Topology};

use fdc_obs::httpcore::{
    Connections, Handler, HttpServer, Request, Response, ServerConfig, ServerMetrics,
};
use fdc_obs::{journal, names, trace, Event, SketchBundle};
use fdc_serve::json;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for [`Router::start`].
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Worker threads answering requests.
    pub workers: usize,
    /// Bound on connections queued for a worker; beyond it `429`.
    pub queue_depth: usize,
    /// Per-request deadline (queue wait counts against it).
    pub deadline: Duration,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// Socket read timeout while parsing a request.
    pub read_timeout: Duration,
    /// Bound on a single router→shard call.
    pub shard_timeout: Duration,
    /// How often the prober re-checks every shard's `/healthz`.
    pub probe_interval: Duration,
    /// Head-sampling rate for traces minted at ingress.
    pub trace_sample: f64,
    /// Distinct SQL plans cached before the cache is cleared.
    pub plan_cache_cap: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(5),
            max_body: 1 << 20,
            read_timeout: Duration::from_secs(2),
            shard_timeout: Duration::from_secs(2),
            probe_interval: Duration::from_millis(250),
            trace_sample: 1.0,
            plan_cache_cap: 256,
        }
    }
}

/// Live view of one shard: its spec plus the prober's up/down flag.
struct ShardState {
    spec: ShardSpec,
    up: AtomicBool,
}

/// One resolved row of a cached placement plan.
#[derive(Debug, Clone)]
struct PlanSite {
    node: u64,
    label: String,
    /// Index into `Shared::shards`.
    shard: usize,
}

struct Shared {
    topology: Topology,
    shards: Vec<ShardState>,
    opts: RouterOptions,
    /// Set once the server has drained; stops the prober.
    stopping: AtomicBool,
    plans: Mutex<HashMap<String, Arc<Vec<PlanSite>>>>,
}

/// The running router. Stop it with [`Router::shutdown`].
pub struct Router {
    http: HttpServer<Shared>,
    prober_handle: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds `127.0.0.1:port` (`0` picks an ephemeral port) and starts
    /// the worker pool and the health prober.
    pub fn start(topology: Topology, port: u16, opts: RouterOptions) -> std::io::Result<Router> {
        let config = ServerConfig {
            name: "fdc-router",
            workers: opts.workers,
            queue_depth: opts.queue_depth,
            deadline: opts.deadline,
            max_body: opts.max_body,
            read_timeout: opts.read_timeout,
            trace_sample: opts.trace_sample,
            metrics: Some(ServerMetrics {
                requests: names::ROUTER_REQUESTS,
                latency: names::ROUTER_REQUEST_NS,
                rejected: None,
                queue_depth: None,
            }),
        };
        let shards = topology
            .shards
            .iter()
            .map(|spec| ShardState {
                spec: spec.clone(),
                // Optimistic until the first probe: a router that boots
                // before its shards should not reject the first requests
                // it could in fact serve a moment later.
                up: AtomicBool::new(true),
            })
            .collect();
        let http = HttpServer::start(port, Connections::KeepAlive, config, |_| Shared {
            shards,
            opts,
            stopping: AtomicBool::new(false),
            plans: Mutex::new(HashMap::new()),
            topology,
        })?;
        let shared = Arc::clone(http.handler());
        journal().publish(Event::RouterStart {
            addr: http.addr().to_string(),
            shards: shared.shards.len() as u64,
            topology_version: shared.topology.version,
        });
        let prober_handle = std::thread::Builder::new()
            .name("fdc-router-probe".into())
            .spawn(move || probe_loop(&shared))
            .expect("spawn prober");
        Ok(Router {
            http,
            prober_handle: Some(prober_handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The topology this router serves.
    pub fn topology(&self) -> &Topology {
        &self.http.handler().topology
    }

    /// Stops accepting, drains the queue and joins every thread.
    pub fn shutdown(mut self) {
        self.http.shutdown();
        self.http.handler().stopping.store(true, Ordering::SeqCst);
        if let Some(h) = self.prober_handle.take() {
            h.join().expect("prober thread panicked");
        }
    }
}

// ---------------------------------------------------------------------------
// Health
// ---------------------------------------------------------------------------

fn probe_loop(shared: &Shared) {
    while !shared.stopping.load(Ordering::SeqCst) {
        for (i, shard) in shared.shards.iter().enumerate() {
            let alive = client::get(&shard.spec.addr, "/healthz", shared.opts.shard_timeout)
                .map(|r| r.status < 500)
                .unwrap_or(false);
            if alive {
                mark_up(shared, i);
            } else {
                mark_down(shared, i, "health probe failed");
            }
        }
        // Sleep in slices so shutdown is not held up by the interval.
        let mut left = shared.opts.probe_interval;
        while left > Duration::ZERO && !shared.stopping.load(Ordering::SeqCst) {
            let nap = left.min(Duration::from_millis(50));
            std::thread::sleep(nap);
            left = left.saturating_sub(nap);
        }
    }
}

fn mark_down(shared: &Shared, idx: usize, error: &str) {
    let shard = &shared.shards[idx];
    if shard.up.swap(false, Ordering::SeqCst) {
        journal().publish(Event::ShardDown {
            shard: shard.spec.id.clone(),
            addr: shard.spec.addr.clone(),
            error: error.to_string(),
        });
    }
}

fn mark_up(shared: &Shared, idx: usize) {
    let shard = &shared.shards[idx];
    if !shard.up.swap(true, Ordering::SeqCst) {
        journal().publish(Event::ShardRecovered {
            shard: shard.spec.id.clone(),
            addr: shard.spec.addr.clone(),
        });
    }
}

// ---------------------------------------------------------------------------
// The handler
// ---------------------------------------------------------------------------

type Routed = (&'static str, u16, String, Vec<(&'static str, String)>);

impl Handler for Shared {
    fn handle(&self, request: &Request, _remaining: Duration) -> Response {
        let _span = fdc_obs::span!("router.request");
        let (route, status, body, headers) = route_request(self, request);
        let content_type = if route == "metrics" {
            "text/plain; version=0.0.4"
        } else {
            "application/json"
        };
        Response {
            route,
            status,
            content_type,
            body: body.into_bytes(),
            headers,
        }
    }
}

fn route_request(shared: &Shared, request: &Request) -> Routed {
    let (path, _query) = request.path_query();
    let no_extra = Vec::new;
    match (request.method.as_str(), path) {
        ("POST", "/query") => handle_forecast(shared, &request.body, "query"),
        ("POST", "/explain") => handle_forecast(shared, &request.body, "explain"),
        ("POST", "/insert") => handle_insert(shared, &request.body),
        ("GET", "/stats") => ("stats", 200, stats_body(shared), no_extra()),
        ("GET", "/metrics") => ("metrics", 200, metrics_body(shared), no_extra()),
        ("GET", "/healthz") => handle_healthz(shared),
        ("GET", "/topology") => handle_topology(shared),
        (_, "/query" | "/explain" | "/insert") => (
            "method",
            405,
            err_body("use POST"),
            vec![("Allow", "POST".to_string())],
        ),
        (_, "/stats" | "/metrics" | "/healthz" | "/topology") => (
            "method",
            405,
            err_body("use GET"),
            vec![("Allow", "GET".to_string())],
        ),
        _ => ("unknown", 404, err_body("no such route"), no_extra()),
    }
}

fn err_body(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", json::escape(msg))
}

// ---------------------------------------------------------------------------
// Shard calls
// ---------------------------------------------------------------------------

/// A read against shard `idx`: primary first; on a transport failure
/// the shard is marked down and the read fails over to the replica
/// (counted in `router.replica.reads`). HTTP-level errors come back as
/// `Ok` — the shard is alive and its answer (400, 421, 429...) is the
/// answer.
fn shard_read(
    shared: &Shared,
    idx: usize,
    path: &str,
    body: Option<&str>,
) -> Result<client::ShardResponse, String> {
    let shard = &shared.shards[idx];
    let method = if body.is_some() { "POST" } else { "GET" };
    match client::request(
        &shard.spec.addr,
        method,
        path,
        body,
        shared.opts.shard_timeout,
    ) {
        Ok(resp) => {
            mark_up(shared, idx);
            Ok(resp)
        }
        Err(primary_err) => {
            shard_error(shared, idx, &primary_err.to_string());
            let Some(replica) = &shard.spec.replica else {
                return Err(format!(
                    "shard {} ({}) unreachable: {primary_err}",
                    shard.spec.id, shard.spec.addr
                ));
            };
            match client::request(replica, method, path, body, shared.opts.shard_timeout) {
                Ok(resp) => {
                    fdc_obs::counter(names::ROUTER_REPLICA_READS).incr();
                    Ok(resp)
                }
                Err(replica_err) => Err(format!(
                    "shard {} unreachable (primary {}: {primary_err}; replica {replica}: \
                     {replica_err})",
                    shard.spec.id, shard.spec.addr
                )),
            }
        }
    }
}

/// A write against shard `idx`: primary only — the replica is
/// read-only, failing a write over would fork history.
fn shard_write(
    shared: &Shared,
    idx: usize,
    path: &str,
    body: &str,
) -> Result<client::ShardResponse, String> {
    let shard = &shared.shards[idx];
    match client::post(&shard.spec.addr, path, body, shared.opts.shard_timeout) {
        Ok(resp) => {
            mark_up(shared, idx);
            Ok(resp)
        }
        Err(e) => {
            shard_error(shared, idx, &e.to_string());
            Err(format!(
                "shard {} ({}) unreachable: {e}",
                shard.spec.id, shard.spec.addr
            ))
        }
    }
}

fn shard_error(shared: &Shared, idx: usize, error: &str) {
    fdc_obs::counter_with(
        names::ROUTER_SHARD_ERRORS,
        &[("shard", &shared.shards[idx].spec.id)],
    )
    .incr();
    mark_down(shared, idx, error);
}

/// Propagates a shard's backpressure answer (`429`/`503`) with its
/// `Retry-After`, instead of wrapping it into an opaque 502.
fn forward_backpressure(route: &'static str, resp: &client::ShardResponse) -> Option<Routed> {
    if resp.status != 429 && resp.status != 503 {
        return None;
    }
    let extra = resp
        .header("retry-after")
        .map(|v| vec![("Retry-After", v.to_string())])
        .unwrap_or_default();
    Some((route, resp.status, resp.text(), extra))
}

// ---------------------------------------------------------------------------
// Placement plans
// ---------------------------------------------------------------------------

/// Resolves the placement plan of `sql`: which shard serves which
/// resolved node. Plans are computed by a live shard (`POST /plan` —
/// the shard knows the cube, the router knows the topology) and cached
/// by SQL text.
fn plan_for(shared: &Shared, sql: &str) -> Result<Arc<Vec<PlanSite>>, Routed> {
    if let Some(plan) = shared.plans.lock().unwrap().get(sql) {
        return Ok(Arc::clone(plan));
    }
    let body = format!(
        "{{\"sql\":\"{}\",\"key_dims\":{}}}",
        json::escape(sql),
        shared.topology.key_dims
    );
    // Any live shard can plan — the static plan depends only on the
    // shared catalog, not on the shard's partition.
    let mut last_err = String::from("no shard available for planning");
    let mut last_backpressure: Option<Routed> = None;
    let order: Vec<usize> = {
        let up: Vec<usize> = (0..shared.shards.len())
            .filter(|&i| shared.shards[i].up.load(Ordering::SeqCst))
            .collect();
        let down: Vec<usize> = (0..shared.shards.len())
            .filter(|i| !up.contains(i))
            .collect();
        up.into_iter().chain(down).collect()
    };
    for idx in order {
        match shard_read(shared, idx, "/plan", Some(&body)) {
            Ok(resp) if resp.status == 200 => {
                let plan = match parse_plan(shared, &resp.text()) {
                    Ok(p) => p,
                    Err((status, m)) => return Err(("plan", status, err_body(&m), Vec::new())),
                };
                let mut cache = shared.plans.lock().unwrap();
                if cache.len() >= shared.opts.plan_cache_cap {
                    cache.clear();
                }
                let plan = Arc::new(plan);
                cache.insert(sql.to_string(), Arc::clone(&plan));
                return Ok(plan);
            }
            Ok(resp) => {
                // Backpressure is this shard's problem, not the query's:
                // another shard may still plan. Keep the typed answer
                // (with its Retry-After) in case every shard is busy.
                if let Some(routed) = forward_backpressure("plan", &resp) {
                    last_backpressure = Some(routed);
                    continue;
                }
                // A 400 is the query's fault, not the shard's: the
                // oracle-grade answer is the shard's own error body.
                return Err(("plan", resp.status, resp.text(), Vec::new()));
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_backpressure.unwrap_or_else(|| {
        (
            "plan",
            503,
            err_body(&last_err),
            vec![("Retry-After", "1".to_string())],
        )
    }))
}

/// Parses a shard's `/plan` answer and maps every site to its owning
/// shard. A site whose placement keys straddle shards is a *split
/// node* this partitioning cannot serve — a typed `400` (the query
/// asks for something the deployment's key granularity cannot
/// co-locate), distinct from a malformed answer (`500`, a router/shard
/// protocol bug).
fn parse_plan(shared: &Shared, text: &str) -> Result<Vec<PlanSite>, (u16, String)> {
    let bad = |m: String| (500u16, m);
    let doc = json::parse(text).map_err(|e| bad(format!("bad /plan answer: {e}")))?;
    let sites = doc
        .get("sites")
        .and_then(json::Value::as_array)
        .ok_or_else(|| bad("bad /plan answer: no sites".into()))?;
    let mut plan = Vec::with_capacity(sites.len());
    for site in sites {
        let node = site
            .get("node")
            .and_then(json::Value::as_f64)
            .filter(|f| f.fract() == 0.0 && *f >= 0.0)
            .ok_or_else(|| bad("bad /plan answer: site without node id".into()))?
            as u64;
        let label = site
            .get("label")
            .and_then(json::Value::as_str)
            .unwrap_or("")
            .to_string();
        let keys = site
            .get("keys")
            .and_then(json::Value::as_array)
            .ok_or_else(|| bad("bad /plan answer: site without keys".into()))?;
        if keys.is_empty() {
            return Err(bad(format!("node {label} has no placement keys")));
        }
        let mut owner: Option<&str> = None;
        for key in keys {
            let key = key
                .as_str()
                .ok_or_else(|| bad("bad /plan answer: non-string key".into()))?;
            let id = &shared.topology.place(key).id;
            match owner {
                None => owner = Some(id),
                Some(prev) if prev == id => {}
                Some(prev) => {
                    return Err((
                        400,
                        format!(
                            "node {label} is split across shards {prev} and {id}: its derivation \
                             needs base cells from both; raise key_dims granularity or co-locate \
                             the hierarchy"
                        ),
                    ));
                }
            }
        }
        let owner = owner.expect("non-empty keys set an owner");
        let shard = shared
            .shards
            .iter()
            .position(|s| s.spec.id == *owner)
            .expect("placement returns a topology shard");
        plan.push(PlanSite { node, label, shard });
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Scatter-gather forecasts
// ---------------------------------------------------------------------------

/// Re-serializes the optional `"approx"` member of a `/query` or
/// `/explain` body so each shard sub-request carries the caller's
/// approximation controls verbatim. Returns an empty string when the
/// caller did not opt in, or a `,"approx":{...}` fragment otherwise.
fn approx_fragment(doc: &json::Value) -> Result<String, String> {
    let Some(v) = doc.get("approx") else {
        return Ok(String::new());
    };
    if !matches!(v, json::Value::Obj(_)) {
        return Err("\"approx\" must be an object".into());
    }
    let mut members = Vec::new();
    for key in ["budget", "target_ci", "confidence"] {
        if let Some(m) = v.get(key) {
            let f = m
                .as_f64()
                .filter(|f| f.is_finite())
                .ok_or_else(|| format!("\"approx.{key}\" must be a number"))?;
            members.push(format!("\"{key}\":{}", json::num(f)));
        }
    }
    Ok(format!(",\"approx\":{{{}}}", members.join(",")))
}

/// `POST /query` and `POST /explain`: plan → scatter to owning shards
/// → reassemble rows byte-identically in plan order.
///
/// **Scatter.** Plan sites are grouped by owning shard. The worker that
/// read the request runs the first group's shard call itself and spawns
/// a scoped thread for each further group, so a single-shard query (the
/// common case) spawns no thread, and an empty plan makes no call.
/// Every call carries the request's trace context.
fn handle_forecast(shared: &Shared, body: &[u8], route: &'static str) -> Routed {
    let no_extra = Vec::new;
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return (route, 400, err_body("body is not UTF-8"), no_extra()),
    };
    let doc = match json::parse(text) {
        Ok(d) => d,
        Err(m) => return (route, 400, err_body(&m), no_extra()),
    };
    let Some(sql) = doc.get("sql").and_then(json::Value::as_str) else {
        return (
            route,
            400,
            err_body("body must be a JSON object with a \"sql\" string"),
            no_extra(),
        );
    };
    let analyze = doc
        .get("analyze")
        .and_then(json::Value::as_bool)
        .unwrap_or(false);
    let approx = match approx_fragment(&doc) {
        Ok(a) => a,
        Err(m) => return (route, 400, err_body(&m), no_extra()),
    };
    let plan = match plan_for(shared, sql) {
        Ok(p) => p,
        Err(routed) => return routed,
    };

    // Group plan sites by owning shard, preserving first-seen order.
    let mut groups: Vec<(usize, Vec<u64>)> = Vec::new();
    for site in plan.iter() {
        match groups.iter_mut().find(|(s, _)| *s == site.shard) {
            Some((_, nodes)) => nodes.push(site.node),
            None => groups.push((site.shard, vec![site.node])),
        }
    }
    fdc_obs::histogram(names::ROUTER_FANOUT_SIZE).record(groups.len() as u64);

    // Scatter: further groups on scoped threads, the first on this
    // worker, which already carries the request's trace context.
    let ctx = trace::current();
    let shard_path = if route == "explain" {
        "/explain"
    } else {
        "/query"
    };
    let call = |(shard, nodes): &(usize, Vec<u64>)| {
        let nodes_json: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
        let sub_body = format!(
            "{{\"sql\":\"{}\",\"analyze\":{analyze},\"nodes\":[{}]{approx}}}",
            json::escape(sql),
            nodes_json.join(",")
        );
        (
            *shard,
            shard_read(shared, *shard, shard_path, Some(&sub_body)),
        )
    };
    let results: Vec<(usize, Result<client::ShardResponse, String>)> =
        std::thread::scope(|scope| {
            let rest: Vec<_> = groups
                .iter()
                .skip(1)
                .map(|group| {
                    scope.spawn(move || {
                        let _g = ctx.map(trace::activate);
                        call(group)
                    })
                })
                .collect();
            let first = groups.first().map(call);
            first
                .into_iter()
                .chain(rest.into_iter().map(|h| h.join().unwrap()))
                .collect()
        });

    // Gather: every shard must answer 200; collect its raw row chunks.
    let mut chunks: HashMap<u64, String> = HashMap::new();
    let mut prefix: Option<String> = None;
    for (shard_idx, result) in results {
        let resp = match result {
            Ok(r) => r,
            Err(e) => {
                return (
                    route,
                    503,
                    err_body(&e),
                    vec![("Retry-After", "1".to_string())],
                )
            }
        };
        if resp.status != 200 {
            if let Some(routed) = forward_backpressure(route, &resp) {
                return routed;
            }
            // A 421 here is a router bug (placement and shard partition
            // disagree); anything else is the query's own error.
            let status = if resp.status == 421 { 500 } else { resp.status };
            return (route, status, resp.text(), no_extra());
        }
        let body = resp.text();
        match split_rows(&body) {
            Ok((head, rows)) => {
                if prefix.is_none() {
                    prefix = Some(head.to_string());
                }
                for (node, chunk) in rows {
                    chunks.insert(node, chunk.to_string());
                }
            }
            Err(m) => {
                return (
                    route,
                    500,
                    err_body(&format!(
                        "unparseable answer from shard {}: {m}",
                        shared.shards[shard_idx].spec.id
                    )),
                    no_extra(),
                )
            }
        }
    }

    // Reassemble in plan order — the exact row order a single
    // unpartitioned process would have produced, bytes untouched.
    let mut ordered = Vec::with_capacity(plan.len());
    for site in plan.iter() {
        match chunks.remove(&site.node) {
            Some(chunk) => ordered.push(chunk),
            None => {
                return (
                    route,
                    500,
                    err_body(&format!(
                        "shard answer is missing planned node {} ({})",
                        site.node, site.label
                    )),
                    no_extra(),
                )
            }
        }
    }
    let prefix = prefix.unwrap_or_else(|| "{\"rows\":[".to_string());
    (
        route,
        200,
        format!("{prefix}{}]}}", ordered.join(",")),
        no_extra(),
    )
}

/// The body prefix up to and including `"rows":[`, plus each verbatim
/// row chunk keyed by its leading `"node":N`.
type RowChunks<'a> = (&'a str, Vec<(u64, &'a str)>);

/// Splits a shard's `{"...":...,"rows":[{...},{...}]}` answer into its
/// verbatim row chunks, keyed by each chunk's leading `"node":N`.
/// Returns the body prefix up to and including `"rows":[` (horizon and
/// friends ride along untouched) and the chunks.
fn split_rows(body: &str) -> Result<RowChunks<'_>, String> {
    let marker = "\"rows\":[";
    let start = body.find(marker).ok_or("answer has no rows array")? + marker.len();
    let mut rows = Vec::new();
    for chunk in array_objects(body, start)? {
        let node = chunk
            .strip_prefix("{\"node\":")
            .and_then(|rest| {
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                digits.parse::<u64>().ok()
            })
            .ok_or("row chunk has no leading node id")?;
        rows.push((node, chunk));
    }
    Ok((&body[..start], rows))
}

/// The verbatim objects of the JSON array whose elements start at byte
/// `start` of `text` (just past its `[`). String-aware — labels may
/// contain any escaped character.
fn array_objects(text: &str, start: usize) -> Result<Vec<&str>, String> {
    let bytes = text.as_bytes();
    let mut objects = Vec::new();
    let mut i = start;
    loop {
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            return Err("unterminated rows array".into());
        }
        match bytes[i] {
            b']' => break,
            b',' => {
                i += 1;
                continue;
            }
            b'{' => {}
            _ => return Err("rows array holds a non-object".into()),
        }
        let object_start = i;
        let mut depth = 0usize;
        let mut in_str = false;
        let mut escaped = false;
        while i < bytes.len() {
            let b = bytes[i];
            if in_str {
                if escaped {
                    escaped = false;
                } else if b == b'\\' {
                    escaped = true;
                } else if b == b'"' {
                    in_str = false;
                }
            } else {
                match b {
                    b'"' => in_str = true,
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        if depth != 0 {
            return Err("unbalanced row object".into());
        }
        objects.push(&text[object_start..i]);
    }
    Ok(objects)
}

// ---------------------------------------------------------------------------
// Routed inserts
// ---------------------------------------------------------------------------

/// `POST /insert`: split the rows array into verbatim chunks, place
/// each row by its leading `key_dims` dimension values, forward every
/// group whole to its owning shard's primary. All-or-error per shard;
/// a failure names what already committed — the caller decides whether
/// to retry the rest (inserts are idempotent per (cell, stamp) only
/// until the stamp completes, so the answer is explicit, not hidden).
fn handle_insert(shared: &Shared, body: &[u8]) -> Routed {
    let no_extra = Vec::new;
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return ("insert", 400, err_body("body is not UTF-8"), no_extra()),
    };
    let doc = match json::parse(text) {
        Ok(d) => d,
        Err(m) => return ("insert", 400, err_body(&m), no_extra()),
    };
    // Raw chunks: the single-row form is itself the one chunk.
    let chunks: Vec<&str> = if doc.get("rows").is_some() {
        match split_insert_rows(text) {
            Ok(c) => c,
            Err(m) => return ("insert", 400, err_body(&m), no_extra()),
        }
    } else {
        vec![text.trim()]
    };
    if chunks.is_empty() {
        return (
            "insert",
            400,
            err_body("\"rows\" must not be empty"),
            no_extra(),
        );
    }
    let mut groups: Vec<(usize, Vec<&str>)> = Vec::new();
    for chunk in chunks {
        let key = match insert_key(chunk, shared.topology.key_dims) {
            Ok(k) => k,
            Err(m) => return ("insert", 400, err_body(&m), no_extra()),
        };
        let owner = &shared.topology.place(&key).id;
        let idx = shared
            .shards
            .iter()
            .position(|s| s.spec.id == *owner)
            .expect("placement returns a topology shard");
        match groups.iter_mut().find(|(s, _)| *s == idx) {
            Some((_, rows)) => rows.push(chunk),
            None => groups.push((idx, vec![chunk])),
        }
    }
    fdc_obs::histogram(names::ROUTER_FANOUT_SIZE).record(groups.len() as u64);

    let mut accepted = 0u64;
    let mut committed: Vec<&str> = Vec::new();
    for (idx, rows) in &groups {
        let sub_body = format!("{{\"rows\":[{}]}}", rows.join(","));
        let resp = match shard_write(shared, *idx, "/insert", &sub_body) {
            Ok(r) => r,
            Err(e) => return insert_failure(shared, *idx, &committed, &e, None),
        };
        if resp.status == 202 {
            accepted += rows.len() as u64;
            committed.push(&shared.shards[*idx].spec.id);
            continue;
        }
        if let Some((_, status, body, extra)) = forward_backpressure("insert", &resp) {
            // Backpressure with partial progress is still a partial
            // failure — the typed body names the committed shards.
            return insert_failure_with(
                shared,
                *idx,
                &committed,
                &body_error(&body),
                status,
                extra,
            );
        }
        return insert_failure_with(
            shared,
            *idx,
            &committed,
            &body_error(&resp.text()),
            resp.status,
            Vec::new(),
        );
    }
    (
        "insert",
        202,
        format!("{{\"accepted\":{accepted}}}"),
        no_extra(),
    )
}

/// Extracts the `"error"` text of a shard answer (or passes the body
/// through when it is not the typed error shape).
fn body_error(body: &str) -> String {
    json::parse(body)
        .ok()
        .and_then(|d| {
            d.get("error")
                .and_then(json::Value::as_str)
                .map(str::to_string)
        })
        .unwrap_or_else(|| body.to_string())
}

fn insert_failure(
    shared: &Shared,
    failed: usize,
    committed: &[&str],
    detail: &str,
    retry_after: Option<&str>,
) -> Routed {
    let extra = retry_after
        .map(|v| vec![("Retry-After", v.to_string())])
        .unwrap_or_else(|| vec![("Retry-After", "1".to_string())]);
    insert_failure_with(shared, failed, committed, detail, 503, extra)
}

fn insert_failure_with(
    shared: &Shared,
    failed: usize,
    committed: &[&str],
    detail: &str,
    status: u16,
    extra: Vec<(&'static str, String)>,
) -> Routed {
    let committed_json: Vec<String> = committed.iter().map(|c| format!("\"{c}\"")).collect();
    (
        "insert",
        status,
        format!(
            "{{\"error\":\"partial write failure\",\"failed_shard\":\"{}\",\
             \"committed_shards\":[{}],\"detail\":\"{}\"}}",
            json::escape(&shared.shards[failed].spec.id),
            committed_json.join(","),
            json::escape(detail)
        ),
        extra,
    )
}

/// Splits the top-level `"rows"` array of an insert body into verbatim
/// row chunks.
fn split_insert_rows(text: &str) -> Result<Vec<&str>, String> {
    let marker_pos = text.find("\"rows\"").ok_or("body has no rows array")?;
    let after = &text[marker_pos + "\"rows\"".len()..];
    let bracket = after.find('[').ok_or("\"rows\" must be an array")?;
    array_objects(text, marker_pos + "\"rows\"".len() + bracket + 1)
}

/// The placement key of one insert row chunk: its first `key_dims`
/// dimension values joined with `|` — the same string the shard-side
/// `F2db::partition_key` computes, so router and shards agree on
/// ownership without the router knowing the schema.
fn insert_key(chunk: &str, key_dims: usize) -> Result<String, String> {
    let doc = json::parse(chunk)?;
    let dims = doc
        .get("dims")
        .and_then(json::Value::as_array)
        .ok_or("row needs a \"dims\" array")?;
    let mut values = Vec::with_capacity(dims.len());
    for d in dims {
        values.push(d.as_str().ok_or("dims must be strings")?);
    }
    if values.is_empty() {
        return Err("row needs a non-empty \"dims\" array".into());
    }
    let take = if key_dims == 0 {
        values.len()
    } else {
        key_dims.min(values.len())
    };
    Ok(values[..take].join("|"))
}

// ---------------------------------------------------------------------------
// Fleet views
// ---------------------------------------------------------------------------

/// Fetches and decodes every live shard's sketch bundle.
fn gather_bundles(shared: &Shared) -> Vec<SketchBundle> {
    let mut bundles = Vec::new();
    for idx in 0..shared.shards.len() {
        if let Ok(resp) = shard_read(shared, idx, "/sketch", None) {
            if resp.status == 200 {
                if let Ok(bundle) = SketchBundle::decode(&resp.body) {
                    bundles.push(bundle);
                }
            }
        }
    }
    bundles
}

fn handle_healthz(shared: &Shared) -> Routed {
    let healthy = shared
        .shards
        .iter()
        .filter(|s| s.up.load(Ordering::SeqCst))
        .count();
    let total = shared.shards.len();
    // Quorum: a majority of shards must be live. Below it, routed
    // queries are mostly refusals, and a balancer should stop sending.
    let (status, state) = if healthy * 2 > total {
        (200, "ok")
    } else {
        (503, "degraded")
    };
    (
        "healthz",
        status,
        format!(
            "{{\"status\":\"{state}\",\"healthy\":{healthy},\"shards\":{total},\
             \"topology_version\":{}}}",
            shared.topology.version
        ),
        Vec::new(),
    )
}

fn handle_topology(shared: &Shared) -> Routed {
    let live: Vec<String> = shared
        .shards
        .iter()
        .map(|s| {
            format!(
                "\"{}\":{}",
                json::escape(&s.spec.id),
                s.up.load(Ordering::SeqCst)
            )
        })
        .collect();
    (
        "topology",
        200,
        format!(
            "{{\"topology\":{},\"live\":{{{}}}}}",
            shared.topology.encode(),
            live.join(",")
        ),
        Vec::new(),
    )
}

/// `GET /stats` — the fleet view: router health, the folded sketch
/// plane (fleet-wide per-key accuracy and latency quantiles), and
/// every reachable shard's own `/stats` document verbatim.
fn stats_body(shared: &Shared) -> String {
    let healthy = shared
        .shards
        .iter()
        .filter(|s| s.up.load(Ordering::SeqCst))
        .count();
    let fleet = fold::fold(&gather_bundles(shared)).to_json();
    let mut shard_docs = Vec::with_capacity(shared.shards.len());
    for idx in 0..shared.shards.len() {
        let id = json::escape(&shared.shards[idx].spec.id);
        match shard_read(shared, idx, "/stats", None) {
            Ok(resp) if resp.status == 200 => {
                shard_docs.push(format!("\"{id}\":{}", resp.text()));
            }
            _ => shard_docs.push(format!("\"{id}\":null")),
        }
    }
    format!(
        "{{\"router\":{{\"topology_version\":{},\"shards\":{},\"healthy\":{healthy}}},\
         \"fleet\":{fleet},\"shards\":{{{}}}}}",
        shared.topology.version,
        shared.shards.len(),
        shard_docs.join(",")
    )
}

/// `GET /metrics` — the router's own registry in Prometheus text form,
/// extended with fleet-folded series: per-route latency quantiles over
/// the *merged* shard digests and per-key fleet accuracy.
fn metrics_body(shared: &Shared) -> String {
    let mut out = fdc_obs::encode_prometheus(&fdc_obs::snapshot());
    let folded = fold::fold(&gather_bundles(shared));
    if !folded.digests.is_empty() {
        out.push_str("# TYPE fleet_latency_ns gauge\n");
        for (series, d) in &folded.digests {
            let (_, labels) = fdc_obs::split_series(series);
            for (q, name) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "fleet_latency_ns{{{labels},quantile=\"{name}\"}} {}\n",
                    d.quantile(q)
                ));
            }
        }
    }
    if !folded.accuracy.is_empty() {
        out.push_str("# TYPE fleet_accuracy_smape gauge\n");
        for a in &folded.accuracy {
            out.push_str(&format!(
                "fleet_accuracy_smape{{key=\"{}\"}} {}\n",
                a.key,
                a.smape.mean()
            ));
        }
        let drifting = folded.accuracy.iter().filter(|a| a.drifting).count();
        out.push_str("# TYPE fleet_accuracy_drifting gauge\n");
        out.push_str(&format!("fleet_accuracy_drifting {drifting}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_rows_preserves_bytes_and_keys_by_node() {
        let body = "{\"rows\":[{\"node\":3,\"label\":\"a \\\"x{\\\" b\",\"values\":[[1,0.1000000000000000055511151231257827]]},{\"node\":12,\"label\":\"(*, *)\",\"values\":[]}]}";
        let (prefix, rows) = split_rows(body).unwrap();
        assert_eq!(prefix, "{\"rows\":[");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 3);
        assert!(rows[0].1.contains("0.1000000000000000055511151231257827"));
        assert_eq!(rows[1].0, 12);
        // Reassembly of all chunks reproduces the body bytes exactly.
        let rebuilt = format!(
            "{prefix}{}]}}",
            rows.iter().map(|(_, c)| *c).collect::<Vec<_>>().join(",")
        );
        assert_eq!(rebuilt, body);
    }

    #[test]
    fn split_rows_passes_approx_metadata_through_verbatim() {
        // An approximate row carries a nested "approx" object; the
        // scatter-gather reassembly must keep its bytes untouched.
        let body = "{\"rows\":[{\"node\":7,\"label\":\"(*, *)\",\"values\":[[1,12.5]],\"approx\":{\"sampled\":96,\"population\":100000,\"confidence\":0.95,\"ci_half\":[0.30000000000000004]}},{\"node\":9,\"label\":\"x\",\"values\":[]}]}";
        let (prefix, rows) = split_rows(body).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 7);
        assert!(rows[0].1.contains("\"population\":100000"));
        assert!(rows[0].1.contains("0.30000000000000004"));
        let rebuilt = format!(
            "{prefix}{}]}}",
            rows.iter().map(|(_, c)| *c).collect::<Vec<_>>().join(",")
        );
        assert_eq!(rebuilt, body);
    }

    #[test]
    fn approx_fragment_round_trips_controls() {
        let doc =
            json::parse("{\"sql\":\"q\",\"approx\":{\"budget\":128,\"target_ci\":0.05}}").unwrap();
        let frag = approx_fragment(&doc).unwrap();
        assert_eq!(frag, ",\"approx\":{\"budget\":128,\"target_ci\":0.05}");
        let none = json::parse("{\"sql\":\"q\"}").unwrap();
        assert_eq!(approx_fragment(&none).unwrap(), "");
        let bad = json::parse("{\"approx\":{\"budget\":\"x\"}}").unwrap();
        assert!(approx_fragment(&bad).is_err());
        let not_obj = json::parse("{\"approx\":3}").unwrap();
        assert!(approx_fragment(&not_obj).is_err());
    }

    #[test]
    fn split_rows_rejects_malformed_bodies() {
        for bad in [
            "{\"norows\":[]}",
            "{\"rows\":[{\"node\":1]",
            "{\"rows\":[42]}",
            "{\"rows\":[{\"label\":\"no node\"}]}",
        ] {
            assert!(split_rows(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn insert_key_takes_leading_dims() {
        let chunk = "{\"dims\":[\"Germany\",\"holiday\"],\"value\":1.25}";
        assert_eq!(insert_key(chunk, 1).unwrap(), "Germany");
        assert_eq!(insert_key(chunk, 0).unwrap(), "Germany|holiday");
        assert_eq!(insert_key(chunk, 9).unwrap(), "Germany|holiday");
        assert!(insert_key("{\"value\":1}", 1).is_err());
    }

    #[test]
    fn split_insert_rows_keeps_value_bytes() {
        let body = "{\"rows\":[{\"dims\":[\"a\"],\"value\":0.30000000000000004},{\"dims\":[\"b\"],\"value\":1e-12}]}";
        let chunks = split_insert_rows(body).unwrap();
        assert_eq!(chunks.len(), 2);
        assert!(chunks[0].contains("0.30000000000000004"));
        assert!(chunks[1].contains("1e-12"));
    }
}
