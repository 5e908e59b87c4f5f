//! Pieces the serving workloads share: the pinned configuration, the
//! oracle rendering of a query result, forecast scoring and the load
//! loops that drive a server over HTTP.

use crate::gen::SplitCube;
use crate::http::Client;
use crate::machine::{Profile, Steady};
use crate::spans;
use fdc_core::{Advisor, AdvisorOptions};
use fdc_cube::{Configuration, ConfiguredModel, CubeSplit, Dataset, NodeId};
use fdc_f2db::{F2db, QueryResult};
use fdc_hierarchical::BaselineOptions;
use fdc_rng::Rng;
use fdc_serve::json;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Advisor options whose outcome does not depend on timing: α pinned at
/// 1 makes acceptance error-only (the wall-clock cost term has weight
/// 0), and a fixed γ stops the candidate threshold from following phase
/// timings. The advisor code is the stock one.
fn pinned_advisor_options() -> AdvisorOptions {
    AdvisorOptions {
        parallelism: Some(2),
        initial_alpha: 1.0,
        alpha_limit: 1.0,
        adaptive_gamma: false,
        ..AdvisorOptions::default()
    }
}

/// The pinned advisor configuration of `ds`.
pub fn pinned_configuration(ds: &Dataset) -> Configuration {
    let _s = spans::enter("core.advise", 0);
    Advisor::new(ds, pinned_advisor_options())
        .expect("advisor accepts a generated cube")
        .run()
        .configuration
}

/// The body `fdc-serve` answers a `/query` with, rendered from an
/// in-process result.
pub fn render(result: &QueryResult) -> String {
    let rows: Vec<String> = result
        .rows
        .iter()
        .map(|r| {
            let values: Vec<String> = r
                .values
                .iter()
                .map(|(t, v)| format!("[{t},{}]", json::num(*v)))
                .collect();
            format!(
                "{{\"node\":{},\"label\":\"{}\",\"values\":[{}]}}",
                r.node,
                json::escape(&r.label),
                values.join(",")
            )
        })
        .collect();
    format!("{{\"rows\":[{}]}}", rows.join(","))
}

/// FNV-1a over answer bodies: equal across runs iff the configuration
/// and the pool are (printed so two runs can be compared).
pub fn fingerprint(answers: &[String]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in answers.iter().flat_map(|a| a.bytes().chain([0xff])) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// SMAPE of the forecasts `db` answers for every node it can serve,
/// over the whole held-out future, against what the cube actually does,
/// averaged over the nodes. `db` answers the served queries byte for
/// byte (checked separately), so this is the deployment's accuracy.
pub fn deployment_smape(db: &F2db, cube: &SplitCube) -> f64 {
    let ds = db.dataset().clone();
    let errors: Vec<f64> = (0..ds.node_count())
        .filter_map(|v| {
            let sql = crate::gen::node_sql(&ds, v, "SUM", cube.future());
            let result = db.query(&sql).ok()?;
            let forecast: Vec<f64> = result
                .rows
                .iter()
                .flat_map(|r| r.values.iter().map(|(_, x)| *x))
                .collect();
            let actual: Vec<f64> = (0..forecast.len()).map(|i| cube.actual(v, i)).collect();
            Some(fdc_forecast::smape(&actual, &forecast))
        })
        .collect();
    crate::stats::mean(&errors)
}

/// Times fitting one model on each of up to 16 seeded nodes of `ds`
/// (spans `forecast.fit`), the forecast layer's unit of work.
pub fn time_fits(ds: &Dataset, seed: u64) {
    if !spans::enabled() {
        return;
    }
    let split = CubeSplit::new(ds, 0.8);
    let spec = BaselineOptions::default().resolve_spec(ds);
    let mut rng = Rng::seed_from_u64(seed ^ 0xf17);
    for v in crate::gen::pick(ds.node_count(), 16, &mut rng) {
        let _s = spans::enter("forecast.fit", 0);
        ConfiguredModel::fit(&split, v as NodeId, &spec, &Default::default()).ok();
    }
}

/// Builds the loaded data set from a split cube (span `cube.graph_build`).
pub fn build_dataset(cube: &SplitCube) -> Dataset {
    let base = cube.loaded_base();
    let _s = spans::enter("cube.graph_build", 0);
    Dataset::from_base(cube.schema.clone(), base).expect("generated base data is valid")
}

/// What a load loop observed.
#[derive(Debug, Default)]
pub struct Observed {
    /// Client-observed latency per completed request, ms.
    pub latency_ms: Vec<f64>,
    /// When each completed request was sent (open loops: when it was
    /// due).
    pub sent: Vec<Instant>,
    /// How late each request was sent versus its due time, ms (open
    /// loops only).
    pub late_ms: Vec<f64>,
    /// Lateness of the last tenth of an open loop's requests, ms: the
    /// backlog a loop ends with.
    pub final_late_ms: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Transport errors and non-success statuses.
    pub failed: u64,
    /// Successful responses whose body differed from the oracle.
    pub mismatched: u64,
    /// Connections the clients opened.
    pub connects: u64,
    /// Distinct request keys sent.
    pub distinct: std::collections::HashSet<usize>,
    /// Wall time of the loop.
    pub wall: Duration,
}

impl Observed {
    fn absorb(&mut self, other: Observed) {
        self.latency_ms.extend(other.latency_ms);
        self.sent.extend(other.sent);
        self.late_ms.extend(other.late_ms);
        self.final_late_ms.extend(other.final_late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.connects += other.connects;
        self.distinct.extend(other.distinct);
    }

    /// Connections per request.
    pub fn conns_per_request(&self) -> f64 {
        self.connects as f64 / self.attempted.max(1) as f64
    }

    /// Latency summary: nearest-rank percentiles over every request.
    pub fn summary(&self) -> crate::stats::Summary {
        crate::stats::Summary::of(&self.latency_ms)
    }

    /// The gated figures, read over the calm windows of `profile`.
    pub fn steady(&self, profile: &Profile) -> Steady {
        profile.steady(&self.latency_ms, &self.sent)
    }

    /// Distinct requests over requests sent.
    pub fn distinct_share(&self) -> f64 {
        self.distinct.len() as f64 / self.attempted.max(1) as f64
    }
}

/// One request a load loop sends: a key (for distinctness), the body,
/// and the body the answer must equal (`None`: any `200` passes).
pub struct Request<'a> {
    /// Identifies the request among the pool.
    pub key: usize,
    /// JSON body for `POST /query`.
    pub body: &'a str,
    /// The oracle's answer.
    pub expect: Option<&'a str>,
}

fn send(client: &mut Client, req: &Request, obs: &mut Observed, due: Instant) {
    let _s = spans::enter("client.query", req.key as u64 + 1);
    obs.attempted += 1;
    obs.distinct.insert(req.key);
    match client.post("/query", req.body) {
        Ok(r) if r.status == 200 => {
            obs.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
            obs.sent.push(due);
            if req.expect.is_some_and(|e| e != r.body) {
                obs.mismatched += 1;
            }
        }
        _ => obs.failed += 1,
    }
}

/// Closed loop: `threads` clients, each sending its next request as
/// soon as the previous one completed, until `done()`.
pub fn closed_loop<'a, F, D>(
    addr: SocketAddr,
    threads: usize,
    seed: u64,
    done: D,
    pick: F,
) -> Observed
where
    F: Fn(&mut Rng) -> Request<'a> + Sync,
    D: Fn() -> bool + Sync,
{
    let started = Instant::now();
    let total = Mutex::new(Observed::default());
    std::thread::scope(|s| {
        for t in 0..threads {
            let (pick, total, done) = (&pick, &total, &done);
            s.spawn(move || {
                let mut rng = Rng::seed_from_u64(seed.wrapping_add(t as u64 * 0x9e37));
                let mut client = Client::new(addr);
                let mut obs = Observed::default();
                while !done() {
                    let req = pick(&mut rng);
                    send(&mut client, &req, &mut obs, Instant::now());
                }
                obs.connects = client.connects;
                total.lock().unwrap().absorb(obs);
            });
        }
    });
    let mut obs = total.into_inner().unwrap();
    obs.wall = started.elapsed();
    obs
}

/// Open loop at `rate` requests per second for `duration`: request `i`
/// is due at `start + i / rate` whatever happened before, `threads`
/// clients send the due requests, and latency is timed from when each
/// was due. `stream(i)` names request `i`.
pub fn open_loop<'a, F>(
    addr: SocketAddr,
    threads: usize,
    rate: f64,
    duration: Duration,
    stream: F,
) -> Observed
where
    F: Fn(usize) -> Request<'a> + Sync,
{
    let next = AtomicU64::new(0);
    let total = Mutex::new(Observed::default());
    let start = Instant::now() + Duration::from_millis(5);
    let count = (rate * duration.as_secs_f64()).round() as u64;
    std::thread::scope(|s| {
        for _ in 0..threads {
            let (next, stream, total) = (&next, &stream, &total);
            s.spawn(move || {
                let mut client = Client::new(addr);
                let mut obs = Observed::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let late = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                    obs.late_ms.push(late);
                    if i >= count * 9 / 10 {
                        obs.final_late_ms.push(late);
                    }
                    send(&mut client, &stream(i as usize), &mut obs, due);
                }
                obs.connects = client.connects;
                total.lock().unwrap().absorb(obs);
            });
        }
    });
    let mut obs = total.into_inner().unwrap();
    obs.wall = start.elapsed();
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_serve::{ServeOptions, Server};

    fn small() -> (SplitCube, Dataset) {
        let cube = SplitCube::generate(30, 32, 4, 5);
        let ds = build_dataset(&cube);
        (cube, ds)
    }

    #[test]
    fn pinned_configuration_repeats() {
        let (_, ds) = small();
        let a = pinned_configuration(&ds);
        let b = pinned_configuration(&ds);
        assert_eq!(a.model_nodes(), b.model_nodes());
        let sql = crate::gen::node_sql(&ds, ds.graph().top_node(), "SUM", 4);
        let answer =
            |c: &Configuration| render(&F2db::load(ds.clone(), c).unwrap().query(&sql).unwrap());
        assert_eq!(answer(&a), answer(&b));
    }

    #[test]
    fn render_matches_the_served_body() {
        let (cube, ds) = small();
        let config = pinned_configuration(&ds);
        let oracle = F2db::load(ds.clone(), &config).unwrap();
        let served = F2db::load(ds.clone(), &config).unwrap();
        let server =
            Server::start(std::sync::Arc::new(served), 0, ServeOptions::default()).unwrap();
        let group = ds.graph().schema().dimensions()[1].name().to_string();
        let sql = crate::gen::group_sql(None, &group, 3);
        let mut client = Client::new(server.addr());
        let got = client
            .post("/query", &crate::gen::query_body(&sql))
            .unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.body, render(&oracle.query(&sql).unwrap()));
        server.shutdown().unwrap();
        let smape = deployment_smape(&oracle, &cube);
        assert!(smape.is_finite() && smape > 0.0, "smape {smape}");
    }
}
