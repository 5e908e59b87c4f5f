//! `fanout`: `fdc-router` over two partitioned in-process `fdc-serve`
//! shards, answering single-shard queries and queries that fan out to
//! both shards.
//!
//! The configuration is the bottom-up one (`fdc_hierarchical::bottom_up`:
//! a model at every base series), built deterministically, so base
//! nodes are servable by the shard that owns them and a query grouping
//! the base series of one group fans out. Two clients send a uniform
//! mix from the pool, first at a fixed rate (the CPU each query costs),
//! then as closed loops (latency and throughput); every answer must
//! equal the rendering of an unpartitioned in-process engine's result.

use crate::gen::{group_sql, node_sql, pick, query_body, SplitCube};
use crate::machine::Sampler;
use crate::report::{hist, hist_with, Outcome};
use crate::serving::{self, closed_loop, open_loop, Request};
use crate::{layers, spans, Args};
use fdc_cube::{Configuration, CubeSplit, Dataset};
use fdc_f2db::F2db;
use fdc_hierarchical::{bottom_up, BaselineOptions};
use fdc_obs::names;
use fdc_rng::Rng;
use fdc_router::{Router, RouterOptions, ShardSpec, Topology};
use fdc_serve::{open_engine, ServeOptions, Server};
use std::collections::HashSet;
use std::time::{Duration, Instant};

const BASES: usize = 400;
const HISTORY: usize = 64;
const FUTURE: usize = 4;
const SHARD_IDS: [&str; 2] = ["s0", "s1"];
/// Client threads.
const THREADS: usize = 2;
/// Rate of the paced phase, req/s: about a third of what two
/// closed-loop clients complete on a 2-core machine.
const PACED_RPS: f64 = 800.0;

struct Deployment {
    cube: SplitCube,
    dataset: Dataset,
    config: Configuration,
    shards: Vec<Server>,
    router: Router,
}

fn topology(addrs: &[String]) -> Topology {
    Topology {
        version: 1,
        key_dims: 1,
        shards: SHARD_IDS
            .iter()
            .zip(addrs)
            .map(|(id, addr)| ShardSpec {
                id: id.to_string(),
                addr: addr.clone(),
                replica: None,
            })
            .collect(),
    }
}

fn setup(args: &Args, k: usize) -> Deployment {
    let cube = SplitCube::generate(BASES, HISTORY, FUTURE, crate::setup_seed(args.seed, k));
    let dataset = serving::build_dataset(&cube);
    let config = {
        let _s = spans::enter("hierarchical.bottom_up", 0);
        let split = CubeSplit::new(&dataset, 0.8);
        bottom_up(&dataset, &split, &BaselineOptions::default())
            .configuration
            .expect("bottom-up yields a configuration")
    };
    let db = F2db::load(dataset.clone(), &config).expect("load bottom-up configuration");
    // Every shard opens the same catalog file, as a fleet would.
    let catalog = args.work.join(format!("fanout-catalog-{k}.f2db"));
    db.save_catalog(&catalog).expect("save catalog");
    // Placement needs only ids and key_dims, so ownership is known
    // before any shard has an address.
    let provisional = topology(&["-".to_string(), "-".to_string()]);
    let shards: Vec<Server> = SHARD_IDS
        .iter()
        .map(|id| {
            let owned = provisional.owned_bases(&db, id).expect("owned bases");
            let opts = ServeOptions {
                partition_bases: Some(owned),
                ..ServeOptions::default()
            };
            let shard_db = F2db::open_catalog(dataset.clone(), &catalog).expect("open catalog");
            let (shard_db, _) = open_engine(shard_db, &opts).expect("open shard engine");
            Server::start(shard_db, 0, opts).expect("start shard")
        })
        .collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let router =
        Router::start(topology(&addrs), 0, RouterOptions::default()).expect("start router");
    Deployment {
        cube,
        dataset,
        config,
        shards,
        router,
    }
}

/// Shards a query's rows live on, or `None` when some row's derivation
/// straddles shards (a typed refusal, not a servable query).
fn shards_of(oracle: &F2db, topo: &Topology, sql: &str) -> Option<HashSet<String>> {
    let mut involved = HashSet::new();
    for site in oracle.query_derivation(sql).ok()? {
        let mut owner: Option<String> = None;
        for &b in &site.closure_base {
            let id = topo
                .place(&oracle.partition_key(b, topo.key_dims).ok()?)
                .id
                .clone();
            match &owner {
                Some(prev) if *prev != id => return None,
                _ => owner = Some(id),
            }
        }
        involved.insert(owner?);
    }
    Some(involved)
}

/// Candidate queries: the base series of each group side by side (every
/// group, so the fan-out half of the mix is the cube's, not the
/// seed's pick), and twice as many single base series.
fn candidates(ds: &Dataset, seed: u64) -> Vec<String> {
    let g = ds.graph();
    let dims = g.schema().dimensions();
    let mut rng = Rng::seed_from_u64(seed ^ 0xfa0);
    let bases = g.base_nodes();
    let groups: Vec<usize> = (0..g.node_count()).filter(|&v| g.level(v) == 1).collect();
    let mut out: Vec<String> = pick(bases.len(), 2 * groups.len(), &mut rng)
        .into_iter()
        .map(|i| node_sql(ds, bases[i], "SUM", 1 + i % FUTURE))
        .collect();
    for &group in &groups {
        let value = &dims[1].values()[g.coord(group).values()[1] as usize];
        out.push(group_sql(Some((dims[1].name(), value)), dims[0].name(), 2));
    }
    out
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut Outcome) {
    let dep = crate::set_up(out, |k| setup(args, k), shutdown);

    let oracle = F2db::load(dep.dataset.clone(), &dep.config).expect("load oracle");
    let topo = topology(
        &dep.shards
            .iter()
            .map(|s| s.addr().to_string())
            .collect::<Vec<_>>(),
    );
    let mut pool = Vec::new();
    let (mut single, mut fanout, mut refused) = (0, 0, 0);
    for sql in candidates(&dep.dataset, args.seed) {
        match shards_of(&oracle, &topo, &sql) {
            Some(s) if s.len() > 1 => {
                fanout += 1;
                pool.push(sql);
            }
            Some(_) => {
                single += 1;
                pool.push(sql);
            }
            None => refused += 1,
        }
    }
    out.info(
        "cube",
        format!(
            "GenX {BASES} base series, {} nodes, {HISTORY} steps loaded",
            dep.dataset.node_count()
        ),
    );
    out.info(
        "configuration",
        format!("bottom-up, {} models", dep.config.model_count()),
    );
    out.info(
        "topology",
        format!(
            "{} in-process shards {SHARD_IDS:?}, key_dims 1",
            dep.shards.len()
        ),
    );
    out.info("query_pool", format!("{} servable: {single} single-shard, {fanout} fan-out ({refused} candidates refused as split)", pool.len()));
    out.info(
        "load",
        format!("{THREADS} clients, uniform over the pool: open loop at {PACED_RPS} req/s, then closed loop"),
    );
    out.check(fanout > 0 && single > 0, || {
        format!("pool has {single} single-shard and {fanout} fan-out queries")
    });
    let bodies: Vec<String> = pool.iter().map(|s| query_body(s)).collect();
    let expected: Vec<String> = pool
        .iter()
        .map(|s| serving::render(&oracle.query(s).expect("pool query is servable")))
        .collect();
    out.info("answers_fingerprint", serving::fingerprint(&expected));
    out.named(
        "forecast_smape",
        "ratio",
        serving::deployment_smape(&oracle, &dep.cube),
    );
    serving::time_fits(&dep.dataset, args.seed);
    layers::setup_phase(out);

    let addr = dep.router.addr();
    let pick_req = |rng: &mut Rng| {
        let k = rng.usize_below(bodies.len());
        Request {
            key: k,
            body: &bodies[k],
            expect: Some(&expected[k]),
        }
    };
    // Warm the router's plan cache and every thread.
    let warm_end = Instant::now() + Duration::from_millis(300);
    let warm = closed_loop(
        addr,
        THREADS,
        args.seed ^ 1,
        || Instant::now() >= warm_end,
        pick_req,
    );
    // The CPU a query costs, read at a fixed rate well below capacity:
    // with both clients saturating the machine, CPU per query followed
    // the host's speed under load (it moved by 15 % between two ten-seed
    // sequences of unchanged code).
    let mut rng = Rng::seed_from_u64(args.seed ^ 0x9ace);
    let stream: Vec<usize> = (0..1 << 16)
        .map(|_| rng.usize_below(bodies.len()))
        .collect();
    let paced_secs = Duration::from_secs_f64(args.seconds * 0.5);
    let sampler = Sampler::start();
    let paced = open_loop(addr, THREADS, PACED_RPS, paced_secs, |i| {
        let k = stream[i % stream.len()];
        Request {
            key: k,
            body: &bodies[k],
            expect: Some(&expected[k]),
        }
    });
    out.set(
        "cpu_ms_per_op",
        paced.steady(&sampler.finish()).cpu_ms_per_op,
    );

    fdc_obs::registry().reset();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * 0.5);
    let sampler = Sampler::start();
    let obs = closed_loop(
        addr,
        THREADS,
        args.seed,
        || Instant::now() >= deadline,
        pick_req,
    );
    let calm = obs.steady(&sampler.finish());
    let s = obs.summary();
    out.latency("query", &s);
    let rps = calm.rate;
    out.named("query_rps", "req/s", rps);
    out.layer("client.latency_p50_ms", calm.p50_ms);
    out.layer("client.throughput_per_s", rps);
    out.layer("client.conns_per_request", obs.conns_per_request());
    out.layer("client.distinct_query_share", obs.distinct_share());

    let routed = hist_with(names::ROUTER_REQUEST_NS, &[("route", "query")]);
    out.layer("router.query_us_p50", routed.p50 as f64 / 1e3);
    out.layer("router.query_us_p99", routed.p99 as f64 / 1e3);
    out.layer(
        "router.shards_per_query",
        hist(names::ROUTER_FANOUT_SIZE).mean(),
    );
    let shard = hist_with(names::SERVE_REQUEST_NS, &[("route", "query")]);
    out.layer("router.shard_us_p99", shard.p99 as f64 / 1e3);
    layers::serve_phase(out, s.p50);
    if args.trace {
        time_plan_hop(&dep, &pool);
        let plan = spans::durations(&spans::collected(), "router.plan");
        out.layer("router.plan_us", crate::stats::mean(&plan) / 1e3);
        let sqls: Vec<&str> = (0..2000).map(|i| pool[i % pool.len()].as_str()).collect();
        layers::replay(out, &oracle, &sqls);
    }

    let mut mismatched = 0;
    for o in [&warm, &paced, &obs] {
        out.attempted += o.attempted;
        out.failed += o.failed;
        mismatched += o.mismatched;
    }
    out.checks_failed(mismatched, || {
        format!("{mismatched} routed answers differ from the unpartitioned engine")
    });
    shutdown(dep);
}

/// Times the router's planning hop — a shard's `POST /plan` — for every
/// pool query, 20 rounds (span `router.plan`).
fn time_plan_hop(dep: &Deployment, pool: &[String]) {
    let mut client = crate::http::Client::new(dep.shards[0].addr());
    for _ in 0..20 {
        for sql in pool {
            let body = format!(
                "{{\"sql\":\"{}\",\"key_dims\":1}}",
                fdc_serve::json::escape(sql)
            );
            let _s = spans::enter("router.plan", 0);
            client.post("/plan", &body).ok();
        }
    }
}

fn shutdown(dep: Deployment) {
    dep.router.shutdown();
    for s in dep.shards {
        s.shutdown().ok();
    }
}
