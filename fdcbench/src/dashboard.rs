//! `dashboard`: independent viewers refreshing a fixed panel set on one
//! read-only `fdc-serve` server, as an open loop at fixed rates.
//!
//! The cube is GenX with 400 base series. The configuration is the
//! pinned advisor configuration. Panels mix single-node queries with
//! `GROUP BY time, <dim>` multi-node queries and are requested with a
//! Zipf skew. Every `200` body must equal what `F2db::query` answers on
//! an identically loaded in-process engine.

use crate::gen::{group_sql, node_sql, pick, query_body, SplitCube, Zipf};
use crate::machine::Sampler;
use crate::report::Outcome;
use crate::serving::{self, open_loop, Observed, Request};
use crate::stats::{percentile, Summary};
use crate::{layers, spans, Args};
use fdc_cube::{Configuration, Dataset};
use fdc_f2db::F2db;
use fdc_rng::Rng;
use fdc_serve::{open_engine, ServeOptions, Server};
use std::time::{Duration, Instant};

const BASES: usize = 400;
const HISTORY: usize = 64;
/// Held-out steps: the longest panel horizon.
const FUTURE: usize = 8;
/// Rate of the reference phase whose latency is the headline, req/s.
const REFERENCE_RPS: f64 = 1500.0;
/// The fixed rate ladder `query_max_rps` climbs, req/s.
const LADDER: [f64; 18] = [
    3000.0, 4000.0, 5000.0, 6000.0, 6500.0, 7000.0, 7500.0, 8000.0, 8500.0, 9000.0, 9500.0,
    10000.0, 11000.0, 12000.0, 14000.0, 16000.0, 20000.0, 24000.0,
];
/// A rung passes when its p99 stays within this limit.
const P99_LIMIT_MS: f64 = 10.0;
/// Seconds each ladder rung runs (at least 1010 requests at every rung).
const RUNG_S: f64 = 0.4;
/// Client threads (= connections at a time).
const THREADS: usize = 2;

struct Deployment {
    cube: SplitCube,
    dataset: Dataset,
    config: Configuration,
    server: Server,
}

fn setup(seed: u64) -> Deployment {
    let cube = SplitCube::generate(BASES, HISTORY, FUTURE, seed);
    let dataset = serving::build_dataset(&cube);
    let config = serving::pinned_configuration(&dataset);
    let db = F2db::load(dataset.clone(), &config).expect("load pinned configuration");
    let (db, _) = open_engine(db, &ServeOptions::default()).expect("open engine");
    let server = Server::start(db, 0, ServeOptions::default()).expect("start server");
    Deployment {
        cube,
        dataset,
        config,
        server,
    }
}

/// The fixed panel set, in Zipf rank order. The seed picks which
/// groups and base series appear; the kinds of panel sit at fixed
/// ranks, so the cost of the request mix does not depend on the seed.
fn panels(ds: &Dataset, seed: u64) -> Vec<String> {
    let g = ds.graph();
    let dims = g.schema().dimensions();
    let (leaf, group) = (dims[0].name(), dims[1].name());
    let mut rng = Rng::seed_from_u64(seed ^ 0xda5b);
    let level =
        |l: usize| -> Vec<usize> { (0..g.node_count()).filter(|&v| g.level(v) == l).collect() };
    let (bases, groups) = (level(0), level(1));
    let top = g.top_node();
    let mut tops = vec![
        node_sql(ds, top, "SUM", 4),
        node_sql(ds, top, "AVG", 4),
        node_sql(ds, top, "SUM", 8),
    ]
    .into_iter();
    // Multi-node panels: every group side by side, and the base series
    // of one group side by side.
    let mut multi = std::iter::once(group_sql(None, group, 4)).chain(
        pick(groups.len(), 4, &mut rng).into_iter().map(|i| {
            let value = &dims[1].values()[g.coord(groups[i]).values()[1] as usize];
            group_sql(Some((group, value)), leaf, 2)
        }),
    );
    let mut single_groups = pick(groups.len(), 8, &mut rng)
        .into_iter()
        .map(|i| node_sql(ds, groups[i], "SUM", 4));
    let mut single_bases = pick(bases.len(), 16, &mut rng)
        .into_iter()
        .map(|i| node_sql(ds, bases[i], "SUM", 4));
    // Rank pattern: T top, M multi-node, G group, B base series.
    const PATTERN: &str = "TBGMBGBTBGMBBGBMTBGBBMGBBGBMBGBB";
    PATTERN
        .chars()
        .map(|kind| {
            match kind {
                'T' => tops.next(),
                'M' => multi.next(),
                'G' => single_groups.next(),
                _ => single_bases.next(),
            }
            .expect("the pattern uses each kind exactly as often as it exists")
        })
        .collect()
}

/// Whether an open-loop phase met the latency limit with no failures
/// and no backlog left at its end.
fn rung_passes(obs: &Observed, s: &Summary) -> bool {
    let backlog = percentile(&sorted(&obs.final_late_ms), 50.0).unwrap_or(0.0);
    obs.failed == 0 && s.p99().is_some_and(|p| p <= P99_LIMIT_MS) && backlog <= P99_LIMIT_MS
}

/// Counts a finished phase's requests into the outcome; returns how
/// many of its answers differed from the oracle.
fn tally(out: &mut Outcome, obs: &Observed) -> u64 {
    out.attempted += obs.attempted;
    out.failed += obs.failed;
    obs.mismatched
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut Outcome) {
    let dep = crate::set_up(
        out,
        |k| setup(crate::setup_seed(args.seed, k)),
        |old: Deployment| drop(old.server.shutdown()),
    );
    let addr = dep.server.addr();

    // The oracle: an identically loaded in-process engine.
    let oracle = F2db::load(dep.dataset.clone(), &dep.config).expect("load oracle");
    let pool = panels(&dep.dataset, args.seed);
    let bodies: Vec<String> = pool.iter().map(|s| query_body(s)).collect();
    let expected: Vec<String> = pool
        .iter()
        .map(|s| serving::render(&oracle.query(s).expect("panel is servable")))
        .collect();
    let multi = expected
        .iter()
        .filter(|e| e.matches("\"node\":").count() > 1)
        .count();
    out.info(
        "cube",
        format!(
            "GenX {BASES} base series, {} nodes, {HISTORY} steps loaded",
            dep.dataset.node_count()
        ),
    );
    out.info("models", oracle.model_count());
    out.info("answers_fingerprint", serving::fingerprint(&expected));
    out.info(
        "panel_pool",
        format!("{} panels ({multi} multi-node), Zipf s=1", pool.len()),
    );
    out.info("load", format!("open loop, {THREADS} client threads; reference {REFERENCE_RPS} req/s; ladder {LADDER:?} req/s, p99 limit {P99_LIMIT_MS} ms"));
    out.named(
        "forecast_smape",
        "ratio",
        serving::deployment_smape(&oracle, &dep.cube),
    );
    serving::time_fits(&dep.dataset, args.seed);
    layers::setup_phase(out);

    // The request stream: Zipf ranks over the panel order.
    let zipf = Zipf::new(pool.len(), 1.0);
    let mut rng = Rng::seed_from_u64(args.seed ^ 0x5eed);
    let stream: Vec<usize> = (0..1 << 16).map(|_| zipf.sample(&mut rng)).collect();
    let panel = |p: usize| Request {
        key: p,
        body: &bodies[p],
        expect: Some(&expected[p]),
    };
    let req = |i: usize| panel(stream[i % stream.len()]);
    let secs = args.seconds;

    // Warm the server's threads and the engine.
    let warm = open_loop(
        addr,
        THREADS,
        REFERENCE_RPS,
        Duration::from_millis(300),
        req,
    );

    fdc_obs::registry().reset();
    let ref_secs = Duration::from_secs_f64(secs * 0.4);
    if args.trace {
        // The same phase untraced first: the difference is the
        // tracing overhead.
        spans::set_enabled(false);
        let plain = open_loop(addr, THREADS, REFERENCE_RPS, ref_secs / 2, req).summary();
        spans::set_enabled(true);
        let traced = open_loop(addr, THREADS, REFERENCE_RPS, ref_secs / 2, req).summary();
        out.info(
            "tracing_overhead",
            format!(
                "query_p50_ms {:.4} traced vs {:.4} untraced ({:+.4} ms)",
                traced.p50,
                plain.p50,
                traced.p50 - plain.p50
            ),
        );
        fdc_obs::registry().reset();
    }
    // The reference phase: a fixed rate well below capacity, so the CPU
    // a query costs is its work, not the contention of a saturated
    // machine (closed-loop CPU per query spread 0.16 of its median over
    // ten seeds with no steal, as the host's speed under load varied).
    let sampler = Sampler::start();
    let reference = open_loop(addr, THREADS, REFERENCE_RPS, ref_secs, req);
    let calm = reference.steady(&sampler.finish());
    out.set("cpu_ms_per_op", calm.cpu_ms_per_op);
    let rs = reference.summary();
    out.latency("query", &rs);
    out.layer("client.latency_p50_ms", calm.p50_ms);
    out.layer("client.conns_per_request", reference.conns_per_request());
    out.layer("client.distinct_query_share", reference.distinct_share());
    let late = Summary::of(&reference.late_ms);
    out.layer("client.gen_late_ms_p99", late.tail);
    out.named("client_gen_late_ms_p99", "ms", late.tail);
    layers::serve_phase(out, rs.p50);
    // Each phase's samples are dropped once read, so the benchmark's own
    // memory does not grow with how fast the machine serves.
    let mut mismatched = tally(out, &warm) + tally(out, &reference);
    drop((warm, reference));

    // Capacity: closed-loop completions per second with every client
    // busy, over the phase's calm windows.
    let deadline = Instant::now() + Duration::from_secs_f64(secs * 0.3);
    let sampler = Sampler::start();
    let capacity = serving::closed_loop(
        addr,
        THREADS,
        args.seed,
        || Instant::now() >= deadline,
        |rng| panel(zipf.sample(rng)),
    );
    let profile = sampler.finish();
    out.info("capacity_steal_pct", format!("{:.1}", profile.steal_pct()));
    let capacity_rps = capacity.steady(&profile).rate;
    out.named("query_capacity_rps", "req/s", capacity_rps);
    out.layer("client.throughput_per_s", capacity_rps);
    mismatched += tally(out, &capacity);
    drop(capacity);

    // The ladder: climb until a rung misses the limit twice in a row (a
    // rung that misses once is run again, so one stall of the machine
    // does not end the climb), within the rest of the run's time.
    let ladder_end = Instant::now() + Duration::from_secs_f64(secs * 0.3);
    let mut max_rps = 0.0;
    'ladder: for &rate in &LADDER {
        for attempt in 1..=2 {
            if Instant::now() >= ladder_end {
                break 'ladder;
            }
            let obs = open_loop(addr, THREADS, rate, Duration::from_secs_f64(RUNG_S), req);
            let s = Summary::of(&obs.latency_ms);
            let pass = rung_passes(&obs, &s);
            out.info(
                &format!("rung_{rate}_{attempt}"),
                format!(
                    "p50 {:.3} ms, p{} {:.3} ms (n={}), failed {}, {}",
                    s.p50,
                    s.tail_pct,
                    s.tail,
                    s.count,
                    obs.failed,
                    if pass { "pass" } else { "miss" }
                ),
            );
            mismatched += tally(out, &obs);
            if pass {
                max_rps = rate;
                continue 'ladder;
            }
        }
        break;
    }
    out.named("query_max_rps", "req/s", max_rps);

    if args.trace {
        let sqls: Vec<&str> = (0..2000).map(|i| pool[stream[i]].as_str()).collect();
        layers::replay(out, &oracle, &sqls);
    }

    out.checks_failed(mismatched, || {
        format!("{mismatched} /query bodies differ from the in-process engine")
    });
    dep.server.shutdown().ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_set_is_fixed_by_the_seed() {
        let ds = serving::build_dataset(&SplitCube::generate(BASES, 16, 1, 3));
        let a = panels(&ds, 3);
        assert_eq!(a, panels(&ds, 3));
        assert_ne!(a, panels(&ds, 4));
        assert_eq!(a.len(), 32);
        // Kinds sit at fixed ranks whatever the seed.
        assert!(!a[0].contains("WHERE") && !a[0].contains("level1 AS"));
        assert!(a[3].contains("GROUP BY time, level"));
    }
}
