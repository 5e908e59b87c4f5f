//! Per-layer metrics, read from the program's own registry
//! (`fdc_obs::snapshot`) and from the benchmark's spans around its calls
//! into each layer's public functions.

use crate::report::{counter, counter_sum, hist, hist_with, ratio, span_totals, Outcome};
use crate::spans::{self, durations, Span};
use crate::stats::mean;
use fdc_f2db::{parse_query, F2db, Statement};
use fdc_obs::names;

/// Mean duration of the benchmark spans named `name`, in `scale` ns.
fn span_mean(spans: &[Span], name: &str, scale: f64) -> f64 {
    mean(&durations(spans, name)) / scale
}

/// Layers whose work happens while the workload sets up: the advisor
/// (`core`), model fitting (`forecast`) and the graph build (`cube`).
/// Call before the registry is reset for the measured phase.
pub fn setup_phase(out: &mut Outcome) {
    let all = spans::collected();
    let (runs, _) = span_totals("advisor.run");
    let per_run = |name: &str| ratio(span_totals(name).1 as f64 / 1e6, runs as f64);
    out.layer("core.evaluate_ms", per_run("evaluate"));
    out.layer("core.select_ms", per_run("select"));
    out.layer("core.multisource_ms", per_run("multisource"));
    let hits = counter(names::ADVISOR_INDICATOR_CACHE_HIT) as f64;
    let misses = counter(names::ADVISOR_INDICATOR_CACHE_MISS) as f64;
    out.layer("core.indicator_hit_ratio", ratio(hits, hits + misses));
    out.layer(
        "core.accepted_per_built",
        ratio(
            counter(names::ADVISOR_ACCEPTED) as f64,
            counter(names::ADVISOR_MODELS_BUILT) as f64,
        ),
    );
    out.layer(
        "forecast.nm_evals_per_fit",
        ratio(
            counter_sum("optimize.", ".evals") as f64,
            counter_sum("optimize.", ".runs") as f64,
        ),
    );
    out.layer("forecast.fit_ms", span_mean(&all, "forecast.fit", 1e6));
    out.layer(
        "cube.graph_build_ms",
        span_mean(&all, "cube.graph_build", 1e6),
    );
}

/// The serving layer's view of `/query` and `/insert`, plus the
/// engine's query histogram and model-cache counters. `client_p50_ms`
/// is the client-observed median the handler time is subtracted from.
pub fn serve_phase(out: &mut Outcome, client_p50_ms: f64) {
    let q = hist_with(names::SERVE_REQUEST_NS, &[("route", "query")]);
    out.layer("serve.query_us_p50", q.p50 as f64 / 1e3);
    out.layer("serve.query_us_p99", q.p99 as f64 / 1e3);
    if q.count > 0 {
        out.layer(
            "serve.conn_us_p50",
            (client_p50_ms * 1e3 - q.p50 as f64 / 1e3).max(0.0),
        );
    }
    let ins = hist_with(names::SERVE_REQUEST_NS, &[("route", "insert")]);
    out.layer("serve.insert_us_p50", ins.p50 as f64 / 1e3);
    out.layer("serve.insert_us_p99", ins.p99 as f64 / 1e3);
    let flush = hist(names::SERVE_BATCH_FLUSH_ROWS);
    out.layer("serve.rows_per_flush", flush.mean());
    out.layer(
        "serve.rejected",
        counter_sum(names::SERVE_REJECTED, "") as f64,
    );
    let fq = hist(names::F2DB_QUERY_NS);
    out.layer("f2db.query_us_p50", fq.p50 as f64 / 1e3);
    out.layer("f2db.query_us_p99", fq.p99 as f64 / 1e3);
    let cached = counter(names::F2DB_MODELS_CACHED) as f64;
    let refit = counter(names::F2DB_MODELS_REESTIMATED) as f64;
    out.layer("f2db.models_cached_ratio", ratio(cached, cached + refit));
    out.layer(
        "f2db.shard_contention",
        (counter(names::F2DB_SHARD_READ_CONTENTION) + counter(names::F2DB_SHARD_WRITE_CONTENTION))
            as f64,
    );
}

/// Replays `sqls` in-process through the engine's public stages —
/// `parse_query`, `F2db::query_derivation`, `Catalog::forecast` per
/// resolved node, and the whole `F2db::query` — each under its own
/// span, and sets the parse/plan/forecast layer metrics from them.
pub fn replay(out: &mut Outcome, db: &F2db, sqls: &[&str]) {
    let granularity = db.dataset().series(0).granularity();
    let mut nodes = 0usize;
    for (i, sql) in sqls.iter().enumerate() {
        let req = i as u64 + 1;
        let horizon = {
            let _s = spans::enter("f2db.parse", req);
            match parse_query(sql) {
                Ok(Statement::Forecast(q)) => q.horizon.steps(granularity).unwrap_or(1),
                _ => 1,
            }
        };
        let sites = {
            let _s = spans::enter("f2db.plan", req);
            db.query_derivation(sql).unwrap_or_default()
        };
        for site in &sites {
            let _s = spans::enter("f2db.forecast", req);
            std::hint::black_box(db.catalog().forecast(site.node, horizon));
        }
        nodes += sites.len();
        let _s = spans::enter("f2db.query", req);
        std::hint::black_box(db.query(sql).ok());
    }
    let all = spans::collected();
    let parse = span_mean(&all, "f2db.parse", 1e3);
    out.layer("f2db.parse_us", parse);
    // `query_derivation` parses again before it resolves.
    out.layer(
        "f2db.plan_us",
        (span_mean(&all, "f2db.plan", 1e3) - parse).max(0.0),
    );
    let forecast_ns: f64 = durations(&all, "f2db.forecast").iter().sum();
    out.layer(
        "f2db.forecast_us_per_node",
        ratio(forecast_ns / 1e3, nodes as f64),
    );
    out.layer(
        "f2db.nodes_per_query",
        ratio(nodes as f64, sqls.len() as f64),
    );
}
