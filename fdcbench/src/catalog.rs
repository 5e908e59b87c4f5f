//! The metrics the benchmark prints: the end-to-end set every workload
//! reports untraced, and the per-layer set every workload reports
//! traced. `BENCHMARK.json` must name exactly these (a test checks it).

/// Whether a lower or a higher value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Lower is better.
    Lower,
    /// Higher is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// What it measures on each workload.
    pub meaning: &'static str,
}

/// The end-to-end metrics, printed by every workload and gated.
///
/// Wall-clock latency and throughput are not among them: on a 2-core
/// virtual machine whose hypervisor lent its CPUs to neighbours for
/// minutes at a time (the `steal` counter of `/proc/stat` read 15–40 %
/// through whole ten-seed sequences), their spread over ten seeds ran to
/// 0.2–1.8 of the median, beyond the largest bound a gate may have. CPU
/// time per operation of a fixed size stayed within 0.1 on the serving
/// workloads (read at a fixed rate below capacity) and 0.13 on
/// `advise`. The client's latency and throughput are printed on every
/// run and are per-layer metrics of the `client` layer.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        meaning: "process CPU seconds of datagen + configuration + engine load + server/router start, median of 5 set-ups, at the gauge's reference speed",
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        meaning: "process CPU (client + in-process servers) at the gauge's reference speed, per query at a fixed rate below capacity (dashboard, fanout), per full round with its 16 reads (ingest), per cube of the fixed set advised, less the stolen share (advise)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        meaning: "peak resident memory of the benchmark process (VmHWM)",
    },
];

/// A per-layer metric and the end-to-end metric it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, prefixed by its layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, printed by every traced workload (0 where the
/// workload does not exercise the layer).
pub const PER_LAYER: [PerLayer; 46] = [
    layer(
        "client.latency_p50_ms",
        "ms",
        Lower,
        "query_p50_ms on dashboard, ingest, fanout; advise_p50_ms on advise",
    ),
    layer(
        "client.throughput_per_s",
        "1/s",
        Higher,
        "query_capacity_rps on dashboard, ingest_rows_per_s on ingest, query_rps on fanout, advise_nodes_per_s on advise",
    ),
    layer(
        "client.conns_per_request",
        "ratio",
        Lower,
        "query_p50_ms on dashboard",
    ),
    layer(
        "client.distinct_query_share",
        "ratio",
        Higher,
        "context for cache claims, dashboard vs ingest",
    ),
    layer(
        "client.gen_late_ms_p99",
        "ms",
        Lower,
        "validity of query_max_rps on dashboard (must stay near 0)",
    ),
    layer(
        "serve.query_us_p50",
        "us",
        Lower,
        "query_p50_ms on dashboard, ingest",
    ),
    layer(
        "serve.query_us_p99",
        "us",
        Lower,
        "query_p99_ms on dashboard, ingest",
    ),
    layer(
        "serve.conn_us_p50",
        "us",
        Lower,
        "query_p50_ms on dashboard",
    ),
    layer(
        "serve.insert_us_p50",
        "us",
        Lower,
        "insert_p50_ms on ingest",
    ),
    layer(
        "serve.insert_us_p99",
        "us",
        Lower,
        "insert_p99_ms on ingest",
    ),
    layer(
        "serve.rows_per_flush",
        "rows",
        Higher,
        "ingest_rows_per_s on ingest",
    ),
    layer(
        "serve.rejected",
        "count",
        Lower,
        "failed_ratio, query_max_rps on dashboard",
    ),
    layer(
        "f2db.query_us_p50",
        "us",
        Lower,
        "query_p50_ms on dashboard, ingest",
    ),
    layer(
        "f2db.query_us_p99",
        "us",
        Lower,
        "query_p99_ms on dashboard, ingest",
    ),
    layer("f2db.parse_us", "us", Lower, "query_p50_ms on dashboard"),
    layer("f2db.plan_us", "us", Lower, "query_p50_ms on dashboard"),
    layer(
        "f2db.forecast_us_per_node",
        "us",
        Lower,
        "query_p50_ms on dashboard",
    ),
    layer(
        "f2db.nodes_per_query",
        "nodes",
        Lower,
        "query_p50_ms on dashboard, fanout",
    ),
    layer(
        "f2db.models_cached_ratio",
        "ratio",
        Higher,
        "query_p99_ms, forecast_smape on ingest",
    ),
    layer(
        "f2db.reestimations_per_1k_advances",
        "count",
        Lower,
        "query_p99_ms, forecast_smape on ingest",
    ),
    layer("f2db.reestimate_ms", "ms", Lower, "query_p99_ms on ingest"),
    layer(
        "f2db.insert_batch_us_p50",
        "us",
        Lower,
        "insert_p50_ms, ingest_rows_per_s on ingest",
    ),
    layer(
        "f2db.insert_batch_us_p99",
        "us",
        Lower,
        "insert_p99_ms on ingest",
    ),
    layer(
        "f2db.advance_us_p50",
        "us",
        Lower,
        "insert_p50_ms, ingest_rows_per_s on ingest",
    ),
    layer(
        "f2db.invalidations_per_1k_advances",
        "count",
        Lower,
        "forecast_smape, query_p99_ms on ingest",
    ),
    layer(
        "f2db.shard_contention",
        "count",
        Lower,
        "query_p99_ms on ingest",
    ),
    layer("f2db.checkpoint_ms", "ms", Lower, "recover_s on ingest"),
    layer("f2db.catalog_bytes", "bytes", Lower, "recover_s on ingest"),
    layer(
        "wal.rows_per_fsync",
        "rows",
        Higher,
        "insert_p99_ms on ingest",
    ),
    layer("wal.fsyncs", "count", Lower, "insert_p99_ms on ingest"),
    layer(
        "wal.bytes_per_row",
        "bytes",
        Lower,
        "ingest_rows_per_s, recover_s on ingest",
    ),
    layer("wal.replay_ms", "ms", Lower, "recover_s on ingest"),
    layer("router.query_us_p50", "us", Lower, "query_p50_ms on fanout"),
    layer("router.query_us_p99", "us", Lower, "query_p99_ms on fanout"),
    layer("router.plan_us", "us", Lower, "query_p50_ms on fanout"),
    layer(
        "router.shards_per_query",
        "shards",
        Lower,
        "query_p99_ms on fanout",
    ),
    layer("router.shard_us_p99", "us", Lower, "query_p99_ms on fanout"),
    layer(
        "core.evaluate_ms",
        "ms",
        Lower,
        "advise_nodes_per_s on advise",
    ),
    layer(
        "core.select_ms",
        "ms",
        Lower,
        "advise_nodes_per_s on advise",
    ),
    layer(
        "core.multisource_ms",
        "ms",
        Lower,
        "advise_nodes_per_s on advise",
    ),
    layer(
        "core.indicator_hit_ratio",
        "ratio",
        Higher,
        "advise_nodes_per_s on advise",
    ),
    layer(
        "core.accepted_per_built",
        "ratio",
        Higher,
        "advise_nodes_per_s, config_models on advise",
    ),
    layer(
        "forecast.nm_evals_per_fit",
        "count",
        Lower,
        "advise_nodes_per_s on advise, query_p99_ms on ingest",
    ),
    layer(
        "forecast.fit_ms",
        "ms",
        Lower,
        "advise_nodes_per_s on advise, query_p99_ms on ingest",
    ),
    layer(
        "forecast.update_ns_per_model",
        "ns",
        Lower,
        "ingest_rows_per_s on ingest",
    ),
    layer(
        "cube.graph_build_ms",
        "ms",
        Lower,
        "setup_s on every workload",
    ),
];

/// Workloads, with why each was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    ("dashboard", "open-loop Zipf panels on one read-only fdc-serve: HTTP, parse, plan, forecast, derive; WAL, re-fits and router bypassed"),
    ("ingest", "WAL+fsync primary: full-round inserts from the held-out tail plus ad-hoc reads; batcher, advance, re-fit, group commit, recovery"),
    ("fanout", "fdc-router over two partitioned in-process shards: planning hop, scatter and reassembly under single-shard and fan-out reads"),
    ("advise", "offline advisor on seeded GenX cubes of 1000-3000 base series: indicators, selection, evaluation and model fitting"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_serve::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json_exactly() {
        let doc = benchmark_json();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(names(&doc, "per_layer"), layers);
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.name));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
