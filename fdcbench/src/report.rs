//! What a workload run produces, how the registry is read, and how the
//! result is printed.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use fdc_obs::HistogramSnapshot;
use std::collections::BTreeMap;

/// One workload run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Every metric the workload defines, by the name a user knows it
    /// under (`query_p99_ms`, `recover_s`, …), for the report.
    pub named: Vec<(String, &'static str, f64)>,
    /// Per-layer metrics by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or refused, plus failed output checks.
    pub failed: u64,
    /// Output checks that failed, described.
    pub check_failures: Vec<String>,
    /// Provenance and pool sizes, printed before the metrics.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    /// Records a named metric for the report.
    pub fn named(&mut self, name: &str, unit: &'static str, value: f64) {
        self.named.push((name.to_string(), unit, value));
    }

    /// Records `<prefix>_p50_ms`, `<prefix>_p99_ms` (or the supported
    /// tail) and the sample count.
    pub fn latency(&mut self, prefix: &str, s: &Summary) {
        self.named(&format!("{prefix}_p50_ms"), "ms", s.p50);
        let tail = if s.tail_pct == 100.0 {
            "max".to_string()
        } else {
            format!("p{}", s.tail_pct)
        };
        self.named(&format!("{prefix}_{tail}_ms"), "ms", s.tail);
        self.named(&format!("{prefix}_samples"), "count", s.count as f64);
    }

    /// Records provenance.
    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Sets an end-to-end metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name),
            "unknown end-to-end metric {name}"
        );
        self.e2e.insert(name, value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        self.layers
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Fails an output check: counts against `failed` and `correct`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks_failed(u64::from(!ok), what);
    }

    /// Records `n` failed output checks of one kind (e.g. answers that
    /// differ from the oracle): each counts against `failed`.
    pub fn checks_failed(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            self.check_failures.push(what());
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }
}

/// Snapshot of a registry histogram.
pub fn hist(name: &str) -> HistogramSnapshot {
    fdc_obs::histogram(name).snapshot()
}

/// Snapshot of a labelled registry histogram.
pub fn hist_with(name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
    fdc_obs::histogram_with(name, labels).snapshot()
}

/// A registry counter's value.
pub fn counter(name: &str) -> u64 {
    fdc_obs::counter(name).get()
}

/// Sum of every counter series whose key starts with `prefix` and ends
/// with `suffix` (a labelled family, or a pattern like
/// `optimize.*.evals`).
pub fn counter_sum(prefix: &str, suffix: &str) -> u64 {
    fdc_obs::snapshot()
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

/// `(count, sum_ns)` over every span histogram whose path ends with
/// `/<name>` or is `<name>` (the program's own spans nest under
/// whatever span was open on the thread).
pub fn span_totals(name: &str) -> (u64, u64) {
    let whole = format!("span.{name}.ns");
    let nested = format!("/{name}.ns");
    fdc_obs::snapshot()
        .histograms
        .iter()
        .filter(|(k, _)| *k == whole || (k.starts_with("span.") && k.ends_with(&nested)))
        .fold((0, 0), |(c, s), (_, h)| (c + h.count, s + h.sum))
}

/// The span histogram ending in `name` with the most samples.
pub fn span_hist(name: &str) -> Option<HistogramSnapshot> {
    let whole = format!("span.{name}.ns");
    let nested = format!("/{name}.ns");
    fdc_obs::snapshot()
        .histograms
        .into_iter()
        .filter(|(k, _)| *k == whole || (k.starts_with("span.") && k.ends_with(&nested)))
        .map(|(_, h)| h)
        .max_by_key(|h| h.count)
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(outcome: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = if traced {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = outcome.layers.get(m.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_num(v),
                    m.unit
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = outcome.e2e.get(m.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_num(v),
                    m.unit
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

/// Prints the human-readable report (everything but the result line).
pub fn print_report(outcome: &Outcome, traced: bool) {
    for (k, v) in &outcome.info {
        println!("# {k}: {v}");
    }
    for (name, unit, value) in &outcome.named {
        println!("metric {name} = {value:.6} {unit}");
    }
    println!(
        "metric failed_ratio = {:.6} ratio ({} of {})",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for m in END_TO_END {
        if let Some(v) = outcome.e2e.get(m.name) {
            println!(
                "end_to_end {} = {v:.6} {} ({} is better; {})",
                m.name,
                m.unit,
                m.better.as_str(),
                m.meaning
            );
        }
    }
    if traced {
        for m in PER_LAYER {
            let v = outcome.layers.get(m.name).copied().unwrap_or(0.0);
            println!(
                "layer {} = {v:.6} {} ({} is better) -> moves {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.moves
            );
        }
    }
    for f in &outcome.check_failures {
        println!("CHECK FAILED: {f}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_metric_of_its_kind() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.set("setup_s", 0.5);
        let plain = result_json(&o, false);
        let doc = fdc_serve::json::parse(&plain).unwrap();
        let metrics = doc.get("metrics").unwrap();
        for m in END_TO_END {
            assert!(metrics.get(m.name).is_some(), "{}", m.name);
        }
        let traced = result_json(&o, true);
        let doc = fdc_serve::json::parse(&traced).unwrap();
        for m in PER_LAYER {
            assert!(doc.get("metrics").unwrap().get(m.name).is_some());
        }
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        o.check(false, || "body mismatch".into());
        assert!(!o.correct());
        assert_eq!(o.failed, 1);
    }
}
