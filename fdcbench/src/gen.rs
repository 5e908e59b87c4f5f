//! Seeded input generators: cubes split into a loaded history and a
//! held-out future, query pools, a Zipf sampler and insert bodies.
//! The program only ever sees what these produce.

use fdc_cube::{Coord, Dataset, NodeId, Schema, STAR};
use fdc_datagen::{generate_cube, GenSpec};
use fdc_forecast::TimeSeries;
use fdc_rng::Rng;

/// A GenX cube generated `history + future` steps long. The engine is
/// loaded with the first `history` steps; the rest is what actually
/// happens next (the insert stream, or the truth forecasts are scored
/// against).
pub struct SplitCube {
    /// Schema of the cube.
    pub schema: Schema,
    /// Base coordinates with their full-length series.
    pub base: Vec<(Coord, TimeSeries)>,
    /// Every node's full-length series (aggregates materialized).
    pub full: Dataset,
    /// Steps loaded into the engine.
    pub history: usize,
}

impl SplitCube {
    /// Generates `base_count` base series of `history + future` steps.
    pub fn generate(base_count: usize, history: usize, future: usize, seed: u64) -> SplitCube {
        let cube = generate_cube(&GenSpec::new(base_count, history + future, seed));
        let full = cube.dataset;
        let g = full.graph();
        let base = g
            .base_nodes()
            .iter()
            .map(|&b| (g.coord(b).clone(), full.series(b).clone()))
            .collect();
        SplitCube {
            schema: g.schema().clone(),
            base,
            full,
            history,
        }
    }

    /// The base series cut to the loaded history, ready for
    /// [`Dataset::from_base`].
    pub fn loaded_base(&self) -> Vec<(Coord, TimeSeries)> {
        self.base
            .iter()
            .map(|(c, s)| {
                let values = s.values()[..self.history].to_vec();
                (
                    c.clone(),
                    TimeSeries::with_start(values, s.start(), s.granularity()),
                )
            })
            .collect()
    }

    /// What actually happens at future step `step` (0-based past the
    /// loaded history) at `node`.
    pub fn actual(&self, node: NodeId, step: usize) -> f64 {
        self.full.series(node).values()[self.history + step]
    }

    /// Steps generated past the loaded history.
    pub fn future(&self) -> usize {
        self.full.series_len() - self.history
    }

    /// The insert round for future step `step`: one row per base series,
    /// in base-node order.
    pub fn round(&self, step: usize) -> Vec<f64> {
        self.base
            .iter()
            .map(|(_, s)| s.values()[self.history + step])
            .collect()
    }
}

/// Dimension value strings of every base series, in base-node order.
pub fn base_dims(ds: &Dataset) -> Vec<Vec<String>> {
    let g = ds.graph();
    g.base_nodes()
        .iter()
        .map(|&b| {
            coord_values(ds, b)
                .into_iter()
                .map(|v| v.expect("base coordinates are concrete"))
                .collect()
        })
        .collect()
}

/// Per dimension, the value string of `node` (`None` for `*`).
fn coord_values(ds: &Dataset, node: NodeId) -> Vec<Option<String>> {
    let g = ds.graph();
    let dims = g.schema().dimensions();
    g.coord(node)
        .values()
        .iter()
        .enumerate()
        .map(|(d, &v)| (v != STAR).then(|| dims[d].values()[v as usize].clone()))
        .collect()
}

/// `{"rows":[...]}` body inserting one full round.
pub fn round_body(dims: &[Vec<String>], values: &[f64]) -> String {
    let rows: Vec<String> = dims
        .iter()
        .zip(values)
        .map(|(d, v)| {
            let quoted: Vec<String> = d.iter().map(|x| format!("\"{x}\"")).collect();
            format!(
                "{{\"dims\":[{}],\"value\":{}}}",
                quoted.join(","),
                fdc_serve::json::num(*v)
            )
        })
        .collect();
    format!("{{\"rows\":[{}]}}", rows.join(","))
}

/// `{"sql": ...}` body of a query.
pub fn query_body(sql: &str) -> String {
    format!("{{\"sql\":\"{}\"}}", fdc_serve::json::escape(sql))
}

/// Forecast query for exactly `node`: one equality predicate per
/// concrete dimension.
pub fn node_sql(ds: &Dataset, node: NodeId, agg: &str, horizon: usize) -> String {
    let names = ds.graph().schema().dimensions();
    let preds: Vec<String> = coord_values(ds, node)
        .into_iter()
        .enumerate()
        .filter_map(|(d, v)| v.map(|v| format!("{} = '{v}'", names[d].name())))
        .collect();
    let wher = if preds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", preds.join(" AND "))
    };
    format!(
        "SELECT time, {agg}(value) FROM facts{wher} GROUP BY time AS OF now() + '{horizon} steps'"
    )
}

/// Multi-node forecast query: `GROUP BY time, <dim>`, optionally under
/// one equality predicate.
pub fn group_sql(filter: Option<(&str, &str)>, group_dim: &str, horizon: usize) -> String {
    let wher = filter.map_or(String::new(), |(d, v)| format!(" WHERE {d} = '{v}'"));
    format!(
        "SELECT time, SUM(value) FROM facts{wher} GROUP BY time, {group_dim} AS OF now() + '{horizon} steps'"
    )
}

/// Zipf(s) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Weights `1 / (rank + 1)^s`, normalized.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.usize_below(i + 1));
    }
}

/// `k` distinct indices below `n`, in ascending order.
pub fn pick(n: usize, k: usize, rng: &mut Rng) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    shuffle(&mut all, rng);
    let mut out = all[..k.min(n)].to_vec();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_cube_is_deterministic_in_seed() {
        let a = SplitCube::generate(30, 20, 5, 9);
        let b = SplitCube::generate(30, 20, 5, 9);
        let c = SplitCube::generate(30, 20, 5, 10);
        assert_eq!(a.future(), 5);
        for step in 0..5 {
            assert_eq!(a.round(step), b.round(step));
        }
        assert_ne!(a.round(0), c.round(0));
        let la = Dataset::from_base(a.schema.clone(), a.loaded_base()).unwrap();
        assert_eq!(la.series_len(), 20);
        // The loaded prefix and the full cube share node ids.
        let top = la.graph().top_node();
        assert_eq!(la.series(top).values(), &a.full.series(top).values()[..20]);
    }

    #[test]
    fn rounds_continue_the_loaded_history() {
        let cube = SplitCube::generate(12, 16, 3, 4);
        let g = cube.full.graph();
        let b0 = g.base_nodes()[0];
        assert_eq!(cube.round(1)[0], cube.actual(b0, 1));
    }

    #[test]
    fn zipf_and_pick_are_deterministic_and_skewed() {
        let z = Zipf::new(20, 1.0);
        let draw = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..2000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        let top = a.iter().filter(|&&r| r == 0).count();
        let tail = a.iter().filter(|&&r| r == 19).count();
        assert!(top > 5 * tail, "rank 0: {top}, rank 19: {tail}");
        let mut r1 = Rng::seed_from_u64(1);
        let mut r2 = Rng::seed_from_u64(1);
        assert_eq!(pick(100, 10, &mut r1), pick(100, 10, &mut r2));
    }

    #[test]
    fn bodies_are_well_formed_json() {
        let cube = SplitCube::generate(6, 8, 1, 2);
        let ds = Dataset::from_base(cube.schema.clone(), cube.loaded_base()).unwrap();
        let body = round_body(&base_dims(&ds), &cube.round(0));
        let doc = fdc_serve::json::parse(&body).unwrap();
        assert_eq!(doc.get("rows").unwrap().as_array().unwrap().len(), 6);
        let sql = node_sql(&ds, ds.graph().top_node(), "SUM", 2);
        assert!(!sql.contains("WHERE"));
        assert!(fdc_serve::json::parse(&query_body(&sql)).is_ok());
    }
}
