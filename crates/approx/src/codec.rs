//! Versioned binary codec for persisting an [`ApproxPlane`].
//!
//! The plane lives in a sidecar file next to the F²DB catalog (the
//! catalog bytes themselves never change when approximation is enabled
//! — exact results stay byte-identical). Same hand-rolled little-endian
//! style as the catalog codec: no serialization crates, explicit
//! layout, versioned magic header.
//!
//! Layout (v1):
//!
//! ```text
//! "FDCA" | version u16
//! options: strata, samples_per_stratum, seed, min_population, max_nodes (u64 each), confidence f64
//! spec: model-spec tag (+ spec fields)
//! strata bounds: len-prefixed f64s
//! nodes: count, then per node: id u64, strata count, then per stratum:
//!        cap, population, member count, (priority u64, cell u64)*
//! models: count, then per model: cell u64, model state
//!         (spec tag + fields, params, state, observations)
//! ```
//!
//! Fit options are *not* persisted: a restored plane refits (via
//! [`ApproxPlane::add_cell`]) with the caller's current options, which is
//! what a process restart wants anyway.

use crate::plane::{ApproxOptions, ApproxPlane};
use crate::sampler::{NodeSample, ScaleStrata, StratumReservoir};
use crate::{ApproxError, Result};
use fdc_cube::NodeId;
use fdc_forecast::model::restore_model;
use fdc_forecast::{ForecastModel, ModelSpec, ModelState, SeasonalKind};
use std::collections::HashMap;

/// Magic bytes identifying a plane file.
pub const MAGIC: &[u8; 4] = b"FDCA";
/// On-disk format version.
pub const VERSION: u16 = 1;

/// Serializes a plane.
pub fn encode_plane(plane: &ApproxPlane) -> Vec<u8> {
    let (options, spec, strata, nodes, models) = plane.parts();
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());

    put_u64(&mut buf, options.strata as u64);
    put_u64(&mut buf, options.samples_per_stratum as u64);
    put_u64(&mut buf, options.seed);
    put_u64(&mut buf, options.min_population as u64);
    put_u64(&mut buf, options.max_nodes as u64);
    put_f64(&mut buf, options.confidence);

    put_spec(&mut buf, spec);
    put_f64_slice(&mut buf, strata.bounds());

    // Deterministic node order so equal planes encode to equal bytes.
    let mut node_ids: Vec<NodeId> = nodes.keys().copied().collect();
    node_ids.sort_unstable();
    put_u64(&mut buf, node_ids.len() as u64);
    for id in node_ids {
        let ns = &nodes[&id];
        put_u64(&mut buf, id as u64);
        put_u64(&mut buf, ns.strata().len() as u64);
        for s in ns.strata() {
            put_u64(&mut buf, s.cap() as u64);
            put_u64(&mut buf, s.population());
            put_u64(&mut buf, s.members().len() as u64);
            for &(priority, cell) in s.members() {
                put_u64(&mut buf, priority);
                put_u64(&mut buf, cell as u64);
            }
        }
    }

    let mut cells: Vec<NodeId> = models.keys().copied().collect();
    cells.sort_unstable();
    put_u64(&mut buf, cells.len() as u64);
    for cell in cells {
        put_u64(&mut buf, cell as u64);
        put_model_state(&mut buf, &models[&cell].state());
    }
    buf
}

/// Restores a plane. The caller supplies the fit options the restored
/// plane should use for future refits (not persisted — see module docs).
pub fn decode_plane(bytes: &[u8], fit: fdc_forecast::FitOptions) -> Result<ApproxPlane> {
    let mut d = Cursor { buf: bytes };
    let magic = d.take(4)?;
    if magic != MAGIC {
        return Err(ApproxError::Codec("bad plane magic".into()));
    }
    let version = u16::from_le_bytes(d.take(2)?.try_into().unwrap());
    if version != VERSION {
        return Err(ApproxError::Codec(format!(
            "unsupported plane version {version} (this build reads {VERSION})"
        )));
    }

    let strata_opt = d.get_u64()? as usize;
    let samples_per_stratum = d.get_u64()? as usize;
    let seed = d.get_u64()?;
    let min_population = d.get_u64()? as usize;
    let max_nodes = d.get_u64()? as usize;
    let confidence = d.get_f64()?;

    let spec = get_spec(&mut d)?;
    let bounds = d.get_f64_vec()?;
    let strata = ScaleStrata::from_bounds(bounds);

    // Counts are untrusted: every preallocation is capped by how many
    // entries of their smallest encoding the remaining bytes can hold.
    let node_count = d.get_len()?;
    let mut nodes = HashMap::with_capacity(d.capped(node_count, 16));
    for _ in 0..node_count {
        let id = d.get_u64()? as NodeId;
        let stratum_count = d.get_len()?;
        let mut reservoirs = Vec::with_capacity(d.capped(stratum_count, 24));
        for _ in 0..stratum_count {
            let cap = d.get_u64()? as usize;
            let population = d.get_u64()?;
            let member_count = d.get_len()?;
            let mut members = Vec::with_capacity(d.capped(member_count, 16));
            for _ in 0..member_count {
                let priority = d.get_u64()?;
                let cell = d.get_u64()? as NodeId;
                members.push((priority, cell));
            }
            if !members.windows(2).all(|w| w[0] <= w[1]) {
                return Err(ApproxError::Codec("reservoir members out of order".into()));
            }
            reservoirs.push(StratumReservoir::from_parts(cap, population, members));
        }
        nodes.insert(id, NodeSample::from_strata(reservoirs));
    }

    let model_count = d.get_len()?;
    let mut models: HashMap<NodeId, Box<dyn ForecastModel>> =
        HashMap::with_capacity(d.capped(model_count, 33));
    for _ in 0..model_count {
        let cell = d.get_u64()? as NodeId;
        let state = get_model_state(&mut d)?;
        let model =
            restore_model(&state).map_err(|e| ApproxError::Codec(format!("cell {cell}: {e}")))?;
        models.insert(cell, model);
    }

    let options = ApproxOptions {
        strata: strata_opt,
        samples_per_stratum,
        seed,
        confidence,
        spec: Some(spec.clone()),
        fit,
        min_population,
        max_nodes,
    };
    Ok(ApproxPlane::from_parts(
        options, spec, strata, nodes, models,
    ))
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64_slice(buf: &mut Vec<u8>, vs: &[f64]) {
    put_u64(buf, vs.len() as u64);
    for &v in vs {
        put_f64(buf, v);
    }
}

fn put_spec(buf: &mut Vec<u8>, spec: &ModelSpec) {
    match spec {
        ModelSpec::Ses => buf.push(0),
        ModelSpec::Holt => buf.push(1),
        ModelSpec::HoltWinters { period, seasonal } => {
            buf.push(2);
            put_u64(buf, *period as u64);
            buf.push(match seasonal {
                SeasonalKind::Additive => 0,
                SeasonalKind::Multiplicative => 1,
            });
        }
        ModelSpec::Arima { p, d, q } => {
            buf.push(3);
            put_u64(buf, *p as u64);
            put_u64(buf, *d as u64);
            put_u64(buf, *q as u64);
        }
        ModelSpec::Sarima {
            order,
            seasonal,
            period,
        } => {
            buf.push(4);
            put_u64(buf, order.0 as u64);
            put_u64(buf, order.1 as u64);
            put_u64(buf, order.2 as u64);
            put_u64(buf, seasonal.0 as u64);
            put_u64(buf, seasonal.1 as u64);
            put_u64(buf, seasonal.2 as u64);
            put_u64(buf, *period as u64);
        }
        ModelSpec::HoltDamped => buf.push(5),
    }
}

fn put_model_state(buf: &mut Vec<u8>, state: &ModelState) {
    put_spec(buf, &state.spec);
    put_f64_slice(buf, &state.params);
    put_f64_slice(buf, &state.state);
    put_u64(buf, state.observations as u64);
}

struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(ApproxError::Codec("truncated plane file".into()));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `count`, capped by how many items of at least `item_bytes` bytes
    /// the rest of the input can hold.
    fn capped(&self, count: usize, item_bytes: usize) -> usize {
        count.min(self.buf.len() / item_bytes)
    }

    fn get_len(&mut self) -> Result<usize> {
        let v = self.get_u64()?;
        if v > (1 << 40) {
            return Err(ApproxError::Codec(
                "implausible length in plane file".into(),
            ));
        }
        Ok(v as usize)
    }

    fn get_f64_vec(&mut self) -> Result<Vec<f64>> {
        let n = self.get_len()?;
        if self.buf.len() < n * 8 {
            return Err(ApproxError::Codec("truncated f64 vector".into()));
        }
        (0..n).map(|_| self.get_f64()).collect()
    }
}

fn get_spec(d: &mut Cursor<'_>) -> Result<ModelSpec> {
    let tag = d.take(1)?[0];
    Ok(match tag {
        0 => ModelSpec::Ses,
        1 => ModelSpec::Holt,
        5 => ModelSpec::HoltDamped,
        2 => {
            let period = d.get_u64()? as usize;
            let seasonal = match d.take(1)?[0] {
                0 => SeasonalKind::Additive,
                1 => SeasonalKind::Multiplicative,
                k => return Err(ApproxError::Codec(format!("bad seasonal kind {k}"))),
            };
            ModelSpec::HoltWinters { period, seasonal }
        }
        3 => ModelSpec::Arima {
            p: d.get_u64()? as usize,
            d: d.get_u64()? as usize,
            q: d.get_u64()? as usize,
        },
        4 => ModelSpec::Sarima {
            order: (
                d.get_u64()? as usize,
                d.get_u64()? as usize,
                d.get_u64()? as usize,
            ),
            seasonal: (
                d.get_u64()? as usize,
                d.get_u64()? as usize,
                d.get_u64()? as usize,
            ),
            period: d.get_u64()? as usize,
        },
        t => return Err(ApproxError::Codec(format!("bad model spec tag {t}"))),
    })
}

fn get_model_state(d: &mut Cursor<'_>) -> Result<ModelState> {
    let spec = get_spec(d)?;
    let params = d.get_f64_vec()?;
    let state = d.get_f64_vec()?;
    let observations = d.get_u64()? as usize;
    Ok(ModelState {
        spec,
        params,
        state,
        observations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::ApproxQuerySpec;
    use fdc_datagen::{generate_highcard, HighCardSpec};
    use fdc_forecast::FitOptions;

    fn plane() -> (fdc_cube::Dataset, ApproxPlane) {
        let ds = generate_highcard(&HighCardSpec {
            base_cells: 400,
            groups: 20,
            length: 16,
            ..HighCardSpec::new(400, 33)
        })
        .dataset;
        let plane = ApproxPlane::build(
            &ds,
            None,
            ApproxOptions {
                strata: 4,
                samples_per_stratum: 16,
                min_population: 100,
                ..ApproxOptions::default()
            },
        )
        .unwrap();
        (ds, plane)
    }

    #[test]
    fn round_trip_preserves_estimates_bit_for_bit() {
        let (ds, original) = plane();
        let bytes = encode_plane(&original);
        let restored = decode_plane(&bytes, FitOptions::default()).unwrap();

        assert_eq!(original.registered_nodes(), restored.registered_nodes());
        assert_eq!(original.sampled_cell_count(), restored.sampled_cell_count());
        assert_eq!(original.strata().bounds(), restored.strata().bounds());

        let top = ds.graph().top_node();
        let spec = ApproxQuerySpec::default();
        let a = original.estimate(top, 4, &spec).unwrap();
        let b = restored.estimate(top, 4, &spec).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.values), bits(&b.values));
        assert_eq!(bits(&a.ci_half), bits(&b.ci_half));
        assert_eq!(a.sampled, b.sampled);
        assert_eq!(a.population, b.population);
    }

    #[test]
    fn encoding_is_deterministic() {
        let (_, a) = plane();
        let (_, b) = plane();
        assert_eq!(encode_plane(&a), encode_plane(&b));
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicked() {
        let (_, p) = plane();
        let bytes = encode_plane(&p);
        assert!(decode_plane(b"nope", FitOptions::default()).is_err());
        assert!(decode_plane(&bytes[..bytes.len() / 2], FitOptions::default()).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(decode_plane(&bad_magic, FitOptions::default()).is_err());
    }

    #[test]
    fn forged_node_count_is_a_typed_error_not_an_abort() {
        // A valid header, options, spec and strata bounds, then a node
        // count of 2^40 and one stray byte: 104 bytes that must not
        // size an allocation.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        for v in [4u64, 16, 7, 100, 64] {
            put_u64(&mut bytes, v);
        }
        put_f64(&mut bytes, 0.95);
        put_spec(&mut bytes, &ModelSpec::Ses);
        put_f64_slice(&mut bytes, &[1.0, 10.0, 100.0, 1000.0]);
        put_u64(&mut bytes, 1 << 40);
        bytes.push(0);
        assert_eq!(bytes.len(), 104);
        let err = decode_plane(&bytes, FitOptions::default()).err();
        assert!(matches!(err, Some(ApproxError::Codec(_))), "{err:?}");
    }
}
