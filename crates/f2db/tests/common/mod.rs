//! Fixed inputs for every binary format the workspace persists or
//! ships, shared by the golden-bytes test (`formats.rs`) and the
//! decode-mutation test (`decode_mutation.rs`).
//!
//! Every fixture is deterministic: seeded generators, fixed values, and
//! models fitted with the default (deterministic) fit options.

use fdc_approx::{decode_plane, encode_plane, ApproxOptions, ApproxPlane};
use fdc_cube::{Configuration, ConfiguredModel, CubeSplit, Dataset};
use fdc_datagen::{generate_cube, generate_highcard, GenSpec, HighCardSpec};
use fdc_f2db::durability::{decode_checkpoint, encode_checkpoint};
use fdc_f2db::{Catalog, WalRecord};
use fdc_forecast::{FitOptions, ModelSpec, SeasonalKind};
use fdc_obs::{
    AccuracyOptions, KeyAccuracy, MomentSummary, RollingAccuracy, SketchBundle, TDigest,
};
use fdc_wal::{decode_chunk, encode_chunk, ShipChunk};

/// One encoded format instance and the decoder that reads it back.
pub struct Fixture {
    /// Stable name, used in assertion messages.
    pub name: &'static str,
    /// The encoding under test.
    pub bytes: Vec<u8>,
    /// Runs the format's public decoder; `Err` carries its typed error,
    /// rendered.
    pub decode: fn(&[u8]) -> Result<(), String>,
}

fn ok_or_text<T, E: std::fmt::Display>(r: Result<T, E>) -> Result<(), String> {
    r.map(drop).map_err(|e| e.to_string())
}

/// A cube with one fitted model of each [`ModelSpec`] variant, one per
/// node, loaded into a catalog.
fn catalog_fixture() -> (Dataset, Catalog) {
    let ds = generate_cube(&GenSpec::new(6, 32, 0xF0_4A75)).dataset;
    let split = CubeSplit::new(&ds, 0.8);
    let fit = FitOptions::default();
    let specs = [
        ModelSpec::Ses,
        ModelSpec::Holt,
        ModelSpec::HoltDamped,
        ModelSpec::HoltWinters {
            period: 4,
            seasonal: SeasonalKind::Additive,
        },
        ModelSpec::Arima { p: 1, d: 1, q: 1 },
        ModelSpec::Sarima {
            order: (1, 0, 0),
            seasonal: (0, 1, 0),
            period: 4,
        },
    ];
    assert!(ds.node_count() >= specs.len(), "{} nodes", ds.node_count());
    let mut cfg = Configuration::new(ds.node_count());
    for (v, spec) in specs.iter().enumerate() {
        let model = ConfiguredModel::fit(&split, v, spec, &fit)
            .unwrap_or_else(|e| panic!("fitting {spec:?} at node {v}: {e}"));
        cfg.insert_model(v, model);
    }
    let all: Vec<usize> = (0..ds.node_count()).collect();
    cfg.recompute_nodes(&ds, &split, &all);
    let catalog = Catalog::from_configuration(&ds, &cfg, &fit).expect("catalog loads");
    (ds, catalog)
}

fn untraced_record() -> WalRecord {
    WalRecord::InsertBatch {
        rows: vec![(0, 1.5), (3, -2.25), (17, 1e9)],
        trace: None,
    }
}

fn traced_record() -> WalRecord {
    WalRecord::InsertBatch {
        rows: vec![(5, 42.0)],
        trace: Some((
            0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
            0x0f1e_2d3c_4b5a_6978,
        )),
    }
}

fn approx_plane() -> ApproxPlane {
    let ds = generate_highcard(&HighCardSpec {
        base_cells: 48,
        groups: 4,
        length: 12,
        ..HighCardSpec::new(48, 0xFDCA)
    })
    .dataset;
    ApproxPlane::build(
        &ds,
        None,
        ApproxOptions {
            strata: 2,
            samples_per_stratum: 3,
            min_population: 8,
            spec: Some(ModelSpec::Ses),
            ..ApproxOptions::default()
        },
    )
    .expect("plane builds")
}

fn moment() -> MomentSummary {
    let mut s = MomentSummary::new();
    for x in [1.5, -0.25, 1e9, -3.75, 0.0] {
        s.insert(x);
    }
    s
}

fn digest() -> TDigest {
    let mut d = TDigest::new(32.0);
    for i in 0..300 {
        d.insert((i * 37 % 101) as f64 * 0.5);
    }
    d.flush();
    d
}

fn accuracy() -> Vec<KeyAccuracy> {
    let acc = RollingAccuracy::new(AccuracyOptions::default());
    for i in 0..6 {
        acc.record(3, 10.0 + i as f64, 10.0);
        acc.record(8, 4.0, 2.0 + i as f64);
    }
    acc.summaries()
}

/// Every format, in a fixed order.
pub fn fixtures() -> Vec<Fixture> {
    let (ds, catalog) = catalog_fixture();
    let catalog_bytes = catalog.encode();
    let base = ds.graph().base_nodes();
    let checkpoint = encode_checkpoint(11, &[(base[0], 2.5), (base[1], -1.0)], &ds, &catalog_bytes);
    let chunk = encode_chunk(&ShipChunk {
        durable_seq: 9,
        checkpoint_seq: 2,
        frames: vec![
            (3, untraced_record().encode()),
            (4, traced_record().encode()),
        ],
    });
    let bundle = SketchBundle {
        accuracy: accuracy(),
        digests: vec![("serve.request.ns{route=\"/query\"}".to_string(), digest())],
    };
    vec![
        Fixture {
            name: "catalog",
            bytes: catalog_bytes,
            decode: |b| ok_or_text(Catalog::decode(b)),
        },
        Fixture {
            name: "wal_record_untraced",
            bytes: untraced_record().encode(),
            decode: |b| ok_or_text(WalRecord::decode(b)),
        },
        Fixture {
            name: "wal_record_traced",
            bytes: traced_record().encode(),
            decode: |b| ok_or_text(WalRecord::decode(b)),
        },
        Fixture {
            name: "f2ck",
            bytes: checkpoint,
            // As `F2db::open_catalog` does: the container, then the
            // catalog it embeds.
            decode: |b| {
                let cp = decode_checkpoint(b).map_err(|e| e.to_string())?;
                ok_or_text(Catalog::decode(&cp.catalog_bytes))
            },
        },
        Fixture {
            name: "fdca",
            bytes: encode_plane(&approx_plane()),
            decode: |b| ok_or_text(decode_plane(b, FitOptions::default())),
        },
        Fixture {
            name: "fdcship",
            bytes: chunk,
            decode: |b| ok_or_text(decode_chunk(b)),
        },
        Fixture {
            name: "moment_summary",
            bytes: moment().encode(),
            decode: |b| ok_or_text(MomentSummary::decode(b)),
        },
        Fixture {
            name: "tdigest",
            bytes: digest().encode(),
            decode: |b| ok_or_text(TDigest::decode(b)),
        },
        Fixture {
            name: "key_accuracy",
            bytes: accuracy()[0].encode(),
            decode: |b| ok_or_text(KeyAccuracy::decode(b)),
        },
        Fixture {
            name: "sketch_bundle",
            bytes: bundle.encode(),
            decode: |b| ok_or_text(SketchBundle::decode(b)),
        },
    ]
}
