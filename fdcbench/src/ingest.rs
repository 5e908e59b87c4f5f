//! `ingest`: a durable primary taking the rest of the cube's history as
//! full-round inserts while ad-hoc readers query it, ending with a
//! crash recovery.
//!
//! The GenX cube is generated longer than it is loaded; the engine gets
//! the prefix, and one closed-loop writer replays the held-out tail in
//! time order, one full round per `/insert`, waiting for each durable
//! `202`. One reader sends ad-hoc queries over every node and horizon,
//! back to back but tied to the writer: [`READS_PER_ROUND`] reads per
//! acknowledged round, so every round comes with the same reads and the
//! work per round is fixed whatever the latencies. The server runs with the write-ahead log on, `fsync` on
//! and the default coalescing window. At the end the engine is reopened
//! with `open_engine` from the setup-time catalog plus the run's log,
//! and every acknowledged round must be back.

use crate::gen::{base_dims, group_sql, node_sql, query_body, round_body, SplitCube};
use crate::http::Client;
use crate::machine::{Profile, Sampler};
use crate::report::{counter, hist, ratio, span_hist, Outcome};
use crate::serving::{self, Observed, Request};
use crate::stats::Summary;
use crate::{layers, spans, Args};
use fdc_cube::{Configuration, Dataset};
use fdc_f2db::F2db;
use fdc_obs::names;
use fdc_rng::Rng;
use fdc_serve::{json, open_engine, ServeOptions, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

const BASES: usize = 400;
const HISTORY: usize = 64;
/// Full rounds the writer replays per measured second: the replay is a
/// fixed amount of work, about `--seconds` long on a 2-core machine, so
/// memory, the recovery and the re-fit counts do not depend on speed.
const ROUNDS_PER_SECOND: f64 = 160.0;
/// A replay slower than this many times `--seconds` is cut short.
const SLACK: f64 = 6.0;
/// Every this many rounds the writer asks for the next step's forecast
/// of every node (base series, groups, top) before inserting it.
const SCORE_EVERY: usize = 10;
/// Distinct ad-hoc queries the reader draws from.
const ADHOC: usize = 4096;
/// Reads the reader sends per acknowledged round: fewer than it could
/// on a 2-core machine (about 25), so it keeps pace with the writer.
const READS_PER_ROUND: usize = 16;

/// Ties the reader to the writer: read `i` may be sent once
/// `i / READS_PER_ROUND + 1` rounds are acknowledged.
#[derive(Default)]
struct Pace {
    /// Rounds acknowledged, and whether the replay is over.
    state: Mutex<(usize, bool)>,
    moved: Condvar,
}

impl Pace {
    fn acked(&self) {
        self.state.lock().unwrap().0 += 1;
        self.moved.notify_all();
    }

    fn finish(&self) {
        self.state.lock().unwrap().1 = true;
        self.moved.notify_all();
    }

    /// Waits until read `i` is due; `true` when it never will be (the
    /// replay is over and every read of an acknowledged round is sent).
    fn wait_for(&self, i: usize) -> bool {
        let mut state = self.state.lock().unwrap();
        loop {
            let (acked, over) = *state;
            if i < acked * READS_PER_ROUND {
                return false;
            }
            if over {
                return true;
            }
            state = self.moved.wait(state).unwrap();
        }
    }
}

struct Deployment {
    cube: SplitCube,
    dataset: Dataset,
    config: Configuration,
    catalog: PathBuf,
    wal: PathBuf,
    server: Server,
}

fn serve_options(catalog: Option<PathBuf>, wal: &std::path::Path) -> ServeOptions {
    ServeOptions {
        catalog_path: catalog,
        wal_dir: Some(wal.to_path_buf()),
        wal_fsync: true,
        ..ServeOptions::default()
    }
}

fn rounds(args: &Args) -> usize {
    (args.seconds * ROUNDS_PER_SECOND).round().max(1.0) as usize
}

fn setup(args: &Args, k: usize) -> Deployment {
    let cube = SplitCube::generate(
        BASES,
        HISTORY,
        rounds(args),
        crate::setup_seed(args.seed, k),
    );
    let dataset = serving::build_dataset(&cube);
    let config = serving::pinned_configuration(&dataset);
    let db = F2db::load(dataset.clone(), &config).expect("load pinned configuration");
    let catalog = args.work.join(format!("catalog-{k}.f2db"));
    let wal = args.work.join(format!("wal-{k}"));
    {
        let _s = spans::enter("f2db.checkpoint", 0);
        db.save_catalog(&catalog)
            .expect("save the setup-time catalog");
    }
    let (db, _) =
        open_engine(db, &serve_options(Some(catalog.clone()), &wal)).expect("open engine");
    // The server itself never checkpoints: the log keeps every round
    // for the recovery at the end.
    let server = Server::start(db, 0, serve_options(None, &wal)).expect("start server");
    Deployment {
        cube,
        dataset,
        config,
        catalog,
        wal,
        server,
    }
}

/// Ad-hoc queries over every node and horizon, SUM and AVG.
fn adhoc_pool(ds: &Dataset, seed: u64) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xad40c);
    (0..ADHOC)
        .map(|_| {
            let node = rng.usize_below(ds.node_count());
            let horizon = 1 + rng.usize_below(8);
            let agg = if rng.usize_below(4) == 0 {
                "AVG"
            } else {
                "SUM"
            };
            node_sql(ds, node, agg, horizon)
        })
        .collect()
}

/// What the writer saw.
#[derive(Default)]
struct Written {
    insert_ms: Vec<f64>,
    /// When each acknowledged round was sent.
    sent: Vec<Instant>,
    acked: usize,
    failed: u64,
    attempted: u64,
    replay: Duration,
    smape: Vec<f64>,
}

/// Replays the tail: before every `SCORE_EVERY`-th round, the forecast
/// of the scored node set for that round's time stamp; then the round.
fn write(addr: std::net::SocketAddr, dep: &Deployment, deadline: Instant, pace: &Pace) -> Written {
    let base = base_dims(&dep.dataset);
    let g = dep.dataset.graph();
    let dims = g.schema().dimensions();
    let scored = [
        query_body(&group_sql(None, dims[0].name(), 1)),
        query_body(&group_sql(None, dims[1].name(), 1)),
        query_body(&node_sql(&dep.dataset, g.top_node(), "SUM", 1)),
    ];
    let mut client = Client::new(addr);
    let mut w = Written::default();
    let started = Instant::now();
    for step in 0..dep.cube.future() {
        if Instant::now() >= deadline {
            break;
        }
        for body in scored.iter().filter(|_| step % SCORE_EVERY == 0) {
            w.attempted += 1;
            match client.post("/query", body) {
                Ok(r) if r.status == 200 => {
                    for (node, forecast) in forecast_rows(&r.body) {
                        let actual = dep.cube.actual(node, step);
                        w.smape.push(fdc_forecast::smape(&[actual], &[forecast]));
                    }
                }
                _ => w.failed += 1,
            }
        }
        let body = round_body(&base, &dep.cube.round(step));
        w.attempted += 1;
        let _s = spans::enter("client.insert", step as u64 + 1);
        let sent = Instant::now();
        match client.post("/insert", &body) {
            Ok(r) if r.status == 202 => {
                w.insert_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                w.sent.push(sent);
                w.acked += 1;
                pace.acked();
            }
            _ => {
                // A round that is not acknowledged leaves the time stamp
                // incomplete; later rounds would not line up with it.
                w.failed += 1;
                break;
            }
        }
    }
    w.replay = started.elapsed();
    w
}

/// `(node, first forecast value)` of every row of a `/query` answer.
fn forecast_rows(body: &str) -> Vec<(usize, f64)> {
    let Ok(doc) = json::parse(body) else {
        return Vec::new();
    };
    let Some(rows) = doc.get("rows").and_then(json::Value::as_array) else {
        return Vec::new();
    };
    rows.iter()
        .filter_map(|r| {
            let node = r.get("node")?.as_f64()? as usize;
            let first = r
                .get("values")?
                .as_array()?
                .first()?
                .as_array()?
                .get(1)?
                .as_f64()?;
            Some((node, first))
        })
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut Outcome) {
    let dep = crate::set_up(
        out,
        |k| setup(args, k),
        |old: Deployment| drop(old.server.shutdown()),
    );
    let addr = dep.server.addr();
    let pool = adhoc_pool(&dep.dataset, args.seed);
    let bodies: Vec<String> = pool.iter().map(|s| query_body(s)).collect();
    out.info(
        "cube",
        format!(
            "GenX {BASES} base series, {} nodes, {HISTORY} steps loaded, {} rounds held out",
            dep.dataset.node_count(),
            dep.cube.future()
        ),
    );
    out.info("models", dep.config.model_count());
    // Also the engine the crash recovery reopens: loaded from the
    // setup-time data set, the state the saved catalog describes.
    let fresh = F2db::load(dep.dataset.clone(), &dep.config).expect("load pinned configuration");
    let answers: Vec<String> = pool
        .iter()
        .take(64)
        .map(|s| serving::render(&fresh.query(s).expect("ad-hoc query is servable")))
        .collect();
    out.info("answers_fingerprint", serving::fingerprint(&answers));
    out.info("wal", "on, fsync on, default coalescing window");
    out.info(
        "load",
        format!("1 closed-loop writer (full rounds of {BASES} rows); 1 reader over {ADHOC} ad-hoc queries, {READS_PER_ROUND} per acknowledged round"),
    );
    serving::time_fits(&dep.dataset, args.seed);
    layers::setup_phase(out);
    let catalog_bytes = std::fs::metadata(&dep.catalog).map_or(0, |m| m.len());
    out.layer("f2db.catalog_bytes", catalog_bytes as f64);
    let checkpoint = spans::durations(&spans::collected(), "f2db.checkpoint");
    out.layer("f2db.checkpoint_ms", crate::stats::mean(&checkpoint) / 1e6);

    fdc_obs::registry().reset();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * SLACK);
    // The reader runs while the writer replays: reads under writes.
    let pace = Pace::default();
    let sampler = Sampler::start();
    let (written, read) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let w = write(addr, &dep, deadline, &pace);
            pace.finish();
            w
        });
        let reader = s.spawn(|| {
            let next = AtomicUsize::new(0);
            let done = || pace.wait_for(next.fetch_add(1, Ordering::Relaxed));
            serving::closed_loop(addr, 1, args.seed, done, |rng: &mut Rng| {
                let k = rng.usize_below(bodies.len());
                Request {
                    key: k,
                    body: &bodies[k],
                    expect: None,
                }
            })
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let profile = sampler.finish();
    out.info("replay_steal_pct", format!("{:.1}", profile.steal_pct()));
    let rows = written.acked * BASES;
    report_load(out, &written, &read, &profile);
    let stats = dep.server.db().stats();
    let advances = stats.time_advances as f64;
    let refits_per_1k = ratio(stats.reestimations as f64 * 1000.0, advances);
    out.named("refits_per_1k_advances", "count", refits_per_1k);
    out.layer("f2db.reestimations_per_1k_advances", refits_per_1k);
    out.layer(
        "f2db.invalidations_per_1k_advances",
        ratio(stats.invalidations as f64 * 1000.0, advances),
    );
    layers::serve_phase(out, read.summary().p50);
    write_layers(out, rows, dep.config.model_count());

    // Crash recovery: the fresh engine opens the setup-time catalog and
    // replays the log the run wrote, as a restart after a crash would
    // (the live server is left as it is, not drained).
    fdc_obs::registry().reset();
    let t = Instant::now();
    let recovered = {
        let _s = spans::enter("f2db.recover", 0);
        open_engine(fresh, &serve_options(Some(dep.catalog.clone()), &dep.wal))
    };
    let recover_s = t.elapsed().as_secs_f64();
    out.named("recover_s", "s", recover_s);
    out.layer(
        "wal.replay_ms",
        hist(names::WAL_RECOVERY_NS).sum as f64 / 1e6,
    );
    match recovered {
        Ok((db, _)) => {
            check_recovered(out, &db, &dep, written.acked);
            if args.trace {
                let sqls: Vec<&str> = pool.iter().take(2000).map(String::as_str).collect();
                layers::replay(out, &db, &sqls);
                time_reestimates(&db, &dep.config);
                let all = spans::collected();
                let re = spans::durations(&all, "f2db.reestimate");
                out.layer("f2db.reestimate_ms", crate::stats::mean(&re) / 1e6);
            }
        }
        Err(e) => out.check(false, || format!("recovery failed: {e}")),
    }
    out.attempted += 1;
    dep.server.shutdown().ok();
}

fn report_load(out: &mut Outcome, w: &Written, read: &Observed, profile: &Profile) {
    let q = read.summary();
    let ins = Summary::of(&w.insert_ms);
    out.latency("query", &q);
    out.latency("insert", &ins);
    let reads = read.steady(profile);
    let rounds = profile.steady(&w.insert_ms, &w.sent);
    out.named("query_rps", "req/s", reads.rate);
    let replay_s = w.replay.as_secs_f64();
    out.named(
        "ingest_rows_per_s",
        "rows/s",
        (w.acked * BASES) as f64 / replay_s,
    );
    out.named("acked_rounds", "count", w.acked as f64);
    out.named(
        "reads_per_round",
        "count",
        read.attempted as f64 / w.acked.max(1) as f64,
    );
    let smape = crate::stats::mean(&w.smape);
    out.named("forecast_smape", "ratio", smape);
    out.layer("client.latency_p50_ms", reads.p50_ms);
    out.layer("client.throughput_per_s", rounds.rate * BASES as f64);
    // CPU per round, its READS_PER_ROUND reads included.
    out.set("cpu_ms_per_op", rounds.cpu_ms_per_op);
    out.layer("client.conns_per_request", read.conns_per_request());
    out.layer("client.distinct_query_share", read.distinct_share());
    out.attempted += w.attempted + read.attempted;
    out.failed += w.failed + read.failed;
}

/// The write path's layers: batch commits, time advances and the log.
fn write_layers(out: &mut Outcome, rows: usize, models: usize) {
    if let Some(h) = span_hist("f2db.insert_batch") {
        out.layer("f2db.insert_batch_us_p50", h.p50 as f64 / 1e3);
        out.layer("f2db.insert_batch_us_p99", h.p99 as f64 / 1e3);
    }
    if let Some(h) = span_hist("f2db.advance_time") {
        out.layer("f2db.advance_us_p50", h.p50 as f64 / 1e3);
        out.layer(
            "forecast.update_ns_per_model",
            ratio(h.mean(), models as f64),
        );
    }
    let fsyncs = counter(names::WAL_FSYNCS) as f64;
    out.layer("wal.fsyncs", fsyncs);
    out.layer("wal.rows_per_fsync", ratio(rows as f64, fsyncs));
    out.layer(
        "wal.bytes_per_row",
        ratio(counter(names::WAL_APPENDED_BYTES) as f64, rows as f64),
    );
}

/// Zero acknowledged rounds lost: the recovered history is the loaded
/// prefix plus exactly the acknowledged rounds, value for value.
fn check_recovered(out: &mut Outcome, db: &F2db, dep: &Deployment, acked: usize) {
    let ds = db.dataset();
    let len = ds.series_len();
    out.check(len == HISTORY + acked, || {
        format!(
            "recovered {} rounds, {acked} were acknowledged",
            len - HISTORY
        )
    });
    let lost = ds
        .graph()
        .base_nodes()
        .iter()
        .filter(|&&b| {
            let got = &ds.series(b).values()[HISTORY.min(len)..];
            let want: Vec<f64> = (0..acked).map(|s| dep.cube.actual(b, s)).collect();
            got.iter()
                .map(|v| v.to_bits())
                .ne(want.iter().map(|v| v.to_bits()))
        })
        .count();
    out.check(lost == 0, || {
        format!("{lost} base series differ from the acknowledged rounds after recovery")
    });
    out.named(
        "lost_rounds",
        "count",
        (acked as f64 - (len - HISTORY) as f64).max(0.0),
    );
}

/// Times re-estimating every model of the configuration on the
/// recovered engine's current history (span `f2db.reestimate`).
fn time_reestimates(db: &F2db, config: &Configuration) {
    let ds = db.dataset();
    let fit = fdc_forecast::FitOptions::default();
    for node in config.model_nodes() {
        let _s = spans::enter("f2db.reestimate", 0);
        db.catalog().reestimate(node, &ds, &fit).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reader_sends_a_fixed_number_of_reads_per_round() {
        let pace = Pace::default();
        std::thread::scope(|s| {
            let reader = s.spawn(|| (0..).take_while(|&i| !pace.wait_for(i)).count());
            for _ in 0..3 {
                pace.acked();
            }
            pace.finish();
            assert_eq!(reader.join().unwrap(), 3 * READS_PER_ROUND);
        });
    }
}
