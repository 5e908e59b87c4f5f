//! `advise`: the offline model configuration advisor on a fixed set of
//! seeded GenX cubes of 1000–3000 base series — the paper's Fig. 9a
//! cost, with no serving at all.
//!
//! The run advises every cube of the set in turn, whole passes over the
//! set until its time is up, with the stock advisor options plus
//! `parallelism: Some(2)`. Every configuration must keep more than one
//! model and have a finite error, so a degenerate run (only the seeded
//! top model) fails instead of reading as a speed-up.

use crate::gen::SplitCube;
use crate::machine;
use crate::report::Outcome;
use crate::stats::{percentile, Summary};
use crate::{layers, serving, Args};
use fdc_core::{Advisor, AdvisorOptions};
use fdc_cube::Dataset;
use std::time::{Duration, Instant};

/// Cubes in the set: enough that the set's cost does not hinge on a
/// few cubes' data.
const CUBES: usize = 48;
/// Observations per series (the paper's GenX runtime setting).
const LENGTH: usize = 48;
/// The tail percentile reported: advisor runs are too few for a p99.
const TAIL_PCT: f64 = 75.0;

/// Base series of the `i`-th cube: evenly from 1000 to 3000, in steps
/// of 50.
fn base_count(i: usize) -> usize {
    1000 + (2000 * i / (CUBES - 1)) / 50 * 50
}

fn setup(seed: u64) -> Vec<Dataset> {
    (0..CUBES)
        .map(|i| {
            let cube = SplitCube::generate(
                base_count(i),
                LENGTH,
                0,
                seed.wrapping_mul(31).wrapping_add(i as u64),
            );
            serving::build_dataset(&cube)
        })
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut Outcome) {
    let cubes = crate::set_up(out, |k| setup(crate::setup_seed(args.seed, k)), drop);
    let nodes: usize = cubes.iter().map(Dataset::node_count).sum();
    out.info(
        "cubes",
        format!(
            "{CUBES} GenX cubes, base series {}..={} in steps of ~{}, {LENGTH} steps, {nodes} nodes in all",
            base_count(0),
            base_count(CUBES - 1),
            2000 / (CUBES - 1)
        ),
    );
    out.info("advisor", "stock options, parallelism Some(2)");
    serving::time_fits(&cubes[0], args.seed);

    fdc_obs::registry().reset();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut run_ms, mut errors, mut models) = (Vec::new(), Vec::new(), Vec::new());
    let (mut configured, mut wall) = (0usize, Duration::ZERO);
    // Per cube of the set, the CPU (less the stolen share) and the
    // stolen time of each of its runs.
    let (mut cpu, mut steal) = (vec![Vec::new(); CUBES], vec![Vec::new(); CUBES]);
    let mut passes = 0;
    while passes == 0 || Instant::now() < deadline {
        for (i, ds) in cubes.iter().enumerate() {
            let options = AdvisorOptions {
                parallelism: Some(2),
                ..AdvisorOptions::default()
            };
            let (t, cpu0, steal0) = (Instant::now(), machine::cpu_s(), machine::steal_s());
            let outcome = {
                let _s = crate::spans::enter("core.advise", 0);
                Advisor::new(ds, options).map(|mut a| a.run())
            };
            let elapsed = t.elapsed();
            let stolen = machine::steal_s() - steal0;
            cpu[i].push(machine::unstolen(
                machine::cpu_s() - cpu0,
                stolen,
                elapsed.as_secs_f64(),
            ));
            steal[i].push(stolen);
            out.attempted += 1;
            match outcome {
                Ok(o) => {
                    run_ms.push(elapsed.as_secs_f64() * 1e3);
                    wall += elapsed;
                    configured += ds.node_count();
                    out.check(o.model_count > 1 && o.error.is_finite(), || {
                        format!(
                            "degenerate configuration on {} nodes: {} models, error {}",
                            ds.node_count(),
                            o.model_count,
                            o.error
                        )
                    });
                    errors.push(o.error);
                    models.push(o.model_count as f64);
                }
                Err(e) => out.check(false, || format!("advisor refused a cube: {e}")),
            }
        }
        passes += 1;
    }
    out.info("passes", passes);
    // The operation is advising one cube of the fixed set: the work is
    // set by the seed, not by how many models the advisor builds. Each
    // cube's CPU is read from its run with the least stolen time (the
    // earlier on a tie), chosen by the steal counter alone.
    let calm_cpu: f64 = (0..CUBES)
        .map(|i| {
            let calm = (0..passes)
                .min_by(|&a, &b| steal[i][a].total_cmp(&steal[i][b]))
                .expect("at least one pass");
            cpu[i][calm]
        })
        .sum();
    out.set("cpu_ms_per_op", calm_cpu * 1e3 / CUBES as f64);
    out.layer("client.latency_p50_ms", crate::stats::median(&run_ms));

    let nodes_per_s = configured as f64 / wall.as_secs_f64().max(1e-9);
    out.layer("client.throughput_per_s", nodes_per_s);
    let s = Summary::of(&run_ms);
    let mut sorted = run_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let tail = percentile(&sorted, TAIL_PCT).unwrap_or(s.tail);
    let config_smape = crate::stats::mean(&errors);
    out.named("advise_p50_ms", "ms", s.p50);
    out.named(&format!("advise_p{TAIL_PCT}_ms"), "ms", tail);
    out.named("advise_samples", "count", s.count as f64);
    out.named("advise_nodes_per_s", "nodes/s", nodes_per_s);
    out.named("config_smape", "ratio", config_smape);
    out.named("config_models", "count", crate::stats::mean(&models));
    layers::setup_phase(out);
}
