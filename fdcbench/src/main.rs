//! `fdcbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path fdcbench/Cargo.toml -- \
//!     --workload <dashboard|ingest|fanout|advise> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from `--seed`, deploys the system the way a user
//! would (`fdc-serve` via `open_engine`, `fdc-router` over partitioned
//! shards, `fdc-core`'s `Advisor`), drives it for about `--seconds`
//! (`ingest` replays a fixed number of rounds sized by it), checks every
//! output it can against an oracle, and prints a report followed by one
//! JSON result line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` records spans around every call into a layer, writes
//! them to `.bench_work/trace-<workload>-<seed>.json` and reports the
//! per-layer metrics. Exits non-zero when an output check fails.

mod advise;
mod catalog;
mod dashboard;
mod fanout;
mod gen;
mod http;
mod ingest;
mod layers;
mod machine;
mod report;
mod serving;
mod spans;
mod stats;

use report::Outcome;
use std::path::PathBuf;

/// Times every workload sets up; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Runs of [`machine::gauge_s`] before and after a workload.
const GAUGES: usize = 5;

/// Seed of the inputs of the `k`-th set-up of a run seeded `seed`.
/// Every set-up builds other inputs of the same kind: one cube's
/// set-up cost follows the configuration its data leads to (between 3
/// and 17 models on `dashboard`), and varied twofold between seeds.
/// The run goes on with the last deployment.
pub fn setup_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(SETUPS as u64).wrapping_add(k as u64)
}

/// Sets a deployment up [`SETUPS`] times (`setup(k)` for the `k`-th),
/// tearing each one down before the next is built, so one deployment
/// at a time is in memory. Records the median process CPU time of a
/// set-up as `setup_s` (CPU time, unlike wall time, does not grow with
/// what the host's neighbours take), and the median wall time for the
/// report. Returns the last deployment.
pub fn set_up<T>(
    out: &mut Outcome,
    mut setup: impl FnMut(usize) -> T,
    mut teardown: impl FnMut(T),
) -> T {
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    let mut kept = None;
    for k in 0..SETUPS {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let (c, t) = (machine::cpu_s(), std::time::Instant::now());
        kept = Some(setup(k));
        wall.push(t.elapsed().as_secs_f64());
        cpu.push(machine::cpu_s() - c);
    }
    out.set("setup_s", stats::median(&cpu));
    out.named("setup_wall_s", "s", stats::median(&wall));
    kept.expect("SETUPS is positive")
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Scratch directory inside the checkout, removed at the end.
    pub work: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = raw
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        raw.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !catalog::WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work,
    })
}

/// The commit the checkout was built from, when it is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_else(|_| {
            std::fs::read_to_string(".git/packed-refs")
                .unwrap_or_default()
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .unwrap_or("")
                .to_string()
        }),
        None => head,
    };
    match rev.trim() {
        "" => "unknown (not a git checkout)".to_string(),
        r => r.chars().take(12).collect(),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fdcbench: {e}");
            eprintln!("usage: fdcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    spans::set_enabled(args.trace);
    std::fs::create_dir_all(&args.work).expect("create the scratch directory");

    let mut out = Outcome::default();
    out.info("workload", &args.workload);
    out.info("git_rev", git_rev());
    out.info(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    out.info("seed", args.seed);
    out.info("seconds", args.seconds);
    out.info("trace", args.trace as u8);
    let mut gauge: Vec<f64> = (0..GAUGES).map(|_| machine::gauge_s()).collect();
    let (steal0, started) = (machine::steal_s(), std::time::Instant::now());
    match args.workload.as_str() {
        "dashboard" => dashboard::run(&args, &mut out),
        "ingest" => ingest::run(&args, &mut out),
        "fanout" => fanout::run(&args, &mut out),
        "advise" => advise::run(&args, &mut out),
        _ => unreachable!("validated by parse_args"),
    }
    gauge.extend((0..GAUGES).map(|_| machine::gauge_s()));
    // The CPU figures are quoted at the gauge's reference speed, which
    // takes the machine's own changes of speed out of them.
    let g = stats::median(&gauge);
    let scale = machine::GAUGE_REF_S / g;
    out.info(
        "gauge",
        format!(
            "{:.4} ms (median of {}), CPU figures scaled by {scale:.4}; unscaled: setup_s {:.6}, cpu_ms_per_op {:.6}",
            g * 1e3,
            gauge.len(),
            out.e2e.get("setup_s").copied().unwrap_or(0.0),
            out.e2e.get("cpu_ms_per_op").copied().unwrap_or(0.0),
        ),
    );
    for name in ["setup_s", "cpu_ms_per_op"] {
        if let Some(v) = out.e2e.get_mut(name) {
            *v *= scale;
        }
    }
    out.set("peak_rss_mb", report::peak_rss_mb());
    // The share of the machine's CPU time its hypervisor gave to
    // others during the run: the noise every wall-clock figure carries.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let stolen_s = machine::steal_s() - steal0;
    out.info(
        "steal_pct",
        format!(
            "{:.1}",
            100.0 * stolen_s / (cpus * started.elapsed().as_secs_f64())
        ),
    );
    std::fs::remove_dir_all(&args.work).ok();

    if args.trace {
        let path = PathBuf::from(".bench_work")
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        let spans = spans::collected();
        match std::fs::write(&path, spans::chrome_json(&spans)) {
            Ok(()) => out.info(
                "trace_file",
                format!("{} ({} spans)", path.display(), spans.len()),
            ),
            Err(e) => out.info("trace_file", format!("not written: {e}")),
        }
        // The benchmark-side waterfall: time per span name, and the part
        // of it not covered by child spans.
        for (name, t) in spans::totals(&spans) {
            out.info(
                &format!("span {name}"),
                format!(
                    "n={} total {:.3} ms, self {:.3} ms",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                ),
            );
        }
    }
    report::print_report(&out, args.trace);
    println!("{}", report::result_json(&out, args.trace));
    if !out.correct() {
        std::process::exit(1);
    }
}
