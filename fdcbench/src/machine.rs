//! What the machine did while a phase ran: the hypervisor's steal
//! counter and this process's CPU time, sampled every half second.
//!
//! On a shared host, neighbours take CPU from the machine in bursts
//! (`steal` in `/proc/stat`), and every wall-clock figure of a window
//! they hit is inflated. The gated figures are therefore read over the
//! calmer half of a phase's windows, chosen by the steal counter alone,
//! never by the figure itself.

use crate::stats::median;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Length of one sampling window, seconds.
pub const WINDOW_S: f64 = 0.5;

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// CPU time the hypervisor has stolen from the machine so far, all
/// CPUs, seconds.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

fn clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit
    // `time_t` and `long` on the 64-bit Linux targets this runs on).
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU time this process has used so far, all threads (exited ones
/// included), user + system, seconds, at the resolution of
/// `CLOCK_PROCESS_CPUTIME_ID` (nanoseconds; `/proc` counts 10 ms ticks).
pub fn cpu_s() -> f64 {
    clock_s(2)
}

/// CPU time of the calling thread, seconds (`CLOCK_THREAD_CPUTIME_ID`).
fn thread_cpu_s() -> f64 {
    clock_s(3)
}

/// What [`gauge_s`] reads on the machine the CPU figures are quoted
/// for (a 2-core virtual machine in a calm period), seconds.
pub const GAUGE_REF_S: f64 = 0.0075;

/// CPU time of one run of a fixed computation of the benchmark's own,
/// seconds: floating point over an L1-sized array, and hashing with
/// data-dependent branches over an L2-sized buffer, allocating nothing.
/// A gauge of how fast the machine runs code at the moment, which no
/// change to the program can move: on a 2-core virtual machine the CPU
/// figures of every workload rose and fell together by 15–20 % within
/// minutes, with no steal.
pub fn gauge_s() -> f64 {
    let start = thread_cpu_s();
    let mut x = [0.0f64; 1024];
    let mut buf = [0u8; 16 << 10];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for round in 0..160 {
        for (i, v) in x.iter_mut().enumerate() {
            *v = (*v * 0.999 + (i + round) as f64).sqrt() + 1.0;
        }
        for b in buf.iter_mut() {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
            *b = (h >> 29) as u8;
            if *b & 1 == 0 {
                h = h.rotate_left(7);
            }
        }
    }
    std::hint::black_box((&x, h));
    thread_cpu_s() - start
}

/// Process CPU time `cpu` used over `wall` seconds in which the
/// hypervisor stole `stolen` seconds of the machine's CPU time, less
/// the stolen share. The guest charges stolen time to whichever thread
/// was running when its virtual CPU was descheduled, so the CPU time of
/// a process that keeps every CPU busy grows with steal: on a 2-core
/// virtual machine, closed-loop CPU per query rose by about
/// 1 / (1 − stolen share) through a 25–30 % steal episode, and read as
/// in calm periods once corrected. A lightly loaded process is charged
/// far less (corrected this way, CPU per query at a fixed rate of 15 %
/// of capacity read 25 % low at 33 % steal), so paced phases are read
/// uncorrected.
pub fn unstolen(cpu: f64, stolen: f64, wall: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    if wall <= 0.0 {
        return cpu;
    }
    cpu * (1.0 - stolen / (cpus * wall)).clamp(0.0, 1.0)
}

/// Per-window steal and CPU time of a phase.
#[derive(Debug, Clone)]
pub struct Profile {
    /// When the first window began.
    pub start: Instant,
    /// Seconds stolen from the machine in each full window.
    pub steal_s: Vec<f64>,
    /// Seconds of CPU this process used in each full window.
    pub cpu_s: Vec<f64>,
}

impl Profile {
    /// The window an instant falls in, if it is a full window.
    pub fn window_of(&self, at: Instant) -> Option<usize> {
        let i = (at.checked_duration_since(self.start)?.as_secs_f64() / WINDOW_S) as usize;
        (i < self.steal_s.len()).then_some(i)
    }

    /// The calmer half of the windows (rounded up) by stolen time,
    /// ascending index; ties keep the earlier window.
    pub fn calm(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.steal_s.len()).collect();
        order.sort_by(|&a, &b| self.steal_s[a].total_cmp(&self.steal_s[b]).then(a.cmp(&b)));
        order.truncate(self.steal_s.len().div_ceil(2));
        order.sort_unstable();
        order
    }

    /// Stolen share of the machine's CPU time over the phase's windows, %.
    pub fn steal_pct(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let wall = self.steal_s.len() as f64 * WINDOW_S * cpus as f64;
        if wall == 0.0 {
            0.0
        } else {
            100.0 * self.steal_s.iter().sum::<f64>() / wall
        }
    }
}

/// A phase's figures over its calm windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Steady {
    /// Median over the calm windows of each window's median latency, ms.
    pub p50_ms: f64,
    /// Median over the calm windows of each window's events per second.
    pub rate: f64,
    /// Process CPU per event over the calm windows, ms.
    pub cpu_ms_per_op: f64,
    /// Calm windows read.
    pub windows: usize,
}

impl Profile {
    /// Reads events (latency `latency_ms[i]`, happening at `at[i]`) over
    /// the calm windows. A phase shorter than one window is read whole.
    pub fn steady(&self, latency_ms: &[f64], at: &[Instant]) -> Steady {
        let mut per = vec![Vec::new(); self.steal_s.len()];
        for (&l, &t) in latency_ms.iter().zip(at) {
            if let Some(w) = self.window_of(t) {
                per[w].push(l);
            }
        }
        let calm = self.calm();
        if calm.is_empty() {
            return Steady {
                p50_ms: median(latency_ms),
                rate: 0.0,
                cpu_ms_per_op: 0.0,
                windows: 0,
            };
        }
        let medians: Vec<f64> = calm
            .iter()
            .filter(|&&w| !per[w].is_empty())
            .map(|&w| median(&per[w]))
            .collect();
        let rates: Vec<f64> = calm
            .iter()
            .map(|&w| per[w].len() as f64 / WINDOW_S)
            .collect();
        let events: usize = calm.iter().map(|&w| per[w].len()).sum();
        let cpu: f64 = calm.iter().map(|&w| self.cpu_s[w]).sum();
        Steady {
            p50_ms: median(&medians),
            rate: median(&rates),
            cpu_ms_per_op: if events == 0 {
                0.0
            } else {
                cpu * 1e3 / events as f64
            },
            windows: calm.len(),
        }
    }
}

/// A background thread sampling both counters at every window boundary.
pub struct Sampler {
    start: Instant,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(f64, f64)>>,
}

impl Sampler {
    /// Starts sampling; the first window begins now.
    pub fn start() -> Sampler {
        let start = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let first = (steal_s(), cpu_s());
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut samples = vec![first];
                let mut next = start;
                while !stop.load(Ordering::SeqCst) {
                    next += Duration::from_secs_f64(WINDOW_S);
                    // Sleep to the boundary in short steps so a stop is
                    // noticed promptly.
                    loop {
                        let now = Instant::now();
                        if now >= next || stop.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::sleep((next - now).min(Duration::from_millis(20)));
                    }
                    if Instant::now() >= next {
                        samples.push((steal_s(), cpu_s()));
                    }
                }
                samples
            })
        };
        Sampler {
            start,
            stop,
            handle,
        }
    }

    /// Stops sampling and returns the full windows.
    pub fn finish(self) -> Profile {
        self.stop.store(true, Ordering::SeqCst);
        let samples = self.handle.join().expect("sampler thread panicked");
        let deltas = |pick: fn(&(f64, f64)) -> f64| -> Vec<f64> {
            samples
                .windows(2)
                .map(|w| pick(&w[1]) - pick(&w[0]))
                .collect()
        };
        Profile {
            start: self.start,
            steal_s: deltas(|s| s.0),
            cpu_s: deltas(|s| s.1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_half_is_chosen_by_steal_alone() {
        let p = Profile {
            start: Instant::now(),
            steal_s: vec![0.3, 0.0, 0.2, 0.0, 0.1],
            cpu_s: vec![1.0; 5],
        };
        assert_eq!(p.calm(), vec![1, 3, 4]);
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        assert!((p.steal_pct() - 100.0 * 0.6 / (2.5 * cpus)).abs() < 1e-9);
        assert_eq!(p.window_of(p.start + Duration::from_millis(1200)), Some(2));
        assert_eq!(p.window_of(p.start + Duration::from_secs(3)), None);
    }

    #[test]
    fn steady_figures_read_only_the_calm_windows() {
        let start = Instant::now();
        let p = Profile {
            start,
            // Window 1 is disturbed.
            steal_s: vec![0.0, 0.4, 0.0],
            cpu_s: vec![0.5, 0.9, 0.5],
        };
        let mut lat = Vec::new();
        let mut at = Vec::new();
        for w in 0..3u64 {
            let (n, l) = if w == 1 { (2, 9.0) } else { (10, 1.0) };
            for i in 0..n {
                lat.push(l);
                at.push(start + Duration::from_millis(500 * w + 10 * i));
            }
        }
        let s = p.steady(&lat, &at);
        assert_eq!(s.windows, 2);
        assert_eq!(s.p50_ms, 1.0);
        assert_eq!(s.rate, 20.0);
        assert_eq!(s.cpu_ms_per_op, 1e3 * 1.0 / 20.0);
    }

    #[test]
    fn stolen_share_is_taken_out_of_cpu_time() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        assert_eq!(unstolen(1.0, 0.0, 0.5), 1.0);
        let cpu = unstolen(1.0, 0.25 * cpus, 1.0);
        assert!((cpu - 0.75).abs() < 1e-12, "{cpu}");
        assert_eq!(unstolen(1.0, 2.0 * cpus, 1.0), 0.0);
    }

    #[test]
    fn sampler_yields_one_window_per_half_second() {
        let s = Sampler::start();
        std::thread::sleep(Duration::from_millis(1100));
        let p = s.finish();
        assert_eq!(p.steal_s.len(), 2);
        assert!(p.cpu_s.iter().all(|c| *c >= 0.0));
    }
}
