//! Summary statistics for latency samples.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; otherwise the summary falls back to the highest
//! percentile on [`LADDER`] the sample count supports, and says which.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail summary may fall back to, highest first.
pub const LADDER: [f64; 6] = [99.0, 95.0, 90.0, 75.0, 50.0, 0.0];

fn rank(n: usize, p: f64) -> usize {
    // Nearest-rank percentile: the ceil(n·p/100)-th smallest sample.
    (((n as f64) * p / 100.0).ceil() as usize).clamp(1, n)
}

fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank percentile of `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    if beyond(sorted.len(), p) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The median (no support rule) of an unsorted slice; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A latency summary: median, the supported tail and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is (99 when the count supports it).
    pub tail_pct: f64,
    /// The highest ladder percentile with ≥ [`MIN_BEYOND`] samples beyond.
    pub tail: f64,
}

impl Summary {
    /// Summarizes unsorted samples.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let p50 = if s.is_empty() { 0.0 } else { median(&s) };
        let (tail_pct, tail) = LADDER
            .iter()
            .find_map(|&p| {
                if p == 0.0 {
                    // Too few samples for any tail: report the maximum.
                    return s.last().map(|&m| (100.0, m));
                }
                percentile(&s, p).map(|v| (p, v))
            })
            .unwrap_or((100.0, 0.0));
        Summary {
            count: s.len(),
            p50,
            tail_pct,
            tail,
        }
    }

    /// `p99` when the count supports it (`tail_pct == 99`).
    pub fn p99(&self) -> Option<f64> {
        (self.tail_pct == 99.0).then_some(self.tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smallest sample count for which percentile `p` leaves at least
    /// [`MIN_BEYOND`] samples beyond it.
    fn min_samples_for(p: f64) -> usize {
        if p <= 0.0 {
            return 1;
        }
        // Samples beyond the p-th percentile: n − ceil(n·p/100).
        let mut n = 1usize;
        while beyond(n, p) < MIN_BEYOND {
            n += 1;
        }
        n
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert_eq!(min_samples_for(99.0), 1000);
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), None);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990: ten samples (991..=1000) lie beyond it.
        assert_eq!(percentile(&s, 99.0), Some(990.0));
    }

    #[test]
    fn summary_falls_back_down_the_ladder() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let sum = Summary::of(&s);
        assert_eq!(sum.count, 200);
        assert_eq!(sum.tail_pct, 95.0);
        assert_eq!(sum.tail, 190.0);
        assert_eq!(sum.p99(), None);
        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail_pct, few.tail), (2.0, 100.0, 3.0));
    }

    #[test]
    fn every_ladder_tail_has_ten_beyond() {
        for n in [1usize, 5, 11, 19, 40, 100, 101, 199, 200, 999, 1000, 5000] {
            let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let sum = Summary::of(&s);
            if sum.tail_pct < 100.0 {
                let beyond = s.iter().filter(|&&v| v > sum.tail).count();
                assert!(beyond >= MIN_BEYOND, "n={n} p{}", sum.tail_pct);
            }
        }
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
