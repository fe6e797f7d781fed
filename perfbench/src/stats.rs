//! Order statistics over host-time samples. Every percentile travels with
//! the number of samples it was taken from, so a reader can tell a p90 of
//! ten samples from a p90 of ten thousand.

/// A percentile and the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The percentile's value (0 when there were no samples).
    pub value: f64,
    /// Samples the percentile was taken from.
    pub n: usize,
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of `samples`, in any order.
/// Empty input gives a value of 0 with `n == 0`.
pub fn percentile(samples: &[f64], p: f64) -> Pct {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Pct { value: percentile_sorted(&sorted, p), n: sorted.len() }
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` with its sample count.
pub fn median(samples: &[f64]) -> Pct {
    percentile(samples, 50.0)
}

/// Work done and host seconds spent, summed over a run's passes: the rate
/// over the whole run. On a shared host the passes fall into faster and
/// slower spells, and the share of each changes from run to run. A median
/// of per-pass rates jumps from one spell's rate to the other's when that
/// share crosses a half; the rate over the run moves only in proportion.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Throughput {
    /// Work done: requests, events.
    pub work: f64,
    /// Host seconds the work took.
    pub seconds: f64,
    /// Passes summed.
    pub passes: usize,
}

impl Throughput {
    /// Add one pass.
    pub fn add(&mut self, work: f64, seconds: f64) {
        self.work += work;
        self.seconds += seconds;
        self.passes += 1;
    }

    /// Work per host second over every pass so far (0 before any).
    pub fn rate(&self) -> f64 {
        ratio(self.work, self.seconds)
    }
}

/// The mean of `samples`, with its sample count (0 when empty).
pub fn mean(samples: &[f64]) -> Pct {
    let n = samples.len();
    Pct { value: ratio(samples.iter().sum(), n as f64), n }
}

/// `num / den`, or 0 when `den` is 0 (ratios of counters that may not
/// have moved in a workload that does not exercise them).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_carry_their_sample_counts() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Pct { value: 50.0, n: 100 });
        assert_eq!(percentile(&xs, 90.0), Pct { value: 90.0, n: 100 });
        assert_eq!(percentile(&xs, 100.0), Pct { value: 100.0, n: 100 });
        assert_eq!(percentile(&xs, 0.0), Pct { value: 1.0, n: 100 });
        assert_eq!(median(&[3.0, 1.0, 2.0]), Pct { value: 2.0, n: 3 });
        // Nearest rank on an even count takes the lower middle.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Pct { value: 2.0, n: 4 });
        assert_eq!(median(&[]), Pct { value: 0.0, n: 0 });
    }

    #[test]
    fn throughput_is_total_work_over_total_time() {
        let mut t = Throughput::default();
        assert_eq!(t.rate(), 0.0);
        // A fast pass and a slow one: 100/s and 25/s, 40/s over both.
        t.add(100.0, 1.0);
        t.add(100.0, 4.0);
        assert_eq!((t.rate(), t.passes), (40.0, 2));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Pct { value: 3.0, n: 3 });
        assert_eq!(mean(&[]), Pct { value: 0.0, n: 0 });
    }

    #[test]
    fn ratio_is_zero_over_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
