//! Statistics for experiment harnesses.
//!
//! What the paper reports is a percentile or a mean over flow completion
//! times (99th-percentile FCT by flow size, Figures 7 and 9) or a time
//! series (delivered throughput, Figure 8). This module provides:
//!
//! * [`Samples`] — exact quantiles, mean and maximum over a stored
//!   sample set,
//! * [`summarize`] — a set of observations as the [`Summary`] every
//!   driver reports (count, mean, 95% CI, 99th percentile, maximum),
//! * [`TimeSeries`] — binned byte/packet counters for throughput-vs-time.

use crate::time::SimTime;

/// Exact sample set with quantile queries.
///
/// Stores every sample; suitable for up to tens of millions of points.
///
/// **NaN policy:** a NaN observation carries no ordering information,
/// so it is dropped at [`Samples::push`]: [`Samples::len`], quantiles,
/// mean and maximum are computed over the non-NaN observations only,
/// and a set fed nothing but NaN behaves as empty (`None` summaries).
/// One degenerate FCT sample therefore degrades one statistic instead
/// of aborting the whole driver run. The sort itself uses
/// [`f64::total_cmp`] as a second line of defense: even a NaN that
/// somehow reached `values` could not panic the comparator.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation; a NaN is dropped (see the type-level NaN
    /// policy).
    pub fn push(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of retained (non-NaN) observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no (non-NaN) observations recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using nearest-rank on sorted samples.
    /// Returns `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        Some(self.values[nearest_rank(q, self.values.len()) - 1])
    }

    /// Arithmetic mean, summed in observation order until the first
    /// quantile or maximum sorts the set; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Maximum value.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.values.last().copied()
    }
}

/// The 1-based rank of the `q`-quantile of `n ≥ 1` sorted observations by
/// nearest rank: ⌈q · n⌉, at least 1 and at most `n`.
pub fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Summary statistics over a set of scalar observations.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Non-NaN observation count.
    pub count: usize,
    /// Arithmetic mean, in observation order (NaN when empty).
    pub mean: f64,
    /// Half-width of the normal-approximation 95% CI on the mean, over
    /// the same non-NaN observations as `count` (NaN when `count < 2`).
    pub ci95: f64,
    /// 99th percentile (NaN when empty).
    pub p99: f64,
    /// Maximum (NaN when empty).
    pub max: f64,
}

/// Summarize observations: the mean and percentiles of their
/// [`Samples`], the CI from their running sum and sum of squares, a NaN
/// left out of all of them (the [`Samples`] NaN policy). The
/// store is sized once, from the iterator's upper size hint (its lower
/// one when it has none), instead of growing by doubling.
pub fn summarize(values: impl IntoIterator<Item = f64>) -> Summary {
    let values = values.into_iter();
    let (lower, upper) = values.size_hint();
    let mut s = Samples {
        values: Vec::with_capacity(upper.unwrap_or(lower)),
        sorted: false,
    };
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for v in values.filter(|v| !v.is_nan()) {
        s.push(v);
        sum += v;
        sum_sq += v * v;
    }
    let n = s.len();
    let mean = s.mean().unwrap_or(f64::NAN);
    let ci95 = if n >= 2 {
        let var = (sum_sq - sum * sum / n as f64) / (n as f64 - 1.0);
        1.96 * var.max(0.0).sqrt() / (n as f64).sqrt()
    } else {
        f64::NAN
    };
    Summary {
        count: n,
        mean,
        ci95,
        p99: s.quantile(0.99).unwrap_or(f64::NAN),
        max: s.max().unwrap_or(f64::NAN),
    }
}

/// Fixed-width time bins accumulating a quantity (e.g. bytes delivered) for
/// throughput-vs-time plots such as the paper's Figure 8.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bin: SimTime,
    bins: Vec<f64>,
}

impl TimeSeries {
    /// Series with bins of width `bin`.
    pub fn new(bin: SimTime) -> Self {
        assert!(bin.as_ns() > 0, "zero-width bin");
        TimeSeries { bin, bins: vec![] }
    }

    /// Add `amount` at time `t`.
    pub fn record(&mut self, t: SimTime, amount: f64) {
        let idx = (t.as_ns() / self.bin.as_ns()) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += amount;
    }

    /// `(bin start time, total in bin)` pairs.
    pub fn series(&self) -> Vec<(SimTime, f64)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &v)| (SimTime::from_ns(i as u64 * self.bin.as_ns()), v))
            .collect()
    }

    /// Per-bin rate: total divided by bin width in seconds.
    pub fn rate_per_sec(&self) -> Vec<(SimTime, f64)> {
        let w = self.bin.as_secs_f64();
        self.series().into_iter().map(|(t, v)| (t, v / w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_exact() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.99), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.max(), Some(100.0));
        assert_eq!(s.mean(), Some(50.5));
    }

    #[test]
    fn quantile_empty_none() {
        let mut s = Samples::new();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn nan_samples_are_dropped_not_fatal() {
        // Regression: `ensure_sorted` used `partial_cmp(..).expect("NaN
        // sample")`, so a single NaN observation aborted the whole run
        // the first time anything asked for a quantile.
        let mut s = Samples::new();
        s.push(f64::NAN);
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        for v in [2.0, f64::NAN, 1.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.quantile(0.5), Some(2.0));
        assert_eq!(s.quantile(0.99), Some(3.0));
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.max(), Some(3.0));
    }

    #[test]
    fn summary_of_nothing_is_nan() {
        let s = summarize(std::iter::empty());
        assert_eq!(s.count, 0);
        assert!(s.mean.is_nan() && s.ci95.is_nan() && s.p99.is_nan() && s.max.is_nan());
    }

    #[test]
    fn summary_stats() {
        let s = summarize((1..=100).map(|i| i as f64));
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
        // The sample standard deviation of 1..=100 is 29.011491975882016.
        assert!((s.ci95 - 1.96 * 29.011491975882016 / 10.0).abs() < 1e-9);
    }

    #[test]
    fn summary_of_one_sample_has_no_ci() {
        let s = summarize([7.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
        assert!(s.ci95.is_nan());
    }

    #[test]
    fn summary_mean_is_in_observation_order() {
        // Summed after the sort, these would read 0 (-1e16 absorbs
        // both ones); in observation order 1e16 + -1e16 cancels first.
        let s = summarize([1e16, -1e16, 1.0, 1.0, f64::NAN]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 0.5);
    }

    /// A NaN is left out of the CI as it is out of `count`: the CI of
    /// `[1, NaN, 3]` is the CI of `[1, 3]`, not 0.
    #[test]
    fn summary_ci_leaves_out_nan() {
        let with_nan = summarize([1.0, f64::NAN, 3.0]);
        let without = summarize([1.0, 3.0]);
        assert_eq!(with_nan.count, 2);
        assert_eq!(with_nan.ci95.to_bits(), without.ci95.to_bits());
        assert!(with_nan.ci95 > 0.0);
        let all_nan = summarize([f64::NAN, f64::NAN, f64::NAN]);
        assert_eq!(all_nan.count, 0);
        assert!(all_nan.mean.is_nan() && all_nan.ci95.is_nan());
    }

    #[test]
    fn time_series_bins() {
        let mut ts = TimeSeries::new(SimTime::from_ms(1));
        ts.record(SimTime::from_us(100), 1000.0);
        ts.record(SimTime::from_us(900), 500.0);
        ts.record(SimTime::from_us(1500), 2000.0);
        let s = ts.series();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].1, 1500.0);
        assert_eq!(s[1].1, 2000.0);
        let r = ts.rate_per_sec();
        assert!((r[0].1 - 1_500_000.0).abs() < 1e-6);
    }
}
