//! Streaming statistics for experiment harnesses.
//!
//! Everything the paper reports is a percentile (99th-percentile FCT), a CDF
//! (path lengths, RTTs), or a time series (delivered throughput). This module
//! provides the corresponding accumulators:
//!
//! * [`Samples`] — exact percentiles/CDFs over a stored sample set,
//! * [`LogHistogram`] — bounded-memory log-spaced histogram for huge runs,
//! * [`TimeSeries`] — binned byte/packet counters for throughput-vs-time.

use crate::time::SimTime;

/// Exact sample set with percentile and CDF queries.
///
/// Stores every sample; suitable for up to tens of millions of points.
///
/// **NaN policy:** a NaN observation carries no ordering information,
/// so it is counted ([`Samples::nan_count`]) but excluded from the
/// stored set — [`Samples::len`], quantiles, mean, min/max and the CDFs
/// are computed over the non-NaN observations only, and a set fed
/// nothing but NaN behaves as empty (`None` summaries). One degenerate
/// FCT sample therefore degrades one statistic instead of aborting the
/// whole driver run. The sort itself uses [`f64::total_cmp`] as a
/// second line of defense: even a NaN that somehow reached `values`
/// could not panic the comparator.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
    nan_seen: usize,
}

impl Samples {
    /// Empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation. NaN observations are counted separately and
    /// excluded from every statistic (see the type-level NaN policy).
    pub fn push(&mut self, v: f64) {
        if v.is_nan() {
            self.nan_seen += 1;
            return;
        }
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of retained (non-NaN) observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Number of NaN observations dropped at ingestion.
    pub fn nan_count(&self) -> usize {
        self.nan_seen
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
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.values[rank - 1])
    }

    /// Convenience: 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Arithmetic mean, `None` when empty.
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

    /// Minimum value.
    pub fn min(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.values.first().copied()
    }

    /// Full `(value, cumulative fraction)` CDF over distinct sample values.
    pub fn cdf(&mut self) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        let n = self.values.len();
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            let v = self.values[i];
            let mut j = i + 1;
            while j < n && self.values[j] == v {
                j += 1;
            }
            out.push((v, j as f64 / n as f64));
            i = j;
        }
        out
    }
}

/// Log-spaced histogram: constant memory, ~`buckets_per_decade` relative
/// resolution. Used when a run would produce too many samples to store.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    min_value: f64,
    buckets_per_decade: f64,
    counts: Vec<u64>,
    underflow: u64,
    total: u64,
}

impl LogHistogram {
    /// Histogram covering `[min_value, ∞)` with the given resolution.
    pub fn new(min_value: f64, buckets_per_decade: usize, decades: usize) -> Self {
        LogHistogram {
            min_value,
            buckets_per_decade: buckets_per_decade as f64,
            counts: vec![0; buckets_per_decade * decades + 1],
            underflow: 0,
            total: 0,
        }
    }

    fn bucket_of(&self, v: f64) -> Option<usize> {
        if v < self.min_value {
            return None;
        }
        let b = ((v / self.min_value).log10() * self.buckets_per_decade) as usize;
        Some(b.min(self.counts.len() - 1))
    }

    /// Record one observation.
    pub fn record(&mut self, v: f64) {
        self.total += 1;
        match self.bucket_of(v) {
            Some(b) => self.counts[b] += 1,
            None => self.underflow += 1,
        }
    }

    /// Number recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Approximate `q`-quantile (upper bucket edge), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil() as u64;
        let mut cum = self.underflow;
        if cum >= target {
            return Some(self.min_value);
        }
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                let edge = self.min_value * 10f64.powf((b as f64 + 1.0) / self.buckets_per_decade);
                return Some(edge);
            }
        }
        Some(f64::INFINITY)
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

    /// Sum over all bins.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
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
        assert_eq!(s.p99(), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.min(), Some(1.0));
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
        assert_eq!(s.nan_count(), 1);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        for v in [2.0, f64::NAN, 1.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.nan_count(), 2);
        assert_eq!(s.quantile(0.5), Some(2.0));
        assert_eq!(s.p99(), Some(3.0));
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.cdf().len(), 3);
    }

    #[test]
    fn cdf_monotone_and_complete() {
        let mut s = Samples::new();
        for v in [3.0, 1.0, 2.0, 2.0, 5.0] {
            s.push(v);
        }
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 4); // distinct values
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn log_histogram_percentile_close() {
        let mut h = LogHistogram::new(1.0, 100, 9);
        for v in 1..=10_000 {
            h.record(v as f64);
        }
        let p99 = h.quantile(0.99).unwrap();
        let exact = 9900.0;
        assert!(
            (p99 / exact - 1.0).abs() < 0.05,
            "p99 {p99} vs exact {exact}"
        );
        assert_eq!(h.total(), 10_000);
    }

    #[test]
    fn log_histogram_underflow() {
        let mut h = LogHistogram::new(10.0, 10, 3);
        h.record(1.0);
        h.record(5.0);
        assert_eq!(h.quantile(0.5), Some(10.0));
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
        assert_eq!(ts.total(), 3500.0);
        let r = ts.rate_per_sec();
        assert!((r[0].1 - 1_500_000.0).abs() < 1e-6);
    }
}
