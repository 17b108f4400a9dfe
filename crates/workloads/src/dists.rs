//! Empirical flow-size distributions (Figure 1).
//!
//! The paper evaluates three published distributions:
//!
//! * **Datamining** — Greenberg et al., VL2 \[21\]: extremely skewed; most
//!   flows are mice under 10 KB but nearly all *bytes* ride flows larger
//!   than the 15 MB bulk threshold.
//! * **Websearch** — Alizadeh et al., DCTCP \[4\]: flows between ~10 KB
//!   and 30 MB; effectively all bytes *below* the 15 MB threshold (the
//!   paper's worst case for Opera, §5.3).
//! * **Hadoop** — Roy et al., Facebook \[39\]: rack-heavy RPC traffic,
//!   median inter-rack flow ≈ 100 KB (the basis for the shuffle flow size
//!   in §5.2).
//!
//! Control points are digitized from the published CDFs; between points we
//! interpolate linearly in `log₁₀(size)`, the standard reconstruction for
//! these long-tailed distributions. Exact byte-weighted tails differ from
//! the originals by a few percent, which shifts no conclusion: what the
//! evaluation needs is that Datamining is byte-dominated by >15 MB flows,
//! Websearch byte-dominated by <15 MB flows, and Hadoop by ~100 KB flows.

use simkit::SimRng;

/// One of the paper's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// VL2 datamining (bulk-dominated).
    Datamining,
    /// DCTCP websearch (all below the bulk threshold).
    Websearch,
    /// Facebook Hadoop (shuffle-style).
    Hadoop,
}

/// A piecewise log-linear flow-size CDF.
#[derive(Debug, Clone)]
pub struct FlowSizeDist {
    /// `(size_bytes, cumulative_fraction)`: sizes strictly increasing,
    /// fractions non-decreasing.
    points: Vec<(f64, f64)>,
    /// Mean flow size, bytes: a constant for a named distribution, the
    /// quantile's integral for one built from points.
    mean: f64,
}

impl FlowSizeDist {
    /// Construct from explicit control points. First fraction must be 0,
    /// last must be 1, sizes strictly increasing and fractions
    /// non-decreasing (a flat step is a size no flow has). The mean is
    /// integrated here, once.
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        let mut d = Self::with_mean(points, f64::NAN);
        d.mean = d.integrated_mean();
        d
    }

    /// `points`, checked, with its mean already known.
    fn with_mean(points: Vec<(f64, f64)>, mean: f64) -> Self {
        assert!(points.len() >= 2);
        assert_eq!(points[0].1, 0.0, "CDF must start at 0");
        assert_eq!(points.last().unwrap().1, 1.0, "CDF must end at 1");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "sizes must increase");
            assert!(w[0].1 <= w[1].1, "CDF must be monotone");
        }
        FlowSizeDist { points, mean }
    }

    /// The named distribution. Its mean is a constant: the bit pattern
    /// [`FlowSizeDist::from_points`] integrates from the same points (a
    /// unit test holds the two equal), so building one costs no
    /// integration.
    pub fn of(w: Workload) -> Self {
        let (points, mean_bits) = match w {
            // VL2 Figure: mice dominate flow count; elephants (100MB-1GB)
            // dominate bytes.
            Workload::Datamining => (
                vec![
                    (100.0, 0.0),
                    (300.0, 0.25),
                    (1e3, 0.50),
                    (10e3, 0.80),
                    (100e3, 0.90),
                    (1e6, 0.95),
                    (10e6, 0.96),
                    (100e6, 0.98),
                    (1e9, 1.0),
                ],
                0x4160_85f1_106b_d0af,
            ),
            // DCTCP Figure 2: query + background mix.
            Workload::Websearch => (
                vec![
                    (6e3, 0.0),
                    (10e3, 0.15),
                    (20e3, 0.20),
                    (30e3, 0.30),
                    (50e3, 0.40),
                    (80e3, 0.53),
                    (200e3, 0.60),
                    (1e6, 0.70),
                    (2e6, 0.80),
                    (5e6, 0.90),
                    (10e6, 0.98),
                    (15e6, 1.0),
                ],
                0x4134_ead2_4bdf_41a7,
            ),
            // Facebook Hadoop cluster (inter-rack): median ≈ 100KB.
            Workload::Hadoop => (
                vec![
                    (150.0, 0.0),
                    (300.0, 0.1),
                    (1e3, 0.20),
                    (10e3, 0.40),
                    (100e3, 0.55),
                    (300e3, 0.75),
                    (1e6, 0.90),
                    (10e6, 0.99),
                    (100e6, 1.0),
                ],
                0x412a_a435_6ad9_fc90,
            ),
        };
        Self::with_mean(points, f64::from_bits(mean_bits))
    }

    /// Sample one flow size (bytes).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        self.quantile(rng.f64()).round().max(1.0) as u64
    }

    /// Inverse CDF at `u ∈ [0,1]`, interpolating linearly in log-size.
    pub fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let pts = &self.points;
        if u <= pts[0].1 {
            return pts[0].0;
        }
        for w in pts.windows(2) {
            let (s0, f0) = w[0];
            let (s1, f1) = w[1];
            if u <= f1 {
                if f1 == f0 {
                    return s1;
                }
                let t = (u - f0) / (f1 - f0);
                let ls = s0.log10() + t * (s1.log10() - s0.log10());
                return 10f64.powf(ls);
            }
        }
        pts.last().unwrap().0
    }

    /// CDF of flow *count* at `size`.
    pub fn cdf(&self, size: f64) -> f64 {
        let pts = &self.points;
        if size <= pts[0].0 {
            return 0.0;
        }
        for w in pts.windows(2) {
            let (s0, f0) = w[0];
            let (s1, f1) = w[1];
            if size <= s1 {
                let t = (size.log10() - s0.log10()) / (s1.log10() - s0.log10());
                return f0 + t * (f1 - f0);
            }
        }
        1.0
    }

    /// Mean flow size (bytes).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The mean by numeric integration of the quantile at 20 000 points.
    fn integrated_mean(&self) -> f64 {
        let n = 20_000;
        (0..n)
            .map(|i| self.quantile((i as f64 + 0.5) / n as f64))
            .sum::<f64>()
            / n as f64
    }

    /// Fraction of *bytes* carried by flows of size ≥ `threshold` — the
    /// quantity that determines Opera's effective bandwidth tax (§5.1).
    pub fn byte_fraction_above(&self, threshold: f64) -> f64 {
        let n = 20_000;
        let mut total = 0.0;
        let mut above = 0.0;
        for i in 0..n {
            let s = self.quantile((i as f64 + 0.5) / n as f64);
            total += s;
            if s >= threshold {
                above += s;
            }
        }
        above / total
    }

    /// The control points (for plotting Figure 1).
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_monotone_and_bounded() {
        for w in [Workload::Datamining, Workload::Websearch, Workload::Hadoop] {
            let d = FlowSizeDist::of(w);
            let mut last = 0.0;
            for i in 0..=100 {
                let q = d.quantile(i as f64 / 100.0);
                assert!(q >= last, "{w:?} non-monotone at {i}");
                last = q;
            }
            assert!(d.quantile(0.0) >= 100.0 - 1.0);
            assert!(d.quantile(1.0) <= 1.0000001e9);
        }
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let d = FlowSizeDist::of(Workload::Websearch);
        for u in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let s = d.quantile(u);
            let back = d.cdf(s);
            assert!((back - u).abs() < 1e-6, "u={u} s={s} back={back}");
        }
    }

    #[test]
    fn datamining_is_bulk_dominated() {
        let d = FlowSizeDist::of(Workload::Datamining);
        let f = d.byte_fraction_above(15e6);
        // The paper: ~96% of Datamining bytes ride bulk (≥15MB) flows
        // (4% low-latency). Digitization tolerance: 85–99%.
        assert!(f > 0.85 && f < 0.995, "bulk byte fraction {f}");
    }

    #[test]
    fn websearch_is_all_low_latency() {
        let d = FlowSizeDist::of(Workload::Websearch);
        let f = d.byte_fraction_above(15e6);
        // §5.3: Websearch has essentially no bytes above 15MB.
        assert!(f < 0.15, "bulk byte fraction {f}");
    }

    #[test]
    fn hadoop_median_near_100kb() {
        let d = FlowSizeDist::of(Workload::Hadoop);
        let med = d.quantile(0.5);
        assert!((20e3..300e3).contains(&med), "median {med} not ~100KB");
    }

    #[test]
    fn sampling_follows_cdf() {
        let d = FlowSizeDist::of(Workload::Datamining);
        let mut rng = SimRng::new(42);
        let n = 100_000;
        let small = (0..n)
            .filter(|_| (d.sample(&mut rng) as f64) <= 1e3 * 1.01)
            .count();
        let expect = d.cdf(1e3);
        let got = small as f64 / n as f64;
        assert!((got - expect).abs() < 0.01, "got {got} expect {expect}");
    }

    #[test]
    fn mean_sizes_sane() {
        // Datamining's mean is pulled up by the 1GB tail; Websearch sits
        // in the ~1-2MB range; Hadoop under 1MB.
        let dm = FlowSizeDist::of(Workload::Datamining).mean();
        let ws = FlowSizeDist::of(Workload::Websearch).mean();
        let hd = FlowSizeDist::of(Workload::Hadoop).mean();
        assert!(dm > 5e6, "datamining mean {dm}");
        assert!((2e5..6e6).contains(&ws), "websearch mean {ws}");
        assert!((5e4..2e6).contains(&hd), "hadoop mean {hd}");
    }

    /// Each named mean is the bit pattern the integral gives for the same
    /// points; on a mismatch the message carries the bits to write.
    #[test]
    fn named_means_equal_the_integral() {
        for w in [Workload::Datamining, Workload::Websearch, Workload::Hadoop] {
            let named = FlowSizeDist::of(w).mean();
            let integrated =
                FlowSizeDist::from_points(FlowSizeDist::of(w).points().to_vec()).mean();
            assert_eq!(
                named.to_bits(),
                integrated.to_bits(),
                "{w:?}: named mean {named} but the integral is {integrated} = {:#018x}",
                integrated.to_bits()
            );
        }
    }

    /// A flat step (equal fractions) is accepted: no flow has a size inside it.
    #[test]
    fn flat_step_accepted() {
        let d = FlowSizeDist::from_points(vec![(10.0, 0.0), (20.0, 0.5), (30.0, 0.5), (40.0, 1.0)]);
        assert!((d.quantile(0.5) - 20.0).abs() < 1e-9);
        assert!((d.quantile(0.5 + 1e-12) - 30.0).abs() < 1e-3);
        assert!(d.mean() > 10.0 && d.mean() < 40.0);
    }

    #[test]
    #[should_panic(expected = "CDF must start at 0")]
    fn bad_points_rejected() {
        FlowSizeDist::from_points(vec![(10.0, 0.5), (20.0, 1.0)]);
    }
}
