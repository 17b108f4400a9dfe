//! Topology-slice time constants (§4.1, Figure 6, Appendix B).
//!
//! Consecutive reconfigurations must be spaced by at least `ε + r`, where
//! `ε` is the worst-case end-to-end delay of a low-latency packet (drain a
//! full queue at every hop) and `r` is the circuit-switch reconfiguration
//! delay. The paper's `k = 12` configuration: 24 KB of queue per hop, 5
//! worst-case ToR-to-ToR hops, 500 ns propagation and 10 Gb/s links give
//! `ε = 90 µs`; with `r = 10 µs` a slice is ~100 µs, the per-switch
//! inter-reconfiguration period is `u` slices (≈ 6ε), the duty cycle is
//! ~98%, and a full cycle of a 108-rack network is ~10.8 ms.

use netsim::MTU;
use simkit::time::serialization_ns;
use simkit::SimTime;

/// Time constants of an Opera deployment.
#[derive(Debug, Clone, Copy)]
pub struct SliceTiming {
    /// Worst-case end-to-end delay ε.
    pub epsilon: SimTime,
    /// Circuit reconfiguration delay r.
    pub reconfig: SimTime,
}

impl SliceTiming {
    /// Derive ε from first principles: at each of `worst_hops` hops a
    /// packet may wait behind `queue_bytes` of traffic, serialize an
    /// [`MTU`], and cross `prop` of fiber.
    pub fn derive(
        worst_hops: usize,
        queue_bytes: u64,
        gbps: f64,
        prop: SimTime,
        reconfig: SimTime,
    ) -> Self {
        let per_hop =
            serialization_ns(queue_bytes, gbps) + serialization_ns(MTU as u64, gbps) + prop.as_ns();
        SliceTiming {
            epsilon: SimTime::from_ns(per_hop * worst_hops as u64),
            reconfig,
        }
    }

    /// The paper's configuration: ε = 90 µs, r = 10 µs.
    pub fn paper_default() -> Self {
        SliceTiming {
            epsilon: SimTime::from_us(90),
            reconfig: SimTime::from_us(10),
        }
    }

    /// A scaled-down configuration for fast simulations and tests: same
    /// structure, 10× shorter slices (ε = 9 µs, r = 1 µs).
    pub fn fast_sim() -> Self {
        SliceTiming {
            epsilon: SimTime::from_us(9),
            reconfig: SimTime::from_us(1),
        }
    }

    /// Duration of one topology slice (`ε + r`).
    pub fn slice(&self) -> SimTime {
        self.epsilon + self.reconfig
    }

    /// Full cycle time for `slices_per_cycle` slices.
    pub fn cycle(&self, slices_per_cycle: usize) -> SimTime {
        SimTime::from_ns(self.slice().as_ns() * slices_per_cycle as u64)
    }

    /// Flow length that amortizes a one-cycle wait to within a factor of
    /// two of its ideal FCT: `cycle × linkrate` bytes (§4.1's 15 MB for
    /// the 10.7 ms cycle at 10 Gb/s).
    pub fn bulk_threshold_bytes(&self, slices_per_cycle: usize, gbps: f64) -> u64 {
        (self.cycle(slices_per_cycle).as_secs_f64() * gbps * 1e9 / 8.0) as u64
    }
}

/// Figure 14 baseline: relative cycle (in slices) without grouping.
pub fn cycle_slices_ungrouped(k: usize) -> usize {
    3 * k * k / 4
}

/// Figure 14 grouped: cycle slices when the `u = k/2` switches are divided
/// into groups of `group_size`, each group cycling in parallel (one switch
/// per group reconfigures at a time ⇒ `u / group_size` simultaneous
/// reconfigurations; Appendix B).
pub fn cycle_slices_grouped(k: usize, group_size: usize) -> usize {
    let n = 3 * k * k / 4;
    let u = k / 2;
    let simultaneous = (u / group_size).max(1);
    n / simultaneous
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let t = SliceTiming::paper_default();
        assert_eq!(t.slice(), SimTime::from_us(100));
        // 108-slice cycle = 10.8ms (paper: 10.7ms with ε a hair under 90).
        let cycle = t.cycle(108);
        assert!((cycle.as_ms_f64() - 10.8).abs() < 0.2);
        // Bulk threshold ≈ 13.5 MB ~ paper's 15 MB ballpark.
        let thr = t.bulk_threshold_bytes(108, 10.0);
        assert!((10e6..20e6).contains(&(thr as f64)), "threshold {thr}");
    }

    #[test]
    fn derived_epsilon_close_to_paper() {
        let t = SliceTiming::derive(5, 24_000, 10.0, SimTime::from_ns(500), SimTime::from_us(10));
        // 5 * (19.2us + 1.2us + 0.5us) = 104.5us; the paper rounds down to
        // 90us (their queues drain concurrently with serialization).
        let eps_us = t.epsilon.as_us_f64();
        assert!((80.0..120.0).contains(&eps_us), "ε = {eps_us}µs");
    }

    #[test]
    fn grouping_scales_linearly() {
        // Figure 14: with groups of 6, k=12 -> 108 slices... and cycle
        // slices grow linearly in k (9k per the 3k²/4 / (k/12) algebra).
        assert_eq!(cycle_slices_ungrouped(12), 108);
        // One group at k=12.
        assert_eq!(cycle_slices_grouped(12, 6), 108);
        // "doubling the ToR radix ... cut the cycle time in half by
        // reconfiguring two circuit switches at a time": k=24 grouped is
        // 2x k=12, not 4x.
        assert_eq!(cycle_slices_grouped(24, 6), 216);
        // 9k: linear.
        assert_eq!(cycle_slices_grouped(48, 6), 432);
        // Ungrouped grows quadratically.
        assert_eq!(cycle_slices_ungrouped(24), 432);
        assert_eq!(cycle_slices_ungrouped(48), 1728);
        // Ratio ungrouped/grouped at k=48 is 4 (= u/6 = 24/6).
        assert_eq!(cycle_slices_ungrouped(48) / cycle_slices_grouped(48, 6), 4);
    }

    #[test]
    fn fast_sim_structurally_similar() {
        let f = SliceTiming::fast_sim();
        let p = SliceTiming::paper_default();
        let fr = f.reconfig.as_ns() as f64 / f.slice().as_ns() as f64;
        let pr = p.reconfig.as_ns() as f64 / p.slice().as_ns() as f64;
        assert!((fr - pr).abs() < 1e-9, "same r/slice ratio");
    }
}
