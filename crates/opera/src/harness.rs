//! Experiment drivers: run a network on a workload, collect the statistics
//! the paper's figures report.

use netsim::{FlowClass, FlowId, FlowTracker};
use simkit::stats::Samples;
use simkit::SimTime;

/// FCT statistics within one flow-size bin.
#[derive(Debug, Clone)]
pub struct FctBin {
    /// Inclusive lower size bound (bytes).
    pub lo: u64,
    /// Exclusive upper size bound (bytes).
    pub hi: u64,
    /// Completed flows in the bin.
    pub count: usize,
    /// Flows in the bin that did not finish.
    pub unfinished: usize,
    /// Mean FCT, µs.
    pub avg_us: f64,
    /// 99th-percentile FCT, µs.
    pub p99_us: f64,
    /// Median FCT, µs.
    pub p50_us: f64,
}

/// FCT statistics across logarithmic flow-size bins (the x-axis of
/// Figures 7 and 9).
#[derive(Debug, Clone)]
pub struct FctStats {
    /// Per-bin statistics.
    pub bins: Vec<FctBin>,
}

impl FctStats {
    /// Bin completed flows by size with the given edges (must be
    /// ascending; bins are `[e[i], e[i+1])`).
    pub fn from_tracker(tracker: &FlowTracker, edges: &[u64]) -> Self {
        let mut bins = Vec::new();
        for w in edges.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mut samples = Samples::new();
            let mut unfinished = 0;
            for f in tracker.flows() {
                if f.size >= lo && f.size < hi {
                    match f.fct() {
                        Some(t) => samples.push(t.as_us_f64()),
                        None => unfinished += 1,
                    }
                }
            }
            bins.push(FctBin {
                lo,
                hi,
                count: samples.len(),
                unfinished,
                avg_us: samples.mean().unwrap_or(f64::NAN),
                p99_us: samples.quantile(0.99).unwrap_or(f64::NAN),
                p50_us: samples.quantile(0.5).unwrap_or(f64::NAN),
            });
        }
        FctStats { bins }
    }

    /// Standard logarithmic edges 1 KB … 1 GB (one bin per decade phase).
    pub fn default_edges() -> Vec<u64> {
        let mut edges = Vec::new();
        let mut e = 1_000u64;
        while e < 1_000_000_000 {
            edges.push(e);
            edges.push(e * 3); // two bins per decade: 1-3, 3-10
            e *= 10;
        }
        edges.push(1_000_000_000);
        edges.push(2_000_000_000);
        edges
    }
}

/// Summary of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// FCT statistics over size bins.
    pub fct: FctStats,
    /// Fraction of registered flows that completed.
    pub completion: f64,
    /// Total payload bytes delivered.
    pub delivered_bytes: u64,
    /// Wall-clock of the simulation's end (max of completion times).
    pub end_time: SimTime,
    /// Aggregate delivered throughput over the run, Gb/s.
    pub goodput_gbps: f64,
    /// Mean FCT of low-latency flows, µs.
    pub low_latency_avg_us: f64,
    /// Mean FCT of bulk flows, µs.
    pub bulk_avg_us: f64,
}

impl ExperimentResult {
    /// Summarize a tracker after a run that ended at `end`.
    pub fn from_tracker(tracker: &FlowTracker, end: SimTime) -> Self {
        let fct = FctStats::from_tracker(tracker, &FctStats::default_edges());
        let total = tracker.len().max(1);
        let delivered: u64 = tracker.flows().iter().map(|f| f.received).sum();
        let mut ll = Samples::new();
        let mut bulk = Samples::new();
        let mut last = SimTime::ZERO;
        for (id, f) in tracker.flows().iter().enumerate() {
            if let Some(t) = f.fct() {
                match tracker.class(id as FlowId) {
                    FlowClass::LowLatency => ll.push(t.as_us_f64()),
                    FlowClass::Bulk => bulk.push(t.as_us_f64()),
                }
            }
            if let Some(fin) = f.finish {
                last = last.max(fin);
            }
        }
        let span = if last > SimTime::ZERO { last } else { end };
        ExperimentResult {
            fct,
            completion: tracker.completed() as f64 / total as f64,
            delivered_bytes: delivered,
            end_time: span,
            goodput_gbps: delivered as f64 * 8.0 / span.as_secs_f64().max(1e-12) / 1e9,
            low_latency_avg_us: ll.mean().unwrap_or(f64::NAN),
            bulk_avg_us: bulk.mean().unwrap_or(f64::NAN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker_with(flows: &[(u64, Option<u64>)]) -> FlowTracker {
        // (size, Some(fct_us)) pairs.
        let mut t = FlowTracker::new();
        for &(size, fct) in flows {
            let id = t.register(0, 1, size, FlowClass::LowLatency, SimTime::ZERO);
            if let Some(us) = fct {
                t.deliver(id, size, SimTime::from_us(us));
            }
        }
        t
    }

    #[test]
    fn bins_partition_flows() {
        let t = tracker_with(&[
            (500, Some(10)),
            (5_000, Some(20)),
            (5_500, Some(40)),
            (2_000_000, Some(1000)),
            (900, None),
        ]);
        let stats = FctStats::from_tracker(&t, &[0, 1_000, 10_000, 10_000_000]);
        assert_eq!(stats.bins.len(), 3);
        assert_eq!(stats.bins[0].count, 1);
        assert_eq!(stats.bins[0].unfinished, 1);
        assert_eq!(stats.bins[1].count, 2);
        assert_eq!(stats.bins[1].avg_us, 30.0);
        assert_eq!(stats.bins[2].count, 1);
    }

    #[test]
    fn experiment_result_aggregates() {
        let t = tracker_with(&[(1_000, Some(10)), (1_000, Some(30)), (1_000, None)]);
        let r = ExperimentResult::from_tracker(&t, SimTime::from_us(100));
        assert!((r.completion - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.delivered_bytes, 2_000);
        assert_eq!(r.end_time, SimTime::from_us(30));
        assert!((r.low_latency_avg_us - 20.0).abs() < 1e-9);
        assert!(r.bulk_avg_us.is_nan());
    }

    #[test]
    fn default_edges_ascending() {
        let e = FctStats::default_edges();
        assert!(e.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(e[0], 1_000);
    }
}
