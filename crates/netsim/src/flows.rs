//! Flow registry and flow-completion-time accounting.
//!
//! Every experiment in the paper reports flow completion times (FCT) or
//! delivered throughput; both derive from the same bookkeeping: when a flow
//! started, how many payload bytes have reached the destination, and when
//! the last byte arrived.

use simkit::stats::TimeSeries;
use simkit::SimTime;

/// Identifies a flow.
pub type FlowId = u32;

/// Whether a flow is serviced as latency-sensitive or bulk (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowClass {
    /// Routed immediately over multi-hop expander paths (NDP).
    LowLatency,
    /// Buffered for direct circuits (RotorLB).
    Bulk,
}

/// Book-keeping for one flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Sending host (node id).
    pub src: usize,
    /// Receiving host (node id).
    pub dst: usize,
    /// Payload size in bytes.
    pub size: u64,
    /// Service class.
    pub class: FlowClass,
    /// Arrival (start) time.
    pub start: SimTime,
    /// Payload bytes received at `dst` so far.
    pub received: u64,
    /// Completion time, set when `received ≥ size`.
    pub finish: Option<SimTime>,
}

impl FlowRecord {
    /// Flow completion time, if finished.
    pub fn fct(&self) -> Option<SimTime> {
        self.finish.map(|f| f - self.start)
    }
}

/// Registry of all flows in an experiment.
#[derive(Debug, Default)]
pub struct FlowTracker {
    flows: Vec<FlowRecord>,
    completed: usize,
    /// Payload bytes delivered over time (for throughput plots); enabled
    /// by [`FlowTracker::record_throughput`].
    throughput: Option<TimeSeries>,
}

impl FlowTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty tracker with room for `flows` records, so registering that
    /// many never regrows the registry.
    pub fn with_capacity(flows: usize) -> Self {
        FlowTracker {
            flows: Vec::with_capacity(flows),
            ..Self::default()
        }
    }

    /// Enable binned delivered-throughput recording.
    pub fn record_throughput(&mut self, bin: SimTime) {
        self.throughput = Some(TimeSeries::new(bin));
    }

    /// Register a flow; returns its id.
    pub fn register(
        &mut self,
        src: usize,
        dst: usize,
        size: u64,
        class: FlowClass,
        start: SimTime,
    ) -> FlowId {
        let id = self.flows.len() as FlowId;
        self.flows.push(FlowRecord {
            src,
            dst,
            size,
            class,
            start,
            received: 0,
            finish: None,
        });
        id
    }

    /// Record `bytes` of payload arriving for `flow` at time `now`.
    /// Returns `true` if this completed the flow.
    pub fn deliver(&mut self, flow: FlowId, bytes: u64, now: SimTime) -> bool {
        if let Some(ts) = &mut self.throughput {
            ts.record(now, bytes as f64);
        }
        let f = &mut self.flows[flow as usize];
        debug_assert!(f.finish.is_none(), "delivery after completion");
        f.received += bytes;
        if f.received >= f.size && f.finish.is_none() {
            f.finish = Some(now);
            self.completed += 1;
            true
        } else {
            false
        }
    }

    /// The record of `flow`.
    pub fn get(&self, flow: FlowId) -> &FlowRecord {
        &self.flows[flow as usize]
    }

    /// All flows.
    pub fn flows(&self) -> &[FlowRecord] {
        &self.flows
    }

    /// Number registered.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows are registered.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Number completed.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// True when every registered flow has finished.
    pub fn all_done(&self) -> bool {
        self.completed == self.flows.len()
    }

    /// Delivered-throughput time series, if enabled.
    pub fn throughput(&self) -> Option<&TimeSeries> {
        self.throughput.as_ref()
    }

    /// FCTs (in microseconds) of completed flows whose payload size is in
    /// `[lo, hi)` — the unit used throughout the paper's figures.
    pub fn fcts_us(&self, lo: u64, hi: u64) -> Vec<f64> {
        self.flows
            .iter()
            .filter(|f| f.size >= lo && f.size < hi)
            .filter_map(|f| f.fct())
            .map(|t| t.as_us_f64())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut t = FlowTracker::new();
        let id = t.register(0, 1, 3000, FlowClass::LowLatency, SimTime::from_us(10));
        assert_eq!(t.len(), 1);
        assert!(!t.deliver(id, 1436, SimTime::from_us(20)));
        assert!(!t.all_done());
        assert!(t.deliver(id, 1564, SimTime::from_us(30)));
        assert!(t.all_done());
        let rec = t.get(id);
        assert_eq!(rec.fct(), Some(SimTime::from_us(20)));
    }

    #[test]
    fn fct_filter_by_size() {
        let mut t = FlowTracker::new();
        let a = t.register(0, 1, 100, FlowClass::LowLatency, SimTime::ZERO);
        let b = t.register(0, 1, 10_000, FlowClass::Bulk, SimTime::ZERO);
        t.deliver(a, 100, SimTime::from_us(5));
        t.deliver(b, 10_000, SimTime::from_us(50));
        assert_eq!(t.fcts_us(0, 1000), vec![5.0]);
        assert_eq!(t.fcts_us(1000, u64::MAX), vec![50.0]);
        assert_eq!(t.completed(), 2);
    }

    #[test]
    fn throughput_series() {
        let mut t = FlowTracker::new();
        t.record_throughput(SimTime::from_ms(1));
        let id = t.register(0, 1, 5000, FlowClass::Bulk, SimTime::ZERO);
        t.deliver(id, 2000, SimTime::from_us(100));
        t.deliver(id, 3000, SimTime::from_us(1200));
        let ts = t.throughput().unwrap();
        assert_eq!(ts.total(), 5000.0);
        assert_eq!(ts.series()[0].1, 2000.0);
        assert_eq!(ts.series()[1].1, 3000.0);
    }

    #[test]
    fn unfinished_flow_has_no_fct() {
        let mut t = FlowTracker::new();
        let id = t.register(2, 3, 1000, FlowClass::Bulk, SimTime::ZERO);
        t.deliver(id, 999, SimTime::from_us(1));
        assert!(t.get(id).fct().is_none());
        assert_eq!(t.fcts_us(0, u64::MAX), Vec::<f64>::new());
    }
}
