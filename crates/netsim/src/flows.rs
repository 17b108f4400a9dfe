//! Flow registry and flow-completion-time accounting.
//!
//! Every experiment in the paper reports flow completion times (FCT) or
//! delivered throughput; both derive from the same bookkeeping: when a flow
//! started, how many payload bytes have reached the destination, and when
//! the last byte arrived.
//!
//! **What a flow costs.** A bulk shuffle holds every flow at once, so its
//! peak memory grows with the flow count. The per-flow items, before and
//! after the records dropped their host ids and moved their class out of
//! line, at `fig08_opera_648`'s 419 256 flows:
//!
//! | per flow | before | after | 419 256 flows |
//! |---|---|---|---|
//! | [`FlowRecord`] | 64 B | 40 B | 26.8 → 16.8 MB |
//! | its class ([`FlowTracker::class`]) | in the record | 1 B | 0 → 0.4 MB |
//! | its `FlowSpec` in the injection list (freed with the last injection) | 32 B | 32 B | 13.4 MB |
//! | its chunk in RotorLB's queue (while queued) | 16 B | 16 B | 6.7 MB |
//! | all four | 112 B | 89 B | 47.0 → 37.3 MB |
//!
//! The spot point's peak (VmHWM) fell 54.7 → 45.4 MiB with it.

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

/// Book-keeping for one flow: 40 bytes, what the packet path and the FCT
/// statistics read. The flow's class lives beside it
/// ([`FlowTracker::class`]), and its hosts only in its `FlowSpec`.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Payload size in bytes.
    pub size: u64,
    /// Arrival (start) time.
    pub start: SimTime,
    /// Payload bytes received at the destination so far.
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
    /// Each flow's class, by id: read only for the per-class statistics,
    /// so kept out of the records the packet path touches.
    classes: Vec<FlowClass>,
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
            classes: Vec::with_capacity(flows),
            ..Self::default()
        }
    }

    /// Enable binned delivered-throughput recording.
    pub fn record_throughput(&mut self, bin: SimTime) {
        self.throughput = Some(TimeSeries::new(bin));
    }

    /// Register a flow; returns its id.
    ///
    /// The hosts `_src` and `_dst` are not stored: nothing reads them back
    /// from the tracker (the caller's `FlowSpec` has them), and a
    /// paper-scale shuffle holds 419 256 records at once. The parameters
    /// stay while the benchmark calls this signature (ROADMAP 8b).
    pub fn register(
        &mut self,
        _src: usize,
        _dst: usize,
        size: u64,
        class: FlowClass,
        start: SimTime,
    ) -> FlowId {
        let id = self.flows.len() as FlowId;
        self.flows.push(FlowRecord {
            size,
            start,
            received: 0,
            finish: None,
        });
        self.classes.push(class);
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

    /// The service class `flow` was registered with.
    pub fn class(&self, flow: FlowId) -> FlowClass {
        self.classes[flow as usize]
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

    /// The flows' books: no flow received more than its size, a finished
    /// flow received exactly its size, and a flow that received its size
    /// is finished. The error is the first flow that breaks one.
    pub fn ledger(&self) -> Result<(), FlowId> {
        let broken =
            |f: &FlowRecord| f.received > f.size || f.finish.is_some() != (f.received == f.size);
        match self.flows.iter().position(broken) {
            Some(id) => Err(id as FlowId),
            None => Ok(()),
        }
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
        assert_eq!(ts.series().len(), 2);
        assert_eq!(ts.series()[0].1, 2000.0);
        assert_eq!(ts.series()[1].1, 3000.0);
    }

    #[test]
    fn flow_record_is_40_bytes() {
        assert_eq!(std::mem::size_of::<FlowRecord>(), 40);
    }

    #[test]
    fn class_reads_back_by_id() {
        let mut t = FlowTracker::with_capacity(3);
        let classes = [FlowClass::Bulk, FlowClass::LowLatency, FlowClass::Bulk];
        for (i, &class) in classes.iter().enumerate() {
            assert_eq!(
                t.register(i, i + 1, 1000, class, SimTime::ZERO),
                i as FlowId
            );
        }
        for (id, &class) in classes.iter().enumerate() {
            assert_eq!(t.class(id as FlowId), class, "flow {id}");
        }
    }

    /// A tracker with flow 0 complete and flow 1 half delivered: the
    /// ledger balances.
    fn half_done() -> FlowTracker {
        let mut t = FlowTracker::new();
        let a = t.register(0, 1, 1000, FlowClass::Bulk, SimTime::ZERO);
        let b = t.register(0, 1, 1000, FlowClass::Bulk, SimTime::ZERO);
        t.deliver(a, 1000, SimTime::from_us(3));
        t.deliver(b, 500, SimTime::from_us(3));
        assert_eq!(t.ledger(), Ok(()));
        t
    }

    #[test]
    fn ledger_fails_a_finished_flow_short_of_its_size() {
        let mut t = half_done();
        t.flows[1].finish = Some(SimTime::from_us(4));
        assert_eq!(t.ledger(), Err(1));
    }

    #[test]
    fn ledger_fails_a_flow_that_received_its_size_unfinished() {
        let mut t = half_done();
        t.flows[0].finish = None;
        assert_eq!(t.ledger(), Err(0));
    }

    #[test]
    fn ledger_fails_a_flow_that_received_more_than_its_size() {
        let mut t = half_done();
        t.flows[0].received = 1001;
        assert_eq!(t.ledger(), Err(0));
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
