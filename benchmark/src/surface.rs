//! The one import seam: every `use` of a repo crate lives here.
//!
//! The benchmark calls the simulator only through the items re-exported
//! below (README.md lists them with the signatures relied on). A PR that
//! must change one of these needs a benchmark issue first, because a
//! change that claims a gain may not edit the benchmark.

pub use bench::figures;
pub use expt::golden::{compare_driver, parse_csv, GoldenManifest};
pub use expt::json::Json;
pub use expt::output::write_tables;
pub use expt::{RunMeta, TableDoc};
pub use netsim::fabric::{FabricCounters, NetEvent};
pub use netsim::pcapng::{PcapngSink, PcapngWriter};
pub use netsim::{
    EcnMark, Fabric, FlowClass, FlowTracker, JsonlSink, LinkSpec, MultiSink, NetLogic, NetWorld,
    Packet, QueueConfig, TraceSink, MTU,
};
pub use opera::harness::ExperimentResult;
pub use opera::tables::{BulkTables, LowLatencyTables};
pub use opera::{
    opera_net, static_net, OperaNetConfig, SliceTiming, StaticNetConfig, StaticTopologyKind,
};
pub use simkit::engine::{EventContext, EventHandler};
pub use simkit::{SimTime, Simulator};
pub use topo::expander::{ExpanderParams, ExpanderTopology};
pub use topo::opera::{OperaParams, OperaTopology};
pub use transport::{DctcpParams, Transport, TransportKind, TransportTimer};
pub use workloads::{FlowSizeDist, FlowSpec, PoissonGen, ScenarioGen, Workload};
