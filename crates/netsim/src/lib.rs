//! `netsim` — a packet-level network fabric simulator.
//!
//! This crate replaces the data-plane machinery of the `htsim` simulator the
//! paper used: store-and-forward nodes with output-queued ports, strict
//! priority queues with NDP-style packet trimming, and links modeled as
//! serialization + propagation delay.
//!
//! The fabric is *policy-free*: what a node does with an arriving packet
//! (route it, consume it, answer it) is decided by a [`logic::NetLogic`]
//! implementation supplied by higher layers (`transport`, `opera`). The
//! split keeps the hot path monomorphic and the network models testable in
//! isolation.
//!
//! * [`packet`] — the packet model (semantic headers, no payload bytes),
//! * [`fabric`] — nodes, ports, queues, links, and each port's one link
//!   state with its one mutation path (circuit rewiring, PFC pauses,
//!   failures), counters and the packet ledger,
//! * [`policy`] — [`policy::SwitchPolicyKind`], the closed set of
//!   queueing policies (drop-tail, NDP trim, PFC, ECN marking),
//! * [`logic`] — the [`logic::NetLogic`] trait and the
//!   [`logic::NetWorld`] event-loop adapter,
//! * [`flows`] — flow registry and FCT accounting,
//! * [`trace`] — opt-in structured per-link event tracing
//!   ([`trace::TraceSink`], JSON-lines sink),
//! * [`pcapng`] — self-contained pcapng writer/reader and the
//!   [`pcapng::PcapngSink`] capture adapter.

pub mod fabric;
pub mod flows;
pub mod logic;
pub mod packet;
pub mod pcapng;
pub mod policy;
pub mod trace;

pub use fabric::{
    Fabric, LinkChange, LinkSignal, LinkSpec, LinkState, NetEvent, NodeId, PortId, QueueConfig,
};
pub use flows::{FlowClass, FlowId, FlowRecord, FlowTracker};
pub use logic::{NetLogic, NetWorld};
pub use packet::{Packet, PacketArena, PacketKind, PacketRef, Priority, HEADER_SIZE, MTU};
pub use pcapng::{PcapngFile, PcapngSink, PcapngWriter};
pub use policy::{DropTail, EcnMark, NdpTrim, Pfc, SwitchPolicyKind};
pub use trace::{
    JsonlSink, KindTag, MemorySink, MultiSink, PacketMeta, TraceEvent, TraceRecord, TraceSink,
};
