//! `transport` — end-host transport protocols for the Opera reproduction.
//!
//! Low-latency traffic can be carried by any [`Transport`] implementation;
//! three ship, matched to the switch policies in `netsim::policy`:
//!
//! * [`ndp`] — NDP \[Handley et al., SIGCOMM 2017\], the paper's choice
//!   (§4.2): receiver-driven pull pacing, packet trimming at shallow
//!   switch queues, per-packet ACK/NACK, zero-RTT start. Pairs with
//!   `NdpTrim` switches.
//! * [`dctcp`] — DCTCP-style sender: per-packet ACKs echo the ECN
//!   congestion-experienced bit and the sender reduces its window in
//!   proportion to the marked fraction. Pairs with `EcnMark` switches.
//! * [`go_back_n`] — plain go-back-N: cumulative ACKs, in-order delivery
//!   only, timeout retransmission of the whole window. The baseline for
//!   lossy `DropTail` switches (and trivially correct under lossless
//!   `Pfc`).
//!
//! Bulk traffic keeps its own machinery ([`rotorlb`] — RotorLB \[RotorNet,
//! SIGCOMM 2017\]: buffer at the edge until a direct circuit is up, spill
//! onto two-hop Valiant paths under skew).
//!
//! Every transport sends [`netsim::MTU`]-sized packets. NDP's and
//! go-back-N's tuning is the paper's (§4.2.1), fixed as constants in their
//! modules, as RotorLB's relay store and Valiant threshold are in
//! [`rotorlb`]; only DCTCP ([`DctcpParams`]) keeps settable values.
//!
//! Per-flow state is looked up for every data packet and every ACK, so the
//! three sequence-number transports keep it in two containers built for
//! that (private module `window`), and both lean on what a flow id *is*
//! here: `FlowTracker::register`'s dense counter, a key the program makes
//! itself. `FlowMap` is a hash map whose hash is one multiply — fit for
//! such keys, not for keys an outsider could choose — and it is never
//! iterated, so no result depends on its order (and none on a per-process
//! `RandomState`). `SeqSet` is a bitmap over a flow's segments `0..total`
//! with a count: the sender's unacked set and the receiver's seen set,
//! `total / 8` bytes a flow.
//!
//! All hosts are deliberately *topology-free*: they speak in terms of host
//! NICs and packets, and they cannot schedule timers directly — timer
//! token encoding is owned by the enclosing network model, so every entry
//! point returns [`Actions`] for the caller to schedule. The `opera` crate
//! wires hosts to concrete networks through one generic dispatch path.

pub mod dctcp;
pub mod go_back_n;
pub mod ndp;
pub mod rotorlb;
mod window;

use netsim::fabric::{Fabric, NetEvent};
use netsim::packet::HEADER_SIZE;
use netsim::{FlowId, FlowTracker, Packet, MTU};
use simkit::engine::EventContext;
use simkit::SimTime;

pub use dctcp::{DctcpHost, DctcpParams};
pub use go_back_n::GoBackNHost;
pub use ndp::NdpHost;
pub use rotorlb::{BulkChunk, Offer, RackBulk};

/// Timer purposes a [`Transport`] asks its environment to schedule.
///
/// The set is shared across transports so the enclosing network model can
/// use one token encoding for all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportTimer {
    /// A pacer should release the next credit (NDP's pull pacer).
    PullPacer,
    /// Retransmission-timeout check for `flow`.
    Rto(FlowId),
}

/// What a host asks its environment to do after handling an event.
/// Timers cannot be scheduled directly because token encoding is owned by
/// the enclosing network model.
#[derive(Debug, Default)]
pub struct Actions {
    /// Timers to schedule: (fire time, purpose).
    pub timers: Vec<(SimTime, TransportTimer)>,
}

/// An end-host sender/receiver for low-latency flows.
///
/// The contract mirrors the event loop: the network model calls
/// [`Transport::start_flow`] when a flow's start time is due,
/// [`Transport::on_packet`] for every packet that reaches the host's NIC,
/// and [`Transport::on_timer`] when a timer it scheduled on the host's
/// behalf fires. Every call may emit packets into the fabric and returns
/// the timers to arm. The `ack` and `timer` trace records of a host are
/// written by that caller (`opera::net::Endpoints`), so an implementation
/// knows nothing about tracing.
pub trait Transport: std::fmt::Debug {
    /// Start sending `flow` (`size` payload bytes) to `dst` (a NIC node
    /// id).
    fn start_flow(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        flow: FlowId,
        dst: usize,
        size: u64,
    ) -> Actions;

    /// Handle a packet addressed to this host. `tracker` records payload
    /// delivery and completion.
    fn on_packet(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        tracker: &mut FlowTracker,
        pkt: Packet,
    ) -> Actions;

    /// A timer scheduled via [`Actions`] fired.
    fn on_timer(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        which: TransportTimer,
    ) -> Actions;

    /// Every flow this host is still sending, with how many of its
    /// payload bytes the receiver has acknowledged so far (a sender lets
    /// go of a flow once all of them are), in no particular order.
    fn acked(&self) -> Vec<(FlowId, u64)>;
}

/// Which [`Transport`] a network model should instantiate for its hosts;
/// DCTCP's carries its [`DctcpParams`]. `Copy` so experiment configs that
/// embed it stay `Copy`.
#[derive(Debug, Clone, Copy)]
pub enum TransportKind {
    /// NDP (the paper's transport). Pairs with `NdpTrim` switches.
    Ndp,
    /// DCTCP-style ECN-echo sender. Pairs with `EcnMark` switches.
    Dctcp(DctcpParams),
    /// Go-back-N. Baseline for lossy `DropTail` / lossless `Pfc` switches.
    GoBackN,
}

impl TransportKind {
    /// The paper's configuration: NDP.
    pub fn paper_default() -> Self {
        TransportKind::Ndp
    }

    /// Instantiate a host of this kind on NIC `nic`, port `nic_port`.
    pub fn make(&self, nic: usize, nic_port: usize) -> Box<dyn Transport> {
        match *self {
            TransportKind::Ndp => Box::new(NdpHost::new(nic, nic_port)),
            TransportKind::Dctcp(p) => Box::new(DctcpHost::new(nic, nic_port, p)),
            TransportKind::GoBackN => Box::new(GoBackNHost::new(nic, nic_port)),
        }
    }
}

/// Payload bytes carried by a full packet of [`MTU`] wire bytes.
pub(crate) const PAYLOAD_PER_PACKET: u32 = MTU - HEADER_SIZE;

/// Number of packets a flow of `size` payload bytes needs.
///
/// # Panics
/// Panics if the count does not fit the `u32` segment numbers (a flow of
/// about 6.2 TB), rather than counting it modulo 2³². Flow sizes are
/// bounded far below that where they are read.
pub(crate) fn packets_for(size: u64) -> u32 {
    u32::try_from(size.div_ceil(PAYLOAD_PER_PACKET as u64).max(1))
        .expect("a flow's segment count must fit u32")
}

/// Payload bytes of the first `n` segments of a flow of `size` bytes.
pub(crate) fn bytes_before(size: u64, n: u32) -> u64 {
    (n as u64 * PAYLOAD_PER_PACKET as u64).min(size)
}

/// Wire size of segment `seq` of a flow with `size` payload bytes.
pub(crate) fn wire_size(size: u64, seq: u32) -> u32 {
    let per = PAYLOAD_PER_PACKET as u64;
    let sent = seq as u64 * per;
    let remaining = size.saturating_sub(sent).min(per) as u32;
    HEADER_SIZE + remaining
}
