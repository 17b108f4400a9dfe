//! The packet-level Opera network (and RotorNet variants): what happens
//! between the ToRs. Hosts, transport and flow arrivals are the shared
//! [`crate::net::Endpoints`].
//!
//! Node layout: hosts `0..H`, then one ToR node per rack; in hybrid
//! RotorNet mode, one additional ideal packet-core node. Rotor circuit
//! switches are *not* nodes: a circuit is a direct wire between two ToR
//! uplink ports, rewired at reconfiguration times (see
//! [`netsim::Fabric::set_link`]).
//!
//! Per slice (§3, §4):
//! * low-latency packets are routed hop-by-hop over the current expander
//!   using precomputed per-slice ECMP tables, choosing uniformly among
//!   shortest-path uplinks per packet;
//! * bulk packets are admitted by per-`(rack, uplink)` *feeders* that poll
//!   source hosts at line rate while a direct circuit to the destination
//!   rack is up (§3.5), stop at the end of the slice (a slice's circuits
//!   never use a switch that reconfigures in it), and requeue anything
//!   left in the ToR's bulk queue when the switch goes dark (the NACK path
//!   of §4.2.2). A poll asks RotorLB for a packet only from a host whose
//!   NIC has room for it: the chunk whose turn it is waits otherwise, and
//!   nothing is popped and put back;
//! * a ToR's host ports take bulk past their bulk capacity, so the last
//!   hop never drops a bulk byte. This keeps §3.4's contract that RotorLB
//!   offers only what the next hop can take: the contract is with the
//!   circuit, whose window closes, and every byte that crossed one was
//!   taken by it. The host link never closes, so what it cannot carry at
//!   once waits instead of being dropped with no NACK path left to
//!   return it. The wait is a burst: `u` circuits can bring one host
//!   `u`× its line rate, but a rack's circuits and host links carry the
//!   same total. `OperaCounters::bulk_downlink_peak` records the largest
//!   such backlog (241 KB on `opera_shuffle`, 113 KB on fig08's
//!   paper-scale shuffle, against a 24 KB bulk queue);
//! * at each boundary the reconfiguring switch group's circuits go dark
//!   for the reconfiguration delay `r`, then reconnect in the next
//!   matching. Nothing queued at their uplinks is sent into them: bulk
//!   returns to RotorLB, and a low-latency or control packet is looked up
//!   again at its ToR in the current slice's table, which routes around
//!   the group (§3.5; `OperaCounters::relookups`).
//!
//! Modes (§5): [`RotorMode::Opera`] classifies flows by size threshold;
//! [`RotorMode::RotorNonHybrid`] sends *everything* through RotorLB
//! (short flows wait for circuits — Figure 7c's three-orders-worse
//! latency); [`RotorMode::RotorHybrid`] sends low-latency flows through a
//! separate ideal packet core attached to one uplink per ToR (+33% cost).

use crate::net::{Endpoints, PacketNet};
use crate::tables::{BulkTables, LowLatencyTables};
use crate::timing::SliceTiming;
use crate::tokens::{decode, timer, Token};
use netsim::fabric::{Fabric, LinkChange, LinkSpec, NetEvent, QueueConfig};
use netsim::{FlowClass, FlowTracker, NetLogic, NetWorld, Packet, PacketKind, Priority, MTU};
use simkit::engine::EventContext;
use simkit::{SimRng, SimTime, Simulator};
use topo::opera::{OperaParams, OperaTopology};
use transport::rotorlb::VLB_THRESHOLD;
use transport::{Offer, RackBulk, TransportKind};
use workloads::FlowSpec;

/// Which system the rotor fabric emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotorMode {
    /// Opera: expander paths for low-latency, circuits for bulk.
    Opera,
    /// RotorNet without a packet network: everything over RotorLB.
    RotorNonHybrid,
    /// RotorNet with one uplink per ToR facing an ideal packet core for
    /// low-latency traffic (1.33× cost).
    RotorHybrid,
}

/// Configuration of an Opera/RotorNet simulation.
#[derive(Debug, Clone, Copy)]
pub struct OperaNetConfig {
    /// Topology parameters (racks, uplinks, hosts/rack, groups).
    pub params: OperaParams,
    /// Slice timing.
    pub timing: SliceTiming,
    /// Link rate and propagation delay used everywhere.
    pub link: LinkSpec,
    /// Queue configuration for every port.
    pub queues: QueueConfig,
    /// Low-latency transport.
    pub transport: TransportKind,
    /// Flows of at least this many bytes are bulk (§4.1; ignored by the
    /// RotorNet modes, which classify everything as bulk for transport).
    pub bulk_threshold: u64,
    /// System variant.
    pub mode: RotorMode,
    /// Allow RotorLB two-hop Valiant indirection.
    pub allow_vlb: bool,
    /// RNG seed (topology generation uses `seed`, routing choice
    /// `seed + 1`, both wrapping past `u64::MAX`).
    pub seed: u64,
}

impl OperaNetConfig {
    /// A small fast configuration for tests: 8 racks × 4 hosts, 4 rotor
    /// switches, 10 µs slices.
    pub fn small_test() -> Self {
        OperaNetConfig {
            params: OperaParams {
                racks: 8,
                uplinks: 4,
                hosts_per_rack: 4,
                groups: 1,
            },
            timing: SliceTiming::fast_sim(),
            link: LinkSpec::paper_default(),
            queues: QueueConfig::builder().build(),
            transport: TransportKind::paper_default(),
            bulk_threshold: 500_000,
            mode: RotorMode::Opera,
            allow_vlb: true,
            seed: 1,
        }
    }

    /// The paper's 648-host configuration (slow to simulate at high load).
    pub fn paper_648() -> Self {
        OperaNetConfig {
            params: OperaParams::example_648(),
            timing: SliceTiming::paper_default(),
            bulk_threshold: 15_000_000,
            ..Self::small_test()
        }
    }

    /// Total hosts.
    pub fn hosts(&self) -> usize {
        self.params.hosts()
    }
}

/// Loss/diagnostic counters specific to the Opera logic.
#[derive(Debug, Clone, Copy, Default)]
pub struct OperaCounters {
    /// Low-latency packets dropped for exceeding the hop limit.
    pub hop_limit_drops: u64,
    /// Bulk packets a ToR uplink still held when its window closed,
    /// returned to RotorLB.
    pub bulk_requeued: u64,
    /// Low-latency and control packets a ToR uplink still held when its
    /// circuit went dark, looked up again at that ToR in the current
    /// slice's table.
    pub relookups: u64,
    /// Valiant packets that found the relay store full.
    pub relay_overflow: u64,
    /// Bulk packets that arrived at a ToR with no usable circuit and were
    /// locally requeued.
    pub bulk_stragglers: u64,
    /// Valiant packets at their source ToR for their first hop, whether
    /// they left on a circuit or were requeued as stragglers. So with none,
    /// every straggler was a direct packet.
    pub valiant_first_hops: u64,
    /// Transceivers marked bad by the hello protocol.
    pub links_marked_bad: u64,
    /// Feeder ticks whose chunk's source host NIC was full: the chunk kept
    /// its bytes and its round-robin turn passed (backpressure, not loss).
    pub nic_backpressure: u64,
    /// The largest bulk backlog a ToR's host port has held, bytes.
    pub bulk_downlink_peak: u64,
}

impl OperaCounters {
    /// Every counter with its field name, in declaration order.
    pub fn named(&self) -> [(&'static str, u64); 9] {
        let OperaCounters {
            hop_limit_drops,
            bulk_requeued,
            relookups,
            relay_overflow,
            bulk_stragglers,
            valiant_first_hops,
            links_marked_bad,
            nic_backpressure,
            bulk_downlink_peak,
        } = *self;
        [
            ("hop_limit_drops", hop_limit_drops),
            ("bulk_requeued", bulk_requeued),
            ("relookups", relookups),
            ("relay_overflow", relay_overflow),
            ("bulk_stragglers", bulk_stragglers),
            ("valiant_first_hops", valiant_first_hops),
            ("links_marked_bad", links_marked_bad),
            ("nic_backpressure", nic_backpressure),
            ("bulk_downlink_peak", bulk_downlink_peak),
        ]
    }
}

/// Per-`(rack, uplink)` feeder state.
#[derive(Debug, Clone, Copy, Default)]
struct Feeder {
    running: bool,
    /// Stop polling at this time (window close).
    deadline: SimTime,
    /// Destination rack of the circuit currently fed.
    circuit_dst: usize,
}

/// The Opera network logic (see module docs).
pub struct OperaLogic {
    cfg: OperaNetConfig,
    ends: Endpoints,
    topo: OperaTopology,
    ll_tables: LowLatencyTables,
    bulk_tables: BulkTables,
    bulk: Vec<RackBulk>,
    rng: SimRng,
    /// Current slice (monotone).
    slice: usize,
    /// `slice` within the cycle, stepped at each boundary: what the tables
    /// are indexed by, so no packet-hop takes a remainder.
    cycle_slice: usize,
    /// Host → rack.
    host_rack: Vec<u16>,
    /// Feeder polling period: one MTU at line rate.
    feeder_tick: SimTime,
    feeders: Vec<Feeder>,
    /// Counters.
    pub counters: OperaCounters,
    /// Payload bytes handed to RotorLB and not yet delivered to a host.
    bulk_outstanding: u64,
    /// `(rack, uplink)` transceivers marked bad by the hello protocol
    /// (§3.6.2); routing tables exclude their circuits.
    bad_links: Vec<(usize, usize)>,
    /// Hello awaited on `(rack, uplink)` this slice (flat index).
    hello_pending: Vec<bool>,
    /// Run the hello protocol (small per-slice control overhead).
    hello_enabled: bool,
}

/// Hello messages sent per circuit end at each reconfiguration (§3.6.2's
/// "short sequence"; the link is marked bad only when all are lost).
pub const HELLO_BURST: usize = 3;

/// Maximum ToR-to-ToR hops before a packet is declared looping.
const HOP_LIMIT: u8 = 32;

/// Complete simulated network: fabric + logic in a simulator.
pub type OperaNet = Simulator<NetWorld<OperaLogic>>;

impl OperaLogic {
    fn rack_of(&self, host: usize) -> usize {
        self.host_rack[host] as usize
    }
    fn tor_node(&self, rack: usize) -> usize {
        self.ends.hosts() + rack
    }
    fn core_node(&self) -> usize {
        self.tor_node(self.cfg.params.racks)
    }
    fn is_tor(&self, node: usize) -> bool {
        (self.tor_node(0)..self.core_node()).contains(&node)
    }
    fn is_core(&self, node: usize) -> bool {
        self.cfg.mode == RotorMode::RotorHybrid && node == self.core_node()
    }
    /// Rotor uplinks (excludes the hybrid packet-core uplink).
    fn rotor_uplinks(&self) -> usize {
        self.topo.switches()
    }
    /// Fabric port of rotor uplink `j` at a ToR: after the host ports.
    fn up_port(&self, j: usize) -> usize {
        self.cfg.params.hosts_per_rack + j
    }
    /// Fabric port of the hybrid packet-core uplink.
    fn core_port(&self) -> usize {
        self.up_port(self.rotor_uplinks())
    }
    fn feeder_idx(&self, rack: usize, uplink: usize) -> usize {
        rack * self.rotor_uplinks() + uplink
    }

    /// Classify a flow by mode and size. Non-hybrid RotorNet's every flow
    /// is bulk from the transport's point of view; hybrid RotorNet splits
    /// like Opera, and its low-latency class rides the packet core.
    fn classify(&self, size: u64) -> FlowClass {
        if self.cfg.mode == RotorMode::RotorNonHybrid || size >= self.cfg.bulk_threshold {
            FlowClass::Bulk
        } else {
            FlowClass::LowLatency
        }
    }

    /// Access the flow tracker (results).
    pub fn tracker(&self) -> &FlowTracker {
        self.ends.tracker()
    }

    /// Bulk payload bytes handed to RotorLB that are neither delivered,
    /// queued in a rack's RotorLB, nor in a packet `fabric` holds: bytes
    /// the fabric lost, or a relay store refused (`relay_overflow`), which
    /// nothing sends again (ROADMAP 27). Bytes counted twice over would
    /// underflow it.
    pub fn bulk_lost_bytes(&self, fabric: &Fabric) -> u64 {
        let queued: u64 = self
            .bulk
            .iter()
            .map(|b| b.total_direct_backlog() + b.relay_bytes())
            .sum();
        let parked: u64 = fabric
            .parked()
            .filter(|p| matches!(p.kind, PacketKind::BulkData { .. }))
            .map(|p| p.payload() as u64)
            .sum();
        self.bulk_outstanding - queued - parked
    }

    /// The generated topology (for analysis alongside the simulation).
    pub fn topology(&self) -> &OperaTopology {
        &self.topo
    }

    // ------------------------------------------------------------------
    // Slice machinery
    // ------------------------------------------------------------------

    /// A slice boundary (Figure 6): the switches that spent the last `r`
    /// of the ending slice dark reconfiguring come up in their next
    /// matching, and the new slice begins with every circuit live.
    fn on_slice_boundary(&mut self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>) {
        let ending = self.slice;
        self.slice += 1;
        self.cycle_slice += 1;
        if self.cycle_slice == self.topo.slices_per_cycle() {
            self.cycle_slice = 0;
        }
        for j in self.topo.reconfiguring(ending) {
            let (position, port) = (self.topo.position_at(j, self.slice), self.up_port(j));
            // A rewire restarts both ends, so a port a cleared PFC pause
            // left idle with packets queued goes again now (ROADMAP 4e).
            // Self-paired racks' ports stay dark.
            for (a, b) in self.topo.matching(j, position).pairs() {
                let wire = LinkChange::Wire(self.tor_node(b), port);
                fabric.set_link(ctx, self.tor_node(a), port, wire);
            }
            if self.hello_enabled {
                self.send_hellos(fabric, ctx, j);
            }
        }
        // This slice's reconfiguring group goes dark ε from now (r before
        // the next boundary).
        ctx.schedule_in(self.cfg.timing.epsilon, timer(Token::Dark));
        self.start_feeders(ctx);
        ctx.schedule_in(self.cfg.timing.slice(), timer(Token::SliceBoundary));
    }

    /// ε into the slice: the impending switches' circuits go dark and
    /// begin reconfiguring, and nothing still queued at their uplinks is
    /// sent into them. Bulk staged there missed the window — the §4.2.2
    /// NACK path returns it to the RotorLB queues. Low-latency and control
    /// packets go back to their ToR for a fresh lookup in the current
    /// slice's table, which routes around the reconfiguring switches: no
    /// packet is sent into a circuit that is reconfiguring (§3.5). A hello
    /// probes only the circuit it was queued for, and goes with it.
    fn on_dark(&mut self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>) {
        for j in self.topo.reconfiguring(self.slice) {
            for rack in 0..self.cfg.params.racks {
                let (tor, port) = (self.tor_node(rack), self.up_port(j));
                for pkt in &fabric.drain(ctx, tor, port, Priority::Bulk) {
                    let dst_rack = self.rack_of(pkt.dst);
                    self.bulk[rack].requeue(pkt, dst_rack);
                    self.counters.bulk_requeued += 1;
                }
                for prio in [Priority::Control, Priority::LowLatency] {
                    for pkt in fabric.drain(ctx, tor, port, prio) {
                        if pkt.kind != PacketKind::Hello {
                            self.counters.relookups += 1;
                            self.route_low_latency(fabric, ctx, rack, pkt);
                        }
                    }
                }
                fabric.set_link(ctx, tor, port, LinkChange::Dark);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault detection (§3.6.2): hello exchange on every new circuit
    // ------------------------------------------------------------------

    /// When switch `j` comes up in a new matching, both ends of every
    /// circuit send a hello; each end expects its partner's hello within
    /// the hello timeout, else marks the partner's transceiver bad and
    /// recomputes routes around it.
    fn send_hellos(&mut self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>, j: usize) {
        // A few circuit RTTs, far below ε.
        let timeout = ctx.now() + SimTime::from_ns(self.cfg.timing.epsilon.as_ns() / 4);
        let (tor0, port) = (self.tor_node(0), self.up_port(j));
        let m = self.topo.matching(j, self.topo.position_at(j, self.slice));
        for (a, b) in m.pairs() {
            for (me, peer) in [(a, b), (b, a)] {
                // "A short sequence of hello messages" (§3.6.2): several
                // copies so one corrupted frame cannot condemn a healthy
                // link. The circuit is marked bad only if all are lost.
                for _ in 0..HELLO_BURST {
                    let pkt = Packet::control(
                        netsim::FlowId::MAX,
                        tor0 + me,
                        tor0 + peer,
                        PacketKind::Hello,
                    );
                    fabric.send(ctx, tor0 + me, port, pkt);
                }
                let fi = self.feeder_idx(peer, j);
                self.hello_pending[fi] = true;
                ctx.schedule_at(timeout, timer(Token::HelloCheck(peer, j)));
            }
        }
    }

    /// The rack at the far end of `rack`'s circuit through `uplink` this
    /// slice (`rack` itself when it is self-paired).
    fn partner(&self, rack: usize, uplink: usize) -> usize {
        let position = self.topo.position_at(uplink, self.slice);
        self.topo.matching(uplink, position).partner(rack)
    }

    /// A hello arrived at `rack` via `uplink`: the circuit (and the
    /// partner's transceiver) are alive.
    fn on_hello(&mut self, rack: usize, uplink: usize) {
        let fi = self.feeder_idx(rack, uplink);
        self.hello_pending[fi] = false;
        if self.bad_links.is_empty() {
            return;
        }
        // A hello from a link previously marked bad proves it healthy
        // again (e.g. a false positive from corrupted hello frames, or a
        // repaired transceiver): restore it.
        let partner = self.partner(rack, uplink);
        if let Some(pos) = self.bad_links.iter().position(|&b| b == (partner, uplink)) {
            self.bad_links.swap_remove(pos);
            self.recompute_tables();
        }
    }

    /// Hello timeout fired: if still pending, the partner this slice never
    /// reached us — mark its `(rack, uplink)` transceiver bad and route
    /// around it (the paper shares this via subsequent hellos; we model
    /// converged knowledge, which §3.6.2 bounds at two cycles).
    fn on_hello_check(&mut self, rack: usize, uplink: usize) {
        let fi = self.feeder_idx(rack, uplink);
        if !self.hello_pending[fi] {
            return;
        }
        self.hello_pending[fi] = false;
        // Identify the partner whose hello went missing.
        let partner = self.partner(rack, uplink);
        let bad = (partner, uplink);
        if partner == rack || self.bad_links.contains(&bad) {
            return;
        }
        self.bad_links.push(bad);
        self.counters.links_marked_bad += 1;
        self.recompute_tables();
    }

    /// Rebuild both forwarding tables around the known-bad transceivers:
    /// the bulk table's circuit rows, and the low-latency table derived
    /// from them. Nothing else derived from the topology depends on them.
    fn recompute_tables(&mut self) {
        self.bulk_tables = BulkTables::build_with_failures(&self.topo, &self.bad_links);
        self.ll_tables = LowLatencyTables::from_circuits(&self.bulk_tables);
    }

    /// Links currently marked bad.
    pub fn bad_links(&self) -> &[(usize, usize)] {
        &self.bad_links
    }

    /// Enable or disable the hello protocol (on by default). Disabling
    /// removes its per-slice control packets — useful for experiments
    /// that meter exact data-plane packet counts.
    pub fn set_hello_enabled(&mut self, enabled: bool) {
        self.hello_enabled = enabled;
    }

    /// Fabric address `(node, port)` of a rack's rotor uplink — the handle
    /// experiments use to inject transceiver failures (a scheduled
    /// [`NetEvent::LinkChange`] carrying [`netsim::LinkSignal::Failed`]).
    pub fn uplink_addr(&self, rack: usize, uplink: usize) -> (usize, usize) {
        (self.tor_node(rack), self.up_port(uplink))
    }

    /// Does rack `r` have anything useful to put on a circuit to `dst`?
    fn has_bulk_work(&self, rack: usize, dst: usize) -> bool {
        let bulk = &self.bulk[rack];
        bulk.pending_to(dst) > 0
            || self.cfg.allow_vlb && bulk.total_direct_backlog() > VLB_THRESHOLD
    }

    /// Start the `(rack, uplink)` feeder, whose circuit reaches `dst`, if it
    /// is idle and has something to send there.
    fn arm_feeder(
        &mut self,
        ctx: &mut EventContext<'_, NetEvent>,
        rack: usize,
        uplink: usize,
        dst: usize,
    ) {
        let fi = self.feeder_idx(rack, uplink);
        if !self.feeders[fi].running && self.has_bulk_work(rack, dst) {
            self.feeders[fi].running = true;
            ctx.schedule_in(SimTime::ZERO, timer(Token::Feeder(rack, uplink)));
        }
    }

    /// The `i`-th direct circuit of `rack` this slice as `(dst, uplink)`,
    /// in the bulk table's row order (by value, so the caller can arm
    /// feeders while it walks the row).
    fn circuit(&self, rack: usize, i: usize) -> Option<(usize, usize)> {
        let row = self.bulk_tables.circuits_of(self.cycle_slice, rack);
        row.get(i)
            .map(|&(dst, uplink)| (dst as usize, uplink as usize))
    }

    /// (Re)arm feeders for every active circuit of the current slice; each
    /// closes at the next boundary.
    fn start_feeders(&mut self, ctx: &mut EventContext<'_, NetEvent>) {
        let closes = ctx.now() + self.cfg.timing.slice();
        for rack in 0..self.cfg.params.racks {
            let mut i = 0;
            while let Some((dst, uplink)) = self.circuit(rack, i) {
                i += 1;
                let fi = self.feeder_idx(rack, uplink);
                self.feeders[fi].deadline = closes;
                self.feeders[fi].circuit_dst = dst;
                self.arm_feeder(ctx, rack, uplink, dst);
            }
        }
    }

    fn on_feeder(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        rack: usize,
        uplink: usize,
    ) {
        let fi = self.feeder_idx(rack, uplink);
        let f = self.feeders[fi];
        if ctx.now() >= f.deadline {
            self.feeders[fi].running = false;
            return;
        }
        let tor = self.tor_node(rack);
        // Flow control: keep at most ~2 MTUs staged in the uplink's bulk
        // queue and don't overrun the host NIC.
        let cap = self.cfg.queues.cap_bytes[Priority::Bulk as usize];
        let uplink_space = fabric.queued_bytes_at(tor, self.up_port(uplink), Priority::Bulk)
            + 2 * MTU as u64
            <= cap;
        if uplink_space {
            // Poll a source host only if its NIC staging queue has room
            // (several feeders poll one host); bytes stored here for relay
            // ask no host.
            let host_rack = &self.host_rack;
            let ready = |h: usize| {
                host_rack[h] as usize != rack
                    || fabric.queued_bytes_at(h, 0, Priority::Bulk) + MTU as u64 <= cap
            };
            match self.bulk[rack].next_packet(f.circuit_dst, self.cfg.allow_vlb, ready) {
                Offer::Packet(pkt) if self.rack_of(pkt.src) == rack => {
                    // The source host emits the packet now. `ready` polled
                    // it only with an MTU of room, which every policy
                    // admits, so its NIC keeps the packet.
                    debug_assert!(!fabric.refuses(pkt.src, 0, &pkt));
                    fabric.send(ctx, pkt.src, 0, pkt);
                }
                // Relay bytes stored at this ToR: emit directly.
                Offer::Packet(pkt) => self.forward_bulk_at_tor(fabric, ctx, rack, pkt),
                Offer::HostBusy => self.counters.nic_backpressure += 1,
                Offer::Idle => {
                    // Nothing to send this tick; stop — arrivals re-kick.
                    self.feeders[fi].running = false;
                    return;
                }
            }
        }
        ctx.schedule_in(self.feeder_tick, timer(Token::Feeder(rack, uplink)));
    }

    /// Bytes for `dst_rack` were just queued at `rack`: kick the feeder
    /// that can move them, if a circuit is up.
    fn kick_feeder(&mut self, ctx: &mut EventContext<'_, NetEvent>, rack: usize, dst_rack: usize) {
        let slice = self.cycle_slice;
        if let Some(uplink) = self.bulk_tables.direct_uplink(slice, rack, dst_rack) {
            self.arm_feeder(ctx, rack, uplink, dst_rack);
        } else if self.cfg.allow_vlb {
            // No direct circuit this slice: VLB can still move the bytes
            // over any active circuit once the backlog is large enough.
            let mut i = 0;
            while let Some((dst, uplink)) = self.circuit(rack, i) {
                i += 1;
                self.arm_feeder(ctx, rack, uplink, dst);
            }
        }
    }

    // ------------------------------------------------------------------
    // Packet handling
    // ------------------------------------------------------------------

    fn on_tor_arrive(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        rack: usize,
        mut packet: Packet,
    ) {
        let dst_rack = self.rack_of(packet.dst);
        if dst_rack == rack {
            // Deliver down.
            let tor = self.tor_node(rack);
            let down = packet.dst - rack * self.cfg.params.hosts_per_rack;
            let bulk = packet.prio == Priority::Bulk;
            fabric.send(ctx, tor, down, packet);
            if bulk {
                let backlog = fabric.queued_bytes_at(tor, down, Priority::Bulk);
                let peak = &mut self.counters.bulk_downlink_peak;
                *peak = (*peak).max(backlog);
            }
            return;
        }
        match packet.kind {
            PacketKind::BulkData {
                relay: Some(final_rack),
                ..
            } if self.rack_of(packet.src) != rack => {
                // We are a VLB packet's intermediate: store for later relay.
                let stripped = Packet {
                    kind: PacketKind::BulkData {
                        seq: 0,
                        relay: None,
                    },
                    ..packet
                };
                if !self.bulk[rack].store_relay(&stripped, final_rack as usize) {
                    self.counters.relay_overflow += 1;
                }
            }
            // A bulk packet transiting its source ToR: direct, or the first
            // hop of a VLB packet (which never reaches an intermediate today,
            // see `forward_bulk_at_tor`).
            PacketKind::BulkData { .. } => self.forward_bulk_at_tor(fabric, ctx, rack, packet),
            _ => {
                // Low-latency / control.
                if self.cfg.mode == RotorMode::RotorHybrid {
                    fabric.send(ctx, self.tor_node(rack), self.core_port(), packet);
                    return;
                }
                packet.hops += 1;
                if packet.hops > HOP_LIMIT {
                    self.counters.hop_limit_drops += 1;
                    return;
                }
                self.route_low_latency(fabric, ctx, rack, packet);
            }
        }
    }

    /// Send a low-latency or control packet at `rack`'s ToR out one of the
    /// shortest-path uplinks the current slice's table gives toward its
    /// destination rack, chosen uniformly.
    fn route_low_latency(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        rack: usize,
        packet: Packet,
    ) {
        let dst_rack = self.rack_of(packet.dst);
        let hops = self.ll_tables.next_hops(self.cycle_slice, rack, dst_rack);
        if hops.is_empty() {
            self.counters.hop_limit_drops += 1;
            return;
        }
        let choice = hops.nth(self.rng.index(hops.len()));
        fabric.send(ctx, self.tor_node(rack), self.up_port(choice), packet);
    }

    /// Send a bulk packet out the ToR uplink with a direct circuit to its
    /// next rack: the rack a first-hop relay packet's `relay` names, and
    /// the destination rack otherwise. If the slice advanced underneath
    /// the packet and that circuit is gone, or its port would refuse the
    /// packet (asked before sending, so the fabric drops nothing), the
    /// packet missed its window: requeue locally.
    ///
    /// A Valiant packet's `relay` is its *final* rack (`next_packet` tags
    /// it so), not the intermediate whose circuit the feeder was filling,
    /// so its first hop never reaches an intermediate: it leaves on a
    /// direct circuit to the final rack or is requeued (ROADMAP 4h).
    fn forward_bulk_at_tor(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        rack: usize,
        packet: Packet,
    ) {
        let next_rack = match packet.kind {
            PacketKind::BulkData { relay: Some(r), .. } if self.rack_of(packet.src) == rack => {
                self.counters.valiant_first_hops += 1;
                r as usize
            }
            _ => self.rack_of(packet.dst),
        };
        let tor = self.tor_node(rack);
        let port = self
            .bulk_tables
            .direct_uplink(self.cycle_slice, rack, next_rack);
        match port.map(|u| self.up_port(u)) {
            Some(port) if !fabric.refuses(tor, port, &packet) => {
                fabric.send(ctx, tor, port, packet);
            }
            _ => {
                let dst_rack = self.rack_of(packet.dst);
                self.bulk[rack].requeue(&packet, dst_rack);
                self.counters.bulk_stragglers += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Flow injection
    // ------------------------------------------------------------------

    /// Admit every flow that is due: low-latency flows, and rack-local
    /// bulk (one hop through the ToR, no circuit involved), start on the
    /// host transport; the rest queues at its rack for a circuit.
    fn admit_due_flows(&mut self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>) {
        while let Some(spec) = self.ends.next_due(ctx) {
            let class = self.classify(spec.size);
            let (rack, dst_rack) = (self.rack_of(spec.src), self.rack_of(spec.dst));
            if class == FlowClass::LowLatency || dst_rack == rack {
                self.ends.start_flow(fabric, ctx, spec, class);
            } else {
                let flow = self.ends.register(spec, class, ctx.now());
                self.bulk_outstanding += spec.size;
                self.bulk[rack].enqueue(transport::BulkChunk {
                    flow,
                    src_host: spec.src,
                    dst_host: spec.dst,
                    dst_rack,
                    bytes: spec.size,
                });
                self.kick_feeder(ctx, rack, dst_rack);
            }
        }
    }
}

impl NetLogic for OperaLogic {
    fn on_arrive(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        node: usize,
        port: usize,
        packet: Packet,
    ) {
        if node < self.ends.hosts() {
            if let PacketKind::BulkData { .. } = packet.kind {
                self.bulk_outstanding -= packet.payload() as u64;
            }
            self.ends.on_packet(fabric, ctx, node, packet);
        } else if self.is_tor(node) {
            let rack = node - self.tor_node(0);
            if let PacketKind::Hello = packet.kind {
                // Sent over one circuit, whose two ends share the uplink
                // `up_port(j)`: the arrival port names the switch.
                self.on_hello(rack, port - self.cfg.params.hosts_per_rack);
            } else {
                self.on_tor_arrive(fabric, ctx, rack, packet);
            }
        } else if self.is_core(node) {
            // Ideal packet core: one port per rack.
            let dst_rack = self.rack_of(packet.dst);
            fabric.send(ctx, node, dst_rack, packet);
        } else {
            unreachable!("packet at unknown node {node}");
        }
    }

    fn on_timer(&mut self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>, token: u64) {
        if token == 0 {
            // Bootstrap: initial wiring happened in build; start clocks.
            ctx.schedule_in(self.cfg.timing.slice(), timer(Token::SliceBoundary));
            self.start_feeders(ctx);
            self.admit_due_flows(fabric, ctx);
            return;
        }
        match decode(token) {
            Token::FlowArrival => self.admit_due_flows(fabric, ctx),
            Token::SliceBoundary => self.on_slice_boundary(fabric, ctx),
            Token::Dark => self.on_dark(fabric, ctx),
            Token::Feeder(rack, uplink) => self.on_feeder(fabric, ctx, rack, uplink),
            Token::HelloCheck(rack, uplink) => self.on_hello_check(rack, uplink),
            host_timer => self.ends.on_timer(fabric, ctx, host_timer),
        }
    }
}

impl PacketNet for OperaLogic {
    type Config = OperaNetConfig;
    /// The next slice boundary (before it, the bootstrap timer that arms
    /// it), in all three [`RotorMode`]s. The go-dark timer is pending only
    /// for the first ε of a slice, so it is not counted: a second event
    /// pending in the last `r` is not the clock.
    const CLOCK_EVENTS: usize = 1;

    fn hosts(cfg: &OperaNetConfig) -> usize {
        cfg.hosts()
    }
    fn build(cfg: OperaNetConfig, flows: Vec<FlowSpec>) -> OperaNet {
        build(cfg, flows)
    }
    fn ends(&self) -> &Endpoints {
        &self.ends
    }
    fn ends_mut(&mut self) -> &mut Endpoints {
        &mut self.ends
    }
    /// The fabric's counters, then [`OperaCounters`], then
    /// [`OperaLogic::bulk_lost_bytes`].
    fn counters(sim: &OperaNet) -> Vec<(&'static str, u64)> {
        let (fabric, logic) = (&sim.world.fabric, &sim.world.logic);
        let lost = [("bulk_lost_bytes", logic.bulk_lost_bytes(fabric))];
        [&fabric.counters.named()[..], &logic.counters.named(), &lost].concat()
    }
}

/// Build a ready-to-run Opera/RotorNet simulation with `flows` to inject.
///
/// # Panics
/// Panics if the topology does not fit the compact tables: more than 16
/// rotor switches, more than 65 536 racks, or a slice whose shortest route
/// between two racks is 254 hops or more. The simulation panics when a
/// bulk flow enters RotorLB's compact queues if it does not fit them: a
/// bulk flow of more than `u32::MAX` bytes, or a network of more than
/// 65 536 hosts.
pub fn build(cfg: OperaNetConfig, flows: Vec<FlowSpec>) -> OperaNet {
    let topo_params = match cfg.mode {
        RotorMode::RotorHybrid => OperaParams {
            uplinks: cfg.params.uplinks - 1,
            ..cfg.params
        },
        _ => cfg.params,
    };
    // Opera needs every slice to be a connected expander (§3.3's
    // generate-and-test); RotorNet modes never route over slice graphs.
    let topo = match cfg.mode {
        RotorMode::Opera => OperaTopology::generate_validated(topo_params, cfg.seed, 64).0,
        _ => OperaTopology::generate(topo_params, cfg.seed),
    };
    let bulk_tables = BulkTables::build(&topo);
    let ll_tables = LowLatencyTables::from_circuits(&bulk_tables);
    let host_rack = (0..cfg.hosts())
        .map(|h| u16::try_from(h / cfg.params.hosts_per_rack).expect("rack index must fit u16"))
        .collect();

    let mut fabric = Fabric::new();
    let hosts_total = cfg.hosts();
    let ends = Endpoints::new(
        &mut fabric,
        hosts_total,
        cfg.transport,
        cfg.queues,
        cfg.link,
        flows,
    );
    // ToRs: d down + u rotor ports (+ 1 core port in hybrid mode).
    let tor_ports = cfg.params.hosts_per_rack
        + topo.switches()
        + usize::from(cfg.mode == RotorMode::RotorHybrid);
    for _ in 0..cfg.params.racks {
        let tor = fabric.add_node(tor_ports, cfg.queues, cfg.link);
        // The last hop takes every bulk byte its circuits bring (module
        // docs): a bulk byte dropped there would never be sent again.
        for down in 0..cfg.params.hosts_per_rack {
            fabric.set_cap(tor, down, Priority::Bulk, u64::MAX);
        }
    }
    // Hybrid packet core.
    if cfg.mode == RotorMode::RotorHybrid {
        let core = fabric.add_node(cfg.params.racks, cfg.queues, cfg.link);
        for rack in 0..cfg.params.racks {
            fabric.connect(
                hosts_total + rack,
                cfg.params.hosts_per_rack + topo.switches(),
                core,
                rack,
            );
        }
    }
    ends.wire(&mut fabric, cfg.params.hosts_per_rack);

    let logic = OperaLogic {
        ends,
        bulk: (0..cfg.params.racks)
            .map(|r| RackBulk::new(r, cfg.params.racks))
            .collect(),
        rng: SimRng::new(cfg.seed.wrapping_add(1)),
        slice: 0,
        cycle_slice: 0,
        host_rack,
        feeder_tick: cfg.link.serialize(MTU),
        feeders: vec![Feeder::default(); cfg.params.racks * topo.switches()],
        counters: OperaCounters::default(),
        bulk_outstanding: 0,
        bad_links: Vec::new(),
        hello_pending: vec![false; cfg.params.racks * topo.switches()],
        hello_enabled: true,
        cfg,
        topo,
        ll_tables,
        bulk_tables,
    };
    // Initial wiring: every switch in its slice-0 matching.
    for j in 0..logic.topo.switches() {
        let port = logic.up_port(j);
        for (a, b) in logic.topo.matching(j, logic.topo.position_at(j, 0)).pairs() {
            fabric.connect(logic.tor_node(a), port, logic.tor_node(b), port);
        }
    }
    NetWorld::new(fabric, logic).into_sim()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows_one(src: usize, dst: usize, size: u64) -> Vec<FlowSpec> {
        vec![FlowSpec {
            src,
            dst,
            size,
            start: SimTime::ZERO,
        }]
    }

    #[test]
    fn low_latency_flow_completes_quickly() {
        let cfg = OperaNetConfig::small_test();
        // hosts 0..32; host 1 (rack 0) -> host 30 (rack 7): cross-rack.
        let mut sim = build(cfg, flows_one(1, 30, 20_000));
        sim.run_until(SimTime::from_ms(5));
        let t = sim.world.logic.tracker();
        assert!(t.all_done(), "flow incomplete");
        let fct = t.get(0).fct().unwrap();
        // Multi-hop expander path at 10G: well under 100us for 20KB.
        assert!(fct < SimTime::from_us(100), "fct {fct}");
    }

    #[test]
    fn bulk_flow_waits_for_circuit_and_completes() {
        let cfg = OperaNetConfig::small_test();
        let mut sim = build(cfg, flows_one(0, 31, 2_000_000));
        sim.run_until(SimTime::from_ms(50));
        let t = sim.world.logic.tracker();
        assert!(
            t.all_done(),
            "bulk incomplete: {:?}, counters {:?}",
            t.get(0),
            sim.world.logic.counters
        );
        let fct = t.get(0).fct().unwrap();
        // 2MB at 10G ideal ≈ 1.6ms, but the pair's circuit is up ~3/32 of
        // the time... with VLB the flow finishes within a few cycles
        // (cycle = 8 slices × 10us = 80us).
        assert!(fct < SimTime::from_ms(40), "fct {fct}");
        assert!(fct > SimTime::from_ms(1), "suspiciously fast: {fct}");
    }

    #[test]
    fn rotornet_nonhybrid_short_flow_is_slow() {
        let mut cfg = OperaNetConfig::small_test();
        cfg.mode = RotorMode::RotorNonHybrid;
        let mut sim = build(cfg, flows_one(1, 30, 2_000));
        sim.run_until(SimTime::from_ms(50));
        let t = sim.world.logic.tracker();
        assert!(t.all_done());
        let slow = t.get(0).fct().unwrap();

        // The same flow on Opera goes over the expander immediately.
        let mut sim2 = build(OperaNetConfig::small_test(), flows_one(1, 30, 2_000));
        sim2.run_until(SimTime::from_ms(50));
        let fast = sim2.world.logic.tracker().get(0).fct().unwrap();
        // At test scale (80us cycle) waiting for a circuit costs tens of
        // µs vs single-digit µs over the expander; at paper scale (10.7ms
        // cycle) the same ratio is three orders of magnitude (Fig. 7c).
        assert!(
            slow.as_ns() > 5 * fast.as_ns(),
            "rotor {slow} vs opera {fast}"
        );
        assert!(
            slow > SimTime::from_us(20),
            "rotor flow beat the cycle: {slow}"
        );
    }

    #[test]
    fn hybrid_rotornet_short_flow_uses_packet_core() {
        let mut cfg = OperaNetConfig::small_test();
        // Hybrid diverts one uplink: 3 rotor switches must divide racks.
        cfg.params.racks = 24;
        cfg.mode = RotorMode::RotorHybrid;
        let mut sim = build(cfg, flows_one(1, 30, 2_000));
        sim.run_until(SimTime::from_ms(20));
        let t = sim.world.logic.tracker();
        assert!(t.all_done());
        // 3 store-and-forward hops through the core: ~10us scale.
        let fct = t.get(0).fct().unwrap();
        assert!(fct < SimTime::from_us(50), "fct {fct}");
    }

    #[test]
    fn no_packets_lost_in_quiet_network() {
        let cfg = OperaNetConfig::small_test();
        let mut sim = build(cfg, flows_one(2, 17, 100_000));
        sim.run_until(SimTime::from_ms(30));
        assert!(sim.world.logic.tracker().all_done());
        let c = &sim.world.fabric.counters;
        assert_eq!(c.dark_drops, 0, "packets fell into dark ports");
        assert_eq!(sim.world.logic.counters.hop_limit_drops, 0);
    }

    #[test]
    fn many_flows_mixed_classes_all_complete() {
        let cfg = OperaNetConfig::small_test();
        let mut rng = SimRng::new(9);
        let hosts = cfg.hosts();
        let mut flows = Vec::new();
        for i in 0..60 {
            let src = rng.index(hosts);
            let mut dst = rng.index(hosts - 1);
            if dst >= src {
                dst += 1;
            }
            let size = if i % 3 == 0 { 900_000 } else { 9_000 };
            flows.push(FlowSpec {
                src,
                dst,
                size,
                start: SimTime::from_us(rng.below(500)),
            });
        }
        let mut sim = build(cfg, flows);
        sim.run_until(SimTime::from_ms(200));
        let t = sim.world.logic.tracker();
        assert_eq!(
            t.completed(),
            t.len(),
            "{} of {} done; counters {:?}",
            t.completed(),
            t.len(),
            sim.world.logic.counters
        );
    }

    /// Bulk incast: every host of the other seven racks sends to host 0,
    /// so rack 0's four circuits deliver to one host at up to 4× its line
    /// rate. The host port's backlog goes past its 24 KB bulk queue, and
    /// every byte still arrives: nothing is dropped and every flow ends.
    #[test]
    fn bulk_incast_is_lossless_at_the_last_hop() {
        let mut cfg = OperaNetConfig::small_test();
        cfg.bulk_threshold = 0;
        let flows = (4..cfg.hosts())
            .map(|src| FlowSpec {
                src,
                dst: 0,
                size: 200_000,
                start: SimTime::ZERO,
            })
            .collect();
        let mut sim = build(cfg, flows);
        assert!(OperaLogic::run(&mut sim, SimTime::from_ms(50)));
        let logic = &sim.world.logic;
        assert!(logic.tracker().all_done());
        assert_eq!(sim.world.fabric.counters.dropped, 0);
        let cap = cfg.queues.cap_bytes[Priority::Bulk as usize];
        assert!(
            logic.counters.bulk_downlink_peak > cap,
            "peak {} never passed the {cap} B queue",
            logic.counters.bulk_downlink_peak
        );
    }

    /// RotorLB's byte books at every stop: each bulk byte it was handed
    /// is delivered, queued in a rack's RotorLB or in a packet the fabric
    /// holds. Under random loss the bytes of the bulk packets the fabric
    /// drops are the ones left unplaced, and nothing sends them again.
    #[test]
    fn bulk_lost_bytes_are_what_the_fabric_dropped() {
        let mut cfg = OperaNetConfig::small_test();
        cfg.bulk_threshold = 0;
        let hosts = cfg.hosts();
        let flows: Vec<FlowSpec> = (0..hosts)
            .map(|src| FlowSpec {
                src,
                dst: (src + 4) % hosts,
                size: 100_000,
                start: SimTime::ZERO,
            })
            .collect();
        let lost = |sim: &OperaNet| sim.world.logic.bulk_lost_bytes(&sim.world.fabric);
        let mut sim = build(cfg, flows.clone());
        for us in [50, 200, 800] {
            sim.run_until(SimTime::from_us(us));
            assert!(sim.world.fabric.parked_packets() > 0, "mid-run at {us} us");
            assert_eq!(lost(&sim), 0, "at {us} us");
        }
        assert!(OperaLogic::run(&mut sim, SimTime::from_ms(50)));
        assert_eq!(lost(&sim), 0);

        let mut sim = build(cfg, flows);
        sim.world.fabric.set_random_loss(0.01, 7);
        OperaLogic::run(&mut sim, SimTime::from_ms(50));
        let flows = sim.world.logic.tracker().flows();
        let short: u64 = flows.iter().map(|f| f.size - f.received).sum();
        assert!(sim.world.fabric.counters.failed_drops > 0);
        assert!(lost(&sim) > 0, "nothing lost under 1 % loss");
        assert_eq!(lost(&sim), short, "quiet at the horizon, so short = lost");
    }

    /// Fail `rack`'s transceiver on `uplink` at time zero, through the
    /// fabric's one link-change path.
    fn fail_uplink(sim: &mut OperaNet, rack: usize, uplink: usize) {
        let (node, port) = sim.world.logic.uplink_addr(rack, uplink);
        let change = netsim::LinkSignal::Failed(true);
        let (node, port) = (node as u32, port as u32);
        sim.schedule_at(SimTime::ZERO, NetEvent::LinkChange { node, port, change });
    }

    #[test]
    fn hello_protocol_detects_and_routes_around_failure() {
        let cfg = OperaNetConfig::small_test();
        let mut sim = build(cfg, vec![]);
        // Kill rack 2's transceiver on uplink 1 (both data and hellos it
        // transmits are lost; its partners' hello checks will trip).
        fail_uplink(&mut sim, 2, 1);
        // Within two cycles (2 x 8 slices x 10 us) detection completes.
        sim.run_until(SimTime::from_us(200));
        assert!(
            sim.world.logic.bad_links().contains(&(2, 1)),
            "failure undetected: {:?}",
            sim.world.logic.bad_links()
        );
        // The live circuit rows were rebuilt with the tables: no feeder
        // will be armed on the bad transceiver's circuits (which a healthy
        // network does have).
        let uses_bad = |logic: &OperaLogic| {
            let cycle = logic.topo.slices_per_cycle();
            (0..cycle * logic.cfg.params.racks).any(|i| {
                let (s, cur) = (i / logic.cfg.params.racks, i % logic.cfg.params.racks);
                logic
                    .bulk_tables
                    .circuits_of(s, cur)
                    .iter()
                    .any(|&(dst, u)| u == 1 && (cur == 2 || dst == 2))
            })
        };
        assert!(!uses_bad(&sim.world.logic));
        assert!(uses_bad(&build(cfg, vec![]).world.logic));
        // Both live tables are what a fresh build around the same bad set
        // gives.
        let logic = &sim.world.logic;
        assert_eq!(
            logic.ll_tables,
            LowLatencyTables::build_with_failures(&logic.topo, logic.bad_links())
        );
        assert_eq!(
            logic.bulk_tables,
            BulkTables::build_with_failures(&logic.topo, logic.bad_links())
        );
        // The network still delivers traffic from/to rack 2.
        drop(sim);
        let mut sim = build(
            OperaNetConfig::small_test(),
            vec![FlowSpec {
                src: 8, // host in rack 2
                dst: 30,
                size: 50_000,
                start: SimTime::from_us(200),
            }],
        );
        fail_uplink(&mut sim, 2, 1);
        sim.run_until(SimTime::from_ms(10));
        assert!(
            sim.world.logic.tracker().all_done(),
            "flow stuck after failure: {:?}",
            sim.world.logic.tracker().get(0)
        );
    }

    #[test]
    fn no_false_positives_without_failures() {
        let cfg = OperaNetConfig::small_test();
        let mut sim = build(cfg, vec![]);
        sim.run_until(SimTime::from_ms(2));
        assert!(sim.world.logic.bad_links().is_empty());
        assert_eq!(sim.world.logic.counters.links_marked_bad, 0);
    }

    /// Topology generation tries `seed`, `seed + 1`, … and routing draws
    /// from `seed + 1`: both wrap instead of overflowing.
    #[test]
    fn seed_at_u64_max_builds() {
        let cfg = OperaNetConfig {
            seed: u64::MAX,
            ..OperaNetConfig::small_test()
        };
        let mut sim = build(cfg, flows_one(1, 30, 20_000));
        sim.run_until(SimTime::from_ms(5));
        assert!(sim.world.logic.tracker().all_done());
    }

    #[test]
    fn slice_clock_advances() {
        let cfg = OperaNetConfig::small_test();
        let mut sim = build(cfg, vec![]);
        sim.run_until(SimTime::from_us(105));
        // 10us slices: after 105us we should be in slice 10.
        assert_eq!(sim.world.logic.slice, 10);
    }
}
