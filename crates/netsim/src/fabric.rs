//! Nodes, ports, priority queues, links, and wiring.
//!
//! Every node (host NIC or switch) owns a set of output ports. A port has
//! one strict-priority queue per [`Priority`] level, a link specification
//! (rate + propagation delay), and one [`LinkState`]: wired to a peer (the
//! `(node, port)` at the other end of the cable) or dark, failed or not,
//! paused or not. [`Fabric::connect`] wires ports at build time; after that
//! [`Fabric::set_link`] is the one way a link state changes: a rotor circuit
//! rewiring or going dark (a rotor switch is not a simulated node, it is a
//! time-varying wiring of ToR uplink ports), a PFC frame, or a transceiver
//! failing or healing, the last two as a [`NetEvent::LinkChange`].
//!
//! Transmission is store-and-forward: dequeuing a packet occupies the port
//! for `size/rate` (serialization), and the packet arrives at the peer
//! after serialization + propagation. Packets dequeued mid-slice keep the
//! peer captured at dequeue time, so an in-flight packet is unaffected by a
//! later rewire — matching the physical behavior the guard bands of §3.5
//! protect.
//!
//! A packet is written once, into the [`PacketArena`] by [`Fabric::send`],
//! and read once, by [`Fabric::deliver`] when its [`NetEvent::Arrive`]
//! fires; queues and events carry its 4-byte [`PacketRef`] in between, and
//! a packet lost on the wire frees its slot at transmission.
//! [`Fabric::ledger`] accounts for every packet written.
//!
//! What happens when a packet meets a full (or filling) queue is the
//! port's [`SwitchPolicyKind`] — trim, drop, mark, or pause upstream; see
//! [`crate::policy`].

use crate::packet::{Packet, PacketArena, PacketRef, Priority, HEADER_SIZE, MTU, PRIORITY_LEVELS};
use crate::policy::{SwitchPolicyKind, Verdict};
use crate::trace::{PacketMeta, TraceEvent, TraceRecord, TraceSink};
use simkit::engine::EventContext;
use simkit::time::serialization_ns;
use simkit::SimTime;
use std::collections::VecDeque;

/// Node index within a fabric.
pub type NodeId = usize;
/// Port index within a node.
pub type PortId = usize;

/// Per-port queue capacities and queueing policy.
///
/// Built with [`QueueConfig::builder`]; the default matches the paper's
/// Opera configuration — 12 KB data queues with an equal-sized header
/// queue (§4.2.1) and NDP trimming.
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// Capacity in bytes for each priority level's queue.
    pub cap_bytes: [u64; PRIORITY_LEVELS],
    /// The queueing decision at this port (trim / drop / mark / pause).
    pub policy: SwitchPolicyKind,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig::builder().build()
    }
}

impl QueueConfig {
    /// Start from the paper's defaults: 12 KB header queue, 12 KB
    /// low-latency data queue (8 full packets), 24 KB bulk staging queue,
    /// NDP trimming.
    pub fn builder() -> QueueConfigBuilder {
        QueueConfigBuilder {
            cfg: QueueConfig {
                cap_bytes: [12_000, 12_000, 24_000],
                policy: SwitchPolicyKind::default(),
            },
        }
    }
}

/// Builder for [`QueueConfig`] — capacities compose with a
/// [`SwitchPolicyKind`].
#[derive(Debug, Clone, Copy)]
pub struct QueueConfigBuilder {
    cfg: QueueConfig,
}

impl QueueConfigBuilder {
    /// Set all three per-priority capacities, bytes.
    pub fn caps(mut self, cap_bytes: [u64; PRIORITY_LEVELS]) -> Self {
        self.cfg.cap_bytes = cap_bytes;
        self
    }

    /// Effectively unbounded lossless queues (host NIC staging,
    /// debugging): every capacity maxed, plain drop-tail (which can then
    /// never fire).
    pub fn unbounded(mut self) -> Self {
        self.cfg.cap_bytes = [u64::MAX; PRIORITY_LEVELS];
        self.cfg.policy = SwitchPolicyKind::DropTail(crate::policy::DropTail);
        self
    }

    /// Select the queueing policy.
    pub fn policy(mut self, policy: impl Into<SwitchPolicyKind>) -> Self {
        self.cfg.policy = policy.into();
        self
    }

    /// Finish the config.
    pub fn build(self) -> QueueConfig {
        self.cfg
    }
}

/// Link properties of a port.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Line rate in Gb/s.
    pub gbps: f64,
    /// One-way propagation delay.
    pub delay: SimTime,
}

impl LinkSpec {
    /// The paper's defaults: 10 Gb/s, 500 ns (≈100 m fiber).
    pub fn paper_default() -> Self {
        LinkSpec {
            gbps: 10.0,
            delay: SimTime::from_ns(500),
        }
    }

    /// Serialization time of `bytes` on this link.
    pub fn serialize(&self, bytes: u32) -> SimTime {
        SimTime::from_ns(serialization_ns(bytes as u64, self.gbps))
    }
}

/// A port's link: wired to a peer or dark, failed or not, paused or not.
/// Whether the transmitter is busy, and whether the port's own queues are
/// pausing its upstream peers, are the port's, not the link's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkState {
    /// The `(node, port)` at the other end of the cable; `None` while dark.
    /// A dark port still transmits, and loses what it sends.
    pub peer: Option<(NodeId, PortId)>,
    /// The transceiver is broken: what the port sends is lost (§5.5).
    pub failed: bool,
    /// A downstream peer sent a PFC pause frame: no dequeues until resume.
    pub paused: bool,
}

/// A change to one port's [`LinkState`], made by [`Fabric::set_link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkChange {
    /// Wire the port to `(node, port)`, unplugging both from earlier peers
    /// (circuit reconfiguration). Clears every pause it touches and restarts
    /// both ends, so a port left idle with packets queued sends again.
    Wire(NodeId, PortId),
    /// Unplug the port and its peer (a circuit going dark), clearing both
    /// ends' pauses. Neither end restarts.
    Dark,
    /// A change an event can carry.
    Signal(LinkSignal),
}

/// The [`LinkChange`]s a [`NetEvent::LinkChange`] carries: those that name
/// no peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSignal {
    /// A PFC pause (`true`) or resume frame: traced, and the port restarts.
    Paused(bool),
    /// The transceiver fails (`true`) or is repaired; nothing restarts.
    Failed(bool),
}

#[derive(Debug)]
struct Port {
    /// Slab handles into [`Fabric::arena`]; the packet bodies stay put
    /// until delivery, so queue churn moves 4-byte refs.
    queues: [VecDeque<PacketRef>; PRIORITY_LEVELS],
    queued_bytes: [u64; PRIORITY_LEVELS],
    cfg: QueueConfig,
    link: LinkSpec,
    /// `link.serialize` of the two sizes nearly every packet has.
    ser_mtu: SimTime,
    ser_header: SimTime,
    state: LinkState,
    busy: bool,
    /// This port's queues crossed its policy's pause threshold and count
    /// toward the owning node's congested-port total.
    congesting: bool,
}

impl Port {
    fn new(cfg: QueueConfig, link: LinkSpec) -> Self {
        Port {
            queues: Default::default(),
            queued_bytes: [0; PRIORITY_LEVELS],
            cfg,
            link,
            ser_mtu: link.serialize(MTU),
            ser_header: link.serialize(HEADER_SIZE),
            state: LinkState::default(),
            busy: false,
            congesting: false,
        }
    }

    fn total_queued(&self) -> u64 {
        self.queued_bytes.iter().sum()
    }

    /// [`LinkSpec::serialize`] on this port's link, bit for bit.
    #[inline]
    fn serialize(&self, bytes: u32) -> SimTime {
        match bytes {
            MTU => self.ser_mtu,
            HEADER_SIZE => self.ser_header,
            _ => self.link.serialize(bytes),
        }
    }
}

/// Aggregate event counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricCounters {
    /// Packets enqueued successfully.
    pub queued: u64,
    /// Low-latency data packets trimmed to headers.
    pub trimmed: u64,
    /// Packets dropped at full queues.
    pub dropped: u64,
    /// Packets transmitted into an unconnected ("dark") port and lost.
    pub dark_drops: u64,
    /// Packets lost on failed links.
    pub failed_drops: u64,
    /// Packets fully delivered to a peer node.
    pub delivered: u64,
    /// Data packets ECN-marked at enqueue ([`crate::policy::EcnMark`]).
    pub ecn_marked: u64,
    /// PFC pause frames sent to upstream peers ([`crate::policy::Pfc`]).
    pub pause_frames: u64,
}

impl FabricCounters {
    /// Every counter with its field name, in declaration order.
    pub fn named(&self) -> [(&'static str, u64); 8] {
        let FabricCounters {
            queued,
            trimmed,
            dropped,
            dark_drops,
            failed_drops,
            delivered,
            ecn_marked,
            pause_frames,
        } = *self;
        [
            ("queued", queued),
            ("trimmed", trimmed),
            ("dropped", dropped),
            ("dark_drops", dark_drops),
            ("failed_drops", failed_drops),
            ("delivered", delivered),
            ("ecn_marked", ecn_marked),
            ("pause_frames", pause_frames),
        ]
    }
}

/// Events routed through the simulator for the fabric/logic pair.
///
/// Sixteen bytes: node and port ids travel as `u32` (the fabric refuses
/// to grow past that) and an arriving packet as its [`PacketRef`].
#[derive(Debug, Clone, Copy)]
pub enum NetEvent {
    /// Packet fully received at `node` via its `port`.
    Arrive {
        /// Receiving node.
        node: u32,
        /// Ingress port at the receiving node.
        port: u32,
        /// The packet, parked in the fabric until [`Fabric::deliver`]
        /// takes it out.
        packet: PacketRef,
    },
    /// `node`'s `port` finished serializing; it may start the next packet.
    PortFree {
        /// Transmitting node.
        node: u32,
        /// The now-idle port.
        port: u32,
    },
    /// A change to `node`'s `port`'s link: a PFC frame from its downstream
    /// peer (out-of-band, so it cannot be stuck behind the very queues it
    /// exists to relieve), or a scheduled fault. Handled by
    /// [`Fabric::set_link`].
    LinkChange {
        /// Node whose port changes.
        node: u32,
        /// The changing port.
        port: u32,
        /// What changes.
        change: LinkSignal,
    },
    /// Logic-defined timer.
    Timer {
        /// Opaque token chosen by the logic when scheduling.
        token: u64,
    },
}

/// The network fabric: all nodes, ports, and wiring.
#[derive(Debug, Default)]
pub struct Fabric {
    nodes: Vec<Vec<Port>>,
    /// Per-node count of ports currently above their pause threshold;
    /// pause frames go out on 0→1, resumes on 1→0.
    congested: Vec<u32>,
    /// Slab backing every queued and in-flight packet; slots recycle
    /// through a free list, so steady-state forwarding allocates nothing
    /// per packet.
    arena: PacketArena,
    /// Packets sitting in port queues now, and the most there ever were.
    queued_now: usize,
    queued_peak: usize,
    /// Packets [`Fabric::drain`] handed back.
    drained: u64,
    /// Aggregate counters.
    pub counters: FabricCounters,
    /// Random per-packet loss: `(probability, rng)`. Applied to every
    /// transmission, modeling transient physical-layer corruption.
    loss: Option<(f64, simkit::SimRng)>,
    /// Opt-in event trace ([`crate::trace`]). `None` (the default) keeps
    /// every hot-path hook a single branch; tracing is pure observation
    /// and never changes simulation behavior.
    trace: Option<Box<dyn TraceSink>>,
}

impl Fabric {
    /// An empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with `ports` identical ports; returns its id.
    pub fn add_node(&mut self, ports: usize, cfg: QueueConfig, link: LinkSpec) -> NodeId {
        let id = self.nodes.len();
        assert!(
            u32::try_from(id.max(ports)).is_ok(),
            "node and port ids must fit NetEvent's u32 fields"
        );
        self.nodes
            .push((0..ports).map(|_| Port::new(cfg, link)).collect());
        self.congested.push(0);
        id
    }

    /// Connect `a.pa ↔ b.pb` (both directions) at build time. Panics if
    /// either port is already wired — a run rewires with [`Fabric::set_link`].
    pub fn connect(&mut self, a: NodeId, pa: PortId, b: NodeId, pb: PortId) {
        for (n, p, peer) in [(a, pa, (b, pb)), (b, pb, (a, pa))] {
            let state = &mut self.nodes[n][p].state;
            assert!(state.peer.is_none(), "port {n}.{p} wired");
            // A pause frame from a previous wiring no longer binds.
            (state.peer, state.paused) = (Some(peer), false);
        }
    }

    /// Change `node.port`'s [`LinkState`], the one way it changes after
    /// build; [`LinkChange`] and [`LinkSignal`] give the side effects.
    pub fn set_link(
        &mut self,
        ctx: &mut EventContext<'_, NetEvent>,
        node: NodeId,
        port: PortId,
        change: LinkChange,
    ) {
        let state = &mut self.nodes[node][port].state;
        match change {
            LinkChange::Wire(b, pb) => {
                self.unplug(node, port);
                self.unplug(b, pb);
                self.connect(node, port, b, pb);
                self.restart(ctx, node, port);
                self.restart(ctx, b, pb);
            }
            LinkChange::Dark => self.unplug(node, port),
            LinkChange::Signal(LinkSignal::Failed(failed)) => state.failed = failed,
            LinkChange::Signal(LinkSignal::Paused(paused)) => {
                state.paused = paused;
                let ev = [TraceEvent::Resume, TraceEvent::Pause][usize::from(paused)];
                self.trace_event(ctx.now(), node, port, ev, None);
                self.restart(ctx, node, port);
            }
        }
    }

    /// Unplug `node.port` and its peer, if any, clearing both ends' pauses.
    fn unplug(&mut self, node: NodeId, port: PortId) {
        let state = &mut self.nodes[node][port].state;
        state.paused = false;
        if let Some((b, pb)) = state.peer.take() {
            let far = &mut self.nodes[b][pb].state;
            (far.peer, far.paused) = (None, false);
        }
    }

    /// A port's link state.
    pub fn link(&self, node: NodeId, port: PortId) -> LinkState {
        self.nodes[node][port].state
    }

    /// Set one priority level's capacity at one port, bytes, overriding
    /// the [`QueueConfig`] the port's node was added with.
    pub fn set_cap(&mut self, node: NodeId, port: PortId, prio: Priority, bytes: u64) {
        self.nodes[node][port].cfg.cap_bytes[prio as usize] = bytes;
    }

    /// Enable uniform random packet loss with probability `p` on every
    /// transmission (transient corruption; end-to-end recovery is the
    /// transports' job). `p = 0` disables.
    pub fn set_random_loss(&mut self, p: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&p));
        self.loss = (p > 0.0).then(|| (p, simkit::SimRng::new(seed)));
    }

    /// Install an event trace sink ([`crate::trace`]). Tracing is pure
    /// observation: simulation behavior and all outputs are identical
    /// with or without a sink installed.
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// True while a trace sink is installed.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Remove and return the trace sink (call its
    /// [`TraceSink::finish`] to flush).
    pub fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Record an event against link `(node, port)` at `now`. No-op
    /// without a sink. Used internally by the fabric hot paths and by
    /// transports for host-level events (ACK receipt, timer firings)
    /// that the fabric cannot see itself.
    #[inline]
    pub fn trace_event(
        &mut self,
        now: SimTime,
        node: NodeId,
        port: PortId,
        event: TraceEvent,
        packet: Option<&Packet>,
    ) {
        if let Some(sink) = &mut self.trace {
            sink.record(&TraceRecord {
                t_ns: now.as_ns(),
                node,
                port,
                event,
                packet: packet.map(PacketMeta::of),
            });
        }
    }

    /// Bytes queued at a port across all priorities.
    pub fn queued_bytes(&self, node: NodeId, port: PortId) -> u64 {
        self.nodes[node][port].total_queued()
    }

    /// Bytes queued at one priority level.
    pub fn queued_bytes_at(&self, node: NodeId, port: PortId, prio: Priority) -> u64 {
        self.nodes[node][port].queued_bytes[prio as usize]
    }

    /// Whether `node.port`'s policy would drop `packet` now ([`Verdict::Drop`]),
    /// asked without side effects: a sender that can keep the packet asks
    /// before it [`send`](Self::send)s.
    pub fn refuses(&self, node: NodeId, port: PortId, packet: &Packet) -> bool {
        let p = &self.nodes[node][port];
        p.cfg
            .policy
            .admit(&p.queued_bytes, &p.cfg.cap_bytes, packet)
            == Verdict::Drop
    }

    /// Enqueue `packet` for transmission out of `node.port`, starting
    /// transmission immediately if the port is idle and unpaused. The
    /// port's [`SwitchPolicyKind`] decides the
    /// packet's fate (enqueue / mark / trim / drop) and whether upstream
    /// peers must be paused. A dropped packet has left the network: a
    /// sender that would keep it asks [`refuses`](Self::refuses) first.
    pub fn send(
        &mut self,
        ctx: &mut EventContext<'_, NetEvent>,
        node: NodeId,
        port: PortId,
        packet: Packet,
    ) {
        let p = &self.nodes[node][port];
        let (queued, caps) = (&p.queued_bytes, &p.cfg.cap_bytes);
        let (packet, ev) = match p.cfg.policy.admit(queued, caps, &packet) {
            Verdict::Enqueue => (packet, TraceEvent::Enqueue),
            Verdict::Mark => {
                let mut marked = packet;
                marked.ecn_ce = true;
                self.counters.ecn_marked += 1;
                (marked, TraceEvent::Mark)
            }
            Verdict::Trim => (packet.trim(), TraceEvent::Trim),
            Verdict::Drop => {
                self.counters.dropped += 1;
                self.trace_event(ctx.now(), node, port, TraceEvent::Drop, Some(&packet));
                return;
            }
        };
        self.trace_event(ctx.now(), node, port, ev, Some(&packet));

        let lvl = packet.prio as usize;
        let size = packet.size as u64;
        let r = self.arena.alloc(packet);
        self.queued_now += 1;
        self.queued_peak = self.queued_peak.max(self.queued_now);
        let p = &mut self.nodes[node][port];
        p.queues[lvl].push_back(r);
        p.queued_bytes[lvl] += size;
        let idle = !p.busy && !p.state.paused;
        match ev {
            TraceEvent::Trim => self.counters.trimmed += 1,
            _ => self.counters.queued += 1,
        }
        if idle {
            self.start_tx(ctx, node, port);
        }
        self.check_pause(ctx, node, port);
    }

    /// Dequeue the highest-priority packet, if any, and put it on the wire:
    /// its arena slot rides the [`NetEvent::Arrive`] to the peer, or is
    /// freed here when the wire loses the packet.
    fn start_tx(&mut self, ctx: &mut EventContext<'_, NetEvent>, node: NodeId, port: PortId) {
        let Fabric {
            nodes,
            arena,
            loss,
            trace,
            counters,
            ..
        } = self;
        let p = &mut nodes[node][port];
        debug_assert!(!p.busy && !p.state.paused);
        let Some(lvl) = (0..PRIORITY_LEVELS).find(|&l| !p.queues[l].is_empty()) else {
            return;
        };
        let r = p.queues[lvl].pop_front().expect("non-empty");
        let packet = arena.get(r);
        if let Some(sink) = trace {
            sink.record(&TraceRecord {
                t_ns: ctx.now().as_ns(),
                node,
                port,
                event: TraceEvent::Tx,
                packet: Some(PacketMeta::of(packet)),
            });
        }
        p.queued_bytes[lvl] -= packet.size as u64;
        p.busy = true;
        let ser = p.serialize(packet.size);
        let free = NetEvent::PortFree {
            node: node as u32,
            port: port as u32,
        };
        ctx.schedule_in(ser, free);
        let corrupted = loss.as_mut().is_some_and(|(p, rng)| rng.chance(*p));
        match p.state.peer {
            Some((pn, pp)) if !corrupted && !p.state.failed => {
                counters.delivered += 1;
                let arrive = NetEvent::Arrive {
                    node: pn as u32,
                    port: pp as u32,
                    packet: r,
                };
                ctx.schedule_in(ser + p.link.delay, arrive);
            }
            peer => {
                arena.take(r);
                match peer {
                    Some(_) => counters.failed_drops += 1,
                    None => counters.dark_drops += 1,
                }
            }
        }
        self.queued_now -= 1;
        self.check_resume(ctx, node, port);
    }

    /// Take delivery of the packet behind a [`NetEvent::Arrive`], freeing
    /// its arena slot. Every `Arrive` must be delivered exactly once.
    #[inline]
    pub fn deliver(&mut self, packet: PacketRef) -> Packet {
        self.arena.take(packet)
    }

    /// Handle a [`NetEvent::PortFree`] (ids as the event carries them):
    /// mark idle and continue draining.
    pub fn on_port_free(&mut self, ctx: &mut EventContext<'_, NetEvent>, node: u32, port: u32) {
        let (node, port) = (node as usize, port as usize);
        let p = &mut self.nodes[node][port];
        debug_assert!(p.busy);
        p.busy = false;
        if !p.state.paused {
            self.start_tx(ctx, node, port);
        }
    }

    /// Start `node.port`'s next transmission if the port is idle and
    /// unpaused (a no-op when nothing is queued): after a resume or a rewire.
    fn restart(&mut self, ctx: &mut EventContext<'_, NetEvent>, node: NodeId, port: PortId) {
        let p = &self.nodes[node][port];
        if !p.busy && !p.state.paused {
            self.start_tx(ctx, node, port);
        }
    }

    /// After an enqueue: latch the port as congesting when its policy asks
    /// to pause, and pause every upstream peer of the node on the first
    /// congested port (frames arrive after one propagation delay).
    fn check_pause(&mut self, ctx: &mut EventContext<'_, NetEvent>, node: NodeId, port: PortId) {
        let p = &self.nodes[node][port];
        if p.congesting || !p.cfg.policy.should_pause(&p.queued_bytes) {
            return;
        }
        self.nodes[node][port].congesting = true;
        self.congested[node] += 1;
        if self.congested[node] == 1 {
            self.signal_peers(ctx, node, true);
        }
    }

    /// After a dequeue: un-latch a congesting port once its policy allows
    /// resumption, and resume upstream peers when the node's last
    /// congested port clears.
    fn check_resume(&mut self, ctx: &mut EventContext<'_, NetEvent>, node: NodeId, port: PortId) {
        let p = &self.nodes[node][port];
        if !p.congesting || !p.cfg.policy.should_resume(&p.queued_bytes) {
            return;
        }
        self.nodes[node][port].congesting = false;
        self.congested[node] -= 1;
        if self.congested[node] == 0 {
            self.signal_peers(ctx, node, false);
        }
    }

    /// Send a pause (or resume) frame to the peer of every wired port of
    /// `node`.
    fn signal_peers(&mut self, ctx: &mut EventContext<'_, NetEvent>, node: NodeId, paused: bool) {
        let change = LinkSignal::Paused(paused);
        for q in &self.nodes[node] {
            if let Some((pn, pp)) = q.state.peer {
                if paused {
                    self.counters.pause_frames += 1;
                }
                let (node, port) = (pn as u32, pp as u32);
                ctx.schedule_in(q.link.delay, NetEvent::LinkChange { node, port, change });
            }
        }
    }

    /// Take every packet queued at `node.port` at priority `prio` out of
    /// the fabric, in FIFO order, and hand them back to the logic: bulk to
    /// RotorLB's NACK path when its transmission window closes (§4.2.2),
    /// low-latency and control packets for a fresh lookup when their
    /// circuit goes dark (§3.5). A packet already on the wire stays. A
    /// pausing port whose queues fall below its resume threshold resumes
    /// its upstream peers, as after a dequeue.
    pub fn drain(
        &mut self,
        ctx: &mut EventContext<'_, NetEvent>,
        node: NodeId,
        port: PortId,
        prio: Priority,
    ) -> Vec<Packet> {
        let Fabric { nodes, arena, .. } = self;
        let p = &mut nodes[node][port];
        let lvl = prio as usize;
        p.queued_bytes[lvl] = 0;
        self.queued_now -= p.queues[lvl].len();
        self.drained += p.queues[lvl].len() as u64;
        let packets = p.queues[lvl].drain(..).map(|r| arena.take(r)).collect();
        self.check_resume(ctx, node, port);
        packets
    }

    /// High-water mark of simultaneously queued packets across the whole
    /// fabric (in-flight packets, though still parked in the arena, do
    /// not count).
    pub fn arena_peak_live(&self) -> usize {
        self.queued_peak
    }

    /// Packets parked in the arena now: queued at a port or in flight
    /// toward a pending [`NetEvent::Arrive`]. Zero once a run has drained.
    pub fn parked_packets(&self) -> usize {
        self.arena.live()
    }

    /// The packet ledger: every packet written into the arena was delivered
    /// (counted at transmission, so in flight too), lost dark or failed,
    /// drained back to the logic, or is still queued.
    pub fn ledger(&self) -> Result<(), Imbalance> {
        let c = &self.counters;
        let gone = [c.delivered, c.dark_drops, c.failed_drops, self.drained];
        let counted = gone.iter().sum::<u64>() + self.queued_now as u64;
        let written = self.arena.allocated();
        (counted == written)
            .then_some(())
            .ok_or(Imbalance { written, counted })
    }
}

/// Packets [`Fabric::ledger`] cannot account for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Imbalance {
    /// Packets written into the arena.
    pub written: u64,
    /// Delivered, lost dark or failed, drained, and still queued.
    pub counted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketKind, HEADER_SIZE, MTU};
    use crate::policy::{DropTail, EcnMark, Pfc};
    use simkit::engine::{EventHandler, Simulator};

    /// World capturing arrivals for fabric unit tests.
    struct TestWorld {
        fabric: Fabric,
        arrivals: Vec<(u64, NodeId, Packet)>,
    }

    impl EventHandler for TestWorld {
        type Event = NetEvent;
        fn handle_event(&mut self, ev: NetEvent, ctx: &mut EventContext<'_, NetEvent>) {
            match ev {
                NetEvent::Arrive { node, packet, .. } => {
                    let packet = self.fabric.deliver(packet);
                    self.arrivals
                        .push((ctx.now().as_ns(), node as usize, packet));
                }
                NetEvent::PortFree { node, port } => {
                    self.fabric.on_port_free(ctx, node, port);
                }
                NetEvent::LinkChange { node, port, change } => {
                    let (node, port) = (node as usize, port as usize);
                    let change = LinkChange::Signal(change);
                    self.fabric.set_link(ctx, node, port, change);
                }
                NetEvent::Timer { .. } => {}
            }
        }
    }

    fn two_nodes(cfg: QueueConfig) -> TestWorld {
        let mut fabric = Fabric::new();
        let a = fabric.add_node(1, cfg, LinkSpec::paper_default());
        let b = fabric.add_node(1, cfg, LinkSpec::paper_default());
        fabric.connect(a, 0, b, 0);
        TestWorld {
            fabric,
            arrivals: vec![],
        }
    }

    /// An event is 16 bytes, so an engine node carrying one is 32.
    #[test]
    fn net_event_size_is_pinned() {
        assert!(std::mem::size_of::<NetEvent>() <= 16);
        assert!(std::mem::align_of::<NetEvent>() <= 8);
    }

    #[test]
    fn single_packet_timing() {
        let sim = run_burst(
            QueueConfig::builder().build(),
            vec![Packet::data(0, 0, 1, 0, MTU)],
        );
        let arr = &sim.world.inner.arrivals;
        assert_eq!(arr.len(), 1);
        // 1500B @ 10G = 1200ns ser + 500ns prop = 1700ns.
        assert_eq!(arr[0].0, 1700);
        assert_eq!(arr[0].1, 1);
        assert_eq!(sim.world.inner.fabric.counters.queued, 1);
        assert_eq!(sim.world.inner.fabric.counters.delivered, 1);
    }

    // Shared world that sends the next `per_tick` packets of a burst out
    // of node 0 on every timer.
    struct BurstWorld {
        inner: TestWorld,
        burst: Vec<Packet>,
        per_tick: usize,
    }
    impl EventHandler for BurstWorld {
        type Event = NetEvent;
        fn handle_event(&mut self, ev: NetEvent, ctx: &mut EventContext<'_, NetEvent>) {
            if let NetEvent::Timer { .. } = ev {
                let n = self.per_tick.min(self.burst.len());
                for pkt in self.burst.drain(..n) {
                    self.inner.fabric.send(ctx, 0, 0, pkt);
                }
            } else {
                self.inner.handle_event(ev, ctx);
            }
        }
    }

    fn run_burst(cfg: QueueConfig, burst: Vec<Packet>) -> Simulator<BurstWorld> {
        let mut sim = Simulator::new(BurstWorld {
            inner: two_nodes(cfg),
            burst,
            per_tick: usize::MAX,
        });
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: 0 });
        sim.run();
        sim
    }

    #[test]
    fn priority_queue_orders_control_first() {
        let burst = vec![
            Packet::data(0, 0, 1, 0, MTU),
            Packet::data(0, 0, 1, 1, MTU),
            Packet::control(0, 0, 1, PacketKind::Pull { count: 1 }),
        ];
        let sim = run_burst(QueueConfig::builder().build(), burst);
        let kinds: Vec<PacketKind> = sim
            .world
            .inner
            .arrivals
            .iter()
            .map(|&(_, _, p)| p.kind)
            .collect();
        // First data packet was already serializing when the pull arrived;
        // the pull then jumps the second data packet.
        assert!(matches!(kinds[0], PacketKind::Data { seq: 0, .. }));
        assert!(matches!(kinds[1], PacketKind::Pull { .. }));
        assert!(matches!(kinds[2], PacketKind::Data { seq: 1, .. }));
    }

    #[test]
    fn trimming_when_data_queue_full() {
        // Queue capacity: 8 full packets (12KB). Send 1 (serializing) + 8
        // (queued) + 1 (trimmed).
        let burst: Vec<Packet> = (0..10).map(|s| Packet::data(0, 0, 1, s, MTU)).collect();
        let sim = run_burst(QueueConfig::builder().build(), burst);
        let arr = &sim.world.inner.arrivals;
        assert_eq!(arr.len(), 10);
        let trimmed: Vec<u32> = arr
            .iter()
            .filter(|&&(_, _, p)| p.is_trimmed())
            .map(|&(_, _, p)| match p.kind {
                PacketKind::Data { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(trimmed, vec![9]);
        assert_eq!(sim.world.inner.fabric.counters.trimmed, 1);
        // The trimmed header overtakes the queued full packets.
        let order: Vec<bool> = arr.iter().map(|&(_, _, p)| p.is_trimmed()).collect();
        assert!(order[1], "header should arrive right after first data");
    }

    #[test]
    fn drop_when_no_trim() {
        let cfg = QueueConfig::builder()
            .caps([HEADER_SIZE as u64, MTU as u64, 0])
            .policy(DropTail)
            .build();
        let burst: Vec<Packet> = (0..3).map(|s| Packet::data(0, 0, 1, s, MTU)).collect();
        let sim = run_burst(cfg, burst);
        // 1 serializing + 1 queued + 1 dropped.
        assert_eq!(sim.world.inner.arrivals.len(), 2);
        assert_eq!(sim.world.inner.fabric.counters.dropped, 1);
    }

    #[test]
    fn ecn_marks_standing_queue() {
        // Mark threshold of one MTU: the first packet goes out unmarked
        // (nothing standing), the second enqueues onto <1 MTU (the first
        // is serializing, queue empty again), later ones onto >=1 MTU.
        let cfg = QueueConfig::builder()
            .caps([12_000, 12_000, 24_000])
            .policy(EcnMark {
                mark_bytes: MTU as u64,
            })
            .build();
        let burst: Vec<Packet> = (0..4).map(|s| Packet::data(0, 0, 1, s, MTU)).collect();
        let sim = run_burst(cfg, burst);
        let marks: Vec<bool> = sim
            .world
            .inner
            .arrivals
            .iter()
            .map(|&(_, _, p)| p.ecn_ce)
            .collect();
        assert_eq!(marks, vec![false, false, true, true]);
        assert_eq!(sim.world.inner.fabric.counters.ecn_marked, 2);
        assert_eq!(sim.world.inner.fabric.counters.dropped, 0);
    }

    #[test]
    fn pfc_pauses_and_resumes_upstream() {
        // Host 0 → switch 1 → sink 2, with a slow egress link at the
        // switch so its queue builds. PFC must pause the host before the
        // switch queue grows past pause_bytes + in-flight headroom, drop
        // nothing, and deliver everything after resumes.
        let pfc = QueueConfig::builder()
            .caps([12_000, 12_000, 24_000])
            .policy(Pfc {
                pause_bytes: 6_000,
                resume_bytes: 3_000,
            })
            .build();
        let mut fabric = Fabric::new();
        let host = fabric.add_node(1, pfc, LinkSpec::paper_default());
        let sw = fabric.add_node(
            2,
            pfc,
            LinkSpec {
                gbps: 1.0, // 10x slower egress: congestion by construction
                delay: SimTime::from_ns(500),
            },
        );
        let sink = fabric.add_node(1, pfc, LinkSpec::paper_default());
        fabric.connect(host, 0, sw, 0);
        fabric.connect(sw, 1, sink, 0);

        struct PfcWorld {
            fabric: Fabric,
            arrivals: usize,
            host_paused_seen: bool,
        }
        impl EventHandler for PfcWorld {
            type Event = NetEvent;
            fn handle_event(&mut self, ev: NetEvent, ctx: &mut EventContext<'_, NetEvent>) {
                match ev {
                    NetEvent::Timer { .. } => {
                        for s in 0..40 {
                            self.fabric.send(ctx, 0, 0, Packet::data(0, 0, 2, s, MTU));
                        }
                    }
                    NetEvent::Arrive { node, packet, .. } => {
                        let packet = self.fabric.deliver(packet);
                        if node == 1 {
                            // Switch: forward to the sink out the slow port.
                            self.fabric.send(ctx, 1, 1, packet);
                        } else {
                            self.arrivals += 1;
                        }
                    }
                    NetEvent::PortFree { node, port } => {
                        self.fabric.on_port_free(ctx, node, port);
                        if self.fabric.link(0, 0).paused {
                            self.host_paused_seen = true;
                        }
                    }
                    NetEvent::LinkChange { node, port, change } => {
                        let (node, port) = (node as usize, port as usize);
                        let change = LinkChange::Signal(change);
                        self.fabric.set_link(ctx, node, port, change);
                    }
                }
            }
        }
        let mut sim = Simulator::new(PfcWorld {
            fabric,
            arrivals: 0,
            host_paused_seen: false,
        });
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: 0 });
        sim.run();
        let w = &sim.world;
        assert_eq!(w.arrivals, 40, "lossless: every packet delivered");
        assert_eq!(w.fabric.counters.dropped, 0);
        assert_eq!(w.fabric.counters.trimmed, 0);
        assert!(w.host_paused_seen, "backpressure never reached the host");
        assert!(w.fabric.counters.pause_frames > 0);
        assert!(
            !w.fabric.link(0, 0).paused,
            "resume frees the host at drain"
        );
    }

    #[test]
    fn rewire_moves_traffic() {
        struct RewireWorld {
            inner: TestWorld,
            phase: u8,
        }
        impl EventHandler for RewireWorld {
            type Event = NetEvent;
            fn handle_event(&mut self, ev: NetEvent, ctx: &mut EventContext<'_, NetEvent>) {
                if let NetEvent::Timer { .. } = ev {
                    match self.phase {
                        0 => {
                            let pkt = Packet::data(0, 0, 1, 0, MTU);
                            self.inner.fabric.send(ctx, 0, 0, pkt);
                        }
                        1 => {
                            // Rewire node 0 port 0 to node 2.
                            let to_2 = LinkChange::Wire(2, 0);
                            self.inner.fabric.set_link(ctx, 0, 0, to_2);
                            let pkt = Packet::data(0, 0, 2, 1, MTU);
                            self.inner.fabric.send(ctx, 0, 0, pkt);
                        }
                        _ => {}
                    }
                    self.phase += 1;
                } else {
                    self.inner.handle_event(ev, ctx);
                }
            }
        }
        let mut inner = two_nodes(QueueConfig::builder().build());
        inner
            .fabric
            .add_node(1, QueueConfig::builder().build(), LinkSpec::paper_default());
        let mut sim = Simulator::new(RewireWorld { inner, phase: 0 });
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: 0 });
        sim.schedule_at(SimTime::from_us(10), NetEvent::Timer { token: 1 });
        sim.run();
        let arr = &sim.world.inner.arrivals;
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].1, 1, "first packet to original peer");
        assert_eq!(arr[1].1, 2, "second packet to rewired peer");
        // Old peer's port is now unwired.
        assert_eq!(sim.world.inner.fabric.link(1, 0).peer, None);
    }

    /// A paused port with packets queued sends them to its new peer once
    /// rewired: the rewire clears the pause and restarts the transmitter,
    /// with no other call.
    #[test]
    fn rewire_restarts_a_paused_port() {
        struct PausedWorld {
            inner: TestWorld,
        }
        impl EventHandler for PausedWorld {
            type Event = NetEvent;
            fn handle_event(&mut self, ev: NetEvent, ctx: &mut EventContext<'_, NetEvent>) {
                let fabric = &mut self.inner.fabric;
                match ev {
                    NetEvent::Timer { token: 0 } => {
                        for s in 0..3 {
                            fabric.send(ctx, 0, 0, Packet::data(0, 0, 2, s, MTU));
                        }
                    }
                    NetEvent::Timer { .. } => {
                        assert!(fabric.link(0, 0).paused);
                        assert_eq!(fabric.queued_bytes(0, 0), 3 * MTU as u64);
                        fabric.set_link(ctx, 0, 0, LinkChange::Wire(2, 0));
                    }
                    ev => self.inner.handle_event(ev, ctx),
                }
            }
        }
        let cfg = QueueConfig::builder().build();
        let mut inner = two_nodes(cfg);
        inner.fabric.add_node(1, cfg, LinkSpec::paper_default());
        let mut sim = Simulator::new(PausedWorld { inner });
        let pause = NetEvent::LinkChange {
            node: 0,
            port: 0,
            change: LinkSignal::Paused(true),
        };
        sim.schedule_at(SimTime::ZERO, pause);
        sim.schedule_at(SimTime::from_ns(1), NetEvent::Timer { token: 0 });
        sim.schedule_at(SimTime::from_us(10), NetEvent::Timer { token: 1 });
        sim.run();
        let w = &sim.world.inner;
        let to: Vec<(u64, NodeId)> = w.arrivals.iter().map(|a| (a.0, a.1)).collect();
        // Back to back from the rewire: 1 200 ns serialization each, plus
        // 500 ns propagation.
        assert_eq!(to, [(11_700, 2), (12_900, 2), (14_100, 2)]);
        assert!(!w.fabric.link(0, 0).paused);
        assert_eq!(w.fabric.queued_bytes(0, 0), 0);
    }

    /// A packet lost on the wire frees its arena slot at transmission,
    /// whichever way it is lost: sustained sending into a dark port, a
    /// failed link (failed by a scheduled [`NetEvent::LinkChange`]) or a
    /// fully corrupting one never grows the slab past what one tick queues
    /// (the first of its four goes straight onto the wire), parks nothing
    /// once drained, and leaves the ledger balanced.
    #[test]
    fn lost_on_the_wire_frees_slots() {
        let cfg = QueueConfig::builder().build();
        let dark = || {
            let mut fabric = Fabric::new();
            fabric.add_node(1, cfg, LinkSpec::paper_default());
            TestWorld {
                fabric,
                arrivals: vec![],
            }
        };
        let failed = || two_nodes(cfg);
        let corrupting = || {
            let mut w = two_nodes(cfg);
            w.fabric.set_random_loss(1.0, 7);
            w
        };
        let worlds: [(&str, &dyn Fn() -> TestWorld); 3] = [
            ("dark", &dark),
            ("failed", &failed),
            ("corrupting", &corrupting),
        ];
        for (name, world) in worlds {
            let mut sim = Simulator::new(BurstWorld {
                inner: world(),
                burst: (0..64).map(|s| Packet::data(0, 0, 1, s, MTU)).collect(),
                per_tick: 4,
            });
            if name == "failed" {
                let fail = NetEvent::LinkChange {
                    node: 0,
                    port: 0,
                    change: LinkSignal::Failed(true),
                };
                sim.schedule_at(SimTime::ZERO, fail);
            }
            for tick in 0..16 {
                sim.schedule_at(SimTime::from_us(10 * tick), NetEvent::Timer { token: 0 });
            }
            sim.run();
            let w = &sim.world.inner;
            assert!(w.arrivals.is_empty(), "{name}: nothing should arrive");
            let c = w.fabric.counters;
            let lost = if name == "dark" {
                c.dark_drops
            } else {
                c.failed_drops
            };
            assert_eq!((lost, c.delivered, c.queued), (64, 0, 64), "{name}");
            assert_eq!(w.fabric.parked_packets(), 0, "{name}");
            assert_eq!(w.fabric.arena.slab_len(), 3, "{name}: slots freed at tx");
            assert_eq!(w.fabric.arena_peak_live(), 3, "{name}");
            assert_eq!(w.fabric.ledger(), Ok(()), "{name}");
        }
    }

    /// Each [`LinkChange`] through the one mutation path, on one cable: a
    /// failed port loses what it sends until it heals, and going dark
    /// unplugs both ends, after which the port still transmits and counts
    /// what it loses as dark.
    #[test]
    fn set_link_fails_heals_and_darkens() {
        struct StepWorld {
            inner: TestWorld,
        }
        impl EventHandler for StepWorld {
            type Event = NetEvent;
            fn handle_event(&mut self, ev: NetEvent, ctx: &mut EventContext<'_, NetEvent>) {
                let fabric = &mut self.inner.fabric;
                let change: LinkChange = match ev {
                    NetEvent::Timer { token: 0 } => LinkChange::Signal(LinkSignal::Failed(true)),
                    NetEvent::Timer { token: 1 } => LinkChange::Signal(LinkSignal::Failed(false)),
                    NetEvent::Timer { token: 2 } => LinkChange::Dark,
                    NetEvent::Timer { .. } => {
                        fabric.send(ctx, 0, 0, Packet::data(0, 0, 1, 0, MTU));
                        return;
                    }
                    ev => return self.inner.handle_event(ev, ctx),
                };
                fabric.set_link(ctx, 0, 0, change);
            }
        }
        let mut sim = Simulator::new(StepWorld {
            inner: two_nodes(QueueConfig::builder().build()),
        });
        // Fail, send; heal, send; go dark, send.
        for (us, token) in [(0, 0), (1, 3), (10, 1), (11, 3), (20, 2), (21, 3)] {
            sim.schedule_at(SimTime::from_us(us), NetEvent::Timer { token });
        }
        sim.run();
        let w = &sim.world.inner;
        let c = w.fabric.counters;
        assert_eq!((c.failed_drops, c.delivered, c.dark_drops), (1, 1, 1));
        assert_eq!(w.arrivals.len(), 1);
        assert_eq!(w.arrivals[0].0, 12_700, "the healed port's packet");
        assert_eq!(w.fabric.link(0, 0), LinkState::default());
        assert_eq!(w.fabric.link(1, 0), LinkState::default());
        assert_eq!(w.fabric.ledger(), Ok(()));
    }

    #[test]
    fn back_to_back_serialization() {
        let burst: Vec<Packet> = (0..3).map(|s| Packet::data(0, 0, 1, s, MTU)).collect();
        let sim = run_burst(QueueConfig::builder().build(), burst);
        let times: Vec<u64> = sim.world.inner.arrivals.iter().map(|a| a.0).collect();
        // 1200ns serialization each, 500ns prop: arrivals at 1700, 2900, 4100.
        assert_eq!(times, vec![1700, 2900, 4100]);
    }

    #[test]
    fn random_loss_drops_roughly_p() {
        let mut w = two_nodes(QueueConfig::builder().unbounded().build());
        w.fabric.set_random_loss(0.25, 7);
        struct LossWorld {
            inner: TestWorld,
        }
        impl EventHandler for LossWorld {
            type Event = NetEvent;
            fn handle_event(&mut self, ev: NetEvent, ctx: &mut EventContext<'_, NetEvent>) {
                if let NetEvent::Timer { .. } = ev {
                    for s in 0..400 {
                        self.inner
                            .fabric
                            .send(ctx, 0, 0, Packet::data(0, 0, 1, s, MTU));
                    }
                } else {
                    self.inner.handle_event(ev, ctx);
                }
            }
        }
        let mut sim = Simulator::new(LossWorld { inner: w });
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: 0 });
        sim.run();
        let got = sim.world.inner.arrivals.len();
        assert!(
            (240..=360).contains(&got),
            "arrivals {got} of 400 at p=0.25"
        );
        assert_eq!(
            sim.world.inner.fabric.counters.failed_drops as usize,
            400 - got
        );
    }

    #[test]
    fn trace_records_match_counters() {
        use crate::trace::{TraceEvent, TraceRecord, TraceSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        /// Sink sharing its record buffer with the test body.
        #[derive(Debug, Default)]
        struct SharedSink(Rc<RefCell<Vec<TraceRecord>>>);
        impl TraceSink for SharedSink {
            fn record(&mut self, rec: &TraceRecord) {
                self.0.borrow_mut().push(*rec);
            }
        }

        // 1 serializing + 8 queued + 1 trimmed (the trimming_when_data_
        // queue_full scenario), with a trace installed.
        let records: Rc<RefCell<Vec<TraceRecord>>> = Rc::default();
        let burst: Vec<Packet> = (0..10).map(|s| Packet::data(0, 0, 1, s, MTU)).collect();
        let mut world = BurstWorld {
            inner: two_nodes(QueueConfig::builder().build()),
            burst,
            per_tick: usize::MAX,
        };
        world
            .inner
            .fabric
            .set_trace(Box::new(SharedSink(Rc::clone(&records))));
        let mut sim = Simulator::new(world);
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: 0 });
        sim.run();
        let fabric = &mut sim.world.inner.fabric;
        let count =
            |ev: TraceEvent| records.borrow().iter().filter(|r| r.event == ev).count() as u64;
        assert_eq!(count(TraceEvent::Enqueue), fabric.counters.queued);
        assert_eq!(count(TraceEvent::Trim), fabric.counters.trimmed);
        assert_eq!(count(TraceEvent::Tx), fabric.counters.delivered);
        assert_eq!(count(TraceEvent::Drop), 0);
        // Timestamps arrive in simulation order.
        let ts: Vec<u64> = records.borrow().iter().map(|r| r.t_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        // Every packet event carries metadata; the trimmed admit shows
        // header size.
        let trim = records
            .borrow()
            .iter()
            .find(|r| r.event == TraceEvent::Trim)
            .copied()
            .expect("trim traced");
        let meta = trim.packet.expect("packet meta");
        assert_eq!(meta.size, HEADER_SIZE);
        assert!(meta.trimmed);
        fabric.take_trace().expect("sink still installed");
    }

    /// `drain` takes a port's queued packets of one priority out of the
    /// fabric: their slots are freed, the one on the wire stays parked until
    /// it is delivered, the ledger counts them, and a PFC port it empties
    /// resumes the peers its queue paused.
    #[test]
    fn drain_returns_packets_and_resumes_upstream() {
        let pfc = QueueConfig::builder()
            .unbounded()
            .policy(Pfc {
                pause_bytes: 3 * MTU as u64,
                resume_bytes: MTU as u64,
            })
            .build();
        // Node 1 sends out its port 1 to node 2; node 0 is upstream of it.
        let mut fabric = Fabric::new();
        for ports in [1, 2, 1] {
            fabric.add_node(ports, pfc, LinkSpec::paper_default());
        }
        fabric.connect(0, 0, 1, 0);
        fabric.connect(1, 1, 2, 0);
        struct DrainWorld {
            fabric: Fabric,
            drained: usize,
        }
        impl EventHandler for DrainWorld {
            type Event = NetEvent;
            fn handle_event(&mut self, ev: NetEvent, ctx: &mut EventContext<'_, NetEvent>) {
                match ev {
                    NetEvent::Timer { token: 0 } => {
                        for s in 0..5 {
                            self.fabric.send(ctx, 1, 1, Packet::bulk(0, 1, 2, s, MTU));
                        }
                        // One is serializing; four are queued, past the
                        // pause threshold. Drain them.
                        assert!(self.fabric.nodes[1][1].congesting);
                        self.drained = self.fabric.drain(ctx, 1, 1, Priority::Bulk).len();
                        assert_eq!(self.fabric.parked_packets(), 1);
                    }
                    NetEvent::PortFree { node, port } => self.fabric.on_port_free(ctx, node, port),
                    NetEvent::Arrive { packet, .. } => {
                        self.fabric.deliver(packet);
                    }
                    NetEvent::LinkChange { node, port, change } => {
                        let (node, port) = (node as usize, port as usize);
                        self.fabric
                            .set_link(ctx, node, port, LinkChange::Signal(change));
                    }
                    NetEvent::Timer { .. } => {}
                }
            }
        }
        let mut sim = Simulator::new(DrainWorld { fabric, drained: 0 });
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: 0 });
        sim.run();
        let fabric = &sim.world.fabric;
        assert_eq!(sim.world.drained, 4);
        assert_eq!(fabric.queued_bytes(1, 1), 0);
        assert_eq!(fabric.parked_packets(), 0);
        assert_eq!(fabric.arena_peak_live(), 4);
        assert_eq!(fabric.ledger(), Ok(()), "drained packets count");
        assert!(fabric.counters.pause_frames > 0);
        assert!(
            !fabric.link(0, 0).paused,
            "the drain resumed the upstream peer"
        );
    }
}
