//! Go-back-N: cumulative ACKs, in-order delivery, timeout retransmission.
//!
//! The textbook sliding-window protocol, used here as the baseline
//! transport for lossy `DropTail` switches (and trivially correct under
//! lossless `Pfc`):
//!
//! * The sender keeps at most [`WINDOW`] segments between `base` (oldest
//!   unacknowledged) and `next` in flight.
//! * The receiver accepts only the in-order segment it `expected`; every
//!   data arrival — in-order, duplicate, or out-of-order — is answered
//!   with a cumulative ACK carrying the next expected sequence number.
//! * An ACK for `a > base` slides the window: everything below `a` is
//!   acknowledged at once (cumulative), freeing the sender to emit new
//!   segments. Duplicate ACKs (`a == base`) are ignored.
//! * When the RTO finds no progress since its arming, the sender re-sends
//!   the entire outstanding window `[base, next)` — the "go back N".
//!
//! A trimmed header (if run over `NdpTrim` switches) carries no payload,
//! so the receiver treats it like any out-of-order arrival: dup-ACK now,
//! recovery by timeout.

use crate::window::FlowMap;
use crate::{Actions, Transport, TransportTimer};
use netsim::fabric::{Fabric, NetEvent};
use netsim::{FlowId, FlowTracker, Packet, PacketKind};
use simkit::engine::EventContext;
use simkit::SimTime;

/// Sliding window, packets: NDP's initial window, so both start a flow
/// with one switch data queue's worth.
pub const WINDOW: u32 = 8;

/// Retransmission timeout: 1 ms, tighter than NDP's 2 ms safety net,
/// because here the timeout is the only loss recovery.
pub const RTO: SimTime = SimTime::from_ms(1);

/// Sender-side per-flow state.
#[derive(Debug)]
struct SendFlow {
    flow: FlowId,
    src: usize,
    dst: usize,
    size: u64,
    total: u32,
    /// Oldest unacknowledged segment (cumulative ACK floor).
    base: u32,
    /// Next never-sent segment.
    next: u32,
    /// Time of the last forward progress (send or window slide).
    last_activity: SimTime,
}

/// Receiver-side per-flow state: strictly in-order.
#[derive(Debug)]
struct RecvFlow {
    /// Next expected in-order sequence number (== cumulative ACK value).
    expected: u32,
    total: u32,
}

/// All go-back-N state for one host (its NIC node id + port).
#[derive(Debug)]
pub struct GoBackNHost {
    /// NIC node in the fabric.
    pub nic: usize,
    /// NIC port (always 0 for single-homed hosts).
    pub nic_port: usize,
    sending: FlowMap<SendFlow>,
    receiving: FlowMap<RecvFlow>,
}

impl GoBackNHost {
    /// A fresh go-back-N host for NIC `nic`.
    pub fn new(nic: usize, nic_port: usize) -> Self {
        GoBackNHost {
            nic,
            nic_port,
            sending: FlowMap::default(),
            receiving: FlowMap::default(),
        }
    }

    /// The sender window base of `flow` (tests/introspection).
    pub fn base(&self, flow: FlowId) -> Option<u32> {
        self.sending.get(&flow).map(|st| st.base)
    }

    /// Emit a copy of segment `seq`.
    fn emit(
        st: &SendFlow,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        nic: usize,
        nic_port: usize,
        seq: u32,
    ) {
        let size = crate::wire_size(st.size, seq);
        let pkt = Packet::data(st.flow, st.src, st.dst, seq, size);
        fabric.send(ctx, nic, nic_port, pkt);
    }

    /// Send new segments while the window has room.
    fn fill_window(
        st: &mut SendFlow,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        nic: usize,
        nic_port: usize,
    ) {
        while st.next < st.total && st.next < st.base + WINDOW {
            Self::emit(st, fabric, ctx, nic, nic_port, st.next);
            st.next += 1;
            st.last_activity = ctx.now();
        }
    }

    /// Number of flows currently being sent.
    pub fn active_sends(&self) -> usize {
        self.sending.len()
    }
}

impl Transport for GoBackNHost {
    fn start_flow(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        flow: FlowId,
        dst: usize,
        size: u64,
    ) -> Actions {
        let total = crate::packets_for(size);
        let mut st = SendFlow {
            flow,
            src: self.nic,
            dst,
            size,
            total,
            base: 0,
            next: 0,
            last_activity: ctx.now(),
        };
        Self::fill_window(&mut st, fabric, ctx, self.nic, self.nic_port);
        let mut actions = Actions::default();
        actions
            .timers
            .push((ctx.now() + RTO, TransportTimer::Rto(flow)));
        self.sending.insert(flow, st);
        actions
    }

    fn on_packet(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        tracker: &mut FlowTracker,
        pkt: Packet,
    ) -> Actions {
        match pkt.kind {
            PacketKind::Data { seq, trimmed } => {
                let flow = pkt.flow;
                let sender = pkt.src;
                let st = self.receiving.entry(flow).or_insert_with(|| RecvFlow {
                    expected: 0,
                    total: crate::packets_for(tracker.get(flow).size),
                });
                if !trimmed && seq == st.expected && st.expected < st.total {
                    st.expected += 1;
                    tracker.deliver(flow, pkt.payload() as u64, ctx.now());
                }
                // Cumulative ACK for every arrival: in-order advances it,
                // duplicates/out-of-order/trimmed re-assert the old value.
                let ack =
                    Packet::control(flow, self.nic, sender, PacketKind::Ack { seq: st.expected });
                fabric.send(ctx, self.nic, self.nic_port, ack);
            }
            PacketKind::Ack { seq } => {
                if let Some(st) = self.sending.get_mut(&pkt.flow) {
                    if seq > st.base {
                        st.base = seq;
                        st.last_activity = ctx.now();
                        if st.base >= st.total {
                            self.sending.remove(&pkt.flow);
                        } else {
                            Self::fill_window(st, fabric, ctx, self.nic, self.nic_port);
                        }
                    }
                }
            }
            _ => {}
        }
        Actions::default()
    }

    fn on_timer(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        which: TransportTimer,
    ) -> Actions {
        let mut actions = Actions::default();
        let TransportTimer::Rto(flow) = which else {
            return actions; // no pacer in go-back-N
        };
        if let Some(st) = self.sending.get_mut(&flow) {
            let deadline = st.last_activity + RTO;
            if ctx.now() >= deadline {
                // Go back N: re-send the whole outstanding window.
                for seq in st.base..st.next {
                    Self::emit(st, fabric, ctx, self.nic, self.nic_port, seq);
                }
                st.last_activity = ctx.now();
                actions
                    .timers
                    .push((ctx.now() + RTO, TransportTimer::Rto(flow)));
            } else {
                actions.timers.push((deadline, TransportTimer::Rto(flow)));
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::fabric::{LinkSpec, QueueConfig};
    use netsim::policy::DropTail;
    use netsim::{FlowClass, NetLogic, NetWorld};
    use simkit::Simulator;

    /// Two hosts back-to-back, optional random loss on the wire.
    struct TwoHost {
        hosts: Vec<GoBackNHost>,
        tracker: FlowTracker,
        flow_size: u64,
    }

    impl TwoHost {
        fn apply(&mut self, host: usize, actions: Actions, ctx: &mut EventContext<'_, NetEvent>) {
            for (at, which) in actions.timers {
                let token = match which {
                    TransportTimer::PullPacer => (host as u64) << 32,
                    TransportTimer::Rto(f) => 1 << 60 | (host as u64) << 32 | f as u64,
                };
                ctx.schedule_at(at, NetEvent::Timer { token });
            }
        }
    }

    impl NetLogic for TwoHost {
        fn on_arrive(
            &mut self,
            fabric: &mut Fabric,
            ctx: &mut EventContext<'_, NetEvent>,
            node: usize,
            _port: usize,
            packet: Packet,
        ) {
            let a = self.hosts[node].on_packet(fabric, ctx, &mut self.tracker, packet);
            self.apply(node, a, ctx);
        }

        fn on_timer(
            &mut self,
            fabric: &mut Fabric,
            ctx: &mut EventContext<'_, NetEvent>,
            token: u64,
        ) {
            if token == u64::MAX {
                let id =
                    self.tracker
                        .register(0, 1, self.flow_size, FlowClass::LowLatency, ctx.now());
                let a = self.hosts[0].start_flow(fabric, ctx, id, 1, self.flow_size);
                self.apply(0, a, ctx);
                return;
            }
            let host = (token >> 32 & 0xFFF_FFFF) as usize;
            let which = if token >> 60 == 1 {
                TransportTimer::Rto((token & 0xFFFF_FFFF) as u32)
            } else {
                TransportTimer::PullPacer
            };
            let a = self.hosts[host].on_timer(fabric, ctx, which);
            self.apply(host, a, ctx);
        }
    }

    fn run_two_host(flow_size: u64, loss: f64) -> Simulator<NetWorld<TwoHost>> {
        let cfg = QueueConfig::builder().policy(DropTail).build();
        let mut fabric = Fabric::new();
        let a = fabric.add_node(1, cfg, LinkSpec::paper_default());
        let b = fabric.add_node(1, cfg, LinkSpec::paper_default());
        fabric.connect(a, 0, b, 0);
        if loss > 0.0 {
            fabric.set_random_loss(loss, 11);
        }
        let logic = TwoHost {
            hosts: vec![GoBackNHost::new(a, 0), GoBackNHost::new(b, 0)],
            tracker: FlowTracker::new(),
            flow_size,
        };
        let mut sim = Simulator::new(NetWorld::new(fabric, logic));
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: u64::MAX });
        sim.run_until(SimTime::from_ms(200));
        sim
    }

    #[test]
    fn lossless_flow_completes_and_retires_state() {
        let sim = run_two_host(100_000, 0.0);
        let t = &sim.world.logic.tracker;
        assert!(t.all_done(), "flow incomplete: {:?}", t.get(0));
        assert_eq!(sim.world.logic.hosts[0].active_sends(), 0);
        // Exactly `total` data packets delivered: no spurious
        // retransmissions without loss.
        let total = crate::packets_for(100_000) as u64;
        // data + one ack per data packet.
        assert_eq!(sim.world.fabric.counters.delivered, 2 * total);
    }

    #[test]
    fn flow_survives_heavy_random_loss() {
        let sim = run_two_host(50_000, 0.2);
        let t = &sim.world.logic.tracker;
        assert!(t.all_done(), "go-back-N failed to recover: {:?}", t.get(0));
        assert!(
            sim.world.fabric.counters.failed_drops > 0,
            "loss injection inactive — test is vacuous"
        );
    }

    #[test]
    fn receiver_discards_out_of_order_and_dup_acks() {
        // Drive the receiver directly: segment 1 before segment 0.
        struct World {
            fabric: Fabric,
            host: GoBackNHost,
            tracker: FlowTracker,
            acks: Vec<u32>,
            id: FlowId,
        }
        impl simkit::engine::EventHandler for World {
            type Event = NetEvent;
            fn handle_event(&mut self, ev: NetEvent, ctx: &mut EventContext<'_, NetEvent>) {
                match ev {
                    NetEvent::Timer { .. } => {
                        // Out of order: seq 1 first (dup-ACK 0), then 0
                        // (ACK 1), then 1 again (ACK 2).
                        for seq in [1, 0, 1] {
                            let size = crate::wire_size(2_500, seq);
                            let pkt = Packet::data(self.id, 0, 1, seq, size);
                            self.host
                                .on_packet(&mut self.fabric, ctx, &mut self.tracker, pkt);
                        }
                    }
                    NetEvent::Arrive { packet, .. } => {
                        if let PacketKind::Ack { seq } = self.fabric.deliver(packet).kind {
                            self.acks.push(seq);
                        }
                    }
                    NetEvent::PortFree { node, port } => self.fabric.on_port_free(ctx, node, port),
                    NetEvent::LinkChange { node, port, change } => {
                        let (node, port) = (node as usize, port as usize);
                        let change = netsim::LinkChange::Signal(change);
                        self.fabric.set_link(ctx, node, port, change)
                    }
                }
            }
        }
        let mut fabric = Fabric::new();
        let a = fabric.add_node(1, QueueConfig::builder().build(), LinkSpec::paper_default());
        let b = fabric.add_node(1, QueueConfig::builder().build(), LinkSpec::paper_default());
        fabric.connect(a, 0, b, 0);
        let mut tracker = FlowTracker::new();
        let id = tracker.register(0, 1, 2_500, FlowClass::LowLatency, SimTime::ZERO);
        let mut sim = Simulator::new(World {
            fabric,
            host: GoBackNHost::new(1, 0),
            tracker,
            acks: vec![],
            id,
        });
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: 0 });
        sim.run();
        assert_eq!(sim.world.acks, vec![0, 1, 2], "cumulative ACK sequence");
        // Out-of-order payload was not delivered early; total delivered
        // equals the two in-order segments.
        assert_eq!(sim.world.tracker.get(id).received, 2_500);
    }

    #[test]
    fn timeout_resends_whole_window() {
        // Sender into a dark (unwired) port: everything it emits is lost.
        // After one RTO it must go back and re-send [base, next) — the
        // full initial window — and keep base pinned at 0.
        struct World {
            fabric: Fabric,
            host: GoBackNHost,
            tracker: FlowTracker,
        }
        impl simkit::engine::EventHandler for World {
            type Event = NetEvent;
            fn handle_event(&mut self, ev: NetEvent, ctx: &mut EventContext<'_, NetEvent>) {
                match ev {
                    NetEvent::Timer { token: 0 } => {
                        let id =
                            self.tracker
                                .register(0, 1, 20_000, FlowClass::LowLatency, ctx.now());
                        let a = self.host.start_flow(&mut self.fabric, ctx, id, 1, 20_000);
                        for (at, which) in a.timers {
                            assert_eq!(which, TransportTimer::Rto(id));
                            ctx.schedule_at(at, NetEvent::Timer { token: 1 });
                        }
                    }
                    NetEvent::Timer { .. } => {
                        let a = self
                            .host
                            .on_timer(&mut self.fabric, ctx, TransportTimer::Rto(0));
                        // Swallow the re-armed timer after the second round
                        // so the test terminates.
                        if ctx.now() < SimTime::from_ms(2) {
                            for (at, _) in a.timers {
                                ctx.schedule_at(at, NetEvent::Timer { token: 1 });
                            }
                        }
                    }
                    NetEvent::PortFree { node, port } => self.fabric.on_port_free(ctx, node, port),
                    NetEvent::Arrive { .. } => panic!("dark port delivers nothing"),
                    NetEvent::LinkChange { .. } => {}
                }
            }
        }
        let mut fabric = Fabric::new();
        fabric.add_node(
            1,
            QueueConfig::builder().unbounded().build(),
            LinkSpec::paper_default(),
        );
        let mut sim = Simulator::new(World {
            fabric,
            host: GoBackNHost::new(0, 0),
            tracker: FlowTracker::new(),
        });
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: 0 });
        sim.run();
        let w = &sim.world;
        assert_eq!(w.host.base(0), Some(0), "no ACKs: base must not move");
        // Initial window (8) + two timeout rounds of 8 each = 24 emissions
        // into the dark port.
        assert_eq!(w.fabric.counters.dark_drops, 24);
    }
}
