//! NDP: receiver-driven, trimming-tolerant low-latency transport (§4.2.1).
//!
//! Mechanics implemented, following Handley et al. and the paper's usage:
//!
//! * **Zero-RTT start** — the sender blasts an initial window (8 full
//!   packets, one data-queue's worth) without waiting for credit.
//! * **Trimming** — switches cut payloads at full data queues; the header
//!   travels on at control priority (implemented in `netsim`). The receiver
//!   answers a trimmed header with a NACK; NACKed segments are
//!   retransmitted on future pulls.
//! * **Pull pacing** — the receiver enqueues one PULL per arriving header
//!   (full or trimmed) into a per-host pacer that releases pulls at the
//!   host's line rate, clocking the sender at exactly the receiver's
//!   capacity across all incasting flows.
//! * **Per-packet ACKs** so the sender can retire state, plus a coarse RTO
//!   as the last-resort recovery for lost control packets (rare: control
//!   queues are large and drops counted).
//!
//! The host object is topology-free: it emits packets out of its NIC and
//! reacts to packets handed to it via the [`Transport`] trait. Routing
//! between NICs is the enclosing network model's job.

use crate::window::{FlowMap, SendWindow, SeqSet};
use crate::{Actions, Transport, TransportTimer};
use netsim::fabric::{Fabric, NetEvent};
use netsim::{FlowId, FlowTracker, Packet, PacketKind};
use simkit::engine::EventContext;
use simkit::SimTime;
use std::collections::VecDeque;

/// Initial window, packets, sent before any pull arrives (zero-RTT): 8
/// full packets, 12 KB, one switch data queue.
pub const INITIAL_WINDOW: u32 = 8;

/// Interval between pulls released by the receiver pacer: one
/// [`netsim::MTU`] serialization time on a 10 Gb/s host link.
pub const PULL_INTERVAL: SimTime = SimTime::from_ns(1200);

/// Retransmission timeout: a safety net, since normal recovery is by
/// NACK and pull.
pub const RTO: SimTime = SimTime::from_ms(2);

/// All NDP state for one host (its NIC node id + port).
#[derive(Debug)]
pub struct NdpHost {
    /// NIC node in the fabric.
    pub nic: usize,
    /// NIC port (always 0 for single-homed hosts).
    pub nic_port: usize,
    sending: FlowMap<SendWindow>,
    /// Segments received, per flow.
    receiving: FlowMap<SeqSet>,
    /// FIFO of pulls awaiting pacing: (flow, sender host NIC).
    pull_queue: VecDeque<(FlowId, usize)>,
    /// Earliest time the pacer may release the next pull.
    pacer_free_at: SimTime,
    /// True when a pacer timer is outstanding.
    pacer_armed: bool,
}

impl NdpHost {
    /// A fresh NDP host for NIC `nic`.
    pub fn new(nic: usize, nic_port: usize) -> Self {
        NdpHost {
            nic,
            nic_port,
            sending: FlowMap::default(),
            receiving: FlowMap::default(),
            pull_queue: VecDeque::new(),
            pacer_free_at: SimTime::ZERO,
            pacer_armed: false,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_data(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        tracker: &mut FlowTracker,
        pkt: Packet,
        seq: u32,
        trimmed: bool,
        actions: &mut Actions,
    ) {
        let flow = pkt.flow;
        let sender = pkt.src;
        let seen = self
            .receiving
            .entry(flow)
            .or_insert_with(|| SeqSet::new(crate::packets_for(tracker.get(flow).size)));
        if seen.is_full() {
            // Stale retransmission: ack so the sender retires it.
            let ack = Packet::control(flow, self.nic, sender, PacketKind::Ack { seq });
            fabric.send(ctx, self.nic, self.nic_port, ack);
            return;
        }
        if trimmed {
            // Ask for a retransmission, and clock the sender with a pull.
            let nack = Packet::control(flow, self.nic, sender, PacketKind::Nack { seq });
            fabric.send(ctx, self.nic, self.nic_port, nack);
            self.enqueue_pull(ctx, flow, sender, actions);
            return;
        }
        // Full data packet.
        let ack = Packet::control(flow, self.nic, sender, PacketKind::Ack { seq });
        fabric.send(ctx, self.nic, self.nic_port, ack);
        if seen.insert(seq) {
            let done = tracker.deliver(flow, pkt.payload() as u64, ctx.now());
            if done {
                // Drop queued pulls for this flow: the sender needs no
                // more credit.
                self.pull_queue.retain(|&(f, _)| f != flow);
                return;
            }
        }
        self.enqueue_pull(ctx, flow, sender, actions);
    }

    fn enqueue_pull(
        &mut self,
        ctx: &mut EventContext<'_, NetEvent>,
        flow: FlowId,
        sender: usize,
        actions: &mut Actions,
    ) {
        self.pull_queue.push_back((flow, sender));
        if !self.pacer_armed {
            let at = ctx.now().max(self.pacer_free_at);
            self.pacer_armed = true;
            actions.timers.push((at, TransportTimer::PullPacer));
        }
    }

    /// Number of flows currently being sent.
    pub fn active_sends(&self) -> usize {
        self.sending.len()
    }
}

impl Transport for NdpHost {
    /// Start sending: transmit the initial window immediately (zero-RTT).
    fn start_flow(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        flow: FlowId,
        dst: usize,
        size: u64,
    ) -> Actions {
        let mut st = SendWindow::new(flow, self.nic, self.nic_port, dst, size, ctx.now());
        for _ in 0..INITIAL_WINDOW {
            if !st.emit_next(fabric, ctx) {
                break;
            }
        }
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
        let mut actions = Actions::default();
        match pkt.kind {
            PacketKind::Data { seq, trimmed } => {
                self.on_data(fabric, ctx, tracker, pkt, seq, trimmed, &mut actions);
            }
            PacketKind::Ack { seq } => {
                if let Some(st) = self.sending.get_mut(&pkt.flow) {
                    st.unacked.remove(seq);
                    st.last_activity = ctx.now();
                    if st.done() {
                        self.sending.remove(&pkt.flow);
                    }
                }
            }
            PacketKind::Nack { seq } => {
                if let Some(st) = self.sending.get_mut(&pkt.flow) {
                    st.last_activity = ctx.now();
                    st.nack(seq);
                }
            }
            PacketKind::Pull { .. } => {
                if let Some(st) = self.sending.get_mut(&pkt.flow) {
                    st.last_activity = ctx.now();
                    st.emit_next(fabric, ctx);
                    if st.done() {
                        self.sending.remove(&pkt.flow);
                    } else if let Some(at) = st.rearm(ctx.now(), RTO) {
                        actions.timers.push((at, TransportTimer::Rto(pkt.flow)));
                    }
                }
            }
            _ => {} // bulk traffic handled elsewhere
        }
        actions
    }

    fn on_timer(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        which: TransportTimer,
    ) -> Actions {
        let mut actions = Actions::default();
        match which {
            TransportTimer::PullPacer => {
                self.pacer_armed = false;
                if let Some((flow, sender)) = self.pull_queue.pop_front() {
                    let pull =
                        Packet::control(flow, self.nic, sender, PacketKind::Pull { count: 1 });
                    fabric.send(ctx, self.nic, self.nic_port, pull);
                    self.pacer_free_at = ctx.now() + PULL_INTERVAL;
                    if !self.pull_queue.is_empty() {
                        self.pacer_armed = true;
                        actions
                            .timers
                            .push((self.pacer_free_at, TransportTimer::PullPacer));
                    }
                }
            }
            TransportTimer::Rto(flow) => {
                if let Some(st) = self.sending.get_mut(&flow) {
                    if let (Some(next), _) = st.check_rto(fabric, ctx, RTO) {
                        actions.timers.push((next, TransportTimer::Rto(flow)));
                    }
                }
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::fabric::{LinkSpec, QueueConfig};
    use netsim::packet::HEADER_SIZE;
    use netsim::{NetLogic, NetWorld};
    use simkit::Simulator;

    /// Two hosts wired back-to-back; logic routes by dst NIC directly.
    struct TwoHostLogic {
        hosts: Vec<NdpHost>,
        tracker: FlowTracker,
        started: bool,
        flow_size: u64,
    }

    impl TwoHostLogic {
        fn apply(&mut self, host: usize, actions: Actions, ctx: &mut EventContext<'_, NetEvent>) {
            for (at, which) in actions.timers {
                let token = encode(host, which);
                ctx.schedule_at(at, NetEvent::Timer { token });
            }
        }
    }

    fn encode(host: usize, t: TransportTimer) -> u64 {
        match t {
            TransportTimer::PullPacer => (host as u64) << 32,
            TransportTimer::Rto(f) => 1 << 60 | (host as u64) << 32 | f as u64,
        }
    }
    fn decode(token: u64) -> (usize, TransportTimer) {
        let host = (token >> 32 & 0xFFF_FFFF) as usize;
        if token >> 60 == 1 {
            (host, TransportTimer::Rto((token & 0xFFFF_FFFF) as u32))
        } else {
            (host, TransportTimer::PullPacer)
        }
    }

    impl NetLogic for TwoHostLogic {
        fn on_arrive(
            &mut self,
            fabric: &mut Fabric,
            ctx: &mut EventContext<'_, NetEvent>,
            node: usize,
            _port: usize,
            packet: Packet,
        ) {
            let actions = self.hosts[node].on_packet(fabric, ctx, &mut self.tracker, packet);
            self.apply(node, actions, ctx);
        }

        fn on_timer(
            &mut self,
            fabric: &mut Fabric,
            ctx: &mut EventContext<'_, NetEvent>,
            token: u64,
        ) {
            if let Some(kind) = [STALE_NACK, LATE_PULL]
                .into_iter()
                .find(|&(t, _)| t == token)
            {
                // Host 1 sends host 0 a packet of flow 0 the test scripts.
                let (a, b) = (self.hosts[1].nic, self.hosts[0].nic);
                fabric.send(ctx, a, 0, Packet::control(0, a, b, kind.1));
                return;
            }
            if token == u64::MAX {
                if !self.started {
                    self.started = true;
                    let id = self.tracker.register(
                        0,
                        1,
                        self.flow_size,
                        netsim::FlowClass::LowLatency,
                        ctx.now(),
                    );
                    let actions = self.hosts[0].start_flow(fabric, ctx, id, 1, self.flow_size);
                    self.apply(0, actions, ctx);
                }
                return;
            }
            let (host, which) = decode(token);
            let actions = self.hosts[host].on_timer(fabric, ctx, which);
            self.apply(host, actions, ctx);
        }
    }

    /// Timer tokens on which host 1 sends host 0 a NACK or a pull of flow 0.
    const STALE_NACK: (u64, PacketKind) = (u64::MAX - 1, PacketKind::Nack { seq: 0 });
    const LATE_PULL: (u64, PacketKind) = (u64::MAX - 2, PacketKind::Pull { count: 1 });

    fn two_host(flow_size: u64, cfg: QueueConfig) -> Simulator<NetWorld<TwoHostLogic>> {
        let mut fabric = Fabric::new();
        let a = fabric.add_node(1, cfg, LinkSpec::paper_default());
        let b = fabric.add_node(1, cfg, LinkSpec::paper_default());
        fabric.connect(a, 0, b, 0);
        let logic = TwoHostLogic {
            hosts: vec![NdpHost::new(a, 0), NdpHost::new(b, 0)],
            tracker: FlowTracker::new(),
            started: false,
            flow_size,
        };
        let mut sim = Simulator::new(NetWorld::new(fabric, logic));
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: u64::MAX });
        sim
    }

    fn run_two_host(flow_size: u64, cfg: QueueConfig) -> Simulator<NetWorld<TwoHostLogic>> {
        let mut sim = two_host(flow_size, cfg);
        sim.run_until(SimTime::from_ms(100));
        sim
    }

    /// A sender left with a stale NACK once its flow is acknowledged
    /// (ROADMAP 4b) stops checking its RTO. A late pull that sends the
    /// stale segment again arms the check once more, so the copy a failed
    /// link loses is sent again `RTO` after the pull, as the checks the
    /// sender used to repeat for ever would have sent it.
    #[test]
    fn a_stale_nack_holds_no_rto_until_a_pull_sends_again() {
        let mut sim = two_host(1000, QueueConfig::builder().build());
        let at = |us| SimTime::from_us(us);
        let script = |token: (u64, PacketKind)| NetEvent::Timer { token: token.0 };
        let link = |failed| NetEvent::LinkChange {
            node: 0,
            port: 0,
            change: netsim::LinkSignal::Failed(failed),
        };
        // The NACK reaches host 0 at 651 ns, before the ACK of its one
        // segment (at ≈ 1.9 µs).
        sim.schedule_at(SimTime::from_ns(100), script(STALE_NACK));
        sim.run_until(at(2_500));
        let sends =
            |sim: &Simulator<NetWorld<TwoHostLogic>>| sim.world.logic.hosts[0].active_sends();
        assert!(sim.world.logic.tracker.all_done());
        assert_eq!(sends(&sim), 1, "the stale NACK keeps the sender");
        assert_eq!(
            sim.pending(),
            0,
            "its RTO checked once, at 2 ms, and stopped"
        );
        sim.schedule_at(at(2_600), link(true));
        sim.schedule_at(at(3_000), script(LATE_PULL));
        sim.schedule_at(at(4_000), link(false));
        sim.run_until(at(5_000));
        assert_eq!(sim.world.fabric.counters.failed_drops, 1);
        assert_eq!(
            sends(&sim),
            1,
            "the lost copy is not sent again before the RTO"
        );
        sim.run_until(at(5_010));
        assert_eq!(sends(&sim), 0, "sent again at 5.0006 ms and acknowledged");
        sim.run_until(at(10_000));
        assert_eq!(sim.pending(), 0, "the last check finds no sender and stops");
    }

    #[test]
    fn small_flow_completes_in_one_burst() {
        // 1000 bytes: single packet, should complete in ~1 serialization +
        // propagation.
        let sim = run_two_host(1000, QueueConfig::builder().build());
        let t = &sim.world.logic.tracker;
        assert!(t.all_done());
        let fct = t.get(0).fct().unwrap();
        // 1064B at 10G = 852ns ser + 500 prop = 1352ns.
        assert_eq!(fct.as_ns(), 1352);
    }

    #[test]
    fn large_flow_completes_at_line_rate() {
        let size = 1_000_000u64; // 1 MB
        let sim = run_two_host(size, QueueConfig::builder().build());
        let t = &sim.world.logic.tracker;
        assert!(t.all_done(), "flow incomplete: {:?}", t.get(0));
        let fct = t.get(0).fct().unwrap().as_secs_f64();
        // Ideal: 1MB * 8 / (10G * (1436/1500 goodput)) ≈ 0.84 ms. Allow
        // pull-pacing overhead up to 2x.
        let ideal = size as f64 * 8.0 / 10e9 / (1436.0 / 1500.0);
        assert!(fct >= ideal, "fct {fct} < ideal {ideal}");
        assert!(fct < 2.0 * ideal, "fct {fct} too slow vs {ideal}");
    }

    #[test]
    fn sender_state_retired_after_completion() {
        let sim = run_two_host(100_000, QueueConfig::builder().build());
        assert_eq!(sim.world.logic.hosts[0].active_sends(), 0);
    }

    #[test]
    fn wire_size_math() {
        use crate::{packets_for, wire_size, PAYLOAD_PER_PACKET};
        assert_eq!(PAYLOAD_PER_PACKET, 1436);
        assert_eq!(packets_for(1436), 1);
        assert_eq!(packets_for(1437), 2);
        assert_eq!(packets_for(1), 1);
        assert_eq!(wire_size(1436, 0), 1500);
        assert_eq!(wire_size(1437, 1), HEADER_SIZE + 1);
        assert_eq!(packets_for(0), 1, "zero-size flows still send a runt");
        assert_eq!(packets_for(1436 * u32::MAX as u64), u32::MAX);
    }

    /// A flow with more segments than a `u32` counts is refused, not
    /// counted modulo 2³² (which ran it short and reported nothing).
    #[test]
    #[should_panic(expected = "a flow's segment count must fit u32")]
    fn a_flow_past_the_segment_count_is_refused() {
        crate::packets_for(1436 * u32::MAX as u64 + 1);
    }

    #[test]
    fn incast_shares_receiver_line_rate() {
        // Three senders (NICs 2..=4) incast to one receiver (NIC 1)
        // through a 4-port hub switch (node 0). NDP's pull pacer must
        // share the receiver's line rate and trimming must bound queues.
        let mut fabric = Fabric::new();
        let cfg = QueueConfig::builder().build();
        let hub = fabric.add_node(4, cfg, LinkSpec::paper_default());
        let mut hosts = vec![NdpHost::new(hub, 0)]; // placeholder for node 0
        for i in 0..4 {
            let h = fabric.add_node(1, cfg, LinkSpec::paper_default());
            fabric.connect(h, 0, hub, i);
            hosts.push(NdpHost::new(h, 0));
        }

        struct Incast {
            hosts: Vec<NdpHost>,
            tracker: FlowTracker,
            started: bool,
        }
        impl Incast {
            fn apply(
                &mut self,
                host: usize,
                actions: Actions,
                ctx: &mut EventContext<'_, NetEvent>,
            ) {
                for (at, which) in actions.timers {
                    ctx.schedule_at(
                        at,
                        NetEvent::Timer {
                            token: encode(host, which),
                        },
                    );
                }
            }
        }
        impl NetLogic for Incast {
            fn on_arrive(
                &mut self,
                fabric: &mut Fabric,
                ctx: &mut EventContext<'_, NetEvent>,
                node: usize,
                _port: usize,
                packet: Packet,
            ) {
                if node == 0 {
                    // Hub switch: forward toward dst NIC (NIC i on port i-1).
                    fabric.send(ctx, 0, packet.dst - 1, packet);
                    return;
                }
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
                    if !self.started {
                        self.started = true;
                        for s in 2..=4usize {
                            let id = self.tracker.register(
                                s,
                                1,
                                200_000,
                                netsim::FlowClass::LowLatency,
                                ctx.now(),
                            );
                            let a = self.hosts[s].start_flow(fabric, ctx, id, 1, 200_000);
                            self.apply(s, a, ctx);
                        }
                    }
                    return;
                }
                let (host, which) = decode(token);
                let a = self.hosts[host].on_timer(fabric, ctx, which);
                self.apply(host, a, ctx);
            }
        }
        let mut sim = Simulator::new(NetWorld::new(
            fabric,
            Incast {
                hosts,
                tracker: FlowTracker::new(),
                started: false,
            },
        ));
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: u64::MAX });
        sim.run_until(SimTime::from_ms(50));
        let t = &sim.world.logic.tracker;
        assert!(t.all_done(), "incast flows incomplete");
        // Aggregate 600 KB into one 10G NIC: ideal ≈ 0.5 ms; allow pacing
        // and retransmission overhead.
        for f in t.flows() {
            let fct = f.fct().unwrap().as_secs_f64();
            assert!(fct < 2e-3, "incast fct {fct}");
        }
    }
}
