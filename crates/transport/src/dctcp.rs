//! DCTCP-style sender: ECN-echo proportional window reduction.
//!
//! Pairs with `netsim::policy::EcnMark` switches: data enqueued onto a
//! standing queue above the marking threshold carries the
//! congestion-experienced bit; the receiver echoes it on the matching
//! per-packet ACK, and the sender maintains the classic DCTCP estimate
//! `alpha ← (1−g)·alpha + g·F` of the marked fraction `F` per window,
//! multiplicatively reducing its congestion window by `alpha/2` once per
//! window that saw marks. Unmarked ACKs grow the window by `1/cwnd`
//! (TCP-style additive increase).
//!
//! Loss handling is deliberately simple — this is the paper-testbed
//! baseline, not a full TCP: a trimmed header (when run over `NdpTrim`
//! switches) acts as an explicit loss NACK that halves the window and
//! queues a retransmission; anything else lost is recovered by the RTO,
//! which collapses the window to `min_cwnd`.

use crate::window::{FlowMap, SendWindow, SeqSet};
use crate::{Actions, Transport, TransportTimer};
use netsim::fabric::{Fabric, NetEvent};
use netsim::{FlowId, FlowTracker, Packet, PacketKind};
use simkit::engine::EventContext;
use simkit::SimTime;

/// DCTCP tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct DctcpParams {
    /// Initial congestion window, packets.
    pub init_cwnd: u32,
    /// Floor of the congestion window, packets.
    pub min_cwnd: u32,
    /// EWMA gain `g` for the marked-fraction estimate.
    pub gain: f64,
    /// Retransmission timeout.
    pub rto: SimTime,
}

impl DctcpParams {
    /// Defaults matched to the NDP configuration: 8-packet initial
    /// window, `g = 1/16` (the DCTCP paper's choice), 2 ms RTO.
    pub fn paper_default() -> Self {
        DctcpParams {
            init_cwnd: 8,
            min_cwnd: 1,
            gain: 1.0 / 16.0,
            rto: SimTime::from_ms(2),
        }
    }
}

/// Sender-side per-flow state.
#[derive(Debug)]
struct SendFlow {
    win: SendWindow,
    /// Congestion window, packets (fractional growth).
    cwnd: f64,
    /// DCTCP marked-fraction EWMA.
    alpha: f64,
    /// ACKs counted in the current observation window.
    window_acks: u32,
    /// Marked ACKs counted in the current observation window.
    window_marks: u32,
}

impl SendFlow {
    /// Emit segments while the congestion window has room.
    fn pump(&mut self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>) {
        while (self.win.unacked.len() as f64) < self.cwnd && self.win.emit_next(fabric, ctx) {}
    }
}

/// All DCTCP state for one host (its NIC node id + port).
#[derive(Debug)]
pub struct DctcpHost {
    /// NIC node in the fabric.
    pub nic: usize,
    /// NIC port (always 0 for single-homed hosts).
    pub nic_port: usize,
    params: DctcpParams,
    sending: FlowMap<SendFlow>,
    /// Segments received, per flow.
    receiving: FlowMap<SeqSet>,
}

impl DctcpHost {
    /// A fresh DCTCP host for NIC `nic`.
    pub fn new(nic: usize, nic_port: usize, params: DctcpParams) -> Self {
        DctcpHost {
            nic,
            nic_port,
            params,
            sending: FlowMap::default(),
            receiving: FlowMap::default(),
        }
    }

    /// Current congestion window of `flow`, packets (tests/introspection).
    pub fn cwnd(&self, flow: FlowId) -> Option<f64> {
        self.sending.get(&flow).map(|st| st.cwnd)
    }

    /// Per-window alpha update and multiplicative decrease, applied once
    /// roughly every cwnd ACKs.
    fn roll_window(params: &DctcpParams, st: &mut SendFlow) {
        // For a whole number of ACKs this is `< cwnd.ceil()`, exactly.
        if (st.window_acks as f64) < st.cwnd {
            return;
        }
        let f = st.window_marks as f64 / st.window_acks as f64;
        st.alpha = (1.0 - params.gain) * st.alpha + params.gain * f;
        if st.window_marks > 0 {
            st.cwnd = (st.cwnd * (1.0 - st.alpha / 2.0)).max(params.min_cwnd as f64);
        }
        st.window_acks = 0;
        st.window_marks = 0;
    }

    /// Number of flows currently being sent.
    pub fn active_sends(&self) -> usize {
        self.sending.len()
    }
}

impl Transport for DctcpHost {
    fn start_flow(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        flow: FlowId,
        dst: usize,
        size: u64,
    ) -> Actions {
        let mut st = SendFlow {
            win: SendWindow::new(flow, self.nic, self.nic_port, dst, size, ctx.now()),
            cwnd: self.params.init_cwnd as f64,
            alpha: 0.0,
            window_acks: 0,
            window_marks: 0,
        };
        st.pump(fabric, ctx);
        let mut actions = Actions::default();
        actions
            .timers
            .push((ctx.now() + self.params.rto, TransportTimer::Rto(flow)));
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
                let seen = self
                    .receiving
                    .entry(flow)
                    .or_insert_with(|| SeqSet::new(crate::packets_for(tracker.get(flow).size)));
                if trimmed && !seen.is_full() {
                    // Trim-assisted loss signal (NdpTrim switches): NACK.
                    let nack = Packet::control(flow, self.nic, sender, PacketKind::Nack { seq });
                    fabric.send(ctx, self.nic, self.nic_port, nack);
                    return Actions::default();
                }
                // Ack every data packet, echoing the ECN mark.
                let mut ack = Packet::control(flow, self.nic, sender, PacketKind::Ack { seq });
                ack.ecn_ce = pkt.ecn_ce;
                fabric.send(ctx, self.nic, self.nic_port, ack);
                if seen.insert(seq) {
                    tracker.deliver(flow, pkt.payload() as u64, ctx.now());
                }
            }
            PacketKind::Ack { seq } => {
                if let Some(st) = self.sending.get_mut(&pkt.flow) {
                    st.win.ack(seq);
                    st.win.last_activity = ctx.now();
                    st.window_acks += 1;
                    if pkt.ecn_ce {
                        st.window_marks += 1;
                    } else {
                        st.cwnd += 1.0 / st.cwnd;
                    }
                    Self::roll_window(&self.params, st);
                    st.pump(fabric, ctx);
                    if st.win.done() {
                        self.sending.remove(&pkt.flow);
                    }
                }
            }
            PacketKind::Nack { seq } => {
                if let Some(st) = self.sending.get_mut(&pkt.flow) {
                    st.win.last_activity = ctx.now();
                    st.win.unacked.remove(seq);
                    st.win.nack(seq);
                    // Loss: halve the window (sharper than a mark).
                    st.cwnd = (st.cwnd / 2.0).max(self.params.min_cwnd as f64);
                    st.pump(fabric, ctx);
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
            return actions; // no pacer in DCTCP
        };
        if let Some(st) = self.sending.get_mut(&flow) {
            // Timeout: the oldest unacked segment goes out again and the
            // window collapses.
            let (next, timed_out) = st.win.check_rto(fabric, ctx, self.params.rto);
            if timed_out {
                st.cwnd = self.params.min_cwnd as f64;
            }
            actions
                .timers
                .extend(next.map(|at| (at, TransportTimer::Rto(flow))));
        }
        actions
    }

    fn acked(&self) -> Vec<(FlowId, u64)> {
        self.sending
            .iter()
            .map(|(&flow, st)| (flow, st.win.acked_bytes()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::fabric::{LinkSpec, QueueConfig};
    use netsim::policy::EcnMark;
    use netsim::{FlowClass, NetLogic, NetWorld};
    use simkit::Simulator;

    /// N senders → hub switch → one receiver; hub egress uses EcnMark.
    struct Incast {
        hosts: Vec<DctcpHost>,
        tracker: FlowTracker,
        flow_size: u64,
        senders: usize,
        min_cwnd_seen: f64,
    }

    impl Incast {
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
                fabric.send(ctx, 0, packet.dst - 1, packet);
                return;
            }
            let a = self.hosts[node].on_packet(fabric, ctx, &mut self.tracker, packet);
            for h in &self.hosts {
                for f in 0..self.senders as u32 {
                    if let Some(c) = h.cwnd(f) {
                        self.min_cwnd_seen = self.min_cwnd_seen.min(c);
                    }
                }
            }
            self.apply(node, a, ctx);
        }

        fn on_timer(
            &mut self,
            fabric: &mut Fabric,
            ctx: &mut EventContext<'_, NetEvent>,
            token: u64,
        ) {
            if token == u64::MAX {
                for s in 0..self.senders {
                    let host = 2 + s;
                    let id = self.tracker.register(
                        host,
                        1,
                        self.flow_size,
                        FlowClass::LowLatency,
                        ctx.now(),
                    );
                    let a = self.hosts[host].start_flow(fabric, ctx, id, 1, self.flow_size);
                    self.apply(host, a, ctx);
                }
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

    fn run_incast(senders: usize, flow_size: u64) -> Simulator<NetWorld<Incast>> {
        let cfg = QueueConfig::builder()
            .caps([12_000, 48_000, 24_000])
            .policy(EcnMark { mark_bytes: 12_000 })
            .build();
        let mut fabric = Fabric::new();
        let hub = fabric.add_node(1 + senders, cfg, LinkSpec::paper_default());
        let mut hosts = vec![DctcpHost::new(hub, 0, DctcpParams::paper_default())];
        for i in 0..=senders {
            let h = fabric.add_node(1, cfg, LinkSpec::paper_default());
            fabric.connect(h, 0, hub, i);
            hosts.push(DctcpHost::new(h, 0, DctcpParams::paper_default()));
        }
        let logic = Incast {
            hosts,
            tracker: FlowTracker::new(),
            flow_size,
            senders,
            min_cwnd_seen: f64::INFINITY,
        };
        let mut sim = NetWorld::new(fabric, logic).into_sim();
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: u64::MAX });
        sim.run_until(SimTime::from_ms(100));
        sim
    }

    #[test]
    fn single_flow_completes() {
        let sim = run_incast(1, 200_000);
        assert!(
            sim.world.logic.tracker.all_done(),
            "flow incomplete: {:?}",
            sim.world.logic.tracker.get(0)
        );
        assert_eq!(sim.world.logic.hosts[2].active_sends(), 0);
    }

    #[test]
    fn incast_marks_reduce_window_and_all_complete() {
        let sim = run_incast(4, 200_000);
        let w = &sim.world;
        assert!(w.logic.tracker.all_done(), "incast flows incomplete");
        assert!(
            w.fabric.counters.ecn_marked > 0,
            "incast should cross the mark threshold"
        );
        assert!(
            w.logic.min_cwnd_seen < DctcpParams::paper_default().init_cwnd as f64,
            "ECN echo never reduced any window (min seen {})",
            w.logic.min_cwnd_seen
        );
    }

    #[test]
    fn ack_echoes_mark_bit() {
        // Direct check of the receiver path: a marked data packet yields a
        // marked ACK, an unmarked one an unmarked ACK.
        let host = DctcpHost::new(1, 0, DctcpParams::paper_default());
        let mut tracker = FlowTracker::new();
        let id = tracker.register(0, 1, 2_000, FlowClass::LowLatency, SimTime::ZERO);
        let mut fabric = Fabric::new();
        let a = fabric.add_node(1, QueueConfig::builder().build(), LinkSpec::paper_default());
        let b = fabric.add_node(1, QueueConfig::builder().build(), LinkSpec::paper_default());
        fabric.connect(a, 0, b, 0);

        struct Probe {
            host_acks: Vec<Packet>,
        }
        // Run inside a minimal simulator so we have an EventContext.
        struct World {
            fabric: Fabric,
            host: DctcpHost,
            tracker: FlowTracker,
            probe: Probe,
            id: FlowId,
        }
        impl simkit::engine::EventHandler for World {
            type Event = NetEvent;
            fn handle_event(&mut self, ev: NetEvent, ctx: &mut EventContext<'_, NetEvent>) {
                match ev {
                    NetEvent::Timer { .. } => {
                        let mut marked = Packet::data(self.id, 0, 1, 0, 1_000);
                        marked.ecn_ce = true;
                        self.host
                            .on_packet(&mut self.fabric, ctx, &mut self.tracker, marked);
                        let clean = Packet::data(self.id, 0, 1, 1, 1_000);
                        self.host
                            .on_packet(&mut self.fabric, ctx, &mut self.tracker, clean);
                    }
                    NetEvent::Arrive { packet, .. } => {
                        self.probe.host_acks.push(self.fabric.deliver(packet))
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
        let mut sim = Simulator::new(World {
            fabric,
            host,
            tracker,
            probe: Probe { host_acks: vec![] },
            id,
        });
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: 0 });
        sim.run();
        let acks = &sim.world.probe.host_acks;
        assert_eq!(acks.len(), 2);
        assert!(acks[0].ecn_ce, "marked data must yield marked ACK");
        assert!(!acks[1].ecn_ce, "clean data must yield clean ACK");
    }
}
