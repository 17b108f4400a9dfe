//! The layer ladder: vary one layer at a time (MDS2's method).
//!
//! Three synthetic rungs, each adding one layer under the workload's own
//! configuration, give the host cost of one event with only the layers
//! below in play. They are estimates: a rung's event mix is not the
//! workload's, so read them as "about how much of `simkit.ns_per_event`
//! each layer can account for", never as a gate.
//!
//! * rung 0 — `Simulator` + a no-op handler that reschedules itself, at the
//!   workload's `simkit.peak_pending` → `simkit.engine_ns_per_event`;
//! * rung 1 — plus the fabric: MTU packets source-routed down a line of
//!   four switches with the workload's `QueueConfig`, no transport
//!   → `netsim.fabric_ns_per_event`;
//! * rung 2 — plus the transport: two `TransportKind::make` hosts through
//!   one switch, one long flow → `transport.ns_per_event`.

use crate::packet::PacketWorkload;
use crate::surface::*;
use std::time::Instant;

/// Host nanoseconds per event on each rung.
pub struct Rungs {
    pub engine: f64,
    pub fabric: f64,
    pub transport: f64,
}

/// Events each rung simulates, about: a second or so of host time in all.
pub const EVENTS: u64 = 4_000_000;

pub fn run(w: &PacketWorkload, peak_pending: usize, events: u64) -> Rungs {
    Rungs {
        engine: engine(peak_pending.max(1), events),
        // A packet down the line is 11 events; a data packet of the flow
        // and its acknowledgement are about 8.
        fabric: fabric(w, events / 11),
        transport: transport(w, events / 8 * MTU as u64),
    }
}

fn ns_per_event(start: Instant, events: u64) -> f64 {
    start.elapsed().as_secs_f64() * 1e9 / events.max(1) as f64
}

/// Rung 0: every event schedules its successor a pseudo-random 1–4096 ns on.
struct Churn(u64);

impl EventHandler for Churn {
    type Event = ();

    fn handle_event(&mut self, (): (), ctx: &mut EventContext<'_, ()>) {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        ctx.schedule_in(SimTime::from_ns(1 + (self.0 & 4095)), ());
    }
}

fn engine(pending: usize, events: u64) -> f64 {
    let mut sim = Simulator::new(Churn(0x9E37_79B9_7F4A_7C15));
    for i in 0..pending {
        sim.schedule_at(SimTime::from_ns(i as u64 % 4096), ());
    }
    let t = Instant::now();
    let n = sim.run_events(events);
    ns_per_event(t, n)
}

/// Rung 1: host 0 → switches 1..=4 → host 5; switches forward out port 1.
struct Line {
    link: LinkSpec,
    to_send: u64,
    received: u64,
}

impl NetLogic for Line {
    fn on_arrive(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        node: usize,
        _port: usize,
        packet: Packet,
    ) {
        if node == 5 {
            self.received += 1;
        } else {
            fabric.send(ctx, node, 1, packet);
        }
    }

    fn on_timer(&mut self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>, _token: u64) {
        if self.to_send == 0 {
            return;
        }
        self.to_send -= 1;
        fabric.send(ctx, 0, 0, Packet::data(0, 0, 5, self.to_send as u32, MTU));
        // Line rate: the next packet leaves as this one clears the NIC.
        ctx.schedule_in(self.link.serialize(MTU), NetEvent::Timer { token: 1 });
    }
}

fn fabric(w: &PacketWorkload, packets: u64) -> f64 {
    let (queues, link) = (w.queues(), w.link());
    let mut fabric = Fabric::new();
    fabric.add_node(1, queues, link);
    for _ in 1..=4 {
        fabric.add_node(2, queues, link);
    }
    fabric.add_node(1, queues, link);
    fabric.connect(0, 0, 1, 0);
    for s in 1..4 {
        fabric.connect(s, 1, s + 1, 0);
    }
    fabric.connect(4, 1, 5, 0);
    let line = Line {
        link,
        to_send: packets,
        received: 0,
    };
    let mut sim = NetWorld::new(fabric, line).into_sim();
    let t = Instant::now();
    sim.run();
    let ns = ns_per_event(t, sim.events_processed());
    assert_eq!(sim.world.logic.received, packets, "the line lost packets");
    ns
}

/// Rung 2: hosts 0 and 1 joined by switch 2 (port `h` faces host `h`).
struct Pair {
    hosts: [Box<dyn Transport>; 2],
    tracker: FlowTracker,
    flow_bytes: u64,
}

impl Pair {
    /// Arm the timers a host asked for. Token 0 is the bootstrap; otherwise
    /// `1 + host + 2·is_rto + 4·flow`.
    fn arm(
        ctx: &mut EventContext<'_, NetEvent>,
        host: usize,
        timers: Vec<(SimTime, TransportTimer)>,
    ) {
        for (at, which) in timers {
            let (rto, flow) = match which {
                TransportTimer::PullPacer => (0, 0),
                TransportTimer::Rto(flow) => (1, flow as u64),
            };
            let token = 1 + host as u64 + 2 * rto + 4 * flow;
            ctx.schedule_at(at, NetEvent::Timer { token });
        }
    }
}

impl NetLogic for Pair {
    fn on_arrive(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        node: usize,
        _port: usize,
        packet: Packet,
    ) {
        if node == 2 {
            fabric.send(ctx, 2, packet.dst, packet);
        } else {
            let actions = self.hosts[node].on_packet(fabric, ctx, &mut self.tracker, packet);
            Self::arm(ctx, node, actions.timers);
        }
    }

    fn on_timer(&mut self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>, token: u64) {
        let (host, actions) = match token.checked_sub(1) {
            None => {
                let size = self.flow_bytes;
                let id = self
                    .tracker
                    .register(0, 1, size, FlowClass::LowLatency, ctx.now());
                (0, self.hosts[0].start_flow(fabric, ctx, id, 1, size))
            }
            Some(t) => {
                let host = (t & 1) as usize;
                let which = match t & 2 {
                    0 => TransportTimer::PullPacer,
                    _ => TransportTimer::Rto((t >> 2) as u32),
                };
                (host, self.hosts[host].on_timer(fabric, ctx, which))
            }
        };
        Self::arm(ctx, host, actions.timers);
    }
}

fn transport(w: &PacketWorkload, flow_bytes: u64) -> f64 {
    let (queues, link, kind) = (w.queues(), w.link(), w.transport());
    let mut fabric = Fabric::new();
    fabric.add_node(1, queues, link);
    fabric.add_node(1, queues, link);
    fabric.add_node(2, queues, link);
    fabric.connect(0, 0, 2, 0);
    fabric.connect(1, 0, 2, 1);
    let pair = Pair {
        hosts: [kind.make(0, 0), kind.make(1, 0)],
        tracker: FlowTracker::new(),
        flow_bytes,
    };
    let mut sim = NetWorld::new(fabric, pair).into_sim();
    let t = Instant::now();
    sim.run_until(SimTime::from_secs(10));
    let ns = ns_per_event(t, sim.events_processed());
    assert!(
        sim.world.logic.tracker.all_done(),
        "the ladder's flow did not finish"
    );
    ns
}
