//! What every packet-level network shares: the hosts, and the seam the
//! harness drives a network through.
//!
//! §5 compares Opera with a static expander and a folded Clos by what sits
//! *between* the ToRs. Everything at the edge is therefore one piece of
//! code, [`Endpoints`]: a transport per host, the flow list and its
//! arrival timer, the flow tracker, and the host ↔ ToR links. A network
//! model ([`crate::opera_net::OperaLogic`],
//! [`crate::static_net::StaticLogic`]) holds one and adds only its own
//! switching; [`PacketNet`] is what lets a driver run either through one
//! body.
//!
//! Node layout, shared: hosts are fabric nodes `0..H`, the ToR of rack `r`
//! is node `H + r`, and host `h` hangs off down port `h % d` of the ToR of
//! rack `h / d` (`d` hosts per rack).
//!
//! **How long a run lasts.** A driver sizes its horizon for its worst
//! point, and most points are done long before it. A static network is
//! then event-free, but an idle Opera never is: every slice the
//! reconfigured switch's circuits exchange hellos (§3.6.2), about 79 events
//! per 10 µs slice on a 12-rack network and 751 per 100 µs slice at paper
//! scale. So drivers run a network with [`PacketNet::run`], which returns
//! at the first instant the network is [`PacketNet::drained`] and
//! otherwise at the horizon. Drained is exact, not a guess: every flow injected and
//! complete, no packet parked in the fabric, and the event queue down to
//! the network's [`PacketNet::CLOCK_EVENTS`]. From there on the only thing
//! an Opera network does is reconfigure and say hello, which moves no
//! flow record and no loss, trim, mark or pause counter; it does go on
//! counting hellos in `FabricCounters::{queued, delivered}` (and in
//! `failed_drops` under [`netsim::Fabric::set_random_loss`]) and writing
//! them to a trace, so a run that wants those, or that times the engine
//! itself, calls [`Simulator::run_until`].

use crate::tokens::{schedule_actions, timer, Token};
use netsim::fabric::{Fabric, LinkSpec, NetEvent, QueueConfig};
use netsim::{FlowClass, FlowId, FlowTracker, NetLogic, NetWorld, Packet, PacketKind, TraceEvent};
use simkit::engine::EventContext;
use simkit::{SimTime, Simulator};
use transport::{Transport, TransportKind};
use workloads::FlowSpec;

/// The host layer of a network: transports, flow arrivals and results.
pub struct Endpoints {
    hosts: Vec<Box<dyn Transport>>,
    tracker: FlowTracker,
    /// Flows still to inject, the next one last: start order reversed
    /// (ties keep the caller's order). Given back as it is consumed: shrunk
    /// to its length whenever that is half its capacity, and freed with the
    /// last injection, so a run whose flows all start at once holds no more
    /// of its flow list than it has still to register.
    to_come: Vec<FlowSpec>,
}

impl Endpoints {
    /// Add `hosts` single-port nodes to the (empty) `fabric`, one transport
    /// each, and queue `flows` for injection.
    pub(crate) fn new(
        fabric: &mut Fabric,
        hosts: usize,
        transport: TransportKind,
        queues: QueueConfig,
        link: LinkSpec,
        mut flows: Vec<FlowSpec>,
    ) -> Self {
        flows.sort_by_key(|f| f.start);
        flows.reverse();
        for h in 0..hosts {
            let node = fabric.add_node(1, queues, link);
            assert_eq!(node, h, "hosts must be the fabric's first nodes");
        }
        Endpoints {
            hosts: (0..hosts).map(|h| transport.make(h, 0)).collect(),
            tracker: FlowTracker::with_capacity(flows.len()),
            to_come: flows,
        }
    }

    /// Connect every host to its ToR (added by now), `per_tor` hosts each.
    pub(crate) fn wire(&self, fabric: &mut Fabric, per_tor: usize) {
        for h in 0..self.hosts() {
            fabric.connect(h, 0, self.hosts() + h / per_tor, h % per_tor);
        }
    }

    /// Number of hosts, which is also the fabric node of the first ToR.
    pub(crate) fn hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Per-flow results.
    pub fn tracker(&self) -> &FlowTracker {
        &self.tracker
    }

    /// True once every flow handed to `build` has been injected and has
    /// completed: the flow half of [`PacketNet::drained`].
    pub fn finished(&self) -> bool {
        self.to_come.is_empty() && self.tracker.all_done()
    }

    /// Record delivered payload in bins of `bin` from now on (Figure 8).
    pub fn record_throughput(&mut self, bin: SimTime) {
        self.tracker.record_throughput(bin);
    }

    /// The next flow whose start time has come; `None` once there is no
    /// such flow, after arming [`Token::FlowArrival`] for the first that
    /// is still to come. Call until `None`.
    pub(crate) fn next_due(&mut self, ctx: &mut EventContext<'_, NetEvent>) -> Option<FlowSpec> {
        let spec = *self.to_come.last()?;
        if spec.start <= ctx.now() {
            self.to_come.pop();
            if self.to_come.len() <= self.to_come.capacity() / 2 {
                self.to_come.shrink_to_fit();
            }
            return Some(spec);
        }
        ctx.schedule_at(spec.start, timer(Token::FlowArrival));
        None
    }

    /// Enter `spec` in the tracker as starting now.
    pub(crate) fn register(&mut self, spec: FlowSpec, class: FlowClass, now: SimTime) -> FlowId {
        self.tracker
            .register(spec.src, spec.dst, spec.size, class, now)
    }

    /// Register `spec` and hand it to its source host's transport.
    pub(crate) fn start_flow(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        spec: FlowSpec,
        class: FlowClass,
    ) {
        let id = self.register(spec, class, ctx.now());
        let actions = self.hosts[spec.src].start_flow(fabric, ctx, id, spec.dst, spec.size);
        schedule_actions(ctx, spec.src, actions);
    }

    /// A packet reached `host`: RotorLB bulk data is counted as delivered,
    /// anything else belongs to the host's transport (an ACK is traced
    /// first, at the host's one NIC port).
    pub(crate) fn on_packet(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        host: usize,
        packet: Packet,
    ) {
        if let PacketKind::BulkData { .. } = packet.kind {
            debug_assert_eq!(packet.dst, host);
            self.tracker
                .deliver(packet.flow, packet.payload() as u64, ctx.now());
        } else {
            if let PacketKind::Ack { .. } = packet.kind {
                fabric.trace_event(ctx.now(), host, 0, TraceEvent::Ack, Some(&packet));
            }
            let actions = self.hosts[host].on_packet(fabric, ctx, &mut self.tracker, packet);
            schedule_actions(ctx, host, actions);
        }
    }

    /// A timer the switching layer did not claim: a host's transport
    /// timer, traced before the transport handles it.
    pub(crate) fn on_timer(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        token: Token,
    ) {
        let Token::Transport(host, which) = token else {
            panic!("unexpected timer {token:?}");
        };
        fabric.trace_event(ctx.now(), host, 0, TraceEvent::Timer, None);
        let actions = self.hosts[host].on_timer(fabric, ctx, which);
        schedule_actions(ctx, host, actions);
    }
}

/// A packet-level network a driver can build and run without knowing
/// which one it is: same hosts, transport and flow arrivals
/// ([`Endpoints`]), different switching. [`PacketNet::build`] makes the
/// simulation and [`PacketNet::run`] runs it until it has drained.
pub trait PacketNet: NetLogic + Sized {
    /// Everything [`PacketNet::build`] needs besides the flows.
    type Config;

    /// Events the network's own clock has pending at every instant of a
    /// run, traffic or none: a queue down to this many holds the clock and
    /// nothing else.
    const CLOCK_EVENTS: usize;

    /// Number of hosts `cfg` describes; flows address hosts `0..hosts`.
    fn hosts(cfg: &Self::Config) -> usize;

    /// A ready-to-run simulation that injects `flows` at their start
    /// times, in start order (ties in the order given).
    fn build(cfg: Self::Config, flows: Vec<FlowSpec>) -> Simulator<NetWorld<Self>>;

    /// The host layer.
    fn ends(&self) -> &Endpoints;

    /// The host layer, to switch on [`Endpoints::record_throughput`].
    fn ends_mut(&mut self) -> &mut Endpoints;

    /// Every counter of a run by name, wherever it stopped: the fabric's
    /// ([`netsim::fabric::FabricCounters::named`]), then the network's own.
    fn counters(sim: &Simulator<NetWorld<Self>>) -> Vec<(&'static str, u64)>;

    /// Per-flow results.
    fn tracker(&self) -> &FlowTracker {
        self.ends().tracker()
    }

    /// True when nothing left in `sim` can change a result: every flow is
    /// [`Endpoints::finished`], only the clock is pending and no packet is
    /// parked in the fabric. So there is no packet in flight, no armed
    /// transport timer, no feeder tick and no hello check to touch a flow
    /// record, a fabric counter or the throughput series, and no packet
    /// stranded in a queue for a later hello to push on (a rotor network
    /// restarts each port a rewire unpaused, so none is left idle with
    /// packets queued).
    fn drained(sim: &Simulator<NetWorld<Self>>) -> bool {
        sim.pending() <= Self::CLOCK_EVENTS
            && sim.world.logic.ends().finished()
            && sim.world.fabric.parked_packets() == 0
    }

    /// The packet ledger of a run, wherever it stopped (ROADMAP 10): the
    /// fabric accounts for every packet it wrote ([`Fabric::ledger`]), and
    /// every flow's record agrees with itself ([`FlowTracker::ledger`]:
    /// no more than its size received, finished exactly when all of it
    /// was).
    fn ledger(sim: &Simulator<NetWorld<Self>>) -> Result<(), String> {
        sim.world.fabric.ledger().map_err(|e| format!("{e:?}"))?;
        let tracker = sim.world.logic.tracker();
        tracker
            .ledger()
            .map_err(|id| format!("flow {id}: {:?}", tracker.get(id)))
    }

    /// Run `sim` to the first instant it is [`PacketNet::drained`]
    /// (`true`, the clock left at that event) or else to `horizon`
    /// (`false`, as [`Simulator::run_until`] leaves it). The flow tracker
    /// and the fabric's loss, trim, mark and pause counters read the same
    /// either way (`tests/drain_differential.rs`); see the module docs for
    /// what does not.
    fn run(sim: &mut Simulator<NetWorld<Self>>, horizon: SimTime) -> bool {
        while !Self::drained(sim) {
            if !sim.run_until_idle(horizon, Self::CLOCK_EVENTS) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opera_net::{OperaLogic, OperaNetConfig};
    use crate::static_net::{StaticLogic, StaticNetConfig};

    /// A network whose flows all start at t = 0 lets go of its flow list in
    /// its bootstrap event, and reads as finished and drained exactly when
    /// it did while it held the list: not before its flows complete, and at
    /// the first instant after.
    #[test]
    fn flows_that_all_start_at_once_are_freed_at_bootstrap() {
        fn check<N: PacketNet>(cfg: N::Config) {
            let hosts = N::hosts(&cfg);
            // Low-latency flows, and on Opera bulk ones too.
            let flows: Vec<FlowSpec> = (0..6)
                .map(|i| FlowSpec {
                    src: i,
                    dst: hosts - 1 - i,
                    size: [20_000, 600_000][i % 2],
                    start: SimTime::ZERO,
                })
                .collect();
            let mut sim = N::build(cfg, flows);
            assert_eq!(sim.world.logic.ends().to_come.len(), 6);
            assert!(!sim.world.logic.ends().finished());
            assert!(sim.step(), "the bootstrap event");
            let ends = sim.world.logic.ends();
            assert_eq!(ends.to_come.capacity(), 0, "the flow list is still held");
            assert_eq!(ends.tracker().len(), 6);
            assert!(!ends.finished());
            assert!(!N::drained(&sim));
            assert!(N::run(&mut sim, SimTime::from_ms(50)));
            assert!(sim.world.logic.ends().finished());
            assert_eq!(sim.world.logic.tracker().completed(), 6);
        }
        check::<OperaLogic>(OperaNetConfig::small_test());
        check::<StaticLogic>(StaticNetConfig::small_expander());
    }
}
