//! Packet-level static baselines: folded Clos and static expander, both
//! running NDP with per-packet multipath spraying and (optionally ideal)
//! priority queuing — the comparison networks of §5. Hosts, transport and
//! flow arrivals are the shared [`crate::net::Endpoints`]; this module is
//! the switch graph and the shortest-path spraying over it.
//!
//! Node layout: hosts `0..H`, then one node per switch-graph vertex
//! (expander: one per rack; Clos: ToRs, aggs, cores). Fabric port `p` of a
//! switch node with `d` attached hosts maps to adjacency-list entry
//! `p − d` of its graph vertex, so routing tables store adjacency indices.

use crate::net::{Endpoints, PacketNet};
use crate::tokens::{decode, Token};
use netsim::fabric::{Fabric, LinkSpec, NetEvent, QueueConfig};
use netsim::{FlowClass, FlowTracker, NetLogic, NetWorld, Packet};
use simkit::engine::EventContext;
use simkit::{SimRng, Simulator};
use topo::clos::{ClosParams, ClosTopology};
use topo::expander::{ExpanderParams, ExpanderTopology};
use topo::graph::Graph;
use transport::TransportKind;
use workloads::FlowSpec;

/// Which static topology to build.
#[derive(Debug, Clone)]
pub enum StaticTopologyKind {
    /// A static expander over racks.
    Expander(ExpanderParams),
    /// A three-tier folded Clos.
    FoldedClos(ClosParams),
}

/// Configuration of a static-network simulation.
#[derive(Debug, Clone)]
pub struct StaticNetConfig {
    /// Topology.
    pub kind: StaticTopologyKind,
    /// Link rate / propagation delay.
    pub link: LinkSpec,
    /// Queue configuration (trimming on).
    pub queues: QueueConfig,
    /// Low-latency transport (sender kind + parameters).
    pub transport: TransportKind,
    /// Seed for topology + routing randomness.
    pub seed: u64,
}

impl StaticNetConfig {
    /// Small expander for tests: 8 racks × 4 hosts, u = 4.
    pub fn small_expander() -> Self {
        StaticNetConfig {
            kind: StaticTopologyKind::Expander(ExpanderParams {
                racks: 8,
                uplinks: 4,
                hosts_per_rack: 4,
            }),
            link: LinkSpec::paper_default(),
            queues: QueueConfig::builder().build(),
            transport: TransportKind::paper_default(),
            seed: 1,
        }
    }

    /// The paper's 650-host u=7 expander.
    pub fn paper_expander_650() -> Self {
        StaticNetConfig {
            kind: StaticTopologyKind::Expander(ExpanderParams::example_650()),
            ..Self::small_expander()
        }
    }

    /// The paper's 648-host 3:1 folded Clos.
    pub fn paper_clos_648() -> Self {
        StaticNetConfig {
            kind: StaticTopologyKind::FoldedClos(ClosParams::example_648()),
            ..Self::small_expander()
        }
    }

    /// Total hosts.
    pub fn hosts(&self) -> usize {
        match &self.kind {
            StaticTopologyKind::Expander(p) => p.hosts(),
            StaticTopologyKind::FoldedClos(p) => p.hosts(),
        }
    }
}

/// Static-network logic: per-packet random shortest-path forwarding on
/// the switch graph.
pub struct StaticLogic {
    ends: Endpoints,
    /// Switch graph.
    graph: Graph,
    /// Hosts per ToR and ToR count (ToRs are graph nodes `0..tors`).
    hosts_per_tor: usize,
    tors: usize,
    rng: SimRng,
    /// `next_hop[dst_tor * graph.len() + node]` → adjacency indices on
    /// shortest paths.
    next_hops: Vec<Vec<u8>>,
    /// Packets dropped with no route (should stay zero).
    pub routing_drops: u64,
}

/// Complete simulated static network.
pub type StaticNet = Simulator<NetWorld<StaticLogic>>;

impl StaticLogic {
    fn tor_of_host(&self, host: usize) -> usize {
        host / self.hosts_per_tor
    }
    /// Fabric port at a switch for adjacency entry `i`: ToRs reserve the
    /// first `hosts_per_tor` ports for hosts.
    fn adj_port(&self, vertex: usize, i: usize) -> usize {
        if vertex < self.tors {
            self.hosts_per_tor + i
        } else {
            i
        }
    }

    /// Results.
    pub fn tracker(&self) -> &FlowTracker {
        self.ends.tracker()
    }
}

impl NetLogic for StaticLogic {
    fn on_arrive(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        node: usize,
        _port: usize,
        packet: Packet,
    ) {
        if node < self.ends.hosts() {
            self.ends.on_packet(fabric, ctx, node, packet);
            return;
        }
        let vertex = node - self.ends.hosts();
        let dst_tor = self.tor_of_host(packet.dst);
        if vertex == dst_tor {
            let down = packet.dst % self.hosts_per_tor;
            fabric.send(ctx, node, down, packet);
            return;
        }
        let hops = &self.next_hops[dst_tor * self.graph.len() + vertex];
        if hops.is_empty() {
            self.routing_drops += 1;
            return;
        }
        let i = hops[self.rng.index(hops.len())] as usize;
        let port = self.adj_port(vertex, i);
        fabric.send(ctx, node, port, packet);
    }

    fn on_timer(&mut self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>, token: u64) {
        // Token 0 is the bootstrap, which here only admits the first flows.
        let timer = if token == 0 {
            Token::FlowArrival
        } else {
            decode(token)
        };
        match timer {
            // Every flow is low-latency: there is no bulk plane.
            Token::FlowArrival => {
                while let Some(spec) = self.ends.next_due(ctx) {
                    self.ends
                        .start_flow(fabric, ctx, spec, FlowClass::LowLatency);
                }
            }
            host_timer => self.ends.on_timer(fabric, ctx, host_timer),
        }
    }
}

impl PacketNet for StaticLogic {
    type Config = StaticNetConfig;

    fn hosts(cfg: &StaticNetConfig) -> usize {
        cfg.hosts()
    }
    fn build(cfg: StaticNetConfig, flows: Vec<FlowSpec>) -> StaticNet {
        build(cfg, flows)
    }
    fn ends(&self) -> &Endpoints {
        &self.ends
    }
    fn ends_mut(&mut self) -> &mut Endpoints {
        &mut self.ends
    }
}

/// Build a static network simulation with `flows` to inject.
pub fn build(cfg: StaticNetConfig, flows: Vec<FlowSpec>) -> StaticNet {
    let (graph, tors, hosts_per_tor) = match &cfg.kind {
        StaticTopologyKind::Expander(p) => {
            let t = ExpanderTopology::generate(*p, cfg.seed);
            (t.graph().clone(), p.racks, p.hosts_per_rack)
        }
        StaticTopologyKind::FoldedClos(p) => {
            let t = ClosTopology::generate(*p);
            (t.graph().clone(), t.tors(), p.hosts_per_tor())
        }
    };
    let hosts_total = tors * hosts_per_tor;

    // Routing tables: adjacency indices on shortest paths toward each ToR.
    let n = graph.len();
    let mut next_hops = vec![Vec::new(); tors * n];
    for dst_tor in 0..tors {
        let dist = graph.bfs_distances(dst_tor);
        for v in 0..n {
            if v == dst_tor || dist[v] == usize::MAX {
                continue;
            }
            let mut choices = Vec::new();
            for (i, e) in graph.edges(v).iter().enumerate() {
                if dist[e.to] + 1 == dist[v] {
                    choices.push(i as u8);
                }
            }
            next_hops[dst_tor * n + v] = choices;
        }
    }

    let mut fabric = Fabric::new();
    let ends = Endpoints::new(
        &mut fabric,
        hosts_total,
        cfg.transport,
        cfg.queues,
        cfg.link,
        flows,
    );
    for v in 0..n {
        let host_ports = if v < tors { hosts_per_tor } else { 0 };
        fabric.add_node(host_ports + graph.degree(v), cfg.queues, cfg.link);
    }
    ends.wire(&mut fabric, hosts_per_tor);
    // Switch graph edges: connect each undirected pair once, using the
    // adjacency index on each side as the port.
    for v in 0..n {
        for (i, e) in graph.edges(v).iter().enumerate() {
            if v < e.to {
                // Find the reverse adjacency index.
                let j = graph
                    .edges(e.to)
                    .iter()
                    .enumerate()
                    .position(|(jj, back)| {
                        back.to == v && {
                            // Match multiplicity: count how many (v->to)
                            // edges precede index i, pick the matching
                            // reverse occurrence.
                            let occ = graph.edges(v)[..i].iter().filter(|x| x.to == e.to).count();
                            let rocc = graph.edges(e.to)[..jj].iter().filter(|x| x.to == v).count();
                            occ == rocc
                        }
                    })
                    .expect("symmetric graph");
                let pa = if v < tors { hosts_per_tor + i } else { i };
                let pb = if e.to < tors { hosts_per_tor + j } else { j };
                fabric.connect(hosts_total + v, pa, hosts_total + e.to, pb);
            }
        }
    }

    let logic = StaticLogic {
        ends,
        rng: SimRng::new(cfg.seed.wrapping_add(77)),
        graph,
        hosts_per_tor,
        tors,
        next_hops,
        routing_drops: 0,
    };
    NetWorld::new(fabric, logic).into_sim()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    #[test]
    fn expander_flow_completes() {
        let mut sim = build(
            StaticNetConfig::small_expander(),
            vec![FlowSpec {
                src: 0,
                dst: 30,
                size: 50_000,
                start: SimTime::ZERO,
            }],
        );
        sim.run_until(SimTime::from_ms(10));
        let t = sim.world.logic.tracker();
        assert!(t.all_done());
        assert!(t.get(0).fct().unwrap() < SimTime::from_us(200));
        assert_eq!(sim.world.logic.routing_drops, 0);
        assert_eq!(sim.world.fabric.counters.dark_drops, 0);
    }

    #[test]
    fn clos_cross_pod_flow_completes() {
        let mut sim = build(
            StaticNetConfig::paper_clos_648(),
            vec![FlowSpec {
                src: 0,
                dst: 647,
                size: 100_000,
                start: SimTime::ZERO,
            }],
        );
        sim.run_until(SimTime::from_ms(10));
        let t = sim.world.logic.tracker();
        assert!(t.all_done());
        // 100KB across 6 store-and-forward hops at 10G: ~120us.
        assert!(t.get(0).fct().unwrap() < SimTime::from_us(300));
        assert_eq!(sim.world.logic.routing_drops, 0);
    }

    #[test]
    fn rack_local_stays_local() {
        let mut sim = build(
            StaticNetConfig::small_expander(),
            vec![FlowSpec {
                src: 0,
                dst: 1,
                size: 10_000,
                start: SimTime::ZERO,
            }],
        );
        sim.run_until(SimTime::from_ms(5));
        assert!(sim.world.logic.tracker().all_done());
        // Only host links and the ToR are involved: 2 hops.
        let fct = sim.world.logic.tracker().get(0).fct().unwrap();
        assert!(fct < SimTime::from_us(30), "fct {fct}");
    }

    #[test]
    fn many_random_flows_complete_on_clos() {
        let mut rng = SimRng::new(4);
        let mut flows = Vec::new();
        for _ in 0..50 {
            let src = rng.index(648);
            let mut dst = rng.index(647);
            if dst >= src {
                dst += 1;
            }
            flows.push(FlowSpec {
                src,
                dst,
                size: 30_000,
                start: SimTime::from_us(rng.below(200)),
            });
        }
        let mut sim = build(StaticNetConfig::paper_clos_648(), flows);
        sim.run_until(SimTime::from_ms(20));
        let t = sim.world.logic.tracker();
        assert_eq!(t.completed(), 50);
    }
}
