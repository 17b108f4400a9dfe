//! Packet-level static baselines: folded Clos and static expander, both
//! running NDP with per-packet multipath spraying and (optionally ideal)
//! priority queuing — the comparison networks of §5. Hosts, transport and
//! flow arrivals are the shared [`crate::net::Endpoints`]; this module is
//! the switch graph and the shortest-path spraying over it.
//!
//! Node layout: hosts `0..H`, then one node per switch-graph vertex
//! (expander: one per rack; Clos: ToRs, aggs, cores). Fabric port `p` of a
//! switch node with `d` attached hosts is adjacency-list entry `p − d` of
//! its graph vertex (`PortLayout::fabric_port` is the one place that
//! says so), and the routing table stores fabric ports.
//!
//! Cost model: a packet-hop is two indexed loads and one RNG draw — the
//! destination host's `(ToR, down port)`, then the row of shortest-path
//! fabric ports for `(destination ToR, this switch)` in one flat array.

use crate::net::{Endpoints, PacketNet};
use crate::tokens::{decode, Token};
use netsim::fabric::{Fabric, LinkSpec, NetEvent, QueueConfig};
use netsim::{FlowClass, FlowTracker, NetLogic, NetWorld, Packet};
use simkit::engine::EventContext;
use simkit::{SimRng, Simulator};
use std::collections::BTreeMap;
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
    /// Low-latency transport.
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

/// Where a switch's ports go: ToRs are graph vertices `0..tors` and
/// reserve their first `hosts_per_tor` ports for hosts.
#[derive(Debug, Clone, Copy)]
struct PortLayout {
    tors: usize,
    hosts_per_tor: usize,
}

impl PortLayout {
    /// Fabric port of adjacency entry `i` at switch `vertex` (with `i` the
    /// vertex's degree: its port count).
    fn fabric_port(self, vertex: usize, i: usize) -> usize {
        if vertex < self.tors {
            self.hosts_per_tor + i
        } else {
            i
        }
    }
}

/// Shortest-path next hops toward every ToR, as fabric ports, rows end to
/// end in one array.
#[derive(Debug)]
struct Routes {
    /// Switch-graph vertices.
    vertices: usize,
    /// Row `dst_tor * vertices + vertex` is
    /// `ports[row_start[row]..row_start[row + 1]]`, in adjacency order.
    ports: Vec<u8>,
    row_start: Vec<u32>,
}

impl Routes {
    /// The routes of `graph` toward its ToRs, one BFS per ToR.
    ///
    /// # Panics
    /// Panics if a fabric port does not fit `u8`, or the table `u32` rows.
    fn build(graph: &Graph, layout: PortLayout) -> Self {
        let n = graph.len();
        let mut ports = Vec::new();
        let mut row_start = Vec::with_capacity(layout.tors * n + 1);
        row_start.push(0);
        for dst_tor in 0..layout.tors {
            let dist = graph.bfs_distances(dst_tor);
            for v in 0..n {
                // Unreachable from the destination: an empty row, as the
                // destination's own is (nothing is one step closer than 0).
                if dist[v] != usize::MAX {
                    for (i, e) in graph.edges(v).iter().enumerate() {
                        if dist[e.to] + 1 == dist[v] {
                            let port = layout.fabric_port(v, i);
                            ports.push(u8::try_from(port).expect("fabric port must fit u8"));
                        }
                    }
                }
                row_start.push(u32::try_from(ports.len()).expect("route table must fit u32"));
            }
        }
        Routes {
            vertices: n,
            ports,
            row_start,
        }
    }

    /// Fabric ports at `vertex` on shortest paths toward `dst_tor`; empty
    /// when there is none.
    #[inline]
    fn toward(&self, dst_tor: usize, vertex: usize) -> &[u8] {
        let row = dst_tor * self.vertices + vertex;
        &self.ports[self.row_start[row] as usize..self.row_start[row + 1] as usize]
    }
}

/// Static-network logic: per-packet random shortest-path forwarding on
/// the switch graph.
pub struct StaticLogic {
    ends: Endpoints,
    /// Host → (graph vertex of its ToR, that ToR's down port to it).
    host_tor: Vec<(u16, u16)>,
    routes: Routes,
    rng: SimRng,
    /// Packets dropped with no route (should stay zero).
    pub routing_drops: u64,
}

/// Complete simulated static network.
pub type StaticNet = Simulator<NetWorld<StaticLogic>>;

impl StaticLogic {
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
        let (dst_tor, down) = self.host_tor[packet.dst];
        if vertex == dst_tor as usize {
            fabric.send(ctx, node, down as usize, packet);
            return;
        }
        let ports = self.routes.toward(dst_tor as usize, vertex);
        if ports.is_empty() {
            self.routing_drops += 1;
            return;
        }
        let port = ports[self.rng.index(ports.len())] as usize;
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
    /// Ports are woken by packets: an idle static network has no events.
    const CLOCK_EVENTS: usize = 0;

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
    fn counters(sim: &StaticNet) -> Vec<(&'static str, u64)> {
        let mut counters = sim.world.fabric.counters.named().to_vec();
        counters.push(("routing_drops", sim.world.logic.routing_drops));
        counters
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
    let layout = PortLayout {
        tors,
        hosts_per_tor,
    };
    let host_tor = (0..hosts_total)
        .map(|h| {
            let tor = u16::try_from(h / hosts_per_tor).expect("ToR index must fit u16");
            let down = u16::try_from(h % hosts_per_tor).expect("down port must fit u16");
            (tor, down)
        })
        .collect();
    let routes = Routes::build(&graph, layout);

    let mut fabric = Fabric::new();
    let ends = Endpoints::new(
        &mut fabric,
        hosts_total,
        cfg.transport,
        cfg.queues,
        cfg.link,
        flows,
    );
    let n = graph.len();
    for v in 0..n {
        fabric.add_node(layout.fabric_port(v, graph.degree(v)), cfg.queues, cfg.link);
    }
    ends.wire(&mut fabric, hosts_per_tor);
    // Switch graph edges: the k-th edge `v → to` and the k-th edge `to → v`
    // are the two ends of one link. One pass lists, per ordered pair, the
    // adjacency indices of its edges in order.
    let mut edges_of: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for v in 0..n {
        for (i, e) in graph.edges(v).iter().enumerate() {
            edges_of.entry((v, e.to)).or_default().push(i);
        }
    }
    for (&(v, to), forward) in edges_of.iter().filter(|((v, to), _)| v < to) {
        let back = edges_of.get(&(to, v)).map_or(&[][..], Vec::as_slice);
        assert_eq!(forward.len(), back.len(), "symmetric graph");
        for (&i, &j) in forward.iter().zip(back) {
            let (pa, pb) = (layout.fabric_port(v, i), layout.fabric_port(to, j));
            fabric.connect(hosts_total + v, pa, hosts_total + to, pb);
        }
    }

    let logic = StaticLogic {
        ends,
        host_tor,
        routes,
        rng: SimRng::new(cfg.seed.wrapping_add(77)),
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

    /// The routing table as it was built before: adjacency indices, one
    /// `Vec` per `(dst_tor, vertex)`.
    fn routes_by_adjacency_index(graph: &Graph, tors: usize) -> Vec<Vec<u8>> {
        let n = graph.len();
        let mut next_hops = vec![Vec::new(); tors * n];
        for dst_tor in 0..tors {
            let dist = graph.bfs_distances(dst_tor);
            for v in 0..n {
                if v == dst_tor || dist[v] == usize::MAX {
                    continue;
                }
                for (i, e) in graph.edges(v).iter().enumerate() {
                    if dist[e.to] + 1 == dist[v] {
                        next_hops[dst_tor * n + v].push(u8::try_from(i).unwrap());
                    }
                }
            }
        }
        next_hops
    }

    #[test]
    fn flat_routes_equal_the_per_row_build() {
        let expander = ExpanderParams {
            racks: 64,
            uplinks: 5,
            hosts_per_rack: 3,
        };
        let clos = ClosTopology::generate(ClosParams::example_648());
        let cases = [
            (
                ExpanderTopology::generate(expander, 1).graph().clone(),
                expander.racks,
                expander.hosts_per_rack,
            ),
            (
                clos.graph().clone(),
                clos.tors(),
                ClosParams::example_648().hosts_per_tor(),
            ),
        ];
        for (graph, tors, hosts_per_tor) in cases {
            let layout = PortLayout {
                tors,
                hosts_per_tor,
            };
            let routes = Routes::build(&graph, layout);
            let old = routes_by_adjacency_index(&graph, tors);
            let mut hops = 0;
            for dst_tor in 0..tors {
                for v in 0..graph.len() {
                    let by_index: Vec<u8> = old[dst_tor * graph.len() + v]
                        .iter()
                        .map(|&i| u8::try_from(layout.fabric_port(v, i as usize)).unwrap())
                        .collect();
                    assert_eq!(routes.toward(dst_tor, v), by_index, "{v} → ToR {dst_tor}");
                    hops += by_index.len();
                }
            }
            assert_eq!(hops, routes.ports.len());
            assert!(hops > 0);
        }
    }

    #[test]
    #[should_panic(expected = "fabric port must fit u8")]
    fn routes_refuse_a_port_past_u8() {
        // A hub with 256 spokes: the route from the hub to the last spoke
        // leaves by adjacency entry 255, fabric port 256 at a ToR with one
        // host.
        let mut star = Graph::new(257);
        for spoke in 1..=256 {
            star.add_link(0, spoke, 0);
        }
        Routes::build(
            &star,
            PortLayout {
                tors: 257,
                hosts_per_tor: 1,
            },
        );
    }
}
