//! Topology-specific flow-model builders.
//!
//! Translate a topology plus a rack-level demand matrix into a solver
//! [`Instance`]:
//!
//! * **Graph networks** (static expander, folded Clos): demands are routed
//!   over equal-split ECMP shortest paths on the switch graph; per-rack
//!   host aggregate links model the NIC capacity at both ends.
//! * **Opera / RotorNet**: over one cycle every ordered rack pair owns a
//!   direct circuit for `(u − g)/N` of the time, so the fluid view is a
//!   complete mesh of thin links; bulk demand rides the mesh directly, and
//!   any unsatisfied remainder is offered to two-hop Valiant paths on the
//!   residual mesh (RotorLB §4.2.2) at a 100% bandwidth tax.

use crate::solver::{max_min_rates, Instance, LinkId};
use topo::graph::Graph;
use topo::opera::OperaTopology;

/// A rack-level traffic demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Source rack.
    pub src: usize,
    /// Destination rack.
    pub dst: usize,
    /// Offered load (same units as link rates, e.g. Gb/s).
    pub amount: f64,
}

/// Result of a model evaluation.
#[derive(Debug, Clone)]
pub struct ModelResult {
    /// Achieved rate per demand (same order as the input).
    pub rates: Vec<f64>,
    /// Offered amount per demand.
    pub demands: Vec<f64>,
}

impl ModelResult {
    /// Aggregate delivered / aggregate offered, in `[0, 1]`.
    pub fn throughput_fraction(&self) -> f64 {
        let offered: f64 = self.demands.iter().sum();
        if offered == 0.0 {
            return 0.0;
        }
        self.rates.iter().sum::<f64>() / offered
    }

    /// Total delivered rate.
    pub fn delivered(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// Minimum per-demand satisfaction fraction (worst-served demand).
    pub fn min_fraction(&self) -> f64 {
        self.rates
            .iter()
            .zip(&self.demands)
            .map(|(&r, &d)| if d > 0.0 { r / d } else { 1.0 })
            .fold(1.0, f64::min)
    }
}

/// Per-unit-rate ECMP load of a `src → dst` demand on the directed edges of
/// `g`. Edge ids are `edge_offset[node] + index_within_adjacency`.
fn ecmp_loads(g: &Graph, edge_offset: &[usize], src: usize, dst: usize) -> Vec<(LinkId, f64)> {
    if src == dst {
        return Vec::new();
    }
    let dist = g.bfs_distances(dst);
    if dist[src] == usize::MAX {
        return Vec::new();
    }
    // Process nodes by decreasing distance-to-dst so flow fractions are
    // final before splitting onward.
    let mut frac = vec![0.0; g.len()];
    frac[src] = 1.0;
    let mut order: Vec<usize> = (0..g.len())
        .filter(|&v| dist[v] != usize::MAX && dist[v] <= dist[src])
        .collect();
    order.sort_unstable_by_key(|&v| std::cmp::Reverse(dist[v]));
    let mut loads: Vec<(LinkId, f64)> = Vec::new();
    for v in order {
        if v == dst || frac[v] == 0.0 {
            continue;
        }
        let next: Vec<usize> = g
            .edges(v)
            .iter()
            .enumerate()
            .filter(|(_, e)| dist[e.to] + 1 == dist[v])
            .map(|(i, _)| i)
            .collect();
        debug_assert!(!next.is_empty(), "no downhill edge on a shortest path");
        let share = frac[v] / next.len() as f64;
        for i in next {
            loads.push((edge_offset[v] + i, share));
            frac[g.edges(v)[i].to] += share;
        }
    }
    loads
}

/// How demands are routed over a graph network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Equal-split over all shortest paths (classic ECMP; right for Clos
    /// fabrics, which have many equal-cost paths).
    EcmpShortest,
    /// Equal-split over up to `k` edge-disjoint short paths (greedy
    /// shortest-first), modeling NDP-style per-packet multipath spraying
    /// on expanders, where single-shortest-path ECMP would waste the
    /// fabric.
    DisjointPaths(usize),
}

/// Hop slack over the shortest path allowed for additional disjoint paths:
/// longer detours hurt more (bandwidth tax) than the extra path helps.
const DISJOINT_SLACK: usize = 2;

/// Up to `k` edge-disjoint paths `src → dst`, greedy shortest-first,
/// keeping only paths within [`DISJOINT_SLACK`] hops of the shortest.
/// Each path is a list of directed edge ids.
fn disjoint_paths(
    g: &Graph,
    edge_offset: &[usize],
    src: usize,
    dst: usize,
    k: usize,
) -> Vec<Vec<LinkId>> {
    let total_edges: usize = (0..g.len()).map(|v| g.degree(v)).sum();
    let mut used = vec![false; total_edges];
    let mut paths: Vec<Vec<LinkId>> = Vec::new();
    let mut max_len = usize::MAX;
    for _ in 0..k {
        // BFS over unused edges, remembering the incoming edge id.
        let mut prev_edge = vec![usize::MAX; g.len()];
        let mut prev_node = vec![usize::MAX; g.len()];
        let mut seen = vec![false; g.len()];
        seen[src] = true;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(v) = queue.pop_front() {
            if v == dst {
                break;
            }
            for (i, e) in g.edges(v).iter().enumerate() {
                let eid = edge_offset[v] + i;
                if used[eid] || seen[e.to] {
                    continue;
                }
                seen[e.to] = true;
                prev_edge[e.to] = eid;
                prev_node[e.to] = v;
                queue.push_back(e.to);
            }
        }
        if !seen[dst] {
            break;
        }
        // Reconstruct the path.
        let mut path = Vec::new();
        let mut v = dst;
        while v != src {
            path.push(prev_edge[v]);
            v = prev_node[v];
        }
        path.reverse();
        if paths.is_empty() {
            max_len = path.len() + DISJOINT_SLACK;
        }
        if path.len() > max_len {
            break; // remaining disjoint paths only get longer
        }
        for &eid in &path {
            used[eid] = true;
        }
        paths.push(path);
    }
    paths
}

/// Evaluate a graph network (expander rack graph or Clos switch graph).
///
/// * `tor_of_rack[r]` maps rack `r` to its graph node (identity for rack
///   graphs; ToR node id for a Clos),
/// * `link_rate` is the capacity of every graph edge,
/// * `host_cap` is the per-rack aggregate NIC capacity (d × host rate),
///   applied at both the sending and receiving rack.
pub fn graph_model(
    g: &Graph,
    tor_of_rack: &[usize],
    demands: &[Demand],
    link_rate: f64,
    host_cap: f64,
    routing: Routing,
) -> ModelResult {
    let mut inst = Instance::new();
    // Directed graph edges.
    let mut edge_offset = vec![0usize; g.len()];
    let mut next = 0;
    for (v, off) in edge_offset.iter_mut().enumerate() {
        *off = next;
        next += g.degree(v);
    }
    for _ in 0..next {
        inst.add_link(link_rate);
    }
    // Host aggregate links per rack (egress at src, ingress at dst).
    let racks = tor_of_rack.len();
    let egress: Vec<LinkId> = (0..racks).map(|_| inst.add_link(host_cap)).collect();
    let ingress: Vec<LinkId> = (0..racks).map(|_| inst.add_link(host_cap)).collect();

    for d in demands {
        let s = tor_of_rack[d.src];
        let t = tor_of_rack[d.dst];
        let mut route = match routing {
            Routing::EcmpShortest => ecmp_loads(g, &edge_offset, s, t),
            Routing::DisjointPaths(k) => {
                let paths = disjoint_paths(g, &edge_offset, s, t, k);
                let mut loads = Vec::new();
                if !paths.is_empty() {
                    // Split inversely proportional to path length: longer
                    // paths carry less (NDP's per-path pull clocks achieve
                    // roughly this in steady state).
                    let norm: f64 = paths.iter().map(|p| 1.0 / p.len() as f64).sum();
                    for p in &paths {
                        let w = (1.0 / p.len() as f64) / norm;
                        for &eid in p {
                            loads.push((eid, w));
                        }
                    }
                }
                loads
            }
        };
        if route.is_empty() && d.src != d.dst {
            // Unreachable destination: demand gets zero rate by giving it
            // an impossible route on a zero-capacity link.
            let dead = inst.add_link(0.0);
            route.push((dead, 1.0));
        }
        route.push((egress[d.src], 1.0));
        route.push((ingress[d.dst], 1.0));
        inst.add_flow(route, d.amount);
    }
    let rates = max_min_rates(&inst);
    ModelResult {
        rates,
        demands: demands.iter().map(|d| d.amount).collect(),
    }
}

/// Expander evaluation with the NDP multipath default (`u`-way disjoint
/// paths, where `u` is the rack degree).
pub fn expander_model(
    g: &Graph,
    tor_of_rack: &[usize],
    demands: &[Demand],
    link_rate: f64,
    host_cap: f64,
) -> ModelResult {
    let u = if g.is_empty() { 1 } else { g.degree(0).max(1) };
    graph_model(
        g,
        tor_of_rack,
        demands,
        link_rate,
        host_cap,
        Routing::DisjointPaths(u),
    )
}

/// Analytic folded-Clos throughput per unit of offered per-host load: an
/// `F:1` over-subscribed Clos admits `min(1, 1/F)` of any all-cross-rack
/// workload, independent of pattern (§5.6). `alpha` per Appendix A,
/// `tiers = 3`.
pub fn clos_throughput(alpha: f64) -> f64 {
    let f = topo::cost::clos_oversubscription(alpha, 3);
    (1.0 / f).min(1.0)
}

/// The two-hop Valiant route of one unit of `src → dst` rate over an
/// `n`-rack mesh (link `a·n + b` from rack `a` to rack `b`), spread
/// uniformly over all intermediates `m ∉ {src, dst}`: both mesh hops of
/// every intermediate, then the `egress` and `ingress` host links. The
/// first hops (row `src·n + m`) come before the second (column
/// `m·n + dst`): no mesh link appears twice in the route, so the order
/// changes no result bit, and the route folds into at most 7 runs (see
/// [`crate::solver`]).
fn valiant_route(
    n: usize,
    src: usize,
    dst: usize,
    egress: LinkId,
    ingress: LinkId,
) -> Vec<(LinkId, f64)> {
    let mids = || (0..n).filter(move |&m| m != src && m != dst);
    let hops = mids().count();
    let w = 1.0 / hops as f64;
    let mut route = Vec::with_capacity(2 * hops + 2);
    route.extend(mids().map(|m| (src * n + m, w)));
    route.extend(mids().map(|m| (m * n + dst, w)));
    route.push((egress, 1.0));
    route.push((ingress, 1.0));
    route
}

/// Evaluate Opera (or a RotorNet rotor plane) on rack-level demands.
///
/// The cycle-averaged mesh gives every ordered pair `rate·(u−g)/N` of
/// direct capacity (`duty` additionally derates for guard bands). Demands
/// first fill direct circuits max-min fairly; the unsatisfied remainder is
/// then spread over two-hop Valiant paths on the residual mesh when
/// `allow_vlb` (RotorLB's skew handling).
pub fn opera_model(
    topo: &OperaTopology,
    demands: &[Demand],
    link_rate: f64,
    duty: f64,
    allow_vlb: bool,
) -> ModelResult {
    let n = topo.racks();
    let u = topo.switches();
    let g = topo.params().groups;
    let d = topo.params().hosts_per_rack;
    let pair_cap = link_rate * duty * (u - g) as f64 / n as f64;
    let host_cap = d as f64 * link_rate;

    let mut inst = Instance::new();
    // Mesh links, ordered pairs (a, b): id = a*n + b.
    for _ in 0..n * n {
        inst.add_link(pair_cap);
    }
    let egress: Vec<LinkId> = (0..n).map(|_| inst.add_link(host_cap)).collect();
    let ingress: Vec<LinkId> = (0..n).map(|_| inst.add_link(host_cap)).collect();

    // Phase 1: direct circuits only.
    for dem in demands {
        let route = vec![
            (dem.src * n + dem.dst, 1.0),
            (egress[dem.src], 1.0),
            (ingress[dem.dst], 1.0),
        ];
        inst.add_flow(route, dem.amount);
    }
    let direct_rates = max_min_rates(&inst);
    if !allow_vlb {
        return ModelResult {
            rates: direct_rates,
            demands: demands.iter().map(|d| d.amount).collect(),
        };
    }

    // Phase 2: leftover demand over two-hop paths on residual capacity.
    let residual = inst.residual(&direct_rates);
    let mut inst2 = Instance::new();
    for &cap in &residual {
        inst2.add_link(cap);
    }
    let mut vlb_flows = Vec::new();
    for (i, dem) in demands.iter().enumerate() {
        let leftover = (dem.amount - direct_rates[i]).max(0.0);
        if leftover <= 1e-12 || n <= 2 {
            continue;
        }
        let route = valiant_route(n, dem.src, dem.dst, egress[dem.src], ingress[dem.dst]);
        let fid = inst2.add_flow(route, leftover);
        vlb_flows.push((i, fid));
    }
    let vlb_rates = max_min_rates(&inst2);
    let mut rates = direct_rates;
    for (i, fid) in vlb_flows {
        rates[i] += vlb_rates[fid];
    }
    ModelResult {
        rates,
        demands: demands.iter().map(|d| d.amount).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::oracle;
    use simkit::SimRng;
    use topo::expander::{ExpanderParams, ExpanderTopology};
    use topo::opera::OperaParams;

    const OPERA24: OperaParams = OperaParams {
        racks: 24,
        uplinks: 4,
        hosts_per_rack: 4,
        groups: 1,
    };

    fn opera24() -> OperaTopology {
        OperaTopology::generate(OPERA24, 3)
    }

    /// `opera_model`'s rates as they were before routes became runs: on the
    /// oracle's entry-list instance, each Valiant route interleaving the
    /// two hops of every intermediate.
    fn opera_model_interleaved(
        topo: &OperaTopology,
        demands: &[Demand],
        link_rate: f64,
        duty: f64,
        allow_vlb: bool,
    ) -> Vec<f64> {
        let n = topo.racks();
        let u = topo.switches();
        let g = topo.params().groups;
        let d = topo.params().hosts_per_rack;
        let pair_cap = link_rate * duty * (u - g) as f64 / n as f64;
        let host_cap = d as f64 * link_rate;

        let mut inst = oracle::Instance::default();
        for _ in 0..n * n {
            inst.add_link(pair_cap);
        }
        let egress: Vec<LinkId> = (0..n).map(|_| inst.add_link(host_cap)).collect();
        let ingress: Vec<LinkId> = (0..n).map(|_| inst.add_link(host_cap)).collect();
        for dem in demands {
            let route = vec![
                (dem.src * n + dem.dst, 1.0),
                (egress[dem.src], 1.0),
                (ingress[dem.dst], 1.0),
            ];
            inst.add_flow(route, dem.amount);
        }
        let direct_rates = oracle::max_min_rates(&inst);
        if !allow_vlb {
            return direct_rates;
        }

        let residual = inst.residual(&direct_rates);
        let mut inst2 = oracle::Instance::default();
        for &cap in &residual {
            inst2.add_link(cap);
        }
        let mut vlb_flows = Vec::new();
        for (i, dem) in demands.iter().enumerate() {
            let leftover = (dem.amount - direct_rates[i]).max(0.0);
            if leftover <= 1e-12 || n <= 2 {
                continue;
            }
            let mids: Vec<usize> = (0..n).filter(|&m| m != dem.src && m != dem.dst).collect();
            let w = 1.0 / mids.len() as f64;
            let mut route = Vec::with_capacity(2 * mids.len() + 2);
            for &m in &mids {
                route.push((dem.src * n + m, w));
                route.push((m * n + dem.dst, w));
            }
            route.push((egress[dem.src], 1.0));
            route.push((ingress[dem.dst], 1.0));
            let fid = inst2.add_flow(route, leftover);
            vlb_flows.push((i, fid));
        }
        let vlb_rates = oracle::max_min_rates(&inst2);
        let mut rates = direct_rates;
        for (i, fid) in vlb_flows {
            rates[i] += vlb_rates[fid];
        }
        rates
    }

    /// Fig12's four demand shapes on `n` racks of `d` hosts at `rate`:
    /// all-to-all at full host capacity, skew[0.2, 1] and a permutation
    /// (both drawn from `rng`), and the hot rack.
    fn demand_sets(n: usize, d: usize, rate: f64, rng: &mut SimRng) -> [Vec<Demand>; 4] {
        let full = d as f64 * rate;
        let ring = |ids: &[usize]| -> Vec<Demand> {
            (0..ids.len())
                .map(|i| Demand {
                    src: ids[i],
                    dst: ids[(i + 1) % ids.len()],
                    amount: full,
                })
                .collect()
        };
        let all_to_all = (0..n)
            .flat_map(|a| {
                (0..n).filter(move |&b| b != a).map(move |b| Demand {
                    src: a,
                    dst: b,
                    amount: full / (n - 1) as f64,
                })
            })
            .collect();
        let mut ids: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut ids);
        let skew = ring(&ids[..(n / 5).max(2)]);
        rng.shuffle(&mut ids);
        let permutation = ring(&ids);
        let hot_rack = vec![Demand {
            src: 0,
            dst: 1,
            amount: full,
        }];
        [all_to_all, skew, permutation, hot_rack]
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn opera_model_equals_the_interleaved_oracle() {
        let rate = 10.0;
        let mut rng = SimRng::new(29);
        for params in [
            OPERA24,
            OperaParams::from_radix(8, 48),
            OperaParams::from_radix(12, 108),
        ] {
            let topo = OperaTopology::generate(params, 5);
            let sets = demand_sets(topo.racks(), params.hosts_per_rack, rate, &mut rng);
            for (name, demands) in ["all-to-all", "skew", "permutation", "hot rack"]
                .iter()
                .zip(&sets)
            {
                for vlb in [false, true] {
                    let got = opera_model(&topo, demands, rate, 0.98, vlb).rates;
                    let want = opera_model_interleaved(&topo, demands, rate, 0.98, vlb);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{} racks, {name}, VLB {vlb}",
                        topo.racks()
                    );
                }
            }
        }
    }

    #[test]
    fn a_valiant_route_is_at_most_7_runs() {
        let mut rng = SimRng::new(7);
        let mut sizes: Vec<usize> = (3..=16).chain([47, 48, 108, 255, 256, 432]).collect();
        sizes.extend((0..12).map(|_| 17 + rng.index(416)));
        let mut longest = 0;
        for n in sizes {
            let mut inst = Instance::new();
            for _ in 0..n * n + 2 * n {
                inst.add_link(1.0);
            }
            let mut pairs = vec![(0, 1), (1, 0), (0, n - 1), (n - 1, 0), (1, n - 2), (2, 2)];
            pairs.extend((0..40).map(|_| (rng.index(n), rng.index(n))));
            for (src, dst) in pairs {
                let route = valiant_route(n, src, dst, n * n + src, n * n + n + dst);
                let f = inst.add_flow(route, 1.0);
                let runs = inst.runs_of(f);
                assert!(runs <= 7, "{n} racks, {src} → {dst}: {runs} runs");
                longest = longest.max(runs);
            }
        }
        assert_eq!(longest, 7);
    }

    #[test]
    fn opera_all_to_all_uses_direct_paths() {
        let t = opera24();
        let n = t.racks();
        // Uniform all-to-all at total host capacity: each rack offers
        // d*rate spread over n-1 destinations.
        let per_pair = 4.0 * 10.0 / (n - 1) as f64;
        let demands: Vec<Demand> = (0..n)
            .flat_map(|a| {
                (0..n).filter(move |&b| b != a).map(move |b| Demand {
                    src: a,
                    dst: b,
                    amount: per_pair,
                })
            })
            .collect();
        let res = opera_model(&t, &demands, 10.0, 1.0, true);
        // Direct mesh capacity per pair: 10*(4-1)/24 = 1.25 > 1.74? No:
        // offered 40/23 = 1.74 > 1.25 -> direct-limited at 1.25, VLB can't
        // help (mesh fully busy). Fraction = 1.25/1.74 ≈ 0.72.
        let expect = 1.25 / per_pair;
        assert!(
            (res.throughput_fraction() - expect).abs() < 0.02,
            "got {} want {}",
            res.throughput_fraction(),
            expect
        );
    }

    #[test]
    fn opera_hotrack_vlb_multiplies_throughput() {
        let t = opera24();
        let demands = vec![Demand {
            src: 0,
            dst: 1,
            amount: 40.0, // full rack demand, d*rate
        }];
        let no_vlb = opera_model(&t, &demands, 10.0, 1.0, false);
        let vlb = opera_model(&t, &demands, 10.0, 1.0, true);
        // Direct-only: one pair link = 10*3/24 = 1.25.
        assert!((no_vlb.delivered() - 1.25).abs() < 1e-6);
        // With VLB the rack can spray across 22 intermediates, bounded by
        // its cycle-averaged uplink capacity (~(u-1)*rate = 30) and the
        // double-charging of relay hops.
        assert!(
            vlb.delivered() > 10.0,
            "VLB delivered only {}",
            vlb.delivered()
        );
        assert!(vlb.delivered() <= 40.0 + 1e-9);
    }

    #[test]
    fn expander_permutation_full_rate() {
        // u=7 expander, rack-level permutation demand d*rate=50 per rack;
        // plenty of capacity -> every demand served at a high fraction.
        let t = ExpanderTopology::generate(
            ExpanderParams {
                racks: 64,
                uplinks: 7,
                hosts_per_rack: 5,
            },
            5,
        );
        let n = t.racks();
        let demands: Vec<Demand> = (0..n)
            .map(|r| Demand {
                src: r,
                dst: (r + n / 2) % n,
                amount: 50.0,
            })
            .collect();
        let tor: Vec<usize> = (0..n).collect();
        let res = expander_model(t.graph(), &tor, &demands, 10.0, 50.0);
        // Average path length ~2.5 -> aggregate bandwidth tax ~150%; with
        // u=7 uplinks per rack serving d=5 hosts' demand, throughput should
        // be around 7*10 / (2.5 * 50) ≈ 0.56 — well above Clos' 1/3, well
        // below 1.
        let f = res.throughput_fraction();
        // The fixed-route disjoint-path model is pessimistic vs optimal
        // routing (see `mcf` for the optimal-routing bound); it should
        // still clearly beat a 3:1 Clos' 1/5.5... per-host admission and
        // stay below 1.
        assert!(f > 0.2 && f < 0.95, "throughput fraction {f}");
    }

    #[test]
    fn expander_single_demand_limited_by_host_cap() {
        let t = ExpanderTopology::generate(
            ExpanderParams {
                racks: 16,
                uplinks: 5,
                hosts_per_rack: 5,
            },
            6,
        );
        let tor: Vec<usize> = (0..16).collect();
        let demands = vec![Demand {
            src: 0,
            dst: 8,
            amount: 1e9,
        }];
        let res = expander_model(t.graph(), &tor, &demands, 10.0, 50.0);
        // Min cut is u*rate = 50 = host cap; either binds at 50.
        assert!(res.delivered() <= 50.0 + 1e-6);
        assert!(res.delivered() > 29.0, "delivered {}", res.delivered());
    }

    #[test]
    fn clos_analytic_values() {
        assert!((clos_throughput(4.0 / 3.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((clos_throughput(2.0) - 0.5).abs() < 1e-12);
        assert!((clos_throughput(4.0) - 1.0).abs() < 1e-12);
        assert!((clos_throughput(8.0) - 1.0).abs() < 1e-12); // capped
    }

    #[test]
    fn ecmp_loads_conserve_flow() {
        let t = ExpanderTopology::generate(
            ExpanderParams {
                racks: 20,
                uplinks: 4,
                hosts_per_rack: 4,
            },
            7,
        );
        let g = t.graph();
        let mut edge_offset = vec![0usize; g.len()];
        let mut next = 0;
        for (v, off) in edge_offset.iter_mut().enumerate() {
            *off = next;
            next += g.degree(v);
        }
        let loads = ecmp_loads(g, &edge_offset, 0, 13);
        // Loads out of the source sum to 1.
        let src_out: f64 = loads
            .iter()
            .filter(|&&(l, _)| l >= edge_offset[0] && l < edge_offset[0] + g.degree(0))
            .map(|&(_, w)| w)
            .sum();
        assert!((src_out - 1.0).abs() < 1e-9, "src out {src_out}");
        // All weights positive and ≤ 1.
        assert!(loads.iter().all(|&(_, w)| w > 0.0 && w <= 1.0));
    }

    #[test]
    fn duty_scales_opera_capacity() {
        let t = opera24();
        let demands = vec![Demand {
            src: 2,
            dst: 9,
            amount: 100.0,
        }];
        let full = opera_model(&t, &demands, 10.0, 1.0, false);
        let derated = opera_model(&t, &demands, 10.0, 0.9, false);
        assert!((derated.delivered() / full.delivered() - 0.9).abs() < 1e-9);
    }
}
