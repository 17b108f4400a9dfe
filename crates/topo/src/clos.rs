//! Over-subscribed three-tier folded-Clos baselines (§2.3, Appendix A).
//!
//! The paper's cost-normalized Clos keeps the switch radix `k` and host
//! count fixed and over-subscribes only at the ToR tier: a ToR has
//! `d = k·F/(F+1)` host-facing ports and `u = k/(F+1)` uplinks, giving an
//! `F:1` network. Host count follows `H = (4F/(F+1))·(k/2)³` (Appendix A
//! with `T = 3` tiers).
//!
//! Structure generated here (for `F = 3`-style configs):
//! * a pod contains `k/2` ToRs and `u` aggregation switches; each ToR
//!   connects once to each agg;
//! * each agg uses `k/2` down-ports and `k/2` up-ports;
//! * there are `k` pods and `u·(k/2)·k/k = u·k/2` core switches; each core
//!   switch has one link per pod.
//!
//! The generated object is a switch-level [`Graph`] plus role metadata, so
//! path-length, failure, and flow-level analyses can treat it uniformly
//! with the rack-level topologies (ToR-to-ToR hop counts are graph hops).

use crate::graph::{Graph, NodeId};

/// Roles of switches in the folded Clos.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosRole {
    /// Top-of-rack switch (hosts attach here).
    Tor,
    /// Pod aggregation switch.
    Agg,
    /// Core (spine) switch.
    Core,
}

/// Parameters for an over-subscribed folded Clos.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosParams {
    /// Switch radix `k` (even).
    pub radix: usize,
    /// Over-subscription factor `F` (e.g. 3 for 3:1). `F+1` must divide `k`.
    pub oversubscription: usize,
}

impl ClosParams {
    /// The paper's `k = 12`, 3:1, 648-host Clos.
    pub fn example_648() -> Self {
        ClosParams {
            radix: 12,
            oversubscription: 3,
        }
    }

    /// ToR uplink count `u = k/(F+1)`.
    pub fn tor_uplinks(&self) -> usize {
        self.radix / (self.oversubscription + 1)
    }

    /// Hosts per ToR `d = k·F/(F+1)`.
    pub fn hosts_per_tor(&self) -> usize {
        self.radix - self.tor_uplinks()
    }

    /// Total hosts `H = (4F/(F+1))(k/2)³`.
    pub fn hosts(&self) -> usize {
        let f = self.oversubscription;
        4 * f * (self.radix / 2).pow(3) / (f + 1)
    }
}

/// A generated folded-Clos topology.
#[derive(Debug, Clone)]
pub struct ClosTopology {
    params: ClosParams,
    graph: Graph,
    roles: Vec<ClosRole>,
    tors: usize,
    aggs: usize,
    cores: usize,
    aggs_per_pod: usize,
}

impl ClosTopology {
    /// Build the Clos. Node ids: ToRs `[0, tors)`, aggs `[tors,
    /// tors+aggs)`, cores after that. Edge `port` labels index a switch's
    /// relevant port group (uplink number at the lower tier).
    ///
    /// # Panics
    /// Panics if the parameters do not define a consistent 3-tier Clos
    /// (`(F+1) | k` and `k` even).
    pub fn generate(params: ClosParams) -> Self {
        let k = params.radix;
        let f = params.oversubscription;
        assert!(k.is_multiple_of(2), "radix must be even");
        assert!(k.is_multiple_of(f + 1), "(F+1) must divide k");

        let u = params.tor_uplinks(); // ToR uplinks = aggs per pod
        let tors_per_pod = k / 2; // agg down-ports
        let pods = k;
        let tors = tors_per_pod * pods;
        let aggs_per_pod = u;
        let aggs = aggs_per_pod * pods;
        // Each agg has k - tors_per_pod = k/2 uplinks; total agg uplinks
        // = pods * u * k/2; each core takes one link per pod.
        let cores = aggs_per_pod * (k - tors_per_pod);
        assert_eq!(
            params.hosts(),
            tors * params.hosts_per_tor(),
            "host formula consistent with structure"
        );

        let n = tors + aggs + cores;
        let mut graph = Graph::new(n);
        let mut roles = vec![ClosRole::Tor; n];
        for r in roles.iter_mut().take(tors + aggs).skip(tors) {
            *r = ClosRole::Agg;
        }
        for r in roles.iter_mut().skip(tors + aggs) {
            *r = ClosRole::Core;
        }

        // ToR <-> Agg within each pod.
        for pod in 0..pods {
            for t in 0..tors_per_pod {
                let tor = pod * tors_per_pod + t;
                for a in 0..aggs_per_pod {
                    let agg = tors + pod * aggs_per_pod + a;
                    graph.add_link(tor, agg, a);
                }
            }
        }
        // Agg <-> Core: agg `a` of each pod connects to cores
        // [a*(k/2), (a+1)*(k/2)); each such core gets exactly one link from
        // every pod.
        let agg_up = k - tors_per_pod;
        for pod in 0..pods {
            for a in 0..aggs_per_pod {
                let agg = tors + pod * aggs_per_pod + a;
                for up in 0..agg_up {
                    let core = tors + aggs + a * agg_up + up;
                    graph.add_link(agg, core, up);
                }
            }
        }

        ClosTopology {
            params,
            graph,
            roles,
            tors,
            aggs,
            cores,
            aggs_per_pod,
        }
    }

    /// Parameters.
    pub fn params(&self) -> &ClosParams {
        &self.params
    }
    /// Switch-level graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
    /// Role of a node.
    pub fn role(&self, node: NodeId) -> ClosRole {
        self.roles[node]
    }
    /// Number of ToRs.
    pub fn tors(&self) -> usize {
        self.tors
    }
    /// Number of aggregation switches.
    pub fn aggs(&self) -> usize {
        self.aggs
    }
    /// Number of core switches.
    pub fn cores(&self) -> usize {
        self.cores
    }
    /// Aggs per pod.
    pub fn aggs_per_pod(&self) -> usize {
        self.aggs_per_pod
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_648_shape() {
        let t = ClosTopology::generate(ClosParams::example_648());
        assert_eq!(t.params().hosts(), 648);
        assert_eq!(t.params().hosts_per_tor(), 9);
        assert_eq!(t.params().tor_uplinks(), 3);
        assert_eq!(t.tors(), 72);
        assert_eq!(t.aggs(), 36);
        assert_eq!(t.cores(), 18);
        assert!(t.graph().is_connected());
    }

    #[test]
    fn port_counts_within_radix() {
        let t = ClosTopology::generate(ClosParams::example_648());
        let k = t.params().radix;
        for n in 0..t.graph().len() {
            let deg = t.graph().degree(n);
            let host_ports = match t.role(n) {
                ClosRole::Tor => t.params().hosts_per_tor(),
                _ => 0,
            };
            assert!(
                deg + host_ports <= k,
                "node {n} uses {deg}+{host_ports} of {k} ports"
            );
        }
    }

    #[test]
    fn tor_to_tor_hop_distribution() {
        let params = ClosParams::example_648();
        let t = ClosTopology::generate(params);
        // same pod (k / 2 ToRs): 2 hops (ToR-Agg-ToR); cross pod: 4 hops.
        let tors_per_pod = params.radix / 2;
        let d = t.graph().bfs_distances(0);
        for (tor, &dist) in d.iter().enumerate().take(t.tors()).skip(1) {
            let expect = if tor < tors_per_pod { 2 } else { 4 };
            assert_eq!(dist, expect, "tor {tor}");
        }
    }

    #[test]
    fn k24_consistency() {
        let t = ClosTopology::generate(ClosParams {
            radix: 24,
            oversubscription: 3,
        });
        assert_eq!(t.params().hosts(), 5184);
        assert!(t.graph().is_connected());
    }

    #[test]
    fn core_reaches_every_pod() {
        let t = ClosTopology::generate(ClosParams::example_648());
        let first_core = t.tors() + t.aggs();
        for c in first_core..first_core + t.cores() {
            let mut pods: Vec<usize> = t
                .graph()
                .edges(c)
                .iter()
                .map(|e| (e.to - t.tors()) / t.aggs_per_pod())
                .collect();
            pods.sort_unstable();
            pods.dedup();
            assert_eq!(pods.len(), t.params().radix, "core {c} misses a pod");
        }
    }

    #[test]
    #[should_panic(expected = "divide k")]
    fn inconsistent_params_rejected() {
        ClosTopology::generate(ClosParams {
            radix: 12,
            oversubscription: 4,
        });
    }
}
