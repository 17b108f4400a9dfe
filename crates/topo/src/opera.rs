//! The Opera topology: time-varying expander from offset rotor switches.
//!
//! Construction (§3.3): factor the complete rack graph into `N` disjoint
//! symmetric matchings, assign `N/u` matchings to each of the `u` circuit
//! switches, and fix a random cyclic order per switch. At run time the
//! switches step through their matchings with *offset* reconfigurations
//! (§3.1.1): the cycle is divided into *topology slices*, and at the end of
//! each slice one switch (or one per group, Appendix B) reconfigures.
//!
//! During a slice, packets are not routed through circuits of a switch with
//! an impending reconfiguration (§4.1), so the routable graph of slice `s`
//! is the union of the matchings of the other `u − g` switches — which is an
//! expander with high probability for `u − g ≥ 3` (§3.1.2).

use crate::graph::{Graph, NodeId};
use crate::lifting::factorize_lifted;
use crate::matching::{validate_factorization, Matching};
use simkit::SimRng;

/// Parameters of an Opera network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperaParams {
    /// Number of racks (`N`). Must be a multiple of `uplinks`.
    pub racks: usize,
    /// Circuit switches / ToR uplinks (`u = k/2`).
    pub uplinks: usize,
    /// Hosts per rack (`d = k/2` in a 1:1-provisioned ToR).
    pub hosts_per_rack: usize,
    /// Switches reconfiguring simultaneously (Appendix B grouping; `1` for
    /// small networks). Must divide `uplinks`.
    pub groups: usize,
}

impl OperaParams {
    /// The paper's running example: `k = 12` ⇒ 108 racks × 6 hosts = 648
    /// hosts, 6 circuit switches.
    pub fn example_648() -> Self {
        OperaParams {
            racks: 108,
            uplinks: 6,
            hosts_per_rack: 6,
            groups: 1,
        }
    }

    /// Derive parameters from a ToR radix `k` (1:1 provisioned: `u = d =
    /// k/2`) and a number of racks.
    pub fn from_radix(k: usize, racks: usize) -> Self {
        OperaParams {
            racks,
            uplinks: k / 2,
            hosts_per_rack: k / 2,
            groups: 1,
        }
    }

    /// Total host count.
    pub fn hosts(&self) -> usize {
        self.racks * self.hosts_per_rack
    }
}

/// A fully generated Opera topology: the factorization, its assignment to
/// circuit switches, and slice bookkeeping.
#[derive(Debug, Clone)]
pub struct OperaTopology {
    params: OperaParams,
    /// `assigned[switch][position]` = matching implemented at that cycle
    /// position.
    assigned: Vec<Vec<Matching>>,
    /// Slices per full cycle (`N / groups`).
    slices_per_cycle: usize,
    /// Slices between a given switch's reconfigurations (`u / groups`).
    stride: usize,
}

impl OperaTopology {
    /// Generate a topology per §3.3 with the given seed.
    ///
    /// # Panics
    /// Panics unless `uplinks` divides `racks`, `groups` divides `uplinks`,
    /// and all parameters are non-zero.
    pub fn generate(params: OperaParams, seed: u64) -> Self {
        assert!(params.racks > 0 && params.uplinks > 0 && params.groups > 0);
        assert!(
            params.racks.is_multiple_of(params.uplinks),
            "uplinks ({}) must divide racks ({})",
            params.uplinks,
            params.racks
        );
        assert!(
            params.uplinks.is_multiple_of(params.groups),
            "groups ({}) must divide uplinks ({})",
            params.groups,
            params.uplinks
        );
        let mut rng = SimRng::new(seed);
        let n = params.racks;
        let u = params.uplinks;

        // 1. Randomly factor the complete graph into N disjoint matchings.
        let mut ms = factorize_lifted(n, &mut rng);
        debug_assert!(validate_factorization(&ms, n).is_ok());

        // 2. Randomly assign N/u matchings to each switch.
        rng.shuffle(&mut ms);
        let per_switch = n / u;
        let mut assigned: Vec<Vec<Matching>> = Vec::with_capacity(u);
        for _ in 0..u {
            let mut mine: Vec<Matching> = ms.drain(..per_switch).collect();
            // 3. Random cyclic order per switch.
            rng.shuffle(&mut mine);
            assigned.push(mine);
        }

        let stride = u / params.groups;
        OperaTopology {
            params,
            assigned,
            slices_per_cycle: n / params.groups,
            stride,
        }
    }

    /// Generate a topology and *validate* it: §3.3 notes a random
    /// realization may occasionally lack good properties ("it would be
    /// trivial to generate and test additional realizations at design
    /// time"). This retries successive seeds (wrapping past `u64::MAX` to
    /// 0) until every slice graph is connected, returning the topology and
    /// the seed that produced it. Connectivity is decided on the matchings
    /// by union-find, not on a built [`Graph`].
    ///
    /// # Panics
    /// Panics if no valid realization is found within `max_tries` seeds
    /// (never observed for sane parameters with `max_tries ≥ 16`).
    pub fn generate_validated(params: OperaParams, seed: u64, max_tries: u64) -> (Self, u64) {
        let mut roots = Vec::with_capacity(params.racks);
        for s in (0..max_tries).map(|i| seed.wrapping_add(i)) {
            let t = Self::generate(params, s);
            if (0..t.slices_per_cycle()).all(|i| t.slice_connected(i, &mut roots)) {
                return (t, s);
            }
        }
        panic!("no connected Opera realization within {max_tries} seeds of {seed}");
    }

    /// True when slice `slice`'s routable graph (what [`SliceView::graph`]
    /// builds) is connected, decided by union-find over the circuits of
    /// the non-reconfiguring switches; `roots` is scratch space.
    fn slice_connected(&self, slice: usize, roots: &mut Vec<NodeId>) -> bool {
        fn root(roots: &mut [NodeId], mut v: NodeId) -> NodeId {
            while roots[v] != v {
                roots[v] = roots[roots[v]];
                v = roots[v];
            }
            v
        }
        let s = slice % self.slices_per_cycle;
        roots.clear();
        roots.extend(0..self.racks());
        let mut parts = self.racks();
        for sw in (0..self.switches()).filter(|&sw| self.reconfiguring(s).all(|j| j != sw)) {
            for (a, b) in self.matching(sw, self.position_at(sw, s)).pairs() {
                let (ra, rb) = (root(roots, a), root(roots, b));
                if ra != rb {
                    roots[ra] = rb;
                    parts -= 1;
                }
            }
        }
        parts == 1
    }

    /// Parameters used to generate this topology.
    pub fn params(&self) -> &OperaParams {
        &self.params
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.params.racks
    }

    /// Number of circuit switches.
    pub fn switches(&self) -> usize {
        self.params.uplinks
    }

    /// Topology slices per full cycle.
    pub fn slices_per_cycle(&self) -> usize {
        self.slices_per_cycle
    }

    /// Matchings each switch cycles through (`N/u`).
    pub fn matchings_per_switch(&self) -> usize {
        self.assigned[0].len()
    }

    /// Matching implemented by `switch` at cycle `position`.
    pub fn matching(&self, switch: usize, position: usize) -> &Matching {
        &self.assigned[switch][position]
    }

    /// Number of completed reconfigurations of `switch` before slice `s`
    /// (within one cycle, `s < slices_per_cycle`).
    fn advances_before(&self, switch: usize, s: usize) -> usize {
        let phase = switch % self.stride;
        if s > phase {
            (s - phase - 1) / self.stride + 1
        } else {
            0
        }
    }

    /// Index into `assigned[switch]` of the matching active during slice
    /// `s` (slice indices taken mod the cycle).
    pub fn position_at(&self, switch: usize, slice: usize) -> usize {
        let s = slice % self.slices_per_cycle;
        self.advances_before(switch, s) % self.matchings_per_switch()
    }

    /// Switches with an *impending reconfiguration* during slice `s` — the
    /// ones routing must avoid (§3.1.1, §4.1). Exactly `groups` switches,
    /// ascending: every `j` with `j % stride == s % stride`. The iterator
    /// borrows nothing, so the slice clock can walk it while it rewires.
    pub fn reconfiguring(&self, slice: usize) -> std::iter::StepBy<std::ops::Range<usize>> {
        let s = slice % self.slices_per_cycle;
        (s % self.stride..self.params.uplinks).step_by(self.stride)
    }

    /// The routable view of slice `s`.
    pub fn slice(&self, slice: usize) -> SliceView<'_> {
        let s = slice % self.slices_per_cycle;
        let reconf = self.reconfiguring(s).collect();
        let mut current = Vec::with_capacity(self.params.uplinks);
        for j in 0..self.params.uplinks {
            current.push(self.position_at(j, s));
        }
        SliceView {
            topo: self,
            reconfiguring: reconf,
            current,
        }
    }

    /// Slices (one cycle) during which rack pair `(a, b)` has a usable
    /// direct circuit: the matching containing the pair is instantiated and
    /// its switch is not about to reconfigure. Empty only for `a == b`.
    pub fn direct_slices(&self, a: NodeId, b: NodeId) -> Vec<usize> {
        if a == b {
            return Vec::new();
        }
        let (sw, pos) = self
            .locate_pair(a, b)
            .expect("every pair appears in exactly one matching");
        (0..self.slices_per_cycle)
            .filter(|&s| self.position_at(sw, s) == pos && self.reconfiguring(s).all(|j| j != sw))
            .collect()
    }

    /// Which `(switch, position)` implements the circuit between `a` and
    /// `b`, or `None` when `a == b`.
    pub fn locate_pair(&self, a: NodeId, b: NodeId) -> Option<(usize, usize)> {
        if a == b {
            return None;
        }
        for (sw, mats) in self.assigned.iter().enumerate() {
            for (pos, m) in mats.iter().enumerate() {
                if m.partner(a) == b {
                    return Some((sw, pos));
                }
            }
        }
        unreachable!("complete factorization covers every pair")
    }
}

/// The routable topology during one slice.
#[derive(Debug, Clone)]
pub struct SliceView<'a> {
    topo: &'a OperaTopology,
    reconfiguring: Vec<usize>,
    /// `current[switch]` = position of the active matching.
    current: Vec<usize>,
}

impl<'a> SliceView<'a> {
    /// The active matching of `switch` this slice (even if reconfiguring —
    /// its circuits are physically up, just not routable for new packets).
    pub fn matching_of(&self, switch: usize) -> &'a Matching {
        self.topo.matching(switch, self.current[switch])
    }

    /// Routable rack graph: union of the matchings of all non-reconfiguring
    /// switches. Edge `port` is the circuit-switch index.
    pub fn graph(&self) -> Graph {
        let mut g = Graph::new(self.topo.racks());
        for sw in 0..self.topo.switches() {
            if self.reconfiguring.contains(&sw) {
                continue;
            }
            self.matching_of(sw).add_to_graph(&mut g, sw);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> OperaTopology {
        // 24 racks, 4 switches, groups=1 -> 24 slices, 6 matchings/switch.
        OperaTopology::generate(
            OperaParams {
                racks: 24,
                uplinks: 4,
                hosts_per_rack: 4,
                groups: 1,
            },
            42,
        )
    }

    #[test]
    fn schedule_advances_match_iterative_simulation() {
        let t = small();
        let u = t.switches();
        let mut pos = vec![0usize; u];
        for s in 0..t.slices_per_cycle() * 2 {
            for (j, &p) in pos.iter().enumerate() {
                assert_eq!(
                    t.position_at(j, s),
                    p,
                    "switch {j} slice {s} disagrees with iterative schedule"
                );
            }
            // End of slice s: the reconfiguring switches advance.
            for j in t.reconfiguring(s) {
                pos[j] = (pos[j] + 1) % t.matchings_per_switch();
            }
        }
    }

    #[test]
    fn each_switch_cycles_all_matchings() {
        let t = small();
        for j in 0..t.switches() {
            let mut seen = vec![false; t.matchings_per_switch()];
            for s in 0..t.slices_per_cycle() {
                seen[t.position_at(j, s)] = true;
            }
            assert!(seen.iter().all(|&x| x), "switch {j} missed a matching");
        }
    }

    #[test]
    fn exactly_one_switch_reconfigures_per_slice() {
        let t = small();
        for s in 0..t.slices_per_cycle() {
            assert_eq!(t.reconfiguring(s).count(), 1);
        }
        // Round-robin across switches.
        let seq: Vec<usize> = (0..8).flat_map(|s| t.reconfiguring(s)).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    /// The stepping iterator against its definition (the filter it
    /// replaced), for one and two groups, past the end of the cycle.
    #[test]
    fn reconfiguring_matches_its_definition() {
        for groups in [1, 2] {
            let t = OperaTopology::generate(
                OperaParams {
                    groups,
                    ..*small().params()
                },
                42,
            );
            for slice in 0..3 * t.slices_per_cycle() {
                let s = slice % t.slices_per_cycle();
                let by_filter: Vec<usize> = (0..t.switches())
                    .filter(|&j| j % t.stride == s % t.stride)
                    .collect();
                assert_eq!(t.reconfiguring(slice).collect::<Vec<_>>(), by_filter);
            }
        }
    }

    #[test]
    fn grouping_reduces_cycle() {
        let t = OperaTopology::generate(
            OperaParams {
                racks: 24,
                uplinks: 4,
                hosts_per_rack: 4,
                groups: 2,
            },
            42,
        );
        assert_eq!(t.slices_per_cycle(), 12);
        for s in 0..t.slices_per_cycle() {
            assert_eq!(t.reconfiguring(s).count(), 2);
        }
        // Each switch still visits all its matchings.
        for j in 0..t.switches() {
            let mut seen = vec![false; t.matchings_per_switch()];
            for s in 0..t.slices_per_cycle() {
                seen[t.position_at(j, s)] = true;
            }
            assert!(seen.iter().all(|&x| x));
        }
    }

    #[test]
    fn every_pair_gets_direct_circuit_each_cycle() {
        let t = small();
        for a in 0..t.racks() {
            for b in 0..t.racks() {
                if a == b {
                    assert!(t.direct_slices(a, b).is_empty());
                    continue;
                }
                let slices = t.direct_slices(a, b);
                assert!(
                    !slices.is_empty(),
                    "pair ({a},{b}) never has a usable direct circuit"
                );
                // Each matching is up for `stride` slices, one of which is
                // the impending-reconfiguration slice -> stride-1 usable.
                assert_eq!(slices.len(), t.stride - 1, "pair ({a},{b})");
            }
        }
    }

    #[test]
    fn slice_graphs_connected_and_degree_bounded() {
        let t = small();
        for s in 0..t.slices_per_cycle() {
            let g = t.slice(s).graph();
            assert!(g.is_connected(), "slice {s} disconnected");
            for r in 0..t.racks() {
                assert!(g.degree(r) < t.switches());
            }
        }
    }

    #[test]
    fn example_648_properties() {
        let t = OperaTopology::generate(OperaParams::example_648(), 7);
        assert_eq!(t.racks(), 108);
        assert_eq!(t.switches(), 6);
        assert_eq!(t.slices_per_cycle(), 108);
        assert_eq!(t.matchings_per_switch(), 18);
        assert_eq!(t.params().hosts(), 648);
        // Spot-check a few slices for connectivity.
        for s in [0usize, 17, 54, 107] {
            assert!(t.slice(s).graph().is_connected());
        }
    }

    #[test]
    fn validated_seeds_wrap_past_u64_max() {
        let params = OperaParams {
            racks: 12,
            uplinks: 4,
            hosts_per_rack: 1,
            groups: 1,
        };
        let (_, seed) = OperaTopology::generate_validated(params, u64::MAX - 1, 4);
        assert!([u64::MAX - 1, u64::MAX, 0, 1].contains(&seed), "{seed}");
    }

    /// The union-find predicate against the built graph's BFS on every
    /// slice, across sizes, groupings and seeds, including 12 × 4 at seed
    /// 10 (disconnected).
    #[test]
    fn slice_connected_equals_graph_connectivity() {
        let mut roots = Vec::new();
        let mut disconnected = 0;
        for (racks, uplinks, groups) in [
            (12, 4, 1),
            (12, 4, 2),
            (12, 3, 1),
            (24, 4, 1),
            (24, 6, 3),
            (130, 5, 1),
        ] {
            let params = OperaParams {
                racks,
                uplinks,
                hosts_per_rack: 1,
                groups,
            };
            for seed in 0..24 {
                let t = OperaTopology::generate(params, seed);
                for s in 0..t.slices_per_cycle() {
                    let graph = t.slice(s).graph().is_connected();
                    assert_eq!(
                        t.slice_connected(s, &mut roots),
                        graph,
                        "{params:?} seed {seed} slice {s}"
                    );
                    disconnected += usize::from(!graph);
                }
            }
        }
        assert!(disconnected > 0, "the grid must hold a disconnected slice");
    }

    /// 12 racks × 4 uplinks is disconnected at seed 10 and connected at 11:
    /// the retry skips the first and returns the second.
    #[test]
    fn validation_skips_a_disconnected_realization() {
        let params = OperaParams {
            racks: 12,
            uplinks: 4,
            hosts_per_rack: 1,
            groups: 1,
        };
        let bad = OperaTopology::generate(params, 10);
        let mut roots = Vec::new();
        let cut: Vec<usize> = (0..bad.slices_per_cycle())
            .filter(|&s| !bad.slice_connected(s, &mut roots))
            .collect();
        assert!(!cut.is_empty(), "seed 10 should be disconnected");
        for &s in &cut {
            assert!(!bad.slice(s).graph().is_connected(), "slice {s}");
        }
        assert_eq!(OperaTopology::generate_validated(params, 10, 4).1, 11);
    }

    #[test]
    fn locate_pair_finds_unique_home() {
        let t = small();
        let (sw, pos) = t.locate_pair(0, 5).unwrap();
        assert_eq!(t.matching(sw, pos).partner(0), 5);
        assert!(t.locate_pair(3, 3).is_none());
    }
}
